//! `late_stream`: out-of-order arrival through the watermark path.
//!
//! Two dimensions; about 10k m-cells (level 2 of fan-out 10) under a
//! primitive layer one level finer on both (1M cells). Each tick emits
//! `rate` seeded records that arrive shuffled within the allowed
//! lateness of 2 units. A planted slice of stragglers arrives after
//! their unit closed but within the lateness (amended), another slice
//! beyond it (dropped). `drain_ready` runs whenever `close_ready` says
//! a unit is sealed; a snapshot and a checkpoint follow each seal.
//! Ingest projection, the reorder buffer and checkpointing (the buffer
//! travels in the checkpoint) dominate; cubing is small.

use crate::alloc;
use crate::passes::{self, Pass, RunConfig};
use crate::report::{self, ms, us, Outcome, Samples};
use crate::rng::{fnv1a, Rng};
use crate::trace::Tracer;
use regcube_olap::cell::project_key;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{DashboardSummary, TenantId};
use regcube_stream::{restore_bytes, Alarm, EngineConfig, OnlineEngine, RawRecord, UnitReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allowed lateness in units.
const LATENESS: i64 = 2;
/// Members per dimension at the primitive layer (level 3).
const MEMBERS: u64 = 1000;
const STREAM_RECORDS: u64 = 1;
const STREAM_ARRIVAL: u64 = 2;
const STREAM_STRAGGLERS: u64 = 3;
/// Dashboard reads of the latest published snapshot after each arrival
/// slot: a sample size for the read median, not a traffic model. The
/// reads run back to back on the writer's thread outside the timed work,
/// so they contend with nothing. They follow every slot rather than
/// every seal so the median covers many moments of the run: a read's
/// time swings by a quarter from one second to the next on a shared
/// machine.
const READS_PER_SLOT: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records per tick.
    pub rate: usize,
    pub units: i64,
    /// Stragglers planted per unit that must be amended / dropped.
    pub amended_per_unit: usize,
    pub dropped_per_unit: usize,
    pub setups: usize,
    /// Restores of the end-of-stream checkpoint timed per pass.
    pub restores: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            rate: 40_000,
            units: 13,
            amended_per_unit: 300,
            dropped_per_unit: 150,
            setups: 1001,
            restores: 5,
        }
    }
}

fn base_config() -> EngineConfig {
    EngineConfig::new(
        CubeSchema::synthetic(2, 3, 10).expect("static schema"),
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_primitive(CuboidSpec::new(vec![3, 3]))
}

/// The engine under test: the buffer holds the open unit plus the
/// future units the jitter can reach before a seal.
pub fn config() -> EngineConfig {
    base_config().with_reordering(LATENESS as usize + 3, LATENESS)
}

/// The reference: the same analysis fed in sorted order.
fn sorted_config() -> EngineConfig {
    base_config().with_reordering(0, 0)
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    ids: [u32; 2],
    tick: i64,
    value: f64,
}

impl Rec {
    fn write(&self, r: &mut RawRecord) {
        r.ids.copy_from_slice(&self.ids);
        r.tick = self.tick;
        r.value = self.value;
    }

    fn order(&self) -> ([u32; 2], u64) {
        (self.ids, self.value.to_bits())
    }
}

/// One late amendment as the check compares it: what the engine reports
/// in `UnitReport::late_amendments`, or what a planted straggler must
/// produce.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Amendment {
    pub tick: i64,
    pub unit: u64,
    pub m_cell: Vec<u32>,
    pub delta_bits: u64,
}

/// The seeded stream.
///
/// A record of tick `t` arrives in slot `t + j`, `j` uniform in
/// `0..=JITTER` with `JITTER = LATENESS * tpu - 1`: every record of unit
/// `u` arrives before any record of unit `u + 3` can seal it, so the
/// regular stream is all in-lateness. A straggler of unit `u` delivered
/// at the end of slot `(u + 2L + 1) * tpu - 1` finds `u` sealed (every
/// record of tick `(u + L + 1) * tpu` has arrived) yet within the
/// lateness (no record past unit `u + 2L` has); one delivered at the end
/// of slot `(u + 3L + 1) * tpu - 1` finds it beyond the lateness.
pub struct Input {
    seed: u64,
    rate: usize,
    units: i64,
    tpu: i64,
    jitter: i64,
    stragglers: BTreeMap<i64, Vec<Rec>>,
    /// The amendments the in-lateness stragglers must produce, sorted.
    pub amendments: Vec<Amendment>,
    pub planted_dropped: u64,
}

impl Input {
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let tpu = config().ticks_per_unit as i64;
        let jitter = LATENESS * tpu - 1;
        let last_slot = scale.units * tpu - 1 + jitter;
        let mut rng = Rng::new(seed, STREAM_STRAGGLERS);
        let cfg = base_config();
        let mut stragglers: BTreeMap<i64, Vec<Rec>> = BTreeMap::new();
        let (mut amendments, mut planted_dropped) = (Vec::new(), 0);
        for unit in 0..scale.units {
            for (slot, n, amends) in [
                (
                    (unit + 2 * LATENESS + 1) * tpu - 1,
                    scale.amended_per_unit,
                    true,
                ),
                (
                    (unit + 3 * LATENESS + 1) * tpu - 1,
                    scale.dropped_per_unit,
                    false,
                ),
            ] {
                if slot > last_slot {
                    continue;
                }
                for _ in 0..n {
                    let tick = unit * tpu + rng.below(tpu as u64) as i64;
                    let rec = random_rec(&mut rng, tick);
                    stragglers.entry(slot).or_default().push(rec);
                    if amends {
                        amendments.push(Amendment {
                            tick,
                            unit: unit as u64,
                            m_cell: project_key(
                                &cfg.schema,
                                &cfg.primitive,
                                &rec.ids,
                                &cfg.m_layer,
                            ),
                            delta_bits: rec.value.to_bits(),
                        });
                    } else {
                        planted_dropped += 1;
                    }
                }
            }
        }
        amendments.sort();
        Input {
            seed,
            rate: scale.rate,
            units: scale.units,
            tpu,
            jitter,
            stragglers,
            amendments,
            planted_dropped,
        }
    }

    fn last_slot(&self) -> i64 {
        self.units * self.tpu - 1 + self.jitter
    }

    /// The regular records of `tick` with their arrival jitter, in
    /// generation order.
    fn tick(&self, rng: &mut Rng, tick: i64, mut emit: impl FnMut(Rec, i64)) {
        for _ in 0..self.rate {
            let rec = random_rec(rng, tick);
            emit(rec, rng.below(self.jitter as u64 + 1) as i64);
        }
    }

    fn records(&self) -> Rng {
        Rng::new(self.seed, STREAM_RECORDS)
    }

    /// Digest of the first `units` units of regular records plus every
    /// planted straggler.
    pub fn digest(&self, units: i64) -> u64 {
        let mut rng = self.records();
        let mut bytes = Vec::new();
        let mut push = |r: &Rec, j: i64| {
            r.ids.iter().for_each(|id| bytes.extend(id.to_le_bytes()));
            bytes.extend(r.tick.to_le_bytes());
            bytes.extend(r.value.to_bits().to_le_bytes());
            bytes.extend(j.to_le_bytes());
        };
        for t in 0..units * self.tpu {
            self.tick(&mut rng, t, |r, j| push(&r, j));
        }
        for (slot, recs) in &self.stragglers {
            recs.iter().for_each(|r| push(r, *slot));
        }
        fnv1a(&bytes)
    }
}

fn random_rec(rng: &mut Rng, tick: i64) -> Rec {
    let ids = [rng.below(MEMBERS) as u32, rng.below(MEMBERS) as u32];
    Rec {
        ids,
        tick,
        value: 1.0 + rng.unit(),
    }
}

/// Arrival order, slot by slot. Records wait in a ring of buckets
/// indexed by arrival slot; the delivered batch reuses one record
/// buffer, so delivering allocates nothing once warm.
struct Arrivals<'a> {
    input: &'a Input,
    records: Rng,
    arrival: Rng,
    ring: Vec<Vec<Rec>>,
    batch: Vec<RawRecord>,
}

impl<'a> Arrivals<'a> {
    fn new(input: &'a Input) -> Self {
        let width = input.jitter as usize + 1;
        let headroom = input.rate + input.rate / 4 + 1024;
        let most_stragglers = input.stragglers.values().map(Vec::len).max().unwrap_or(0);
        Arrivals {
            input,
            records: input.records(),
            arrival: Rng::new(input.seed, STREAM_ARRIVAL),
            ring: (0..width).map(|_| Vec::with_capacity(headroom)).collect(),
            batch: (0..headroom + most_stragglers)
                .map(|_| RawRecord::new(vec![0, 0], 0, 0.0))
                .collect(),
        }
    }

    /// Fills the batch with slot `slot`'s arrivals; returns their count.
    fn deliver(&mut self, slot: i64) -> usize {
        let width = self.ring.len() as i64;
        if slot < self.input.units * self.input.tpu {
            let ring = &mut self.ring;
            self.input.tick(&mut self.records, slot, |rec, j| {
                ring[((slot + j) % width) as usize].push(rec);
            });
        }
        let bucket = &mut self.ring[(slot % width) as usize];
        self.arrival.shuffle(bucket);
        let late = self
            .input
            .stragglers
            .get(&slot)
            .map_or(&[][..], Vec::as_slice);
        let n = bucket.len() + late.len();
        while self.batch.len() < n {
            self.batch.push(RawRecord::new(vec![0, 0], 0, 0.0));
        }
        for (rec, r) in bucket.iter().chain(late).zip(&mut self.batch) {
            rec.write(r);
        }
        bucket.clear();
        n
    }
}

/// Per-unit results compared with the sorted replay.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitResult {
    pub alarms: Vec<Alarm>,
    pub exception_cells: u64,
}

pub struct Expected {
    pub units: Vec<UnitResult>,
    /// Digest of the final canonical text without the tilt frames
    /// (stragglers amend the frames; the sorted replay never sees them).
    pub cube_digest: u64,
}

pub struct Observed {
    pub units: Vec<UnitResult>,
    pub cube_digest: u64,
    /// Full canonical digests: the live engine at the end-of-stream
    /// checkpoint, that checkpoint restored, the restored engine after
    /// its own flush, and the live engine after its flush.
    pub checkpointed_digest: u64,
    pub restored_digest: u64,
    pub continued_digest: u64,
    pub digest: u64,
    pub amended: u64,
    pub dropped: u64,
    /// Every `UnitReport::late_amendments` entry of the pass, sorted.
    pub amendments: Vec<Amendment>,
}

pub fn check(input: &Input, expected: &Expected, observed: &Observed, out: &mut Outcome) {
    out.expect_eq("units closed", observed.units.len(), expected.units.len());
    for (u, (got, want)) in observed.units.iter().zip(&expected.units).enumerate() {
        out.expect_eq(&format!("unit {u} results"), got, want);
    }
    out.expect_eq(
        "final cube digest",
        observed.cube_digest,
        expected.cube_digest,
    );
    out.expect_eq(
        "restored canonical_text digest",
        observed.restored_digest,
        observed.checkpointed_digest,
    );
    out.expect_eq(
        "restored and flushed canonical_text digest",
        observed.continued_digest,
        observed.digest,
    );
    out.expect_eq(
        "late amendments",
        observed.amended,
        input.amendments.len() as u64,
    );
    out.expect_eq(
        "reported amendments, first difference from the planted stragglers",
        first_difference(&observed.amendments, &input.amendments),
        None,
    );
    out.expect_eq("late drops", observed.dropped, input.planted_dropped);
}

/// The first position where two sorted lists differ, with the entries
/// found there (`None` past the end of one).
fn first_difference<'a>(
    got: &'a [Amendment],
    want: &'a [Amendment],
) -> Option<(Option<&'a Amendment>, Option<&'a Amendment>)> {
    (0..got.len().max(want.len()))
        .map(|i| (got.get(i), want.get(i)))
        .find(|(g, w)| g != w)
}

fn unit_result(r: &UnitReport) -> UnitResult {
    UnitResult {
        alarms: r.alarms.clone(),
        exception_cells: r.exception_cells,
    }
}

/// Digests of the full canonical text and of its non-frame lines.
fn digests<E: regcube_core::CubingEngine>(engine: &OnlineEngine<E>) -> (u64, u64) {
    let text = engine.snapshot().canonical_text();
    let cube: String = text
        .lines()
        .filter(|l| !l.starts_with("mframe ") && !l.starts_with("oframe "))
        .flat_map(|l| [l, "\n"])
        .collect();
    (fnv1a(text.as_bytes()), fnv1a(cube.as_bytes()))
}

/// The in-time records replayed in sorted order (within a tick by ids
/// and value bits, the engine's canonical order) with explicit closes.
pub fn sorted_replay(input: &Input) -> Expected {
    let mut engine = sorted_config().build().expect("replay config");
    let mut rng = input.records();
    let mut tick_records = Vec::with_capacity(input.rate);
    let mut record = RawRecord::new(vec![0, 0], 0, 0.0);
    let mut units = Vec::new();
    for t in 0..input.units * input.tpu {
        tick_records.clear();
        input.tick(&mut rng, t, |rec, _| tick_records.push(rec));
        tick_records.sort_by_key(Rec::order);
        for rec in &tick_records {
            rec.write(&mut record);
            engine.ingest(&record).expect("replay ingest");
        }
        if (t + 1) % input.tpu == 0 {
            units.push(unit_result(&engine.close_unit().expect("replay close")));
        }
    }
    Expected {
        units,
        cube_digest: digests(&engine).1,
    }
}

struct Run<'a> {
    engine: OnlineEngine,
    tr: &'a mut Tracer,
    out: &'a mut Outcome,
    s: Samples,
    observed: Observed,
    checkpoint: Vec<u8>,
    published: Option<Arc<regcube_stream::CubeSnapshot>>,
}

impl Run<'_> {
    /// Closes what the watermark sealed (or, at the end, everything),
    /// then publishes a snapshot and takes a checkpoint; returns the
    /// time that took.
    fn seal(&mut self, parent: Option<usize>, unit: i64, flush: bool) -> Duration {
        let tr = &mut *self.tr;
        tr.count(
            "stream.reorder.buffered",
            parent,
            unit,
            self.engine.buffered_records() as u64,
        );
        let span = tr.begin("stream.close", parent, unit);
        let close_id = span.id();
        let reports = if flush {
            self.engine.flush()
        } else {
            self.engine.drain_ready()
        };
        let n = reports.as_ref().map_or(0, Vec::len);
        let close = tr.end(span, n as u64);
        match reports {
            Ok(reports) => {
                for r in &reports {
                    tr.reported("core.cubing", close_id, unit, r.recompute_time, 1);
                    self.observed.units.push(unit_result(r));
                    self.observed
                        .amendments
                        .extend(r.late_amendments.iter().map(|a| Amendment {
                            tick: a.tick,
                            unit: a.unit,
                            m_cell: a.m_cell.ids().to_vec(),
                            delta_bits: a.delta.to_bits(),
                        }));
                }
                let stats = self.engine.stats();
                tr.count("core.cubing.rows_folded", close_id, unit, stats.rows_folded);
                tr.count(
                    "core.cubing.cells_computed",
                    close_id,
                    unit,
                    stats.cells_computed,
                );
                tr.count(
                    "core.cubing.exception_cells",
                    close_id,
                    unit,
                    stats.exception_cells,
                );
                tr.count(
                    "stream.reorder.amended",
                    parent,
                    unit,
                    stats.late_amendments,
                );
                tr.count("stream.reorder.dropped", parent, unit, stats.late_dropped);
                tr.count(
                    "stream.reorder.held_units",
                    parent,
                    unit,
                    stats.watermark_held_units,
                );
            }
            Err(e) => self.out.fail(e),
        }
        self.out.attempted += 1;
        let span = tr.begin("stream.snapshot", parent, unit);
        let snapshot = Arc::new(self.engine.snapshot());
        let publish = tr.end(span, 1);
        self.s.result_ms.push(ms(close + publish));
        self.published = Some(snapshot);
        close + publish + self.checkpoint(parent, unit)
    }

    /// Takes a checkpoint, kept as the latest; returns its time.
    fn checkpoint(&mut self, parent: Option<usize>, unit: i64) -> Duration {
        let span = self.tr.begin("stream.checkpoint", parent, unit);
        let bytes = self.engine.checkpoint_bytes();
        let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
        let took = self.tr.end(span, len);
        match bytes {
            Ok(bytes) => self.checkpoint = bytes,
            Err(e) => self.out.fail(e),
        }
        self.out.attempted += 1;
        self.s.checkpoint_ms.push(ms(took));
        self.s.checkpoint_bytes = self.s.checkpoint_bytes.max(len);
        took
    }

    fn reads(&mut self, n: usize) {
        let Some(snapshot) = self.published.as_ref() else {
            return;
        };
        let reader = TenantId::from("late_stream");
        for _ in 0..n {
            let started = Instant::now();
            std::hint::black_box(DashboardSummary::of(reader.clone(), snapshot));
            self.s.read_us.push(us(started.elapsed()));
        }
        self.out.attempted += n as u64;
    }
}

fn pass(input: &Input, scale: &Scale, tr: &mut Tracer, out: &mut Outcome) -> Pass<Observed> {
    let mut arrivals = Arrivals::new(input);
    let started = Instant::now();
    let engine = config().build().expect("engine config");
    let setup = started.elapsed().as_secs_f64();
    let mut run = Run {
        engine,
        tr,
        out,
        s: Samples::default(),
        observed: Observed {
            units: Vec::new(),
            cube_digest: 0,
            checkpointed_digest: 0,
            restored_digest: 0,
            continued_digest: 0,
            digest: 0,
            amended: 0,
            dropped: 0,
            amendments: Vec::new(),
        },
        checkpoint: Vec::new(),
        published: None,
    };
    run.s.setup_s.push(setup);
    // Throughput is sampled per window of one unit's worth of arrival
    // slots; in steady state each window holds one seal.
    let (mut window_records, mut window_time) = (0usize, Duration::ZERO);
    let mut records = 0;
    let baseline = alloc::reset_peak();
    for slot in 0..=input.last_slot() {
        let n = arrivals.deliver(slot);
        let unit = slot / input.tpu;
        let span = run.tr.begin("stream.ingest", None, unit);
        let parent = span.id();
        for r in &arrivals.batch[..n] {
            if let Err(e) = run.engine.ingest(r) {
                run.out.fail(e);
            }
            if run.engine.close_ready() {
                run.seal(parent, unit, false);
            }
        }
        window_time += run.tr.end(span, n as u64);
        window_records += n;
        records += n as u64;
        run.reads(READS_PER_SLOT);
        if (slot + 1) % input.tpu == 0 {
            run.s
                .unit_rates
                .push(window_records as f64 / window_time.as_secs_f64());
            run.s.timed += window_time;
            (window_records, window_time) = (0, Duration::ZERO);
        }
    }
    // End of stream: checkpoint with the last units still buffered,
    // then flush. Recovery restores that checkpoint and flushes too.
    window_time += run.checkpoint(None, input.units);
    let resume = std::mem::take(&mut run.checkpoint);
    let mut peak = alloc::peak_above(baseline);
    run.observed.checkpointed_digest = digests(&run.engine).0;
    alloc::reset_peak();
    window_time += run.seal(None, input.units, true);
    run.s
        .unit_rates
        .push(window_records as f64 / window_time.as_secs_f64());
    run.s.timed += window_time;
    run.reads(READS_PER_SLOT);
    peak = peak.max(alloc::peak_above(baseline));
    run.out.attempted += records;

    let stats = run.engine.stats();
    let (digest, cube_digest) = digests(&run.engine);
    let Run {
        engine,
        tr,
        out,
        mut s,
        mut observed,
        ..
    } = run;
    s.peak = peak;
    observed.amended = stats.late_amendments;
    observed.dropped = stats.late_dropped;
    observed.amendments.sort();
    observed.digest = digest;
    observed.cube_digest = cube_digest;
    drop(engine);
    for i in 0..scale.restores {
        let span = tr.begin("stream.restore", None, input.units);
        let restored = restore_bytes(config(), &resume);
        s.recovery_s.push(tr.end(span, 1).as_secs_f64());
        out.attempted += 1;
        match restored {
            Ok(mut engine) if i == 0 => {
                observed.restored_digest = digests(&engine).0;
                out.attempted += 1;
                match engine.flush() {
                    Ok(_) => observed.continued_digest = digests(&engine).0,
                    Err(e) => out.fail(e),
                }
            }
            Ok(_) => {}
            Err(e) => out.fail(e),
        }
    }
    Pass { s, observed }
}

pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let input = Input::new(cfg.seed, scale);
    // Set-up is timed before the reference and after the passes, so
    // its median spans the run rather than one moment of it.
    let mut setup = passes::setups(scale.setups / 2, || config().build());
    let expected = sorted_replay(&input);
    let passes = passes::run(
        cfg,
        |_, tr| pass(&input, scale, tr, &mut out),
        |p| p.s.timed,
    );
    for p in passes.all() {
        check(&input, &expected, &p.observed, &mut out);
    }
    let first = &passes.untraced[0];
    out.exact = vec![
        ("input.digest", input.digest(1)),
        (
            "alarms",
            expected.units.iter().map(|u| u.alarms.len() as u64).sum(),
        ),
        ("checkpoint.bytes", first.s.checkpoint_bytes),
        ("reorder.amended", first.observed.amended),
        ("reorder.dropped", first.observed.dropped),
        ("peak_heap.bytes", first.s.peak as u64),
    ];
    if let Some((_, spans, _)) = &passes.traced {
        out.exact.extend(report::stage_allocs(spans));
    }
    setup.extend(passes::setups(scale.setups - scale.setups / 2, || {
        config().build()
    }));
    passes.report(setup, &mut out);
    out
}
