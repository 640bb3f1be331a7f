//! `paper_cube`: the paper's D3L3C10 lattice at ROADMAP's large size.
//!
//! Three dimensions of fan-out 10, the o-layer at level 1 and the
//! m-layer at level 3 (27 cuboids between them). Every one of the
//! seeded distinct m-cells emits one record per tick, 15 ticks per unit,
//! in strict tick order; a seeded ~0.5% of cells ramp in each unit so
//! o-layer alarms fire. A snapshot and a checkpoint follow every close.
//! Cubing dominates here; reorder and serve are idle.

use crate::alloc;
use crate::passes::{self, Pass, RunConfig};
use crate::report::{self, ms, text_digest, us, Outcome, Samples};
use crate::rng::{chance, fnv1a, Rng};
use crate::trace::Tracer;
use regcube_core::MoCubingEngine;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{DashboardSummary, TenantId};
use regcube_stream::{restore_bytes, Alarm, CubeSnapshot, EngineConfig, RawRecord};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Members per dimension at the m-layer (level 3 of fan-out 10).
const MEMBERS: u64 = 1000;
/// Share of cells ramping in each unit.
const RAMP_SHARE: f64 = 0.005;
/// Slope of a ramping cell, above the default threshold of 1.
const RAMP_SLOPE: f64 = 2.0;
const STREAM_CELLS: u64 = 1;
const STREAM_VALUES: u64 = 2;
/// Dashboard reads of the latest published snapshot after each tick: a
/// sample size for the read median, not a traffic model. The reads run
/// back to back on the writer's thread outside the timed work, so they
/// contend with nothing. They follow every tick rather than every close
/// so the median covers many moments of the run: a read's time swings
/// by half from one second to the next on a shared machine.
const READS_PER_TICK: usize = 16;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub cells: usize,
    pub units: i64,
    /// Engine constructions timed per run for `setup_s`.
    pub setups: usize,
    /// Restores of the final checkpoint timed per pass.
    pub restores: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            cells: 150_000,
            units: 3,
            setups: 1001,
            restores: 2,
        }
    }
}

/// The engine under test: default settings, strict arrival order.
pub fn config() -> EngineConfig {
    EngineConfig::new(
        CubeSchema::synthetic(3, 3, 10).expect("static schema"),
        CuboidSpec::new(vec![1, 1, 1]),
        CuboidSpec::new(vec![3, 3, 3]),
    )
    .with_reordering(0, 0)
}

/// The seeded input: distinct m-cells, each with a base level.
pub struct Input {
    seed: u64,
    ticks_per_unit: i64,
    cells: Vec<[u32; 3]>,
    base: Vec<f64>,
}

impl Input {
    pub fn new(seed: u64, cells: usize) -> Self {
        let mut rng = Rng::new(seed, STREAM_CELLS);
        let mut seen = HashSet::with_capacity(cells);
        let mut out = Vec::with_capacity(cells);
        while out.len() < cells {
            let c = [0; 3].map(|_| rng.below(MEMBERS) as u32);
            if seen.insert(c) {
                out.push(c);
            }
        }
        let base = (0..cells).map(|_| 1.0 + 9.0 * rng.unit()).collect();
        Input {
            seed,
            ticks_per_unit: config().ticks_per_unit as i64,
            cells: out,
            base,
        }
    }

    /// One reusable record per cell; [`fill`](Self::fill) rewrites
    /// tick and value in place, so generating a tick allocates nothing.
    pub fn buffer(&self) -> Vec<RawRecord> {
        self.cells
            .iter()
            .map(|c| RawRecord::new(c.to_vec(), 0, 0.0))
            .collect()
    }

    pub fn values(&self) -> Rng {
        Rng::new(self.seed, STREAM_VALUES)
    }

    /// Writes every cell's record for `tick`: its base level, noise of
    /// ±0.5, and a ramp when the cell is one of the unit's seeded ramps.
    pub fn fill(&self, rng: &mut Rng, tick: i64, buf: &mut [RawRecord]) {
        let unit = tick.div_euclid(self.ticks_per_unit);
        let offset = (tick - unit * self.ticks_per_unit) as f64;
        for (i, r) in buf.iter_mut().enumerate() {
            let ramp = chance(self.seed, unit as u64, i as u64) < RAMP_SHARE;
            r.tick = tick;
            r.value =
                self.base[i] + rng.unit() - 0.5 + if ramp { RAMP_SLOPE * offset } else { 0.0 };
        }
    }

    /// Digest of every record of the first `units` units.
    pub fn digest(&self, units: i64) -> u64 {
        let (mut buf, mut rng) = (self.buffer(), self.values());
        let mut bytes = Vec::new();
        for tick in 0..units * self.ticks_per_unit {
            self.fill(&mut rng, tick, &mut buf);
            for r in &buf {
                r.ids.iter().for_each(|id| bytes.extend(id.to_le_bytes()));
                bytes.extend(r.tick.to_le_bytes());
                bytes.extend(r.value.to_bits().to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// What the row oracle produced on the same input.
pub struct Expected {
    pub alarms: Vec<Vec<Alarm>>,
    pub digest: u64,
}

/// What one pass of the engine under test produced.
pub struct Observed {
    pub alarms: Vec<Vec<Alarm>>,
    pub digest: u64,
    pub restored_digest: u64,
}

/// Compares a pass with the oracle; every difference is one line.
pub fn check(expected: &Expected, observed: &Observed, out: &mut Outcome) {
    out.expect_eq("units closed", observed.alarms.len(), expected.alarms.len());
    for (u, (got, want)) in observed.alarms.iter().zip(&expected.alarms).enumerate() {
        out.expect_eq(&format!("unit {u} alarms"), got, want);
    }
    out.expect_eq(
        "final canonical_text digest",
        observed.digest,
        expected.digest,
    );
    out.expect_eq(
        "restored canonical_text digest",
        observed.restored_digest,
        observed.digest,
    );
}

/// The row oracle (`MoCubingEngine`) over the same input.
pub fn oracle(input: &Input, scale: &Scale) -> Expected {
    let mut engine = config()
        .build_with(MoCubingEngine::transient)
        .expect("oracle config");
    let (mut buf, mut rng) = (input.buffer(), input.values());
    let mut alarms = Vec::new();
    for unit in 0..scale.units {
        for tick in unit * input.ticks_per_unit..(unit + 1) * input.ticks_per_unit {
            input.fill(&mut rng, tick, &mut buf);
            for r in &buf {
                engine.ingest(r).expect("oracle ingest");
            }
        }
        alarms.push(engine.close_unit().expect("oracle close").alarms);
    }
    Expected {
        alarms,
        digest: text_digest(&engine),
    }
}

/// Times `READS_PER_TICK` dashboard reads of `snapshot`.
fn read(reader: &TenantId, snapshot: &CubeSnapshot, read_us: &mut Vec<f64>) {
    for _ in 0..READS_PER_TICK {
        let started = Instant::now();
        std::hint::black_box(DashboardSummary::of(reader.clone(), snapshot));
        read_us.push(us(started.elapsed()));
    }
}

fn pass(input: &Input, scale: &Scale, tr: &mut Tracer, out: &mut Outcome) -> Pass<Observed> {
    let mut s = Samples::default();
    let started = Instant::now();
    let mut engine = config().build().expect("engine config");
    s.setup_s.push(started.elapsed().as_secs_f64());
    let (mut buf, mut rng) = (input.buffer(), input.values());
    let reader = TenantId::from("paper_cube");
    let mut observed = Observed {
        alarms: Vec::new(),
        digest: 0,
        restored_digest: 0,
    };
    let mut checkpoint = Vec::new();
    let mut published: Option<Arc<CubeSnapshot>> = None;
    let baseline = alloc::reset_peak();
    for unit in 0..scale.units {
        let mut unit_time = Duration::ZERO;
        for tick in unit * input.ticks_per_unit..(unit + 1) * input.ticks_per_unit {
            input.fill(&mut rng, tick, &mut buf);
            let span = tr.begin("stream.ingest", None, unit);
            for r in &buf {
                if let Err(e) = engine.ingest(r) {
                    out.fail(e);
                }
            }
            unit_time += tr.end(span, buf.len() as u64);
            if let Some(snapshot) = &published {
                read(&reader, snapshot, &mut s.read_us);
            }
        }
        let span = tr.begin("stream.close", None, unit);
        let parent = span.id();
        let report = engine.close_unit();
        let close = tr.end(span, 1);
        match report {
            Ok(report) => {
                let stats = engine.stats();
                tr.reported("core.cubing", parent, unit, report.recompute_time, 1);
                tr.count("core.cubing.rows_folded", parent, unit, stats.rows_folded);
                tr.count(
                    "core.cubing.cells_computed",
                    parent,
                    unit,
                    stats.cells_computed,
                );
                tr.count(
                    "core.cubing.exception_cells",
                    parent,
                    unit,
                    stats.exception_cells,
                );
                observed.alarms.push(report.alarms);
            }
            Err(e) => out.fail(e),
        }
        let span = tr.begin("stream.snapshot", None, unit);
        let snapshot = Arc::new(engine.snapshot());
        let publish = tr.end(span, 1);
        let span = tr.begin("stream.checkpoint", None, unit);
        let bytes = engine.checkpoint_bytes();
        let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
        let ckpt = tr.end(span, len);
        match bytes {
            Ok(bytes) => checkpoint = bytes,
            Err(e) => out.fail(e),
        }
        unit_time += close + publish + ckpt;
        s.timed += unit_time;
        s.unit_rates
            .push(buf.len() as f64 * input.ticks_per_unit as f64 / unit_time.as_secs_f64());
        s.result_ms.push(ms(close + publish));
        s.checkpoint_ms.push(ms(ckpt));
        s.checkpoint_bytes = s.checkpoint_bytes.max(len);
        published = Some(snapshot);
    }
    s.peak = alloc::peak_above(baseline);
    let records = buf.len() as u64 * (scale.units * input.ticks_per_unit) as u64;
    out.attempted += records + scale.units as u64 * 3 + s.read_us.len() as u64;

    observed.digest = published.map_or(0, |p| fnv1a(p.canonical_text().as_bytes()));
    drop(engine);
    for i in 0..scale.restores {
        let span = tr.begin("stream.restore", None, scale.units);
        let restored = restore_bytes(config(), &checkpoint);
        s.recovery_s.push(tr.end(span, 1).as_secs_f64());
        out.attempted += 1;
        match restored {
            Ok(engine) if i == 0 => observed.restored_digest = text_digest(&engine),
            Ok(_) => {}
            Err(e) => out.fail(e),
        }
    }
    Pass { s, observed }
}

pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let input = Input::new(cfg.seed, scale.cells);
    // Set-up is timed before the reference and after the passes, so
    // its median spans the run rather than one moment of it.
    let mut setup = passes::setups(scale.setups / 2, || config().build());
    let expected = oracle(&input, scale);
    let passes = passes::run(
        cfg,
        |_, tr| pass(&input, scale, tr, &mut out),
        |p| p.s.timed,
    );
    for p in passes.all() {
        check(&expected, &p.observed, &mut out);
    }
    let first = &passes.untraced[0].s;
    out.exact = vec![
        ("input.digest", input.digest(1)),
        (
            "alarms",
            expected.alarms.iter().map(|a| a.len() as u64).sum(),
        ),
        ("checkpoint.bytes", first.checkpoint_bytes),
        ("peak_heap.bytes", first.peak as u64),
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
