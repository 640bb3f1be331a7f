//! `tenant_fleet`: many small tenant cubes behind one `Server`.
//!
//! About 2,000 tenants, each a 2-dim cube of 36×36 m-cells, 4 ticks per
//! unit, under harmonic record rates (tenant `t` sends `heavy / (t+1)`
//! records per tick, at least 1). One writer thread runs
//! `Server::ingest` → `Server::pump` per tick → `Server::close_unit` per
//! tenant per unit: a closed loop. One reader thread sends dashboard
//! reads round-robin over the tenants at a fixed rate, an open loop
//! timed from when each read was due. Queues, pump dispatch, per-tenant
//! publication and lock-free reads run here concurrently with writes,
//! and nowhere else.

use crate::alloc;
use crate::passes::{self, Pass, RunConfig};
use crate::report::{ms, text_digest, us, Outcome, Samples};
use crate::rng::{chance, fnv1a, Rng};
use crate::trace::Tracer;
use regcube_olap::{CubeSchema, CuboidSpec};
use regcube_serve::{DashboardSummary, ServeConfig, ServeError, Server, TenantId};
use regcube_stream::{restore_bytes, EngineConfig, OnlineEngine, RawRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Members per dimension at the m-layer (level 2 of fan-out 6).
const MEMBERS: u64 = 36;
/// Share of tenants with one ramping cell in a unit.
const HOT_SHARE: f64 = 0.05;
/// Seconds between two reads of one tenant's dashboard. The repository
/// measures no real read traffic (the `serve` experiment's readers poll
/// flat out, which measures read capacity, not load), so this period is
/// an assumption: the full fleet then reads `tenants / REFRESH_S` times a
/// second.
const REFRESH_S: f64 = 2.0;
/// Threads of the server's pump and cubing pools: sized explicitly, not
/// from `available_parallelism`, so the run has the same shape on any
/// machine.
const POOL_THREADS: usize = 1;
/// Where checkpoint files go (inside the working directory).
const SCRATCH: &str = ".bench_tmp";
/// How long before each due time the reader stops sleeping and spins:
/// longer than the kernel's timer slack (~50 µs), so reads start on time,
/// yet short enough that the reader leaves its vCPU to the write path
/// for most of each interval.
const SPIN: Duration = Duration::from_micros(150);
const STREAM_RECORDS: u64 = 1;
const STREAM_SAMPLE: u64 = 2;

#[derive(Debug, Clone)]
pub struct Scale {
    pub tenants: usize,
    /// Records per tick of the heaviest tenant.
    pub heavy: usize,
    pub units: i64,
    /// Tenants checked against a standalone engine: one per rate class
    /// at the head (0, 1, 3, 7, …: rates heavy, heavy/2, …) and seeded
    /// ones from the 1-record tail, so the mix of sizes, and with it the
    /// checkpoint timings taken on these replicas, is the same for
    /// every seed.
    pub sample: usize,
    /// Served tenants checkpointed to files and restored per pass.
    pub durable_per_pass: usize,
    pub setups: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            tenants: 2000,
            heavy: 64,
            units: 6,
            sample: 16,
            durable_per_pass: 50,
            setups: 3,
        }
    }
}

pub fn config() -> EngineConfig {
    EngineConfig::new(
        CubeSchema::synthetic(2, 2, 6).expect("static schema"),
        CuboidSpec::new(vec![1, 1]),
        CuboidSpec::new(vec![2, 2]),
    )
    .with_ticks_per_unit(4)
}

fn serve_config(scale: &Scale) -> ServeConfig {
    let tpu = config().ticks_per_unit;
    ServeConfig::new()
        .with_max_tenants(scale.tenants)
        .with_queue_capacity(scale.heavy * tpu + 64)
        .with_pump_threads(POOL_THREADS)
        .with_cubing_threads(POOL_THREADS)
}

pub fn tenant_id(t: usize) -> TenantId {
    TenantId::from(format!("tenant-{t:05}"))
}

pub struct Input {
    seed: u64,
    weights: Vec<usize>,
    tpu: i64,
    /// Tenants checked against a standalone engine.
    pub sample: Vec<usize>,
}

impl Input {
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let mut rng = Rng::new(seed, STREAM_SAMPLE);
        let head = (0..)
            .map(|k| (1usize << k) - 1)
            .take_while(|&t| t < scale.heavy);
        let mut sample: Vec<usize> = head.take(scale.sample).collect();
        let tail = scale.heavy..scale.tenants;
        while sample.len() < scale.sample.min(scale.tenants) && !tail.is_empty() {
            let t = tail.start + rng.below(tail.len() as u64) as usize;
            if !sample.contains(&t) {
                sample.push(t);
            }
        }
        Input {
            seed,
            weights: (0..scale.tenants)
                .map(|t| (scale.heavy / (t + 1)).max(1))
                .collect(),
            tpu: config().ticks_per_unit as i64,
            sample,
        }
    }

    fn records(&self) -> Rng {
        Rng::new(self.seed, STREAM_RECORDS)
    }

    /// Records per tick over the whole fleet.
    fn per_tick(&self) -> usize {
        self.weights.iter().sum()
    }

    /// Writes tick `tick`'s records, tenant by tenant, into `buf` (one
    /// reusable record per slot). A hot tenant's first record of each
    /// tick ramps one fixed cell with slope 3.
    fn fill(&self, rng: &mut Rng, tick: i64, buf: &mut [(usize, RawRecord)]) {
        let unit = tick.div_euclid(self.tpu);
        let offset = (tick - unit * self.tpu) as f64;
        let mut slots = buf.iter_mut();
        for (t, &w) in self.weights.iter().enumerate() {
            let hot = chance(self.seed, t as u64, unit as u64) < HOT_SHARE;
            for k in 0..w {
                let (tenant, r) = slots.next().expect("buffer sized per tick");
                *tenant = t;
                r.tick = tick;
                if hot && k == 0 {
                    r.ids[0] = (t as u64 % MEMBERS) as u32;
                    r.ids[1] = 0;
                    r.value = 1.0 + 3.0 * offset;
                } else {
                    r.ids[0] = rng.below(MEMBERS) as u32;
                    r.ids[1] = rng.below(MEMBERS) as u32;
                    r.value = 1.0 + rng.unit();
                }
            }
        }
    }

    fn buffer(&self) -> Vec<(usize, RawRecord)> {
        (0..self.per_tick())
            .map(|_| (0, RawRecord::new(vec![0, 0], 0, 0.0)))
            .collect()
    }

    pub fn digest(&self, units: i64) -> u64 {
        let (mut buf, mut rng) = (self.buffer(), self.records());
        let mut bytes = Vec::new();
        for tick in 0..units * self.tpu {
            self.fill(&mut rng, tick, &mut buf);
            for (t, r) in &buf {
                bytes.extend((*t as u32).to_le_bytes());
                r.ids.iter().for_each(|id| bytes.extend(id.to_le_bytes()));
                bytes.extend(r.value.to_bits().to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// The sampled tenants replayed through standalone `OnlineEngine`s fed
/// the same records with the same closes.
pub struct Expected {
    pub engines: Vec<OnlineEngine>,
    /// Their final canonical-text digests.
    pub digests: Vec<u64>,
}

pub fn standalone(input: &Input, scale: &Scale) -> Expected {
    let mut engines: Vec<_> = input
        .sample
        .iter()
        .map(|_| config().build().expect("engine config"))
        .collect();
    let (mut buf, mut rng) = (input.buffer(), input.records());
    for tick in 0..scale.units * input.tpu {
        input.fill(&mut rng, tick, &mut buf);
        for (t, r) in &buf {
            if let Some(i) = input.sample.iter().position(|s| s == t) {
                engines[i].ingest(r).expect("standalone ingest");
            }
        }
        if (tick + 1) % input.tpu == 0 {
            for e in &mut engines {
                e.close_unit().expect("standalone close");
            }
        }
    }
    let digests = engines.iter().map(text_digest).collect();
    Expected { engines, digests }
}

/// What one pass observed, for the output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub sent: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// `Overloaded` rejections the server counted.
    pub server_rejected: u64,
    pub alarms: u64,
    pub sample_digests: Vec<u64>,
    /// Canonical digests of the tenants checkpointed to files through
    /// the server, live and restored into a fresh server.
    pub live_digests: Vec<u64>,
    pub restored_digests: Vec<u64>,
    /// The standalone sample engines restored from their checkpoints.
    pub sample_restored: Vec<u64>,
}

pub fn check(expected: &[u64], observed: &Observed, out: &mut Outcome) {
    out.expect_eq(
        "accepted + rejected",
        observed.accepted + observed.rejected,
        observed.sent,
    );
    out.expect_eq("Overloaded rejections", observed.rejected, 0);
    out.expect_eq(
        "server-counted rejections",
        observed.server_rejected,
        observed.rejected,
    );
    out.expect_eq(
        "sampled tenants",
        observed.sample_digests.as_slice(),
        expected,
    );
    out.expect_eq(
        "sampled tenants restored",
        observed.sample_restored.as_slice(),
        expected,
    );
    out.expect_eq(
        "restored tenants",
        &observed.restored_digests,
        &observed.live_digests,
    );
}

/// Builds the server and admits the fleet.
fn admit(scale: &Scale) -> Server {
    let server = Server::new(serve_config(scale));
    for t in 0..scale.tenants {
        server
            .create_tenant(tenant_id(t), config())
            .expect("fleet admission");
    }
    server
}

/// Sleeps until `SPIN` before `due`, then spins until `due`.
fn wait_until(due: Instant) {
    let left = due.saturating_duration_since(Instant::now());
    if let Some(nap) = left.checked_sub(SPIN) {
        std::thread::sleep(nap);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The open-loop reader: one read every `REFRESH_S / tenants`, round-robin
/// over the tenants, each timed from when it was due. Returns
/// (due→done, start→done) in microseconds.
fn read_loop(
    server: &Server,
    scale: &Scale,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let readers: Vec<_> = (0..scale.tenants)
        .map(|t| server.reader(&tenant_id(t)).expect("reader"))
        .collect();
    let interval = Duration::from_secs_f64(REFRESH_S / scale.tenants as f64);
    let (mut latency, mut service) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = start + interval * k as u32;
        wait_until(due);
        let reader = &readers[k % readers.len()];
        let lag = Instant::now().saturating_duration_since(due);
        let span = tr.begin("serve.read", None, k as i64);
        let summary = DashboardSummary::of(reader.id().clone(), &reader.snapshot());
        std::hint::black_box(summary);
        let took = tr.end(span, 1);
        tr.count("gen.read_lag_ns", None, k as i64, lag.as_nanos() as u64);
        latency.push(us(due.elapsed()));
        service.push(us(took));
        k += 1;
    }
    (latency, service)
}

fn pass(
    input: &Input,
    scale: &Scale,
    expected: &Expected,
    index: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Pass<Observed> {
    let started = Instant::now();
    let server = admit(scale);
    let setup = started.elapsed();
    let ids: Vec<TenantId> = (0..scale.tenants).map(tenant_id).collect();
    let (mut buf, mut rng) = (input.buffer(), input.records());
    let mut s = Samples::default();
    s.setup_s.push(setup.as_secs_f64());
    let mut o = Observed {
        sent: 0,
        accepted: 0,
        rejected: 0,
        server_rejected: 0,
        alarms: 0,
        sample_digests: Vec::new(),
        live_digests: Vec::new(),
        restored_digests: Vec::new(),
        sample_restored: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let mut reader_tr = tr.fork();
    let baseline = alloc::reset_peak();
    let (latency, service) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&server, scale, &stop, &mut reader_tr));
        for unit in 0..scale.units {
            let mut unit_time = Duration::ZERO;
            let accepted = o.accepted;
            for tick in unit * input.tpu..(unit + 1) * input.tpu {
                input.fill(&mut rng, tick, &mut buf);
                let span = tr.begin("serve.ingest", None, unit);
                let mut rejected = 0;
                for (t, r) in &buf {
                    match server.ingest(&ids[*t], r) {
                        Ok(()) => o.accepted += 1,
                        Err(e @ ServeError::Overloaded { .. }) => {
                            rejected += 1;
                            out.fail(e);
                        }
                        Err(e) => out.fail(e),
                    }
                }
                unit_time += tr.end(span, buf.len() as u64);
                tr.count("serve.ingest.rejected", None, unit, rejected);
                o.rejected += rejected;
                o.sent += buf.len() as u64;
                let span = tr.begin("serve.pump", None, unit);
                let pumps = server.pump();
                unit_time += tr.end(span, pumps.len() as u64);
                for e in pumps.into_iter().flat_map(|pump| pump.errors) {
                    out.fail(e);
                }
            }
            for id in &ids {
                let span = tr.begin("serve.close", None, unit);
                let parent = span.id();
                let closed = server.close_unit(id);
                let took = tr.end(span, 1);
                unit_time += took;
                s.result_ms.push(ms(took));
                match closed {
                    Ok(pump) => {
                        for r in &pump.reports {
                            tr.reported("core.cubing", parent, unit, r.recompute_time, 1);
                            o.alarms += r.alarms.len() as u64;
                        }
                        for e in pump.errors {
                            out.fail(e);
                        }
                    }
                    Err(e) => out.fail(e),
                }
            }
            s.timed += unit_time;
            s.unit_rates
                .push((o.accepted - accepted) as f64 / unit_time.as_secs_f64());
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    s.peak = alloc::peak_above(baseline);
    tr.absorb(reader_tr);
    s.read_us = latency;
    let reads: u64 = ids
        .iter()
        .map(|id| {
            let stats = server.tenant_stats(id).expect("tenant stats");
            o.server_rejected += stats.overload_rejections;
            stats.snapshot_reads
        })
        .sum();
    tr.count("serve.snapshot_reads", None, scale.units, reads);
    out.attempted += o.sent + (scale.units * input.tpu) as u64;
    out.attempted += (scale.units as usize * ids.len() + service.len()) as u64;
    o.sample_digests = input.sample.iter().map(|&t| digest(&server, t)).collect();
    checkpoints(scale, expected, tr, out, &mut s, &mut o);
    files(scale, index, &server, out, &mut o);
    Pass { s, observed: o }
}

fn digest(server: &Server, t: usize) -> u64 {
    server
        .snapshot(&tenant_id(t))
        .map_or(0, |s| fnv1a(s.canonical_text().as_bytes()))
}

/// Checkpoints and restores of each replica timed per pass.
const CHECKPOINT_REPS: usize = 3;

/// Times `checkpoint_bytes` and `restore_bytes` on the standalone
/// replicas of the sampled tenants (tenant 0, the heaviest, first). The
/// server only checkpoints to files, whose timing tracks the file
/// system rather than the program.
fn checkpoints(
    scale: &Scale,
    expected: &Expected,
    tr: &mut Tracer,
    out: &mut Outcome,
    s: &mut Samples,
    o: &mut Observed,
) {
    for engine in &expected.engines {
        for rep in 0..CHECKPOINT_REPS {
            let span = tr.begin("stream.checkpoint", None, scale.units);
            let bytes = engine.checkpoint_bytes();
            let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
            s.checkpoint_ms.push(ms(tr.end(span, len)));
            s.checkpoint_bytes = s.checkpoint_bytes.max(len);
            let span = tr.begin("stream.restore", None, scale.units);
            let restored = bytes.and_then(|b| restore_bytes(config(), &b));
            s.recovery_s.push(tr.end(span, 1).as_secs_f64());
            out.attempted += 2;
            match restored {
                Ok(engine) if rep == 0 => o.sample_restored.push(text_digest(&engine)),
                Ok(_) => {}
                Err(e) => out.fail(e),
            }
        }
    }
}

/// Checkpoints a slice of the served tenants to files (tenant 0 and a
/// window rotating with the pass index) and restores them into a fresh
/// server, untimed: the server's own durability path, checked.
fn files(scale: &Scale, index: usize, server: &Server, out: &mut Outcome, o: &mut Observed) {
    let scratch = Path::new(SCRATCH);
    let path = |t: usize| -> PathBuf { scratch.join(format!("tenant-{t:05}.rgck")) };
    if let Err(e) = std::fs::create_dir_all(scratch) {
        out.fail(format!("creating {SCRATCH}: {e}"));
        return;
    }
    let first = index * scale.durable_per_pass;
    let slice = (first..first + scale.durable_per_pass).map(|t| t % scale.tenants);
    let restored = Server::new(serve_config(scale));
    for t in std::iter::once(0).chain(slice.filter(|&t| t != 0)) {
        let id = tenant_id(t);
        let back = server
            .checkpoint_tenant(&id, path(t))
            .and_then(|()| restored.restore_tenant(id.clone(), config(), path(t)));
        out.attempted += 2;
        if let Err(e) = back {
            out.fail(e);
        }
        o.live_digests.push(digest(server, t));
        o.restored_digests.push(digest(&restored, t));
        let _ = std::fs::remove_file(path(t));
    }
    let _ = std::fs::remove_dir(scratch);
}

pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let input = Input::new(cfg.seed, scale);
    // Set-up is timed before the reference and after the passes, so
    // its median spans the run rather than one moment of it.
    let mut setup = passes::setups(scale.setups / 2, || admit(scale));
    let expected = standalone(&input, scale);
    let passes = passes::run(
        cfg,
        |index, tr| pass(&input, scale, &expected, index, tr, &mut out),
        |p| p.s.timed,
    );
    for p in passes.all() {
        check(&expected.digests, &p.observed, &mut out);
    }
    let first = &passes.untraced[0];
    out.exact = vec![
        ("input.digest", input.digest(1)),
        ("alarms", first.observed.alarms),
        ("checkpoint.bytes", first.s.checkpoint_bytes),
        ("records.accepted", first.observed.accepted),
    ];
    setup.extend(passes::setups(scale.setups - scale.setups / 2, || {
        admit(scale)
    }));
    passes.report(setup, &mut out);
    out
}
