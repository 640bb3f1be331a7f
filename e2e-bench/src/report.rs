//! What one run reports: end-to-end metrics, per-layer metrics derived
//! from the trace, exact counters and the output check's verdict.

use crate::rng::fnv1a;
use crate::trace::{Span, Spans};
use regcube_core::CubingEngine;
use regcube_stream::OnlineEngine;
use std::fmt::Write as _;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: records delivered, closes, checkpoints,
    /// restores and reads.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Output-check mismatches, one line each.
    pub mismatches: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Vec<Metric>,
    /// Counters that must repeat bit for bit for one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// The traced pass's spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.mismatches.len() < 32 {
            self.mismatches.push(format!("operation failed: {what}"));
        }
    }

    /// Compares one checked value; a difference is a mismatch and a
    /// failed check.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            self.mismatches
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    /// The result line: the last line of stdout, parsed by tooling.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The timings one pass collects for the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of the timed work: ingest, closes, snapshots and
    /// checkpoints (the fleet: ingest, pumps and closes).
    pub timed: Duration,
    /// Set-up time of the pass (engine or server construction plus
    /// admission).
    pub setup_s: Vec<f64>,
    /// Records ÷ wall time of each unit, its close, snapshot and
    /// checkpoint included.
    pub unit_rates: Vec<f64>,
    pub result_ms: Vec<f64>,
    pub read_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// The largest checkpoint of the pass.
    pub checkpoint_bytes: u64,
    /// Allocator peak above the pre-run baseline.
    pub peak: usize,
}

/// Every end-to-end metric, from the untraced passes. Timings are
/// medians over every sample of every pass, so a transient slowdown of
/// the machine moves them less than it would move a mean.
pub fn end_to_end(passes: &[&Samples]) -> Vec<Metric> {
    let all = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let result_ms = all(|p| &p.result_ms);
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak as f64 / 1e6).collect();
    vec![
        metric("setup_s", median(&all(|p| &p.setup_s)), "s"),
        metric("records_per_s", median(&all(|p| &p.unit_rates)), "rec/s"),
        metric("result_ms_p50", percentile(&result_ms, 0.5), "ms"),
        metric("result_ms_p90", percentile(&result_ms, 0.9), "ms"),
        metric("read_us_p50", median(&all(|p| &p.read_us)), "us"),
        metric(
            "checkpoint_ms_p50",
            median(&all(|p| &p.checkpoint_ms)),
            "ms",
        ),
        metric(
            "checkpoint_mb",
            passes[0].checkpoint_bytes as f64 / 1e6,
            "MB",
        ),
        metric("recovery_s", median(&all(|p| &p.recovery_s)), "s"),
        metric("peak_heap_mb", median(&peaks), "MB"),
    ]
}

/// Digest of the engine's `CubeSnapshot::canonical_text()`: equal
/// digests mean bit-identical queryable state.
pub fn text_digest<E: CubingEngine>(engine: &OnlineEngine<E>) -> u64 {
    fnv1a(engine.snapshot().canonical_text().as_bytes())
}

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Every per-layer metric, the same names on every workload; a layer
/// the workload does not drive reads 0. `wall_s` is the traced pass's
/// timed wall time; `overhead` the traced ÷ untraced wall-time ratio.
pub fn per_layer(spans: &[Span], wall_s: f64, overhead: f64) -> Vec<Metric> {
    let s = Spans::new(spans);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let records = s.sum("stream.ingest");
    let units_closed = s.sum("stream.close");
    let snapshots = s.calls("stream.snapshot");
    let cells = s.sum("core.cubing.cells_computed");
    let exceptions = s.sum("core.cubing.exception_cells");
    let cubing_s = s.busy_s("core.cubing");
    let closes_us = s.durations_us("serve.close");
    let reads_us = s.durations_us("serve.read");
    vec![
        metric("stream.ingest.records", records as f64, "count"),
        metric("stream.ingest.busy_s", s.self_s("stream.ingest"), "s"),
        metric(
            "stream.ingest.alloc_calls_per_record",
            ratio(s.self_allocs("stream.ingest") as f64, records as f64),
            "calls/rec",
        ),
        metric(
            "stream.reorder.buffered_max",
            s.max("stream.reorder.buffered") as f64,
            "count",
        ),
        metric(
            "stream.reorder.amended",
            s.max("stream.reorder.amended") as f64,
            "count",
        ),
        metric(
            "stream.reorder.dropped",
            s.max("stream.reorder.dropped") as f64,
            "count",
        ),
        metric(
            "stream.reorder.held_units",
            s.max("stream.reorder.held_units") as f64,
            "count",
        ),
        metric(
            "stream.close.calls",
            s.calls("stream.close") as f64,
            "count",
        ),
        metric("stream.close.busy_s", s.busy_s("stream.close"), "s"),
        metric("stream.close.self_s", s.self_s("stream.close"), "s"),
        metric(
            "stream.close.alloc_calls_per_unit",
            ratio(s.self_allocs("stream.close") as f64, units_closed as f64),
            "calls/unit",
        ),
        metric("core.cubing.busy_s", cubing_s, "s"),
        metric("core.cubing.wall_share", ratio(cubing_s, wall_s), "ratio"),
        metric(
            "core.cubing.rows_folded",
            s.sum("core.cubing.rows_folded") as f64,
            "count",
        ),
        metric("core.cubing.cells_computed", cells as f64, "count"),
        metric("core.cubing.exception_cells", exceptions as f64, "count"),
        metric(
            "core.cubing.exception_ratio",
            ratio(exceptions as f64, cells as f64),
            "ratio",
        ),
        metric("stream.snapshot.calls", snapshots as f64, "count"),
        metric("stream.snapshot.busy_s", s.busy_s("stream.snapshot"), "s"),
        metric(
            "stream.snapshot.alloc_calls_per_unit",
            ratio(s.self_allocs("stream.snapshot") as f64, snapshots as f64),
            "calls/unit",
        ),
        metric(
            "stream.checkpoint.busy_s",
            s.busy_s("stream.checkpoint"),
            "s",
        ),
        metric(
            "stream.checkpoint.bytes",
            s.max("stream.checkpoint") as f64,
            "bytes",
        ),
        metric("stream.restore.busy_s", s.busy_s("stream.restore"), "s"),
        metric("serve.ingest.busy_s", s.busy_s("serve.ingest"), "s"),
        metric(
            "serve.ingest.rejected",
            s.sum("serve.ingest.rejected") as f64,
            "count",
        ),
        metric("serve.pump.calls", s.calls("serve.pump") as f64, "count"),
        metric("serve.pump.busy_s", s.busy_s("serve.pump"), "s"),
        metric("serve.close.busy_s", s.busy_s("serve.close"), "s"),
        metric("serve.close.p99_us", percentile(&closes_us, 0.99), "us"),
        metric("serve.read.calls", reads_us.len() as f64, "count"),
        metric(
            "serve.read.service_us_p50",
            percentile(&reads_us, 0.5),
            "us",
        ),
        metric(
            "serve.read.service_us_p99",
            percentile(&reads_us, 0.99),
            "us",
        ),
        metric(
            "serve.snapshot_reads",
            s.sum("serve.snapshot_reads") as f64,
            "count",
        ),
        metric(
            "gen.read_lag_ms_max",
            s.max("gen.read_lag_ns") as f64 * 1e-6,
            "ms",
        ),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Exact counters every traced pass of a single-threaded workload
/// repeats bit for bit: allocator calls per stage.
pub fn stage_allocs(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let s = Spans::new(spans);
    vec![
        ("allocs.ingest", s.self_allocs("stream.ingest")),
        ("allocs.close", s.self_allocs("stream.close")),
        ("allocs.snapshot", s.self_allocs("stream.snapshot")),
        ("allocs.checkpoint", s.self_allocs("stream.checkpoint")),
    ]
}
