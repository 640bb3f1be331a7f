//! How a run spends its `--seconds`: whole passes over one workload's
//! seeded input, each from a fresh engine, so every pass produces the
//! same exact counters and a setup sample of its own.

use crate::report::{self, Outcome, Samples};
use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One pass: its timings and what it produced for the output check.
pub struct Pass<O> {
    pub s: Samples,
    pub observed: O,
}

pub struct Passes<P> {
    /// Untraced passes: the end-to-end numbers.
    pub untraced: Vec<P>,
    /// The traced pass (traced runs only), its spans and the traced ÷
    /// warm untraced wall-time ratio.
    pub traced: Option<(P, Vec<Span>, f64)>,
}

impl<O> Passes<Pass<O>> {
    /// Every pass, the traced one last.
    pub fn all(&self) -> impl Iterator<Item = &Pass<O>> {
        self.untraced.iter().chain(self.traced.iter().map(|t| &t.0))
    }

    /// Fills the outcome's metrics: per-layer ones from the traced
    /// pass's spans, or end-to-end ones from the untraced passes with
    /// the extra set-up samples `setup_s`.
    pub fn report(mut self, setup_s: Vec<f64>, out: &mut Outcome) {
        if let Some((p, spans, overhead)) = self.traced {
            out.metrics = report::per_layer(&spans, p.s.timed.as_secs_f64(), overhead);
            out.spans = spans;
            return;
        }
        self.untraced[0].s.setup_s.extend(setup_s);
        let samples: Vec<&Samples> = self.untraced.iter().map(|p| &p.s).collect();
        out.metrics = report::end_to_end(&samples);
    }
}

/// Runs `pass` until `seconds` of timed work are measured (at least one
/// pass, and no pass that would overshoot the budget by half). A traced
/// run instead makes two untraced passes and one traced pass, and
/// compares the traced pass with the second untraced one, so the first
/// pass's warm-up (fresh heap, cold caches) does not land in the ratio.
/// `timed` reads a pass's timed wall time; `pass` gets the pass's index.
pub fn run<P>(
    cfg: &RunConfig,
    mut pass: impl FnMut(usize, &mut Tracer) -> P,
    timed: impl Fn(&P) -> Duration,
) -> Passes<P> {
    let origin = Instant::now();
    let mut untraced = Vec::new();
    let mut spent = 0.0;
    loop {
        let p = pass(untraced.len(), &mut Tracer::new(false, origin));
        spent += timed(&p).as_secs_f64();
        untraced.push(p);
        let next = spent / untraced.len() as f64;
        let done = if cfg.trace {
            untraced.len() == 2
        } else {
            spent >= cfg.seconds || spent + next > 1.5 * cfg.seconds
        };
        if done {
            break;
        }
    }
    let traced = cfg.trace.then(|| {
        let mut tracer = Tracer::new(true, origin);
        let p = pass(untraced.len(), &mut tracer);
        let warm = untraced.last().map_or(1e-9, |w| timed(w).as_secs_f64());
        let ratio = timed(&p).as_secs_f64() / warm;
        (p, tracer.into_spans(), ratio)
    });
    Passes { untraced, traced }
}

/// Pause before each timed set-up.
const SETUP_GAP: Duration = Duration::from_micros(200);

/// Times `n` set-ups; what each builds is dropped outside the timing.
/// A single-engine set-up takes a few microseconds, so a batch run back
/// to back lands whole in one state of the machine: batch medians jumped
/// between about 2 and 3 µs from run to run. A short pause before each
/// set-up spreads the samples over many such states.
pub fn setups<T>(n: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            std::thread::sleep(SETUP_GAP);
            let started = Instant::now();
            let built = build();
            let took = started.elapsed().as_secs_f64();
            drop(built);
            took
        })
        .collect()
}
