//! In-memory spans recorded by the benchmark around its calls into the
//! program's public API, and the per-layer numbers derived from them.
//!
//! A span carries its name, start and end (ns since the run's origin),
//! the span that caused it, the unit it belongs to, one work count
//! (records, units, bytes, ...) and the allocator calls made while it
//! was open. A span of zero length is a counter sampled at that point.
//! Timings are taken whether or not tracing is on, because the
//! end-to-end metrics need them; tracing only decides whether spans
//! are kept.

use crate::alloc;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: i64,
    pub value: u64,
    pub allocs: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: where it started and, when traced, its slot.
#[derive(Debug)]
pub struct Open {
    start: Instant,
    allocs: u64,
    idx: Option<usize>,
}

impl Open {
    /// The span's index, usable as a parent (`None` when untraced).
    pub fn id(&self) -> Option<usize> {
        self.idx
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, unit: i64) -> Open {
        let allocs = alloc::calls();
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent,
                unit,
                value: 0,
                allocs: 0,
            });
            self.spans.len() - 1
        });
        Open { start, allocs, idx }
    }

    /// Ends a span with its work count and returns its duration.
    pub fn end(&mut self, open: Open, value: u64) -> Duration {
        let end = Instant::now();
        let allocs = alloc::calls() - open.allocs;
        if let Some(i) = open.idx {
            let end_ns = self.ns(end);
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.value = value;
            span.allocs = allocs;
        }
        end - open.start
    }

    /// A span whose duration the program itself reported (e.g.
    /// `UnitReport::recompute_time`), placed at the start of `parent`.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        unit: i64,
        dur: Duration,
        value: u64,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            unit,
            value,
            allocs: 0,
        });
    }

    /// A counter sampled now.
    pub fn count(&mut self, name: &'static str, parent: Option<usize>, unit: i64, value: u64) {
        if !self.enabled {
            return;
        }
        let at = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent,
            unit,
            value,
            allocs: 0,
        });
    }

    /// Moves another thread's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Aggregates over one run's spans.
pub struct Spans<'a> {
    spans: &'a [Span],
    /// Per span: summed duration and allocator calls of its children.
    child_ns: Vec<u64>,
    child_allocs: Vec<u64>,
}

impl<'a> Spans<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut child_ns = vec![0; spans.len()];
        let mut child_allocs = vec![0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
                child_allocs[p] += s.allocs;
            }
        }
        Spans {
            spans,
            child_ns,
            child_allocs,
        }
    }

    fn named(&self, name: &'static str) -> impl Iterator<Item = (usize, &Span)> + '_ {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    pub fn calls(&self, name: &'static str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed duration in seconds.
    pub fn busy_s(&self, name: &'static str) -> f64 {
        self.named(name).map(|(_, s)| s.dur_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Summed self time (duration minus the children's) in seconds.
    pub fn self_s(&self, name: &'static str) -> f64 {
        self.named(name)
            .map(|(i, s)| s.dur_ns().saturating_sub(self.child_ns[i]))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Summed allocator calls made by the spans themselves, children
    /// excluded.
    pub fn self_allocs(&self, name: &'static str) -> u64 {
        self.named(name)
            .map(|(i, s)| s.allocs.saturating_sub(self.child_allocs[i]))
            .sum()
    }

    pub fn sum(&self, name: &'static str) -> u64 {
        self.named(name).map(|(_, s)| s.value).sum()
    }

    pub fn max(&self, name: &'static str) -> u64 {
        self.named(name).map(|(_, s)| s.value).max().unwrap_or(0)
    }

    /// Durations of every span with this name, in microseconds.
    pub fn durations_us(&self, name: &'static str) -> Vec<f64> {
        self.named(name)
            .map(|(_, s)| s.dur_ns() as f64 * 1e-3)
            .collect()
    }
}

/// The spans as JSON lines, after one header line.
pub fn to_jsonl(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{},\"value\":{},\"allocs\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.unit, s.value, s.allocs
        );
    }
    out
}
