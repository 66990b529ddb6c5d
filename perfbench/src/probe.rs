//! Instrumentation used only by the traced run (`--trace 1`).
//!
//! Everything here observes without steering: the timing policy wrapper
//! delegates every decision (and its `name()`) to the wrapped policy,
//! and the counting sink only counts. The traced run checks that its
//! digests equal the untraced run's, which is what proves it.
//!
//! The probes bound to interfaces that are expected to be redesigned
//! (`SchedulePolicy::pick`, `Simulation::shards`) live in this module and
//! in the traced halves of the workloads, so a redesign costs a per-layer
//! number, never the end-to-end benchmark. (The `paper_flow` search sets
//! its faults and regions through `RuntimeEvaluator::with_*` on both
//! paths: no other entry point sets them.)

use amdrel_runtime::{ConfigId, Job, SchedulePolicy};
use amdrel_trace::{TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters a [`TimedPolicy`] accumulates (statistics only, so the
/// atomics are `Relaxed`).
#[derive(Debug, Default)]
pub struct PickStats {
    picks: AtomicU64,
    examined: AtomicU64,
    nanos: AtomicU64,
}

impl PickStats {
    /// `(picks, Σ queue length per pick, host ns inside pick)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.picks.load(Ordering::Relaxed),
            self.examined.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// Wraps a scheduling policy and times every `pick`.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn SchedulePolicy>,
    stats: Arc<PickStats>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn SchedulePolicy>, stats: Arc<PickStats>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl SchedulePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&self, queue: &[Job], loaded: Option<ConfigId>) -> usize {
        let start = Instant::now();
        let index = self.inner.pick(queue, loaded);
        let nanos = start.elapsed().as_nanos() as u64;
        self.stats.picks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .examined
            .fetch_add(queue.len() as u64, Ordering::Relaxed);
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        index
    }
}

/// A trace sink that only counts the events it receives.
#[derive(Debug, Default)]
pub struct CountingSink {
    events: AtomicU64,
}

impl CountingSink {
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl TraceSink for CountingSink {
    fn record(&self, _event: TraceEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// One timed region of the traced run, in host nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    pass: u32,
}

/// In-memory span recorder: spans nest by call order, carry the pass
/// they belong to, and are written out only when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    pass: std::cell::Cell<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            pass: std::cell::Cell::new(0),
        }
    }

    /// Start a new pass: later spans carry its id.
    pub fn next_pass(&self) {
        self.pass.set(self.pass.get() + 1);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent: self.open.borrow().last().copied(),
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now();
        let result = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start = start;
        spans[index].end = end;
        result
    }

    /// Total duration of every span named `name`, ns.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name: each span's duration minus its
    /// children's, summed by name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += t;
        }
        by_name
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}}}",
                s.name, s.start, s.end, s.pass
            );
        }
        out
    }
}
