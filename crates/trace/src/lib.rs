//! # amdrel-trace — deterministic observability for the hybrid stack
//!
//! Three pillars, strictly separated by their determinism contract:
//!
//! * **Event tracing** ([`TraceSink`], [`TraceEvent`], [`TraceBuffer`]) —
//!   the runtime simulator emits per-job lifecycle events in *simulated
//!   cycles*, totally ordered by `(time, seq)` where `seq` is the
//!   emission order. The simulator is single-threaded and consumes no
//!   randomness beyond its seeded streams, so a trace is bit-identical
//!   on every run of the same scenario — and attaching a sink never
//!   changes the simulated outcome (the property test
//!   `tracing_is_a_pure_observer_and_bit_deterministic` in
//!   `crates/runtime/tests/properties.rs` enforces this).
//! * **Exporters** ([`chrome_trace`], [`text_timeline`],
//!   [`resource_gantt`]) — pure functions from an event list to a
//!   string: Chrome trace-event / Perfetto JSON (`amdrel-trace/v1`),
//!   a compact text timeline, and a per-resource gantt view in the
//!   `coarsegrain::gantt` idiom.
//! * **Self-profiling** ([`Profiler`]) — opt-in *wall-clock* phase
//!   timers. Wall time is inherently nondeterministic, so profile
//!   output lives in its own `amdrel-profile/v1` JSON block, printed to
//!   stderr by the CLI and excluded from every byte-identity check.
//!
//! # Examples
//!
//! ```
//! use amdrel_trace::{EventKind, TraceBuffer, TraceEvent, TraceSink, TrackId};
//!
//! let buffer = TraceBuffer::new();
//! buffer.record(TraceEvent::span(TrackId::Fabric, 100, 50, "fine").with_job(7));
//! buffer.record(TraceEvent::instant(TrackId::Scheduler, 100, "arrive").with_job(8));
//! let events = buffer.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].seq, 0); // emission order is preserved
//! let json = amdrel_trace::chrome_trace(&events);
//! assert!(json.contains("\"amdrel-trace/v1\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod gantt;
mod profile;
mod text;

pub use chrome::chrome_trace;
pub use gantt::resource_gantt;
pub use profile::{PhaseStat, Profiler};
pub use text::text_timeline;

use std::sync::Mutex;

/// The resource a trace event happened on — one row ("track") in every
/// exported view.
///
/// The ordering (scheduler, fabric, CGC slots, regions) is the exported
/// track order, so derived `Ord` is load-bearing for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackId {
    /// Admission, queueing and job-disposition decisions.
    Scheduler,
    /// The fine-grain FPGA fabric (loads, backoffs, fine phases).
    Fabric,
    /// One coarse-grain datapath slot (0-based).
    CgcSlot(u32),
    /// One reconfigurable region of a partial-reconfiguration plan.
    Region(u32),
}

impl TrackId {
    /// The track's display label (`scheduler`, `fabric`, `cgc3`,
    /// `region1`).
    pub fn label(&self) -> String {
        match self {
            TrackId::Scheduler => "scheduler".to_owned(),
            TrackId::Fabric => "fabric".to_owned(),
            TrackId::CgcSlot(s) => format!("cgc{s}"),
            TrackId::Region(r) => format!("region{r}"),
        }
    }
}

/// How a [`TraceEvent`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A closed interval of work on a resource (`time .. time + dur`).
    /// The engine knows every span's length when it schedules the work,
    /// so spans are emitted complete — nesting can never be unbalanced.
    Span,
    /// A point event (fault, retry, arrival, …) with `dur == 0`.
    Instant,
    /// Start of a job's lifecycle (admission). Exported as an async
    /// begin keyed by the job id.
    JobBegin,
    /// End of a job's lifecycle (completion, abort or deadline reap).
    JobEnd,
}

/// One event of a simulation trace, timestamped in simulated FPGA
/// cycles.
///
/// Events are totally ordered by `(time, seq)`: `time` is the
/// simulated instant the event starts at, `seq` the deterministic
/// emission order a [`TraceBuffer`] assigns at record time (the
/// tie-breaker that makes traces replay-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time, simulated cycles.
    pub time: u64,
    /// Span length in cycles (0 for instants and job markers).
    pub dur: u64,
    /// Emission order, assigned by the sink; 0 until recorded.
    pub seq: u64,
    /// The resource the event belongs to.
    pub track: TrackId,
    /// What happened (`fine`, `load`, `fault_load`, `retry`, …).
    pub name: &'static str,
    /// The job involved, if any.
    pub job: Option<u64>,
    /// A per-name detail value (attempt number, regions reprogrammed,
    /// wasted cycles, …) documented in `docs/OBSERVABILITY.md`.
    pub arg: Option<u64>,
    /// Rendering kind.
    pub kind: EventKind,
}

impl TraceEvent {
    /// A complete span of `dur` cycles starting at `time`.
    pub fn span(track: TrackId, time: u64, dur: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            time,
            dur,
            seq: 0,
            track,
            name,
            job: None,
            arg: None,
            kind: EventKind::Span,
        }
    }

    /// A point event at `time`.
    pub fn instant(track: TrackId, time: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            dur: 0,
            kind: EventKind::Instant,
            ..TraceEvent::span(track, time, 0, name)
        }
    }

    /// The admission marker opening job `job`'s lifecycle span.
    pub fn job_begin(time: u64, job: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::JobBegin,
            job: Some(job),
            ..TraceEvent::span(TrackId::Scheduler, time, 0, "job")
        }
    }

    /// The disposition marker closing job `job`'s lifecycle span.
    pub fn job_end(time: u64, job: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::JobEnd,
            job: Some(job),
            ..TraceEvent::span(TrackId::Scheduler, time, 0, "job")
        }
    }

    /// Attach the job id.
    pub fn with_job(mut self, job: u64) -> TraceEvent {
        self.job = Some(job);
        self
    }

    /// Attach the detail value.
    pub fn with_arg(mut self, arg: u64) -> TraceEvent {
        self.arg = Some(arg);
        self
    }

    /// The `(time, seq)` ordering key.
    pub fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A consumer of simulation trace events.
///
/// `record` takes `&self` (the simulator holds the sink behind a shared
/// reference) and implementations must be `Sync`, so one sink can serve
/// the scoped-thread sweeps elsewhere in the workspace. The simulator
/// itself emits single-threaded, in deterministic order.
pub trait TraceSink: Sync {
    /// Record one event. The sink assigns [`TraceEvent::seq`]; the value
    /// passed in by the emitter is ignored.
    fn record(&self, event: TraceEvent);
}

/// The standard in-memory sink: appends events under a mutex, stamping
/// each with its emission index.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// A copy of the recorded events in emission (`seq`) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Drain the buffer, returning the events in emission order.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace buffer poisoned"))
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer poisoned").len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for TraceBuffer {
    fn record(&self, mut event: TraceEvent) {
        let mut events = self.events.lock().expect("trace buffer poisoned");
        event.seq = events.len() as u64;
        events.push(event);
    }
}

/// Sort `events` into the canonical `(time, seq)` order every exporter
/// renders in. The sort is stable and total (no two events share a
/// `seq`), so the result is unique.
pub fn canonical_order(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(TraceEvent::key);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_assigns_emission_order() {
        let buffer = TraceBuffer::new();
        assert!(buffer.is_empty());
        buffer.record(TraceEvent::span(TrackId::Fabric, 500, 10, "fine"));
        buffer.record(TraceEvent::instant(TrackId::Scheduler, 100, "arrive"));
        let events = buffer.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[1].seq), (0, 1));
        // Canonical order is by (time, seq), not emission order.
        let sorted = canonical_order(&events);
        assert_eq!(sorted[0].name, "arrive");
        assert_eq!(buffer.take().len(), 2);
        assert!(buffer.is_empty());
    }

    #[test]
    fn track_ordering_and_labels() {
        let mut tracks = vec![
            TrackId::Region(0),
            TrackId::CgcSlot(1),
            TrackId::Fabric,
            TrackId::CgcSlot(0),
            TrackId::Scheduler,
        ];
        tracks.sort();
        assert_eq!(
            tracks,
            vec![
                TrackId::Scheduler,
                TrackId::Fabric,
                TrackId::CgcSlot(0),
                TrackId::CgcSlot(1),
                TrackId::Region(0),
            ]
        );
        assert_eq!(TrackId::CgcSlot(3).label(), "cgc3");
        assert_eq!(TrackId::Region(1).label(), "region1");
    }

    #[test]
    fn builders_fill_the_expected_fields() {
        let e = TraceEvent::span(TrackId::Fabric, 10, 5, "fine")
            .with_job(3)
            .with_arg(1);
        assert_eq!((e.time, e.dur, e.job, e.arg), (10, 5, Some(3), Some(1)));
        assert_eq!(e.kind, EventKind::Span);
        let b = TraceEvent::job_begin(4, 9);
        assert_eq!((b.kind, b.job), (EventKind::JobBegin, Some(9)));
        let end = TraceEvent::job_end(8, 9);
        assert_eq!((end.kind, end.dur), (EventKind::JobEnd, 0));
    }

    #[test]
    fn sinks_are_shareable() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<TraceBuffer>();
        let buffer = TraceBuffer::new();
        let sink: &dyn TraceSink = &buffer;
        sink.record(TraceEvent::instant(TrackId::Scheduler, 0, "arrive"));
        assert_eq!(buffer.len(), 1);
    }
}
