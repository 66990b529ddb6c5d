//! The deterministic discrete-event simulator.
//!
//! Two resources model the hybrid platform at runtime:
//!
//! * the **fine-grain fabric** — one exclusive server. A job's FPGA
//!   phase needs its application's configuration resident; dispatching a
//!   job whose configuration differs from the loaded one charges
//!   reconfiguration stall cycles priced by the platform's
//!   [`ReconfigModel`](amdrel_core::ReconfigModel) per temporal
//!   partition (the configuration cache makes re-entry of the loaded
//!   configuration free; prefetch overlaps all but the first partition
//!   load with execution). With a [`RegionPlan`] attached, the scalar
//!   pool becomes per-region configuration state: a dispatch reloads
//!   only the stale regions of the job's residency set, priced by
//!   region area, and load faults scrub only those regions;
//! * the **CGC datapath** — one slot per CGC. A job's coarse phase
//!   (CGC compute + shared-memory communication) occupies one slot,
//!   FIFO, overlapping other jobs' FPGA phases.
//!
//! Every event is ordered by `(time, sequence number)` — a total,
//! seed-independent order — so identical inputs replay bit-for-bit. The
//! simulator itself consumes no randomness; all stochasticity lives in
//! the seeded [`WorkloadSpec`](crate::WorkloadSpec) generator and, when
//! one is attached, the seeded [`FaultSpec`](crate::FaultSpec) whose
//! per-`(channel, job, attempt)` draws are pure functions — fault,
//! repair and deadline events flow through the same event queue and
//! the same total order, so faulted runs replay bit-for-bit too, and a
//! zero-rate spec is byte-identical to attaching none.
//!
//! # Engine
//!
//! Each resource holds its one pending event inline with the job it
//! concerns, and the engine keeps **no arrivals** as events:
//!
//! * the fabric is idle, or holds one job with its next event — the
//!   fine phase's end, a load fault, a kill, or a retry after backoff.
//!   The job keeps the fabric through its whole retry chain;
//! * each CGC slot is free, busy with one task and the event that ends
//!   it (the coarse phase's end, or an outage), or down until its
//!   repair;
//! * deadlines, one per admitted job when they are on, wait in a FIFO,
//!   because reap times (`arrival + deadline`) are scheduled in key
//!   order.
//!
//! Every event carries a `(time, seq)` key. The next event is the
//! smallest key found by scanning the fabric, the slots and the front of
//! the deadline FIFO, which is exactly the order of the historical
//! all-events heap. The scan runs once after each event fires; an event
//! scheduled in between carries the largest `seq` yet, so it becomes the
//! next one only if it is strictly earlier. Arrivals are merged lazily
//! from the (time-sorted) job stream: each waits only for the events
//! strictly before it, so arrivals win time ties, as they did in that
//! heap, where every arrival was pushed before any completion and
//! therefore carried a smaller sequence number. The heap is retained
//! behind `#[cfg(test)]` as a differential oracle. Without deadlines at
//! most `1 + cgc_slots` events are pending.
//!
//! The per-job path does only the work a run needs: each profile's
//! scalar reconfiguration charge is priced once per run, a coarse task
//! that finds the CGC queue empty starts on the smallest free slot
//! directly, and trace events are built only when a sink is attached,
//! out of line, from values the trace closures copy (a closure that
//! borrowed a job would pin it to memory on the untraced path too).
//!
//! # Entry point
//!
//! [`Simulation`] is the builder facade every consumer routes through —
//! the CLI, `amdrel-explore`'s contention scorer, the case-study crates
//! and the benchmark.

use crate::fault::{permille_of, FaultSpec, RecoveryPolicy};
use crate::policy::{Fcfs, SchedulePolicy};
use crate::profile::{AppProfile, ConfigId};
use crate::region::RegionPlan;
use crate::report::{AppStats, QueueStats, ReliabilityStats, RuntimeReport};
use crate::sketch::{LatencySketch, LatencySource, SketchMode};
use crate::workload::{Job, WorkloadSpec};
use amdrel_core::Platform;
use amdrel_trace::{TraceEvent, TraceSink, TrackId};
use std::collections::VecDeque;
use std::num::NonZeroUsize;

/// Runtime knobs orthogonal to the scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// When `true` (default), a job whose configuration is already
    /// loaded re-enters the fabric with no reconfiguration charge. When
    /// `false`, every dispatch streams the full bitstream set in.
    pub config_cache: bool,
    /// When `true`, partition loads after the first overlap with
    /// execution of the preceding partition (only the first bitstream
    /// stalls the fabric). Default `false`.
    pub prefetch: bool,
    /// Admission bound: a job arriving while this many jobs already wait
    /// for the fabric is rejected. `None` means unbounded (no
    /// rejection).
    pub queue_bound: Option<NonZeroUsize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            config_cache: true,
            prefetch: false,
            queue_bound: None,
        }
    }
}

/// One coarse-phase work item in a CGC slot or waiting for one. Plain
/// jobs carry their own `coarse_cycles`; degraded jobs carry the
/// profile's fallback pricing instead and are immune to further faults
/// (the reliable slow path).
#[derive(Debug, Clone, Copy)]
struct CgcTask {
    job: Job,
    /// Slot cycles this execution takes.
    cycles: u64,
    /// Coarse-phase attempt counter (slot-outage retries).
    attempt: u32,
    /// On the coarse-grain-only fallback path (fault-immune).
    degraded: bool,
    /// The job saw at least one fault anywhere on its way here.
    faulted: bool,
}

/// The fabric: idle, or holding one job (through its whole retry chain)
/// with the one event pending on it.
#[derive(Debug, Clone, Copy)]
enum Fabric {
    Idle,
    Busy {
        time: u64,
        seq: u64,
        kind: FabricEvent,
        /// Fabric attempt the event belongs to (for a retry, the attempt
        /// it starts); attempt > 0 means the job met a fault first.
        attempt: u32,
        job: Job,
    },
}

/// What the fabric's pending event does when it fires.
#[derive(Debug, Clone, Copy)]
enum FabricEvent {
    /// The job's fine-grain phase ends.
    Done,
    /// The bitstream load fails after stalling the fabric for its full
    /// streaming time.
    LoadFault,
    /// A transient fabric fault kills the in-flight fine phase.
    Kill,
    /// Backoff elapsed: the job retries.
    Retry,
}

/// One CGC slot: free, running one task until its event, or down after
/// an outage until its repair at `(time, seq)`.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Free,
    Busy {
        time: u64,
        seq: u64,
        kind: SlotEvent,
        task: CgcTask,
    },
    Down {
        time: u64,
        seq: u64,
    },
}

/// What a busy slot's pending event does when it fires.
#[derive(Debug, Clone, Copy)]
enum SlotEvent {
    /// The task's coarse phase ends.
    Done,
    /// An outage kills the task's coarse phase; the slot goes down.
    Outage,
}

/// Where the next event waits.
#[derive(Debug, Clone, Copy)]
enum Next {
    Fabric,
    Slot(usize),
    Deadline,
}

/// Streaming run accounting: counters plus one [`LatencySketch`] per
/// `(application, clean | faulted)` pair — O(1) memory in the job count
/// when sketched. Each completion is recorded once; the per-app, total,
/// clean and faulted distributions are exact merges of those sketches,
/// built when the report is. Shared by the event-queue engine, the
/// sharded runner (which folds one ledger per shard) and the
/// `#[cfg(test)]` heap oracle so differential tests isolate the
/// event-core difference.
pub(crate) struct Ledger {
    arrived: Vec<u64>,
    rejected: Vec<u64>,
    completed: Vec<u64>,
    /// Per application: latencies of clean completions, then of
    /// completions that saw at least one fault.
    latencies: Vec<[LatencySketch; 2]>,
    source: LatencySource,
    fpga_busy_cycles: u64,
    reconfig_stall_cycles: u64,
    reconfig_loads: u64,
    cgc_busy_cycles: u64,
    makespan: u64,
    // Reliability accounting (all zero on a fault-free run).
    load_failures: u64,
    fabric_kills: u64,
    slot_outages: u64,
    retries: u64,
    degraded: u64,
    aborted: u64,
    deadline_misses: u64,
    fault_lost_cycles: u64,
    slot_downtime_cycles: u64,
}

impl Ledger {
    pub(crate) fn new(napps: usize, source: LatencySource) -> Self {
        Ledger {
            arrived: vec![0; napps],
            rejected: vec![0; napps],
            completed: vec![0; napps],
            latencies: (0..napps)
                .map(|_| [LatencySketch::new(source), LatencySketch::new(source)])
                .collect(),
            source,
            fpga_busy_cycles: 0,
            reconfig_stall_cycles: 0,
            reconfig_loads: 0,
            cgc_busy_cycles: 0,
            makespan: 0,
            load_failures: 0,
            fabric_kills: 0,
            slot_outages: 0,
            retries: 0,
            degraded: 0,
            aborted: 0,
            deadline_misses: 0,
            fault_lost_cycles: 0,
            slot_downtime_cycles: 0,
        }
    }

    fn complete(&mut self, job: &Job, now: u64, faulted: bool) {
        self.completed[job.app] += 1;
        self.latencies[job.app][usize::from(faulted)].record(now - job.arrival);
        self.makespan = self.makespan.max(now);
    }

    /// Fold another shard's ledger into this one. Counters add, the
    /// makespan is the max, and latency sketches merge via
    /// [`LatencySketch::merge_from`] — exact for both representations,
    /// so the folded percentiles are a pure function of the union
    /// multiset and independent of shard count and fold order.
    pub(crate) fn merge(&mut self, other: Ledger) {
        for (mine, theirs) in self.arrived.iter_mut().zip(&other.arrived) {
            *mine += theirs;
        }
        for (mine, theirs) in self.rejected.iter_mut().zip(&other.rejected) {
            *mine += theirs;
        }
        for (mine, theirs) in self.completed.iter_mut().zip(&other.completed) {
            *mine += theirs;
        }
        for (mine, theirs) in self.latencies.iter_mut().zip(&other.latencies) {
            mine[0].merge_from(&theirs[0]);
            mine[1].merge_from(&theirs[1]);
        }
        self.fpga_busy_cycles += other.fpga_busy_cycles;
        self.reconfig_stall_cycles += other.reconfig_stall_cycles;
        self.reconfig_loads += other.reconfig_loads;
        self.cgc_busy_cycles += other.cgc_busy_cycles;
        self.makespan = self.makespan.max(other.makespan);
        self.load_failures += other.load_failures;
        self.fabric_kills += other.fabric_kills;
        self.slot_outages += other.slot_outages;
        self.retries += other.retries;
        self.degraded += other.degraded;
        self.aborted += other.aborted;
        self.deadline_misses += other.deadline_misses;
        self.fault_lost_cycles = self
            .fault_lost_cycles
            .saturating_add(other.fault_lost_cycles);
        self.slot_downtime_cycles = self
            .slot_downtime_cycles
            .saturating_add(other.slot_downtime_cycles);
    }

    pub(crate) fn into_report(
        self,
        profiles: &[AppProfile],
        policy: &str,
        config: SimConfig,
        cgc_slots: usize,
        faults: FaultSpec,
        recovery: RecoveryPolicy,
    ) -> RuntimeReport {
        let source = self.source;
        let mut total = LatencySketch::new(source);
        let mut clean = LatencySketch::new(source);
        let mut faulted = LatencySketch::new(source);
        let apps: Vec<AppStats> = profiles
            .iter()
            .zip(self.latencies)
            .enumerate()
            .map(|(a, (p, [mut app, app_faulted]))| {
                clean.merge_from(&app);
                faulted.merge_from(&app_faulted);
                app.merge_from(&app_faulted);
                total.merge_from(&app);
                AppStats::from_sketch(
                    &p.name,
                    self.arrived[a],
                    self.completed[a],
                    self.rejected[a],
                    &mut app,
                )
            })
            .collect();
        let [p50_latency, p95_latency] = total.percentiles([50, 95]);
        RuntimeReport {
            policy: policy.to_owned(),
            config,
            cgc_slots,
            makespan: self.makespan,
            fpga_busy_cycles: self.fpga_busy_cycles,
            reconfig_stall_cycles: self.reconfig_stall_cycles,
            reconfig_loads: self.reconfig_loads,
            cgc_busy_cycles: self.cgc_busy_cycles,
            p50_latency,
            p95_latency,
            latency_source: source,
            faults,
            recovery,
            queue: QueueStats::default(),
            reliability: ReliabilityStats {
                injected: self.load_failures + self.fabric_kills + self.slot_outages,
                load_failures: self.load_failures,
                fabric_kills: self.fabric_kills,
                slot_outages: self.slot_outages,
                retries: self.retries,
                degraded: self.degraded,
                aborted: self.aborted,
                deadline_misses: self.deadline_misses,
                fault_lost_cycles: self.fault_lost_cycles,
                slot_downtime_cycles: self.slot_downtime_cycles,
                clean_completed: clean.count(),
                faulted_completed: faulted.count(),
                p95_clean: clean.percentiles([95])[0],
                p95_faulted: faulted.percentiles([95])[0],
            },
            apps,
        }
    }
}

pub(crate) struct Engine<'a> {
    profiles: &'a [AppProfile],
    platform: &'a Platform,
    policy: &'a dyn SchedulePolicy,
    config: SimConfig,
    faults: FaultSpec,
    recovery: RecoveryPolicy,

    /// Sequence number of the next scheduled event, so at the end of a
    /// run the number of events scheduled.
    next_seq: u64,
    /// Events pending on the fabric, the slots and the deadline FIFO.
    pending: usize,
    /// Peak of `pending`, sampled after each schedule.
    peak: usize,
    /// The next event, `(time, seq, place)`: kept as events are
    /// scheduled, and found again by [`Engine::next_event`]'s scan after
    /// each event fires.
    next: Option<(u64, u64, Next)>,
    /// Each profile's scalar reconfiguration charge, `(bitstream loads,
    /// fabric stall cycles)`, priced once per run.
    charges: Vec<(u64, u64)>,

    fpga_queue: Vec<Job>,
    fabric: Fabric,
    loaded: Option<ConfigId>,
    /// Region-granular reconfiguration, when a partial plan is attached
    /// (a single full-fabric region keeps the scalar path, `None` here).
    region_plan: Option<&'a RegionPlan>,
    /// Configuration resident in each region (all `None` without a plan).
    region_owner: Vec<Option<ConfigId>>,

    cgc_queue: VecDeque<CgcTask>,
    /// One entry per CGC slot. Slots are fungible for timing; a task
    /// takes the smallest free id only so that per-slot trace tracks
    /// are deterministic.
    slots: Vec<Slot>,
    /// Pending deadlines, `(time, seq, job id)`, in key order.
    deadlines: VecDeque<(u64, u64, u64)>,

    ledger: Ledger,
    trace: Option<&'a dyn TraceSink>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(sim: &Simulation<'a>, source: LatencySource) -> Self {
        let cgc_slots = sim.platform.datapath.cgcs.len();
        let region_plan = sim.regions.filter(|plan| plan.is_partial());
        let model = &sim.platform.reconfig;
        let charges = sim
            .profiles
            .iter()
            .map(|p| {
                let areas = &p.config.partition_areas;
                let stall = if sim.config.prefetch {
                    areas.first().map_or(0, |&a| model.load_cycles(a))
                } else {
                    areas.iter().map(|&a| model.load_cycles(a)).sum()
                };
                (areas.len() as u64, stall)
            })
            .collect();
        Engine {
            profiles: sim.profiles,
            platform: sim.platform,
            policy: sim.policy,
            config: sim.config,
            faults: sim.faults,
            recovery: sim.recovery,
            next_seq: 0,
            pending: 0,
            peak: 0,
            next: None,
            charges,
            fpga_queue: Vec::new(),
            fabric: Fabric::Idle,
            loaded: None,
            region_plan,
            region_owner: vec![None; region_plan.map_or(0, RegionPlan::regions)],
            cgc_queue: VecDeque::new(),
            slots: vec![Slot::Free; cgc_slots],
            deadlines: VecDeque::new(),
            ledger: Ledger::new(sim.profiles.len(), source),
            trace: sim.trace,
        }
    }

    /// The sequence number of an event being scheduled at `time` on
    /// `at`, counting it as pending. Its sequence number is the largest
    /// yet, so it comes next only if it is strictly earlier than the
    /// next event so far.
    fn stamp(&mut self, time: u64, at: Next) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.peak = self.peak.max(self.pending);
        if self.next.is_none_or(|(t, _, _)| time < t) {
            self.next = Some((time, seq, at));
        }
        seq
    }

    /// Give the fabric, which `job` holds, its next event.
    fn schedule_fabric(&mut self, time: u64, kind: FabricEvent, attempt: u32, job: Job) {
        debug_assert!(
            matches!(self.fabric, Fabric::Idle),
            "the fabric already holds a pending event"
        );
        let seq = self.stamp(time, Next::Fabric);
        self.fabric = Fabric::Busy {
            time,
            seq,
            kind,
            attempt,
            job,
        };
    }

    /// Give the claimed `slot` the event that ends `task`'s run on it.
    fn schedule_slot(&mut self, slot: usize, time: u64, kind: SlotEvent, task: CgcTask) {
        let seq = self.stamp(time, Next::Slot(slot));
        self.slots[slot] = Slot::Busy {
            time,
            seq,
            kind,
            task,
        };
    }

    /// The next event: the smallest `(time, seq)` over the fabric, the
    /// CGC slots and the front of the deadline FIFO.
    fn next_event(&self) -> Option<(u64, u64, Next)> {
        let mut next = self
            .deadlines
            .front()
            .map(|&(time, seq, _)| (time, seq, Next::Deadline));
        if let Fabric::Busy { time, seq, .. } = self.fabric {
            if next.is_none_or(|(t, s, _)| (time, seq) < (t, s)) {
                next = Some((time, seq, Next::Fabric));
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Slot::Busy { time, seq, .. } | Slot::Down { time, seq } = *slot {
                if next.is_none_or(|(t, s, _)| (time, seq) < (t, s)) {
                    next = Some((time, seq, Next::Slot(i)));
                }
            }
        }
        next
    }

    /// The smallest free CGC slot id.
    fn free_slot(&self) -> Option<usize> {
        self.slots
            .iter()
            .position(|slot| matches!(slot, Slot::Free))
    }

    /// Record the trace event `event` builds when a sink is attached.
    /// Everything observable flows through here, and with no sink the
    /// closure never runs: an untraced run builds no trace events. The
    /// building happens out of line, so the per-job path stays small.
    #[inline]
    fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        #[cold]
        #[inline(never)]
        fn record(trace: &dyn TraceSink, event: impl FnOnce() -> TraceEvent) {
            trace.record(event());
        }
        if let Some(trace) = self.trace {
            record(trace, event);
        }
    }

    /// Reconfiguration charge for dispatching `job` now: `(bitstream
    /// loads performed, fabric stall cycles)`.
    fn reconfig_charge(&self, job: &Job) -> (u64, u64) {
        if let Some(plan) = self.region_plan {
            return self.region_charge(plan, job);
        }
        if self.config.config_cache && self.loaded == Some(job.config) {
            return (0, 0);
        }
        self.charges[job.app]
    }

    /// Region-granular charge: only the *stale* regions of the job's
    /// residency set are reprogrammed, each priced by the area of the
    /// region actually rewritten — not the logical partition area. A
    /// region already holding the job's configuration is skipped (when
    /// the cache is on), so another tenant's regions stay untouched and
    /// keep executing through the load. Prefetch overlaps all but the
    /// first stale region's load with execution, as in the scalar model.
    fn region_charge(&self, plan: &RegionPlan, job: &Job) -> (u64, u64) {
        let model = &self.platform.reconfig;
        let mut loads = 0u64;
        let mut stall = 0u64;
        for &r in plan.touched(job.app) {
            if self.config.config_cache && self.region_owner[r] == Some(job.config) {
                continue;
            }
            loads += 1;
            if !self.config.prefetch || loads == 1 {
                stall += model.load_cycles(plan.region_area(r));
            }
        }
        (loads, stall)
    }

    fn dispatch_fpga(&mut self, now: u64) {
        if matches!(self.fabric, Fabric::Busy { .. }) || self.fpga_queue.is_empty() {
            return;
        }
        let pick = self.policy.pick(&self.fpga_queue, self.loaded);
        let job = self.fpga_queue.swap_remove(pick);
        self.start_fabric_attempt(job, 0, now);
    }

    /// Begin fabric attempt `attempt` of `job`, which takes (or keeps)
    /// the fabric. Consults the fault spec for a load failure, then a
    /// transient kill; on the zero-rate spec neither stream is touched
    /// and the charge/schedule sequence is exactly the fault-free one.
    fn start_fabric_attempt(&mut self, job: Job, attempt: u32, now: u64) {
        let (loads, stall) = self.reconfig_charge(&job);
        if loads > 0 {
            // The load span covers the fabric-blocking stall (with
            // prefetch that is only the first partition); `arg` carries
            // the bitstream count.
            self.emit(move || {
                TraceEvent::span(TrackId::Fabric, now, stall, "load")
                    .with_job(job.id)
                    .with_arg(loads)
            });
            // Region reprogram instants, emitted against the pre-load
            // residency so they mark exactly the stale regions the
            // charge priced (same predicate as `region_charge`).
            if self.trace.is_some() {
                if let Some(plan) = self.region_plan {
                    for &r in plan.touched(job.app) {
                        if self.config.config_cache && self.region_owner[r] == Some(job.config) {
                            continue;
                        }
                        self.emit(move || {
                            TraceEvent::instant(TrackId::Region(r as u32), now, "reprogram")
                                .with_job(job.id)
                        });
                    }
                }
            }
        }
        if loads > 0 && self.faults.load_fails(job.id, attempt) {
            // The load aborts after its full streaming stall; a partial
            // bitstream is useless, so the resident configuration is
            // scrubbed and the stall is pure loss. Under a region plan
            // the outage is region-scoped: only the regions the load was
            // rewriting are scrubbed — other tenants stay resident.
            self.ledger.load_failures += 1;
            self.ledger.fault_lost_cycles += stall;
            self.loaded = None;
            if let Some(plan) = self.region_plan {
                for &r in plan.touched(job.app) {
                    self.region_owner[r] = None;
                    self.emit(move || {
                        TraceEvent::instant(TrackId::Region(r as u32), now + stall, "scrub")
                            .with_job(job.id)
                    });
                }
            }
            self.emit(move || {
                TraceEvent::instant(TrackId::Fabric, now + stall, "fault_load")
                    .with_job(job.id)
                    .with_arg(attempt as u64)
            });
            self.schedule_fabric(now + stall, FabricEvent::LoadFault, attempt, job);
            return;
        }
        if loads > 0 {
            self.loaded = Some(job.config);
            if let Some(plan) = self.region_plan {
                for &r in plan.touched(job.app) {
                    self.region_owner[r] = Some(job.config);
                }
            }
        }
        self.ledger.reconfig_loads += loads;
        self.ledger.reconfig_stall_cycles += stall;
        if let Some(frac) = self.faults.fabric_kill(job.id, attempt) {
            // Transient fault: the drawn fraction of the fine phase runs
            // (and is wasted) before the kill.
            let wasted = permille_of(job.fine_cycles, frac);
            self.ledger.fabric_kills += 1;
            self.ledger.fault_lost_cycles += wasted;
            self.emit(move || {
                TraceEvent::span(TrackId::Fabric, now + stall, wasted, "fine")
                    .with_job(job.id)
                    .with_arg(attempt as u64)
            });
            self.emit(move || {
                TraceEvent::instant(TrackId::Fabric, now + stall + wasted, "fault_fabric")
                    .with_job(job.id)
                    .with_arg(attempt as u64)
            });
            self.schedule_fabric(now + stall + wasted, FabricEvent::Kill, attempt, job);
            return;
        }
        self.ledger.fpga_busy_cycles += job.fine_cycles;
        self.emit(move || {
            TraceEvent::span(TrackId::Fabric, now + stall, job.fine_cycles, "fine")
                .with_job(job.id)
                .with_arg(attempt as u64)
        });
        self.schedule_fabric(
            now + stall + job.fine_cycles,
            FabricEvent::Done,
            attempt,
            job,
        );
    }

    /// The fabric's pending event fires at `now`.
    fn fabric_event(&mut self, now: u64) {
        let Fabric::Busy {
            kind, attempt, job, ..
        } = std::mem::replace(&mut self.fabric, Fabric::Idle)
        else {
            unreachable!("a fabric event fires only while the fabric holds a job")
        };
        match kind {
            FabricEvent::Done => {
                let faulted = attempt > 0;
                if job.coarse_cycles > 0 {
                    let task = CgcTask {
                        job,
                        cycles: job.coarse_cycles,
                        attempt: 0,
                        degraded: false,
                        faulted,
                    };
                    self.submit_cgc(task, now);
                } else {
                    self.ledger.complete(&job, now, faulted);
                    self.emit(move || {
                        TraceEvent::instant(TrackId::Scheduler, now, "complete").with_job(job.id)
                    });
                    self.emit(move || TraceEvent::job_end(now, job.id));
                }
                self.dispatch_fpga(now);
            }
            FabricEvent::LoadFault | FabricEvent::Kill => self.recover_fabric(job, attempt, now),
            FabricEvent::Retry => self.start_fabric_attempt(job, attempt, now),
        }
    }

    /// Fabric attempt `attempt` of `job` failed (load fault or transient
    /// kill): retry after backoff while budget remains — the job keeps
    /// the fabric through the whole retry chain — else release the
    /// fabric and degrade or abort.
    fn recover_fabric(&mut self, job: Job, attempt: u32, now: u64) {
        if attempt < self.recovery.max_retries {
            self.ledger.retries += 1;
            let delay = self.recovery.backoff.delay(attempt);
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "retry")
                    .with_job(job.id)
                    .with_arg((attempt + 1) as u64)
            });
            self.emit(move || {
                TraceEvent::span(TrackId::Fabric, now, delay, "backoff")
                    .with_job(job.id)
                    .with_arg(attempt as u64)
            });
            self.schedule_fabric(now + delay, FabricEvent::Retry, attempt + 1, job);
            return;
        }
        if self.recovery.degrade && !self.slots.is_empty() {
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "degrade").with_job(job.id)
            });
            let task = CgcTask {
                job,
                cycles: self.profiles[job.app].fallback_cycles(),
                attempt: 0,
                degraded: true,
                faulted: true,
            };
            self.submit_cgc(task, now);
        } else {
            self.ledger.aborted += 1;
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "abort").with_job(job.id)
            });
            self.emit(move || TraceEvent::job_end(now, job.id));
        }
        self.dispatch_fpga(now);
    }

    /// Hand a coarse task to the CGC stage: straight onto the smallest
    /// free slot when nothing waits ahead of it, else to the back of the
    /// queue.
    fn submit_cgc(&mut self, task: CgcTask, now: u64) {
        if self.cgc_queue.is_empty() {
            if let Some(slot) = self.free_slot() {
                self.start_cgc(slot, task, now);
                return;
            }
        }
        debug_assert!(
            self.free_slot().is_none(),
            "a task waits only while every slot is taken"
        );
        self.cgc_queue.push_back(task);
    }

    /// Run `task` on the free `slot`: schedule its completion, or the
    /// outage the fault spec draws for it.
    fn start_cgc(&mut self, slot: usize, task: CgcTask, now: u64) {
        let track = TrackId::CgcSlot(slot as u32);
        if !task.degraded {
            if let Some(frac) = self.faults.slot_outage(task.job.id, task.attempt) {
                // Outage: the drawn fraction of the coarse phase runs
                // before the slot dies; the slot stays down until its
                // repair event returns it to the pool.
                let wasted = permille_of(task.cycles, frac);
                self.ledger.slot_outages += 1;
                self.ledger.fault_lost_cycles += wasted;
                self.emit(move || {
                    TraceEvent::span(track, now, wasted, "coarse")
                        .with_job(task.job.id)
                        .with_arg(task.attempt as u64)
                });
                self.emit(move || {
                    TraceEvent::instant(track, now.saturating_add(wasted), "fault_slot")
                        .with_job(task.job.id)
                });
                // Saturating: dispatches after a near-`u64::MAX`
                // slot repair pin to the end of the clock instead
                // of overflowing it.
                self.schedule_slot(slot, now.saturating_add(wasted), SlotEvent::Outage, task);
                return;
            }
        }
        self.ledger.cgc_busy_cycles += task.cycles;
        self.emit(move || {
            TraceEvent::span(
                track,
                now,
                task.cycles,
                if task.degraded { "fallback" } else { "coarse" },
            )
            .with_job(task.job.id)
            .with_arg(task.attempt as u64)
        });
        self.schedule_slot(slot, now.saturating_add(task.cycles), SlotEvent::Done, task);
    }

    /// `slot`'s pending event fires at `now`.
    fn slot_event(&mut self, slot: usize, now: u64) {
        match std::mem::replace(&mut self.slots[slot], Slot::Free) {
            Slot::Busy {
                kind: SlotEvent::Done,
                task,
                ..
            } => {
                if task.degraded {
                    self.ledger.degraded += 1;
                }
                self.ledger
                    .complete(&task.job, now, task.faulted || task.attempt > 0);
                self.emit(move || {
                    TraceEvent::instant(TrackId::Scheduler, now, "complete").with_job(task.job.id)
                });
                self.emit(move || TraceEvent::job_end(now, task.job.id));
                self.dispatch_cgc(slot, now);
            }
            Slot::Busy {
                kind: SlotEvent::Outage,
                task,
                ..
            } => self.slot_outage(slot, task, now),
            Slot::Down { .. } => {
                self.emit(move || {
                    TraceEvent::instant(TrackId::CgcSlot(slot as u32), now, "repair")
                });
                self.dispatch_cgc(slot, now);
            }
            Slot::Free => unreachable!("a slot event fires only while the slot is taken"),
        }
    }

    /// An outage killed `task` on `slot`: the slot goes down until its
    /// repair, and the task retries, degrades or aborts.
    fn slot_outage(&mut self, slot: usize, task: CgcTask, now: u64) {
        // Saturating: a repair window near `u64::MAX` pins the slot down
        // for the rest of the run instead of overflowing the clock or
        // the downtime counter.
        let repair = self.faults.repair_cycles;
        self.ledger.slot_downtime_cycles = self.ledger.slot_downtime_cycles.saturating_add(repair);
        self.emit(move || TraceEvent::span(TrackId::CgcSlot(slot as u32), now, repair, "down"));
        let time = now.saturating_add(repair);
        let seq = self.stamp(time, Next::Slot(slot));
        self.slots[slot] = Slot::Down { time, seq };
        if task.attempt < self.recovery.max_retries {
            self.ledger.retries += 1;
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "retry")
                    .with_job(task.job.id)
                    .with_arg((task.attempt + 1) as u64)
            });
            let retry = CgcTask {
                attempt: task.attempt + 1,
                faulted: true,
                ..task
            };
            self.submit_cgc(retry, now);
        } else if self.recovery.degrade {
            // Same pricing, but on the fault-immune fallback path: the
            // reliable slow lane.
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "degrade").with_job(task.job.id)
            });
            let fallback = CgcTask {
                degraded: true,
                faulted: true,
                ..task
            };
            self.submit_cgc(fallback, now);
        } else {
            self.ledger.aborted += 1;
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "abort").with_job(task.job.id)
            });
            self.emit(move || TraceEvent::job_end(now, task.job.id));
        }
    }

    /// Start the front queued task on `slot`, which has just come free.
    /// A task waits only while every slot is taken, so `slot` is the
    /// only free one, as the smallest-free-id rule requires.
    fn dispatch_cgc(&mut self, slot: usize, now: u64) {
        if let Some(task) = self.cgc_queue.pop_front() {
            self.start_cgc(slot, task, now);
        }
    }

    /// The deadline at the front of the FIFO fires at `now`: reap its
    /// job if it still waits for the fabric. A dispatched job is
    /// committed and runs to completion.
    fn deadline_event(&mut self, now: u64) {
        let (_, _, job_id) = self
            .deadlines
            .pop_front()
            .expect("a deadline event fires from a non-empty FIFO");
        if let Some(pos) = self.fpga_queue.iter().position(|j| j.id == job_id) {
            self.fpga_queue.swap_remove(pos);
            self.ledger.deadline_misses += 1;
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, now, "deadline").with_job(job_id)
            });
            self.emit(move || TraceEvent::job_end(now, job_id));
        }
    }

    /// Admit or reject `job` at its arrival. Inlined into the arrival
    /// loop, so a freshly generated job reaches the fabric queue without
    /// a round trip through memory.
    #[inline(always)]
    fn arrive(&mut self, job: Job) {
        self.ledger.arrived[job.app] += 1;
        self.emit(move || {
            TraceEvent::instant(TrackId::Scheduler, job.arrival, "arrive")
                .with_job(job.id)
                .with_arg(job.app as u64)
        });
        if self
            .config
            .queue_bound
            .is_some_and(|bound| self.fpga_queue.len() >= bound.get())
        {
            self.ledger.rejected[job.app] += 1;
            self.emit(move || {
                TraceEvent::instant(TrackId::Scheduler, job.arrival, "reject").with_job(job.id)
            });
        } else {
            self.emit(move || TraceEvent::job_begin(job.arrival, job.id));
            if let Some(reap) = self.faults.job_deadline(job.arrival) {
                let seq = self.stamp(reap, Next::Deadline);
                debug_assert!(
                    self.deadlines
                        .back()
                        .is_none_or(|&(t, s, _)| (t, s) <= (reap, seq)),
                    "deadline keys must not decrease"
                );
                self.deadlines.push_back((reap, seq, job.id));
            }
            self.fpga_queue.push(job);
            self.dispatch_fpga(job.arrival);
        }
    }

    /// Drain `jobs` and build the final report ([`Engine::run_core`]
    /// plus the ledger → report fold).
    fn run<I: Iterator<Item = Job>>(self, jobs: I) -> RuntimeReport {
        let profiles = self.profiles;
        let policy = self.policy.name();
        let config = self.config;
        let cgc_slots = self.slots.len();
        let faults = self.faults;
        let recovery = self.recovery;
        let (ledger, queue) = self.run_core(jobs);
        let mut report = ledger.into_report(profiles, policy, config, cgc_slots, faults, recovery);
        report.queue = queue;
        report
    }

    /// Drain `jobs` (non-decreasing arrival times) against the platform,
    /// returning the raw accounting instead of a finished report — the
    /// sharded runner folds one `(Ledger, QueueStats)` pair per shard
    /// before building the merged report.
    ///
    /// Each arrival waits only for the events strictly before it, so
    /// arrivals win time ties, reproducing the historical heap order in
    /// which every arrival carried a smaller sequence number than any
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if arrivals regress, an `app` index is out of range, or
    /// coarse-grain work meets a platform with no CGCs.
    pub(crate) fn run_core<I: Iterator<Item = Job>>(mut self, jobs: I) -> (Ledger, QueueStats) {
        let mut last_arrival = 0u64;
        for job in jobs {
            assert!(
                job.arrival >= last_arrival,
                "job arrivals must be non-decreasing (job {} arrives at {} after {})",
                job.id,
                job.arrival,
                last_arrival
            );
            assert!(
                job.app < self.profiles.len(),
                "job {} references app {} but only {} profiles given",
                job.id,
                job.app,
                self.profiles.len()
            );
            assert!(
                job.coarse_cycles == 0 || !self.slots.is_empty(),
                "coarse-grain work needs at least one CGC"
            );
            last_arrival = job.arrival;
            while let Some((now, _, at)) = self.next.filter(|&(t, _, _)| t < job.arrival) {
                self.fire(now, at);
            }
            self.arrive(job);
        }
        while let Some((now, _, at)) = self.next {
            self.fire(now, at);
        }
        let queue = QueueStats {
            events: self.next_seq,
            rehashes: 0,
            peak_occupancy: self.peak as u64,
        };
        (self.ledger, queue)
    }

    /// Fire the next event, which waits at `at`, then find the one after
    /// it.
    fn fire(&mut self, now: u64, at: Next) {
        self.pending -= 1;
        match at {
            Next::Fabric => self.fabric_event(now),
            Next::Slot(slot) => self.slot_event(slot, now),
            Next::Deadline => self.deadline_event(now),
        }
        self.next = self.next_event();
    }
}

/// The simulation entry point: a builder over everything a run needs.
///
/// All consumers — the CLI, `amdrel-explore`'s contention scorer, the
/// case studies and the benchmark — route through this facade, so new
/// knobs land as builder methods instead of another positional parameter
/// on a free function. The platform is the only required argument;
/// profiles default to empty, the policy to [`Fcfs`], the knobs to
/// [`SimConfig::default`] and latency aggregation to
/// [`SketchMode::Auto`].
///
/// Identical inputs produce bit-identical [`RuntimeReport`]s: the event
/// order is total, the policies are deterministic, and the simulator
/// draws no randomness.
///
/// # Examples
///
/// ```
/// use amdrel_core::Platform;
/// use amdrel_runtime::{AppProfile, ShortestJobFirst, Simulation, WorkloadSpec};
///
/// let profiles = vec![
///     AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
///     AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
/// ];
/// let platform = Platform::paper(1500, 2);
/// let spec = WorkloadSpec::uniform(42, 64, &profiles, 120); // 20% overload
///
/// let report = Simulation::new(&platform)
///     .profiles(&profiles)
///     .policy(&ShortestJobFirst)
///     .run_mix(&spec);
/// assert_eq!(report.arrived(), 64);
/// println!("{}", report.format_table());
/// ```
#[derive(Clone, Copy)]
pub struct Simulation<'a> {
    pub(crate) platform: &'a Platform,
    pub(crate) profiles: &'a [AppProfile],
    pub(crate) policy: &'a dyn SchedulePolicy,
    pub(crate) config: SimConfig,
    pub(crate) sketch: SketchMode,
    pub(crate) faults: FaultSpec,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) regions: Option<&'a RegionPlan>,
    pub(crate) trace: Option<&'a dyn TraceSink>,
    pub(crate) shards: usize,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("profiles", &self.profiles.len())
            .field("policy", &self.policy.name())
            .field("config", &self.config)
            .field("sketch", &self.sketch)
            .field("faults", &self.faults)
            .field("recovery", &self.recovery)
            .field("regions", &self.regions.map(RegionPlan::regions))
            .field("trace", &self.trace.is_some())
            .field("shards", &self.shards)
            .finish()
    }
}

impl<'a> Simulation<'a> {
    /// A simulation of `platform` with default knobs (no profiles, FCFS,
    /// [`SimConfig::default`], [`SketchMode::Auto`], no faults).
    pub fn new(platform: &'a Platform) -> Self {
        Simulation {
            platform,
            profiles: &[],
            policy: &Fcfs,
            config: SimConfig::default(),
            sketch: SketchMode::Auto,
            faults: FaultSpec::none(),
            recovery: RecoveryPolicy::default(),
            regions: None,
            trace: None,
            shards: 1,
        }
    }

    /// The application profiles jobs index into.
    pub fn profiles(mut self, profiles: &'a [AppProfile]) -> Self {
        self.profiles = profiles;
        self
    }

    /// The dispatch policy (default [`Fcfs`]).
    pub fn policy(mut self, policy: &'a dyn SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the whole knob block at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Toggle the configuration cache (default on).
    pub fn config_cache(mut self, on: bool) -> Self {
        self.config.config_cache = on;
        self
    }

    /// Toggle bitstream prefetch (default off).
    pub fn prefetch(mut self, on: bool) -> Self {
        self.config.prefetch = on;
        self
    }

    /// Admission bound on the fabric queue; `None` (default) admits
    /// everything.
    pub fn queue_bound(mut self, bound: Option<NonZeroUsize>) -> Self {
        self.config.queue_bound = bound;
        self
    }

    /// Attach a [`RegionPlan`] and switch reconfiguration pricing to
    /// region granularity: a dispatch reprograms only the stale regions
    /// of the job's residency set, each priced by the *region* area
    /// actually rewritten. Default: none (the scalar area pool).
    ///
    /// A plan with a single full-fabric region is degenerate — it
    /// admits no partial loads, so the engine keeps the scalar path and
    /// the report is bit-identical to not attaching a plan.
    pub fn regions(mut self, plan: &'a RegionPlan) -> Self {
        self.regions = Some(plan);
        self
    }

    /// Attach a seeded fault-injection spec (default
    /// [`FaultSpec::none`]). A zero-rate spec is inert: the run is
    /// byte-identical to one with no spec attached.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The recovery policy applied when injected faults fire (default
    /// [`RecoveryPolicy::default`]: 3 retries, abort on exhaustion).
    /// Irrelevant — and behaviour-neutral — while the fault spec is
    /// inert.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attach a [`TraceSink`] the engine emits per-job lifecycle events
    /// into (default: none). Tracing is a pure observer: enabling it
    /// never changes scheduling, timing, or any report field. Events
    /// carry simulated-cycle timestamps and arrive in the engine's
    /// deterministic `(time, seq)` order, so identical runs fill the
    /// sink identically.
    pub fn trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// How completion latencies are aggregated (default
    /// [`SketchMode::Auto`]: exact below
    /// [`EXACT_THRESHOLD`](crate::EXACT_THRESHOLD) jobs, sketched — and
    /// O(1) in memory — at or above it).
    pub fn sketch_mode(mut self, mode: SketchMode) -> Self {
        self.sketch = mode;
        self
    }

    /// Partition the tenants across `k` independent shards (application
    /// `i` lands on shard `i % k`), run one full platform replica per
    /// shard on scoped threads, and fold the per-shard ledgers, event
    /// logs and event-queue statistics back together in shard order.
    ///
    /// The merged report is a pure function of the inputs: every
    /// deterministic field (counters, makespan, latency percentiles,
    /// per-app stats, JSON, metrics) is independent of `k`'s thread
    /// scheduling, and identical to folding the shards serially. With
    /// `k == 1` — the default — the run routes through the
    /// single-threaded engine untouched, bit for bit. A workload whose
    /// jobs all target one application is byte-identical to the
    /// unsharded run at *every* `k` (the other shards simulate nothing).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k > 0, "a simulation needs at least one shard");
        self.shards = k;
        self
    }

    /// Play an explicit job slice (any order; ties and out-of-order
    /// arrivals replay exactly as the historical heap processed them:
    /// by `(arrival, slice index)`).
    ///
    /// # Panics
    ///
    /// Panics if a job's `app` index is out of range for the profiles,
    /// or if the platform has no CGCs while a job carries coarse-grain
    /// work.
    pub fn run(&self, jobs: &[Job]) -> RuntimeReport {
        let source = self.sketch.resolve(jobs.len());
        if jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            self.dispatch(jobs.iter().copied(), source)
        } else {
            // The historical heap ordered arrivals by (time, index); a
            // stable sort on arrival reproduces that exactly.
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            order.sort_by_key(|&i| jobs[i].arrival);
            self.dispatch(order.into_iter().map(|i| jobs[i]), source)
        }
    }

    /// Route a time-sorted job stream to the single-threaded engine or
    /// the sharded runner. The [`LatencySource`] is resolved from the
    /// *global* job count before partitioning, so every shard records
    /// into the same representation and `latency_source` is independent
    /// of the shard count.
    fn dispatch<I: Iterator<Item = Job>>(&self, jobs: I, source: LatencySource) -> RuntimeReport {
        if self.shards > 1 {
            crate::shard::run_sharded(self, jobs, source)
        } else {
            Engine::new(self, source).run(jobs)
        }
    }

    /// Stream jobs straight from an iterator (arrival times must be
    /// non-decreasing, as [`WorkloadSpec::generate_streaming`] yields
    /// them), so million-job runs never materialise a `Vec<Job>`.
    ///
    /// # Panics
    ///
    /// Panics if arrivals regress, an `app` index is out of range, or
    /// coarse-grain work meets a platform with no CGCs.
    pub fn run_streaming<I>(&self, jobs: I) -> RuntimeReport
    where
        I: ExactSizeIterator<Item = Job>,
    {
        let source = self.sketch.resolve(jobs.len());
        self.dispatch(jobs, source)
    }

    /// Generate `spec`'s seeded job stream against the profiles and play
    /// it — the one-shot entry point external scorers use. Streams the
    /// generator straight into the engine, so memory stays O(1) in
    /// `spec.jobs` when sketched.
    ///
    /// # Panics
    ///
    /// As [`WorkloadSpec::generate`] (empty mix, zero weight,
    /// out-of-range app index) and [`Simulation::run`] (coarse work with
    /// no CGCs).
    pub fn run_mix(&self, spec: &WorkloadSpec) -> RuntimeReport {
        self.run_streaming(spec.generate_streaming(self.profiles))
    }
}

/// The retained `BinaryHeap` event core, kept as the differential-testing
/// oracle: every event (arrivals included) enters one heap ordered by
/// `(time, seq)`. Accounting goes through the same [`Ledger`], so a
/// report mismatch can only come from the event core. It counts its
/// completions as the engine counts events, so whole reports compare,
/// [`QueueStats`] included.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum EventKind {
        Arrival(usize),
        FpgaDone(Job),
        CgcDone(Job),
    }

    type Event = Reverse<(u64, u64, EventKind)>;

    struct HeapState<'a> {
        profiles: &'a [AppProfile],
        jobs: &'a [Job],
        platform: &'a Platform,
        policy: &'a dyn SchedulePolicy,
        config: SimConfig,
        heap: BinaryHeap<Event>,
        next_seq: u64,
        fpga_queue: Vec<Job>,
        fpga_busy: bool,
        loaded: Option<ConfigId>,
        cgc_queue: VecDeque<Job>,
        free_slots: usize,
        ledger: Ledger,
        /// Completions pushed, and pending after each push (arrivals,
        /// which the engine never schedules, are not counted).
        completions: u64,
        completions_pending: u64,
        peak_completions: u64,
    }

    impl HeapState<'_> {
        fn push(&mut self, time: u64, kind: EventKind) {
            if !matches!(kind, EventKind::Arrival(_)) {
                self.completions += 1;
                self.completions_pending += 1;
                self.peak_completions = self.peak_completions.max(self.completions_pending);
            }
            self.heap.push(Reverse((time, self.next_seq, kind)));
            self.next_seq += 1;
        }

        fn reconfig_charge(&self, job: &Job) -> (u64, u64) {
            let areas = &self.profiles[job.app].config.partition_areas;
            if areas.is_empty() || (self.config.config_cache && self.loaded == Some(job.config)) {
                return (0, 0);
            }
            let model = &self.platform.reconfig;
            let stall = if self.config.prefetch {
                model.load_cycles(areas[0])
            } else {
                areas.iter().map(|&a| model.load_cycles(a)).sum()
            };
            (areas.len() as u64, stall)
        }

        fn dispatch_fpga(&mut self, now: u64) {
            if self.fpga_busy || self.fpga_queue.is_empty() {
                return;
            }
            let pick = self.policy.pick(&self.fpga_queue, self.loaded);
            let job = self.fpga_queue.swap_remove(pick);
            let (loads, stall) = self.reconfig_charge(&job);
            if loads > 0 {
                self.loaded = Some(job.config);
            }
            self.ledger.reconfig_loads += loads;
            self.ledger.reconfig_stall_cycles += stall;
            self.ledger.fpga_busy_cycles += job.fine_cycles;
            self.fpga_busy = true;
            self.push(now + stall + job.fine_cycles, EventKind::FpgaDone(job));
        }

        fn dispatch_cgc(&mut self, now: u64) {
            while self.free_slots > 0 {
                let Some(job) = self.cgc_queue.pop_front() else {
                    return;
                };
                self.free_slots -= 1;
                self.ledger.cgc_busy_cycles += job.coarse_cycles;
                self.push(now + job.coarse_cycles, EventKind::CgcDone(job));
            }
        }

        fn run(mut self) -> RuntimeReport {
            while let Some(Reverse((now, _, kind))) = self.heap.pop() {
                if !matches!(kind, EventKind::Arrival(_)) {
                    self.completions_pending -= 1;
                }
                match kind {
                    EventKind::Arrival(job_idx) => {
                        let job = self.jobs[job_idx];
                        self.ledger.arrived[job.app] += 1;
                        if self
                            .config
                            .queue_bound
                            .is_some_and(|b| self.fpga_queue.len() >= b.get())
                        {
                            self.ledger.rejected[job.app] += 1;
                        } else {
                            self.fpga_queue.push(job);
                            self.dispatch_fpga(now);
                        }
                    }
                    EventKind::FpgaDone(job) => {
                        self.fpga_busy = false;
                        if job.coarse_cycles > 0 {
                            self.cgc_queue.push_back(job);
                            self.dispatch_cgc(now);
                        } else {
                            self.ledger.complete(&job, now, false);
                        }
                        self.dispatch_fpga(now);
                    }
                    EventKind::CgcDone(job) => {
                        self.free_slots += 1;
                        self.ledger.complete(&job, now, false);
                        self.dispatch_cgc(now);
                    }
                }
            }
            // The oracle is deliberately fault-free: fault determinism is
            // covered by explicit replay tests and the trace pins, and a
            // zero-rate engine run must match this fault-free core bit
            // for bit.
            let mut report = self.ledger.into_report(
                self.profiles,
                self.policy.name(),
                self.config,
                self.platform.datapath.cgcs.len(),
                FaultSpec::none(),
                RecoveryPolicy::default(),
            );
            report.queue = QueueStats {
                events: self.completions,
                rehashes: 0,
                peak_occupancy: self.peak_completions,
            };
            report
        }
    }

    /// Run the heap oracle over `jobs` with the given sketch mode.
    pub(super) fn run_heap(
        profiles: &[AppProfile],
        jobs: &[Job],
        platform: &Platform,
        policy: &dyn SchedulePolicy,
        config: SimConfig,
        sketch: SketchMode,
    ) -> RuntimeReport {
        let mut state = HeapState {
            profiles,
            jobs,
            platform,
            policy,
            config,
            heap: BinaryHeap::with_capacity(jobs.len() * 2),
            next_seq: 0,
            fpga_queue: Vec::new(),
            fpga_busy: false,
            loaded: None,
            cgc_queue: VecDeque::new(),
            free_slots: platform.datapath.cgcs.len(),
            ledger: Ledger::new(profiles.len(), sketch.resolve(jobs.len())),
            completions: 0,
            completions_pending: 0,
            peak_completions: 0,
        };
        for (idx, job) in jobs.iter().enumerate() {
            state.push(job.arrival, EventKind::Arrival(idx));
        }
        state.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConfigAffinity, Fcfs, PriorityFirst, ShortestJobFirst};
    use crate::profile::FabricConfig;
    use crate::workload::AppShare;
    use amdrel_core::ReconfigModel;

    fn profile(name: &str, fine: u64, coarse: u64, areas: Vec<u64>) -> AppProfile {
        AppProfile::synthetic(name, 0, fine, coarse, areas)
    }

    fn job(id: u64, app: usize, arrival: u64, fine: u64, coarse: u64, cfg: &FabricConfig) -> Job {
        Job {
            id,
            app,
            arrival,
            priority: 0,
            fine_cycles: fine,
            coarse_cycles: coarse,
            config: cfg.id,
        }
    }

    fn platform() -> Platform {
        Platform::paper(1500, 2).with_reconfig(ReconfigModel {
            base_cycles: 10,
            cycles_per_area: 1,
        })
    }

    fn sim<'a>(profiles: &'a [AppProfile], platform: &'a Platform) -> Simulation<'a> {
        Simulation::new(platform).profiles(profiles)
    }

    #[test]
    fn single_job_timeline() {
        let p = vec![profile("a", 100, 40, vec![30])];
        let jobs = vec![job(0, 0, 5, 100, 40, &p[0].config)];
        let pf = platform();
        let r = sim(&p, &pf).run(&jobs);
        // Arrive 5, load 10+30=40, fine 100 → FPGA done 145, coarse 40 → 185.
        assert_eq!(r.makespan, 185);
        assert_eq!(r.reconfig_loads, 1);
        assert_eq!(r.reconfig_stall_cycles, 40);
        assert_eq!(r.apps[0].completed, 1);
        assert_eq!(r.apps[0].max_latency, 180);
        assert_eq!(r.latency_source, LatencySource::Exact);
    }

    #[test]
    fn config_cache_makes_reentry_free() {
        let p = vec![profile("a", 100, 0, vec![30])];
        let jobs: Vec<Job> = (0..4)
            .map(|i| job(i, 0, i * 10, 100, 0, &p[0].config))
            .collect();
        let pf = platform();
        let cached = sim(&p, &pf).run(&jobs);
        assert_eq!(cached.reconfig_loads, 1, "first load only");
        assert_eq!(cached.reconfig_stall_cycles, 40);

        let uncached = sim(&p, &pf).config_cache(false).run(&jobs);
        assert_eq!(uncached.reconfig_loads, 4, "every dispatch reloads");
        assert_eq!(uncached.reconfig_stall_cycles, 160);
        assert!(uncached.makespan > cached.makespan);
    }

    #[test]
    fn alternating_configs_thrash_the_cache() {
        let p = vec![
            profile("a", 100, 0, vec![30]),
            profile("b", 100, 0, vec![50]),
        ];
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let app = (i % 2) as usize;
                job(i, app, i, 100, 0, &p[app].config)
            })
            .collect();
        let pf = platform();
        let r = sim(&p, &pf).run(&jobs);
        assert_eq!(r.reconfig_loads, 6, "every dispatch swaps configs");
        assert_eq!(r.reconfig_stall_cycles, 3 * 40 + 3 * 60);
    }

    #[test]
    fn prefetch_hides_all_but_the_first_partition() {
        let p = vec![profile("a", 100, 0, vec![30, 30, 30])];
        let jobs = vec![job(0, 0, 0, 100, 0, &p[0].config)];
        let pf = platform();
        let plain = sim(&p, &pf).run(&jobs);
        assert_eq!(plain.reconfig_stall_cycles, 120);
        let with_prefetch = sim(&p, &pf).prefetch(true).run(&jobs);
        assert_eq!(
            with_prefetch.reconfig_stall_cycles, 40,
            "only the first bitstream stalls"
        );
        assert_eq!(
            with_prefetch.reconfig_loads, 3,
            "loads still happen, overlapped"
        );
    }

    #[test]
    fn queue_bound_rejects_overflow() {
        let p = vec![profile("a", 1_000, 0, vec![])];
        // 5 jobs arrive back-to-back; the first occupies the fabric, the
        // bound admits 2 waiters, the rest are rejected.
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(i, 0, i + 1, 1_000, 0, &p[0].config))
            .collect();
        let pf = platform();
        let r = sim(&p, &pf).queue_bound(NonZeroUsize::new(2)).run(&jobs);
        assert_eq!(r.apps[0].arrived, 5);
        assert_eq!(r.apps[0].completed, 3);
        assert_eq!(r.apps[0].rejected, 2);
    }

    #[test]
    fn cgc_slots_limit_coarse_parallelism() {
        // Zero fine phase: jobs pass straight to the CGC stage. Two
        // slots, four equal jobs → two waves.
        let p = vec![profile("a", 1, 100, vec![])];
        let jobs: Vec<Job> = (0..4).map(|i| job(i, 0, 0, 1, 100, &p[0].config)).collect();
        let pf = platform();
        let r = sim(&p, &pf).run(&jobs);
        assert_eq!(r.cgc_slots, 2);
        assert_eq!(r.cgc_busy_cycles, 400);
        // Fine phases serialise, finishing at 1,2,3,4; the first wave
        // holds both slots until 101/102, so the second wave completes
        // at 201 and 202.
        assert_eq!(r.makespan, 202);
    }

    #[test]
    fn sjf_reorders_the_queue() {
        let p = vec![
            profile("long", 1_000, 0, vec![]),
            profile("short", 10, 0, vec![]),
        ];
        // Long job arrives first and seizes the fabric; one more long and
        // two shorts queue behind it.
        let jobs = vec![
            job(0, 0, 0, 1_000, 0, &p[0].config),
            job(1, 0, 1, 1_000, 0, &p[0].config),
            job(2, 1, 2, 10, 0, &p[1].config),
            job(3, 1, 3, 10, 0, &p[1].config),
        ];
        let pf = platform();
        let fcfs = sim(&p, &pf).run(&jobs);
        let sjf = sim(&p, &pf).policy(&ShortestJobFirst).run(&jobs);
        assert_eq!(fcfs.makespan, sjf.makespan, "work-conserving: same drain");
        assert!(
            sjf.apps[1].max_latency < fcfs.apps[1].max_latency,
            "shorts overtake the queued long job"
        );
    }

    #[test]
    fn empty_workload_is_a_quiet_report() {
        let p = vec![profile("a", 10, 0, vec![5])];
        let pf = platform();
        let r = sim(&p, &pf).run(&[]);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.arrived(), 0);
        assert_eq!(r.completed(), 0);
    }

    #[test]
    #[should_panic(expected = "job 0 references app 1 but only 1 profiles given")]
    fn streamed_jobs_of_unknown_apps_are_rejected() {
        let p = vec![profile("a", 10, 0, vec![5])];
        let mut stray = job(0, 0, 0, 10, 0, &p[0].config);
        stray.app = 1;
        sim(&p, &platform()).run_streaming(std::iter::once(stray));
    }

    #[test]
    #[should_panic(expected = "job 0 references app 1 but only 1 profiles given")]
    fn sharded_jobs_of_unknown_apps_are_rejected() {
        let p = vec![profile("a", 10, 0, vec![5])];
        let mut stray = job(0, 0, 0, 10, 0, &p[0].config);
        stray.app = 1;
        sim(&p, &platform()).shards(2).run(&[stray]);
    }

    #[test]
    fn unsorted_job_slices_replay_in_heap_order() {
        // The heap processed arrivals by (time, index) no matter the
        // slice order; the streaming engine must match.
        let p = vec![
            profile("a", 100, 0, vec![30]),
            profile("b", 80, 20, vec![50]),
        ];
        let pf = platform();
        let mut jobs = vec![
            job(0, 0, 500, 100, 0, &p[0].config),
            job(1, 1, 20, 80, 20, &p[1].config),
            job(2, 0, 20, 100, 0, &p[0].config),
            job(3, 1, 700, 80, 20, &p[1].config),
        ];
        let streamed = sim(&p, &pf).run(&jobs);
        let expect = oracle::run_heap(
            &p,
            &jobs,
            &pf,
            &Fcfs,
            SimConfig::default(),
            SketchMode::Auto,
        );
        assert_eq!(streamed, expect);
        // Equal-arrival ties keep slice order even after the swap.
        jobs.swap(1, 2);
        let swapped = sim(&p, &pf).run(&jobs);
        let expect = oracle::run_heap(
            &p,
            &jobs,
            &pf,
            &Fcfs,
            SimConfig::default(),
            SketchMode::Auto,
        );
        assert_eq!(swapped, expect);
    }

    /// The engine is bit-identical (full `RuntimeReport`, event counts
    /// and peak occupancy included) to the retained all-events heap
    /// oracle across seeds × all four policies × `SimConfig` variants ×
    /// sketch modes.
    #[test]
    fn engine_matches_heap_oracle_bit_for_bit() {
        let profiles = vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
            AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
        ];
        let pf = platform();
        let policies: [&dyn SchedulePolicy; 4] =
            [&Fcfs, &ShortestJobFirst, &PriorityFirst, &ConfigAffinity];
        let configs = [
            SimConfig::default(),
            SimConfig {
                config_cache: false,
                ..SimConfig::default()
            },
            SimConfig {
                prefetch: true,
                ..SimConfig::default()
            },
            SimConfig {
                queue_bound: NonZeroUsize::new(3),
                ..SimConfig::default()
            },
        ];
        for seed in [1u64, 7, 42, 2004] {
            let spec = WorkloadSpec {
                seed,
                jobs: 300,
                mean_interarrival: 9_000,
                mix: vec![
                    AppShare { app: 0, weight: 3 },
                    AppShare { app: 1, weight: 1 },
                    AppShare { app: 2, weight: 2 },
                ],
            };
            let jobs = spec.generate(&profiles);
            for policy in policies {
                for config in &configs {
                    for mode in [SketchMode::Auto, SketchMode::Sketched] {
                        let engine = Simulation::new(&pf)
                            .profiles(&profiles)
                            .policy(policy)
                            .config(*config)
                            .sketch_mode(mode)
                            .run(&jobs);
                        let heap = oracle::run_heap(&profiles, &jobs, &pf, policy, *config, mode);
                        assert_eq!(
                            engine,
                            heap,
                            "divergence: seed {seed}, policy {}, config {config:?}, {mode:?}",
                            policy.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_run_matches_batch_run() {
        let profiles = vec![
            AppProfile::synthetic("a", 2, 5_000, 1_500, vec![400]),
            AppProfile::synthetic("b", 0, 40_000, 9_000, vec![900]),
        ];
        let pf = platform();
        let spec = WorkloadSpec::uniform(42, 500, &profiles, 120);
        let jobs = spec.generate(&profiles);
        for mode in [SketchMode::Auto, SketchMode::Sketched, SketchMode::Exact] {
            let s = Simulation::new(&pf)
                .profiles(&profiles)
                .policy(&ShortestJobFirst)
                .sketch_mode(mode);
            assert_eq!(s.run(&jobs), s.run_mix(&spec), "mode {mode:?}");
        }
    }

    #[test]
    fn inert_faults_leave_reports_bit_identical() {
        let profiles = vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
        ];
        let pf = platform();
        let spec = WorkloadSpec::uniform(42, 200, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let policies: [&dyn SchedulePolicy; 4] =
            [&Fcfs, &ShortestJobFirst, &PriorityFirst, &ConfigAffinity];
        for policy in policies {
            let base = Simulation::new(&pf).profiles(&profiles).policy(policy);
            let plain = base.run(&jobs);
            assert_eq!(
                plain,
                base.faults(FaultSpec::none()).run(&jobs),
                "attaching the inert spec must change nothing ({})",
                policy.name()
            );
            // Even an exotic recovery policy is behaviour-neutral while
            // the spec is inert — only the recorded metadata differs.
            let exotic = RecoveryPolicy {
                max_retries: 99,
                degrade: true,
                ..RecoveryPolicy::default()
            };
            let mut faulted = base.faults(FaultSpec::none()).recovery(exotic).run(&jobs);
            assert_eq!(faulted.recovery, exotic);
            faulted.recovery = plain.recovery;
            assert_eq!(plain, faulted, "policy {}", policy.name());
        }
    }

    #[test]
    fn faulted_runs_are_bit_deterministic_and_stream_invariant() {
        let profiles = vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
            AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
        ];
        let pf = platform();
        let spec = WorkloadSpec::uniform(2004, 300, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let mut faults = FaultSpec::uniform(7, 150);
        faults.deadline = std::num::NonZeroU64::new(40_000_000);
        for degrade in [false, true] {
            let recovery = RecoveryPolicy {
                degrade,
                ..RecoveryPolicy::default()
            };
            let s = Simulation::new(&pf)
                .profiles(&profiles)
                .policy(&ConfigAffinity)
                .faults(faults)
                .recovery(recovery);
            let a = s.run(&jobs);
            assert!(a.reliability.injected > 0, "faults must actually fire");
            assert_eq!(a, s.run(&jobs), "same inputs, same report");
            assert_eq!(a, s.run_mix(&spec), "batch and streaming runs agree");
        }
    }

    #[test]
    fn exhausted_fabric_retries_abort_or_degrade() {
        let p = vec![profile("a", 100, 40, vec![30])];
        let jobs = vec![job(0, 0, 0, 100, 40, &p[0].config)];
        let pf = platform();
        let mut fs = FaultSpec::none();
        fs.load_fail_permille = 1000; // every load attempt fails
        let recovery = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let abort = sim(&p, &pf).faults(fs).recovery(recovery).run(&jobs);
        assert_eq!(abort.completed(), 0);
        assert_eq!(abort.reliability.aborted, 1);
        assert_eq!(abort.reliability.load_failures, 3, "initial + 2 retries");
        assert_eq!(abort.reliability.retries, 2);
        assert_eq!(abort.reliability.injected, 3);
        assert_eq!(abort.reconfig_loads, 0, "no load ever succeeded");
        assert_eq!(abort.reliability.fault_lost_cycles, 3 * 40);

        let degrade = sim(&p, &pf)
            .faults(fs)
            .recovery(RecoveryPolicy {
                degrade: true,
                ..recovery
            })
            .run(&jobs);
        assert_eq!(degrade.completed(), 1, "degradation saves the job");
        assert_eq!(degrade.reliability.degraded, 1);
        assert_eq!(degrade.reliability.aborted, 0);
        // Loads fail at 40, 336, 888 (backoff 256 then 512 between
        // attempts, 40-cycle stall each); the fallback path then prices
        // the job at 40 + 4*100 = 440 CGC cycles.
        assert_eq!(degrade.makespan, 888 + 440);
        assert_eq!(degrade.reliability.faulted_completed, 1);
        assert_eq!(degrade.reliability.clean_completed, 0);
    }

    #[test]
    fn transient_kills_waste_the_drawn_fraction() {
        let p = vec![profile("a", 1_000, 0, vec![])];
        let jobs = vec![job(0, 0, 0, 1_000, 0, &p[0].config)];
        let pf = platform();
        let mut fs = FaultSpec::none();
        fs.transient_permille = 1000; // every fabric attempt is killed
        let r = sim(&p, &pf)
            .faults(fs)
            .recovery(RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            })
            .run(&jobs);
        assert_eq!(r.reliability.fabric_kills, 1);
        assert_eq!(r.reliability.aborted, 1);
        assert_eq!(r.reliability.retries, 0);
        assert!(r.reliability.fault_lost_cycles < 1_000, "partial phase");
        assert_eq!(r.fpga_busy_cycles, 0, "killed work is not busy time");
    }

    #[test]
    fn slot_outages_down_the_slot_until_repair() {
        // Zero fine phase: jobs pass straight to the CGC stage.
        let p = vec![profile("a", 0, 100, vec![])];
        let jobs = vec![job(0, 0, 0, 0, 100, &p[0].config)];
        let pf = platform();
        let mut fs = FaultSpec::none();
        fs.outage_permille = 1000; // every regular coarse attempt dies
        fs.repair_cycles = 5_000;
        let recovery = RecoveryPolicy {
            max_retries: 1,
            degrade: true,
            ..RecoveryPolicy::default()
        };
        let r = sim(&p, &pf).faults(fs).recovery(recovery).run(&jobs);
        assert_eq!(r.reliability.slot_outages, 2, "attempt 0 and its retry");
        assert_eq!(r.reliability.retries, 1);
        assert_eq!(r.reliability.degraded, 1, "exhaustion degrades");
        assert_eq!(r.completed(), 1, "the fallback path is fault-immune");
        assert_eq!(r.reliability.slot_downtime_cycles, 10_000);

        let no_degrade = sim(&p, &pf)
            .faults(fs)
            .recovery(RecoveryPolicy {
                degrade: false,
                ..recovery
            })
            .run(&jobs);
        assert_eq!(no_degrade.completed(), 0);
        assert_eq!(no_degrade.reliability.aborted, 1);
    }

    #[test]
    fn deadlines_reap_only_still_queued_jobs() {
        let p = vec![profile("a", 1_000, 0, vec![])];
        // Job 0 seizes the fabric at t=0 (committed); jobs 1 and 2 queue
        // behind it and are still waiting at their deadlines.
        let jobs: Vec<Job> = (0..3)
            .map(|i| job(i, 0, i * 10, 1_000, 0, &p[0].config))
            .collect();
        let pf = platform();
        let mut fs = FaultSpec::none();
        fs.deadline = std::num::NonZeroU64::new(500);
        let r = sim(&p, &pf).faults(fs).run(&jobs);
        assert_eq!(r.completed(), 1, "the dispatched job runs to completion");
        assert_eq!(r.reliability.deadline_misses, 2);
        assert_eq!(r.makespan, 1_000);
        assert_eq!(
            r.arrived(),
            r.completed() + r.reliability.deadline_misses,
            "every job is accounted for"
        );
        // A generous deadline reaps nothing and changes nothing else.
        fs.deadline = std::num::NonZeroU64::new(1 << 40);
        let generous = sim(&p, &pf).faults(fs).run(&jobs);
        assert_eq!(generous.reliability.deadline_misses, 0);
        assert_eq!(generous.completed(), 3);
    }

    #[test]
    fn full_fabric_region_plan_is_bit_identical_to_the_scalar_pool() {
        use amdrel_floorplan::FabricGrid;
        let profiles = vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
            AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
        ];
        let pf = platform();
        let plan = RegionPlan::new(&profiles, &FabricGrid::full(1050));
        assert!(!plan.is_partial());
        let spec = WorkloadSpec::uniform(42, 300, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let policies: [&dyn SchedulePolicy; 4] =
            [&Fcfs, &ShortestJobFirst, &PriorityFirst, &ConfigAffinity];
        let configs = [
            SimConfig::default(),
            SimConfig {
                config_cache: false,
                ..SimConfig::default()
            },
            SimConfig {
                prefetch: true,
                ..SimConfig::default()
            },
        ];
        for policy in policies {
            for config in &configs {
                let base = Simulation::new(&pf)
                    .profiles(&profiles)
                    .policy(policy)
                    .config(*config);
                assert_eq!(
                    base.run(&jobs),
                    base.regions(&plan).run(&jobs),
                    "scalar-pool identity broke: policy {}, config {config:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn partial_reconfiguration_beats_streamed_loads_on_a_thrashing_mix() {
        use amdrel_floorplan::FabricGrid;
        let profiles = vec![
            AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
            AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
            AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
        ];
        let pf = platform();
        let plan = RegionPlan::new(&profiles, &FabricGrid::uniform(1050, 4));
        assert!(plan.is_partial());
        let spec = WorkloadSpec::uniform(42, 300, &profiles, 120);
        let jobs = spec.generate(&profiles);
        let policies: [&dyn SchedulePolicy; 4] =
            [&Fcfs, &ShortestJobFirst, &PriorityFirst, &ConfigAffinity];
        for policy in policies {
            let base = Simulation::new(&pf).profiles(&profiles).policy(policy);
            let streamed = base.run(&jobs);
            let region = base.regions(&plan).run(&jobs);
            // Tenants resident in disjoint regions stop scrubbing each
            // other: after each tenant's first load the fabric switches
            // apps stall-free, while the scalar pool reloads every swap.
            assert!(
                region.reconfig_stall_cycles < streamed.reconfig_stall_cycles,
                "policy {}: region stall {} !< streamed stall {}",
                policy.name(),
                region.reconfig_stall_cycles,
                streamed.reconfig_stall_cycles
            );
            assert!(
                region.reconfig_loads < streamed.reconfig_loads,
                "policy {}: region loads {} !< streamed loads {}",
                policy.name(),
                region.reconfig_loads,
                streamed.reconfig_loads
            );
            assert_eq!(region.completed(), streamed.completed());
            // Region runs replay bit-for-bit too.
            assert_eq!(region, base.regions(&plan).run(&jobs));
        }
    }

    #[test]
    fn region_load_faults_scrub_only_the_touched_regions() {
        use amdrel_floorplan::FabricGrid;
        let profiles = vec![
            AppProfile::synthetic("a", 0, 1_000, 0, vec![100]),
            AppProfile::synthetic("b", 0, 1_000, 0, vec![120]),
        ];
        let pf = platform();
        let plan = RegionPlan::new(&profiles, &FabricGrid::uniform(1050, 4));
        // a at 0, b arrives after a's chain: a loads, b's first load
        // fails once (scrubbing only b's regions), retries and succeeds;
        // a's second job re-enters warm — its regions were untouched.
        let jobs = vec![
            job(0, 0, 0, 1_000, 0, &profiles[0].config),
            job(1, 1, 2_000, 1_000, 0, &profiles[1].config),
            job(2, 0, 6_000, 1_000, 0, &profiles[0].config),
        ];
        let mut fs = FaultSpec::none();
        fs.load_fail_permille = 1000; // every load attempt fails
        let r = sim(&profiles, &pf)
            .regions(&plan)
            .faults(fs)
            .recovery(RecoveryPolicy {
                max_retries: 0,
                degrade: false,
                ..RecoveryPolicy::default()
            })
            .run(&jobs);
        // Job 0 and job 1 both die on their cold loads; job 2 is cold
        // again only if its region was scrubbed — it was (its own app's
        // load failed), so three load failures total.
        assert_eq!(r.reliability.load_failures, 3);
        assert_eq!(r.completed(), 0);

        // Fault-free, the second "a" job re-enters warm: 2 loads total.
        let clean = sim(&profiles, &pf).regions(&plan).run(&jobs);
        assert_eq!(clean.reconfig_loads, 2);
        assert_eq!(clean.completed(), 3);
    }

    #[test]
    fn sketched_reports_record_their_provenance() {
        let p = vec![profile("a", 500, 0, vec![])];
        let jobs: Vec<Job> = (0..8)
            .map(|i| job(i, 0, i * 10, 500, 0, &p[0].config))
            .collect();
        let pf = platform();
        let sketched = sim(&p, &pf).sketch_mode(SketchMode::Sketched).run(&jobs);
        assert_eq!(sketched.latency_source, LatencySource::Sketched);
        let exact = sim(&p, &pf).run(&jobs);
        assert_eq!(exact.latency_source, LatencySource::Exact);
        // Counters are representation-independent; percentiles stay
        // within the sketch bound.
        assert_eq!(sketched.makespan, exact.makespan);
        assert_eq!(sketched.completed(), exact.completed());
        assert!(sketched.p95_latency >= exact.p95_latency);
        assert!(sketched.p95_latency - exact.p95_latency <= exact.p95_latency >> 7);
    }
}
