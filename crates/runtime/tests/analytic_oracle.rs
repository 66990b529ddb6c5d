//! An analytic oracle for the simulator, sharing no code with it.
//!
//! With one tenant under `fcfs`, the configuration cache on and no
//! faults, every completion follows from two queueing recursions:
//!
//! * the fabric is one FIFO server, so Lindley's recursion gives each
//!   job's departure, `d_n = max(a_n, d_{n-1}) + s_n`, where `s_n` is
//!   the job's fine-grain cycles plus, for the first job only, the stall
//!   of loading the tenant's configuration (every later dispatch finds
//!   it resident);
//! * the CGC slots are identical FIFO servers fed in departure order, so
//!   the Kiefer–Wolfowitz recursion keeps each slot's free time and
//!   starts job `n` on the earliest, `c_n = max(d_n, earliest) + t_n`.
//!
//! The tests assert that the simulator's report equals the recursions'
//! prediction bit for bit.

use amdrel_core::Platform;
use amdrel_runtime::{
    AppProfile, Fcfs, Job, LatencySketch, LatencySource, RuntimeReport, Simulation, WorkloadSpec,
    EXACT_THRESHOLD,
};

/// The report fields the recursions predict.
#[derive(Debug, PartialEq, Eq)]
struct Fields {
    completed: u64,
    makespan: u64,
    p50_latency: u64,
    p95_latency: u64,
    latency_source: LatencySource,
    fpga_busy_cycles: u64,
    reconfig_loads: u64,
    reconfig_stall_cycles: u64,
}

impl Fields {
    fn of(r: &RuntimeReport) -> Self {
        Fields {
            completed: r.completed(),
            makespan: r.makespan,
            p50_latency: r.p50_latency,
            p95_latency: r.p95_latency,
            latency_source: r.latency_source,
            fpga_busy_cycles: r.fpga_busy_cycles,
            reconfig_loads: r.reconfig_loads,
            reconfig_stall_cycles: r.reconfig_stall_cycles,
        }
    }
}

/// A prediction, and whether a job ever waited for the fabric and for
/// a CGC slot (so a test can show both recursions were exercised).
struct Prediction {
    fields: Fields,
    fabric_waited: bool,
    slot_waited: bool,
}

/// Nearest-rank percentile `q` of the sorted `sample`.
fn nearest_rank(sample: &[u64], q: u64) -> u64 {
    let n = sample.len() as u64;
    let rank = (q * n).div_ceil(100).clamp(1, n);
    sample[(rank - 1) as usize]
}

/// Predict a run of `jobs` (in arrival order) of `profile`'s tenant on
/// `platform`.
fn predict(profile: &AppProfile, platform: &Platform, jobs: &[Job]) -> Prediction {
    let areas = &profile.config.partition_areas;
    let stall: u64 = areas
        .iter()
        .map(|&a| platform.reconfig.load_cycles(a))
        .sum();
    let mut fabric_free = 0;
    let mut slot_free = vec![0u64; platform.datapath.cgcs.len()];
    let (mut fabric_waited, mut slot_waited) = (false, false);
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut makespan = 0;
    for (n, job) in jobs.iter().enumerate() {
        // Lindley: the fabric serves jobs in arrival order.
        fabric_waited |= fabric_free > job.arrival;
        let s = job.fine_cycles + if n == 0 { stall } else { 0 };
        let d = job.arrival.max(fabric_free) + s;
        fabric_free = d;
        // Kiefer–Wolfowitz: the coarse phase takes the earliest free slot.
        let done = if job.coarse_cycles == 0 {
            d
        } else {
            let earliest = slot_free.iter_mut().min().expect("at least one CGC");
            slot_waited |= *earliest > d;
            *earliest = d.max(*earliest) + job.coarse_cycles;
            *earliest
        };
        latencies.push(done - job.arrival);
        makespan = makespan.max(done);
    }
    let latency_source = if jobs.len() < EXACT_THRESHOLD {
        LatencySource::Exact
    } else {
        LatencySource::Sketched
    };
    let [p50_latency, p95_latency] = match latency_source {
        LatencySource::Exact => {
            latencies.sort_unstable();
            [50, 95].map(|q| nearest_rank(&latencies, q))
        }
        LatencySource::Sketched => {
            let mut sketch = LatencySketch::new(LatencySource::Sketched);
            for &l in &latencies {
                sketch.record(l);
            }
            sketch.percentiles([50, 95])
        }
    };
    let loaded = !jobs.is_empty();
    Prediction {
        fields: Fields {
            completed: jobs.len() as u64,
            makespan,
            p50_latency,
            p95_latency,
            latency_source,
            fpga_busy_cycles: jobs.iter().map(|j| j.fine_cycles).sum(),
            reconfig_loads: if loaded { areas.len() as u64 } else { 0 },
            reconfig_stall_cycles: if loaded { stall } else { 0 },
        },
        fabric_waited,
        slot_waited,
    }
}

/// A tenant whose coarse phase (with communication) outweighs its fine
/// phase, so one CGC is the bottleneck and three leave the fabric as
/// the bottleneck, with a three-bitstream configuration.
fn tenant() -> AppProfile {
    let mut p = AppProfile::synthetic("tenant", 1, 6_000, 9_300, vec![400, 250, 120]);
    p.comm_cycles = 700;
    p
}

/// Check every (CGC count, load, seed) cell at `njobs` jobs.
fn check(njobs: usize) {
    let profiles = [tenant()];
    for cgcs in 1..=3 {
        let platform = Platform::paper(1500, cgcs);
        for load in [50, 90, 300] {
            for seed in [42, 7] {
                let spec = WorkloadSpec::uniform(seed, njobs, &profiles, load);
                let jobs = spec.generate(&profiles);
                let predicted = predict(&profiles[0], &platform, &jobs);
                let report = Simulation::new(&platform)
                    .profiles(&profiles)
                    .policy(&Fcfs)
                    .run_mix(&spec);
                let cell = format!("{cgcs} CGCs, {load}% load, seed {seed}, {njobs} jobs");
                assert_eq!(Fields::of(&report), predicted.fields, "{cell}");
                if load == 300 {
                    assert!(predicted.fabric_waited, "{cell}: no fabric queue");
                }
                if cgcs == 1 && load >= 90 {
                    assert!(predicted.slot_waited, "{cell}: no CGC queue");
                }
            }
        }
    }
}

#[test]
fn exact_percentiles_follow_the_departure_recursions() {
    check(1_000);
}

#[test]
fn sketched_percentiles_follow_the_departure_recursions() {
    check(10_000);
}
