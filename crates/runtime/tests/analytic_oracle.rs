//! An analytic oracle for the simulator, sharing no code with it.
//!
//! Under `fcfs` with no faults the fabric serves jobs in arrival order,
//! and every completion follows from two queueing recursions:
//!
//! * the fabric is one FIFO server, so Lindley's recursion gives each
//!   job's departure, `d_n = max(a_n, d_{n-1}) + s_n`, where `s_n` is
//!   the job's fine-grain cycles plus the stall of loading its tenant's
//!   configuration whenever the dispatch reloads it. With the
//!   configuration cache on and one tenant only the first dispatch
//!   reloads; with the cache off every dispatch does, so
//!   `s_n = fine_n + stall(app_n)`. The stall covers every partition,
//!   or only the first under prefetch;
//! * the CGC slots are identical FIFO servers fed in departure order, so
//!   the Kiefer–Wolfowitz recursion keeps each slot's free time and
//!   starts job `n` on the earliest, `c_n = max(d_n, earliest) + t_n`.
//!
//! The tests assert that the simulator's report equals the recursions'
//! prediction bit for bit.

use amdrel_core::Platform;
use amdrel_runtime::{
    AppProfile, Fcfs, Job, LatencySketch, LatencySource, RuntimeReport, SimConfig, Simulation,
    WorkloadSpec, EXACT_THRESHOLD,
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

/// Predict a run of `jobs` (in arrival order) over `profiles` on
/// `platform` under `config`.
fn predict(
    profiles: &[AppProfile],
    platform: &Platform,
    config: SimConfig,
    jobs: &[Job],
) -> Prediction {
    // Each tenant's reload: (bitstreams loaded, fabric stall cycles).
    let reload: Vec<(u64, u64)> = profiles
        .iter()
        .map(|p| {
            let areas = &p.config.partition_areas;
            let stalled = if config.prefetch { 1 } else { areas.len() };
            let stall = areas
                .iter()
                .take(stalled)
                .map(|&a| platform.reconfig.load_cycles(a))
                .sum();
            (areas.len() as u64, stall)
        })
        .collect();
    let (mut loads, mut stalls) = (0, 0);
    let mut resident = None;
    let mut fabric_free = 0;
    let mut slot_free = vec![0u64; platform.datapath.cgcs.len()];
    let (mut fabric_waited, mut slot_waited) = (false, false);
    let mut latencies = Vec::with_capacity(jobs.len());
    let mut makespan = 0;
    for job in jobs {
        // Lindley: the fabric serves jobs in arrival order, reloading
        // unless the cache holds the tenant's configuration.
        fabric_waited |= fabric_free > job.arrival;
        let (l, stall) = if config.config_cache && resident == Some(job.app) {
            (0, 0)
        } else {
            reload[job.app]
        };
        resident = Some(job.app);
        loads += l;
        stalls += stall;
        let s = job.fine_cycles + stall;
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
    Prediction {
        fields: Fields {
            completed: jobs.len() as u64,
            makespan,
            p50_latency,
            p95_latency,
            latency_source,
            fpga_busy_cycles: jobs.iter().map(|j| j.fine_cycles).sum(),
            reconfig_loads: loads,
            reconfig_stall_cycles: stalls,
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

/// Three tenants with one to three bitstreams each: the coarse-heavy
/// [`tenant`], a short one, and one with no coarse phase at all.
fn three_tenants() -> [AppProfile; 3] {
    [
        tenant(),
        AppProfile::synthetic("short", 2, 2_500, 1_800, vec![300]),
        AppProfile::synthetic("fine_only", 0, 9_000, 0, vec![500, 350]),
    ]
}

/// Check every (CGC count, load, seed) cell of `profiles` under
/// `config` at `njobs` jobs.
fn check(profiles: &[AppProfile], config: SimConfig, njobs: usize) {
    for cgcs in 1..=3 {
        let platform = Platform::paper(1500, cgcs);
        for load in [50, 90, 300] {
            for seed in [42, 7] {
                let spec = WorkloadSpec::uniform(seed, njobs, profiles, load);
                let jobs = spec.generate(profiles);
                let predicted = predict(profiles, &platform, config, &jobs);
                let report = Simulation::new(&platform)
                    .profiles(profiles)
                    .policy(&Fcfs)
                    .config(config)
                    .run_mix(&spec);
                let cell = format!(
                    "{} tenants, {config:?}, {cgcs} CGCs, {load}% load, seed {seed}, {njobs} jobs",
                    profiles.len()
                );
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
    check(&[tenant()], SimConfig::default(), 1_000);
}

#[test]
fn sketched_percentiles_follow_the_departure_recursions() {
    check(&[tenant()], SimConfig::default(), 10_000);
}

/// Without the cache every dispatch pays its own tenant's stall, with
/// and without prefetch.
fn check_uncached(njobs: usize) {
    for prefetch in [false, true] {
        let config = SimConfig {
            config_cache: false,
            prefetch,
            ..SimConfig::default()
        };
        check(&three_tenants(), config, njobs);
    }
}

#[test]
fn uncached_tenants_follow_the_departure_recursions_exactly() {
    check_uncached(1_000);
}

#[test]
fn uncached_tenants_follow_the_departure_recursions_sketched() {
    check_uncached(10_000);
}
