//! Differential suite for the sharded runner: every property pits
//! `Simulation::shards(k)` against the retained single-threaded oracle.
//!
//! The contracts under test, in order of strength:
//!
//! * `k == 1` — and any workload whose jobs all target one application,
//!   at any `k` — is *byte*-identical to the unsharded engine: report,
//!   JSON rendering and rendered trace.
//! * At any `k`, the threaded run equals the shard-order fold of `k`
//!   independent single-threaded runs, one per shard subsequence —
//!   counters add, makespan maxes, per-app statistics pass through
//!   untouched — so the merge cannot depend on thread scheduling.
//! * Sharded runs replay bit-for-bit under every policy, live faults
//!   and region plans.
//! * The work-conservation fields are shard-count-invariant outright.
//! * [`LatencySketch::merge`] is exact: merging per-shard sketches in
//!   any grouping reproduces the whole-population sketch.

use amdrel_core::rng::SplitMix64;
use amdrel_core::Platform;
use amdrel_floorplan::FabricGrid;
use amdrel_runtime::{
    policy_by_name, report_to_json, shard_of, AppProfile, AppShare, FaultSpec, Job, LatencySketch,
    LatencySource, RecoveryPolicy, RegionPlan, Simulation, WorkloadSpec,
};
use amdrel_trace::{chrome_trace, TraceBuffer};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const POLICIES: [&str; 4] = ["fcfs", "sjf", "priority", "affinity"];

/// Expand a seed into a small heterogeneous tenant set (2–4 apps so a
/// multi-shard split is non-trivial).
fn tenants(seed: u64) -> Vec<AppProfile> {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.below(3) as usize;
    (0..n)
        .map(|i| {
            let parts = rng.below(4) as usize;
            let areas: Vec<u64> = (0..parts).map(|_| 50 + rng.below(400)).collect();
            let mut p = AppProfile::synthetic(
                &format!("app{i}"),
                rng.below(4) as u8,
                1_000 + rng.below(20_000),
                rng.below(6_000),
                areas,
            );
            p.comm_cycles = rng.below(500);
            p
        })
        .collect()
}

fn spec_for(seed: u64, profiles: &[AppProfile], jobs: usize) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        jobs,
        mean_interarrival: 4_000,
        mix: (0..profiles.len())
            .map(|app| AppShare {
                app,
                weight: 1 + (app as u32 % 3),
            })
            .collect(),
    }
}

/// The subsequence of `jobs` that shard `shard` of `k` simulates —
/// global ids and arrivals preserved, relative order kept.
fn shard_subset(jobs: &[Job], shard: usize, k: usize) -> Vec<Job> {
    jobs.iter()
        .copied()
        .filter(|job| shard_of(job.app, k) == shard)
        .collect()
}

/// Render the trace of one run to its canonical Chrome JSON bytes.
fn traced_bytes(sim: &Simulation<'_>, jobs: &[Job]) -> (amdrel_runtime::RuntimeReport, String) {
    let buffer = TraceBuffer::new();
    let report = sim.trace(&buffer).run(jobs);
    (report, chrome_trace(&buffer.events()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `shards(1)` routes around the shard runner entirely: report,
    /// JSON and rendered trace are byte-identical to the plain engine,
    /// under every policy and with live faults.
    #[test]
    fn one_shard_is_byte_identical_to_the_oracle(
        seed in any::<u64>(),
        jobs in 1usize..60,
        rate in 0u16..301,
    ) {
        let profiles = tenants(seed);
        let platform = Platform::paper(1500, 2);
        let stream = spec_for(seed ^ 0xA5A5, &profiles, jobs).generate(&profiles);
        let faults = FaultSpec::uniform(seed ^ 0x5A5A, rate);
        for name in POLICIES {
            let policy = policy_by_name(name).unwrap();
            let sim = Simulation::new(&platform)
                .profiles(&profiles)
                .policy(policy.as_ref())
                .faults(faults);
            let (oracle, oracle_trace) = traced_bytes(&sim, &stream);
            let (sharded, sharded_trace) = traced_bytes(&sim.shards(1), &stream);
            prop_assert_eq!(&oracle, &sharded, "policy {}", name);
            prop_assert_eq!(report_to_json(&oracle), report_to_json(&sharded));
            prop_assert_eq!(oracle_trace, sharded_trace, "policy {}: trace diverged", name);
        }
    }

    /// A workload whose jobs all target one application leaves every
    /// shard but one silent, so *any* shard count must reproduce the
    /// unsharded run byte-for-byte — trace included.
    #[test]
    fn single_app_workloads_are_shard_count_invariant(
        seed in any::<u64>(),
        jobs in 1usize..60,
        rate in 0u16..301,
    ) {
        let profiles = tenants(seed);
        let platform = Platform::paper(1500, 2);
        let spec = WorkloadSpec {
            seed: seed ^ 0xA5A5,
            jobs,
            mean_interarrival: 4_000,
            mix: vec![AppShare { app: 0, weight: 1 }],
        };
        let stream = spec.generate(&profiles);
        let sim = Simulation::new(&platform)
            .profiles(&profiles)
            .policy(&amdrel_runtime::Fcfs)
            .faults(FaultSpec::uniform(seed ^ 0x5A5A, rate));
        let (oracle, oracle_trace) = traced_bytes(&sim, &stream);
        for k in SHARD_COUNTS {
            let (sharded, sharded_trace) = traced_bytes(&sim.shards(k), &stream);
            prop_assert_eq!(&oracle, &sharded, "k={}", k);
            prop_assert_eq!(report_to_json(&oracle), report_to_json(&sharded));
            prop_assert_eq!(&oracle_trace, &sharded_trace, "k={}: trace diverged", k);
        }
    }

    /// The threaded run is exactly the shard-order fold of `k`
    /// independent single-threaded runs over the shard subsequences:
    /// counters add, makespan maxes, event counts add and peak
    /// occupancy maxes, and each app's statistics are those of the one
    /// shard that simulated it.
    #[test]
    fn sharded_merge_equals_the_shard_order_fold(
        seed in any::<u64>(),
        jobs in 1usize..80,
        rate in 0u16..301,
    ) {
        let profiles = tenants(seed);
        let platform = Platform::paper(1500, 2);
        let stream = spec_for(seed ^ 0xA5A5, &profiles, jobs).generate(&profiles);
        let faults = FaultSpec::uniform(seed ^ 0x5A5A, rate);
        let recovery = RecoveryPolicy { degrade: true, ..RecoveryPolicy::default() };
        for name in ["fcfs", "affinity"] {
            let policy = policy_by_name(name).unwrap();
            let sim = Simulation::new(&platform)
                .profiles(&profiles)
                .policy(policy.as_ref())
                .faults(faults)
                .recovery(recovery);
            for k in [2usize, 3, 8] {
                let merged = sim.shards(k).run(&stream);
                let solos: Vec<_> = (0..k)
                    .map(|shard| sim.run(&shard_subset(&stream, shard, k)))
                    .collect();
                let sum = |f: fn(&amdrel_runtime::RuntimeReport) -> u64| -> u64 {
                    solos.iter().map(f).sum()
                };
                prop_assert_eq!(merged.arrived(), sum(|r| r.arrived()), "policy {} k={}", name, k);
                prop_assert_eq!(merged.completed(), sum(|r| r.completed()));
                prop_assert_eq!(merged.rejected(), sum(|r| r.rejected()));
                prop_assert_eq!(merged.fpga_busy_cycles, sum(|r| r.fpga_busy_cycles));
                prop_assert_eq!(merged.cgc_busy_cycles, sum(|r| r.cgc_busy_cycles));
                prop_assert_eq!(merged.reconfig_loads, sum(|r| r.reconfig_loads));
                prop_assert_eq!(merged.reconfig_stall_cycles, sum(|r| r.reconfig_stall_cycles));
                prop_assert_eq!(
                    merged.makespan,
                    solos.iter().map(|r| r.makespan).max().unwrap_or(0)
                );
                prop_assert_eq!(merged.queue.events, sum(|r| r.queue.events));
                prop_assert_eq!(
                    merged.queue.peak_occupancy,
                    solos.iter().map(|r| r.queue.peak_occupancy).max().unwrap_or(0)
                );
                prop_assert_eq!(
                    merged.reliability.injected,
                    solos.iter().map(|r| r.reliability.injected).sum::<u64>(),
                    "policy {} k={}", name, k
                );
                // Each app lives on exactly one shard; its merged
                // statistics are that shard's, bit for bit.
                for (app, stats) in merged.apps.iter().enumerate() {
                    let home = &solos[shard_of(app, k)].apps[app];
                    prop_assert_eq!(stats, home, "policy {} k={} app {}", name, k, app);
                }
            }
        }
    }

    /// Sharded runs replay bit-for-bit — report, JSON and trace — under
    /// every policy, with live faults and a frozen 4-region plan.
    #[test]
    fn faulted_region_sharded_runs_replay_bit_identically(
        seed in any::<u64>(),
        jobs in 1usize..60,
        rate in 0u16..301,
        k in 2usize..9,
    ) {
        let profiles = tenants(seed);
        let platform = Platform::paper(1500, 2);
        let stream = spec_for(seed ^ 0xA5A5, &profiles, jobs).generate(&profiles);
        let plan = RegionPlan::new(
            &profiles,
            &FabricGrid::uniform(platform.fpga.usable_area(), 4),
        );
        for name in POLICIES {
            let policy = policy_by_name(name).unwrap();
            let sim = Simulation::new(&platform)
                .profiles(&profiles)
                .policy(policy.as_ref())
                .faults(FaultSpec::uniform(seed ^ 0x5A5A, rate))
                .regions(&plan)
                .shards(k);
            let (a, trace_a) = traced_bytes(&sim, &stream);
            let (b, trace_b) = traced_bytes(&sim, &stream);
            prop_assert_eq!(&a, &b, "policy {} k={}", name, k);
            prop_assert_eq!(report_to_json(&a), report_to_json(&b));
            prop_assert_eq!(trace_a, trace_b, "policy {} k={}: trace replay diverged", name, k);
        }
    }

    /// The work-conservation fields never depend on the shard count:
    /// arrivals, completions, rejections (unbounded queue), the summed
    /// busy cycles and the latency-source resolution all match the
    /// unsharded oracle at every `k` on a fault-free run.
    #[test]
    fn work_conservation_fields_are_shard_count_invariant(
        seed in any::<u64>(),
        jobs in 1usize..80,
    ) {
        let profiles = tenants(seed);
        let platform = Platform::paper(1500, 2);
        let stream = spec_for(seed ^ 0xA5A5, &profiles, jobs).generate(&profiles);
        for name in POLICIES {
            let policy = policy_by_name(name).unwrap();
            let sim = Simulation::new(&platform).profiles(&profiles).policy(policy.as_ref());
            let oracle = sim.run(&stream);
            for k in SHARD_COUNTS {
                let sharded = sim.shards(k).run(&stream);
                prop_assert_eq!(sharded.arrived(), oracle.arrived(), "policy {} k={}", name, k);
                prop_assert_eq!(sharded.completed(), oracle.completed());
                prop_assert_eq!(sharded.rejected(), 0u64);
                prop_assert_eq!(sharded.latency_source, oracle.latency_source);
                prop_assert_eq!(
                    sharded.fpga_busy_cycles + sharded.cgc_busy_cycles,
                    oracle.fpga_busy_cycles + oracle.cgc_busy_cycles,
                    "policy {} k={}: busy cycles not conserved", name, k
                );
            }
        }
    }

    /// Sketch merges are exact and associative: folding per-shard
    /// sketches — in shard order or any other grouping — reproduces the
    /// whole-population sketch, in both representations.
    #[test]
    fn sketch_merges_are_shard_count_invariant(
        seed in any::<u64>(),
        count in 1usize..600,
        k in 1usize..9,
    ) {
        let mut rng = SplitMix64::new(seed);
        let samples: Vec<u64> = (0..count).map(|_| rng.below(1 << 20)).collect();
        for source in [LatencySource::Exact, LatencySource::Sketched] {
            let mut whole = LatencySketch::new(source);
            for &s in &samples {
                whole.record(s);
            }
            let mut parts: Vec<LatencySketch> =
                (0..k).map(|_| LatencySketch::new(source)).collect();
            for (i, &s) in samples.iter().enumerate() {
                parts[shard_of(i, k)].record(s);
            }
            let folded = parts
                .into_iter()
                .fold(LatencySketch::new(source), |acc, part| acc.merge(&part));
            prop_assert_eq!(folded.count(), whole.count(), "source {:?} k={}", source, k);
            prop_assert_eq!(folded.max(), whole.max());
            for q in [1, 25, 50, 75, 95, 99, 100] {
                prop_assert_eq!(
                    folded.percentile(q),
                    whole.percentile(q),
                    "source {:?} k={} q={}", source, k, q
                );
            }
        }
    }
}

/// The acceptance scenarios pinned as plain tests: a faulted mix and a
/// 4-region plan, each run sharded at K ∈ {2, 3, 8} and required to
/// replay bit-identically while folding exactly as documented.
#[test]
fn acceptance_mixes_merge_deterministically() {
    let profiles = tenants(42);
    let platform = Platform::paper(1500, 2);
    let stream = spec_for(42, &profiles, 160).generate(&profiles);
    let plan = RegionPlan::new(
        &profiles,
        &FabricGrid::uniform(platform.fpga.usable_area(), 4),
    );
    let base = Simulation::new(&platform).profiles(&profiles);
    let faulted = base
        .faults(FaultSpec::uniform(7, 30))
        .recovery(RecoveryPolicy {
            degrade: true,
            ..RecoveryPolicy::default()
        });
    let regioned = base.regions(&plan);
    for sim in [base, faulted, regioned] {
        let oracle = sim.run(&stream);
        for k in [2usize, 3, 8] {
            let sharded = sim.shards(k);
            let a = sharded.run(&stream);
            let b = sharded.run(&stream);
            assert_eq!(a, b, "k={k}: sharded replay diverged");
            assert_eq!(report_to_json(&a), report_to_json(&b));
            assert_eq!(a.arrived(), oracle.arrived(), "k={k}");
            let folded: u64 = (0..k)
                .map(|shard| sim.run(&shard_subset(&stream, shard, k)).completed())
                .sum();
            assert_eq!(a.completed(), folded, "k={k}: fold diverged");
        }
    }
}
