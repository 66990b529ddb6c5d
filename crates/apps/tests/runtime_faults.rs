//! Acceptance tests for the deterministic fault-injection and recovery
//! layer on the real case-study mix: an inert fault spec leaves every
//! policy's report equal to the fault-free run's (the run
//! `tests/determinism.rs` pins to the committed `BENCH_runtime.json`
//! rows), the faulted run behind the committed reliability row renders
//! that line exactly, and under live faults graceful degradation
//! strictly beats abort-on-exhaustion on goodput and job loss while
//! configuration affinity keeps its reconfiguration-stall advantage.

use amdrel_apps::runtime::standard_mix;
use amdrel_core::Platform;
use amdrel_runtime::{
    policy_by_name, AppProfile, FaultSpec, Job, RecoveryPolicy, Simulation, WorkloadSpec,
};
use std::sync::OnceLock;

/// The standard mix on the paper's small platform, built once.
fn mix() -> &'static (Platform, Vec<AppProfile>) {
    static MIX: OnceLock<(Platform, Vec<AppProfile>)> = OnceLock::new();
    MIX.get_or_init(|| {
        let platform = Platform::paper(1500, 2);
        let profiles = standard_mix(&platform).expect("standard mix builds");
        (platform, profiles)
    })
}

/// The seeded 400-job stream behind the committed `BENCH_runtime.json`
/// policy, reliability and floorplan rows
/// (`amdrel_bench::baselines::bench_runtime`).
fn baseline_stream(profiles: &[AppProfile]) -> Vec<Job> {
    WorkloadSpec::uniform(42, 400, profiles, 130).generate(profiles)
}

#[test]
fn inert_fault_spec_matches_the_fault_free_run() {
    let (platform, profiles) = mix();
    let jobs = baseline_stream(profiles);
    let inert = FaultSpec::uniform(99, 0);
    let recovery = RecoveryPolicy {
        max_retries: 11,
        degrade: true,
        ..RecoveryPolicy::default()
    };
    for name in ["fcfs", "sjf", "priority", "affinity"] {
        let policy = policy_by_name(name).expect("built-in policy");
        let sim = Simulation::new(platform)
            .profiles(profiles)
            .policy(policy.as_ref());
        let plain = sim.run(&jobs);
        // Thread a zero-rate spec and a non-default recovery policy
        // through the engine: only the recorded metadata may differ.
        let mut report = sim.faults(inert).recovery(recovery).run(&jobs);
        assert_eq!(report.faults, inert, "{name}");
        assert_eq!(report.recovery, recovery, "{name}");
        report.faults = plain.faults;
        report.recovery = plain.recovery;
        assert_eq!(report, plain, "{name}");
    }
}

#[test]
fn committed_reliability_row_replays_exactly() {
    let bench = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_runtime.json"
    ))
    .expect("committed BENCH_runtime.json");
    let row = amdrel_bench::baselines::runtime_reliability_row();
    let committed = bench
        .lines()
        .find(|line| line.starts_with("  \"reliability\":"))
        .expect("reliability row in BENCH_runtime.json");
    assert_eq!(committed, row.trim_end_matches('\n'));
}

#[test]
fn graceful_degradation_strictly_beats_abort_on_exhaustion() {
    let (platform, profiles) = mix();
    let jobs = baseline_stream(profiles);
    // No retry budget: every injected fault immediately exhausts
    // recovery, so the abort/degrade fork is exercised on every fault.
    let exhausted = RecoveryPolicy {
        max_retries: 0,
        degrade: false,
        ..RecoveryPolicy::default()
    };
    let degrading = RecoveryPolicy {
        degrade: true,
        ..exhausted
    };
    let faults = FaultSpec::uniform(7, 60);
    let sim = Simulation::new(platform)
        .profiles(profiles)
        .policy(&amdrel_runtime::Fcfs)
        .faults(faults);
    let abort = sim.recovery(exhausted).run(&jobs);
    let degrade = sim.recovery(degrading).run(&jobs);

    // Identical injection: the fault streams are policy-independent.
    assert_eq!(
        abort.reliability.injected, degrade.reliability.injected,
        "recovery policy must not perturb the fault streams"
    );
    assert!(abort.reliability.injected > 0, "faults were live");

    // Abort drops jobs; degradation salvages every one of them.
    assert!(
        abort.reliability.aborted > 0,
        "zero retry budget must abort under faults"
    );
    assert_eq!(degrade.reliability.aborted, 0, "degradation never drops");
    assert!(degrade.reliability.degraded > 0, "fallback path was taken");
    assert!(
        degrade.completed() > abort.completed(),
        "degradation completes strictly more jobs: {} vs {}",
        degrade.completed(),
        abort.completed()
    );
    assert!(
        degrade.goodput_jobs_per_mcycle() > abort.goodput_jobs_per_mcycle(),
        "degradation goodput {:.4} must strictly beat abort goodput {:.4}",
        degrade.goodput_jobs_per_mcycle(),
        abort.goodput_jobs_per_mcycle()
    );
    // Aggregate conservation holds for both recovery modes.
    for r in [&abort, &degrade] {
        assert_eq!(
            r.arrived(),
            r.completed() + r.rejected() + r.reliability.aborted + r.reliability.deadline_misses
        );
    }
}

#[test]
fn affinity_still_reduces_reconfig_stall_under_faults() {
    let (platform, profiles) = mix();
    let jobs = baseline_stream(profiles);
    let faults = FaultSpec::uniform(7, 30);
    let recovery = RecoveryPolicy {
        degrade: true,
        ..RecoveryPolicy::default()
    };
    let run = |name: &str| {
        let policy = policy_by_name(name).expect("built-in policy");
        Simulation::new(platform)
            .profiles(profiles)
            .policy(policy.as_ref())
            .faults(faults)
            .recovery(recovery)
            .run(&jobs)
    };
    let fcfs = run("fcfs");
    let affinity = run("affinity");
    assert!(fcfs.reliability.injected > 0, "faults were live");
    assert!(
        affinity.reconfig_stall_cycles < fcfs.reconfig_stall_cycles,
        "affinity keeps its stall advantage under faults: {} vs {}",
        affinity.reconfig_stall_cycles,
        fcfs.reconfig_stall_cycles
    );
    assert!(
        affinity.reconfig_loads < fcfs.reconfig_loads,
        "affinity batches configurations under faults too"
    );
}
