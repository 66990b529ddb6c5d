//! Acceptance tests for the deterministic fault-injection and recovery
//! layer on the real case-study mix (ISSUE 7): an inert fault spec
//! reproduces the committed `BENCH_runtime.json` baseline exactly, and
//! under live faults graceful degradation strictly beats
//! abort-on-exhaustion on goodput and job loss while configuration
//! affinity keeps its reconfiguration-stall advantage.

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

/// The exact seeded 400-job stream the committed `BENCH_runtime.json`
/// baseline was generated from (`examples/bench_report.rs`).
fn baseline_stream(profiles: &[AppProfile]) -> Vec<Job> {
    WorkloadSpec::uniform(42, 400, profiles, 130).generate(profiles)
}

/// Extract `"key": <integer>` from a JSON fragment without a JSON
/// parser (the workspace has no JSON parsing dependency).
fn json_u64(fragment: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let start = fragment
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {fragment}"))
        + needle.len();
    fragment[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {fragment}"))
}

/// The committed `BENCH_runtime.json` row for `policy`, located by name.
fn committed_policy_row(bench: &str, policy: &str) -> String {
    bench
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{policy}\"")))
        .unwrap_or_else(|| panic!("no {policy} row in BENCH_runtime.json"))
        .to_owned()
}

#[test]
fn inert_fault_spec_reproduces_the_committed_baseline() {
    let bench = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_runtime.json"
    ))
    .expect("committed BENCH_runtime.json");
    assert!(
        bench.contains("\"schema\": \"amdrel-runtime-report/v6\""),
        "baseline schema must be v6"
    );
    let (platform, profiles) = mix();
    let jobs = baseline_stream(profiles);
    for name in ["fcfs", "sjf", "priority", "affinity"] {
        let policy = policy_by_name(name).expect("built-in policy");
        // Thread a zero-rate spec (and a non-default recovery policy)
        // through the engine: every simulated quantity must match the
        // committed baseline, which was produced by the same path.
        let report = Simulation::new(platform)
            .profiles(profiles)
            .policy(policy.as_ref())
            .faults(FaultSpec::uniform(99, 0))
            .recovery(RecoveryPolicy {
                max_retries: 11,
                degrade: true,
                ..RecoveryPolicy::default()
            })
            .run(&jobs);
        let row = committed_policy_row(&bench, name);
        assert_eq!(report.completed(), json_u64(&row, "completed"), "{name}");
        assert_eq!(report.makespan, json_u64(&row, "makespan"), "{name}");
        assert_eq!(report.p50_latency, json_u64(&row, "p50_latency"), "{name}");
        assert_eq!(report.p95_latency, json_u64(&row, "p95_latency"), "{name}");
        assert_eq!(
            report.reconfig_loads,
            json_u64(&row, "reconfig_loads"),
            "{name}"
        );
        assert_eq!(
            report.reliability.injected, 0,
            "{name}: inert spec injected"
        );
    }
}

#[test]
fn committed_reliability_row_replays_exactly() {
    let bench = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_runtime.json"
    ))
    .expect("committed BENCH_runtime.json");
    let row = bench
        .lines()
        .find(|l| l.contains("\"reliability\""))
        .expect("reliability row in BENCH_runtime.json")
        .to_owned();
    let (platform, profiles) = mix();
    let jobs = baseline_stream(profiles);
    let fcfs = policy_by_name("fcfs").expect("built-in policy");
    let report = Simulation::new(platform)
        .profiles(profiles)
        .policy(fcfs.as_ref())
        .faults(FaultSpec::uniform(
            json_u64(&row, "fault_seed"),
            json_u64(&row, "fault_rate_permille") as u16,
        ))
        .recovery(RecoveryPolicy {
            max_retries: json_u64(&row, "max_retries") as u32,
            degrade: true,
            ..RecoveryPolicy::default()
        })
        .run(&jobs);
    let r = &report.reliability;
    assert_eq!(r.injected, json_u64(&row, "injected"));
    assert_eq!(r.retries, json_u64(&row, "retries"));
    assert_eq!(r.degraded, json_u64(&row, "degraded"));
    assert_eq!(r.aborted, json_u64(&row, "aborted"));
    assert_eq!(report.makespan, json_u64(&row, "makespan"));
    assert_eq!(report.completed(), json_u64(&row, "completed"));
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
