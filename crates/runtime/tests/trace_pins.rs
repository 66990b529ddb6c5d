//! Pinned event streams of faulted, regioned and bounded runs.
//!
//! The heap oracle in `sim.rs` covers fault-free runs without regions
//! only. These scenarios cover the rest of the event core — load
//! faults, fabric kills, retries, slot outages and repairs, deadline
//! reaps, degradation, aborts, region reprogramming and scrubbing,
//! admission rejects — and pin each run twice with FNV-1a digests: the
//! rendered Chrome trace, and every deterministic report field except
//! the event-structure statistics (`queue`). Any change to what the
//! engine does, or to the order it does it in, moves a digest.

use amdrel_core::Platform;
use amdrel_floorplan::FabricGrid;
use amdrel_runtime::{
    policy_by_name, AppProfile, FaultSpec, RecoveryPolicy, RegionPlan, RuntimeReport, SimConfig,
    Simulation, WorkloadSpec,
};
use amdrel_trace::{chrome_trace, TraceBuffer, TraceEvent};
use std::collections::BTreeSet;
use std::num::{NonZeroU64, NonZeroUsize};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn profiles() -> Vec<AppProfile> {
    vec![
        AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
        AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
        AppProfile::synthetic("stream", 1, 12_000, 4_000, vec![600, 200, 200]),
    ]
}

/// Every deterministic report field except `queue`, one per line.
fn report_fields(r: &RuntimeReport) -> String {
    format!(
        "policy={}\nconfig={:?}\ncgc_slots={}\nmakespan={}\nfpga_busy={}\nstall={}\nloads={}\n\
         cgc_busy={}\np50={}\np95={}\nsource={:?}\nfaults={:?}\nrecovery={:?}\n\
         reliability={:?}\napps={:?}\n",
        r.policy,
        r.config,
        r.cgc_slots,
        r.makespan,
        r.fpga_busy_cycles,
        r.reconfig_stall_cycles,
        r.reconfig_loads,
        r.cgc_busy_cycles,
        r.p50_latency,
        r.p95_latency,
        r.latency_source,
        r.faults,
        r.recovery,
        r.reliability,
        r.apps,
    )
}

/// One pinned scenario: its name, the run, and the two digests.
struct Scenario {
    name: &'static str,
    trace: u64,
    report: u64,
}

/// The expected digests, in scenario order.
const PINS: [Scenario; 6] = [
    Scenario {
        name: "faults_deadline_degrade",
        trace: 0xca26_7056_2035_415b,
        report: 0xaa8d_0562_65d3_731c,
    },
    Scenario {
        name: "no_retries_abort",
        trace: 0x4d20_ddff_c8ea_a56f,
        report: 0xd40d_c77b_7d49_f2a6,
    },
    Scenario {
        name: "regions_load_faults",
        trace: 0x3534_ca04_b1cf_611e,
        report: 0xb90d_92b5_845d_491b,
    },
    Scenario {
        name: "prefetch_bounded",
        trace: 0x3c5f_66b9_b8f2_1f23,
        report: 0xcb8c_96a5_1185_03ff,
    },
    Scenario {
        name: "affinity_overload_deadlines",
        trace: 0xdd14_d361_ced1_20db,
        report: 0x18b2_f307_ede3_c442,
    },
    Scenario {
        name: "single_cgc_outages",
        trace: 0x7568_84e2_39f7_eb68,
        report: 0x1ef2_441c_2e16_4760,
    },
];

/// Run scenario `name`, returning its report and recorded events.
fn run(name: &str) -> (RuntimeReport, Vec<TraceEvent>) {
    let profiles = profiles();
    let two_cgcs = Platform::paper(1500, 2);
    let one_cgc = Platform::paper(1500, 1);
    // Five tenants on four regions: some share a region, so loads keep
    // recurring with the configuration cache on.
    let mut tenants = profiles.clone();
    tenants.push(AppProfile::synthetic("decode", 1, 8_000, 2_000, vec![500]));
    tenants.push(AppProfile::synthetic(
        "filter",
        0,
        20_000,
        3_000,
        vec![350, 350],
    ));
    let plan = RegionPlan::new(&tenants, &FabricGrid::uniform(1050, 4));
    let buffer = TraceBuffer::new();
    let deadline = |gaps: u64, spec: &WorkloadSpec| NonZeroU64::new(gaps * spec.mean_interarrival);
    let report = match name {
        "faults_deadline_degrade" => {
            let spec = WorkloadSpec::uniform(42, 400, &profiles, 150);
            let mut faults = FaultSpec::uniform(7, 30);
            faults.deadline = deadline(20, &spec);
            Simulation::new(&two_cgcs)
                .profiles(&profiles)
                .policy(policy_by_name("sjf").unwrap().as_ref())
                .faults(faults)
                .recovery(RecoveryPolicy {
                    degrade: true,
                    ..RecoveryPolicy::default()
                })
                .trace(&buffer)
                .run_mix(&spec)
        }
        "no_retries_abort" => {
            let spec = WorkloadSpec::uniform(2004, 300, &profiles, 110);
            Simulation::new(&two_cgcs)
                .profiles(&profiles)
                .policy(policy_by_name("priority").unwrap().as_ref())
                .faults(FaultSpec::uniform(11, 80))
                .recovery(RecoveryPolicy {
                    max_retries: 0,
                    degrade: false,
                    ..RecoveryPolicy::default()
                })
                .trace(&buffer)
                .run_mix(&spec)
        }
        "regions_load_faults" => {
            let spec = WorkloadSpec::uniform(7, 300, &tenants, 120);
            let mut faults = FaultSpec::none();
            faults.seed = 3;
            faults.load_fail_permille = 150;
            Simulation::new(&two_cgcs)
                .profiles(&tenants)
                .policy(policy_by_name("fcfs").unwrap().as_ref())
                .regions(&plan)
                .faults(faults)
                .trace(&buffer)
                .run_mix(&spec)
        }
        "prefetch_bounded" => {
            let spec = WorkloadSpec::uniform(99, 300, &profiles, 200);
            Simulation::new(&two_cgcs)
                .profiles(&profiles)
                .policy(policy_by_name("sjf").unwrap().as_ref())
                .config(SimConfig {
                    config_cache: true,
                    prefetch: true,
                    queue_bound: NonZeroUsize::new(3),
                })
                .faults(FaultSpec::uniform(5, 40))
                .trace(&buffer)
                .run_mix(&spec)
        }
        "affinity_overload_deadlines" => {
            let spec = WorkloadSpec::uniform(1, 300, &profiles, 300);
            let mut faults = FaultSpec::none();
            faults.deadline = deadline(10, &spec);
            Simulation::new(&two_cgcs)
                .profiles(&profiles)
                .policy(policy_by_name("affinity").unwrap().as_ref())
                .faults(faults)
                .trace(&buffer)
                .run_mix(&spec)
        }
        "single_cgc_outages" => {
            let spec = WorkloadSpec::uniform(13, 300, &profiles, 100);
            let mut faults = FaultSpec::none();
            faults.seed = 17;
            faults.outage_permille = 250;
            faults.repair_cycles = 30_000;
            Simulation::new(&one_cgc)
                .profiles(&profiles)
                .policy(policy_by_name("fcfs").unwrap().as_ref())
                .faults(faults)
                .recovery(RecoveryPolicy {
                    max_retries: 1,
                    degrade: true,
                    ..RecoveryPolicy::default()
                })
                .trace(&buffer)
                .run_mix(&spec)
        }
        other => panic!("unknown scenario {other}"),
    };
    (report, buffer.events())
}

#[test]
fn faulted_event_streams_match_their_pins() {
    let mut fired = BTreeSet::new();
    let mut drift = Vec::new();
    for pin in &PINS {
        let (report, events) = run(pin.name);
        fired.extend(events.iter().map(|e| e.name));
        let trace = fnv1a(&chrome_trace(&events));
        let fields = fnv1a(&report_fields(&report));
        if (trace, fields) != (pin.trace, pin.report) {
            drift.push(format!(
                "{}: trace {trace:#018x}, report {fields:#018x}",
                pin.name
            ));
        }
    }
    assert!(drift.is_empty(), "digests drifted:\n{}", drift.join("\n"));
    for kind in [
        "fault_load",
        "fault_fabric",
        "retry",
        "fault_slot",
        "repair",
        "deadline",
        "degrade",
        "abort",
        "reprogram",
        "scrub",
        "reject",
    ] {
        assert!(fired.contains(kind), "no scenario fired a '{kind}' event");
    }
}
