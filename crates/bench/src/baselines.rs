//! The committed `BENCH_*.json` baselines, rendered from library calls.
//!
//! One function per file returns that file's exact bytes, and [`FILES`]
//! pairs each with its name at the repository root:
//! `examples/bench_report.rs` writes them and `tests/determinism.rs`
//! compares them byte for byte with the committed copies. The file
//! functions assemble their rows from one function per row group
//! ([`explore_strategy_rows`], [`explore_contention_frontiers`],
//! [`runtime_policy_rows`], [`runtime_reliability_row`],
//! [`runtime_floorplan_row`], [`runtime_scaling_rows`]), so a test can
//! render one group and find it verbatim in the committed file. Every
//! field is a simulated or counted quantity, a pure function of the
//! pinned seeds, so the files hold no wall-clock time (that lives in
//! `perfbench/`). Each file's schema is documented in
//! `docs/BENCHMARKS.md`.
//!
//! Every renderer panics if a case study fails to compile, profile or
//! explore.

use crate::{ofdm_prepared, synthetic_tenants, Prepared};
use amdrel_apps::ofdm;
use amdrel_apps::runtime::{contention_evaluator, standard_mix};
use amdrel_core::json::{escape, string_array};
use amdrel_core::{EnergyModel, MappingCache, Platform};
use amdrel_explore::{
    explore, Evaluator, Exhaustive, ExploreConfig, ObjectiveSet, PointEval, RandomSampling,
    SearchStrategy, SimulatedAnnealing,
};
use amdrel_floorplan::FabricGrid;
use amdrel_runtime::{
    policy_by_name, AppProfile, FaultSpec, Fcfs, Job, RecoveryPolicy, RegionPlan, Simulation,
    SketchMode, WorkloadSpec,
};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Renders one baseline file's exact contents.
pub type Renderer = fn() -> String;

/// Every committed baseline: its file name at the repository root and
/// the function that renders it.
pub const FILES: [(&str, Renderer); 3] = [
    ("BENCH_explore.json", bench_explore),
    ("BENCH_explore_contention.json", bench_explore_contention),
    ("BENCH_runtime.json", bench_runtime),
];

/// The seeded search configuration of every exploration row.
const CONFIG: ExploreConfig = ExploreConfig {
    seed: 42,
    eval_budget: 64,
    jobs: 0,
};

/// The paper's small platform: the explored base and the simulated one.
fn platform() -> Platform {
    Platform::paper(1500, 2)
}

/// The OFDM case study both exploration files explore, compiled and
/// profiled once per process.
fn ofdm_app() -> &'static Prepared {
    static APP: OnceLock<Prepared> = OnceLock::new();
    APP.get_or_init(ofdm_prepared)
}

/// The seeded 400-job, 3-app standard mix at 130% load on the paper's
/// small platform: the input of `BENCH_runtime.json`'s policy,
/// reliability and floorplan rows.
struct Mix {
    platform: Platform,
    profiles: Vec<AppProfile>,
    spec: WorkloadSpec,
    jobs: Vec<Job>,
}

/// The [`Mix`], built once per process.
fn mix() -> &'static Mix {
    static MIX: OnceLock<Mix> = OnceLock::new();
    MIX.get_or_init(|| {
        let platform = platform();
        let profiles = standard_mix(&platform).expect("the standard mix builds");
        let spec = WorkloadSpec::uniform(42, 400, &profiles, 130);
        let jobs = spec.generate(&profiles);
        Mix {
            platform,
            profiles,
            spec,
            jobs,
        }
    })
}

impl Mix {
    /// A simulation of the mix's profiles on its platform.
    fn sim(&self) -> Simulation<'_> {
        Simulation::new(&self.platform).profiles(&self.profiles)
    }
}

/// A static evaluator of `app` on `platform`, memoising into `cache`.
fn evaluator<'a>(
    app: &'a Prepared,
    platform: &'a Platform,
    cache: &'a MappingCache,
) -> Evaluator<'a> {
    Evaluator::new(
        &app.name,
        &app.program.cdfg,
        &app.analysis,
        platform,
        EnergyModel::default(),
        cache,
    )
}

/// The opening lines both exploration files share: the schema, the
/// OFDM case study and its design space.
fn explore_header(schema: &str) -> String {
    let space = ofdm::design_space();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"app\": \"{}\",\n  \
         \"space\": {{ \"points\": {}, \"cells\": {}, \"constraint\": {} }},\n",
        escape(&ofdm_app().name),
        space.len(),
        space.cells(),
        space.constraint
    )
}

/// Append the top-level array `"key": [ ... ]`, one row per line.
fn push_array(json: &mut String, key: &str, rows: &[String], last: bool) {
    let _ = writeln!(json, "  \"{key}\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {row}{comma}");
    }
    json.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// `BENCH_explore.json`: one seeded exploration of the OFDM case study
/// per search strategy, with its effort counters and frontier size (the
/// search-efficiency baseline).
pub fn bench_explore() -> String {
    let mut json = explore_header("amdrel-explore-report/v1");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"seed\": {}, \"eval_budget\": {} }},",
        CONFIG.seed, CONFIG.eval_budget
    );
    json.push_str(&explore_strategy_rows());
    json.push_str("}\n");
    json
}

/// `BENCH_explore.json`'s `"strategies"` array: one
/// [`explore_strategy_row`] per search strategy.
pub fn explore_strategy_rows() -> String {
    let strategies: [&dyn SearchStrategy; 3] =
        [&Exhaustive, &RandomSampling, &SimulatedAnnealing::default()];
    let rows: Vec<String> = strategies.into_iter().map(explore_strategy_row).collect();
    let mut json = String::new();
    push_array(&mut json, "strategies", &rows, true);
    json
}

/// One row of `BENCH_explore.json`: the seeded exploration of the OFDM
/// case study under `strategy`, with its effort counters, frontier size
/// and best cycle count.
pub fn explore_strategy_row(strategy: &dyn SearchStrategy) -> String {
    let platform = platform();
    let cache = MappingCache::new();
    let r = explore(
        &evaluator(ofdm_app(), &platform, &cache),
        &ofdm::design_space(),
        strategy,
        &CONFIG,
    )
    .expect("the OFDM exploration runs");
    format!(
        "{{ \"name\": \"{}\", \"points_evaluated\": {}, \"engine_runs\": {}, \
         \"cell_hits\": {}, \"frontier\": {}, \"best_final_cycles\": {} }}",
        r.strategy,
        r.stats.points_evaluated,
        r.stats.engine_runs,
        r.stats.cell_hits,
        r.frontier.len(),
        r.best_cycles().map_or(u64::MAX, |p| p.cycles),
    )
}

/// One frontier member: its platform, cycles and energy, and its
/// contention scores when a runtime objective rated it.
fn frontier_row(p: &PointEval) -> String {
    let mut row = format!(
        "{{ \"area\": {}, \"datapath\": \"{}\", \"kernels_moved\": {}, \
         \"final_cycles\": {}, \"energy\": {}",
        p.area,
        escape(&p.datapath),
        p.kernels_moved,
        p.cycles,
        p.energy_total(),
    );
    if let Some(c) = &p.contention {
        let _ = write!(
            row,
            ", \"p95_latency\": {}, \"cycles_per_job\": {}",
            c.p95_latency, c.cycles_per_job
        );
    }
    row.push_str(" }");
    row
}

/// `BENCH_explore_contention.json`: the static exhaustive frontier of
/// the OFDM space against the 4-objective (… + p95) frontier that
/// scores every candidate platform by simulating the seeded standard
/// mix, plus the platform points only the contention-aware search
/// surfaces.
pub fn bench_explore_contention() -> String {
    let mut json = explore_header("amdrel-explore-contention-report/v1");
    json.push_str(&explore_contention_frontiers());
    json.push_str("}\n");
    json
}

/// Everything of `BENCH_explore_contention.json` after its header: the
/// contention workload, the objectives and effort of the
/// contention-aware exploration, and the `"static_frontier"`,
/// `"contention_frontier"` and `"added_platform_points"` arrays.
pub fn explore_contention_frontiers() -> String {
    let app = ofdm_app();
    let platform = platform();
    let space = ofdm::design_space();
    let contention = contention_evaluator("ofdm", &platform).expect("the standard mix builds");
    let cache = MappingCache::new();
    let static_frontier = explore(
        &evaluator(app, &platform, &cache),
        &space,
        &Exhaustive,
        &CONFIG,
    )
    .expect("the static exploration runs");
    let contention_eval = evaluator(app, &platform, &cache)
        .with_objectives(ObjectiveSet::parse("cycles,area,energy,p95").expect("known objectives"))
        .with_runtime(&contention);
    let contention_frontier = explore(&contention_eval, &space, &Exhaustive, &CONFIG)
        .expect("the contention exploration runs");
    let background: Vec<&str> = contention
        .background()
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    let mut json = String::new();
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"seed\": {}, \"njobs\": {}, \"load_percent\": {}, \
         \"policy\": \"{}\", \"background\": {} }},",
        contention.seed(),
        contention.njobs(),
        contention.load_percent(),
        contention.policy_name(),
        string_array(&background),
    );
    let _ = writeln!(
        json,
        "  \"objectives\": {},",
        string_array(&contention_frontier.objectives)
    );
    let _ = writeln!(
        json,
        "  \"effort\": {{ \"engine_runs\": {}, \"sim_runs\": {} }},",
        contention_frontier.stats.engine_runs, contention_frontier.stats.sim_runs
    );
    let rows = |points: &[PointEval]| points.iter().map(frontier_row).collect::<Vec<_>>();
    push_array(
        &mut json,
        "static_frontier",
        &rows(&static_frontier.frontier),
        false,
    );
    push_array(
        &mut json,
        "contention_frontier",
        &rows(&contention_frontier.frontier),
        false,
    );
    let added: Vec<String> = contention_frontier
        .frontier
        .iter()
        .filter(|p| !static_frontier.frontier.iter().any(|s| s.point == p.point))
        .map(frontier_row)
        .collect();
    push_array(&mut json, "added_platform_points", &added, true);
    json
}

/// `BENCH_runtime.json`: the seeded 400-job, 3-app standard mix at 130%
/// load, one row per scheduling policy, then the reliability, floorplan,
/// million-job scaling and sharded rows.
pub fn bench_runtime() -> String {
    let Mix { profiles, spec, .. } = mix();
    let apps: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
    let mut json = String::from("{\n  \"schema\": \"amdrel-runtime-report/v6\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"seed\": {}, \"jobs\": {}, \"mean_interarrival\": {}, \"apps\": {} }},",
        spec.seed,
        spec.jobs,
        spec.mean_interarrival,
        string_array(&apps),
    );
    json.push_str(&runtime_policy_rows());
    json.push_str(&runtime_reliability_row());
    json.push_str(&runtime_floorplan_row());
    json.push_str(&runtime_scaling_rows());
    json.push_str("}\n");
    json
}

/// `BENCH_runtime.json`'s `"policies"` array: the standard mix's stream
/// under each built-in scheduling policy.
pub fn runtime_policy_rows() -> String {
    let mix = mix();
    let rows: Vec<String> = ["fcfs", "sjf", "priority", "affinity"]
        .into_iter()
        .map(|name| {
            let policy = policy_by_name(name).expect("built-in policy");
            let r = mix.sim().policy(policy.as_ref()).run(&mix.jobs);
            format!(
                "{{ \"name\": \"{}\", \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
                 \"jobs_per_mcycle\": {:.4}, \"p50_latency\": {}, \"p95_latency\": {}, \
                 \"reconfig_loads\": {}, \"reconfig_stall_cycles\": {}, \"stall_share\": {:.4}, \
                 \"fpga_utilization\": {:.4}, \"cgc_utilization\": {:.4} }}",
                r.policy,
                r.completed(),
                r.rejected(),
                r.makespan,
                r.jobs_per_mcycle(),
                r.p50_latency,
                r.p95_latency,
                r.reconfig_loads,
                r.reconfig_stall_cycles,
                r.stall_share(),
                r.fpga_utilization(),
                r.cgc_utilization(),
            )
        })
        .collect();
    let mut json = String::new();
    push_array(&mut json, "policies", &rows, false);
    json
}

/// `BENCH_runtime.json`'s `"reliability"` line: the standard mix's
/// stream under FCFS with the deterministic fault layer injecting on
/// every channel at 30 permille and graceful degradation on, so CI can
/// gate the recovery invariants (availability in (0, 1], goodput <= raw
/// throughput, salvage accounting consistent with what was injected).
pub fn runtime_reliability_row() -> String {
    let mix = mix();
    let fault_rate: u16 = 30;
    let faults = FaultSpec::uniform(7, fault_rate);
    let recovery = RecoveryPolicy {
        degrade: true,
        ..RecoveryPolicy::default()
    };
    let faulted = mix
        .sim()
        .policy(&Fcfs)
        .faults(faults)
        .recovery(recovery)
        .run(&mix.jobs);
    let rel = &faulted.reliability;
    let mut json = String::new();
    let _ = writeln!(
        json,
        "  \"reliability\": {{ \"policy\": \"{}\", \"fault_rate_permille\": {fault_rate}, \
         \"fault_seed\": {}, \"max_retries\": {}, \"degrade\": {}, \
         \"injected\": {}, \"load_failures\": {}, \"fabric_kills\": {}, \"slot_outages\": {}, \
         \"retries\": {}, \"degraded\": {}, \"aborted\": {}, \"deadline_misses\": {}, \
         \"completed\": {}, \"makespan\": {}, \"availability\": {:.4}, \
         \"goodput_jobs_per_mcycle\": {:.4}, \"throughput_jobs_per_mcycle\": {:.4} }},",
        faulted.policy,
        faults.seed,
        recovery.max_retries,
        recovery.degrade,
        rel.injected,
        rel.load_failures,
        rel.fabric_kills,
        rel.slot_outages,
        rel.retries,
        rel.degraded,
        rel.aborted,
        rel.deadline_misses,
        faulted.completed(),
        faulted.makespan,
        faulted.availability(),
        faulted.goodput_jobs_per_mcycle(),
        faulted.throughput_jobs_per_mcycle(),
    );
    json
}

/// `BENCH_runtime.json`'s `"floorplan"` line: the standard mix's
/// stream under affinity, once with streamed full-fabric loads and once
/// under the 4-region partial reconfiguration plan, so CI can gate the
/// placement win (region stall share strictly below streamed) and pin
/// the deterministic fragmentation statistics.
pub fn runtime_floorplan_row() -> String {
    let mix = mix();
    let affinity = policy_by_name("affinity").expect("built-in policy");
    let affinity_sim = mix.sim().policy(affinity.as_ref());
    let streamed = affinity_sim.run(&mix.jobs);
    let plan = RegionPlan::new(
        &mix.profiles,
        &FabricGrid::uniform(mix.platform.fpga.usable_area(), 4),
    );
    let regioned = affinity_sim.regions(&plan).run(&mix.jobs);
    let frag = plan.stats();
    let mut json = String::new();
    let _ = writeln!(
        json,
        "  \"floorplan\": {{ \"regions\": {}, \"policy\": \"{}\", \
         \"streamed_loads\": {}, \"streamed_stall_cycles\": {}, \"streamed_stall_share\": {:.4}, \
         \"region_loads\": {}, \"region_stall_cycles\": {}, \"region_stall_share\": {:.4}, \
         \"placement_failures\": {}, \"internal_fragmentation_permille\": {}, \
         \"external_fragmentation_permille\": {}, \"worst_region_permille\": {} }},",
        plan.regions(),
        streamed.policy,
        streamed.reconfig_loads,
        streamed.reconfig_stall_cycles,
        streamed.stall_share(),
        regioned.reconfig_loads,
        regioned.reconfig_stall_cycles,
        regioned.stall_share(),
        frag.placement_failures(),
        frag.internal_permille(),
        frag.external_permille(),
        frag.worst_region_permille(),
    );
    json
}

/// `BENCH_runtime.json`'s `"scaling"` and `"sharded"` lines.
pub fn runtime_scaling_rows() -> String {
    // The scaling row: one million jobs over 32 synthetic tenants,
    // streamed through the event core with sketched percentiles (the
    // stream is never materialised and latency memory stays O(1) in
    // the job count).
    let platform = platform();
    let tenants = synthetic_tenants(32);
    let load_percent = 90;
    let scaling_spec = WorkloadSpec::uniform(42, 1_000_000, &tenants, load_percent);
    let scaling_sim = Simulation::new(&platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);
    let scaling = scaling_sim.run_mix(&scaling_spec);
    let mut json = String::new();
    let _ = writeln!(
        json,
        "  \"scaling\": {{ \"tenants\": {}, \"jobs\": {}, \"seed\": {}, \
         \"mean_interarrival\": {}, \"load_percent\": {load_percent}, \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\" }},",
        tenants.len(),
        scaling_spec.jobs,
        scaling_spec.seed,
        scaling_spec.mean_interarrival,
        scaling.policy,
        scaling.completed(),
        scaling.rejected(),
        scaling.makespan,
        scaling.p50_latency,
        scaling.p95_latency,
        scaling.latency_source.as_str(),
    );

    // The sharded row: the scaling workload split across 8 independent
    // platform replicas and folded back in shard order. `completed`,
    // `rejected`, `latency_source` and `busy_cycles` are
    // shard-count-invariant: CI asserts the first three match the
    // scaling row, and `shard_properties.rs` proves all four on random
    // workloads. Makespan and the percentiles belong to the 8-replica
    // scenario (tenants on different shards no longer contend).
    let shards: usize = 8;
    let sharded = scaling_sim.shards(shards).run_mix(&scaling_spec);
    let _ = writeln!(
        json,
        "  \"sharded\": {{ \"shards\": {shards}, \"tenants\": {}, \"jobs\": {}, \
         \"seed\": {}, \"mean_interarrival\": {}, \"load_percent\": {load_percent}, \
         \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\", \
         \"busy_cycles\": {} }}",
        tenants.len(),
        scaling_spec.jobs,
        scaling_spec.seed,
        scaling_spec.mean_interarrival,
        sharded.policy,
        sharded.completed(),
        sharded.rejected(),
        sharded.makespan,
        sharded.p50_latency,
        sharded.p95_latency,
        sharded.latency_source.as_str(),
        sharded.fpga_busy_cycles + sharded.cgc_busy_cycles,
    );
    json
}
