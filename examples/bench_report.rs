//! Deterministic baselines: one seeded exploration per search strategy
//! into `BENCH_explore.json` with its effort counters, the
//! static-vs-contention co-exploration frontiers into
//! `BENCH_explore_contention.json` (including the platform points only
//! the contention-aware search surfaces), and one seeded 3-app runtime
//! simulation per scheduling policy into `BENCH_runtime.json`
//! (simulated throughput, latency percentiles, reconfiguration-stall
//! share, one fault-injected reliability row for the recovery
//! invariants, one floorplan row comparing region-granular partial
//! reconfiguration against streamed full-fabric loads, and the
//! million-job scaling and sharded rows). Every field is a simulated or
//! counted quantity, so the files replay bit-for-bit
//! (`tests/determinism.rs`) and CI gates them without timing anything;
//! wall-clock measurement lives in `perfbench/`. Each file's schema is
//! documented in `docs/BENCHMARKS.md`.
//!
//! Run with: `cargo run --release --example bench_report`

use amdrel::prelude::*;
use amdrel_bench::{ofdm_prepared, synthetic_tenants};
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The OFDM case study, profiled once for both explorations, on
    //     the paper's small platform (also the simulated platform).
    let app = ofdm_prepared();
    let platform = Platform::paper(1500, 2);

    // --- Exploration strategies over the OFDM design space: one seeded
    //     run per strategy, recording effort counters for
    //     BENCH_explore.json (the search-efficiency baseline asserted by
    //     the apps-crate acceptance test).
    let space = ofdm::design_space();
    let config = ExploreConfig {
        seed: 42,
        eval_budget: 64,
        jobs: 0,
    };
    let strategies: [&dyn SearchStrategy; 3] =
        [&Exhaustive, &RandomSampling, &SimulatedAnnealing::default()];
    let mut explore_rows = Vec::new();
    for strategy in strategies {
        let cache = MappingCache::new();
        let evaluator = Evaluator::new(
            &app.name,
            &app.program.cdfg,
            &app.analysis,
            &platform,
            EnergyModel::default(),
            &cache,
        );
        explore_rows.push(explore(&evaluator, &space, strategy, &config)?);
    }

    // --- Contention-aware co-exploration on OFDM: the static exhaustive
    //     frontier vs the 4-objective (… + p95) frontier scored by
    //     simulating the seeded standard mix on every candidate
    //     platform, for BENCH_explore_contention.json (the acceptance
    //     baseline asserted by crates/apps/tests/explore_contention.rs).
    let contention = amdrel::apps::runtime::contention_evaluator("ofdm", &platform)?;
    let contention_objectives = ObjectiveSet::parse("cycles,area,energy,p95")?;
    let shared_cache = MappingCache::new();
    let static_eval = Evaluator::new(
        &app.name,
        &app.program.cdfg,
        &app.analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    );
    let static_frontier = explore(&static_eval, &space, &Exhaustive, &config)?;
    let contention_eval = Evaluator::new(
        &app.name,
        &app.program.cdfg,
        &app.analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    )
    .with_objectives(contention_objectives)
    .with_runtime(&contention);
    let contention_frontier = explore(&contention_eval, &space, &Exhaustive, &config)?;

    // --- Runtime simulator on the seeded 3-app standard mix: one
    //     simulation per scheduling policy for BENCH_runtime.json.
    let profiles = amdrel::apps::runtime::standard_mix(&platform)?;
    let spec = WorkloadSpec::uniform(42, 400, &profiles, 130);
    let sim_jobs = spec.generate(&profiles);
    let sim = Simulation::new(&platform).profiles(&profiles);
    let runtime_rows: Vec<_> = ["fcfs", "sjf", "priority", "affinity"]
        .into_iter()
        .map(|name| {
            let policy = policy_by_name(name).expect("built-in policy");
            sim.policy(policy.as_ref()).run(&sim_jobs)
        })
        .collect();

    // --- Planet-scale runtime row: one million jobs over 32 synthetic
    //     tenants, streamed through the event-queue engine with
    //     sketched percentiles (the stream is never materialised and
    //     latency memory stays O(1) in the job count).
    let tenants = synthetic_tenants(32);
    let scaling_spec = WorkloadSpec::uniform(42, 1_000_000, &tenants, 90);
    let scaling_sim = Simulation::new(&platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);
    let scaling_report = scaling_sim.run_mix(&scaling_spec);

    // --- Sharded scaling row: the same million-job population split
    //     across 8 independent platform replicas (`Simulation::shards`)
    //     and folded back with the deterministic shard-order merge.
    let shard_count: usize = 8;
    let sharded_report = scaling_sim.shards(shard_count).run_mix(&scaling_spec);

    // --- Emit BENCH_explore.json: per-strategy evaluation counts and
    //     frontier sizes for the same seeded configuration every PR runs.
    let mut json = String::from("{\n  \"schema\": \"amdrel-explore-report/v1\",\n");
    let _ = writeln!(
        json,
        "  \"app\": \"{}\",",
        amdrel::explore::json::escape(&app.name)
    );
    let _ = writeln!(
        json,
        "  \"space\": {{ \"points\": {}, \"cells\": {}, \"constraint\": {} }},",
        space.len(),
        space.cells(),
        space.constraint
    );
    let _ = writeln!(
        json,
        "  \"config\": {{ \"seed\": {}, \"eval_budget\": {} }},",
        config.seed, config.eval_budget
    );
    json.push_str("  \"strategies\": [\n");
    for (i, r) in explore_rows.iter().enumerate() {
        let comma = if i + 1 == explore_rows.len() { "" } else { "," };
        let best = r.best_cycles().map(|p| p.cycles).unwrap_or(u64::MAX);
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"points_evaluated\": {}, \"engine_runs\": {}, \
             \"cell_hits\": {}, \"frontier\": {}, \"best_final_cycles\": {} }}{comma}",
            r.strategy,
            r.stats.points_evaluated,
            r.stats.engine_runs,
            r.stats.cell_hits,
            r.frontier.len(),
            best,
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_explore.json", &json)?;

    // --- Emit BENCH_explore_contention.json: both frontiers of the
    //     co-exploration plus the platform points only the
    //     contention-aware search surfaces.
    let frontier_row = |p: &PointEval| -> String {
        let mut row = format!(
            "{{ \"area\": {}, \"datapath\": \"{}\", \"kernels_moved\": {}, \
             \"final_cycles\": {}, \"energy\": {}",
            p.area,
            amdrel::core::json::escape(&p.datapath),
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
    };
    let static_points: std::collections::BTreeSet<_> =
        static_frontier.frontier.iter().map(|p| p.point).collect();
    let added: Vec<&PointEval> = contention_frontier
        .frontier
        .iter()
        .filter(|p| !static_points.contains(&p.point))
        .collect();
    let mut json = String::from("{\n  \"schema\": \"amdrel-explore-contention-report/v1\",\n");
    let _ = writeln!(
        json,
        "  \"app\": \"{}\",",
        amdrel::core::json::escape(&app.name)
    );
    let _ = writeln!(
        json,
        "  \"space\": {{ \"points\": {}, \"cells\": {}, \"constraint\": {} }},",
        space.len(),
        space.cells(),
        space.constraint
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"seed\": {}, \"njobs\": {}, \"load_percent\": {}, \
         \"policy\": \"{}\", \"background\": {} }},",
        contention.seed(),
        contention.njobs(),
        contention.load_percent(),
        contention.policy_name(),
        amdrel::core::json::string_array(
            &contention
                .background()
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>()
        ),
    );
    let _ = writeln!(
        json,
        "  \"objectives\": {},",
        amdrel::core::json::string_array(&contention_frontier.objectives)
    );
    let _ = writeln!(
        json,
        "  \"effort\": {{ \"engine_runs\": {}, \"sim_runs\": {} }},",
        contention_frontier.stats.engine_runs, contention_frontier.stats.sim_runs
    );
    for (key, frontier) in [
        ("static_frontier", &static_frontier.frontier),
        ("contention_frontier", &contention_frontier.frontier),
    ] {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, p) in frontier.iter().enumerate() {
            let comma = if i + 1 == frontier.len() { "" } else { "," };
            let _ = writeln!(json, "    {}{comma}", frontier_row(p));
        }
        json.push_str("  ],\n");
    }
    let _ = writeln!(json, "  \"added_platform_points\": [");
    for (i, p) in added.iter().enumerate() {
        let comma = if i + 1 == added.len() { "" } else { "," };
        let _ = writeln!(json, "    {}{comma}", frontier_row(p));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_explore_contention.json", &json)?;

    // --- Emit BENCH_runtime.json: the servable-workload baseline on the
    //     seeded 3-app mix, per policy, plus the million-job scaling row.
    let mut json = String::from("{\n  \"schema\": \"amdrel-runtime-report/v6\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"seed\": {}, \"jobs\": {}, \"mean_interarrival\": {}, \"apps\": [{}] }},",
        spec.seed,
        spec.jobs,
        spec.mean_interarrival,
        profiles
            .iter()
            .map(|p| format!("\"{}\"", amdrel::core::json::escape(&p.name)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("  \"policies\": [\n");
    for (i, r) in runtime_rows.iter().enumerate() {
        let comma = if i + 1 == runtime_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
             \"jobs_per_mcycle\": {:.4}, \"p50_latency\": {}, \"p95_latency\": {}, \
             \"reconfig_loads\": {}, \"reconfig_stall_cycles\": {}, \"stall_share\": {:.4}, \
             \"fpga_utilization\": {:.4}, \"cgc_utilization\": {:.4} }}{comma}",
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
        );
    }
    json.push_str("  ],\n");
    // The reliability row: the same seeded 400-job mix played under FCFS
    // with the deterministic fault layer injecting on every channel at
    // 30 permille and graceful degradation on, so CI can gate the
    // recovery invariants (availability in (0, 1], goodput <= raw
    // throughput, salvage accounting consistent with what was injected).
    let fault_rate: u16 = 30;
    let faults = FaultSpec::uniform(7, fault_rate);
    let recovery = RecoveryPolicy {
        degrade: true,
        ..RecoveryPolicy::default()
    };
    let fcfs = policy_by_name("fcfs").expect("built-in policy");
    let faulted = sim
        .policy(fcfs.as_ref())
        .faults(faults)
        .recovery(recovery)
        .run(&sim_jobs);
    let rel = &faulted.reliability;
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
    // The floorplan row: the same seeded 400-job mix under affinity,
    // once with streamed full-fabric loads and once under the 4-region
    // partial-reconfiguration plan, so CI can gate the placement win
    // (region stall share strictly below streamed) and pin the
    // deterministic fragmentation statistics.
    let affinity = policy_by_name("affinity").expect("built-in policy");
    let affinity_sim = sim.policy(affinity.as_ref());
    let streamed_report = affinity_sim.run(&sim_jobs);
    let region_plan = RegionPlan::new(
        &profiles,
        &FabricGrid::uniform(platform.fpga.usable_area(), 4),
    );
    let region_report = affinity_sim.regions(&region_plan).run(&sim_jobs);
    let frag = region_plan.stats();
    let _ = writeln!(
        json,
        "  \"floorplan\": {{ \"regions\": {}, \"policy\": \"{}\", \
         \"streamed_loads\": {}, \"streamed_stall_cycles\": {}, \"streamed_stall_share\": {:.4}, \
         \"region_loads\": {}, \"region_stall_cycles\": {}, \"region_stall_share\": {:.4}, \
         \"placement_failures\": {}, \"internal_fragmentation_permille\": {}, \
         \"external_fragmentation_permille\": {}, \"worst_region_permille\": {} }},",
        region_plan.regions(),
        streamed_report.policy,
        streamed_report.reconfig_loads,
        streamed_report.reconfig_stall_cycles,
        streamed_report.stall_share(),
        region_report.reconfig_loads,
        region_report.reconfig_stall_cycles,
        region_report.stall_share(),
        frag.placement_failures(),
        frag.internal_permille(),
        frag.external_permille(),
        frag.worst_region_permille(),
    );
    // The scaling row: the million-job streamed run.
    let _ = writeln!(
        json,
        "  \"scaling\": {{ \"tenants\": {}, \"jobs\": {}, \"seed\": {}, \
         \"mean_interarrival\": {}, \"load_percent\": 90, \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\" }},",
        tenants.len(),
        scaling_spec.jobs,
        scaling_spec.seed,
        scaling_spec.mean_interarrival,
        scaling_report.policy,
        scaling_report.completed(),
        scaling_report.rejected(),
        scaling_report.makespan,
        scaling_report.p50_latency,
        scaling_report.p95_latency,
        scaling_report.latency_source.as_str(),
    );
    // The sharded row: the scaling workload under `--shards 8`.
    // `completed` / `rejected` / `latency_source` / `busy_cycles` are
    // shard-count-invariant and CI asserts they match the scaling row;
    // makespan and the percentiles are deterministic but belong to the
    // 8-replica scenario (tenants on different shards no longer
    // contend).
    let _ = writeln!(
        json,
        "  \"sharded\": {{ \"shards\": {shard_count}, \"tenants\": {}, \"jobs\": {}, \
         \"seed\": {}, \"mean_interarrival\": {}, \"load_percent\": 90, \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\", \
         \"busy_cycles\": {} }}",
        tenants.len(),
        scaling_spec.jobs,
        scaling_spec.seed,
        scaling_spec.mean_interarrival,
        sharded_report.policy,
        sharded_report.completed(),
        sharded_report.rejected(),
        sharded_report.makespan,
        sharded_report.p50_latency,
        sharded_report.p95_latency,
        sharded_report.latency_source.as_str(),
        sharded_report.fpga_busy_cycles + sharded_report.cgc_busy_cycles,
    );
    json.push_str("}\n");
    std::fs::write("BENCH_runtime.json", &json)?;

    println!("wrote BENCH_explore.json, BENCH_explore_contention.json and BENCH_runtime.json");
    Ok(())
}
