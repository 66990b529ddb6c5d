//! Machine-readable perf baseline: run the engine/sweep micro-benchmarks
//! and write `BENCH_engine.json` with the mean ns per operation, one
//! seeded exploration per search strategy into `BENCH_explore.json` with
//! its effort counters, the static-vs-contention co-exploration
//! frontiers into `BENCH_explore_contention.json` (including the
//! platform points only the contention-aware search surfaces), and one
//! seeded 3-app runtime simulation per scheduling policy into
//! `BENCH_runtime.json` (simulated throughput, latency percentiles,
//! reconfiguration-stall share, wall-clock simulation speed, one
//! fault-injected reliability row for the recovery invariants, and one
//! floorplan row comparing region-granular partial reconfiguration
//! against streamed full-fabric loads), so the
//! perf, search-efficiency and servable-workload trajectories can all
//! be tracked PR over PR (and checked in CI without the full bench
//! harness). Each file's schema and regression signatures are
//! documented in `docs/BENCHMARKS.md`.
//!
//! Run with: `cargo run --release --example bench_report`

use amdrel::prelude::*;
use amdrel_bench::{synthetic_app, synthetic_tenants};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Mean wall-clock ns of `routine` over a short fixed budget (one warm-up
/// call, then as many timed iterations as fit in ~200 ms).
fn measure<O>(mut routine: impl FnMut() -> O) -> (f64, u64) {
    const BUDGET: Duration = Duration::from_millis(200);
    std::hint::black_box(routine());
    let start = Instant::now();
    let mut iters: u64 = 0;
    while start.elapsed() < BUDGET || iters == 0 {
        std::hint::black_box(routine());
        iters += 1;
    }
    (start.elapsed().as_nanos() as f64 / iters as f64, iters)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report: Vec<(String, f64, u64)> = Vec::new();

    // --- Engine move loop on the OFDM case study (warm mapping cache).
    let workload = ofdm::workload(2004);
    let program = compile(&workload.source, "main")?;
    let execution = Interpreter::new(&program.ir).run(&workload.input_refs())?;
    let ofdm_analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    let platform = Platform::paper(1500, 2);
    let cache = MappingCache::new();
    let engine = PartitioningEngine::new(&program.cdfg, &ofdm_analysis, &platform)
        .with_mapping_cache(&cache);
    engine.run(paper::OFDM_CONSTRAINT)?; // warm the cache
    let (ns, iters) = measure(|| engine.run(paper::OFDM_CONSTRAINT).expect("engine runs"));
    report.push(("engine/run_ofdm_a1500_c2_warm".into(), ns, iters));

    // --- Engine move loop at scale (512 synthetic kernels, all moved).
    let (cdfg, freqs) = synthetic_app(512);
    let synth_analysis = AnalysisReport::analyze(&cdfg, &freqs, &WeightTable::paper());
    let cache = MappingCache::new();
    let engine =
        PartitioningEngine::new(&cdfg, &synth_analysis, &platform).with_mapping_cache(&cache);
    let moves = engine.run(1)?.moves.len().max(1);
    let (ns, iters) = measure(|| engine.run(1).expect("engine runs"));
    report.push(("engine/move_loop_512_blocks_warm".into(), ns, iters));
    report.push((
        "engine/per_move_512_blocks_warm".into(),
        ns / moves as f64,
        iters,
    ));

    // --- Grid sweeps over the OFDM design space.
    let areas = [1200u64, 1500, 5000, 20_000];
    let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
    let spec = GridSpec {
        app: &workload.name,
        cdfg: &program.cdfg,
        analysis: &ofdm_analysis,
        base: &platform,
        areas: &areas,
        datapaths: &datapaths,
        constraint: paper::OFDM_CONSTRAINT,
    };
    let (ns, iters) = measure(|| run_grid_cached(&spec, &MappingCache::new()).expect("grid runs"));
    report.push(("sweep/run_grid_cached_cold".into(), ns, iters));
    let (ns, iters) =
        measure(|| run_grid_parallel_cached(&spec, &MappingCache::new()).expect("grid runs"));
    report.push(("sweep/run_grid_parallel_cold".into(), ns, iters));
    let warm = MappingCache::new();
    run_grid_cached(&spec, &warm)?;
    let (ns, iters) = measure(|| run_grid_cached(&spec, &warm).expect("grid runs"));
    report.push(("sweep/run_grid_warm_cache".into(), ns, iters));

    // --- Exploration strategies over the OFDM design space: one seeded
    //     run per strategy, recording effort counters and wall time for
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
            &workload.name,
            &program.cdfg,
            &ofdm_analysis,
            &platform,
            EnergyModel::default(),
            &cache,
        );
        let start = Instant::now();
        let result = explore(&evaluator, &space, strategy, &config)?;
        let wall_ns = start.elapsed().as_nanos() as f64;
        report.push((format!("explore/{}", result.strategy), wall_ns, 1));
        explore_rows.push(result);
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
        &workload.name,
        &program.cdfg,
        &ofdm_analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    );
    let static_frontier = explore(&static_eval, &space, &Exhaustive, &config)?;
    let contention_eval = Evaluator::new(
        &workload.name,
        &program.cdfg,
        &ofdm_analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    )
    .with_objectives(contention_objectives)
    .with_runtime(&contention);
    let start = Instant::now();
    let contention_frontier = explore(&contention_eval, &space, &Exhaustive, &config)?;
    report.push((
        "explore/contention_exhaustive".into(),
        start.elapsed().as_nanos() as f64,
        1,
    ));

    // --- Runtime simulator on the seeded 3-app standard mix: one
    //     simulation per scheduling policy for BENCH_runtime.json, plus
    //     a wall-clock timing of the FCFS run for the perf report.
    let sim_platform = Platform::paper(1500, 2);
    let profiles = amdrel::apps::runtime::standard_mix(&sim_platform)?;
    let spec = WorkloadSpec::uniform(42, 400, &profiles, 130);
    let sim_jobs = spec.generate(&profiles);
    let sim = Simulation::new(&sim_platform).profiles(&profiles);
    let mut runtime_rows = Vec::new();
    for name in ["fcfs", "sjf", "priority", "affinity"] {
        let policy = policy_by_name(name).expect("built-in policy");
        let run = sim.policy(policy.as_ref());
        let (wall_ns, iters) = measure(|| run.run(&sim_jobs));
        let result = run.run(&sim_jobs);
        let sim_jobs_per_sec = result.completed() as f64 * 1e9 / wall_ns;
        if name == "fcfs" {
            report.push(("runtime/fcfs_400_jobs".into(), wall_ns, iters));
        }
        runtime_rows.push((result, sim_jobs_per_sec));
    }

    // --- Planet-scale runtime row: one million jobs over 32 synthetic
    //     tenants, streamed through the event-queue engine with
    //     sketched percentiles (the stream is never materialised and
    //     latency memory stays O(1) in the job count). Timed once — at
    //     this size a single run is its own statistics.
    let tenants = synthetic_tenants(32);
    let scaling_spec = WorkloadSpec::uniform(42, 1_000_000, &tenants, 90);
    let scaling_sim = Simulation::new(&sim_platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);
    let start = Instant::now();
    let scaling_report = scaling_sim.run_mix(&scaling_spec);
    let scaling_wall_ns = start.elapsed().as_nanos() as f64;
    let scaling_jobs_per_sec = scaling_report.completed() as f64 * 1e9 / scaling_wall_ns;
    report.push(("runtime/fcfs_1m_jobs_32_tenants".into(), scaling_wall_ns, 1));

    // --- Sharded scaling row: the same million-job population split
    //     across 8 independent platform replicas (`Simulation::shards`)
    //     and folded back with the deterministic shard-order merge. The
    //     threaded wall-clock rate depends on how many cores this box
    //     has, so the committed row also records the
    //     scheduler-independent aggregate rate — each shard's
    //     subsequence timed serially through the plain engine, rates
    //     summed — which is what CI gates against the unsharded row.
    let shard_count: usize = 8;
    let scaling_jobs = scaling_spec.generate(&tenants);
    let start = Instant::now();
    let sharded_report = scaling_sim.shards(shard_count).run(&scaling_jobs);
    let sharded_wall_ns = start.elapsed().as_nanos() as f64;
    let sharded_jobs_per_sec = sharded_report.completed() as f64 * 1e9 / sharded_wall_ns;
    let mut shard_agg_jobs_per_sec = 0.0;
    for shard in 0..shard_count {
        let subset: Vec<_> = scaling_jobs
            .iter()
            .copied()
            .filter(|job| shard_of(job.app, shard_count) == shard)
            .collect();
        if subset.is_empty() {
            continue;
        }
        let start = Instant::now();
        let part = scaling_sim.run(&subset);
        shard_agg_jobs_per_sec += part.completed() as f64 * 1e9 / start.elapsed().as_nanos() as f64;
    }
    report.push(("runtime/fcfs_1m_jobs_8_shards".into(), sharded_wall_ns, 1));

    // --- Floorplanner on the standard mix's real configuration
    //     footprints: the joint 4-band placement every region-mode
    //     simulation freezes up front, timed for the perf baseline.
    let mix_footprints: Vec<Footprint> = profiles
        .iter()
        .enumerate()
        .flat_map(|(app, p)| {
            p.config
                .partition_areas
                .iter()
                .map(move |&area| Footprint::new(app, area))
        })
        .collect();
    let floorplan_grid = FabricGrid::uniform(sim_platform.fpga.usable_area(), 4);
    let (ns, iters) = measure(|| Floorplanner.place(&floorplan_grid, &mix_footprints));
    report.push(("floorplan/place_standard_mix_4_regions".into(), ns, iters));

    // --- Emit BENCH_engine.json (no serde in the offline vendor set, so
    //     the JSON is assembled by hand).
    let mut json = String::from("{\n  \"schema\": \"amdrel-bench-report/v1\",\n  \"unit\": \"mean ns per op\",\n  \"benches\": [\n");
    for (i, (name, ns, iters)) in report.iter().enumerate() {
        let comma = if i + 1 == report.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{name}\", \"mean_ns\": {ns:.1}, \"iters\": {iters} }}{comma}"
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_engine.json", &json)?;

    // --- Emit BENCH_explore.json: per-strategy evaluation counts and
    //     frontier sizes for the same seeded configuration every PR runs.
    let mut json = String::from("{\n  \"schema\": \"amdrel-explore-report/v1\",\n");
    let _ = writeln!(
        json,
        "  \"app\": \"{}\",",
        amdrel::explore::json::escape(&workload.name)
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
        amdrel::core::json::escape(&workload.name)
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
    let mut json = String::from("{\n  \"schema\": \"amdrel-runtime-report/v5\",\n");
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
    for (i, (r, sim_jobs_per_sec)) in runtime_rows.iter().enumerate() {
        let comma = if i + 1 == runtime_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
             \"jobs_per_mcycle\": {:.4}, \"p50_latency\": {}, \"p95_latency\": {}, \
             \"reconfig_loads\": {}, \"reconfig_stall_cycles\": {}, \"stall_share\": {:.4}, \
             \"fpga_utilization\": {:.4}, \"cgc_utilization\": {:.4}, \
             \"sim_jobs_per_sec\": {:.0} }}{comma}",
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
            sim_jobs_per_sec,
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
    let region_plan = RegionPlan::new(&profiles, &floorplan_grid);
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
    // The scaling row: throughput_ratio normalises the wall-clock rate to
    // the 400-job FCFS row above; scale_up is the jobs/sec-normalised
    // scale factor (jobs ratio × throughput ratio) CI asserts stays ≥100.
    let fcfs_400_jobs_per_sec = runtime_rows[0].1;
    let throughput_ratio = scaling_jobs_per_sec / fcfs_400_jobs_per_sec;
    let scale_up = (scaling_spec.jobs as f64 / spec.jobs as f64) * throughput_ratio;
    let _ = writeln!(
        json,
        "  \"scaling\": {{ \"tenants\": {}, \"jobs\": {}, \"seed\": {}, \
         \"mean_interarrival\": {}, \"load_percent\": 90, \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\", \
         \"sim_jobs_per_sec\": {:.0}, \"throughput_ratio\": {:.3}, \"scale_up\": {:.0} }},",
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
        scaling_jobs_per_sec,
        throughput_ratio,
        scale_up,
    );
    // The sharded row: the scaling workload under `--shards 8`.
    // `completed` / `rejected` / `latency_source` / `busy_cycles` are
    // shard-count-invariant and CI asserts they match the scaling row;
    // makespan and the percentiles are deterministic but belong to the
    // 8-replica scenario (tenants on different shards no longer
    // contend). `shard_agg_jobs_per_sec` is the scheduler-independent
    // throughput figure CI gates at >= 2x the scaling row's rate.
    let _ = writeln!(
        json,
        "  \"sharded\": {{ \"shards\": {shard_count}, \"tenants\": {}, \"jobs\": {}, \
         \"seed\": {}, \"mean_interarrival\": {}, \"load_percent\": 90, \"policy\": \"{}\", \
         \"completed\": {}, \"rejected\": {}, \"makespan\": {}, \
         \"p50_latency\": {}, \"p95_latency\": {}, \"latency_source\": \"{}\", \
         \"busy_cycles\": {}, \"sim_jobs_per_sec\": {:.0}, \
         \"shard_agg_jobs_per_sec\": {:.0}, \"agg_speedup\": {:.2} }}",
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
        sharded_jobs_per_sec,
        shard_agg_jobs_per_sec,
        shard_agg_jobs_per_sec / scaling_jobs_per_sec,
    );
    json.push_str("}\n");
    std::fs::write("BENCH_runtime.json", &json)?;

    println!("{:<40} {:>14} {:>10}", "bench", "mean ns/op", "iters");
    for (name, ns, iters) in &report {
        println!("{name:<40} {ns:>14.1} {iters:>10}");
    }
    println!(
        "\nwrote BENCH_engine.json, BENCH_explore.json, BENCH_explore_contention.json \
         and BENCH_runtime.json"
    );
    Ok(())
}
