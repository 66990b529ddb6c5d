//! Replay every deterministic field of the committed `BENCH_*.json`
//! baselines straight from library calls — not through the CLI and not
//! through `examples/bench_report.rs` — so a drift in any committed
//! number (or in the simulator behind it) fails here with the exact
//! field named. The files hold no wall-clock field: timing lives in
//! `perfbench/`.
//!
//! The committed files are hand-emitted JSON with a fixed shape and
//! the workspace has no JSON parsing dependency, so field access here
//! is a small brace-matching extractor rather than a full parser.

use amdrel::prelude::*;
use amdrel_bench::{ofdm_prepared, synthetic_tenants};

fn load(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/").to_owned() + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The balanced `{...}` or `[...]` prefix of `s`.
fn balanced(s: &str, open: char, close: char) -> &str {
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return &s[..=i];
            }
        }
    }
    panic!("unbalanced {open}{close} in: {s:.60}…");
}

/// The object or array value of the first `"key":` in `json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no section '{key}'"));
    let rest = json[at + pat.len()..].trim_start();
    match rest.chars().next() {
        Some('{') => balanced(rest, '{', '}'),
        Some('[') => balanced(rest, '[', ']'),
        other => panic!("section '{key}' starts with {other:?}, not an object or array"),
    }
}

/// The top-level objects inside a `[...]` section, in order.
fn objects_in(array: &str) -> Vec<&str> {
    let mut rows = Vec::new();
    let mut rest = &array[1..array.len() - 1];
    while let Some(at) = rest.find('{') {
        let row = balanced(&rest[at..], '{', '}');
        rows.push(row);
        rest = &rest[at + row.len()..];
    }
    rows
}

/// The raw value token of scalar `"key":` inside one object.
fn raw<'a>(obj: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = obj
        .find(&pat)
        .unwrap_or_else(|| panic!("no field '{key}' in: {obj:.80}…"));
    let rest = &obj[at + pat.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim()
}

/// The string elements of a flat `[...]` array, in order.
fn strings_in(array: &str) -> Vec<&str> {
    array[1..array.len() - 1]
        .split(',')
        .map(|s| s.trim().trim_matches('"'))
        .filter(|s| !s.is_empty())
        .collect()
}

fn u64_field(obj: &str, key: &str) -> u64 {
    raw(obj, key)
        .parse()
        .unwrap_or_else(|e| panic!("field '{key}' = {}: {e}", raw(obj, key)))
}

fn str_field<'a>(obj: &'a str, key: &str) -> &'a str {
    raw(obj, key).trim_matches('"')
}

/// Assert a committed float field matches `value` under the exact
/// format string `bench_report` wrote it with.
#[track_caller]
fn assert_formatted(obj: &str, key: &str, formatted: String) {
    assert_eq!(raw(obj, key), formatted, "field '{key}' drifted");
}

/// The standard 3-app mix and 400-job spec behind the runtime rows.
fn standard_setup() -> (Platform, Vec<AppProfile>, WorkloadSpec) {
    let platform = Platform::paper(1500, 2);
    let profiles = amdrel::apps::runtime::standard_mix(&platform).expect("standard mix builds");
    let spec = WorkloadSpec::uniform(42, 400, &profiles, 130);
    (platform, profiles, spec)
}

#[test]
fn bench_runtime_policy_rows_replay_from_the_library() {
    let json = load("BENCH_runtime.json");
    assert_eq!(str_field(&json, "schema"), "amdrel-runtime-report/v6");
    for key in ["_per_sec", "throughput_ratio", "scale_up", "agg_speedup"] {
        assert!(
            !json.contains(key),
            "v6 carries no wall-clock field: found '{key}'"
        );
    }
    let (platform, profiles, spec) = standard_setup();
    let workload = section(&json, "workload");
    assert_eq!(u64_field(workload, "seed"), spec.seed);
    assert_eq!(u64_field(workload, "jobs"), spec.jobs as u64);
    assert_eq!(
        u64_field(workload, "mean_interarrival"),
        spec.mean_interarrival
    );
    let apps: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(strings_in(section(workload, "apps")), apps);
    let jobs = spec.generate(&profiles);
    let sim = Simulation::new(&platform).profiles(&profiles);
    let rows = objects_in(section(&json, "policies"));
    assert_eq!(rows.len(), 4);
    for row in rows {
        let name = str_field(row, "name");
        let policy = policy_by_name(name).expect("committed policy exists");
        let r = sim.policy(policy.as_ref()).run(&jobs);
        assert_eq!(u64_field(row, "completed"), r.completed(), "policy {name}");
        assert_eq!(u64_field(row, "rejected"), r.rejected(), "policy {name}");
        assert_eq!(u64_field(row, "makespan"), r.makespan, "policy {name}");
        assert_eq!(
            u64_field(row, "p50_latency"),
            r.p50_latency,
            "policy {name}"
        );
        assert_eq!(
            u64_field(row, "p95_latency"),
            r.p95_latency,
            "policy {name}"
        );
        assert_eq!(
            u64_field(row, "reconfig_loads"),
            r.reconfig_loads,
            "policy {name}"
        );
        assert_eq!(
            u64_field(row, "reconfig_stall_cycles"),
            r.reconfig_stall_cycles,
            "policy {name}"
        );
        assert_formatted(
            row,
            "jobs_per_mcycle",
            format!("{:.4}", r.jobs_per_mcycle()),
        );
        assert_formatted(row, "stall_share", format!("{:.4}", r.stall_share()));
        assert_formatted(
            row,
            "fpga_utilization",
            format!("{:.4}", r.fpga_utilization()),
        );
        assert_formatted(
            row,
            "cgc_utilization",
            format!("{:.4}", r.cgc_utilization()),
        );
    }
}

#[test]
fn bench_runtime_reliability_row_replays_from_the_library() {
    let json = load("BENCH_runtime.json");
    let row = section(&json, "reliability");
    let (platform, profiles, spec) = standard_setup();
    let jobs = spec.generate(&profiles);
    let faults = FaultSpec::uniform(
        u64_field(row, "fault_seed"),
        u64_field(row, "fault_rate_permille") as u16,
    );
    let recovery = RecoveryPolicy {
        max_retries: u64_field(row, "max_retries") as u32,
        degrade: raw(row, "degrade") == "true",
        ..RecoveryPolicy::default()
    };
    let policy = policy_by_name(str_field(row, "policy")).unwrap();
    let r = Simulation::new(&platform)
        .profiles(&profiles)
        .policy(policy.as_ref())
        .faults(faults)
        .recovery(recovery)
        .run(&jobs);
    let rel = &r.reliability;
    assert_eq!(u64_field(row, "injected"), rel.injected);
    assert_eq!(u64_field(row, "load_failures"), rel.load_failures);
    assert_eq!(u64_field(row, "fabric_kills"), rel.fabric_kills);
    assert_eq!(u64_field(row, "slot_outages"), rel.slot_outages);
    assert_eq!(u64_field(row, "retries"), rel.retries);
    assert_eq!(u64_field(row, "degraded"), rel.degraded);
    assert_eq!(u64_field(row, "aborted"), rel.aborted);
    assert_eq!(u64_field(row, "deadline_misses"), rel.deadline_misses);
    assert_eq!(u64_field(row, "completed"), r.completed());
    assert_eq!(u64_field(row, "makespan"), r.makespan);
    assert_formatted(row, "availability", format!("{:.4}", r.availability()));
    assert_formatted(
        row,
        "goodput_jobs_per_mcycle",
        format!("{:.4}", r.goodput_jobs_per_mcycle()),
    );
    assert_formatted(
        row,
        "throughput_jobs_per_mcycle",
        format!("{:.4}", r.throughput_jobs_per_mcycle()),
    );
}

#[test]
fn bench_runtime_floorplan_row_replays_from_the_library() {
    let json = load("BENCH_runtime.json");
    let row = section(&json, "floorplan");
    let (platform, profiles, spec) = standard_setup();
    let jobs = spec.generate(&profiles);
    let policy = policy_by_name(str_field(row, "policy")).unwrap();
    let sim = Simulation::new(&platform)
        .profiles(&profiles)
        .policy(policy.as_ref());
    let streamed = sim.run(&jobs);
    let plan = RegionPlan::new(
        &profiles,
        &FabricGrid::uniform(platform.fpga.usable_area(), 4),
    );
    let regioned = sim.regions(&plan).run(&jobs);
    assert_eq!(u64_field(row, "regions"), plan.regions() as u64);
    assert_eq!(u64_field(row, "streamed_loads"), streamed.reconfig_loads);
    assert_eq!(
        u64_field(row, "streamed_stall_cycles"),
        streamed.reconfig_stall_cycles
    );
    assert_formatted(
        row,
        "streamed_stall_share",
        format!("{:.4}", streamed.stall_share()),
    );
    assert_eq!(u64_field(row, "region_loads"), regioned.reconfig_loads);
    assert_eq!(
        u64_field(row, "region_stall_cycles"),
        regioned.reconfig_stall_cycles
    );
    assert_formatted(
        row,
        "region_stall_share",
        format!("{:.4}", regioned.stall_share()),
    );
    let frag = plan.stats();
    assert_eq!(
        u64_field(row, "placement_failures"),
        frag.placement_failures()
    );
    assert_eq!(
        u64_field(row, "internal_fragmentation_permille"),
        frag.internal_permille()
    );
    assert_eq!(
        u64_field(row, "external_fragmentation_permille"),
        frag.external_permille()
    );
    assert_eq!(
        u64_field(row, "worst_region_permille"),
        frag.worst_region_permille()
    );
}

#[test]
fn bench_runtime_scaling_and_sharded_rows_replay_from_the_library() {
    let json = load("BENCH_runtime.json");
    let scaling = section(&json, "scaling");
    let sharded = section(&json, "sharded");
    let platform = Platform::paper(1500, 2);
    let tenants = synthetic_tenants(u64_field(scaling, "tenants") as usize);
    let spec = WorkloadSpec::uniform(
        u64_field(scaling, "seed"),
        u64_field(scaling, "jobs") as usize,
        &tenants,
        u64_field(scaling, "load_percent"),
    );
    assert_eq!(
        u64_field(scaling, "mean_interarrival"),
        spec.mean_interarrival
    );
    let sim = Simulation::new(&platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);
    let r = sim.run_mix(&spec);
    assert_eq!(str_field(scaling, "policy"), r.policy);
    assert_eq!(u64_field(scaling, "completed"), r.completed());
    assert_eq!(u64_field(scaling, "rejected"), r.rejected());
    assert_eq!(u64_field(scaling, "makespan"), r.makespan);
    assert_eq!(u64_field(scaling, "p50_latency"), r.p50_latency);
    assert_eq!(u64_field(scaling, "p95_latency"), r.p95_latency);
    assert_eq!(
        str_field(scaling, "latency_source"),
        r.latency_source.as_str()
    );

    // The sharded row replays from its own workload fields.
    let k = u64_field(sharded, "shards") as usize;
    assert!(k >= 2, "the sharded row must actually shard");
    let sharded_tenants = synthetic_tenants(u64_field(sharded, "tenants") as usize);
    let sharded_spec = WorkloadSpec::uniform(
        u64_field(sharded, "seed"),
        u64_field(sharded, "jobs") as usize,
        &sharded_tenants,
        u64_field(sharded, "load_percent"),
    );
    assert_eq!(
        u64_field(sharded, "mean_interarrival"),
        sharded_spec.mean_interarrival
    );
    let s = Simulation::new(&platform)
        .profiles(&sharded_tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched)
        .shards(k)
        .run_mix(&sharded_spec);
    assert_eq!(str_field(sharded, "policy"), s.policy);
    assert_eq!(u64_field(sharded, "completed"), s.completed());
    assert_eq!(u64_field(sharded, "rejected"), s.rejected());
    assert_eq!(u64_field(sharded, "makespan"), s.makespan);
    assert_eq!(u64_field(sharded, "p50_latency"), s.p50_latency);
    assert_eq!(u64_field(sharded, "p95_latency"), s.p95_latency);
    assert_eq!(
        str_field(sharded, "latency_source"),
        s.latency_source.as_str()
    );
    assert_eq!(
        u64_field(sharded, "busy_cycles"),
        s.fpga_busy_cycles + s.cgc_busy_cycles
    );
    // The merge invariants the sharded row is committed to document.
    assert_eq!(s.completed(), r.completed());
    assert_eq!(s.rejected(), r.rejected());
    assert_eq!(s.latency_source, r.latency_source);
    assert_eq!(
        s.fpga_busy_cycles + s.cgc_busy_cycles,
        r.fpga_busy_cycles + r.cgc_busy_cycles,
        "sharding must conserve busy cycles"
    );
}

#[test]
fn bench_explore_strategy_rows_replay_from_the_library() {
    let json = load("BENCH_explore.json");
    assert_eq!(str_field(&json, "schema"), "amdrel-explore-report/v1");
    let app = ofdm_prepared();
    assert_eq!(str_field(&json, "app"), app.name);
    let space = ofdm::design_space();
    let header = section(&json, "space");
    assert_eq!(u64_field(header, "points"), space.len() as u64);
    assert_eq!(u64_field(header, "cells"), space.cells() as u64);
    assert_eq!(u64_field(header, "constraint"), space.constraint);
    let cfg_row = section(&json, "config");
    let config = ExploreConfig {
        seed: u64_field(cfg_row, "seed"),
        eval_budget: u64_field(cfg_row, "eval_budget") as usize,
        jobs: 0,
    };
    let platform = Platform::paper(1500, 2);
    for row in objects_in(section(&json, "strategies")) {
        let name = str_field(row, "name");
        let strategy: Box<dyn SearchStrategy> = match name {
            "exhaustive" => Box::new(Exhaustive),
            "random" => Box::new(RandomSampling),
            "sa" => Box::new(SimulatedAnnealing::default()),
            other => panic!("unknown committed strategy '{other}'"),
        };
        let cache = MappingCache::new();
        let evaluator = Evaluator::new(
            &app.name,
            &app.program.cdfg,
            &app.analysis,
            &platform,
            EnergyModel::default(),
            &cache,
        );
        let r = explore(&evaluator, &space, strategy.as_ref(), &config).expect("search runs");
        assert_eq!(
            u64_field(row, "points_evaluated"),
            r.stats.points_evaluated,
            "strategy {name}"
        );
        assert_eq!(
            u64_field(row, "engine_runs"),
            r.stats.engine_runs,
            "strategy {name}"
        );
        assert_eq!(
            u64_field(row, "cell_hits"),
            r.stats.cell_hits,
            "strategy {name}"
        );
        assert_eq!(
            u64_field(row, "frontier"),
            r.frontier.len() as u64,
            "strategy {name}"
        );
        let best = r.best_cycles().map(|p| p.cycles).unwrap_or(u64::MAX);
        assert_eq!(u64_field(row, "best_final_cycles"), best, "strategy {name}");
    }
}

#[test]
fn bench_explore_contention_frontiers_replay_from_the_library() {
    let json = load("BENCH_explore_contention.json");
    assert_eq!(
        str_field(&json, "schema"),
        "amdrel-explore-contention-report/v1"
    );
    let app = ofdm_prepared();
    assert_eq!(str_field(&json, "app"), app.name);
    let platform = Platform::paper(1500, 2);
    let contention =
        amdrel::apps::runtime::contention_evaluator("ofdm", &platform).expect("evaluator builds");
    let wl = section(&json, "workload");
    assert_eq!(u64_field(wl, "seed"), contention.seed());
    assert_eq!(u64_field(wl, "njobs"), contention.njobs() as u64);
    assert_eq!(u64_field(wl, "load_percent"), contention.load_percent());
    assert_eq!(str_field(wl, "policy"), contention.policy_name());
    let background: Vec<&str> = contention
        .background()
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert_eq!(strings_in(section(wl, "background")), background);
    let space = ofdm::design_space();
    let header = section(&json, "space");
    assert_eq!(u64_field(header, "points"), space.len() as u64);
    assert_eq!(u64_field(header, "cells"), space.cells() as u64);
    assert_eq!(u64_field(header, "constraint"), space.constraint);
    let config = ExploreConfig {
        seed: 42,
        eval_budget: 64,
        jobs: 0,
    };
    let objectives = ObjectiveSet::parse("cycles,area,energy,p95").unwrap();
    let shared_cache = MappingCache::new();
    let static_eval = Evaluator::new(
        &app.name,
        &app.program.cdfg,
        &app.analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    );
    let static_frontier = explore(&static_eval, &space, &Exhaustive, &config).unwrap();
    let contention_eval = Evaluator::new(
        &app.name,
        &app.program.cdfg,
        &app.analysis,
        &platform,
        EnergyModel::default(),
        &shared_cache,
    )
    .with_objectives(objectives)
    .with_runtime(&contention);
    let contention_frontier = explore(&contention_eval, &space, &Exhaustive, &config).unwrap();
    assert_eq!(
        strings_in(section(&json, "objectives")),
        contention_frontier.objectives
    );
    // The contention-frontier points the static frontier lacks.
    let static_points: Vec<PointIdx> = static_frontier.frontier.iter().map(|p| p.point).collect();
    let added: Vec<PointEval> = contention_frontier
        .frontier
        .iter()
        .filter(|p| !static_points.contains(&p.point))
        .cloned()
        .collect();
    let effort = section(&json, "effort");
    assert_eq!(
        u64_field(effort, "engine_runs"),
        contention_frontier.stats.engine_runs
    );
    assert_eq!(
        u64_field(effort, "sim_runs"),
        contention_frontier.stats.sim_runs
    );
    for (key, frontier) in [
        ("static_frontier", &static_frontier.frontier),
        ("contention_frontier", &contention_frontier.frontier),
        ("added_platform_points", &added),
    ] {
        let rows = objects_in(section(&json, key));
        assert_eq!(rows.len(), frontier.len(), "{key} size drifted");
        for (row, p) in rows.iter().zip(frontier) {
            assert_eq!(u64_field(row, "area"), p.area, "{key}");
            assert_eq!(str_field(row, "datapath"), p.datapath, "{key}");
            assert_eq!(
                u64_field(row, "kernels_moved"),
                p.kernels_moved as u64,
                "{key}"
            );
            assert_eq!(u64_field(row, "final_cycles"), p.cycles, "{key}");
            assert_eq!(u64_field(row, "energy"), p.energy_total(), "{key}");
            if let Some(c) = &p.contention {
                assert_eq!(u64_field(row, "p95_latency"), c.p95_latency, "{key}");
                assert_eq!(u64_field(row, "cycles_per_job"), c.cycles_per_job, "{key}");
            }
        }
    }
}
