//! Acceptance test for contention-aware co-exploration: on the seeded
//! standard mix, the Pareto frontier with a runtime objective (`p95`)
//! enabled contains at least one platform point the static 3-objective
//! frontier does not — i.e. simulating multi-tenant load genuinely
//! changes which platforms the methodology recommends. The same seeded
//! configuration is what `bench_report` records in the committed
//! `BENCH_explore_contention.json`.

use amdrel_apps::{ofdm, runtime as apps_runtime};
use amdrel_core::{EnergyModel, MappingCache, Platform};
use amdrel_explore::{
    explore, Evaluator, Exhaustive, ExploreConfig, ExploreReport, ObjectiveSet, PointIdx,
};
use std::collections::BTreeSet;

/// Run the exhaustive exploration of the OFDM design space, statically
/// or with the `p95` contention objective enabled.
fn explore_ofdm(contention: bool) -> ExploreReport {
    let workload = ofdm::workload(apps_runtime::PROFILE_SEED);
    let app = workload.analyze().unwrap();
    let base = Platform::paper(1500, 2);
    let cache = MappingCache::new();
    let runtime = apps_runtime::contention_evaluator("ofdm", &base).unwrap();
    let mut eval = Evaluator::new(
        &workload.name,
        &app.program.cdfg,
        &app.analysis,
        &base,
        EnergyModel::default(),
        &cache,
    );
    if contention {
        eval = eval
            .with_objectives(ObjectiveSet::parse("cycles,area,energy,p95").unwrap())
            .with_runtime(&runtime);
    }
    explore(
        &eval,
        &ofdm::design_space(),
        &Exhaustive,
        &ExploreConfig::default(),
    )
    .unwrap()
}

fn points(report: &ExploreReport) -> BTreeSet<PointIdx> {
    report.frontier.iter().map(|p| p.point).collect()
}

#[test]
fn contention_aware_frontier_adds_platform_points() {
    let static_report = explore_ofdm(false);
    let contention_report = explore_ofdm(true);

    assert_eq!(static_report.objectives, ["cycles", "area", "energy"]);
    assert_eq!(
        contention_report.objectives,
        ["cycles", "area", "energy", "p95"]
    );
    assert_eq!(
        contention_report.stats.sim_runs, 216,
        "one seeded simulation per design point"
    );

    // Adding an objective never deletes a static trade-off: every
    // (cycles, area, energy) triple of the static frontier is still
    // represented.
    for p in &static_report.frontier {
        assert!(
            contention_report
                .frontier
                .iter()
                .any(|q| (q.cycles, q.area, q.energy_total())
                    == (p.cycles, p.area, p.energy_total())),
            "static trade-off {:?} lost under contention objectives",
            p.point
        );
    }

    // THE acceptance criterion: the contention-aware frontier includes
    // at least one platform point absent from the static frontier —
    // a platform that only pays off once multi-tenant load is priced.
    let added: Vec<PointIdx> = points(&contention_report)
        .difference(&points(&static_report))
        .copied()
        .collect();
    assert!(
        !added.is_empty(),
        "contention objectives changed nothing:\nstatic:\n{}\ncontention:\n{}",
        static_report.format_table(),
        contention_report.format_table()
    );
    assert!(
        contention_report.frontier.len() > static_report.frontier.len(),
        "contention frontier should widen ({} vs {})",
        contention_report.frontier.len(),
        static_report.frontier.len()
    );

    // Every added point carries real contention metrics.
    for p in &contention_report.frontier {
        let c = p.contention.expect("runtime objective scored");
        assert!(c.completed > 0, "simulation completed work");
        assert_eq!(p.objectives.values()[3], c.p95_latency);
    }
}

#[test]
fn contention_exploration_is_seed_deterministic() {
    let a = explore_ofdm(true);
    let b = explore_ofdm(true);
    assert_eq!(a.frontier, b.frontier, "same seed, same frontier");
    assert_eq!(a.stats, b.stats, "same seed, same effort");
}
