//! End-to-end exploration of the case studies — including the PR's
//! acceptance criterion: seeded simulated annealing on OFDM finds an
//! exhaustive-grid optimum with measurably fewer engine evaluations.

use amdrel_apps::{ofdm, paper, sobel};
use amdrel_core::{EnergyModel, MappingCache, Platform};
use amdrel_explore::{
    explore, DesignSpace, Evaluator, Exhaustive, ExploreConfig, ExploreReport, RandomSampling,
    SimulatedAnnealing,
};
use amdrel_profiler::{AnalysisReport, WeightTable};

/// The OFDM application as the authors measured it: a synthetic CDFG
/// carrying the exact Table 1 `exec_freq`/`bb_weight` profile.
fn ofdm_profile() -> (amdrel_cdfg::Cdfg, AnalysisReport) {
    let profile = paper::synthesize_profile(&paper::OFDM_TABLE1, 44);
    let analysis =
        AnalysisReport::analyze(&profile.cdfg, &profile.exec_freq, &WeightTable::paper());
    (profile.cdfg, analysis)
}

fn run_ofdm(
    strategy_report: impl FnOnce(&Evaluator<'_>, &DesignSpace) -> ExploreReport,
) -> ExploreReport {
    let (cdfg, analysis) = ofdm_profile();
    let base = Platform::paper(1500, 2);
    let cache = MappingCache::new();
    let eval = Evaluator::new(
        "OFDM transmitter",
        &cdfg,
        &analysis,
        &base,
        EnergyModel::default(),
        &cache,
    );
    let space = ofdm::design_space();
    strategy_report(&eval, &space)
}

#[test]
fn sa_finds_an_exhaustive_optimum_with_fewer_evaluations() {
    let exhaustive = run_ofdm(|eval, space| {
        explore(eval, space, &Exhaustive, &ExploreConfig::default()).unwrap()
    });
    // `amdrel explore --strategy sa --seed 42` equivalent.
    let sa = run_ofdm(|eval, space| {
        explore(
            eval,
            space,
            &SimulatedAnnealing::default(),
            &ExploreConfig {
                seed: 42,
                eval_budget: 64,
                jobs: 0,
            },
        )
        .unwrap()
    });

    assert!(!sa.frontier.is_empty(), "SA produced an empty frontier");

    // SA recovers the exhaustive optimum for at least one objective.
    let matches_optimum = [
        (
            sa.best_cycles().map(|p| p.cycles),
            exhaustive.best_cycles().map(|p| p.cycles),
        ),
        (
            sa.best_area().map(|p| p.area),
            exhaustive.best_area().map(|p| p.area),
        ),
        (
            sa.best_energy().map(|p| p.energy_total()),
            exhaustive.best_energy().map(|p| p.energy_total()),
        ),
    ]
    .iter()
    .filter(|(got, want)| got.is_some() && got == want)
    .count();
    assert!(
        matches_optimum >= 1,
        "SA missed every exhaustive optimum:\nSA:\n{}\nexhaustive:\n{}",
        sa.format_table(),
        exhaustive.format_table()
    );

    // ... while doing measurably less work.
    assert!(
        sa.stats.engine_runs < exhaustive.stats.engine_runs,
        "SA ran the engine {} times, exhaustive only {}",
        sa.stats.engine_runs,
        exhaustive.stats.engine_runs
    );
    assert!(
        sa.stats.points_evaluated < exhaustive.stats.points_evaluated,
        "SA evaluated {} points, exhaustive {}",
        sa.stats.points_evaluated,
        exhaustive.stats.points_evaluated
    );
    assert_eq!(
        exhaustive.stats.engine_runs as usize,
        ofdm::design_space().cells(),
        "exhaustive runs the engine once per cell"
    );
}

#[test]
fn random_sampling_on_ofdm_is_reasonable() {
    let random = run_ofdm(|eval, space| {
        explore(
            eval,
            space,
            &RandomSampling,
            &ExploreConfig {
                seed: 7,
                eval_budget: 48,
                jobs: 0,
            },
        )
        .unwrap()
    });
    assert!(!random.frontier.is_empty());
    assert_eq!(random.stats.points_evaluated, 48);
    // Every frontier point is a real, consistently-priced OFDM point.
    for p in &random.frontier {
        assert!(p.cycles <= p.initial_cycles);
        assert!(p.speedup() >= 1.0);
    }
}

/// Pre/post-refactor differential anchor: the exhaustive row of the
/// committed `BENCH_explore.json` (the cycle optimum on the compiled
/// OFDM workload and its frontier size, recorded before the N-objective
/// generalisation) replays from library calls, evidence the static
/// 3-objective path stayed bit-identical through the refactor.
#[test]
fn exhaustive_optimum_matches_the_committed_prerefactor_baseline() {
    let bench = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_explore.json"
    ))
    .expect("committed BENCH_explore.json");
    let row = amdrel_bench::baselines::explore_strategy_row(&Exhaustive);
    assert!(
        bench
            .lines()
            .any(|line| line.trim_start().trim_end_matches(',') == row),
        "exhaustive optimum drifted from the committed pre-refactor baseline: \
         BENCH_explore.json holds no row\n  {row}"
    );
}

#[test]
fn paper_configurations_sit_in_the_explored_space() {
    // The paper's four Table 2 cells are all members of the OFDM space,
    // so exhaustive exploration subsumes the published experiment.
    let space = ofdm::design_space();
    assert_eq!(space.constraint, paper::OFDM_CONSTRAINT);
    for &area in &[1500u64, 5000] {
        assert!(space.areas.contains(&area), "missing paper area {area}");
    }
    let described: Vec<String> = space.datapaths.iter().map(|d| d.describe()).collect();
    for want in ["two 2x2 CGCs", "three 2x2 CGCs"] {
        assert!(described.iter().any(|d| d == want), "missing {want}");
    }
}

#[test]
fn sobel_design_space_carries_the_callers_constraint() {
    let space = sobel::design_space(12_345);
    assert_eq!(space.constraint, 12_345);
    assert!(!space.is_empty());
    assert_eq!(space.len(), space.cells() * space.budgets());
}
