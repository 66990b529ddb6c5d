//! Property tests for the Pareto archive invariants — at the classic
//! 3-objective arity and at higher N — plus determinism tests for the
//! seeded strategies (bit-identical frontiers across runs and `jobs`
//! settings) and a differential test pinning the refactored N-vector
//! archive to a naive fixed-3-tuple oracle.

use amdrel_coarsegrain::CgcDatapath;
use amdrel_core::{EnergyBreakdown, EnergyModel, MappingCache, Platform};
use amdrel_explore::{
    explore, DesignSpace, Evaluator, Exhaustive, ExploreConfig, Insert, Objectives, ParetoArchive,
    PointEval, PointIdx, RandomSampling, SearchStrategy, SimulatedAnnealing,
};
use amdrel_profiler::AnalysisReport;
use proptest::prelude::*;

/// A synthetic evaluated point over an arbitrary objective vector;
/// `tag` differentiates point indices so objective-identical points
/// exercise the tie-break path.
fn synthetic_n(values: Vec<u64>, tag: usize) -> PointEval {
    let cycles = values.first().copied().unwrap_or(1);
    PointEval {
        point: PointIdx {
            area: tag % 7,
            datapath: tag / 7 % 5,
            budget: tag,
        },
        area: values.get(1).copied().unwrap_or(1000),
        datapath: "two 2x2 CGCs".to_owned(),
        kernels_moved: tag,
        initial_cycles: cycles.max(1) * 2,
        cycles,
        energy: EnergyBreakdown {
            e_fpga_ops: values.get(2).copied().unwrap_or(0),
            e_reconfig: 0,
            e_cgc_ops: 0,
            e_comm: 0,
        },
        contention: None,
        objectives: Objectives::new(values),
        met: true,
    }
}

fn synthetic(cycles: u64, area: u64, energy: u64, tag: usize) -> PointEval {
    synthetic_n(vec![cycles, area, energy], tag)
}

/// Small objective ranges force plenty of domination and exact ties.
/// (The vendored proptest has no `collection::vec`, so the list is
/// expanded from a generated seed via the workspace RNG.)
fn expand_points(seed: u64, n: usize) -> Vec<(u64, u64, u64)> {
    let mut rng = amdrel_core::rng::SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.below(12), rng.below(12), rng.below(12)))
        .collect()
}

/// N-dimensional variant of [`expand_points`].
fn expand_vectors(seed: u64, n: usize, arity: usize) -> Vec<Vec<u64>> {
    let mut rng = amdrel_core::rng::SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.below(9)).collect())
        .collect()
}

proptest! {
    /// No archive member ever dominates another.
    #[test]
    fn archive_members_are_mutually_nondominated(seed in any::<u64>(), n in 1usize..120) {
        let pts = expand_points(seed, n);
        let mut archive = ParetoArchive::new();
        for (i, &(c, a, e)) in pts.iter().enumerate() {
            archive.insert(synthetic(c, a, e, i));
        }
        let frontier = archive.frontier();
        for p in frontier {
            for q in frontier {
                prop_assert!(
                    p == q || !p.objectives.dominates(&q.objectives),
                    "{:?} dominates {:?}", p.objectives, q.objectives
                );
            }
        }
    }

    /// Inserting a point dominated by (or duplicating) the archive is a
    /// no-op, and the frontier matches a from-scratch computation over
    /// the whole input set, regardless of insertion order.
    #[test]
    fn archive_is_a_pure_set_function(seed in any::<u64>(), n in 1usize..120) {
        let pts = expand_points(seed, n);
        let mut forward = ParetoArchive::new();
        for (i, &(c, a, e)) in pts.iter().enumerate() {
            let before = forward.clone();
            match forward.insert(synthetic(c, a, e, i)) {
                Insert::Dominated | Insert::Duplicate => {
                    prop_assert_eq!(&before, &forward, "rejection must not mutate");
                }
                Insert::Added => {}
            }
        }
        let mut reversed = ParetoArchive::new();
        for (i, &(c, a, e)) in pts.iter().enumerate().rev() {
            reversed.insert(synthetic(c, a, e, i));
        }
        let fw: Vec<_> = forward.frontier().iter().map(|p| &p.objectives).collect();
        let rv: Vec<_> = reversed.frontier().iter().map(|p| &p.objectives).collect();
        prop_assert_eq!(fw, rv, "insertion order changed the frontier");
    }

    /// At any objective arity, the frontier is a pure function of the
    /// inserted *set*: forward, reversed and interleaved insertion
    /// orders produce identical frontiers, in identical iteration
    /// order, and members stay mutually non-dominated.
    #[test]
    fn n_objective_frontier_is_insertion_order_independent(
        seed in any::<u64>(),
        n in 1usize..90,
        arity in 1usize..7,
    ) {
        let pts = expand_vectors(seed, n, arity);
        let mut forward = ParetoArchive::new();
        for (i, v) in pts.iter().enumerate() {
            forward.insert(synthetic_n(v.clone(), i));
        }
        let mut reversed = ParetoArchive::new();
        for (i, v) in pts.iter().enumerate().rev() {
            reversed.insert(synthetic_n(v.clone(), i));
        }
        // An "inside-out" interleaving: odd indices first, then even.
        let mut interleaved = ParetoArchive::new();
        for (i, v) in pts.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            interleaved.insert(synthetic_n(v.clone(), i));
        }
        for (i, v) in pts.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            interleaved.insert(synthetic_n(v.clone(), i));
        }
        prop_assert_eq!(forward.frontier(), reversed.frontier());
        prop_assert_eq!(forward.frontier(), interleaved.frontier());
        for p in forward.frontier() {
            prop_assert_eq!(p.objectives.len(), arity);
            for q in forward.frontier() {
                prop_assert!(p == q || !p.objectives.dominates(&q.objectives));
            }
        }
    }

    /// Pruning keeps a subset of the frontier, never exceeds the bound,
    /// and retains each objective's minimiser — at any arity.
    #[test]
    fn pruning_keeps_the_frontier(
        seed in any::<u64>(),
        n in 1usize..120,
        max in 3usize..10,
        arity in 2usize..6,
    ) {
        let pts = expand_vectors(seed, n, arity);
        let mut archive = ParetoArchive::new();
        for (i, v) in pts.iter().enumerate() {
            archive.insert(synthetic_n(v.clone(), i));
        }
        let full: Vec<PointEval> = archive.frontier().to_vec();
        archive.prune_to(max);
        prop_assert!(archive.len() <= max);
        prop_assert!(archive.len() == full.len().min(max));
        for p in archive.frontier() {
            prop_assert!(full.contains(p), "pruning invented a point");
        }
        // Per-objective minimisers are guaranteed only when the cap can
        // hold one extreme per objective (below that, prune_to keeps the
        // first `max` extremes in sorted order — documented degeneracy).
        if arity <= max {
            for obj in 0..arity {
                let best = full.iter().map(|p| p.objectives.values()[obj]).min().unwrap();
                prop_assert!(
                    archive.frontier().iter().any(|p| p.objectives.values()[obj] == best),
                    "objective {obj} minimiser lost"
                );
            }
        }
    }

    /// Differential oracle for the 3-objective path: the N-vector
    /// archive produces exactly the frontier a naive fixed-3-tuple
    /// implementation computes over the same input set, so the
    /// generalisation left the classic `(cycles, area, energy)`
    /// behaviour bit-identical.
    #[test]
    fn three_objective_path_matches_fixed_tuple_oracle(seed in any::<u64>(), n in 1usize..120) {
        let pts = expand_points(seed, n);
        let mut archive = ParetoArchive::new();
        for (i, &(c, a, e)) in pts.iter().enumerate() {
            archive.insert(synthetic(c, a, e, i));
        }
        let oracle = oracle_frontier(&pts);
        let got: Vec<[u64; 3]> = archive
            .frontier()
            .iter()
            .map(|p| {
                let v = p.objectives.values();
                [v[0], v[1], v[2]]
            })
            .collect();
        prop_assert_eq!(got, oracle, "N-vector archive diverged from the 3-tuple oracle");
    }
}

/// The pre-refactor semantics, restated from scratch over `[u64; 3]`:
/// keep every tuple no other tuple dominates, dedupe exact ties, sort
/// ascending.
fn oracle_frontier(pts: &[(u64, u64, u64)]) -> Vec<[u64; 3]> {
    let tuples: Vec<[u64; 3]> = pts.iter().map(|&(c, a, e)| [c, a, e]).collect();
    let dominates = |x: &[u64; 3], y: &[u64; 3]| x.iter().zip(y).all(|(a, b)| a <= b) && x != y;
    let mut frontier: Vec<[u64; 3]> = tuples
        .iter()
        .filter(|t| !tuples.iter().any(|o| dominates(o, t)))
        .copied()
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    frontier
}

fn toy() -> (amdrel_minic::CompiledProgram, AnalysisReport) {
    let src = r#"
        int data[96];
        int out[96];
        int main() {
            int acc = 0;
            for (int i = 0; i < 96; i++) {
                int x = data[i];
                out[i] = x * x * 9 + x * 5 + 1;
                acc += out[i];
            }
            return acc;
        }
    "#;
    let app = amdrel_core::analyze(src, &[]).unwrap();
    (app.program, app.analysis)
}

fn space() -> DesignSpace {
    DesignSpace {
        areas: vec![1200, 1500, 2500, 5000],
        datapaths: vec![CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
        max_kernel_budget: 3,
        constraint: 3_000,
    }
}

/// How the test evaluator prices points.
#[derive(Debug, Clone, Copy)]
enum Scorer {
    /// The static `(cycles, area, energy)` triple.
    Static,
    /// `(cycles, area, energy, p95, throughput)` against a synthetic
    /// background tenant.
    Contention,
    /// The benchmark's exploration scenario on the same tenant: 30‰
    /// faults on every channel, a deadline of 20 mean inter-arrival gaps,
    /// degradation and 4-region reconfiguration, priced on the
    /// reliability objectives too.
    Faulted,
}

impl Scorer {
    fn objectives(self) -> Option<&'static str> {
        match self {
            Scorer::Static => None,
            Scorer::Contention => Some("cycles,area,energy,p95,throughput"),
            Scorer::Faulted => Some("cycles,area,energy,p95,p95_under_faults,degraded_share"),
        }
    }

    fn runtime(self) -> amdrel_explore::RuntimeEvaluator {
        use amdrel_runtime::{
            AppProfile, FaultSpec, RecoveryPolicy, ShortestJobFirst, WorkloadSpec,
        };
        let background = vec![AppProfile::synthetic("bg", 0, 7_000, 1_500, vec![450])];
        let arrival = WorkloadSpec::mean_interarrival_for(&background, 125);
        let runtime = amdrel_explore::RuntimeEvaluator::new(background, Box::new(ShortestJobFirst))
            .with_seed(99)
            .with_njobs(40)
            .with_load(125);
        match self {
            Scorer::Static | Scorer::Contention => runtime,
            Scorer::Faulted => runtime
                .with_arrival(arrival)
                .with_faults(FaultSpec {
                    deadline: std::num::NonZeroU64::new(20 * arrival),
                    ..FaultSpec::uniform(99, 30)
                })
                .with_recovery(RecoveryPolicy {
                    degrade: true,
                    ..RecoveryPolicy::default()
                })
                .with_region_reconfig(4),
        }
    }
}

/// Run `strategy` on a fresh evaluator/cache and return the report.
/// With `warm`, a seeded random sample of 8 points first explores the
/// same evaluator on one thread, leaving some cells and scores memoised.
fn run_on(
    strategy: &dyn SearchStrategy,
    seed: u64,
    jobs: usize,
    scorer: Scorer,
    warm: bool,
) -> amdrel_explore::ExploreReport {
    let (c, a) = toy();
    let base = Platform::paper(1500, 2);
    let cache = MappingCache::new();
    let runtime = scorer.runtime();
    let mut eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
    if let Some(objectives) = scorer.objectives() {
        eval = eval
            .with_objectives(amdrel_explore::ObjectiveSet::parse(objectives).unwrap())
            .with_runtime(&runtime);
    }
    let config = |jobs, eval_budget| ExploreConfig {
        seed,
        eval_budget,
        jobs,
    };
    if warm {
        explore(&eval, &space(), &RandomSampling, &config(1, 8)).unwrap();
    }
    explore(&eval, &space(), strategy, &config(jobs, 32)).unwrap()
}

fn run_once_with(
    strategy: &dyn SearchStrategy,
    seed: u64,
    jobs: usize,
    scorer: Scorer,
) -> amdrel_explore::ExploreReport {
    run_on(strategy, seed, jobs, scorer, false)
}

fn run_once(
    strategy: &dyn SearchStrategy,
    seed: u64,
    jobs: usize,
) -> amdrel_explore::ExploreReport {
    run_once_with(strategy, seed, jobs, Scorer::Static)
}

/// A fixed seed reproduces bit-identical frontiers and effort across runs
/// and across `jobs` settings, for every strategy — under the static
/// triple, the 5-objective contention-aware vector and the faulted
/// 4-region scenario, on a cold evaluator and on one a previous search
/// left partly warm.
#[test]
fn seeded_strategies_are_deterministic_across_runs_and_jobs() {
    let strategies: [&dyn SearchStrategy; 3] =
        [&Exhaustive, &RandomSampling, &SimulatedAnnealing::default()];
    for scorer in [Scorer::Static, Scorer::Contention, Scorer::Faulted] {
        for warm in [false, true] {
            for strategy in strategies {
                let reference = run_on(strategy, 42, 1, scorer, warm);
                for jobs in [0usize, 1, 2, 4] {
                    for _ in 0..2 {
                        let report = run_on(strategy, 42, jobs, scorer, warm);
                        let at = format!(
                            "strategy {} at jobs={jobs} ({scorer:?}, warm={warm})",
                            strategy.name()
                        );
                        assert_eq!(report.frontier, reference.frontier, "{at}: frontier");
                        assert_eq!(report.stats, reference.stats, "{at}: effort");
                    }
                }
            }
        }
    }
}

/// Different seeds may walk different trajectories (sanity check that the
/// seed is actually consumed) while each remains self-consistent.
#[test]
fn seed_changes_the_sampling_trajectory() {
    let a = run_once(&RandomSampling, 1, 0);
    let b = run_once(&RandomSampling, 2, 0);
    // Same space, same exact frontier is *possible* but the evaluation
    // pattern should differ; engine runs are a robust proxy.
    assert!(
        a.stats != b.stats || a.frontier != b.frontier,
        "two seeds produced identical trajectories"
    );
}

/// Every SA frontier point is a real point of the space, so it is either
/// on the exhaustive frontier (identical objectives) or dominated by an
/// exhaustive frontier member — SA can never "invent" a better point.
#[test]
fn sa_frontier_is_consistent_with_exhaustive() {
    let exhaustive = run_once(&Exhaustive, 42, 0);
    let sa = run_once(&SimulatedAnnealing::default(), 42, 0);
    assert!(!sa.frontier.is_empty());
    for p in &sa.frontier {
        assert!(
            exhaustive
                .frontier
                .iter()
                .any(|q| q.objectives == p.objectives || q.objectives.dominates(&p.objectives)),
            "SA point {:?} is neither on nor below the exhaustive frontier",
            p.objectives
        );
    }
}

/// Adding objectives can only widen a frontier: every `(cycles, area,
/// energy)` triple on the static exhaustive frontier is still
/// represented on the 5-objective contention-aware exhaustive frontier.
/// (Point identity can legitimately shift — of two points with an
/// identical static triple, the one with better contention metrics now
/// wins — but no static trade-off is lost.)
#[test]
fn contention_frontier_contains_the_static_frontier() {
    let static_report = run_once_with(&Exhaustive, 42, 0, Scorer::Static);
    let contention_report = run_once_with(&Exhaustive, 42, 0, Scorer::Contention);
    assert!(contention_report.frontier.len() >= static_report.frontier.len());
    for p in &static_report.frontier {
        assert!(
            contention_report
                .frontier
                .iter()
                .any(|q| (q.cycles, q.area, q.energy_total())
                    == (p.cycles, p.area, p.energy_total())),
            "static frontier triple for {:?} vanished under extra objectives",
            p.point
        );
    }
    for q in &contention_report.frontier {
        assert_eq!(q.objectives.len(), 5);
        assert!(q.contention.is_some(), "contention metrics attached");
    }
}
