//! Ablations of the partitioning flow, asserted: what each modelling
//! choice is worth on the paper's two applications (OFDM at its paper
//! workload, JPEG at 64×64, both seeded 2004). Each test pins the
//! direction of one finding — chaining, communication cost, scheduler
//! priority, FPGA area, CGC count, energy budgets and reconfiguration
//! accounting — so a change that flips a conclusion fails here.

use amdrel::coarsegrain::{schedule_dfg, CdfgCoarseGrainMapping};
use amdrel::core::{partition_for_energy, OpEnergyTable};
use amdrel::prelude::*;
use amdrel_bench::{jpeg_small_prepared, ofdm_prepared, Prepared};
use std::sync::OnceLock;

fn ofdm_app() -> &'static Prepared {
    static APP: OnceLock<Prepared> = OnceLock::new();
    APP.get_or_init(ofdm_prepared)
}

fn jpeg_app() -> &'static Prepared {
    static APP: OnceLock<Prepared> = OnceLock::new();
    APP.get_or_init(jpeg_small_prepared)
}

/// Coarse-grain cycles of every kernel of `app` on `datapath`
/// (`Σ cycles_per_exec × exec_freq` over the kernels).
fn kernel_coarse_cycles(app: &Prepared, datapath: &CgcDatapath, config: &SchedulerConfig) -> u64 {
    let exec_freq: Vec<u64> = app.analysis.blocks().iter().map(|b| b.exec_freq).collect();
    let mapping =
        CdfgCoarseGrainMapping::map(&app.program.cdfg, datapath, config).expect("kernels map");
    let kernels = app.analysis.kernels();
    mapping.t_coarse(&exec_freq, |i| kernels.contains(&BlockId(i as u32)))
}

fn partition(app: &Prepared, platform: &Platform, constraint: u64) -> PartitionResult {
    PartitioningEngine::new(&app.program.cdfg, &app.analysis, platform)
        .run(constraint)
        .expect("engine runs")
}

#[test]
fn chaining_off_is_strictly_slower_on_both_apps() {
    let on = SchedulerConfig {
        chaining: true,
        ..SchedulerConfig::default()
    };
    let off = SchedulerConfig {
        chaining: false,
        ..on
    };
    let cases = [
        (ofdm_app(), CgcDatapath::two_2x2(), (18_078, 20_906)),
        (ofdm_app(), CgcDatapath::three_2x2(), (17_598, 20_906)),
        (jpeg_app(), CgcDatapath::two_2x2(), (123_219, 140_061)),
        (jpeg_app(), CgcDatapath::three_2x2(), (120_915, 137_757)),
    ];
    for (app, datapath, expected) in cases {
        let with = kernel_coarse_cycles(app, &datapath, &on);
        let without = kernel_coarse_cycles(app, &datapath, &off);
        let case = format!("{} on {}", app.name, datapath.describe());
        assert!(
            with < without,
            "{case}: chaining must pay ({with} vs {without})"
        );
        assert_eq!((with, without), expected, "{case}");
    }
}

#[test]
fn communication_cost_raises_cycles_and_breaks_the_constraint() {
    let app = ofdm_app();
    let mut previous = None;
    for cycles_per_word in [0u64, 1, 2, 4, 8, 16, 32] {
        let platform = Platform::paper(1500, 3).with_comm(CommModel {
            cycles_per_word,
            setup_cycles: 2,
        });
        let faithful = partition(app, &platform, paper::OFDM_CONSTRAINT);
        let skipping = PartitioningEngine::new(&app.program.cdfg, &app.analysis, &platform)
            .with_config(EngineConfig {
                skip_unprofitable: true,
            })
            .run(paper::OFDM_CONSTRAINT)
            .expect("engine runs");
        let cycles = faithful.final_cycles();
        if let Some(previous) = previous {
            assert!(
                cycles > previous,
                "{cycles_per_word} cycles/word: {cycles} not above {previous}"
            );
        }
        previous = Some(cycles);
        assert!(
            skipping.final_cycles() <= cycles,
            "{cycles_per_word} cycles/word: skipping unprofitable moves made it worse \
             ({} vs {cycles})",
            skipping.final_cycles()
        );
        assert_eq!(
            faithful.met,
            cycles_per_word <= 1,
            "{cycles_per_word} cycles/word: {cycles} against {}",
            paper::OFDM_CONSTRAINT
        );
    }
}

#[test]
fn longest_path_priority_never_loses_to_fifo() {
    let kernel_cycles = |app: &Prepared, priority: Priority| -> u64 {
        let config = SchedulerConfig {
            chaining: true,
            priority,
        };
        let datapath = CgcDatapath::two_2x2();
        app.analysis
            .kernels()
            .iter()
            .map(|&k| {
                let dfg = &app.program.cdfg.block(k).dfg;
                let length = schedule_dfg(dfg, &datapath, &config)
                    .expect("kernel schedules")
                    .length();
                length * app.analysis.block(k).exec_freq
            })
            .sum()
    };
    for (app, expected) in [
        (ofdm_app(), (18_078, 18_558)),
        (jpeg_app(), (123_219, 124_243)),
    ] {
        let longest = kernel_cycles(app, Priority::LongestPath);
        let fifo = kernel_cycles(app, Priority::Fifo);
        assert!(longest <= fifo, "{}: {longest} vs {fifo}", app.name);
        assert_eq!((longest, fifo), expected, "{}", app.name);
    }
}

#[test]
fn ofdm_needs_partitioning_at_every_fpga_area() {
    let app = ofdm_app();
    let mut previous = u64::MAX;
    let mut floor = u64::MAX;
    for area in [1200u64, 1500, 2500, 5000, 10_000, 20_000, 40_000, 80_000] {
        let r = partition(app, &Platform::paper(area, 3), paper::OFDM_CONSTRAINT);
        assert!(
            r.initial_cycles <= previous,
            "A={area}: more area made the all-FPGA mapping slower ({} vs {previous})",
            r.initial_cycles
        );
        previous = r.initial_cycles;
        floor = floor.min(r.initial_cycles);
        // No area is large enough for the all-FPGA mapping to meet the
        // constraint on its own: the flow never exits at step 2.
        assert!(!r.met_without_partitioning, "A={area}");
        assert!(r.met, "A={area}: partitioning must meet the constraint");
    }
    assert_eq!(floor, 111_098, "the all-FPGA floor");
    assert!(floor > paper::OFDM_CONSTRAINT);
}

#[test]
fn more_cgcs_never_slow_either_app() {
    for app in [ofdm_app(), jpeg_app()] {
        let mut previous = u64::MAX;
        for cgcs in [1usize, 2, 3, 4, 6] {
            let datapath = CgcDatapath::uniform(cgcs, CgcGeometry::TWO_BY_TWO);
            let cycles = kernel_coarse_cycles(app, &datapath, &SchedulerConfig::default());
            assert!(
                cycles <= previous,
                "{} with {cgcs} 2x2 CGCs: {cycles} vs {previous}",
                app.name
            );
            previous = cycles;
        }
    }
}

#[test]
fn tighter_energy_budgets_take_more_moves_and_are_met() {
    let app = ofdm_app();
    let platform = Platform::paper(1500, 3);
    let model = EnergyModel::default();
    let energy = |model: &EnergyModel, budget: u64| {
        partition_for_energy(&app.program.cdfg, &app.analysis, &platform, model, budget)
            .expect("energy engine runs")
    };
    let floor = energy(&model, 0);
    let ceiling = floor.initial.total();
    let floor_energy = floor.energy.total();
    let mut moves = 0;
    for percent in [95u64, 80, 60, 40, 20, 5] {
        let budget = floor_energy + (ceiling - floor_energy) * percent / 100;
        let r = energy(&model, budget);
        assert!(r.met, "budget {budget} ({percent}% of the headroom) missed");
        assert!(
            r.moves.len() >= moves,
            "budget {budget}: {} moves after {moves}",
            r.moves.len()
        );
        moves = r.moves.len();
    }

    // Cheaper CGC operations (the default CGC per-op energies divided by
    // 1, 2, 4, 8 and 16, each floored at one unit) never raise the final
    // energy of the move-everything-that-pays partition.
    let mut previous = u64::MAX;
    for divisor in [1u64, 2, 4, 8, 16] {
        let model = EnergyModel {
            cgc: OpEnergyTable {
                alu: 8 / divisor.min(8),
                mul: 40 / divisor.min(40),
                div: 160 / divisor.min(160),
                mem: 12,
            },
            ..EnergyModel::default()
        };
        let total = energy(&model, 0).energy.total();
        assert!(
            total <= previous,
            "CGC energy / {divisor}: {total} vs {previous}"
        );
        previous = total;
    }
}

#[test]
fn resident_bitstreams_never_cost_more_than_per_execution_loads() {
    for (app, constraint) in [
        (ofdm_app(), paper::OFDM_CONSTRAINT),
        (jpeg_app(), paper::JPEG_CONSTRAINT / 16),
    ] {
        for area in [1500u64, 5000] {
            let initial = |policy| {
                let mut platform = Platform::paper(area, 3);
                platform.fpga.reconfig_policy = policy;
                partition(app, &platform, constraint).initial_cycles
            };
            let resident = initial(ReconfigPolicy::Resident);
            let per_execution = initial(ReconfigPolicy::PerExecution);
            assert!(
                resident <= per_execution,
                "{} at A={area}: {resident} vs {per_execution}",
                app.name
            );
        }
    }
}
