//! Integration tests for the paper-extension features: frame pipelining,
//! energy-constrained partitioning, and the third (Sobel) case study
//! flowing through the full methodology.

use amdrel::apps::sobel;
use amdrel::prelude::*;
use amdrel_core::{partition_for_energy, pipeline_report, EnergyModel, Stage};

fn ofdm_partitioned() -> amdrel_core::PartitionResult {
    let w = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = w.analyze().expect("runs");
    PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 3))
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs")
}

#[test]
fn pipelining_the_partitioned_ofdm_increases_throughput() {
    let result = ofdm_partitioned();
    let report = pipeline_report(&result.breakdown, 100);
    assert!(report.speedup() > 1.0);
    assert!(report.pipelined_cycles < report.sequential_cycles);
    assert!(report.interval >= result.breakdown.t_fpga);
    assert!(report.interval >= result.breakdown.t_coarse + result.breakdown.t_comm);
    // The bottleneck stage runs at full utilisation.
    match report.bottleneck {
        Stage::FineGrain => assert!((report.fpga_utilization - 1.0).abs() < 1e-9),
        Stage::CoarseGrain => assert!((report.cgc_utilization - 1.0).abs() < 1e-9),
    }
}

#[test]
fn energy_partitioning_of_ofdm_beats_all_fpga() {
    let w = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = w.analyze().expect("runs");
    let platform = Platform::paper(1500, 3);
    let model = EnergyModel::default();
    let floor = partition_for_energy(&program.cdfg, &analysis, &platform, &model, 0)
        .expect("energy engine runs");
    assert!(floor.energy.total() < floor.initial.total());
    assert!(floor.reduction_percent() > 50.0);
    // Energy trace decreases monotonically (moves that don't pay are
    // skipped by construction).
    let mut last = floor.initial.total();
    for m in &floor.moves {
        assert!(m.energy.total() < last);
        last = m.energy.total();
    }
}

#[test]
fn timing_and_energy_engines_can_disagree() {
    // The two objectives need not pick identical kernel sets: energy
    // weighs reconfiguration escape, timing weighs cycle counts. Verify
    // both produce valid (possibly different) assignments on OFDM.
    let w = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = w.analyze().expect("runs");
    let platform = Platform::paper(1500, 3);
    let timing = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    let energy = partition_for_energy(
        &program.cdfg,
        &analysis,
        &platform,
        &EnergyModel::default(),
        0,
    )
    .expect("energy engine runs");
    assert_eq!(timing.assignment.len(), energy.assignment.len());
    // Both must have moved the top kernel (it dominates both objectives).
    let top = analysis.kernels()[0];
    assert_eq!(timing.assignment[top.index()], Assignment::CoarseGrain);
    assert_eq!(energy.assignment[top.index()], Assignment::CoarseGrain);
}

#[test]
fn sobel_flows_through_the_complete_methodology() {
    let w = sobel::workload(48, 11);
    let Analyzed {
        program, analysis, ..
    } = w.analyze().expect("runs");
    // End-to-end with a constraint at half the all-FPGA time.
    let platform = Platform::paper(1500, 2);
    let initial = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(u64::MAX)
        .expect("engine runs")
        .initial_cycles;
    let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(initial / 2)
        .expect("engine runs");
    assert!(r.met, "halving Sobel's runtime must be achievable");
    assert!(!r.moves.is_empty());
    // And the pipelined throughput exceeds sequential further.
    let p = pipeline_report(&r.breakdown, 50);
    assert!(p.speedup() >= 1.0);
}
