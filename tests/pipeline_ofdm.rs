//! Cross-crate integration: the full Figure 2 flow on the OFDM
//! transmitter, checked against the paper's Table 2 shape.

use amdrel::prelude::*;
use amdrel_coarsegrain::CgcDatapath;

fn prepared() -> (amdrel_minic::CompiledProgram, AnalysisReport) {
    let app = ofdm::workload(2004)
        .analyze()
        .expect("OFDM compiles and runs");
    (app.program, app.analysis)
}

#[test]
fn all_four_paper_configs_meet_the_constraint() {
    let (program, analysis) = prepared();
    for area in [1500u64, 5000] {
        for cgcs in [2usize, 3] {
            let platform = Platform::paper(area, cgcs);
            let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
                .run(paper::OFDM_CONSTRAINT)
                .expect("engine runs");
            assert!(
                r.met,
                "A={area}, {cgcs} CGCs must meet 60000 cycles (got {})",
                r.final_cycles()
            );
            assert!(!r.met_without_partitioning, "all-FPGA must violate 60000");
        }
    }
}

#[test]
fn initial_cycles_shrink_with_fpga_area() {
    let (program, analysis) = prepared();
    let small = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 2))
        .run(u64::MAX)
        .expect("engine runs");
    let large = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(5000, 2))
        .run(u64::MAX)
        .expect("engine runs");
    assert!(
        large.initial_cycles < small.initial_cycles,
        "paper: larger FPGA exploits parallelism better ({} !< {})",
        large.initial_cycles,
        small.initial_cycles
    );
    // The paper's ratio is 2.12; ours must at least be clearly > 1.3.
    let ratio = small.initial_cycles as f64 / large.initial_cycles as f64;
    assert!(ratio > 1.3, "area sensitivity too weak: ratio {ratio:.2}");
}

#[test]
fn reduction_decreases_with_fpga_area() {
    // "as the FPGA area grows, the reduction of clock cycles is smaller".
    let (program, analysis) = prepared();
    let r1500 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 3))
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    let r5000 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(5000, 3))
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    assert!(r1500.reduction_percent() > r5000.reduction_percent());
}

#[test]
fn reduction_lands_in_paper_bands() {
    let (program, analysis) = prepared();
    // Paper: 78.3/81.8% at A=1500, 54.1/62.5% at A=5000. Allow generous
    // bands: the substrate characterisation is ours, the shape is theirs.
    let r1500 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 3))
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    let red = r1500.reduction_percent();
    assert!(
        (65.0..=92.0).contains(&red),
        "A=1500 reduction {red:.1}% outside the paper's regime"
    );
    let r5000 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(5000, 3))
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    let red = r5000.reduction_percent();
    assert!(
        (40.0..=75.0).contains(&red),
        "A=5000 reduction {red:.1}% outside the paper's regime"
    );
}

#[test]
fn first_move_is_the_heaviest_kernel_and_trace_is_monotone() {
    let (program, analysis) = prepared();
    let platform = Platform::paper(1500, 3);
    let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(1) // impossible constraint: full trace
        .expect("engine runs");
    assert_eq!(r.moves[0].kernel, analysis.kernels()[0]);
    // eq. (2) identity at every step.
    for m in &r.moves {
        assert_eq!(
            m.breakdown.t_total(),
            m.breakdown.t_fpga + m.breakdown.t_coarse + m.breakdown.t_comm
        );
    }
    // Moving the heaviest kernels first: the first move produces the
    // single largest drop in the whole trace.
    let drops: Vec<i128> = std::iter::once(r.initial_cycles as i128)
        .chain(r.moves.iter().map(|m| m.breakdown.t_total() as i128))
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| w[0] - w[1])
        .collect();
    let first = drops[0];
    assert!(
        drops.iter().all(|&d| d <= first),
        "first move must be the biggest win"
    );
}

#[test]
fn three_cgcs_never_slower_than_two() {
    let (program, analysis) = prepared();
    let r2 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 2))
        .run(1)
        .expect("engine runs");
    let r3 = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 3))
        .run(1)
        .expect("engine runs");
    assert!(r3.breakdown.t_coarse_cgc <= r2.breakdown.t_coarse_cgc);
}

#[test]
fn grid_and_engine_agree() {
    let (program, analysis) = prepared();
    let base = Platform::paper(1500, 2);
    let spec = GridSpec {
        app: "ofdm",
        cdfg: &program.cdfg,
        analysis: &analysis,
        base: &base,
        areas: &[1500, 5000],
        datapaths: &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
        constraint: paper::OFDM_CONSTRAINT,
    };
    let grid = run_grid(&spec, &MappingCache::new(), 1).expect("grid runs");
    assert_eq!(grid.cells.len(), 4);
    let direct = PartitioningEngine::new(&program.cdfg, &analysis, &base)
        .run(paper::OFDM_CONSTRAINT)
        .expect("engine runs");
    assert_eq!(grid.cells[0].result, direct);
    let table = format_paper_table(&grid);
    assert!(table.contains("Initial cycles"));
    assert!(table.contains("% cycles reduction"));
}
