//! Cross-crate integration: the full flow on the JPEG encoder (64×64
//! image for speed — same code structure as the paper's 256×256).

use amdrel::prelude::*;

const DIM: usize = 64;

fn prepared() -> (amdrel_minic::CompiledProgram, AnalysisReport) {
    let app = jpeg::workload(DIM, 7)
        .analyze()
        .expect("JPEG compiles and runs");
    (app.program, app.analysis)
}

/// The paper's constraint scaled from 256×256 to our image area.
fn constraint() -> u64 {
    paper::JPEG_CONSTRAINT * (DIM * DIM) as u64 / (256 * 256) as u64
}

#[test]
fn encoder_is_bit_exact_against_reference() {
    let w = jpeg::workload(DIM, 99);
    let execution = w.analyze().expect("runs").execution;
    let expected = jpeg::encode(&w.inputs[0].1, DIM);
    assert_eq!(execution.return_value, Some(expected.bit_count));
    let bits = execution.global("bitstream").expect("bitstream global");
    assert_eq!(&bits[..expected.bit_count as usize], &expected.bits[..]);
}

#[test]
fn dct_blocks_dominate_the_kernel_ranking() {
    let (_, analysis) = prepared();
    // The two fast-DCT bodies (row and column pass) must appear among the
    // top four kernels with the paper's characteristic frequency
    // (blocks × 8 = (dim/8)² × 8).
    let expected_freq = ((DIM / 8) * (DIM / 8) * 8) as u64;
    let top: Vec<_> = analysis.top_kernels(4);
    let dct_like = top
        .iter()
        .filter(|b| b.exec_freq == expected_freq && b.bb_weight > 80)
        .count();
    assert!(
        dct_like >= 2,
        "expected the two DCT passes in the top-4, got {top:?}"
    );
}

#[test]
fn paper_configs_meet_scaled_constraint() {
    let (program, analysis) = prepared();
    for area in [1500u64, 5000] {
        for cgcs in [2usize, 3] {
            let platform = Platform::paper(area, cgcs);
            let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
                .run(constraint())
                .expect("engine runs");
            assert!(
                r.met,
                "A={area}, {cgcs} CGCs must meet the scaled constraint (got {} > {})",
                r.final_cycles(),
                constraint()
            );
        }
    }
}

#[test]
fn jpeg_area_sensitivity_matches_paper_direction() {
    let (program, analysis) = prepared();
    let small = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(1500, 2))
        .run(u64::MAX)
        .expect("engine runs");
    let large = PartitioningEngine::new(&program.cdfg, &analysis, &Platform::paper(5000, 2))
        .run(u64::MAX)
        .expect("engine runs");
    let ratio = small.initial_cycles as f64 / large.initial_cycles as f64;
    // Paper's JPEG ratio: 18434/12399 = 1.49.
    assert!(
        (1.15..=2.2).contains(&ratio),
        "initial-cycle area ratio {ratio:.2} far from the paper's 1.49"
    );
}

#[test]
fn moved_kernels_are_a_prefix_of_the_ranking() {
    let (program, analysis) = prepared();
    let platform = Platform::paper(1500, 3);
    let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(constraint())
        .expect("engine runs");
    let moved = r.moved_blocks();
    assert!(!moved.is_empty());
    assert_eq!(&moved[..], &analysis.kernels()[..moved.len()]);
}

#[test]
fn breakdown_components_are_all_live() {
    // After partitioning, all three eq. (2) terms must be non-zero: work
    // remains on the FPGA, kernels run on the CGC datapath, and data
    // crosses the shared memory.
    let (program, analysis) = prepared();
    let platform = Platform::paper(1500, 3);
    let r = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
        .run(constraint())
        .expect("engine runs");
    assert!(r.breakdown.t_fpga > 0, "t_FPGA");
    assert!(r.breakdown.t_coarse > 0, "t_coarse");
    assert!(r.breakdown.t_comm > 0, "t_comm");
    assert_eq!(
        r.final_cycles(),
        r.breakdown.t_fpga + r.breakdown.t_coarse + r.breakdown.t_comm
    );
}
