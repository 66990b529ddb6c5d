//! The JPEG encoder case study.

pub mod reference;
pub mod source;

pub use reference::{dct_cos_q12, encode, quant_recip, synthetic_image, JpegOutput};
pub use source::{bitstream_capacity, jpeg_source, PAPER_DIM, QUANT_TABLE, ZIGZAG};

use crate::Workload;

/// Build the JPEG workload for a `dim × dim` synthetic image.
///
/// Use [`PAPER_DIM`] (256) to match the paper's experiments; smaller
/// multiples of 8 keep unit tests fast.
///
/// # Panics
///
/// Panics unless `dim` is a positive multiple of 8.
pub fn workload(dim: usize, seed: u64) -> Workload {
    let image = synthetic_image(dim, seed);
    Workload {
        name: format!("JPEG encoder ({dim}x{dim})"),
        source: jpeg_source(dim),
        inputs: vec![
            ("image".to_owned(), image),
            ("dct_cos".to_owned(), dct_cos_q12()),
            ("quant_recip".to_owned(), quant_recip()),
        ],
    }
}

/// The JPEG exploration entry point: the
/// [standard space](crate::standard_design_space) under the paper's
/// Table 3 timing constraint (11×10⁶ cycles).
pub fn design_space() -> amdrel_explore::DesignSpace {
    crate::standard_design_space(crate::paper::JPEG_CONSTRAINT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;

    #[test]
    fn minic_matches_reference_bit_exactly() {
        let dim = 32; // 16 blocks: fast but exercises every code path
        let w = workload(dim, 42);
        let exec = w.analyze().expect("JPEG source runs").execution;
        let expected = encode(&w.inputs[0].1, dim);
        assert_eq!(exec.return_value, Some(expected.bit_count), "bit count");
        let bits = exec.global("bitstream").unwrap();
        assert_eq!(
            &bits[..expected.bit_count as usize],
            &expected.bits[..],
            "bitstream"
        );
    }

    #[test]
    fn block_count_is_paper_scale() {
        // The paper reports 22 source-level basic blocks for its JPEG
        // code; our CDFG is the fully-inlined whole program (every call
        // site owns a copy of its callee's blocks), so the equivalent
        // scale is several dozen blocks.
        let w = workload(32, 1);
        let program = compile(&w.source, "main").unwrap();
        let n = program.cdfg.len();
        assert!(
            (15..=110).contains(&n),
            "JPEG CDFG has {n} blocks, expected paper-scale"
        );
    }

    #[test]
    fn dct_row_body_frequency_matches_paper_shape() {
        // For 256x256 the paper reports exec_freq 8192 for the hottest DCT
        // rows; at 32x32 the analogous frequency is (32/8)^2 * 8 = 128.
        let dim = 32;
        let w = workload(dim, 7);
        let exec = w.analyze().unwrap().execution;
        let expected = ((dim / 8) * (dim / 8) * 8) as u64;
        assert!(
            exec.block_counts.contains(&expected),
            "no block with frequency {expected} (row-DCT body)"
        );
    }
}
