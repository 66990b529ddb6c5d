//! Pinned compiled forms of the case studies.
//!
//! Each case study's compilation is pinned by an FNV-1a digest of its IR
//! listing and one of its CDFG in DOT form: the control side plus every
//! block's DFG. Block counts alone cannot see a changed live-out node, a
//! reordered DFG or a dropped dead instruction; these digests can, so a
//! change to the frontend's liveness, dead-code elimination or CDFG
//! conversion that moves any node shows here before it moves a
//! partition.

use amdrel_apps::{jpeg, ofdm, sobel, Workload};
use amdrel_cdfg::dot::{cdfg_to_dot, dfg_to_dot};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned compilation: the workload and its two digests.
struct Pin {
    workload: fn() -> Workload,
    listing: u64,
    dot: u64,
}

const PINS: [Pin; 4] = [
    Pin {
        workload: || ofdm::workload(42),
        listing: 0xab48_4cf6_b337_1f06,
        dot: 0x5aef_3b89_3ffc_38c3,
    },
    Pin {
        workload: || jpeg::workload(jpeg::PAPER_DIM, 42),
        listing: 0xc6e7_d63b_4997_7c69,
        dot: 0x21b3_64cb_6a87_336a,
    },
    Pin {
        workload: || jpeg::workload(64, 2004),
        listing: 0xb32e_9eff_1458_e0cc,
        dot: 0x2164_c73f_7aa3_2ef5,
    },
    Pin {
        workload: || sobel::workload(32, 2004),
        listing: 0x7793_8f14_cd12_17b8,
        dot: 0x58b8_8034_93d9_71ac,
    },
];

#[test]
fn case_study_compilations_match_their_pins() {
    let mut drift = Vec::new();
    for pin in &PINS {
        let workload = (pin.workload)();
        let program = amdrel_minic::compile(&workload.source, "main")
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        let mut dot = cdfg_to_dot(&program.cdfg);
        for (_, block) in program.cdfg.iter() {
            dot.push_str(&dfg_to_dot(&block.dfg));
        }
        let digests = (fnv1a(&program.ir.listing()), fnv1a(&dot));
        if digests != (pin.listing, pin.dot) {
            drift.push(format!(
                "{}: listing {:#018x}, dot {:#018x}",
                workload.name, digests.0, digests.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "compilations drifted:\n{}",
        drift.join("\n")
    );
}
