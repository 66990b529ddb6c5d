//! Pinned dynamic profiles of the case studies.
//!
//! Each case study's interpreted run is pinned by its retired-instruction
//! count and an FNV-1a digest of its per-block entry counts (each count
//! hashed as 8 little-endian bytes). The block counts are the `exec_freq`
//! column of the paper's analysis, so any change to the frontend or the
//! interpreter that moves a profile, and with it every kernel ranking and
//! partition downstream, shows here first.

use amdrel_apps::{jpeg, ofdm, sobel, Workload};

fn fnv1a(counts: &[u64]) -> u64 {
    counts
        .iter()
        .flat_map(|c| c.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One pinned profile: the workload and its two pins.
struct Pin {
    workload: fn() -> Workload,
    instrs: u64,
    digest: u64,
}

const PINS: [Pin; 4] = [
    Pin {
        workload: || ofdm::workload(42),
        instrs: 60_979,
        digest: 0xe142_71e9_0e2b_233e,
    },
    Pin {
        workload: || jpeg::workload(jpeg::PAPER_DIM, 42),
        instrs: 4_279_611,
        digest: 0x8999_0228_0740_6fc1,
    },
    Pin {
        workload: || jpeg::workload(64, 2004),
        instrs: 268_215,
        digest: 0x2277_757a_e33f_2be1,
    },
    Pin {
        workload: || sobel::workload(32, 2004),
        instrs: 56_179,
        digest: 0xf843_665b_6dfc_72f1,
    },
];

#[test]
fn case_study_profiles_match_their_pins() {
    let mut drift = Vec::new();
    for pin in &PINS {
        let workload = (pin.workload)();
        let exec = workload
            .analyze()
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name))
            .execution;
        let digest = fnv1a(&exec.block_counts);
        if (exec.instrs_retired, digest) != (pin.instrs, pin.digest) {
            drift.push(format!(
                "{}: instrs {}, block counts {digest:#018x}",
                workload.name, exec.instrs_retired
            ));
        }
    }
    assert!(drift.is_empty(), "profiles drifted:\n{}", drift.join("\n"));
}
