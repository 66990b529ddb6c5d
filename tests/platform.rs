//! Structural validation of the Figure 1 platform model: every component
//! of the generic architecture exists and behaves (fine-grain block,
//! coarse-grain block, shared data memory with its communication cost,
//! clock domains, reconfigurable interconnect parameters).

use amdrel::prelude::*;
use amdrel_coarsegrain::CgcDatapath;

#[test]
fn platform_models_every_figure1_component() {
    let p = Platform::paper(1500, 2);

    // Fine-grain reconfigurable hardware block.
    assert_eq!(p.fpga.total_area, 1500);
    assert!(p.fpga.usable_fraction > 0.0 && p.fpga.usable_fraction <= 1.0);
    assert!(
        p.fpga.reconfig_cycles > 0,
        "dynamic reconfiguration is modelled"
    );

    // Coarse-grain reconfigurable hardware blocks (CGCs).
    assert_eq!(p.datapath.cgcs.len(), 2);
    assert_eq!(p.datapath.compute_slots(), 8);
    assert!(p.datapath.register_bank > 0);

    // Shared data memory: communication has a cost.
    assert!(p.comm.cycles_per_exec(4, 4) > 0);

    // Clock domains: T_FPGA = 3 × T_CGC.
    assert_eq!(p.clock_ratio, 3);
    assert_eq!(p.cgc_to_fpga_cycles(3), 1);
    assert_eq!(p.cgc_to_fpga_cycles(4), 2);
}

#[test]
fn clock_conversion_is_exact_and_ceil() {
    let p = Platform::paper(1500, 2).with_clock_ratio(4);
    assert_eq!(p.cgc_to_fpga_cycles(0), 0);
    assert_eq!(p.cgc_to_fpga_cycles(1), 1);
    assert_eq!(p.cgc_to_fpga_cycles(4), 1);
    assert_eq!(p.cgc_to_fpga_cycles(5), 2);
}

#[test]
fn comm_model_is_linear_in_interface_width() {
    let m = CommModel {
        cycles_per_word: 3,
        setup_cycles: 5,
    };
    assert_eq!(m.cycles_per_exec(0, 0), 5);
    assert_eq!(m.cycles_per_exec(2, 1), 9 + 5);
    // free() really is free.
    assert_eq!(CommModel::free().cycles_per_exec(100, 100), 0);
}

#[test]
fn heterogeneous_datapaths_are_expressible() {
    // The generic platform claims to model Pleiades-style heterogeneous
    // collections; the datapath accepts mixed geometries.
    let dp = CgcDatapath::new(vec![
        CgcGeometry::new(2, 2),
        CgcGeometry::new(3, 3),
        CgcGeometry::new(4, 2),
    ]);
    assert_eq!(dp.compute_slots(), 4 + 9 + 8);
    let platform = Platform::new(FpgaDevice::new(2000), dp);
    assert!(platform.datapath.describe().contains("3x3"));
}

#[test]
fn platform_is_debuggable() {
    let p = Platform::paper(5000, 3);
    let debug = format!("{p:?}");
    assert!(
        debug.contains("5000"),
        "Debug must expose the area: {debug}"
    );
}
