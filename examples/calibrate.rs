//! Internal calibration sweep for the FPGA characterisation defaults.
//!
//! Prints, for a grid of area-library scale factors and reconfiguration
//! costs, the shape metrics the paper's Tables 2/3 exhibit:
//! initial(1500)/initial(5000) ratio, CGC-cycle ratio two/three CGCs, and
//! reduction percentages. Used to choose the crate defaults; kept as an
//! example because it doubles as a sensitivity study.

use amdrel_apps::{jpeg, ofdm};
use amdrel_coarsegrain::CgcDatapath;
use amdrel_core::{run_grid, GridSpec, MappingCache, Platform};
use amdrel_finegrain::AreaLibrary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ofdm = ofdm::workload(2004).analyze()?;
    let jpeg = jpeg::workload(64, 2004).analyze()?; // small image: same structure, fast

    println!("paper targets: OFDM init ratio 2.12, CGC ratio 1.28, red 78-82% (A=1500) / 54-63% (A=5000)");
    println!("               JPEG init ratio 1.49, CGC ratio 1.02, red 43% / 16-18%");
    println!();
    println!(
        "{:>5} {:>8} | {:>10} {:>8} {:>7} {:>7} | {:>10} {:>8} {:>7} {:>7}",
        "scale",
        "reconfig",
        "ofdm_init",
        "ofdm_cgc",
        "red1500",
        "red5000",
        "jpeg_init",
        "jpeg_cgc",
        "red1500",
        "red5000"
    );

    for scale in [1.0f64, 2.0, 4.0, 6.0, 8.0, 12.0] {
        for reconfig in [10u64, 20, 30, 60] {
            let mut base = Platform::paper(1500, 2);
            base.fpga.area = AreaLibrary {
                alu: (30.0 * scale) as u64,
                mul: (120.0 * scale) as u64,
                div: (240.0 * scale) as u64,
                mem: (20.0 * scale) as u64,
            };
            base.fpga.reconfig_cycles = reconfig;

            let mut stats = Vec::new();
            for app in [&ofdm, &jpeg] {
                let spec = GridSpec {
                    app: "x",
                    cdfg: &app.program.cdfg,
                    analysis: &app.analysis,
                    base: &base,
                    areas: &[1500, 5000],
                    datapaths: &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
                    constraint: 1, // impossible constraint: move all kernels, observe asymptote
                };
                let grid = run_grid(&spec, &MappingCache::new(), 0)?;
                let init_ratio = grid.cells[0].result.initial_cycles as f64
                    / grid.cells[2].result.initial_cycles as f64;
                let cgc2 = grid.cells[0].result.breakdown.t_coarse_cgc as f64;
                let cgc3 = grid.cells[1].result.breakdown.t_coarse_cgc as f64;
                let red1500 = grid.cells[1].result.reduction_percent();
                let red5000 = grid.cells[3].result.reduction_percent();
                stats.push((init_ratio, cgc2 / cgc3.max(1.0), red1500, red5000));
            }
            println!(
                "{:>5.1} {:>8} | {:>10.2} {:>8.2} {:>7.1} {:>7.1} | {:>10.2} {:>8.2} {:>7.1} {:>7.1}",
                scale, reconfig,
                stats[0].0, stats[0].1, stats[0].2, stats[0].3,
                stats[1].0, stats[1].1, stats[1].2, stats[1].3,
            );
        }
    }
    Ok(())
}
