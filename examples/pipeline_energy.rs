//! The paper's extensions in action: frame-pipelined operation of the
//! two fabrics (§3 / "on-going work") and energy-constrained partitioning
//! (§5 "future work"), demonstrated on the OFDM transmitter.
//!
//! Run with: `cargo run --release --example pipeline_energy`

use amdrel::prelude::*;
use amdrel_core::{partition_for_energy, pipeline_report, EnergyModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = workload.analyze()?;
    let platform = Platform::paper(1500, 3);

    // ---- timing-constrained partitioning (the paper's core flow) ----
    let result =
        PartitioningEngine::new(&program.cdfg, &analysis, &platform).run(paper::OFDM_CONSTRAINT)?;
    println!(
        "timing flow: initial {} -> final {} cycles ({:.1}%)",
        result.initial_cycles,
        result.final_cycles(),
        result.reduction_percent()
    );

    // ---- frame pipelining over a 100-frame stream ----
    println!("\n== frame pipelining (on-going work in the paper) ==");
    let frames = 100;
    let r = pipeline_report(&result.breakdown, frames);
    println!(
        "per-frame stages: FPGA {} cycles, CGC+comm {} cycles",
        result.breakdown.t_fpga,
        result.breakdown.t_coarse + result.breakdown.t_comm
    );
    println!(
        "initiation interval {} cycles, bottleneck {:?}",
        r.interval, r.bottleneck
    );
    println!(
        "{} frames: sequential {} vs pipelined {} cycles -> {:.2}x speedup ({:.2}x asymptotic)",
        frames,
        r.sequential_cycles,
        r.pipelined_cycles,
        r.speedup(),
        r.asymptotic_speedup()
    );
    println!(
        "steady-state utilisation: FPGA {:.0}%, CGC {:.0}%",
        r.fpga_utilization * 100.0,
        r.cgc_utilization * 100.0
    );

    // ---- energy-constrained partitioning ----
    println!("\n== energy-constrained partitioning (future work in the paper) ==");
    let model = EnergyModel::default();
    let floor = partition_for_energy(&program.cdfg, &analysis, &platform, &model, 0)?;
    println!(
        "all-FPGA energy {} units (ops {} + reconfig {})",
        floor.initial.total(),
        floor.initial.e_fpga_ops,
        floor.initial.e_reconfig
    );
    println!(
        "energy floor {} units after {} moves ({:.1}% reduction)",
        floor.energy.total(),
        floor.moves.len(),
        floor.reduction_percent()
    );
    let budget = (floor.initial.total() + floor.energy.total()) / 2;
    let halfway = partition_for_energy(&program.cdfg, &analysis, &platform, &model, budget)?;
    println!(
        "budget {budget}: met={} with {} moves, final {} units (cgc {} + comm {} + fpga {} + reconfig {})",
        halfway.met,
        halfway.moves.len(),
        halfway.energy.total(),
        halfway.energy.e_cgc_ops,
        halfway.energy.e_comm,
        halfway.energy.e_fpga_ops,
        halfway.energy.e_reconfig,
    );
    Ok(())
}
