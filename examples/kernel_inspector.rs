//! Inspect the hottest kernel of a case-study application: its ILP
//! profile, its fine-grain temporal partitioning (bitstream plan), and
//! its coarse-grain schedule as a Gantt chart.
//!
//! Run with: `cargo run --release --example kernel_inspector [ofdm|jpeg|sobel]`

use amdrel::prelude::*;
use amdrel_cdfg::ilp_profile;
use amdrel_coarsegrain::{gantt, schedule_dfg, CgcDatapath};
use amdrel_finegrain::{map_dfg, report::partition_table, FpgaDevice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ofdm".to_owned());
    let workload = match which.as_str() {
        "ofdm" => ofdm::workload(2004),
        "jpeg" => jpeg::workload(64, 2004),
        "sobel" => amdrel::apps::sobel::workload(64, 2004),
        other => return Err(format!("unknown app '{other}' (ofdm|jpeg|sobel)").into()),
    };

    let Analyzed {
        program, analysis, ..
    } = workload.analyze()?;
    let hot = analysis.top_kernels(1)[0].block;
    let bb = program.cdfg.block(hot);
    println!(
        "hottest kernel of {}: {} ({}), freq {}, weight {}",
        workload.name,
        hot,
        bb.label,
        analysis.block(hot).exec_freq,
        analysis.block(hot).bb_weight,
    );
    println!(
        "DFG: {} nodes ({} schedulable ops), {} edges, live-in {} / live-out {}",
        bb.dfg.len(),
        bb.dfg.op_count(),
        bb.dfg.edge_count(),
        bb.live_in,
        bb.live_out,
    );

    let profile = ilp_profile(&bb.dfg)?;
    println!("\nILP profile (ops per ASAP level): {profile:?}");
    println!(
        "peak ILP {} vs 8 slots on two 2x2 CGCs -> {}",
        profile.iter().max().copied().unwrap_or(0),
        if profile.iter().max().copied().unwrap_or(0) > 8 {
            "resource-limited (more CGCs help)"
        } else {
            "dependency-limited (more CGCs idle)"
        }
    );

    println!("\n== fine-grain mapping (A_FPGA = 1500) ==");
    let mapping = map_dfg(&bb.dfg, &FpgaDevice::new(1500))?;
    print!("{}", partition_table(&bb.dfg, &mapping));

    println!("\n== coarse-grain schedule (two 2x2 CGCs) ==");
    let dp = CgcDatapath::two_2x2();
    let schedule = schedule_dfg(&bb.dfg, &dp, &SchedulerConfig::default())?;
    println!(
        "{} T_CGC cycles, {} ops chained through the steering logic",
        schedule.length(),
        schedule.chained_ops()
    );
    print!("{}", gantt(&bb.dfg, &schedule, &dp));
    Ok(())
}
