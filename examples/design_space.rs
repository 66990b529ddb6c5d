//! Design-space exploration: sweep FPGA area × CGC count for the OFDM
//! transmitter and print the final-cycles landscape.
//!
//! Extends the paper's four-configuration grid (Tables 2/3) into a full
//! sweep — the kind of study the methodology's "parameterized with
//! respect to the reconfigurable hardware" claim enables.
//!
//! Run with: `cargo run --release --example design_space`

use amdrel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = workload.analyze()?;

    // Note: below ~1030 area units the 32-bit multiplier (720 units) no
    // longer fits in the routable 70% and the fine-grain mapper correctly
    // refuses the device, so the sweep starts at 1200.
    let areas = [1200u64, 1500, 2500, 5000, 10000, 20000];
    let cgc_counts = [1usize, 2, 3, 4, 6];
    let constraint = paper::OFDM_CONSTRAINT;

    println!(
        "OFDM transmitter: final cycles (and whether the {constraint}-cycle constraint is met)"
    );
    print!("{:>8} |", "A_FPGA");
    for &k in &cgc_counts {
        print!(" {:>12}", format!("{k}x 2x2 CGC"));
    }
    println!(" | {:>12}", "all-FPGA");
    println!("{}", "-".repeat(10 + 13 * cgc_counts.len() + 16));

    for &area in &areas {
        print!("{area:>8} |");
        let mut initial = 0;
        for &k in &cgc_counts {
            let platform = Platform::paper(area, k);
            let result =
                PartitioningEngine::new(&program.cdfg, &analysis, &platform).run(constraint)?;
            initial = result.initial_cycles;
            let marker = if result.met_without_partitioning {
                "=" // all-FPGA already meets the constraint
            } else if result.met {
                ""
            } else {
                "!"
            };
            print!(" {:>11}{marker}", result.final_cycles());
        }
        println!(" | {initial:>12}");
    }
    println!();
    println!("legend: '=' constraint met without partitioning (flow exits at step 2),");
    println!("        '!' constraint NOT met even with every kernel on the CGC datapath");
    Ok(())
}
