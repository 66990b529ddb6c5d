//! Debug aid: per-kernel coarse-grain schedule lengths on two vs three
//! 2×2 CGCs, to see which blocks are resource- vs dependency-limited.

use amdrel_apps::{jpeg, ofdm};
use amdrel_coarsegrain::{map_dfg, CgcDatapath, SchedulerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (name, w) in [
        ("OFDM", ofdm::workload(2004)),
        ("JPEG", jpeg::workload(64, 2004)),
    ] {
        let app = w.analyze()?;
        let (p, a) = (&app.program, &app.analysis);
        println!("== {name} ==");
        println!(
            "{:>4} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6}",
            "bb", "freq", "weight", "len2", "len3", "ops", "mem"
        );
        let cfg = SchedulerConfig::default();
        for prof in a.top_kernels(8) {
            let dfg = &p.cdfg.block(prof.block).dfg;
            let m2 = map_dfg(dfg, &CgcDatapath::two_2x2(), &cfg)?;
            let m3 = map_dfg(dfg, &CgcDatapath::three_2x2(), &cfg)?;
            println!(
                "{:>4} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6}",
                prof.block.index(),
                prof.exec_freq,
                prof.bb_weight,
                m2.cycles_per_exec(),
                m3.cycles_per_exec(),
                m2.report.cgc_ops,
                m2.report.mem_ops,
            );
        }
    }
    Ok(())
}
