//! Bring-your-own kernel: write mini-C inline (or load a file passed as
//! the first argument), inspect the analysis, and partition it on a
//! custom platform.
//!
//! Run with: `cargo run --release --example custom_kernel [path/to/src.c]`

use amdrel::prelude::*;

const DEFAULT_SRC: &str = r#"
    /* 2-D 3x3 convolution over a 62x62 interior of a 64x64 image. */
    int img[4096];
    int kern[9];
    int out[4096];
    int main() {
        for (int y = 1; y < 63; y++) {
            for (int x = 1; x < 63; x++) {
                int acc = 0;
                acc += img[(y - 1) * 64 + x - 1] * kern[0];
                acc += img[(y - 1) * 64 + x]     * kern[1];
                acc += img[(y - 1) * 64 + x + 1] * kern[2];
                acc += img[y * 64 + x - 1]       * kern[3];
                acc += img[y * 64 + x]           * kern[4];
                acc += img[y * 64 + x + 1]       * kern[5];
                acc += img[(y + 1) * 64 + x - 1] * kern[6];
                acc += img[(y + 1) * 64 + x]     * kern[7];
                acc += img[(y + 1) * 64 + x + 1] * kern[8];
                out[y * 64 + x] = acc >> 4;
            }
        }
        return out[65];
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEFAULT_SRC.to_owned(),
    };

    // A custom platform: mid-size FPGA, one wide 4x4 CGC, pricier
    // shared-memory traffic, and the engine's "skip unprofitable moves"
    // extension enabled.
    let platform = Platform::new(
        FpgaDevice::new(3000),
        CgcDatapath::uniform(1, CgcGeometry::new(4, 4)),
    )
    .with_comm(CommModel {
        cycles_per_word: 2,
        setup_cycles: 8,
    });

    let img: Vec<i64> = (0..4096).map(|i| (i * 31 % 251) as i64).collect();
    let kern: Vec<i64> = vec![1, 2, 1, 2, 4, 2, 1, 2, 1];
    let app = analyze(&source, &[("img", &img), ("kern", &kern)])?;
    let r = PartitioningEngine::new(&app.program.cdfg, &app.analysis, &platform)
        .with_config(EngineConfig {
            skip_unprofitable: true,
        })
        .run(40_000)?;

    println!("{}", app.analysis.format_table1("hottest kernels", 8));
    println!(
        "initial {} -> final {} cycles ({:.1}% reduction, constraint {} {})",
        r.initial_cycles,
        r.final_cycles(),
        r.reduction_percent(),
        r.constraint,
        if r.met { "met" } else { "NOT met" },
    );
    for m in &r.moves {
        println!("  moved {} ({})", m.kernel, m.label);
    }
    Ok(())
}
