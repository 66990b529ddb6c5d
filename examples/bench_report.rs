//! Rewrite the three committed deterministic baselines at the
//! repository root: `BENCH_explore.json` (one seeded exploration per
//! search strategy), `BENCH_explore_contention.json` (static against
//! contention-aware co-exploration) and `BENCH_runtime.json` (the
//! seeded runtime mix per policy, plus the reliability, floorplan,
//! scaling and sharded rows). `amdrel_bench::baselines` renders them;
//! `tests/determinism.rs` compares every byte with the committed
//! copies, and `docs/BENCHMARKS.md` documents each schema.
//!
//! Run with: `cargo run --release --example bench_report`

use amdrel_bench::baselines::FILES;

fn main() -> std::io::Result<()> {
    for (name, render) in FILES {
        std::fs::write(name, render())?;
        println!("wrote {name}");
    }
    Ok(())
}
