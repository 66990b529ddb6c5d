//! Multi-objective design-space exploration of the OFDM transmitter:
//! run all three search strategies over the standard case-study space and
//! print their frontiers and effort side by side.
//!
//! Run with: `cargo run --release --example explore_ofdm`

use amdrel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ofdm::workload(2004);
    let Analyzed {
        program, analysis, ..
    } = workload.analyze()?;
    let base = Platform::paper(1500, 2);
    let space = ofdm::design_space();

    let strategies: [&dyn SearchStrategy; 3] =
        [&Exhaustive, &RandomSampling, &SimulatedAnnealing::default()];
    // One shared mapping cache: later strategies inherit the fabric
    // mappings the earlier ones computed.
    let cache = MappingCache::new();
    for strategy in strategies {
        let evaluator = Evaluator::new(
            &workload.name,
            &program.cdfg,
            &analysis,
            &base,
            EnergyModel::default(),
            &cache,
        );
        let report = explore(
            &evaluator,
            &space,
            strategy,
            &ExploreConfig {
                seed: 42,
                eval_budget: 64,
                jobs: 0,
            },
        )?;
        println!("{}", report.format_table());
    }
    Ok(())
}
