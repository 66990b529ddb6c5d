//! # amdrel-bench — shared workloads and the committed baselines
//!
//! The profiled paper applications ([`ofdm_prepared`],
//! [`jpeg_small_prepared`]) and the synthetic tenant population
//! ([`synthetic_tenants`]) that `perfbench`, the baselines and the
//! workspace tests all build on, defined once so every caller measures
//! or asserts against the same inputs. [`baselines`] renders the three
//! committed `BENCH_*.json` files, the only code that computes or
//! formats their fields. Timing lives only in `perfbench/`.

#![warn(missing_docs)]

pub mod baselines;

use amdrel_apps::{jpeg, ofdm};
use amdrel_core::Analyzed;
use amdrel_minic::CompiledProgram;
use amdrel_profiler::{AnalysisReport, Execution};

/// A fully analysed application, ready for the partitioning engine.
#[derive(Debug)]
pub struct Prepared {
    /// Application name.
    pub name: String,
    /// Compiled program (IR + CDFG).
    pub program: CompiledProgram,
    /// The profiling run.
    pub execution: Execution,
    /// The combined analysis.
    pub analysis: AnalysisReport,
}

fn prepare(workload: &amdrel_apps::Workload) -> Prepared {
    let Analyzed {
        program,
        execution,
        analysis,
    } = workload.analyze().expect("workload compiles and runs");
    Prepared {
        name: workload.name.clone(),
        program,
        execution,
        analysis,
    }
}

/// The OFDM transmitter at the paper's workload size (6 payload symbols).
pub fn ofdm_prepared() -> Prepared {
    prepare(&ofdm::workload(2004))
}

/// The JPEG encoder at a reduced 64×64 size (same structure, ~16× less
/// interpretation work) for ablations that re-profile repeatedly.
pub fn jpeg_small_prepared() -> Prepared {
    prepare(&jpeg::workload(64, 2004))
}

/// `n` synthetic tenant profiles for runtime scaling studies: varied
/// service demands (2k–40k fine-grain cycles), priorities, partition
/// footprints and communication costs, deterministic in `n`. Shared
/// between `perfbench`'s runtime workloads and
/// [`baselines::runtime_scaling_rows`], so the committed `BENCH_runtime.json`
/// scaling and sharded rows and the benchmark play the same tenant
/// population.
pub fn synthetic_tenants(n: usize) -> Vec<amdrel_runtime::AppProfile> {
    use amdrel_core::rng::SplitMix64;

    assert!(n >= 1, "a tenant population needs at least one tenant");
    let mut rng = SplitMix64::new(0x7E4A_4174 ^ n as u64);
    (0..n)
        .map(|i| {
            let parts = 1 + rng.below(3) as usize;
            let areas: Vec<u64> = (0..parts).map(|_| 50 + rng.below(400)).collect();
            let mut p = amdrel_runtime::AppProfile::synthetic(
                &format!("tenant{i:02}"),
                (i % 4) as u8,
                2_000 + rng.below(38_000),
                rng.below(8_000),
                areas,
            );
            p.comm_cycles = rng.below(1_000);
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_setup_works() {
        let p = ofdm_prepared();
        assert!(!p.analysis.kernels().is_empty());
        assert!(p.execution.instrs_retired > 0);
    }

    #[test]
    fn synthetic_tenants_are_deterministic_and_well_formed() {
        let a = synthetic_tenants(32);
        assert_eq!(a.len(), 32);
        assert_eq!(a, synthetic_tenants(32));
        for t in &a {
            assert!(t.fine_cycles >= 2_000);
            assert!(!t.config.partition_areas.is_empty());
        }
    }
}
