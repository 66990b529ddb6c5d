//! Coarse-grain mapping of whole CDFGs and the `t_coarse` of eq. (3).
//!
//! "For handling CDFG, the mapping procedure is iterated through the DFGs
//! comprising the CDFG of an application" (§3.3). Each basic block gets an
//! independent schedule + binding; per-block latency is the schedule
//! length in `T_CGC` cycles.

use crate::binding::{bind, BindingReport};
use crate::datapath::CgcDatapath;
use crate::scheduler::{schedule_dfg, Schedule, SchedulerConfig};
use crate::CoarseGrainError;
use amdrel_cdfg::Cdfg;

/// The coarse-grain mapping of one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseGrainMapping {
    /// The schedule (placements per node).
    pub schedule: Schedule,
    /// The verified binding report.
    pub report: BindingReport,
}

impl CoarseGrainMapping {
    /// `t_to_coarse(BB)`: CGC cycles for one execution of the block.
    pub fn cycles_per_exec(&self) -> u64 {
        self.schedule.length()
    }
}

/// Map one DFG (schedule + bind).
///
/// # Errors
///
/// Propagates scheduler and binding failures.
pub fn map_dfg(
    dfg: &amdrel_cdfg::Dfg,
    datapath: &CgcDatapath,
    config: &SchedulerConfig,
) -> Result<CoarseGrainMapping, CoarseGrainError> {
    let schedule = schedule_dfg(dfg, datapath, config)?;
    let report = bind(dfg, &schedule, datapath)?;
    Ok(CoarseGrainMapping { schedule, report })
}

/// Coarse-grain mappings for every block of a CDFG.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfgCoarseGrainMapping {
    /// Per-block mappings, indexed by block id.
    pub blocks: Vec<CoarseGrainMapping>,
}

impl CdfgCoarseGrainMapping {
    /// Map every block of `cdfg`.
    ///
    /// # Errors
    ///
    /// The first block that fails to schedule or bind.
    pub fn map(
        cdfg: &Cdfg,
        datapath: &CgcDatapath,
        config: &SchedulerConfig,
    ) -> Result<Self, CoarseGrainError> {
        let blocks = cdfg
            .iter()
            .map(|(_, bb)| map_dfg(&bb.dfg, datapath, config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CdfgCoarseGrainMapping { blocks })
    }

    /// Per-block cost vector: `t_to_coarse(BB_i) × Iter(BB_i)` in CGC
    /// cycles for every block. [`Self::t_coarse`] over any subset equals
    /// the sum of the corresponding entries, so callers (the partitioning
    /// engine) can maintain running sums and update them in O(1) per
    /// kernel move instead of rescanning all blocks.
    ///
    /// # Panics
    ///
    /// Panics if `exec_freq` is shorter than the block list.
    pub fn block_costs(&self, exec_freq: &[u64]) -> Vec<u64> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, m)| m.cycles_per_exec().saturating_mul(exec_freq[i]))
            .collect()
    }

    /// eq. (3): `t_coarse = Σ_i t_to_coarse(BB_i) × Iter(BB_i)` in CGC
    /// cycles, over the subset of blocks selected by `on_coarse`.
    ///
    /// # Panics
    ///
    /// Panics if `exec_freq` is shorter than the block list.
    pub fn t_coarse(&self, exec_freq: &[u64], mut on_coarse: impl FnMut(usize) -> bool) -> u64 {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| on_coarse(*i))
            .map(|(i, m)| m.cycles_per_exec().saturating_mul(exec_freq[i]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::{BasicBlock, Dfg, OpKind};

    fn two_block_cdfg() -> Cdfg {
        let mut cdfg = Cdfg::new("app");
        let mut d0 = Dfg::new("b0");
        let m = d0.add_op(OpKind::Mul, 16);
        let a = d0.add_op(OpKind::Add, 32);
        d0.add_edge(m, a).unwrap();
        let mut d1 = Dfg::new("b1");
        for _ in 0..16 {
            d1.add_op(OpKind::Add, 32);
        }
        let b0 = cdfg.add_block(BasicBlock::from_dfg("b0", d0));
        let b1 = cdfg.add_block(BasicBlock::from_dfg("b1", d1));
        cdfg.add_edge(b0, b1).unwrap();
        cdfg
    }

    #[test]
    fn per_block_mapping_and_eq3() {
        let cdfg = two_block_cdfg();
        let dp = CgcDatapath::two_2x2();
        let map = CdfgCoarseGrainMapping::map(&cdfg, &dp, &SchedulerConfig::default()).unwrap();
        assert_eq!(map.blocks[0].cycles_per_exec(), 1); // chained MAC
        assert_eq!(map.blocks[1].cycles_per_exec(), 2); // 16 adds / 8 slots
        let t = map.t_coarse(&[100, 10], |_| true);
        assert_eq!(t, 100 + 20);
        let t_b1_only = map.t_coarse(&[100, 10], |i| i == 1);
        assert_eq!(t_b1_only, 20);
    }

    #[test]
    fn block_costs_agree_with_t_coarse() {
        let cdfg = two_block_cdfg();
        let dp = CgcDatapath::two_2x2();
        let map = CdfgCoarseGrainMapping::map(&cdfg, &dp, &SchedulerConfig::default()).unwrap();
        let freqs = [100u64, 10];
        let costs = map.block_costs(&freqs);
        assert_eq!(costs, vec![100, 20]);
        assert_eq!(costs.iter().sum::<u64>(), map.t_coarse(&freqs, |_| true));
        for (i, &cost) in costs.iter().enumerate() {
            assert_eq!(cost, map.t_coarse(&freqs, |j| j == i));
        }
    }

    #[test]
    fn reports_are_consistent() {
        let cdfg = two_block_cdfg();
        let dp = CgcDatapath::two_2x2();
        let map = CdfgCoarseGrainMapping::map(&cdfg, &dp, &SchedulerConfig::default()).unwrap();
        for m in &map.blocks {
            assert_eq!(m.report.length, m.schedule.length());
        }
    }
}
