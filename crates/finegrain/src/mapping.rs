//! Fine-grain mapping: per-block execution time on the FPGA (step 2 of
//! Figure 2) and the whole-application `t_FPGA` of eq. (4).
//!
//! A temporal partition executes its ASAP levels in order; each level
//! costs the maximum op latency at that level (nodes of one level run in
//! parallel — "all the DFG nodes with the same level can be considered for
//! parallel execution"). Each partition additionally pays one full
//! reconfiguration ("the reconfiguration time has the same value for each
//! partition and it is added to the execution time of each temporal
//! partition").

use crate::device::{FpgaDevice, ReconfigPolicy};
use crate::temporal::{temporal_partition, TemporalPartitioning};
use crate::FineGrainError;
use amdrel_cdfg::{asap_levels, Cdfg, Dfg};

/// The fine-grain mapping of one basic block's DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FineGrainMapping {
    /// The temporal partitioning (Figure 3 output).
    pub partitioning: TemporalPartitioning,
    /// Pure compute cycles per execution (sum over partitions of their
    /// level latencies), excluding reconfiguration.
    pub compute_cycles: u64,
    /// Reconfiguration cycles per execution under the device's policy.
    pub reconfig_cycles: u64,
}

impl FineGrainMapping {
    /// Total FPGA cycles for one execution of the block
    /// (`t_to_FPGA(BB)` in eq. (4)).
    pub fn cycles_per_exec(&self) -> u64 {
        self.compute_cycles + self.reconfig_cycles
    }
}

/// Map one DFG onto the fine-grain device.
///
/// # Errors
///
/// Propagates [`FineGrainError`] from the temporal partitioner.
pub fn map_dfg(dfg: &Dfg, device: &FpgaDevice) -> Result<FineGrainMapping, FineGrainError> {
    let partitioning = temporal_partition(dfg, device)?;
    let levels = asap_levels(dfg)?;

    let mut compute_cycles = 0u64;
    for p in partitioning.partitions() {
        // Cost of a partition: for each ASAP level it covers, the slowest
        // node at that level gates the step.
        for &lv in &p.levels {
            let step = p
                .nodes
                .iter()
                .filter(|&&n| levels.level(n) == lv)
                .map(|&n| device.latency.op_latency(dfg.node(n).kind))
                .max()
                .unwrap_or(0);
            compute_cycles += step;
        }
    }

    let n_parts = partitioning.len() as u64;
    let reconfig_cycles = match device.reconfig_policy {
        ReconfigPolicy::PerExecution => n_parts * device.reconfig_cycles,
        // Resident: a single-partition block keeps its bitstream loaded
        // across back-to-back executions; multi-partition blocks must
        // still swap through all bitstreams every execution.
        ReconfigPolicy::Resident => {
            if n_parts <= 1 {
                0
            } else {
                n_parts * device.reconfig_cycles
            }
        }
    };

    Ok(FineGrainMapping {
        partitioning,
        compute_cycles,
        reconfig_cycles,
    })
}

/// The fine-grain mapping of a whole CDFG: one [`FineGrainMapping`] per
/// basic block, in block order ("The mapping methodology also handles
/// CDFG, by iteratively mapping the DFGs composing the CDFG").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdfgFineGrainMapping {
    /// Per-block mappings, indexed by block id.
    pub blocks: Vec<FineGrainMapping>,
}

impl CdfgFineGrainMapping {
    /// Map every block of `cdfg`.
    ///
    /// # Errors
    ///
    /// The first block that fails to map.
    pub fn map(cdfg: &Cdfg, device: &FpgaDevice) -> Result<Self, FineGrainError> {
        let blocks = cdfg
            .iter()
            .map(|(_, bb)| map_dfg(&bb.dfg, device))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CdfgFineGrainMapping { blocks })
    }

    /// eq. (4): `t_FPGA = Σ_i t_to_FPGA(BB_i) × Iter(BB_i)` over the given
    /// subset of blocks (those assigned to the fine-grain hardware).
    ///
    /// `exec_freq[i]` is `Iter(BB_i)`; `on_fpga(i)` selects the subset.
    ///
    /// # Panics
    ///
    /// Panics if `exec_freq` is shorter than the block list.
    pub fn t_fpga(&self, exec_freq: &[u64], mut on_fpga: impl FnMut(usize) -> bool) -> u64 {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| on_fpga(*i))
            .map(|(i, m)| m.cycles_per_exec().saturating_mul(exec_freq[i]))
            .sum()
    }

    /// Per-block cost vector: `t_to_FPGA(BB_i) × Iter(BB_i)` for every
    /// block. [`Self::t_fpga`] over any subset equals the sum of the
    /// corresponding entries, so callers (the partitioning engine) can
    /// maintain running sums and update them in O(1) per kernel move
    /// instead of rescanning all blocks.
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

    /// Total bitstreams across all blocks (reporting aid).
    pub fn total_partitions(&self) -> usize {
        self.blocks.iter().map(|m| m.partitioning.len()).sum()
    }

    /// The configuration footprint of the blocks selected by `on_fpga`:
    /// the partition areas a runtime streams onto the device to make
    /// those blocks resident, in block-then-partition order. Summing the
    /// result gives the total configuration-load area; its length is the
    /// bitstream count.
    pub fn partition_areas(&self, mut on_fpga: impl FnMut(usize) -> bool) -> Vec<u64> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| on_fpga(*i))
            .flat_map(|(_, m)| m.partitioning.partition_areas())
            .collect()
    }

    /// Like [`Self::partition_areas`] but keeping the per-mapping
    /// grouping the flat vector loses: one record per temporal
    /// partition, tagged with its block and partition index, in
    /// block-then-partition order. A floorplanner needs the grouping to
    /// keep one block's bitstreams co-resident; flattening the areas of
    /// the result reproduces [`Self::partition_areas`] exactly.
    pub fn partition_footprints(
        &self,
        mut on_fpga: impl FnMut(usize) -> bool,
    ) -> Vec<PartitionFootprint> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| on_fpga(*i))
            .flat_map(|(block, m)| {
                m.partitioning
                    .partition_areas()
                    .enumerate()
                    .map(move |(partition, area)| PartitionFootprint {
                        block,
                        partition: partition as u32,
                        area,
                    })
            })
            .collect()
    }
}

/// One temporal partition of one block's mapping: the grouped record
/// [`CdfgFineGrainMapping::partition_footprints`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionFootprint {
    /// Block id the partition belongs to.
    pub block: usize,
    /// Partition index within that block's [`TemporalPartitioning`].
    pub partition: u32,
    /// Configuration area of the partition.
    pub area: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::{BasicBlock, OpKind};

    /// A device with a fixed test characterisation (ALU 30 / MUL 120 /
    /// mem 20, reconfiguration 30) so the tests pin concrete cycle counts
    /// independently of the calibrated crate defaults.
    fn device(total: u64) -> FpgaDevice {
        let mut dev = FpgaDevice::new(total).with_reconfig_cycles(30);
        dev.area = crate::AreaLibrary {
            alu: 30,
            mul: 120,
            div: 240,
            mem: 20,
        };
        dev
    }

    #[test]
    fn chain_cycles_sum_levels() {
        // LiveIn → Mul → Add → LiveOut: levels 2 (mul, lat 2) and 3 (add, 1).
        let mut dfg = Dfg::new("mac");
        let x = dfg.add_op(OpKind::LiveIn, 32);
        let m = dfg.add_op(OpKind::Mul, 32);
        let a = dfg.add_op(OpKind::Add, 32);
        let o = dfg.add_op(OpKind::LiveOut, 32);
        dfg.add_edge(x, m).unwrap();
        dfg.add_edge(m, a).unwrap();
        dfg.add_edge(a, o).unwrap();
        let map = map_dfg(&dfg, &device(1500)).unwrap();
        assert_eq!(map.partitioning.len(), 1);
        assert_eq!(map.compute_cycles, 3); // mul 2 + add 1
        assert_eq!(map.reconfig_cycles, 30);
        assert_eq!(map.cycles_per_exec(), 33);
    }

    #[test]
    fn parallel_ops_share_a_level() {
        // 8 independent adds: one level, cost 1 (plus reconfig).
        let mut dfg = Dfg::new("wide");
        for _ in 0..8 {
            dfg.add_op(OpKind::Add, 32);
        }
        let map = map_dfg(&dfg, &device(1500)).unwrap();
        assert_eq!(map.compute_cycles, 1);
    }

    #[test]
    fn partition_split_adds_reconfig_and_serialises_levels() {
        // 50 independent adds (1500 units): splits into 2 partitions on
        // usable 1050. Each partition covers level 1 → 1 cycle each.
        let mut dfg = Dfg::new("wide");
        for _ in 0..50 {
            dfg.add_op(OpKind::Add, 32);
        }
        let map = map_dfg(&dfg, &device(1500)).unwrap();
        assert_eq!(map.partitioning.len(), 2);
        assert_eq!(map.compute_cycles, 2);
        assert_eq!(map.reconfig_cycles, 60);
    }

    #[test]
    fn bigger_fpga_means_fewer_cycles() {
        let mut dfg = Dfg::new("wide");
        for _ in 0..80 {
            dfg.add_op(OpKind::Add, 32);
        }
        let small = map_dfg(&dfg, &device(1500)).unwrap();
        let large = map_dfg(&dfg, &device(5000)).unwrap();
        assert!(large.cycles_per_exec() < small.cycles_per_exec());
        assert!(large.partitioning.len() < small.partitioning.len());
    }

    #[test]
    fn resident_policy_drops_single_partition_reconfig() {
        let mut dfg = Dfg::new("small");
        dfg.add_op(OpKind::Add, 32);
        let dev = device(1500).with_reconfig_policy(ReconfigPolicy::Resident);
        let map = map_dfg(&dfg, &dev).unwrap();
        assert_eq!(map.reconfig_cycles, 0);
        assert_eq!(map.cycles_per_exec(), 1);
    }

    #[test]
    fn resident_policy_keeps_multi_partition_cost() {
        let mut dfg = Dfg::new("wide");
        for _ in 0..50 {
            dfg.add_op(OpKind::Add, 32);
        }
        let dev = device(1500).with_reconfig_policy(ReconfigPolicy::Resident);
        let map = map_dfg(&dfg, &dev).unwrap();
        assert_eq!(map.reconfig_cycles, 60);
    }

    #[test]
    fn t_fpga_weights_by_frequency_and_subset() {
        let mut cdfg = Cdfg::new("app");
        let mut d0 = Dfg::new("b0");
        d0.add_op(OpKind::Add, 32);
        let mut d1 = Dfg::new("b1");
        d1.add_op(OpKind::Mul, 32);
        let b0 = cdfg.add_block(BasicBlock::from_dfg("b0", d0));
        let b1 = cdfg.add_block(BasicBlock::from_dfg("b1", d1));
        cdfg.add_edge(b0, b1).unwrap();
        let map = CdfgFineGrainMapping::map(&cdfg, &device(1500)).unwrap();
        let c0 = map.blocks[0].cycles_per_exec();
        let c1 = map.blocks[1].cycles_per_exec();
        let all = map.t_fpga(&[10, 5], |_| true);
        assert_eq!(all, 10 * c0 + 5 * c1);
        let only_b0 = map.t_fpga(&[10, 5], |i| i == 0);
        assert_eq!(only_b0, 10 * c0);
    }

    #[test]
    fn block_costs_agree_with_t_fpga() {
        let mut cdfg = Cdfg::new("app");
        for i in 0..4 {
            let mut d = Dfg::new(format!("b{i}"));
            for _ in 0..=i {
                d.add_op(OpKind::Mul, 32);
            }
            cdfg.add_block(BasicBlock::from_dfg(format!("b{i}"), d));
        }
        let map = CdfgFineGrainMapping::map(&cdfg, &device(1500)).unwrap();
        let freqs = [7u64, 0, 13, 100];
        let costs = map.block_costs(&freqs);
        assert_eq!(costs.iter().sum::<u64>(), map.t_fpga(&freqs, |_| true));
        for (i, &cost) in costs.iter().enumerate() {
            assert_eq!(cost, map.t_fpga(&freqs, |j| j == i));
        }
    }

    #[test]
    fn empty_block_costs_nothing() {
        let dfg = Dfg::new("empty");
        let map = map_dfg(&dfg, &device(1500)).unwrap();
        assert_eq!(map.cycles_per_exec(), 0);
    }

    #[test]
    fn partition_areas_cover_selected_blocks() {
        let mut cdfg = Cdfg::new("app");
        for i in 0..3 {
            let mut d = Dfg::new(format!("b{i}"));
            for _ in 0..50 {
                d.add_op(OpKind::Add, 32); // 1500 units → 2 partitions each
            }
            cdfg.add_block(BasicBlock::from_dfg(format!("b{i}"), d));
        }
        let map = CdfgFineGrainMapping::map(&cdfg, &device(1500)).unwrap();
        let all = map.partition_areas(|_| true);
        assert_eq!(all.len(), map.total_partitions());
        assert_eq!(
            all.iter().sum::<u64>(),
            map.blocks
                .iter()
                .map(|m| m.partitioning.total_area())
                .sum::<u64>()
        );
        let one = map.partition_areas(|i| i == 1);
        assert_eq!(one.len(), map.blocks[1].partitioning.len());
        assert_eq!(one.iter().sum::<u64>(), 50 * 30);
        assert!(map.partition_areas(|_| false).is_empty());
    }

    #[test]
    fn partition_footprints_keep_the_grouping() {
        let mut cdfg = Cdfg::new("app");
        for i in 0..3 {
            let mut d = Dfg::new(format!("b{i}"));
            for _ in 0..50 {
                d.add_op(OpKind::Add, 32); // 2 partitions per block
            }
            cdfg.add_block(BasicBlock::from_dfg(format!("b{i}"), d));
        }
        let map = CdfgFineGrainMapping::map(&cdfg, &device(1500)).unwrap();
        let grouped = map.partition_footprints(|i| i != 1);
        // Flattening the grouped records reproduces the flat vector.
        let flat: Vec<u64> = grouped.iter().map(|f| f.area).collect();
        assert_eq!(flat, map.partition_areas(|i| i != 1));
        // The grouping tags survive: blocks 0 and 2, partitions 0..len.
        assert!(grouped.iter().all(|f| f.block == 0 || f.block == 2));
        for block in [0usize, 2] {
            let parts: Vec<u32> = grouped
                .iter()
                .filter(|f| f.block == block)
                .map(|f| f.partition)
                .collect();
            let n = map.blocks[block].partitioning.len() as u32;
            assert_eq!(parts, (0..n).collect::<Vec<_>>());
        }
        assert!(map.partition_footprints(|_| false).is_empty());
    }
}
