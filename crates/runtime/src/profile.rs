//! Per-application runtime profiles: what one job of an application
//! costs on each half of the hybrid platform, and which fine-grain
//! configuration it needs resident.
//!
//! A profile is derived from the *static* methodology's outputs — the
//! engine's [`PartitionResult`] prices one execution (eq. (2)) and the
//! fine-grain mapping's temporal partitions describe the bitstream set
//! the FPGA-resident blocks occupy — so the simulator replays exactly
//! the partitioning the paper's flow chose, under contention.

use amdrel_core::{Assignment, PartitionResult};
use amdrel_finegrain::CdfgFineGrainMapping;

/// Identity of a fine-grain configuration (one application's bitstream
/// set). The configuration cache compares these: equal ids re-enter the
/// fabric for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u64);

/// The fine-grain configuration an application keeps resident while its
/// jobs execute: one area entry per temporal partition, in load order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    /// Cache identity.
    pub id: ConfigId,
    /// Partition areas in load order (the per-bitstream granularity).
    pub partition_areas: Vec<u64>,
}

impl FabricConfig {
    /// Build a configuration, deriving the [`ConfigId`] from a stable
    /// FNV-1a hash of the name and the partition areas (no process-seeded
    /// hasher, so ids are bit-identical across runs and machines).
    pub fn new(name: &str, partition_areas: Vec<u64>) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in name.bytes() {
            eat(b);
        }
        for a in &partition_areas {
            for b in a.to_le_bytes() {
                eat(b);
            }
        }
        FabricConfig {
            id: ConfigId(h),
            partition_areas,
        }
    }

    /// Total configuration data: the sum of the partition areas.
    pub fn total_area(&self) -> u64 {
        self.partition_areas.iter().sum()
    }

    /// Number of bitstreams in the set.
    pub fn partitions(&self) -> usize {
        self.partition_areas.len()
    }
}

/// The runtime cost profile of one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppProfile {
    /// Application name (reporting key).
    pub name: String,
    /// Scheduling priority for the priority policy (higher is more
    /// urgent).
    pub priority: u8,
    /// Fine-grain FPGA cycles per job (eq. (4) over the blocks left on
    /// the fine-grain hardware).
    pub fine_cycles: u64,
    /// Coarse-grain cycles per job, already converted to FPGA cycles
    /// (eq. (3) / clock ratio).
    pub coarse_cycles: u64,
    /// Shared-memory communication cycles per job.
    pub comm_cycles: u64,
    /// The fine-grain configuration the job's FPGA phase needs loaded.
    pub config: FabricConfig,
}

/// Cost multiplier for fine-grain work emulated on the coarse-grain
/// datapath when a job degrades to its fallback path (the fabric's
/// bit-level parallelism is lost, so each residual FPGA cycle is priced
/// at this many CGC cycles).
pub const FALLBACK_FINE_PENALTY: u64 = 4;

impl AppProfile {
    /// Total service demand of one job, ignoring reconfiguration and
    /// queueing (the shortest-job-first ranking key).
    pub fn service_cycles(&self) -> u64 {
        self.fine_cycles + self.coarse_cycles + self.comm_cycles
    }

    /// Cycles one job takes on the **coarse-grain-only fallback path** —
    /// the graceful-degradation route a job whose fabric retries are
    /// exhausted is re-priced onto. Derived from the same per-budget
    /// [`Breakdown`](amdrel_core::Breakdown) phase split the profile
    /// carries (eq. (2)): the coarse and communication phases run as
    /// priced, and the residual fine-grain phase is emulated on the
    /// coarse datapath at [`FALLBACK_FINE_PENALTY`]× its FPGA cost.
    pub fn fallback_cycles(&self) -> u64 {
        self.coarse_cycles
            .saturating_add(self.comm_cycles)
            .saturating_add(self.fine_cycles.saturating_mul(FALLBACK_FINE_PENALTY))
    }

    /// Derive a profile from the static flow's outputs: the engine's
    /// [`PartitionResult`] prices the phases, and the fine-grain
    /// `mapping`'s temporal partitions of the blocks the engine left on
    /// the FPGA form the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `result.assignment` and `mapping.blocks` disagree on
    /// the block count (the result and mapping must come from the same
    /// CDFG).
    pub fn from_partitioning(
        name: &str,
        priority: u8,
        result: &PartitionResult,
        mapping: &CdfgFineGrainMapping,
    ) -> Self {
        assert_eq!(
            result.assignment.len(),
            mapping.blocks.len(),
            "partition result and fine-grain mapping disagree on block count"
        );
        let areas = mapping.partition_areas(|i| result.assignment[i] == Assignment::FineGrain);
        AppProfile {
            name: name.to_owned(),
            priority,
            fine_cycles: result.breakdown.t_fpga,
            coarse_cycles: result.breakdown.t_coarse,
            comm_cycles: result.breakdown.t_comm,
            config: FabricConfig::new(name, areas),
        }
    }

    /// A hand-built profile for tests and synthetic workloads.
    pub fn synthetic(
        name: &str,
        priority: u8,
        fine_cycles: u64,
        coarse_cycles: u64,
        partition_areas: Vec<u64>,
    ) -> Self {
        AppProfile {
            name: name.to_owned(),
            priority,
            fine_cycles,
            coarse_cycles,
            comm_cycles: 0,
            config: FabricConfig::new(name, partition_areas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_ids_are_stable_and_distinct() {
        let a = FabricConfig::new("ofdm", vec![100, 200]);
        let b = FabricConfig::new("ofdm", vec![100, 200]);
        let c = FabricConfig::new("jpeg", vec![100, 200]);
        let d = FabricConfig::new("ofdm", vec![200, 100]);
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_ne!(a.id, d.id, "load order is part of the identity");
        assert_eq!(a.total_area(), 300);
        assert_eq!(a.partitions(), 2);
    }

    #[test]
    fn service_cycles_sum_phases() {
        let mut p = AppProfile::synthetic("x", 1, 100, 30, vec![50]);
        p.comm_cycles = 7;
        assert_eq!(p.service_cycles(), 137);
    }

    #[test]
    fn fallback_reprices_the_fine_phase_onto_the_coarse_path() {
        let mut p = AppProfile::synthetic("x", 1, 100, 30, vec![50]);
        p.comm_cycles = 7;
        assert_eq!(p.fallback_cycles(), 30 + 7 + 4 * 100);
        assert!(p.fallback_cycles() > p.service_cycles());
        let coarse_only = AppProfile::synthetic("y", 0, 0, 500, vec![]);
        assert_eq!(
            coarse_only.fallback_cycles(),
            coarse_only.service_cycles(),
            "no fine phase, no penalty"
        );
        let huge = AppProfile::synthetic("z", 0, u64::MAX, u64::MAX, vec![]);
        assert_eq!(huge.fallback_cycles(), u64::MAX, "saturates, no overflow");
    }
}
