//! Energy-constrained partitioning — the paper's stated *future work*.
//!
//! §5: "Future work focuses on partitioning an application for satisfying
//! energy consumption constraints." This module supplies that extension:
//! a per-class energy characterisation of both fabrics, eq. (2)-style
//! energy accounting for any block assignment, and an engine variant that
//! drains the kernel queue until an energy budget is met.
//!
//! The default characterisation encodes the standard finding the paper's
//! related work cites (Pleiades et al.): word-level operations executed
//! on ASIC coarse-grain units cost roughly an order of magnitude less
//! energy than on fine-grain LUT fabric, while reconfiguration and
//! shared-memory traffic add fixed per-event costs.

use crate::engine::Assignment;
use crate::platform::Platform;
use crate::CoreError;
use amdrel_cdfg::{Cdfg, OpClass};
use amdrel_finegrain::CdfgFineGrainMapping;
use amdrel_profiler::AnalysisReport;

/// Energy per operation class, in abstract energy units (pJ-scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEnergyTable {
    /// ALU-class operation.
    pub alu: u64,
    /// Multiplication.
    pub mul: u64,
    /// Division.
    pub div: u64,
    /// Memory access.
    pub mem: u64,
}

impl OpEnergyTable {
    /// Energy of one operation of `class`; boundary pseudo-ops are free.
    pub fn class_energy(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Mem => self.mem,
            OpClass::Boundary => 0,
        }
    }
}

/// The platform's energy characterisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyModel {
    /// Per-op energy on the fine-grain (FPGA) fabric.
    pub fpga: OpEnergyTable,
    /// Per-op energy on the coarse-grain (ASIC CGC) datapath.
    pub cgc: OpEnergyTable,
    /// Energy per full reconfiguration (per temporal-partition load).
    pub reconfig: u64,
    /// Energy per word moved through the shared data memory.
    pub comm_word: u64,
}

impl EnergyModel {
    /// Default characterisation: CGC word-level ops ~8× cheaper than the
    /// LUT fabric, expensive bitstream loads, SRAM-access-scale
    /// shared-memory words.
    pub fn asic_vs_lut() -> Self {
        EnergyModel {
            fpga: OpEnergyTable {
                alu: 8,
                mul: 40,
                div: 160,
                mem: 12,
            },
            cgc: OpEnergyTable {
                alu: 1,
                mul: 5,
                div: 20,
                mem: 12, // the shared memory is the same physical block
            },
            reconfig: 2000,
            comm_word: 6,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::asic_vs_lut()
    }
}

/// Energy decomposition of one application run under a given assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyBreakdown {
    /// Dynamic energy of operations executed on the FPGA.
    pub e_fpga_ops: u64,
    /// Reconfiguration energy (bitstream loads on the FPGA).
    pub e_reconfig: u64,
    /// Dynamic energy of operations executed on the CGC datapath.
    pub e_cgc_ops: u64,
    /// Shared-memory transfer energy for moved kernels.
    pub e_comm: u64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> u64 {
        self.e_fpga_ops + self.e_reconfig + self.e_cgc_ops + self.e_comm
    }
}

/// Per-block energy contributions of both fabrics, `exec_freq`-scaled —
/// the energy analogue of the timing engine's precomputed cost vectors.
///
/// Element `i` of each vector is block `i`'s contribution to the matching
/// [`EnergyBreakdown`] component when the block sits on that fabric, so
/// any assignment's energy is a sum over these vectors
/// ([`Self::breakdown`]), and moving one block between the fabrics is an
/// O(1) delta ([`Self::move_to_coarse`]). Design-space explorers use the
/// deltas to walk every kernel-budget prefix of a move trace without
/// rescanning the CDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEnergyCosts {
    /// Dynamic operation energy on the FPGA (`freq × Σ fpga op-energy`).
    pub fpga_ops: Vec<u64>,
    /// Reconfiguration energy on the FPGA (`freq × partitions × reconfig`,
    /// the same accounting as eq. (4)'s time).
    pub reconfig: Vec<u64>,
    /// Dynamic operation energy on the CGC datapath.
    pub cgc_ops: Vec<u64>,
    /// Shared-memory traffic energy when moved
    /// (`freq × (live_in + live_out) × comm_word`).
    pub comm: Vec<u64>,
}

impl BlockEnergyCosts {
    /// Compute the vectors from an analysed application and its fine-grain
    /// mapping (needed for the temporal-partition counts). The mapping may
    /// come from a shared [`crate::MappingCache`], so sweeps price many
    /// assignments against one mapping.
    pub fn compute(
        cdfg: &Cdfg,
        analysis: &AnalysisReport,
        fine: &CdfgFineGrainMapping,
        model: &EnergyModel,
    ) -> Self {
        let n = cdfg.len();
        let mut costs = BlockEnergyCosts {
            fpga_ops: Vec::with_capacity(n),
            reconfig: Vec::with_capacity(n),
            cgc_ops: Vec::with_capacity(n),
            comm: Vec::with_capacity(n),
        };
        for (i, (id, bb)) in cdfg.iter().enumerate() {
            let freq = analysis.block(id).exec_freq;
            let hist = bb.dfg.class_histogram();
            let per_exec_fpga: u64 = hist
                .iter()
                .map(|(&c, &n)| model.fpga.class_energy(c) * n as u64)
                .sum();
            let per_exec_cgc: u64 = hist
                .iter()
                .map(|(&c, &n)| model.cgc.class_energy(c) * n as u64)
                .sum();
            costs.fpga_ops.push(freq.saturating_mul(per_exec_fpga));
            costs.reconfig.push(
                freq.saturating_mul(fine.blocks[i].partitioning.len() as u64)
                    .saturating_mul(model.reconfig),
            );
            costs.cgc_ops.push(freq.saturating_mul(per_exec_cgc));
            costs.comm.push(
                freq.saturating_mul(u64::from(bb.live_in + bb.live_out))
                    .saturating_mul(model.comm_word),
            );
        }
        costs
    }

    /// The energy of the all-FPGA mapping (step 2 of the flow).
    pub fn all_fpga(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            e_fpga_ops: self.fpga_ops.iter().sum(),
            e_reconfig: self.reconfig.iter().sum(),
            e_cgc_ops: 0,
            e_comm: 0,
        }
    }

    /// The energy of an arbitrary assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the block count.
    pub fn breakdown(&self, assignment: &[Assignment]) -> EnergyBreakdown {
        let mut e = EnergyBreakdown {
            e_fpga_ops: 0,
            e_reconfig: 0,
            e_cgc_ops: 0,
            e_comm: 0,
        };
        for (i, a) in assignment[..self.fpga_ops.len()].iter().enumerate() {
            match a {
                Assignment::FineGrain => {
                    e.e_fpga_ops += self.fpga_ops[i];
                    e.e_reconfig += self.reconfig[i];
                }
                Assignment::CoarseGrain => {
                    e.e_cgc_ops += self.cgc_ops[i];
                    e.e_comm += self.comm[i];
                }
            }
        }
        e
    }

    /// Apply the O(1) energy delta of moving block `i` (currently on the
    /// FPGA under `e`) to the coarse-grain hardware.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn move_to_coarse(&self, e: &mut EnergyBreakdown, i: usize) {
        e.e_fpga_ops -= self.fpga_ops[i];
        e.e_reconfig -= self.reconfig[i];
        e.e_cgc_ops += self.cgc_ops[i];
        e.e_comm += self.comm[i];
    }
}

/// Evaluate the energy of `assignment` over one application run.
///
/// Per block: `freq × Σ op-energy(fabric)`; FPGA blocks additionally pay
/// `freq × partitions × reconfig` (same accounting as eq. (4)'s time);
/// CGC blocks pay `freq × (live_in + live_out) × comm_word`. (The
/// per-block pricing lives in [`BlockEnergyCosts`]; this entry point maps
/// the CDFG and sums the vectors.)
///
/// # Errors
///
/// Fine-grain mapping failures (needed for partition counts).
pub fn energy_of_assignment(
    cdfg: &Cdfg,
    analysis: &AnalysisReport,
    platform: &Platform,
    model: &EnergyModel,
    assignment: &[Assignment],
) -> Result<EnergyBreakdown, CoreError> {
    let fine = CdfgFineGrainMapping::map(cdfg, &platform.fpga)?;
    Ok(BlockEnergyCosts::compute(cdfg, analysis, &fine, model).breakdown(assignment))
}

/// One step of the energy engine's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyMove {
    /// The kernel moved.
    pub kernel: amdrel_cdfg::BlockId,
    /// Energy after the move.
    pub energy: EnergyBreakdown,
}

/// Outcome of energy-constrained partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyResult {
    /// The energy budget.
    pub budget: u64,
    /// All-FPGA energy.
    pub initial: EnergyBreakdown,
    /// Moves performed.
    pub moves: Vec<EnergyMove>,
    /// Final assignment.
    pub assignment: Vec<Assignment>,
    /// Final energy.
    pub energy: EnergyBreakdown,
    /// Whether the budget was met.
    pub met: bool,
}

impl EnergyResult {
    /// Percentage energy reduction relative to the all-FPGA mapping.
    pub fn reduction_percent(&self) -> f64 {
        let initial = self.initial.total();
        if initial == 0 {
            return 0.0;
        }
        (initial as f64 - self.energy.total() as f64) / initial as f64 * 100.0
    }
}

/// Partition for an energy budget: move kernels (heaviest first, the same
/// §3.1 ordering) while the total energy exceeds `budget`, skipping moves
/// that would increase energy (communication-dominated kernels).
///
/// # Errors
///
/// Mapping failures from the underlying models.
pub fn partition_for_energy(
    cdfg: &Cdfg,
    analysis: &AnalysisReport,
    platform: &Platform,
    model: &EnergyModel,
    budget: u64,
) -> Result<EnergyResult, CoreError> {
    let n = cdfg.len();
    let mut assignment = vec![Assignment::FineGrain; n];
    let initial = energy_of_assignment(cdfg, analysis, platform, model, &assignment)?;
    let mut energy = initial;
    let mut moves = Vec::new();
    for &kernel in analysis.kernels() {
        if energy.total() <= budget {
            break;
        }
        assignment[kernel.index()] = Assignment::CoarseGrain;
        let candidate = energy_of_assignment(cdfg, analysis, platform, model, &assignment)?;
        if candidate.total() >= energy.total() {
            assignment[kernel.index()] = Assignment::FineGrain; // revert
            continue;
        }
        energy = candidate;
        moves.push(EnergyMove { kernel, energy });
    }
    let met = energy.total() <= budget;
    Ok(EnergyResult {
        budget,
        initial,
        moves,
        assignment,
        energy,
        met,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        int data[256];
        int out[256];
        int main() {
            for (int i = 0; i < 256; i++) {
                int x = data[i];
                out[i] = x * x * 3 + x * 7 + 11;
            }
            return out[0];
        }
    "#;

    fn prepared() -> (amdrel_minic::CompiledProgram, AnalysisReport) {
        let app = crate::analyze(SRC, &[]).unwrap();
        (app.program, app.analysis)
    }

    #[test]
    fn accounting_identity() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        let model = EnergyModel::default();
        let all_fpga = vec![Assignment::FineGrain; c.cdfg.len()];
        let e = energy_of_assignment(&c.cdfg, &a, &platform, &model, &all_fpga).unwrap();
        assert_eq!(
            e.total(),
            e.e_fpga_ops + e.e_reconfig + e.e_cgc_ops + e.e_comm
        );
        assert_eq!(e.e_cgc_ops, 0);
        assert_eq!(e.e_comm, 0);
        assert!(e.e_fpga_ops > 0 && e.e_reconfig > 0);
    }

    #[test]
    fn moving_compute_kernels_saves_energy() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        let model = EnergyModel::default();
        let mut assignment = vec![Assignment::FineGrain; c.cdfg.len()];
        let before = energy_of_assignment(&c.cdfg, &a, &platform, &model, &assignment)
            .unwrap()
            .total();
        // Move the heaviest kernel.
        assignment[a.kernels()[0].index()] = Assignment::CoarseGrain;
        let after = energy_of_assignment(&c.cdfg, &a, &platform, &model, &assignment)
            .unwrap()
            .total();
        assert!(
            after < before,
            "ASIC execution of the hot kernel must save energy ({after} !< {before})"
        );
    }

    #[test]
    fn engine_meets_achievable_budget() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        let model = EnergyModel::default();
        // Find the asymptote, then ask for something between.
        let floor = partition_for_energy(&c.cdfg, &a, &platform, &model, 0).unwrap();
        let budget = (floor.energy.total() + floor.initial.total()) / 2;
        let r = partition_for_energy(&c.cdfg, &a, &platform, &model, budget).unwrap();
        assert!(
            r.met,
            "budget {budget} achievable (floor {})",
            floor.energy.total()
        );
        assert!(!r.moves.is_empty());
        assert!(r.reduction_percent() > 0.0);
    }

    #[test]
    fn engine_never_increases_energy() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        // Adversarial model: communication so expensive no move pays.
        let model = EnergyModel {
            comm_word: 1_000_000,
            ..EnergyModel::default()
        };
        let r = partition_for_energy(&c.cdfg, &a, &platform, &model, 0).unwrap();
        assert!(r.moves.is_empty(), "every move should be skipped");
        assert_eq!(r.energy, r.initial);
        assert!(!r.met);
    }

    #[test]
    fn impossible_budget_reports_unmet() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        let model = EnergyModel::default();
        let r = partition_for_energy(&c.cdfg, &a, &platform, &model, 1).unwrap();
        assert!(!r.met);
        // Trace is monotonically decreasing.
        let mut last = r.initial.total();
        for m in &r.moves {
            assert!(m.energy.total() < last);
            last = m.energy.total();
        }
    }

    #[test]
    fn incremental_deltas_match_full_accounting() {
        let (c, a) = prepared();
        let platform = Platform::paper(1500, 2);
        let model = EnergyModel::default();
        let fine = CdfgFineGrainMapping::map(&c.cdfg, &platform.fpga).unwrap();
        let costs = BlockEnergyCosts::compute(&c.cdfg, &a, &fine, &model);
        let mut assignment = vec![Assignment::FineGrain; c.cdfg.len()];
        let mut running = costs.all_fpga();
        assert_eq!(
            running,
            energy_of_assignment(&c.cdfg, &a, &platform, &model, &assignment).unwrap()
        );
        // Move every kernel in engine order; after each O(1) delta the
        // running breakdown must equal a from-scratch evaluation.
        for &kernel in a.kernels() {
            assignment[kernel.index()] = Assignment::CoarseGrain;
            costs.move_to_coarse(&mut running, kernel.index());
            assert_eq!(running, costs.breakdown(&assignment), "after {kernel:?}");
            assert_eq!(
                running,
                energy_of_assignment(&c.cdfg, &a, &platform, &model, &assignment).unwrap()
            );
        }
    }

    #[test]
    fn op_energy_table_boundary_free() {
        let t = EnergyModel::default().fpga;
        assert_eq!(t.class_energy(OpClass::Boundary), 0);
        assert!(t.class_energy(OpClass::Mul) > t.class_energy(OpClass::Alu));
    }
}
