//! The hybrid reconfigurable platform description (Figure 1 of the paper).
//!
//! "The platform includes coarse and fine-grain reconfigurable hardware
//! units for data processing, shared data memory, and a reconfigurable
//! interconnection network." A [`Platform`] bundles the fine-grain device
//! characterisation, the CGC datapath, the clock-domain ratio and the
//! shared-memory communication model — everything the partitioning engine
//! needs to evaluate eq. (2).

use amdrel_coarsegrain::{CgcDatapath, SchedulerConfig};
use amdrel_finegrain::FpgaDevice;

/// Cost model for moving data between the fine- and coarse-grain units
/// through the shared data memory.
///
/// Moving a kernel to the coarse-grain datapath means each execution must
/// read its live-ins from, and write its live-outs to, the shared memory:
///
/// ```text
/// t_comm(BB) = Iter(BB) × ((live_in + live_out) × cycles_per_word + setup_cycles)
/// ```
///
/// in FPGA cycles. The defaults (1 cycle/word, 2-cycle setup) keep
/// communication subordinate to kernel compute time, consistent with the
/// paper's results where `t_comm` is accounted for but never dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommModel {
    /// FPGA cycles per word transferred through the shared data memory.
    pub cycles_per_word: u64,
    /// Fixed FPGA-cycle overhead per kernel invocation (synchronisation
    /// through the interconnect).
    pub setup_cycles: u64,
}

impl CommModel {
    /// The default shared-memory cost model.
    pub fn shared_memory() -> Self {
        CommModel {
            cycles_per_word: 1,
            setup_cycles: 2,
        }
    }

    /// A zero-cost model (ablation: ideal communication).
    pub fn free() -> Self {
        CommModel {
            cycles_per_word: 0,
            setup_cycles: 0,
        }
    }

    /// Communication cycles for one execution of a block with the given
    /// interface widths.
    pub fn cycles_per_exec(&self, live_in: u32, live_out: u32) -> u64 {
        u64::from(live_in + live_out) * self.cycles_per_word + self.setup_cycles
    }
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel::shared_memory()
    }
}

/// Cost model for loading a fine-grain configuration (a set of temporal
/// partitions) onto the FPGA at runtime.
///
/// Partial-reconfiguration work scales with the configuration's area —
/// bigger bitstreams take longer to stream in — plus a fixed per-load
/// overhead for frame addressing and ICAP setup:
///
/// ```text
/// t_reconfig(partition) = base_cycles + area × cycles_per_area
/// ```
///
/// in FPGA cycles. The engine's per-execution reconfiguration accounting
/// (eq. (4)) stays inside [`amdrel_finegrain::FpgaDevice`]; this model
/// prices the *inter-application* swaps the multi-tenant runtime
/// simulator (`amdrel-runtime`) performs when one application's
/// configuration replaces another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReconfigModel {
    /// Fixed FPGA-cycle overhead per configuration load.
    pub base_cycles: u64,
    /// FPGA cycles per abstract area unit streamed in.
    pub cycles_per_area: u64,
}

impl ReconfigModel {
    /// The default model: 100-cycle setup plus one cycle per area unit
    /// (a 1500-unit device swaps in ~1.6k cycles — small next to the
    /// case-study kernels, large enough to matter under heavy traffic).
    pub fn streamed() -> Self {
        ReconfigModel {
            base_cycles: 100,
            cycles_per_area: 1,
        }
    }

    /// A zero-cost model (ablation: free reconfiguration).
    pub fn free() -> Self {
        ReconfigModel {
            base_cycles: 0,
            cycles_per_area: 0,
        }
    }

    /// FPGA cycles to load one temporal partition of `area` units.
    pub fn load_cycles(&self, area: u64) -> u64 {
        self.base_cycles + area.saturating_mul(self.cycles_per_area)
    }

    /// Whether every load is free (the [`ReconfigModel::free`] ablation).
    pub fn is_free(&self) -> bool {
        self.base_cycles == 0 && self.cycles_per_area == 0
    }
}

impl Default for ReconfigModel {
    fn default() -> Self {
        ReconfigModel::streamed()
    }
}

/// The complete hybrid platform.
///
/// # Examples
///
/// ```
/// use amdrel_core::Platform;
///
/// // The paper's four experimental configurations:
/// for area in [1500u64, 5000] {
///     for cgcs in [2usize, 3] {
///         let p = Platform::paper(area, cgcs);
///         assert_eq!(p.clock_ratio, 3); // T_FPGA = 3 × T_CGC
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Fine-grain (embedded FPGA) device.
    pub fpga: FpgaDevice,
    /// Coarse-grain CGC datapath.
    pub datapath: CgcDatapath,
    /// `T_FPGA / T_CGC` (paper: 3 — "a rather moderate assumption for the
    /// performance gain of an ASIC technology compared to an FPGA one").
    pub clock_ratio: u64,
    /// Shared-memory communication cost model.
    pub comm: CommModel,
    /// Coarse-grain scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Runtime configuration-load cost model (inter-application swaps).
    pub reconfig: ReconfigModel,
}

impl Platform {
    /// A platform with the given devices and default clock ratio (3),
    /// communication model and scheduler.
    pub fn new(fpga: FpgaDevice, datapath: CgcDatapath) -> Self {
        Platform {
            fpga,
            datapath,
            clock_ratio: 3,
            comm: CommModel::default(),
            scheduler: SchedulerConfig::default(),
            reconfig: ReconfigModel::default(),
        }
    }

    /// One of the paper's experimental configurations: `A_FPGA = area`
    /// (1500 or 5000 in the paper) and `cgc_count` 2×2 CGCs (two or
    /// three).
    ///
    /// # Panics
    ///
    /// Panics if `cgc_count == 0`.
    pub fn paper(area: u64, cgc_count: usize) -> Self {
        Platform::new(
            FpgaDevice::new(area),
            CgcDatapath::uniform(cgc_count, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO),
        )
    }

    /// Builder-style override of the clock ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio == 0`.
    pub fn with_clock_ratio(mut self, ratio: u64) -> Self {
        assert!(ratio > 0, "clock ratio must be positive");
        self.clock_ratio = ratio;
        self
    }

    /// Builder-style override of the communication model.
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Builder-style override of the scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style override of the runtime reconfiguration model.
    pub fn with_reconfig(mut self, reconfig: ReconfigModel) -> Self {
        self.reconfig = reconfig;
        self
    }

    /// Convert CGC cycles to FPGA cycles, rounding up.
    /// (`t × T_CGC = t / ratio × T_FPGA`.)
    pub fn cgc_to_fpga_cycles(&self, cgc_cycles: u64) -> u64 {
        cgc_cycles.div_ceil(self.clock_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_model_formula() {
        let m = CommModel::shared_memory();
        assert_eq!(m.cycles_per_exec(3, 2), 5 + 2);
        assert_eq!(CommModel::free().cycles_per_exec(100, 100), 0);
    }

    #[test]
    fn paper_platform_shapes() {
        let p = Platform::paper(1500, 3);
        assert_eq!(p.fpga.total_area, 1500);
        assert_eq!(p.datapath.cgcs.len(), 3);
        assert_eq!(p.datapath.describe(), "three 2x2 CGCs");
    }

    #[test]
    fn clock_conversion_rounds_up() {
        let p = Platform::paper(1500, 2);
        assert_eq!(p.cgc_to_fpga_cycles(9), 3);
        assert_eq!(p.cgc_to_fpga_cycles(10), 4);
        assert_eq!(p.cgc_to_fpga_cycles(0), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let _ = Platform::paper(1500, 2).with_clock_ratio(0);
    }

    #[test]
    fn reconfig_model_scales_with_area() {
        let m = ReconfigModel::streamed();
        assert_eq!(m.load_cycles(0), 100);
        assert_eq!(m.load_cycles(1050), 1150);
        assert!(!m.is_free());
        assert_eq!(ReconfigModel::free().load_cycles(u64::MAX), 0);
        assert!(ReconfigModel::free().is_free());
    }

    #[test]
    fn platform_carries_reconfig_model() {
        let p = Platform::paper(1500, 2).with_reconfig(ReconfigModel {
            base_cycles: 7,
            cycles_per_area: 3,
        });
        assert_eq!(p.reconfig.load_cycles(10), 37);
        assert_eq!(Platform::paper(1500, 2).reconfig, ReconfigModel::streamed());
    }
}
