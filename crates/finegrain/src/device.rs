//! Fine-grain (embedded FPGA) device characterisation.
//!
//! The methodology "is parameterized with respect to the reconfigurable
//! hardware … both types of reconfigurable hardware are characterized in
//! terms of timing and area characteristics". This module is that
//! characterisation for the fine-grain side: an abstract area budget
//! (`A_FPGA` in the paper, 1500 or 5000 "units of area" in the
//! experiments), the routable fraction (70% — "a typical value"), per-op
//! area and latency tables, and the full-reconfiguration cost.

use amdrel_cdfg::{DfgNode, OpClass, OpKind};

/// Per-class area costs in abstract FPGA area units, scaled by bitwidth.
///
/// `area(node) = max(1, base(class) × bitwidth / 32)` for schedulable ops;
/// boundary pseudo-ops are free. The defaults put a 32-bit multiplier at
/// 4× a 32-bit ALU op — the usual LUT-count ratio for array multipliers
/// vs. ripple adders on 2000s FPGAs — and are calibrated so that the
/// paper's experimental regime holds on the case-study applications:
/// hot DSP kernels split into several temporal partitions at
/// `A_FPGA = 1500` but fit into one at `A_FPGA = 5000`, reproducing the
/// initial-cycle ratios of Tables 2/3 (see EXPERIMENTS.md for the
/// calibration sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AreaLibrary {
    /// Base area of an ALU-class op at 32 bits.
    pub alu: u64,
    /// Base area of a multiplier at 32 bits.
    pub mul: u64,
    /// Base area of a divider at 32 bits.
    pub div: u64,
    /// Base area of a memory port at 32 bits.
    pub mem: u64,
}

impl AreaLibrary {
    /// Default characterisation (see type-level docs).
    pub fn virtex_like() -> Self {
        AreaLibrary {
            alu: 180,
            mul: 720,
            div: 1440,
            mem: 120,
        }
    }

    /// Area of one DFG node in abstract units.
    pub fn node_area(&self, node: &DfgNode) -> u64 {
        let base = match node.kind.class() {
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Mem => self.mem,
            OpClass::Boundary => return 0,
        };
        (base * u64::from(node.bitwidth.max(1)) / 32).max(1)
    }
}

impl Default for AreaLibrary {
    fn default() -> Self {
        AreaLibrary::virtex_like()
    }
}

/// Per-class execution latencies on the fine-grain fabric, in FPGA clock
/// cycles. One ASAP level of a temporal partition costs the maximum
/// latency among its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpgaLatency {
    /// ALU-class latency (cycles).
    pub alu: u64,
    /// Multiplier latency.
    pub mul: u64,
    /// Divider latency.
    pub div: u64,
    /// Memory access latency.
    pub mem: u64,
}

impl FpgaLatency {
    /// Defaults matching the analysis weights: ALU 1, MUL 2.
    pub fn paper() -> Self {
        FpgaLatency {
            alu: 1,
            mul: 2,
            div: 16,
            mem: 1,
        }
    }

    /// Latency of one operation kind; boundary ops take no time.
    pub fn op_latency(&self, kind: OpKind) -> u64 {
        match kind.class() {
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Mem => self.mem,
            OpClass::Boundary => 0,
        }
    }
}

impl Default for FpgaLatency {
    fn default() -> Self {
        FpgaLatency::paper()
    }
}

/// When full reconfiguration is charged (§3.2: "For each temporal
/// partition, full reconfiguration of the fine-grain hardware is
/// performed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReconfigPolicy {
    /// eq. (4) taken literally: every execution of a basic block reloads
    /// the bitstream of each of its temporal partitions. The paper's
    /// model; the default.
    #[default]
    PerExecution,
    /// A single-partition block that repeats back-to-back keeps its
    /// configuration resident and pays no per-iteration reconfiguration
    /// (multi-partition blocks still cycle through their bitstreams).
    /// Exposed for the reconfiguration-cost ablation.
    Resident,
}

/// The fine-grain reconfigurable device.
///
/// # Examples
///
/// ```
/// use amdrel_finegrain::FpgaDevice;
///
/// let dev = FpgaDevice::new(1500); // the paper's small configuration
/// assert_eq!(dev.usable_area(), 1050); // 70% routable
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Total area in abstract units (`A_FPGA`).
    pub total_area: u64,
    /// Fraction of the area the mapper may fill so routing stays feasible
    /// (paper: "a typical value is a 70% of the overall FPGA area").
    pub usable_fraction: f64,
    /// Cycles to fully reconfigure the device, charged once per temporal
    /// partition per execution (policy-dependent).
    pub reconfig_cycles: u64,
    /// Reconfiguration accounting policy.
    pub reconfig_policy: ReconfigPolicy,
    /// Per-op area characterisation.
    pub area: AreaLibrary,
    /// Per-op latency characterisation.
    pub latency: FpgaLatency,
}

impl FpgaDevice {
    /// A device with `total_area` units and default characterisation.
    pub fn new(total_area: u64) -> Self {
        FpgaDevice {
            total_area,
            usable_fraction: 0.70,
            reconfig_cycles: 10,
            reconfig_policy: ReconfigPolicy::default(),
            area: AreaLibrary::default(),
            latency: FpgaLatency::default(),
        }
    }

    /// Builder-style override of the reconfiguration cost.
    pub fn with_reconfig_cycles(mut self, cycles: u64) -> Self {
        self.reconfig_cycles = cycles;
        self
    }

    /// Builder-style override of the reconfiguration policy.
    pub fn with_reconfig_policy(mut self, policy: ReconfigPolicy) -> Self {
        self.reconfig_policy = policy;
        self
    }

    /// Builder-style override of the usable fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    pub fn with_usable_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "usable fraction must be in (0, 1]"
        );
        self.usable_fraction = fraction;
        self
    }

    /// The area the temporal partitioner may fill
    /// (`A_FPGA × usable_fraction`, floored).
    pub fn usable_area(&self) -> u64 {
        (self.total_area as f64 * self.usable_fraction).floor() as u64
    }

    /// A hashable key identifying this device characterisation, usable
    /// for memoising fine-grain mappings (the device is the only input to
    /// [`crate::map_dfg`] besides the DFG itself). Two devices with equal
    /// keys produce identical mappings for any CDFG.
    pub fn config_key(&self) -> FpgaConfigKey {
        FpgaConfigKey {
            total_area: self.total_area,
            usable_fraction_bits: self.usable_fraction.to_bits(),
            reconfig_cycles: self.reconfig_cycles,
            reconfig_policy: self.reconfig_policy,
            area: self.area,
            latency: self.latency,
        }
    }
}

/// Hashable identity of an [`FpgaDevice`] configuration (the
/// `usable_fraction` float is keyed by its bit pattern). See
/// [`FpgaDevice::config_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpgaConfigKey {
    total_area: u64,
    usable_fraction_bits: u64,
    reconfig_cycles: u64,
    reconfig_policy: ReconfigPolicy,
    area: AreaLibrary,
    latency: FpgaLatency,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::DfgNode;

    #[test]
    fn usable_area_is_seventy_percent() {
        assert_eq!(FpgaDevice::new(1500).usable_area(), 1050);
        assert_eq!(FpgaDevice::new(5000).usable_area(), 3500);
    }

    #[test]
    fn area_scales_with_bitwidth() {
        let lib = AreaLibrary::virtex_like();
        let add32 = DfgNode::new(OpKind::Add, 32);
        let add16 = DfgNode::new(OpKind::Add, 16);
        let mul16 = DfgNode::new(OpKind::Mul, 16);
        assert_eq!(lib.node_area(&add32), lib.alu);
        assert_eq!(lib.node_area(&add16), lib.alu / 2);
        assert_eq!(lib.node_area(&mul16), lib.mul / 2);
        // The multiplier:ALU ratio stays 4:1 at equal width.
        assert_eq!(lib.mul, 4 * lib.alu);
    }

    #[test]
    fn boundary_nodes_are_free() {
        let lib = AreaLibrary::virtex_like();
        assert_eq!(lib.node_area(&DfgNode::new(OpKind::Const, 32)), 0);
        assert_eq!(lib.node_area(&DfgNode::new(OpKind::LiveIn, 32)), 0);
    }

    #[test]
    fn tiny_ops_cost_at_least_one_unit() {
        let lib = AreaLibrary {
            alu: 30,
            mul: 120,
            div: 240,
            mem: 20,
        };
        assert_eq!(lib.node_area(&DfgNode::new(OpKind::Lt, 1)), 1);
    }

    #[test]
    fn latency_table() {
        let lat = FpgaLatency::paper();
        assert_eq!(lat.op_latency(OpKind::Add), 1);
        assert_eq!(lat.op_latency(OpKind::Mul), 2);
        assert_eq!(lat.op_latency(OpKind::LiveIn), 0);
    }

    #[test]
    #[should_panic(expected = "usable fraction")]
    fn invalid_fraction_panics() {
        let _ = FpgaDevice::new(100).with_usable_fraction(0.0);
    }

    #[test]
    fn config_key_tracks_every_field() {
        let base = FpgaDevice::new(1500);
        assert_eq!(base.config_key(), FpgaDevice::new(1500).config_key());
        assert_ne!(base.config_key(), FpgaDevice::new(5000).config_key());
        assert_ne!(
            base.config_key(),
            FpgaDevice::new(1500).with_reconfig_cycles(99).config_key()
        );
        assert_ne!(
            base.config_key(),
            FpgaDevice::new(1500)
                .with_reconfig_policy(ReconfigPolicy::Resident)
                .config_key()
        );
        assert_ne!(
            base.config_key(),
            FpgaDevice::new(1500).with_usable_fraction(0.5).config_key()
        );
    }
}
