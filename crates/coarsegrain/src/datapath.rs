//! The CGC-based coarse-grain datapath of the authors' FPL'04 paper
//! (reference [6]): a set of Coarse-Grain Components, a reconfigurable
//! interconnection network and a register bank.
//!
//! "The CGC is an n×m array of nodes, where n is the number of rows and m
//! the number of columns. The connections among the CGC nodes are
//! reconfigured by appropriate steering logic. This allows to easily
//! realize any complex operations (like a multiply-add operation) … Each
//! CGC node contains a multiplier and ALU where only one of them is
//! activated in a clock cycle."
//!
//! Scheduling-relevant consequences modelled here:
//!
//! * per clock cycle, one CGC offers `m` *chains* of up to `n` dependent
//!   word-level operations each (data flows down the rows through the
//!   steering logic), i.e. up to `n × m` operations per CGC per cycle;
//! * a dependent pair placed in the same column completes in one cycle —
//!   the multiply-add case;
//! * every cycle has period `T_CGC` ("unit execution delay for the CGCs");
//! * loads/stores go through shared-memory ports, not CGC nodes.

use std::fmt;

/// Geometry of one Coarse-Grain Component (an n×m node array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CgcGeometry {
    /// Rows (`n`): the maximum chain depth per column per cycle.
    pub rows: u32,
    /// Columns (`m`): the number of parallel chains per cycle.
    pub cols: u32,
}

impl CgcGeometry {
    /// The 2×2 geometry used throughout the paper's experiments.
    pub const TWO_BY_TWO: CgcGeometry = CgcGeometry { rows: 2, cols: 2 };

    /// A new geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "CGC geometry must be non-empty");
        CgcGeometry { rows, cols }
    }

    /// Nodes in the array (`n × m`).
    pub fn nodes(&self) -> u32 {
        self.rows * self.cols
    }
}

impl fmt::Display for CgcGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// The coarse-grain datapath: CGCs + register bank + shared-memory ports.
///
/// Implements [`Hash`] (all fields are structural) so a datapath can key
/// memoised coarse-grain mappings directly.
///
/// # Examples
///
/// ```
/// use amdrel_coarsegrain::CgcDatapath;
///
/// let dp = CgcDatapath::two_2x2(); // the paper's smaller configuration
/// assert_eq!(dp.compute_slots(), 8);
/// let dp3 = CgcDatapath::three_2x2();
/// assert_eq!(dp3.compute_slots(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CgcDatapath {
    /// The CGC instances.
    pub cgcs: Vec<CgcGeometry>,
    /// Shared-memory ports usable per cycle by loads/stores.
    pub mem_ports: u32,
    /// Register-bank capacity in words (reported against, not enforced —
    /// the FPL'04 datapath sizes the bank to the application).
    pub register_bank: u32,
}

impl CgcDatapath {
    /// A datapath with the given CGCs and default memory/register
    /// resources (2 ports per CGC, 64-word register bank).
    ///
    /// # Panics
    ///
    /// Panics if `cgcs` is empty.
    pub fn new(cgcs: Vec<CgcGeometry>) -> Self {
        assert!(!cgcs.is_empty(), "a datapath needs at least one CGC");
        let mem_ports = 2 * cgcs.len() as u32;
        CgcDatapath {
            cgcs,
            mem_ports,
            register_bank: 64,
        }
    }

    /// The paper's "two 2x2" configuration.
    pub fn two_2x2() -> Self {
        CgcDatapath::new(vec![CgcGeometry::TWO_BY_TWO; 2])
    }

    /// The paper's "three 2x2" configuration.
    pub fn three_2x2() -> Self {
        CgcDatapath::new(vec![CgcGeometry::TWO_BY_TWO; 3])
    }

    /// `k` copies of an n×m CGC.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (via [`CgcDatapath::new`]).
    pub fn uniform(k: usize, geometry: CgcGeometry) -> Self {
        CgcDatapath::new(vec![geometry; k])
    }

    /// Builder-style override of the number of shared-memory ports.
    pub fn with_mem_ports(mut self, ports: u32) -> Self {
        self.mem_ports = ports;
        self
    }

    /// Total compute slots per cycle (Σ n×m over CGCs).
    pub fn compute_slots(&self) -> u32 {
        self.cgcs.iter().map(CgcGeometry::nodes).sum()
    }

    /// A short description like `"two 2x2 CGCs"` for reports.
    pub fn describe(&self) -> String {
        if self.cgcs.is_empty() {
            return "no CGCs".to_owned();
        }
        let all_same = self.cgcs.windows(2).all(|w| w[0] == w[1]);
        if all_same {
            let count = match self.cgcs.len() {
                1 => "one".to_owned(),
                2 => "two".to_owned(),
                3 => "three".to_owned(),
                4 => "four".to_owned(),
                5 => "five".to_owned(),
                6 => "six".to_owned(),
                n => n.to_string(),
            };
            format!("{count} {} CGCs", self.cgcs[0])
        } else {
            let parts: Vec<String> = self.cgcs.iter().map(|g| g.to_string()).collect();
            format!("CGCs [{}]", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let g = CgcGeometry::new(2, 3);
        assert_eq!(g.nodes(), 6);
        assert_eq!(g.to_string(), "2x3");
        assert_eq!(CgcGeometry::TWO_BY_TWO.nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_geometry_panics() {
        let _ = CgcGeometry::new(0, 2);
    }

    #[test]
    fn paper_configurations() {
        assert_eq!(CgcDatapath::two_2x2().cgcs.len(), 2);
        assert_eq!(CgcDatapath::three_2x2().cgcs.len(), 3);
        assert_eq!(CgcDatapath::two_2x2().describe(), "two 2x2 CGCs");
        assert_eq!(CgcDatapath::three_2x2().describe(), "three 2x2 CGCs");
    }

    #[test]
    fn default_mem_ports_scale_with_cgcs() {
        assert_eq!(CgcDatapath::two_2x2().mem_ports, 4);
        assert_eq!(CgcDatapath::three_2x2().mem_ports, 6);
    }

    #[test]
    fn heterogeneous_description() {
        let dp = CgcDatapath::new(vec![CgcGeometry::new(2, 2), CgcGeometry::new(3, 3)]);
        assert!(dp.describe().contains("2x2"));
        assert!(dp.describe().contains("3x3"));
    }

    #[test]
    #[should_panic(expected = "at least one CGC")]
    fn empty_datapath_panics() {
        let _ = CgcDatapath::new(vec![]);
    }
}
