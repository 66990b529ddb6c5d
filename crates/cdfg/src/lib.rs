//! # amdrel-cdfg — Control-Data Flow Graph IR
//!
//! The model of computation of the AMDREL hybrid-reconfigurable partitioning
//! flow (Galanis et al., DATE 2004). Everything downstream — the analysis
//! step, the fine-grain temporal partitioner (Figure 3 of the paper), the
//! coarse-grain CGC scheduler, and the partitioning engine (Figure 2) —
//! consumes the [`Cdfg`]/[`Dfg`] types defined here.
//!
//! * [`Dfg`] — the data-flow graph of one basic block: operation nodes
//!   ([`OpKind`]) and data-dependency edges.
//! * [`Cdfg`] — basic blocks ([`BasicBlock`]) plus control edges.
//! * [`asap_levels`]/[`alap_levels`] — the unit-delay scheduling levels the
//!   fine-grain mapper classifies nodes by.
//! * [`Dominators`]/[`LoopInfo`] — dominance and natural loops, which decide
//!   kernel candidacy ("basic blocks inside loops").
//! * [`dot`] — Graphviz export; [`synth`] — deterministic random DFGs for
//!   tests.
//! * [`hash`] — the workspace's one fixed-key hasher, for the frontend's
//!   maps and the mapping cache's CDFG fingerprint.
//!
//! # Examples
//!
//! Build a multiply-accumulate DFG and inspect its ASAP levels:
//!
//! ```
//! use amdrel_cdfg::{asap_levels, Dfg, OpKind};
//!
//! # fn main() -> Result<(), amdrel_cdfg::GraphError> {
//! let mut dfg = Dfg::new("mac");
//! let x = dfg.add_op(OpKind::LiveIn, 16);
//! let h = dfg.add_op(OpKind::LiveIn, 16);
//! let m = dfg.add_op(OpKind::Mul, 32);
//! let acc = dfg.add_op(OpKind::Add, 32);
//! dfg.add_edge(x, m)?;
//! dfg.add_edge(h, m)?;
//! dfg.add_edge(m, acc)?;
//!
//! let levels = asap_levels(&dfg)?;
//! assert_eq!(levels.level(m), 2);
//! assert_eq!(levels.level(acc), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod dfg;
pub mod dom;
pub mod dot;
pub mod hash;
pub mod loops;
pub mod op;
pub mod schedule;
pub mod synth;

pub use cfg::{BasicBlock, BlockId, Cdfg};
pub use dfg::{Dfg, DfgNode, NodeId};
pub use dom::Dominators;
pub use loops::{LoopInfo, NaturalLoop};
pub use op::{OpClass, OpKind};
pub use schedule::{
    alap_levels, asap_levels, critical_path, ilp_profile, mobility, path_to_sink, Levels,
};

use std::fmt;

/// Errors raised by graph construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    NodeOutOfRange {
        /// The offending id.
        node: NodeId,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// A block id referenced a block that does not exist.
    BlockOutOfRange {
        /// The offending id.
        block: BlockId,
        /// Number of blocks in the graph.
        len: usize,
    },
    /// A data edge would make a node depend on itself.
    SelfLoop {
        /// The node with the attempted self-edge.
        node: NodeId,
    },
    /// The graph contains a cycle where a DAG is required.
    Cycle {
        /// Name of the offending graph.
        graph: String,
    },
    /// An ALAP horizon shorter than the graph's critical path was requested.
    HorizonTooShort {
        /// The requested horizon.
        horizon: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range (graph has {len} nodes)")
            }
            GraphError::BlockOutOfRange { block, len } => {
                write!(f, "block {block} out of range (graph has {len} blocks)")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "data edge {node} -> {node} would form a self-loop")
            }
            GraphError::Cycle { graph } => {
                write!(
                    f,
                    "graph '{graph}' contains a cycle where a DAG is required"
                )
            }
            GraphError::HorizonTooShort { horizon } => {
                write!(
                    f,
                    "ALAP horizon {horizon} is shorter than the critical path"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<GraphError>();
        let e = GraphError::Cycle { graph: "g".into() };
        assert!(e.to_string().contains("cycle"));
    }
}
