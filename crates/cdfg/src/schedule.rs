//! ASAP / ALAP levels and critical-path measures over a [`Dfg`].
//!
//! The fine-grain mapping algorithm of the paper (Figure 3) "classifies the
//! nodes in the DFG … according to their As Soon As Possible (ASAP) levels"
//! and executes nodes "in increasing order relative to their ASAP levels".
//! Levels here are the classic unit-delay ASAP levels of De Micheli
//! (reference \[12\] of the paper): sources sit at level 1, every other node
//! one past its deepest predecessor.

use crate::dfg::{Dfg, NodeId};
use crate::op::OpKind;
use crate::GraphError;

/// Unit-delay scheduling levels of a [`Dfg`].
///
/// Produced by [`asap_levels`] / [`alap_levels`]. Levels are 1-based, matching
/// the paper's pseudocode (`level = 1; while (level <= max_level)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    levels: Vec<u32>,
    max_level: u32,
}

impl Levels {
    /// The level of `id` (1-based). Nodes of an empty graph have no levels.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the graph these levels were
    /// computed from.
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// The largest level in the graph (`max_level` in Figure 3); 0 for an
    /// empty graph.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// All node ids at `level`, in id order.
    pub fn nodes_at(&self, level: u32) -> Vec<NodeId> {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == level)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Slice of all levels indexed by node id.
    pub fn as_slice(&self) -> &[u32] {
        &self.levels
    }
}

/// Compute unit-delay ASAP levels.
///
/// Boundary pseudo-ops participate in the level structure (they anchor
/// edges) but schedulers skip them via [`OpKind::is_schedulable`].
///
/// # Errors
///
/// [`GraphError::Cycle`] if the graph is cyclic.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{asap_levels, Dfg, OpKind};
///
/// # fn main() -> Result<(), amdrel_cdfg::GraphError> {
/// let mut dfg = Dfg::new("chain");
/// let a = dfg.add_op(OpKind::LiveIn, 16);
/// let b = dfg.add_op(OpKind::Mul, 16);
/// let c = dfg.add_op(OpKind::Add, 16);
/// dfg.add_edge(a, b)?;
/// dfg.add_edge(b, c)?;
/// let lv = asap_levels(&dfg)?;
/// assert_eq!(lv.level(a), 1);
/// assert_eq!(lv.level(b), 2);
/// assert_eq!(lv.level(c), 3);
/// assert_eq!(lv.max_level(), 3);
/// # Ok(())
/// # }
/// ```
pub fn asap_levels(dfg: &Dfg) -> Result<Levels, GraphError> {
    let order = dfg.topo_order()?;
    let mut levels = vec![0u32; dfg.len()];
    let mut max_level = 0;
    for n in order {
        let lvl = dfg
            .preds(n)
            .iter()
            .map(|p| levels[p.index()])
            .max()
            .unwrap_or(0)
            + 1;
        levels[n.index()] = lvl;
        max_level = max_level.max(lvl);
    }
    Ok(Levels { levels, max_level })
}

/// Compute unit-delay ALAP levels for a given horizon.
///
/// Sinks sit at `horizon`; every other node one level before its earliest
/// successor. `horizon` is usually [`Levels::max_level`] of the ASAP result.
///
/// # Errors
///
/// [`GraphError::Cycle`] if the graph is cyclic;
/// [`GraphError::HorizonTooShort`] if `horizon` is smaller than the graph's
/// critical-path length in levels.
pub fn alap_levels(dfg: &Dfg, horizon: u32) -> Result<Levels, GraphError> {
    let order = dfg.topo_order()?;
    let mut levels = vec![0u32; dfg.len()];
    for &n in order.iter().rev() {
        let lvl = dfg
            .succs(n)
            .iter()
            .map(|s| levels[s.index()])
            .min()
            .map(|m| {
                m.checked_sub(1)
                    .ok_or(GraphError::HorizonTooShort { horizon })
            })
            .transpose()?
            .unwrap_or(horizon);
        if lvl == 0 && !dfg.is_empty() {
            return Err(GraphError::HorizonTooShort { horizon });
        }
        levels[n.index()] = lvl;
    }
    let max_level = levels.iter().copied().max().unwrap_or(0);
    Ok(Levels { levels, max_level })
}

/// Per-node slack (`alap - asap`). Zero-slack nodes are on a critical path.
///
/// # Errors
///
/// Propagates errors from [`asap_levels`] / [`alap_levels`].
pub fn mobility(dfg: &Dfg) -> Result<Vec<u32>, GraphError> {
    let asap = asap_levels(dfg)?;
    let alap = alap_levels(dfg, asap.max_level())?;
    Ok(dfg
        .node_ids()
        .map(|n| alap.level(n) - asap.level(n))
        .collect())
}

/// Latency-weighted critical-path length.
///
/// `latency` gives each operation's delay in abstract cycles; boundary
/// pseudo-ops always contribute zero regardless of `latency`. The result is
/// the length of the longest path measured as the sum of node latencies — a
/// lower bound on any schedule of the DFG.
///
/// # Errors
///
/// [`GraphError::Cycle`] if the graph is cyclic.
pub fn critical_path(dfg: &Dfg, mut latency: impl FnMut(OpKind) -> u64) -> Result<u64, GraphError> {
    let order = dfg.topo_order()?;
    let mut finish = vec![0u64; dfg.len()];
    let mut longest = 0;
    for n in order {
        let start = dfg
            .preds(n)
            .iter()
            .map(|p| finish[p.index()])
            .max()
            .unwrap_or(0);
        let kind = dfg.node(n).kind;
        let lat = if kind.is_schedulable() {
            latency(kind)
        } else {
            0
        };
        finish[n.index()] = start + lat;
        longest = longest.max(finish[n.index()]);
    }
    Ok(longest)
}

/// Longest path (in latency) from each node to any sink, *including* the
/// node's own latency. This is the classic list-scheduling priority function
/// used by the coarse-grain mapper.
///
/// # Errors
///
/// [`GraphError::Cycle`] if the graph is cyclic.
pub fn path_to_sink(
    dfg: &Dfg,
    mut latency: impl FnMut(OpKind) -> u64,
) -> Result<Vec<u64>, GraphError> {
    let order = dfg.topo_order()?;
    let mut dist = vec![0u64; dfg.len()];
    for &n in order.iter().rev() {
        let below = dfg
            .succs(n)
            .iter()
            .map(|s| dist[s.index()])
            .max()
            .unwrap_or(0);
        let kind = dfg.node(n).kind;
        let lat = if kind.is_schedulable() {
            latency(kind)
        } else {
            0
        };
        dist[n.index()] = below + lat;
    }
    Ok(dist)
}

/// The instruction-level-parallelism profile of a DFG: schedulable
/// operations per ASAP level (index 0 = level 1).
///
/// The profile explains coarse-grain scaling: a datapath with more
/// compute slots than the profile's peak gains nothing on that block
/// (dependency-limited), while blocks whose profile exceeds the slot
/// count are resource-limited and speed up with more CGCs.
///
/// # Errors
///
/// [`GraphError::Cycle`] if the graph is cyclic.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{ilp_profile, Dfg, OpKind};
///
/// # fn main() -> Result<(), amdrel_cdfg::GraphError> {
/// let mut dfg = Dfg::new("w");
/// let a = dfg.add_op(OpKind::Add, 32);
/// let b = dfg.add_op(OpKind::Add, 32);
/// let c = dfg.add_op(OpKind::Add, 32);
/// dfg.add_edge(a, c)?;
/// dfg.add_edge(b, c)?;
/// assert_eq!(ilp_profile(&dfg)?, vec![2, 1]);
/// # Ok(())
/// # }
/// ```
pub fn ilp_profile(dfg: &Dfg) -> Result<Vec<usize>, GraphError> {
    let levels = asap_levels(dfg)?;
    let mut profile = vec![0usize; levels.max_level() as usize];
    for n in dfg.node_ids() {
        if dfg.node(n).kind.is_schedulable() {
            profile[(levels.level(n) - 1) as usize] += 1;
        }
    }
    // Boundary-only levels may be zero; trim trailing zeros for a clean
    // profile but keep interior zeros (they are real stalls).
    while profile.last() == Some(&0) {
        profile.pop();
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        let mut g = Dfg::new("diamond");
        let a = g.add_op(OpKind::LiveIn, 32);
        let b = g.add_op(OpKind::Add, 32);
        let c = g.add_op(OpKind::Mul, 32);
        let d = g.add_op(OpKind::Sub, 32);
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn asap_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let lv = asap_levels(&g).unwrap();
        assert_eq!(lv.level(a), 1);
        assert_eq!(lv.level(b), 2);
        assert_eq!(lv.level(c), 2);
        assert_eq!(lv.level(d), 3);
        assert_eq!(lv.max_level(), 3);
        assert_eq!(lv.nodes_at(2), vec![b, c]);
    }

    #[test]
    fn alap_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let lv = alap_levels(&g, 3).unwrap();
        assert_eq!(lv.level(a), 1);
        assert_eq!(lv.level(b), 2);
        assert_eq!(lv.level(c), 2);
        assert_eq!(lv.level(d), 3);
    }

    #[test]
    fn alap_with_slack() {
        // chain a→b plus isolated node c: with horizon 2, c floats to 2.
        let mut g = Dfg::new("slack");
        let a = g.add_op(OpKind::Add, 32);
        let b = g.add_op(OpKind::Add, 32);
        let c = g.add_op(OpKind::Add, 32);
        g.add_edge(a, b).unwrap();
        let lv = alap_levels(&g, 2).unwrap();
        assert_eq!(lv.level(a), 1);
        assert_eq!(lv.level(b), 2);
        assert_eq!(lv.level(c), 2);
    }

    #[test]
    fn alap_horizon_too_short() {
        let (g, _) = diamond();
        assert!(matches!(
            alap_levels(&g, 2),
            Err(GraphError::HorizonTooShort { horizon: 2 })
        ));
    }

    #[test]
    fn mobility_diamond_is_zero() {
        // Every diamond node is on a critical path.
        let (g, _) = diamond();
        assert_eq!(mobility(&g).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn mobility_nonzero_for_slack_node() {
        let mut g = Dfg::new("m");
        let a = g.add_op(OpKind::Add, 32);
        let b = g.add_op(OpKind::Add, 32);
        let c = g.add_op(OpKind::Add, 32);
        let d = g.add_op(OpKind::Add, 32);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap(); // c can slide to level 2
        assert_eq!(mobility(&g).unwrap()[c.index()], 1);
    }

    #[test]
    fn critical_path_weighted() {
        let (g, _) = diamond();
        // LiveIn=0 (boundary), Add=1, Mul=2, Sub=1 → longest a-c-d = 3.
        let cp = critical_path(&g, |k| match k {
            OpKind::Mul => 2,
            _ => 1,
        })
        .unwrap();
        assert_eq!(cp, 3);
    }

    #[test]
    fn path_to_sink_priorities() {
        let (g, [a, b, c, d]) = diamond();
        let p = path_to_sink(&g, |k| if k == OpKind::Mul { 2 } else { 1 }).unwrap();
        // d: 1; b: 1+1=2; c: 2+1=3; a: boundary 0 + max(2,3)=3.
        assert_eq!(p[d.index()], 1);
        assert_eq!(p[b.index()], 2);
        assert_eq!(p[c.index()], 3);
        assert_eq!(p[a.index()], 3);
    }

    #[test]
    fn empty_graph_levels() {
        let g = Dfg::new("empty");
        let lv = asap_levels(&g).unwrap();
        assert_eq!(lv.max_level(), 0);
        assert_eq!(critical_path(&g, |_| 1).unwrap(), 0);
    }

    #[test]
    fn ilp_profile_diamond() {
        let (g, _) = diamond();
        // Level 1 holds only the (boundary) LiveIn → not counted; levels
        // 2 and 3 hold {add, mul} and {sub}.
        assert_eq!(ilp_profile(&g).unwrap(), vec![0, 2, 1]);
    }

    #[test]
    fn ilp_profile_sums_to_op_count() {
        let g = crate::synth::random_dfg(5, &crate::synth::SynthConfig::default());
        let profile = ilp_profile(&g).unwrap();
        assert_eq!(profile.iter().sum::<usize>(), g.op_count());
    }

    #[test]
    fn ilp_profile_empty() {
        assert!(ilp_profile(&Dfg::new("e")).unwrap().is_empty());
    }
}
