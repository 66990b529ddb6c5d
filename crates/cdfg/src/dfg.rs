//! The data-flow graph of one basic block.

use crate::op::{OpClass, OpKind};
use crate::GraphError;
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside one [`Dfg`].
///
/// Node ids are dense (`0..dfg.len()`), assigned in insertion order, and are
/// only meaningful within the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// One operation node of a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgNode {
    /// The operation performed by this node.
    pub kind: OpKind,
    /// Datapath width of the produced value, in bits (the case-study
    /// applications are 16/32-bit fixed point).
    pub bitwidth: u16,
    /// Optional human-readable tag (variable name, array name, …).
    pub label: Option<String>,
}

impl DfgNode {
    /// A node with the given kind and bitwidth, no label.
    pub fn new(kind: OpKind, bitwidth: u16) -> Self {
        DfgNode {
            kind,
            bitwidth,
            label: None,
        }
    }

    /// A node with a label attached.
    pub fn with_label(kind: OpKind, bitwidth: u16, label: impl Into<String>) -> Self {
        DfgNode {
            kind,
            bitwidth,
            label: Some(label.into()),
        }
    }
}

/// A data-flow graph: the operations of one basic block and the data
/// dependencies between them.
///
/// The graph is a DAG by construction discipline (edges are added by the
/// frontend from producers to later consumers); [`Dfg::validate`] checks
/// acyclicity explicitly. Parallel edges are collapsed — a dependency either
/// exists or it does not, which is all scheduling needs.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{Dfg, OpKind};
///
/// # fn main() -> Result<(), amdrel_cdfg::GraphError> {
/// let mut dfg = Dfg::new("mac");
/// let a = dfg.add_op(OpKind::LiveIn, 16);
/// let b = dfg.add_op(OpKind::LiveIn, 16);
/// let m = dfg.add_op(OpKind::Mul, 32);
/// let acc = dfg.add_op(OpKind::Add, 32);
/// dfg.add_edge(a, m)?;
/// dfg.add_edge(b, m)?;
/// dfg.add_edge(m, acc)?;
/// assert_eq!(dfg.len(), 4);
/// assert!(dfg.validate().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dfg {
    name: String,
    nodes: Vec<DfgNode>,
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Dfg {
    /// An empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            edge_count: 0,
        }
    }

    /// The graph's name (normally the owning basic-block label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of (deduplicated) data edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, node: DfgNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Convenience: append an unlabeled node of `kind`/`bitwidth`.
    pub fn add_op(&mut self, kind: OpKind, bitwidth: u16) -> NodeId {
        self.add_node(DfgNode::new(kind, bitwidth))
    }

    /// Add a data dependency `from → to`.
    ///
    /// Adding an edge that already exists is a no-op. Self-loops are
    /// rejected: a value cannot depend on itself within one basic block.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if either endpoint does not exist,
    /// [`GraphError::SelfLoop`] for `from == to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.check_id(from)?;
        self.check_id(to)?;
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        if self.succs[from.index()].contains(&to) {
            return Ok(());
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_count += 1;
        Ok(())
    }

    fn check_id(&self, id: NodeId) -> Result<(), GraphError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: id,
                len: self.nodes.len(),
            })
        }
    }

    /// The node payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// Fallible lookup of a node payload.
    pub fn get(&self, id: NodeId) -> Option<&DfgNode> {
        self.nodes.get(id.index())
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over `(id, node)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, &DfgNode)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Direct predecessors (producers) of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// Direct successors (consumers) of `id`.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.preds(n).is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.succs(n).is_empty())
            .collect()
    }

    /// A topological order of all nodes (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// [`GraphError::Cycle`] if the graph contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<NodeId> = self.node_ids().filter(|n| indeg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        let mut head = 0;
        while head < queue.len() {
            let n = queue[head];
            head += 1;
            order.push(n);
            for &s in self.succs(n) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == self.len() {
            Ok(order)
        } else {
            Err(GraphError::Cycle {
                graph: self.name.clone(),
            })
        }
    }

    /// Validate structural invariants: acyclicity and pred/succ symmetry.
    ///
    /// # Errors
    ///
    /// [`GraphError::Cycle`] if a cycle exists.
    pub fn validate(&self) -> Result<(), GraphError> {
        debug_assert!(self.preds.len() == self.nodes.len());
        debug_assert!(self.succs.len() == self.nodes.len());
        self.topo_order().map(|_| ())
    }

    /// Count of *schedulable* operations (boundary pseudo-ops excluded).
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_schedulable())
            .count()
    }

    /// Histogram of schedulable operations per [`OpClass`].
    pub fn class_histogram(&self) -> HashMap<OpClass, usize> {
        let mut hist = HashMap::new();
        for node in &self.nodes {
            if node.kind.is_schedulable() {
                *hist.entry(node.kind.class()).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Number of [`LiveIn`](OpKind::LiveIn) boundary nodes — the words the
    /// block must read from shared storage per execution.
    pub fn live_in_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == OpKind::LiveIn)
            .count()
    }

    /// Number of [`LiveOut`](OpKind::LiveOut) boundary nodes.
    pub fn live_out_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == OpKind::LiveOut)
            .count()
    }
}

impl Default for Dfg {
    fn default() -> Self {
        Dfg::new("dfg")
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dfg({}: {} nodes, {} edges)",
            self.name,
            self.len(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        // a → b, a → c, b → d, c → d
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
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let (mut g, [a, b, _, _]) = diamond();
        let before = g.edge_count();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), before);
        assert_eq!(g.preds(b).len(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let (mut g, [a, ..]) = diamond();
        assert!(matches!(g.add_edge(a, a), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut g, [a, ..]) = diamond();
        let bogus = NodeId(999);
        assert!(matches!(
            g.add_edge(a, bogus),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in g.node_ids() {
            for &s in g.succs(n) {
                assert!(pos[&n] < pos[&s], "{n} must precede {s}");
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dfg::new("cyc");
        let a = g.add_op(OpKind::Add, 32);
        let b = g.add_op(OpKind::Sub, 32);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert!(matches!(g.topo_order(), Err(GraphError::Cycle { .. })));
        assert!(g.validate().is_err());
    }

    #[test]
    fn histogram_excludes_boundary() {
        let (g, _) = diamond();
        let hist = g.class_histogram();
        assert_eq!(hist.get(&OpClass::Alu), Some(&2)); // add, sub
        assert_eq!(hist.get(&OpClass::Mul), Some(&1));
        assert_eq!(hist.get(&OpClass::Boundary), None);
        assert_eq!(g.op_count(), 3);
    }

    #[test]
    fn live_counts() {
        let mut g = Dfg::new("io");
        g.add_op(OpKind::LiveIn, 16);
        g.add_op(OpKind::LiveIn, 16);
        g.add_op(OpKind::LiveOut, 16);
        assert_eq!(g.live_in_count(), 2);
        assert_eq!(g.live_out_count(), 1);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Dfg::new("empty");
        assert!(g.is_empty());
        assert!(g.validate().is_ok());
        assert!(g.topo_order().unwrap().is_empty());
    }

    #[test]
    fn display_is_informative() {
        let (g, _) = diamond();
        let s = g.to_string();
        assert!(s.contains("diamond") && s.contains("4 nodes"));
    }
}
