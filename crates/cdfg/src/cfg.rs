//! The control side of the CDFG: basic blocks and control-flow edges.

use crate::dfg::Dfg;
use crate::GraphError;
use std::fmt;

/// Index of a basic block inside one [`Cdfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// One basic block: a label, its data-flow graph, and the interface widths
/// used by the communication model.
///
/// `live_in` / `live_out` are the number of scalar words the block consumes
/// from / produces into the shared data memory per execution. The frontend
/// fills them from its liveness analysis; they drive `t_comm` in eq. (2) of
/// the paper when the block is moved to the coarse-grain hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Human-readable label (`f.bb3` style).
    pub label: String,
    /// The block's data-flow graph.
    pub dfg: Dfg,
    /// Scalar words read from shared storage per execution.
    pub live_in: u32,
    /// Scalar words written to shared storage per execution.
    pub live_out: u32,
}

impl BasicBlock {
    /// A block wrapping `dfg`, with live-in/out derived from the DFG's
    /// boundary nodes.
    pub fn from_dfg(label: impl Into<String>, dfg: Dfg) -> Self {
        let live_in = dfg.live_in_count() as u32;
        let live_out = dfg.live_out_count() as u32;
        BasicBlock {
            label: label.into(),
            dfg,
            live_in,
            live_out,
        }
    }
}

/// A control-data flow graph: basic blocks plus control edges.
///
/// This is the model of computation the whole methodology operates on
/// (step 1 of Figure 2). Control edges carry no payload — the partitioning
/// flow needs reachability, dominance and loop structure, not branch
/// conditions (those live inside the frontend's IR).
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{BasicBlock, Cdfg, Dfg};
///
/// # fn main() -> Result<(), amdrel_cdfg::GraphError> {
/// let mut cdfg = Cdfg::new("loop");
/// let head = cdfg.add_block(BasicBlock::from_dfg("head", Dfg::new("head")));
/// let body = cdfg.add_block(BasicBlock::from_dfg("body", Dfg::new("body")));
/// let exit = cdfg.add_block(BasicBlock::from_dfg("exit", Dfg::new("exit")));
/// cdfg.add_edge(head, body)?;
/// cdfg.add_edge(body, head)?; // back edge
/// cdfg.add_edge(head, exit)?;
/// assert_eq!(cdfg.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdfg {
    name: String,
    blocks: Vec<BasicBlock>,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    entry: BlockId,
    edge_count: usize,
}

impl Cdfg {
    /// An empty CDFG named `name`. The first block added becomes the entry.
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg {
            name: name.into(),
            blocks: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            entry: BlockId(0),
            edge_count: 0,
        }
    }

    /// The CDFG's name (normally the source function or application name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of control edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The entry block id.
    ///
    /// # Panics
    ///
    /// Panics if the CDFG is empty.
    pub fn entry(&self) -> BlockId {
        assert!(!self.is_empty(), "entry() on empty CDFG");
        self.entry
    }

    /// Append a block, returning its id.
    pub fn add_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Add a control edge `from → to`. Duplicate edges are collapsed.
    ///
    /// Control self-loops are legal (a one-block loop body).
    ///
    /// # Errors
    ///
    /// [`GraphError::BlockOutOfRange`] if either endpoint does not exist.
    pub fn add_edge(&mut self, from: BlockId, to: BlockId) -> Result<(), GraphError> {
        self.check_id(from)?;
        self.check_id(to)?;
        if self.succs[from.index()].contains(&to) {
            return Ok(());
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_count += 1;
        Ok(())
    }

    fn check_id(&self, id: BlockId) -> Result<(), GraphError> {
        if id.index() < self.blocks.len() {
            Ok(())
        } else {
            Err(GraphError::BlockOutOfRange {
                block: id,
                len: self.blocks.len(),
            })
        }
    }

    /// The block payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a block of this graph.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a block of this graph.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Fallible block lookup.
    pub fn get(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// Iterator over block ids in insertion order.
    pub fn block_ids(&self) -> impl ExactSizeIterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterator over `(id, block)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (BlockId, &BasicBlock)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Control-flow predecessors of `id`.
    pub fn preds(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// Control-flow successors of `id`.
    pub fn succs(&self, id: BlockId) -> &[BlockId] {
        &self.succs[id.index()]
    }

    /// Blocks reachable from the entry, in reverse post-order (the
    /// traversal order used by the dominator computation).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut visited = vec![false; self.len()];
        let mut postorder = Vec::with_capacity(self.len());
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < self.succs(b).len() {
                let s = self.succs(b)[*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }

    /// Whether every block is reachable from the entry.
    pub fn is_connected(&self) -> bool {
        self.reverse_postorder().len() == self.len()
    }

    /// Total schedulable operations across all blocks.
    pub fn total_ops(&self) -> usize {
        self.blocks.iter().map(|b| b.dfg.op_count()).sum()
    }

    /// Validate the CDFG: every block's DFG must be acyclic.
    ///
    /// # Errors
    ///
    /// Propagates the first failing block's [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        for block in &self.blocks {
            block.dfg.validate()?;
        }
        Ok(())
    }
}

impl fmt::Display for Cdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cdfg({}: {} blocks, {} edges, {} ops)",
            self.name,
            self.len(),
            self.edge_count(),
            self.total_ops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn loop_cfg() -> (Cdfg, [BlockId; 4]) {
        // entry → head; head → body, exit; body → head
        let mut g = Cdfg::new("loop");
        let entry = g.add_block(BasicBlock::from_dfg("entry", Dfg::new("entry")));
        let head = g.add_block(BasicBlock::from_dfg("head", Dfg::new("head")));
        let body = g.add_block(BasicBlock::from_dfg("body", Dfg::new("body")));
        let exit = g.add_block(BasicBlock::from_dfg("exit", Dfg::new("exit")));
        g.add_edge(entry, head).unwrap();
        g.add_edge(head, body).unwrap();
        g.add_edge(head, exit).unwrap();
        g.add_edge(body, head).unwrap();
        (g, [entry, head, body, exit])
    }

    #[test]
    fn build_and_query() {
        let (g, [entry, head, body, exit]) = loop_cfg();
        assert_eq!(g.len(), 4);
        assert_eq!(g.entry(), entry);
        assert_eq!(g.succs(head), &[body, exit]);
        assert_eq!(g.preds(head), &[entry, body]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let (g, [entry, ..]) = loop_cfg();
        let rpo = g.reverse_postorder();
        assert_eq!(rpo[0], entry);
        assert_eq!(rpo.len(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn rpo_orders_preds_before_succs_ignoring_back_edges() {
        let (g, [entry, head, body, exit]) = loop_cfg();
        let rpo = g.reverse_postorder();
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(entry) < pos(head));
        assert!(pos(head) < pos(body));
        assert!(pos(head) < pos(exit));
    }

    #[test]
    fn unreachable_block_detected() {
        let (mut g, _) = loop_cfg();
        g.add_block(BasicBlock::from_dfg("island", Dfg::new("island")));
        assert!(!g.is_connected());
    }

    #[test]
    fn self_loop_edge_is_legal() {
        let mut g = Cdfg::new("tight");
        let b = g.add_block(BasicBlock::from_dfg("b", Dfg::new("b")));
        g.add_edge(b, b).unwrap();
        assert_eq!(g.succs(b), &[b]);
    }

    #[test]
    fn from_dfg_derives_live_counts() {
        let mut dfg = Dfg::new("d");
        dfg.add_op(OpKind::LiveIn, 16);
        dfg.add_op(OpKind::LiveIn, 16);
        dfg.add_op(OpKind::LiveOut, 16);
        let bb = BasicBlock::from_dfg("d", dfg);
        assert_eq!((bb.live_in, bb.live_out), (2, 1));
    }

    #[test]
    fn total_ops_sums_blocks() {
        let mut g = Cdfg::new("sum");
        let mut d1 = Dfg::new("d1");
        d1.add_op(OpKind::Add, 32);
        d1.add_op(OpKind::Mul, 32);
        let mut d2 = Dfg::new("d2");
        d2.add_op(OpKind::Sub, 32);
        d2.add_op(OpKind::Const, 32); // boundary, not counted
        g.add_block(BasicBlock::from_dfg("b1", d1));
        g.add_block(BasicBlock::from_dfg("b2", d2));
        assert_eq!(g.total_ops(), 3);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let (mut g, [entry, ..]) = loop_cfg();
        assert!(matches!(
            g.add_edge(entry, BlockId(42)),
            Err(GraphError::BlockOutOfRange { .. })
        ));
    }
}
