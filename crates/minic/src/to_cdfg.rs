//! IR → CDFG conversion (step 1 of the paper's Figure 2 flow).
//!
//! Every IR basic block becomes one [`BasicBlock`] whose [`Dfg`] captures
//! the true data dependencies of the straight-line code:
//!
//! * scalar reads of values produced outside the block become `LiveIn`
//!   boundary nodes (one per variable);
//! * values that are live out of the block (or feed the block's branch)
//!   get `LiveOut` boundary nodes;
//! * constants become shared `Const` nodes;
//! * `Copy` instructions vanish — they only alias value nodes;
//! * array accesses get memory-ordering edges per array (load→store WAR,
//!   store→load RAW, store→store WAW) so no schedule can reorder
//!   conflicting accesses. A symbolic base+offset disambiguator prunes
//!   edges between accesses that provably touch different elements
//!   (`a[i]` vs `a[i + 1]`, or distinct constant indices), which is what
//!   lets hand-unrolled DSP bodies (FFT butterfly pairs, fast-DCT
//!   columns) schedule in parallel on the CGC datapath.

use crate::ir::{ArrayRef, Function, Instr, IrProgram, Operand, Terminator, VarId};
use crate::liveness::Liveness;
use amdrel_cdfg::hash::FixedMap;
use amdrel_cdfg::{BasicBlock, Cdfg, Dfg, DfgNode, NodeId, OpKind};

/// Convert a lowered program into the CDFG consumed by the partitioning
/// flow. Block indices are preserved: IR block `i` becomes CDFG `bb i`.
///
/// # Panics
///
/// Panics only on malformed IR (dangling block indices), which the
/// frontend pipeline cannot produce.
pub fn program_to_cdfg(ir: &IrProgram) -> Cdfg {
    let f = &ir.entry;
    let liveness = Liveness::compute(f);
    let mut cdfg = Cdfg::new(f.name.clone());
    for (i, block) in f.blocks.iter().enumerate() {
        let dfg = block_to_dfg(ir, f, i, &liveness);
        cdfg.add_block(BasicBlock::from_dfg(block.label.clone(), dfg));
    }
    for (i, block) in f.blocks.iter().enumerate() {
        for s in block.successors() {
            cdfg.add_edge(amdrel_cdfg::BlockId(i as u32), amdrel_cdfg::BlockId(s.0))
                .expect("IR successors are in range");
        }
    }
    cdfg
}

fn array_name(ir: &IrProgram, f: &Function, array: ArrayRef) -> String {
    match array {
        ArrayRef::Global(g) => ir.globals[g as usize].name.clone(),
        ArrayRef::Local(a) => f.arrays[a as usize].name.clone(),
    }
}

fn array_bits(ir: &IrProgram, f: &Function, array: ArrayRef) -> u16 {
    match array {
        ArrayRef::Global(g) => ir.globals[g as usize].bits,
        ArrayRef::Local(a) => f.arrays[a as usize].bits,
    }
}

/// Symbolic address: a base value plus a constant byte-free element
/// offset. Two addresses with the same base and different offsets are
/// provably distinct; anything else may alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SymAddr {
    base: SymBase,
    offset: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymBase {
    /// A pure constant index (base "zero").
    Zero,
    /// A value flowing into the block.
    LiveVar(VarId),
    /// A value defined by instruction `n` of this block (opaque root).
    Def(usize),
}

impl SymAddr {
    /// Whether two addresses may refer to the same element.
    fn may_alias(self, other: SymAddr) -> bool {
        if self.base == other.base {
            self.offset == other.offset
        } else {
            true // different symbolic bases: no range info, stay safe
        }
    }
}

struct DfgBuilder<'a> {
    ir: &'a IrProgram,
    f: &'a Function,
    dfg: Dfg,
    /// Current defining node per variable (within the block).
    def: FixedMap<VarId, NodeId>,
    /// Current symbolic value per variable (within the block).
    sym: FixedMap<VarId, SymAddr>,
    /// Shared constant nodes per value.
    consts: FixedMap<i64, NodeId>,
    /// Shared live-in nodes per variable.
    live_ins: FixedMap<VarId, NodeId>,
    /// Outstanding memory accesses per array: `(node, address)` of every
    /// store and load so far, for pairwise disambiguation.
    stores: FixedMap<ArrayRef, Vec<(NodeId, SymAddr)>>,
    loads: FixedMap<ArrayRef, Vec<(NodeId, SymAddr)>>,
    /// Monotone counter used to mint opaque [`SymBase::Def`] roots.
    instr_pos: usize,
}

impl<'a> DfgBuilder<'a> {
    fn operand(&mut self, op: Operand) -> NodeId {
        match op {
            Operand::Const(c) => {
                if let Some(&n) = self.consts.get(&c) {
                    return n;
                }
                let n = self
                    .dfg
                    .add_node(DfgNode::with_label(OpKind::Const, 32, c.to_string()));
                self.consts.insert(c, n);
                n
            }
            Operand::Var(v) => {
                if let Some(&n) = self.def.get(&v) {
                    return n;
                }
                if let Some(&n) = self.live_ins.get(&v) {
                    return n;
                }
                let info = self.f.var(v);
                let n = self.dfg.add_node(DfgNode::with_label(
                    OpKind::LiveIn,
                    info.bits,
                    info.name.clone(),
                ));
                self.live_ins.insert(v, n);
                n
            }
        }
    }

    fn link(&mut self, from: NodeId, to: NodeId) {
        self.dfg
            .add_edge(from, to)
            .expect("builder edges are in range and never self-loops");
    }

    /// The symbolic value of an operand at the current program point.
    fn sym_of(&self, op: Operand) -> SymAddr {
        match op {
            Operand::Const(c) => SymAddr {
                base: SymBase::Zero,
                offset: c,
            },
            Operand::Var(v) => self.sym.get(&v).copied().unwrap_or(SymAddr {
                base: SymBase::LiveVar(v),
                offset: 0,
            }),
        }
    }

    fn fresh_root(&mut self) -> SymAddr {
        SymAddr {
            base: SymBase::Def(self.instr_pos),
            offset: 0,
        }
    }

    fn instr(&mut self, instr: &Instr) {
        self.instr_pos += 1;
        match instr {
            Instr::Bin { op, dst, lhs, rhs } => {
                let l = self.operand(*lhs);
                let r = self.operand(*rhs);
                // Symbolic tracking of ± constant for disambiguation.
                let sym = match op {
                    crate::ast::BinOp::Add => match (self.sym_of(*lhs), self.sym_of(*rhs)) {
                        (a, b) if b.base == SymBase::Zero => SymAddr {
                            base: a.base,
                            offset: a.offset.wrapping_add(b.offset),
                        },
                        (a, b) if a.base == SymBase::Zero => SymAddr {
                            base: b.base,
                            offset: b.offset.wrapping_add(a.offset),
                        },
                        _ => self.fresh_root(),
                    },
                    crate::ast::BinOp::Sub => {
                        let (a, b) = (self.sym_of(*lhs), self.sym_of(*rhs));
                        if b.base == SymBase::Zero {
                            SymAddr {
                                base: a.base,
                                offset: a.offset.wrapping_sub(b.offset),
                            }
                        } else {
                            self.fresh_root()
                        }
                    }
                    _ => self.fresh_root(),
                };
                self.sym.insert(*dst, sym);
                let kind = bin_opkind(*op);
                let bits = self.f.var(*dst).bits;
                let n = self.dfg.add_node(DfgNode::with_label(
                    kind,
                    bits,
                    self.f.var(*dst).name.clone(),
                ));
                self.link(l, n);
                self.link(r, n);
                self.def.insert(*dst, n);
            }
            Instr::Un { op, dst, src } => {
                let s = self.operand(*src);
                let kind = match op {
                    crate::ast::UnOp::Neg => OpKind::Neg,
                    crate::ast::UnOp::BitNot => OpKind::Not,
                    crate::ast::UnOp::LogicalNot => OpKind::Eq, // !x ≡ x == 0 (lowered already; defensive)
                };
                let sym = self.fresh_root();
                self.sym.insert(*dst, sym);
                let bits = self.f.var(*dst).bits;
                let n = self.dfg.add_node(DfgNode::with_label(
                    kind,
                    bits,
                    self.f.var(*dst).name.clone(),
                ));
                self.link(s, n);
                self.def.insert(*dst, n);
            }
            Instr::Copy { dst, src } => {
                let s = self.operand(*src);
                let sym = self.sym_of(*src);
                self.sym.insert(*dst, sym);
                // Copies don't exist in hardware: alias the value node.
                self.def.insert(*dst, s);
            }
            Instr::Load { dst, array, index } => {
                let idx = self.operand(*index);
                let addr = self.sym_of(*index);
                let bits = array_bits(self.ir, self.f, *array);
                let n = self.dfg.add_node(DfgNode::with_label(
                    OpKind::Load,
                    bits,
                    array_name(self.ir, self.f, *array),
                ));
                self.link(idx, n);
                // RAW: order after every may-aliasing earlier store.
                let raw: Vec<NodeId> = self
                    .stores
                    .get(array)
                    .map(|stores| {
                        stores
                            .iter()
                            .filter(|(_, a)| a.may_alias(addr))
                            .map(|&(s, _)| s)
                            .collect()
                    })
                    .unwrap_or_default();
                for s in raw {
                    self.link(s, n);
                }
                self.loads.entry(*array).or_default().push((n, addr));
                let sym = self.fresh_root();
                self.sym.insert(*dst, sym);
                self.def.insert(*dst, n);
            }
            Instr::Store {
                array,
                index,
                value,
            } => {
                let idx = self.operand(*index);
                let val = self.operand(*value);
                let addr = self.sym_of(*index);
                let bits = array_bits(self.ir, self.f, *array);
                let n = self.dfg.add_node(DfgNode::with_label(
                    OpKind::Store,
                    bits,
                    array_name(self.ir, self.f, *array),
                ));
                self.link(idx, n);
                self.link(val, n);
                // WAW: after may-aliasing earlier stores.
                let waw: Vec<NodeId> = self
                    .stores
                    .get(array)
                    .map(|stores| {
                        stores
                            .iter()
                            .filter(|(_, a)| a.may_alias(addr))
                            .map(|&(s, _)| s)
                            .collect()
                    })
                    .unwrap_or_default();
                for s in waw {
                    self.link(s, n);
                }
                // WAR: after may-aliasing earlier loads.
                let war: Vec<NodeId> = self
                    .loads
                    .get(array)
                    .map(|loads| {
                        loads
                            .iter()
                            .filter(|(_, a)| a.may_alias(addr))
                            .map(|&(l, _)| l)
                            .collect()
                    })
                    .unwrap_or_default();
                for l in war {
                    if l != n {
                        self.link(l, n);
                    }
                }
                self.stores.entry(*array).or_default().push((n, addr));
            }
        }
    }
}

fn bin_opkind(op: crate::ast::BinOp) -> OpKind {
    use crate::ast::BinOp::*;
    match op {
        Add => OpKind::Add,
        Sub => OpKind::Sub,
        Mul => OpKind::Mul,
        Div => OpKind::Div,
        Rem => OpKind::Rem,
        And => OpKind::And,
        Or => OpKind::Or,
        Xor => OpKind::Xor,
        Shl => OpKind::Shl,
        Shr => OpKind::Shr,
        Lt => OpKind::Lt,
        Le => OpKind::Le,
        Gt => OpKind::Gt,
        Ge => OpKind::Ge,
        Eq => OpKind::Eq,
        Ne => OpKind::Ne,
    }
}

fn block_to_dfg(ir: &IrProgram, f: &Function, block_idx: usize, liveness: &Liveness) -> Dfg {
    let block = &f.blocks[block_idx];
    let mut b = DfgBuilder {
        ir,
        f,
        dfg: Dfg::new(block.label.clone()),
        def: FixedMap::default(),
        sym: FixedMap::default(),
        consts: FixedMap::default(),
        live_ins: FixedMap::default(),
        stores: FixedMap::default(),
        loads: FixedMap::default(),
        instr_pos: 0,
    };
    for instr in &block.instrs {
        b.instr(instr);
    }

    // Publish live-out values: anything defined here and live on exit,
    // in ascending variable order (a deterministic node order).
    for v in liveness.live_out(block_idx).iter() {
        let Some(&src) = b.def.get(&v) else { continue };
        // A live-out that aliases a live-in (pure pass-through copy) moves
        // no new data; skip it.
        if b.dfg.node(src).kind == OpKind::LiveIn {
            continue;
        }
        let info = f.var(v);
        let out = b.dfg.add_node(DfgNode::with_label(
            OpKind::LiveOut,
            info.bits,
            info.name.clone(),
        ));
        b.link(src, out);
    }

    // The branch condition leaves the datapath toward the sequencer when it
    // is computed in this block.
    if let Terminator::Branch {
        cond: Operand::Var(v),
        ..
    } = block.term
    {
        if let Some(&src) = b.def.get(&v) {
            if b.dfg.node(src).kind != OpKind::LiveIn {
                let out = b.dfg.add_node(DfgNode::with_label(
                    OpKind::LiveOut,
                    1,
                    format!("{}?", f.var(v).name),
                ));
                b.link(src, out);
            }
        }
    }
    // Returned value leaves the block too.
    if let Terminator::Return(Some(Operand::Var(v))) = block.term {
        if let Some(&src) = b.def.get(&v) {
            if b.dfg.node(src).kind != OpKind::LiveIn {
                let out = b.dfg.add_node(DfgNode::with_label(
                    OpKind::LiveOut,
                    f.var(v).bits,
                    format!("ret {}", f.var(v).name),
                ));
                b.link(src, out);
            }
        }
    }
    b.dfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use amdrel_cdfg::OpClass;

    #[test]
    fn straight_line_block_structure() {
        let c = compile(
            "int main() { int x = 3; int y = x * 4; return y + 1; }",
            "main",
        )
        .unwrap();
        let cdfg = &c.cdfg;
        assert_eq!(cdfg.len(), 1);
        let dfg = &cdfg.block(cdfg.entry()).dfg;
        // const 3 aliased into x (copy), mul, const 4, add, const 1,
        // live-out for the returned value.
        let hist = dfg.class_histogram();
        assert_eq!(hist.get(&OpClass::Mul), Some(&1));
        assert_eq!(hist.get(&OpClass::Alu), Some(&1));
        assert_eq!(dfg.live_out_count(), 1);
    }

    #[test]
    fn copies_are_transparent() {
        let c = compile(
            "int main() { int a = 5; int b = a; int d = b; return d; }",
            "main",
        )
        .unwrap();
        let dfg = &c.cdfg.block(c.cdfg.entry()).dfg;
        // No ALU work at all: just const + live-out of the returned const.
        assert_eq!(dfg.op_count(), 0);
    }

    #[test]
    fn loop_body_live_in_out() {
        let c = compile(
            "int main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i; } return s; }",
            "main",
        )
        .unwrap();
        // Find the body block (contains the accumulating add).
        let body = c
            .cdfg
            .iter()
            .find(|(_, b)| {
                b.dfg
                    .iter()
                    .any(|(_, n)| n.kind == OpKind::Add && n.label.as_deref() == Some("s"))
            })
            .map(|(id, _)| id)
            .expect("body block with s = s + i");
        let bb = c.cdfg.block(body);
        // s and i flow in; s (at least) flows out.
        assert!(bb.live_in >= 2, "expected ≥2 live-ins, got {}", bb.live_in);
        assert!(bb.live_out >= 1);
    }

    #[test]
    fn memory_ordering_edges_exist() {
        let c = compile(
            "int a[8]; int main() { int i = 1; a[i] = 10; int x = a[i]; a[i] = x + 1; return a[i]; }",
            "main",
        )
        .unwrap();
        let dfg = &c.cdfg.block(c.cdfg.entry()).dfg;
        // store → load (RAW), load → store (WAR), store → store (WAW via chain)
        let stores: Vec<_> = dfg
            .iter()
            .filter(|(_, n)| n.kind == OpKind::Store)
            .map(|(id, _)| id)
            .collect();
        let loads: Vec<_> = dfg
            .iter()
            .filter(|(_, n)| n.kind == OpKind::Load)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(stores.len(), 2);
        assert_eq!(loads.len(), 2);
        // First store must reach the first load.
        assert!(dfg.succs(stores[0]).contains(&loads[0]));
        // The load between the stores must precede the second store.
        assert!(dfg.succs(loads[0]).contains(&stores[1]));
        // Whole DFG stays acyclic.
        assert!(dfg.validate().is_ok());
    }

    #[test]
    fn different_arrays_do_not_serialize() {
        let c = compile(
            "int a[4]; int b[4]; int main() { a[0] = 1; b[0] = 2; return a[0] + b[0]; }",
            "main",
        )
        .unwrap();
        let dfg = &c.cdfg.block(c.cdfg.entry()).dfg;
        let stores: Vec<_> = dfg
            .iter()
            .filter(|(_, n)| n.kind == OpKind::Store)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(stores.len(), 2);
        // No ordering edge between stores to different arrays.
        assert!(!dfg.succs(stores[0]).contains(&stores[1]));
        assert!(!dfg.succs(stores[1]).contains(&stores[0]));
    }

    #[test]
    fn constants_are_shared() {
        let c = compile(
            "int main() { int a = 7 + 1; int b = a * 8; int d = b - 8; return d; }",
            "main",
        )
        .unwrap();
        let dfg = &c.cdfg.block(c.cdfg.entry()).dfg;
        let const8 = dfg
            .iter()
            .filter(|(_, n)| n.kind == OpKind::Const && n.label.as_deref() == Some("8"))
            .count();
        assert_eq!(const8, 1, "the two uses of 8 must share one const node");
    }

    #[test]
    fn branch_condition_gets_live_out() {
        let c = compile(
            "int main() { int x = 3; int y = 0; if (x > 2) { y = 1; } return y; }",
            "main",
        )
        .unwrap();
        // The block computing x > 2 must own a LiveOut labelled with '?'.
        let found = c.cdfg.iter().any(|(_, b)| {
            b.dfg.iter().any(|(_, n)| {
                n.kind == OpKind::LiveOut && n.label.as_deref().is_some_and(|l| l.ends_with('?'))
            })
        });
        assert!(found);
    }

    #[test]
    fn cdfg_block_indices_mirror_ir() {
        let c = compile(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }",
            "main",
        )
        .unwrap();
        assert_eq!(c.ir.entry.blocks.len(), c.cdfg.len());
        for (i, b) in c.ir.entry.blocks.iter().enumerate() {
            assert_eq!(b.label, c.cdfg.block(amdrel_cdfg::BlockId(i as u32)).label);
        }
    }
}
