//! CFG clean-up and dead-code elimination.
//!
//! Lowering and inlining create many empty "join"/"cont" blocks and the
//! occasional dead temporary. The paper counts basic blocks the way a
//! compiler's final CFG counts them (18 BBs for the OFDM transmitter, 22
//! for the JPEG encoder), and its static analysis counts the operations
//! real hardware would execute — so the flow runs [`simplify_cfg`] and
//! [`eliminate_dead_code`] before profiling/partitioning to get honest
//! block granularity and honest operation counts.

use crate::ir::{BlockIdx, Function, Terminator};
use crate::liveness::Liveness;

/// Simplify `f`'s CFG in place until a fixpoint:
///
/// 1. drop blocks unreachable from the entry;
/// 2. thread jumps through empty forwarding blocks;
/// 3. merge `a → b` when `a` ends in an unconditional jump and `b` has no
///    other predecessors;
/// 4. renumber blocks in reverse post-order (entry stays block 0).
pub fn simplify_cfg(f: &mut Function) {
    loop {
        let mut changed = false;
        changed |= remove_unreachable(f);
        changed |= thread_jumps(f);
        changed |= merge_chains(f);
        if !changed {
            break;
        }
    }
    renumber_rpo(f);
}

fn reachable(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if f.blocks.is_empty() {
        return seen;
    }
    let mut stack = vec![BlockIdx(0)];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in f.blocks[b.index()].successors() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

fn remove_unreachable(f: &mut Function) -> bool {
    let seen = reachable(f);
    if seen.iter().all(|&s| s) {
        return false;
    }
    // Compact the block list and remap indices.
    let mut remap = vec![None; f.blocks.len()];
    let mut kept = Vec::with_capacity(f.blocks.len());
    for (i, block) in std::mem::take(&mut f.blocks).into_iter().enumerate() {
        if seen[i] {
            remap[i] = Some(BlockIdx(kept.len() as u32));
            kept.push(block);
        }
    }
    for b in &mut kept {
        rewrite_targets(&mut b.term, |t| remap[t.index()].expect("target reachable"));
    }
    f.blocks = kept;
    true
}

fn rewrite_targets(term: &mut Terminator, mut f: impl FnMut(BlockIdx) -> BlockIdx) {
    match term {
        Terminator::Jump(t) => *t = f(*t),
        Terminator::Branch {
            then_bb, else_bb, ..
        } => {
            *then_bb = f(*then_bb);
            *else_bb = f(*else_bb);
        }
        Terminator::Return(_) => {}
    }
}

/// Redirect edges through empty blocks whose only job is `jump next`.
fn thread_jumps(f: &mut Function) -> bool {
    // forward[i] = ultimate target when block i is an empty jump block.
    let n = f.blocks.len();
    let mut forward: Vec<BlockIdx> = (0..n as u32).map(BlockIdx).collect();
    for (i, fwd) in forward.iter_mut().enumerate() {
        if f.blocks[i].instrs.is_empty() {
            if let Terminator::Jump(t) = f.blocks[i].term {
                if t.index() != i {
                    *fwd = t;
                }
            }
        }
    }
    // Path-compress (bounded by n to be safe against cycles of empties).
    for _ in 0..n {
        let mut again = false;
        for i in 0..n {
            let t = forward[i];
            let tt = forward[t.index()];
            if tt != t && tt.index() != i {
                forward[i] = tt;
                again = true;
            }
        }
        if !again {
            break;
        }
    }
    let mut changed = false;
    for i in 0..n {
        let term = &mut f.blocks[i].term;
        let before = term.clone();
        rewrite_targets(term, |t| forward[t.index()]);
        if *term != before {
            changed = true;
        }
    }
    changed
}

/// Merge `a → b` where `a` ends in `jump b`, `b` is not the entry, and `b`
/// has exactly one predecessor.
fn merge_chains(f: &mut Function) -> bool {
    let n = f.blocks.len();
    let mut pred_count = vec![0usize; n];
    for b in &f.blocks {
        for s in b.successors() {
            pred_count[s.index()] += 1;
        }
    }
    let mut changed = false;
    for a in 0..n {
        while let Terminator::Jump(t) = f.blocks[a].term {
            let ti = t.index();
            if ti == a || ti == 0 || pred_count[ti] != 1 {
                break;
            }
            // Move t's body into a.
            let mut donor_instrs = std::mem::take(&mut f.blocks[ti].instrs);
            let donor_term = f.blocks[ti].term.clone();
            f.blocks[a].instrs.append(&mut donor_instrs);
            f.blocks[a].term = donor_term;
            // t becomes an unreachable husk; pred counts for t's successors
            // are unchanged (edges moved, not duplicated). Mark t dead.
            f.blocks[ti].term = Terminator::Jump(t); // self-loop husk
            pred_count[ti] = 0;
            changed = true;
        }
    }
    if changed {
        remove_unreachable(f);
    }
    changed
}

/// Remove instructions whose results are never used.
///
/// A backward sweep per block against global liveness: an instruction is
/// dead when its destination is neither used later in the block nor live
/// out of it. `Store`s are always side-effecting and kept; dead `Load`s
/// are removed like any C compiler would (a program relying on the fault
/// of a dead out-of-bounds load is already out of contract).
///
/// Returns the number of instructions removed. Run to a fixpoint by the
/// caller ([`optimize`]) — removing one instruction can kill another.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let liveness = Liveness::compute(f);
    let mut removed = 0;
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        let mut live = liveness.live_out(bi).clone();
        // Terminator uses stay live.
        match &block.term {
            Terminator::Branch {
                cond: crate::ir::Operand::Var(v),
                ..
            } => {
                live.insert(*v);
            }
            Terminator::Return(Some(crate::ir::Operand::Var(v))) => {
                live.insert(*v);
            }
            _ => {}
        }
        let mut kept = Vec::with_capacity(block.instrs.len());
        for instr in block.instrs.drain(..).rev() {
            let dst = instr.dst();
            // Stores are side-effecting and never dead.
            if dst.is_some_and(|d| !live.contains(d)) {
                removed += 1;
                continue;
            }
            if let Some(d) = dst {
                live.remove(d);
            }
            for u in instr.operands().into_iter().flatten() {
                if let crate::ir::Operand::Var(v) = u {
                    live.insert(v);
                }
            }
            kept.push(instr);
        }
        kept.reverse();
        block.instrs = kept;
    }
    removed
}

/// The full optimisation pipeline: CFG simplification and dead-code
/// elimination to a joint fixpoint.
pub fn optimize(f: &mut Function) {
    loop {
        simplify_cfg(f);
        if eliminate_dead_code(f) == 0 {
            break;
        }
    }
}

/// Renumber blocks in reverse post-order so the entry is block 0 and the
/// layout reads top-down. Stable across runs.
fn renumber_rpo(f: &mut Function) {
    let n = f.blocks.len();
    if n == 0 {
        return;
    }
    let mut visited = vec![false; n];
    let mut postorder: Vec<usize> = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    visited[0] = true;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = f.blocks[b].successors();
        if *next < succs.len() {
            let s = succs[*next].index();
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(b);
            stack.pop();
        }
    }
    let rpo: Vec<usize> = postorder.into_iter().rev().collect();
    let mut remap = vec![BlockIdx(0); n];
    for (new, &old) in rpo.iter().enumerate() {
        remap[old] = BlockIdx(new as u32);
    }
    let mut new_blocks: Vec<_> = Vec::with_capacity(n);
    for &old in &rpo {
        let mut b = f.blocks[old].clone();
        rewrite_targets(&mut b.term, |t| remap[t.index()]);
        new_blocks.push(b);
    }
    f.blocks = new_blocks;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, Instr, Operand, VarId};

    fn jump_block(label: &str, to: u32) -> Block {
        Block {
            label: label.into(),
            instrs: vec![],
            term: Terminator::Jump(BlockIdx(to)),
        }
    }

    fn ret_block(label: &str) -> Block {
        Block {
            label: label.into(),
            instrs: vec![],
            term: Terminator::Return(None),
        }
    }

    fn func(blocks: Vec<Block>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            vars: vec![],
            arrays: vec![],
            blocks,
        }
    }

    #[test]
    fn unreachable_blocks_removed() {
        let mut f = func(vec![
            jump_block("e", 2),
            ret_block("island"),
            ret_block("x"),
        ]);
        simplify_cfg(&mut f);
        assert!(f.blocks.iter().all(|b| b.label != "island"));
    }

    #[test]
    fn empty_jump_chain_threads_and_merges() {
        // 0 → 1 (empty) → 2 (empty) → 3(ret): collapses to a single block.
        let mut f = func(vec![
            jump_block("a", 1),
            jump_block("b", 2),
            jump_block("c", 3),
            ret_block("d"),
        ]);
        simplify_cfg(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Return(None)));
    }

    #[test]
    fn merge_moves_instructions() {
        let mut b0 = jump_block("a", 1);
        b0.instrs.push(Instr::Copy {
            dst: VarId(0),
            src: Operand::Const(1),
        });
        let mut b1 = ret_block("b");
        b1.instrs.push(Instr::Copy {
            dst: VarId(0),
            src: Operand::Const(2),
        });
        let mut f = func(vec![b0, b1]);
        f.vars.push(crate::ir::VarInfo {
            name: "x".into(),
            bits: 32,
            is_temp: false,
        });
        simplify_cfg(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].instrs.len(), 2);
    }

    #[test]
    fn diamond_is_preserved() {
        // 0 branches to 1/2, both jump to 3. No block may be merged away
        // except that empty arms thread through.
        let mut b0 = ret_block("c");
        b0.term = Terminator::Branch {
            cond: Operand::Var(VarId(0)),
            then_bb: BlockIdx(1),
            else_bb: BlockIdx(2),
        };
        let mut then_b = jump_block("t", 3);
        then_b.instrs.push(Instr::Copy {
            dst: VarId(1),
            src: Operand::Const(1),
        });
        let mut else_b = jump_block("e", 3);
        else_b.instrs.push(Instr::Copy {
            dst: VarId(1),
            src: Operand::Const(2),
        });
        let mut join = ret_block("j");
        join.instrs.push(Instr::Copy {
            dst: VarId(2),
            src: Operand::Var(VarId(1)),
        });
        let mut f = func(vec![b0, then_b, else_b, join]);
        for n in ["c", "x", "y"] {
            f.vars.push(crate::ir::VarInfo {
                name: n.into(),
                bits: 32,
                is_temp: false,
            });
        }
        simplify_cfg(&mut f);
        assert_eq!(f.blocks.len(), 4, "diamond must survive");
    }

    #[test]
    fn loop_back_edge_survives() {
        // 0 → 1; 1 branch → (1, 2); 2 ret. Nothing merges across the loop
        // header since it has 2 predecessors.
        let b0 = jump_block("e", 1);
        let mut b1 = ret_block("h");
        b1.instrs.push(Instr::Copy {
            dst: VarId(0),
            src: Operand::Const(0),
        });
        b1.term = Terminator::Branch {
            cond: Operand::Var(VarId(0)),
            then_bb: BlockIdx(1),
            else_bb: BlockIdx(2),
        };
        let b2 = ret_block("x");
        let mut f = func(vec![b0, b1, b2]);
        f.vars.push(crate::ir::VarInfo {
            name: "i".into(),
            bits: 32,
            is_temp: false,
        });
        simplify_cfg(&mut f);
        // entry merges into nothing (header has 2 preds), so 3 blocks −
        // entry may merge with header? No: header has preds {entry, header}.
        assert_eq!(f.blocks.len(), 3);
        // Back edge still present.
        let has_back = f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.successors().iter().any(|s| s.index() <= i));
        assert!(has_back);
    }

    #[test]
    fn dead_straightline_temp_removed() {
        let src = "int main() { int dead = 3 * 3 + 1; int x = 2; return x * x; }";
        let ir = crate::compile_to_ir(src, "main").unwrap();
        // 'dead' is folded to a constant copy and then eliminated; only
        // the x computation survives.
        let names: Vec<&str> = ir
            .entry
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Copy { dst, .. } | Instr::Bin { dst, .. } => {
                    Some(ir.entry.vars[dst.index()].name.as_str())
                }
                _ => None,
            })
            .collect();
        assert!(!names.contains(&"dead"), "dead def survived: {names:?}");
    }

    #[test]
    fn dead_load_removed_but_store_kept() {
        let src = r#"
            int a[4];
            int main() {
                int unused = a[2];
                a[1] = 7;
                return a[1];
            }
        "#;
        let ir = crate::compile_to_ir(src, "main").unwrap();
        let loads = ir
            .entry
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Load { .. }))
            .count();
        let stores = ir
            .entry
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(loads, 1, "only the returned a[1] load survives");
        assert_eq!(stores, 1, "the store is side-effecting and kept");
    }

    #[test]
    fn dce_cascades_through_chains() {
        // y depends only on dead x: both must go.
        let src = "int main() { int x = 5; int y = x * 7; int z = 1; return z; }";
        let ir = crate::compile_to_ir(src, "main").unwrap();
        let instrs: usize = ir.entry.instr_count();
        // Only `z = 1` (a single copy) may survive.
        assert!(instrs <= 1, "expected ≤1 instruction, got {instrs}");
    }

    #[test]
    fn live_loop_carried_values_survive() {
        let src = "int main() { int s = 0; for (int i = 0; i < 8; i++) { s += i; } return s; }";
        let ir = crate::compile_to_ir(src, "main").unwrap();
        let exec = || {
            // Interpret manually below in the profiler crate tests; here
            // just assert the accumulating add survived.
            ir.entry
                .blocks
                .iter()
                .flat_map(|b| &b.instrs)
                .filter(|i| {
                    matches!(
                        i,
                        Instr::Bin {
                            op: crate::ast::BinOp::Add,
                            ..
                        }
                    )
                })
                .count()
        };
        assert!(exec() >= 2, "s += i and i++ must both survive");
    }

    #[test]
    fn branch_condition_values_survive() {
        let src = "int main() { int x = 3; if (x > 2) { return 1; } return 0; }";
        let ir = crate::compile_to_ir(src, "main").unwrap();
        let cmps = ir
            .entry
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| {
                matches!(
                    i,
                    Instr::Bin {
                        op: crate::ast::BinOp::Gt,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(cmps, 1);
    }

    #[test]
    fn rpo_renumber_entry_first() {
        let mut f = func(vec![
            jump_block("e", 2),
            ret_block("second"),
            jump_block("mid", 1),
        ]);
        // add an instruction so blocks don't fully merge
        f.blocks[1].instrs.push(Instr::Copy {
            dst: VarId(0),
            src: Operand::Const(0),
        });
        f.blocks[2].instrs.push(Instr::Copy {
            dst: VarId(0),
            src: Operand::Const(1),
        });
        f.vars.push(crate::ir::VarInfo {
            name: "x".into(),
            bits: 32,
            is_temp: false,
        });
        simplify_cfg(&mut f);
        // entry is block 0 and every forward edge goes to a later index in
        // this straight-line case.
        assert!(matches!(
            f.blocks.last().unwrap().term,
            Terminator::Return(None)
        ));
    }
}
