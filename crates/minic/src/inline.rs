//! Whole-program function inlining.
//!
//! The partitioning methodology operates on one flat CDFG of the
//! application, so every call is inlined into the entry function, and
//! this pass rejects recursion. Functions are processed callees-first;
//! inlining one call splices a variable- and block-remapped copy of the
//! callee's CFG into the caller and rewrites `return`s into jumps to the
//! continuation block.

use crate::ir::{BlockIdx, Function, Instr, Operand, Terminator, VarId, VarInfo};
use crate::lower::{HBlock, HFunction, HInstr};
use crate::token::Span;
use crate::CompileError;
use amdrel_cdfg::hash::FixedMap;

/// Inline all calls, producing the final call-free entry [`Function`].
///
/// `functions` come from lowering, in source order: every callee and
/// `entry` exist.
///
/// # Errors
///
/// [`CompileError`] at the call that closes the first cycle in the call
/// graph: recursion cannot be inlined.
pub(crate) fn inline_program(
    functions: Vec<HFunction>,
    entry: &str,
) -> Result<Function, CompileError> {
    let order = topo_order(&functions)?;
    // Inline callees-first so each inline step splices call-free bodies.
    let mut done: FixedMap<String, HFunction> = FixedMap::default();
    for idx in order {
        let mut f = functions[idx].clone();
        inline_calls(&mut f, &done);
        done.insert(f.name.clone(), f);
    }
    let entry_fn = done.remove(entry).expect("lowering checked the entry");
    Ok(finalize(entry_fn))
}

/// Callees-before-callers order over the call graph.
///
/// The depth-first walk takes the functions and each function's calls
/// in source order (by span start, since lowering emits a `for` step
/// after its body), so the call it reports closes the first cycle the
/// source reaches, called from the entry or not.
fn topo_order(functions: &[HFunction]) -> Result<Vec<usize>, CompileError> {
    let index: FixedMap<&str, usize> = functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut marks = vec![Mark::White; functions.len()];
    let mut order = Vec::with_capacity(functions.len());
    for i in 0..functions.len() {
        if marks[i] == Mark::White {
            visit(i, functions, &index, &mut marks, &mut order)?;
        }
    }
    Ok(order)
}

/// A function's state in [`topo_order`]'s walk.
#[derive(Clone, Copy, PartialEq)]
enum Mark {
    White,
    /// On the walk's current path: a call to it closes a cycle.
    Gray,
    Black,
}

fn visit(
    i: usize,
    functions: &[HFunction],
    index: &FixedMap<&str, usize>,
    marks: &mut [Mark],
    order: &mut Vec<usize>,
) -> Result<(), CompileError> {
    marks[i] = Mark::Gray;
    let mut calls: Vec<(&str, Span)> = functions[i]
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .filter_map(|instr| match instr {
            HInstr::Call { callee, span, .. } => Some((callee.as_str(), *span)),
            HInstr::Real(_) => None,
        })
        .collect();
    calls.sort_by_key(|&(_, span)| span.start);
    for (callee, span) in calls {
        let j = index[callee]; // lowering resolved every callee
        if marks[j] == Mark::Gray {
            return Err(CompileError::new(
                format!("recursion involving '{callee}' is not supported (all calls are inlined)"),
                span,
            ));
        }
        if marks[j] == Mark::White {
            visit(j, functions, index, marks, order)?;
        }
    }
    marks[i] = Mark::Black;
    order.push(i);
    Ok(())
}

/// Replace every call in `f` with a spliced copy of the (already call-free)
/// callee from `done`.
fn inline_calls(f: &mut HFunction, done: &FixedMap<String, HFunction>) {
    loop {
        // Find the first remaining call.
        let mut site = None;
        'outer: for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, instr) in b.instrs.iter().enumerate() {
                if matches!(instr, HInstr::Call { .. }) {
                    site = Some((bi, ii));
                    break 'outer;
                }
            }
        }
        let Some((bi, ii)) = site else {
            return;
        };

        let HInstr::Call {
            dst, callee, args, ..
        } = f.blocks[bi].instrs[ii].clone()
        else {
            unreachable!("site points at a call");
        };
        let callee_fn = done
            .get(&callee)
            .expect("lowering resolved the callee, and the order inlined it first");

        // --- allocate remapped variables and arrays for the callee copy.
        let var_base = f.vars.len() as u32;
        for v in &callee_fn.vars {
            f.vars.push(VarInfo {
                name: format!("{}::{}", callee, v.name),
                bits: v.bits,
                is_temp: v.is_temp,
            });
        }
        let array_base = f.arrays.len() as u32;
        for a in &callee_fn.arrays {
            let mut a = a.clone();
            a.name = format!("{}::{}", callee, a.name);
            f.arrays.push(a);
        }
        let remap_var = |v: VarId| VarId(v.0 + var_base);
        let remap_operand = |o: Operand| match o {
            Operand::Var(v) => Operand::Var(remap_var(v)),
            c => c,
        };
        let remap_array = |a: crate::ir::ArrayRef| match a {
            crate::ir::ArrayRef::Local(i) => crate::ir::ArrayRef::Local(i + array_base),
            g => g,
        };

        // --- split the call block.
        let post_idx = BlockIdx(f.blocks.len() as u32);
        let tail: Vec<HInstr> = f.blocks[bi].instrs.split_off(ii + 1);
        f.blocks[bi].instrs.pop(); // drop the call itself
        let post = HBlock {
            label: format!("{}.cont", f.blocks[bi].label),
            instrs: tail,
            term: f.blocks[bi].term.clone(),
        };
        f.blocks.push(post);

        // --- parameter marshalling in the caller block.
        for (p, a) in callee_fn.params.iter().zip(args.iter()) {
            f.blocks[bi].instrs.push(HInstr::Real(Instr::Copy {
                dst: remap_var(*p),
                src: *a,
            }));
        }

        // --- splice remapped callee blocks.
        let block_base = f.blocks.len() as u32;
        let remap_block = |b: BlockIdx| BlockIdx(b.0 + block_base);
        for cb in &callee_fn.blocks {
            let instrs = cb
                .instrs
                .iter()
                .map(|instr| match instr {
                    HInstr::Real(i) => {
                        HInstr::Real(remap_instr(i, &remap_operand, &remap_var, &remap_array))
                    }
                    HInstr::Call { .. } => {
                        unreachable!("callee '{callee}' still contains calls")
                    }
                })
                .collect();
            let term = match &cb.term {
                Terminator::Jump(t) => Terminator::Jump(remap_block(*t)),
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => Terminator::Branch {
                    cond: remap_operand(*cond),
                    then_bb: remap_block(*then_bb),
                    else_bb: remap_block(*else_bb),
                },
                Terminator::Return(val) => {
                    // Return becomes: copy into dst (if any), jump to post.
                    // The copy is emitted into the block itself below.
                    Terminator::Return(val.as_ref().map(|v| remap_operand(*v)))
                }
            };
            f.blocks.push(HBlock {
                label: format!("{}@{}", callee, cb.label),
                instrs,
                term,
            });
        }
        // Rewrite spliced returns into copies + jumps.
        for b in f.blocks[block_base as usize..].iter_mut() {
            if let Terminator::Return(val) = b.term.clone() {
                if let (Some(d), Some(v)) = (dst, val) {
                    b.instrs.push(HInstr::Real(Instr::Copy { dst: d, src: v }));
                }
                b.term = Terminator::Jump(post_idx);
            }
        }
        // Enter the callee.
        f.blocks[bi].term = Terminator::Jump(BlockIdx(block_base));
    }
}

fn remap_instr(
    i: &Instr,
    remap_operand: &impl Fn(Operand) -> Operand,
    remap_var: &impl Fn(VarId) -> VarId,
    remap_array: &impl Fn(crate::ir::ArrayRef) -> crate::ir::ArrayRef,
) -> Instr {
    match i {
        Instr::Bin { op, dst, lhs, rhs } => Instr::Bin {
            op: *op,
            dst: remap_var(*dst),
            lhs: remap_operand(*lhs),
            rhs: remap_operand(*rhs),
        },
        Instr::Un { op, dst, src } => Instr::Un {
            op: *op,
            dst: remap_var(*dst),
            src: remap_operand(*src),
        },
        Instr::Copy { dst, src } => Instr::Copy {
            dst: remap_var(*dst),
            src: remap_operand(*src),
        },
        Instr::Load { dst, array, index } => Instr::Load {
            dst: remap_var(*dst),
            array: remap_array(*array),
            index: remap_operand(*index),
        },
        Instr::Store {
            array,
            index,
            value,
        } => Instr::Store {
            array: remap_array(*array),
            index: remap_operand(*index),
            value: remap_operand(*value),
        },
    }
}

/// Convert a call-free [`HFunction`] into the public [`Function`].
fn finalize(f: HFunction) -> Function {
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for b in f.blocks {
        let mut instrs = Vec::with_capacity(b.instrs.len());
        for i in b.instrs {
            match i {
                HInstr::Real(i) => instrs.push(i),
                HInstr::Call { .. } => unreachable!("inline_calls leaves no call"),
            }
        }
        blocks.push(crate::ir::Block {
            label: b.label,
            instrs,
            term: b.term,
        });
    }
    Function {
        name: f.name,
        params: f.params,
        vars: f.vars,
        arrays: f.arrays,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lower::lower_functions;
    use crate::parser::parse;

    fn inline_src(src: &str) -> Function {
        let ast = parse(&lex(src).unwrap()).unwrap();
        let (_, fns) = lower_functions(&ast, "main").unwrap();
        inline_program(fns, "main").unwrap()
    }

    #[test]
    fn simple_call_is_inlined() {
        let f = inline_src("int add1(int x) { return x + 1; } int main() { return add1(41); }");
        assert_eq!(f.name, "main");
        // No calls can remain by construction (finalize would have failed).
        // The callee body must appear: look for the x+1 add on a remapped var.
        let has_add = f.blocks.iter().any(|b| {
            b.instrs.iter().any(|i| {
                matches!(
                    i,
                    Instr::Bin {
                        op: crate::ast::BinOp::Add,
                        ..
                    }
                )
            })
        });
        assert!(has_add);
        // Callee variables are prefixed.
        assert!(f.vars.iter().any(|v| v.name.starts_with("add1::")));
    }

    #[test]
    fn nested_calls_inline_transitively() {
        let f = inline_src(
            "int a(int x) { return x * 2; }\n             int b(int x) { return a(x) + 3; }\n             int main() { return b(5); }",
        );
        assert!(f.vars.iter().any(|v| v.name.contains("a::")));
        assert!(f.vars.iter().any(|v| v.name.contains("b::")));
    }

    #[test]
    fn two_calls_to_same_function_get_distinct_copies() {
        let f = inline_src("int sq(int x) { return x * x; } int main() { return sq(2) + sq(3); }");
        let copies = f.vars.iter().filter(|v| v.name == "sq::x").count();
        assert_eq!(copies, 2, "each call site gets its own parameter copy");
    }

    #[test]
    fn void_call_statement_inlines() {
        let f = inline_src(
            "int acc[2]; void bump() { acc[0] = acc[0] + 1; } int main() { bump(); bump(); return acc[0]; }",
        );
        let stores = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn callee_with_loop_keeps_loop_structure() {
        let f = inline_src(
            "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }\n             int main() { return sum(10); }",
        );
        // A back edge must exist: some block jumps to an earlier block.
        let mut has_back = false;
        for (i, b) in f.blocks.iter().enumerate() {
            for s in b.successors() {
                if s.index() <= i {
                    has_back = true;
                }
            }
        }
        assert!(has_back, "inlined loop lost its back edge");
    }

    #[test]
    fn callee_local_arrays_are_remapped() {
        let f = inline_src(
            "int work() { int buf[4]; buf[1] = 5; return buf[1]; } int main() { return work() + work(); }",
        );
        assert_eq!(f.arrays.len(), 2);
        assert!(f.arrays.iter().all(|a| a.name == "work::buf"));
    }

    #[test]
    fn early_return_in_callee_joins_continuation() {
        let f = inline_src(
            "int clamp(int x) { if (x > 10) { return 10; } return x; }\n             int main() { return clamp(99) + 1; }",
        );
        // Exactly one block should return (main's), all callee returns
        // became jumps.
        let returns = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Return(_)))
            .count();
        // main has its own fall-off return block too; at least one, and no
        // callee-labeled block may return.
        assert!(returns >= 1);
        for b in &f.blocks {
            if b.label.starts_with("clamp@") {
                assert!(
                    !matches!(b.term, Terminator::Return(_)),
                    "callee block {} still returns",
                    b.label
                );
            }
        }
    }
}
