//! The IR interpreter — the dynamic-analysis half of the paper's step 3.
//!
//! The paper instruments the C source with Lex-placed counters, compiles
//! and runs it on representative inputs, and reads back per-basic-block
//! execution counts. Here the same effect comes from interpreting the very
//! IR the partitioner works on: every block entry bumps a counter, so
//! `exec_freq` aligns with CDFG blocks by construction.
//!
//! Arithmetic is 64-bit two's complement with wrapping, the common choice
//! for simulating 32-bit DSP code with headroom. Division by zero and
//! out-of-bounds array accesses abort with a [`ProfileError`], as does
//! exceeding the configurable step budget (which turns accidental infinite
//! loops into errors instead of hangs).
//!
//! # Execution model
//!
//! * **Decode once.** [`Interpreter::new`] flattens the entry function
//!   into one array of 16-byte ops, one per IR instruction, with every
//!   operand a register index: the variables come first, then one
//!   pre-loaded register per distinct constant. Global and local arrays
//!   share one index space, globals first. A run then never matches on
//!   an [`Operand`] or an [`ArrayRef`].
//! * **Blocks own op ranges.** Each block runs its ops back to back.
//!   When a block ends in a comparison whose result feeds its
//!   `Branch`, the two become one terminator that compares, still
//!   writes the comparison's variable, and jumps: the shape every
//!   counted loop's condition lowers to.
//! * **The budget is charged per block.** A block that fits in what is
//!   left of the step budget retires all its instructions at once. Only
//!   the block that would cross it runs instruction by instruction, up
//!   to the limit, so a fault before the limit still wins and every
//!   [`ProfileError`] is the one a per-instruction count would give.
//! * **An array holds the prefix the run has written.** A global starts
//!   as its initialiser (or a longer input), a local starts empty. A
//!   store past the prefix grows it to twice its length or just past
//!   the stored index, whichever is longer, but never past the declared
//!   length; a load past it reads 0. Bounds are judged against the
//!   declared length, so every [`ProfileError`] is the one a full array
//!   gives, and a prefix the allocator refuses is
//!   [`ProfileError::OutOfMemory`], not an abort. A zeroed `Vec` of the
//!   declared length would leave its untouched pages unmapped only while
//!   the allocator serves it from a fresh `mmap`: after the first large
//!   free, glibc raises its mmap threshold and serves the next one from
//!   the heap, memset and resident. The 256×256 JPEG encoder writes
//!   48,359 (seed 42) of its bitstream buffer's 1,769,472 elements, so
//!   its prefix ends at 65,536 (0.5 MB) instead of 14 MB, and a hostile
//!   declared length costs nothing until a store reaches far into it.

use crate::ProfileError;
use amdrel_minic::ast::{BinOp, UnOp};
use amdrel_minic::ir::{self, ArrayRef, Function, Instr, IrProgram, Operand, Terminator};
use std::borrow::Cow;
use std::collections::HashMap;

#[cfg(test)]
mod oracle;

/// Result of one interpreted run.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Per-block entry counts, indexed by IR/CDFG block index.
    pub block_counts: Vec<u64>,
    /// Total instructions retired (terminators excluded).
    pub instrs_retired: u64,
    /// The entry function's return value, if it returned one.
    pub return_value: Option<i64>,
    /// Every global array as the run left it, in declaration order.
    globals: Vec<Global>,
}

/// A global array after a run: every element past `prefix` is zero.
#[derive(Debug, Clone)]
struct Global {
    name: String,
    /// The declared length.
    len: usize,
    prefix: Vec<i64>,
}

impl Execution {
    /// Final contents of the named global array, all of its declared
    /// length. The run keeps only the prefix it wrote; when that is
    /// shorter than the array, this returns a zero-padded copy, so only
    /// a caller that asks pays for the full length.
    pub fn global(&self, name: &str) -> Option<Cow<'_, [i64]>> {
        let g = self.globals.iter().find(|g| g.name == name)?;
        Some(if g.prefix.len() == g.len {
            Cow::Borrowed(&g.prefix)
        } else {
            let mut full = vec![0; g.len];
            full[..g.prefix.len()].copy_from_slice(&g.prefix);
            Cow::Owned(full)
        })
    }
}

/// Pair each of `ir`'s globals with the prefix a run left in it.
fn globals(ir: &IrProgram, prefixes: Vec<Vec<i64>>) -> Vec<Global> {
    ir.globals
        .iter()
        .zip(prefixes)
        .map(|(g, prefix)| Global {
            name: g.name.clone(),
            len: g.len,
            prefix,
        })
        .collect()
}

/// Interpreter for a compiled [`IrProgram`].
///
/// # Examples
///
/// ```
/// use amdrel_minic::compile_to_ir;
/// use amdrel_profiler::Interpreter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ir = compile_to_ir(
///     "int out[1]; int main() { out[0] = 6 * 7; return out[0]; }",
///     "main",
/// )?;
/// let exec = Interpreter::new(&ir).run(&[])?;
/// assert_eq!(exec.return_value, Some(42));
/// assert_eq!(exec.global("out").as_deref(), Some(&[42][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    ir: &'p IrProgram,
    step_limit: u64,
    /// Every block's body, back to back.
    ops: Vec<Op>,
    /// Indexed by IR block index.
    blocks: Vec<Block>,
    /// The register file a run starts from: zeroed variables, then the
    /// constants.
    regs: Vec<i64>,
    /// Declared length of every array, globals first.
    lens: Vec<usize>,
}

/// Default instruction budget: generous enough for a 256×256 JPEG encode,
/// small enough to stop runaways in seconds.
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

/// One decoded instruction. Register operands are `(dst, lhs, rhs)` or
/// `(dst, src)`; `array` indexes the run's arrays, globals first.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u32, u32, u32),
    Sub(u32, u32, u32),
    Mul(u32, u32, u32),
    Div(u32, u32, u32),
    Rem(u32, u32, u32),
    And(u32, u32, u32),
    Or(u32, u32, u32),
    Xor(u32, u32, u32),
    Shl(u32, u32, u32),
    Shr(u32, u32, u32),
    Cmp(Cmp, u32, u32, u32),
    Neg(u32, u32),
    BitNot(u32, u32),
    Not(u32, u32),
    Copy(u32, u32),
    Load { dst: u32, array: u32, index: u32 },
    Store { array: u32, index: u32, value: u32 },
}

/// A comparison operator.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl Cmp {
    fn holds(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }
}

/// A decoded basic block.
#[derive(Debug)]
struct Block {
    /// `ops[start..end]` is the body, a fused comparison excluded.
    start: u32,
    end: u32,
    /// IR instructions the block retires: the body plus a fused
    /// comparison.
    steps: u64,
    term: Term,
}

/// How control leaves a decoded block; targets are block indices.
#[derive(Debug, Clone, Copy)]
enum Term {
    Jump(u32),
    Branch {
        cond: u32,
        then_bb: u32,
        else_bb: u32,
    },
    /// `dst = lhs cmp rhs`, then a branch on `dst`.
    CmpBranch {
        cmp: Cmp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_bb: u32,
        else_bb: u32,
    },
    Return(Option<u32>),
}

// Ops are what a run streams through: four to a 64-byte cache line.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// A decode-time index as the `u32` an op stores.
fn u32_index(i: usize) -> u32 {
    u32::try_from(i).expect("an IR program indexes fewer than 2^32 items")
}

/// The decoder's state: the op array so far and the register file,
/// variables first, then each distinct constant once.
struct Decoder {
    ops: Vec<Op>,
    regs: Vec<i64>,
    consts: HashMap<i64, u32>,
    /// Global arrays, which precede the locals in the array index space.
    globals: usize,
}

impl Decoder {
    /// Decode `f` into its op array, blocks and initial register file.
    fn decode(f: &Function, globals: usize) -> (Vec<Op>, Vec<Block>, Vec<i64>) {
        let mut d = Decoder {
            ops: Vec::with_capacity(f.instr_count()),
            regs: vec![0; f.vars.len()],
            consts: HashMap::new(),
            globals,
        };
        let blocks = f.blocks.iter().map(|b| d.block(b)).collect();
        (d.ops, blocks, d.regs)
    }

    fn block(&mut self, b: &ir::Block) -> Block {
        let start = self.ops.len();
        for instr in &b.instrs {
            let op = self.op(instr);
            self.ops.push(op);
        }
        let term = match b.term {
            Terminator::Jump(t) => Term::Jump(t.0),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => match (cond, &self.ops[start..]) {
                (Operand::Var(v), [.., Op::Cmp(cmp, dst, lhs, rhs)]) if v.0 == *dst => {
                    let term = Term::CmpBranch {
                        cmp: *cmp,
                        dst: *dst,
                        lhs: *lhs,
                        rhs: *rhs,
                        then_bb: then_bb.0,
                        else_bb: else_bb.0,
                    };
                    self.ops.pop();
                    term
                }
                _ => Term::Branch {
                    cond: self.reg(cond),
                    then_bb: then_bb.0,
                    else_bb: else_bb.0,
                },
            },
            Terminator::Return(v) => Term::Return(v.map(|v| self.reg(v))),
        };
        Block {
            start: u32_index(start),
            end: u32_index(self.ops.len()),
            steps: b.instrs.len() as u64,
            term,
        }
    }

    fn op(&mut self, instr: &Instr) -> Op {
        match *instr {
            Instr::Bin { op, dst, lhs, rhs } => {
                let (d, a, b) = (dst.0, self.reg(lhs), self.reg(rhs));
                match op {
                    BinOp::Add => Op::Add(d, a, b),
                    BinOp::Sub => Op::Sub(d, a, b),
                    BinOp::Mul => Op::Mul(d, a, b),
                    BinOp::Div => Op::Div(d, a, b),
                    BinOp::Rem => Op::Rem(d, a, b),
                    BinOp::And => Op::And(d, a, b),
                    BinOp::Or => Op::Or(d, a, b),
                    BinOp::Xor => Op::Xor(d, a, b),
                    BinOp::Shl => Op::Shl(d, a, b),
                    BinOp::Shr => Op::Shr(d, a, b),
                    BinOp::Lt => Op::Cmp(Cmp::Lt, d, a, b),
                    BinOp::Le => Op::Cmp(Cmp::Le, d, a, b),
                    BinOp::Gt => Op::Cmp(Cmp::Gt, d, a, b),
                    BinOp::Ge => Op::Cmp(Cmp::Ge, d, a, b),
                    BinOp::Eq => Op::Cmp(Cmp::Eq, d, a, b),
                    BinOp::Ne => Op::Cmp(Cmp::Ne, d, a, b),
                }
            }
            Instr::Un { op, dst, src } => {
                let (d, s) = (dst.0, self.reg(src));
                match op {
                    UnOp::Neg => Op::Neg(d, s),
                    UnOp::BitNot => Op::BitNot(d, s),
                    UnOp::LogicalNot => Op::Not(d, s),
                }
            }
            Instr::Copy { dst, src } => Op::Copy(dst.0, self.reg(src)),
            Instr::Load { dst, array, index } => Op::Load {
                dst: dst.0,
                array: self.array(array),
                index: self.reg(index),
            },
            Instr::Store {
                array,
                index,
                value,
            } => Op::Store {
                array: self.array(array),
                index: self.reg(index),
                value: self.reg(value),
            },
        }
    }

    fn reg(&mut self, op: Operand) -> u32 {
        match op {
            Operand::Var(v) => v.0,
            Operand::Const(c) => *self.consts.entry(c).or_insert_with(|| {
                self.regs.push(c);
                u32_index(self.regs.len() - 1)
            }),
        }
    }

    fn array(&self, array: ArrayRef) -> u32 {
        match array {
            ArrayRef::Global(g) => g,
            ArrayRef::Local(l) => u32_index(self.globals + l as usize),
        }
    }
}

impl<'p> Interpreter<'p> {
    /// An interpreter with the default step budget.
    pub fn new(ir: &'p IrProgram) -> Self {
        let (ops, blocks, regs) = Decoder::decode(&ir.entry, ir.globals.len());
        let lens = ir.globals.iter().map(|g| g.len);
        let lens = lens.chain(ir.entry.arrays.iter().map(|a| a.len)).collect();
        Interpreter {
            ir,
            step_limit: DEFAULT_STEP_LIMIT,
            ops,
            blocks,
            regs,
            lens,
        }
    }

    /// Replace the step budget.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Run the program. `inputs` overwrites named global arrays before
    /// execution (shorter vectors set a prefix; the rest keeps its
    /// initialiser value).
    ///
    /// # Errors
    ///
    /// [`ProfileError`] on unknown input names, oversized inputs, division
    /// by zero, out-of-range shifts/indices, step-budget exhaustion, or
    /// an array prefix the allocator cannot hold.
    pub fn run(&self, inputs: &[(&str, &[i64])]) -> Result<Execution, ProfileError> {
        // Each array holds only the prefix written so far: a global
        // starts as its initialiser, a local empty.
        let mut arrays: Vec<Vec<i64>> = self.ir.globals.iter().map(|g| g.init.clone()).collect();
        for (name, data) in inputs {
            let gi = self
                .ir
                .globals
                .iter()
                .position(|g| g.name == *name)
                .ok_or_else(|| ProfileError::UnknownInput {
                    name: (*name).to_owned(),
                })?;
            if data.len() > self.lens[gi] {
                return Err(ProfileError::InputTooLong {
                    name: (*name).to_owned(),
                    len: data.len(),
                    capacity: self.lens[gi],
                });
            }
            let prefix = &mut arrays[gi];
            if prefix.len() < data.len() {
                prefix.resize(data.len(), 0);
            }
            prefix[..data.len()].copy_from_slice(data);
        }
        arrays.resize_with(self.lens.len(), Vec::new);

        let mut regs = self.regs.clone();
        let mut counts = vec![0u64; self.blocks.len()];
        let mut retired: u64 = 0;
        let mut block = 0;
        let return_value = loop {
            counts[block] += 1;
            let b = &self.blocks[block];
            let body = &self.ops[b.start as usize..b.end as usize];
            // `retired <= step_limit` always holds, so this cannot wrap.
            let budget = self.step_limit - retired;
            if b.steps > budget {
                // `budget < steps <= body.len() + 1`: the cut falls within
                // the body, before any fused comparison.
                self.exec(&body[..budget as usize], &mut regs, &mut arrays)?;
                return Err(ProfileError::StepLimit {
                    limit: self.step_limit,
                });
            }
            retired += b.steps;
            self.exec(body, &mut regs, &mut arrays)?;
            block = match b.term {
                Term::Jump(t) => t,
                Term::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    if regs[cond as usize] != 0 {
                        then_bb
                    } else {
                        else_bb
                    }
                }
                Term::CmpBranch {
                    cmp,
                    dst,
                    lhs,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    let taken = cmp.holds(regs[lhs as usize], regs[rhs as usize]);
                    regs[dst as usize] = i64::from(taken);
                    if taken {
                        then_bb
                    } else {
                        else_bb
                    }
                }
                Term::Return(v) => break v.map(|r| regs[r as usize]),
            } as usize;
        };

        Ok(Execution {
            block_counts: counts,
            instrs_retired: retired,
            return_value,
            globals: globals(self.ir, arrays),
        })
    }

    /// Execute `ops` in order.
    #[inline]
    fn exec(
        &self,
        ops: &[Op],
        regs: &mut [i64],
        arrays: &mut [Vec<i64>],
    ) -> Result<(), ProfileError> {
        for op in ops {
            match *op {
                Op::Add(d, a, b) => {
                    regs[d as usize] = regs[a as usize].wrapping_add(regs[b as usize]);
                }
                Op::Sub(d, a, b) => {
                    regs[d as usize] = regs[a as usize].wrapping_sub(regs[b as usize]);
                }
                Op::Mul(d, a, b) => {
                    regs[d as usize] = regs[a as usize].wrapping_mul(regs[b as usize]);
                }
                Op::Div(d, a, b) => {
                    let divisor = nonzero(regs[b as usize])?;
                    regs[d as usize] = regs[a as usize].wrapping_div(divisor);
                }
                Op::Rem(d, a, b) => {
                    let divisor = nonzero(regs[b as usize])?;
                    regs[d as usize] = regs[a as usize].wrapping_rem(divisor);
                }
                Op::And(d, a, b) => regs[d as usize] = regs[a as usize] & regs[b as usize],
                Op::Or(d, a, b) => regs[d as usize] = regs[a as usize] | regs[b as usize],
                Op::Xor(d, a, b) => regs[d as usize] = regs[a as usize] ^ regs[b as usize],
                Op::Shl(d, a, b) => {
                    let amount = shift(regs[b as usize])?;
                    regs[d as usize] = regs[a as usize] << amount;
                }
                Op::Shr(d, a, b) => {
                    let amount = shift(regs[b as usize])?;
                    regs[d as usize] = regs[a as usize] >> amount;
                }
                Op::Cmp(cmp, d, a, b) => {
                    regs[d as usize] = i64::from(cmp.holds(regs[a as usize], regs[b as usize]));
                }
                Op::Neg(d, s) => regs[d as usize] = regs[s as usize].wrapping_neg(),
                Op::BitNot(d, s) => regs[d as usize] = !regs[s as usize],
                Op::Not(d, s) => regs[d as usize] = i64::from(regs[s as usize] == 0),
                Op::Copy(d, s) => regs[d as usize] = regs[s as usize],
                Op::Load { dst, array, index } => {
                    let i = regs[index as usize];
                    let data = &arrays[array as usize];
                    regs[dst as usize] = match usize::try_from(i).ok().and_then(|i| data.get(i)) {
                        Some(&v) => v,
                        None => self.load_past_prefix(array, i)?,
                    };
                }
                Op::Store {
                    array,
                    index,
                    value,
                } => {
                    let i = regs[index as usize];
                    let v = regs[value as usize];
                    let data = &mut arrays[array as usize];
                    match usize::try_from(i).ok().and_then(|i| data.get_mut(i)) {
                        Some(cell) => *cell = v,
                        None => self.store_past_prefix(array, i, v, data)?,
                    }
                }
            }
        }
        Ok(())
    }

    /// A load past the prefix `array` holds: 0 within its declared
    /// length.
    #[cold]
    fn load_past_prefix(&self, array: u32, index: i64) -> Result<i64, ProfileError> {
        self.declared(array, index).map(|_| 0)
    }

    /// A store past `prefix`, the part of `array` the run holds: grow the
    /// prefix to twice its length or just past `index`, whichever is
    /// longer, but never past the declared length, then store.
    #[cold]
    fn store_past_prefix(
        &self,
        array: u32,
        index: i64,
        value: i64,
        prefix: &mut Vec<i64>,
    ) -> Result<(), ProfileError> {
        let i = self.declared(array, index)?;
        let len = (i + 1).max(2 * prefix.len()).min(self.lens[array as usize]);
        if prefix.try_reserve_exact(len - prefix.len()).is_err() {
            return Err(ProfileError::OutOfMemory {
                array: self.name(array).to_owned(),
                len,
            });
        }
        prefix.resize(len, 0);
        prefix[i] = value;
        Ok(())
    }

    /// `index` as a position within `array`'s declared length, or the
    /// out-of-bounds error, built only on this path so in-prefix
    /// accesses never touch the array's name.
    fn declared(&self, array: u32, index: i64) -> Result<usize, ProfileError> {
        let len = self.lens[array as usize];
        match usize::try_from(index) {
            Ok(i) if i < len => Ok(i),
            _ => Err(ProfileError::IndexOutOfBounds {
                array: self.name(array).to_owned(),
                index,
                len,
            }),
        }
    }

    /// The source name of `array`.
    fn name(&self, array: u32) -> &str {
        let array = array as usize;
        let globals = &self.ir.globals;
        match globals.get(array) {
            Some(g) => &g.name,
            None => &self.ir.entry.arrays[array - globals.len()].name,
        }
    }
}

/// A divisor, or the error dividing by zero raises.
fn nonzero(divisor: i64) -> Result<i64, ProfileError> {
    if divisor == 0 {
        return Err(ProfileError::DivisionByZero);
    }
    Ok(divisor)
}

/// A shift amount, or the error an amount outside `0..64` raises.
fn shift(amount: i64) -> Result<u32, ProfileError> {
    match u32::try_from(amount) {
        Ok(a) if a < 64 => Ok(a),
        _ => Err(ProfileError::ShiftOutOfRange { amount }),
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;
    use amdrel_minic::compile_to_ir;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;
    use std::fmt;

    fn run(src: &str) -> Execution {
        let ir = compile_to_ir(src, "main").unwrap();
        Interpreter::new(&ir).run(&[]).unwrap()
    }

    fn run_err(src: &str) -> ProfileError {
        let ir = compile_to_ir(src, "main").unwrap();
        Interpreter::new(&ir).run(&[]).unwrap_err()
    }

    #[test]
    fn arithmetic_and_logic() {
        let e = run(
            "int main() { int a = 7; int b = 3; return (a / b) * 100 + (a % b) * 10 + (a ^ b); }",
        );
        assert_eq!(e.return_value, Some(200 + 10 + 4));
    }

    #[test]
    fn shifts_and_comparisons() {
        let e = run("int main() { int x = 1 << 10; return (x >> 3) + (x > 0) + (x == 1024); }");
        assert_eq!(e.return_value, Some(128 + 1 + 1));
    }

    #[test]
    fn loop_counts_are_exact() {
        let src = "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }";
        let e = run(src);
        assert_eq!(e.return_value, Some(45));
        // Body executed exactly 10 times: find a block with count 10 that
        // is not the (11×) condition block.
        assert!(e.block_counts.contains(&10));
        assert!(e.block_counts.contains(&11));
    }

    #[test]
    fn nested_loop_counts_multiply() {
        let src = "int main() { int n = 0; for (int i = 0; i < 6; i++) { for (int j = 0; j < 7; j++) { n++; } } return n; }";
        let e = run(src);
        assert_eq!(e.return_value, Some(42));
        assert!(e.block_counts.contains(&42));
    }

    #[test]
    fn do_while_executes_at_least_once() {
        let e =
            run("int main() { int i = 100; int n = 0; do { n++; i++; } while (i < 0); return n; }");
        assert_eq!(e.return_value, Some(1));
    }

    #[test]
    fn short_circuit_semantics() {
        // Division by zero on the RHS must NOT run when the LHS is false.
        let e = run(
            "int main() { int zero = 0; int t = 0; if (zero && (1 / zero)) { t = 1; } return t; }",
        );
        assert_eq!(e.return_value, Some(0));
    }

    #[test]
    fn ternary_evaluation() {
        let e = run("int main() { int a = 5; return a > 3 ? a * 2 : a - 1; }");
        assert_eq!(e.return_value, Some(10));
    }

    #[test]
    fn global_arrays_and_inputs() {
        let ir = compile_to_ir(
            "int x[4]; int y[4]; int main() { for (int i = 0; i < 4; i++) { y[i] = x[i] * x[i]; } return y[3]; }",
            "main",
        )
        .unwrap();
        let e = Interpreter::new(&ir).run(&[("x", &[1, 2, 3, 4])]).unwrap();
        assert_eq!(e.return_value, Some(16));
        assert_eq!(e.global("y").as_deref(), Some(&[1, 4, 9, 16][..]));
    }

    #[test]
    fn function_inlining_preserves_semantics() {
        let e = run(
            "int fib_step(int a, int b) { return a + b; }\n             int main() { int a = 0; int b = 1; for (int i = 0; i < 10; i++) { int c = fib_step(a, b); a = b; b = c; } return a; }",
        );
        assert_eq!(e.return_value, Some(55)); // fib(10)
    }

    #[test]
    fn local_arrays_are_zeroed() {
        let e = run("int main() { int buf[8]; int s = 0; for (int i = 0; i < 8; i++) { s += buf[i]; } return s; }");
        assert_eq!(e.return_value, Some(0));
    }

    #[test]
    fn division_by_zero_reported() {
        assert!(matches!(
            run_err("int main() { int z = 0; return 1 / z; }"),
            ProfileError::DivisionByZero
        ));
    }

    /// The `(array, index, len)` of an out-of-bounds error.
    fn out_of_bounds(src: &str) -> (String, i64, usize) {
        match run_err(src) {
            ProfileError::IndexOutOfBounds { array, index, len } => (array, index, len),
            other => panic!("expected an out-of-bounds error, got {other:?}"),
        }
    }

    /// Loads, stores and local arrays each name the array they missed,
    /// not a neighbour.
    #[test]
    fn index_out_of_bounds_reported() {
        for (src, expected) in [
            (
                "int b[2]; int a[4]; int main() { int i = 9; return a[i]; }",
                ("a", 9, 4),
            ),
            (
                "int a[4]; int b[2]; int main() { int i = 2; b[i] = a[i]; return 0; }",
                ("b", 2, 2),
            ),
            (
                "int g[8]; int main() { int buf[3]; int tmp[5]; int i = 4; tmp[i] = 1; buf[i] = g[i]; return 0; }",
                ("buf", 4, 3),
            ),
        ] {
            let (array, index, len) = expected;
            assert_eq!(out_of_bounds(src), (array.to_owned(), index, len), "{src}");
        }
    }

    #[test]
    fn negative_index_reported() {
        assert_eq!(
            out_of_bounds("int a[4]; int b[2]; int main() { int i = 0 - 1; return a[i]; }"),
            ("a".to_owned(), -1, 4)
        );
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let ir = compile_to_ir(
            "int main() { int x = 1; while (1) { x++; } return x; }",
            "main",
        )
        .unwrap();
        let e = Interpreter::new(&ir)
            .with_step_limit(10_000)
            .run(&[])
            .unwrap_err();
        assert!(matches!(e, ProfileError::StepLimit { limit: 10_000 }));
    }

    #[test]
    fn unknown_input_rejected() {
        let ir = compile_to_ir("int main() { return 0; }", "main").unwrap();
        assert!(matches!(
            Interpreter::new(&ir).run(&[("nope", &[1])]),
            Err(ProfileError::UnknownInput { .. })
        ));
    }

    /// Elements past an initialiser read zero, and an input may fill the
    /// array past its initialiser up to the declared length.
    #[test]
    fn short_initialiser_is_zero_padded() {
        let e = run("int a[5] = {1, 2}; int main() { return a[0] * 100 + a[1] * 10 + a[4]; }");
        assert_eq!(e.return_value, Some(120));
        assert_eq!(e.global("a").as_deref(), Some(&[1, 2, 0, 0, 0][..]));

        let ir = compile_to_ir("int a[5] = {1, 2}; int main() { return a[3]; }", "main").unwrap();
        let e = Interpreter::new(&ir).run(&[("a", &[7, 8, 9, 4])]).unwrap();
        assert_eq!(e.return_value, Some(4));
        assert_eq!(e.global("a").as_deref(), Some(&[7, 8, 9, 4, 0][..]));
    }

    #[test]
    fn oversized_input_rejected() {
        for src in [
            "int a[3]; int main() { return a[0]; }",
            "int a[3] = {1}; int main() { return a[0]; }",
        ] {
            let ir = compile_to_ir(src, "main").unwrap();
            assert!(
                matches!(
                    Interpreter::new(&ir).run(&[("a", &[1, 2, 3, 4])]),
                    Err(ProfileError::InputTooLong {
                        len: 4,
                        capacity: 3,
                        ..
                    })
                ),
                "{src}"
            );
        }
    }

    #[test]
    fn wrapping_arithmetic_matches_two_complement() {
        let e = run("int main() { long big = 0x7FFFFFFFFFFFFFFF; return (big + 1) < 0; }");
        assert_eq!(e.return_value, Some(1));
    }

    #[test]
    fn break_and_continue_semantics() {
        let e = run(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i == 3) { continue; } if (i == 7) { break; } s += i; } return s; }",
        );
        // 0+1+2+4+5+6 = 18
        assert_eq!(e.return_value, Some(18));
    }

    /// Everything a run shows: block counts, instructions retired, the
    /// return value and the globals in name order, or the error.
    type Observed = Result<(Vec<u64>, u64, Option<i64>, BTreeMap<String, Vec<i64>>), ProfileError>;

    fn observe(run: Result<Execution, ProfileError>) -> Observed {
        run.map(|e| {
            let globals = e
                .globals
                .iter()
                .map(|g| {
                    assert!(g.prefix.len() <= g.len, "'{}' outgrew its length", g.name);
                    let full = e.global(&g.name).expect("a listed global");
                    (g.name.clone(), full.into_owned())
                })
                .collect();
            (e.block_counts, e.instrs_retired, e.return_value, globals)
        })
    }

    /// The decoded interpreter's and the oracle's runs of `ir`.
    fn both(ir: &IrProgram, step_limit: u64, inputs: &[(&str, &[i64])]) -> (Observed, Observed) {
        let decoded = Interpreter::new(ir).with_step_limit(step_limit).run(inputs);
        let oracle = Oracle::new(ir, step_limit).run(inputs);
        (observe(decoded), observe(oracle))
    }

    /// A loop whose condition block computes before it compares, so the
    /// block has a body and a fused compare-and-branch, and whose body
    /// block stores and counts. Every budget from zero to one past the
    /// whole run must stop exactly where the per-instruction oracle
    /// stops: in the condition block's body, just before its fused
    /// comparison, inside the loop body, or not at all.
    #[test]
    fn every_step_budget_matches_the_oracle() {
        let ir = compile_to_ir(
            "int out[4]; int main() { int s = 1; int n = 0; \
             while (s * 3 < 500) { s = s * 3 + n; out[n & 3] = s; n++; } return s / n; }",
            "main",
        )
        .unwrap();
        let interp = Interpreter::new(&ir);
        assert!(
            interp
                .blocks
                .iter()
                .any(|b| matches!(b.term, Term::CmpBranch { .. }) && b.end > b.start),
            "no fused block with a body"
        );
        assert!(
            interp.blocks.iter().any(|b| b.end - b.start >= 3),
            "no multi-instruction body"
        );
        let full = interp.run(&[]).unwrap();
        assert_eq!(full.return_value, Some(301 / 5));
        for limit in 0..=full.instrs_retired + 1 {
            let (decoded, oracle) = both(&ir, limit, &[]);
            assert_eq!(decoded, oracle, "step limit {limit}");
        }
    }

    /// A run keeps only the prefix it wrote, yet [`Execution::global`]
    /// returns the whole declared array.
    #[test]
    fn a_run_holds_only_the_written_prefix() {
        let e = run("int big[1000000]; int main() { for (int i = 0; i < 1000; i++) { big[i] = i + 1; } return big[999999]; }");
        assert_eq!(e.return_value, Some(0));
        let prefix = &e.globals[0].prefix;
        assert!(prefix.capacity() < 4096, "holds {}", prefix.capacity());
        let full = e.global("big").expect("declared");
        assert_eq!(full.len(), 1_000_000);
        assert!(full[..1000].iter().copied().eq(1..=1000));
        assert!(full[1000..].iter().all(|&v| v == 0));
    }

    /// Generates [`Case`]s: mini-C programs with nested counted loops over
    /// global and local arrays, data-dependent `if`s, and `/`, `%`, `<<`
    /// and `>>` on generated operands, so division by zero, out-of-range
    /// shifts and out-of-bounds indices all occur. Arrays are short or up
    /// to 100,000 elements long, and accesses reach the last element,
    /// scattered elements never written, and exactly the declared length,
    /// so every run grows, skips and overruns the written prefix.
    struct Programs;

    /// One generated program, its `g1` input (sometimes longer than
    /// `g1`'s initialiser, sometimes longer than `g1`) and its step
    /// budget (the default, or one small enough to stop many runs).
    struct Case {
        source: String,
        input: Vec<i64>,
        step_limit: u64,
    }

    impl fmt::Debug for Case {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let Case {
                source,
                input,
                step_limit,
            } = self;
            write!(f, "step limit {step_limit}, g1 = {input:?}\n{source}")
        }
    }

    impl Strategy for Programs {
        type Value = Case;

        fn sample(&self, rng: &mut TestRng) -> Case {
            let mut g = Gen {
                rng,
                lens: [0; 3],
                loops: 0,
            };
            g.case()
        }
    }

    /// Binary operators that never fault. `FAULTING` ones get an arm of
    /// their own, with a leaf on the right.
    const OPS: [&str; 14] = [
        "+", "-", "*", "&", "|", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
    ];
    const FAULTING: [&str; 4] = ["/", "%", "<<", ">>"];
    const ARRAYS: [&str; 3] = ["g0", "g1", "t"];
    const SCALARS: [&str; 3] = ["a", "b", "c"];

    struct Gen<'r> {
        rng: &'r mut TestRng,
        /// Lengths of `ARRAYS`.
        lens: [usize; 3],
        /// Loop variables in scope: `i0` up to `i{loops - 1}`.
        loops: usize,
    }

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            (self.rng.next_u64() % n as u64) as usize
        }

        fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
            of[self.below(of.len())]
        }

        fn case(&mut self) -> Case {
            self.lens = [(); 3].map(|()| match self.below(4) {
                0 => 1 + self.below(100_000),
                _ => 1 + self.below(8),
            });
            let [g0, g1, t] = self.lens;
            let (init0, _) = self.init(g0);
            let (init1, init1_len) = self.init(g1);
            let scalars: Vec<String> = SCALARS
                .iter()
                .map(|v| format!("int {v} = {};", self.constant()))
                .collect();
            let body = self.stmts(3);
            let ret = self.expr(2);
            let source = format!(
                "int g0[{g0}]{init0};\nint g1[{g1}]{init1};\nint main() {{\n  int t[{t}];\n  {}\n{body}  return {ret};\n}}\n",
                scalars.join(" ")
            );
            let input_len = match self.below(8) {
                0 => g1 + 1,
                1 | 2 if init1_len < g1 => init1_len + 1 + self.below(g1 - init1_len),
                _ => self.below(g1.min(8) + 1),
            };
            let input = (0..input_len).map(|_| self.below(41) as i64 - 20).collect();
            let step_limit = match self.below(3) {
                0 => self.below(100) as u64,
                _ => DEFAULT_STEP_LIMIT,
            };
            Case {
                source,
                input,
                step_limit,
            }
        }

        /// An initialiser of at most eight values for an array of `len`
        /// elements, or none, and how many values it has.
        fn init(&mut self, len: usize) -> (String, usize) {
            let values: Vec<String> = (0..self.below(len.min(8) + 1))
                .map(|_| self.below(20).to_string())
                .collect();
            if values.is_empty() {
                return (String::new(), 0);
            }
            (format!(" = {{{}}}", values.join(", ")), values.len())
        }

        /// Mostly small constants, sometimes one at the edges of the
        /// shift range or of `i64`.
        fn constant(&mut self) -> String {
            let c = match self.below(6) {
                0 => [i64::MAX, -i64::MAX, 63, 64, -1, 1 << 40][self.below(6)],
                _ => self.below(19) as i64 - 9,
            };
            if c < 0 {
                format!("(0 - {})", -c)
            } else {
                c.to_string()
            }
        }

        fn scalar(&mut self) -> String {
            if self.loops > 0 && self.below(2) == 0 {
                format!("i{}", self.below(self.loops))
            } else {
                self.pick(&SCALARS).to_owned()
            }
        }

        fn leaf(&mut self) -> String {
            match self.below(6) {
                0 | 1 => self.constant(),
                2..=4 => self.scalar(),
                _ => {
                    let a = self.below(ARRAYS.len());
                    format!("{}[{}]", ARRAYS[a], self.index(a))
                }
            }
        }

        fn expr(&mut self, depth: usize) -> String {
            if depth == 0 {
                return self.leaf();
            }
            match self.below(8) {
                0..=2 => {
                    let op = self.pick(&OPS);
                    format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
                }
                3 => {
                    let op = self.pick(&FAULTING);
                    format!("({} {op} {})", self.expr(depth - 1), self.leaf())
                }
                4 => {
                    let op = self.pick(&["-", "~", "!"]);
                    format!("({op}{})", self.expr(depth - 1))
                }
                5 => format!(
                    "({} ? {} : {})",
                    self.expr(depth - 1),
                    self.expr(depth - 1),
                    self.expr(depth - 1)
                ),
                _ => self.leaf(),
            }
        }

        /// An index into `ARRAYS[a]`: in bounds more often than not, and
        /// sometimes the last element, a scattered one or exactly the
        /// declared length.
        fn index(&mut self, a: usize) -> String {
            let len = self.lens[a];
            match self.below(9) {
                0 if self.loops > 0 => format!("i{}", self.below(self.loops)),
                1 => self.below(len + 1).to_string(),
                2 => self.expr(1),
                3 => format!("({} % {len})", self.expr(1)),
                4 => (len - 1).to_string(),
                5 if self.below(3) == 0 => len.to_string(),
                _ => format!("((({} % {len}) + {len}) % {len})", self.expr(1)),
            }
        }

        fn stmts(&mut self, depth: usize) -> String {
            (0..1 + self.below(3)).map(|_| self.stmt(depth)).collect()
        }

        fn stmt(&mut self, depth: usize) -> String {
            let indent = "  ".repeat(2 + self.loops);
            let s = match self.below(if depth == 0 { 3 } else { 6 }) {
                0 => format!("{} = {};", self.pick(&SCALARS), self.expr(2)),
                1 => format!("{} += {};", self.pick(&SCALARS), self.expr(1)),
                2 => {
                    let a = self.below(ARRAYS.len());
                    let index = self.index(a);
                    format!("{}[{index}] = {};", ARRAYS[a], self.expr(2))
                }
                3 => {
                    // Sometimes branch on a scalar just set by a comparison,
                    // so code after the `if` reads what a fused
                    // compare-and-branch wrote.
                    let (set, cond) = match self.below(3) {
                        0 => {
                            let v = self.pick(&SCALARS);
                            let cmp = self.pick(&["<", "<=", ">", ">=", "==", "!="]);
                            let (l, r) = (self.expr(1), self.expr(1));
                            (format!("{v} = {l} {cmp} {r};\n{indent}"), v.to_owned())
                        }
                        _ => (String::new(), self.expr(2)),
                    };
                    let then = self.stmts(depth - 1);
                    match self.below(2) {
                        0 => format!("{set}if ({cond}) {{\n{then}{indent}}}"),
                        _ => format!(
                            "{set}if ({cond}) {{\n{then}{indent}}} else {{\n{}{indent}}}",
                            self.stmts(depth - 1)
                        ),
                    }
                }
                _ => {
                    let (i, n) = (self.loops, self.below(6));
                    self.loops += 1;
                    let body = self.stmts(depth - 1);
                    self.loops -= 1;
                    format!("for (int i{i} = 0; i{i} < {n}; i{i}++) {{\n{body}{indent}}}")
                }
            };
            format!("{indent}{s}\n")
        }
    }

    impl Case {
        fn run(&self) -> (Observed, Observed) {
            let ir = compile_to_ir(&self.source, "main")
                .unwrap_or_else(|e| panic!("{e}\n{}", self.source));
            both(&ir, self.step_limit, &[("g1", &self.input)])
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The decoded interpreter agrees with the oracle on every
        /// generated program, errors included.
        #[test]
        fn decoded_runs_match_the_oracle(case in Programs) {
            let (decoded, oracle) = case.run();
            prop_assert_eq!(decoded, oracle);
        }
    }

    /// The generator reaches every outcome the differential suite means
    /// to compare: clean returns and each runtime error.
    #[test]
    fn generated_programs_reach_every_outcome() {
        let mut seen = BTreeMap::new();
        for seed in 0..512 {
            let (decoded, _) = Programs.sample(&mut TestRng::from_seed(seed)).run();
            let kind = match decoded {
                Ok(_) => "ok",
                Err(ProfileError::DivisionByZero) => "division by zero",
                Err(ProfileError::ShiftOutOfRange { .. }) => "shift out of range",
                Err(ProfileError::IndexOutOfBounds { .. }) => "index out of bounds",
                Err(ProfileError::StepLimit { .. }) => "step limit",
                Err(ProfileError::InputTooLong { .. }) => "input too long",
                Err(e) => panic!("unexpected error {e}"),
            };
            *seen.entry(kind).or_insert(0) += 1;
        }
        for kind in [
            "ok",
            "division by zero",
            "shift out of range",
            "index out of bounds",
            "step limit",
            "input too long",
        ] {
            assert!(seen.get(kind) >= Some(&10), "{kind}: {seen:?}");
        }
    }
}
