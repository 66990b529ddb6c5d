//! The reference interpreter of the differential tests: a direct walk
//! over the IR, one `Instr` at a time, charging the step budget per
//! instruction, with every array allocated in full at its declared
//! length.

use super::Execution;
use crate::ProfileError;
use amdrel_minic::ast::{BinOp, UnOp};
use amdrel_minic::ir::{ArrayRef, Instr, IrProgram, Operand, Terminator};

/// The reference interpreter for a compiled [`IrProgram`].
#[derive(Debug)]
pub(super) struct Oracle<'p> {
    ir: &'p IrProgram,
    step_limit: u64,
}

impl<'p> Oracle<'p> {
    pub(super) fn new(ir: &'p IrProgram, step_limit: u64) -> Self {
        Oracle { ir, step_limit }
    }

    pub(super) fn run(&self, inputs: &[(&str, &[i64])]) -> Result<Execution, ProfileError> {
        let f = &self.ir.entry;
        let mut globals: Vec<Vec<i64>> = self
            .ir
            .globals
            .iter()
            .map(|g| {
                let mut data = vec![0; g.len];
                data[..g.init.len()].copy_from_slice(&g.init);
                data
            })
            .collect();
        for (name, data) in inputs {
            let gi = self
                .ir
                .globals
                .iter()
                .position(|g| g.name == *name)
                .ok_or_else(|| ProfileError::UnknownInput {
                    name: (*name).to_owned(),
                })?;
            if data.len() > globals[gi].len() {
                return Err(ProfileError::InputTooLong {
                    name: (*name).to_owned(),
                    len: data.len(),
                    capacity: globals[gi].len(),
                });
            }
            globals[gi][..data.len()].copy_from_slice(data);
        }

        let mut locals: Vec<Vec<i64>> = f.arrays.iter().map(|a| vec![0; a.len]).collect();
        let mut vars: Vec<i64> = vec![0; f.vars.len()];
        let mut counts = vec![0u64; f.blocks.len()];
        let mut retired: u64 = 0;
        let mut block = f.entry();
        let return_value = loop {
            counts[block.index()] += 1;
            let b = &f.blocks[block.index()];
            for instr in &b.instrs {
                retired += 1;
                if retired > self.step_limit {
                    return Err(ProfileError::StepLimit {
                        limit: self.step_limit,
                    });
                }
                self.exec_instr(instr, &mut vars, &mut globals, &mut locals)?;
            }
            match &b.term {
                Terminator::Jump(t) => block = *t,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    block = if read(*cond, &vars) != 0 {
                        *then_bb
                    } else {
                        *else_bb
                    };
                }
                Terminator::Return(v) => break v.map(|v| read(v, &vars)),
            }
        };

        Ok(Execution {
            block_counts: counts,
            instrs_retired: retired,
            return_value,
            globals: super::globals(self.ir, globals),
        })
    }

    fn exec_instr(
        &self,
        instr: &Instr,
        vars: &mut [i64],
        globals: &mut [Vec<i64>],
        locals: &mut [Vec<i64>],
    ) -> Result<(), ProfileError> {
        match instr {
            Instr::Bin { op, dst, lhs, rhs } => {
                let a = read(*lhs, vars);
                let b = read(*rhs, vars);
                vars[dst.index()] = eval_bin(*op, a, b)?;
            }
            Instr::Un { op, dst, src } => {
                let v = read(*src, vars);
                vars[dst.index()] = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::BitNot => !v,
                    UnOp::LogicalNot => i64::from(v == 0),
                };
            }
            Instr::Copy { dst, src } => {
                vars[dst.index()] = read(*src, vars);
            }
            Instr::Load { dst, array, index } => {
                let i = read(*index, vars);
                let slice = array_slice(*array, globals, locals);
                match usize::try_from(i).ok().and_then(|idx| slice.get(idx)) {
                    Some(&v) => vars[dst.index()] = v,
                    None => return Err(self.out_of_bounds(*array, i, slice.len())),
                }
            }
            Instr::Store {
                array,
                index,
                value,
            } => {
                let i = read(*index, vars);
                let v = read(*value, vars);
                let slice = array_slice_mut(*array, globals, locals);
                let len = slice.len();
                match usize::try_from(i).ok().and_then(|idx| slice.get_mut(idx)) {
                    Some(cell) => *cell = v,
                    None => return Err(self.out_of_bounds(*array, i, len)),
                }
            }
        }
        Ok(())
    }

    fn out_of_bounds(&self, array: ArrayRef, index: i64, len: usize) -> ProfileError {
        let name = match array {
            ArrayRef::Global(g) => &self.ir.globals[g as usize].name,
            ArrayRef::Local(a) => &self.ir.entry.arrays[a as usize].name,
        };
        ProfileError::IndexOutOfBounds {
            array: name.clone(),
            index,
            len,
        }
    }
}

fn read(op: Operand, vars: &[i64]) -> i64 {
    match op {
        Operand::Var(v) => vars[v.index()],
        Operand::Const(c) => c,
    }
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Result<i64, ProfileError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(ProfileError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(ProfileError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if !(0..64).contains(&b) {
                return Err(ProfileError::ShiftOutOfRange { amount: b });
            }
            a.wrapping_shl(b as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&b) {
                return Err(ProfileError::ShiftOutOfRange { amount: b });
            }
            a.wrapping_shr(b as u32)
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
    })
}

fn array_slice<'a>(array: ArrayRef, globals: &'a [Vec<i64>], locals: &'a [Vec<i64>]) -> &'a [i64] {
    match array {
        ArrayRef::Global(g) => &globals[g as usize],
        ArrayRef::Local(a) => &locals[a as usize],
    }
}

fn array_slice_mut<'a>(
    array: ArrayRef,
    globals: &'a mut [Vec<i64>],
    locals: &'a mut [Vec<i64>],
) -> &'a mut [i64] {
    match array {
        ArrayRef::Global(g) => &mut globals[g as usize],
        ArrayRef::Local(a) => &mut locals[a as usize],
    }
}
