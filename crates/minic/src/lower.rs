//! AST → three-address-code lowering with explicit CFG construction.
//!
//! Short-circuit `&&`/`||` and `?:` expand into control flow (new basic
//! blocks), compound assignments were already desugared by the parser, and
//! expressions are flattened into temporaries with local constant folding.
//! Calls survive lowering as an internal high-level instruction; the
//! [`crate::inline`] pass eliminates them before the IR is published.

use crate::ast::{self, BinOp, Expr, IntWidth, LValue, Stmt, UnOp};
use crate::ir::{
    ArrayRef, BlockIdx, GlobalArray, Instr, LocalArray, Operand, Terminator, VarId, VarInfo,
};
use crate::CompileError;
use std::collections::HashMap;

/// Internal instruction: real IR or a not-yet-inlined call.
#[derive(Debug, Clone)]
pub(crate) enum HInstr {
    Real(Instr),
    Call {
        dst: Option<VarId>,
        callee: String,
        args: Vec<Operand>,
    },
}

/// Internal terminator mirror of [`Terminator`].
pub(crate) type HTerminator = Terminator;

/// Internal block.
#[derive(Debug, Clone)]
pub(crate) struct HBlock {
    pub label: String,
    pub instrs: Vec<HInstr>,
    pub term: HTerminator,
}

/// Internal function with possibly-remaining calls.
#[derive(Debug, Clone)]
pub(crate) struct HFunction {
    pub name: String,
    pub params: Vec<VarId>,
    pub vars: Vec<VarInfo>,
    pub arrays: Vec<LocalArray>,
    pub blocks: Vec<HBlock>,
    #[allow(dead_code)] // kept for symmetry with the AST; useful to dumps
    pub return_width: Option<IntWidth>,
}

/// Lower every function of `program` independently.
///
/// Also returns the shared global-array table (indices referenced by
/// [`ArrayRef::Global`]).
pub(crate) fn lower_functions(
    program: &ast::Program,
) -> Result<(Vec<GlobalArray>, Vec<HFunction>), CompileError> {
    let globals: Vec<GlobalArray> = program
        .globals
        .iter()
        .map(|g| GlobalArray {
            name: g.name.clone(),
            len: g.len,
            bits: g.width.bits(),
            init: g.init.clone(),
        })
        .collect();
    let global_index: HashMap<&str, u32> = program
        .globals
        .iter()
        .enumerate()
        .map(|(i, g)| (g.name.as_str(), i as u32))
        .collect();

    let mut functions = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        functions.push(FnLowerer::new(f, &global_index).run()?);
    }
    Ok((globals, functions))
}

enum Binding {
    Scalar(VarId),
    Array(u32),
}

struct FnLowerer<'p> {
    def: &'p ast::FunctionDef,
    global_index: &'p HashMap<&'p str, u32>,
    vars: Vec<VarInfo>,
    arrays: Vec<LocalArray>,
    scopes: Vec<HashMap<String, Binding>>,
    blocks: Vec<HBlock>,
    current: BlockIdx,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockIdx, BlockIdx)>,
    temp_counter: u32,
}

impl<'p> FnLowerer<'p> {
    fn new(def: &'p ast::FunctionDef, global_index: &'p HashMap<&'p str, u32>) -> Self {
        FnLowerer {
            def,
            global_index,
            vars: Vec::new(),
            arrays: Vec::new(),
            scopes: vec![HashMap::new()],
            blocks: Vec::new(),
            current: BlockIdx(0),
            loop_stack: Vec::new(),
            temp_counter: 0,
        }
    }

    fn run(mut self) -> Result<HFunction, CompileError> {
        let entry = self.new_block(format!("{}.entry", self.def.name));
        self.current = entry;
        let mut params = Vec::with_capacity(self.def.params.len());
        for (w, name) in &self.def.params {
            let v = self.new_var(name.clone(), w.bits(), false);
            self.declare(name.clone(), Binding::Scalar(v));
            params.push(v);
        }
        self.lower_body(&self.def.body)?;
        // Fall-off-the-end: synthesize `return` / `return 0`.
        let fallthrough = match self.def.return_width {
            Some(_) => Terminator::Return(Some(Operand::Const(0))),
            None => Terminator::Return(None),
        };
        self.seal_current(fallthrough);
        Ok(HFunction {
            name: self.def.name.clone(),
            params,
            vars: self.vars,
            arrays: self.arrays,
            blocks: self.blocks,
            return_width: self.def.return_width,
        })
    }

    // ---- plumbing -------------------------------------------------------

    fn new_block(&mut self, label: impl Into<String>) -> BlockIdx {
        let idx = BlockIdx(self.blocks.len() as u32);
        self.blocks.push(HBlock {
            label: label.into(),
            instrs: Vec::new(),
            // Placeholder; overwritten when the block is sealed.
            term: Terminator::Return(None),
        });
        idx
    }

    fn new_var(&mut self, name: String, bits: u16, is_temp: bool) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name,
            bits,
            is_temp,
        });
        id
    }

    fn new_temp(&mut self, bits: u16) -> VarId {
        let n = self.temp_counter;
        self.temp_counter += 1;
        self.new_var(format!("%t{n}"), bits, true)
    }

    fn declare(&mut self, name: String, binding: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, binding);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn array_ref(&self, name: &str, span: crate::token::Span) -> Result<ArrayRef, CompileError> {
        match self.lookup(name) {
            Some(Binding::Array(i)) => Ok(ArrayRef::Local(*i)),
            Some(Binding::Scalar(_)) => Err(CompileError::new(
                format!("'{name}' is a scalar, not an array"),
                span,
            )),
            None => match self.global_index.get(name) {
                Some(&g) => Ok(ArrayRef::Global(g)),
                None => Err(CompileError::new(
                    format!("undeclared array '{name}'"),
                    span,
                )),
            },
        }
    }

    fn emit(&mut self, instr: HInstr) {
        self.blocks[self.current.index()].instrs.push(instr);
    }

    fn seal_current(&mut self, term: HTerminator) {
        self.blocks[self.current.index()].term = term;
    }

    fn var_bits(&self, op: Operand) -> u16 {
        match op {
            Operand::Var(v) => self.vars[v.index()].bits,
            Operand::Const(_) => 32,
        }
    }

    // ---- statements -----------------------------------------------------

    fn lower_body(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        for stmt in body {
            self.lower_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Decl {
                width, name, init, ..
            } => {
                let v = self.new_var(name.clone(), width.bits(), false);
                if let Some(init) = init {
                    self.lower_expr_into(init, v)?;
                }
                self.declare(name.clone(), Binding::Scalar(v));
                Ok(())
            }
            Stmt::ArrayDecl {
                width, name, len, ..
            } => {
                let idx = self.arrays.len() as u32;
                self.arrays.push(LocalArray {
                    name: name.clone(),
                    len: *len,
                    bits: width.bits(),
                });
                self.declare(name.clone(), Binding::Array(idx));
                Ok(())
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var { name, span } => {
                        let dst = match self.lookup(name) {
                            Some(Binding::Scalar(v)) => *v,
                            _ => {
                                return Err(CompileError::new(
                                    format!("undeclared variable '{name}'"),
                                    *span,
                                ))
                            }
                        };
                        self.lower_expr_into(value, dst)?;
                    }
                    LValue::Index { name, index, span } => {
                        let array = self.array_ref(name, *span)?;
                        let index = self.lower_expr(index)?;
                        let value = self.lower_expr(value)?;
                        self.emit(HInstr::Real(Instr::Store {
                            array,
                            index,
                            value,
                        }));
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let cond_op = self.lower_expr(cond)?;
                let then_bb = self.new_block("if.then");
                let join_bb = self.new_block("if.join");
                let else_bb = if else_branch.is_empty() {
                    join_bb
                } else {
                    self.new_block("if.else")
                };
                self.seal_current(Terminator::Branch {
                    cond: cond_op,
                    then_bb,
                    else_bb,
                });
                self.current = then_bb;
                self.lower_body(then_branch)?;
                self.seal_current(Terminator::Jump(join_bb));
                if !else_branch.is_empty() {
                    self.current = else_bb;
                    self.lower_body(else_branch)?;
                    self.seal_current(Terminator::Jump(join_bb));
                }
                self.current = join_bb;
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let cond_bb = self.new_block("while.cond");
                let body_bb = self.new_block("while.body");
                let exit_bb = self.new_block("while.exit");
                self.seal_current(Terminator::Jump(cond_bb));
                self.current = cond_bb;
                let cond_op = self.lower_expr(cond)?;
                self.seal_current(Terminator::Branch {
                    cond: cond_op,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.current = body_bb;
                self.loop_stack.push((cond_bb, exit_bb));
                self.lower_body(body)?;
                self.loop_stack.pop();
                self.seal_current(Terminator::Jump(cond_bb));
                self.current = exit_bb;
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_bb = self.new_block("do.body");
                let cond_bb = self.new_block("do.cond");
                let exit_bb = self.new_block("do.exit");
                self.seal_current(Terminator::Jump(body_bb));
                self.current = body_bb;
                self.loop_stack.push((cond_bb, exit_bb));
                self.lower_body(body)?;
                self.loop_stack.pop();
                self.seal_current(Terminator::Jump(cond_bb));
                self.current = cond_bb;
                let cond_op = self.lower_expr(cond)?;
                self.seal_current(Terminator::Branch {
                    cond: cond_op,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.current = exit_bb;
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(HashMap::new()); // for-header scope
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let cond_bb = self.new_block("for.cond");
                let body_bb = self.new_block("for.body");
                let step_bb = self.new_block("for.step");
                let exit_bb = self.new_block("for.exit");
                self.seal_current(Terminator::Jump(cond_bb));
                self.current = cond_bb;
                let cond_op = match cond {
                    Some(c) => self.lower_expr(c)?,
                    None => Operand::Const(1),
                };
                self.seal_current(Terminator::Branch {
                    cond: cond_op,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.current = body_bb;
                self.loop_stack.push((step_bb, exit_bb));
                self.lower_body(body)?;
                self.loop_stack.pop();
                self.seal_current(Terminator::Jump(step_bb));
                self.current = step_bb;
                if let Some(step) = step {
                    self.lower_stmt(step)?;
                }
                self.seal_current(Terminator::Jump(cond_bb));
                self.scopes.pop();
                self.current = exit_bb;
                Ok(())
            }
            Stmt::Return { value, .. } => {
                let op = match value {
                    Some(v) => Some(self.lower_expr(v)?),
                    None => None,
                };
                self.seal_current(Terminator::Return(op));
                // Statements after a return are unreachable; give them a
                // fresh block so lowering stays well-formed (the CFG
                // simplifier drops it).
                let dead = self.new_block("unreachable");
                self.current = dead;
                Ok(())
            }
            Stmt::Break { span } => {
                let Some(&(_, exit_bb)) = self.loop_stack.last() else {
                    return Err(CompileError::new("break outside of a loop", *span));
                };
                self.seal_current(Terminator::Jump(exit_bb));
                let dead = self.new_block("unreachable");
                self.current = dead;
                Ok(())
            }
            Stmt::Continue { span } => {
                let Some(&(cont_bb, _)) = self.loop_stack.last() else {
                    return Err(CompileError::new("continue outside of a loop", *span));
                };
                self.seal_current(Terminator::Jump(cont_bb));
                let dead = self.new_block("unreachable");
                self.current = dead;
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                if let Expr::Call { callee, args, .. } = expr {
                    let args = args
                        .iter()
                        .map(|a| self.lower_expr(a))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.emit(HInstr::Call {
                        dst: None,
                        callee: callee.clone(),
                        args,
                    });
                    Ok(())
                } else {
                    // Parser already restricts this; evaluate defensively.
                    self.lower_expr(expr)?;
                    Ok(())
                }
            }
            Stmt::Block { body, .. } => self.lower_body(body),
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Lower `expr` writing its result directly into `dst` where the
    /// expression shape allows it (binary/unary/load/call), avoiding a
    /// temp + copy pair. Keeps DFG node labels attached to the source
    /// variable the programmer wrote.
    fn lower_expr_into(&mut self, expr: &Expr, dst: VarId) -> Result<(), CompileError> {
        match expr {
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                if let (Operand::Const(a), Operand::Const(b)) = (l, r) {
                    if let Some(v) = fold(*op, a, b) {
                        self.emit(HInstr::Real(Instr::Copy {
                            dst,
                            src: Operand::Const(v),
                        }));
                        return Ok(());
                    }
                }
                self.emit(HInstr::Real(Instr::Bin {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                }));
                Ok(())
            }
            Expr::Unary {
                op: UnOp::Neg | UnOp::BitNot,
                operand,
                ..
            } => {
                let src = self.lower_expr(operand)?;
                if let Operand::Const(_) = src {
                    let folded = self.lower_expr(expr)?;
                    self.emit(HInstr::Real(Instr::Copy { dst, src: folded }));
                    return Ok(());
                }
                let Expr::Unary { op, .. } = expr else {
                    unreachable!()
                };
                self.emit(HInstr::Real(Instr::Un { op: *op, dst, src }));
                Ok(())
            }
            Expr::Index { name, index, span } => {
                let array = self.array_ref(name, *span)?;
                let index = self.lower_expr(index)?;
                self.emit(HInstr::Real(Instr::Load { dst, array, index }));
                Ok(())
            }
            Expr::Call { callee, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                self.emit(HInstr::Call {
                    dst: Some(dst),
                    callee: callee.clone(),
                    args,
                });
                Ok(())
            }
            _ => {
                let src = self.lower_expr(expr)?;
                self.emit(HInstr::Real(Instr::Copy { dst, src }));
                Ok(())
            }
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<Operand, CompileError> {
        match expr {
            Expr::IntLit { value, .. } => Ok(Operand::Const(*value)),
            Expr::Var { name, span } => match self.lookup(name) {
                Some(Binding::Scalar(v)) => Ok(Operand::Var(*v)),
                _ => Err(CompileError::new(
                    format!("undeclared variable '{name}'"),
                    *span,
                )),
            },
            Expr::Index { name, index, span } => {
                let array = self.array_ref(name, *span)?;
                let index = self.lower_expr(index)?;
                let bits = match array {
                    ArrayRef::Local(i) => self.arrays[i as usize].bits,
                    ArrayRef::Global(_) => 32,
                };
                let dst = self.new_temp(bits);
                self.emit(HInstr::Real(Instr::Load { dst, array, index }));
                Ok(Operand::Var(dst))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                // Local constant folding keeps the DFGs honest about real
                // hardware work (SUIF folds too).
                if let (Operand::Const(a), Operand::Const(b)) = (l, r) {
                    if let Some(v) = fold(*op, a, b) {
                        return Ok(Operand::Const(v));
                    }
                }
                let bits = if op.is_comparison() {
                    1
                } else {
                    self.var_bits(l).max(self.var_bits(r))
                };
                let dst = self.new_temp(bits);
                self.emit(HInstr::Real(Instr::Bin {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                }));
                Ok(Operand::Var(dst))
            }
            Expr::Unary { op, operand, .. } => {
                let src = self.lower_expr(operand)?;
                if let Operand::Const(c) = src {
                    let v = match op {
                        UnOp::Neg => c.wrapping_neg(),
                        UnOp::BitNot => !c,
                        UnOp::LogicalNot => i64::from(c == 0),
                    };
                    return Ok(Operand::Const(v));
                }
                match op {
                    UnOp::LogicalNot => {
                        let dst = self.new_temp(1);
                        self.emit(HInstr::Real(Instr::Bin {
                            op: BinOp::Eq,
                            dst,
                            lhs: src,
                            rhs: Operand::Const(0),
                        }));
                        Ok(Operand::Var(dst))
                    }
                    UnOp::Neg | UnOp::BitNot => {
                        let dst = self.new_temp(self.var_bits(src));
                        self.emit(HInstr::Real(Instr::Un { op: *op, dst, src }));
                        Ok(Operand::Var(dst))
                    }
                }
            }
            Expr::Logical {
                is_and, lhs, rhs, ..
            } => {
                // Short-circuit lowering with a result temp.
                let result = self.new_temp(1);
                let l = self.lower_expr(lhs)?;
                let rhs_bb = self.new_block(if *is_and { "and.rhs" } else { "or.rhs" });
                let short_bb = self.new_block(if *is_and { "and.short" } else { "or.short" });
                let join_bb = self.new_block(if *is_and { "and.join" } else { "or.join" });
                let (then_bb, else_bb) = if *is_and {
                    (rhs_bb, short_bb)
                } else {
                    (short_bb, rhs_bb)
                };
                self.seal_current(Terminator::Branch {
                    cond: l,
                    then_bb,
                    else_bb,
                });
                self.current = rhs_bb;
                let r = self.lower_expr(rhs)?;
                self.emit(HInstr::Real(Instr::Bin {
                    op: BinOp::Ne,
                    dst: result,
                    lhs: r,
                    rhs: Operand::Const(0),
                }));
                self.seal_current(Terminator::Jump(join_bb));
                self.current = short_bb;
                self.emit(HInstr::Real(Instr::Copy {
                    dst: result,
                    src: Operand::Const(i64::from(!*is_and)),
                }));
                self.seal_current(Terminator::Jump(join_bb));
                self.current = join_bb;
                Ok(Operand::Var(result))
            }
            Expr::Ternary {
                cond,
                then_val,
                else_val,
                ..
            } => {
                let result = self.new_temp(32);
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block("sel.then");
                let else_bb = self.new_block("sel.else");
                let join_bb = self.new_block("sel.join");
                self.seal_current(Terminator::Branch {
                    cond: c,
                    then_bb,
                    else_bb,
                });
                self.current = then_bb;
                let t = self.lower_expr(then_val)?;
                self.emit(HInstr::Real(Instr::Copy {
                    dst: result,
                    src: t,
                }));
                self.seal_current(Terminator::Jump(join_bb));
                self.current = else_bb;
                let e = self.lower_expr(else_val)?;
                self.emit(HInstr::Real(Instr::Copy {
                    dst: result,
                    src: e,
                }));
                self.seal_current(Terminator::Jump(join_bb));
                self.current = join_bb;
                Ok(Operand::Var(result))
            }
            Expr::Call { callee, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let dst = self.new_temp(32);
                self.emit(HInstr::Call {
                    dst: Some(dst),
                    callee: callee.clone(),
                    args,
                });
                Ok(Operand::Var(dst))
            }
        }
    }
}

/// Constant folding for binary operators. Returns `None` where folding is
/// unsafe (division by zero, out-of-range shift) so the fault surfaces at
/// interpretation time like it would on hardware.
fn fold(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if !(0..64).contains(&b) {
                return None;
            }
            a.wrapping_shl(b as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&b) {
                return None;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn lower_src(src: &str) -> (Vec<GlobalArray>, Vec<HFunction>) {
        let ast = parse(&lex(src).unwrap()).unwrap();
        crate::sema::check(&ast, "main").unwrap();
        lower_functions(&ast).unwrap()
    }

    #[test]
    fn straight_line_lowering() {
        let (_, fns) = lower_src("int main() { int x = 3; int y = x * 4; return y + 1; }");
        let f = &fns[0];
        // Entry block plus the dead block lowering opens after `return`
        // (the CFG simplifier removes it later in the pipeline).
        assert_eq!(f.blocks.len(), 2);
        // x=3 copy, y = x*4 bin, t = y+1 bin → 3 instructions.
        assert_eq!(f.blocks[0].instrs.len(), 3);
        assert!(matches!(f.blocks[0].term, Terminator::Return(Some(_))));
    }

    #[test]
    fn constant_folding() {
        let (_, fns) = lower_src("int main() { return 2 + 3 * 4; }");
        let f = &fns[0];
        assert!(f.blocks[0].instrs.is_empty(), "should fold to constant");
        assert!(matches!(
            f.blocks[0].term,
            Terminator::Return(Some(Operand::Const(14)))
        ));
    }

    #[test]
    fn division_by_zero_not_folded() {
        let (_, fns) = lower_src("int main() { return 1 / 0; }");
        assert_eq!(fns[0].blocks[0].instrs.len(), 1);
    }

    #[test]
    fn while_produces_loop_shape() {
        let (_, fns) =
            lower_src("int main() { int i = 0; while (i < 4) { i = i + 1; } return i; }");
        let f = &fns[0];
        // entry, cond, body, exit + the dead block after the final return.
        assert_eq!(f.blocks.len(), 5);
        // body jumps back to cond
        let body = f
            .blocks
            .iter()
            .position(|b| b.label == "while.body")
            .unwrap();
        let cond = f
            .blocks
            .iter()
            .position(|b| b.label == "while.cond")
            .unwrap();
        assert!(matches!(
            f.blocks[body].term,
            Terminator::Jump(t) if t.index() == cond
        ));
    }

    #[test]
    fn for_loop_shape_with_step_block() {
        let (_, fns) = lower_src(
            "int main() { int s = 0; for (int i = 0; i < 8; i++) { s += i; } return s; }",
        );
        let labels: Vec<&str> = fns[0].blocks.iter().map(|b| b.label.as_str()).collect();
        for l in ["for.cond", "for.body", "for.step", "for.exit"] {
            assert!(labels.contains(&l), "missing {l} in {labels:?}");
        }
    }

    #[test]
    fn logical_and_short_circuits() {
        let (_, fns) = lower_src("int main() { int a = 1; int b = 2; return a && b; }");
        let labels: Vec<&str> = fns[0].blocks.iter().map(|b| b.label.as_str()).collect();
        assert!(labels.contains(&"and.rhs"));
        assert!(labels.contains(&"and.short"));
        assert!(labels.contains(&"and.join"));
    }

    #[test]
    fn ternary_lowers_to_diamond() {
        let (_, fns) = lower_src("int main() { int a = 1; return a ? 10 : 20; }");
        let labels: Vec<&str> = fns[0].blocks.iter().map(|b| b.label.as_str()).collect();
        assert!(labels.contains(&"sel.then") && labels.contains(&"sel.else"));
    }

    #[test]
    fn array_load_store() {
        let (globals, fns) = lower_src("int a[4]; int main() { a[0] = 7; return a[0]; }");
        assert_eq!(globals[0].name, "a");
        let instrs = &fns[0].blocks[0].instrs;
        assert!(matches!(instrs[0], HInstr::Real(Instr::Store { .. })));
        assert!(matches!(instrs[1], HInstr::Real(Instr::Load { .. })));
    }

    /// Lowering keeps only the explicit values; the interpreter zeroes
    /// the rest when it allocates the array.
    #[test]
    fn global_initialiser_zero_padded() {
        let (globals, _) = lower_src("int a[5] = {1, 2}; int main() { return a[4]; }");
        assert_eq!(globals[0].init, vec![1, 2]);
        assert_eq!(globals[0].len, 5);
    }

    #[test]
    fn call_survives_lowering_for_inline_pass() {
        let (_, fns) = lower_src("int f(int x) { return x + 1; } int main() { return f(41); }");
        let main = fns.iter().find(|f| f.name == "main").unwrap();
        assert!(main.blocks[0]
            .instrs
            .iter()
            .any(|i| matches!(i, HInstr::Call { .. })));
    }

    #[test]
    fn break_and_continue_targets() {
        let (_, fns) = lower_src(
            "int main() { int i = 0; while (1) { i++; if (i > 3) { break; } continue; } return i; }",
        );
        // Just verify lowering succeeds and produces a return-terminated CFG.
        let f = &fns[0];
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Return(_))));
    }

    #[test]
    fn comparison_temp_is_one_bit() {
        // Nested comparison forces a temp (direct-dst lowering would give
        // the declared variable's width instead).
        let (_, fns) = lower_src("int main() { int a = 1; int b = 2; return (a < b) * 5; }");
        let f = &fns[0];
        let cmp_dst = f.blocks[0]
            .instrs
            .iter()
            .find_map(|i| match i {
                HInstr::Real(Instr::Bin {
                    op: BinOp::Lt, dst, ..
                }) => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert_eq!(f.vars[cmp_dst.index()].bits, 1);
    }
}
