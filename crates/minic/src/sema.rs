//! Semantic analysis: name resolution, arity/shape checks, recursion
//! detection.
//!
//! Runs between parsing and lowering so the lowering pass can assume a
//! well-formed program. Mini-C restrictions enforced here (documented in
//! the crate docs): arrays live at file scope or function scope but are
//! not passable as parameters, functions are non-recursive (they are fully
//! inlined — the methodology partitions one flat CDFG), and every name
//! must resolve.

use crate::ast::{Expr, FunctionDef, LValue, Program, Stmt};
use crate::token::Span;
use crate::CompileError;
use amdrel_cdfg::hash::{FixedMap, FixedSet};

/// Check `program` for semantic errors.
///
/// `entry` is the function the flow will treat as the application root
/// (usually `main`); it must exist and take no parameters.
///
/// # Errors
///
/// The first semantic violation found, as a [`CompileError`] with the
/// offending source span.
pub fn check(program: &Program, entry: &str) -> Result<(), CompileError> {
    let mut checker = Checker::new(program);
    checker.check_program(entry)
}

struct Checker<'p> {
    program: &'p Program,
    functions: FixedMap<&'p str, &'p FunctionDef>,
    globals: FixedSet<&'p str>,
}

#[derive(Clone, Copy, PartialEq)]
enum NameKind {
    Scalar,
    Array,
}

struct Scopes<'p> {
    stack: Vec<FixedMap<&'p str, NameKind>>,
}

impl<'p> Scopes<'p> {
    fn new() -> Self {
        Scopes {
            stack: vec![FixedMap::default()],
        }
    }

    fn push(&mut self) {
        self.stack.push(FixedMap::default());
    }

    fn pop(&mut self) {
        self.stack.pop();
    }

    fn declare(&mut self, name: &'p str, kind: NameKind) -> bool {
        self.stack
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, kind)
            .is_none()
    }

    fn lookup(&self, name: &str) -> Option<NameKind> {
        self.stack.iter().rev().find_map(|s| s.get(name).copied())
    }
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Self {
        Checker {
            program,
            functions: FixedMap::default(),
            globals: FixedSet::default(),
        }
    }

    fn check_program(&mut self, entry: &str) -> Result<(), CompileError> {
        for g in &self.program.globals {
            if g.len == 0 {
                return Err(CompileError::new(
                    format!("global array '{}' has zero length", g.name),
                    g.span,
                ));
            }
            if !self.globals.insert(&g.name) {
                return Err(CompileError::new(
                    format!("duplicate global array '{}'", g.name),
                    g.span,
                ));
            }
        }
        for f in &self.program.functions {
            if self.functions.insert(&f.name, f).is_some() {
                return Err(CompileError::new(
                    format!("duplicate function '{}'", f.name),
                    f.span,
                ));
            }
            if self.globals.contains(f.name.as_str()) {
                return Err(CompileError::new(
                    format!("'{}' is both a global array and a function", f.name),
                    f.span,
                ));
            }
        }
        let Some(entry_fn) = self.functions.get(entry) else {
            return Err(CompileError::new(
                format!("entry function '{entry}' not found"),
                Span::default(),
            ));
        };
        if !entry_fn.params.is_empty() {
            return Err(CompileError::new(
                format!("entry function '{entry}' must take no parameters"),
                entry_fn.span,
            ));
        }

        for f in &self.program.functions {
            self.check_function(f)?;
        }
        self.check_recursion()?;
        Ok(())
    }

    fn check_function(&self, f: &'p FunctionDef) -> Result<(), CompileError> {
        let mut scopes = Scopes::new();
        for (_, p) in &f.params {
            if !scopes.declare(p, NameKind::Scalar) {
                return Err(CompileError::new(
                    format!("duplicate parameter '{p}' in function '{}'", f.name),
                    f.span,
                ));
            }
        }
        self.check_body(&f.body, &mut scopes, f, 0)
    }

    fn check_body(
        &self,
        body: &'p [Stmt],
        scopes: &mut Scopes<'p>,
        f: &'p FunctionDef,
        loop_depth: u32,
    ) -> Result<(), CompileError> {
        scopes.push();
        for stmt in body {
            self.check_stmt(stmt, scopes, f, loop_depth)?;
        }
        scopes.pop();
        Ok(())
    }

    fn check_stmt(
        &self,
        stmt: &'p Stmt,
        scopes: &mut Scopes<'p>,
        f: &'p FunctionDef,
        loop_depth: u32,
    ) -> Result<(), CompileError> {
        match stmt {
            Stmt::Decl {
                name, init, span, ..
            } => {
                if let Some(init) = init {
                    self.check_expr(init, scopes)?;
                }
                if !scopes.declare(name, NameKind::Scalar) {
                    return Err(CompileError::new(
                        format!("duplicate declaration of '{name}' in the same scope"),
                        *span,
                    ));
                }
                Ok(())
            }
            Stmt::ArrayDecl {
                name, len, span, ..
            } => {
                if *len == 0 {
                    return Err(CompileError::new(
                        format!("array '{name}' has zero length"),
                        *span,
                    ));
                }
                if !scopes.declare(name, NameKind::Array) {
                    return Err(CompileError::new(
                        format!("duplicate declaration of '{name}' in the same scope"),
                        *span,
                    ));
                }
                Ok(())
            }
            Stmt::Assign { target, value, .. } => {
                self.check_lvalue(target, scopes)?;
                self.check_expr(value, scopes)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.check_expr(cond, scopes)?;
                self.check_body(then_branch, scopes, f, loop_depth)?;
                self.check_body(else_branch, scopes, f, loop_depth)
            }
            Stmt::While { cond, body, .. } => {
                self.check_expr(cond, scopes)?;
                self.check_body(body, scopes, f, loop_depth + 1)
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.check_body(body, scopes, f, loop_depth + 1)?;
                self.check_expr(cond, scopes)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                // The for header introduces its own scope (C99 semantics).
                scopes.push();
                if let Some(init) = init {
                    self.check_stmt(init, scopes, f, loop_depth)?;
                }
                if let Some(cond) = cond {
                    self.check_expr(cond, scopes)?;
                }
                if let Some(step) = step {
                    self.check_stmt(step, scopes, f, loop_depth + 1)?;
                }
                let r = self.check_body(body, scopes, f, loop_depth + 1);
                scopes.pop();
                r
            }
            Stmt::Return { value, span } => match (value, f.return_width) {
                (Some(_), None) => Err(CompileError::new(
                    format!("void function '{}' returns a value", f.name),
                    *span,
                )),
                (None, Some(_)) => Err(CompileError::new(
                    format!("non-void function '{}' returns without a value", f.name),
                    *span,
                )),
                (Some(v), Some(_)) => self.check_expr(v, scopes),
                (None, None) => Ok(()),
            },
            Stmt::Break { span } | Stmt::Continue { span } => {
                if loop_depth == 0 {
                    Err(CompileError::new("break/continue outside of a loop", *span))
                } else {
                    Ok(())
                }
            }
            Stmt::ExprStmt { expr, .. } => self.check_expr(expr, scopes),
            Stmt::Block { body, .. } => self.check_body(body, scopes, f, loop_depth),
        }
    }

    fn check_lvalue(&self, lv: &'p LValue, scopes: &Scopes<'p>) -> Result<(), CompileError> {
        match lv {
            LValue::Var { name, span } => match self.resolve(name, scopes) {
                Some(NameKind::Scalar) => Ok(()),
                Some(NameKind::Array) => Err(CompileError::new(
                    format!("cannot assign to array '{name}' without an index"),
                    *span,
                )),
                None => Err(CompileError::new(
                    format!("undeclared variable '{name}'"),
                    *span,
                )),
            },
            LValue::Index { name, index, span } => match self.resolve(name, scopes) {
                Some(NameKind::Array) => self.check_expr(index, scopes),
                Some(NameKind::Scalar) => Err(CompileError::new(
                    format!("'{name}' is a scalar, not an array"),
                    *span,
                )),
                None => Err(CompileError::new(
                    format!("undeclared array '{name}'"),
                    *span,
                )),
            },
        }
    }

    fn resolve(&self, name: &str, scopes: &Scopes<'p>) -> Option<NameKind> {
        scopes
            .lookup(name)
            .or_else(|| self.globals.contains(name).then_some(NameKind::Array))
    }

    fn check_expr(&self, expr: &'p Expr, scopes: &Scopes<'p>) -> Result<(), CompileError> {
        match expr {
            Expr::IntLit { .. } => Ok(()),
            Expr::Var { name, span } => match self.resolve(name, scopes) {
                Some(NameKind::Scalar) => Ok(()),
                Some(NameKind::Array) => Err(CompileError::new(
                    format!("array '{name}' used as a scalar value"),
                    *span,
                )),
                None => Err(CompileError::new(
                    format!("undeclared variable '{name}'"),
                    *span,
                )),
            },
            Expr::Index { name, index, span } => match self.resolve(name, scopes) {
                Some(NameKind::Array) => self.check_expr(index, scopes),
                Some(NameKind::Scalar) => Err(CompileError::new(
                    format!("'{name}' is a scalar, not an array"),
                    *span,
                )),
                None => Err(CompileError::new(
                    format!("undeclared array '{name}'"),
                    *span,
                )),
            },
            Expr::Binary { lhs, rhs, .. } | Expr::Logical { lhs, rhs, .. } => {
                self.check_expr(lhs, scopes)?;
                self.check_expr(rhs, scopes)
            }
            Expr::Unary { operand, .. } => self.check_expr(operand, scopes),
            Expr::Ternary {
                cond,
                then_val,
                else_val,
                ..
            } => {
                self.check_expr(cond, scopes)?;
                self.check_expr(then_val, scopes)?;
                self.check_expr(else_val, scopes)
            }
            Expr::Call { callee, args, span } => {
                let Some(def) = self.functions.get(callee.as_str()) else {
                    return Err(CompileError::new(
                        format!("call to undeclared function '{callee}'"),
                        *span,
                    ));
                };
                if def.params.len() != args.len() {
                    return Err(CompileError::new(
                        format!(
                            "function '{callee}' takes {} arguments, {} given",
                            def.params.len(),
                            args.len()
                        ),
                        *span,
                    ));
                }
                for a in args {
                    self.check_expr(a, scopes)?;
                }
                Ok(())
            }
        }
    }

    /// Reject direct or mutual recursion — all calls are inlined.
    fn check_recursion(&self) -> Result<(), CompileError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        let names: Vec<&str> = self
            .program
            .functions
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        let index: FixedMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut marks = vec![Mark::White; names.len()];

        fn calls_of(body: &[Stmt], out: &mut Vec<(String, Span)>) {
            fn expr(e: &Expr, out: &mut Vec<(String, Span)>) {
                match e {
                    Expr::Call { callee, args, span } => {
                        out.push((callee.clone(), *span));
                        for a in args {
                            expr(a, out);
                        }
                    }
                    Expr::Binary { lhs, rhs, .. } | Expr::Logical { lhs, rhs, .. } => {
                        expr(lhs, out);
                        expr(rhs, out);
                    }
                    Expr::Unary { operand, .. } => expr(operand, out),
                    Expr::Ternary {
                        cond,
                        then_val,
                        else_val,
                        ..
                    } => {
                        expr(cond, out);
                        expr(then_val, out);
                        expr(else_val, out);
                    }
                    Expr::Index { index, .. } => expr(index, out),
                    Expr::IntLit { .. } | Expr::Var { .. } => {}
                }
            }
            for s in body {
                match s {
                    Stmt::Decl { init: Some(e), .. } => expr(e, out),
                    Stmt::Decl { .. } | Stmt::ArrayDecl { .. } => {}
                    Stmt::Assign { target, value, .. } => {
                        if let LValue::Index { index, .. } = target {
                            expr(index, out);
                        }
                        expr(value, out);
                    }
                    Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        expr(cond, out);
                        calls_of(then_branch, out);
                        calls_of(else_branch, out);
                    }
                    Stmt::While { cond, body, .. } => {
                        expr(cond, out);
                        calls_of(body, out);
                    }
                    Stmt::DoWhile { body, cond, .. } => {
                        calls_of(body, out);
                        expr(cond, out);
                    }
                    Stmt::For {
                        init,
                        cond,
                        step,
                        body,
                        ..
                    } => {
                        if let Some(i) = init {
                            calls_of(std::slice::from_ref(i), out);
                        }
                        if let Some(c) = cond {
                            expr(c, out);
                        }
                        if let Some(st) = step {
                            calls_of(std::slice::from_ref(st), out);
                        }
                        calls_of(body, out);
                    }
                    Stmt::Return { value: Some(e), .. } => expr(e, out),
                    Stmt::Return { .. } | Stmt::Break { .. } | Stmt::Continue { .. } => {}
                    Stmt::ExprStmt { expr: e, .. } => expr(e, out),
                    Stmt::Block { body, .. } => calls_of(body, out),
                }
            }
        }

        fn visit(
            i: usize,
            program: &Program,
            index: &FixedMap<&str, usize>,
            marks: &mut [Mark],
        ) -> Result<(), CompileError> {
            marks[i] = Mark::Gray;
            let mut calls = Vec::new();
            calls_of(&program.functions[i].body, &mut calls);
            for (callee, span) in calls {
                if let Some(&j) = index.get(callee.as_str()) {
                    match marks[j] {
                        Mark::Gray => {
                            return Err(CompileError::new(
                                format!(
                                    "recursion involving '{}' is not supported (all calls are inlined)",
                                    callee
                                ),
                                span,
                            ));
                        }
                        Mark::White => visit(j, program, index, marks)?,
                        Mark::Black => {}
                    }
                }
            }
            marks[i] = Mark::Black;
            Ok(())
        }

        for i in 0..names.len() {
            if marks[i] == Mark::White {
                visit(i, self.program, &index, &mut marks)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<(), CompileError> {
        check(&parse(&lex(src).unwrap()).unwrap(), "main")
    }

    #[test]
    fn valid_program_passes() {
        check_src(
            "int buf[8];\nint helper(int x) { return x * 2; }\nint main() { int s = 0; for (int i = 0; i < 8; i++) { buf[i] = helper(i); s += buf[i]; } return s; }",
        )
        .unwrap();
    }

    #[test]
    fn undeclared_variable() {
        let e = check_src("int main() { return q; }").unwrap_err();
        assert!(e.to_string().contains("undeclared variable 'q'"));
    }

    #[test]
    fn undeclared_function() {
        let e = check_src("int main() { return f(1); }").unwrap_err();
        assert!(e.to_string().contains("undeclared function 'f'"));
    }

    #[test]
    fn arity_mismatch() {
        let e = check_src("int f(int a) { return a; } int main() { return f(1, 2); }").unwrap_err();
        assert!(e.to_string().contains("takes 1 arguments, 2 given"));
    }

    #[test]
    fn array_used_as_scalar() {
        let e = check_src("int a[4]; int main() { return a; }").unwrap_err();
        assert!(e.to_string().contains("used as a scalar"));
    }

    #[test]
    fn scalar_indexed_as_array() {
        let e = check_src("int main() { int x = 0; return x[1]; }").unwrap_err();
        assert!(e.to_string().contains("not an array"));
    }

    #[test]
    fn missing_entry() {
        let e = check_src("int f() { return 0; }").unwrap_err();
        assert!(e.to_string().contains("entry function 'main' not found"));
    }

    #[test]
    fn entry_with_params_rejected() {
        let e = check_src("int main(int argc) { return argc; }").unwrap_err();
        assert!(e.to_string().contains("must take no parameters"));
    }

    #[test]
    fn direct_recursion_rejected() {
        let e =
            check_src("int main() { return 0; } int f(int n) { return f(n - 1); }").unwrap_err();
        assert!(e.to_string().contains("recursion"));
    }

    #[test]
    fn mutual_recursion_rejected() {
        let e = check_src(
            "int main() { return 0; } int f(int n) { return g(n); } int g(int n) { return f(n); }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("recursion"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = check_src("int main() { break; return 0; }").unwrap_err();
        assert!(e.to_string().contains("outside of a loop"));
    }

    #[test]
    fn continue_in_for_step_scope_allowed() {
        check_src("int main() { for (int i = 0; i < 4; i++) { continue; } return 0; }").unwrap();
    }

    #[test]
    fn void_return_with_value_rejected() {
        let e = check_src("void f() { return 1; } int main() { return 0; }").unwrap_err();
        assert!(e.to_string().contains("void function"));
    }

    #[test]
    fn nonvoid_bare_return_rejected() {
        let e = check_src("int f() { return; } int main() { return 0; }").unwrap_err();
        assert!(e.to_string().contains("without a value"));
    }

    #[test]
    fn duplicate_declaration_same_scope() {
        let e = check_src("int main() { int x = 1; int x = 2; return x; }").unwrap_err();
        assert!(e.to_string().contains("duplicate declaration"));
    }

    #[test]
    fn shadowing_in_inner_scope_allowed() {
        check_src("int main() { int x = 1; { int x = 2; x = 3; } return x; }").unwrap();
    }

    #[test]
    fn duplicate_global_rejected() {
        let e = check_src("int a[2]; int a[3]; int main() { return 0; }").unwrap_err();
        assert!(e.to_string().contains("duplicate global"));
    }

    #[test]
    fn zero_length_array_rejected() {
        let e = check_src("int main() { int a[0]; return 0; }").unwrap_err();
        assert!(e.to_string().contains("zero length"));
    }
}
