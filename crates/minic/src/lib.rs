//! # amdrel-minic — a C-subset frontend for the AMDREL partitioning flow
//!
//! The paper builds its prototype on SUIF2/MachineSUIF with custom passes
//! for CDFG creation, and on Lex for source-level analysis. This crate is
//! that substrate, rebuilt from scratch: a lexer, recursive-descent parser,
//! three-address lowering that also resolves names and rejects
//! ill-formed programs, full function inlining, CFG simplification,
//! liveness analysis, and conversion to the [`amdrel_cdfg`] CDFG the rest
//! of the flow consumes.
//!
//! ## The mini-C language
//!
//! A deliberately small C subset that covers integer DSP/multimedia kernels
//! (exactly the workload class the paper targets):
//!
//! * types: `char`/`short`/`int`/`long` scalars (8/16/32/64-bit width
//!   hints; evaluation is 64-bit two's complement) and 1-D arrays;
//! * global arrays with initialiser lists, local arrays without;
//! * functions with scalar parameters and scalar/`void` returns —
//!   **no recursion** (everything is inlined into one flat CDFG);
//! * statements: declarations, assignments (compound forms and `++`/`--`
//!   included), `if`/`else`, `while`, `do-while`, `for`, `break`,
//!   `continue`, `return`, call statements, braced blocks;
//! * expressions: full C integer operator set with C precedence,
//!   short-circuit `&&`/`||`, ternary `?:`, calls, array indexing;
//! * no pointers, structs, floats, casts, `switch`, or I/O.
//!
//! ## Pipeline
//!
//! ```text
//! source ──lex──► tokens ──parse──► AST
//!        ──lower──► per-function IR    (names, scopes, calls, returns, loops)
//!        ──inline──► one flat Function (no recursion)
//!        ──simplify_cfg──► honest basic blocks ──to_cdfg──► Cdfg
//! ```
//!
//! # Examples
//!
//! ```
//! use amdrel_minic::compile;
//!
//! # fn main() -> Result<(), amdrel_minic::CompileError> {
//! let src = r#"
//!     int acc[4];
//!     int main() {
//!         int s = 0;
//!         for (int i = 0; i < 4; i++) {
//!             acc[i] = i * i;
//!             s += acc[i];
//!         }
//!         return s;
//!     }
//! "#;
//! let compiled = compile(src, "main")?;
//! assert!(compiled.cdfg.len() >= 3); // entry/loop blocks
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
mod inline;
pub mod ir;
pub mod lexer;
pub mod liveness;
mod lower;
pub mod opt;
pub mod parser;
pub mod to_cdfg;
pub mod token;

use crate::token::Span;
use amdrel_cdfg::Cdfg;
use std::fmt;

/// A fully-compiled program: the flat IR and its CDFG.
///
/// CDFG block `bb i` corresponds to IR block `L i` one-to-one, which is the
/// property that lets the profiler's execution counters annotate exactly
/// the blocks the partitioner moves.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The inlined, simplified IR (interpreted by the profiler).
    pub ir: ir::IrProgram,
    /// The CDFG handed to the partitioning flow.
    pub cdfg: Cdfg,
}

/// Compile mini-C source into a [`CompiledProgram`].
///
/// `entry` names the application's root function (usually `"main"`); it
/// must exist and take no parameters.
///
/// # Errors
///
/// Any lexical, syntactic or semantic error, as a [`CompileError`] carrying
/// the source position.
pub fn compile(src: &str, entry: &str) -> Result<CompiledProgram, CompileError> {
    let ir = compile_to_ir(src, entry)?;
    let cdfg = to_cdfg::program_to_cdfg(&ir);
    debug_assert!(cdfg.validate().is_ok());
    Ok(CompiledProgram { ir, cdfg })
}

/// Compile mini-C source down to the flat IR only (no CDFG conversion).
/// Exposed for the profiler and for tests that inspect IR structure.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_to_ir(src: &str, entry: &str) -> Result<ir::IrProgram, CompileError> {
    let tokens = lexer::lex(src)?;
    let ast = parser::parse(&tokens)?;
    let (globals, functions) = lower::lower_functions(&ast, entry)?;
    let mut entry_fn = inline::inline_program(functions, entry)?;
    opt::optimize(&mut entry_fn);
    Ok(ir::IrProgram {
        globals,
        entry: entry_fn,
    })
}

/// A compilation error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    message: String,
    span: Span,
}

impl CompileError {
    /// A new error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        CompileError {
            message: message.into(),
            span,
        }
    }

    /// The source span the error points at.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The bare message without position information.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CompileError {
    /// `line:col: message`, or the bare message for an error no source
    /// position locates (line 0, as lines are 1-based): a missing entry
    /// function.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "{}:{}: {}", self.span.line, self.span.col, self.message)
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_error_is_well_behaved() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<CompileError>();
        let e = CompileError::new("boom", Span::new(0, 1, 3, 7));
        assert_eq!(e.to_string(), "3:7: boom");
        let unplaced = CompileError::new("boom", Span::default());
        assert_eq!(unplaced.to_string(), "boom");
    }

    #[test]
    fn end_to_end_compile_produces_matching_shapes() {
        let c = compile(
            "int main() { int x = 1; while (x < 10) { x = x * 3; } return x; }",
            "main",
        )
        .unwrap();
        assert_eq!(c.ir.entry.blocks.len(), c.cdfg.len());
        assert!(c.cdfg.validate().is_ok());
    }

    #[test]
    fn compile_rejects_bad_source() {
        assert!(compile("int main() { return q; }", "main").is_err());
        assert!(compile("int main() {", "main").is_err());
        assert!(compile("@", "main").is_err());
    }
}

/// Unit tests of the semantic rules, which lowering (names, scopes,
/// calls, returns, loops) and the inliner (recursion) enforce.
/// `tests/diagnostics.rs` pins many more programs.
#[cfg(test)]
mod sema {
    mod tests {
        use crate::compile_to_ir;

        /// The full `line:col: message` that rejects `src`.
        fn rejection(src: &str) -> String {
            compile_to_ir(src, "main").unwrap_err().to_string()
        }

        #[test]
        fn valid_program_passes() {
            compile_to_ir(
                "int buf[8];\nint helper(int x) { return x * 2; }\nint main() { int s = 0; for (int i = 0; i < 8; i++) { buf[i] = helper(i); s += buf[i]; } return s; }",
                "main",
            )
            .unwrap();
        }

        #[test]
        fn undeclared_variable() {
            let e = rejection("int main() { return q; }");
            assert_eq!(e, "1:21: undeclared variable 'q'");
        }

        #[test]
        fn undeclared_function() {
            let e = rejection("int main() { return f(1); }");
            assert_eq!(e, "1:21: call to undeclared function 'f'");
        }

        #[test]
        fn arity_mismatch() {
            let e = rejection("int f(int a) { return a; } int main() { return f(1, 2); }");
            assert_eq!(e, "1:48: function 'f' takes 1 arguments, 2 given");
        }

        #[test]
        fn array_used_as_scalar() {
            let e = rejection("int a[4]; int main() { return a; }");
            assert_eq!(e, "1:31: array 'a' used as a scalar value");
        }

        #[test]
        fn scalar_indexed_as_array() {
            let e = rejection("int main() { int x = 0; return x[1]; }");
            assert_eq!(e, "1:32: 'x' is a scalar, not an array");
        }

        #[test]
        fn missing_entry() {
            let e = rejection("int f() { return 0; }");
            assert_eq!(e, "entry function 'main' not found");
        }

        #[test]
        fn entry_with_params_rejected() {
            let e = rejection("int main(int argc) { return argc; }");
            assert_eq!(e, "1:1: entry function 'main' must take no parameters");
        }

        #[test]
        fn direct_recursion_rejected() {
            let e = rejection("int main() { return 0; } int f(int n) { return f(n - 1); }");
            assert_eq!(
                e,
                "1:48: recursion involving 'f' is not supported (all calls are inlined)"
            );
        }

        #[test]
        fn mutual_recursion_rejected() {
            let e = rejection("int main() { return 0; } int f(int n) { return g(n); } int g(int n) { return f(n); }");
            assert_eq!(
                e,
                "1:78: recursion involving 'f' is not supported (all calls are inlined)"
            );
        }

        #[test]
        fn break_outside_loop_rejected() {
            let e = rejection("int main() { break; return 0; }");
            assert_eq!(e, "1:14: break/continue outside of a loop");
        }

        #[test]
        fn continue_in_for_step_scope_allowed() {
            compile_to_ir(
                "int main() { for (int i = 0; i < 4; i++) { continue; } return 0; }",
                "main",
            )
            .unwrap();
        }

        #[test]
        fn void_return_with_value_rejected() {
            let e = rejection("void f() { return 1; } int main() { return 0; }");
            assert_eq!(e, "1:12: void function 'f' returns a value");
        }

        #[test]
        fn nonvoid_bare_return_rejected() {
            let e = rejection("int f() { return; } int main() { return 0; }");
            assert_eq!(e, "1:11: non-void function 'f' returns without a value");
        }

        #[test]
        fn duplicate_declaration_same_scope() {
            let e = rejection("int main() { int x = 1; int x = 2; return x; }");
            assert_eq!(e, "1:25: duplicate declaration of 'x' in the same scope");
        }

        #[test]
        fn shadowing_in_inner_scope_allowed() {
            compile_to_ir(
                "int main() { int x = 1; { int x = 2; x = 3; } return x; }",
                "main",
            )
            .unwrap();
        }

        #[test]
        fn duplicate_global_rejected() {
            let e = rejection("int a[2]; int a[3]; int main() { return 0; }");
            assert_eq!(e, "1:11: duplicate global array 'a'");
        }

        #[test]
        fn zero_length_array_rejected() {
            let e = rejection("int main() { int a[0]; return 0; }");
            assert_eq!(e, "1:14: array 'a' has zero length");
        }
    }
}
