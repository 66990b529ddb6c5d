//! Every way the front end rejects a program, pinned with its full
//! `line:col: message` (the bare message where no position applies):
//! lexer and parser errors, each semantic rule lowering and the inliner
//! enforce, and which error wins when a program holds two.

use amdrel_minic::compile_to_ir;

/// `(source, the error compiling it reports)`.
const REJECTED: &[(&str, &str)] = &[
    // Lexer and parser.
    ("int main() { return 1 @ 2; }", "1:23: unexpected character '@'"),
    (
        "int main() { return 99999999999999999999; }",
        "1:21: integer literal overflows i64",
    ),
    (
        "int main() { return 0; } /* never closed",
        "1:26: unterminated block comment",
    ),
    ("int main() {", "1:13: unterminated block"),
    ("int main() { return 1 }", "1:23: expected ';', found '}'"),
    (
        "int main() { int x = 0; x + 1; return x; }",
        "1:25: expression statement 'x…' has no effect",
    ),
    (
        "int main() { 3; return 0; }",
        "1:14: only calls may be used as expression statements",
    ),
    // File scope.
    (
        "int g[0];\nint main() { return 0; }",
        "1:1: global array 'g' has zero length",
    ),
    (
        "int a[2];\nint a[3];\nint main() { return 0; }",
        "2:1: duplicate global array 'a'",
    ),
    (
        "int f() { return 1; }\nint f() { return 2; }\nint main() { return 0; }",
        "2:1: duplicate function 'f'",
    ),
    (
        "int f[4];\nint f() { return 1; }\nint main() { return 0; }",
        "2:1: 'f' is both a global array and a function",
    ),
    // No position locates a missing entry, so none is printed.
    (
        "int Main() { return 0; }",
        "entry function 'main' not found",
    ),
    (
        "int main(int a, int a) { return q; }",
        "1:1: entry function 'main' must take no parameters",
    ),
    // Function bodies.
    (
        "int f(int a, int a) { return a; }\nint main() { return f(1, 2); }",
        "1:1: duplicate parameter 'a' in function 'f'",
    ),
    (
        "int main() {\n  int x = 1;\n  int x = 2;\n  return x;\n}",
        "3:3: duplicate declaration of 'x' in the same scope",
    ),
    (
        "int main() { int x = 1; int x[4]; return 0; }",
        "1:25: duplicate declaration of 'x' in the same scope",
    ),
    (
        "int main() { int buf[0]; return 0; }",
        "1:14: array 'buf' has zero length",
    ),
    (
        "void f() { return 1; }\nint main() { f(); return 0; }",
        "1:12: void function 'f' returns a value",
    ),
    (
        "int f() { return; }\nint main() { return f(); }",
        "1:11: non-void function 'f' returns without a value",
    ),
    (
        "int main() { continue; }",
        "1:14: break/continue outside of a loop",
    ),
    (
        "int main() { if (1) { break; } return 0; }",
        "1:23: break/continue outside of a loop",
    ),
    (
        "int a[4];\nint main() { a = 1; return 0; }",
        "2:14: cannot assign to array 'a' without an index",
    ),
    (
        "int a[4];\nint main() { a += 1; return 0; }",
        "2:14: cannot assign to array 'a' without an index",
    ),
    (
        "int main() { q = 1; return 0; }",
        "1:14: undeclared variable 'q'",
    ),
    (
        "int main() { int x = 0; x[1] = 2; return x; }",
        "1:25: 'x' is a scalar, not an array",
    ),
    (
        "int main() { b[0] = 1; return 0; }",
        "1:14: undeclared array 'b'",
    ),
    ("int main() { return b[2]; }", "1:21: undeclared array 'b'"),
    (
        "int a[4];\nint main() { return a + 1; }",
        "2:21: array 'a' used as a scalar value",
    ),
    (
        "int main() { g(); return 0; }",
        "1:14: call to undeclared function 'g'",
    ),
    (
        "int f(int a, int b) { return a + b; }\nint main() { return f(1); }",
        "2:21: function 'f' takes 2 arguments, 1 given",
    ),
    // Recursion: direct, mutual, and in a function nothing calls.
    (
        "int f(int n) { return f(n - 1); }\nint main() { return f(3); }",
        "1:23: recursion involving 'f' is not supported (all calls are inlined)",
    ),
    (
        "int main() { return f(1); }\nint f(int n) { return g(n); }\nint g(int n) { return f(n); }",
        "3:23: recursion involving 'f' is not supported (all calls are inlined)",
    ),
    (
        "int main() { return 0; }\nint f(int n) { if (n) { return f(n - 1); } return 0; }",
        "2:32: recursion involving 'f' is not supported (all calls are inlined)",
    ),
    // Calls are walked in source order: the step's call to `b` comes
    // before the body's call to `a`, so the cycle closes inside `b`.
    (
        "int main() { return a(1); }\nint a(int n) { for (int i = 0; i < n; i = b(i)) { a(i); } return 0; }\nint b(int n) { return a(n); }",
        "3:23: recursion involving 'a' is not supported (all calls are inlined)",
    ),
    // Which of two errors wins.
    (
        "int main() { return g(q); }",
        "1:21: call to undeclared function 'g'",
    ),
    (
        "int f(int a) { return a; }\nint main() { return f(q, 1); }",
        "2:21: function 'f' takes 1 arguments, 2 given",
    ),
    (
        "void f() { return q; }\nint main() { return 0; }",
        "1:12: void function 'f' returns a value",
    ),
    (
        "int main() { int x = 1; int x = y; return 0; }",
        "1:33: undeclared variable 'y'",
    ),
    (
        "int main() { return q; }\nint main() { return 0; }",
        "2:1: duplicate function 'main'",
    ),
    (
        "int f(int n) { return f(n); }\nint main() { return q; }",
        "2:21: undeclared variable 'q'",
    ),
    // Lowering emits a `for` step after its body, so the body's error
    // wins; lowering the step first would renumber the temporaries of
    // every valid program.
    (
        "int main() { for (int i = 0; i < 4; j++) { k = 1; } return 0; }",
        "1:44: undeclared variable 'k'",
    ),
    // Scopes: a local scalar hides a global array, and a `for` header's
    // scope ends with the loop.
    (
        "int a[4];\nint main() { int a = 2; return a[0]; }",
        "2:32: 'a' is a scalar, not an array",
    ),
    (
        "int main() { for (int i = 0; i < 4; i++) { } return i; }",
        "1:53: undeclared variable 'i'",
    ),
];

/// Programs that shadow, reuse names across namespaces or hold dead code.
const ACCEPTED: &[&str] = &[
    "int f(int x) { int x = 2; return x; }\nint main() { return f(1); }",
    "int a[4];\nint main() { int a = 1; return a; }",
    "int f() { return 1; }\nint main() { int f = 2; return f() + f; }",
    "void unused() { return; }\nint main() { return 0; }",
    "int main() { int i = 9; for (int i = 0; i < 2; i++) { int i = 5; } return i; }",
    "int main() { int n = 0; while (1) { if (n > 3) { break; } n++; } return n; }",
    "int main() { int s = 0; do { s++; if (s & 1) { continue; } } while (s < 9); return s; }",
    "int f() { return 1; }\nint main() { return 0; return f(); }",
];

#[test]
fn every_rejection_reports_its_pinned_diagnostic() {
    for (src, expected) in REJECTED {
        match compile_to_ir(src, "main") {
            Ok(_) => panic!("accepted {src:?}, expected {expected}"),
            Err(e) => assert_eq!(e.to_string(), *expected, "for {src:?}"),
        }
    }
}

#[test]
fn well_formed_programs_compile() {
    for src in ACCEPTED {
        if let Err(e) = compile_to_ir(src, "main") {
            panic!("rejected {src:?}: {e}");
        }
    }
}
