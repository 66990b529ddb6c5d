//! Per-block scalar liveness (backward dataflow).
//!
//! The CDFG conversion uses liveness to place `LiveOut` boundary nodes —
//! the values a basic block must publish to the shared data memory. Those
//! counts feed `t_comm` in the partitioning engine's eq. (2), so liveness
//! here directly shapes the communication cost of moving a kernel to the
//! coarse-grain datapath.
//!
//! Variable ids are dense (`0..vars.len()`), so every set is a bitset of
//! one bit per variable: the dataflow equations become word-wide ORs and
//! AND-NOTs, and no set allocates after the first.

use crate::ir::{BlockIdx, Function, Operand, Terminator, VarId};

/// A set of [`VarId`]s: a dense bitset over a function's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarSet {
    words: Vec<u64>,
}

impl VarSet {
    /// An empty set of the ids `0..vars`.
    pub(crate) fn new(vars: usize) -> Self {
        VarSet {
            words: vec![0; vars.div_ceil(64)],
        }
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: VarId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1 << (v.index() % 64)) != 0)
    }

    /// Add `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` lies outside the ids the set was made for.
    pub(crate) fn insert(&mut self, v: VarId) {
        self.words[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Remove `v` (a no-op when absent).
    pub(crate) fn remove(&mut self, v: VarId) {
        if let Some(w) = self.words.get_mut(v.index() / 64) {
            *w &= !(1 << (v.index() % 64));
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    VarId(i as u32 * 64 + bit)
                })
            })
        })
    }
}

/// Live-variable sets for every block of a [`Function`].
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<VarSet>,
    live_out: Vec<VarSet>,
    defs: Vec<VarSet>,
    uses: Vec<VarSet>,
}

fn operand_use(op: Operand, set: &mut VarSet, defs: &VarSet) {
    if let Operand::Var(v) = op {
        if !defs.contains(v) {
            set.insert(v);
        }
    }
}

impl Liveness {
    /// Compute liveness for `f` with the standard iterative backward
    /// dataflow over `use`/`def` sets.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let empty = VarSet::new(f.vars.len());
        let mut uses = vec![empty.clone(); n];
        let mut defs = vec![empty.clone(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let (u, d) = (&mut uses[i], &mut defs[i]);
            for instr in &b.instrs {
                for op in instr.operands().into_iter().flatten() {
                    operand_use(op, u, d);
                }
                if let Some(dst) = instr.dst() {
                    d.insert(dst);
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => operand_use(*cond, u, d),
                Terminator::Return(Some(v)) => operand_use(*v, u, d),
                _ => {}
            }
        }

        let succs: Vec<Vec<BlockIdx>> = f.blocks.iter().map(|b| b.successors()).collect();
        let mut live_in = vec![empty.clone(); n];
        let mut live_out = vec![empty; n];
        let mut changed = true;
        while changed {
            changed = false;
            // Iterate in reverse index order for faster convergence.
            for i in (0..n).rev() {
                for w in 0..live_in[i].words.len() {
                    let out = succs[i]
                        .iter()
                        .fold(0, |acc, s| acc | live_in[s.index()].words[w]);
                    let inn = uses[i].words[w] | (out & !defs[i].words[w]);
                    if out != live_out[i].words[w] || inn != live_in[i].words[w] {
                        live_out[i].words[w] = out;
                        live_in[i].words[w] = inn;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            defs,
            uses,
        }
    }

    /// Variables live on entry to block `i`.
    pub fn live_in(&self, i: usize) -> &VarSet {
        &self.live_in[i]
    }

    /// Variables live on exit from block `i`.
    pub fn live_out(&self, i: usize) -> &VarSet {
        &self.live_out[i]
    }

    /// Variables defined in block `i`.
    pub fn defs(&self, i: usize) -> &VarSet {
        &self.defs[i]
    }

    /// Variables used before definition in block `i`.
    pub fn upward_uses(&self, i: usize) -> &VarSet {
        &self.uses[i]
    }
}

/// The `HashSet` liveness the bitsets replaced, kept as the
/// differential oracle.
#[cfg(test)]
mod oracle {
    use crate::ir::{Function, Instr, Operand, Terminator, VarId};
    use std::collections::HashSet;

    /// `(live_in, live_out, defs, upward_uses)` of every block.
    pub(super) type Sets = Vec<[HashSet<VarId>; 4]>;

    fn operand_use(op: Operand, set: &mut HashSet<VarId>, defs: &HashSet<VarId>) {
        if let Operand::Var(v) = op {
            if !defs.contains(&v) {
                set.insert(v);
            }
        }
    }

    pub(super) fn compute(f: &Function) -> Sets {
        let n = f.blocks.len();
        let mut uses = vec![HashSet::new(); n];
        let mut defs = vec![HashSet::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let (u, d) = (&mut uses[i], &mut defs[i]);
            for instr in &b.instrs {
                match instr {
                    Instr::Bin { dst, lhs, rhs, .. } => {
                        operand_use(*lhs, u, d);
                        operand_use(*rhs, u, d);
                        d.insert(*dst);
                    }
                    Instr::Un { dst, src, .. } => {
                        operand_use(*src, u, d);
                        d.insert(*dst);
                    }
                    Instr::Copy { dst, src } => {
                        operand_use(*src, u, d);
                        d.insert(*dst);
                    }
                    Instr::Load { dst, index, .. } => {
                        operand_use(*index, u, d);
                        d.insert(*dst);
                    }
                    Instr::Store { index, value, .. } => {
                        operand_use(*index, u, d);
                        operand_use(*value, u, d);
                    }
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => operand_use(*cond, u, d),
                Terminator::Return(Some(v)) => operand_use(*v, u, d),
                _ => {}
            }
        }

        let mut live_in = vec![HashSet::new(); n];
        let mut live_out = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out: HashSet<VarId> = HashSet::new();
                for s in f.blocks[i].successors() {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn = uses[i].clone();
                for v in out.iter() {
                    if !defs[i].contains(v) {
                        inn.insert(*v);
                    }
                }
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        (0..n)
            .map(|i| {
                [
                    std::mem::take(&mut live_in[i]),
                    std::mem::take(&mut live_out[i]),
                    std::mem::take(&mut defs[i]),
                    std::mem::take(&mut uses[i]),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ir;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::HashSet;
    use std::fmt;

    fn liveness_of(src: &str) -> (crate::ir::IrProgram, Liveness) {
        let ir = compile_to_ir(src, "main").unwrap();
        let lv = Liveness::compute(&ir.entry);
        (ir, lv)
    }

    fn var_named(f: &Function, name: &str) -> VarId {
        VarId(
            f.vars
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    }

    #[test]
    fn loop_counter_live_around_loop() {
        let (ir, lv) = liveness_of(
            "int main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i; } return s; }",
        );
        let f = &ir.entry;
        let s = var_named(f, "s");
        let i = var_named(f, "i");
        // Find the loop-body block: it uses both s and i.
        let body = (0..f.blocks.len())
            .find(|&b| lv.upward_uses(b).contains(s) && lv.upward_uses(b).contains(i))
            .expect("body block");
        assert!(lv.live_in(body).contains(s));
        assert!(lv.live_out(body).contains(s));
        assert!(lv.live_out(body).contains(i), "i feeds the step/cond");
    }

    #[test]
    fn dead_value_not_live_out() {
        let (ir, lv) = liveness_of("int main() { int dead = 5; int x = 2; return x; }");
        let f = &ir.entry;
        let dead = var_named(f, "dead");
        for b in 0..f.blocks.len() {
            assert!(!lv.live_out(b).contains(dead));
        }
    }

    #[test]
    fn branch_condition_is_a_use() {
        let (ir, lv) = liveness_of("int main() { int c = 1; if (c) { return 1; } return 0; }");
        let f = &ir.entry;
        let c = var_named(f, "c");
        // The block whose terminator branches on c must either define c or
        // have it live-in.
        let mut found = false;
        for (i, b) in f.blocks.iter().enumerate() {
            if let Terminator::Branch {
                cond: Operand::Var(v),
                ..
            } = b.term
            {
                if v == c {
                    found = true;
                    assert!(lv.defs(i).contains(c) || lv.live_in(i).contains(c));
                }
            }
        }
        assert!(found, "no branch on c found");
    }

    #[test]
    fn store_operands_are_uses() {
        let (ir, lv) =
            liveness_of("int a[4]; int main() { int v = 3; int i = 1; a[i] = v; return a[1]; }");
        let f = &ir.entry;
        let v = var_named(f, "v");
        // v is used (by the store) in the block where it's defined, so it's
        // in defs; since everything is one block after simplification,
        // upward_uses won't contain it. Check defs instead.
        let b0_defs = lv.defs(0);
        assert!(b0_defs.contains(v));
    }

    #[test]
    fn var_sets_cross_word_boundaries() {
        let mut set = VarSet::new(130);
        assert!(set.is_empty());
        for v in [0, 63, 64, 129] {
            set.insert(VarId(v));
        }
        set.insert(VarId(64));
        assert_eq!(set.len(), 4);
        assert!(set.contains(VarId(63)) && !set.contains(VarId(62)));
        assert!(!set.contains(VarId(1000)), "ids past the set are absent");
        set.remove(VarId(63));
        set.remove(VarId(1000));
        let members: Vec<u32> = set.iter().map(|v| v.0).collect();
        assert_eq!(members, [0, 64, 129]);
    }

    /// Assert that the bitsets hold exactly the oracle's sets on every
    /// block of `f`.
    fn assert_matches_oracle(f: &Function, source: &str) {
        let lv = Liveness::compute(f);
        let expected = oracle::compute(f);
        assert_eq!(expected.len(), f.blocks.len());
        for (b, sets) in expected.iter().enumerate() {
            let got = [lv.live_in(b), lv.live_out(b), lv.defs(b), lv.upward_uses(b)];
            for (name, (got, want)) in ["live_in", "live_out", "defs", "upward_uses"]
                .iter()
                .zip(got.iter().zip(sets))
            {
                let got: HashSet<VarId> = got.iter().collect();
                assert_eq!(got.len(), want.len(), "{name} of block {b} in\n{source}");
                assert_eq!(&got, want, "{name} of block {b} in\n{source}");
            }
        }
    }

    #[test]
    fn case_studies_match_the_oracle() {
        use amdrel_apps::{jpeg, ofdm, sobel};
        for workload in [
            ofdm::workload(42),
            jpeg::workload(jpeg::PAPER_DIM, 42),
            sobel::workload(32, 2004),
        ] {
            let ir = compile_to_ir(&workload.source, "main").unwrap();
            assert_matches_oracle(&ir.entry, &workload.name);
        }
    }

    /// Generated programs over more scalars than one bitset word holds,
    /// with nested loops, early exits and branches on values set in other
    /// blocks.
    struct Programs;

    impl Strategy for Programs {
        type Value = Program;

        fn sample(&self, rng: &mut TestRng) -> Program {
            let mut g = Gen { rng, loops: 0 };
            let body = g.stmts(3);
            let decls: String = (0..SCALARS)
                .map(|v| format!("int s{v} = {};", g.below(5)))
                .collect();
            let ret = g.expr(1);
            Program(format!(
                "int g[8];\nint main() {{\n  {decls}\n{body}  return {ret};\n}}\n"
            ))
        }
    }

    /// One generated mini-C source.
    struct Program(String);

    impl fmt::Debug for Program {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Scalars per program: more than one 64-bit word, and few enough
    /// that generated statements share them.
    const SCALARS: usize = 70;

    struct Gen<'r> {
        rng: &'r mut TestRng,
        /// Loop counters in scope: `i0` up to `i{loops - 1}`.
        loops: usize,
    }

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            (self.rng.next_u64() % n as u64) as usize
        }

        fn scalar(&mut self) -> String {
            // Mostly a few hot scalars, so values flow between blocks.
            match self.below(4) {
                0 => format!("s{}", self.below(SCALARS)),
                1 if self.loops > 0 => format!("i{}", self.below(self.loops)),
                _ => format!("s{}", [0, 1, 63, 64, 69][self.below(5)]),
            }
        }

        fn expr(&mut self, depth: usize) -> String {
            match self.below(if depth == 0 { 3 } else { 6 }) {
                0 => self.below(9).to_string(),
                1 | 2 => self.scalar(),
                3 => format!("g[{} & 7]", self.expr(depth - 1)),
                4 => format!(
                    "({} ? {} : {})",
                    self.scalar(),
                    self.expr(depth - 1),
                    self.expr(0)
                ),
                _ => {
                    let op = ["+", "-", "*", "<", "==", "&&", "|"][self.below(7)];
                    format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
                }
            }
        }

        fn stmts(&mut self, depth: usize) -> String {
            (0..1 + self.below(4)).map(|_| self.stmt(depth)).collect()
        }

        fn stmt(&mut self, depth: usize) -> String {
            let indent = "  ".repeat(1 + self.loops);
            let s = match self.below(if depth == 0 { 3 } else { 8 }) {
                0 => format!("{} = {};", self.scalar_target(), self.expr(2)),
                1 => format!("g[{} & 7] = {};", self.expr(1), self.expr(1)),
                2 if self.loops > 0 => ["break;", "continue;"][self.below(2)].to_owned(),
                2 => format!("{} += {};", self.scalar_target(), self.expr(1)),
                3 | 4 => {
                    let cond = self.expr(1);
                    let then = self.stmts(depth - 1);
                    match self.below(2) {
                        0 => format!("if ({cond}) {{\n{then}{indent}}}"),
                        _ => {
                            let other = self.stmts(depth - 1);
                            format!("if ({cond}) {{\n{then}{indent}}} else {{\n{other}{indent}}}")
                        }
                    }
                }
                5 if self.below(2) == 0 => format!("return {};", self.expr(1)),
                _ => {
                    let (i, n) = (self.loops, 1 + self.below(4));
                    self.loops += 1;
                    let body = self.stmts(depth - 1);
                    self.loops -= 1;
                    match self.below(2) {
                        0 => format!("for (int i{i} = 0; i{i} < {n}; i{i}++) {{\n{body}{indent}}}"),
                        _ => format!(
                            "{{ int i{i} = {n}; while (i{i} > 0) {{\n{indent}  i{i} = i{i} - 1;\n{body}{indent}}} }}"
                        ),
                    }
                }
            };
            format!("{indent}{s}\n")
        }

        /// A scalar to assign: never a loop counter, so every loop ends.
        fn scalar_target(&mut self) -> String {
            match self.below(3) {
                0 => format!("s{}", self.below(SCALARS)),
                _ => format!("s{}", [0, 1, 63, 64, 69][self.below(5)]),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitsets agree with the `HashSet` oracle on every block of
        /// every generated program.
        #[test]
        fn generated_programs_match_the_oracle(program in Programs) {
            let ir = compile_to_ir(&program.0, "main")
                .unwrap_or_else(|e| panic!("{e}\n{}", program.0));
            assert_matches_oracle(&ir.entry, &program.0);
        }
    }
}
