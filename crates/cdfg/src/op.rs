//! Operation kinds carried by [`Dfg`](crate::Dfg) nodes.
//!
//! The paper's analysis step distinguishes *basic operations* by cost class:
//! ALU-type word operations (weight 1), multiplications (weight 2) and memory
//! accesses. [`OpClass`] captures exactly that taxonomy so that the analysis,
//! area and latency models in the downstream crates can all be keyed off one
//! classification.

use std::fmt;

/// Coarse cost class of an operation.
///
/// The paper's weight table ("we give a weight equal to 1 for the ALU
/// operations and a weight equal to 2 for the multiplication ones") is keyed
/// by this classification, as are the FPGA area library and the CGC node
/// capability model (each CGC node contains a multiplier and an ALU).
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{OpClass, OpKind};
///
/// assert_eq!(OpKind::Add.class(), OpClass::Alu);
/// assert_eq!(OpKind::Mul.class(), OpClass::Mul);
/// assert_eq!(OpKind::Load.class(), OpClass::Mem);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Word-level ALU operation: add/sub, logic, shifts, comparisons, select.
    Alu,
    /// Multiplication.
    Mul,
    /// Division or remainder. The paper's DFGs contain none ("no divisions
    /// are present in the DFGs") but the IR supports them for generality.
    Div,
    /// Memory access through the shared data memory (array load/store).
    Mem,
    /// Boundary pseudo-operation (live-in, live-out, constant). Occupies no
    /// hardware and takes no time; it only anchors data edges.
    Boundary,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Alu => "alu",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::Mem => "mem",
            OpClass::Boundary => "boundary",
        };
        f.write_str(s)
    }
}

/// A data-flow operation.
///
/// Every node of a [`Dfg`](crate::Dfg) carries one `OpKind`. The set mirrors
/// what the mini-C frontend can produce: integer arithmetic, bitwise logic,
/// shifts, comparisons, a select (the data side of a conditional), array
/// loads/stores and the three boundary pseudo-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Arithmetic negation.
    Neg,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Signed less-than comparison.
    Lt,
    /// Signed less-or-equal comparison.
    Le,
    /// Signed greater-than comparison.
    Gt,
    /// Signed greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Two-way multiplexer: `select(cond, a, b)`.
    Select,
    /// Integer multiplication.
    Mul,
    /// Integer division (truncating). Not produced by the case-study
    /// applications, kept for IR completeness.
    Div,
    /// Integer remainder.
    Rem,
    /// Array element load from the shared data memory.
    Load,
    /// Array element store to the shared data memory.
    Store,
    /// Value live into the basic block (produced elsewhere).
    LiveIn,
    /// Value live out of the basic block (consumed elsewhere).
    LiveOut,
    /// Compile-time constant.
    Const,
}

impl OpKind {
    /// All operation kinds, in declaration order. Useful for exhaustive
    /// tables (area libraries, weight tables) and for property tests.
    pub const ALL: [OpKind; 24] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Neg,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Not,
        OpKind::Shl,
        OpKind::Shr,
        OpKind::Lt,
        OpKind::Le,
        OpKind::Gt,
        OpKind::Ge,
        OpKind::Eq,
        OpKind::Ne,
        OpKind::Select,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Rem,
        OpKind::Load,
        OpKind::Store,
        OpKind::LiveIn,
        OpKind::LiveOut,
        OpKind::Const,
    ];

    /// The cost class this operation belongs to.
    pub fn class(self) -> OpClass {
        match self {
            OpKind::Add
            | OpKind::Sub
            | OpKind::Neg
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor
            | OpKind::Not
            | OpKind::Shl
            | OpKind::Shr
            | OpKind::Lt
            | OpKind::Le
            | OpKind::Gt
            | OpKind::Ge
            | OpKind::Eq
            | OpKind::Ne
            | OpKind::Select => OpClass::Alu,
            OpKind::Mul => OpClass::Mul,
            OpKind::Div | OpKind::Rem => OpClass::Div,
            OpKind::Load | OpKind::Store => OpClass::Mem,
            OpKind::LiveIn | OpKind::LiveOut | OpKind::Const => OpClass::Boundary,
        }
    }

    /// Whether this operation occupies hardware and scheduling slots.
    ///
    /// Boundary pseudo-ops ([`LiveIn`](OpKind::LiveIn),
    /// [`LiveOut`](OpKind::LiveOut), [`Const`](OpKind::Const)) do not.
    pub fn is_schedulable(self) -> bool {
        self.class() != OpClass::Boundary
    }

    /// Whether this operation reads or writes the shared data memory.
    pub fn is_mem(self) -> bool {
        self.class() == OpClass::Mem
    }

    /// Whether this is a comparison producing a 1-bit result.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge | OpKind::Eq | OpKind::Ne
        )
    }

    /// Short lower-case mnemonic, stable across versions (used in DOT dumps
    /// and reports).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Neg => "neg",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::Lt => "lt",
            OpKind::Le => "le",
            OpKind::Gt => "gt",
            OpKind::Ge => "ge",
            OpKind::Eq => "eq",
            OpKind::Ne => "ne",
            OpKind::Select => "select",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Rem => "rem",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::LiveIn => "live_in",
            OpKind::LiveOut => "live_out",
            OpKind::Const => "const",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_unique_mnemonic() {
        let mut seen = std::collections::HashSet::new();
        for kind in OpKind::ALL {
            assert!(seen.insert(kind.mnemonic()), "duplicate {kind}");
        }
    }

    #[test]
    fn class_partitions_kinds() {
        for kind in OpKind::ALL {
            match kind.class() {
                OpClass::Boundary => assert!(!kind.is_schedulable()),
                _ => assert!(kind.is_schedulable()),
            }
        }
    }

    #[test]
    fn comparisons_are_alu() {
        for kind in OpKind::ALL.into_iter().filter(|k| k.is_cmp()) {
            assert_eq!(kind.class(), OpClass::Alu);
        }
    }

    #[test]
    fn mem_ops_are_loads_and_stores_only() {
        let mem: Vec<_> = OpKind::ALL.into_iter().filter(|k| k.is_mem()).collect();
        assert_eq!(mem, vec![OpKind::Load, OpKind::Store]);
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(OpKind::Mul.to_string(), "mul");
        assert_eq!(OpClass::Boundary.to_string(), "boundary");
    }

    #[test]
    fn all_table_is_exhaustive() {
        // A compile error here (non-exhaustive match) is the real assertion;
        // the count pins the ALL table against it.
        for kind in OpKind::ALL {
            match kind {
                OpKind::Add
                | OpKind::Sub
                | OpKind::Neg
                | OpKind::And
                | OpKind::Or
                | OpKind::Xor
                | OpKind::Not
                | OpKind::Shl
                | OpKind::Shr
                | OpKind::Lt
                | OpKind::Le
                | OpKind::Gt
                | OpKind::Ge
                | OpKind::Eq
                | OpKind::Ne
                | OpKind::Select
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Rem
                | OpKind::Load
                | OpKind::Store
                | OpKind::LiveIn
                | OpKind::LiveOut
                | OpKind::Const => (),
            }
        }
        assert_eq!(OpKind::ALL.len(), 24);
    }
}
