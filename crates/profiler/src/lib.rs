//! # amdrel-profiler — analysis step of the AMDREL partitioning flow
//!
//! Implements step 3 of the paper's Figure 2: identify the dominant
//! kernels of the application by combining
//!
//! * **dynamic analysis** — run the program on representative inputs and
//!   count how often every basic block executes (the paper places Lex
//!   counters in the source; here the [`Interpreter`] counts block entries
//!   of the same IR the partitioner sees), and
//! * **static analysis** — a weighted operation count per basic block
//!   ([`bb_weight`], weights ALU = 1 / MUL = 2 exactly as §4).
//!
//! The two are combined by eq. (1), `total_weight = exec_freq × bb_weight`,
//! and blocks inside loops are ranked in descending order of total weight
//! ([`AnalysisReport`]) — that ordering is the queue the partitioning
//! engine drains when it moves kernels to the coarse-grain datapath.
//!
//! # Examples
//!
//! ```
//! use amdrel_minic::compile;
//! use amdrel_profiler::{AnalysisReport, Interpreter, WeightTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     int data[32];
//!     int main() {
//!         int acc = 0;
//!         for (int i = 0; i < 32; i++) {
//!             acc += data[i] * data[i];
//!         }
//!         return acc;
//!     }
//! "#;
//! let program = compile(src, "main")?;
//! let exec = Interpreter::new(&program.ir).run(&[("data", &[3; 32])])?;
//! let report =
//!     AnalysisReport::analyze(&program.cdfg, &exec.block_counts, &WeightTable::paper());
//! let top = report.top_kernels(1);
//! assert_eq!(top[0].exec_freq, 32); // the loop body dominates
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod interp;
mod weights;

pub use analysis::{AnalysisReport, BlockProfile};
pub use interp::{Execution, Interpreter, DEFAULT_STEP_LIMIT};
pub use weights::{bb_weight, WeightTable};

use std::fmt;

/// Errors produced by profiling runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfileError {
    /// An input name did not match any global array.
    UnknownInput {
        /// The unmatched name.
        name: String,
    },
    /// An input vector was longer than its target array.
    InputTooLong {
        /// The input name.
        name: String,
        /// Provided length.
        len: usize,
        /// Array capacity.
        capacity: usize,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Shift amount outside `0..64`.
    ShiftOutOfRange {
        /// The offending amount.
        amount: i64,
    },
    /// Array access outside its bounds.
    IndexOutOfBounds {
        /// Array name.
        array: String,
        /// The offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// The configured instruction budget was exhausted.
    StepLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// The allocator refused the memory to grow the written prefix of an
    /// array: a store far into a huge declared array.
    OutOfMemory {
        /// Array name.
        array: String,
        /// Elements the prefix needed.
        len: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::UnknownInput { name } => {
                write!(f, "input '{name}' does not name a global array")
            }
            ProfileError::InputTooLong {
                name,
                len,
                capacity,
            } => write!(
                f,
                "input '{name}' has {len} values but the array holds {capacity}"
            ),
            ProfileError::DivisionByZero => f.write_str("division by zero"),
            ProfileError::ShiftOutOfRange { amount } => {
                write!(f, "shift amount {amount} outside 0..64")
            }
            ProfileError::IndexOutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for '{array}' (len {len})")
            }
            ProfileError::StepLimit { limit } => {
                write!(f, "execution exceeded the step limit of {limit}")
            }
            ProfileError::OutOfMemory { array, len } => {
                write!(f, "out of memory holding {len} elements of '{array}'")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<ProfileError>();
        assert!(ProfileError::DivisionByZero.to_string().contains("zero"));
    }
}
