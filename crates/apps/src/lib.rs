//! # amdrel-apps — the paper's case-study applications
//!
//! Galanis et al. validate their partitioning methodology on two
//! industrial codes developed by the AMDREL consortium: the front-end of
//! an IEEE 802.11a OFDM transmitter and a JPEG encoder. Those C sources
//! were never published, so this crate re-implements both from their
//! published structure:
//!
//! * [`ofdm`] — 16-QAM mapping → 64-point radix-2 IFFT → cyclic prefix,
//!   6 payload symbols (the paper's input size), in mini-C plus a
//!   bit-exact Rust reference;
//! * [`jpeg`] — level shift → 8×8 2-D DCT → quantisation → zig-zag →
//!   run-length/Huffman-style entropy coding, parameterised image size
//!   (the paper uses 256×256), in mini-C plus a bit-exact Rust reference;
//! * [`paper`] — the paper's published Tables 1–3 as constants, and a
//!   synthesiser that builds CDFGs matching the authors' own Table 1
//!   profiles so the engine can be driven by their measurements directly;
//! * [`sobel`] — a third case study (edge detection) beyond the paper's
//!   two, same domain, different kernel shape.
//!
//! Each case study also exposes a `design_space()` entry point (built on
//! [`standard_design_space`]) feeding the `amdrel-explore` subsystem, so
//! the paper's fixed four-configuration grids generalise to seeded
//! multi-objective searches per application; the [`runtime`] module
//! derives per-app [`AppProfile`](amdrel_runtime::AppProfile)s (phase
//! costs + fine-grain configuration footprint) feeding the
//! `amdrel-runtime` multi-tenant simulator.
//!
//! # Examples
//!
//! ```no_run
//! use amdrel_apps::ofdm;
//! use amdrel_core::{Platform, PartitioningEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = ofdm::workload(42).analyze()?;
//! let platform = Platform::paper(1500, 3);
//! let result = PartitioningEngine::new(&app.program.cdfg, &app.analysis, &platform)
//!     .run(60_000)?;
//! println!("{:.1}% cycle reduction", result.reduction_percent());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod jpeg;
pub mod ofdm;
pub mod paper;
pub mod runtime;
pub mod sobel;

use amdrel_coarsegrain::{CgcDatapath, CgcGeometry};
use amdrel_core::{Analyzed, CoreError};
use amdrel_explore::DesignSpace;

/// The standard exploration space shared by the case studies: the
/// paper's two configurations embedded in a wider sweep of FPGA areas
/// (1200 up — the fine-grain mapper refuses smaller devices — to 20 000)
/// and one-to-four 2×2-CGC datapaths, with kernel budgets `0..=8` (the
/// Table 1 horizon).
///
/// Each case-study module exposes a `design_space()` entry point built on
/// this, carrying its own timing constraint.
pub fn standard_design_space(constraint: u64) -> DesignSpace {
    DesignSpace {
        areas: vec![1200, 1500, 2500, 5000, 10_000, 20_000],
        datapaths: (1..=4)
            .map(|k| CgcDatapath::uniform(k, CgcGeometry::TWO_BY_TWO))
            .collect(),
        max_kernel_budget: 8,
        constraint,
    }
}

/// A runnable application: mini-C source plus its input bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// The mini-C source text.
    pub source: String,
    /// Global-array input bindings `(name, contents)`.
    pub inputs: Vec<(String, Vec<i64>)>,
}

impl Workload {
    /// Input bindings as the borrowed form the interpreter takes.
    pub fn input_refs(&self) -> Vec<(&str, &[i64])> {
        self.inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect()
    }

    /// Compile the source, profile it on the workload's inputs and weight
    /// it — the Figure 2 analysis step ([`amdrel_core::analyze`]).
    ///
    /// # Errors
    ///
    /// Compilation or profiling failures.
    pub fn analyze(&self) -> Result<Analyzed, CoreError> {
        amdrel_core::analyze(&self.source, &self.input_refs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_plumbing() {
        let w = Workload {
            name: "toy".into(),
            source: "int x[2]; int main() { return x[0] + x[1]; }".into(),
            inputs: vec![("x".into(), vec![20, 22])],
        };
        let app = w.analyze().unwrap();
        assert_eq!(app.execution.return_value, Some(42));
    }
}
