//! The Figure 2 flow as two entry points: [`analyze`] (compile, profile,
//! weight) and [`run_flow`] (analyse, then partition).
//!
//! The lower-level pieces (frontend, profiler, engine) stay independently
//! usable; this module is the "prototype framework" convenience wrapper
//! the paper describes building in C++. Callers that need an engine
//! policy or a shared [`MappingCache`](crate::MappingCache) call
//! [`analyze`] and drive the [`PartitioningEngine`] builder themselves.

use crate::engine::{PartitionResult, PartitioningEngine};
use crate::platform::Platform;
use crate::CoreError;
use amdrel_minic::CompiledProgram;
use amdrel_profiler::{AnalysisReport, Execution, Interpreter, WeightTable};

/// The analysis step of Figure 2: an application compiled, profiled and
/// weighted, ready for the partitioning engine.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// The compiled program (IR + CDFG).
    pub program: CompiledProgram,
    /// The profiling run (dynamic analysis).
    pub execution: Execution,
    /// The combined static+dynamic analysis.
    pub analysis: AnalysisReport,
}

/// Everything produced by one pass of the Figure 2 flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The compiled program (IR + CDFG).
    pub program: CompiledProgram,
    /// The profiling run (dynamic analysis).
    pub execution: Execution,
    /// The combined static+dynamic analysis.
    pub analysis: AnalysisReport,
    /// The partitioning outcome.
    pub result: PartitionResult,
}

/// Analyse mini-C source: compile `main` to its CDFG, profile it on
/// `inputs` (global-array bindings), and weight every basic block with the
/// paper's Table 1 weights ([`WeightTable::paper`]).
///
/// # Errors
///
/// Compilation or profiling failures as [`CoreError`].
pub fn analyze(source: &str, inputs: &[(&str, &[i64])]) -> Result<Analyzed, CoreError> {
    let program = amdrel_minic::compile(source, "main")?;
    let execution = Interpreter::new(&program.ir).run(inputs)?;
    let analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    Ok(Analyzed {
        program,
        execution,
        analysis,
    })
}

/// Run the complete methodology on mini-C source.
///
/// Steps (Figure 2): CDFG creation → fine-grain mapping & constraint
/// check → analysis (profile on `inputs`) → partitioning engine with
/// coarse-grain mapping.
///
/// # Errors
///
/// Compilation, profiling, or mapping failures as [`CoreError`].
///
/// # Examples
///
/// ```
/// use amdrel_core::{run_flow, Platform};
///
/// # fn main() -> Result<(), amdrel_core::CoreError> {
/// let src = r#"
///     int x[64];
///     int main() {
///         int acc = 0;
///         for (int i = 0; i < 64; i++) { acc += x[i] * x[i]; }
///         return acc;
///     }
/// "#;
/// let outcome = run_flow(src, &[], &Platform::paper(1500, 2), 1_000)?;
/// assert!(outcome.result.initial_cycles > 0);
/// # Ok(())
/// # }
/// ```
pub fn run_flow(
    source: &str,
    inputs: &[(&str, &[i64])],
    platform: &Platform,
    constraint: u64,
) -> Result<FlowOutcome, CoreError> {
    let Analyzed {
        program,
        execution,
        analysis,
    } = analyze(source, inputs)?;
    let result = PartitioningEngine::new(&program.cdfg, &analysis, platform).run(constraint)?;
    Ok(FlowOutcome {
        program,
        execution,
        analysis,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        int samples[64];
        int taps[8];
        int out[64];
        int main() {
            for (int i = 0; i < 56; i++) {
                int acc = 0;
                for (int t = 0; t < 8; t++) {
                    acc += samples[i + t] * taps[t];
                }
                out[i] = acc >> 4;
            }
            return out[0];
        }
    "#;

    #[test]
    fn flow_end_to_end() {
        let platform = Platform::paper(1500, 2);
        let outcome = run_flow(SRC, &[("taps", &[1, 2, 3, 4, 4, 3, 2, 1])], &platform, 1).unwrap();
        assert!(!outcome.result.met, "1-cycle constraint is impossible");
        assert!(!outcome.analysis.kernels().is_empty());
        assert!(outcome.result.final_cycles() < outcome.result.initial_cycles);
    }

    #[test]
    fn flow_rejects_bad_source() {
        let platform = Platform::paper(1500, 2);
        assert!(matches!(
            run_flow("int main() { return q; }", &[], &platform, 100),
            Err(CoreError::Compile(_))
        ));
    }

    #[test]
    fn flow_surfaces_runtime_errors() {
        let platform = Platform::paper(1500, 2);
        let r = run_flow(
            "int a[2]; int main() { int i = 5; return a[i]; }",
            &[],
            &platform,
            100,
        );
        assert!(matches!(r, Err(CoreError::Profile(_))));
    }
}
