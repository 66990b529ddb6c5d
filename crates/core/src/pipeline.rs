//! Frame-pipelined execution — the paper's "on-going work".
//!
//! §3 of the paper: although fine- and coarse-grain execution is mutually
//! exclusive *within* a frame, DSP/multimedia applications "process
//! certain amount of data (called frames) whose computation is repeated
//! over time. Through the pipelining among the stages of computations,
//! the reconfigurable processing units of the hybrid architecture are
//! always utilized." The conclusions call the generalisation — "multiple
//! threads of execution for parallel operation of the fine and the
//! coarse-grain reconfigurable blocks" — on-going work.
//!
//! This module models exactly that: with the partitioned application run
//! as a two-stage pipeline (FPGA stage; CGC stage including the shared-
//! memory hand-off), frame *k+1* occupies the fine-grain unit while frame
//! *k* occupies the coarse-grain datapath.

use crate::engine::Breakdown;

/// Which pipeline stage limits throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The fine-grain (FPGA) stage.
    FineGrain,
    /// The coarse-grain stage (CGC execution plus shared-memory traffic).
    CoarseGrain,
}

/// Throughput analysis of the partitioned application under two-stage
/// frame pipelining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Frames analysed.
    pub frames: u64,
    /// Steady-state initiation interval (FPGA cycles between frame
    /// completions): `max(t_FPGA, t_coarse + t_comm)`.
    pub interval: u64,
    /// Total cycles executing the frames strictly sequentially
    /// (`frames × t_total`), the paper's default execution model.
    pub sequential_cycles: u64,
    /// Total cycles with two-stage pipelining
    /// (`t_total + (frames − 1) × interval`).
    pub pipelined_cycles: u64,
    /// The stage that bounds the initiation interval.
    pub bottleneck: Stage,
    /// Fraction of steady-state time the fine-grain unit is busy.
    pub fpga_utilization: f64,
    /// Fraction of steady-state time the coarse-grain path is busy.
    pub cgc_utilization: f64,
}

impl PipelineReport {
    /// Sequential-to-pipelined speed-up for the analysed frame count.
    pub fn speedup(&self) -> f64 {
        if self.pipelined_cycles == 0 {
            return 1.0;
        }
        self.sequential_cycles as f64 / self.pipelined_cycles as f64
    }

    /// The asymptotic speed-up (`t_total / interval` as frames → ∞).
    pub fn asymptotic_speedup(&self) -> f64 {
        if self.interval == 0 {
            return 1.0;
        }
        (self.sequential_cycles as f64 / self.frames.max(1) as f64) / self.interval as f64
    }
}

/// Analyse a per-frame timing [`Breakdown`] under two-stage pipelining
/// over `frames` repetitions.
///
/// The coarse stage is `t_coarse + t_comm`: the shared-memory hand-off
/// rides with the kernel execution it feeds.
///
/// # Examples
///
/// ```
/// use amdrel_core::{pipeline_report, Breakdown, Stage};
///
/// let per_frame = Breakdown {
///     t_fpga: 600,
///     t_coarse_cgc: 900,
///     t_coarse: 300,
///     t_comm: 100,
/// };
/// let report = pipeline_report(&per_frame, 100);
/// assert_eq!(report.interval, 600); // FPGA-bound
/// assert_eq!(report.bottleneck, Stage::FineGrain);
/// assert!(report.speedup() > 1.5);
/// ```
pub fn pipeline_report(per_frame: &Breakdown, frames: u64) -> PipelineReport {
    let fpga_stage = per_frame.t_fpga;
    let coarse_stage = per_frame.t_coarse + per_frame.t_comm;
    let interval = fpga_stage.max(coarse_stage);
    let t_total = per_frame.t_total();
    let sequential_cycles = frames.saturating_mul(t_total);
    let pipelined_cycles = if frames == 0 {
        0
    } else {
        t_total + (frames - 1).saturating_mul(interval)
    };
    let bottleneck = if fpga_stage >= coarse_stage {
        Stage::FineGrain
    } else {
        Stage::CoarseGrain
    };
    let (fpga_utilization, cgc_utilization) = if interval == 0 {
        (0.0, 0.0)
    } else {
        (
            fpga_stage as f64 / interval as f64,
            coarse_stage as f64 / interval as f64,
        )
    };
    PipelineReport {
        frames,
        interval,
        sequential_cycles,
        pipelined_cycles,
        bottleneck,
        fpga_utilization,
        cgc_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(t_fpga: u64, t_coarse: u64, t_comm: u64) -> Breakdown {
        Breakdown {
            t_fpga,
            t_coarse_cgc: t_coarse * 3,
            t_coarse,
            t_comm,
        }
    }

    #[test]
    fn interval_is_the_slower_stage() {
        let r = pipeline_report(&breakdown(500, 300, 100), 10);
        assert_eq!(r.interval, 500);
        assert_eq!(r.bottleneck, Stage::FineGrain);
        let r = pipeline_report(&breakdown(200, 300, 150), 10);
        assert_eq!(r.interval, 450);
        assert_eq!(r.bottleneck, Stage::CoarseGrain);
    }

    #[test]
    fn balanced_stages_approach_2x() {
        let r = pipeline_report(&breakdown(400, 300, 100), 1000);
        assert!(r.speedup() > 1.95, "speedup {}", r.speedup());
        assert!((r.asymptotic_speedup() - 2.0).abs() < 1e-9);
        assert!((r.fpga_utilization - 1.0).abs() < 1e-9);
        assert!((r.cgc_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_frame_gains_nothing() {
        let b = breakdown(400, 300, 100);
        let r = pipeline_report(&b, 1);
        assert_eq!(r.pipelined_cycles, b.t_total());
        assert_eq!(r.sequential_cycles, b.t_total());
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_frames_are_zero_cycles() {
        let r = pipeline_report(&breakdown(400, 300, 100), 0);
        assert_eq!(r.pipelined_cycles, 0);
        assert_eq!(r.sequential_cycles, 0);
    }

    #[test]
    fn lopsided_pipeline_has_idle_unit() {
        let r = pipeline_report(&breakdown(1000, 50, 10), 100);
        assert_eq!(r.bottleneck, Stage::FineGrain);
        assert!(r.cgc_utilization < 0.1);
        assert!(r.speedup() < 1.1, "little to gain when one stage dominates");
    }

    #[test]
    fn pipelined_never_slower_than_sequential() {
        for (f, c, m, n) in [
            (10u64, 10u64, 0u64, 5u64),
            (0, 7, 3, 9),
            (123, 456, 78, 1000),
        ] {
            let r = pipeline_report(&breakdown(f, c, m), n);
            assert!(r.pipelined_cycles <= r.sequential_cycles);
        }
    }
}
