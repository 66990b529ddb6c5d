//! Paper-style experiment grids and their table rendering.
//!
//! Tables 2 and 3 of the paper evaluate four configurations per
//! application (`A_FPGA ∈ {1500, 5000}` × {two, three} 2×2 CGCs) against
//! one timing constraint. [`run_grid`] reproduces that sweep for any
//! analysed application; [`format_paper_table`] renders the result in the
//! paper's row layout.
//!
//! Two performance paths sit underneath:
//!
//! * every grid run goes through a [`MappingCache`], so a sweep over `A`
//!   areas × `D` datapaths computes exactly `A` fine-grain and `D`
//!   coarse-grain mappings instead of `A·D` of each (the fine-grain
//!   mapping depends only on the FPGA, the coarse-grain one only on the
//!   datapath);
//! * [`run_grid`] evaluates the cells (which are independent) on
//!   [`map_parallel`], the workspace's one scoped-thread fan-out, so the
//!   area-major output is identical at every `jobs` setting.

use crate::cache::MappingCache;
use crate::engine::{PartitionResult, PartitioningEngine};
use crate::platform::Platform;
use crate::CoreError;
use amdrel_cdfg::Cdfg;
use amdrel_coarsegrain::CgcDatapath;
use amdrel_profiler::AnalysisReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One cell of the experiment grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// `A_FPGA` of this configuration.
    pub area: u64,
    /// Datapath description (e.g. "two 2x2 CGCs").
    pub datapath: String,
    /// The partitioning outcome.
    pub result: PartitionResult,
}

/// A full experiment grid (one application, one constraint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentGrid {
    /// Application name.
    pub app: String,
    /// The timing constraint in FPGA cycles.
    pub constraint: u64,
    /// All evaluated cells, area-major.
    pub cells: Vec<GridCell>,
}

/// Everything a grid sweep needs besides the cache: the analysed
/// application, the base platform, and the swept dimensions.
///
/// `base` supplies everything except the FPGA area and the CGC datapath
/// (clock ratio, communication model, scheduler config, FPGA
/// characterisation other than total area).
#[derive(Debug, Clone, Copy)]
pub struct GridSpec<'a> {
    /// Application name (labels the grid).
    pub app: &'a str,
    /// The application CDFG.
    pub cdfg: &'a Cdfg,
    /// Its static+dynamic analysis.
    pub analysis: &'a AnalysisReport,
    /// The base platform (see type-level docs).
    pub base: &'a Platform,
    /// `A_FPGA` values to sweep.
    pub areas: &'a [u64],
    /// CGC datapaths to sweep.
    pub datapaths: &'a [CgcDatapath],
    /// The timing constraint, in FPGA cycles.
    pub constraint: u64,
}

impl GridSpec<'_> {
    fn cell(
        &self,
        area: u64,
        dp: &CgcDatapath,
        cache: &MappingCache,
    ) -> Result<GridCell, CoreError> {
        let mut platform = self.base.clone();
        platform.fpga.total_area = area;
        platform.datapath = dp.clone();
        let result = PartitioningEngine::new(self.cdfg, self.analysis, &platform)
            .with_mapping_cache(cache)
            .run(self.constraint)?;
        Ok(GridCell {
            area,
            datapath: dp.describe(),
            result,
        })
    }
}

/// Run the engine over every `(area, datapath)` cell of `spec` on up to
/// `jobs` scoped threads ([`map_parallel`]; 0 = one per available core,
/// 1 = sequential on the calling thread).
///
/// Every cell goes through `cache`, so a grid over `A` areas and `D`
/// datapaths performs exactly `A` fine-grain and `D` coarse-grain
/// mappings, and one cache shared across grids (e.g. sweeping several
/// constraints) maps each configuration once. The output is identical
/// cell for cell at every worker count: results land in area-major
/// order, and on error the first failing cell *in grid order* is
/// reported, regardless of thread timing.
///
/// # Errors
///
/// The first configuration (in area-major grid order) whose mapping
/// fails.
pub fn run_grid(
    spec: &GridSpec<'_>,
    cache: &MappingCache,
    jobs: usize,
) -> Result<ExperimentGrid, CoreError> {
    let configs: Vec<(u64, &CgcDatapath)> = spec
        .areas
        .iter()
        .flat_map(|&area| spec.datapaths.iter().map(move |dp| (area, dp)))
        .collect();
    let cells = map_parallel(&configs, jobs, |&(area, dp)| spec.cell(area, dp, cache))
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(ExperimentGrid {
        app: spec.app.to_owned(),
        constraint: spec.constraint,
        cells,
    })
}

/// The workers a `jobs` knob asks for: `jobs` itself, or one per
/// available core when it is 0 (automatic).
fn worker_count(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
        n => n,
    }
}

/// `f` over `items` on up to `jobs` scoped threads (0 = one per available
/// core), in item order — the workspace's one fan-out. Workers claim the
/// next unclaimed item, so uneven item costs balance; each result lands
/// in its item's slot, so the output does not depend on which thread ran
/// what. With one worker (or at most one item) `f` runs on the calling
/// thread.
pub fn map_parallel<T: Sync, R: Send + Sync>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = worker_count(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let _ = slots[i].set(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every item is claimed once"))
        .collect()
}

/// Render the grid in the layout of the paper's Tables 2/3:
///
/// ```text
///                    A_FPGA=1500            A_FPGA=5000
/// Initial cycles     <initial>              <initial>
/// CGCs no.           two 2x2   three 2x2    two 2x2   three 2x2
/// Cycles in CGC      …         …            …         …
/// BB no.             …         …            …         …
/// Final cycles       …         …            …         …
/// % cycles reduction …         …            …         …
/// ```
pub fn format_paper_table(grid: &ExperimentGrid) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} partitioning results for timing constraint of {} cycles",
        grid.app, grid.constraint
    );
    let areas: Vec<u64> = {
        let mut a: Vec<u64> = grid.cells.iter().map(|c| c.area).collect();
        a.dedup();
        a
    };
    let col = 14usize;

    // Header: areas span their datapath columns.
    let mut header = format!("{:<20}", "");
    for &area in &areas {
        let span = grid.cells.iter().filter(|c| c.area == area).count();
        header.push_str(&format!(
            "{:<width$}",
            format!("A_FPGA={area}"),
            width = col * span
        ));
    }
    let _ = writeln!(out, "{header}");

    let cells_for = |area: u64| grid.cells.iter().filter(move |c| c.area == area);

    let mut line = format!("{:<20}", "Initial cycles");
    for &area in &areas {
        let span = cells_for(area).count();
        let initial = cells_for(area)
            .next()
            .map(|c| c.result.initial_cycles)
            .unwrap_or(0);
        line.push_str(&format!("{:<width$}", initial, width = col * span));
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "CGCs no.");
    for &area in &areas {
        for c in cells_for(area) {
            let dp = c.datapath.trim_end_matches(" CGCs");
            line.push_str(&format!("{:<col$}", dp));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "Cycles in CGC");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$}", c.result.breakdown.t_coarse_cgc));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "BB no.");
    for &area in &areas {
        for c in cells_for(area) {
            let moved = c.result.moved_blocks();
            let shown: Vec<String> = moved
                .iter()
                .take(3)
                .map(|b| b.index().to_string())
                .collect();
            let text = if moved.len() > 3 {
                format!("{}+{}", shown.join(","), moved.len() - 3)
            } else {
                shown.join(",")
            };
            line.push_str(&format!("{:<col$}", text));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "Final cycles");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$}", c.result.final_cycles()));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "% cycles reduction");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$.1}", c.result.reduction_percent()));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "constraint met");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!(
                "{:<col$}",
                if c.result.met { "yes" } else { "NO" }
            ));
        }
    }
    let _ = writeln!(out, "{line}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_app() -> (crate::Analyzed, u64) {
        let src = r#"
            int data[128];
            int main() {
                int acc = 0;
                for (int i = 0; i < 128; i++) {
                    acc += data[i] * data[i] * 5 + data[i];
                }
                return acc;
            }
        "#;
        let app = crate::analyze(src, &[]).unwrap();
        let base = Platform::paper(1500, 2);
        let initial = PartitioningEngine::new(&app.program.cdfg, &app.analysis, &base)
            .run(u64::MAX)
            .unwrap()
            .initial_cycles;
        (app, initial)
    }

    fn grid() -> ExperimentGrid {
        let (app, initial) = toy_app();
        let spec = GridSpec {
            app: "toy",
            cdfg: &app.program.cdfg,
            analysis: &app.analysis,
            base: &Platform::paper(1500, 2),
            areas: &[1500, 5000],
            datapaths: &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
            constraint: initial / 2,
        };
        run_grid(&spec, &MappingCache::new(), 1).unwrap()
    }

    #[test]
    fn grid_has_four_cells() {
        let g = grid();
        assert_eq!(g.cells.len(), 4);
        assert_eq!(g.cells[0].area, 1500);
        assert_eq!(g.cells[3].area, 5000);
    }

    #[test]
    fn larger_area_smaller_initial() {
        let g = grid();
        let initial_1500 = g.cells[0].result.initial_cycles;
        let initial_5000 = g.cells[2].result.initial_cycles;
        assert!(initial_5000 <= initial_1500);
    }

    #[test]
    fn parallel_grid_equals_sequential() {
        let (app, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [
            CgcDatapath::two_2x2(),
            CgcDatapath::three_2x2(),
            CgcDatapath::uniform(1, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO),
        ];
        let spec = GridSpec {
            app: "toy",
            cdfg: &app.program.cdfg,
            analysis: &app.analysis,
            base: &base,
            areas: &[1200, 1500, 5000],
            datapaths: &datapaths,
            constraint: initial / 2,
        };
        let sequential = run_grid(&spec, &MappingCache::new(), 1).unwrap();
        let parallel = run_grid(&spec, &MappingCache::new(), 0).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (app, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [
            CgcDatapath::two_2x2(),
            CgcDatapath::three_2x2(),
            CgcDatapath::uniform(4, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO),
        ];
        let spec = GridSpec {
            app: "toy",
            cdfg: &app.program.cdfg,
            analysis: &app.analysis,
            base: &base,
            areas: &[1200, 1500, 5000],
            datapaths: &datapaths,
            constraint: initial / 2,
        };
        let sequential = run_grid(&spec, &MappingCache::new(), 1).unwrap();
        for jobs in [1usize, 2, 7, 64] {
            let grid = run_grid(&spec, &MappingCache::new(), jobs).unwrap();
            assert_eq!(grid, sequential, "jobs={jobs} diverged from sequential");
        }
        // A mappable area followed by two too small for the 32-bit
        // multiplier: every worker count reports the first failing cell
        // in area-major order, whichever thread reached a failure first.
        let failing = GridSpec {
            areas: &[1500, 400, 700],
            ..spec
        };
        let error = |jobs| {
            run_grid(&failing, &MappingCache::new(), jobs)
                .unwrap_err()
                .to_string()
        };
        let first = error(1);
        let usable = Platform::paper(400, 2).fpga.usable_area();
        assert!(
            first.ends_with(&format!("only {usable} are usable")),
            "{first}"
        );
        for jobs in [1usize, 2, 7, 64] {
            assert_eq!(error(jobs), first, "jobs={jobs} reported another cell");
        }
    }

    #[test]
    fn map_parallel_keeps_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
        // Sequential, fewer workers than items, more workers than items.
        for jobs in [0usize, 1, 2, 7, 64] {
            assert_eq!(
                map_parallel(&items, jobs, |x| x * x),
                squares,
                "jobs={jobs}"
            );
        }
        assert!(map_parallel(&[] as &[u64], 4, |x| x * x).is_empty());
    }

    #[test]
    fn grid_computes_a_plus_d_mappings() {
        let (app, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
        let areas = [1200u64, 1500, 5000];
        let spec = GridSpec {
            app: "toy",
            cdfg: &app.program.cdfg,
            analysis: &app.analysis,
            base: &base,
            areas: &areas,
            datapaths: &datapaths,
            // Tight enough that no cell exits at step 2, so every cell
            // demands both mappings.
            constraint: 1,
        };
        let cache = MappingCache::new();
        // Sweep several constraints through one cache: an A×D×C sweep
        // still computes only A fine-grain and D coarse-grain mappings.
        for divisor in [1u64, 2, 4] {
            let spec = GridSpec {
                constraint: (initial / divisor).max(1),
                ..spec
            };
            run_grid(&spec, &cache, 1).unwrap();
        }
        run_grid(&spec, &cache, 0).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.fine_misses, areas.len() as u64);
        assert_eq!(stats.coarse_misses, datapaths.len() as u64);
        // 4 sweeps × (3 areas × 2 datapaths) cells, minus one lookup per miss.
        assert_eq!(stats.fine_hits, 4 * 6 - 3);
        // Step-2 exits skip the coarse lookup, so only a lower bound holds.
        assert!(stats.coarse_hits >= 6 - 2);
    }

    #[test]
    fn table_contains_all_rows() {
        let g = grid();
        let t = format_paper_table(&g);
        for row in [
            "Initial cycles",
            "CGCs no.",
            "Cycles in CGC",
            "BB no.",
            "Final cycles",
            "% cycles reduction",
        ] {
            assert!(t.contains(row), "missing row {row} in:\n{t}");
        }
        assert!(t.contains("A_FPGA=1500") && t.contains("A_FPGA=5000"));
    }
}
