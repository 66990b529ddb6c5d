//! Hand-rolled machine-readable JSON rendering, shared by every `--json`
//! output in the workspace.
//!
//! The workspace has no serialisation dependency, so `amdrel sweep --json`,
//! `amdrel explore --json` and `amdrel simulate --json` all render
//! through this one module instead of growing per-crate copies. Output
//! is deterministic: fixed key order, `\u` escapes for control
//! characters, and fixed-precision floats.

use crate::cache::CacheStats;
use crate::experiment::ExperimentGrid;
use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a list of strings as a JSON array literal (each element
/// escaped), e.g. `["cycles","area"]`.
pub fn string_array<S: AsRef<str>>(items: &[S]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(item.as_ref()));
    }
    out.push(']');
    out
}

/// Render a list of `u64`s as a JSON array literal, e.g. `[1,2,3]`.
pub fn u64_array(items: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

/// Render mapping-cache counters as a JSON object.
pub fn cache_to_json(stats: &CacheStats) -> String {
    format!(
        "{{\"fine_misses\":{},\"fine_hits\":{},\"coarse_misses\":{},\"coarse_hits\":{},\
         \"entries\":{}}}",
        stats.fine_misses, stats.fine_hits, stats.coarse_misses, stats.coarse_hits, stats.entries
    )
}

/// Publish mapping-cache counters into `metrics` under the `cache.`
/// prefix (the shared shape of every `--json` report's cache metrics).
pub fn publish_cache_metrics(metrics: &mut MetricsRegistry, stats: &CacheStats) {
    metrics.set("cache.fine_hits", stats.fine_hits);
    metrics.set("cache.fine_misses", stats.fine_misses);
    metrics.set("cache.coarse_hits", stats.coarse_hits);
    metrics.set("cache.coarse_misses", stats.coarse_misses);
    metrics.set("cache.entries", stats.entries);
}

/// Render an [`ExperimentGrid`] (the `sweep` subcommand's result) plus
/// its cache counters as JSON.
pub fn grid_to_json(grid: &ExperimentGrid, cache: &CacheStats) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"amdrel-sweep/v2\",\n");
    let _ = writeln!(out, "  \"app\": \"{}\",", escape(&grid.app));
    let _ = writeln!(out, "  \"constraint\": {},", grid.constraint);
    out.push_str("  \"cells\": [\n");
    for (i, cell) in grid.cells.iter().enumerate() {
        let moved: Vec<String> = cell
            .result
            .moved_blocks()
            .iter()
            .map(|b| b.index().to_string())
            .collect();
        let _ = write!(
            out,
            "    {{\"area\":{},\"datapath\":\"{}\",\"initial_cycles\":{},\"final_cycles\":{},\
             \"cycles_in_cgc\":{},\"moved_blocks\":[{}],\"reduction_percent\":{:.2},\"met\":{}}}",
            cell.area,
            escape(&cell.datapath),
            cell.result.initial_cycles,
            cell.result.final_cycles(),
            cell.result.breakdown.t_coarse_cgc,
            moved.join(","),
            cell.result.reduction_percent(),
            cell.result.met,
        );
        out.push_str(if i + 1 == grid.cells.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"cache\": {},", cache_to_json(cache));
    let mut metrics = MetricsRegistry::new();
    publish_cache_metrics(&mut metrics, cache);
    let (mut moves, mut reverts) = (0u64, 0u64);
    for cell in &grid.cells {
        moves += cell.result.moves.len() as u64;
        reverts += cell.result.moves_reverted;
    }
    metrics.set("engine.moves", moves);
    metrics.set("engine.reverts", reverts);
    metrics.set("engine.cells", grid.cells.len() as u64);
    let _ = writeln!(out, "  \"metrics\": {}", metrics.to_json());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn array_helpers_render_literals() {
        assert_eq!(string_array(&["a", "b\"c"]), "[\"a\", \"b\\\"c\"]");
        assert_eq!(string_array::<&str>(&[]), "[]");
        assert_eq!(u64_array(&[1, 22, 333]), "[1,22,333]");
        assert_eq!(u64_array(&[]), "[]");
    }

    #[test]
    fn cache_json_shape() {
        let json = cache_to_json(&CacheStats::default());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"fine_misses\":0"));
    }
}
