//! The committed `BENCH_*.json` baselines, pinned byte for byte: every
//! entry of [`amdrel_bench::baselines::FILES`] is rendered from library
//! calls and compared with the file of that name at the repository
//! root, so a drift in any committed number, in the library behind it
//! or in its renderer fails here, naming the file, the first differing
//! line and both versions of it. One test per row group renders only
//! that group and finds it verbatim in its file, so a drift also names
//! the rows it moved. The files hold no wall-clock field: timing lives
//! in `perfbench/`.

use amdrel_bench::baselines::{self, FILES};
use std::path::Path;

/// The committed baseline `name` at the repository root.
fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The first line where `committed` and `rendered` differ, as
/// `(1-based line number, committed line, rendered line)`; a side that
/// ends first reads `<end of file>`.
fn first_difference<'a>(committed: &'a str, rendered: &'a str) -> (usize, &'a str, &'a str) {
    let mut committed = committed.split('\n');
    let mut rendered = rendered.split('\n');
    let mut line = 1;
    loop {
        match (committed.next(), rendered.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return (
                    line,
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>"),
                )
            }
        }
    }
}

#[test]
fn committed_baselines_match_their_renderers_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut committed_names: Vec<String> = std::fs::read_dir(root)
        .expect("the repository root is readable")
        .map(|entry| {
            let name = entry.expect("a readable directory entry").file_name();
            name.to_string_lossy().into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed_names.sort();
    let mut rendered_names: Vec<&str> = FILES.iter().map(|&(name, _)| name).collect();
    rendered_names.sort_unstable();
    assert_eq!(
        committed_names, rendered_names,
        "the repository root must hold exactly the baselines `FILES` renders"
    );

    let mut drifted = Vec::new();
    for (name, render) in FILES {
        let committed = committed(name);
        let rendered = render();
        if rendered != committed {
            let (line, was, now) = first_difference(&committed, &rendered);
            drifted.push(format!(
                "{name}:{line} differs\n  committed: {was}\n  rendered:  {now}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "rendered baselines differ from the committed files (rerun \
         `cargo run --release --example bench_report` only if the change \
         means to move these numbers):\n{}",
        drifted.join("\n")
    );
}

/// Panics unless the committed baseline `name` holds `rows`, whole lines
/// rendered from library calls that open with a top-level `"key":`,
/// verbatim from that key's line on; names the first differing line and
/// both versions of it.
fn assert_rows_committed(name: &str, rows: &str) {
    let committed = committed(name);
    let key = &rows[..=rows.find(':').expect("the rows open with a key")];
    let start = committed
        .lines()
        .position(|line| line.starts_with(key))
        .unwrap_or_else(|| panic!("{name} has no {key} line"));
    let at: String = committed
        .split_inclusive('\n')
        .skip(start)
        .take(rows.split_inclusive('\n').count())
        .collect();
    if at != rows {
        let (line, was, now) = first_difference(&at, rows);
        panic!(
            "{name}:{} differs\n  committed: {was}\n  rendered:  {now}",
            start + line
        );
    }
}

#[test]
fn bench_explore_strategy_rows_replay_from_the_library() {
    assert_rows_committed("BENCH_explore.json", &baselines::explore_strategy_rows());
}

#[test]
fn bench_explore_contention_frontiers_replay_from_the_library() {
    assert_rows_committed(
        "BENCH_explore_contention.json",
        &baselines::explore_contention_frontiers(),
    );
}

#[test]
fn bench_runtime_policy_rows_replay_from_the_library() {
    assert_rows_committed("BENCH_runtime.json", &baselines::runtime_policy_rows());
}

#[test]
fn bench_runtime_reliability_row_replays_from_the_library() {
    assert_rows_committed("BENCH_runtime.json", &baselines::runtime_reliability_row());
}

#[test]
fn bench_runtime_floorplan_row_replays_from_the_library() {
    assert_rows_committed("BENCH_runtime.json", &baselines::runtime_floorplan_row());
}

#[test]
fn bench_runtime_scaling_and_sharded_rows_replay_from_the_library() {
    assert_rows_committed("BENCH_runtime.json", &baselines::runtime_scaling_rows());
}
