//! `amdrel` — command-line driver for the partitioning methodology.
//!
//! `amdrel --help` lists every subcommand with its flags, and `amdrel
//! <cmd> --help` prints one. A subcommand refuses any flag its usage
//! does not name.
//!
//! Sources are mini-C (see the `amdrel-minic` crate docs for the accepted
//! subset); `--input` binds global arrays before profiling. `dot` only
//! compiles its source and prints the CDFG, so it never runs the program
//! and takes no `--input`. `simulate` takes no source file — it plays a
//! seeded multi-tenant workload of the built-in case studies through the
//! runtime simulator.
//!
//! `explore --objectives` selects the minimised objective vector
//! (default `cycles,area,energy`). Adding `p95` and/or `throughput`
//! scores every candidate platform by simulating a seeded workload mix
//! on it — the source being explored plus the three built-in case
//! studies as background tenants — under `--policy` (default `fcfs`),
//! with `--njobs` jobs (default 64) at `--load` percent offered
//! fine-grain load (default 130). The arrival rate is pinned from the
//! background mix on the base platform, so every candidate platform
//! sees identical offered traffic. Without a runtime objective
//! `explore` simulates nothing, so it refuses the workload and fault
//! flags (`--policy`, `--njobs`, `--load`, `--fault-rate`,
//! `--fault-seed`, `--deadline`, `--max-retries`, `--degrade`) instead
//! of ignoring them.
//!
//! `--reconfig` selects the reconfiguration cost model shared by
//! `simulate` and `explore`: `streamed` (the default) prices every load
//! by the full logical footprint on one monolithic fabric; `region`
//! floorplans all tenants jointly onto a region grid — `--regions N`
//! horizontal bands or `--region-shape RxC` rectangles (default 4
//! bands) — and a dispatch reloads only the stale regions its
//! configuration touches, priced by *region* area; `free` is the
//! zero-cost ablation. `--regions` and `--region-shape` are mutually
//! exclusive with each other and with an explicit `--reconfig
//! streamed|free` (either flag implies `--reconfig region`).
//! `--no-config-cache` composes with `streamed` and `region` (every
//! dispatch reloads; in region mode every touched region is treated as
//! stale) but is a no-op under `--reconfig free`, where loads cost
//! nothing whether cached or not — the same holds for `--prefetch`.
//! With one region, `--reconfig region` output is byte-identical to
//! `streamed`. `explore` prices the static `fragmentation` /
//! `worst_region_load` objectives on the same grid (a shape contributes
//! `R×C` uniform regions).
//!
//! The fault flags drive the deterministic fault-injection layer:
//! `--fault-rate` is a per-mille probability (0..=1000) applied to
//! reconfiguration loads, in-flight fine-grain phases, and CGC slots;
//! `--fault-seed` seeds the fault streams independently of the workload
//! seed; `--deadline` reaps jobs still queued after that many cycles;
//! `--max-retries` bounds recovery attempts per phase; `--degrade`
//! reroutes retry-exhausted jobs to a coarse-grain-only fallback
//! instead of aborting them. `--fault-rate 0` (the default) is exactly
//! the fault-free simulator: output is byte-identical.
//!
//! Observability: `--trace FILE` writes the run's deterministic event
//! trace — per-job lifecycle spans on per-resource tracks (scheduler,
//! fabric, CGC slots, regions), timestamped in simulated cycles — in
//! the format `--trace-format` selects: `chrome` (default; the
//! `amdrel-trace/v1` Chrome trace-event JSON, loadable in Perfetto /
//! `chrome://tracing`) or `text` (a plain timeline plus a gantt-style
//! per-resource view); `simulate` and `explore` refuse `--trace-format`
//! without `--trace`. On `explore`, `--trace` requires a runtime
//! objective and traces the contention run of the best frontier point
//! after the search. `amdrel trace` is `simulate` that prints the trace
//! itself to stdout (or `--trace FILE`) instead of the report. Tracing
//! is a pure observer: reports are byte-identical with or without it,
//! and repeated runs produce byte-identical traces. `--profile` prints
//! an `amdrel-profile/v1` wall-clock phase breakdown to **stderr**
//! (never stdout — wall time is nondeterministic and stays out of every
//! deterministic artefact).
//!
//! `--shards K` (default 1) partitions the tenants of `simulate` /
//! `trace` across `K` independent platform replicas (application `i`
//! lives on shard `i % K`) run on scoped threads and folded back with a
//! deterministic shard-order merge. `--shards 1` is byte-identical to
//! the classic single-threaded run; at `K >= 2` the tenants on
//! different shards no longer contend, so the shard count is part of
//! the simulated scenario, not a pure observer. A `K` above the number
//! of selected apps runs one shard per app: the other shards would
//! hold no tenant.
//!
//! Exit status: `amdrel <cmd> --help` prints that subcommand's usage on
//! stdout and exits 0; an unknown subcommand or malformed flags print
//! the usage on stderr and exit 1.

use amdrel::prelude::*;
use amdrel_coarsegrain::CgcDatapath;
use std::process::ExitCode;

const USAGE: &str = "usage: amdrel <analyze|partition|sweep|explore|simulate|trace|dot> [<src.c>] \
                     [flags] — run 'amdrel --help' for the full flag list";

/// Per-subcommand usage lines (printed by `amdrel <cmd> --help` and on
/// subcommand-specific errors).
const SUBCOMMANDS: &[(&str, &str)] = &[
    (
        "analyze",
        "amdrel analyze <src.c> [--input name=v,v,..]... [--top N]",
    ),
    (
        "partition",
        "amdrel partition <src.c> --constraint N [--area A] [--cgcs K] \
         [--input name=v,v,..]... [--skip-unprofitable]",
    ),
    (
        "sweep",
        "amdrel sweep <src.c> --constraint N [--areas A,A,..] [--cgc-list K,K,..] \
         [--jobs N] [--json] [--input name=v,v,..]...",
    ),
    (
        "explore",
        concat!(
            "amdrel explore <src.c> [flags]\n",
            "  search:\n",
            "    --strategy exhaustive|random|sa   --seed S   --budget N   --jobs N\n",
            "    --constraint N   --areas A,A,..   --cgc-list K,K,..   --max-kernels K\n",
            "    --objectives cycles,area,energy,fragmentation,worst_region_load,p95,",
            "throughput,p95_under_faults,degraded_share\n",
            "    --input name=v,v,.. (repeatable)\n",
            "  workload:\n",
            "    --policy fcfs|sjf|priority|affinity   --njobs N   --load PCT\n",
            "  faults:\n",
            "    --fault-rate PERMILLE   --fault-seed S   --deadline CYCLES\n",
            "    --max-retries N   --degrade\n",
            "    (workload and fault flags need a runtime objective)\n",
            "  regions:\n",
            "    --reconfig streamed|region|free   --regions N | --region-shape RxC\n",
            "    (--regions/--region-shape are mutually exclusive and imply ",
            "--reconfig region)\n",
            "  observability:\n",
            "    --json   --trace FILE   --trace-format chrome|text   --profile\n",
            "    (--trace needs a runtime objective; it traces the best frontier ",
            "point's contention run; --trace-format needs --trace)",
        ),
    ),
    (
        "simulate",
        concat!(
            "amdrel simulate [flags]\n",
            "  workload:\n",
            "    --app ofdm|jpeg|sobel (repeatable)   --policy fcfs|sjf|priority|affinity\n",
            "    --seed S   --njobs N   --load PCT | --arrival CYCLES   --queue-bound N\n",
            "    --no-config-cache   --prefetch   --sketch auto|exact|sketched\n",
            "    --area A   --cgcs K   --shards K\n",
            "  faults:\n",
            "    --fault-rate PERMILLE   --fault-seed S   --deadline CYCLES\n",
            "    --max-retries N   --degrade\n",
            "  regions:\n",
            "    --reconfig streamed|region|free   --regions N | --region-shape RxC\n",
            "    (region flags imply --reconfig region; --no-config-cache composes ",
            "with --reconfig region but both it and --prefetch are no-ops under ",
            "--reconfig free)\n",
            "  observability:\n",
            "    --json   --trace FILE   --trace-format chrome|text   --profile\n",
            "    (--trace-format needs --trace)\n",
            "  (--load/--arrival and --regions/--region-shape are mutually exclusive pairs)",
        ),
    ),
    (
        "trace",
        "amdrel trace [simulate flags] [--trace FILE] [--trace-format chrome|text] \
         — run the simulate workload and emit its deterministic event trace to \
         stdout (or FILE) instead of the report",
    ),
    ("dot", "amdrel dot <src.c> [--block N]"),
];

fn usage_for(cmd: &str) -> Option<&'static str> {
    SUBCOMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, usage)| *usage)
}

/// Whether `command`'s usage text names `flag` as a whole word
/// (`--area` does not match `--areas`).
fn takes_flag(command: &str, flag: &str) -> bool {
    if command == "trace" {
        // `trace` prints the trace instead of the report, so it takes
        // `simulate`'s flags except `--json`.
        return flag != "--json" && takes_flag("simulate", flag);
    }
    let usage = usage_for(command).unwrap_or_default();
    usage.match_indices(flag).any(|(at, _)| {
        !usage[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// The most CGCs a platform may have. The paper's platforms have 2 or
/// 3, and every CGC is a simulator slot that each event scans: a
/// 20,000-job `simulate` at 300% load takes about 100 ms with 2 CGCs,
/// 165 ms with 1,024 and 1.4 s with 16,384 (2-vCPU host), and the
/// largest counts cannot be allocated at all.
const MAX_CGCS: usize = 1024;

fn parse_cgc_count(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(k @ 1..=MAX_CGCS) => Ok(k),
        Ok(k) => Err(format!(
            "{flag} takes CGC counts in 1..={MAX_CGCS} (got {k})"
        )),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    source_path: String,
    inputs: Vec<(String, Vec<i64>)>,
    constraint: Option<u64>,
    area: u64,
    cgcs: usize,
    areas: Vec<u64>,
    cgc_list: Vec<usize>,
    top: usize,
    block: Option<u32>,
    skip_unprofitable: bool,
    strategy: String,
    seed: u64,
    budget: usize,
    jobs: usize,
    json: bool,
    max_kernels: usize,
    objectives: String,
    apps: Vec<String>,
    policy: String,
    njobs: usize,
    arrival: Option<u64>,
    load: Option<u64>,
    queue_bound: usize,
    no_config_cache: bool,
    prefetch: bool,
    sketch: String,
    fault_rate: u16,
    fault_seed: u64,
    deadline: Option<u64>,
    max_retries: u32,
    degrade: bool,
    reconfig: Option<String>,
    regions: Option<usize>,
    region_shape: Option<(usize, usize)>,
    shards: usize,
    trace: Option<String>,
    trace_format: String,
    profile: bool,
    /// Every flag on the command line, in order: a default value looks
    /// the same as a typed one, so refusing a flag needs this.
    given: Vec<String>,
}

impl Options {
    /// Whether `flag` was on the command line.
    fn given(&self, flag: &str) -> bool {
        self.given.iter().any(|f| f == flag)
    }
}

/// The `explore` flags only its runtime scorer reads: without a runtime
/// objective no simulation runs, and each of them would change nothing.
const RUNTIME_FLAGS: [&str; 8] = [
    "--policy",
    "--njobs",
    "--load",
    "--fault-rate",
    "--fault-seed",
    "--deadline",
    "--max-retries",
    "--degrade",
];

/// The objectives that run the runtime scorer, as error messages name
/// them.
const RUNTIME_OBJECTIVES: &str = "p95, throughput, p95_under_faults or degraded_share";

/// Whether a subcommand takes a mini-C source file as its positional
/// argument (`simulate` and `trace` run the built-in case studies
/// instead).
fn needs_source(command: &str) -> bool {
    !matches!(command, "simulate" | "trace")
}

fn parse_options(args: &[String], command: &str) -> Result<Options, String> {
    let mut opts = Options {
        source_path: String::new(),
        inputs: Vec::new(),
        constraint: None,
        area: 1500,
        cgcs: 2,
        areas: vec![1500, 5000],
        cgc_list: vec![2, 3],
        top: 8,
        block: None,
        skip_unprofitable: false,
        strategy: "sa".to_owned(),
        seed: 42,
        budget: 64,
        jobs: 0,
        json: false,
        max_kernels: 8,
        objectives: "cycles,area,energy".to_owned(),
        apps: Vec::new(),
        policy: "fcfs".to_owned(),
        njobs: 64,
        arrival: None,
        load: None,
        queue_bound: 0,
        no_config_cache: false,
        prefetch: false,
        sketch: "auto".to_owned(),
        fault_rate: 0,
        fault_seed: 7,
        deadline: None,
        max_retries: 3,
        degrade: false,
        reconfig: None,
        regions: None,
        region_shape: None,
        shards: 1,
        trace: None,
        trace_format: "chrome".to_owned(),
        profile: false,
        given: Vec::new(),
    };
    let mut it = args.iter().peekable();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        if arg.starts_with("--")
            && !takes_flag(command, arg)
            && SUBCOMMANDS.iter().any(|(cmd, _)| takes_flag(cmd, arg))
        {
            return Err(format!("{command} does not take {arg}"));
        }
        if arg.starts_with("--") {
            opts.given.push(arg.clone());
        }
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--input" => {
                let v = value_of("--input")?;
                let (name, data) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--input wants name=v,v,.. (got '{v}')"))?;
                let values = data
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|e| format!("input '{name}': {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                opts.inputs.push((name.to_owned(), values));
            }
            "--constraint" => {
                opts.constraint = Some(
                    value_of("--constraint")?
                        .parse()
                        .map_err(|e| format!("--constraint: {e}"))?,
                );
            }
            "--area" => {
                opts.area = value_of("--area")?
                    .parse()
                    .map_err(|e| format!("--area: {e}"))?;
            }
            "--cgcs" => opts.cgcs = parse_cgc_count("--cgcs", &value_of("--cgcs")?)?,
            "--areas" => {
                opts.areas = value_of("--areas")?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>().map_err(|e| format!("--areas: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--cgc-list" => {
                opts.cgc_list = value_of("--cgc-list")?
                    .split(',')
                    .map(|s| parse_cgc_count("--cgc-list", s.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--top" => {
                opts.top = value_of("--top")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--block" => {
                opts.block = Some(
                    value_of("--block")?
                        .parse()
                        .map_err(|e| format!("--block: {e}"))?,
                );
            }
            "--skip-unprofitable" => opts.skip_unprofitable = true,
            "--strategy" => opts.strategy = value_of("--strategy")?,
            "--seed" => {
                opts.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--budget" => {
                opts.budget = value_of("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--jobs" => {
                opts.jobs = value_of("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--json" => opts.json = true,
            "--max-kernels" => {
                opts.max_kernels = value_of("--max-kernels")?
                    .parse()
                    .map_err(|e| format!("--max-kernels: {e}"))?;
            }
            "--objectives" => opts.objectives = value_of("--objectives")?,
            "--app" => {
                let v = value_of("--app")?;
                opts.apps
                    .extend(v.split(',').filter(|s| !s.is_empty()).map(str::to_owned));
            }
            "--policy" => opts.policy = value_of("--policy")?,
            "--njobs" => {
                opts.njobs = value_of("--njobs")?
                    .parse()
                    .map_err(|e| format!("--njobs: {e}"))?;
            }
            "--arrival" => {
                let arrival: u64 = value_of("--arrival")?
                    .parse()
                    .map_err(|e| format!("--arrival: {e}"))?;
                if arrival == 0 {
                    return Err("--arrival must be a positive cycle count".to_owned());
                }
                opts.arrival = Some(arrival);
            }
            "--load" => {
                let load: u64 = value_of("--load")?
                    .parse()
                    .map_err(|e| format!("--load: {e}"))?;
                if load == 0 {
                    return Err("--load must be a positive percentage".to_owned());
                }
                opts.load = Some(load);
            }
            "--queue-bound" => {
                opts.queue_bound = value_of("--queue-bound")?
                    .parse()
                    .map_err(|e| format!("--queue-bound: {e}"))?;
            }
            "--no-config-cache" => opts.no_config_cache = true,
            "--prefetch" => opts.prefetch = true,
            "--sketch" => opts.sketch = value_of("--sketch")?,
            "--fault-rate" => {
                let rate: u16 = value_of("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("--fault-rate: {e}"))?;
                if rate > 1000 {
                    return Err(format!(
                        "--fault-rate is permille and must be 0..=1000 (got {rate})"
                    ));
                }
                opts.fault_rate = rate;
            }
            "--fault-seed" => {
                opts.fault_seed = value_of("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--deadline" => {
                let deadline: u64 = value_of("--deadline")?
                    .parse()
                    .map_err(|e| format!("--deadline: {e}"))?;
                if deadline == 0 {
                    return Err("--deadline must be a positive cycle count".to_owned());
                }
                opts.deadline = Some(deadline);
            }
            "--max-retries" => {
                opts.max_retries = value_of("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--degrade" => opts.degrade = true,
            "--shards" => {
                let shards: usize = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be a positive shard count".to_owned());
                }
                opts.shards = shards;
            }
            "--trace" => opts.trace = Some(value_of("--trace")?),
            "--trace-format" => {
                let v = value_of("--trace-format")?;
                if !matches!(v.as_str(), "chrome" | "text") {
                    return Err(format!(
                        "unknown trace format '{v}' (expected chrome or text)"
                    ));
                }
                opts.trace_format = v;
            }
            "--profile" => opts.profile = true,
            "--reconfig" => opts.reconfig = Some(value_of("--reconfig")?),
            "--regions" => {
                let n: usize = value_of("--regions")?
                    .parse()
                    .map_err(|e| format!("--regions: {e}"))?;
                if n == 0 {
                    return Err("--regions must be a positive region count".to_owned());
                }
                opts.regions = Some(n);
            }
            "--region-shape" => {
                let v = value_of("--region-shape")?;
                let (r, c) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--region-shape wants RxC, e.g. 2x2 (got '{v}')"))?;
                let rows: usize = r
                    .trim()
                    .parse()
                    .map_err(|e| format!("--region-shape rows: {e}"))?;
                let cols: usize = c
                    .trim()
                    .parse()
                    .map_err(|e| format!("--region-shape cols: {e}"))?;
                if rows == 0 || cols == 0 {
                    return Err("--region-shape needs positive dimensions".to_owned());
                }
                opts.region_shape = Some((rows, cols));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => positional.push(other.to_owned()),
        }
    }
    match (needs_source(command), positional.len()) {
        (true, 0) => Err("missing source file".to_owned()),
        (true, 1) => {
            opts.source_path = positional.into_iter().next().expect("len checked");
            Ok(opts)
        }
        (false, 0) => Ok(opts),
        _ => Err(format!("unexpected arguments: {positional:?}")),
    }
}

/// Resolve the `--reconfig`/`--regions`/`--region-shape` selection:
/// `Ok(None)` for the classic full-fabric models (`streamed`, `free`),
/// `Ok(Some((rows, cols)))` for region mode. Either region flag implies
/// `--reconfig region`; a bare `--reconfig region` defaults to 4
/// horizontal bands.
fn region_grid(opts: &Options) -> Result<Option<(usize, usize)>, String> {
    let mode = opts.reconfig.as_deref();
    if let Some(m) = mode {
        if !matches!(m, "streamed" | "region" | "free") {
            return Err(format!(
                "unknown reconfig model '{m}' (expected streamed, region or free)"
            ));
        }
    }
    if opts.regions.is_some() && opts.region_shape.is_some() {
        return Err("--regions and --region-shape are mutually exclusive".to_owned());
    }
    let flagged = opts.regions.is_some() || opts.region_shape.is_some();
    if flagged {
        if let Some(m @ ("streamed" | "free")) = mode {
            return Err(format!(
                "--regions/--region-shape are mutually exclusive with --reconfig {m} \
                 (they imply --reconfig region)"
            ));
        }
    }
    if !flagged && mode != Some("region") {
        return Ok(None);
    }
    Ok(Some(match (opts.regions, opts.region_shape) {
        (Some(n), _) => (n, 1),
        (_, Some(shape)) => shape,
        _ => (4, 1),
    }))
}

/// Reject a workload whose worst-case last arrival — every one of the
/// `njobs` gaps drawn at its maximum, `2 · mean_interarrival` — would
/// overflow the `u64` cycle clock.
fn check_arrival_horizon(mean_interarrival: u64, njobs: usize) -> Result<(), String> {
    u64::try_from(njobs)
        .ok()
        .and_then(|jobs| jobs.checked_mul(2))
        .and_then(|gaps| gaps.checked_mul(mean_interarrival))
        .map(|_| ())
        .ok_or_else(|| {
            format!(
                "{njobs} jobs at a mean inter-arrival of {mean_interarrival} cycles \
                 overflow the cycle clock (2 · arrival · njobs must fit in 64 bits)"
            )
        })
}

/// Build the fault-injection spec and recovery policy selected on the
/// command line. `--fault-rate 0` with no `--deadline` yields
/// [`FaultSpec::none`], which the simulator treats as exactly the
/// fault-free path (byte-identical output).
fn fault_config(opts: &Options) -> (FaultSpec, RecoveryPolicy) {
    let mut faults = FaultSpec::uniform(opts.fault_seed, opts.fault_rate);
    faults.deadline = opts.deadline.and_then(std::num::NonZeroU64::new);
    let recovery = RecoveryPolicy {
        max_retries: opts.max_retries,
        backoff: BackoffSchedule::default(),
        degrade: opts.degrade,
    };
    (faults, recovery)
}

fn read_source(opts: &Options) -> Result<String, String> {
    std::fs::read_to_string(&opts.source_path).map_err(|e| format!("{}: {e}", opts.source_path))
}

fn analyzed(opts: &Options) -> Result<(amdrel_minic::CompiledProgram, AnalysisReport), String> {
    let source = read_source(opts)?;
    let inputs: Vec<(&str, &[i64])> = opts
        .inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    // Report the frontend's or profiler's own message, unprefixed.
    let app = analyze(&source, &inputs).map_err(|e| {
        std::error::Error::source(&e).map_or_else(|| e.to_string(), ToString::to_string)
    })?;
    Ok((app.program, app.analysis))
}

/// Render a recorded event trace in the CLI's `--trace-format`.
///
/// `chrome` produces the `amdrel-trace/v1` Chrome trace-event JSON
/// (loadable in Perfetto or `chrome://tracing`); `text` produces the
/// plain timeline followed by the gantt-style per-resource view. The
/// format string was validated at parse time.
fn render_trace(events: &[TraceEvent], format: &str) -> String {
    match format {
        "text" => {
            let mut out = text_timeline(events);
            out.push_str(&resource_gantt(events, 72));
            out
        }
        _ => chrome_trace(events),
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(
            "usage: amdrel <analyze|partition|sweep|explore|simulate|trace|dot> [<src.c>] [flags] \
             (see --help)"
                .to_owned(),
        );
    };
    if command == "--help" || command == "help" {
        println!("amdrel — hybrid reconfigurable platform partitioning");
        for (_, usage) in SUBCOMMANDS {
            println!("  {usage}");
        }
        return Ok(());
    }
    let Some(cmd_usage) = usage_for(command) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown command '{command}' (expected one of: {})",
            names.join(", ")
        ));
    };
    if rest.iter().any(|a| a == "--help") {
        println!("usage: {cmd_usage}");
        return Ok(());
    }
    let opts = parse_options(rest, command).map_err(|e| format!("{e}\nusage: {cmd_usage}"))?;
    // `trace` renders to stdout without a file; the others only format
    // the file `--trace` names.
    if command != "trace" && opts.given("--trace-format") && opts.trace.is_none() {
        return Err("--trace-format formats the --trace file: give --trace FILE too".to_owned());
    }
    match command.as_str() {
        "analyze" => {
            let (program, analysis) = analyzed(&opts)?;
            println!(
                "{} basic blocks, {} operations",
                program.cdfg.len(),
                program.cdfg.total_ops()
            );
            print!(
                "{}",
                analysis.format_table1(
                    &format!("top {} kernels by total weight", opts.top),
                    opts.top
                )
            );
            Ok(())
        }
        "partition" => {
            let constraint = opts.constraint.ok_or("partition needs --constraint")?;
            let (program, analysis) = analyzed(&opts)?;
            let platform = Platform::paper(opts.area, opts.cgcs);
            let cache = MappingCache::new();
            let result = PartitioningEngine::new(&program.cdfg, &analysis, &platform)
                .with_config(EngineConfig {
                    skip_unprofitable: opts.skip_unprofitable,
                })
                .with_mapping_cache(&cache)
                .run(constraint)
                .map_err(|e| e.to_string())?;
            println!(
                "platform: A_FPGA={} with {}",
                opts.area,
                platform.datapath.describe()
            );
            println!("initial (all-FPGA): {} cycles", result.initial_cycles);
            if result.met_without_partitioning {
                println!("constraint already met without partitioning (step-2 exit)");
                return Ok(());
            }
            for m in &result.moves {
                println!(
                    "  move {} ({}) -> t_total {}",
                    m.kernel,
                    m.label,
                    m.breakdown.t_total()
                );
            }
            println!(
                "final: {} cycles ({:.1}% reduction) — constraint {}",
                result.final_cycles(),
                result.reduction_percent(),
                if result.met { "MET" } else { "NOT MET" }
            );
            Ok(())
        }
        "sweep" => {
            let constraint = opts.constraint.ok_or("sweep needs --constraint")?;
            let (program, analysis) = analyzed(&opts)?;
            let datapaths: Vec<CgcDatapath> = opts
                .cgc_list
                .iter()
                .map(|&k| CgcDatapath::uniform(k, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO))
                .collect();
            let base = Platform::paper(opts.areas[0], opts.cgc_list[0]);
            let cache = MappingCache::new();
            let spec = GridSpec {
                app: &opts.source_path,
                cdfg: &program.cdfg,
                analysis: &analysis,
                base: &base,
                areas: &opts.areas,
                datapaths: &datapaths,
                constraint,
            };
            let grid = run_grid(&spec, &cache, opts.jobs).map_err(|e| e.to_string())?;
            if opts.json {
                print!(
                    "{}",
                    amdrel::explore::json::grid_to_json(&grid, &cache.stats())
                );
                return Ok(());
            }
            print!("{}", format_paper_table(&grid));
            let stats = cache.stats();
            println!(
                "mappings computed: {} fine-grain, {} coarse-grain ({} cache hits across {} cells)",
                stats.fine_misses,
                stats.coarse_misses,
                stats.hits(),
                grid.cells.len(),
            );
            Ok(())
        }
        "explore" => {
            let objectives = ObjectiveSet::parse(&opts.objectives)?;
            if opts.trace.is_some() && !objectives.needs_runtime() {
                return Err(format!(
                    "--trace on explore needs a runtime objective ({RUNTIME_OBJECTIVES}): \
                     the trace replays the best frontier point's contention run"
                ));
            }
            if !objectives.needs_runtime() {
                if let Some(flag) = opts
                    .given
                    .iter()
                    .find(|f| RUNTIME_FLAGS.contains(&f.as_str()))
                {
                    return Err(format!(
                        "{flag} is read only by the runtime objectives ({RUNTIME_OBJECTIVES}); \
                         add one to --objectives"
                    ));
                }
            }
            if objectives.needs_runtime() && opts.njobs == 0 {
                return Err(
                    "--njobs must be positive when a runtime objective is selected".to_owned(),
                );
            }
            // Explore lays its regions as `rows · cols` horizontal bands.
            let bands = match region_grid(&opts)? {
                Some((rows, cols)) => Some(
                    rows.checked_mul(cols)
                        .ok_or("--region-shape: too many regions")?,
                ),
                None => None,
            };
            let (program, analysis) = analyzed(&opts)?;
            let strategy: Box<dyn SearchStrategy> = match opts.strategy.as_str() {
                "exhaustive" => Box::new(Exhaustive),
                "random" => Box::new(RandomSampling),
                "sa" => Box::new(SimulatedAnnealing::default()),
                other => {
                    return Err(format!(
                        "unknown strategy '{other}' (expected exhaustive, random or sa)"
                    ))
                }
            };
            let mut base = Platform::paper(opts.areas[0], opts.cgc_list[0]);
            if opts.reconfig.as_deref() == Some("free") {
                base = base.with_reconfig(ReconfigModel::free());
            }
            if let Some(bands) = bands {
                for &area in &opts.areas {
                    let mut fpga = base.fpga.clone();
                    fpga.total_area = area;
                    FabricGrid::try_shaped(fpga.usable_area(), bands, 1)
                        .map_err(|e| format!("--regions/--region-shape: {e} (--areas {area})"))?;
                }
            }
            let cache = MappingCache::new();
            // Contention-aware objectives score each candidate platform
            // by simulating the explored source alongside the built-in
            // case studies as background tenants.
            let contention = if objectives.needs_runtime() {
                let policy = policy_by_name(&opts.policy).ok_or_else(|| {
                    format!(
                        "unknown policy '{}' (expected fcfs, sjf, priority or affinity)",
                        opts.policy
                    )
                })?;
                let background = amdrel::apps::runtime::profiles(
                    &amdrel::apps::runtime::STANDARD_MIX,
                    &base,
                    opts.jobs,
                )
                .map_err(|e| format!("building background tenants: {e}"))?;
                // Pin one absolute arrival rate (derived from the
                // background mix on the base platform) so every
                // candidate platform is scored under identical offered
                // traffic, not traffic scaled to its own speed.
                let load = opts.load.unwrap_or(130);
                let arrival = WorkloadSpec::mean_interarrival_for(&background, load);
                check_arrival_horizon(arrival, opts.njobs)?;
                let (faults, recovery) = fault_config(&opts);
                let mut rt = RuntimeEvaluator::new(background, policy)
                    .with_seed(opts.seed)
                    .with_njobs(opts.njobs)
                    .with_load(load)
                    .with_arrival(arrival)
                    .with_faults(faults)
                    .with_recovery(recovery);
                if let Some(bands) = bands {
                    rt = rt.with_region_reconfig(bands);
                }
                Some(rt)
            } else {
                None
            };
            // Without --constraint, target half the all-FPGA cycle count
            // of the base configuration (a constraint that forces real
            // partitioning without being unreachable).
            let constraint = match opts.constraint {
                Some(c) => c,
                None => {
                    let initial = PartitioningEngine::new(&program.cdfg, &analysis, &base)
                        .with_mapping_cache(&cache)
                        .run(u64::MAX)
                        .map_err(|e| e.to_string())?
                        .initial_cycles;
                    (initial / 2).max(1)
                }
            };
            let datapaths: Vec<CgcDatapath> = opts
                .cgc_list
                .iter()
                .map(|&k| CgcDatapath::uniform(k, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO))
                .collect();
            let space = DesignSpace {
                areas: opts.areas.clone(),
                datapaths,
                max_kernel_budget: opts.max_kernels.min(analysis.kernels().len()),
                constraint,
            };
            let mut evaluator = Evaluator::new(
                &opts.source_path,
                &program.cdfg,
                &analysis,
                &base,
                EnergyModel::default(),
                &cache,
            )
            .with_objectives(objectives);
            if let Some(bands) = bands {
                evaluator = evaluator.with_regions(bands);
            }
            if let Some(rt) = &contention {
                evaluator = evaluator.with_runtime(rt);
            }
            let config = ExploreConfig {
                seed: opts.seed,
                eval_budget: opts.budget,
                jobs: opts.jobs,
            };
            let profiler = Profiler::new();
            let report = profiler
                .time("explore.search", || {
                    explore(&evaluator, &space, strategy.as_ref(), &config)
                })
                .map_err(|e| e.to_string())?;
            if let Some(path) = &opts.trace {
                // Replay the contention run of the best frontier point
                // (p95 when scored, overall cycles otherwise) through a
                // trace sink. The replay is a pure observer: it reuses
                // the memoised engine cell and does not count as an
                // extra simulation in the report's statistics.
                let best = report
                    .best_p95()
                    .or_else(|| report.best_cycles())
                    .ok_or("nothing to trace: the explored frontier is empty")?;
                let buffer = TraceBuffer::new();
                profiler
                    .time("explore.trace", || {
                        evaluator.trace_point(&space, best.point, &buffer)
                    })
                    .map_err(|e| e.to_string())?;
                let rendered = render_trace(&buffer.events(), &opts.trace_format);
                std::fs::write(path, rendered)
                    .map_err(|e| format!("writing trace to {path}: {e}"))?;
            }
            if opts.json {
                print!("{}", amdrel::explore::json::report_to_json(&report));
            } else {
                print!("{}", report.format_table());
            }
            if opts.profile {
                eprintln!("{}", profiler.to_json());
            }
            Ok(())
        }
        // `trace` is `simulate` with tracing forced on and the rendered
        // trace (rather than the report) as the stdout artefact.
        "simulate" | "trace" => {
            let region = region_grid(&opts)?;
            let mut platform = Platform::paper(opts.area, opts.cgcs);
            if opts.reconfig.as_deref() == Some("free") {
                platform = platform.with_reconfig(ReconfigModel::free());
            }
            let grid = match region {
                Some((rows, cols)) => Some(
                    FabricGrid::try_shaped(platform.fpga.usable_area(), rows, cols)
                        .map_err(|e| format!("--regions/--region-shape: {e}"))?,
                ),
                None => None,
            };
            let selected: Vec<&str> = if opts.apps.is_empty() {
                amdrel::apps::runtime::STANDARD_MIX.to_vec()
            } else {
                opts.apps.iter().map(String::as_str).collect()
            };
            let profiles = amdrel::apps::runtime::profiles(&selected, &platform, 0)
                .map_err(|e| e.to_string())?;
            let policy = policy_by_name(&opts.policy).ok_or_else(|| {
                format!(
                    "unknown policy '{}' (expected fcfs, sjf, priority or affinity)",
                    opts.policy
                )
            })?;
            if opts.load.is_some() && opts.arrival.is_some() {
                return Err("--load and --arrival are mutually exclusive".to_owned());
            }
            let load = opts.load.unwrap_or(120);
            let mut spec = WorkloadSpec::uniform(opts.seed, opts.njobs, &profiles, load);
            if let Some(arrival) = opts.arrival {
                spec.mean_interarrival = arrival;
            }
            check_arrival_horizon(spec.mean_interarrival, opts.njobs)?;
            let sketch = SketchMode::parse(&opts.sketch).ok_or_else(|| {
                format!(
                    "unknown sketch mode '{}' (expected auto, exact or sketched)",
                    opts.sketch
                )
            })?;
            let (faults, recovery) = fault_config(&opts);
            // The joint floorplan is frozen before the simulation starts,
            // so region mode stays a pure function of the flag values.
            let plan = grid.map(|grid| RegionPlan::new(&profiles, &grid));
            // `--queue-bound 0` keeps its historical meaning: unbounded.
            let mut sim = Simulation::new(&platform)
                .profiles(&profiles)
                .policy(policy.as_ref())
                .config_cache(!opts.no_config_cache)
                .prefetch(opts.prefetch)
                .queue_bound(std::num::NonZeroUsize::new(opts.queue_bound))
                .sketch_mode(sketch)
                // Shards past the last app would hold no tenant.
                .shards(opts.shards.min(selected.len()))
                .faults(faults)
                .recovery(recovery);
            if let Some(plan) = &plan {
                sim = sim.regions(plan);
            }
            let tracing = command == "trace" || opts.trace.is_some();
            let buffer = TraceBuffer::new();
            if tracing {
                sim = sim.trace(&buffer);
            }
            let profiler = Profiler::new();
            let report = profiler.time("sim.run", || sim.run_mix(&spec));
            if tracing {
                let events = buffer.events();
                let rendered =
                    profiler.time("trace.render", || render_trace(&events, &opts.trace_format));
                match &opts.trace {
                    Some(path) => {
                        std::fs::write(path, rendered)
                            .map_err(|e| format!("writing trace to {path}: {e}"))?;
                        if command == "trace" {
                            println!("trace: {} events written to {path}", events.len());
                        }
                    }
                    // Only reachable for the `trace` subcommand: plain
                    // `simulate` traces iff `--trace FILE` was given.
                    None => print!("{rendered}"),
                }
            }
            if command == "simulate" {
                if opts.json {
                    print!("{}", amdrel::runtime::report_to_json(&report));
                } else {
                    println!(
                        "platform: A_FPGA={} with {} — {} jobs, seed {}, mean interarrival {}",
                        opts.area,
                        platform.datapath.describe(),
                        opts.njobs,
                        opts.seed,
                        spec.mean_interarrival,
                    );
                    if let Some((rows, cols)) = region {
                        println!(
                            "reconfig: region mode, {rows}x{cols} grid ({} regions)",
                            rows * cols
                        );
                    }
                    print!("{}", report.format_table());
                }
            }
            if opts.profile {
                eprintln!("{}", profiler.to_json());
            }
            Ok(())
        }
        "dot" => {
            // The CDFG needs no profile: compile only, never interpret.
            let program = compile(&read_source(&opts)?, "main").map_err(|e| e.to_string())?;
            match opts.block {
                Some(b) => {
                    let id = BlockId(b);
                    let bb = program
                        .cdfg
                        .get(id)
                        .ok_or_else(|| format!("no block bb{b}"))?;
                    print!("{}", amdrel::cdfg::dot::dfg_to_dot(&bb.dfg));
                }
                None => print!("{}", amdrel::cdfg::dot::cdfg_to_dot(&program.cdfg)),
            }
            Ok(())
        }
        other => unreachable!("command '{other}' was validated against SUBCOMMANDS"),
    }
}
