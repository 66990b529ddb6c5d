//! The `paper_flow` workload: the paper's methodology itself.
//!
//! One pass compiles, profiles, analyses and partitions OFDM and JPEG
//! 256×256 at the four platforms of Tables 2/3, each application with a
//! cold mapping cache, then runs one exhaustive contention-aware OFDM
//! exploration with faults, deadlines, degradation and 4-region
//! reconfiguration.

use crate::probe::{CountingSink, PickStats, Spans, TimedPolicy};
use crate::{median, Layers, Pass, Workload};
use amdrel_apps::runtime::{
    contention_evaluator, standard_mix, CONTENTION_LOAD, CONTENTION_NJOBS, CONTENTION_SEED,
};
use amdrel_apps::{jpeg, ofdm, paper};
use amdrel_core::{EnergyModel, MappingCache, PartitionResult, PartitioningEngine, Platform};
use amdrel_explore::{
    explore, DesignSpace, Evaluator, Exhaustive, ExploreConfig, ExploreReport, ObjectiveSet,
    RuntimeEvaluator,
};
use amdrel_floorplan::FabricGrid;
use amdrel_minic::CompiledProgram;
use amdrel_profiler::{AnalysisReport, Interpreter, WeightTable};
use amdrel_runtime::{
    policy_by_name, AppProfile, FaultSpec, RecoveryPolicy, RegionPlan, Simulation, WorkloadSpec,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::num::NonZeroU64;
use std::sync::Arc;
use std::time::Instant;

/// Objectives of the faulted exploration.
const OBJECTIVES: &str = "cycles,area,energy,p95,p95_under_faults,degraded_share";
/// Objectives of the clean comparison search (traced run only).
const CLEAN_OBJECTIVES: &str = "cycles,area,energy,p95";
/// Fault rate on every channel, permille.
const FAULT_PERMILLE: u16 = 30;
/// Deadline in mean inter-arrival gaps of the contention mix.
const DEADLINE_GAPS: u64 = 20;
/// Region count of the partial-reconfiguration model.
const REGIONS: usize = 4;

#[derive(Debug)]
pub struct PaperFlow {
    ofdm: amdrel_apps::Workload,
    jpeg: amdrel_apps::Workload,
    platforms: Vec<Platform>,
    base: Platform,
    space: DesignSpace,
    faults: FaultSpec,
    recovery: RecoveryPolicy,
    /// The standard mix on the base platform (the contention tenants).
    mix: Vec<AppProfile>,
    arrival: u64,
    threads: usize,
}

/// One application's flow output.
struct Flow {
    program: CompiledProgram,
    analysis: AnalysisReport,
    results: Vec<PartitionResult>,
    instrs: u64,
}

/// Run `f` inside a span when tracing.
fn timed<R>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(spans) => spans.span(name, f),
        None => f(),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl PaperFlow {
    pub fn new(seed: u64, threads: usize) -> Result<Self, String> {
        let base = Platform::paper(1500, 2);
        let mix = standard_mix(&base).map_err(err)?;
        let arrival = WorkloadSpec::mean_interarrival_for(&mix, CONTENTION_LOAD);
        let faults = FaultSpec {
            deadline: NonZeroU64::new(DEADLINE_GAPS * arrival),
            ..FaultSpec::uniform(seed, FAULT_PERMILLE)
        };
        Ok(PaperFlow {
            ofdm: ofdm::workload(seed),
            jpeg: jpeg::workload(jpeg::PAPER_DIM, seed),
            platforms: [(1500, 2), (1500, 3), (5000, 2), (5000, 3)]
                .iter()
                .map(|&(area, cgcs)| Platform::paper(area, cgcs))
                .collect(),
            base,
            space: ofdm::design_space(),
            faults,
            recovery: RecoveryPolicy {
                degrade: true,
                ..RecoveryPolicy::default()
            },
            mix,
            arrival,
            threads,
        })
    }

    /// Compile, profile, analyse and partition `app` at every platform.
    /// Traced, the mapping cache is filled in spans of its own first, so
    /// the engine spans time only the move loop.
    fn flow(
        &self,
        app: &amdrel_apps::Workload,
        constraint: u64,
        spans: Option<&Spans>,
    ) -> Result<Flow, String> {
        let program = timed(spans, "minic.compile", || {
            amdrel_minic::compile(&app.source, "main")
        })
        .map_err(err)?;
        let execution = timed(spans, "profiler.interp", || {
            Interpreter::new(&program.ir).run(&app.input_refs())
        })
        .map_err(err)?;
        let analysis = timed(spans, "profiler.analyze", || {
            AnalysisReport::analyze(
                &program.cdfg,
                &execution.block_counts,
                &WeightTable::paper(),
            )
        });
        let cache = MappingCache::new();
        let mut results = Vec::new();
        for platform in &self.platforms {
            if let Some(spans) = spans {
                spans
                    .span("finegrain.map", || {
                        cache.fine(&program.cdfg, &platform.fpga)
                    })
                    .map_err(err)?;
                spans
                    .span("coarsegrain.map", || {
                        cache.coarse(&program.cdfg, &platform.datapath, &platform.scheduler)
                    })
                    .map_err(err)?;
            }
            let result = timed(spans, "engine.run", || {
                PartitioningEngine::new(&program.cdfg, &analysis, platform)
                    .with_mapping_cache(&cache)
                    .run(constraint)
            })
            .map_err(err)?;
            results.push(result);
        }
        Ok(Flow {
            program,
            analysis,
            results,
            instrs: execution.instrs_retired,
        })
    }

    /// The faulted contention scorer. Untraced it is the stock
    /// `contention_evaluator`; traced, the same construction with a
    /// timing wrapper around its policy (the digests prove them equal).
    fn contention(&self, picks: Option<Arc<PickStats>>) -> Result<RuntimeEvaluator, String> {
        let rt = match picks {
            None => contention_evaluator("ofdm", &self.base).map_err(err)?,
            Some(stats) => {
                let mix = standard_mix(&self.base).map_err(err)?;
                let priority = mix
                    .iter()
                    .find(|p| p.name == "ofdm")
                    .ok_or("standard mix lacks ofdm")?
                    .priority;
                let background = mix.into_iter().filter(|p| p.name != "ofdm").collect();
                let sjf = policy_by_name("sjf").ok_or("unknown policy")?;
                RuntimeEvaluator::new(background, Box::new(TimedPolicy::new(sjf, stats)))
                    .with_priority(priority)
                    .with_seed(CONTENTION_SEED)
                    .with_njobs(CONTENTION_NJOBS)
                    .with_load(CONTENTION_LOAD)
                    .with_arrival(self.arrival)
            }
        };
        Ok(rt
            .with_faults(self.faults)
            .with_recovery(self.recovery)
            .with_region_reconfig(REGIONS))
    }

    fn config(&self) -> ExploreConfig {
        ExploreConfig {
            jobs: self.threads,
            ..ExploreConfig::default()
        }
    }

    fn evaluator<'a>(
        &'a self,
        flow: &'a Flow,
        cache: &'a MappingCache,
        rt: &'a RuntimeEvaluator,
        objectives: &str,
    ) -> Result<Evaluator<'a>, String> {
        Ok(Evaluator::new(
            &self.ofdm.name,
            &flow.program.cdfg,
            &flow.analysis,
            &self.base,
            EnergyModel::default(),
            cache,
        )
        .with_objectives(ObjectiveSet::parse(objectives)?)
        .with_runtime(rt))
    }

    /// One pass; `spans` is set on the traced run only.
    fn run(&self, spans: Option<&Spans>, layers: Option<&mut Layers>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let part = |pass: &mut Pass, start: Instant| {
            pass.part_ns.push(start.elapsed().as_nanos() as u64);
            Instant::now()
        };
        let start = Instant::now();
        let ofdm = timed(spans, "flow.ofdm", || {
            self.flow(&self.ofdm, paper::OFDM_CONSTRAINT, spans)
        })?;
        let start = part(&mut pass, start);
        let jpeg = timed(spans, "flow.jpeg", || {
            self.flow(&self.jpeg, paper::JPEG_CONSTRAINT, spans)
        })?;
        let start = part(&mut pass, start);
        let stats = spans.map(|_| Arc::new(PickStats::default()));
        let rt = timed(spans, "explore.setup", || self.contention(stats.clone()))?;
        let start = part(&mut pass, start);
        let cache = MappingCache::new();
        let eval = self.evaluator(&ofdm, &cache, &rt, OBJECTIVES)?;
        if let Some(spans) = spans {
            spans
                .span("explore.cells", || {
                    eval.prefill_cells(&self.space, self.config().jobs)
                })
                .map_err(err)?;
        }
        let report = timed(spans, "explore.search", || {
            explore(&eval, &self.space, &Exhaustive, &self.config())
        })
        .map_err(err)?;
        part(&mut pass, start);

        pass.reductions = [best_reduction(&ofdm), best_reduction(&jpeg)];
        for (name, flow) in [("ofdm", &ofdm), ("jpeg", &jpeg)] {
            record_flow(&mut pass.digest, name, flow);
        }
        let _ = writeln!(
            pass.digest,
            "reduction ofdm={:.4} jpeg={:.4}",
            pass.reductions[0], pass.reductions[1]
        );
        record_frontier(&mut pass.digest, &report)?;

        if let (Some(layers), Some(stats)) = (layers, stats) {
            let (picks, examined, pick_ns) = stats.snapshot();
            layers.add_ns("policy.pick", pick_ns);
            layers.set("policy.picks", picks as f64);
            layers.set("policy.examined", examined as f64);
            layers.set("profiler.instrs", (ofdm.instrs + jpeg.instrs) as f64);
            let results = ofdm.results.iter().chain(&jpeg.results);
            layers.set(
                "engine.moves",
                results.clone().map(|r| r.moves.len() as f64).sum(),
            );
            layers.set(
                "engine.reverted",
                results.map(|r| r.moves_reverted as f64).sum(),
            );
            let eval_stats = eval.stats();
            let cache_stats = eval.cache_stats();
            layers.set("explore.engine_runs", eval_stats.engine_runs as f64);
            layers.set("explore.sim_runs", eval_stats.sim_runs as f64);
            layers.set("explore.points", eval_stats.points_evaluated as f64);
            layers.set("cache.hits", cache_stats.hits() as f64);
            layers.set("cache.misses", cache_stats.misses() as f64);
            // The generator's share: drain as many contention streams
            // as the search simulated, on their own.
            let spec = self.contention_spec();
            let start = Instant::now();
            timed(spans, "workload.drain", || {
                for _ in 0..eval_stats.sim_runs {
                    let last = spec
                        .generate_streaming(&self.mix)
                        .fold(0u64, |acc, job| acc ^ job.arrival ^ job.fine_cycles);
                    black_box(last);
                }
            });
            layers.add_ns("workload.gen", start.elapsed().as_nanos() as u64);
        }
        Ok(pass)
    }

    /// The contention workload's job stream over the standard mix.
    fn contention_spec(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::uniform(
            CONTENTION_SEED,
            CONTENTION_NJOBS,
            &self.mix,
            CONTENTION_LOAD,
        );
        spec.mean_interarrival = self.arrival;
        spec
    }
}

fn best_reduction(flow: &Flow) -> f64 {
    flow.results
        .iter()
        .map(PartitionResult::reduction_percent)
        .fold(f64::MIN, f64::max)
}

fn record_flow(digest: &mut String, name: &str, flow: &Flow) {
    for r in &flow.results {
        let moved: Vec<u32> = r.moves.iter().map(|m| m.kernel.0).collect();
        let _ = writeln!(
            digest,
            "{name} initial={} final={} moved={moved:?} reverted={} met={}",
            r.initial_cycles,
            r.final_cycles(),
            r.moves_reverted,
            r.met
        );
    }
}

/// Appends the frontier to the digest; every clean contention run must
/// dispose of each of its jobs.
fn record_frontier(digest: &mut String, report: &ExploreReport) -> Result<(), String> {
    for p in &report.frontier {
        let _ = writeln!(
            digest,
            "point={:?} cycles={} kernels={} energy={} objectives={:?}",
            (p.point.area, p.point.datapath, p.point.budget),
            p.cycles,
            p.kernels_moved,
            p.energy_total(),
            p.objectives.values(),
        );
        let c = p
            .contention
            .ok_or("frontier point without contention score")?;
        let _ = writeln!(
            digest,
            "  completed={} rejected={} makespan={} p95={} stall={} p95_faults={} degraded={}",
            c.completed,
            c.rejected,
            c.makespan,
            c.p95_latency,
            c.reconfig_stall_cycles,
            c.p95_under_faults,
            c.degraded_permille
        );
        if c.completed + c.rejected != CONTENTION_NJOBS as u64 {
            return Err(format!(
                "contention run disposed of {} of {CONTENTION_NJOBS} jobs",
                c.completed + c.rejected
            ));
        }
    }
    Ok(())
}

impl Workload for PaperFlow {
    fn parts(&self) -> [&'static str; 4] {
        ["flow.ofdm", "flow.jpeg", "explore.setup", "explore.search"]
    }

    fn pass(&self) -> Result<Pass, String> {
        self.run(None, None)
    }

    fn traced_pass(&self, spans: &Spans, layers: &mut Layers) -> Result<Pass, String> {
        spans.span("pass", || self.run(Some(spans), Some(layers)))
    }

    fn probes(&self, layers: &mut Layers) -> Result<(), String> {
        // The same exhaustive search scored fault-free on a single fabric
        // pool: the gap is what faults, regions and floorplanning cost.
        let flow = self.flow(&self.ofdm, paper::OFDM_CONSTRAINT, None)?;
        let faulted = self.contention(None)?;
        let clean = contention_evaluator("ofdm", &self.base).map_err(err)?;
        let search = |rt: &RuntimeEvaluator, objectives: &str| -> Result<f64, String> {
            let cache = MappingCache::new();
            let eval = self.evaluator(&flow, &cache, rt, objectives)?;
            eval.prefill_cells(&self.space, self.config().jobs)
                .map_err(err)?;
            let start = Instant::now();
            explore(&eval, &self.space, &Exhaustive, &self.config()).map_err(err)?;
            Ok(start.elapsed().as_nanos() as f64)
        };
        let (mut f, mut c) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            f.push(search(&faulted, OBJECTIVES)?);
            c.push(search(&clean, CLEAN_OBJECTIVES)?);
        }
        layers.set("explore.clean_ratio", median(c) / median(f));

        // Observer cost and sharding, on the exploration's scenario
        // applied to the standard mix.
        let sjf = policy_by_name("sjf").ok_or("unknown policy")?;
        let plan = RegionPlan::new(
            &self.mix,
            &FabricGrid::uniform(self.base.fpga.usable_area(), REGIONS),
        );
        let spec = self.contention_spec();
        let base = Simulation::new(&self.base)
            .profiles(&self.mix)
            .policy(sjf.as_ref())
            .regions(&plan)
            .faults(self.faults)
            .recovery(self.recovery);
        let sink = CountingSink::default();
        let time = |sim: Simulation<'_>| {
            let start = Instant::now();
            for _ in 0..20 {
                black_box(sim.run_mix(&spec));
            }
            start.elapsed().as_nanos() as f64
        };
        let (mut plain, mut traced, mut two) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            plain.push(time(base));
            traced.push(time(base.trace(&sink)));
            if self.threads >= 2 {
                two.push(time(base.shards(2)));
            }
        }
        let counted = CountingSink::default();
        if base.trace(&counted).run_mix(&spec) != base.run_mix(&spec) {
            return Err("attaching a trace sink changed the contention report".into());
        }
        layers.set("trace.events", counted.events() as f64);
        let plain = median(plain);
        layers.set("trace.overhead", median(traced) / plain);
        if !two.is_empty() {
            let speedup = plain / median(two);
            layers.set("shard.speedup_k2", speedup);
            layers.set("shard.efficiency_k2", speedup / 2.0);
        }
        Ok(())
    }
}
