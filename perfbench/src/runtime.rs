//! The `steady` and `overload` workloads: one seeded open-loop job
//! stream over 32 synthetic tenants, played once under each built-in
//! policy per pass.

use crate::probe::{CountingSink, PickStats, Spans, TimedPolicy};
use crate::{median, Layers, Pass, Workload, POLICIES};
use amdrel_core::Platform;
use amdrel_runtime::{policy_by_name, AppProfile, RuntimeReport, Simulation, WorkloadSpec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Tenants in the synthetic population.
const TENANTS: usize = 32;

#[derive(Debug)]
pub struct RuntimeWorkload {
    platform: Platform,
    tenants: Vec<AppProfile>,
    spec: WorkloadSpec,
    threads: usize,
}

impl RuntimeWorkload {
    /// `jobs` arrivals at `load_percent`% offered fine-grain load,
    /// unbounded queue.
    pub fn new(seed: u64, jobs: usize, load_percent: u64, threads: usize) -> Self {
        let tenants = amdrel_bench::synthetic_tenants(TENANTS);
        let spec = WorkloadSpec::uniform(seed, jobs, &tenants, load_percent);
        RuntimeWorkload {
            platform: Platform::paper(1500, 2),
            tenants,
            spec,
            threads,
        }
    }

    fn sim(&self) -> Simulation<'_> {
        Simulation::new(&self.platform).profiles(&self.tenants)
    }
}

/// Appends one report's deterministic statistics to the pass digest and
/// checks conservation: every arrival completes, is rejected, aborted or
/// reaped at its deadline.
fn record(digest: &mut String, report: &RuntimeReport) -> Result<(), String> {
    let rel = &report.reliability;
    let _ = writeln!(
        digest,
        "{} completed={} rejected={} makespan={} p50={} p95={} loads={} stall={} \
         fpga_busy={} cgc_busy={} reliability={:?}",
        report.policy,
        report.completed(),
        report.rejected(),
        report.makespan,
        report.p50_latency,
        report.p95_latency,
        report.reconfig_loads,
        report.reconfig_stall_cycles,
        report.fpga_busy_cycles,
        report.cgc_busy_cycles,
        rel,
    );
    let disposed = report.completed() + report.rejected() + rel.aborted + rel.deadline_misses;
    if report.arrived() != disposed {
        return Err(format!(
            "{}: arrived {} != completed + rejected + aborted + deadline_misses = {disposed}",
            report.policy,
            report.arrived()
        ));
    }
    Ok(())
}

impl Workload for RuntimeWorkload {
    fn parts(&self) -> [&'static str; 4] {
        POLICIES
    }

    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for name in POLICIES {
            let policy = policy_by_name(name).ok_or("unknown policy")?;
            let start = Instant::now();
            let report = self.sim().policy(policy.as_ref()).run_mix(&self.spec);
            pass.part_ns.push(start.elapsed().as_nanos() as u64);
            pass.completed.push(report.completed());
            record(&mut pass.digest, &report)?;
        }
        Ok(pass)
    }

    fn traced_pass(&self, spans: &Spans, layers: &mut Layers) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let (mut events, mut rehashes, mut peak) = (0, 0, 0);
        let (mut picks, mut examined, mut pick_ns, mut gen_ns) = (0, 0, 0, 0);
        spans.span("pass", || -> Result<(), String> {
            for name in POLICIES {
                let stats = Arc::new(PickStats::default());
                let policy = TimedPolicy::new(
                    policy_by_name(name).ok_or("unknown policy")?,
                    Arc::clone(&stats),
                );
                let start = Instant::now();
                let report =
                    spans.span("sim.run", || self.sim().policy(&policy).run_mix(&self.spec));
                pass.part_ns.push(start.elapsed().as_nanos() as u64);
                pass.completed.push(report.completed());
                record(&mut pass.digest, &report)?;
                let (p, e, ns) = stats.snapshot();
                picks += p;
                examined += e;
                pick_ns += ns;
                events += report.queue.events;
                rehashes += report.queue.rehashes;
                peak = peak.max(report.queue.peak_occupancy);
            }
            Ok(())
        })?;
        // The generator's share: drain the identical streams on their
        // own, outside the pass.
        for _ in POLICIES {
            let start = Instant::now();
            spans.span("workload.drain", || {
                let last = self
                    .spec
                    .generate_streaming(&self.tenants)
                    .fold(0u64, |acc, job| acc ^ job.arrival ^ job.fine_cycles);
                black_box(last);
            });
            gen_ns += start.elapsed().as_nanos() as u64;
        }
        layers.add_ns("policy.pick", pick_ns);
        layers.add_ns("workload.gen", gen_ns);
        layers.set("policy.picks", picks as f64);
        layers.set("policy.examined", examined as f64);
        layers.set("calendar.events", events as f64);
        layers.set("calendar.rehashes", rehashes as f64);
        layers.set("calendar.peak_occupancy", peak as f64);
        Ok(pass)
    }

    fn probes(&self, layers: &mut Layers) -> Result<(), String> {
        let fcfs = policy_by_name("fcfs").ok_or("unknown policy")?;
        let base = self.sim().policy(fcfs.as_ref());
        let time = |sim: Simulation<'_>| {
            let start = Instant::now();
            let report = sim.run_mix(&self.spec);
            (start.elapsed().as_nanos() as f64, report)
        };
        let (mut plain, mut traced, mut two) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let (ns, report) = time(base);
            plain.push(ns);
            // Observer cost: the same part with a counting sink attached.
            let sink = CountingSink::default();
            let (ns, traced_report) = time(base.trace(&sink));
            traced.push(ns);
            if traced_report != report {
                return Err("attaching a trace sink changed the fcfs report".into());
            }
            layers.set("trace.events", sink.events() as f64);
            // Sharding: wall-clock speedup of K = 2 replicas over one.
            if self.threads >= 2 {
                two.push(time(base.shards(2)).0);
            }
        }
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
