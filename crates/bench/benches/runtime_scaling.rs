//! The event-queue engine at scale: a 32-tenant synthetic population
//! streamed through the simulator with sketched percentiles, at job
//! counts spanning two orders of magnitude. Prints the throughput
//! summary once (jobs/sec should stay roughly flat as the count grows —
//! the event queue bounded by the resource count and the O(1)-memory
//! latency sketch are what this bench guards), then times the streaming
//! runs.

use amdrel_bench::synthetic_tenants;
use amdrel_core::Platform;
use amdrel_runtime::{Fcfs, Simulation, SketchMode, WorkloadSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

const JOB_COUNTS: [usize; 3] = [4_000, 40_000, 400_000];

fn bench_runtime_scaling(c: &mut Criterion) {
    let platform = Platform::paper(1500, 2);
    let tenants = synthetic_tenants(32);
    let sim = Simulation::new(&platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);

    println!("\n========== Runtime scaling (32 synthetic tenants, 90% load, sketched) ==========");
    for jobs in JOB_COUNTS {
        let spec = WorkloadSpec::uniform(42, jobs, &tenants, 90);
        let start = Instant::now();
        let report = sim.run_mix(&spec);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:>7} jobs  {:>10.0} jobs/sec  p50 {:>9} p95 {:>9}  completed {}",
            jobs,
            report.completed() as f64 / secs,
            report.p50_latency,
            report.p95_latency,
            report.completed(),
        );
    }
    println!("================================================================================\n");

    for jobs in JOB_COUNTS {
        let spec = WorkloadSpec::uniform(42, jobs, &tenants, 90);
        c.bench_function(format!("runtime/scaling_{jobs}_jobs").as_str(), |b| {
            b.iter(|| black_box(sim.run_mix(&spec)))
        });
    }
}

criterion_group!(benches, bench_runtime_scaling);
criterion_main!(benches);
