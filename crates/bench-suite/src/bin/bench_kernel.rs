//! Writes the machine-readable performance baseline `BENCH_kernel.json`.
//!
//! Usage: `cargo run --release -p ccs-bench-suite --bin bench_kernel [out.json]`
//!
//! `bench_kernel --list [file]` runs nothing: it prints the trendline as
//! TSV (one row per entry × measurement, with a `delta_units_per_sec`
//! column vs the previous entry) and exits — the quick way to eyeball
//! throughput history or feed it to `cut`/`awk`.
//!
//! Setting `CCS_BENCH_QUICK=1` shrinks the per-measurement time budget
//! (~50 ms instead of 1 s) — the smoke mode CI uses to catch gross
//! regressions without paying for a full benchmark run.
//!
//! Tracked throughput numbers:
//!
//! * `des_kernel_schedule_pop` — events/sec through the DES kernel
//!   (schedule, a cancellation mix, pop in time order);
//! * `event_queue_soa_pop` — events/sec through the bare arena/SoA event
//!   queue (same mix, no simulation clock on top);
//! * `batched_dispatch` — events/sec through `next_batch` over equal-time
//!   cohorts (the failure-storm shape the batch API amortises);
//! * `ensemble_parallel_cell` — job-replicas/sec through one faulty cell
//!   run as a parallel seed ensemble (`utility_risk --replicas`);
//! * `ps_advance_to` / `ps_advance_to_sparse` — completions/sec through the
//!   proportional-share cluster under dense and sparse residency;
//! * `workload_gen` — jobs/sec through scenario-transform synthesis;
//! * `policy_admission_<name>` — jobs/sec through one full run of each
//!   commodity-market policy (admission + schedule + drain);
//! * `single_cell_utility_risk` — jobs/sec through one full quick-config
//!   grid cell (the unit of work `utility_risk` parallelises over);
//! * `stream_stats` — the same cell with a [`ccs_simsvc::LiveRunStats`]
//!   observer attached (streaming Welford μ/σ + realtime risk); compare
//!   against `single_cell_utility_risk` to read the observer-hook
//!   overhead, which must stay small (<2 % on a quiet machine);
//! * `quick_grid` — jobs/sec through the full quick experiment grid
//!   (13 scenarios × 6 values × 5 policies, commodity market).
//!
//! The output file is a trendline ([`ccs_bench_suite::BenchHistory`]):
//! each invocation *appends* one dated entry (label from
//! `CCS_BENCH_LABEL`), so the committed `BENCH_kernel.json` accumulates
//! a history instead of being overwritten. A file of another schema
//! version is not upgraded: the run starts a fresh trendline in its place.

use ccs_bench_suite::{measure, BenchEntry, BenchHistory, Measurement};
use ccs_cluster::PsCluster;
use ccs_des::{EventQueue, SimRng, SimTime, Simulation};
use ccs_economy::EconomicModel;
use ccs_experiments::{run_cell_ensemble, EstimateSet, ExperimentConfig, GridRun, Scenario};
use ccs_policies::PolicyKind;
use ccs_simsvc::{simulate, FaultConfig, LiveRunStats, Run, RunConfig};
use ccs_workload::{apply_scenario, Job, JobId, ScenarioTransform, SdscSp2Model, Urgency};
use std::sync::Arc;

const KERNEL_EVENTS: u64 = 200_000;
const GRID_JOBS: usize = 100;
const PS_NODES: usize = 32;
const PS_ROUNDS: usize = 200;
const WORKLOAD_JOBS: usize = 2_000;
const POLICY_JOBS: usize = 300;
const CELL_JOBS: usize = 200;
const BATCH_COHORT: u64 = 32;
const ENSEMBLE_REPLICAS: usize = 4;

/// Schedules `n` events at pseudo-random times (cancelling every 16th) and
/// drains them in time order; returns a checksum of the processed stream.
fn kernel_round(n: u64) -> u64 {
    let mut sim: Simulation<u64> = Simulation::new();
    let mut rng = SimRng::seed_from(0xBEEF);
    let mut handles = Vec::with_capacity(16);
    for i in 0..n {
        let h = sim.schedule_at(SimTime::new(rng.uniform(0.0, 1e6)), i);
        if i % 16 == 0 {
            handles.push(h);
        }
    }
    for h in handles {
        sim.cancel(h);
    }
    let mut checksum = 0u64;
    while let Some((t, ev)) = sim.next() {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ev)
            .wrapping_add(t.as_secs().to_bits());
    }
    checksum
}

/// Exercises the arena/SoA event queue directly, without the simulation
/// clock on top: push `n` events at pseudo-random times, cancel every
/// 16th, drain with `pop`. Isolates the slab + cache-dense heap hot loop
/// that `des_kernel_schedule_pop` measures through [`Simulation`].
fn queue_round(n: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(0x50A0);
    let mut handles = Vec::with_capacity(16);
    for i in 0..n {
        let h = q.push(SimTime::new(rng.uniform(0.0, 1e6)), i);
        if i % 16 == 0 {
            handles.push(h);
        }
    }
    for h in handles {
        q.cancel(h);
    }
    let mut checksum = 0u64;
    while let Some((t, ev)) = q.pop() {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ev)
            .wrapping_add(t.as_secs().to_bits());
    }
    checksum
}

/// Schedules `n` events in equal-time cohorts ([`BATCH_COHORT`] events per
/// instant — a failure storm's shape) and drains them through
/// `next_batch`, the batched same-time dispatch path the runner and PS
/// cluster consume. Compare against `des_kernel_schedule_pop` to read the
/// per-instant amortisation.
fn batch_round(n: u64) -> u64 {
    let mut sim: Simulation<u64> = Simulation::new();
    let mut rng = SimRng::seed_from(0xBA7C);
    let cohorts = n / BATCH_COHORT;
    for c in 0..cohorts {
        let t = SimTime::new(rng.uniform(0.0, 1e6));
        for i in 0..BATCH_COHORT {
            sim.schedule_at(t, c * BATCH_COHORT + i);
        }
    }
    let mut buf: Vec<u64> = Vec::new();
    let mut checksum = 0u64;
    while let Some(t) = sim.next_batch(&mut buf) {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(buf.len() as u64)
            .wrapping_add(t.as_secs().to_bits());
        for ev in &buf {
            checksum = checksum.wrapping_add(*ev);
        }
    }
    checksum
}

/// One faulty Libra cell run as an [`ENSEMBLE_REPLICAS`]-wide seed
/// ensemble over a shared workload, fanned across as many threads — the
/// in-cell parallelism `utility_risk --replicas` exposes. Units are
/// jobs × replicas, so the number is directly comparable to
/// `single_cell_utility_risk`: the gap between them is the ensemble
/// speed-up (minus merge overhead).
fn ensemble_round(jobs: &Arc<Vec<Job>>, nodes: u32) -> u64 {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let fault = FaultConfig::exponential(0xFA17, 40_000.0, 600.0);
    let (mu, sigma, events) = run_cell_ensemble(
        Arc::clone(jobs),
        PolicyKind::Libra,
        &cfg,
        Some(&fault),
        ENSEMBLE_REPLICAS,
        ENSEMBLE_REPLICAS,
    )
    .expect("ensemble cell completes");
    let mut checksum = events;
    for x in mu.iter().chain(sigma.iter()) {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(x.to_bits());
    }
    checksum
}

fn ps_job(id: JobId, submit: f64, runtime: f64, deadline: f64) -> Job {
    Job {
        id,
        submit,
        runtime,
        estimate: runtime,
        procs: 1,
        urgency: Urgency::Low,
        deadline,
        budget: 1e9,
        penalty_rate: 1.0,
    }
}

/// Drives the proportional-share cluster: `tasks_per_node` resident tasks
/// per node per round (dense keeps nodes crowded, sparse nearly empty),
/// advancing between submission waves. Returns a completion checksum.
fn ps_round(tasks_per_node: usize, step: f64) -> u64 {
    let mut cluster = PsCluster::new(PS_NODES);
    let mut rng = SimRng::seed_from(0x50AD);
    let mut completions = Vec::new();
    let mut checksum = 0u64;
    let mut id: JobId = 0;
    let mut now = 0.0;
    for _ in 0..PS_ROUNDS {
        for node in 0..PS_NODES {
            for _ in 0..tasks_per_node {
                let runtime = rng.uniform(10.0, 200.0);
                let job = ps_job(id, now, runtime, runtime * 8.0);
                cluster.submit(&job, &[node], now);
                id += 1;
            }
        }
        now += step;
        completions.clear();
        cluster.advance_into(now, &mut completions);
        for done in &completions {
            checksum = checksum
                .wrapping_mul(0x100000001B3)
                .wrapping_add(u64::from(done.job_id))
                .wrapping_add(done.finish.to_bits());
        }
    }
    for done in cluster.drain() {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(u64::from(done.job_id))
            .wrapping_add(done.finish.to_bits());
    }
    checksum
}

/// Synthesises the baseline scenario workload from a pre-generated trace.
fn workload_round(base: &[ccs_workload::BaseJob]) -> u64 {
    let jobs = apply_scenario(base, &ScenarioTransform::default(), 42);
    let mut checksum = 0u64;
    for j in &jobs {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(u64::from(j.id))
            .wrapping_add(j.deadline.to_bits());
    }
    checksum
}

/// One full simulation run (admission + schedule + drain) of `kind`.
fn policy_round(jobs: &[Job], kind: PolicyKind, nodes: u32) -> u64 {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let res = simulate(jobs, kind, &cfg);
    let mut checksum = 0u64;
    for x in res.metrics.objectives() {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(x.to_bits());
    }
    checksum
}

/// [`policy_round`] with a [`LiveRunStats`] observer attached: the same
/// work plus the streaming-statistics hook, so the throughput delta vs
/// `single_cell_utility_risk` *is* the observer overhead.
fn observed_round(jobs: &[Job], kind: PolicyKind, nodes: u32) -> u64 {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let mut live = LiveRunStats::new(jobs, &cfg);
    let out = Run::new(jobs, kind, &cfg).observe(&mut live).execute();
    let res = out.expect("bench workloads are sorted").result;
    let mut checksum = 0u64;
    for x in res.metrics.objectives() {
        checksum = checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(x.to_bits());
    }
    checksum
        .wrapping_add(live.wait_stats().mean().to_bits())
        .wrapping_add(live.realtime_risk().score().to_bits())
}

/// Runs the quick commodity grid; returns a checksum over the raw
/// objective values so the work cannot be optimised away.
fn grid_round(jobs: usize) -> u64 {
    let cfg = ExperimentConfig::quick().with_jobs(jobs);
    let grids = GridRun::new(&cfg).run(&[(EconomicModel::CommodityMarket, EstimateSet::A)]);
    let grids = grids.expect("an in-process run without control passes every check");
    let mut checksum = 0u64;
    for s in &grids[0].raw {
        for v in s {
            for p in v {
                for x in p {
                    checksum = checksum
                        .wrapping_mul(0x100000001B3)
                        .wrapping_add(x.to_bits());
                }
            }
        }
    }
    checksum
}

fn report_line(m: &Measurement) {
    eprintln!(
        "  {:<28} {:>12.1} units/sec ({} iters)",
        m.name, m.units_per_sec, m.iters
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list") {
        let path = args
            .get(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_kernel.json".to_string());
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("bench_kernel --list: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match BenchHistory::from_json(&text) {
            Ok(history) => {
                print!("{}", history.to_tsv());
                return;
            }
            Err(e) => {
                eprintln!("bench_kernel --list: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let out = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    let quick = std::env::var("CCS_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let min_secs = if quick { 0.05 } else { 1.0 };
    if quick {
        eprintln!("CCS_BENCH_QUICK set: ~{min_secs}s per measurement (smoke mode)");
    }
    let mut measurements = Vec::new();

    eprintln!("benchmarking DES kernel ({KERNEL_EVENTS} events/iter)...");
    let kernel = measure("des_kernel_schedule_pop", KERNEL_EVENTS, min_secs, || {
        kernel_round(KERNEL_EVENTS)
    });
    report_line(&kernel);
    measurements.push(kernel);

    eprintln!("benchmarking SoA event queue ({KERNEL_EVENTS} events/iter, bare queue)...");
    let queue = measure("event_queue_soa_pop", KERNEL_EVENTS, min_secs, || {
        queue_round(KERNEL_EVENTS)
    });
    report_line(&queue);
    measurements.push(queue);

    eprintln!(
        "benchmarking batched dispatch ({KERNEL_EVENTS} events/iter, cohorts of {BATCH_COHORT})..."
    );
    let batch = measure("batched_dispatch", KERNEL_EVENTS, min_secs, || {
        batch_round(KERNEL_EVENTS)
    });
    report_line(&batch);
    measurements.push(batch);

    // Dense: ~4 resident tasks per node per wave, short advances. Sparse:
    // one task per node, long advances that drain the cluster each wave.
    let dense_units = (PS_NODES * PS_ROUNDS * 4) as u64;
    eprintln!("benchmarking PS cluster advance ({dense_units} completions/iter, dense)...");
    let dense = measure("ps_advance_to", dense_units, min_secs, || ps_round(4, 40.0));
    report_line(&dense);
    measurements.push(dense);

    let sparse_units = (PS_NODES * PS_ROUNDS) as u64;
    eprintln!("benchmarking PS cluster advance ({sparse_units} completions/iter, sparse)...");
    let sparse = measure("ps_advance_to_sparse", sparse_units, min_secs, || {
        ps_round(1, 400.0)
    });
    report_line(&sparse);
    measurements.push(sparse);

    eprintln!("benchmarking workload synthesis ({WORKLOAD_JOBS} jobs/iter)...");
    let base = SdscSp2Model {
        jobs: WORKLOAD_JOBS,
        ..SdscSp2Model::small()
    }
    .generate(42);
    let workload = measure("workload_gen", WORKLOAD_JOBS as u64, min_secs, || {
        workload_round(&base)
    });
    report_line(&workload);
    measurements.push(workload);

    let policy_base = SdscSp2Model {
        jobs: POLICY_JOBS,
        ..SdscSp2Model::small()
    }
    .generate(42);
    let policy_jobs = apply_scenario(&policy_base, &ScenarioTransform::default(), 42);
    for kind in PolicyKind::COMMODITY {
        eprintln!(
            "benchmarking policy admission ({POLICY_JOBS} jobs/iter, {})...",
            kind.name()
        );
        let m = measure(
            &format!("policy_admission_{}", kind.name()),
            POLICY_JOBS as u64,
            min_secs,
            || policy_round(&policy_jobs, kind, 64),
        );
        report_line(&m);
        measurements.push(m);
    }

    eprintln!("benchmarking single grid cell ({CELL_JOBS} jobs/iter)...");
    let cell_base = SdscSp2Model {
        jobs: CELL_JOBS,
        ..SdscSp2Model::small()
    }
    .generate(42);
    let cell_jobs = apply_scenario(&cell_base, &ScenarioTransform::default(), 42);
    let cell = measure(
        "single_cell_utility_risk",
        CELL_JOBS as u64,
        min_secs,
        || policy_round(&cell_jobs, PolicyKind::Libra, 128),
    );
    report_line(&cell);
    measurements.push(cell);

    eprintln!("benchmarking observed cell ({CELL_JOBS} jobs/iter, streaming stats attached)...");
    let stream = measure("stream_stats", CELL_JOBS as u64, min_secs, || {
        observed_round(&cell_jobs, PolicyKind::Libra, 128)
    });
    report_line(&stream);
    measurements.push(stream);

    let ensemble_jobs = Arc::new(cell_jobs.clone());
    let ensemble_units = (CELL_JOBS * ENSEMBLE_REPLICAS) as u64;
    eprintln!(
        "benchmarking ensemble cell ({CELL_JOBS} jobs x {ENSEMBLE_REPLICAS} replicas/iter, \
         {ENSEMBLE_REPLICAS} threads)..."
    );
    let ensemble = measure("ensemble_parallel_cell", ensemble_units, min_secs, || {
        ensemble_round(&ensemble_jobs, 128)
    });
    report_line(&ensemble);
    measurements.push(ensemble);

    let grid_points = Scenario::ALL.len() * 6;
    let grid_units = (GRID_JOBS * grid_points * 5) as u64; // 5 commodity policies
    eprintln!("benchmarking quick grid ({GRID_JOBS} jobs x {grid_points} points x 5 policies)...");
    let grid = measure("quick_grid", grid_units, min_secs, || grid_round(GRID_JOBS));
    report_line(&grid);
    measurements.push(grid);

    // Append to (never overwrite) the trendline, so the committed file
    // accumulates one dated entry per full run and history stays diffable.
    let mut history = match std::fs::read_to_string(&out) {
        Ok(text) => BenchHistory::from_json(&text).unwrap_or_else(|e| {
            eprintln!("note: starting a fresh trendline ({e})");
            BenchHistory::new()
        }),
        Err(_) => BenchHistory::new(),
    };
    history.entries.push(BenchEntry {
        recorded_unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        label: std::env::var("CCS_BENCH_LABEL").unwrap_or_else(|_| "local".to_string()),
        telemetry_enabled: ccs_telemetry::enabled(),
        measurements,
    });
    // Re-runs under one label supersede the previous attempt rather than
    // accumulating near-identical consecutive entries.
    let dropped = history.dedupe_consecutive();
    if dropped > 0 {
        eprintln!(
            "trendline: {dropped} superseded same-label entr{} dropped",
            if dropped == 1 { "y" } else { "ies" }
        );
    }
    let json = serde_json::to_string_pretty(&history).expect("serialise trendline");
    std::fs::write(&out, json + "\n").expect("write trendline");
    eprintln!("wrote {out} ({} trendline entries)", history.entries.len());
}
