//! PERF-4 — the simulation-core fast-path benchmark gate.
//!
//! Runs a full 8-node × 1600-job experiment end to end under both event
//! schemes: the next-completion fast path (`Experiment::run` — one
//! prediction event per device per generation, lazily drained when stale)
//! against the retained per-offload scheme (`Experiment::run_with` on
//! `EventMode::PerOffload` — one event per active offload per generation,
//! the pre-optimization cost model).
//!
//! The workload is built to exercise the regime the fast path targets:
//! small-footprint, offload-dominant jobs with many kernel launches each,
//! crammed ~20 deep per device under MCC. Every device membership change
//! then re-predicts for every co-resident offload — O(n²) event churn per
//! busy episode in the naive scheme, one prediction in the fast one. (The
//! Table I mix at this scale is negotiation-bound instead; that path has
//! its own gate in `perf_negotiation`.)
//!
//! Emits `BENCH_sim.json` (under `target/experiments/` and at the repo
//! root) and **fails** if the measured speedup drops below the 2×
//! acceptance floor — a regression gate, not just a report. Both runs must
//! return bit-identical results before timing means anything (the
//! randomized version of this assertion lives in
//! `cluster/tests/prop_runtime_diff.rs`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use phishare_bench::{banner, persist_json, GateKnobs, EXPERIMENT_SEED};
use phishare_cluster::{ClusterConfig, EventMode, Experiment, ExperimentResult, RunOptions};
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use phishare_workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const NODES: u32 = 8;
const JOBS: usize = 1600;
const SPEEDUP_FLOOR: f64 = 2.0;

/// [`Experiment::run`] under the per-offload oracle event scheme.
fn run_per_offload(cfg: &ClusterConfig, wl: &Workload) -> Result<ExperimentResult, String> {
    let opts = RunOptions {
        events: EventMode::PerOffload,
        ..RunOptions::default()
    };
    Experiment::run_with(cfg, wl, &opts).map(|(r, _)| r)
}

/// Offload-dense synthetic jobs: tiny memory footprints (so MCC's random
/// cramming stacks devices deep), 92–97% offload duty, and 48–96 kernel
/// launches per job — the event-churn regime described in the module docs.
fn gate_workload(count: usize, seed: u64) -> Workload {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads: (48, 96),
        duration_secs: (40.0, 100.0),
    };
    WorkloadBuilder::new(WorkloadKind::Synthetic(ResourceDist::Uniform, params))
        .count(count)
        .seed(seed)
        // Steady-state arrivals: the queue stays shallow, so wall time
        // measures the DES core rather than FIFO scans of a deep backlog.
        .arrivals(ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(800),
        })
        .build()
}

/// Paper cluster with wider nodes (24 host slots) so devices actually
/// reach ~20 co-resident offloads, and arrival-triggered negotiations
/// batched at 5 s so cycle count stays modest at 1600 jobs.
fn gate_config(policy: ClusterPolicy, nodes: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
    cfg.slots_per_node = 24;
    cfg.negotiation_trigger_delay = SimDuration::from_secs(5);
    cfg
}

/// Best-of-N wall time of one full experiment, milliseconds.
fn time_runs<F>(runs: usize, mut run: F) -> f64
where
    F: FnMut(),
{
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[derive(Serialize)]
struct SimBench {
    policy: String,
    nodes: u32,
    jobs: usize,
    naive_runs: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one per-offload-event experiment, ms
    /// ("before").
    naive_ms: f64,
    /// Best-of-runs wall time of one next-completion experiment, ms
    /// ("after").
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    completed: usize,
    makespan_secs: f64,
    live_events: u64,
    knobs: GateKnobs,
}

fn gate() -> SimBench {
    let policy = ClusterPolicy::Mcc;
    let wl = gate_workload(JOBS, EXPERIMENT_SEED);
    let cfg = gate_config(policy, NODES);

    // Sanity first: both schemes must agree before timing means anything.
    let fast = Experiment::run(&cfg, &wl).expect("fast-path experiment runs");
    let naive = run_per_offload(&cfg, &wl).expect("naive-event experiment runs");
    assert_eq!(fast, naive, "event schemes diverged on the gate workload");

    let naive_runs = 3;
    let fast_runs = 7;
    let naive_ms = time_runs(naive_runs, || {
        black_box(run_per_offload(&cfg, &wl).expect("runs"));
    });
    let fast_ms = time_runs(fast_runs, || {
        black_box(Experiment::run(&cfg, &wl).expect("runs"));
    });

    SimBench {
        policy: policy.to_string(),
        nodes: NODES,
        jobs: JOBS,
        naive_runs,
        fast_runs,
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        completed: fast.completed,
        makespan_secs: fast.makespan_secs,
        live_events: fast.events_processed,
        knobs: GateKnobs::non_negotiation(1),
    }
}

/// Criterion view of the same comparison at a smaller size, so per-run
/// numbers show up in the standard bench report without the full gate cost.
fn bench_experiments(c: &mut Criterion) {
    let wl = gate_workload(400, EXPERIMENT_SEED);
    let cfg = gate_config(ClusterPolicy::Mcc, 4);
    let mut group = c.benchmark_group("simulation_run");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("naive_events", "4n/400j"),
        &(&cfg, &wl),
        |b, (cfg, wl)| b.iter(|| black_box(run_per_offload(cfg, wl).expect("runs"))),
    );
    group.bench_with_input(
        BenchmarkId::new("next_completion", "4n/400j"),
        &(&cfg, &wl),
        |b, (cfg, wl)| b.iter(|| black_box(Experiment::run(cfg, wl).expect("runs"))),
    );
    group.finish();
}

criterion_group!(benches, bench_experiments);

fn main() {
    banner(
        "perf_sim",
        "the DES substrate behind every §V experiment",
        "next-completion event scheduling ≥ 2× faster than per-offload events, bit-identical results",
    );

    let result = gate();
    println!(
        "{} on {} nodes, {} jobs ({} completed, makespan {:.0} s, {} live events)",
        result.policy,
        result.nodes,
        result.jobs,
        result.completed,
        result.makespan_secs,
        result.live_events
    );
    println!(
        "naive (best of {}): {:.1} ms   fast (best of {}): {:.1} ms   speedup: {:.1}x",
        result.naive_runs, result.naive_ms, result.fast_runs, result.fast_ms, result.speedup
    );
    persist_json("BENCH_sim", &result);
    // Also drop a copy at the repo root; the acceptance numbers are
    // committed alongside the code they measure.
    if let Ok(json) = serde_json::to_string_pretty(&result) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        if std::fs::write(path, json + "\n").is_ok() {
            println!("[saved {path}]");
        }
    }
    assert!(
        result.speedup >= result.speedup_floor,
        "simulation fast path regressed: {:.1}x < {:.1}x floor",
        result.speedup,
        result.speedup_floor
    );

    benches();
}
