//! PERF-3 — the negotiation fast-path benchmark gate.
//!
//! Measures one negotiation cycle over a 64-node × 4-slot pool with 1600
//! pending jobs, comparing the compiled/indexed fast path
//! (`negotiate_with_stats`) against the retained naive evaluator
//! (`negotiate_naive_with_stats`, which re-parses every expression per
//! (job, slot) pair — the pre-optimization cost model). The workload is
//! match-heavy in the worst way: most jobs ask for more Phi memory than any
//! node has left after the first placements, so the naive path scans all
//! 256 slots per job while the fast path answers from the free-memory index.
//!
//! Emits `BENCH_negotiation.json` (under `target/experiments/` and at the
//! repo root) and **fails** if the measured speedup drops below the 3×
//! acceptance floor, making this a regression gate, not just a report.

use criterion::{criterion_group, BenchmarkId, Criterion};
use phishare_bench::{persist_json, GateKnobs};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::ClassAd;
use phishare_condor::{attrs, Collector, JobQueue, MatchPath, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const NODES: u32 = 64;
const SLOTS_PER_NODE: u32 = 4;
const JOBS: u64 = 1600;
const SPEEDUP_FLOOR: f64 = 3.0;

/// Jobs per repeating pattern block: heavy sharing, modest sharing,
/// exclusive, slot-pinned, node-pinned.
fn job_ad(i: u64) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.insert(attrs::JOB_ID, i);
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    match i % 5 {
        // The bulk: asks for 6000 MB. One fits per 7680 MB node; after 64
        // placements every remaining job of this class matches nothing.
        0..=2 => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 6000i64);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        3 => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, 1000i64);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
        _ => {
            let node = (i % NODES as u64) + 1;
            if i.is_multiple_of(2) {
                let slot = (i % SLOTS_PER_NODE as u64) + 1;
                ad.insert_expr(
                    REQUIREMENTS,
                    &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
                )
                .unwrap();
            } else {
                ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
                    .unwrap();
            }
        }
    }
    ad
}

fn build_pool(nodes: u32, slots_per_node: u32, jobs: u64) -> (JobQueue, Collector) {
    let mut collector = Collector::new();
    for n in 1..=nodes {
        for s in 1..=slots_per_node {
            let id = SlotId { node: n, slot: s };
            collector.advertise(
                id,
                attrs::machine_ad(&id.name(), &format!("node{n}"), 1, 8192, 7680, 1),
            );
        }
    }
    let mut queue = JobQueue::new();
    for i in 0..jobs {
        queue.submit(JobId(i), job_ad(i), SimTime::ZERO).unwrap();
    }
    (queue, collector)
}

/// Best-of-N wall time for one negotiation cycle, milliseconds.
fn time_cycle<F>(runs: usize, base: &(JobQueue, Collector), mut cycle: F) -> f64
where
    F: FnMut(&mut JobQueue, &mut Collector),
{
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (mut queue, mut collector) = base.clone();
        let start = Instant::now();
        cycle(&mut queue, &mut collector);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[derive(Serialize)]
struct NegotiationBench {
    nodes: u32,
    slots_per_node: u32,
    jobs: u64,
    naive_runs: usize,
    fast_runs: usize,
    /// Best-of-runs wall time of one naive cycle, ms ("before").
    naive_ms: f64,
    /// Best-of-runs wall time of one fast-path cycle, ms ("after").
    fast_ms: f64,
    speedup: f64,
    speedup_floor: f64,
    matched: usize,
    considered: usize,
    knobs: GateKnobs,
}

fn gate() -> NegotiationBench {
    let negotiator = Negotiator::default();
    let base = build_pool(NODES, SLOTS_PER_NODE, JOBS);

    // Sanity first: all paths must agree before timing means anything.
    let (mut q_fast, mut c_fast) = base.clone();
    let (mut q_naive, mut c_naive) = base.clone();
    let (mut q_delta, mut c_delta) = base.clone();
    let fast = negotiator
        .with_path(MatchPath::Full)
        .negotiate_with_stats(&mut q_fast, &mut c_fast);
    let naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
    let delta = negotiator
        .with_path(MatchPath::Delta)
        .negotiate_with_stats(&mut q_delta, &mut c_delta);
    assert_eq!(fast, naive, "fast and naive paths diverged");
    assert_eq!(delta, naive, "delta and naive paths diverged");
    assert_eq!(c_fast, c_naive, "collector states diverged");
    assert_eq!(c_delta, c_naive, "collector states diverged");
    let (matches, stats) = fast;

    // This gate pins the *full-rematch* fast path against the naive cost
    // model (PERF-3); the delta path has its own XL gate (PERF-7).
    let naive_runs = 3;
    let fast_runs = 15;
    let naive_ms = time_cycle(naive_runs, &base, |q, c| {
        black_box(negotiator.negotiate_naive_with_stats(q, c));
    });
    let full = negotiator.with_path(MatchPath::Full);
    let fast_ms = time_cycle(fast_runs, &base, |q, c| {
        black_box(full.negotiate_with_stats(q, c));
    });

    NegotiationBench {
        nodes: NODES,
        slots_per_node: SLOTS_PER_NODE,
        jobs: JOBS,
        naive_runs,
        fast_runs,
        naive_ms,
        fast_ms,
        speedup: naive_ms / fast_ms,
        speedup_floor: SPEEDUP_FLOOR,
        matched: matches.len(),
        considered: stats.considered,
        // The measured side is the serial full-rematch fast path; no
        // partitioning, sharding, or quiescence is in play.
        knobs: GateKnobs {
            partitions: 1,
            threads: 1,
            skip_quiescent: false,
            match_path: "full".into(),
        },
    }
}

/// Criterion view of the same comparison at a smaller size, so the per-cycle
/// numbers show up in the standard bench report without the full gate cost.
fn bench_cycles(c: &mut Criterion) {
    let negotiator = Negotiator::default();
    let base = build_pool(16, 4, 400);
    let mut group = c.benchmark_group("negotiation_cycle");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("naive", "16x4/400"), &base, |b, base| {
        b.iter(|| {
            let (mut q, mut c) = base.clone();
            black_box(negotiator.negotiate_naive_with_stats(&mut q, &mut c))
        })
    });
    group.bench_with_input(BenchmarkId::new("fast", "16x4/400"), &base, |b, base| {
        b.iter(|| {
            let (mut q, mut c) = base.clone();
            black_box(negotiator.negotiate_with_stats(&mut q, &mut c))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cycles);

fn main() {
    phishare_bench::banner(
        "perf_negotiation",
        "§II-D negotiation cycle cost",
        "compiled+indexed matchmaking ≥ 3× faster than per-pair re-evaluation",
    );

    let result = gate();
    println!(
        "pool {}x{} slots, {} pending jobs ({} matched, {} considered)",
        result.nodes, result.slots_per_node, result.jobs, result.matched, result.considered
    );
    println!(
        "naive (best of {}): {:.2} ms   fast (best of {}): {:.2} ms   speedup: {:.1}x",
        result.naive_runs, result.naive_ms, result.fast_runs, result.fast_ms, result.speedup
    );
    persist_json("BENCH_negotiation", &result);
    // Also drop a copy at the repo root; the acceptance numbers are
    // committed alongside the code they measure.
    if let Ok(json) = serde_json::to_string_pretty(&result) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_negotiation.json");
        if std::fs::write(path, json + "\n").is_ok() {
            println!("[saved {path}]");
        }
    }
    assert!(
        result.speedup >= result.speedup_floor,
        "negotiation fast path regressed: {:.1}x < {:.1}x floor",
        result.speedup,
        result.speedup_floor
    );

    benches();
}
