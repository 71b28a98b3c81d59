//! Golden bit-identity pins for the runtime event loop.
//!
//! Every differential oracle (`Keyed`, `PerOffload`, `SharedNaive`) runs on
//! the same `World`, so none of them can see a change to `World` itself
//! that reorders an f64 sum, a tie-break or the lifecycle trace. These pins
//! can: each case records the `to_bits()` of three f64 results, two counts
//! and a fingerprint of the trace, captured from the `BTreeMap`-keyed
//! runtime that preceded the dense, index-addressed one. A pure-speed change to the event loop must leave
//! every row unchanged; a deliberate physics change re-captures them (the
//! failure message prints the fresh table) and says why in CHANGES.md.
//!
//! The cases cover the three paper policies, one plan with a device reset
//! and a node churn (the fault paths walk running jobs in `JobId` order),
//! a perturbation stack (derate and latency windows), and workloads whose
//! `JobId`s are a non-monotone permutation of their indices — so id order
//! and workload order disagree everywhere they could be confused.

use phishare::cluster::fault::{FaultEvent, FaultKind, FaultPlan};
use phishare::cluster::{ClusterConfig, Experiment, PerturbConfig, RunOptions, Trace};
use phishare::core::ClusterPolicy;
use phishare::sim::{SimDuration, SimTime};
use phishare::workload::{
    ArrivalProcess, JobId, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};

/// `(case, makespan bits, mean-wait bits, core-utilization bits,
/// completed, live events, trace fingerprint)`.
type Row = (&'static str, u64, u64, u64, usize, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("mc", 0x407fabae147ae148, 0x406d7f1506b0ac94, 0x3fd71c96792d8524, 60, 1284, 0x7810481793a7ea36),
    ("mcc", 0x40776683126e978d, 0x403eaf3078263ab6, 0x3fe27fff058fb277, 90, 6604, 0xac55ce87ea0d0f61),
    ("mcck", 0x40752d8d4fdf3b64, 0x405a9d27754839e2, 0x3fe443c79bb51b84, 60, 1317, 0xdd16a5f91044dec6),
    ("mcck-faults", 0x4078215c28f5c28f, 0x405f90b7c61c2039, 0x3fe246af282e09bd, 60, 1408, 0x3ed82ac3cb91cb09),
    ("mcc-faults-permuted", 0x408489fbe76c8b44, 0x40501a101c66207f, 0x3fd0594ae02cbbb7, 90, 6808, 0x74d60ee01503d07f),
    ("mc-permuted", 0x4082133126e978d5, 0x4070c92ac322291f, 0x3fdbb0f73543baa7, 50, 1151, 0x12ae66b8d565e24a),
    ("mcck-faults-permuted", 0x4076dda9fbe76c8b, 0x405f873cc1e098ea, 0x3fe2bcfde22fcd13, 60, 1379, 0x714e12ea56df43e9),
    ("mcc-perturbed", 0x4074ba624dd2f1aa, 0x400eb0925d1da0b1, 0x3fdf27a27513db5d, 60, 4766, 0xf7ca495774da4c86),
];

fn table1(n: usize, seed: u64) -> Workload {
    WorkloadBuilder::new(WorkloadKind::Table1Mix)
        .count(n)
        .seed(seed)
        .build()
}

/// Offload-dense jobs in Poisson arrivals: the sharing regime where many
/// offloads share each card and every kernel launch is two events.
fn offload_dense(n: usize, seed: u64) -> Workload {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads: (24, 48),
        duration_secs: (40.0, 100.0),
    };
    WorkloadBuilder::new(WorkloadKind::Synthetic(ResourceDist::Uniform, params))
        .count(n)
        .seed(seed)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(800),
        })
        .build()
}

/// Renumber `wl`'s jobs so id order is a non-monotone permutation of
/// workload (arrival) order: job `i` gets id `1000 + (37·i mod n)`.
fn permuted(mut wl: Workload) -> Workload {
    let n = wl.jobs.len() as u64;
    assert_eq!(gcd(37, n), 1, "37 must permute 0..{n}");
    for (i, job) in wl.jobs.iter_mut().enumerate() {
        job.id = JobId(1000 + (37 * i as u64) % n);
    }
    wl
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn config(policy: ClusterPolicy, nodes: u32, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy)
        .with_nodes(nodes)
        .with_seed(seed);
    cfg.knapsack.window = 64;
    cfg
}

/// Wide nodes, so each card carries many co-resident offloads.
fn wide(policy: ClusterPolicy, nodes: u32, seed: u64) -> ClusterConfig {
    let mut cfg = config(policy, nodes, seed);
    cfg.slots_per_node = 24;
    cfg
}

/// A card reset on node 1 and a churn of node 2, overlapping in time.
fn reset_and_churn() -> FaultPlan {
    let fault = |kind, node, device, at, down| FaultEvent {
        kind,
        node,
        device,
        at: SimTime::from_secs(at),
        downtime: SimDuration::from_secs(down),
    };
    FaultPlan {
        events: vec![
            fault(FaultKind::DeviceReset, 1, 0, 20, 40),
            fault(FaultKind::NodeChurn, 2, 0, 35, 60),
            fault(FaultKind::DeviceReset, 3, 0, 90, 30),
        ],
    }
}

/// FNV-1a over the `Debug` rendering of every trace event, in order.
fn fingerprint(trace: &Trace) -> u64 {
    trace.events.iter().fold(0xcbf2_9ce4_8422_2325, |h, ev| {
        format!("{ev:?}")
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Run every case and return its golden row.
fn measure() -> Vec<Row> {
    let faults = reset_and_churn();
    let mut perturbed = wide(ClusterPolicy::Mcc, 3, 5);
    perturbed.perturb = PerturbConfig::from_spec("derate:200:60:0.5,latency:150:30:2,horizon:2000")
        .expect("valid perturbation spec");
    let cases: Vec<(&'static str, ClusterConfig, Workload, Option<&FaultPlan>)> = vec![
        ("mc", config(ClusterPolicy::Mc, 4, 11), table1(60, 11), None),
        (
            "mcc",
            wide(ClusterPolicy::Mcc, 3, 12),
            offload_dense(90, 12),
            None,
        ),
        (
            "mcck",
            config(ClusterPolicy::Mcck, 4, 13),
            table1(60, 13),
            None,
        ),
        (
            "mcck-faults",
            config(ClusterPolicy::Mcck, 4, 14),
            table1(60, 14),
            Some(&faults),
        ),
        (
            "mcc-faults-permuted",
            wide(ClusterPolicy::Mcc, 3, 15),
            permuted(offload_dense(90, 15)),
            Some(&faults),
        ),
        (
            "mc-permuted",
            config(ClusterPolicy::Mc, 3, 16),
            permuted(table1(50, 16)),
            None,
        ),
        (
            "mcck-faults-permuted",
            config(ClusterPolicy::Mcck, 4, 17),
            permuted(table1(60, 17)),
            Some(&faults),
        ),
        ("mcc-perturbed", perturbed, offload_dense(60, 18), None),
    ];
    cases
        .into_iter()
        .map(|(name, cfg, wl, faults)| {
            let opts = RunOptions {
                faults,
                trace: true,
                ..RunOptions::default()
            };
            let (r, trace) = Experiment::run_with(&cfg, &wl, &opts)
                .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
            (
                name,
                r.makespan_secs.to_bits(),
                r.mean_wait_secs.to_bits(),
                r.core_utilization.to_bits(),
                r.completed,
                r.events_processed,
                fingerprint(&trace.expect("tracing was enabled")),
            )
        })
        .collect()
}

#[test]
fn runtime_results_are_bit_identical_to_the_pinned_values() {
    let actual = measure();
    if actual != GOLDEN {
        let mut table = String::from("#[rustfmt::skip]\nconst GOLDEN: &[Row] = &[\n");
        for (name, makespan, wait, util, completed, events, trace) in &actual {
            table.push_str(&format!(
                "    (\"{name}\", {makespan:#018x}, {wait:#018x}, {util:#018x}, {completed}, {events}, {trace:#018x}),\n"
            ));
        }
        table.push_str("];");
        panic!("runtime results moved off the golden pins; fresh values:\n{table}");
    }
}

#[test]
fn golden_cases_exercise_what_they_claim() {
    let faults = reset_and_churn();
    let wl = permuted(offload_dense(90, 15));
    let ids: Vec<u64> = wl.jobs.iter().map(|j| j.id.raw()).collect();
    assert!(
        ids.windows(2).any(|w| w[0] > w[1]),
        "ids must not be monotone in workload order"
    );
    let opts = RunOptions {
        faults: Some(&faults),
        ..RunOptions::default()
    };
    let (r, _) = Experiment::run_with(&wide(ClusterPolicy::Mcc, 3, 15), &wl, &opts).unwrap();
    assert_eq!(r.device_resets, 2, "{r:?}");
    assert_eq!(r.node_churns, 1, "{r:?}");
    assert!(r.retries > 0, "the churn must vacate running jobs: {r:?}");
}
