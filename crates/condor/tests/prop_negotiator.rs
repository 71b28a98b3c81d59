//! Differential property tests for the matchmaking paths.
//!
//! The negotiator has three implementations: the incremental delta path
//! (`negotiate_delta_with_stats`, the default), the compiled/indexed
//! full-rematch fast path (`negotiate_full_with_stats`), and the retained
//! naive reference that re-parses and re-evaluates every (job, slot) pair
//! (`negotiate_naive_with_stats`). These tests drive all of them over
//! randomized clusters, job mixes, and churn sequences and require
//! *identical* results: same matches in the same order, same cycle stats,
//! same final collector state (including the in-cycle resource decrements
//! and every index), and same queue state.

use phishare_classad::ad::{RANK, REQUIREMENTS};
use phishare_condor::attrs;
use phishare_condor::{Collector, JobQueue, Negotiator, SlotId};
use phishare_sim::SimTime;
use phishare_workload::JobId;
use proptest::prelude::*;

/// One node of the generated cluster.
#[derive(Debug, Clone)]
struct NodeDesc {
    slots: u32,
    free_mem: i64,
    devices_free: i64,
}

/// The matchmaking personality of one generated job.
#[derive(Debug, Clone)]
enum JobKind {
    /// `PhiDevices >= 1 && PhiFreeMemory >= MY.RequestPhiMemory`.
    Sharing { mem: i64 },
    /// `PhiDevicesFree >= 1`, exclusive flag set.
    Exclusive { mem: i64 },
    /// Pinned to one slot name (which may not exist).
    PinSlot { node: u32, slot: u32 },
    /// Pinned to one node name (which may not exist).
    PinNode { node: u32 },
    /// Constant-false requirements.
    Never,
    /// No requirements at all: matches any slot.
    Always,
    /// A disjunction the compiler cannot reduce to guards (residual path).
    ResidualOr { mem: i64 },
    /// Guard on an attribute machines do not advertise.
    MissingAttr,
}

fn arb_node() -> impl Strategy<Value = NodeDesc> {
    (
        1u32..=3,
        prop_oneof![Just(0i64), Just(512), Just(1024), Just(3000), Just(7680)],
        0i64..=2,
    )
        .prop_map(|(slots, free_mem, devices_free)| NodeDesc {
            slots,
            free_mem,
            devices_free,
        })
}

fn arb_job_kind() -> impl Strategy<Value = JobKind> {
    let mem = prop_oneof![
        Just(100i64),
        Just(512),
        Just(1024),
        Just(3000),
        Just(6000),
        Just(9000)
    ];
    prop_oneof![
        mem.clone().prop_map(|mem| JobKind::Sharing { mem }),
        mem.clone().prop_map(|mem| JobKind::Exclusive { mem }),
        (1u32..=6, 1u32..=4).prop_map(|(node, slot)| JobKind::PinSlot { node, slot }),
        (1u32..=6).prop_map(|node| JobKind::PinNode { node }),
        Just(JobKind::Never),
        Just(JobKind::Always),
        mem.prop_map(|mem| JobKind::ResidualOr { mem }),
        Just(JobKind::MissingAttr),
    ]
}

fn job_ad(kind: &JobKind, ranked: bool) -> phishare_classad::ClassAd {
    let mut ad = phishare_classad::ClassAd::new();
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    match kind {
        JobKind::Sharing { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        JobKind::Exclusive { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
        JobKind::PinSlot { node, slot } => {
            ad.insert_expr(
                REQUIREMENTS,
                &attrs::pin_requirements(&format!("slot{slot}@node{node}")),
            )
            .unwrap();
        }
        JobKind::PinNode { node } => {
            ad.insert_expr(REQUIREMENTS, &attrs::pin_to_node(&format!("node{node}")))
                .unwrap();
        }
        JobKind::Never => {
            ad.insert_expr(REQUIREMENTS, "false").unwrap();
        }
        JobKind::Always => {}
        JobKind::ResidualOr { mem } => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, *mem);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiFreeMemory >= MY.RequestPhiMemory || TARGET.PhiDevicesFree >= 2",
            )
            .unwrap();
        }
        JobKind::MissingAttr => {
            ad.insert_expr(REQUIREMENTS, "TARGET.NoSuchAttribute >= 1")
                .unwrap();
        }
    }
    if ranked {
        ad.insert_expr(RANK, "TARGET.PhiFreeMemory").unwrap();
    }
    ad
}

/// Build the identical (queue, collector) pair twice from the generated
/// scenario, so the fast and naive paths start from equal states.
fn build(nodes: &[NodeDesc], jobs: &[(JobKind, bool)], claims: &[bool]) -> (JobQueue, Collector) {
    build_parts(nodes, jobs, claims, 1)
}

/// [`build`] with an explicit collector partition count.
fn build_parts(
    nodes: &[NodeDesc],
    jobs: &[(JobKind, bool)],
    claims: &[bool],
    parts: usize,
) -> (JobQueue, Collector) {
    let mut collector = Collector::with_partitions(parts);
    let mut all_slots = Vec::new();
    for (n, node) in nodes.iter().enumerate() {
        let node_idx = n as u32 + 1;
        for s in 1..=node.slots {
            let id = SlotId {
                node: node_idx,
                slot: s,
            };
            let ad = attrs::machine_ad(
                &id.name(),
                &format!("node{node_idx}"),
                1,
                8192,
                node.free_mem.max(0) as u64,
                node.devices_free.max(0) as u32,
            );
            collector.advertise(id, ad);
            all_slots.push(id);
        }
    }
    for (slot, claim) in all_slots.iter().zip(claims.iter()) {
        if *claim {
            collector.claim(*slot);
        }
    }
    let mut queue = JobQueue::new();
    for (i, (kind, ranked)) in jobs.iter().enumerate() {
        queue
            .submit(JobId(i as u64), job_ad(kind, *ranked), SimTime::ZERO)
            .unwrap();
    }
    (queue, collector)
}

/// One churn action applied identically to both twins between cycles.
/// Indices are taken modulo the live population at application time, so
/// every generated op is applicable and both twins see the same effect.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Release the i-th currently-claimed slot.
    Release(usize),
    /// Claim the i-th currently-unclaimed slot out from under the queue
    /// (an external schedd winning the slot).
    Claim(usize),
    /// Refresh a slot's Phi availability in place.
    Refresh { slot: usize, mem: i64, devs: i64 },
    /// Node churn: every ad the node ever advertised is invalidated.
    InvalidateNode(u32),
    /// Node (re)join: advertise two fresh slots on the node.
    Advertise { node: u32, mem: i64 },
    /// Rewrite a job's requested memory (folds into its compiled guards).
    QeditMem { job: usize, mem: i64 },
    /// An open-arrival submission mid-stream.
    Submit(JobKind),
}

fn arb_churn() -> impl Strategy<Value = ChurnOp> {
    let mem = prop_oneof![Just(0i64), Just(512), Just(3000), Just(7680)];
    prop_oneof![
        (0usize..16).prop_map(ChurnOp::Release),
        (0usize..16).prop_map(ChurnOp::Claim),
        (0usize..16, mem.clone(), 0i64..=2).prop_map(|(slot, mem, devs)| ChurnOp::Refresh {
            slot,
            mem,
            devs
        }),
        (1u32..=4).prop_map(ChurnOp::InvalidateNode),
        (1u32..=4, mem.clone()).prop_map(|(node, mem)| ChurnOp::Advertise { node, mem }),
        (0usize..12, mem).prop_map(|(job, mem)| ChurnOp::QeditMem { job, mem }),
        arb_job_kind().prop_map(ChurnOp::Submit),
    ]
}

/// Apply one churn op to one (queue, collector) twin. `next_id` is the
/// twin's open-arrival id counter (kept in lockstep across twins).
fn apply_churn(op: &ChurnOp, queue: &mut JobQueue, collector: &mut Collector, next_id: &mut u64) {
    match op {
        ChurnOp::Release(i) => {
            let claimed: Vec<SlotId> = collector
                .slots()
                .filter(|(_, s)| s.claimed)
                .map(|(id, _)| *id)
                .collect();
            if !claimed.is_empty() {
                collector.release(claimed[i % claimed.len()]);
            }
        }
        ChurnOp::Claim(i) => {
            let unclaimed = collector.unclaimed();
            if !unclaimed.is_empty() {
                collector.claim(unclaimed[i % unclaimed.len()]);
            }
        }
        ChurnOp::Refresh { slot, mem, devs } => {
            let slots: Vec<SlotId> = collector.slots().map(|(id, _)| *id).collect();
            if !slots.is_empty() {
                collector.refresh_phi_availability(
                    slots[slot % slots.len()],
                    *mem as u64,
                    *devs as u32,
                );
            }
        }
        ChurnOp::InvalidateNode(node) => {
            collector.invalidate_node(*node);
        }
        ChurnOp::Advertise { node, mem } => {
            for s in 1..=2u32 {
                let id = SlotId {
                    node: *node,
                    slot: s,
                };
                let ad =
                    attrs::machine_ad(&id.name(), &format!("node{node}"), 1, 8192, *mem as u64, 1);
                collector.advertise(id, ad);
            }
        }
        ChurnOp::QeditMem { job, mem } => {
            let ids = queue.pending();
            if !ids.is_empty() {
                queue
                    .qedit_value(ids[job % ids.len()], attrs::REQUEST_PHI_MEMORY, *mem)
                    .unwrap();
            }
        }
        ChurnOp::Submit(kind) => {
            queue
                .submit(JobId(*next_id), job_ad(kind, false), SimTime::ZERO)
                .unwrap();
            *next_id += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Delta and full paths are result-identical to the naive evaluator:
    /// matches (content *and* order), cycle stats, final collector state
    /// (ads and claims — `Collector: PartialEq` covers the authoritative
    /// state), and the queue's pending set.
    #[test]
    fn all_paths_match_naive_evaluator(
        nodes in prop::collection::vec(arb_node(), 1..=5),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 1..=10),
        claims in prop::collection::vec(any::<bool>(), 0..=15),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &claims);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &claims);
        let (mut q_naive, mut c_naive) = build(&nodes, &jobs, &claims);
        prop_assert_eq!(&c_delta, &c_naive, "builders must start equal");

        let negotiator = Negotiator::default();
        let delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);

        prop_assert_eq!(&delta, &full, "delta diverged from full oracle");
        prop_assert_eq!(&full, &naive, "full diverged from naive reference");
        prop_assert_eq!(&c_delta, &c_full, "collector states diverged");
        prop_assert_eq!(&c_full, &c_naive, "collector states diverged");
        prop_assert_eq!(q_delta.pending(), q_naive.pending());
        prop_assert_eq!(q_full.pending(), q_naive.pending());
        prop_assert_eq!(q_delta.active_counts(), q_naive.active_counts());
    }

    /// Two consecutive cycles stay identical too — the second cycle starts
    /// from the first one's decremented ads, mutated indexes, and (for the
    /// delta path) unmatched certificates, which is where stale-index and
    /// stale-certificate bugs would surface.
    #[test]
    fn all_paths_match_naive_over_two_cycles(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 1..=8),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &[]);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &[]);
        let (mut q_naive, mut c_naive) = build(&nodes, &jobs, &[]);
        let negotiator = Negotiator::default();

        let first_delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let first_full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let first_naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        prop_assert_eq!(&first_delta, &first_full);
        prop_assert_eq!(&first_full, &first_naive);

        // Release the first cycle's claims on all sides, as dispatch would.
        let claimed: Vec<SlotId> = c_naive
            .slots()
            .filter(|(_, s)| s.claimed)
            .map(|(id, _)| *id)
            .collect();
        for slot in claimed {
            c_delta.release(slot);
            c_full.release(slot);
            c_naive.release(slot);
        }

        let second_delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let second_full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let second_naive = negotiator.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        prop_assert_eq!(&second_delta, &second_full);
        prop_assert_eq!(&second_full, &second_naive);
        prop_assert_eq!(&c_delta, &c_full);
        prop_assert_eq!(&c_full, &c_naive);
    }

    /// The core delta-exactness property: across an arbitrary multi-cycle
    /// history of churn — claims and releases out from under the queue, ad
    /// refreshes, node loss and rejoin, qedits, open-arrival submissions —
    /// the delta path stays bit-identical to the full-rematch oracle in
    /// every cycle.
    #[test]
    fn delta_matches_full_oracle_across_random_churn(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 0..=8),
        rounds in prop::collection::vec(prop::collection::vec(arb_churn(), 0..=5), 1..=5),
    ) {
        let (mut q_delta, mut c_delta) = build(&nodes, &jobs, &[]);
        let (mut q_full, mut c_full) = build(&nodes, &jobs, &[]);
        let negotiator = Negotiator::default();
        let mut next_delta = jobs.len() as u64;
        let mut next_full = jobs.len() as u64;

        for (r, ops) in rounds.iter().enumerate() {
            for op in ops {
                apply_churn(op, &mut q_delta, &mut c_delta, &mut next_delta);
                apply_churn(op, &mut q_full, &mut c_full, &mut next_full);
            }
            prop_assert_eq!(&c_delta, &c_full, "churn diverged before round {}", r);

            let delta = negotiator.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
            let full = negotiator.negotiate_full_with_stats(&mut q_full, &mut c_full);
            prop_assert_eq!(&delta, &full, "round {} matches diverged", r);
            prop_assert_eq!(&c_delta, &c_full, "round {} collectors diverged", r);
            prop_assert_eq!(q_delta.pending(), q_full.pending(), "round {} pending diverged", r);
        }
    }

    /// Partition-count invariance: the partitioned delta screen produces
    /// bit-identical matches, cycle stats, queue state, and collector state
    /// for every partition count across arbitrary churn histories. P = 1 is
    /// the PR 6 job-sharded screen (the bench baseline); 2, 3, and 8
    /// exercise uneven node→partition maps, cross-partition winner merges,
    /// and per-partition dirty watermarks. `Collector: PartialEq` is itself
    /// partition-layout-blind, so the final-state comparisons are exact.
    #[test]
    fn partition_count_is_invisible_across_random_churn(
        nodes in prop::collection::vec(arb_node(), 1..=4),
        jobs in prop::collection::vec((arb_job_kind(), any::<bool>()), 0..=8),
        rounds in prop::collection::vec(prop::collection::vec(arb_churn(), 0..=5), 1..=4),
    ) {
        const PARTS: [usize; 4] = [1, 2, 3, 8];
        let negotiator = Negotiator::default();
        let mut twins: Vec<(JobQueue, Collector, u64)> = PARTS
            .iter()
            .map(|&p| {
                let (q, c) = build_parts(&nodes, &jobs, &[], p);
                (q, c, jobs.len() as u64)
            })
            .collect();

        for (r, ops) in rounds.iter().enumerate() {
            let mut outcomes = Vec::new();
            for (queue, collector, next_id) in twins.iter_mut() {
                for op in ops {
                    apply_churn(op, queue, collector, next_id);
                }
                outcomes.push(negotiator.negotiate_delta_with_stats(queue, collector));
            }
            for (i, outcome) in outcomes.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &outcomes[0], outcome,
                    "round {}: P={} matches diverged from P=1", r, PARTS[i]
                );
                prop_assert_eq!(
                    &twins[0].1, &twins[i].1,
                    "round {}: P={} collector diverged from P=1", r, PARTS[i]
                );
                prop_assert_eq!(
                    twins[0].0.pending(), twins[i].0.pending(),
                    "round {}: P={} pending diverged from P=1", r, PARTS[i]
                );
            }
        }
    }
}

/// Regression: a match's same-cycle `PhiFreeMemory` decrement must be
/// reflected in the collector's free-memory index immediately, so a later
/// job in the same cycle cannot match against stale capacity.
#[test]
fn same_cycle_decrement_is_visible_in_free_mem_index() {
    let mut collector = Collector::new();
    for s in 1..=2u32 {
        let id = SlotId { node: 1, slot: s };
        collector.advertise(id, attrs::machine_ad(&id.name(), "node1", 1, 8192, 7680, 1));
    }
    let mut queue = JobQueue::new();
    queue
        .submit(
            JobId(0),
            job_ad(&JobKind::Sharing { mem: 5000 }, false),
            SimTime::ZERO,
        )
        .unwrap();
    queue
        .submit(
            JobId(1),
            job_ad(&JobKind::Sharing { mem: 4000 }, false),
            SimTime::ZERO,
        )
        .unwrap();

    let (matches, stats) = Negotiator::default().negotiate_with_stats(&mut queue, &mut collector);

    // Job 0 takes 5000 of the node's 7680; job 1's 4000 no longer fits.
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].job, JobId(0));
    assert_eq!(stats.matched, 1);
    assert_eq!(stats.unmatched, 1);
    assert_eq!(queue.pending(), vec![JobId(1)]);

    // The index answers with the decremented value: nothing at >= 4000,
    // and the one unclaimed slot shows 2680 left.
    assert_eq!(
        collector.unclaimed_with_free_mem_at_least(4000.0).count(),
        0
    );
    let remaining: Vec<SlotId> = collector.unclaimed_with_free_mem_at_least(2680.0).collect();
    assert_eq!(remaining, vec![SlotId { node: 1, slot: 2 }]);
}

/// Generalization of the regression above to an *arbitrary* guard-indexed
/// attribute: the negotiation cycle registers an index for whatever numeric
/// guard the jobs carry (here a made-up `TapeDrives`), and mid-cycle
/// mutations — a claim taking the only qualifying slot, then an in-place
/// decrement — must be visible to later range scans in the same way
/// `PhiFreeMemory` decrements are. Delta and full paths must agree on all
/// of it.
#[test]
fn same_cycle_coherence_holds_for_arbitrary_guard_indexed_attrs() {
    let build = || {
        let mut collector = Collector::new();
        for (s, drives) in [(1u32, 3i64), (2, 1)] {
            let id = SlotId { node: 1, slot: s };
            let mut ad = attrs::machine_ad(&id.name(), "node1", 1, 8192, 7680, 1);
            ad.insert("TapeDrives", drives);
            collector.advertise(id, ad);
        }
        let mut queue = JobQueue::new();
        for i in 0..3u64 {
            let mut ad = phishare_classad::ClassAd::new();
            // Jobs 0 and 1 both need the 2-drive slot; only slot 1
            // qualifies, so job 0's claim must block job 1 *within the
            // cycle*. Job 2's weaker guard still fits slot 2.
            let bound = if i < 2 { 2 } else { 1 };
            ad.insert_expr(REQUIREMENTS, &format!("TARGET.TapeDrives >= {bound}"))
                .unwrap();
            queue.submit(JobId(i), ad, SimTime::ZERO).unwrap();
        }
        (queue, collector)
    };

    for path in [
        phishare_condor::MatchPath::Delta,
        phishare_condor::MatchPath::Full,
    ] {
        let (mut queue, mut collector) = build();
        let negotiator = Negotiator::default().with_path(path);
        let (matches, stats) = negotiator.negotiate_with_stats(&mut queue, &mut collector);
        assert_eq!(
            matches.iter().map(|m| (m.job, m.slot)).collect::<Vec<_>>(),
            vec![
                (JobId(0), SlotId { node: 1, slot: 1 }),
                (JobId(2), SlotId { node: 1, slot: 2 }),
            ],
            "{path:?}"
        );
        assert_eq!(stats.unmatched, 1, "{path:?}");
        assert_eq!(queue.pending(), vec![JobId(1)], "{path:?}");

        // The cycle registered the index; it answers range queries with
        // the claims applied, and in-place edits keep it coherent.
        let idx = collector
            .attr_index("tapedrives")
            .expect("registered by the cycle");
        assert_eq!(collector.indexed_range_at_least(idx, 2.0).count(), 0);
        collector.release(SlotId { node: 1, slot: 1 });
        collector.set_int_attr(SlotId { node: 1, slot: 1 }, "TapeDrives", 2);
        assert_eq!(
            collector
                .indexed_range_at_least(idx, 2.0)
                .collect::<Vec<_>>(),
            vec![SlotId { node: 1, slot: 1 }]
        );
        // And the freed slot satisfies the remaining job next cycle.
        let (matches, _) = negotiator.negotiate_with_stats(&mut queue, &mut collector);
        assert_eq!(
            matches.iter().map(|m| m.job).collect::<Vec<_>>(),
            vec![JobId(1)],
            "{path:?}"
        );
    }
}

// --- Clustered churn ----------------------------------------------------
//
// The delta path screens once per *autocluster* (jobs whose significant
// attributes are equal) and lets later FIFO members reuse the cluster's
// memo. These properties drive deep same-class backlogs through churn that
// attacks each part of the key: non-significant attributes that must not
// split a cluster, a `Rank` over a `MY.` attribute that must, slot ads
// whose own `Requirements` read a job attribute (the key must widen), and
// qedits that move jobs between clusters mid-run.

/// A few job classes; many jobs per class differ only in non-significant
/// attributes (`ClusterId`, `RequestPhiThreads`).
#[derive(Debug, Clone, Copy)]
enum Class {
    /// MC-style exclusive card request.
    Exclusive,
    /// Sharing request for `mem` MB.
    Sharing(i64),
    /// Sharing request ranked by free memory times `MY.RankWeight`: +1
    /// prefers the emptiest node, -1 the fullest.
    Ranked(i64),
    /// Plain `PhiDevices >= 1` job carrying a `Tier` that only guarded
    /// slot ads read.
    Tiered(i64),
}

fn arb_class() -> impl Strategy<Value = Class> {
    prop_oneof![
        Just(Class::Exclusive),
        prop_oneof![Just(512i64), Just(3000)].prop_map(Class::Sharing),
        prop_oneof![Just(1i64), Just(-1)].prop_map(Class::Ranked),
        (1i64..=2).prop_map(Class::Tiered),
    ]
}

fn class_ad(class: Class, id: u64) -> phishare_classad::ClassAd {
    let mut ad = phishare_classad::ClassAd::new();
    ad.insert(attrs::JOB_ID, id);
    ad.insert(attrs::REQUEST_PHI_THREADS, 60 * (1 + id % 4));
    ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, false);
    ad.insert(attrs::REQUEST_PHI_MEMORY, 512i64);
    match class {
        Class::Exclusive => {
            ad.insert(attrs::REQUEST_EXCLUSIVE_PHI, true);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevicesFree >= 1")
                .unwrap();
        }
        Class::Sharing(mem) => {
            ad.insert(attrs::REQUEST_PHI_MEMORY, mem);
            ad.insert_expr(
                REQUIREMENTS,
                "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            )
            .unwrap();
        }
        Class::Ranked(weight) => {
            ad.insert("RankWeight", weight);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiFreeMemory >= MY.RequestPhiMemory")
                .unwrap();
            ad.insert_expr(RANK, "TARGET.PhiFreeMemory * MY.RankWeight")
                .unwrap();
        }
        Class::Tiered(tier) => {
            ad.insert("Tier", tier);
            ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevices >= 1")
                .unwrap();
        }
    }
    ad
}

/// A slot ad; `guarded` ones refuse tier-1 jobs through their own
/// `Requirements` — scoped on odd nodes, bare (falling through to the job
/// as TARGET) on even ones.
fn clustered_slot_ad(id: SlotId, mem: i64, guarded: bool) -> phishare_classad::ClassAd {
    let node = format!("node{}", id.node);
    let mut ad = attrs::machine_ad(&id.name(), &node, 1, 8192, mem as u64, 1);
    if guarded {
        let req = if id.node % 2 == 1 {
            "TARGET.Tier =!= 1"
        } else {
            "Tier =!= 1"
        };
        ad.insert_expr(REQUIREMENTS, req).unwrap();
    }
    ad
}

#[derive(Debug, Clone)]
enum ClusterOp {
    /// Release the i-th claimed slot and refresh its node to full.
    Release(usize),
    /// (Re)advertise a node's two slots, optionally guarded.
    Advertise { node: u32, mem: i64, guarded: bool },
    /// Node loss.
    Invalidate(u32),
    /// Move the i-th pending job to another tier (widened-key move).
    QeditTier { job: usize, tier: i64 },
    /// Flip the i-th pending job's rank weight (base-key move for ranked
    /// jobs, a non-significant edit for the rest).
    QeditWeight { job: usize, weight: i64 },
    /// Rewrite the i-th pending job's thread request (never significant).
    QeditThreads { job: usize },
    /// A burst of same-class arrivals.
    Submit(Class, usize),
}

fn arb_cluster_op() -> impl Strategy<Value = ClusterOp> {
    let mem = prop_oneof![Just(1024i64), Just(7680)];
    prop_oneof![
        (0usize..16).prop_map(ClusterOp::Release),
        (1u32..=4, mem, any::<bool>()).prop_map(|(node, mem, guarded)| ClusterOp::Advertise {
            node,
            mem,
            guarded
        }),
        (1u32..=4).prop_map(ClusterOp::Invalidate),
        (0usize..40, 1i64..=2).prop_map(|(job, tier)| ClusterOp::QeditTier { job, tier }),
        (0usize..40, prop_oneof![Just(1i64), Just(-1)])
            .prop_map(|(job, weight)| ClusterOp::QeditWeight { job, weight }),
        (0usize..40).prop_map(|job| ClusterOp::QeditThreads { job }),
        (arb_class(), 1usize..=6).prop_map(|(c, n)| ClusterOp::Submit(c, n)),
    ]
}

fn apply_cluster_op(
    op: &ClusterOp,
    queue: &mut JobQueue,
    collector: &mut Collector,
    next_id: &mut u64,
) {
    let pick = |queue: &JobQueue, i: usize| {
        let ids = queue.pending();
        (!ids.is_empty()).then(|| ids[i % ids.len()])
    };
    match op {
        ClusterOp::Release(i) => {
            let claimed: Vec<SlotId> = collector
                .slots()
                .filter(|(_, s)| s.claimed)
                .map(|(id, _)| *id)
                .collect();
            if !claimed.is_empty() {
                let slot = claimed[i % claimed.len()];
                collector.release(slot);
                for s in collector.node_slots(slot.node) {
                    collector.refresh_phi_availability(s, 7680, 1);
                }
            }
        }
        ClusterOp::Advertise { node, mem, guarded } => {
            for s in 1..=2u32 {
                let id = SlotId {
                    node: *node,
                    slot: s,
                };
                collector.advertise(id, clustered_slot_ad(id, *mem, *guarded));
            }
        }
        ClusterOp::Invalidate(node) => {
            collector.invalidate_node(*node);
        }
        ClusterOp::QeditTier { job, tier } => {
            if let Some(id) = pick(queue, *job) {
                queue.qedit_value(id, "Tier", *tier).unwrap();
            }
        }
        ClusterOp::QeditWeight { job, weight } => {
            if let Some(id) = pick(queue, *job) {
                queue.qedit_value(id, "RankWeight", *weight).unwrap();
            }
        }
        ClusterOp::QeditThreads { job } => {
            if let Some(id) = pick(queue, *job) {
                queue
                    .qedit_value(id, attrs::REQUEST_PHI_THREADS, 240u64)
                    .unwrap();
            }
        }
        ClusterOp::Submit(class, n) => {
            for _ in 0..*n {
                queue
                    .submit(JobId(*next_id), class_ad(*class, *next_id), SimTime::ZERO)
                    .unwrap();
                *next_id += 1;
            }
        }
    }
}

/// One clustered scenario's starting state on a `parts`-partitioned pool:
/// 4 nodes × 2 slots (`guarded` marks nodes whose slot ads carry their own
/// requirements) and a deep FIFO backlog from `classes`.
fn build_clustered(
    guarded: &[bool],
    classes: &[(Class, usize)],
    parts: usize,
) -> (JobQueue, Collector, u64) {
    let mut collector = Collector::with_partitions(parts);
    for (n, &g) in guarded.iter().enumerate() {
        for s in 1..=2u32 {
            let id = SlotId {
                node: n as u32 + 1,
                slot: s,
            };
            collector.advertise(id, clustered_slot_ad(id, 7680, g));
        }
    }
    let mut queue = JobQueue::new();
    let mut next_id = 0u64;
    // Interleave the classes round-robin so clusters alternate in FIFO
    // order and every memo sees foreign commits between its members.
    let mut left: Vec<(Class, usize)> = classes.to_vec();
    while left.iter().any(|&(_, n)| n > 0) {
        for (class, n) in left.iter_mut().filter(|(_, n)| *n > 0) {
            queue
                .submit(JobId(next_id), class_ad(*class, next_id), SimTime::ZERO)
                .unwrap();
            next_id += 1;
            *n -= 1;
        }
    }
    (queue, collector, next_id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deep same-class backlogs under clustered churn: the delta path
    /// (P = 1, 2, 3, 8) stays bit-identical to the full rematch and the
    /// naive evaluator in every cycle — matches in order, stats, final
    /// collector, pending set and per-state counts.
    #[test]
    fn clustered_churn_is_oracle_identical_and_partition_invariant(
        guarded in prop::collection::vec(any::<bool>(), 4),
        classes in prop::collection::vec((arb_class(), 1usize..=12), 1..=4),
        rounds in prop::collection::vec(prop::collection::vec(arb_cluster_op(), 0..=5), 1..=5),
    ) {
        const PARTS: [usize; 4] = [1, 2, 3, 8];
        let negotiator = Negotiator::default();
        // Twins: delta at every partition count, then full and naive.
        let mut twins: Vec<(JobQueue, Collector, u64)> = PARTS
            .iter()
            .chain([1, 1].iter())
            .map(|&p| build_clustered(&guarded, &classes, p))
            .collect();
        let oracle = PARTS.len();
        for (r, ops) in rounds.iter().enumerate() {
            let mut outcomes = Vec::new();
            for (t, (queue, collector, next_id)) in twins.iter_mut().enumerate() {
                for op in ops {
                    apply_cluster_op(op, queue, collector, next_id);
                }
                outcomes.push(match t {
                    t if t < oracle => negotiator.negotiate_delta_with_stats(queue, collector),
                    t if t == oracle => negotiator.negotiate_full_with_stats(queue, collector),
                    _ => negotiator.negotiate_naive_with_stats(queue, collector),
                });
            }
            for t in 1..twins.len() {
                prop_assert_eq!(&outcomes[0], &outcomes[t], "round {} twin {}", r, t);
                prop_assert_eq!(&twins[0].1, &twins[t].1, "round {} twin {} collector", r, t);
                prop_assert_eq!(
                    twins[0].0.pending(), twins[t].0.pending(),
                    "round {} twin {} pending", r, t
                );
                prop_assert_eq!(twins[0].0.active_counts(), twins[t].0.active_counts());
            }
        }
    }
}

/// The widened key is load-bearing: two tier classes share a base
/// autocluster (the job's own expressions never read `Tier`), but a slot
/// ad that refuses tier 1 must split them. A delta path that kept the
/// base key would hand the tier-2 job the tier-1 job's "nothing admits"
/// memo and leave it unmatched.
#[test]
fn slot_requirements_widen_the_autocluster_key() {
    let build = || {
        let mut collector = Collector::new();
        let id = SlotId { node: 1, slot: 1 };
        collector.advertise(id, clustered_slot_ad(id, 7680, true));
        let mut queue = JobQueue::new();
        queue
            .submit(JobId(0), class_ad(Class::Tiered(1), 0), SimTime::ZERO)
            .unwrap();
        queue
            .submit(JobId(1), class_ad(Class::Tiered(2), 1), SimTime::ZERO)
            .unwrap();
        (queue, collector)
    };
    let (q, c) = build();
    assert_eq!(
        q.get(JobId(0)).unwrap().autocluster(),
        q.get(JobId(1)).unwrap().autocluster(),
        "same base key"
    );
    assert_eq!(c.slot_job_refs().collect::<Vec<_>>(), vec!["tier"]);
    for path in [
        phishare_condor::MatchPath::Delta,
        phishare_condor::MatchPath::Full,
    ] {
        let (mut q, mut c) = build();
        let (matches, stats, work) = Negotiator::default()
            .with_path(path)
            .negotiate_with_work(&mut q, &mut c);
        assert_eq!(
            matches.iter().map(|m| m.job).collect::<Vec<_>>(),
            vec![JobId(1)],
            "{path:?}"
        );
        assert_eq!(stats.unmatched, 1);
        if path == phishare_condor::MatchPath::Delta {
            assert_eq!(work.autoclusters, 2, "the guarded slot splits the tiers");
        }
    }
}
