//! The negotiator: periodic FIFO matchmaking cycles.
//!
//! "The central manager then initiates a negotiation cycle during which all
//! pending jobs are examined in FIFO order, and matched with machines.
//! Negotiation cycles are triggered periodically." (§II-D)
//!
//! The paper's scheduler interacts with this component only indirectly: it
//! qedits job `Requirements` and then *waits for the next cycle* — the
//! source of the integration overhead the paper observes on the high-skew
//! distribution (§V-B).
//!
//! # Match paths
//!
//! Three implementations produce bit-identical matches, stats, and
//! collector/queue effects; they differ only in how much work they avoid:
//!
//! * **Delta** ([`MatchPath::Delta`], the default) — incremental
//!   matchmaking. Jobs the previous cycle certified unmatched are only
//!   re-screened against slots *dirtied since* that certificate
//!   ([`Collector::dirty_since`]); per-cycle work tracks the mutation
//!   churn, not the (jobs × slots) cross product.
//! * **Full** ([`MatchPath::Full`]) — the compiled full-rematch fast path:
//!   every pending job re-screens the whole pool through the narrowest
//!   collector index its guards allow. Retained as the delta path's
//!   differential oracle.
//! * **Naive** ([`Negotiator::negotiate_naive_with_stats`]) — the original
//!   implementation, a full scan that re-parses `Requirements`/`Rank` for
//!   every (job, slot) pair. The benchmark baseline.
//!
//! # Why the delta path is exact
//!
//! The match predicate for a (job, slot) pair is a pure function of the job
//! ad, the slot ad, and the slot's claim flag — nothing else. Suppose a
//! cycle evaluated job J against the *entire* pool at collector sequence
//! `s` and found no admitting slot. At any later sequence, a slot can admit
//! J only if its ad changed after `s` — an unchanged unclaimed slot
//! re-evaluates to the same "reject", and claiming only removes candidates.
//! The collector stamps every ad mutation (including in-cycle resource
//! decrements — the predicate is not assumed monotone, a requirement may
//! want *less* of something) and slot release, so `dirty_since(s)` is a
//! superset of J's possible admitters. Screening just that set against the
//! full predicate is therefore exact, and when it finds nothing the cycle
//! re-certifies J at the current sequence ([`JobQueue::note_unmatched`]).
//!
//! Jobs without a standing certificate (fresh arrivals, qedited jobs,
//! hold/release round trips) are screened against the whole pool, exactly
//! like the full path — unless another member of their autocluster holds
//! one (below).
//!
//! # Autoclusters
//!
//! A FIFO backlog is mostly copies of a few job classes: every MC job
//! carries `Requirements = TARGET.PhiDevicesFree >= 1`, and the paper's
//! workloads are seven Table I application types. As in HTCondor, the
//! delta path negotiates per *autocluster* — jobs whose significant
//! attributes are equal — instead of per job. The queue interns the key at
//! submit and qedit time ([`QueuedJob::autocluster`]): the source of
//! the job's `Requirements` and `Rank`, plus the value (or absence) of
//! every job attribute they read (`MY.x`, bare `x`). Non-significant
//! attributes such as `ClusterId` or `RequestPhiThreads` stay out, so a
//! backlog of identical requests is one cluster. When a slot ad carries its
//! own `Requirements`/`Rank` over job attributes (the collector keeps the
//! referenced names with O(1) emptiness, [`Collector::slot_job_refs`]),
//! each cycle widens the key by the values of those attributes, so the
//! machine half of the match is equal across a cluster too.
//!
//! Equal (widened) keys mean equal admission and rank against every slot
//! ad, which makes two facts about certificates and winners cluster-wide:
//!
//! * **Screens.** A member's certificate at `c` proves that no slot
//!   unchanged since `c` admits *any* member. So the admitters of every
//!   member, certified or not, lie in `dirty_since(c_max)`, where `c_max`
//!   is the newest certificate any member holds. Phase 2 therefore screens
//!   once per cluster: over `dirty_since(c_max)` (or the cluster's narrow
//!   prefilter), or over the indexed pool when no member holds a
//!   certificate. [`best_among`] gives the same winner over any superset
//!   of the admitters, so the screen is each member's exact snapshot
//!   winner.
//! * **The commit memo.** Phase 3 keeps one memo per cluster: `(seq,
//!   best)`, the cluster's exact winner over the whole pool at collector
//!   sequence `seq`. It is seeded with the screen at the snapshot, and
//!   every member's commit replaces it with its own choice. A later member
//!   needs only `dirty_since(seq)`, by the certificate argument above
//!   applied to the cluster instead of a job. After the cluster's first
//!   failure (`best = None`), the rest of the backlog costs one empty dirt
//!   range per job, where it used to cost a re-rank of the cycle's dirt
//!   plus a whole-pool rescan.
//!
//! Per-cycle work is therefore O(clusters × dirt) rather than O(backlog ×
//! dirt). [`CycleWork`] ([`Negotiator::negotiate_with_work`]) counts it:
//! screens, clusters, slot evaluations per phase, memo hits and rescans.
//!
//! The cycle runs in three phases:
//!
//! 1. **index registration** (`&mut Collector`): every cluster's
//!    `>=`-shaped guards register their attribute with the collector's
//!    guard indexes (idempotent, capped), so phases 2–3 are pure reads plus
//!    the serial commit. This also resolves the well-known attributes once
//!    per cycle instead of per (job, slot) evaluation.
//! 2. **screen** (read-only): each autocluster computes its best slot
//!    against the pre-cycle snapshot — over the dirt since its newest
//!    certificate, or over the indexed pool. Clusters are independent
//!    here, so with enough of them the screen shards across scoped threads
//!    (see below).
//! 3. **commit** (serial): jobs claim in FIFO order through their
//!    cluster's memo. A memo winner that is still valid (not claimed, not
//!    dirtied since the memo) only competes with slots dirtied after it —
//!    the winner rule is a total order, so this combination equals a full
//!    re-evaluation. An invalidated winner (claimed or re-advertised
//!    mid-cycle) falls back to a full indexed rescan; an empty memo means
//!    only the dirt since it can admit the job.
//!
//! # Sharding determinism
//!
//! Phase 2 is embarrassingly parallel: workers share `&JobQueue` and
//! `&Collector` (no interior mutability anywhere below them), each owns a
//! contiguous chunk of the cluster list, and results merge back by cluster
//! index. Screening is a pure function of (cluster, snapshot), so the shard
//! count — [`Negotiator::with_shards`] or the `PHISHARE_NEGOTIATOR_SHARDS`
//! env override — cannot change any result, only wall-clock time. All
//! claims and resource decrements happen in the serial phase 3, which
//! remains the sole author of collector mutations; match order is FIFO by
//! construction.
//!
//! # Partitioned screen
//!
//! When the collector is partitioned ([`Collector::with_partitions`]), the
//! delta path swaps the cluster-sharded screen for a *partition-parallel*
//! one: each cluster first compiles a [`ScreenPlan`] — pin resolution,
//! guard-index selection, and the selectivity probe hoisted out of the
//! per-partition loop — and then every partition screens all clusters against
//! only its own slots (its dirty shard, its slice of the guard index, its
//! unclaimed slots). Certificate dirt is cached per partition as one
//! stamp-sorted vector and sliced per cluster by binary search. The
//! per-partition winners merge serially by the winner rule (highest rank,
//! ties to the lowest slot id) — a total order, so merging the partition
//! maxima equals evaluating the union, and the result is bit-identical to
//! the unpartitioned screen for any partition count. Partitions screen on
//! scoped threads when the machine has them (`PHISHARE_PARTITION_THREADS`
//! caps the fan-out); phase 3 stays serial either way.
//!
//! # Quiescent cycles
//!
//! A delta cycle whose every idle job holds a certificate at least as new
//! as the pool's newest dirtying mutation ([`Collector::max_watermark`])
//! is provably a no-op: each job would re-screen an empty dirty set,
//! re-certify at an unchanged sequence, and match nothing. With
//! [`Negotiator::with_quiescence`] enabled (the default) the delta path
//! detects this in O(1) — [`JobQueue::idle_cert_floor`] against the
//! watermark — and returns the cycle's exact stats without touching the
//! queue, the collector, or the pending list. The fast path fires only
//! when the executed cycle would have been state-identical, so results
//! remain bit-for-bit equal to [`MatchPath::Full`]; the `Full` path never
//! short-circuits and stays the differential oracle.

use crate::attrs;
use crate::collector::{Collector, SlotId};
use crate::queue::{JobQueue, QueuedJob};
use phishare_classad::ad::REQUIREMENTS;
use phishare_classad::compiled::GuardOp;
use phishare_classad::{eval, parse, ClassAd, CompiledReq, Value};
use phishare_sim::SimDuration;
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write;

/// Summary of one negotiation cycle (what the negotiator logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Pending jobs examined (FIFO order).
    pub considered: usize,
    /// Jobs matched to a slot this cycle.
    pub matched: usize,
    /// Jobs left pending: no unclaimed slot satisfied the two-sided match.
    pub unmatched: usize,
}

/// How much work one negotiation cycle did, by phase — what the cycle
/// *cost*, as opposed to what it decided ([`CycleStats`]). The match paths
/// decide identically but work differently, so this is reported beside
/// the stats ([`Negotiator::negotiate_with_work`]), never inside them.
/// Deterministic: a pure function of the cycle's inputs and path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleWork {
    /// Phase-2 screens run: one per autocluster on the delta path, except
    /// clusters whose newest certificate already covers the pool; none on
    /// the full path (it has no screen phase).
    pub screens: usize,
    /// Distinct autoclusters among the pending jobs (delta path).
    pub autoclusters: usize,
    /// Slot evaluations (candidates ranked against the two-sided match
    /// predicate) in the phase-2 screen.
    pub screen_evals: usize,
    /// Slot evaluations in the phase-3 FIFO commit.
    pub commit_evals: usize,
    /// Commits answered from the autocluster memo an earlier member of the
    /// same cluster left this cycle, without a whole-pool rescan.
    pub memo_hits: usize,
    /// Commits that ran a whole-pool `best_slot` rescan (on the full path,
    /// every commit does).
    pub fallbacks: usize,
}

/// A successful match produced by one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// The matched job.
    pub job: JobId,
    /// The slot the job will run on.
    pub slot: SlotId,
}

/// Which negotiation implementation [`Negotiator::negotiate_with_stats`]
/// dispatches to. All paths produce identical results (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MatchPath {
    /// Incremental delta-driven matchmaking (the default).
    #[default]
    Delta,
    /// Full rematch of every pending job each cycle, through the compiled
    /// guard indexes. The delta path's differential oracle.
    Full,
}

impl std::str::FromStr for MatchPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "delta" => Ok(MatchPath::Delta),
            "full" => Ok(MatchPath::Full),
            other => Err(format!("unknown negotiation path '{other}' (delta|full)")),
        }
    }
}

/// Screen count below which the phase-2 screen stays serial — thread
/// spawn overhead dwarfs the work saved on a handful of screens.
const PAR_SCREEN_MIN: usize = 32;

/// Cap on the default shard count (explicit overrides may exceed it).
const MAX_DEFAULT_SHARDS: usize = 8;

/// How many candidates the guard-index selectivity probe inspects per
/// index before choosing the narrowest (see [`pick_guard_index`]).
const SELECTIVITY_PROBE: usize = 33;

/// One screened winner: highest rank, ties to the lowest slot id.
type Best = Option<(f64, SlotId)>;

/// The matchmaking component of the central manager.
#[derive(Debug, Clone, Copy)]
pub struct Negotiator {
    /// Gap between negotiation cycles (HTCondor's `NEGOTIATOR_INTERVAL`,
    /// 60 s by default; the paper's overhead analysis hinges on this).
    pub interval: SimDuration,
    /// Which implementation [`Negotiator::negotiate_with_stats`] runs.
    pub path: MatchPath,
    /// Phase-2 shard count; `None` resolves via
    /// `PHISHARE_NEGOTIATOR_SHARDS` or the machine's parallelism.
    shards: Option<usize>,
    /// Whether the delta path may skip provably no-op cycles (module
    /// docs). Unobservable in results; off only to measure the skip.
    quiescence: bool,
}

impl Default for Negotiator {
    fn default() -> Self {
        Negotiator {
            interval: SimDuration::from_secs(60),
            path: MatchPath::default(),
            shards: None,
            quiescence: true,
        }
    }
}

impl Negotiator {
    /// Create a negotiator with the given cycle interval.
    pub fn new(interval: SimDuration) -> Self {
        Negotiator {
            interval,
            ..Negotiator::default()
        }
    }

    /// Select the negotiation implementation.
    pub fn with_path(self, path: MatchPath) -> Self {
        Negotiator { path, ..self }
    }

    /// Pin the phase-2 shard count (1 = serial screen). Results are
    /// shard-count independent; only wall-clock time changes.
    pub fn with_shards(self, shards: usize) -> Self {
        Negotiator {
            shards: Some(shards.max(1)),
            ..self
        }
    }

    /// Enable or disable the quiescent-cycle fast path (delta path only;
    /// on by default). Results are identical either way — disabling it
    /// exists so benchmarks can time the executed cycle.
    pub fn with_quiescence(self, quiescence: bool) -> Self {
        Negotiator { quiescence, ..self }
    }

    /// Whether a delta cycle right now would provably be a no-op: every
    /// idle job certified unmatched at or after the pool's newest dirtying
    /// mutation. O(1); exact (module docs).
    pub fn cycle_is_quiescent(queue: &JobQueue, collector: &Collector) -> bool {
        queue
            .idle_cert_floor()
            .is_some_and(|floor| collector.max_watermark() <= floor)
    }

    /// Job shards the P = 1 delta screen fans out over (the configured
    /// override, else [`default_shards`]). Benches record this in their
    /// committed knob blocks.
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or_else(default_shards)
    }

    /// Run one negotiation cycle: examine pending jobs in FIFO order, match
    /// each against the unclaimed slots, claim matched slots and decrement
    /// the matched node's advertised Phi resources so the *same cycle*
    /// cannot overcommit them.
    pub fn negotiate(&self, queue: &mut JobQueue, collector: &mut Collector) -> Vec<Match> {
        self.negotiate_with_stats(queue, collector).0
    }

    /// [`Negotiator::negotiate`] plus the cycle's accounting, via the
    /// configured [`MatchPath`].
    pub fn negotiate_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let (matches, stats, _) = self.negotiate_with_work(queue, collector);
        (matches, stats)
    }

    /// [`Negotiator::negotiate_with_stats`] plus the cycle's work counters
    /// ([`CycleWork`]) — the accessor for what the configured path cost.
    pub fn negotiate_with_work(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats, CycleWork) {
        match self.path {
            MatchPath::Delta => self.delta_cycle(queue, collector),
            MatchPath::Full => full_cycle(queue, collector),
        }
    }

    /// The compiled full-rematch fast path (see module docs); it clones no
    /// ads and reuses one candidate buffer across all jobs of the cycle.
    pub fn negotiate_full_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let (matches, stats, _) = full_cycle(queue, collector);
        (matches, stats)
    }

    /// The incremental delta path (see module docs for the three phases,
    /// autoclusters and the exactness argument).
    pub fn negotiate_delta_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        let (matches, stats, _) = self.delta_cycle(queue, collector);
        (matches, stats)
    }

    fn delta_cycle(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats, CycleWork) {
        // Quiescence fast path, checked before the pending list is even
        // materialized: when every idle certificate covers the newest
        // watermark, the executed cycle would re-screen empty dirty sets,
        // match nothing, and re-stamp each certificate at its unchanged
        // sequence — a pure no-op whose stats we can emit directly.
        if self.quiescence && Self::cycle_is_quiescent(queue, collector) {
            let idle = queue.idle_count();
            let stats = CycleStats {
                considered: idle,
                matched: 0,
                unmatched: idle,
            };
            return (Vec::new(), stats, CycleWork::default());
        }
        let pending = queue.pending();
        let clusters = Autoclusters::of(queue, &pending, collector);
        let watermark = collector.max_watermark();
        let mut work = CycleWork {
            screens: clusters
                .reps
                .iter()
                .filter(|r| r.cert.is_none_or(|c| c < watermark))
                .count(),
            autoclusters: clusters.reps.len(),
            ..CycleWork::default()
        };
        // Phase 1: register guard indexes while we still hold `&mut`. All
        // members of a cluster share one compiled requirement.
        let reps: Vec<JobId> = clusters.reps.iter().map(|r| r.job).collect();
        register_guard_indexes(queue, &reps, collector);
        let s0 = collector.seq();
        // Phase 2: one read-only screen per autocluster against the
        // pre-cycle snapshot — partition-parallel when the collector is
        // partitioned, sharded over clusters otherwise.
        let (screens, screen_evals) = if collector.partitions() > 1 {
            screen_partitioned(queue, &clusters.reps, collector)
        } else {
            screen_clusters(queue, &clusters.reps, collector, self.shard_count())
        };
        work.screen_evals = screen_evals;
        // Phase 3: serial FIFO commit through the per-cluster memo, seeded
        // with each cluster's screen at the snapshot sequence.
        let mut memo: Vec<Memo> = screens
            .into_iter()
            .map(|best| Memo {
                seq: s0,
                best,
                by_member: false,
            })
            .collect();
        let mut scratch: Vec<SlotId> = Vec::new();
        let (matches, stats) = run_cycle(queue, collector, |job, collector, idx| {
            let memo = &mut memo[clusters.of[idx]];
            let mut evals = 0;
            // The memo stands unless its winner was claimed or
            // re-advertised since (then the runner-up is unknown).
            let stands = memo.best.is_none_or(|(_, winner)| {
                collector.get(winner).is_some_and(|s| !s.claimed)
                    && !collector.dirtied_after(winner, memo.seq)
            });
            let choice = if stands {
                work.memo_hits += usize::from(memo.by_member);
                // Only slots dirtied since the memo can admit the cluster
                // anew or beat its standing winner — none at all while the
                // pool is unchanged (the common backlog case).
                let fresh = (memo.seq < collector.seq())
                    .then(|| {
                        best_among(
                            &job.ad,
                            job.compiled(),
                            collector,
                            collector.dirty_since(memo.seq),
                            &mut evals,
                        )
                    })
                    .flatten();
                better(memo.best, fresh)
            } else {
                work.fallbacks += 1;
                best_slot(&job.ad, job.compiled(), collector, &mut scratch, &mut evals)
            };
            work.commit_evals += evals;
            *memo = Memo {
                seq: collector.seq(),
                best: choice,
                by_member: true,
            };
            choice.map(|(_, slot)| slot)
        });
        (matches, stats, work)
    }

    /// The pre-optimization negotiation cycle, kept verbatim as the
    /// reference implementation: scan every unclaimed slot for every job
    /// and re-parse each expression per evaluation. Differential tests
    /// hold the fast path to byte-identical matches and stats against
    /// this; the negotiation benchmark reports the speedup over it.
    pub fn negotiate_naive_with_stats(
        &self,
        queue: &mut JobQueue,
        collector: &mut Collector,
    ) -> (Vec<Match>, CycleStats) {
        run_cycle(queue, collector, |job, collector, _| {
            let mut best: Option<(f64, SlotId)> = None;
            for slot in collector.unclaimed() {
                let status = collector.get(slot).expect("listed slot exists");
                if naive_matches(&job.ad, &status.ad) {
                    let rank = naive_rank(&job.ad, &status.ad);
                    let better = match best {
                        None => true,
                        // Higher rank wins; ties go to the lowest slot id so
                        // cycles are deterministic.
                        Some((r, s)) => rank > r || (rank == r && slot < s),
                    };
                    if better {
                        best = Some((rank, slot));
                    }
                }
            }
            best.map(|(_, slot)| slot)
        })
    }
}

/// The full-rematch cycle: every pending job rescans the whole pool.
fn full_cycle(
    queue: &mut JobQueue,
    collector: &mut Collector,
) -> (Vec<Match>, CycleStats, CycleWork) {
    register_guard_indexes(queue, &queue.pending(), collector);
    let mut scratch: Vec<SlotId> = Vec::new();
    let mut work = CycleWork::default();
    let (matches, stats) = run_cycle(queue, collector, |job, collector, _| {
        work.fallbacks += 1;
        best_slot(
            &job.ad,
            job.compiled(),
            collector,
            &mut scratch,
            &mut work.commit_evals,
        )
        .map(|(_, slot)| slot)
    });
    (matches, stats, work)
}

/// One autocluster's standing answer during the FIFO commit: `best` was
/// the cluster's exact winner over the whole pool at collector sequence
/// `seq`. Seeded by the phase-2 screen at the snapshot; every member's
/// commit replaces it with its own (exact) choice.
#[derive(Debug, Clone, Copy)]
struct Memo {
    seq: u64,
    best: Best,
    /// Whether an earlier member of this cycle wrote the memo.
    by_member: bool,
}

/// One autocluster of a delta cycle.
#[derive(Debug, Clone, Copy)]
struct ClusterRep {
    /// The cluster's first pending member in FIFO order, whose ad every
    /// screen of the cluster evaluates (all members' ads evaluate alike).
    job: JobId,
    /// The newest standing unmatched certificate among the members, if any
    /// member holds one.
    cert: Option<u64>,
}

/// The pending jobs of one delta cycle grouped into autoclusters.
struct Autoclusters {
    /// Dense cluster index of each pending job, parallel to the pending
    /// list.
    of: Vec<usize>,
    /// One entry per cluster, in order of first appearance.
    reps: Vec<ClusterRep>,
}

impl Autoclusters {
    /// Group `pending` by interned autocluster id — widened, when any slot
    /// ad carries expressions over job attributes, by the values of those
    /// attributes (module docs).
    fn of(queue: &JobQueue, pending: &[JobId], collector: &Collector) -> Self {
        let widen: Vec<&str> = collector.slot_job_refs().collect();
        let mut by_id: HashMap<u32, usize> = HashMap::new();
        let mut by_widened: HashMap<(u32, String), usize> = HashMap::new();
        let mut of = Vec::with_capacity(pending.len());
        let mut reps: Vec<ClusterRep> = Vec::new();
        for &id in pending {
            let job = queue.get(id).expect("pending job exists");
            let next = reps.len();
            let k = if widen.is_empty() {
                *by_id.entry(job.autocluster()).or_insert(next)
            } else {
                let mut values = String::new();
                for name in &widen {
                    let _ = write!(values, "{:?};", job.ad.get(name));
                }
                *by_widened
                    .entry((job.autocluster(), values))
                    .or_insert(next)
            };
            if k == next {
                reps.push(ClusterRep {
                    job: id,
                    cert: None,
                });
            }
            // `None < Some(_)`: the newest certificate wins.
            reps[k].cert = reps[k].cert.max(job.eval_seq());
            of.push(k);
        }
        Autoclusters { of, reps }
    }
}

/// The shared cycle driver: FIFO over pending jobs, delegating *selection*
/// to the match path and owning the commit — claim, state transition,
/// same-cycle resource decrement — plus the unmatched certificate. Every
/// path funnels through here, so commit semantics cannot drift.
fn run_cycle(
    queue: &mut JobQueue,
    collector: &mut Collector,
    mut select: impl FnMut(&QueuedJob, &Collector, usize) -> Option<SlotId>,
) -> (Vec<Match>, CycleStats) {
    let mut stats = CycleStats::default();
    let mut matches = Vec::new();
    for (idx, job_id) in queue.pending().into_iter().enumerate() {
        stats.considered += 1;
        // Select under an immutable borrow; copy out the commit parameters
        // so the mutations below need no clone of the ad.
        let decision = {
            let job = queue.get(job_id).expect("pending job exists");
            select(job, collector, idx).map(|slot| {
                (
                    slot,
                    int_attr(&job.ad, attrs::lc::REQUEST_PHI_MEMORY).unwrap_or(0),
                    matches!(
                        job.ad.get(attrs::lc::REQUEST_EXCLUSIVE_PHI),
                        Some(Value::Bool(true))
                    ),
                )
            })
        };
        match decision {
            Some((slot, mem, exclusive)) => {
                let claimed = collector.claim(slot);
                debug_assert!(claimed, "selected slot failed to claim");
                queue
                    .set_matched(job_id, slot)
                    .expect("pending job transitions to matched");
                commit_phi_resources(collector, slot.node, mem, exclusive);
                matches.push(Match { job: job_id, slot });
                stats.matched += 1;
            }
            None => {
                stats.unmatched += 1;
                // The path just established that no slot in the current
                // pool admits this job — a whole-pool certificate the next
                // delta cycle builds on.
                queue.note_unmatched(job_id, collector.seq());
            }
        }
    }
    (matches, stats)
}

/// Ensure a guard index exists for every `>=`/`>`-shaped guard attribute of
/// the given jobs. Idempotent and capped (the collector refuses past
/// [`crate::collector::MAX_ATTR_INDEXES`]; those guards fall back to the
/// unclaimed scan); steady state is a handful of string compares per job.
fn register_guard_indexes(queue: &JobQueue, jobs: &[JobId], collector: &mut Collector) {
    for &id in jobs {
        let req = queue.get(id).expect("pending job exists").compiled();
        for g in req.guards() {
            if matches!(g.op, GuardOp::Ge | GuardOp::Gt) {
                collector.ensure_attr_index(&g.attr);
            }
        }
    }
}

/// Phase-2 screen of every autocluster against the current (frozen)
/// collector snapshot, sharded across scoped threads when there are enough
/// screens to pay for the spawn. Returns one winner per cluster, merged by
/// index — bit-identical to the serial screen (module docs) — plus the
/// slot evaluations spent.
fn screen_clusters(
    queue: &JobQueue,
    reps: &[ClusterRep],
    collector: &Collector,
    shards: usize,
) -> (Vec<Best>, usize) {
    let screen_chunk = |reps: &[ClusterRep]| -> (Vec<Best>, usize) {
        let mut scratch: Vec<SlotId> = Vec::new();
        let mut evals = 0;
        let screens = reps
            .iter()
            .map(|rep| {
                let job = queue.get(rep.job).expect("pending job exists");
                screen_job(job, rep.cert, collector, &mut scratch, &mut evals)
            })
            .collect();
        (screens, evals)
    };

    if shards <= 1 || reps.len() < PAR_SCREEN_MIN {
        return screen_chunk(reps);
    }
    let chunk = reps.len().div_ceil(shards);
    let mut screens = Vec::with_capacity(reps.len());
    let mut evals = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = reps
            .chunks(chunk)
            .map(|reps| scope.spawn(move || screen_chunk(reps)))
            .collect();
        for handle in handles {
            let (part, n) = handle.join().expect("screen shard panicked");
            screens.extend(part);
            evals += n;
        }
    });
    (screens, evals)
}

/// One cluster's per-cycle screening recipe, compiled once and reused by
/// every partition: pin resolution, guard-index selection, and the
/// selectivity probe are hoisted here instead of re-running per (cluster,
/// partition).
#[derive(Debug, Clone)]
enum ScreenPlan {
    /// Certificate holder: re-rank only slots dirtied after this sequence.
    Dirty(u64),
    /// No candidates anywhere: an impossible requirement, or a certificate
    /// no dirtying mutation has outrun.
    Never,
    /// Screened once globally at plan-compilation time: a stale
    /// certificate holder whose own prefilter is provably narrow (see
    /// [`stale_narrow_plan`]) gains nothing from partition fan-out, so its
    /// winner is computed up front and every partition skips it.
    Resolved(Best),
    /// Pinned to a slot name (resolved once; `None` = no such slot).
    Name(Option<SlotId>),
    /// Pinned to a machine; its slots, resolved once.
    Machine(Box<[SlotId]>),
    /// Narrowest admitting guard index and bound, probed once.
    Guard(usize, f64),
    /// No narrowing applies: unclaimed scan.
    Scan,
}

/// Compile one certificate-less cluster's [`ScreenPlan`], mirroring
/// [`best_slot`]'s pre-screen order exactly.
fn plan_job(req: &CompiledReq, collector: &Collector) -> ScreenPlan {
    if req.is_never() {
        ScreenPlan::Never
    } else if let Some(name) = req.pin(attrs::lc::NAME) {
        ScreenPlan::Name(collector.slot_by_name(name))
    } else if let Some(machine) = req.pin(attrs::lc::MACHINE) {
        ScreenPlan::Machine(collector.slots_on_machine(machine).into())
    } else if let Some((idx, bound)) = pick_guard_index(req, collector) {
        ScreenPlan::Guard(idx, bound)
    } else {
        ScreenPlan::Scan
    }
}

/// Phase-2 screen over a partitioned collector: every partition screens
/// all autoclusters against only its own slots, then the per-partition
/// winners merge serially by the winner rule. Bit-identical to
/// [`screen_clusters`] for any partition count (module docs): each plan's
/// per-partition candidate sets union to exactly the serial candidate set,
/// and the winner rule is a total order, so the merge of partition maxima
/// is the global maximum.
fn screen_partitioned(
    queue: &JobQueue,
    reps: &[ClusterRep],
    collector: &Collector,
) -> (Vec<Best>, usize) {
    let mut evals = 0;
    let plans: Vec<ScreenPlan> = reps
        .iter()
        .map(|rep| {
            let job = queue.get(rep.job).expect("pending job exists");
            match rep.cert {
                // A certificate no dirt has outrun still covers the pool.
                Some(seq) if collector.max_watermark() <= seq => ScreenPlan::Never,
                // Prefer the cluster's own narrow prefilter over the dirty
                // walk when it is provably smaller — and since it is at
                // most a handful of slots, screen it right here against the
                // global indexes instead of fanning it out to every
                // partition.
                Some(seq) => match stale_narrow_plan(job.compiled(), collector) {
                    Some(plan) => {
                        ScreenPlan::Resolved(screen_narrow(job, collector, &plan, &mut evals))
                    }
                    None => ScreenPlan::Dirty(seq),
                },
                None => plan_job(job.compiled(), collector),
            }
        })
        .collect();
    // The oldest certificate bounds the per-partition dirty cache.
    let oldest_cert = plans
        .iter()
        .filter_map(|p| match p {
            ScreenPlan::Dirty(seq) => Some(*seq),
            _ => None,
        })
        .min();

    let screen_partition = |pi: usize| -> (Vec<Best>, usize) {
        // Per-cycle dirty cache: this partition's dirt since the oldest
        // certificate, stamp-sorted; each cluster slices it by binary
        // search.
        let dirt: Vec<(u64, SlotId)> = match oldest_cert {
            Some(seq) => collector.partition_dirty_entries_since(pi, seq).collect(),
            None => Vec::new(),
        };
        let mut evals = 0;
        let screens = reps
            .iter()
            .zip(&plans)
            .map(|(rep, plan)| {
                let job = queue.get(rep.job).expect("pending job exists");
                let (ad, req) = (&job.ad, job.compiled());
                match plan {
                    ScreenPlan::Dirty(seq) => {
                        let start = dirt.partition_point(|&(stamp, _)| stamp <= *seq);
                        let candidates = dirt[start..].iter().map(|&(_, slot)| slot);
                        best_among(ad, req, collector, candidates, &mut evals)
                    }
                    // Already screened globally at compilation; the merge
                    // seeds these directly.
                    ScreenPlan::Never | ScreenPlan::Resolved(_) => None,
                    ScreenPlan::Name(slot) => {
                        let candidates = slot.filter(|s| collector.part_of(s.node) == pi);
                        best_among(ad, req, collector, candidates, &mut evals)
                    }
                    ScreenPlan::Machine(slots) => {
                        let candidates = slots
                            .iter()
                            .copied()
                            .filter(|s| collector.part_of(s.node) == pi);
                        best_among(ad, req, collector, candidates, &mut evals)
                    }
                    ScreenPlan::Guard(idx, bound) => {
                        let candidates =
                            collector.partition_indexed_range_at_least(pi, *idx, *bound);
                        best_among(ad, req, collector, candidates, &mut evals)
                    }
                    ScreenPlan::Scan => {
                        let candidates = collector.partition_unclaimed_iter(pi);
                        best_among(ad, req, collector, candidates, &mut evals)
                    }
                }
            })
            .collect();
        (screens, evals)
    };

    let parts = collector.partitions();
    let threads = crate::collector::partition_threads(parts);
    let mut per_part: Vec<(Vec<Best>, usize)> = Vec::with_capacity(parts);
    if threads > 1 && !reps.is_empty() {
        let screen_partition = &screen_partition;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..parts)
                .map(|pi| scope.spawn(move || screen_partition(pi)))
                .collect();
            for handle in handles {
                per_part.push(handle.join().expect("partition screen panicked"));
            }
        });
    } else {
        per_part.extend((0..parts).map(screen_partition));
    }

    // Serial pre-commit merge: winner rule across partitions, per cluster;
    // compilation-resolved screens seed their slots directly.
    let mut screens: Vec<Best> = plans
        .iter()
        .map(|plan| match plan {
            ScreenPlan::Resolved(r) => *r,
            _ => None,
        })
        .collect();
    for (part, n) in per_part {
        evals += n;
        for (best, merged) in part.into_iter().zip(screens.iter_mut()) {
            *merged = better(*merged, best);
        }
    }
    (screens, evals)
}

/// The winner rule over two candidates: higher rank, ties to the lower
/// slot id; an absent candidate loses. A total order, so folding it over
/// any partition of a candidate set yields the set's winner.
fn better(a: Best, b: Best) -> Best {
    match (a, b) {
        (Some((ra, sa)), Some((rb, sb))) if rb > ra || (rb == ra && sb < sa) => b,
        (None, b) => b,
        (a, _) => a,
    }
}

/// One cluster's screen: with a certificate `cert` (the newest among its
/// members), re-rank only the slots dirtied since — or the cluster's own
/// narrowing prefilter when that is provably smaller (see
/// [`stale_narrow_plan`]); without one, scan the pool through the
/// narrowest index.
fn screen_job(
    job: &QueuedJob,
    cert: Option<u64>,
    collector: &Collector,
    scratch: &mut Vec<SlotId>,
    evals: &mut usize,
) -> Best {
    match cert {
        Some(seq) => {
            if collector.max_watermark() <= seq {
                // Nothing has been dirtied since the certificate; it still
                // covers the whole pool.
                return None;
            }
            match stale_narrow_plan(job.compiled(), collector) {
                Some(plan) => screen_narrow(job, collector, &plan, evals),
                None => best_among(
                    &job.ad,
                    job.compiled(),
                    collector,
                    collector.dirty_since(seq),
                    evals,
                ),
            }
        }
        None => best_slot(&job.ad, job.compiled(), collector, scratch, evals),
    }
}

/// Execute one of [`stale_narrow_plan`]'s plans against the *global*
/// collector indexes — at most a handful of candidates by construction.
fn screen_narrow(
    job: &QueuedJob,
    collector: &Collector,
    plan: &ScreenPlan,
    evals: &mut usize,
) -> Best {
    let (ad, req) = (&job.ad, job.compiled());
    match plan {
        ScreenPlan::Never => None,
        ScreenPlan::Name(slot) => best_among(ad, req, collector, *slot, evals),
        ScreenPlan::Machine(slots) => best_among(ad, req, collector, slots.iter().copied(), evals),
        ScreenPlan::Guard(idx, bound) => best_among(
            ad,
            req,
            collector,
            collector.indexed_range_at_least(*idx, *bound),
            evals,
        ),
        ScreenPlan::Dirty(_) | ScreenPlan::Scan | ScreenPlan::Resolved(_) => {
            unreachable!("stale_narrow_plan only produces narrow plans")
        }
    }
}

/// A stale certificate holder's candidates are contained in *both* the
/// dirt since its certificate and its own pre-screen superset (pin, guard
/// range) — the certificate rules out every slot unchanged since `seq`,
/// the prefilter rules out every slot the requirement cannot admit, and
/// [`best_among`] is enumeration-independent over any superset of the true
/// admitters. This returns the job's narrowing plan when it is *provably*
/// no wider than the selectivity probe (a pin, an impossible requirement,
/// or a guard range of fewer than [`SELECTIVITY_PROBE`] slots), so
/// re-certifying e.g. a 50 GB memory request against a pool whose index
/// tops out at 8 GB costs O(log pool) instead of one evaluation per dirty
/// slot. `None` means the plan is unbounded — walk the dirt instead.
fn stale_narrow_plan(req: &CompiledReq, collector: &Collector) -> Option<ScreenPlan> {
    if req.is_never() {
        Some(ScreenPlan::Never)
    } else if let Some(name) = req.pin(attrs::lc::NAME) {
        Some(ScreenPlan::Name(collector.slot_by_name(name)))
    } else if let Some(machine) = req.pin(attrs::lc::MACHINE) {
        Some(ScreenPlan::Machine(
            collector.slots_on_machine(machine).into(),
        ))
    } else {
        let (idx, bound) = pick_guard_index(req, collector)?;
        let narrow = collector
            .indexed_range_at_least(idx, bound)
            .take(SELECTIVITY_PROBE)
            .count()
            < SELECTIVITY_PROBE;
        narrow.then_some(ScreenPlan::Guard(idx, bound))
    }
}

/// Find the best slot for one job over the whole pool, using the compiled
/// requirement to pick the narrowest collector index. `scratch` is
/// caller-owned, reused across jobs to avoid per-job allocation.
fn best_slot(
    job_ad: &ClassAd,
    req: &CompiledReq,
    collector: &Collector,
    scratch: &mut Vec<SlotId>,
    evals: &mut usize,
) -> Best {
    if req.is_never() {
        return None;
    }

    // Pre-screen: pick the narrowest index the compiled guards allow. Each
    // source yields a superset of the job's true matches among unclaimed
    // slots (claimed slots are filtered in `best_among`), so the full
    // re-check keeps the result exact.
    scratch.clear();
    if let Some(name) = req.pin(attrs::lc::NAME) {
        scratch.extend(collector.slot_by_name(name));
    } else if let Some(machine) = req.pin(attrs::lc::MACHINE) {
        scratch.extend_from_slice(collector.slots_on_machine(machine));
    } else if let Some((idx, bound)) = pick_guard_index(req, collector) {
        scratch.extend(collector.indexed_range_at_least(idx, bound));
    } else {
        scratch.extend(collector.unclaimed_iter());
    }
    best_among(job_ad, req, collector, scratch.iter().copied(), evals)
}

/// The narrowest registered guard index covering one of the requirement's
/// `>=`/`>` guards, with its bound, or `None` when no guard has an index.
///
/// Selectivity is estimated by walking at most [`SELECTIVITY_PROBE`]
/// candidates of each index's range — enough to tell "a handful" from
/// "basically everything" without paying O(pool) per job. Ties keep the
/// first guard in requirement order; an empty range short-circuits (the
/// guard alone proves no slot matches). Deterministic: depends only on
/// the requirement and the snapshot.
fn pick_guard_index(req: &CompiledReq, collector: &Collector) -> Option<(usize, f64)> {
    let mut best: Option<(usize, (usize, f64))> = None;
    let mut seen: Vec<&str> = Vec::new();
    for g in req.guards() {
        if !matches!(g.op, GuardOp::Ge | GuardOp::Gt) || seen.contains(&g.attr.as_str()) {
            continue;
        }
        seen.push(&g.attr);
        let Some(idx) = collector.attr_index(&g.attr) else {
            continue;
        };
        // The strongest bound over all of this attribute's guards.
        let bound = req.lower_bound(&g.attr).unwrap_or(g.bound);
        let probe = collector
            .indexed_range_at_least(idx, bound)
            .take(SELECTIVITY_PROBE)
            .count();
        if probe == 0 {
            return Some((idx, bound));
        }
        if best.is_none_or(|(count, _)| probe < count) {
            best = Some((probe, (idx, bound)));
        }
    }
    best.map(|(_, found)| found)
}

/// Rank `candidates` against the full two-sided match predicate and return
/// the winner: highest rank, ties to the lowest slot id. The rule is a
/// total order over admitted slots, so the result is independent of the
/// candidate enumeration order — any superset of the true admitters yields
/// the same winner. Adds the candidates visited to `evals`.
fn best_among(
    job_ad: &ClassAd,
    req: &CompiledReq,
    collector: &Collector,
    candidates: impl IntoIterator<Item = SlotId>,
    evals: &mut usize,
) -> Best {
    if req.is_never() {
        return None;
    }
    let rank_expr = job_ad.parsed_expr(attrs::lc::RANK);
    let mut best: Best = None;
    for slot in candidates {
        *evals += 1;
        let status = collector.get(slot).expect("candidate slot exists");
        if status.claimed || !req.matches_target(job_ad, &status.ad) {
            continue;
        }
        // Machine-side half of the two-sided match. Most slot ads carry no
        // Requirements (the meta flag is precomputed), so this usually
        // costs nothing.
        if status.meta().has_requirements() && !status.ad.requirements_satisfied(job_ad) {
            continue;
        }
        let rank = match rank_expr {
            None => 0.0,
            Some(e) => eval(e, job_ad, Some(&status.ad)).as_f64().unwrap_or(0.0),
        };
        best = better(best, Some((rank, slot)));
    }
    best
}

/// Resolve the phase-2 shard count: the `PHISHARE_NEGOTIATOR_SHARDS` env
/// override when set to a positive integer, else the machine's available
/// parallelism capped at [`MAX_DEFAULT_SHARDS`].
fn default_shards() -> usize {
    let raw = std::env::var("PHISHARE_NEGOTIATOR_SHARDS").ok();
    shards_override(raw.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(MAX_DEFAULT_SHARDS))
            .unwrap_or(1)
    })
}

/// Parse a shard-count override (the value of `PHISHARE_NEGOTIATOR_SHARDS`).
/// `None` for absent, non-numeric, or non-positive values — the caller
/// falls back to machine sizing. Injectable so the parse rules are testable
/// without mutating process-global environment state.
fn shards_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Decrement the node-level Phi attributes on every slot ad of `node` to
/// reflect a new placement for the remainder of this cycle. Routed through
/// [`Collector::set_int_attr_at`] so the guard indexes stay coherent — a
/// later job in the *same cycle* sees the reduced capacity in its range
/// query — and the slots are stamped dirty for the delta path. The two
/// well-known attributes live at fixed pre-registered index positions
/// ([`Collector::FREE_MEM_INDEX`], [`Collector::DEVICES_FREE_INDEX`]), so
/// the commit pays no per-write attribute-name resolution.
fn commit_phi_resources(collector: &mut Collector, node: u32, mem: i64, exclusive: bool) {
    for slot in collector.node_slots(node) {
        let status = collector.get(slot).expect("listed slot exists");
        let free = int_attr(&status.ad, attrs::lc::PHI_FREE_MEMORY);
        let devs = if exclusive {
            int_attr(&status.ad, attrs::lc::PHI_DEVICES_FREE)
        } else {
            None
        };
        if let Some(free) = free {
            collector.set_int_attr_at(
                slot,
                Collector::FREE_MEM_INDEX,
                attrs::lc::PHI_FREE_MEMORY,
                (free - mem).max(0),
            );
        }
        if let Some(devs) = devs {
            collector.set_int_attr_at(
                slot,
                Collector::DEVICES_FREE_INDEX,
                attrs::lc::PHI_DEVICES_FREE,
                (devs - 1).max(0),
            );
        }
    }
}

fn int_attr(ad: &ClassAd, name: &str) -> Option<i64> {
    match ad.get(name) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

// --- Naive evaluation helpers -----------------------------------------
//
// These deliberately re-parse the stored expression source on every call,
// reproducing the pre-optimization cost model (the ClassAd layer itself now
// caches parsed ASTs, which would otherwise quietly speed up the baseline).

fn naive_requirements_satisfied(my: &ClassAd, target: &ClassAd) -> bool {
    match my.get_expr(REQUIREMENTS) {
        None => true,
        Some(src) => {
            let expr = parse(src).expect("stored expression parses");
            eval(&expr, my, Some(target)).is_true()
        }
    }
}

fn naive_matches(job: &ClassAd, machine: &ClassAd) -> bool {
    naive_requirements_satisfied(job, machine) && naive_requirements_satisfied(machine, job)
}

fn naive_rank(job: &ClassAd, machine: &ClassAd) -> f64 {
    match job.get_expr(attrs::lc::RANK) {
        None => 0.0,
        Some(src) => {
            let expr = parse(src).expect("stored expression parses");
            eval(&expr, job, Some(machine)).as_f64().unwrap_or(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{exclusive_job_ad, sharing_job_ad};
    use crate::startd::Startd;
    use phishare_sim::{SimDuration, SimTime};
    use phishare_workload::table1::AppKind;
    use phishare_workload::{JobProfile, JobSpec, Segment};

    fn spec(id: u64, mem: u64, threads: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("J{id}"),
            app: AppKind::KM,
            mem_req_mb: mem,
            thread_req: threads,
            actual_peak_mem_mb: mem,
            profile: JobProfile::new(vec![Segment::offload(threads, SimDuration::from_secs(1))]),
        }
    }

    fn cluster(nodes: u32, slots: u32) -> Collector {
        cluster_partitioned(nodes, slots, 1)
    }

    fn cluster_partitioned(nodes: u32, slots: u32, parts: usize) -> Collector {
        let mut c = Collector::with_partitions(parts);
        for n in 1..=nodes {
            Startd::new(n, slots, 1, 8192).advertise(&mut c, 7680, 1);
        }
        c
    }

    #[test]
    fn fifo_matching_fills_slots() {
        let mut q = JobQueue::new();
        for i in 0..3 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 1000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 2);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        // Two slots → two matches; job 2 stays pending.
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].job, JobId(0));
        assert_eq!(matches[1].job, JobId(1));
        assert_eq!(q.pending(), vec![JobId(2)]);
    }

    #[test]
    fn cycle_decrements_node_phi_memory() {
        let mut q = JobQueue::new();
        // Three 3000 MB jobs against one node with 7680 MB: only two fit in
        // one cycle even though the node has plenty of host slots.
        for i in 0..3 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 16);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 2);
        let remaining = c
            .get(SlotId { node: 1, slot: 3 })
            .unwrap()
            .ad
            .get(attrs::PHI_FREE_MEMORY)
            .cloned();
        assert_eq!(remaining, Some(Value::Int(7680 - 6000)));
    }

    #[test]
    fn exclusive_jobs_claim_whole_cards() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(
                JobId(i),
                exclusive_job_ad(&spec(i, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mut c = cluster(1, 16); // one node, one Phi card
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        // One card → one exclusive job per cycle, regardless of host slots.
        assert_eq!(matches.len(), 1);
        assert_eq!(q.pending(), vec![JobId(1)]);
    }

    #[test]
    fn matches_spread_across_nodes() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(
                JobId(i),
                exclusive_job_ad(&spec(i, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let mut c = cluster(2, 1);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 2);
        assert_ne!(matches[0].slot.node, matches[1].slot.node);
    }

    #[test]
    fn pinned_job_goes_to_its_slot_only() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 1000, 60)), SimTime::ZERO)
            .unwrap();
        q.qedit_expr(
            JobId(0),
            "Requirements",
            &attrs::pin_requirements("slot2@node3"),
        )
        .unwrap();
        let mut c = cluster(4, 4);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].slot, SlotId { node: 3, slot: 2 });
    }

    #[test]
    fn node_pinned_job_stays_on_its_node() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 1000, 60)), SimTime::ZERO)
            .unwrap();
        q.qedit_expr(JobId(0), "Requirements", &attrs::pin_to_node("node2"))
            .unwrap();
        let mut c = cluster(4, 4);
        let matches = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].slot.node, 2);
    }

    #[test]
    fn no_candidates_leaves_job_pending() {
        let mut q = JobQueue::new();
        q.submit(JobId(0), sharing_job_ad(&spec(0, 9000, 60)), SimTime::ZERO)
            .unwrap(); // bigger than any card
        let mut c = cluster(2, 2);
        assert!(Negotiator::default().negotiate(&mut q, &mut c).is_empty());
        assert_eq!(q.pending(), vec![JobId(0)]);
    }

    #[test]
    fn cycle_stats_account_for_every_pending_job() {
        let mut q = JobQueue::new();
        for i in 0..5 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 1000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 3);
        let (matches, stats) = Negotiator::default().negotiate_with_stats(&mut q, &mut c);
        assert_eq!(stats.considered, 5);
        assert_eq!(stats.matched, matches.len());
        assert_eq!(stats.matched, 3); // three slots
        assert_eq!(stats.unmatched, 2);
        assert_eq!(stats.considered, stats.matched + stats.unmatched);
    }

    #[test]
    fn claimed_slots_are_skipped() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 100, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 1);
        let first = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(first.len(), 1);
        // Slot still claimed: second cycle matches nothing.
        let second = Negotiator::default().negotiate(&mut q, &mut c);
        assert!(second.is_empty());
        // Release → job 1 matches.
        c.release(first[0].slot);
        let third = Negotiator::default().negotiate(&mut q, &mut c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].job, JobId(1));
    }

    #[test]
    fn unmatched_jobs_gain_certificates_the_next_cycle_honors() {
        let mut q = JobQueue::new();
        for i in 0..2 {
            q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c = cluster(1, 1);
        let n = Negotiator::default();
        assert_eq!(n.negotiate(&mut q, &mut c).len(), 1);
        // Job 1 is certified unmatched at the post-cycle sequence.
        let seq = q.get(JobId(1)).unwrap().eval_seq().unwrap();
        assert_eq!(seq, c.seq());
        // A no-churn cycle re-screens only the (empty) dirty set and keeps
        // the certificate standing.
        assert!(n.negotiate(&mut q, &mut c).is_empty());
        assert_eq!(q.get(JobId(1)).unwrap().eval_seq(), Some(seq));
        // A release dirties the slot; the next delta cycle sees it.
        c.release(SlotId { node: 1, slot: 1 });
        c.refresh_phi_availability(SlotId { node: 1, slot: 1 }, 7680, 1);
        let third = n.negotiate(&mut q, &mut c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].job, JobId(1));
    }

    #[test]
    fn all_paths_agree_on_a_mixed_cycle() {
        let build = || {
            let mut q = JobQueue::new();
            q.submit(JobId(0), sharing_job_ad(&spec(0, 3000, 60)), SimTime::ZERO)
                .unwrap();
            q.submit(
                JobId(1),
                exclusive_job_ad(&spec(1, 1000, 240)),
                SimTime::ZERO,
            )
            .unwrap();
            q.submit(JobId(2), sharing_job_ad(&spec(2, 9000, 60)), SimTime::ZERO)
                .unwrap();
            q.submit(JobId(3), sharing_job_ad(&spec(3, 500, 60)), SimTime::ZERO)
                .unwrap();
            q.qedit_expr(
                JobId(3),
                "Requirements",
                &attrs::pin_requirements("slot1@node2"),
            )
            .unwrap();
            (q, cluster(3, 2))
        };
        let (mut q_delta, mut c_delta) = build();
        let (mut q_full, mut c_full) = build();
        let (mut q_naive, mut c_naive) = build();
        let n = Negotiator::default();
        let delta = n.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
        let full = n.negotiate_full_with_stats(&mut q_full, &mut c_full);
        let naive = n.negotiate_naive_with_stats(&mut q_naive, &mut c_naive);
        assert_eq!(delta, full);
        assert_eq!(full, naive);
        assert_eq!(c_delta, c_full);
        assert_eq!(c_full, c_naive);
        assert_eq!(q_delta.pending(), q_naive.pending());
    }

    #[test]
    fn delta_tracks_full_across_churny_cycles() {
        let n = Negotiator::default();
        let mut q_delta = JobQueue::new();
        let mut q_full = JobQueue::new();
        for (i, mem) in [(0u64, 3000u64), (1, 3000), (2, 3000), (3, 9000)] {
            q_delta
                .submit(JobId(i), sharing_job_ad(&spec(i, mem, 60)), SimTime::ZERO)
                .unwrap();
            q_full
                .submit(JobId(i), sharing_job_ad(&spec(i, mem, 60)), SimTime::ZERO)
                .unwrap();
        }
        let mut c_delta = cluster(2, 2);
        let mut c_full = cluster(2, 2);
        for round in 0..6 {
            // Churn between cycles, applied identically to both twins:
            // releases, refreshes, node loss and rejoin.
            for c in [&mut c_delta, &mut c_full] {
                match round {
                    1 => {
                        for slot in c.node_slots(1) {
                            c.release(slot);
                            c.refresh_phi_availability(slot, 7680, 1);
                        }
                    }
                    2 => {
                        c.invalidate_node(2);
                    }
                    3 => {
                        Startd::new(2, 2, 1, 8192).advertise(c, 7680, 1);
                    }
                    4 => {
                        for slot in c.node_slots(2) {
                            c.refresh_phi_availability(slot, 9001, 1);
                        }
                    }
                    _ => {}
                }
            }
            if round == 4 {
                // A qedit drops the certificate on both sides.
                for q in [&mut q_delta, &mut q_full] {
                    q.qedit_value(JobId(3), attrs::REQUEST_PHI_MEMORY, 8500u64)
                        .unwrap();
                }
            }
            let delta = n.negotiate_delta_with_stats(&mut q_delta, &mut c_delta);
            let full = n.negotiate_full_with_stats(&mut q_full, &mut c_full);
            assert_eq!(delta, full, "round {round}");
            assert_eq!(c_delta, c_full, "round {round}");
            assert_eq!(q_delta.pending(), q_full.pending(), "round {round}");
        }
        // The churn actually exercised the interesting rounds: the widened
        // node-2 capacity admitted the qedited big job.
        assert!(q_delta.pending().is_empty());
    }

    #[test]
    fn sharded_and_serial_screens_are_bit_identical() {
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..64 {
                let ad = if i % 3 == 0 {
                    exclusive_job_ad(&spec(i, 1000, 240))
                } else {
                    // Distinct memory requests: one autocluster each, so
                    // there are enough screens to fan out.
                    sharing_job_ad(&spec(i, 500 + i * 100, 60))
                };
                q.submit(JobId(i), ad, SimTime::ZERO).unwrap();
            }
            (q, cluster(6, 3))
        };
        let (mut q_serial, mut c_serial) = build();
        let (mut q_sharded, mut c_sharded) = build();
        let (sm, ss, sw) = Negotiator::default()
            .with_shards(1)
            .negotiate_with_work(&mut q_serial, &mut c_serial);
        let (hm, hs, hw) = Negotiator::default()
            .with_shards(5)
            .negotiate_with_work(&mut q_sharded, &mut c_sharded);
        assert!(sw.screens >= PAR_SCREEN_MIN, "{sw:?}");
        assert_eq!((sm, ss, sw), (hm, hs, hw));
        assert_eq!(c_serial, c_sharded);
        assert_eq!(q_serial.pending(), q_sharded.pending());
    }

    #[test]
    fn shards_override_parses_without_env() {
        // The parse rules, through the injectable parameter — no
        // process-global environment mutation.
        assert_eq!(shards_override(Some("5")), Some(5));
        assert_eq!(shards_override(Some(" 12 ")), Some(12));
        assert_eq!(shards_override(Some("0")), None);
        assert_eq!(shards_override(Some("not-a-number")), None);
        assert_eq!(shards_override(None), None);
    }

    #[test]
    fn shard_env_override_is_honored() {
        // The one test that really mutates the variable, serialized behind
        // the crate-wide env lock so no concurrent test observes the write.
        let _guard = phishare_test_util::env_lock();
        std::env::set_var("PHISHARE_NEGOTIATOR_SHARDS", "5");
        assert_eq!(default_shards(), 5);
        std::env::remove_var("PHISHARE_NEGOTIATOR_SHARDS");
        assert!(default_shards() >= 1);
    }

    /// Everything observable from a churny run: per-cycle (matches,
    /// stats), the final collector, and the final pending set.
    type ChurnyRun = (Vec<(Vec<Match>, CycleStats)>, Collector, Vec<JobId>);

    /// Build the same mixed workload (pins, exclusives, never-matchers,
    /// certificate holders) against a `parts`-partitioned pool and run it
    /// through several churny cycles, returning everything observable.
    fn churny_run(parts: usize) -> ChurnyRun {
        let mut q = JobQueue::new();
        for i in 0..12 {
            let ad = match i % 4 {
                0 => exclusive_job_ad(&spec(i, 1000, 240)),
                1 => sharing_job_ad(&spec(i, 9000, 60)), // never fits
                _ => sharing_job_ad(&spec(i, 2000 + (i % 3) * 1500, 60)),
            };
            q.submit(JobId(i), ad, SimTime::ZERO).unwrap();
        }
        q.qedit_expr(JobId(6), "Requirements", &attrs::pin_to_node("node3"))
            .unwrap();
        q.qedit_expr(
            JobId(10),
            "Requirements",
            &attrs::pin_requirements("slot1@node5"),
        )
        .unwrap();
        let mut c = cluster_partitioned(6, 2, parts);
        let n = Negotiator::default();
        let mut cycles = Vec::new();
        for round in 0..5 {
            match round {
                1 => {
                    for slot in c.node_slots(2) {
                        c.release(slot);
                        c.refresh_phi_availability(slot, 7680, 1);
                    }
                }
                2 => {
                    c.invalidate_node(4);
                }
                3 => {
                    Startd::new(4, 2, 1, 8192).advertise(&mut c, 7680, 1);
                    q.qedit_value(JobId(1), attrs::REQUEST_PHI_MEMORY, 500u64)
                        .unwrap();
                }
                _ => {}
            }
            cycles.push(n.negotiate_delta_with_stats(&mut q, &mut c));
        }
        (cycles, c, q.pending())
    }

    #[test]
    fn partition_count_cannot_change_results() {
        let baseline = churny_run(1);
        for parts in [2, 3, 8] {
            let run = churny_run(parts);
            assert_eq!(run.0, baseline.0, "partitions={parts}");
            assert_eq!(run.1, baseline.1, "partitions={parts}");
            assert_eq!(run.2, baseline.2, "partitions={parts}");
        }
    }

    #[test]
    fn partitioned_screen_on_forced_threads_matches_serial() {
        // Force the threaded partition fan-out even on a single-core
        // machine; serialized behind the crate env lock.
        let _guard = phishare_test_util::env_lock();
        std::env::set_var("PHISHARE_PARTITION_THREADS", "4");
        let threaded = churny_run(4);
        std::env::remove_var("PHISHARE_PARTITION_THREADS");
        let serial = churny_run(4);
        assert_eq!(threaded.0, serial.0);
        assert_eq!(threaded.1, serial.1);
        assert_eq!(threaded.2, serial.2);
    }

    #[test]
    fn quiescent_cycles_short_circuit_to_identical_results() {
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..4 {
                q.submit(JobId(i), sharing_job_ad(&spec(i, 3000, 60)), SimTime::ZERO)
                    .unwrap();
            }
            (q, cluster(1, 2))
        };
        let (mut q_fast, mut c_fast) = build();
        let (mut q_slow, mut c_slow) = build();
        let fast = Negotiator::default(); // quiescence on by default
        let slow = Negotiator::default().with_quiescence(false);

        // Cycle 1 matches two jobs and certifies the rest — not quiescent.
        assert!(!Negotiator::cycle_is_quiescent(&q_fast, &c_fast));
        let first_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let first_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(first_fast, first_slow);
        assert_eq!(first_fast.0.len(), 2);

        // No churn since: provably quiescent, and the skipped cycle is
        // bit-identical to the executed one — stats, certificates, pool.
        assert!(Negotiator::cycle_is_quiescent(&q_fast, &c_fast));
        let second_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let second_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(second_fast, second_slow);
        assert_eq!(second_fast.1.considered, 2);
        assert_eq!(second_fast.1.unmatched, 2);
        assert_eq!(c_fast, c_slow);
        for i in [2u64, 3] {
            assert_eq!(
                q_fast.get(JobId(i)).unwrap().eval_seq(),
                q_slow.get(JobId(i)).unwrap().eval_seq(),
            );
        }

        // A release dirties the pool: no longer quiescent, and both twins
        // pick up the freed slot in lockstep.
        for (q, c) in [(&mut q_fast, &mut c_fast), (&mut q_slow, &mut c_slow)] {
            let slot = first_fast.0[0].slot;
            c.release(slot);
            c.refresh_phi_availability(slot, 7680, 1);
            assert!(!Negotiator::cycle_is_quiescent(q, c));
        }
        let third_fast = fast.negotiate_delta_with_stats(&mut q_fast, &mut c_fast);
        let third_slow = slow.negotiate_delta_with_stats(&mut q_slow, &mut c_slow);
        assert_eq!(third_fast, third_slow);
        assert_eq!(third_fast.0.len(), 1);
        assert_eq!(c_fast, c_slow);
    }

    #[test]
    fn fresh_arrivals_defeat_quiescence() {
        let mut q = JobQueue::new();
        let mut c = cluster(1, 1);
        // Empty idle queue is trivially quiescent.
        assert!(Negotiator::cycle_is_quiescent(&q, &c));
        q.submit(JobId(0), sharing_job_ad(&spec(0, 9000, 60)), SimTime::ZERO)
            .unwrap();
        // An uncertified arrival must force an executed cycle.
        assert!(!Negotiator::cycle_is_quiescent(&q, &c));
        let n = Negotiator::default();
        let (matches, stats) = n.negotiate_delta_with_stats(&mut q, &mut c);
        assert!(matches.is_empty());
        assert_eq!(stats.considered, 1);
        // Now certified against a still pool: quiescent until churn.
        assert!(Negotiator::cycle_is_quiescent(&q, &c));
        // A qedit drops the certificate and defeats quiescence again.
        q.qedit_value(JobId(0), attrs::REQUEST_PHI_MEMORY, 100u64)
            .unwrap();
        assert!(!Negotiator::cycle_is_quiescent(&q, &c));
    }

    /// The MC backlog pathology, pinned by work counters: a 500-job
    /// single-class exclusive backlog behind 64 one-card nodes × 16 slots,
    /// five nodes freed per cycle. Before autoclusters every certified
    /// backlog job re-ranked the whole cycle's dirt and then fell back to a
    /// rescan; now the cluster screens once and later members reuse its
    /// memo, so the delta path never evaluates more slots than the full
    /// rematch — on any machine, since the counts are deterministic.
    #[test]
    fn single_class_backlog_costs_no_more_slot_evaluations_than_full() {
        let build = || {
            let mut q = JobQueue::new();
            for i in 0..500 {
                let spec = spec(i, 500 + (i % 7) * 700, 60 + (i % 5) as u32 * 60);
                q.submit(JobId(i), exclusive_job_ad(&spec), SimTime::ZERO)
                    .unwrap();
            }
            (q, cluster(64, 16))
        };
        let (mut q_delta, mut c_delta) = build();
        let (mut q_full, mut c_full) = build();
        let delta = Negotiator::default().with_path(MatchPath::Delta);
        let full = Negotiator::default().with_path(MatchPath::Full);
        let mut running: std::collections::VecDeque<Match> = Default::default();
        let (mut delta_work, mut full_work) = (CycleWork::default(), CycleWork::default());
        for cycle in 0..20 {
            let (dm, ds, dw) = delta.negotiate_with_work(&mut q_delta, &mut c_delta);
            let (fm, fs, fw) = full.negotiate_with_work(&mut q_full, &mut c_full);
            assert_eq!((&dm, ds), (&fm, fs), "cycle {cycle}");
            assert_eq!(c_delta, c_full, "cycle {cycle}");
            assert_eq!(dw.autoclusters, 1, "one job class");
            delta_work.screen_evals += dw.screen_evals;
            delta_work.commit_evals += dw.commit_evals;
            delta_work.memo_hits += dw.memo_hits;
            delta_work.fallbacks += dw.fallbacks;
            full_work.commit_evals += fw.commit_evals;
            full_work.fallbacks += fw.fallbacks;
            running.extend(dm);
            // Five jobs finish: their cards come back.
            for done in running.drain(..5) {
                for c in [&mut c_delta, &mut c_full] {
                    c.release(done.slot);
                    for slot in c.node_slots(done.slot.node) {
                        c.refresh_phi_availability(slot, 7680, 1);
                    }
                }
            }
        }
        assert!(
            delta_work.screen_evals + delta_work.commit_evals <= full_work.commit_evals,
            "delta {delta_work:?} vs full {full_work:?}"
        );
        // The backlog rides the memo: only the few matching members per
        // cycle rescan, everyone behind them answers in O(1).
        assert!(delta_work.fallbacks * 10 < full_work.fallbacks);
        assert!(delta_work.memo_hits > 19 * 400);
    }

    #[test]
    fn match_path_parses_from_cli_spelling() {
        assert_eq!("delta".parse::<MatchPath>().unwrap(), MatchPath::Delta);
        assert_eq!("Full".parse::<MatchPath>().unwrap(), MatchPath::Full);
        assert!("eager".parse::<MatchPath>().is_err());
        assert_eq!(MatchPath::default(), MatchPath::Delta);
    }
}
