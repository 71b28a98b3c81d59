//! The discrete-event world: full job lifecycle on the simulated cluster.
//!
//! One [`Experiment::run`] call simulates a complete workload under one
//! cluster configuration and returns the measurements the paper reports.
//! [`Experiment::run_with`] is the same run under explicit [`RunOptions`]:
//! fault and perturbation plans, substrate, event scheme and tracing.
//!
//! ## Lifecycle of a job
//!
//! 1. **Arrive** → submitted to the schedd queue. MC jobs carry
//!    exclusive-card requirements; jobs under an external scheduler are
//!    submitted *on hold* (`condor_submit -hold`) so the scheduler's
//!    release + requirement pin is the only path to placement.
//! 2. **Negotiation cycle** → the external scheduler (if any) packs pending
//!    jobs into device knapsacks and applies `condor_qedit` pins, then the
//!    negotiator matches pinned/eligible jobs to free slots in FIFO order.
//! 3. **Dispatch** (shadow/starter latency later) → a COI process attaches
//!    to the chosen device, memory is committed and the job begins its
//!    profile.
//! 4. Segments alternate **host** phases (timer) and **offloads** (COSMIC
//!    admission + device execution). Memory commits grow across offloads;
//!    overruns trigger COSMIC container kills, physical oversubscription
//!    triggers the OOM killer.
//! 5. **Complete** → the device frees capacity; completion-triggered
//!    negotiation (after the collector-update delay) lets the scheduler
//!    repack the freed knapsack — Fig. 4's "while jobs remaining" loop.
//!
//! ## Event scheduling modes
//!
//! Completion predictions are invalidated wholesale whenever a device's (or
//! host's) membership changes — the generation counter bumps and every
//! pending prediction event goes stale. Two schemes deliver them:
//!
//! * **Next-completion (default, [`Experiment::run`])** — exactly one
//!   prediction event per device per generation, chosen by the allocation-
//!   free `next_completion()`. Stale entries are drained lazily at pop time
//!   ([`phishare_sim::Sim::step_live`]); handling the winner bumps the
//!   generation and schedules the next winner. O(1) heap entries per device.
//! * **Per-offload ([`EventMode::PerOffload`])** — the seed's original
//!   scheme: one event per active offload per generation, stale ones
//!   dropped by the generation guard as they fire. O(n) heap churn per
//!   membership change; retained as the differential oracle — both modes
//!   must produce bit-identical metrics, traces, and audits (the fast
//!   path's event pushes are a subsequence of the naive ones, and `(time,
//!   insertion-seq)` ordering makes the surviving live events fire in the
//!   same order).

use crate::config::ClusterConfig;
use crate::fault::{FallbackPolicy, FaultKind, FaultPlan};
use crate::host::HostCpu;
use crate::metrics::ExperimentResult;
use crate::perturb::{PerturbKind, PerturbPlan};
use crate::substrate::{CosmicSubstrate, DeviceSubstrate};
use crate::trace::{KillReason, Trace, TraceEvent};
use phishare_condor::attrs;
use phishare_condor::{Collector, JobQueue, Negotiator, SlotId, Startd};
use phishare_core::{
    ClairvoyantLpt, ClusterPolicy, ClusterScheduler, DeviceView, KnapsackScheduler,
    KnapsackVariant, PendingJob, Pin, RandomScheduler,
};
use phishare_cosmic::{Admission, ContainerVerdict, CosmicDevice, KeyedCosmicDevice, OffloadGrant};
use phishare_knapsack::THREADS_PER_UNIT;
use phishare_phi::{
    Affinity, CommitOutcome, KeyedPhiDevice, NaiveSharedDevice, PhiDevice, ProcId,
    SharedThroughputDevice,
};
use phishare_sim::{DetRng, Sim, SimDuration, SimTime, Summary};
use phishare_workload::{JobId, Segment, Workload};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Key of one device: `(node, device-on-node)`.
type DevKey = (u32, u32);

/// `JobId` → workload index in O(1) for any set of unique ids: a hash map
/// whose hasher is a single multiply (ids are integers, not hostile keys).
type JobIndex = HashMap<JobId, usize, BuildHasherDefault<IdHasher>>;

/// Fibonacci hashing of one `u64`: the multiply spreads consecutive ids
/// over both the bucket bits (low) and the tag bits (high) of the table.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One device's runtime state: the card, its COSMIC instance, and what the
/// event loop tracks about it. [`World::devs`] holds one per device at
/// index `(node - 1) · devices_per_node + dev`, i.e. in `(node, dev)` order.
struct DevState<D, C> {
    device: D,
    /// `None` when the policy runs without COSMIC.
    cosmic: Option<C>,
    /// Device generation a prediction event was last scheduled for:
    /// repeated syncs within one generation are no-ops, so each generation
    /// costs at most one heap push (see [`World::sync_host`]).
    synced_gen: Option<u64>,
    /// Mid-reset on an otherwise-live node.
    down: bool,
    /// Declared memory of matched-but-not-yet-attached jobs.
    inflight_declared: u64,
    /// Count of matched-but-not-yet-attached jobs.
    inflight_count: u32,
    /// Declared threads of matched-but-not-yet-attached jobs.
    inflight_threads: u32,
    /// Open derate windows, keyed by plan index. The device's effective
    /// scale is the product folded in ascending index order, so
    /// overlapping windows compose deterministically.
    derate: BTreeMap<usize, f64>,
    /// Open latency-spike windows, keyed by plan index; extras of
    /// overlapping windows add (integer ticks, order-independent).
    latency: BTreeMap<usize, SimDuration>,
}

/// One node's runtime state; [`World::nodes`] holds node `n` at `n - 1`.
struct NodeState {
    host: HostCpu,
    /// Host analog of [`DevState::synced_gen`].
    synced_gen: Option<u64>,
    /// The startd vanished (churn): no ads, no dispatch, no hosts.
    down: bool,
}

/// Simulation events.
#[derive(Debug)]
enum Ev {
    /// Job `workload[idx]` arrives in the queue.
    Arrive(usize),
    /// A negotiation cycle with its sequence number (stale cycles are
    /// dropped so completion-triggered cycles can supersede periodic ones).
    Cycle(u64),
    /// Shadow/starter finished; the job starts on its matched slot.
    Dispatch(JobId),
    /// A node's host CPUs predict this job's host phase finishes now
    /// (valid for `generation`).
    HostDone {
        job: JobId,
        node: u32,
        generation: u64,
    },
    /// Device `devs[dev]` predicts this offload finishes now (valid for
    /// `generation`).
    OffloadComplete {
        job: JobId,
        dev: u32,
        generation: u64,
    },
    /// Injected failure `plan[idx]` strikes.
    Fault(usize),
    /// The failure injected as `plan[idx]` heals (card back up / node
    /// rejoins).
    Recover(usize),
    /// Perturbation window `perturbs[idx]` opens.
    Perturb(usize),
    /// Perturbation window `perturbs[idx]` closes.
    PerturbEnd(usize),
    /// A vacated job's backoff expired; it may be scheduled again.
    Release(JobId),
}

/// How completion predictions are turned into events (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventMode {
    /// One event per device/host per generation (production).
    NextCompletion,
    /// One event per active offload/phase per generation: the seed's
    /// scheme, kept as the differential oracle for `NextCompletion`. Both
    /// must produce bit-identical metrics, traces and audits (asserted by
    /// the differential proptests and the `perf_sim` bench gate, where this
    /// mode is the timing floor). Not a production mode.
    PerOffload,
}

/// Which per-device state store backs a run (see [`crate::substrate`]).
///
/// `Fast`/`Keyed` must produce bit-identical [`ExperimentResult`]s and
/// traces, as must `Shared`/`SharedNaive`; each oracle exists to prove
/// that and to serve as the cost floor for its bench gate (`perf_e2e`,
/// `perf_throughput`). The per-offload pair and the shared-throughput
/// pair model *different physics* (two-rate affinity model vs one
/// fair-shared curve rate), so results are only comparable within a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateMode {
    /// Generation-stamped slab storage with handle-indexed hot paths
    /// (production).
    Fast,
    /// The seed's `BTreeMap`-keyed storage (differential oracle).
    Keyed,
    /// Fair-shared throughput devices on the heap-scheduled O(log n)
    /// engine, with the node pool's degradation curves (production for
    /// heterogeneous SKU runs).
    Shared,
    /// Fair-shared throughput devices on the naive recompute-all engine
    /// (differential oracle and `perf_throughput` cost floor).
    SharedNaive,
}

impl std::str::FromStr for SubstrateMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" => Ok(SubstrateMode::Fast),
            "keyed" => Ok(SubstrateMode::Keyed),
            "shared" => Ok(SubstrateMode::Shared),
            "shared-naive" => Ok(SubstrateMode::SharedNaive),
            other => Err(format!(
                "unknown substrate '{other}' (expected fast, keyed, shared or shared-naive)"
            )),
        }
    }
}

impl std::fmt::Display for SubstrateMode {
    /// The CLI spelling; round-trips through [`str::parse`]
    /// (the sweep manifests of [`crate::shard`] persist this form).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubstrateMode::Fast => "fast",
            SubstrateMode::Keyed => "keyed",
            SubstrateMode::Shared => "shared",
            SubstrateMode::SharedNaive => "shared-naive",
        })
    }
}

/// How one [`Experiment::run_with`] call runs: which fault and
/// perturbation plans, which substrate, which event scheme, and whether to
/// record a lifecycle [`Trace`].
///
/// The default is the production run of [`Experiment::run`]: both plans
/// derived from the config, [`SubstrateMode::Fast`],
/// [`EventMode::NextCompletion`], no trace. Every differential oracle is one
/// field away from it, so a test or bench gate spells its comparison as
/// `RunOptions { substrate: SubstrateMode::Keyed, ..Default::default() }`.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Explicit fault-injection plan; `None` derives it from
    /// `config.faults` with [`FaultPlan::generate`]. An empty plan leaves
    /// the timeline bit-identical to a run with faults disabled.
    pub faults: Option<&'a FaultPlan>,
    /// Explicit perturbation plan; `None` derives it from `config.perturb`
    /// with [`PerturbPlan::generate`]. An empty plan leaves the timeline
    /// bit-identical to a run with perturbations disabled.
    pub perturbs: Option<&'a PerturbPlan>,
    /// Per-device state store.
    pub substrate: SubstrateMode,
    /// How completion predictions become events.
    pub events: EventMode,
    /// Record a full lifecycle [`Trace`] (submission, pinning, dispatch,
    /// offloads, completion).
    pub trace: bool,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            faults: None,
            perturbs: None,
            substrate: SubstrateMode::Fast,
            events: EventMode::NextCompletion,
            trace: false,
        }
    }
}

#[derive(Debug)]
struct RunningJob<DH, CH> {
    slot: SlotId,
    key: DevKey,
    /// Device-substrate handle, resolved once at attach time. Stale the
    /// instant the process departs (detach, OOM kill, device reset) — the
    /// runtime drops the `RunningJob` (or flips `fallback`) on every such
    /// path before the handle could be touched again.
    dslot: DH,
    /// COSMIC-substrate handle, resolved once at registration; `None` when
    /// the policy runs without COSMIC.
    cslot: Option<CH>,
    /// Index of the segment currently executing.
    seg: u32,
    /// Offload segments completed so far (drives the memory-growth model).
    offloads_done: u32,
    /// The job's card reset under it and [`FallbackPolicy::HostOnly`]
    /// applies: remaining offload segments run on host cores, the device
    /// and COSMIC are never touched again.
    fallback: bool,
}

/// Entry point: run one experiment.
pub struct Experiment;

impl Experiment {
    /// Simulate `workload` on the cluster described by `config`.
    ///
    /// Fails fast (rather than deadlocking) when the configuration is
    /// invalid or a job cannot fit on any device.
    pub fn run(config: &ClusterConfig, workload: &Workload) -> Result<ExperimentResult, String> {
        Self::run_with(config, workload, &RunOptions::default()).map(|(r, _)| r)
    }

    /// Like [`Experiment::run`] but also records a full lifecycle
    /// [`Trace`] (submission, pinning, dispatch, offloads, completion).
    pub fn run_traced(
        config: &ClusterConfig,
        workload: &Workload,
    ) -> Result<(ExperimentResult, Trace), String> {
        let opts = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        Self::run_with(config, workload, &opts).map(|(r, t)| (r, t.expect("tracing was enabled")))
    }

    /// Simulate `workload` as `opts` describes. The trace is `Some` exactly
    /// when `opts.trace` is set.
    ///
    /// The oracle pairs stay bit-identical under every plan and trace
    /// setting: [`SubstrateMode::Fast`]/[`SubstrateMode::Keyed`],
    /// [`SubstrateMode::Shared`]/[`SubstrateMode::SharedNaive`], and
    /// [`EventMode::NextCompletion`]/[`EventMode::PerOffload`] on any
    /// substrate (asserted by the runtime tests and `tests/prop_chaos.rs`).
    pub fn run_with(
        config: &ClusterConfig,
        workload: &Workload,
        opts: &RunOptions<'_>,
    ) -> Result<(ExperimentResult, Option<Trace>), String> {
        let generated_faults;
        let faults = match opts.faults {
            Some(plan) => plan,
            None => {
                generated_faults = FaultPlan::generate(config);
                &generated_faults
            }
        };
        let generated_perturbs;
        let perturbs = match opts.perturbs {
            Some(plan) => plan,
            None => {
                generated_perturbs = PerturbPlan::generate(config);
                &generated_perturbs
            }
        };
        let (trace, events) = (opts.trace, opts.events);
        match opts.substrate {
            SubstrateMode::Fast => Self::run_inner::<PhiDevice, CosmicDevice>(
                config, workload, faults, perturbs, trace, events,
            ),
            SubstrateMode::Keyed => Self::run_inner::<KeyedPhiDevice, KeyedCosmicDevice>(
                config, workload, faults, perturbs, trace, events,
            ),
            SubstrateMode::Shared => Self::run_inner::<SharedThroughputDevice, CosmicDevice>(
                config, workload, faults, perturbs, trace, events,
            ),
            SubstrateMode::SharedNaive => Self::run_inner::<NaiveSharedDevice, CosmicDevice>(
                config, workload, faults, perturbs, trace, events,
            ),
        }
    }

    fn run_inner<D: DeviceSubstrate, C: CosmicSubstrate>(
        config: &ClusterConfig,
        workload: &Workload,
        plan: &FaultPlan,
        perturbs: &PerturbPlan,
        traced: bool,
        mode: EventMode,
    ) -> Result<(ExperimentResult, Option<Trace>), String> {
        config.validate()?;
        plan.validate(config)?;
        perturbs.validate(config)?;
        workload
            .validate()
            .map_err(|(id, e)| format!("invalid job {id}: {e}"))?;
        // With a heterogeneous pool, a job is only hopeless when even the
        // *largest* card couldn't hold it (for Uniform pools this is the
        // same per-device bound as before).
        let usable = config.max_usable_mem_mb();
        // Under a knapsack-family scheduler, a job whose declared threads
        // exceed the per-device thread budget can never be packed — reject
        // it up front instead of letting it starve in the queue forever.
        // The budget is the overcommitted limit when resident threads count,
        // and the bare limit otherwise. MCCK's 2-D DP packs threads in whole
        // units, so there the budget rounds down to a unit, as memory rounds
        // down to a granule, and a budget below one unit packs nothing.
        let unit_packed = config.policy == ClusterPolicy::Mcck
            && config.knapsack.variant == KnapsackVariant::TwoD;
        let thread_cap = match config.policy {
            ClusterPolicy::Mcck | ClusterPolicy::Oracle => {
                let k = &config.knapsack;
                let cap = if k.count_resident_threads {
                    (k.thread_limit as f64 * k.thread_overcommit).round() as u32
                } else {
                    k.thread_limit
                };
                Some(if unit_packed {
                    cap / THREADS_PER_UNIT * THREADS_PER_UNIT
                } else {
                    cap
                })
            }
            _ => None,
        };
        // MCCK packs memory in whole granules: the largest packable request
        // is the usable memory rounded down to a granule.
        let packable = match config.policy {
            ClusterPolicy::Mcck => {
                let g = config.knapsack.granularity_mb;
                Some(usable / g * g)
            }
            _ => None,
        };
        for job in &workload.jobs {
            if job.mem_req_mb > usable {
                return Err(format!(
                    "job {} declares {} MB but devices only have {usable} MB usable",
                    job.id, job.mem_req_mb
                ));
            }
            if let Some(packable) = packable {
                if job.mem_req_mb > packable {
                    return Err(format!(
                        "job {} declares {} MB but the knapsack packs at most \
                         {packable} MB per device; it could never be placed",
                        job.id, job.mem_req_mb
                    ));
                }
            }
            if let Some(cap) = thread_cap {
                if job.thread_req > cap || (unit_packed && cap == 0) {
                    return Err(format!(
                        "job {} declares {} threads but the scheduler's per-device \
                         thread budget is {cap}; it could never be placed",
                        job.id, job.thread_req
                    ));
                }
            }
        }

        let mut world: World<'_, D, C> = World::new(config, workload, plan, perturbs, mode);
        if traced {
            world.trace = Some(Trace::new());
        }
        // Pending events are dominated by jobs × lifecycle stages (arrive,
        // cycle, dispatch, one live prediction per device/host); pre-size
        // the heap so large experiments never pay growth reallocations.
        let mut sim: Sim<Ev> = match mode {
            EventMode::NextCompletion => Sim::with_capacity(workload.len() * 4 + 64),
            EventMode::PerOffload => Sim::new(),
        };
        for (idx, at) in workload.arrivals.iter().enumerate() {
            sim.schedule_at(*at, Ev::Arrive(idx));
        }
        // The first cycle runs at t = 0 (right after same-tick arrivals,
        // which were scheduled first).
        world.cycle_seq += 1;
        let seq = world.cycle_seq;
        world.next_cycle = Some(SimTime::ZERO);
        sim.schedule_at(SimTime::ZERO, Ev::Cycle(seq));
        // Fault strikes are pre-scheduled from the (sorted) plan; same-tick
        // ties resolve by insertion order identically in both event modes.
        for (idx, f) in plan.events.iter().enumerate() {
            sim.schedule_at(f.at, Ev::Fault(idx));
        }
        // Perturbation windows likewise; the close event is scheduled from
        // the open handler, mirroring the fault→recover pattern.
        for (idx, p) in perturbs.events.iter().enumerate() {
            sim.schedule_at(p.at, Ev::Perturb(idx));
        }

        match mode {
            EventMode::PerOffload => {
                sim.run(|sim, ev| world.handle(sim, ev));
            }
            EventMode::NextCompletion => {
                // Stale predictions never reach the handler: the liveness
                // predicate drains them at pop time without advancing the
                // clock or consuming event budget.
                while !sim.budget_exhausted() {
                    let Some(ev) = sim.step_live(|ev| world.event_is_live(ev)) else {
                        break;
                    };
                    world.handle(&mut sim, ev);
                }
            }
        }

        // Jobs retired after exhausting their retry budget stay Held
        // forever (the operator must intervene); they are terminal for
        // drain purposes. Anything else still live is a scheduler bug.
        let (idle, matched, running) = world.queue.active_counts();
        let live_idle = idle - world.retired.len();
        if matched != 0 || running != 0 || live_idle != 0 || !world.parked.is_empty() {
            return Err(format!(
                "simulation drained with live jobs: {live_idle} idle, {matched} matched, \
                 {running} running, {} awaiting release",
                world.parked.len()
            ));
        }
        // Post-drain leak audit: every fault must have been matched by a
        // recovery path that returned its capacity.
        for (i, d) in world.devs.iter().enumerate() {
            let (node, dev) = world.dev_key(i);
            if d.device.resident_count() != 0 || d.device.committed_total_mb() != 0 {
                return Err(format!(
                    "capacity leak: device ({node}, {dev}) drained with {} residents, {} MB committed",
                    d.device.resident_count(),
                    d.device.committed_total_mb()
                ));
            }
            if let Some(cos) = d.cosmic.as_ref().filter(|c| c.registered_jobs() != 0) {
                return Err(format!(
                    "capacity leak: COSMIC on ({node}, {dev}) drained with {} registered jobs",
                    cos.registered_jobs()
                ));
            }
        }
        for (i, n) in world.nodes.iter().enumerate() {
            if n.host.active_count() != 0 {
                return Err(format!(
                    "capacity leak: host {} drained with {} active segments",
                    i + 1,
                    n.host.active_count()
                ));
            }
        }
        let trace = world.trace.take();
        Ok((world.into_result(config, workload), trace))
    }
}

struct World<'a, D: DeviceSubstrate, C: CosmicSubstrate> {
    cfg: &'a ClusterConfig,
    wl: &'a Workload,
    plan: &'a FaultPlan,
    perturbs: &'a PerturbPlan,
    queue: JobQueue,
    collector: Collector,
    negotiator: Negotiator,
    startds: Vec<Startd>,
    /// Per startd: `(collector.node_seq, free memory, free devices)` as of
    /// its last ad refresh. While the node's sequence number stands still
    /// its slot ads still hold that pair, so an unchanged pair makes the
    /// next refresh a provable no-op.
    ads_synced: Vec<Option<(u64, u64, u32)>>,
    /// Per-device state in `(node, dev)` order (see [`DevState`]).
    devs: Vec<DevState<D, C>>,
    /// Per-node state, node `n` at index `n - 1`.
    nodes: Vec<NodeState>,
    scheduler: Option<Box<dyn ClusterScheduler>>,
    /// JobId → index into the workload.
    job_index: JobIndex,
    /// Each workload job's nominal duration in seconds, by workload index
    /// (the profile sum the clairvoyant comparator reads every cycle).
    nominal_secs: Vec<f64>,
    /// The running jobs, by workload index.
    running: Vec<Option<RunningJob<D::Handle, C::Handle>>>,
    /// Reusable buffer for collecting COSMIC grants (completion, kill and
    /// unregister paths); taken/restored around each use so the hot loop
    /// never allocates.
    grants_buf: Vec<OffloadGrant>,
    /// Device chosen at match time, consumed at dispatch.
    matched_dev: BTreeMap<JobId, DevKey>,
    /// Device the external scheduler planned for each pinned job, consumed
    /// at match time. The packing is per device (each knapsack is one
    /// coprocessor); re-placing at match time could break a feasible plan.
    pinned_dev: BTreeMap<JobId, DevKey>,
    /// Sequence number of the latest scheduled cycle; stale cycles no-op.
    cycle_seq: u64,
    /// When the next cycle is due (None once the cluster drained).
    next_cycle: Option<SimTime>,
    /// How completion predictions become events.
    mode: EventMode,
    /// Events that passed the staleness guards and were actually handled.
    /// Identical across event modes (stale deliveries are a scheme
    /// artefact), so it is the mode-independent simulation-cost metric.
    live_events: u64,
    rng_oom: DetRng,
    /// Lifecycle trace (None unless `run_traced` was used).
    trace: Option<Trace>,
    // --- fault state ---
    /// Times each job has been vacated by a fault and requeued.
    attempts: BTreeMap<JobId, u32>,
    /// Vacated jobs sitting out their backoff (held, invisible to the
    /// scheduler until their `Release` fires).
    parked: BTreeSet<JobId>,
    /// Jobs held permanently after exhausting `recovery.max_retries`.
    retired: BTreeSet<JobId>,
    /// Arrivals processed so far: every workload job is submitted exactly
    /// once, so all arrivals are in once this reaches the job count.
    submitted: usize,
    /// Per workload index: the job's first dispatch already recorded a
    /// queue-wait sample (re-dispatches after a fault must not re-count).
    wait_recorded: Vec<bool>,
    // --- perturbation state ---
    /// Nesting depth of open stale-ad windows; ads refresh only at 0.
    stale_ad_depth: u32,
    /// Whether any non-cycle event ran since the last *executed* cycle —
    /// arrivals, dispatches, completions, faults, perturbations all set
    /// it, as does an executed cycle that pinned, matched, or rejected
    /// anything. While false, device ground truth and the queue are
    /// exactly as the last cycle left them, so `refresh_ads` and the
    /// scheduler plan would both be no-ops — one leg of the quiescence
    /// predicate ([`World::cycle_is_quiescent`]).
    world_dirty: bool,
    // --- statistics ---
    waits: Summary,
    turnarounds: Summary,
    completed: usize,
    container_kills: usize,
    oom_kills: usize,
    negotiation_cycles: u64,
    cycles_skipped: u64,
    pins_issued: u64,
    device_resets: u64,
    node_churns: u64,
    retries: u64,
    fallback_offloads: u64,
    perturb_windows: u64,
    stale_ad_skips: u64,
    jittered_cycles: u64,
    inflated_offloads: u64,
    stale_match_rejects: u64,
    last_terminal: SimTime,
    /// Wall-clock nanoseconds spent inside `ClusterScheduler::plan` —
    /// planner cost measurement, never simulation state.
    plan_nanos: u64,
}

impl<'a, D: DeviceSubstrate, C: CosmicSubstrate> World<'a, D, C> {
    fn new(
        cfg: &'a ClusterConfig,
        wl: &'a Workload,
        plan: &'a FaultPlan,
        perturbs: &'a PerturbPlan,
        mode: EventMode,
    ) -> Self {
        let parts = if cfg.partitions > 0 {
            cfg.partitions
        } else {
            phishare_condor::collector::default_partitions()
        };
        let mut collector = Collector::with_partitions(parts);
        let mut startds = Vec::new();
        let mut devs = Vec::new();
        let mut nodes = Vec::new();
        for node in 1..=cfg.nodes {
            let spec = cfg.spec_for_node(node);
            nodes.push(NodeState {
                host: HostCpu::new(cfg.host_cores_per_node, SimTime::ZERO),
                synced_gen: None,
                down: false,
            });
            let startd = Startd::new(
                node,
                cfg.slots_per_node,
                cfg.devices_per_node,
                spec.phi.memory_mb,
            );
            startd.advertise(
                &mut collector,
                spec.phi.usable_mem_mb() * cfg.devices_per_node as u64,
                cfg.devices_per_node,
            );
            startds.push(startd);
            for _ in 0..cfg.devices_per_node {
                devs.push(DevState {
                    device: D::create(&spec, SimTime::ZERO),
                    cosmic: cfg
                        .policy
                        .uses_cosmic()
                        .then(|| C::create(cfg.cosmic, &spec.phi)),
                    synced_gen: None,
                    down: false,
                    inflight_declared: 0,
                    inflight_count: 0,
                    inflight_threads: 0,
                    derate: BTreeMap::new(),
                    latency: BTreeMap::new(),
                });
            }
        }

        let scheduler: Option<Box<dyn ClusterScheduler>> = match cfg.policy {
            ClusterPolicy::Mc => None,
            ClusterPolicy::Mcc => Some(Box::new(RandomScheduler::new(cfg.seed))),
            ClusterPolicy::Mcck => Some(Box::new(KnapsackScheduler::new(cfg.knapsack))),
            ClusterPolicy::Oracle => Some(Box::new(ClairvoyantLpt::new(cfg.knapsack))),
        };

        // Unique ids are checked by `Workload::validate` before any World
        // exists.
        let job_index = wl.jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();

        World {
            cfg,
            wl,
            plan,
            perturbs,
            queue: JobQueue::new(),
            collector,
            negotiator: Negotiator::new(cfg.negotiation_interval)
                .with_path(cfg.negotiation)
                .with_quiescence(cfg.skip_quiescent),
            ads_synced: vec![None; startds.len()],
            startds,
            devs,
            nodes,
            scheduler,
            job_index,
            nominal_secs: wl
                .jobs
                .iter()
                .map(|j| j.nominal_duration().as_secs_f64())
                .collect(),
            running: wl.jobs.iter().map(|_| None).collect(),
            grants_buf: Vec::new(),
            matched_dev: BTreeMap::new(),
            pinned_dev: BTreeMap::new(),
            cycle_seq: 0,
            next_cycle: None,
            mode,
            live_events: 0,
            rng_oom: DetRng::substream(cfg.seed, "oom-killer"),
            trace: None,
            attempts: BTreeMap::new(),
            parked: BTreeSet::new(),
            submitted: 0,
            retired: BTreeSet::new(),
            wait_recorded: vec![false; wl.len()],
            stale_ad_depth: 0,
            world_dirty: true,
            waits: Summary::new(),
            turnarounds: Summary::new(),
            completed: 0,
            container_kills: 0,
            oom_kills: 0,
            negotiation_cycles: 0,
            cycles_skipped: 0,
            pins_issued: 0,
            device_resets: 0,
            node_churns: 0,
            retries: 0,
            fallback_offloads: 0,
            perturb_windows: 0,
            stale_ad_skips: 0,
            jittered_cycles: 0,
            inflated_offloads: 0,
            stale_match_rejects: 0,
            last_terminal: SimTime::ZERO,
            plan_nanos: 0,
        }
    }

    /// Index of device `key` in [`World::devs`].
    fn dev_index(&self, (node, dev): DevKey) -> usize {
        (node - 1) as usize * self.cfg.devices_per_node as usize + dev as usize
    }

    /// Inverse of [`World::dev_index`].
    fn dev_key(&self, i: usize) -> DevKey {
        let per_node = self.cfg.devices_per_node as usize;
        ((i / per_node) as u32 + 1, (i % per_node) as u32)
    }

    fn dev(&self, key: DevKey) -> &DevState<D, C> {
        &self.devs[self.dev_index(key)]
    }

    fn dev_mut(&mut self, key: DevKey) -> &mut DevState<D, C> {
        let i = self.dev_index(key);
        &mut self.devs[i]
    }

    fn node(&self, node: u32) -> &NodeState {
        &self.nodes[(node - 1) as usize]
    }

    fn node_mut(&mut self, node: u32) -> &mut NodeState {
        &mut self.nodes[(node - 1) as usize]
    }

    /// The running state of workload job `idx`.
    ///
    /// # Panics
    /// Panics when the job is not running.
    fn run(&self, idx: usize) -> &RunningJob<D::Handle, C::Handle> {
        self.running[idx].as_ref().expect("a running job")
    }

    /// Record a trace event (no-op, and no allocation, unless tracing).
    fn trace_ev(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(tr) = self.trace.as_mut() {
            tr.record(make());
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Whether `ev` would survive the handlers' staleness guards.
    ///
    /// This is the next-completion mode's pop-time liveness predicate and
    /// the per-offload mode's pre-handler filter, so [`World::live_events`]
    /// counts the same deliveries in both modes. A matching generation
    /// implies the predicted entity is still active: every membership
    /// change (start, finish, abort, attach, detach) bumps the generation,
    /// so a generation-current prediction cannot name a departed job.
    fn event_is_live(&self, ev: &Ev) -> bool {
        match *ev {
            Ev::Arrive(_) | Ev::Dispatch(_) => true,
            // Fault, recovery, perturbation and backoff events carry their
            // own state and are handled identically in both modes.
            Ev::Fault(_) | Ev::Recover(_) | Ev::Perturb(_) | Ev::PerturbEnd(_) | Ev::Release(_) => {
                true
            }
            Ev::Cycle(seq) => seq == self.cycle_seq,
            Ev::HostDone {
                node, generation, ..
            } => self.node(node).host.generation() == generation,
            Ev::OffloadComplete {
                dev, generation, ..
            } => self.devs[dev as usize].device.generation() == generation,
        }
    }

    fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
        if !self.event_is_live(&ev) {
            return; // stale delivery (per-offload mode only)
        }
        self.live_events += 1;
        // Any non-cycle event can move device ground truth, the queue, or
        // the perturbation state — conservatively defeat quiescence.
        if !matches!(ev, Ev::Cycle(_)) {
            self.world_dirty = true;
        }
        match ev {
            Ev::Arrive(idx) => self.on_arrive(sim, idx),
            Ev::Cycle(seq) => self.on_cycle(sim, seq),
            Ev::Dispatch(job) => self.on_dispatch(sim, job),
            Ev::HostDone {
                job,
                node,
                generation,
            } => self.on_host_done(sim, job, node, generation),
            Ev::OffloadComplete {
                job,
                dev,
                generation,
            } => self.on_offload_complete(sim, job, dev as usize, generation),
            Ev::Fault(idx) => self.on_fault(sim, idx),
            Ev::Recover(idx) => self.on_recover(sim, idx),
            Ev::Perturb(idx) => self.on_perturb(sim, idx),
            Ev::PerturbEnd(idx) => self.on_perturb_end(sim, idx),
            Ev::Release(job) => self.on_release(sim, job),
        }
    }

    fn on_arrive(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let spec = &self.wl.jobs[idx];
        let id = spec.id;
        // MC jobs go straight to matchmaking with exclusive-card
        // requirements; jobs under an external scheduler are submitted on
        // hold, so the scheduler's release+pin is the only way they ever
        // match (the paper's add-on owns all placements).
        match self.cfg.policy {
            ClusterPolicy::Mc => self
                .queue
                .submit(id, attrs::exclusive_job_ad(spec), sim.now())
                .expect("workload ids are unique"),
            ClusterPolicy::Mcc | ClusterPolicy::Mcck | ClusterPolicy::Oracle => self
                .queue
                .submit_held(id, attrs::sharing_job_ad(spec), sim.now())
                .expect("workload ids are unique"),
        }
        self.submitted += 1;
        self.trace_ev(|| TraceEvent::Submitted {
            job: id,
            at: sim.now(),
        });
        // A fresh arrival can trigger negotiation (collector update).
        self.request_cycle(sim, sim.now() + self.cfg.negotiation_trigger_delay);
    }

    fn on_cycle(&mut self, sim: &mut Sim<Ev>, seq: u64) {
        if seq != self.cycle_seq {
            return; // superseded by a later (earlier-scheduled) cycle
        }
        self.next_cycle = None;
        self.negotiation_cycles += 1;
        let now = sim.now();

        // 0. Quiescence: when the cycle is provably a no-op — no event
        // since the last executed cycle, no stale-ad window, nothing for
        // the scheduler to plan, every idle certificate covering the
        // collector's newest watermark — skip all of it: the plan call,
        // the ad refresh, and the negotiation would each leave every piece
        // of state bit-identical. Only the skip counter records it; the
        // heartbeat re-arms exactly as the executed path would.
        if self.cfg.skip_quiescent && self.cycle_is_quiescent() {
            self.cycles_skipped += 1;
            #[cfg(debug_assertions)]
            self.audit_quiescent_skip();
            if !self.drained() {
                self.request_cycle(sim, now + self.cfg.negotiation_interval);
            }
            return;
        }
        // This cycle executes against current ground truth; from here on
        // only new events (or this cycle's own actions) can re-dirty it.
        self.world_dirty = false;

        // 1. External scheduler packs pending jobs and pins them.
        if self.scheduler.is_some() {
            let pending_jobs = self.pending_views();
            let device_views = self.device_views();
            let scheduler = self.scheduler.as_mut().expect("checked above");
            let plan_start = std::time::Instant::now();
            let pins = scheduler.plan(&pending_jobs, &device_views);
            self.plan_nanos += plan_start.elapsed().as_nanos() as u64;
            for Pin { job, node, device } in pins {
                self.world_dirty = true;
                let node_name = format!("node{node}");
                self.queue
                    .qedit_expr(job, "Requirements", &attrs::pin_to_node(&node_name))
                    .expect("pinned job is queued");
                self.queue.release(job).expect("pinned job was held");
                self.pinned_dev.insert(job, (node, device));
                self.pins_issued += 1;
                self.trace_ev(|| TraceEvent::Pinned { job, node, at: now });
            }
        }

        // 2. Refresh machine ads from ground truth — unless a stale-ad
        // window froze the collector (delayed updates): the negotiator then
        // matches against whatever the ads said when the window opened.
        if self.stale_ad_depth == 0 {
            self.refresh_ads();
        } else {
            self.stale_ad_skips += 1;
        }

        // 3. Matchmaking.
        let matches = self
            .negotiator
            .negotiate(&mut self.queue, &mut self.collector);
        for m in matches {
            self.world_dirty = true;
            let wl = self.wl;
            let spec = &wl.jobs[self.job_index[&m.job]];
            // Pinned jobs go to the device their packing round reserved;
            // unpinned (MC) jobs pick a free device now.
            let key = match self.pinned_dev.remove(&m.job) {
                Some(key) => {
                    debug_assert_eq!(key.0, m.slot.node, "pin/match node mismatch");
                    key
                }
                None => match self.choose_device(m.slot.node, spec.mem_req_mb) {
                    Some(key) => key,
                    None => {
                        // With fresh ads exclusive matchmaking guarantees a
                        // free device; under a stale-ad window the claim can
                        // name a node whose cards are gone or full. Undo the
                        // match like a schedd whose claim activation failed:
                        // release the slot, put the job back in the idle
                        // queue, let a later cycle retry.
                        debug_assert!(
                            self.stale_ad_depth > 0,
                            "matchmaking over-promised on fresh ads"
                        );
                        self.collector.release(m.slot);
                        self.queue
                            .requeue(m.job)
                            .expect("matched job can be vacated");
                        self.queue.release(m.job).expect("vacated job is held");
                        self.stale_match_rejects += 1;
                        continue;
                    }
                },
            };
            self.matched_dev.insert(m.job, key);
            let d = self.dev_mut(key);
            d.inflight_declared += spec.mem_req_mb;
            d.inflight_count += 1;
            d.inflight_threads += spec.thread_req;
            if let Some(s) = self.scheduler.as_mut() {
                s.on_dispatched(m.job);
            }
            sim.schedule_after(self.cfg.dispatch_delay, Ev::Dispatch(m.job));
        }

        // 4. Keep the periodic heartbeat alive while work remains.
        if !self.drained() {
            self.request_cycle(sim, now + self.cfg.negotiation_interval);
        }
    }

    fn on_dispatch(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        let wl = self.wl;
        let idx = self.job_index[&job];
        let spec = &wl.jobs[idx];
        // A fault between match and dispatch revokes the match and requeues
        // the job; the in-flight Dispatch then finds nothing to start. (If
        // the job was *re*-matched before the stale event fires, the stale
        // delivery consumes the fresh match a little early — deterministic
        // and harmless, like a starter racing the shadow.)
        let Some(key) = self.matched_dev.remove(&job) else {
            return;
        };
        let d = self.dev_mut(key);
        d.inflight_declared -= spec.mem_req_mb;
        d.inflight_count -= 1;
        d.inflight_threads -= spec.thread_req;

        self.queue.set_running(job).expect("matched job starts");
        let slot = match self.queue.get(job).expect("queued").state {
            phishare_condor::JobState::Running(slot) => slot,
            _ => unreachable!("just set running"),
        };
        let submitted = self.queue.get(job).expect("queued").submitted;
        if !std::mem::replace(&mut self.wait_recorded[idx], true) {
            self.waits.record(now.since(submitted).as_secs_f64());
        }

        self.trace_ev(|| TraceEvent::Dispatched {
            job,
            node: key.0,
            device: key.1,
            at: now,
        });
        // Attach the COI process and make the initial memory commit. The
        // substrate handles come back from registration/attach, so the
        // `RunningJob` is inserted right after (attach never consults
        // `running`; a job OOM-killing *itself* on attach is handled below).
        let initial_commit =
            ((spec.actual_peak_mem_mb as f64) * self.cfg.initial_commit_fraction).round() as u64;
        let i = self.dev_index(key);
        let d = &mut self.devs[i];
        let cslot = d
            .cosmic
            .as_mut()
            .map(|cos| cos.register(job, spec.mem_req_mb, spec.thread_req));
        let (dslot, outcome) = d.device.attach(
            now,
            ProcId(job.raw()),
            spec.mem_req_mb,
            spec.thread_req,
            initial_commit,
            &mut self.rng_oom,
        );
        self.running[idx] = Some(RunningJob {
            slot,
            key,
            dslot,
            cslot,
            seg: 0,
            offloads_done: 0,
            fallback: false,
        });
        self.handle_commit_outcome(sim, outcome);
        if self.running[idx].is_none() {
            return; // the job itself was an OOM victim of its own attach
        }
        if self.container_check(sim, key, idx, initial_commit) {
            return;
        }
        self.advance_segment(sim, idx);
    }

    fn on_host_done(&mut self, sim: &mut Sim<Ev>, job: JobId, node: u32, generation: u64) {
        let now = sim.now();
        {
            let host = &self.node(node).host;
            if host.generation() != generation || !host.is_active(job) {
                return; // stale prediction, or the job was killed
            }
        }
        let idx = self.job_index[&job];
        let Some(run) = self.running[idx].as_mut() else {
            return;
        };
        run.seg += 1;
        self.node_mut(node).host.finish_segment(now, job);
        self.sync_host(sim, node);
        self.advance_segment(sim, idx);
    }

    fn on_offload_complete(&mut self, sim: &mut Sim<Ev>, job: JobId, i: usize, generation: u64) {
        let now = sim.now();
        if self.devs[i].device.generation() != generation {
            return; // stale prediction
        }
        let idx = self.job_index[&job];
        let Some(run) = self.running[idx].as_mut() else {
            return;
        };
        let (dslot, cslot) = (run.dslot, run.cslot);
        run.seg += 1;
        run.offloads_done += 1;

        self.devs[i].device.finish_offload(now, dslot);
        self.trace_ev(|| TraceEvent::OffloadFinished { job, at: now });
        if let Some(cslot) = cslot {
            let mut grants = std::mem::take(&mut self.grants_buf);
            self.devs[i]
                .cosmic
                .as_mut()
                .expect("handle implies cosmic")
                .complete_offload_into(now, cslot, &mut grants);
            self.start_grants(sim, i, &grants);
            grants.clear();
            self.grants_buf = grants;
        }
        self.sync_completions(sim, i);
        self.advance_segment(sim, idx);
    }

    // ------------------------------------------------------------------
    // Job execution
    // ------------------------------------------------------------------

    /// Begin the current segment of workload job `idx` (or complete it).
    fn advance_segment(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let now = sim.now();
        let wl = self.wl;
        let spec = &wl.jobs[idx];
        let job = spec.id;
        let (seg, key, offloads_done, fallback, dslot, cslot) = {
            let run = self.run(idx);
            (
                run.seg,
                run.key,
                run.offloads_done,
                run.fallback,
                run.dslot,
                run.cslot,
            )
        };
        match spec.profile.segments.get(seg as usize) {
            None => self.complete_job(sim, idx),
            Some(Segment::Host { duration }) => {
                let node = key.0;
                self.node_mut(node).host.start_segment(now, job, *duration);
                self.sync_host(sim, node);
            }
            Some(Segment::Offload { threads, work }) => {
                if fallback {
                    // Host-fallback: the card reset under this job, so the
                    // offload's work runs on host cores at the configured
                    // slowdown. No memory commit, no COSMIC admission — the
                    // kernel never leaves the host.
                    let _ = threads;
                    let slow = work.mul_f64(self.cfg.recovery.host_fallback_slowdown);
                    self.fallback_offloads += 1;
                    let node = key.0;
                    self.node_mut(node).host.start_segment(now, job, slow);
                    self.sync_host(sim, node);
                    return;
                }
                // Memory-growth model: commits approach the actual peak as
                // offloads execute.
                let total_offloads = spec.profile.offload_count().max(1);
                let initial = ((spec.actual_peak_mem_mb as f64) * self.cfg.initial_commit_fraction)
                    .round() as u64;
                let grown = initial
                    + ((spec.actual_peak_mem_mb - initial.min(spec.actual_peak_mem_mb)) as f64
                        * (offloads_done + 1) as f64
                        / total_offloads as f64)
                        .round() as u64;
                let i = self.dev_index(key);
                let outcome = self.devs[i]
                    .device
                    .commit(now, dslot, grown, &mut self.rng_oom);
                self.handle_commit_outcome(sim, outcome);
                if self.running[idx].is_none() {
                    return; // OOM-killed by its own growth
                }
                if self.container_check(sim, key, idx, grown) {
                    return;
                }
                self.sync_completions(sim, i); // commit may have killed others

                let threads = *threads;
                let mut work = *work;
                // Latency spike: offloads *started* inside an open window
                // carry the window's extra nominal work. Applied at request
                // time (before COSMIC admission), so a queued offload keeps
                // the inflation it was admitted with — deterministic across
                // event modes and substrates.
                let extra = self.latency_extra(key);
                if !extra.is_zero() {
                    work += extra;
                    self.inflated_offloads += 1;
                }
                if let Some(cslot) = cslot {
                    let cos = self.devs[i].cosmic.as_mut().expect("handle implies cosmic");
                    match cos.request_offload(now, cslot, threads, work) {
                        Admission::Started(grant) => {
                            self.start_grants(sim, i, std::slice::from_ref(&grant));
                            self.sync_completions(sim, i);
                        }
                        Admission::Queued => {
                            // The job parks here; a future completion or
                            // departure grants the offload.
                            self.trace_ev(|| TraceEvent::OffloadQueued { job, at: now });
                        }
                    }
                } else {
                    self.devs[i].device.start_offload(
                        now,
                        dslot,
                        threads,
                        work,
                        Affinity::Unmanaged,
                    );
                    self.trace_ev(|| TraceEvent::OffloadStarted {
                        job,
                        threads,
                        at: now,
                    });
                    self.sync_completions(sim, i);
                }
            }
        }
    }

    /// Start COSMIC-granted offloads on device `devs[i]`.
    ///
    /// Takes a slice (callers recycle [`World::grants_buf`]); a grant
    /// implies its job is running on this device, so its handle is live.
    fn start_grants(&mut self, sim: &mut Sim<Ev>, i: usize, grants: &[OffloadGrant]) {
        let now = sim.now();
        for grant in grants {
            let dslot = self.run(self.job_index[&grant.job]).dslot;
            self.devs[i].device.start_offload(
                now,
                dslot,
                grant.threads,
                grant.work,
                grant.affinity,
            );
            self.trace_ev(|| TraceEvent::OffloadStarted {
                job: grant.job,
                threads: grant.threads,
                at: now,
            });
        }
        self.sync_completions(sim, i);
    }

    /// (Re)schedule completion prediction events for a node's host CPUs.
    ///
    /// Next-completion mode pushes the single earliest prediction;
    /// per-offload mode pushes one event per active phase. Both push at
    /// most once per generation: an in-bounds memory commit re-anchors the
    /// progress integrator without bumping the generation, and a
    /// prediction *recomputed* from the new anchor can land a
    /// float-rounding tick away from the still-live issued one — re-pushed
    /// it would race the original and make the two modes diverge.
    fn sync_host(&mut self, sim: &mut Sim<Ev>, node: u32) {
        let state = &mut self.nodes[(node - 1) as usize];
        let generation = state.host.generation();
        if state.synced_gen.replace(generation) == Some(generation) {
            return; // this generation's predictions are already queued
        }
        let host = &state.host;
        match self.mode {
            EventMode::PerOffload => {
                for (job, at) in host.completions() {
                    sim.schedule_at(
                        at,
                        Ev::HostDone {
                            job,
                            node,
                            generation,
                        },
                    );
                }
            }
            EventMode::NextCompletion => {
                if let Some((job, at)) = host.next_completion() {
                    sim.schedule_at(
                        at,
                        Ev::HostDone {
                            job,
                            node,
                            generation,
                        },
                    );
                }
            }
        }
    }

    /// (Re)schedule completion prediction events for device `devs[i]` (see
    /// [`World::sync_host`] for the per-mode and once-per-generation
    /// contract).
    fn sync_completions(&mut self, sim: &mut Sim<Ev>, i: usize) {
        let d = &mut self.devs[i];
        let generation = d.device.generation();
        if d.synced_gen.replace(generation) == Some(generation) {
            return; // this generation's predictions are already queued
        }
        let device = &d.device;
        match self.mode {
            EventMode::PerOffload => {
                device.for_each_completion(|proc, at| {
                    sim.schedule_at(
                        at,
                        Ev::OffloadComplete {
                            job: JobId(proc.raw()),
                            dev: i as u32,
                            generation,
                        },
                    );
                });
            }
            EventMode::NextCompletion => {
                if let Some((proc, at)) = device.next_completion() {
                    sim.schedule_at(
                        at,
                        Ev::OffloadComplete {
                            job: JobId(proc.raw()),
                            dev: i as u32,
                            generation,
                        },
                    );
                }
            }
        }
    }

    fn complete_job(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let now = sim.now();
        let job = self.wl.jobs[idx].id;
        let run = self.running[idx].take().expect("completing a live job");
        if !run.fallback {
            let i = self.dev_index(run.key);
            self.devs[i].device.detach(now, run.dslot);
            self.release_cosmic(sim, job, &run);
        }

        self.queue
            .set_completed(job)
            .expect("running job completes");
        self.collector.release(run.slot);
        let submitted = self.queue.get(job).expect("queued").submitted;
        self.turnarounds.record(now.since(submitted).as_secs_f64());
        self.completed += 1;
        self.last_terminal = now;
        self.trace_ev(|| TraceEvent::Completed { job, at: now });

        // Completion-triggered negotiation (Fig. 4's while-loop): see
        // `completion_triggers_cycle` for which policies get it.
        if !self.drained() && self.completion_triggers_cycle() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Unregister a departing job from its card's COSMIC (starting the
    /// offloads that unblocks) and re-predict the card.
    fn release_cosmic(
        &mut self,
        sim: &mut Sim<Ev>,
        job: JobId,
        run: &RunningJob<D::Handle, C::Handle>,
    ) {
        let now = sim.now();
        let i = self.dev_index(run.key);
        if run.cslot.is_some() {
            let mut grants = std::mem::take(&mut self.grants_buf);
            self.devs[i]
                .cosmic
                .as_mut()
                .expect("handle implies cosmic")
                .unregister_into(now, job, &mut grants);
            self.start_grants(sim, i, &grants);
            grants.clear();
            self.grants_buf = grants;
        }
        self.sync_completions(sim, i);
    }

    /// Whether a completion leads to a prompt negotiation, or only the
    /// periodic cycle will notice the freed capacity.
    ///
    /// * **MCCK** — yes: the scheduler's `condor_qedit` batch reaches the
    ///   collector and "a negotiation cycle ... is triggered when the Condor
    ///   collector obtains the changed job requirements" (§IV-D1).
    /// * **MC** — yes: exclusive claims with identical requirements are
    ///   reused by the schedd (Condor claim reuse), so the next queued job
    ///   backfills the freed card without a full negotiation.
    /// * **MCC** — no: sharing placements depend on the node's *remaining*
    ///   Phi memory, which is a node-level ad attribute, not part of claim
    ///   compatibility; a freed slice of device memory is only observable
    ///   at the next periodic negotiation cycle.
    fn completion_triggers_cycle(&self) -> bool {
        !matches!(self.cfg.policy, ClusterPolicy::Mcc)
    }

    /// Terminate workload job `idx` early. `already_detached` is true when
    /// the device removed the process itself (OOM kill).
    fn kill_job(
        &mut self,
        sim: &mut Sim<Ev>,
        idx: usize,
        reason: KillReason,
        already_detached: bool,
    ) {
        let now = sim.now();
        let job = self.wl.jobs[idx].id;
        let Some(run) = self.running[idx].take() else {
            return;
        };
        if !run.fallback && !already_detached {
            let i = self.dev_index(run.key);
            self.devs[i].device.detach(now, run.dslot);
        }
        // The victim may have been mid-host-phase (e.g. an OOM victim whose
        // offload had not started yet).
        self.node_mut(run.key.0).host.abort(now, job);
        self.sync_host(sim, run.key.0);
        if !run.fallback {
            self.release_cosmic(sim, job, &run);
        }

        self.queue.set_removed(job).expect("live job is removable");
        self.collector.release(run.slot);
        match reason {
            KillReason::Container => self.container_kills += 1,
            KillReason::Oom => self.oom_kills += 1,
        }
        self.trace_ev(|| TraceEvent::Killed {
            job,
            reason,
            at: now,
        });
        self.last_terminal = now;
        if !self.drained() && self.completion_triggers_cycle() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Process OOM fallout from a memory commit.
    fn handle_commit_outcome(&mut self, sim: &mut Sim<Ev>, outcome: CommitOutcome) {
        if let CommitOutcome::OomKilled(victims) = outcome {
            for victim in victims {
                let idx = self.job_index[&JobId(victim.raw())];
                self.kill_job(sim, idx, KillReason::Oom, true);
            }
        }
    }

    /// COSMIC container enforcement on workload job `idx`; returns true
    /// when the job was killed.
    fn container_check(
        &mut self,
        sim: &mut Sim<Ev>,
        key: DevKey,
        idx: usize,
        committed: u64,
    ) -> bool {
        let Some(cslot) = self.run(idx).cslot else {
            return false;
        };
        let cos = self
            .dev(key)
            .cosmic
            .as_ref()
            .expect("handle implies cosmic");
        match cos.on_commit(cslot, committed) {
            ContainerVerdict::Allowed => false,
            ContainerVerdict::KillExceededLimit { .. } => {
                self.kill_job(sim, idx, KillReason::Container, false);
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    fn on_fault(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        match f.kind {
            FaultKind::DeviceReset => self.on_device_reset(sim, idx),
            FaultKind::NodeChurn => self.on_node_churn(sim, idx),
        }
    }

    /// MPSS crash: the card reboots. Resident offloads abort, COSMIC
    /// registrations flush, and the device advertises zero capacity until
    /// its `Recover` event fires. Jobs caught on the card either degrade
    /// to host-only execution or vacate, per [`FallbackPolicy`].
    fn on_device_reset(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        let key = (f.node, f.device);
        if self.node(f.node).down || self.dev(key).down {
            return; // target already down: the strike is absorbed silently
        }
        let now = sim.now();
        self.device_resets += 1;
        self.dev_mut(key).down = true;
        self.trace_ev(|| TraceEvent::DeviceReset {
            node: f.node,
            device: f.device,
            at: now,
        });
        self.flush_device(sim, key);
        // Matched-but-undispatched jobs lose their reservation; their
        // pending Dispatch event no-ops once the match is gone.
        for job in self.matched_jobs_on(|k| k == key) {
            self.unmatch_for_fault(job);
            self.fault_requeue(sim, job);
        }
        // Idle jobs pinned to this card go back to Held for re-planning.
        self.pull_back_pins(|k| k == key);
        // Jobs executing on the card degrade or vacate.
        for idx in self.running_jobs_on(|r| r.key == key && !r.fallback) {
            let job = self.wl.jobs[idx].id;
            match self.cfg.recovery.fallback {
                FallbackPolicy::HostOnly => {
                    self.running[idx]
                        .as_mut()
                        .expect("listed as running")
                        .fallback = true;
                    self.trace_ev(|| TraceEvent::FallbackStarted {
                        job,
                        node: f.node,
                        at: now,
                    });
                    // Mid-host-phase jobs keep running and fall back at
                    // their next offload; a job whose offload the reset
                    // aborted (active or COSMIC-queued) restarts the
                    // segment host-side now.
                    let mid_host = self.node(f.node).host.is_active(job);
                    if !mid_host {
                        self.advance_segment(sim, idx);
                    }
                }
                FallbackPolicy::Requeue => {
                    self.node_mut(f.node).host.abort(now, job);
                    self.sync_host(sim, f.node);
                    let run = self.running[idx].take().expect("listed as running");
                    self.collector.release(run.slot);
                    self.fault_requeue(sim, job);
                }
            }
        }
        sim.schedule_after(f.downtime, Ev::Recover(idx));
    }

    /// Startd vanishes: its ads are invalidated, every job on the node is
    /// killed and requeued, and the node's cards flush (MPSS restarts with
    /// the node). Nothing on the node matches until `Recover` re-advertises.
    fn on_node_churn(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        if self.node(f.node).down {
            return; // already down
        }
        let now = sim.now();
        self.node_churns += 1;
        self.node_mut(f.node).down = true;
        self.trace_ev(|| TraceEvent::NodeDown {
            node: f.node,
            at: now,
        });
        self.collector.invalidate_node(f.node);
        for dev in 0..self.cfg.devices_per_node {
            self.flush_device(sim, (f.node, dev));
        }
        for job in self.matched_jobs_on(|k| k.0 == f.node) {
            self.unmatch_for_fault(job); // slot release no-ops: ads are gone
            self.fault_requeue(sim, job);
        }
        self.pull_back_pins(|k| k.0 == f.node);
        for idx in self.running_jobs_on(|r| r.key.0 == f.node) {
            let job = self.wl.jobs[idx].id;
            self.node_mut(f.node).host.abort(now, job);
            self.running[idx] = None;
            self.fault_requeue(sim, job);
        }
        self.sync_host(sim, f.node);
        sim.schedule_after(f.downtime, Ev::Recover(idx));
    }

    fn on_recover(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let f = self.plan.events[idx];
        let now = sim.now();
        match f.kind {
            FaultKind::DeviceReset => {
                self.dev_mut((f.node, f.device)).down = false;
                self.trace_ev(|| TraceEvent::DeviceRecovered {
                    node: f.node,
                    device: f.device,
                    at: now,
                });
            }
            FaultKind::NodeChurn => {
                self.node_mut(f.node).down = false;
                self.trace_ev(|| TraceEvent::NodeUp {
                    node: f.node,
                    at: now,
                });
                self.advertise_node(f.node);
            }
        }
        // Restored capacity can unblock queued work.
        if !self.drained() {
            self.request_cycle(sim, now + self.cfg.negotiation_trigger_delay);
        }
    }

    /// Backoff expiry: the vacated job becomes schedulable again.
    fn on_release(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        if !self.parked.remove(&job) {
            return;
        }
        // MC jobs negotiate straight from Idle; scheduler-driven policies
        // leave the job Held so the next planning round re-pins it (it is
        // visible to `pending_views` again now that it is un-parked).
        if self.scheduler.is_none() {
            self.queue.release(job).expect("parked job is held");
        }
        self.request_cycle(sim, sim.now() + self.cfg.negotiation_trigger_delay);
    }

    // ------------------------------------------------------------------
    // Chaos perturbations
    // ------------------------------------------------------------------

    /// A perturbation window opens: record it and schedule its close.
    ///
    /// Unlike faults, perturbation windows are never absorbed by node
    /// churn — a derate on a down node is harmless (the device has no
    /// active offloads) and keeping the open/close pairing unconditional
    /// keeps the bookkeeping trivially balanced.
    fn on_perturb(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let p = self.perturbs.events[idx];
        self.perturb_windows += 1;
        match p.kind {
            PerturbKind::DeviceDerate { factor } => {
                let key = (p.node, p.device);
                self.dev_mut(key).derate.insert(idx, factor);
                self.apply_derate(sim, key);
            }
            PerturbKind::OffloadLatency { extra } => {
                self.dev_mut((p.node, p.device)).latency.insert(idx, extra);
            }
            PerturbKind::StaleAds => self.stale_ad_depth += 1,
        }
        sim.schedule_after(p.duration, Ev::PerturbEnd(idx));
    }

    /// A perturbation window closes: undo exactly what `on_perturb` did.
    fn on_perturb_end(&mut self, sim: &mut Sim<Ev>, idx: usize) {
        let p = self.perturbs.events[idx];
        match p.kind {
            PerturbKind::DeviceDerate { .. } => {
                let key = (p.node, p.device);
                self.dev_mut(key).derate.remove(&idx);
                self.apply_derate(sim, key);
            }
            PerturbKind::OffloadLatency { .. } => {
                self.dev_mut((p.node, p.device)).latency.remove(&idx);
            }
            PerturbKind::StaleAds => self.stale_ad_depth -= 1,
        }
    }

    /// Recompute the composite derate for one card and push it into the
    /// substrate.
    ///
    /// Overlapping windows multiply. The product folds over plan indices
    /// in ascending order (`BTreeMap` iteration), so every event mode and
    /// substrate performs the same IEEE operations in the same order.
    fn apply_derate(&mut self, sim: &mut Sim<Ev>, key: DevKey) {
        let i = self.dev_index(key);
        let d = &mut self.devs[i];
        let scale = d.derate.values().product();
        d.device.set_rate_scale(sim.now(), scale);
        self.sync_completions(sim, i);
    }

    /// Sum of the offload-latency extras currently open on `key`.
    fn latency_extra(&self, key: DevKey) -> SimDuration {
        self.dev(key)
            .latency
            .values()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// Reset one card and flush its COSMIC state.
    fn flush_device(&mut self, sim: &mut Sim<Ev>, key: DevKey) {
        let now = sim.now();
        let i = self.dev_index(key);
        let d = &mut self.devs[i];
        d.device.reset(now);
        if let Some(cos) = d.cosmic.as_mut() {
            cos.reset();
        }
        // Marks the bumped generation synced (nothing is resident, so no
        // prediction is pushed) and invalidates in-flight completions.
        self.sync_completions(sim, i);
    }

    /// Revoke a match that has not dispatched yet: restore the in-flight
    /// accounting and free the claimed slot.
    fn unmatch_for_fault(&mut self, job: JobId) {
        let key = self
            .matched_dev
            .remove(&job)
            .expect("matched job has a device");
        let wl = self.wl;
        let spec = &wl.jobs[self.job_index[&job]];
        let d = self.dev_mut(key);
        d.inflight_declared -= spec.mem_req_mb;
        d.inflight_count -= 1;
        d.inflight_threads -= spec.thread_req;
        if let phishare_condor::JobState::Matched(slot) = self.queue.get(job).expect("queued").state
        {
            // No-op when the node churned away (its ads were invalidated).
            self.collector.release(slot);
        }
    }

    /// Return a vacated (matched/running) job to the queue with
    /// exponential backoff, or hold it permanently once its retry budget
    /// is exhausted — HTCondor's periodic-release / `MaxRetries` policy.
    fn fault_requeue(&mut self, sim: &mut Sim<Ev>, job: JobId) {
        let now = sim.now();
        self.queue
            .requeue(job)
            .expect("vacated job was matched or running");
        if let Some(s) = self.scheduler.as_mut() {
            s.on_job_gone(job);
        }
        let attempts = self.attempts.get(&job).copied().unwrap_or(0);
        if attempts >= self.cfg.recovery.max_retries {
            self.retired.insert(job);
            self.trace_ev(|| TraceEvent::HeldMaxRetries { job, at: now });
            // Retirement is terminal: the run can end on it.
            self.last_terminal = now;
        } else {
            self.attempts.insert(job, attempts + 1);
            self.retries += 1;
            self.parked.insert(job);
            self.trace_ev(|| TraceEvent::Requeued {
                job,
                attempt: attempts + 1,
                at: now,
            });
            sim.schedule_after(self.cfg.recovery.backoff(attempts), Ev::Release(job));
        }
    }

    /// Jobs released+pinned but not yet matched whose target satisfies
    /// `pred` go back on hold; the scheduler re-plans them next cycle.
    fn pull_back_pins(&mut self, pred: impl Fn(DevKey) -> bool) {
        let jobs: Vec<JobId> = self
            .pinned_dev
            .iter()
            .filter(|(_, &k)| pred(k))
            .map(|(&j, _)| j)
            .collect();
        for job in jobs {
            self.pinned_dev.remove(&job);
            self.queue.hold(job).expect("pinned job is idle");
            if let Some(s) = self.scheduler.as_mut() {
                s.on_job_gone(job);
            }
        }
    }

    fn matched_jobs_on(&self, pred: impl Fn(DevKey) -> bool) -> Vec<JobId> {
        self.matched_dev
            .iter()
            .filter(|(_, &k)| pred(k))
            .map(|(&j, _)| j)
            .collect()
    }

    /// Workload indices of the running jobs that satisfy `pred`, in
    /// ascending `JobId` order (the order fault handling visits them in,
    /// whatever the workload order).
    fn running_jobs_on(
        &self,
        pred: impl Fn(&RunningJob<D::Handle, C::Handle>) -> bool,
    ) -> Vec<usize> {
        let mut jobs: Vec<usize> = (0..self.running.len())
            .filter(|&idx| self.running[idx].as_ref().is_some_and(&pred))
            .collect();
        jobs.sort_unstable_by_key(|&idx| self.wl.jobs[idx].id);
        jobs
    }

    /// Full re-advertise of a recovered node from ground truth (its ads
    /// were invalidated, so `refresh` has nothing to update).
    fn advertise_node(&mut self, node: u32) {
        let startd = &self.startds[(node - 1) as usize];
        debug_assert_eq!(startd.node, node, "startds are indexed by node - 1");
        let (free_mem, devices_free) = self.node_capacity(node);
        startd.advertise(&mut self.collector, free_mem, devices_free);
    }

    /// A node's advertised capacity from device ground truth: free declared
    /// memory net of in-flight matches, and the number of entirely free
    /// cards. A card mid-reset contributes nothing.
    fn node_capacity(&self, node: u32) -> (u64, u32) {
        let per_node = self.cfg.devices_per_node as usize;
        let first = self.dev_index((node, 0));
        let mut free_mem = 0u64;
        let mut devices_free = 0u32;
        for d in self.devs[first..first + per_node]
            .iter()
            .filter(|d| !d.down)
        {
            free_mem += d
                .device
                .free_declared_mb()
                .saturating_sub(d.inflight_declared);
            if d.device.resident_count() == 0 && d.inflight_count == 0 {
                devices_free += 1;
            }
        }
        (free_mem, devices_free)
    }

    // ------------------------------------------------------------------
    // Scheduling support
    // ------------------------------------------------------------------

    /// Unplaced (held) jobs, in FIFO order, as the external scheduler sees
    /// them.
    fn pending_views(&self) -> Vec<PendingJob> {
        self.queue
            .held()
            .into_iter()
            // Parked (backing off) and retired jobs are held too, but the
            // scheduler must not plan them.
            .filter(|id| !self.parked.contains(id) && !self.retired.contains(id))
            .map(|id| {
                let idx = self.job_index[&id];
                let spec = &self.wl.jobs[idx];
                PendingJob {
                    id,
                    mem_mb: spec.mem_req_mb,
                    threads: spec.thread_req,
                    nominal_secs: self.nominal_secs[idx],
                }
            })
            .collect()
    }

    /// Per-device free envelopes as the external scheduler sees them.
    fn device_views(&self) -> Vec<DeviceView> {
        self.devs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let (node, device) = self.dev_key(i);
                (!self.node(node).down && !d.down).then(|| DeviceView {
                    node,
                    device,
                    free_declared_mb: d
                        .device
                        .free_declared_mb()
                        .saturating_sub(d.inflight_declared),
                    // Matched-but-undispatched jobs consume thread budget
                    // too, or successive cycles would overfill a device.
                    resident_threads: d.device.declared_threads() + d.inflight_threads,
                })
            })
            .collect()
    }

    /// Refresh every node's slot ads from device ground truth.
    fn refresh_ads(&mut self) {
        for (i, startd) in self.startds.iter().enumerate() {
            let node = startd.node;
            if self.nodes[i].down {
                // A churned node has no ads to refresh; `refresh` would
                // fall back to a full advertise and resurrect the dead
                // startd. It re-advertises on recovery instead.
                continue;
            }
            let (free_mem, devices_free) = self.node_capacity(node);
            let seq = self.collector.node_seq(node);
            if self.ads_synced[i] == Some((seq, free_mem, devices_free)) {
                // Debug builds refresh anyway and check nothing was written.
                #[cfg(debug_assertions)]
                {
                    let before = self.collector.seq();
                    startd.refresh(&mut self.collector, free_mem, devices_free);
                    assert_eq!(
                        self.collector.seq(),
                        before,
                        "skipped ad refresh of node {node} was not a no-op"
                    );
                }
                continue;
            }
            startd.refresh(&mut self.collector, free_mem, devices_free);
            self.ads_synced[i] = Some((self.collector.node_seq(node), free_mem, devices_free));
        }
    }

    /// Pick the device on `node` with the most free declared memory that
    /// fits `mem_mb` (and, for the exclusive policy, is entirely free).
    fn choose_device(&self, node: u32, mem_mb: u64) -> Option<DevKey> {
        let mut best: Option<(u64, DevKey)> = None;
        if self.node(node).down {
            return None; // defensive: a churned node's ads are gone anyway
        }
        for dev in 0..self.cfg.devices_per_node {
            let key = (node, dev);
            let d = self.dev(key);
            if d.down {
                continue;
            }
            if self.cfg.policy == ClusterPolicy::Mc
                && (d.device.resident_count() > 0 || d.inflight_count > 0)
            {
                continue;
            }
            let free = d
                .device
                .free_declared_mb()
                .saturating_sub(d.inflight_declared);
            if free >= mem_mb && best.map(|(b, _)| free > b).unwrap_or(true) {
                best = Some((free, key));
            }
        }
        best.map(|(_, key)| key)
    }

    /// Schedule a negotiation cycle at `at` unless one is already due
    /// earlier.
    ///
    /// Under cycle jitter the scheduled instant slips late by
    /// `uniform(0, jitter_max_secs)`. The offset is a pure function of
    /// `(seed, cycle_seq)` via an indexed substream — not of how many
    /// times this method ran — so event modes and substrates that issue
    /// the same cycle sequence draw the same offsets.
    fn request_cycle(&mut self, sim: &mut Sim<Ev>, at: SimTime) {
        if let Some(due) = self.next_cycle {
            if due <= at {
                return;
            }
        }
        self.cycle_seq += 1;
        let at = if self.cfg.perturb.jitter_enabled() {
            let mut rng =
                DetRng::substream_indexed(self.cfg.seed, "perturb-jitter", self.cycle_seq);
            let offset = rng.uniform_range(0.0, self.cfg.perturb.jitter_max_secs);
            self.jittered_cycles += 1;
            at + SimDuration::from_secs_f64(offset)
        } else {
            at
        };
        self.next_cycle = Some(at);
        sim.schedule_at(at, Ev::Cycle(self.cycle_seq));
    }

    /// Whether the imminent cycle is provably a no-op. Exact, O(1):
    ///
    /// * `!world_dirty` — no event since the last executed cycle, so
    ///   device ground truth is unchanged and `refresh_ads` would rewrite
    ///   every ad to its current value (a clean no-op write);
    /// * no open stale-ad window — an executed cycle under one must still
    ///   advance `stale_ad_skips`, so it cannot be skipped;
    /// * nothing for the external scheduler to plan — every held job is
    ///   parked or retired, and `plan(&[], …)` is pure for every
    ///   scheduler (no RNG draws, no cache-counter movement);
    /// * every idle job's unmatched certificate covers the collector's
    ///   newest watermark — the negotiator-level quiescence predicate
    ///   ([`Negotiator::cycle_is_quiescent`]): each job would re-screen an
    ///   empty dirty set, match nothing, and re-certify at an unchanged
    ///   sequence.
    fn cycle_is_quiescent(&self) -> bool {
        !self.world_dirty
            && self.stale_ad_depth == 0
            && (self.scheduler.is_none()
                || self.queue.held_count() == self.parked.len() + self.retired.len())
            && Negotiator::cycle_is_quiescent(&self.queue, &self.collector)
    }

    /// Debug-build proof obligation for a skipped cycle: replay full-oracle
    /// matchmaking on clones and assert it would have matched nothing. The
    /// proptests run debug builds, so every skip in every generated
    /// scenario re-proves itself against [`MatchPath::Full`].
    #[cfg(debug_assertions)]
    fn audit_quiescent_skip(&self) {
        let mut queue = self.queue.clone();
        let mut collector = self.collector.clone();
        let (matches, _) = self
            .negotiator
            .with_path(phishare_condor::MatchPath::Full)
            .negotiate_with_stats(&mut queue, &mut collector);
        debug_assert!(
            matches.is_empty(),
            "quiescence skipped a cycle the full oracle would have matched {} job(s) in",
            matches.len()
        );
    }

    /// True when no job will ever need another negotiation cycle. O(1):
    /// the arrival counter and the queue's maintained state counts stand
    /// in for walks over every job (still run as debug checks).
    ///
    /// Retired jobs (held after exhausting retries) count as terminal;
    /// parked jobs do not — their pending `Release` will need a cycle.
    fn drained(&self) -> bool {
        // All arrivals processed ⇔ every workload job has been submitted.
        let all_in = self.submitted == self.wl.jobs.len();
        debug_assert_eq!(
            all_in,
            self.wl.jobs.iter().all(|j| self.queue.get(j.id).is_some())
        );
        if !all_in {
            return false;
        }
        let (idle, matched, running) = self.queue.active_counts();
        matched == 0 && running == 0 && self.parked.is_empty() && idle == self.retired.len()
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn into_result(self, cfg: &ClusterConfig, wl: &Workload) -> ExperimentResult {
        let end = self.last_terminal;
        let n_dev = self.devs.len() as f64;
        let mut thread_util = 0.0;
        let mut core_util = 0.0;
        let mut mem_util = 0.0;
        let mut busy = 0.0;
        let mut energy_joules = 0.0;
        let mut oom_kills_devices = 0u64;
        for device in self.devs.iter().map(|d| &d.device) {
            let u = device.utilization(end);
            thread_util += u.thread_util;
            core_util += u.core_util;
            mem_util += u.mem_util;
            busy += u.busy_fraction;
            energy_joules += device.energy_joules(end);
            oom_kills_devices += device.oom_kill_count();
        }
        debug_assert_eq!(oom_kills_devices as usize, self.oom_kills);

        let mut host_util = 0.0;
        for node in &self.nodes {
            host_util += node.host.busy_core_average(end) / cfg.host_cores_per_node as f64;
        }
        host_util /= self.nodes.len() as f64;

        let plan_stats = self
            .scheduler
            .as_ref()
            .map(|s| s.plan_stats())
            .unwrap_or_default();

        let mut queue_waits = Summary::new();
        for cos in self.devs.iter().filter_map(|d| d.cosmic.as_ref()) {
            // Aggregate COSMIC queue waits across devices.
            if cos.queue_wait_count() > 0 {
                queue_waits.record(cos.queue_wait_mean());
            }
        }

        ExperimentResult {
            policy: cfg.policy,
            nodes: cfg.nodes,
            workload: wl.label.clone(),
            jobs: wl.len(),
            completed: self.completed,
            container_kills: self.container_kills,
            oom_kills: self.oom_kills,
            makespan_secs: end.as_secs_f64(),
            thread_utilization: thread_util / n_dev,
            core_utilization: core_util / n_dev,
            mem_utilization: mem_util / n_dev,
            device_busy_fraction: busy / n_dev,
            host_core_utilization: host_util,
            mean_wait_secs: self.waits.mean(),
            mean_turnaround_secs: self.turnarounds.mean(),
            mean_offload_queue_secs: queue_waits.mean(),
            negotiation_cycles: self.negotiation_cycles,
            cycles_skipped: self.cycles_skipped,
            pins_issued: self.pins_issued,
            energy_kwh: energy_joules / 3.6e6,
            events_processed: self.live_events,
            device_resets: self.device_resets,
            node_churns: self.node_churns,
            retries: self.retries,
            fallback_offloads: self.fallback_offloads,
            perturb_windows: self.perturb_windows,
            stale_ad_skips: self.stale_ad_skips,
            jittered_cycles: self.jittered_cycles,
            inflated_offloads: self.inflated_offloads,
            stale_match_rejects: self.stale_match_rejects,
            held_after_retries: self.retired.len(),
            plan_cache_hits: plan_stats.cache_hits,
            plan_cache_misses: plan_stats.cache_misses,
            plan_ms: self.plan_nanos as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_sim::SimDuration;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn small_workload(n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(n)
            .seed(seed)
            .build()
    }

    fn fast_config(policy: ClusterPolicy) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_cluster(policy);
        cfg.nodes = 4;
        cfg.knapsack.window = 64;
        cfg
    }

    /// [`Experiment::run_with`] under `opts` with tracing switched on.
    fn traced_with(
        cfg: &ClusterConfig,
        wl: &Workload,
        opts: RunOptions<'_>,
    ) -> (ExperimentResult, Trace) {
        let opts = RunOptions {
            trace: true,
            ..opts
        };
        let (r, trace) = Experiment::run_with(cfg, wl, &opts).unwrap();
        (r, trace.expect("tracing was enabled"))
    }

    /// An untraced default run on `substrate`.
    fn run_on(cfg: &ClusterConfig, wl: &Workload, substrate: SubstrateMode) -> ExperimentResult {
        let opts = RunOptions {
            substrate,
            ..RunOptions::default()
        };
        Experiment::run_with(cfg, wl, &opts).unwrap().0
    }

    /// Default options with an explicit fault plan on `substrate`.
    fn faulted(plan: &FaultPlan, substrate: SubstrateMode) -> RunOptions<'_> {
        RunOptions {
            faults: Some(plan),
            substrate,
            ..RunOptions::default()
        }
    }

    /// Default options on the per-offload oracle event scheme.
    const PER_OFFLOAD: RunOptions<'static> = RunOptions {
        faults: None,
        perturbs: None,
        substrate: SubstrateMode::Fast,
        events: EventMode::PerOffload,
        trace: false,
    };

    #[test]
    fn mc_runs_all_jobs_to_completion() {
        let wl = small_workload(40, 1);
        let r = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        assert!(r.all_completed(), "{r:?}");
        assert_eq!(r.oom_kills, 0);
        assert_eq!(r.container_kills, 0);
        assert!(r.makespan_secs > 0.0);
        assert_eq!(r.pins_issued, 0);
    }

    #[test]
    fn mcc_and_mcck_run_all_jobs_to_completion() {
        let wl = small_workload(40, 2);
        for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let r = Experiment::run(&fast_config(policy), &wl).unwrap();
            assert!(r.all_completed(), "{policy}: {r:?}");
            assert_eq!(r.oom_kills, 0, "{policy} must never oversubscribe");
            assert!(r.pins_issued >= 40, "{policy} pins every job");
        }
    }

    #[test]
    fn sharing_beats_exclusive_on_makespan() {
        let wl = small_workload(60, 3);
        let mc = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        let mcck = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(
            mcck.makespan_secs < mc.makespan_secs,
            "MCCK {} vs MC {}",
            mcck.makespan_secs,
            mc.makespan_secs
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = small_workload(30, 4);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let a = Experiment::run(&cfg, &wl).unwrap();
        let b = Experiment::run(&cfg, &wl).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quiescence_skipping_is_bit_identical_and_actually_skips() {
        // Long single-offload jobs: while they run, whole heartbeat
        // windows pass with no event at all — exactly the cycles
        // quiescence is meant to skip. (Table1Mix jobs switch segments so
        // often that nearly every window sees an event.)
        let mut wl = small_workload(12, 21);
        for job in &mut wl.jobs {
            job.mem_req_mb = 3000;
            job.actual_peak_mem_mb = 3000;
            job.thread_req = 60;
            job.profile = phishare_workload::JobProfile::new(vec![Segment::offload(
                60,
                SimDuration::from_secs(50),
            )]);
        }
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let mut on = fast_config(policy);
            on.negotiation_interval = SimDuration::from_secs(2);
            let mut off = on;
            off.skip_quiescent = false;
            let (r_on, t_on) = Experiment::run_traced(&on, &wl).unwrap();
            let (r_off, t_off) = Experiment::run_traced(&off, &wl).unwrap();
            // `PartialEq` excludes `cycles_skipped`; everything else —
            // every counter, every utilization, the makespan — matches.
            assert_eq!(r_on, r_off, "{policy}: results diverged");
            assert_eq!(t_on.events, t_off.events, "{policy}: traces diverged");
            assert_eq!(r_off.cycles_skipped, 0, "{policy}: off means off");
            assert!(
                r_on.cycles_skipped > 0,
                "{policy}: long offloads leave quiet heartbeats to skip \
                 ({} cycles, 0 skipped)",
                r_on.negotiation_cycles
            );
            assert!(r_on.cycles_skipped < r_on.negotiation_cycles);
        }
    }

    #[test]
    fn partitioned_runs_are_bit_identical() {
        let wl = small_workload(40, 22);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcck] {
            let base = fast_config(policy);
            let r1 = Experiment::run(&base, &wl).unwrap();
            for parts in [2, 5] {
                let mut cfg = base;
                cfg.partitions = parts;
                let rp = Experiment::run(&cfg, &wl).unwrap();
                assert_eq!(r1, rp, "{policy}: partitions={parts} diverged");
            }
        }
    }

    #[test]
    fn next_completion_mode_matches_per_offload_oracle() {
        let wl = small_workload(40, 13);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let (fast, fast_trace) = Experiment::run_traced(&cfg, &wl).unwrap();
            let (naive, naive_trace) = traced_with(&cfg, &wl, PER_OFFLOAD);
            assert_eq!(fast, naive, "{policy}: metrics diverged across event modes");
            assert_eq!(
                fast_trace.events, naive_trace.events,
                "{policy}: traces diverged across event modes"
            );
        }
    }

    #[test]
    fn misbehaving_jobs_are_container_killed_under_cosmic() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(30)
            .seed(5)
            .misbehaving_fraction(0.5)
            .build();
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(r.container_kills > 0, "{r:?}");
        assert_eq!(r.oom_kills, 0, "containers must fire before physical OOM");
        assert_eq!(r.completed + r.container_kills, r.jobs);
    }

    #[test]
    fn thread_hog_is_rejected_up_front_under_mcck() {
        let mut wl = small_workload(3, 12);
        wl.jobs[1].thread_req = 500;
        // Keep the spec self-consistent (declared = profile max).
        if let Segment::Offload { threads, .. } = &mut wl.jobs[1].profile.segments[1] {
            *threads = 500;
        }
        let err = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap_err();
        assert!(err.contains("thread budget"), "{err}");
        // MCC has no knapsack thread filter; COSMIC clamps at admission, so
        // the same workload completes there.
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcc), &wl).unwrap();
        assert_eq!(r.completed, 3);
    }

    #[test]
    fn zero_knapsack_window_is_an_error_not_a_panic() {
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.knapsack.window = 0;
        let err = Experiment::run(&cfg, &small_workload(5, 3)).unwrap_err();
        assert_eq!(err, "knapsack window must be positive");
    }

    #[test]
    fn zero_knapsack_granularity_is_an_error_not_a_panic() {
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.knapsack.granularity_mb = 0;
        let err = Experiment::run(&cfg, &small_workload(5, 3)).unwrap_err();
        assert_eq!(err, "knapsack granularity_mb must be positive");
    }

    #[test]
    fn lax_thread_budget_rejects_unplaceable_jobs_up_front() {
        // Without resident-thread counting the per-round budget is the bare
        // thread limit; a job declaring more could never be packed and used
        // to starve in the queue forever.
        let wl = small_workload(20, 7);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.nodes = 2;
        cfg.knapsack.count_resident_threads = false;
        cfg.knapsack.thread_limit = 100;
        let hog = wl
            .jobs
            .iter()
            .find(|j| j.thread_req > 100)
            .expect("Table I mix has jobs above 100 threads");
        let err = Experiment::run(&cfg, &wl).unwrap_err();
        assert_eq!(
            err,
            format!(
                "job {} declares {} threads but the scheduler's per-device \
                 thread budget is 100; it could never be placed",
                hog.id, hog.thread_req
            )
        );
    }

    #[test]
    fn thread_budget_rounds_down_to_whole_units_under_mcck() {
        // The 2-D DP packs threads in 4-thread units: a 250-thread budget
        // packs at most 248 threads, so a 250-thread job used to starve.
        let mut wl = small_workload(3, 6);
        wl.jobs[1].thread_req = 250;
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.knapsack.count_resident_threads = false;
        cfg.knapsack.thread_limit = 250;
        let err = Experiment::run(&cfg, &wl).unwrap_err();
        assert_eq!(
            err,
            format!(
                "job {} declares 250 threads but the scheduler's per-device \
                 thread budget is 248; it could never be placed",
                wl.jobs[1].id
            )
        );
        // Below one unit nothing packs, not even a host-only job.
        cfg.knapsack.thread_limit = 3;
        let mut wl = small_workload(1, 6);
        wl.jobs[0].thread_req = 0;
        wl.jobs[0]
            .profile
            .segments
            .retain(|s| matches!(s, Segment::Host { .. }));
        let err = Experiment::run(&cfg, &wl).unwrap_err();
        assert!(
            err.ends_with("thread budget is 0; it could never be placed"),
            "{err}"
        );
    }

    #[test]
    fn job_above_the_packable_granules_is_rejected_up_front_under_mcck() {
        // 7 680 MB usable at 50 MB granules packs at most 7 650 MB; a
        // 7 670 MB job fits the card but no knapsack, and used to starve.
        let mut wl = small_workload(3, 6);
        wl.jobs[1].mem_req_mb = 7670;
        let err = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap_err();
        assert_eq!(
            err,
            format!(
                "job {} declares 7670 MB but the knapsack packs at most \
                 7650 MB per device; it could never be placed",
                wl.jobs[1].id
            )
        );
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcc), &wl).unwrap();
        assert_eq!(r.completed, 3);
    }

    #[test]
    fn oversized_job_is_rejected_up_front() {
        let mut wl = small_workload(3, 6);
        wl.jobs[1].mem_req_mb = 100_000;
        let err = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap_err();
        assert!(err.contains("100000"), "{err}");
    }

    #[test]
    fn duplicate_ids_and_mismatched_arrivals_are_errors_not_panics() {
        let mut dup = small_workload(6, 7);
        dup.jobs[4].id = dup.jobs[1].id;
        let mut short = small_workload(6, 7);
        short.arrivals.pop();
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let err = Experiment::run(&cfg, &dup).unwrap_err();
            assert!(err.contains("another job"), "{policy}: {err}");
            let err = Experiment::run(&cfg, &short).unwrap_err();
            assert!(err.contains("6 jobs but 5 arrival"), "{policy}: {err}");
        }
    }

    #[test]
    fn single_job_timeline_matches_profile() {
        // One job, exclusive cluster: makespan = arrival + first cycle (0)
        // + dispatch delay + nominal duration, within a tick.
        let wl = small_workload(1, 7);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 1;
        let r = Experiment::run(&cfg, &wl).unwrap();
        let expect = cfg.dispatch_delay.as_secs_f64() + wl.jobs[0].nominal_duration().as_secs_f64();
        assert!(
            (r.makespan_secs - expect).abs() < 0.01,
            "makespan {} vs expected {expect}",
            r.makespan_secs
        );
    }

    #[test]
    fn poisson_arrivals_complete() {
        let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(25)
            .seed(8)
            .arrivals(phishare_workload::ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs(2),
            })
            .build();
        let r = Experiment::run(&fast_config(ClusterPolicy::Mcck), &wl).unwrap();
        assert!(r.all_completed(), "{r:?}");
    }

    #[test]
    fn mc_exclusive_uses_at_most_one_job_per_device() {
        // Indirect check: MC on 2 nodes with 10 jobs has mean wait far above
        // MCCK's (jobs serialize per device).
        let wl = small_workload(10, 9);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 2;
        let mc = Experiment::run(&cfg, &wl).unwrap();
        let mut cfg2 = fast_config(ClusterPolicy::Mcck);
        cfg2.nodes = 2;
        let mcck = Experiment::run(&cfg2, &wl).unwrap();
        assert!(mc.mean_wait_secs > mcck.mean_wait_secs);
    }

    #[test]
    fn traced_runs_match_untraced_results() {
        let wl = small_workload(25, 11);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plain = Experiment::run(&cfg, &wl).unwrap();
        let (traced, trace) = Experiment::run_traced(&cfg, &wl).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        // Every job leaves a complete lifecycle in the trace.
        use crate::trace::TraceEvent as TE;
        let count = |f: fn(&TE) -> bool| trace.events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, TE::Submitted { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Pinned { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Dispatched { .. })), 25);
        assert_eq!(count(|e| matches!(e, TE::Completed { .. })), 25);
        let started = count(|e| matches!(e, TE::OffloadStarted { .. }));
        let finished = count(|e| matches!(e, TE::OffloadFinished { .. }));
        assert_eq!(started, finished);
        let total_offloads: usize = wl.jobs.iter().map(|j| j.profile.offload_count()).sum();
        assert_eq!(started, total_offloads);
        // Spans reconstruct one interval per offload.
        assert_eq!(trace.offload_spans().len(), total_offloads);
    }

    #[test]
    fn utilization_is_sane() {
        let wl = small_workload(40, 10);
        let r = Experiment::run(&fast_config(ClusterPolicy::Mc), &wl).unwrap();
        assert!(
            r.core_utilization > 0.1 && r.core_utilization < 1.0,
            "{r:?}"
        );
        assert!(r.thread_utilization > 0.1 && r.thread_utilization <= 1.0);
        assert!(r.device_busy_fraction > r.core_utilization - 1e-9);
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    use crate::audit::audit;
    use crate::fault::FaultEvent;
    use phishare_sim::SimTime;

    fn one_fault(
        kind: FaultKind,
        node: u32,
        device: u32,
        at_secs: u64,
        down_secs: u64,
    ) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                kind,
                node,
                device,
                at: SimTime::from_secs(at_secs),
                downtime: SimDuration::from_secs(down_secs),
            }],
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let wl = small_workload(30, 21);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let plain = Experiment::run(&cfg, &wl).unwrap();
            let empty = FaultPlan::empty();
            let (faulted, _) =
                Experiment::run_with(&cfg, &wl, &faulted(&empty, SubstrateMode::Fast)).unwrap();
            assert_eq!(plain, faulted, "{policy}: empty plan perturbed the run");
        }
    }

    #[test]
    fn device_reset_degrades_to_host_fallback_and_completes() {
        let wl = small_workload(20, 22);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plan = one_fault(FaultKind::DeviceReset, 1, 0, 5, 30);
        let (r, trace) = traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Fast));
        assert_eq!(r.device_resets, 1);
        assert_eq!(r.node_churns, 0);
        // HostOnly fallback: jobs caught on the card keep their slot and
        // finish host-side — nothing is lost, nothing retries.
        assert!(r.all_completed(), "{r:?}");
        assert!(
            r.fallback_offloads > 0,
            "a job caught mid-run should have fallen back: {r:?}"
        );
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn node_churn_vacates_retries_and_recovers() {
        let wl = small_workload(20, 23);
        let cfg = fast_config(ClusterPolicy::Mcck);
        let plan = one_fault(FaultKind::NodeChurn, 1, 0, 5, 60);
        let (r, trace) = traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Fast));
        assert_eq!(r.node_churns, 1);
        assert!(r.retries > 0, "churn should vacate running jobs: {r:?}");
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs
        );
        // Default budget (3 retries) absorbs a single churn.
        assert!(r.all_completed(), "{r:?}");
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn requeue_policy_with_no_retries_holds_victims() {
        let wl = small_workload(10, 24);
        let mut cfg = fast_config(ClusterPolicy::Mc);
        cfg.nodes = 1;
        cfg.recovery.fallback = FallbackPolicy::Requeue;
        cfg.recovery.max_retries = 0;
        let plan = one_fault(FaultKind::DeviceReset, 1, 0, 5, 30);
        let (r, trace) = traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Fast));
        assert_eq!(r.held_after_retries, 1, "{r:?}");
        assert_eq!(r.retries, 0, "a zero budget never grants a retry");
        assert_eq!(r.completed + r.held_after_retries, r.jobs);
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn fault_runs_match_across_event_modes() {
        let wl = small_workload(25, 25);
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    kind: FaultKind::DeviceReset,
                    node: 2,
                    device: 0,
                    at: SimTime::from_secs(4),
                    downtime: SimDuration::from_secs(25),
                },
                FaultEvent {
                    kind: FaultKind::NodeChurn,
                    node: 1,
                    device: 0,
                    at: SimTime::from_secs(9),
                    downtime: SimDuration::from_secs(45),
                },
            ],
        };
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let fast_opts = faulted(&plan, SubstrateMode::Fast);
            let (fast, fast_trace) = traced_with(&cfg, &wl, fast_opts);
            let naive_opts = RunOptions {
                events: EventMode::PerOffload,
                ..fast_opts
            };
            let (naive, naive_trace) = traced_with(&cfg, &wl, naive_opts);
            assert_eq!(fast, naive, "{policy}: fault metrics diverged across modes");
            assert_eq!(
                fast_trace.events, naive_trace.events,
                "{policy}: fault traces diverged across modes"
            );
        }
    }

    // ------------------------------------------------------------------
    // Substrate differential
    // ------------------------------------------------------------------

    #[test]
    fn keyed_substrate_matches_fast_substrate() {
        let wl = small_workload(40, 31);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let fast = Experiment::run(&cfg, &wl).unwrap();
            let keyed = run_on(&cfg, &wl, SubstrateMode::Keyed);
            assert_eq!(fast, keyed, "{policy}: substrates diverged");
        }
    }

    #[test]
    fn keyed_substrate_matches_fast_substrate_under_faults() {
        let wl = small_workload(25, 33);
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    kind: FaultKind::DeviceReset,
                    node: 2,
                    device: 0,
                    at: SimTime::from_secs(4),
                    downtime: SimDuration::from_secs(25),
                },
                FaultEvent {
                    kind: FaultKind::NodeChurn,
                    node: 1,
                    device: 0,
                    at: SimTime::from_secs(9),
                    downtime: SimDuration::from_secs(45),
                },
            ],
        };
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let (fast, fast_trace) = traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Fast));
            let (keyed, keyed_trace) = traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Keyed));
            assert_eq!(fast, keyed, "{policy}: fault metrics diverged");
            assert_eq!(
                fast_trace.events, keyed_trace.events,
                "{policy}: fault traces diverged"
            );
        }
    }

    #[test]
    fn shared_substrate_matches_naive_shared_oracle() {
        let wl = small_workload(40, 31);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let shared = run_on(&cfg, &wl, SubstrateMode::Shared);
            let naive = run_on(&cfg, &wl, SubstrateMode::SharedNaive);
            assert_eq!(shared, naive, "{policy}: shared engines diverged");
            assert!(shared.completed > 0, "{policy}: nothing ran end-to-end");
        }
    }

    #[test]
    fn per_offload_events_match_on_every_substrate() {
        let wl = small_workload(25, 34);
        let substrates = [
            SubstrateMode::Keyed,
            SubstrateMode::Shared,
            SubstrateMode::SharedNaive,
        ];
        for substrate in substrates {
            for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
                let cfg = fast_config(policy);
                let opts = RunOptions {
                    substrate,
                    ..RunOptions::default()
                };
                let (fast, fast_trace) = traced_with(&cfg, &wl, opts);
                let per_offload = RunOptions {
                    events: EventMode::PerOffload,
                    ..opts
                };
                let (naive, naive_trace) = traced_with(&cfg, &wl, per_offload);
                assert_eq!(fast, naive, "{substrate}/{policy}: event modes diverged");
                assert_eq!(
                    fast_trace.events, naive_trace.events,
                    "{substrate}/{policy}: traces diverged across event modes"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_pools_run_end_to_end_on_shared_substrates() {
        let wl = small_workload(30, 35);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                kind: FaultKind::DeviceReset,
                node: 2,
                device: 0,
                at: SimTime::from_secs(5),
                downtime: SimDuration::from_secs(20),
            }],
        };
        for pool in [
            crate::config::DevicePool::Alternate(crate::config::DeviceSku::GpuLike),
            crate::config::DevicePool::Alternate(crate::config::DeviceSku::Phi3120a),
        ] {
            for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
                let mut cfg = fast_config(policy);
                cfg.pool = pool;
                let (shared, shared_trace) =
                    traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::Shared));
                let (naive, naive_trace) =
                    traced_with(&cfg, &wl, faulted(&plan, SubstrateMode::SharedNaive));
                assert_eq!(shared, naive, "{policy}/{pool:?}: shared engines diverged");
                assert_eq!(
                    shared_trace.events, naive_trace.events,
                    "{policy}/{pool:?}: traces diverged"
                );
                assert!(
                    shared.completed > 0,
                    "{policy}/{pool:?}: nothing ran end-to-end"
                );
                let violations = crate::audit(&cfg, &wl, &shared, &shared_trace);
                assert!(violations.is_empty(), "{policy}/{pool:?}: {violations:?}");
            }
        }
    }

    #[test]
    fn generated_plans_run_and_audit_clean() {
        let wl = small_workload(25, 26);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.faults.device_mtbf_secs = 150.0;
        cfg.faults.node_mtbf_secs = 400.0;
        cfg.faults.horizon_secs = 600.0;
        let (r, trace) = Experiment::run_traced(&cfg, &wl).unwrap();
        assert!(
            r.device_resets + r.node_churns > 0,
            "an aggressive MTBF should strike at least once: {r:?}"
        );
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs
        );
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    // ------------------------------------------------------------------
    // Chaos perturbations
    // ------------------------------------------------------------------

    /// A config with the whole perturbation stack switched on.
    fn chaos_config(policy: ClusterPolicy) -> ClusterConfig {
        let mut cfg = fast_config(policy);
        cfg.perturb.derate.mean_gap_secs = 40.0;
        cfg.perturb.derate.duration_secs = 25.0;
        cfg.perturb.derate.factor = 0.4;
        cfg.perturb.latency.mean_gap_secs = 30.0;
        cfg.perturb.latency.duration_secs = 20.0;
        cfg.perturb.latency.extra_secs = 1.5;
        cfg.perturb.stale_ads.mean_gap_secs = 35.0;
        cfg.perturb.stale_ads.duration_secs = 25.0;
        cfg.perturb.jitter_max_secs = 2.0;
        cfg.perturb.horizon_secs = 600.0;
        cfg
    }

    #[test]
    fn empty_perturb_plan_is_bit_identical_to_plain_run() {
        let wl = small_workload(30, 41);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = fast_config(policy);
            let plain = Experiment::run(&cfg, &wl).unwrap();
            let (faults, perturbs) = (FaultPlan::empty(), PerturbPlan::empty());
            let opts = RunOptions {
                faults: Some(&faults),
                perturbs: Some(&perturbs),
                ..RunOptions::default()
            };
            let (chaos, _) = traced_with(&cfg, &wl, opts);
            assert_eq!(plain, chaos, "{policy}: empty stack perturbed the run");
        }
    }

    #[test]
    fn perturbed_runs_are_deterministic_and_audit_clean() {
        let wl = small_workload(30, 42);
        let cfg = chaos_config(ClusterPolicy::Mcck);
        let (a, trace) = Experiment::run_traced(&cfg, &wl).unwrap();
        let (b, _) = Experiment::run_traced(&cfg, &wl).unwrap();
        assert_eq!(a, b);
        assert!(a.perturb_windows > 0, "stack never opened a window: {a:?}");
        assert!(a.jittered_cycles > 0, "jitter never fired: {a:?}");
        assert_eq!(
            a.completed + a.container_kills + a.oom_kills + a.held_after_retries,
            a.jobs
        );
        let violations = audit(&cfg, &wl, &a, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn derate_windows_stretch_the_makespan() {
        let wl = small_workload(40, 43);
        let plain_cfg = fast_config(ClusterPolicy::Mcck);
        let mut cfg = plain_cfg;
        // A near-continuous heavy derate on every card.
        cfg.perturb.derate.mean_gap_secs = 10.0;
        cfg.perturb.derate.duration_secs = 120.0;
        cfg.perturb.derate.factor = 0.25;
        cfg.perturb.horizon_secs = 3600.0;
        let plain = Experiment::run(&plain_cfg, &wl).unwrap();
        let derated = Experiment::run(&cfg, &wl).unwrap();
        assert!(derated.perturb_windows > 0, "{derated:?}");
        assert!(
            derated.makespan_secs > plain.makespan_secs,
            "derate {} vs plain {}",
            derated.makespan_secs,
            plain.makespan_secs
        );
    }

    #[test]
    fn latency_spikes_inflate_offloads() {
        let wl = small_workload(30, 44);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.perturb.latency.mean_gap_secs = 15.0;
        cfg.perturb.latency.duration_secs = 60.0;
        cfg.perturb.latency.extra_secs = 3.0;
        cfg.perturb.horizon_secs = 1800.0;
        let r = Experiment::run(&cfg, &wl).unwrap();
        assert!(r.inflated_offloads > 0, "{r:?}");
        assert!(r.all_completed(), "{r:?}");
    }

    #[test]
    fn stale_ads_skip_refreshes_but_jobs_still_complete() {
        let wl = small_workload(30, 45);
        let mut cfg = fast_config(ClusterPolicy::Mcck);
        cfg.perturb.stale_ads.mean_gap_secs = 10.0;
        cfg.perturb.stale_ads.duration_secs = 40.0;
        cfg.perturb.horizon_secs = 1800.0;
        let (r, trace) = Experiment::run_traced(&cfg, &wl).unwrap();
        assert!(r.stale_ad_skips > 0, "{r:?}");
        assert!(r.all_completed(), "{r:?}");
        let violations = audit(&cfg, &wl, &r, &trace);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn perturbed_runs_match_across_event_modes() {
        let wl = small_workload(25, 46);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = chaos_config(policy);
            let (fast, fast_trace) = Experiment::run_traced(&cfg, &wl).unwrap();
            let (naive, naive_trace) = traced_with(&cfg, &wl, PER_OFFLOAD);
            assert_eq!(fast, naive, "{policy}: chaos metrics diverged across modes");
            assert_eq!(
                fast_trace.events, naive_trace.events,
                "{policy}: chaos traces diverged across modes"
            );
        }
    }

    #[test]
    fn perturbed_runs_match_across_substrate_pairs() {
        let wl = small_workload(25, 47);
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
            let cfg = chaos_config(policy);
            let faults = FaultPlan::generate(&cfg);
            let perturbs = PerturbPlan::generate(&cfg);
            let run = |substrate| {
                let opts = RunOptions {
                    faults: Some(&faults),
                    perturbs: Some(&perturbs),
                    substrate,
                    ..RunOptions::default()
                };
                traced_with(&cfg, &wl, opts)
            };
            let (fast, fast_trace) = run(SubstrateMode::Fast);
            let (keyed, keyed_trace) = run(SubstrateMode::Keyed);
            assert_eq!(fast, keyed, "{policy}: fast/keyed diverged under chaos");
            assert_eq!(
                fast_trace.events, keyed_trace.events,
                "{policy}: fast/keyed traces diverged under chaos"
            );
            let (shared, shared_trace) = run(SubstrateMode::Shared);
            let (naive, naive_trace) = run(SubstrateMode::SharedNaive);
            assert_eq!(
                shared, naive,
                "{policy}: shared engines diverged under chaos"
            );
            assert_eq!(
                shared_trace.events, naive_trace.events,
                "{policy}: shared traces diverged under chaos"
            );
        }
    }
}
