//! Cluster-level schedulers: the knapsack packer (MCCK) and the random
//! baseline (MCC).

use phishare_knapsack::{
    prep_1d, prep_2d, solve_1d_filtered_with, solve_2d_with, solve_prepped_1d_with,
    solve_prepped_2d_with, Capacity, DpScratch, PackItem, Prepped, ValueFunction,
};
use phishare_sim::DetRng;
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A pending job as the cluster scheduler sees it: only the declared
/// envelope (the paper's explicit assumption — no execution times, no
/// profiles, §IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingJob {
    /// The job.
    pub id: JobId,
    /// Declared device memory, MB.
    pub mem_mb: u64,
    /// Declared threads.
    pub threads: u32,
    /// Nominal execution time in seconds. The paper's schedulers must NOT
    /// rely on this ("users usually cannot specify them accurately",
    /// §IV-B) — it exists for the clairvoyant upper-bound comparator
    /// ([`ClairvoyantLpt`]), which quantifies how much MCCK loses by not
    /// knowing it.
    pub nominal_secs: f64,
}

/// One coprocessor's free envelope as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceView {
    /// The node hosting the device.
    pub node: u32,
    /// Device index on the node.
    pub device: u32,
    /// Declared memory not yet allocated to resident jobs, MB.
    pub free_declared_mb: u64,
    /// Declared threads of currently resident jobs (used only by the strict
    /// `count_resident_threads` ablation).
    pub resident_threads: u32,
}

/// A placement decision: pin `job` to a specific device.
///
/// Condor-side the pin is expressed at node granularity (`Machine == …`),
/// but the packing is per *device* (each knapsack is one coprocessor,
/// §IV-C) — the runtime must honor the planned device, or an order-dependent
/// re-placement at match time can break a feasible multi-device plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The job to pin.
    pub job: JobId,
    /// The destination node.
    pub node: u32,
    /// The destination device on that node.
    pub device: u32,
}

/// Common interface for cluster-level schedulers (MCC's random selection and
/// MCCK's knapsack packing).
pub trait ClusterScheduler {
    /// Compute placements for `pending` jobs onto `devices`.
    ///
    /// The scheduler must account for its own *outstanding* pins — jobs it
    /// placed earlier that Condor has not dispatched yet — since those jobs
    /// still look `Idle` in the queue and the device views do not reflect
    /// them.
    fn plan(&mut self, pending: &[PendingJob], devices: &[DeviceView]) -> Vec<Pin>;

    /// A previously pinned job was dispatched (its memory now shows up in
    /// the device view).
    fn on_dispatched(&mut self, job: JobId);

    /// A job left the system without dispatching (killed / removed).
    fn on_job_gone(&mut self, job: JobId);

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Planning-cache counters (all zero for schedulers without a solve
    /// cache).
    fn plan_stats(&self) -> PlanStats {
        PlanStats::default()
    }
}

/// Cumulative counters for the planning fast path, surfaced through
/// cluster reports so sweeps expose planner cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Per-device solves answered from the memo cache (including entries
    /// pre-solved by the speculative parallel warm-up) — no DP ran on the
    /// planning thread.
    pub cache_hits: u64,
    /// Per-device solves that ran the DP serially (and populated the
    /// cache).
    pub cache_misses: u64,
}

/// Which DP formulation MCCK uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KnapsackVariant {
    /// 2-D DP over (memory, threads) — thread-feasible by construction.
    #[default]
    TwoD,
    /// Paper-literal 1-D memory DP with thread repair (ablation).
    OneDFiltered,
}

/// Which planning implementation MCCK runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlannerMode {
    /// The planning fast path: fit-filtered, multiplicity-truncated
    /// instances solved through a content-addressed memo cache, with
    /// speculative parallel pre-solves of distinct cold instances.
    /// Bit-identical to [`PlannerMode::NaiveSerial`] by construction (and
    /// by differential proptest).
    #[default]
    Fast,
    /// The seed's serial per-device DP loop, retained as the differential
    /// oracle (the PR 1 / PR 2 pattern).
    NaiveSerial,
}

/// MCCK configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnapsackConfig {
    /// Job value function (paper Eq. 1 by default).
    pub value_fn: ValueFunction,
    /// Memory discretization, MB (paper §IV-C: 50 MB).
    pub granularity_mb: u64,
    /// Hardware thread limit per device.
    pub thread_limit: u32,
    /// DP formulation.
    pub variant: KnapsackVariant,
    /// At most this many FIFO-pending jobs are considered per packing round,
    /// bounding each DP at `O(window · W · T)`.
    pub window: usize,
    /// Subtract resident jobs' declared threads from the per-round thread
    /// budget. `true` (the default) matches the paper's constraint that
    /// "the number of threads of **all concurrent jobs** must not exceed
    /// the number of hardware threads" — it keeps every device's declared
    /// thread sum within hardware, which is exactly why the paper calls
    /// COSMIC "not absolutely necessary" under MCCK. `false` applies the
    /// value-zero rule only to each round's newly packed set, deferring
    /// thread excess to COSMIC's run-time serialization (ablation).
    pub count_resident_threads: bool,
    /// Factor applied to the device thread budget when
    /// `count_resident_threads` is on. Declared thread counts are
    /// *per-offload maxima*, not sustained usage — "for many jobs,
    /// performance saturates at a lower level of parallelization" (paper
    /// footnote 1), and jobs spend their host phases using zero device
    /// threads. Budgeting declarations at face value strands capacity;
    /// a modest overcommit recovers it, and COSMIC serializes the rare
    /// transient excess. 1.0 = strict.
    pub thread_overcommit: f64,
    /// Planning implementation ([`PlannerMode::Fast`] by default;
    /// [`PlannerMode::NaiveSerial`] is the differential oracle).
    pub planner: PlannerMode,
}

impl Default for KnapsackConfig {
    fn default() -> Self {
        KnapsackConfig {
            value_fn: ValueFunction::PaperQuadratic,
            granularity_mb: 50,
            thread_limit: 240,
            variant: KnapsackVariant::TwoD,
            window: 256,
            count_resident_threads: true,
            thread_overcommit: 1.5,
            planner: PlannerMode::Fast,
        }
    }
}

impl KnapsackConfig {
    /// Reject settings the planner cannot run with: an empty candidate
    /// window, a zero memory granularity, a zero thread limit, or an
    /// overcommit factor that is not a positive finite number.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("knapsack window must be positive".into());
        }
        if self.granularity_mb == 0 {
            return Err("knapsack granularity_mb must be positive".into());
        }
        if self.thread_limit == 0 {
            return Err("knapsack thread_limit must be positive".into());
        }
        if !(self.thread_overcommit.is_finite() && self.thread_overcommit > 0.0) {
            return Err(format!(
                "knapsack thread_overcommit must be a positive finite number, got {}",
                self.thread_overcommit
            ));
        }
        Ok(())
    }
}

/// Entries the solve cache holds before it is wholesale cleared. The cache
/// is a pure memo (values never depend on cache state), so eviction is
/// always safe — this only bounds memory on pathological workloads.
const PLAN_CACHE_CAP: usize = 4096;

/// Minimum estimated DP cell updates across the cold instances of a cycle
/// before the speculative warm-up spawns worker threads; below this the
/// serial solves are cheaper than thread startup.
const PARALLEL_CELL_FLOOR: u64 = 2_000_000;

/// Content-addressed identity of one device solve. Two solves with equal
/// keys see byte-identical DP inputs — same capacity in memory units, same
/// raw thread budget (which fixes both the thread-unit dimension and the
/// per-item thread filter), and the same ordered sequence of effective
/// `(memory units, declared threads)` items (thread units and item values
/// both derive from declared threads; the scheduler's remaining knobs are
/// fixed per instance) — so the full DP, including its FIFO tie-breaks,
/// is determined. Keys are compared in full on lookup, never by hash
/// alone, so collisions cannot smuggle in a wrong packing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SolveKey {
    w_max: usize,
    thread_budget: u32,
    items: Vec<(usize, u32)>,
}

/// The paper's knapsack-based sharing-aware scheduler (Fig. 4).
#[derive(Debug)]
pub struct KnapsackScheduler {
    cfg: KnapsackConfig,
    /// Jobs pinned but not yet dispatched, with their destination node and
    /// declared envelope (so per-node free capacity can be adjusted).
    outstanding: BTreeMap<JobId, OutstandingPin>,
    /// Worker threads the speculative warm-up may use: the cores left
    /// beside the planning thread.
    warm_workers: usize,
    /// DP buffers reused across packing rounds (one knapsack per device per
    /// round; the table shapes repeat, so reuse eliminates the allocations).
    scratch: DpScratch,
    /// Memo of solved instances: [`SolveKey`] → selected positions into the
    /// prepped item list. Content-addressed, so it never goes stale: every
    /// invalidation event (dispatch, completion, fault reset, node churn)
    /// reaches the scheduler as an `on_dispatched`/`on_job_gone` call or a
    /// changed device view, both of which change the key of any affected
    /// solve rather than requiring an eviction.
    cache: HashMap<SolveKey, Vec<usize>>,
    /// Hit/miss counters for reports.
    stats: PlanStats,
}

#[derive(Debug, Clone, Copy)]
struct OutstandingPin {
    node: u32,
    device: u32,
    mem_mb: u64,
    threads: u32,
}

impl KnapsackScheduler {
    /// Create a scheduler with the given configuration.
    pub fn new(cfg: KnapsackConfig) -> Self {
        assert!(cfg.window > 0, "candidate window must be positive");
        assert!(cfg.granularity_mb > 0, "granularity must be positive");
        KnapsackScheduler {
            cfg,
            outstanding: BTreeMap::new(),
            warm_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .saturating_sub(1),
            scratch: DpScratch::default(),
            cache: HashMap::new(),
            stats: PlanStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KnapsackConfig {
        &self.cfg
    }

    /// Number of pins awaiting dispatch.
    pub fn outstanding_pins(&self) -> usize {
        self.outstanding.len()
    }

    /// Number of memoized solves currently held.
    pub fn plan_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Outstanding (memory, threads) already pinned to one device.
    fn outstanding_on_device(&self, node: u32, device: u32) -> (u64, u32) {
        self.outstanding
            .values()
            .filter(|p| p.node == node && p.device == device)
            .fold((0, 0), |(m, t), p| (m + p.mem_mb, t + p.threads))
    }

    /// The knapsack capacity for one device this round, net of outstanding
    /// pins; `None` when no memory is free. Shared by the naive path, the
    /// fast path and the speculative warm-up so all three see the same
    /// budget arithmetic.
    fn round_capacity(&self, device: &DeviceView) -> Option<Capacity> {
        let (out_mem, out_threads) = self.outstanding_on_device(device.node, device.device);
        let free = device.free_declared_mb.saturating_sub(out_mem);
        if free == 0 {
            return None;
        }
        let thread_budget = if self.cfg.count_resident_threads {
            let total = (self.cfg.thread_limit as f64 * self.cfg.thread_overcommit).round() as u32;
            total.saturating_sub(device.resident_threads + out_threads)
        } else {
            self.cfg.thread_limit
        };
        Some(Capacity {
            mem_mb: free,
            granularity_mb: self.cfg.granularity_mb,
            thread_limit: thread_budget,
            // Eq. (1) always normalizes by the hardware thread count, even
            // when the strict ablation shrinks the packing budget.
            value_ref_threads: self.cfg.thread_limit,
        })
    }

    /// FIFO window of candidates that are not already pinned elsewhere.
    fn window_candidates<'p>(&self, pending: &'p [PendingJob]) -> Vec<&'p PendingJob> {
        pending
            .iter()
            .filter(|j| !self.outstanding.contains_key(&j.id))
            .take(self.cfg.window)
            .collect()
    }

    fn pack_items(candidates: &[&PendingJob]) -> Vec<PackItem> {
        candidates
            .iter()
            .enumerate()
            .map(|(i, j)| PackItem {
                index: i,
                mem_mb: j.mem_mb,
                threads: j.threads,
            })
            .collect()
    }

    /// Record pins for the selected candidate positions and book them as
    /// outstanding.
    fn commit(
        &mut self,
        device: &DeviceView,
        candidates: &[&PendingJob],
        selected: &[usize],
    ) -> Vec<Pin> {
        selected
            .iter()
            .map(|&idx| {
                let job = candidates[idx];
                self.outstanding.insert(
                    job.id,
                    OutstandingPin {
                        node: device.node,
                        device: device.device,
                        mem_mb: job.mem_mb,
                        threads: job.threads,
                    },
                );
                Pin {
                    job: job.id,
                    node: device.node,
                    device: device.device,
                }
            })
            .collect()
    }

    /// Pack one device's knapsack from the pending jobs; returns the pins.
    /// This is the "create knapsack: capacity = free memory in D" step of
    /// Fig. 4, invoked per device initially and per completion thereafter.
    ///
    /// This is the **naive** (uncached, unprepped) solve — the differential
    /// oracle the fast path is measured and verified against.
    pub fn plan_device(&mut self, pending: &[PendingJob], device: &DeviceView) -> Vec<Pin> {
        let Some(cap) = self.round_capacity(device) else {
            return Vec::new();
        };
        let candidates = self.window_candidates(pending);
        if candidates.is_empty() {
            return Vec::new();
        }
        let items = Self::pack_items(&candidates);

        let packing = match self.cfg.variant {
            KnapsackVariant::TwoD => {
                solve_2d_with(&items, &cap, self.cfg.value_fn, &mut self.scratch)
            }
            KnapsackVariant::OneDFiltered => {
                solve_1d_filtered_with(&items, &cap, self.cfg.value_fn, &mut self.scratch)
            }
        };
        self.commit(device, &candidates, &packing.selected)
    }

    /// Fast-path analogue of [`KnapsackScheduler::plan_device`]: preprocess
    /// the instance, answer from the memo cache when possible, solve and
    /// memoize otherwise. Bit-identical to the naive path because the
    /// prepped solvers share their DP cores with the raw ones and the
    /// [`SolveKey`] captures every input the solve depends on.
    fn plan_device_fast(&mut self, pending: &[PendingJob], device: &DeviceView) -> Vec<Pin> {
        let Some(cap) = self.round_capacity(device) else {
            return Vec::new();
        };
        let candidates = self.window_candidates(pending);
        if candidates.is_empty() {
            return Vec::new();
        }
        let items = Self::pack_items(&candidates);
        let pre = match self.cfg.variant {
            KnapsackVariant::TwoD => prep_2d(&items, &cap),
            KnapsackVariant::OneDFiltered => prep_1d(&items, &cap),
        };
        if pre.items.is_empty() {
            // The raw solver would return an empty packing; skip the cache.
            return Vec::new();
        }
        let key = solve_key(&pre);
        let positions = if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            hit.clone()
        } else {
            self.stats.cache_misses += 1;
            let (positions, _) =
                solve_prepped(self.cfg.variant, self.cfg.value_fn, &pre, &mut self.scratch);
            self.insert_cached(key, positions.clone());
            positions
        };
        let selected: Vec<usize> = positions.iter().map(|&p| pre.items[p].pos).collect();
        self.commit(device, &candidates, &selected)
    }

    fn insert_cached(&mut self, key: SolveKey, positions: Vec<usize>) {
        if self.cache.len() >= PLAN_CACHE_CAP {
            // Pure memo: clearing can cost recomputation, never correctness.
            self.cache.clear();
        }
        self.cache.insert(key, positions);
    }

    /// Speculative parallel warm-up. Devices are *not* independent within a
    /// cycle — each device's pins shrink the candidate window of the ones
    /// after it — so parallel solves cannot replace the serial merge.
    /// Instead, every device's instance is prepped against the cycle-start
    /// snapshot (pending minus outstanding, a read-only view the workers
    /// never mutate), the distinct cold keys are solved concurrently with
    /// one `DpScratch` per worker, and the results are memoized. The serial
    /// merge then recomputes each device's true instance and looks it up:
    /// a correct speculation hits the cache, a wrong one (the key changed
    /// because an earlier device pinned jobs) falls back to a serial solve.
    /// Either way the pins are exactly the serial loop's — the cache only
    /// ever answers for a key it solved, wherever it was solved.
    fn warm_cache(&mut self, pending: &[PendingJob], order: &[&DeviceView]) {
        if order.len() < 2 || self.warm_workers < 2 {
            return;
        }
        let candidates = self.window_candidates(pending);
        if candidates.is_empty() {
            return;
        }
        let items = Self::pack_items(&candidates);
        let mut seen: HashSet<SolveKey> = HashSet::new();
        let mut tasks: Vec<(SolveKey, Prepped)> = Vec::new();
        let mut est_cells: u64 = 0;
        for device in order {
            let Some(cap) = self.round_capacity(device) else {
                continue;
            };
            let pre = match self.cfg.variant {
                KnapsackVariant::TwoD => prep_2d(&items, &cap),
                KnapsackVariant::OneDFiltered => prep_1d(&items, &cap),
            };
            if pre.items.is_empty() {
                continue;
            }
            let key = solve_key(&pre);
            if self.cache.contains_key(&key) || !seen.insert(key.clone()) {
                continue;
            }
            est_cells += solve_cells(self.cfg.variant, &pre);
            tasks.push((key, pre));
        }
        if tasks.len() < 2 || est_cells < PARALLEL_CELL_FLOOR {
            return;
        }
        let workers = self.warm_workers.min(tasks.len());

        // sweep.rs's (index, result) channel pattern: scoped workers drain a
        // task channel, results reassemble by index.
        let variant = self.cfg.variant;
        let value_fn = self.cfg.value_fn;
        let (task_tx, task_rx) = crossbeam::channel::unbounded::<(usize, &Prepped)>();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, Vec<usize>)>();
        for (i, (_, pre)) in tasks.iter().enumerate() {
            let _ = task_tx.send((i, pre));
        }
        drop(task_tx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let task_rx = task_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut scratch = DpScratch::default();
                    while let Ok((i, pre)) = task_rx.recv() {
                        let (positions, _) = solve_prepped(variant, value_fn, pre, &mut scratch);
                        let _ = res_tx.send((i, positions));
                    }
                });
            }
        });
        drop(res_tx);
        let mut solved: Vec<Option<Vec<usize>>> = (0..tasks.len()).map(|_| None).collect();
        while let Ok((i, positions)) = res_rx.recv() {
            solved[i] = Some(positions);
        }
        for ((key, _), positions) in tasks.into_iter().zip(solved) {
            if let Some(positions) = positions {
                self.insert_cached(key, positions);
            }
        }
    }
}

fn solve_key(pre: &Prepped) -> SolveKey {
    SolveKey {
        w_max: pre.w_max,
        thread_budget: pre.thread_limit,
        items: pre.items.iter().map(|it| (it.w, it.threads)).collect(),
    }
}

fn solve_prepped(
    variant: KnapsackVariant,
    value_fn: ValueFunction,
    pre: &Prepped,
    scratch: &mut DpScratch,
) -> (Vec<usize>, f64) {
    match variant {
        KnapsackVariant::TwoD => solve_prepped_2d_with(pre, value_fn, scratch),
        KnapsackVariant::OneDFiltered => solve_prepped_1d_with(pre, value_fn, scratch),
    }
}

/// Estimated DP cell updates for one prepped solve (the warm-up's
/// is-it-worth-spawning-threads heuristic).
fn solve_cells(variant: KnapsackVariant, pre: &Prepped) -> u64 {
    let dims = match variant {
        KnapsackVariant::TwoD => (pre.w_max as u64 + 1) * (pre.t_max as u64 + 1),
        KnapsackVariant::OneDFiltered => pre.w_max as u64 + 1,
    };
    pre.items.len() as u64 * dims
}

impl ClusterScheduler for KnapsackScheduler {
    fn plan(&mut self, pending: &[PendingJob], devices: &[DeviceView]) -> Vec<Pin> {
        // Greedy at the cluster level: fill one knapsack after another
        // (Fig. 4). Devices with more free memory are packed first so the
        // fullest knapsacks get the pick of the queue.
        let mut order: Vec<&DeviceView> = devices.iter().collect();
        order.sort_by(|a, b| {
            b.free_declared_mb
                .cmp(&a.free_declared_mb)
                .then(a.node.cmp(&b.node))
                .then(a.device.cmp(&b.device))
        });
        if self.cfg.planner == PlannerMode::Fast {
            self.warm_cache(pending, &order);
        }
        let mut pins = Vec::new();
        for device in order {
            let device_pins = match self.cfg.planner {
                PlannerMode::Fast => self.plan_device_fast(pending, device),
                PlannerMode::NaiveSerial => self.plan_device(pending, device),
            };
            pins.extend(device_pins);
        }
        pins
    }

    fn on_dispatched(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn on_job_gone(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn name(&self) -> &'static str {
        "knapsack"
    }

    fn plan_stats(&self) -> PlanStats {
        self.stats
    }
}

/// The MCC baseline: arbitrary (random) job selection at the cluster level,
/// constrained only by declared-memory fit; COSMIC cleans up the rest at the
/// node level (§V: "jobs are packed arbitrarily to Xeon Phi coprocessors").
#[derive(Debug)]
pub struct RandomScheduler {
    rng: DetRng,
    outstanding: BTreeMap<JobId, (u32, u32, u64)>, // node, device, declared memory
}

impl RandomScheduler {
    /// Create the random scheduler with its own RNG substream.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: DetRng::substream(seed, "mcc-random-scheduler"),
            outstanding: BTreeMap::new(),
        }
    }

    fn outstanding_on_device(&self, node: u32, device: u32) -> u64 {
        self.outstanding
            .values()
            .filter(|(n, d, _)| *n == node && *d == device)
            .map(|(_, _, mem)| mem)
            .sum()
    }
}

impl ClusterScheduler for RandomScheduler {
    fn plan(&mut self, pending: &[PendingJob], devices: &[DeviceView]) -> Vec<Pin> {
        // Remaining free capacity per device, net of outstanding pins.
        let mut free: Vec<(u32, u32, u64)> = devices
            .iter()
            .map(|d| {
                (
                    d.node,
                    d.device,
                    d.free_declared_mb
                        .saturating_sub(self.outstanding_on_device(d.node, d.device)),
                )
            })
            .collect();

        // Visit pending jobs in random order, placing each on a random
        // device with room.
        let mut order: Vec<usize> = (0..pending.len()).collect();
        self.rng.shuffle(&mut order);
        let mut pins = Vec::new();
        for idx in order {
            let job = &pending[idx];
            if self.outstanding.contains_key(&job.id) {
                continue;
            }
            let fits: Vec<usize> = free
                .iter()
                .enumerate()
                .filter(|(_, (_, _, f))| *f >= job.mem_mb)
                .map(|(i, _)| i)
                .collect();
            if fits.is_empty() {
                continue;
            }
            let pick = *self.rng.choose(&fits);
            free[pick].2 -= job.mem_mb;
            let (node, device, _) = free[pick];
            self.outstanding.insert(job.id, (node, device, job.mem_mb));
            pins.push(Pin {
                job: job.id,
                node,
                device,
            });
        }
        pins
    }

    fn on_dispatched(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn on_job_gone(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// A clairvoyant comparator that *does* know job execution times — the
/// information the paper explicitly refuses to assume (§IV-B). It packs
/// longest-processing-time-first (LPT) into each device round, subject to
/// the same memory and thread budgets as MCCK. Comparing MCCK against this
/// upper-bound heuristic quantifies the cost of scheduling blind.
#[derive(Debug)]
pub struct ClairvoyantLpt {
    cfg: KnapsackConfig,
    outstanding: BTreeMap<JobId, OutstandingPin>,
}

impl ClairvoyantLpt {
    /// Create the clairvoyant scheduler (shares MCCK's budget config).
    pub fn new(cfg: KnapsackConfig) -> Self {
        ClairvoyantLpt {
            cfg,
            outstanding: BTreeMap::new(),
        }
    }

    fn outstanding_on_device(&self, node: u32, device: u32) -> (u64, u32) {
        self.outstanding
            .values()
            .filter(|p| p.node == node && p.device == device)
            .fold((0, 0), |(m, t), p| (m + p.mem_mb, t + p.threads))
    }

    /// Greedy LPT packing of one device round.
    pub fn plan_device(&mut self, pending: &[PendingJob], device: &DeviceView) -> Vec<Pin> {
        let (out_mem, out_threads) = self.outstanding_on_device(device.node, device.device);
        let mut free = device.free_declared_mb.saturating_sub(out_mem);
        if free == 0 {
            return Vec::new();
        }
        let total = (self.cfg.thread_limit as f64 * self.cfg.thread_overcommit).round() as u32;
        let mut threads_left = if self.cfg.count_resident_threads {
            total.saturating_sub(device.resident_threads + out_threads)
        } else {
            self.cfg.thread_limit
        };

        let mut candidates: Vec<&PendingJob> = pending
            .iter()
            .filter(|j| !self.outstanding.contains_key(&j.id))
            .take(self.cfg.window)
            .collect();
        candidates.sort_by(|a, b| {
            b.nominal_secs
                .partial_cmp(&a.nominal_secs)
                .expect("finite durations")
                .then(a.id.cmp(&b.id))
        });

        let mut pins = Vec::new();
        for job in candidates {
            if job.mem_mb <= free && job.threads <= threads_left {
                free -= job.mem_mb;
                threads_left -= job.threads;
                self.outstanding.insert(
                    job.id,
                    OutstandingPin {
                        node: device.node,
                        device: device.device,
                        mem_mb: job.mem_mb,
                        threads: job.threads,
                    },
                );
                pins.push(Pin {
                    job: job.id,
                    node: device.node,
                    device: device.device,
                });
            }
        }
        pins
    }
}

impl ClusterScheduler for ClairvoyantLpt {
    fn plan(&mut self, pending: &[PendingJob], devices: &[DeviceView]) -> Vec<Pin> {
        let mut order: Vec<&DeviceView> = devices.iter().collect();
        order.sort_by(|a, b| {
            b.free_declared_mb
                .cmp(&a.free_declared_mb)
                .then(a.node.cmp(&b.node))
                .then(a.device.cmp(&b.device))
        });
        let mut pins = Vec::new();
        for device in order {
            pins.extend(self.plan_device(pending, device));
        }
        pins
    }

    fn on_dispatched(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn on_job_gone(&mut self, job: JobId) {
        self.outstanding.remove(&job);
    }

    fn name(&self) -> &'static str {
        "clairvoyant-lpt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, mem_mb: u64, threads: u32) -> PendingJob {
        PendingJob {
            id: JobId(id),
            mem_mb,
            threads,
            nominal_secs: 30.0,
        }
    }

    fn timed_job(id: u64, mem_mb: u64, threads: u32, nominal_secs: f64) -> PendingJob {
        PendingJob {
            id: JobId(id),
            mem_mb,
            threads,
            nominal_secs,
        }
    }

    fn dev(node: u32, free: u64) -> DeviceView {
        DeviceView {
            node,
            device: 0,
            free_declared_mb: free,
            resident_threads: 0,
        }
    }

    #[test]
    fn knapsack_packs_for_concurrency() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        let pending = vec![
            job(0, 4000, 240),
            job(1, 2000, 80),
            job(2, 2000, 80),
            job(3, 3000, 80),
        ];
        let pins = s.plan(&pending, &[dev(1, 7680)]);
        let pinned: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        assert_eq!(pinned, vec![1, 2, 3]);
        assert!(pins.iter().all(|p| p.node == 1));
    }

    #[test]
    fn no_job_is_pinned_twice_across_devices() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        let pending: Vec<PendingJob> = (0..6).map(|i| job(i, 3000, 60)).collect();
        let pins = s.plan(&pending, &[dev(1, 7680), dev(2, 7680)]);
        let mut ids: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pins.len());
        // 2 jobs of 3000 MB per 7680 MB device → 4 total.
        assert_eq!(pins.len(), 4);
        assert_eq!(s.outstanding_pins(), 4);
    }

    #[test]
    fn outstanding_pins_shrink_capacity_until_dispatch() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        let pending = vec![job(0, 4000, 60)];
        let pins = s.plan(&pending, &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Same device view (dispatch hasn't happened): a second 4000 MB job
        // must NOT be placed — only 3680 MB is really free.
        let pending2 = vec![job(0, 4000, 60), job(1, 4000, 60)];
        let pins2 = s.plan(&pending2, &[dev(1, 7680)]);
        assert!(pins2.is_empty(), "overcommitted: {pins2:?}");
        // After dispatch the view itself accounts for job 0.
        s.on_dispatched(JobId(0));
        let pins3 = s.plan(&[job(1, 4000, 60)], &[dev(1, 3680)]);
        assert!(pins3.is_empty()); // 4000 > 3680
        let pins4 = s.plan(&[job(1, 3000, 60)], &[dev(1, 3680)]);
        assert_eq!(pins4.len(), 1);
    }

    #[test]
    fn fullest_devices_pack_first() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        let pending = vec![job(0, 5000, 60)];
        let pins = s.plan(&pending, &[dev(1, 2000), dev(2, 7680)]);
        assert_eq!(
            pins,
            vec![Pin {
                job: JobId(0),
                node: 2,
                device: 0
            }]
        );
    }

    #[test]
    fn window_bounds_candidates() {
        let cfg = KnapsackConfig {
            window: 2,
            ..KnapsackConfig::default()
        };
        let mut s = KnapsackScheduler::new(cfg);
        // Jobs beyond the window are invisible even though they'd fit.
        let pending: Vec<PendingJob> = (0..10).map(|i| job(i, 100, 4)).collect();
        let pins = s.plan_device(&pending, &dev(1, 7680));
        assert_eq!(pins.len(), 2);
    }

    #[test]
    fn strict_mode_respects_resident_threads() {
        let cfg = KnapsackConfig {
            thread_overcommit: 1.0,
            ..KnapsackConfig::default()
        };
        let mut s = KnapsackScheduler::new(cfg);
        let view = DeviceView {
            node: 1,
            device: 0,
            free_declared_mb: 7000,
            resident_threads: 200,
        };
        // Only 40 threads of budget remain: the 60-thread job is refused,
        // a 40-thread job packs.
        assert!(s.plan_device(&[job(0, 1000, 60)], &view).is_empty());
        assert_eq!(s.plan_device(&[job(1, 1000, 40)], &view).len(), 1);
    }

    #[test]
    fn lax_mode_ignores_resident_threads() {
        let cfg = KnapsackConfig {
            count_resident_threads: false,
            ..KnapsackConfig::default()
        };
        let mut s = KnapsackScheduler::new(cfg);
        let view = DeviceView {
            node: 1,
            device: 0,
            free_declared_mb: 7000,
            resident_threads: 240,
        };
        // Ablation behaviour: freed memory is repacked regardless of
        // resident threads; COSMIC serializes at run time.
        assert_eq!(s.plan_device(&[job(0, 1000, 240)], &view).len(), 1);
    }

    #[test]
    fn job_gone_releases_outstanding_capacity() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        s.plan(&[job(0, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(s.outstanding_pins(), 1);
        s.on_job_gone(JobId(0));
        let pins = s.plan(&[job(1, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
    }

    #[test]
    fn random_scheduler_respects_memory() {
        let mut s = RandomScheduler::new(42);
        let pending: Vec<PendingJob> = (0..20).map(|i| job(i, 3000, 240)).collect();
        let pins = s.plan(&pending, &[dev(1, 7680), dev(2, 7680)]);
        // 2 jobs of 3000 MB fit per device.
        assert_eq!(pins.len(), 4);
        for node in [1, 2] {
            let mem: u64 = pins.iter().filter(|p| p.node == node).map(|_| 3000).sum();
            assert!(mem <= 7680);
        }
    }

    #[test]
    fn random_scheduler_is_seed_deterministic_but_random() {
        let pending: Vec<PendingJob> = (0..30).map(|i| job(i, 2000, 120)).collect();
        let devs = [dev(1, 7680), dev(2, 7680)];
        let a = RandomScheduler::new(1).plan(&pending, &devs);
        let b = RandomScheduler::new(1).plan(&pending, &devs);
        assert_eq!(a, b);
        let c = RandomScheduler::new(2).plan(&pending, &devs);
        assert_ne!(a, c, "different seeds should pick different jobs");
    }

    #[test]
    fn clairvoyant_prefers_longest_jobs() {
        let mut s = ClairvoyantLpt::new(KnapsackConfig::default());
        let pending = vec![
            timed_job(0, 3000, 60, 10.0),
            timed_job(1, 3000, 60, 50.0),
            timed_job(2, 3000, 60, 30.0),
        ];
        // Only two fit in memory: the two longest are chosen.
        let pins = s.plan(&pending, &[dev(1, 7000)]);
        let ids: Vec<u64> = pins.iter().map(|p| p.job.raw()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn clairvoyant_respects_budgets_and_outstanding() {
        let mut s = ClairvoyantLpt::new(KnapsackConfig::default());
        let pins = s.plan(&[timed_job(0, 7000, 240, 9.0)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Capacity is spoken for until dispatch.
        let pins2 = s.plan(
            &[timed_job(0, 7000, 240, 9.0), timed_job(1, 7000, 60, 99.0)],
            &[dev(1, 7680)],
        );
        assert!(pins2.is_empty());
        s.on_dispatched(JobId(0));
        assert_eq!(s.name(), "clairvoyant-lpt");
    }

    #[test]
    fn identical_devices_and_recurring_states_hit_the_plan_cache() {
        let mut s = KnapsackScheduler::new(KnapsackConfig::default());
        // Duplication-heavy queue: all candidates share one class, so after
        // multiplicity truncation every fresh device solves the *same*
        // 3-copy instance (⌊153 units / 40 units⌋ = 3 by memory).
        let pending: Vec<PendingJob> = (0..40).map(|i| job(i, 2000, 60)).collect();
        let devs = [dev(1, 7680), dev(2, 7680), dev(3, 7680), dev(4, 7680)];
        let pins = s.plan(&pending, &devs);
        assert_eq!(pins.len(), 12, "3 jobs per device");
        assert_eq!(s.plan_stats().cache_misses, 1, "one DP serves all devices");
        assert_eq!(s.plan_stats().cache_hits, 3);

        // Unchanged state: anything that fit was already packed, so the
        // next cycle's instances prep to empty and cost no DP at all.
        let again = s.plan(&pending, &devs);
        assert!(again.is_empty(), "outstanding pins must not re-pin");
        assert_eq!(s.plan_stats().cache_misses, 1);

        // Dispatch everything and let it "complete": the views return to
        // their initial state, the shrunken queue preps to the same 3-copy
        // instance, and the whole cycle is answered from cache.
        for pin in &pins {
            s.on_dispatched(pin.job);
        }
        let remaining: Vec<PendingJob> = pending
            .iter()
            .filter(|j| !pins.iter().any(|p| p.job == j.id))
            .copied()
            .collect();
        let pins2 = s.plan(&remaining, &devs);
        assert_eq!(pins2.len(), 12);
        assert_eq!(s.plan_stats().cache_misses, 1, "recurring state re-solved");
        assert_eq!(s.plan_stats().cache_hits, 3 + 4);
        assert_eq!(s.plan_cache_len(), 1);
    }

    #[test]
    fn fast_and_naive_planners_agree_across_a_scripted_run() {
        // A deterministic multi-cycle script: plan, dispatch some pins,
        // lose some jobs, shrink/grow device views. Both planners must
        // produce identical pins at every step.
        let naive_cfg = KnapsackConfig {
            planner: PlannerMode::NaiveSerial,
            ..KnapsackConfig::default()
        };
        let mut fast = KnapsackScheduler::new(KnapsackConfig::default());
        let mut naive = KnapsackScheduler::new(naive_cfg);
        let mut pending: Vec<PendingJob> = (0..60)
            .map(|i| job(i, 500 + 250 * (i % 12), 20 + 20 * (i % 6) as u32))
            .collect();
        let mut devs = vec![dev(1, 7680), dev(2, 7680), dev(3, 5000), dev(4, 2000)];
        for cycle in 0..12u64 {
            let p_fast = fast.plan(&pending, &devs);
            let p_naive = naive.plan(&pending, &devs);
            assert_eq!(p_fast, p_naive, "cycle {cycle} diverged");
            // Dispatch every other pin; the rest stay outstanding.
            for (i, pin) in p_fast.iter().enumerate() {
                if i % 2 == 0 {
                    fast.on_dispatched(pin.job);
                    naive.on_dispatched(pin.job);
                    let d = devs
                        .iter_mut()
                        .find(|d| d.node == pin.node && d.device == pin.device)
                        .unwrap();
                    let spec = pending.iter().find(|j| j.id == pin.job).unwrap();
                    d.free_declared_mb = d.free_declared_mb.saturating_sub(spec.mem_mb);
                    d.resident_threads += spec.threads;
                    let id = pin.job;
                    pending.retain(|j| j.id != id);
                }
            }
            // Device-reset-style churn: every third cycle one device's
            // capacity snaps back and a pinned job vanishes.
            if cycle % 3 == 2 {
                let reset_at = (cycle as usize / 3) % devs.len();
                devs[reset_at].free_declared_mb = 7680;
                if let Some(pin) = p_fast.get(1) {
                    fast.on_job_gone(pin.job);
                    naive.on_job_gone(pin.job);
                    let id = pin.job;
                    pending.retain(|j| j.id != id);
                }
            }
        }
        assert_eq!(fast.outstanding_pins(), naive.outstanding_pins());
    }

    #[test]
    fn one_d_variant_fast_path_matches_naive() {
        let base = KnapsackConfig {
            variant: KnapsackVariant::OneDFiltered,
            ..KnapsackConfig::default()
        };
        let mut fast = KnapsackScheduler::new(base);
        let mut naive = KnapsackScheduler::new(KnapsackConfig {
            planner: PlannerMode::NaiveSerial,
            ..base
        });
        let pending: Vec<PendingJob> = (0..30)
            .map(|i| job(i, 400 + 300 * (i % 7), 40 * (1 + (i % 5) as u32)))
            .collect();
        let devs = [dev(1, 7680), dev(2, 4000)];
        assert_eq!(fast.plan(&pending, &devs), naive.plan(&pending, &devs));
    }

    #[test]
    fn random_scheduler_tracks_outstanding() {
        let mut s = RandomScheduler::new(3);
        let pins = s.plan(&[job(0, 7000, 60)], &[dev(1, 7680)]);
        assert_eq!(pins.len(), 1);
        // Without dispatch, capacity is spoken for.
        let pins2 = s.plan(&[job(0, 7000, 60), job(1, 7000, 60)], &[dev(1, 7680)]);
        assert!(pins2.is_empty());
    }
}
