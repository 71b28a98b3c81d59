//! The map-backed device substrate, retained as a differential oracle.
//!
//! [`KeyedPhiDevice`] is the seed's `BTreeMap`-keyed implementation of the
//! device model, preserved verbatim when the production
//! [`PhiDevice`](crate::PhiDevice) moved to generation-stamped slab storage.
//! It exists so the substrate fast path can never drift silently: the
//! cluster runtime compiles against both (`SubstrateMode::Keyed`), and the
//! differential proptests assert bit-identical `ExperimentResult`s and
//! traces between them — the same discipline as the per-offload event
//! oracle (`EventMode::PerOffload`) and the naive serial planner.
//!
//! Do not optimize this module. Its cost model *is* the keyed-substrate
//! floor the `perf_e2e` bench gate measures against.

use crate::alloc::CoreSet;
use crate::config::PhiConfig;
use crate::device::{Affinity, CommitOutcome, DeviceError, DeviceUtilization, WORK_EPSILON};
use crate::perf::PerfModel;
use crate::proc::{ProcId, Resident};
use phishare_sim::{Counter, DetRng, SimDuration, SimTime, TimeWeighted};
use std::collections::BTreeMap;

/// One active (currently executing) offload.
#[derive(Debug, Clone)]
struct ActiveOffload {
    threads: u32,
    /// Nominal work remaining, in ticks at rate 1.
    remaining: f64,
    /// Current execution rate (nominal ticks per wall tick).
    rate: f64,
    affinity: Affinity,
}

/// The seed's map-backed simulated Xeon Phi card (differential oracle).
///
/// Keyed by [`ProcId`] throughout: every operation pays a `BTreeMap`
/// lookup. See the module docs for why this is kept.
#[derive(Debug)]
pub struct KeyedPhiDevice {
    cfg: PhiConfig,
    perf: PerfModel,
    procs: BTreeMap<ProcId, Resident>,
    active: BTreeMap<ProcId, ActiveOffload>,
    created: SimTime,
    last_update: SimTime,
    generation: u64,
    /// Environmental rate multiplier (thermal derate); `1.0` = nominal.
    rate_scale: f64,
    busy_threads: TimeWeighted,
    busy_cores: TimeWeighted,
    committed: TimeWeighted,
    busy_any: TimeWeighted,
    /// Processes killed by the OOM killer over the device's lifetime.
    pub oom_kills: Counter,
    /// Offloads that ran to completion.
    pub offloads_completed: Counter,
}

impl KeyedPhiDevice {
    /// Create a device at simulation time `start`.
    pub fn new(cfg: PhiConfig, perf: PerfModel, start: SimTime) -> Self {
        cfg.validate().expect("invalid device configuration");
        KeyedPhiDevice {
            cfg,
            perf,
            procs: BTreeMap::new(),
            active: BTreeMap::new(),
            created: start,
            last_update: start,
            generation: 0,
            rate_scale: 1.0,
            busy_threads: TimeWeighted::new(start),
            busy_cores: TimeWeighted::new(start),
            committed: TimeWeighted::new(start),
            busy_any: TimeWeighted::new(start),
            oom_kills: Counter::new(),
            offloads_completed: Counter::new(),
        }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &PhiConfig {
        &self.cfg
    }

    /// Monotone counter bumped whenever execution rates may have changed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Thermal derate: multiply every execution rate by `scale` from `now`
    /// on, bumping the generation. Mirrors `PhiDevice::set_rate_scale`
    /// (same IEEE operations, so timelines stay bit-identical).
    pub fn set_rate_scale(&mut self, now: SimTime, scale: f64) {
        debug_assert!(scale.is_finite() && scale > 0.0 && scale <= 1.0);
        self.rate_scale = scale;
        self.reschedule(now);
    }

    /// Attach a COI process with its declared envelope and an initial memory
    /// commit.
    pub fn attach(
        &mut self,
        now: SimTime,
        proc: ProcId,
        declared_mem_mb: u64,
        declared_threads: u32,
        initial_commit_mb: u64,
        rng: &mut DetRng,
    ) -> Result<CommitOutcome, DeviceError> {
        if self.procs.contains_key(&proc) {
            return Err(DeviceError::AlreadyResident(proc));
        }
        self.procs.insert(
            proc,
            Resident {
                declared_mem_mb,
                declared_threads,
                committed_mem_mb: 0,
            },
        );
        let outcome = self.commit_memory(now, proc, initial_commit_mb, rng);
        // Residency changed either way (attach, possibly minus OOM
        // victims): rates must be refreshed even when the commit fit.
        self.reschedule(now);
        outcome
    }

    /// Detach a process, freeing its memory and aborting any active offload.
    pub fn detach(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        if !self.procs.contains_key(&proc) {
            return Err(DeviceError::NotResident(proc));
        }
        self.active.remove(&proc);
        self.procs.remove(&proc);
        self.reschedule(now);
        Ok(())
    }

    /// Set a process's committed memory to `total_mb`, running the OOM
    /// killer when physical memory oversubscribes.
    pub fn commit_memory(
        &mut self,
        now: SimTime,
        proc: ProcId,
        total_mb: u64,
        rng: &mut DetRng,
    ) -> Result<CommitOutcome, DeviceError> {
        {
            let r = self
                .procs
                .get_mut(&proc)
                .ok_or(DeviceError::NotResident(proc))?;
            r.committed_mem_mb = total_mb;
        }
        let mut killed = Vec::new();
        while self.committed_total_mb() > self.cfg.usable_mem_mb() {
            let n = self.procs.len();
            debug_assert!(n > 0);
            // Uniform victim without materializing the id list (draws the
            // same index stream `choose` over a collected Vec would).
            let victim = self
                .resident_ids_iter()
                .nth(rng.index(n))
                .expect("resident set is non-empty");
            self.active.remove(&victim);
            self.procs.remove(&victim);
            self.oom_kills.incr();
            killed.push(victim);
        }
        if killed.is_empty() {
            // In-bounds commit: no rate change, no generation bump (see the
            // fast substrate's `commit_memory` for the full contract).
            self.advance_to(now);
            self.record_utilization(now);
            Ok(CommitOutcome::Fits)
        } else {
            self.reschedule(now);
            Ok(CommitOutcome::OomKilled(killed))
        }
    }

    /// Begin executing an offload.
    pub fn start_offload(
        &mut self,
        now: SimTime,
        proc: ProcId,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) -> Result<(), DeviceError> {
        if !self.procs.contains_key(&proc) {
            return Err(DeviceError::NotResident(proc));
        }
        if self.active.contains_key(&proc) {
            return Err(DeviceError::OffloadInProgress(proc));
        }
        if let Affinity::Pinned(set) = affinity {
            for off in self.active.values() {
                if let Affinity::Pinned(existing) = off.affinity {
                    if !set.is_disjoint(existing) {
                        return Err(DeviceError::CoreOverlap(proc));
                    }
                }
            }
        }
        self.active.insert(
            proc,
            ActiveOffload {
                threads,
                remaining: work.ticks() as f64,
                rate: 1.0,
                affinity,
            },
        );
        self.reschedule(now);
        Ok(())
    }

    /// Complete an offload whose completion event just fired.
    pub fn finish_offload(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        self.advance_to(now);
        let off = self
            .active
            .get(&proc)
            .ok_or(DeviceError::NoActiveOffload(proc))?;
        debug_assert!(
            off.remaining <= off.rate + WORK_EPSILON,
            "finish_offload fired with {:.3} nominal ticks left (rate {:.4}): stale event?",
            off.remaining,
            off.rate
        );
        self.active.remove(&proc);
        self.offloads_completed.incr();
        self.reschedule(now);
        Ok(())
    }

    /// Abort an active offload.
    pub fn abort_offload(&mut self, now: SimTime, proc: ProcId) -> Result<(), DeviceError> {
        if self.active.remove(&proc).is_none() {
            return Err(DeviceError::NoActiveOffload(proc));
        }
        self.reschedule(now);
        Ok(())
    }

    /// MPSS crash/restart: tear everything down, keep history.
    pub fn reset(&mut self, now: SimTime) {
        self.active.clear();
        self.procs.clear();
        self.reschedule(now);
    }

    /// Predicted completion instants for all active offloads (allocates;
    /// this is the seed's per-offload scheduling API).
    pub fn completions(&self) -> Vec<(ProcId, SimTime)> {
        self.active
            .iter()
            .map(|(proc, off)| {
                let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
                (*proc, self.last_update + SimDuration::from_ticks(dt))
            })
            .collect()
    }

    /// The earliest predicted completion; ties go to the lowest [`ProcId`].
    pub fn next_completion(&self) -> Option<(ProcId, SimTime)> {
        let mut best: Option<(ProcId, SimTime)> = None;
        for (proc, off) in &self.active {
            let dt = (off.remaining / off.rate).ceil().max(0.0) as u64;
            let at = self.last_update + SimDuration::from_ticks(dt);
            if best.map(|(_, b)| at < b).unwrap_or(true) {
                best = Some((*proc, at));
            }
        }
        best
    }

    /// Integrate execution progress up to `now` and refresh all rates,
    /// bumping the generation.
    fn reschedule(&mut self, now: SimTime) {
        self.advance_to(now);
        let n_active = self.active.len();
        let n_resident = self.procs.len();
        let active_threads = self.active_threads();
        let hw = self.cfg.hw_threads();
        let perf = self.perf;
        perf.reshare_rates(
            n_active,
            n_resident,
            active_threads,
            hw,
            self.active
                .values_mut()
                .map(|off| (matches!(off.affinity, Affinity::Pinned(_)), &mut off.rate)),
        );
        if self.rate_scale != 1.0 {
            for off in self.active.values_mut() {
                off.rate *= self.rate_scale;
            }
        }
        self.generation += 1;
        self.record_utilization(now);
    }

    /// Integrate remaining work at current rates from `last_update` to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            for off in self.active.values_mut() {
                off.remaining = (off.remaining - off.rate * dt).max(0.0);
            }
            self.last_update = now;
        }
    }

    fn record_utilization(&mut self, now: SimTime) {
        let hw = self.cfg.hw_threads();
        let threads = self.active_threads().min(hw) as f64;
        if threads != self.busy_threads.value() {
            self.busy_threads.set(now, threads);
        }
        let cores = self.busy_core_estimate() as f64;
        if cores != self.busy_cores.value() {
            self.busy_cores.set(now, cores);
        }
        let committed = self.committed_total_mb() as f64;
        if committed != self.committed.value() {
            self.committed.set(now, committed);
        }
        let busy = if self.active.is_empty() { 0.0 } else { 1.0 };
        if busy != self.busy_any.value() {
            self.busy_any.set(now, busy);
        }
    }

    fn busy_core_estimate(&self) -> u32 {
        let mut pinned_union = CoreSet::EMPTY;
        let mut unmanaged_cores = 0u32;
        for off in self.active.values() {
            match off.affinity {
                Affinity::Pinned(set) => pinned_union = pinned_union.union(set),
                Affinity::Unmanaged => {
                    unmanaged_cores += self.cfg.cores_for_threads(off.threads);
                }
            }
        }
        (pinned_union.count() + unmanaged_cores).min(self.cfg.cores)
    }

    /// Number of resident COI processes.
    pub fn resident_count(&self) -> usize {
        self.procs.len()
    }

    /// True when `proc` is resident.
    pub fn is_resident(&self, proc: ProcId) -> bool {
        self.procs.contains_key(&proc)
    }

    /// True when `proc` has an active offload.
    pub fn has_active_offload(&self, proc: ProcId) -> bool {
        self.active.contains_key(&proc)
    }

    /// Resident process ids in ascending order, without allocating.
    pub fn resident_ids_iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.procs.keys().copied()
    }

    /// Sum of declared memory over resident processes (MB).
    pub fn declared_total_mb(&self) -> u64 {
        self.procs.values().map(|r| r.declared_mem_mb).sum()
    }

    /// Declared memory still unbudgeted (MB).
    pub fn free_declared_mb(&self) -> u64 {
        self.cfg
            .usable_mem_mb()
            .saturating_sub(self.declared_total_mb())
    }

    /// Sum of committed memory over resident processes (MB).
    pub fn committed_total_mb(&self) -> u64 {
        self.procs.values().map(|r| r.committed_mem_mb).sum()
    }

    /// Sum of declared threads over resident processes.
    pub fn declared_threads(&self) -> u32 {
        self.procs.values().map(|r| r.declared_threads).sum()
    }

    /// Thread sum over *active* offloads.
    pub fn active_threads(&self) -> u32 {
        self.active.values().map(|o| o.threads).sum()
    }

    /// Number of active offloads.
    pub fn active_offloads(&self) -> usize {
        self.active.len()
    }

    /// Energy consumed by the card from creation through `end`, in joules.
    pub fn energy_joules(&self, end: SimTime) -> f64 {
        let elapsed = end.since(self.created).as_secs_f64();
        let busy_core_seconds = self.busy_cores.integral(end);
        self.cfg.idle_watts * elapsed
            + (self.cfg.max_watts - self.cfg.idle_watts) * busy_core_seconds / self.cfg.cores as f64
    }

    /// Time-integrated utilization from device creation through `end`.
    pub fn utilization(&self, end: SimTime) -> DeviceUtilization {
        let hw = self.cfg.hw_threads() as f64;
        let cores = self.cfg.cores as f64;
        let mem = self.cfg.usable_mem_mb() as f64;
        DeviceUtilization {
            thread_util: self.busy_threads.time_average(end) / hw,
            core_util: self.busy_cores.time_average(end) / cores,
            mem_util: self.committed.time_average(end) / mem,
            busy_fraction: self.busy_any.time_average(end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_device_basic_lifecycle() {
        let mut d = KeyedPhiDevice::new(PhiConfig::default(), PerfModel::default(), SimTime::ZERO);
        let mut r = DetRng::from_seed(1);
        let t0 = SimTime::ZERO;
        assert_eq!(
            d.attach(t0, ProcId(1), 1000, 120, 400, &mut r).unwrap(),
            CommitOutcome::Fits
        );
        d.start_offload(
            t0,
            ProcId(1),
            120,
            SimDuration::from_secs(10),
            Affinity::Unmanaged,
        )
        .unwrap();
        assert_eq!(d.next_completion().unwrap().0, ProcId(1));
        d.finish_offload(SimTime::from_secs(10), ProcId(1)).unwrap();
        d.detach(SimTime::from_secs(10), ProcId(1)).unwrap();
        assert_eq!(d.resident_count(), 0);
        assert_eq!(d.offloads_completed.get(), 1);
    }
}
