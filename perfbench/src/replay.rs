//! Trace-driven replays: one traced run's lifecycle trace, fed back through
//! each layer's public functions, so every layer sees the inputs the real
//! run gave it and its calls can be timed from outside the program.
//!
//! * negotiator: `Startd`/`attrs::*_job_ad` populate a `Collector` and a
//!   `JobQueue`; one timed `negotiate_with_stats` per dispatch instant;
//!   slots are released at `Completed`;
//! * device substrate: per device, the offload start/finish sequence
//!   through `CosmicDevice` + `PhiDevice` as the runtime drives them;
//! * throughput engine: the same per-device sequence through `HeapEngine`
//!   join/leave/next-completion.
//!
//! Each replay checks that it reproduces the trace (the same jobs matched
//! per cycle, the same offload admissions and completion instants) and
//! counts every divergence, so a replay that drifted from the real run is
//! reported rather than timed silently.

use crate::spans::Spans;
use phishare::cluster::{ClusterConfig, CosmicSubstrate, DeviceSubstrate, Trace, TraceEvent};
use phishare::condor::{
    attrs, collector, Collector, JobQueue, MatchPath, Negotiator, SlotId, Startd,
};
use phishare::core::ClusterPolicy;
use phishare::cosmic::{Admission, ContainerVerdict, CosmicDevice, OffloadGrant};
use phishare::phi::{Affinity, CommitOutcome, PhiDevice, ProcId};
use phishare::sim::{DetRng, SimDuration, SimTime};
use phishare::workload::{JobId, JobSpec, Segment, Workload};
use phishare_throughput::{HeapEngine, SharingEngine};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

type DevKey = (u32, u32);

/// What a negotiator replay did.
#[derive(Debug, Default, Clone, Copy)]
pub struct NegReplay {
    /// Negotiation calls replayed (one per dispatch instant).
    pub cycles: u64,
    /// Pending jobs examined, summed over calls.
    pub considered: u64,
    /// Jobs matched, summed over calls.
    pub matched: u64,
    /// Calls whose matched job set differs from the trace's dispatches.
    pub mismatches: u64,
    /// Summed duration of the negotiation calls, seconds.
    pub call_s: f64,
}

/// What a device-substrate replay did.
#[derive(Debug, Default, Clone, Copy)]
pub struct DevReplay {
    /// Offloads started on the replayed devices.
    pub offloads: u64,
    /// Admissions, completion instants or commits that differ from the trace.
    pub mismatches: u64,
    /// Summed duration of the per-device replays, seconds.
    pub call_s: f64,
}

fn same_jobs(mut a: Vec<JobId>, mut b: Vec<JobId>) -> bool {
    a.sort();
    b.sort();
    a == b
}

fn specs(wl: &Workload) -> HashMap<JobId, &JobSpec> {
    wl.jobs.iter().map(|j| (j.id, j)).collect()
}

#[derive(Default, Clone)]
struct NodeDev {
    declared: u64,
    residents: u32,
    inflight_mem: u64,
    inflight_n: u32,
}

/// The condor state a negotiator replay drives, rebuilt as the runtime
/// builds it.
#[derive(Clone)]
struct Pool<'a> {
    cfg: &'a ClusterConfig,
    specs: &'a HashMap<JobId, &'a JobSpec>,
    job_dev: &'a HashMap<JobId, DevKey>,
    startds: Vec<(Startd, u64)>,
    devs: BTreeMap<DevKey, NodeDev>,
    collector: Collector,
    queue: JobQueue,
    negotiator: Negotiator,
    slots: HashMap<JobId, SlotId>,
    out: NegReplay,
}

impl Pool<'_> {
    /// Refresh every node's ads from the replayed ground truth, as the
    /// runtime does before each cycle.
    fn refresh(&mut self) {
        for (startd, usable) in &self.startds {
            let mut free_mem = 0u64;
            let mut devices_free = 0u32;
            for dev in 0..self.cfg.devices_per_node {
                let d = &self.devs[&(startd.node, dev)];
                free_mem += usable
                    .saturating_sub(d.declared)
                    .saturating_sub(d.inflight_mem);
                if d.residents == 0 && d.inflight_n == 0 {
                    devices_free += 1;
                }
            }
            startd.refresh(&mut self.collector, free_mem, devices_free);
        }
    }

    /// Whether the cycle reproduces `expected` when the trace events of its
    /// own instant are applied before it. The trace orders events but not
    /// cycles, so this is decided on a throwaway copy of the pool.
    fn events_come_first(&self, events: &[TraceEvent], expected: &[JobId]) -> bool {
        let mut probe = self.clone();
        for ev in events {
            probe.apply(ev);
        }
        probe.refresh();
        let (matches, _) = probe
            .negotiator
            .negotiate_with_stats(&mut probe.queue, &mut probe.collector);
        same_jobs(matches.iter().map(|m| m.job).collect(), expected.to_vec())
    }

    /// One timed negotiation, compared with the jobs the trace dispatched
    /// from it.
    fn cycle(&mut self, expected: Vec<JobId>, call_span: &'static str, spans: &mut Spans) {
        self.refresh();
        let id = spans.enter(call_span);
        let (matches, stats) = self
            .negotiator
            .negotiate_with_stats(&mut self.queue, &mut self.collector);
        self.out.call_s += spans.exit(id);
        self.out.cycles += 1;
        self.out.considered += stats.considered as u64;
        self.out.matched += stats.matched as u64;
        for m in &matches {
            self.slots.insert(m.job, m.slot);
            if let Some(key) = self.job_dev.get(&m.job) {
                let d = self.devs.get_mut(key).expect("device exists");
                d.inflight_mem += self.specs[&m.job].mem_req_mb;
                d.inflight_n += 1;
            }
        }
        let got = matches.iter().map(|m| m.job).collect();
        self.out.mismatches += u64::from(!same_jobs(got, expected));
    }

    /// Apply one non-negotiation trace event to the queue and pool.
    fn apply(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Submitted { job, at } => {
                let spec = self.specs[&job];
                let submitted = match self.cfg.policy {
                    ClusterPolicy::Mc => self.queue.submit(job, attrs::exclusive_job_ad(spec), at),
                    _ => self.queue.submit_held(job, attrs::sharing_job_ad(spec), at),
                };
                submitted.expect("trace job ids are unique");
            }
            TraceEvent::Pinned { job, node, .. } => {
                let pin = attrs::pin_to_node(&format!("node{node}"));
                self.queue
                    .qedit_expr(job, "Requirements", &pin)
                    .expect("pinned job is queued");
                self.queue.release(job).expect("pinned job was held");
            }
            TraceEvent::Dispatched {
                job, node, device, ..
            } => {
                if self.queue.set_running(job).is_err() {
                    self.out.mismatches += 1;
                    return;
                }
                let mem = self.specs[&job].mem_req_mb;
                let d = self.devs.get_mut(&(node, device)).expect("device exists");
                d.inflight_mem = d.inflight_mem.saturating_sub(mem);
                d.inflight_n = d.inflight_n.saturating_sub(1);
                d.declared += mem;
                d.residents += 1;
            }
            TraceEvent::Completed { job, .. } => {
                if self.queue.set_completed(job).is_err() {
                    self.out.mismatches += 1;
                    return;
                }
                self.collector.release(self.slots[&job]);
                let d = self
                    .devs
                    .get_mut(&self.job_dev[&job])
                    .expect("device exists");
                d.declared -= self.specs[&job].mem_req_mb;
                d.residents -= 1;
            }
            _ => {}
        }
    }
}

/// Replay the trace's negotiation through `path`, one span named
/// `call_span` per `negotiate_with_stats` call.
pub fn negotiator(
    cfg: &ClusterConfig,
    wl: &Workload,
    trace: &Trace,
    path: MatchPath,
    call_span: &'static str,
    spans: &mut Spans,
) -> NegReplay {
    let delay = cfg.dispatch_delay.ticks();
    // A job dispatched at `t` was matched by the cycle at `t - delay`.
    let mut cycles: BTreeMap<u64, Vec<JobId>> = BTreeMap::new();
    let mut job_dev: HashMap<JobId, DevKey> = HashMap::new();
    for ev in &trace.events {
        if let TraceEvent::Dispatched {
            job,
            node,
            device,
            at,
        } = *ev
        {
            cycles.entry(at.ticks() - delay).or_default().push(job);
            job_dev.insert(job, (node, device));
        }
    }
    let parts = if cfg.partitions > 0 {
        cfg.partitions
    } else {
        collector::default_partitions()
    };
    let specs = specs(wl);
    let mut pool = Pool {
        cfg,
        specs: &specs,
        job_dev: &job_dev,
        startds: Vec::new(),
        devs: BTreeMap::new(),
        collector: Collector::with_partitions(parts),
        queue: JobQueue::new(),
        negotiator: Negotiator::new(cfg.negotiation_interval)
            .with_path(path)
            .with_quiescence(cfg.skip_quiescent),
        slots: HashMap::new(),
        out: NegReplay::default(),
    };
    for node in 1..=cfg.nodes {
        let spec = cfg.spec_for_node(node);
        let startd = Startd::new(
            node,
            cfg.slots_per_node,
            cfg.devices_per_node,
            spec.phi.memory_mb,
        );
        startd.advertise(
            &mut pool.collector,
            spec.phi.usable_mem_mb() * cfg.devices_per_node as u64,
            cfg.devices_per_node,
        );
        pool.startds.push((startd, spec.phi.usable_mem_mb()));
        for dev in 0..cfg.devices_per_node {
            pool.devs.insert((node, dev), NodeDev::default());
        }
    }

    let events = &trace.events;
    let mut next = 0;
    for (c, expected) in cycles {
        while next < events.len() && events[next].at().ticks() < c {
            pool.apply(&events[next]);
            next += 1;
        }
        // Pins at the cycle's instant come from the cycle itself; other
        // events at that instant may have run before or after it.
        let same = events[next..]
            .iter()
            .take_while(|e| e.at().ticks() == c)
            .count();
        let at_c = &events[next..next + same];
        let is_pin = |e: &&TraceEvent| matches!(e, TraceEvent::Pinned { .. });
        let first = !at_c.iter().all(|e| is_pin(&e)) && pool.events_come_first(at_c, &expected);
        for ev in at_c.iter().filter(|e| first || is_pin(e)) {
            pool.apply(ev);
        }
        pool.cycle(expected, call_span, spans);
        for ev in at_c.iter().filter(|e| !first && !is_pin(e)) {
            pool.apply(ev);
        }
        next += same;
    }
    for ev in &events[next..] {
        pool.apply(ev);
    }
    pool.out
}

/// One device call of the substrate replay, derived from the trace.
enum DevOp {
    Attach {
        local: usize,
        mem: u64,
        threads: u32,
        commit: u64,
    },
    /// A job asks for its next offload (COSMIC may queue it).
    Request {
        local: usize,
        commit: u64,
        threads: u32,
        work: SimDuration,
        started: bool,
    },
    Finish {
        local: usize,
    },
    Detach {
        local: usize,
    },
}

/// One throughput-engine call, derived from the trace.
enum EngineOp {
    Join { id: u64, work: f64, threads: u32 },
    Leave { id: u64, threads: u32 },
    Resident(i32),
}

#[derive(Default)]
struct DeviceOps {
    jobs: Vec<JobId>,
    ops: Vec<(SimTime, DevOp)>,
    engine: Vec<(SimTime, EngineOp)>,
}

struct JobCursor {
    key: DevKey,
    local: usize,
    seg: usize,
    done: usize,
    /// Offload requested and queued by COSMIC: (threads, work).
    queued: Option<(u32, SimDuration)>,
    /// Threads of the running offload.
    running: u32,
}

/// Committed memory before offload `done + 1`: the runtime's growth model.
fn grown_commit(cfg: &ClusterConfig, spec: &JobSpec, done: usize) -> u64 {
    let total = spec.profile.offload_count().max(1);
    let initial = initial_commit(cfg, spec);
    initial
        + ((spec.actual_peak_mem_mb - initial.min(spec.actual_peak_mem_mb)) as f64
            * (done + 1) as f64
            / total as f64)
            .round() as u64
}

fn initial_commit(cfg: &ClusterConfig, spec: &JobSpec) -> u64 {
    ((spec.actual_peak_mem_mb as f64) * cfg.initial_commit_fraction).round() as u64
}

/// Split the trace into per-device call sequences.
fn device_ops(
    cfg: &ClusterConfig,
    wl: &Workload,
    trace: &Trace,
) -> (BTreeMap<DevKey, DeviceOps>, u64) {
    let specs = specs(wl);
    let mut devices: BTreeMap<DevKey, DeviceOps> = BTreeMap::new();
    let mut cursors: HashMap<JobId, JobCursor> = HashMap::new();
    let mut unexpected = 0u64;
    for ev in &trace.events {
        match *ev {
            TraceEvent::Dispatched {
                job,
                node,
                device,
                at,
            } => {
                let spec = specs[&job];
                let d = devices.entry((node, device)).or_default();
                let local = d.jobs.len();
                d.jobs.push(job);
                d.ops.push((
                    at,
                    DevOp::Attach {
                        local,
                        mem: spec.mem_req_mb,
                        threads: spec.thread_req,
                        commit: initial_commit(cfg, spec),
                    },
                ));
                d.engine.push((at, EngineOp::Resident(1)));
                cursors.insert(
                    job,
                    JobCursor {
                        key: (node, device),
                        local,
                        seg: 0,
                        done: 0,
                        queued: None,
                        running: 0,
                    },
                );
            }
            TraceEvent::OffloadQueued { job, at } | TraceEvent::OffloadStarted { job, at, .. } => {
                let c = cursors.get_mut(&job).expect("offloads follow dispatch");
                let d = devices.get_mut(&c.key).expect("dispatched device");
                let started = matches!(ev, TraceEvent::OffloadStarted { .. });
                let (threads, work) = match c.queued.take() {
                    // A COSMIC grant: the device start happens inside the
                    // completion or departure that freed the cores.
                    Some(request) if started => request,
                    Some(_) => {
                        unexpected += 1;
                        continue;
                    }
                    None => {
                        let spec = specs[&job];
                        let segments = &spec.profile.segments;
                        while matches!(segments.get(c.seg), Some(Segment::Host { .. })) {
                            c.seg += 1;
                        }
                        let Some(Segment::Offload { threads, work }) = segments.get(c.seg) else {
                            unexpected += 1;
                            continue;
                        };
                        d.ops.push((
                            at,
                            DevOp::Request {
                                local: c.local,
                                commit: grown_commit(cfg, spec, c.done),
                                threads: *threads,
                                work: *work,
                                started,
                            },
                        ));
                        if !started {
                            c.queued = Some((*threads, *work));
                            continue;
                        }
                        (*threads, *work)
                    }
                };
                c.running = threads;
                d.engine.push((
                    at,
                    EngineOp::Join {
                        id: job.raw(),
                        work: work.ticks() as f64,
                        threads,
                    },
                ));
            }
            TraceEvent::OffloadFinished { job, at } => {
                let c = cursors.get_mut(&job).expect("offloads follow dispatch");
                let d = devices.get_mut(&c.key).expect("dispatched device");
                d.ops.push((at, DevOp::Finish { local: c.local }));
                d.engine.push((
                    at,
                    EngineOp::Leave {
                        id: job.raw(),
                        threads: c.running,
                    },
                ));
                c.seg += 1;
                c.done += 1;
            }
            TraceEvent::Completed { job, at } => {
                let c = cursors.remove(&job).expect("completion follows dispatch");
                let d = devices.get_mut(&c.key).expect("dispatched device");
                d.ops.push((at, DevOp::Detach { local: c.local }));
                d.engine.push((at, EngineOp::Resident(-1)));
            }
            TraceEvent::Submitted { .. } | TraceEvent::Pinned { .. } => {}
            // Kills, faults and requeues are outside the benchmark's
            // workloads; a trace carrying one is not replayed faithfully.
            _ => unexpected += 1,
        }
    }
    (devices, unexpected)
}

/// Replay every device's offload sequence through the default substrate
/// (`PhiDevice`, with `CosmicDevice` admission under sharing policies), one
/// span named `phi.device` per device.
pub fn devices(cfg: &ClusterConfig, wl: &Workload, trace: &Trace, spans: &mut Spans) -> DevReplay {
    let (per_device, unexpected) = device_ops(cfg, wl, trace);
    let mut out = DevReplay {
        mismatches: unexpected,
        ..DevReplay::default()
    };
    for (key, d) in &per_device {
        device::<PhiDevice, CosmicDevice>(cfg, *key, d, spans, &mut out);
    }
    out
}

/// A resident job's device and COSMIC handles.
type Resident<D, C> = (
    <D as DeviceSubstrate>::Handle,
    Option<<C as CosmicSubstrate>::Handle>,
);

/// One device's replay, through the same trait seam the runtime drives.
fn device<D: DeviceSubstrate, C: CosmicSubstrate>(
    cfg: &ClusterConfig,
    key: DevKey,
    d: &DeviceOps,
    spans: &mut Spans,
    out: &mut DevReplay,
) {
    let spec = cfg.spec_for_node(key.0);
    let mut device = D::create(&spec, SimTime::ZERO);
    let mut cosmic = cfg
        .policy
        .uses_cosmic()
        .then(|| C::create(cfg.cosmic, &spec.phi));
    let locals: HashMap<JobId, usize> = d.jobs.iter().enumerate().map(|(i, &j)| (j, i)).collect();
    let mut handles: Vec<Option<Resident<D, C>>> = vec![None; d.jobs.len()];
    let mut grants: Vec<OffloadGrant> = Vec::new();
    let mut rng = DetRng::substream(cfg.seed, "oom-killer");
    // The completion the runtime scheduled, read once per generation as the
    // runtime does.
    let mut synced_gen = u64::MAX;
    let mut predicted = None;
    let (mut bad, mut started) = (0u64, 0u64);

    let id = spans.enter("phi.device");
    for &(at, ref op) in &d.ops {
        match *op {
            DevOp::Attach {
                local,
                mem,
                threads,
                commit,
            } => {
                let job = d.jobs[local];
                let cslot = cosmic.as_mut().map(|c| c.register(job, mem, threads));
                let (h, outcome) =
                    device.attach(at, ProcId(job.raw()), mem, threads, commit, &mut rng);
                bad += u64::from(outcome != CommitOutcome::Fits);
                if let (Some(c), Some(cs)) = (&cosmic, cslot) {
                    bad += u64::from(c.on_commit(cs, commit) != ContainerVerdict::Allowed);
                }
                handles[local] = Some((h, cslot));
            }
            DevOp::Request {
                local,
                commit,
                threads,
                work,
                started: expect_started,
            } => {
                let (h, cslot) = handles[local].expect("attached");
                let outcome = device.commit(at, h, commit, &mut rng);
                bad += u64::from(outcome != CommitOutcome::Fits);
                match (&mut cosmic, cslot) {
                    (Some(c), Some(cs)) => {
                        bad += u64::from(c.on_commit(cs, commit) != ContainerVerdict::Allowed);
                        match c.request_offload(at, cs, threads, work) {
                            Admission::Started(g) => {
                                bad += u64::from(!expect_started);
                                device.start_offload(at, h, g.threads, g.work, g.affinity);
                                started += 1;
                            }
                            Admission::Queued => bad += u64::from(expect_started),
                        }
                    }
                    _ => {
                        device.start_offload(at, h, threads, work, Affinity::Unmanaged);
                        started += 1;
                    }
                }
            }
            DevOp::Finish { local } => {
                let job = d.jobs[local];
                // The runtime's completion event came either from the
                // prediction read at the last generation change or, after a
                // rate-neutral re-anchoring, from a fresh read.
                let due = Some((ProcId(job.raw()), at));
                bad += u64::from(predicted != due && device.next_completion() != due);
                let (h, cslot) = handles[local].expect("attached");
                device.finish_offload(at, h);
                if let (Some(c), Some(cs)) = (&mut cosmic, cslot) {
                    c.complete_offload_into(at, cs, &mut grants);
                }
            }
            DevOp::Detach { local } => {
                let (h, _) = handles[local].take().expect("attached");
                device.detach(at, h);
                if let Some(c) = &mut cosmic {
                    c.unregister_into(at, d.jobs[local], &mut grants);
                }
            }
        }
        for g in grants.drain(..) {
            let (h, _) = handles[locals[&g.job]].expect("granted job is attached");
            device.start_offload(at, h, g.threads, g.work, g.affinity);
            started += 1;
        }
        if device.generation() != synced_gen {
            synced_gen = device.generation();
            predicted = device.next_completion();
        }
    }
    out.call_s += spans.exit(id);
    out.offloads += started;
    out.mismatches += bad;
}

/// Replay every device's offload sequence through `HeapEngine` with the
/// configured sharing curve, one span named `throughput.engine` per device.
/// Returns the summed duration of the per-device replays, seconds.
pub fn engines(cfg: &ClusterConfig, wl: &Workload, trace: &Trace, spans: &mut Spans) -> f64 {
    let (per_device, _) = device_ops(cfg, wl, trace);
    let mut call_s = 0.0;
    for (key, d) in &per_device {
        let spec = cfg.spec_for_node(key.0);
        let hw_threads = spec.phi.hw_threads();
        let mut engine = HeapEngine::new();
        let (mut last, mut active, mut residents, mut threads_on) = (0u64, 0usize, 0usize, 0u32);
        let id = spans.enter("throughput.engine");
        for (at, op) in &d.engine {
            let dt = at.ticks() - last;
            if dt > 0 {
                engine.advance(dt as f64);
                last = at.ticks();
            }
            match *op {
                EngineOp::Join { id, work, threads } => {
                    engine.join(id, work);
                    active += 1;
                    threads_on += threads;
                }
                EngineOp::Leave { id, threads } => {
                    black_box(engine.leave(id));
                    active -= 1;
                    threads_on -= threads;
                }
                EngineOp::Resident(delta) => {
                    residents = residents
                        .checked_add_signed(delta as isize)
                        .expect("residents");
                }
            }
            if active > 0 {
                engine.set_rate(
                    spec.curve
                        .per_activity_rate(active, residents, threads_on, hw_threads),
                );
            }
            black_box(engine.next_completion());
        }
        call_s += spans.exit(id);
    }
    call_s
}
