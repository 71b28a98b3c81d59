//! Differential proptest: [`HostCpu`]'s sorted-`Vec` phase set against a
//! `BTreeMap`-keyed reference of the same processor-sharing model.
//!
//! Random `start_segment` / `finish_segment` / `abort` sequences, with more
//! phases than cores so the fair-share rate drops below 1, must leave the
//! two bit-identical after every step: `completions`, `next_completion`,
//! `generation` and `busy_core_average`.

use phishare_cluster::host::HostCpu;
use phishare_sim::{SimDuration, SimTime, TimeWeighted};
use phishare_workload::JobId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The processor-sharing host with its phases in a `BTreeMap` by id.
struct RefHost {
    cores: u32,
    active: BTreeMap<JobId, f64>,
    rate: f64,
    last_update: SimTime,
    generation: u64,
    busy: TimeWeighted,
}

impl RefHost {
    fn new(cores: u32) -> Self {
        RefHost {
            cores,
            active: BTreeMap::new(),
            rate: 1.0,
            last_update: SimTime::ZERO,
            generation: 0,
            busy: TimeWeighted::new(SimTime::ZERO),
        }
    }

    fn start_segment(&mut self, now: SimTime, job: JobId, duration: SimDuration) {
        self.advance_to(now);
        assert!(self.active.insert(job, duration.ticks() as f64).is_none());
        self.reschedule(now);
    }

    fn finish_segment(&mut self, now: SimTime, job: JobId) {
        self.advance_to(now);
        self.active.remove(&job).expect("active");
        self.reschedule(now);
    }

    fn abort(&mut self, now: SimTime, job: JobId) {
        self.advance_to(now);
        if self.active.remove(&job).is_some() {
            self.reschedule(now);
        }
    }

    fn completions(&self) -> Vec<(JobId, SimTime)> {
        self.active
            .iter()
            .map(|(&job, &remaining)| {
                let dt = (remaining / self.rate).ceil().max(0.0) as u64;
                (job, self.last_update + SimDuration::from_ticks(dt))
            })
            .collect()
    }

    fn next_completion(&self) -> Option<(JobId, SimTime)> {
        let mut best: Option<(JobId, SimTime)> = None;
        for (job, at) in self.completions() {
            if best.map(|(_, b)| at < b).unwrap_or(true) {
                best = Some((job, at));
            }
        }
        best
    }

    fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).ticks() as f64;
        if dt > 0.0 {
            for remaining in self.active.values_mut() {
                *remaining = (*remaining - self.rate * dt).max(0.0);
            }
            self.last_update = now;
        }
    }

    fn reschedule(&mut self, now: SimTime) {
        let n = self.active.len() as f64;
        self.rate = if n <= self.cores as f64 {
            1.0
        } else {
            self.cores as f64 / n
        };
        self.generation += 1;
        self.busy.set(now, n.min(self.cores as f64));
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// After `gap` ms, start a phase of `dur` ms for job `job` (skipped if
    /// that job is already active).
    Start { gap: u64, job: u64, dur: u64 },
    /// Jump to the earliest predicted completion and finish that phase.
    Finish,
    /// After `gap` ms, abort job `job` (a no-op when it is not active).
    Abort { gap: u64, job: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..3_000, 0u64..24, 1u64..20_000)
            .prop_map(|(gap, job, dur)| Op::Start { gap, job, dur }),
        3 => Just(Op::Finish),
        1 => (0u64..3_000, 0u64..24).prop_map(|(gap, job)| Op::Abort { gap, job }),
    ]
}

fn assert_same(host: &HostCpu, reference: &RefHost, now: SimTime) {
    assert_eq!(host.completions(), reference.completions());
    assert_eq!(host.next_completion(), reference.next_completion());
    assert_eq!(host.generation(), reference.generation);
    assert_eq!(host.active_count(), reference.active.len());
    assert_eq!(
        host.busy_core_average(now).to_bits(),
        reference.busy.time_average(now).to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_vec_host_matches_btreemap_reference(
        cores in 1u32..6,
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut host = HostCpu::new(cores, SimTime::ZERO);
        let mut reference = RefHost::new(cores);
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Start { gap, job, dur } => {
                    now += SimDuration::from_millis(gap);
                    let job = JobId(job);
                    prop_assert_eq!(host.is_active(job), reference.active.contains_key(&job));
                    if !host.is_active(job) {
                        let dur = SimDuration::from_millis(dur);
                        host.start_segment(now, job, dur);
                        reference.start_segment(now, job, dur);
                    }
                }
                Op::Finish => {
                    if let Some((job, at)) = reference.next_completion() {
                        now = now.max(at);
                        host.finish_segment(now, job);
                        reference.finish_segment(now, job);
                    }
                }
                Op::Abort { gap, job } => {
                    now += SimDuration::from_millis(gap);
                    host.abort(now, JobId(job));
                    reference.abort(now, JobId(job));
                }
            }
            assert_same(&host, &reference, now);
        }
    }
}
