//! `--trace 1`: the per-layer metrics.
//!
//! One traced run per workload (per cell for the grid) through
//! `Experiment::run_traced`, then its lifecycle trace replayed through each
//! layer's public functions (see [`crate::replay`]), every call timed from
//! here as a span. The same is repeated on a held-out seed to check that
//! each workload's designated layer does not depend on `--seed`.
//!
//! Attribution base: the untraced `Experiment::run` wall time of the same
//! inputs. `condor` is the negotiator replay, the substrate is the device
//! replay, `core` is the planner's own `plan_ms`, and whatever is left is
//! `cluster.runtime.unattributed_s` — an estimate, since replayed calls run
//! without the interleaving of the real run. On the grid, `cluster::shard`
//! is attributed the sharded sweep's wall time minus the in-process sweep's.

use crate::cases::{self, Case, Kind, Layer};
use crate::replay;
use crate::spans::Spans;
use crate::{median, Args, Report, OUT_DIR};
use phishare::cluster::{
    run_sweep, run_sweep_sharded, ClusterConfig, Experiment, ShardOptions, SubstrateMode, SweepJob,
    TraceEvent,
};
use phishare::condor::MatchPath;
use phishare::workload::Workload;
use std::path::Path;
use std::sync::Arc;

/// Offset from `--seed` to the held-out seed.
const HELD_OUT_OFFSET: u64 = 1000;

/// Everything one traced run measured; sums over the cells of a grid.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    build_s: f64,
    untraced_s: f64,
    traced_s: f64,
    jobs: u64,
    events: u64,
    cycles: u64,
    cycles_skipped: u64,
    neg_calls: u64,
    considered: u64,
    matched: u64,
    neg_s: f64,
    full_s: f64,
    plan_s: f64,
    pins: u64,
    memo_hits: u64,
    memo_misses: u64,
    offloads: u64,
    queued: u64,
    device_s: f64,
    engine_s: f64,
    shard_overhead_s: f64,
    /// The shard overhead as attributed time (the grid only).
    shard_s: f64,
    checkpoint_bytes: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.build_s += o.build_s;
        self.untraced_s += o.untraced_s;
        self.traced_s += o.traced_s;
        self.jobs += o.jobs;
        self.events += o.events;
        self.cycles += o.cycles;
        self.cycles_skipped += o.cycles_skipped;
        self.neg_calls += o.neg_calls;
        self.considered += o.considered;
        self.matched += o.matched;
        self.neg_s += o.neg_s;
        self.full_s += o.full_s;
        self.plan_s += o.plan_s;
        self.pins += o.pins;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.offloads += o.offloads;
        self.queued += o.queued;
        self.device_s += o.device_s;
        self.engine_s += o.engine_s;
    }

    fn unattributed_s(&self) -> f64 {
        self.untraced_s - self.plan_s - self.neg_s - self.device_s
    }

    fn layer_s(&self, layer: Layer) -> f64 {
        match layer {
            Layer::Condor => self.neg_s,
            Layer::Core => self.plan_s,
            Layer::Substrate => self.device_s,
            Layer::Shard => self.shard_s,
        }
    }

    /// Share of the attributed time (the layers' sum) that `layer` carries.
    fn of_attributed(&self, layer: Layer) -> f64 {
        ratio(
            self.layer_s(layer),
            LAYERS.iter().map(|&l| self.layer_s(l)).sum(),
        )
    }

    fn designated_is_max(&self, kind: Kind) -> bool {
        let own = self.layer_s(kind.designated());
        LAYERS.iter().all(|&l| self.layer_s(l) <= own)
    }
}

const LAYERS: [Layer; 4] = [Layer::Condor, Layer::Core, Layer::Substrate, Layer::Shard];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(args: &Args, env: &str) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let main = measure(args, args.seed, 0, &mut spans, &mut report);
    let held_seed = args.seed.wrapping_add(HELD_OUT_OFFSET);
    let held = measure(args, held_seed, 1, &mut spans, &mut report);
    write_outputs(args, env, &spans, &main, &held, held_seed, &mut report);

    let m = &main;
    report.metric("workload.build_s", m.build_s, "s");
    report.metric("sim.events", m.events as f64, "count");
    report.metric(
        "sim.events_per_job",
        ratio(m.events as f64, m.jobs as f64),
        "count",
    );
    report.metric(
        "sim.events_per_s",
        ratio(m.events as f64, m.untraced_s),
        "1/s",
    );
    report.metric("condor.negotiator.cycles", m.cycles as f64, "count");
    report.metric(
        "condor.negotiator.cycles_skipped",
        m.cycles_skipped as f64,
        "count",
    );
    report.metric("condor.negotiator.replay_s", m.neg_s, "s");
    report.metric(
        "condor.negotiator.ns_per_cycle",
        ratio(m.neg_s * 1e9, m.neg_calls as f64),
        "ns",
    );
    report.metric("condor.negotiator.full_replay_s", m.full_s, "s");
    report.metric(
        "condor.negotiator.delta_over_full",
        ratio(m.neg_s, m.full_s),
        "ratio",
    );
    report.metric(
        "condor.negotiator.considered_per_cycle",
        ratio(m.considered as f64, m.neg_calls as f64),
        "count",
    );
    report.metric(
        "condor.negotiator.match_ratio",
        ratio(m.matched as f64, m.considered as f64),
        "ratio",
    );
    report.metric("core.scheduler.plan_s", m.plan_s, "s");
    report.metric(
        "core.scheduler.plan_share",
        ratio(m.plan_s, m.untraced_s),
        "ratio",
    );
    report.metric("core.scheduler.pins", m.pins as f64, "count");
    let solves = (m.memo_hits + m.memo_misses) as f64;
    report.metric("knapsack.solves", solves, "count");
    report.metric(
        "knapsack.memo_hit_ratio",
        ratio(m.memo_hits as f64, solves),
        "ratio",
    );
    report.metric("phi.offloads", m.offloads as f64, "count");
    report.metric(
        "cosmic.queued_ratio",
        ratio(m.queued as f64, m.offloads as f64),
        "ratio",
    );
    report.metric("phi.device.replay_s", m.device_s, "s");
    report.metric(
        "phi.device.ns_per_offload",
        ratio(m.device_s * 1e9, m.offloads as f64),
        "ns",
    );
    report.metric("throughput.engine.replay_s", m.engine_s, "s");
    report.metric("cluster.runtime.unattributed_s", m.unattributed_s(), "s");
    report.metric("cluster.shard.overhead_s", m.shard_overhead_s, "s");
    report.metric(
        "cluster.shard.checkpoint_bytes",
        m.checkpoint_bytes as f64,
        "B",
    );
    report.metric("trace_overhead", ratio(m.traced_s, m.untraced_s), "ratio");
    let t = m.untraced_s;
    report.metric("attrib.condor_share", ratio(m.neg_s, t), "ratio");
    report.metric("attrib.core_share", ratio(m.plan_s, t), "ratio");
    report.metric("attrib.substrate_share", ratio(m.device_s, t), "ratio");
    report.metric(
        "attrib.unattributed_share",
        ratio(m.unattributed_s(), t),
        "ratio",
    );
    let designated = args.kind.designated();
    report.metric(
        "attrib.designated_of_attributed",
        m.of_attributed(designated),
        "ratio",
    );
    report.metric(
        "attrib.designated_is_max",
        f64::from(u8::from(m.designated_is_max(args.kind))),
        "bool",
    );
    report.metric(
        "attrib.heldout_designated_of_attributed",
        held.of_attributed(designated),
        "ratio",
    );
    report.metric(
        "attrib.heldout_designated_is_max",
        f64::from(u8::from(held.designated_is_max(args.kind))),
        "bool",
    );
    report
}

/// One traced measurement on `seed`, as traced run `run` of the span log.
/// The shard comparison of single-run workloads runs on the main seed only.
fn measure(args: &Args, seed: u64, run: u32, spans: &mut Spans, report: &mut Report) -> Layers {
    spans.set_run(run);
    let root = spans.enter("bench.traced_run");
    let mut total = Layers::default();
    if args.kind == Kind::SweepGrid {
        match spans.scope("workload.build", |_| cases::grid(seed, args.smoke)) {
            (Ok(grid), build_s) => {
                for cell in &grid {
                    total.add(&one_case(&cell.config, &cell.workload, spans, report));
                }
                total.build_s = build_s;
                sweep_shard(args, seed, &grid, spans, &mut total, report);
            }
            (Err(e), _) => report.check("grid set-up", Err(e)),
        }
    } else {
        let mut builds = Vec::new();
        let mut case = None;
        for _ in 0..3 {
            let (built, t) = spans.scope("workload.build", |_| {
                cases::single(args.kind, seed, args.smoke)
            });
            builds.push(t);
            case = Some(built);
        }
        match case.expect("three builds") {
            Ok(Case { config, workload }) => {
                total = one_case(&config, &workload, spans, report);
                total.build_s = median(&builds);
                if run == 0 {
                    single_shard(args, &config, workload, spans, &mut total, report);
                }
            }
            Err(e) => report.check("set-up", Err(e)),
        }
    }
    spans.exit(root);
    total
}

/// Untraced run, traced run, and the three replays of one (config,
/// workload) pair.
fn one_case(
    config: &ClusterConfig,
    workload: &Workload,
    spans: &mut Spans,
    report: &mut Report,
) -> Layers {
    let mut l = Layers {
        jobs: workload.len() as u64,
        ..Layers::default()
    };
    // The attribution base: median of three untraced runs.
    let mut times = Vec::new();
    let mut untraced = None;
    for _ in 0..3 {
        let (run, t) = spans.scope("cluster.run", |_| Experiment::run(config, workload));
        times.push(t);
        match &untraced {
            None => untraced = Some(run),
            Some(first) => report.check(
                "untraced runs agree",
                (*first == run)
                    .then_some(())
                    .ok_or_else(|| "untraced results differ".to_string()),
            ),
        }
    }
    let untraced = untraced.expect("three untraced runs");
    l.untraced_s = median(&times);
    let (traced, t) = spans.scope("cluster.run_traced", |_| {
        Experiment::run_traced(config, workload)
    });
    l.traced_s = t;
    let (r, trace) = match (untraced, traced) {
        (Ok(r), Ok((rt, trace))) => {
            let same = if r == rt {
                Ok(())
            } else {
                Err("traced result differs from the untraced run".to_string())
            };
            report.check(
                "traced vs untraced",
                same.and_then(|_| cases::check_result(&r)),
            );
            (r, trace)
        }
        (Err(e), _) | (_, Err(e)) => {
            report.check("traced run", Err(e));
            return l;
        }
    };
    l.events = r.events_processed;
    l.cycles = r.negotiation_cycles;
    l.cycles_skipped = r.cycles_skipped;
    l.plan_s = r.plan_ms / 1e3;
    l.pins = r.pins_issued;
    l.memo_hits = r.plan_cache_hits;
    l.memo_misses = r.plan_cache_misses;
    for ev in &trace.events {
        match ev {
            TraceEvent::OffloadStarted { .. } => l.offloads += 1,
            TraceEvent::OffloadQueued { .. } => l.queued += 1,
            _ => {}
        }
    }

    let (neg, _) = spans.scope("condor.negotiator.replay", |s| {
        replay::negotiator(
            config,
            workload,
            &trace,
            MatchPath::Delta,
            "condor.negotiate",
            s,
        )
    });
    let (full, _) = spans.scope("condor.negotiator.full_replay", |s| {
        replay::negotiator(
            config,
            workload,
            &trace,
            MatchPath::Full,
            "condor.negotiate_full",
            s,
        )
    });
    let (dev, _) = spans.scope("phi.device.replay", |s| {
        replay::devices(config, workload, &trace, s)
    });
    let (engine_s, _) = spans.scope("throughput.engine.replay", |s| {
        replay::engines(config, workload, &trace, s)
    });
    report.check(
        "negotiator replay reproduces the trace",
        match neg.mismatches + full.mismatches {
            0 => Ok(()),
            n => Err(format!(
                "{n} replayed cycles matched other jobs than the trace"
            )),
        },
    );
    report.check(
        "device replay reproduces the trace",
        match dev.mismatches {
            0 if dev.offloads == l.offloads => Ok(()),
            n => Err(format!(
                "{n} divergences; {} of {} offloads started",
                dev.offloads, l.offloads
            )),
        },
    );
    l.neg_calls = neg.cycles;
    l.considered = neg.considered;
    l.matched = neg.matched;
    l.neg_s = neg.call_s;
    l.full_s = full.call_s;
    l.device_s = dev.call_s;
    l.engine_s = engine_s;
    l
}

/// Shard-layer cost of one single-run workload: the same simulation as a
/// one-cell sharded sweep (one worker process) minus the in-process sweep.
fn single_shard(
    args: &Args,
    config: &ClusterConfig,
    workload: Workload,
    spans: &mut Spans,
    total: &mut Layers,
    report: &mut Report,
) {
    let grid = vec![SweepJob {
        label: args.kind.name().to_string(),
        config: *config,
        workload: Arc::new(workload),
    }];
    let dir = Path::new(OUT_DIR).join(format!("shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (in_process, t_in) =
        spans.scope("cluster.sweep.in_process", |_| run_sweep(grid.clone(), 1));
    let opts = ShardOptions {
        workers: 1,
        worker_exe: args.phishare.clone(),
        dir: Some(dir.clone()),
        resume: false,
        keep_dir: true,
        substrate: SubstrateMode::Fast,
    };
    let (sharded, t_sh) = spans.scope("cluster.shard.sharded", |_| run_sweep_sharded(grid, &opts));
    total.shard_overhead_s = t_sh - t_in;
    total.checkpoint_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    report.check(
        "sharded cell equals the in-process cell",
        sharded.and_then(|cells| {
            (cells == in_process)
                .then_some(())
                .ok_or_else(|| "sharded result differs".to_string())
        }),
    );
}

/// Shard-layer cost of the grid: `phishare sweep --workers 2` minus the
/// in-process sweep on the same two-way parallelism.
fn sweep_shard(
    args: &Args,
    seed: u64,
    grid: &[SweepJob],
    spans: &mut Spans,
    total: &mut Layers,
    report: &mut Report,
) {
    let dir = Path::new(OUT_DIR).join(format!("sweep-{}-traced", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (in_process, t_in) =
        spans.scope("cluster.sweep.in_process", |_| run_sweep(grid.to_vec(), 2));
    let cli_args = cases::sweep_args(seed, args.smoke, &dir);
    let (sharded, t_sh) = spans.scope("cluster.shard.sharded", |_| {
        cases::run_sweep_cli(&args.phishare, &cli_args)
    });
    total.shard_overhead_s = t_sh - t_in;
    total.shard_s = total.shard_overhead_s.max(0.0);
    total.checkpoint_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    report.check(
        "sharded grid equals the in-process grid",
        sharded.and_then(|cells| {
            (cells == in_process)
                .then_some(())
                .ok_or_else(|| "sharded merge differs".to_string())
        }),
    );
}

/// Total size of the regular files under `dir`, bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Write the span log (Chrome Trace Event JSON) and the layer summary
/// (self time per span name, attribution shares) next to each other.
fn write_outputs(
    args: &Args,
    env: &str,
    spans: &Spans,
    main: &Layers,
    held: &Layers,
    held_seed: u64,
    report: &mut Report,
) {
    let smoke = if args.smoke { "-smoke" } else { "" };
    let stem = Path::new(OUT_DIR).join(format!("{}-seed{}{smoke}", args.kind.name(), args.seed));
    let trace_path = stem.with_extension("trace.json");
    let mut summary = format!("{{\"env\":{env},\"held_out_seed\":{held_seed},\"runs\":[");
    for (run, (layers, seed)) in [(main, args.seed), (held, held_seed)].iter().enumerate() {
        let self_times: Vec<String> = spans
            .self_times(run as u32)
            .iter()
            .map(|(name, s)| format!("\"{name}\":{s:?}"))
            .collect();
        println!("traced run {run} (seed {seed}): self time per span");
        for (name, s) in spans.self_times(run as u32) {
            println!("  {name:<36} {s:>12.6} s");
        }
        let t = layers.untraced_s;
        println!(
            "  untraced run {t:.3} s: condor {:.3}, core {:.3}, substrate {:.3}, unattributed (estimate) {:.3}; \
             designated {:?} carries {:.3} of the attributed time, largest: {}",
            ratio(layers.neg_s, t),
            ratio(layers.plan_s, t),
            ratio(layers.device_s, t),
            ratio(layers.unattributed_s(), t),
            args.kind.designated(),
            layers.of_attributed(args.kind.designated()),
            layers.designated_is_max(args.kind)
        );
        summary.push_str(&format!(
            "{}{{\"seed\":{seed},\"untraced_s\":{t:?},\"layer_s\":{{\"condor\":{:?},\
             \"core\":{:?},\"substrate\":{:?},\"unattributed\":{:?}}},\"designated\":\"{:?}\",\
             \"designated_of_attributed\":{:?},\"designated_is_max\":{},\"self_time_s\":{{{}}}}}",
            if run == 0 { "" } else { "," },
            layers.neg_s,
            layers.plan_s,
            layers.device_s,
            layers.unattributed_s(),
            args.kind.designated(),
            layers.of_attributed(args.kind.designated()),
            layers.designated_is_max(args.kind),
            self_times.join(",")
        ));
    }
    summary.push_str("]}\n");
    let written = std::fs::write(&trace_path, spans.chrome_json(env))
        .and_then(|_| std::fs::write(stem.with_extension("layers.json"), summary));
    report.check(
        "trace output written",
        written.map_err(|e| format!("{}: {e}", trace_path.display())),
    );
    println!("spans written to {}", trace_path.display());
}
