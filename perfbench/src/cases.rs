//! The four workloads: what each one builds, and the checks every run's
//! output must pass.
//!
//! Each workload stresses one layer and bypasses the others (see
//! `README.md` for the reasoning and the ROADMAP item each one judges):
//!
//! * `mc_backlog` — the paper's exclusive baseline behind a deep FIFO
//!   backlog: `condor` negotiation dominates, the planner never runs;
//! * `mcck_batch` — the knapsack scheduler over a large batch: `core` and
//!   `knapsack` planning plus the `cluster` event loop dominate;
//! * `mcc_stream` — offload-dense jobs arriving over simulated time on few
//!   nodes: the `phi`/`cosmic` device substrate and `sim` dispatch dominate;
//! * `sweep_grid` — a Fig. 9-shaped grid through `phishare sweep
//!   --workers 2`: the `cluster::shard` process/checkpoint machinery.

use phishare::cluster::{CellRecord, ClusterConfig, ExperimentResult, SweepJob, SweepOutcome};
use phishare::core::ClusterPolicy;
use phishare::sim::SimDuration;
use phishare::workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    McBacklog,
    McckBatch,
    MccStream,
    SweepGrid,
}

/// Layers the traced run attributes host time to; the rest of the run is
/// the unattributed runtime event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `condor`: the negotiator replay's calls.
    Condor,
    /// `core`/`knapsack`: the planner's own `plan_ms`.
    Core,
    /// `phi`/`cosmic`: the device-substrate replay's calls.
    Substrate,
    /// `cluster::shard`: the sharded sweep's wall time minus the in-process
    /// sweep's (attributed on the grid only).
    Shard,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::McBacklog,
        Kind::McckBatch,
        Kind::MccStream,
        Kind::SweepGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::McBacklog => "mc_backlog",
            Kind::McckBatch => "mcck_batch",
            Kind::MccStream => "mcc_stream",
            Kind::SweepGrid => "sweep_grid",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The layer this workload is built to load.
    pub fn designated(self) -> Layer {
        match self {
            Kind::McBacklog => Layer::Condor,
            Kind::McckBatch => Layer::Core,
            Kind::MccStream => Layer::Substrate,
            Kind::SweepGrid => Layer::Shard,
        }
    }
}

/// One simulation: the production entry point's two inputs.
pub struct Case {
    pub config: ClusterConfig,
    pub workload: Workload,
}

/// Job counts and node counts; `smoke` shrinks every workload to a size
/// that runs in well under a second (for the self-test).
fn size(kind: Kind, smoke: bool) -> (usize, u32) {
    match (kind, smoke) {
        (Kind::McBacklog, false) => (1200, 64),
        (Kind::McckBatch, false) => (5000, 64),
        (Kind::MccStream, false) => (600, 8),
        (Kind::McBacklog, true) => (60, 4),
        (Kind::McckBatch, true) => (80, 4),
        (Kind::MccStream, true) => (24, 2),
        (Kind::SweepGrid, _) => unreachable!("the grid is sized by sweep_args"),
    }
}

/// Build and validate one single-run workload: the `setup_s` work.
pub fn single(kind: Kind, seed: u64, smoke: bool) -> Result<Case, String> {
    let (jobs, nodes) = size(kind, smoke);
    let (policy, builder) = match kind {
        // Table I mix, every job pending at t = 0.
        Kind::McBacklog => (
            ClusterPolicy::Mc,
            WorkloadBuilder::new(WorkloadKind::Table1Mix),
        ),
        // Fig. 7 `normal` distribution, every job pending at t = 0.
        Kind::McckBatch => (
            ClusterPolicy::Mcck,
            WorkloadBuilder::new(WorkloadKind::Synthetic(
                ResourceDist::Normal,
                SyntheticParams::default(),
            )),
        ),
        // `perf_e2e`'s offload-dense jobs: small footprints so devices
        // stack deep, 92-97 % offload duty, 256-512 kernel launches per job,
        // Poisson arrivals over simulated time.
        Kind::MccStream => (
            ClusterPolicy::Mcc,
            WorkloadBuilder::new(WorkloadKind::Synthetic(
                ResourceDist::Normal,
                SyntheticParams {
                    mem_mb: (64, 160),
                    threads: (4, 16),
                    thread_jitter: 0.08,
                    duty_cycle: (0.92, 0.97),
                    offloads: (256, 512),
                    duration_secs: (40.0, 100.0),
                },
            ))
            .arrivals(ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(400),
            }),
        ),
        Kind::SweepGrid => unreachable!("the grid is built by grid()"),
    };
    let workload = builder.count(jobs).seed(seed).build();
    let mut config = ClusterConfig::paper_cluster(policy)
        .with_nodes(nodes)
        .with_seed(seed);
    if kind == Kind::MccStream {
        // `perf_e2e`'s wide nodes (24 host slots, so devices run ~20 deep)
        // and arrival-triggered negotiations batched at 10 s.
        config.slots_per_node = 24;
        config.negotiation_trigger_delay = SimDuration::from_secs(10);
    }
    config.validate()?;
    workload
        .validate()
        .map_err(|(id, e)| format!("invalid job {id}: {e}"))?;
    Ok(Case { config, workload })
}

const SWEEP_POLICIES: [ClusterPolicy; 3] =
    [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck];

/// (job count, cluster sizes) of the sweep grid.
fn sweep_shape(smoke: bool) -> (usize, &'static [u32]) {
    if smoke {
        (40, &[2, 4])
    } else {
        (600, &[2, 3, 4, 5, 6, 8])
    }
}

/// The sweep grid exactly as `phishare sweep` builds it from
/// [`sweep_args`]: one `normal` workload shared by every (policy, size)
/// cell. This is the sweep workload's `setup_s` work.
pub fn grid(seed: u64, smoke: bool) -> Result<Vec<SweepJob>, String> {
    let (jobs, sizes) = sweep_shape(smoke);
    let workload = Arc::new(
        WorkloadBuilder::new(WorkloadKind::Synthetic(
            ResourceDist::Normal,
            SyntheticParams::default(),
        ))
        .count(jobs)
        .seed(seed)
        .build(),
    );
    workload
        .validate()
        .map_err(|(id, e)| format!("invalid job {id}: {e}"))?;
    let mut grid = Vec::new();
    for policy in SWEEP_POLICIES {
        for &nodes in sizes {
            let config = ClusterConfig::paper_cluster(policy)
                .with_nodes(nodes)
                .with_seed(seed);
            config.validate()?;
            grid.push(SweepJob {
                label: format!("{policy}/{nodes}"),
                config,
                workload: Arc::clone(&workload),
            });
        }
    }
    Ok(grid)
}

/// The `phishare sweep` arguments that build the same grid as [`grid`],
/// sharded over two worker processes with checkpoints in `dir`.
pub fn sweep_args(seed: u64, smoke: bool, dir: &Path) -> Vec<String> {
    let (jobs, sizes) = sweep_shape(smoke);
    let sizes: Vec<String> = sizes.iter().map(|n| n.to_string()).collect();
    [
        "sweep",
        "--policies",
        "mc,mcc,mcck",
        "--sizes",
        &sizes.join(","),
        "--jobs",
        &jobs.to_string(),
        "--dist",
        "normal",
        "--seed",
        &seed.to_string(),
        "--workers",
        "2",
        "--json",
        "--dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([dir.display().to_string()])
    .collect()
}

/// Run `phishare sweep` and parse its merged cells.
pub fn run_sweep_cli(phishare: &Path, args: &[String]) -> Result<Vec<SweepOutcome>, String> {
    let out = Command::new(phishare)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", phishare.display()))?;
    if !out.status.success() {
        return Err(format!(
            "phishare sweep failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let records: Vec<CellRecord> =
        serde_json::from_str(&stdout).map_err(|e| format!("bad sweep JSON: {e}"))?;
    Ok(records
        .into_iter()
        .map(|r| {
            let outcome = match (r.ok, r.err) {
                (Some(ok), None) => Ok(ok),
                (_, Some(err)) => Err(err),
                (None, None) => Err("cell record has neither result nor error".into()),
            };
            (r.label, outcome)
        })
        .collect())
}

/// Every job completed, none killed.
pub fn check_result(r: &ExperimentResult) -> Result<(), String> {
    if r.completed != r.jobs || r.container_kills != 0 || r.oom_kills != 0 {
        return Err(format!(
            "{}: {}/{} completed, {} container kills, {} OOM kills",
            r.workload, r.completed, r.jobs, r.container_kills, r.oom_kills
        ));
    }
    Ok(())
}

/// Every cell succeeded and passes [`check_result`].
pub fn check_cells(cells: &[SweepOutcome]) -> Result<Vec<&ExperimentResult>, String> {
    cells
        .iter()
        .map(|(label, outcome)| {
            let r = outcome.as_ref().map_err(|e| format!("{label}: {e}"))?;
            check_result(r)?;
            Ok(r)
        })
        .collect()
}
