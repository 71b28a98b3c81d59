//! # phishare-cluster — end-to-end cluster simulation
//!
//! Assembles the full stack the paper evaluates (§V):
//!
//! ```text
//!            ┌──────────────────────────────────┐
//!            │ sharing-aware scheduler (MCCK)   │  phishare-core
//!            │   or random selection (MCC)      │
//!            └────────────┬─────────────────────┘
//!                         │ condor_qedit pinning
//!            ┌────────────▼─────────────────────┐
//!            │ mini-HTCondor: queue, collector, │  phishare-condor
//!            │ negotiator (periodic cycles)     │
//!            └────────────┬─────────────────────┘
//!                         │ dispatch
//!   per node  ┌───────────▼──────────────────────┐
//!            │ COSMIC middleware (admission,     │  phishare-cosmic
//!            │ affinity, containers)             │
//!            └────────────┬──────────────────────┘
//!                         │ offloads
//!            ┌────────────▼──────────────────────┐
//!            │ Xeon Phi device model             │  phishare-phi
//!            └───────────────────────────────────┘
//! ```
//!
//! driven by the deterministic event engine of `phishare-sim`.
//!
//! * [`config`] — cluster shape and software-stack configuration;
//! * [`fault`] — deterministic fault injection (device resets, node churn)
//!   and the recovery knobs (retry backoff, host fallback);
//! * [`perturb`] — deterministic chaos perturbations (thermal derates,
//!   offload-latency spikes, stale collector ads, negotiation jitter);
//! * [`runtime`] — the discrete-event world: job lifecycle, negotiation
//!   cycles, offload execution, failures. [`Experiment::run`] is the
//!   production run; [`Experiment::run_with`] takes [`RunOptions`] (fault
//!   and perturbation plans, substrate, event scheme, tracing), which is
//!   how every differential oracle is reached;
//! * [`metrics`] — the measurements the paper reports (makespan, core
//!   utilization, waits, crashes);
//! * [`footprint`] — "smallest cluster that matches a target makespan"
//!   search (Tables II and III);
//! * [`sweep`] — a parallel parameter-sweep harness for the figure-scale
//!   experiments (many independent simulations across worker threads):
//!   [`run_sweep`] on the fast substrate, [`run_sweep_with`] on any;
//! * [`shard`] — the process-sharded sweep engine: manifest + lease-claimed
//!   worker processes + fsync'd JSONL checkpoints with `--resume`, merged
//!   bit-identical to [`sweep::run_sweep`];
//! * [`substrate`] — the state-storage seam: slab-backed fast device/COSMIC
//!   state vs. the seed's map-backed oracle, kept bit-identical;
//! * [`report`] — plain-text table formatting for the bench harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod fault;
pub mod footprint;
pub mod host;
pub mod metrics;
pub mod perturb;
pub mod report;
pub mod runtime;
pub mod shard;
pub mod substrate;
pub mod sweep;
pub mod trace;

pub use audit::audit;
pub use config::{ClusterConfig, DevicePool, DeviceSku, DeviceSpec};
pub use fault::{FallbackPolicy, FaultConfig, FaultEvent, FaultKind, FaultPlan, RecoveryConfig};
pub use footprint::{footprint_search, FootprintResult, FootprintSearcher};
pub use metrics::ExperimentResult;
pub use perturb::{
    DerateSpec, LatencySpec, PerturbConfig, PerturbEvent, PerturbKind, PerturbPlan, Perturbation,
    StaleAdsSpec,
};
pub use runtime::{EventMode, Experiment, RunOptions, SubstrateMode};
pub use shard::{
    default_workers, run_sweep_sharded, run_worker, worker_main, CellRecord, ManifestCell,
    ShardManifest, ShardOptions,
};
pub use substrate::{CosmicSubstrate, DeviceSubstrate};
pub use sweep::{default_threads, run_sweep, run_sweep_with, SweepJob, SweepOutcome};
pub use trace::{KillReason, Trace, TraceEvent};
