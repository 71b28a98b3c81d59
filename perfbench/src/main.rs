//! `perfbench` — end-to-end and per-layer benchmark for the phishare
//! simulator. Normally started by `run.py`, which builds it first:
//!
//! ```text
//! perfbench --workload <mc_backlog|mcck_batch|mcc_stream|sweep_grid>
//!           --seed N --seconds S --trace <0|1> --phishare PATH
//!           [--commit SHA] [--smoke]
//! ```
//!
//! `--trace 0` times the production entry points (`Experiment::run`, or
//! `phishare sweep` for the grid) for `--seconds` and prints the end-to-end
//! metrics; `--trace 1` runs `Experiment::run_traced`, replays the trace
//! through each layer and prints the per-layer metrics. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Files (span logs, sweep checkpoints while they run) go to [`OUT_DIR`].

mod cases;
mod replay;
mod spans;
mod timed;
mod traced;

use cases::Kind;
use std::path::PathBuf;
use std::process::ExitCode;

/// Program overrides that change how much parallelism a run gets; a run
/// with any of them set does not measure the default configuration.
/// Where traced runs write their spans and sweeps their checkpoints,
/// relative to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

const OVERRIDES: [&str; 4] = [
    "PHISHARE_SWEEP_THREADS",
    "PHISHARE_NEGOTIATOR_SHARDS",
    "PHISHARE_COLLECTOR_PARTITIONS",
    "PHISHARE_SWEEP_WORKERS",
];

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub phishare: PathBuf,
    pub commit: String,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::McBacklog,
        seed: 7,
        seconds: 10.0,
        trace: false,
        phishare: PathBuf::new(),
        commit: "unknown".into(),
        smoke: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--phishare" => args.phishare = PathBuf::from(value),
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    args.kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    if args.phishare.as_os_str().is_empty() {
        return Err("--phishare is required".into());
    }
    Ok(args)
}

/// The run's environment as one JSON object (recorded in every output).
fn environment(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},\
         \"commit\":\"{}\",\"profile\":\"{}\",\"PHISHARE_SWEEP_THREADS\":{},\
         \"PHISHARE_NEGOTIATOR_SHARDS\":{},\"PHISHARE_COLLECTOR_PARTITIONS\":{},\
         \"PHISHARE_SWEEP_WORKERS\":{}}}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        nproc,
        args.commit.replace(['"', '\\'], ""),
        profile,
        phishare::cluster::sweep::default_threads(),
        phishare::condor::Negotiator::default().shard_count(),
        phishare::condor::collector::default_partitions(),
        phishare::cluster::default_workers(),
    )
}

/// What one invocation measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Count one attempted run or check; report and count its failure.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("CHECK FAILED [{what}]: {e}");
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // measurement defect and is reported as failed.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the default \
             configuration only",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let env = environment(&args);
    println!("env {env}");
    let mut report = if args.trace {
        traced::run(&args, &env)
    } else {
        timed::run(&args)
    };
    for (name, value, unit) in report.metrics.clone() {
        if !value.is_finite() {
            report.check(name, Err(format!("non-finite value {value}")));
        }
        println!("metric {name:<44} {value:>16.6} {unit}");
    }
    println!(
        "runs and checks: {} attempted, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
