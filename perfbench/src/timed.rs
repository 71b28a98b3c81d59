//! `--trace 0`: the end-to-end metrics, measured on the production entry
//! points with nothing traced.
//!
//! The timed call is repeated, one run at a time, until `--seconds` have
//! passed; `jobs_per_s` comes from the median repetition. Set-up is timed in
//! bursts of [`SETUPS_PER_CALL`] before every timed call and reported as the
//! median over all bursts: one set-up takes milliseconds, and spreading the
//! bursts over the run lets them sample the same machine conditions as the
//! timed calls instead of one instant. Correctness checks run after the
//! timed region and outside set-up.

use crate::cases::{self, Case, Kind};
use crate::{median, Args, Report, OUT_DIR};
use phishare::cluster::{run_sweep, Experiment, ExperimentResult, SweepOutcome};
use phishare::condor::MatchPath;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SETUPS_PER_CALL: usize = 8;

pub fn run(args: &Args) -> Report {
    if args.kind == Kind::SweepGrid {
        sweep(args)
    } else {
        single(args)
    }
}

/// What [`measure`] timed: the set-up's value and median time, and each
/// timed call's wall time and value.
struct Measured<T, R> {
    value: T,
    setup_s: f64,
    calls: Vec<(f64, R)>,
}

/// Time `setup` in bursts and `call` on the first set-up's value, one burst
/// before each call, until `seconds` have passed (at least one call).
fn measure<T, R>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut call: impl FnMut(&T, usize) -> R,
) -> Result<Measured<T, R>, String> {
    let mut setup_times = Vec::new();
    let mut burst = |times: &mut Vec<f64>| -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUPS_PER_CALL {
            drop(last.take());
            let t = Instant::now();
            let value = setup()?;
            times.push(t.elapsed().as_secs_f64());
            last = Some(value);
        }
        Ok(last.expect("a burst has at least one set-up"))
    };
    let value = burst(&mut setup_times)?;
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if !calls.is_empty() {
            drop(burst(&mut setup_times)?);
        }
        let t = Instant::now();
        let result = black_box(call(&value, calls.len()));
        calls.push((t.elapsed().as_secs_f64(), result));
    }
    let shown: Vec<String> = setup_times
        .iter()
        .map(|t| format!("{:.2}", t * 1e3))
        .collect();
    println!("set-up calls (ms): {}", shown.join(" "));
    let shown: Vec<String> = calls.iter().map(|(t, _)| format!("{t:.4}")).collect();
    println!("timed calls (s): {}", shown.join(" "));
    Ok(Measured {
        value,
        setup_s: median(&setup_times),
        calls,
    })
}

fn push_metrics(
    report: &mut Report,
    jobs_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    results: &[&ExperimentResult],
) {
    let mean = |f: fn(&ExperimentResult) -> f64| {
        results.iter().map(|r| f(r)).sum::<f64>() / results.len().max(1) as f64
    };
    report.metric("jobs_per_s", jobs_per_s, "1/s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("sim_makespan_s", mean(|r| r.makespan_secs), "s");
    report.metric("sim_mean_wait_s", mean(|r| r.mean_wait_secs), "s");
    report.metric(
        "sim_core_utilization",
        mean(|r| r.core_utilization),
        "fraction",
    );
    report.metric("completion_rate", mean(|r| r.completion_rate()), "fraction");
    let pass = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("pass_frac", pass, "fraction");
}

fn single(args: &Args) -> Report {
    let mut report = Report::default();
    let measured = measure(
        args.seconds,
        || cases::single(args.kind, args.seed, args.smoke),
        |case: &Case, _| Experiment::run(&case.config, &case.workload),
    );
    let Measured {
        value: Case { config, workload },
        setup_s,
        calls: reps,
    } = match measured {
        Ok(m) => m,
        Err(e) => {
            report.check("setup", Err(e));
            return report;
        }
    };
    let peak_rss_mb = self_peak_rss_mb();
    let times: Vec<f64> = reps.iter().map(|(t, _)| *t).collect();
    let jobs_per_s = workload.len() as f64 / median(&times);

    let mut results = Vec::new();
    for (i, (_, outcome)) in reps.iter().enumerate() {
        let checked = outcome.as_ref().map_err(Clone::clone).and_then(|r| {
            cases::check_result(r)?;
            match results.first() {
                Some(first) if *first != r => Err("result differs from repetition 0".into()),
                _ => Ok(()),
            }
        });
        report.check(&format!("repetition {i}"), checked);
        if let Ok(r) = outcome {
            results.push(r);
        }
    }
    let mut full = config;
    full.negotiation = MatchPath::Full;
    let cross = Experiment::run(&full, &workload).and_then(|r| match results.first() {
        Some(first) if **first == r => Ok(()),
        _ => Err("MatchPath::Full result differs from the default path".into()),
    });
    report.check("MatchPath::Full cross-check", cross);
    // Repetition 0 stands for all of them (the checks above compare them).
    let first = &results[..results.len().min(1)];
    push_metrics(&mut report, jobs_per_s, setup_s, peak_rss_mb, first);
    report
}

fn sweep(args: &Args) -> Report {
    let mut report = Report::default();
    let measured = measure(
        args.seconds,
        || cases::grid(args.seed, args.smoke),
        |_, i| {
            // A fresh checkpoint directory per repetition, removed afterwards.
            let dir = Path::new(OUT_DIR).join(format!("sweep-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let outcome = cases::run_sweep_cli(
                &args.phishare,
                &cases::sweep_args(args.seed, args.smoke, &dir),
            );
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        },
    );
    let Measured {
        value: grid,
        setup_s,
        calls: reps,
    } = match measured {
        Ok(m) => m,
        Err(e) => {
            report.check("setup", Err(e));
            return report;
        }
    };
    let jobs: usize = grid.iter().map(|c| c.workload.len()).sum();
    let peak_rss_mb = children_peak_rss_mb();
    let times: Vec<f64> = reps.iter().map(|(t, _)| *t).collect();
    let jobs_per_s = jobs as f64 / median(&times);

    let mut merged: Vec<&Vec<SweepOutcome>> = Vec::new();
    for (i, (_, outcome)) in reps.iter().enumerate() {
        let checked = outcome.as_ref().map_err(Clone::clone).and_then(|cells| {
            cases::check_cells(cells)?;
            match merged.first() {
                Some(first) if *first != cells => {
                    Err("merged cells differ from repetition 0".into())
                }
                _ => Ok(()),
            }
        });
        report.check(&format!("repetition {i}"), checked);
        if let Ok(cells) = outcome {
            merged.push(cells);
        }
    }
    // The sharded merge must equal the in-process sweep, which runs here on
    // the full-rematch negotiator: one run checks both the shard layer and
    // the default match path.
    let full_grid = grid
        .iter()
        .cloned()
        .map(|mut cell| {
            cell.config.negotiation = MatchPath::Full;
            cell
        })
        .collect();
    let in_process = run_sweep(full_grid, 2);
    let cross = match merged.first() {
        Some(first) if **first == in_process => Ok(()),
        _ => Err("sharded merge differs from the in-process MatchPath::Full sweep".into()),
    };
    report.check("in-process MatchPath::Full cross-check", cross);
    let cells = merged
        .first()
        .and_then(|m| cases::check_cells(m).ok())
        .unwrap_or_default();
    push_metrics(&mut report, jobs_per_s, setup_s, peak_rss_mb, &cells);
    report
}

/// This process's resident-set high-water mark (`VmHWM`), MB.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Largest resident-set high-water mark among this process's waited-for
/// children and their waited-for descendants (`getrusage(RUSAGE_CHILDREN)`),
/// MB: for the grid, the `phishare sweep` parent and its workers.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s (four
    /// words) then fourteen `long`s, of which `ru_maxrss` (kB) is first.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a live, writable buffer with the size and layout of
    // `struct rusage` on this target, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.0[4] as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> f64 {
    f64::NAN
}
