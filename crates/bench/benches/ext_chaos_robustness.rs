//! EXT-8 — policy robustness under chaos perturbation stacks.
//!
//! The paper evaluates a calm cluster; production Phi deployments see
//! thermal throttling, fabric latency spikes, stale collector state, and
//! scheduler timer drift all at once. This extension runs MCC and MCCK
//! under each perturbation stack (and a combined "all" stack layered on
//! top of device faults) and reports how makespan, retries, and held jobs
//! degrade relative to the calm baseline. Every stack is materialized
//! deterministically from the experiment seed, so the table is
//! reproducible bit-for-bit.

use phishare_bench::{banner, persist_json, table1_workload};
use phishare_cluster::report::{pct, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use serde::Serialize;

const EXPERIMENT_SEED: u64 = 7;
const JOBS: usize = 300;
/// Perturbation horizon: long enough to cover every run in the grid.
const HORIZON_SECS: f64 = 6000.0;
const POLICIES: [ClusterPolicy; 2] = [ClusterPolicy::Mcc, ClusterPolicy::Mcck];
/// The stacks under test, in presentation order.
const STACKS: [&str; 6] = ["none", "derate", "latency", "stale-ads", "jitter", "all"];

#[derive(Serialize)]
struct Row {
    policy: String,
    stack: String,
    makespan_secs: f64,
    makespan_degradation: f64,
    completion_rate: f64,
    perturb_windows: u64,
    inflated_offloads: u64,
    stale_ad_skips: u64,
    jittered_cycles: u64,
    retries: u64,
    held_after_retries: usize,
}

/// Build the config for one (policy, stack) cell.
fn cfg(policy: ClusterPolicy, stack: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster(policy);
    let p = &mut cfg.perturb;
    p.horizon_secs = HORIZON_SECS;
    match stack {
        "none" => p.horizon_secs = 0.0,
        "derate" => {
            p.derate.mean_gap_secs = 120.0;
            p.derate.duration_secs = 60.0;
            p.derate.factor = 0.4;
        }
        "latency" => {
            p.latency.mean_gap_secs = 90.0;
            p.latency.duration_secs = 45.0;
            p.latency.extra_secs = 2.0;
        }
        "stale-ads" => {
            p.stale_ads.mean_gap_secs = 90.0;
            p.stale_ads.duration_secs = 60.0;
        }
        "jitter" => {
            // Jitter alone leaves the window generator empty; give it a
            // token stale-ads window so `enabled()` reflects the stack.
            p.jitter_max_secs = 5.0;
            p.stale_ads.mean_gap_secs = HORIZON_SECS * 10.0;
        }
        "all" => {
            p.derate.mean_gap_secs = 120.0;
            p.derate.duration_secs = 60.0;
            p.derate.factor = 0.4;
            p.latency.mean_gap_secs = 90.0;
            p.latency.duration_secs = 45.0;
            p.latency.extra_secs = 2.0;
            p.stale_ads.mean_gap_secs = 90.0;
            p.stale_ads.duration_secs = 60.0;
            p.jitter_max_secs = 5.0;
            // Chaos on top of faults: the stack composes with the EXT-6
            // failure model rather than replacing it.
            cfg.faults.device_mtbf_secs = 600.0;
            cfg.faults.horizon_secs = HORIZON_SECS;
        }
        other => panic!("unknown stack {other}"),
    }
    cfg
}

fn main() {
    banner(
        "EXT-8",
        "makespan/retry/held degradation under chaos perturbation stacks",
        "derate & latency stretch makespan, stale-ads defers matches, jitter is noise; MCCK stays complete",
    );

    let wl = table1_workload(JOBS, EXPERIMENT_SEED);
    let mut grid = Vec::new();
    for policy in POLICIES {
        for stack in STACKS {
            grid.push(SweepJob {
                label: format!("{policy}|{stack}"),
                config: cfg(policy, stack),
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads());

    let mut rows: Vec<Row> = Vec::new();
    let mut printable = Vec::new();
    for (label, result) in &results {
        let r = result.as_ref().expect("chaos sweep runs");
        assert_eq!(
            r.completed + r.container_kills + r.oom_kills + r.held_after_retries,
            r.jobs,
            "{label}: job accounting leaked"
        );
        let mut parts = label.split('|');
        let policy = parts.next().expect("policy").to_string();
        let stack = parts.next().expect("stack").to_string();
        let baseline = rows
            .iter()
            .find(|row| row.policy == policy && row.stack == "none")
            .map(|row| row.makespan_secs)
            .unwrap_or(r.makespan_secs);
        let degradation = r.makespan_secs / baseline - 1.0;
        printable.push(vec![
            policy.clone(),
            stack.clone(),
            format!("{:.0}", r.makespan_secs),
            pct(100.0 * degradation),
            pct(100.0 * r.completion_rate()),
            r.perturb_windows.to_string(),
            r.inflated_offloads.to_string(),
            r.stale_ad_skips.to_string(),
            r.jittered_cycles.to_string(),
            r.retries.to_string(),
            r.held_after_retries.to_string(),
        ]);
        rows.push(Row {
            policy,
            stack,
            makespan_secs: r.makespan_secs,
            makespan_degradation: degradation,
            completion_rate: r.completion_rate(),
            perturb_windows: r.perturb_windows,
            inflated_offloads: r.inflated_offloads,
            stale_ad_skips: r.stale_ad_skips,
            jittered_cycles: r.jittered_cycles,
            retries: r.retries,
            held_after_retries: r.held_after_retries,
        });
    }
    println!(
        "{}",
        table(
            &[
                "Policy",
                "Stack",
                "Makespan s",
                "vs calm",
                "Completed",
                "Windows",
                "Inflated",
                "Stale",
                "Jittered",
                "Retries",
                "Held",
            ],
            &printable
        )
    );

    // Robustness sanity per policy.
    for policy in POLICIES {
        let find = |stack: &str| {
            rows.iter()
                .find(|r| r.policy == policy.to_string() && r.stack == stack)
                .expect("grid covers the stack")
        };
        let calm = find("none");
        assert_eq!(
            calm.completion_rate, 1.0,
            "{policy}: calm baseline must complete everything"
        );
        assert_eq!(calm.perturb_windows, 0, "{policy}: calm run opened windows");
        let derate = find("derate");
        assert!(
            derate.makespan_secs > calm.makespan_secs,
            "{policy}: heavy derates must stretch the makespan ({} vs {})",
            derate.makespan_secs,
            calm.makespan_secs
        );
        let latency = find("latency");
        assert!(
            latency.inflated_offloads > 0,
            "{policy}: latency stack never inflated an offload"
        );
        let stale = find("stale-ads");
        assert!(
            stale.stale_ad_skips > 0,
            "{policy}: stale-ads stack never skipped a refresh"
        );
        let jitter = find("jitter");
        assert!(
            jitter.jittered_cycles > 0,
            "{policy}: jitter stack never delayed a cycle"
        );
        let all = find("all");
        assert!(
            all.completion_rate >= 0.95,
            "{policy}: the combined stack must not strand more than 5% of jobs"
        );
        assert!(
            all.perturb_windows > 0,
            "{policy}: combined stack opened no windows"
        );
    }
    persist_json("ext_chaos_robustness", &rows);
}
