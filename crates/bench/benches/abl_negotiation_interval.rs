//! ABL-3 — negotiation-cycle sensitivity.
//!
//! The paper's only acknowledged overhead is waiting for Condor's
//! negotiation cycle after a qedit (§IV-D1, §V-B). This ablation sweeps the
//! periodic interval and the update-trigger delay to show how much of
//! MCCK's makespan is integration latency — and how badly MCC (which only
//! sees freed shared capacity at periodic cycles) degrades as the interval
//! grows.

use phishare_bench::{banner, persist_json, table1_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    interval_secs: u64,
    trigger_secs: u64,
    makespan_secs: f64,
}

fn main() {
    banner(
        "ABL-3",
        "negotiation interval / trigger-delay sensitivity (§IV-D1 overhead)",
        "MCC degrades with the periodic interval; MCCK depends mainly on the trigger delay",
    );

    let wl = table1_workload(400, EXPERIMENT_SEED);
    let mut grid = Vec::new();
    for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
        for interval in [5u64, 10, 30, 60, 120] {
            for trigger in [1u64, 2, 5, 10] {
                let mut config = ClusterConfig::paper_cluster(policy);
                config.negotiation_interval = SimDuration::from_secs(interval);
                config.negotiation_trigger_delay = SimDuration::from_secs(trigger);
                grid.push(SweepJob {
                    label: format!("{policy}|{interval}|{trigger}"),
                    config,
                    workload: wl.clone(),
                });
            }
        }
    }
    let results = run_sweep(grid, default_threads());

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let mut parts = label.split('|');
            Row {
                policy: parts.next().unwrap().into(),
                interval_secs: parts.next().unwrap().parse().unwrap(),
                trigger_secs: parts.next().unwrap().parse().unwrap(),
                makespan_secs: res.as_ref().expect("cell runs").makespan_secs,
            }
        })
        .collect();

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.interval_secs.to_string(),
                r.trigger_secs.to_string(),
                secs(r.makespan_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Policy",
                "Interval (s)",
                "Trigger delay (s)",
                "Makespan (s)"
            ],
            &printable
        )
    );
    persist_json("abl_negotiation_interval", &rows);
}
