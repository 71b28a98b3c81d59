//! ABL-5 — the no-host-contention assumption.
//!
//! §V-A: footprint reduction "assumes coprocessor-intensive jobs and that
//! there is no contention for the host by reducing cluster size". Sharing
//! packs many jobs per node, so their *host* phases compete for host cores
//! too. This ablation shrinks the host from 16 cores (the paper's
//! two-socket node; never contended) down to 2 and measures how much of
//! MCCK's win survives.

use phishare_bench::{banner, persist_json, table1_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    host_cores: u32,
    policy: String,
    makespan_secs: f64,
    host_core_utilization: f64,
}

fn main() {
    banner(
        "ABL-5",
        "host-contention sensitivity (the §V-A footprint caveat)",
        "with ≥8 host cores the assumption is free; starving the host erodes sharing's win",
    );

    let wl = table1_workload(400, EXPERIMENT_SEED);
    let mut grid = Vec::new();
    for host_cores in [2u32, 4, 8, 16] {
        for policy in [ClusterPolicy::Mc, ClusterPolicy::Mcck] {
            let mut config = ClusterConfig::paper_cluster(policy);
            config.host_cores_per_node = host_cores;
            grid.push(SweepJob {
                label: format!("{host_cores}|{policy}"),
                config,
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads());

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let r = res.as_ref().expect("cell runs");
            let (cores, policy) = label.split_once('|').unwrap();
            Row {
                host_cores: cores.parse().unwrap(),
                policy: policy.into(),
                makespan_secs: r.makespan_secs,
                host_core_utilization: r.host_core_utilization,
            }
        })
        .collect();

    let mut printable = Vec::new();
    for pair in rows.chunks(2) {
        let (mc, mcck) = (&pair[0], &pair[1]);
        printable.push(vec![
            mc.host_cores.to_string(),
            secs(mc.makespan_secs),
            secs(mcck.makespan_secs),
            pct(100.0 * (1.0 - mcck.makespan_secs / mc.makespan_secs)),
            pct(100.0 * mcck.host_core_utilization),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Host cores/node",
                "MC (s)",
                "MCCK (s)",
                "MCCK vs MC",
                "MCCK host util",
            ],
            &printable
        )
    );
    persist_json("abl_host_contention", &rows);
}
