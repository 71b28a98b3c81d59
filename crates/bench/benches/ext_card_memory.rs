//! EXT-3 — card-memory sensitivity across real Phi SKUs.
//!
//! §II-A: "Each Xeon Phi device has 8-16 GB of RAM". The paper evaluates
//! the 8 GB card only; this extension reruns the Table II comparison on the
//! 6 GB 3120A, the 8 GB 5110P (the paper's card) and the 16 GB 7120P.
//! Larger cards hold more co-resident jobs per knapsack, so sharing's win
//! over exclusive allocation should widen with card memory — and the
//! thread budget (not memory) becomes MCCK's binding constraint.

use phishare_bench::{banner, persist_json, table1_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use phishare_phi::PhiConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    sku: String,
    policy: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "EXT-3",
        "card-memory sensitivity (§II-A's 8-16 GB range)",
        "sharing's win over MC widens with card memory",
    );

    let wl = table1_workload(400, EXPERIMENT_SEED);
    let skus: [(&str, PhiConfig); 3] = [
        ("3120A (6 GB)", PhiConfig::phi_3120a()),
        ("5110P (8 GB)", PhiConfig::phi_5110p()),
        ("7120P (16 GB)", PhiConfig::phi_7120p()),
    ];

    let mut grid = Vec::new();
    for (name, phi) in &skus {
        for policy in ClusterPolicy::ALL {
            let mut config = ClusterConfig::paper_cluster(policy);
            config.phi = *phi;
            grid.push(SweepJob {
                label: format!("{name}|{policy}"),
                config,
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads());

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let (sku, policy) = label.split_once('|').unwrap();
            Row {
                sku: sku.into(),
                policy: policy.into(),
                makespan_secs: res.as_ref().expect("cell runs").makespan_secs,
            }
        })
        .collect();

    let mut printable = Vec::new();
    for chunk in rows.chunks(3) {
        let (mc, mcc, mcck) = (&chunk[0], &chunk[1], &chunk[2]);
        printable.push(vec![
            mc.sku.clone(),
            secs(mc.makespan_secs),
            secs(mcc.makespan_secs),
            secs(mcck.makespan_secs),
            pct(100.0 * (1.0 - mcck.makespan_secs / mc.makespan_secs)),
        ]);
    }
    println!(
        "{}",
        table(
            &["Card", "MC (s)", "MCC (s)", "MCCK (s)", "MCCK vs MC"],
            &printable
        )
    );
    persist_json("ext_card_memory", &rows);
}
