//! EXT-4 — device topology at constant card count.
//!
//! The paper's formulation (§IV-B) has `N` servers with `D` coprocessors
//! each but evaluates only D = 1. With 8 cards total, does it matter whether
//! they sit in 8×1, 4×2 or 2×4 nodes? Fewer, fatter nodes concentrate the
//! FIFO host-slot pool and let the per-node device chooser balance cards
//! locally; the knapsack still packs per *device*. Shared host slots are
//! scaled so the host never binds.

use phishare_bench::{banner, persist_json, table1_workload, EXPERIMENT_SEED};
use phishare_cluster::report::{pct, secs, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    topology: String,
    policy: String,
    makespan_secs: f64,
}

fn main() {
    banner(
        "EXT-4",
        "device topology at constant card count (the paper's unexplored D > 1)",
        "8 cards behave near-identically whether spread 8×1, 4×2 or 2×4",
    );

    let wl = table1_workload(400, EXPERIMENT_SEED);
    let topologies: [(u32, u32); 3] = [(8, 1), (4, 2), (2, 4)];

    let mut grid = Vec::new();
    for (nodes, devices) in topologies {
        for policy in ClusterPolicy::ALL {
            let mut config = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
            config.devices_per_node = devices;
            // Keep host capacity proportional to cards, as real fat nodes do.
            config.slots_per_node = 16 * devices;
            config.host_cores_per_node = 16 * devices;
            grid.push(SweepJob {
                label: format!("{nodes}x{devices}|{policy}"),
                config,
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads());

    let rows: Vec<Row> = results
        .iter()
        .map(|(label, res)| {
            let (topology, policy) = label.split_once('|').unwrap();
            Row {
                topology: topology.into(),
                policy: policy.into(),
                makespan_secs: res.as_ref().expect("cell runs").makespan_secs,
            }
        })
        .collect();

    let mut printable = Vec::new();
    for chunk in rows.chunks(3) {
        let (mc, mcc, mcck) = (&chunk[0], &chunk[1], &chunk[2]);
        printable.push(vec![
            mc.topology.replace('x', " nodes × ") + " cards",
            secs(mc.makespan_secs),
            secs(mcc.makespan_secs),
            secs(mcck.makespan_secs),
            pct(100.0 * (1.0 - mcck.makespan_secs / mc.makespan_secs)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Topology (8 cards)",
                "MC (s)",
                "MCC (s)",
                "MCCK (s)",
                "MCCK vs MC"
            ],
            &printable
        )
    );
    persist_json("ext_topology", &rows);
}
