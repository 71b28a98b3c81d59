//! EXT-2 — seed sensitivity of the headline result.
//!
//! Table II is one draw of the workload generator. This extension repeats
//! the Table II measurement over independent workload seeds and reports the
//! spread of the makespan reductions — the error bars the paper doesn't
//! show. A stable reproduction should have MCC and MCCK reduction bands
//! that do not overlap zero and do not overlap each other.

use phishare_bench::{banner, persist_json, table1_workload};
use phishare_cluster::report::{pct, table};
use phishare_cluster::sweep::{default_threads, run_sweep, SweepJob};
use phishare_cluster::ClusterConfig;
use phishare_core::ClusterPolicy;
use phishare_sim::Summary;
use serde::Serialize;

const SEEDS: [u64; 5] = [7, 11, 23, 59, 101];
const JOBS: usize = 600; // scaled from 1000 to keep the 15-run grid quick

#[derive(Serialize)]
struct Row {
    seed: u64,
    mcc_reduction_pct: f64,
    mcck_reduction_pct: f64,
}

fn main() {
    banner(
        "EXT-2",
        "seed sensitivity of Table II's reductions",
        "tight bands: MCC ≈ 25–30%, MCCK ≈ 35–39%, never overlapping",
    );

    let mut grid = Vec::new();
    for seed in SEEDS {
        let wl = table1_workload(JOBS, seed);
        for policy in ClusterPolicy::ALL {
            grid.push(SweepJob {
                label: format!("{seed}|{policy}"),
                config: ClusterConfig::paper_cluster(policy),
                workload: wl.clone(),
            });
        }
    }
    let results = run_sweep(grid, default_threads());

    let mut rows = Vec::new();
    let mut mcc_stats = Summary::new();
    let mut mcck_stats = Summary::new();
    let mut printable = Vec::new();
    for (i, chunk) in results.chunks(3).enumerate() {
        let mc = chunk[0].1.as_ref().expect("MC runs");
        let mcc = chunk[1].1.as_ref().expect("MCC runs");
        let mcck = chunk[2].1.as_ref().expect("MCCK runs");
        let (r_mcc, r_mcck) = (
            mcc.makespan_reduction_vs(mc),
            mcck.makespan_reduction_vs(mc),
        );
        mcc_stats.record(r_mcc);
        mcck_stats.record(r_mcck);
        rows.push(Row {
            seed: SEEDS[i],
            mcc_reduction_pct: r_mcc,
            mcck_reduction_pct: r_mcck,
        });
        printable.push(vec![SEEDS[i].to_string(), pct(r_mcc), pct(r_mcck)]);
    }
    printable.push(vec![
        "mean ± σ".into(),
        format!("{} ± {:.1}", pct(mcc_stats.mean()), mcc_stats.std_dev()),
        format!("{} ± {:.1}", pct(mcck_stats.mean()), mcck_stats.std_dev()),
    ]);
    println!(
        "{}",
        table(
            &[
                "Workload seed",
                "MCC reduction vs MC",
                "MCCK reduction vs MC"
            ],
            &printable
        )
    );
    assert!(
        mcck_stats.min() > mcc_stats.max() - 1.0,
        "MCCK band unexpectedly overlaps MCC band"
    );
    persist_json("ext_seed_sensitivity", &rows);
}
