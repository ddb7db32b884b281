//! Figure 6: BFS and SSSP runtimes on XLFDD (16 B alignment) and BaM
//! (4 kB) across the three datasets, normalized by EMOGI on host DRAM
//! (§4.1.2).

use crate::ctx::ExperimentCtx;
use crate::good_source;
use cxlg_core::runner::geometric_mean;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 6";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "XLFDD and BaM runtimes normalized by EMOGI (BFS & SSSP × 3 datasets)";

#[derive(Serialize)]
struct Cell {
    workload: &'static str,
    dataset: String,
    xlfdd_normalized: f64,
    bam_normalized: f64,
}

/// Graph specs consumed — all three paper datasets (cache-eviction
/// planning; see [`crate::experiment::Experiment::specs`]).
pub fn specs(ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    ctx.paper_datasets().to_vec()
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let datasets = ctx.paper_datasets();
    // One group per (dataset, workload): EMOGI, XLFDD and BaM share a trace.
    let systems = [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for spec in datasets {
        let g = ctx.graph(spec);
        let src = good_source(&g);
        for (workload, trav) in [("BFS", Traversal::bfs(src)), ("SSSP", Traversal::sssp(src))] {
            let runs = ctx.run_many(&g, trav, &systems);
            let base = runs[0].metrics.runtime.as_secs_f64();
            cells.push(Cell {
                workload,
                dataset: spec.name(),
                xlfdd_normalized: runs[1].metrics.runtime.as_secs_f64() / base,
                bam_normalized: runs[2].metrics.runtime.as_secs_f64() / base,
            });
        }
    }

    println!(
        "{:<6} {:<16} {:>10} {:>10}",
        "Algo", "Dataset", "XLFDD", "BaM"
    );
    for c in &cells {
        println!(
            "{:<6} {:<16} {:>10.2} {:>10.2}",
            c.workload, c.dataset, c.xlfdd_normalized, c.bam_normalized
        );
    }
    let xl_geo = geometric_mean(&cells.iter().map(|c| c.xlfdd_normalized).collect::<Vec<_>>());
    let bam_geo = geometric_mean(&cells.iter().map(|c| c.bam_normalized).collect::<Vec<_>>());
    println!();
    println!(
        "Geometric means over the six pairs: XLFDD {xl_geo:.2}x, BaM {bam_geo:.2}x \
         (paper: 1.13x and 2.76x)"
    );
    ctx.dump_json("fig6", &cells);
}
