//! Ablation tables for the design choices DESIGN.md calls out: warp
//! count (§3.5.2), bridge ordering (Appendix A), BaM cache capacity, and
//! CXL device count (§4.2.2). Printed as simulated-runtime tables; the
//! criterion `ablation` bench measures the same points as wall-clock
//! benchmarks.

use crate::ctx::ExperimentCtx;
use cxlg_core::metrics::RunReport;
use cxlg_core::system::{AccessConfig, BackendConfig, SystemConfig};
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Ablations";
/// One-line summary (registry + banner).
pub const DESC: &str = "Design-choice sensitivity studies";

#[derive(Serialize)]
struct Entry {
    study: &'static str,
    point: String,
    runtime_ms: f64,
}

/// Graph specs consumed — the urand dataset only (cache-eviction
/// planning; see [`crate::experiment::Experiment::specs`]).
pub fn specs(ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    vec![ctx.paper_datasets()[0]]
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let g = ctx.graph(ctx.paper_datasets()[0]);
    let bfs = Traversal::bfs(0);
    let mut entries: Vec<Entry> = Vec::new();

    // Every study runs BFS from vertex 0 on the same graph, so all
    // twenty-two systems form one group over one trace.
    let warp_points = [64u32, 128, 256, 512, 768, 1024, 2048, 3072];
    let bridges = [("in-order", false), ("out-of-order", true)];
    let cache_denoms = [32u64, 16, 8, 4, 2, 1];
    let device_counts = [1u32, 2, 3, 4, 5, 8];
    let edge_bytes = g.num_edges() * 8;
    let mut systems: Vec<SystemConfig> = Vec::new();
    // 1. Warp count (§3.5.2: concurrency >= Nmax suffices).
    systems.extend(
        warp_points.map(|w| SystemConfig::emogi_on_dram(PcieGen::Gen4).with_active_warps(w)),
    );
    // 2. Bridge ordering (Appendix A).
    systems.extend(bridges.map(|(_, ooo)| {
        let mut sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(2.0);
        if ooo {
            if let BackendConfig::CxlMem { dev, .. } = &mut sys.backend {
                *dev = dev.out_of_order();
            }
        }
        sys
    }));
    // 3. BaM cache capacity (fraction of the edge list).
    systems.extend(cache_denoms.map(|denom| {
        let mut sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4);
        if let AccessConfig::SoftwareCache { capacity_bytes, .. } = &mut sys.access {
            *capacity_bytes = Some((edge_bytes / denom).max(4096 * 64));
        }
        sys
    }));
    // 4. CXL device count (§4.2.2: five devices so tags exceed Nmax).
    systems.extend(device_counts.map(|devices| SystemConfig::emogi_on_cxl(PcieGen::Gen3, devices)));

    let reports = ctx.run_many(&g, bfs, &systems);
    let mut runs = reports.iter();
    let ms = |r: &RunReport| r.metrics.runtime.as_secs_f64() * 1e3;

    println!("\nWarp count (EMOGI/DRAM, Gen4; Nmax = 768):");
    for (w, r) in warp_points.iter().zip(runs.by_ref()) {
        println!("  {w:>5} warps: {:>8.3} ms", ms(r));
        entries.push(Entry {
            study: "warps",
            point: w.to_string(),
            runtime_ms: ms(r),
        });
    }

    println!("\nLatency-bridge ordering (CXL +2 us, Gen3):");
    for ((label, _), r) in bridges.iter().zip(runs.by_ref()) {
        println!("  {label:<14} {:>8.3} ms", ms(r));
        entries.push(Entry {
            study: "bridge",
            point: label.to_string(),
            runtime_ms: ms(r),
        });
    }

    println!("\nBaM software-cache capacity (NVMe, 4 kB lines):");
    for (denom, r) in cache_denoms.iter().zip(runs.by_ref()) {
        println!(
            "  edge/{denom:<3} cache: {:>8.3} ms (RAF {:.2})",
            ms(r),
            r.metrics.raf()
        );
        entries.push(Entry {
            study: "bam-cache",
            point: format!("edge/{denom}"),
            runtime_ms: ms(r),
        });
    }

    println!("\nCXL device count (Gen3, +0 latency):");
    for (devices, r) in device_counts.iter().zip(runs.by_ref()) {
        println!("  {devices:>2} device(s): {:>8.3} ms", ms(r));
        entries.push(Entry {
            study: "cxl-devices",
            point: devices.to_string(),
            runtime_ms: ms(r),
        });
    }

    ctx.dump_json("ablation", &entries);
}
