//! Criterion benches of end-to-end traversal runs (simulator wall-clock
//! cost, not simulated time) across workloads and backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_link::pcie::PcieGen;

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("traversal");
    g.sample_size(10);
    let graph = GraphSpec::urand(13).seed(1).build();
    let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
    for (label, trav) in [
        ("bfs", Traversal::bfs(0)),
        ("sssp", Traversal::sssp(0)),
        ("pagerank2", Traversal::pagerank(2)),
        ("cc", Traversal::connected_components()),
    ] {
        g.bench_function(BenchmarkId::new("workload", label), |b| {
            b.iter(|| trav.run(&graph, &sys).metrics.runtime)
        });
    }
    g.finish();
}

fn bench_bfs_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("bfs_backend");
    g.sample_size(10);
    let graph = GraphSpec::urand(13).seed(1).build();
    for (label, sys) in [
        ("dram", SystemConfig::emogi_on_dram(PcieGen::Gen4)),
        ("cxl", SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5)),
        ("xlfdd", SystemConfig::xlfdd(PcieGen::Gen4, 16)),
        ("bam", SystemConfig::bam_on_nvme(PcieGen::Gen4, 4)),
    ] {
        g.bench_function(BenchmarkId::new("backend", label), |b| {
            b.iter(|| Traversal::bfs(0).run(&graph, &sys).metrics.runtime)
        });
    }
    g.finish();
}

/// Figure 11's group — the host-DRAM baseline and seven CXL latencies —
/// as one `run_many` call (one shared trace) next to eight separate
/// `run` calls (eight traces): the before/after row for trace sharing.
fn bench_run_many_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("traversal");
    g.sample_size(10);
    let graph = GraphSpec::urand(13).seed(1).build();
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen3)];
    systems.extend((0..7).map(|i| {
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.5)
    }));
    let bfs = Traversal::bfs(0);
    g.bench_function(BenchmarkId::new("run_many_fig11", "run_many"), |b| {
        b.iter(|| bfs.run_many(&graph, &systems))
    });
    g.bench_function(BenchmarkId::new("run_many_fig11", "separate_runs"), |b| {
        b.iter(|| systems.iter().map(|sys| bfs.run(&graph, sys)).collect::<Vec<_>>())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_workloads,
    bench_bfs_backends,
    bench_run_many_fig11
);
criterion_main!(benches);
