//! Fast versions of the paper-figure pipelines as criterion benches, so
//! `cargo bench` exercises every experiment path end to end (the
//! full-scale harnesses live in `src/bin/`).

use criterion::{criterion_group, criterion_main, Criterion};
use cxlg_core::microbench::{cxl_cpu_random_read, pointer_chase_latency};
use cxlg_core::raf::{raf_for_trace, default_capacity};
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::bfs_trace;
use cxlg_device::cxl_mem::CxlMemConfig;
use cxlg_graph::spec::GraphSpec;
use cxlg_link::pcie::PcieGen;
use cxlg_model::eqs::{throughput, ThroughputParams};

fn bench_fig_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    let graph = GraphSpec::urand(12).seed(1).build();

    g.bench_function("fig3_raf_point", |b| {
        let trace = bfs_trace(&graph, 0);
        b.iter(|| raf_for_trace(&graph, &trace, 512, default_capacity(&graph, 512)).raf)
    });

    g.bench_function("fig4_model_curve", |b| {
        let p = ThroughputParams::section32_example();
        b.iter(|| {
            (32..4096)
                .step_by(64)
                .map(|d| throughput(&p, d as f64))
                .sum::<f64>()
        })
    });

    g.bench_function("fig9_pointer_chase", |b| {
        let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1).with_added_latency_us(1.0);
        b.iter(|| pointer_chase_latency(&sys, 1 << 22, 100, 1).latency_us)
    });

    g.bench_function("fig10_cpu_reads", |b| {
        b.iter(|| {
            cxl_cpu_random_read(
                CxlMemConfig::default().with_added_latency_us(2.0),
                1 << 26,
                5_000,
                256,
                3,
            )
            .throughput_mb_per_sec
        })
    });

    g.finish();
}

criterion_group!(benches, bench_fig_pipelines);
criterion_main!(benches);
