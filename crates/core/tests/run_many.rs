//! Differential oracle for [`Traversal::run_many`]: tracing once and
//! simulating every system of a group must give, for each system, the
//! exact report a lone [`Traversal::run`] gives — at any worker count —
//! and must read the graph exactly as often as one run does.

use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_graph::{Csr, CsrView, VertexId};
use cxlg_link::pcie::PcieGen;
use std::sync::atomic::{AtomicU64, Ordering};

/// A mixed group: every access method and backend family.
fn mixed_systems() -> Vec<SystemConfig> {
    vec![
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::uvm_on_dram(PcieGen::Gen4),
    ]
}

/// Figure 11's group: the host-DRAM baseline and seven CXL latencies.
fn fig11_systems() -> Vec<SystemConfig> {
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen3)];
    systems.extend((0..7).map(|i| {
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.5)
    }));
    systems
}

fn workloads(g: &impl CsrView) -> Vec<Traversal> {
    let src = g.max_degree_vertex().unwrap();
    vec![
        Traversal::bfs(src),
        Traversal::sssp(src),
        Traversal::pagerank(2),
        Traversal::connected_components(),
    ]
}

#[test]
fn run_many_equals_run_per_system_at_any_worker_count() {
    // urand11 has BFS levels above the parallel-expansion threshold, so
    // the trace itself takes the parallel path at 2 and 8 workers.
    for g in [
        GraphSpec::kron(9).seed(21).build(),
        GraphSpec::urand(11).seed(22).build(),
    ] {
        let systems = mixed_systems();
        for trav in workloads(&g) {
            let lone: Vec<String> = systems
                .iter()
                .map(|sys| serde_json::to_string(&trav.run(&g, sys)).unwrap())
                .collect();
            for workers in [1, 2, 8] {
                let grouped = rayon::with_num_threads(workers, || trav.run_many(&g, &systems));
                assert_eq!(grouped.len(), systems.len());
                for (i, report) in grouped.iter().enumerate() {
                    assert_eq!(
                        serde_json::to_string(report).unwrap(),
                        lone[i],
                        "{} on {} differs at {workers} worker(s)",
                        trav.name(),
                        systems[i].label()
                    );
                }
            }
        }
    }
}

/// A [`CsrView`] that counts the graph reads a trace makes: sublist
/// reads (`with_neighbors` calls, which every neighbor visit goes
/// through), the arcs they deliver, and degree queries (PageRank's trace
/// reads only degrees). Planning reads `sublist_range` directly, so the
/// per-system work is not counted.
struct Counting<'a> {
    inner: &'a Csr,
    sublists: AtomicU64,
    arcs: AtomicU64,
    degrees: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a Csr) -> Self {
        Counting {
            inner,
            sublists: AtomicU64::new(0),
            arcs: AtomicU64::new(0),
            degrees: AtomicU64::new(0),
        }
    }

    /// `(sublists, arcs, degree queries)` read since the last call.
    fn take(&self) -> (u64, u64, u64) {
        (
            self.sublists.swap(0, Ordering::Relaxed),
            self.arcs.swap(0, Ordering::Relaxed),
            self.degrees.swap(0, Ordering::Relaxed),
        )
    }
}

impl CsrView for Counting<'_> {
    fn num_vertices(&self) -> usize {
        CsrView::num_vertices(self.inner)
    }
    fn num_edges(&self) -> u64 {
        CsrView::num_edges(self.inner)
    }
    fn sublist_range(&self, v: VertexId) -> (u64, u64) {
        CsrView::sublist_range(self.inner, v)
    }
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
        self.sublists.fetch_add(1, Ordering::Relaxed);
        CsrView::with_neighbors(self.inner, v, &mut |w| {
            self.arcs.fetch_add(w.len() as u64, Ordering::Relaxed);
            f(w)
        });
    }
    fn fingerprint(&self) -> u64 {
        CsrView::fingerprint(self.inner)
    }
    fn degree(&self, v: VertexId) -> u64 {
        self.degrees.fetch_add(1, Ordering::Relaxed);
        CsrView::degree(self.inner, v)
    }
}

#[test]
fn run_many_traces_once_for_the_whole_group() {
    let csr = GraphSpec::urand(10).seed(23).build();
    let g = Counting::new(&csr);
    let systems = fig11_systems();
    assert_eq!(systems.len(), 8);
    for trav in workloads(&csr) {
        g.take();
        let one = trav.run(&g, &systems[1]);
        let single = g.take();
        assert!(
            single.0 + single.2 > 0,
            "{}: the trace read nothing",
            trav.name()
        );
        let group = trav.run_many(&g, &systems);
        assert_eq!(
            g.take(),
            single,
            "{}: eight systems must read the graph exactly as often as one run",
            trav.name()
        );
        assert_eq!(
            serde_json::to_string(&group[1]).unwrap(),
            serde_json::to_string(&one).unwrap()
        );
    }
    // An empty group does no work at all, not even the trace.
    assert!(Traversal::bfs(0).run_many(&g, &[]).is_empty());
    assert_eq!(g.take(), (0, 0, 0));
}
