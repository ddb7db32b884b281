//! Graph traversal workloads executed against the simulated system.
//!
//! BFS and SSSP are the paper's representative "fine-grained random
//! access" workloads (§2.1, §4): level-synchronous kernels in which each
//! frontier vertex's edge sublist is fetched on demand from external
//! memory. PageRank and connected components are implemented as
//! extensions (the Discussion section contrasts sequential-access
//! algorithms like PageRank with the random-access ones studied here).
//!
//! The algorithm logic is deliberately split from timing: a *trace*
//! generator produces per-level frontiers (pure graph computation), and
//! the timed run feeds those frontiers' sublists through the access
//! method and the DES engine. The RAF simulation (`raf.rs`) reuses the
//! same traces, so Figure 3 and the runtime figures see identical access
//! orders.
//!
//! # Execution path
//!
//! [`Traversal::run_many`] is the one way a workload is simulated. The
//! trace is pure graph computation and does not depend on the system, so
//! it is computed once per call and shared by every system in the group;
//! [`Traversal::run`] is `run_many` over a single system. Each system
//! then builds its own access method and engine and streams the levels:
//! each level's sublist spans are planned through the access method
//! (stateful across levels — the BaM cache, UVM fault tracking) into a
//! reused request buffer, and the batch runs on the engine starting on
//! the clock where the previous level ended. A single engine per system
//! is required, not just convenient: flash media keep page registers,
//! plane busy times and a jitter RNG across level barriers, and the
//! credit pool's occupancy integral and the run clock are continuous
//! over the run.
//!
//! The group's systems fan out over the rayon pool (one level of
//! parallelism: callers run groups one after another), and only the one
//! shared trace is alive while they run. Every report is exactly the one
//! a lone `run` gives: the simulations share nothing but the read-only
//! trace and graph.
//!
//! Within the trace itself, BFS frontier expansion is parallelized
//! (candidate collection against the level-entry `visited` snapshot,
//! ordered concatenation, sort + dedup — provably the same vertex set
//! the sequential mark-as-you-go loop produces). SSSP and CC rounds are
//! Gauss–Seidel: a relaxation made early in a round feeds relaxations
//! later in the same round, so their expansion order is semantic and
//! stays sequential — their determinism across thread counts is the
//! trivial kind.

use crate::access::DeviceRequest;
use crate::metrics::{LevelStats, RunMetrics, RunReport};
use crate::system::SystemConfig;
use cxlg_graph::layout::EdgeListLayout;
use cxlg_graph::{CsrView, VertexId};
use cxlg_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// Breadth-first search from a source vertex.
    Bfs {
        /// Source vertex.
        source: VertexId,
    },
    /// Single-source shortest path (frontier-based Bellman–Ford, as in
    /// EMOGI) with deterministic integer weights in `[1, max_weight]`.
    Sssp {
        /// Source vertex.
        source: VertexId,
        /// Largest edge weight.
        max_weight: u32,
    },
    /// PageRank-style full-edge-list sweeps (sequential access pattern).
    PageRank {
        /// Number of iterations.
        iterations: u32,
    },
    /// Connected components via label propagation.
    ConnectedComponents,
}

/// A configured traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Traversal {
    /// The workload to execute.
    pub workload: Workload,
}

impl Traversal {
    /// BFS from `source`.
    pub fn bfs(source: VertexId) -> Self {
        Traversal {
            workload: Workload::Bfs { source },
        }
    }

    /// SSSP from `source` with the paper-style weight range `[1, 64]`.
    pub fn sssp(source: VertexId) -> Self {
        Traversal {
            workload: Workload::Sssp {
                source,
                max_weight: 64,
            },
        }
    }

    /// PageRank with `iterations` full sweeps.
    pub fn pagerank(iterations: u32) -> Self {
        Traversal {
            workload: Workload::PageRank { iterations },
        }
    }

    /// Connected components.
    pub fn connected_components() -> Self {
        Traversal {
            workload: Workload::ConnectedComponents,
        }
    }

    /// Workload name for reports.
    pub fn name(&self) -> &'static str {
        match self.workload {
            Workload::Bfs { .. } => "bfs",
            Workload::Sssp { .. } => "sssp",
            Workload::PageRank { .. } => "pagerank",
            Workload::ConnectedComponents => "cc",
        }
    }

    /// Generate the per-level vertex frontiers without timing anything.
    /// Each level lists the vertices whose sublists are read, in the
    /// (sorted) order the GPU kernel would process them.
    pub fn trace<G: CsrView + ?Sized>(&self, g: &G) -> Vec<Vec<VertexId>> {
        self.trace_with_reached(g).0
    }

    /// The trace plus the reached/processed vertex count, computed in
    /// one pass (SSSP previously re-ran the whole Bellman–Ford to count
    /// reached vertices).
    fn trace_with_reached<G: CsrView + ?Sized>(&self, g: &G) -> (Vec<Vec<VertexId>>, u64) {
        match self.workload {
            Workload::Bfs { source } => {
                let t = bfs_trace(g, source);
                let reached = t.iter().map(|l| l.len() as u64).sum();
                (t, reached)
            }
            Workload::Sssp { source, max_weight } => sssp_trace_with_reached(g, source, max_weight),
            Workload::PageRank { iterations } => {
                (pagerank_trace(g, iterations), g.num_vertices() as u64)
            }
            Workload::ConnectedComponents => cc_trace(g),
        }
    }

    /// Run the workload on a simulated system, producing full metrics:
    /// [`run_many`](Self::run_many) over the one system.
    pub fn run<G: CsrView + ?Sized>(&self, g: &G, sys: &SystemConfig) -> RunReport {
        let mut reports = self.run_many(g, std::slice::from_ref(sys));
        reports
            .pop()
            .expect("run_many returns one report per system")
    }

    /// Run the workload on every system in `systems`, tracing it once,
    /// and return one report per system in input order.
    ///
    /// The systems fan out over the rayon pool; each plans and simulates
    /// one level at a time on its own engine (see the module docs), so
    /// only one level's requests per system are alive at a time. Report
    /// `i` is byte-identical to `run(g, &systems[i])` at any
    /// `RAYON_NUM_THREADS`: each simulation is sequential, and the
    /// trace's only parallel stage, BFS frontier expansion, is
    /// thread-count invariant.
    pub fn run_many<G: CsrView + ?Sized>(&self, g: &G, systems: &[SystemConfig]) -> Vec<RunReport> {
        use rayon::prelude::*;
        if systems.is_empty() {
            return Vec::new();
        }
        let (trace, reached) = self.trace_with_reached(g);
        let layout = EdgeListLayout::new(g);
        systems
            .par_iter()
            .map(|sys| self.simulate(&layout, &trace, reached, sys))
            .collect()
    }

    /// Plan and simulate a traced workload on one system: one engine,
    /// one reused request buffer, one batch per level.
    fn simulate<G: CsrView + ?Sized>(
        &self,
        layout: &EdgeListLayout<'_, G>,
        trace: &[Vec<VertexId>],
        reached: u64,
        sys: &SystemConfig,
    ) -> RunReport {
        let mut access = sys.build_access(layout.edge_list_bytes());
        let mut engine = sys.build_engine();
        let mut reqs: Vec<DeviceRequest> = Vec::new();
        let mut levels = Vec::with_capacity(trace.len());
        let mut total_useful = 0u64;
        let mut total_hits = 0u64;
        let mut t = SimTime::ZERO;
        for (depth, frontier) in trace.iter().enumerate() {
            reqs.clear();
            access.begin_level();
            let mut useful = 0u64;
            for &v in frontier {
                let span = layout.sublist_span(v);
                useful += span.len;
                total_hits += access.requests_for_span(span, &mut reqs);
            }
            total_useful += useful;
            let level_start = t;
            let batch = engine.run_batch(t, &reqs);
            t = batch.end;
            levels.push(LevelStats {
                depth: depth as u32,
                frontier: frontier.len() as u64,
                useful_bytes: useful,
                fetched_bytes: batch.fetched_bytes,
                runtime: t.saturating_since(level_start),
            });
        }
        let mut metrics: RunMetrics = engine.finish();
        metrics.useful_bytes = total_useful;
        metrics.cache_hits = total_hits;
        metrics.runtime = t.saturating_since(SimTime::ZERO);
        RunReport {
            metrics,
            levels,
            reached,
            workload: self.name().to_string(),
            backend: sys.label(),
        }
    }
}

/// Frontier size above which BFS expansion fans out across the pool.
/// Purely a granularity knob: both paths produce the identical frontier,
/// so the threshold can never affect results, only wall-clock.
const PAR_FRONTIER_MIN: usize = 2048;

/// Level-synchronous BFS frontier trace. Frontiers are sorted by vertex
/// ID, matching GPU kernels that compact the frontier from status arrays.
pub fn bfs_trace<G: CsrView + ?Sized>(g: &G, source: VertexId) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut visited = vec![false; n];
    visited[source as usize] = true;
    let mut frontier = vec![source];
    let mut levels = Vec::new();
    while !frontier.is_empty() {
        let next = expand_bfs_frontier(g, &frontier, &mut visited);
        levels.push(std::mem::replace(&mut frontier, next));
    }
    levels
}

/// The next BFS frontier: every unvisited neighbor of `frontier`, sorted,
/// marked visited on return.
///
/// The parallel path collects candidates against the level-entry
/// `visited` snapshot (read-only), concatenates per-chunk results in
/// chunk order, then sorts and dedups. That set equals the sequential
/// mark-as-you-go set exactly: a vertex is in either iff it is an
/// unvisited neighbor of some frontier vertex, and both outputs are
/// sorted — so the trace is byte-identical at any `RAYON_NUM_THREADS`.
fn expand_bfs_frontier<G: CsrView + ?Sized>(
    g: &G,
    frontier: &[VertexId],
    visited: &mut [bool],
) -> Vec<VertexId> {
    if frontier.len() < PAR_FRONTIER_MIN {
        let mut next = Vec::new();
        for &v in frontier {
            g.for_neighbors(v, &mut |u| {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    next.push(u);
                }
            });
        }
        next.sort_unstable();
        next
    } else {
        use rayon::prelude::*;
        let snapshot: &[bool] = visited;
        // Per-vertex candidate collection through the streaming accessor;
        // chunk order is erased by the sort + dedup below, exactly as in
        // the slice-based path this replaces.
        let per_vertex: Vec<Vec<VertexId>> = frontier
            .par_iter()
            .map(|&v| {
                let mut c = Vec::new();
                g.with_neighbors(v, &mut |w| {
                    c.extend(w.iter().copied().filter(|&u| !snapshot[u as usize]));
                });
                c
            })
            .collect();
        let mut next: Vec<VertexId> = per_vertex.into_iter().flatten().collect();
        next.par_sort_unstable();
        next.dedup();
        for &u in &next {
            visited[u as usize] = true;
        }
        next
    }
}

/// Frontier-based Bellman–Ford rounds: each round reads the sublists of
/// vertices whose distance improved in the previous round.
pub fn sssp_trace<G: CsrView + ?Sized>(g: &G, source: VertexId, max_weight: u32) -> Vec<Vec<VertexId>> {
    sssp_trace_with_reached(g, source, max_weight).0
}

/// [`sssp_trace`] plus the reached-vertex count from the same pass (the
/// final distance array is already in hand when the rounds converge, so
/// counting costs one scan instead of a second full Bellman–Ford).
///
/// Rounds are Gauss–Seidel: a distance lowered early in a round feeds
/// relaxations later in the same round, so the in-round processing order
/// is part of the algorithm's semantics and the expansion stays
/// sequential (see the module docs).
pub fn sssp_trace_with_reached<G: CsrView + ?Sized>(
    g: &G,
    source: VertexId,
    max_weight: u32,
) -> (Vec<Vec<VertexId>>, u64) {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut rounds = Vec::new();
    while !frontier.is_empty() {
        rounds.push(frontier.clone());
        let mut improved = Vec::new();
        for &v in &frontier {
            let dv = dist[v as usize];
            g.for_neighbors(v, &mut |u| {
                let w = g.edge_weight(v, u, max_weight) as u64;
                if dv + w < dist[u as usize] {
                    dist[u as usize] = dv + w;
                    improved.push(u);
                }
            });
        }
        improved.sort_unstable();
        improved.dedup();
        frontier = improved;
    }
    let reached = dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
    (rounds, reached)
}

/// PageRank access trace: every iteration reads every (non-isolated)
/// vertex's sublist in ID order — the sequential pattern the Discussion
/// section contrasts with BFS.
pub fn pagerank_trace<G: CsrView + ?Sized>(g: &G, iterations: u32) -> Vec<Vec<VertexId>> {
    let all: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| g.degree(v) > 0)
        .collect();
    (0..iterations).map(|_| all.clone()).collect()
}

/// Compute PageRank values (damping 0.85) for result validation; the
/// access trace is produced by [`pagerank_trace`].
pub fn pagerank_values<G: CsrView + ?Sized>(g: &G, iterations: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let d = 0.85;
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = (1.0 - d) / n as f64);
        let mut dangling = 0.0;
        for v in 0..n as VertexId {
            let deg = g.degree(v);
            if deg == 0 {
                // cxlg-lint: allow(D4) -- sequential fold in fixed vertex order (0..n); order is structural, pinned by pagerank determinism tests
                dangling += rank[v as usize];
                continue;
            }
            let share = d * rank[v as usize] / deg as f64;
            g.for_neighbors(v, &mut |u| {
                next[u as usize] += share;
            });
        }
        let spread = d * dangling / n as f64;
        next.iter_mut().for_each(|x| *x += spread);
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Label-propagation connected components: returns the per-round frontier
/// trace and the number of components found. Like SSSP, rounds are
/// Gauss–Seidel (labels lowered early in a round propagate within it),
/// so the expansion is sequential by design.
pub fn cc_trace<G: CsrView + ?Sized>(g: &G) -> (Vec<Vec<VertexId>>, u64) {
    let n = g.num_vertices();
    let mut label: Vec<VertexId> = (0..n as VertexId).collect();
    let mut frontier: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.degree(v) > 0).collect();
    let mut rounds = Vec::new();
    while !frontier.is_empty() {
        rounds.push(frontier.clone());
        let mut changed = Vec::new();
        for &v in &frontier {
            let lv = label[v as usize];
            g.for_neighbors(v, &mut |u| {
                if lv < label[u as usize] {
                    label[u as usize] = lv;
                    changed.push(u);
                }
            });
        }
        changed.sort_unstable();
        changed.dedup();
        frontier = changed;
    }
    let mut roots: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| g.degree(v) > 0)
        .map(|v| label[v as usize])
        .collect();
    roots.sort_unstable();
    roots.dedup();
    // Isolated vertices each count as their own component.
    let components = roots.len() as u64 + g.num_isolated() as u64;
    (rounds, components)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::spec::GraphSpec;
    use cxlg_graph::Csr;
    use cxlg_link::pcie::PcieGen;

    fn path_graph(n: usize) -> Csr {
        // 0 - 1 - 2 - ... - (n-1), undirected.
        let edges: Vec<(VertexId, VertexId)> =
            (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        cxlg_graph::builder::csr_from_edges(n, &edges, true, false)
    }

    #[test]
    fn bfs_trace_on_path_has_one_vertex_per_level() {
        let g = path_graph(5);
        let t = bfs_trace(&g, 0);
        assert_eq!(t.len(), 5);
        for (d, level) in t.iter().enumerate() {
            assert_eq!(level, &vec![d as VertexId]);
        }
    }

    #[test]
    fn bfs_trace_counts_match_reachability() {
        let g = GraphSpec::urand(10).seed(3).build();
        let t = bfs_trace(&g, 0);
        let total: usize = t.iter().map(|l| l.len()).sum();
        // urand at degree 32 is connected with overwhelming probability.
        assert_eq!(total, g.num_vertices());
        // Frontiers are sorted and disjoint.
        let mut seen = std::collections::HashSet::new();
        for level in &t {
            assert!(level.windows(2).all(|w| w[0] < w[1]));
            for &v in level {
                assert!(seen.insert(v), "vertex {v} in two levels");
            }
        }
    }

    #[test]
    fn parallel_bfs_expansion_equals_sequential() {
        // Force both expansion paths over the same levels and compare
        // frontiers element-for-element. urand(12) has levels well above
        // and below PAR_FRONTIER_MIN, so both branches are exercised.
        let g = GraphSpec::urand(12).seed(7).build();
        let par = bfs_trace(&g, 0);
        let mut visited = vec![false; g.num_vertices()];
        visited[0] = true;
        let mut frontier = vec![0 as VertexId];
        let mut seq_levels = Vec::new();
        while !frontier.is_empty() {
            seq_levels.push(frontier.clone());
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in g.neighbors(v) {
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        next.push(u);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        assert!(
            par.iter().any(|l| l.len() >= PAR_FRONTIER_MIN),
            "test graph never hits the parallel expansion path"
        );
        assert_eq!(par, seq_levels);
    }

    #[test]
    fn bfs_frontier_profile_is_hump_shaped() {
        // Table 2's pattern: tiny, growing, huge, then collapsing.
        let g = GraphSpec::urand(12).seed(1).build();
        let t = bfs_trace(&g, 0);
        let sizes: Vec<usize> = t.iter().map(|l| l.len()).collect();
        let peak = *sizes.iter().max().unwrap();
        let peak_idx = sizes.iter().position(|&s| s == peak).unwrap();
        assert!(peak > g.num_vertices() / 4, "peak {peak}");
        assert!(peak_idx > 0 && peak_idx < sizes.len() - 1);
        assert!(sizes[0] == 1);
    }

    #[test]
    fn sssp_visits_at_least_bfs_vertices_and_more_reads() {
        let g = GraphSpec::urand(9).seed(2).build();
        let bfs: usize = bfs_trace(&g, 0).iter().map(|l| l.len()).sum();
        let sssp: usize = sssp_trace(&g, 0, 64).iter().map(|l| l.len()).sum();
        assert!(
            sssp >= bfs,
            "SSSP re-reads should exceed BFS: {sssp} vs {bfs}"
        );
    }

    #[test]
    fn sssp_distances_are_shortest() {
        // On the path graph, every vertex is reachable along the only
        // path, and the trace pass itself now reports the count.
        let g = path_graph(6);
        let (rounds, reached) = sssp_trace_with_reached(&g, 0, 64);
        assert_eq!(reached, 6);
        // The trace and the count come from the same pass.
        let visited: usize = rounds.iter().map(|r| r.len()).sum();
        assert!(visited >= 6);
    }

    #[test]
    fn pagerank_values_sum_to_one() {
        let g = GraphSpec::kron(8).seed(5).build();
        let pr = pagerank_values(&g, 10);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(pr.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn cc_finds_components() {
        // Two disjoint paths => 2 components (plus no isolated vertices).
        let edges = vec![(0, 1), (1, 2), (3, 4)];
        let g = cxlg_graph::builder::csr_from_edges(5, &edges, true, false);
        let (_, components) = cc_trace(&g);
        assert_eq!(components, 2);
    }

    #[test]
    fn cc_counts_isolated_vertices() {
        let edges = vec![(0, 1)];
        let g = cxlg_graph::builder::csr_from_edges(4, &edges, true, false);
        let (_, components) = cc_trace(&g);
        assert_eq!(components, 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn run_produces_consistent_report() {
        let g = GraphSpec::urand(9).seed(1).build();
        let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
        let report = Traversal::bfs(0).run(&g, &sys);
        assert_eq!(report.workload, "bfs");
        assert_eq!(report.backend, "host-dram:emogi");
        assert_eq!(report.reached, g.num_vertices() as u64);
        assert!(report.metrics.runtime.as_us_f64() > 0.0);
        // Zero-copy reads cover every useful byte at least once.
        assert!(report.metrics.fetched_bytes >= report.metrics.useful_bytes);
        // E equals the whole edge list for a full BFS.
        assert_eq!(
            report.metrics.useful_bytes,
            g.num_edges() * 8
        );
        // RAF for 32 B alignment on 8 B entries is modest (§3.1).
        let raf = report.metrics.raf();
        assert!((1.0..2.0).contains(&raf), "RAF {raf}");
    }

    #[test]
    fn deterministic_runs() {
        let g = GraphSpec::kron(8).seed(4).build();
        let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0);
        let a = Traversal::bfs(g.max_degree_vertex().unwrap()).run(&g, &sys);
        let b = Traversal::bfs(g.max_degree_vertex().unwrap()).run(&g, &sys);
        assert_eq!(a.metrics.runtime, b.metrics.runtime);
        assert_eq!(a.metrics.fetched_bytes, b.metrics.fetched_bytes);
    }

    #[test]
    fn trace_and_run_agree_on_levels() {
        let g = GraphSpec::urand(8).seed(9).build();
        let trav = Traversal::bfs(0);
        let trace = trav.trace(&g);
        let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
        let report = trav.run(&g, &sys);
        assert_eq!(report.levels.len(), trace.len());
        for (ls, tr) in report.levels.iter().zip(&trace) {
            assert_eq!(ls.frontier, tr.len() as u64);
        }
    }
}
