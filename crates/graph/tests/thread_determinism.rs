//! Cross-thread-count determinism of the graph pipeline.
//!
//! The vendored rayon executes on a real thread pool, but chunk
//! boundaries depend only on input length and ordered collection puts
//! every chunk's output back in input order — so the edge lists coming
//! out of every generator, and the CSR built from them, must be
//! **byte-identical** no matter how many workers run. These tests pin
//! that contract at 1, 2, and 8 threads (an undersubscribed, matched,
//! and oversubscribed pool for any CI machine), across a property sweep
//! of seeds and scales.
//!
//! This file covers the *graph* layer only. The workspace-level suite in
//! `tests/determinism.rs` and the golden oracle in
//! `crates/core/tests/run_golden.rs` extend the same contract to the
//! traversal and simulation (`RunReport` and trace bytes at any worker
//! count).

use cxlg_graph::builder::csr_from_edges;
use cxlg_graph::gen::{kronecker, social, uniform};
use cxlg_graph::{Csr, VertexId};
use proptest::prelude::*;

/// Thread counts compared against the single-threaded reference.
const THREAD_COUNTS: [usize; 2] = [2, 8];

/// Build with 1 thread, rebuild at each other pool size, and require the
/// raw CSR arrays (offsets + targets, i.e. the whole edge list) to match
/// element-for-element — `u64`/`u32` equality is byte equality.
fn assert_thread_count_invariant(label: &str, build: impl Fn() -> Csr) {
    let reference = rayon::with_num_threads(1, &build);
    for threads in THREAD_COUNTS {
        let got = rayon::with_num_threads(threads, &build);
        assert_eq!(
            got.offsets(),
            reference.offsets(),
            "{label}: CSR offsets differ between 1 and {threads} threads"
        );
        assert_eq!(
            got.targets(),
            reference.targets(),
            "{label}: edge list differs between 1 and {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn uniform_generator_is_thread_count_invariant(scale in 7u32..11, seed in 0u64..1_000_000) {
        assert_thread_count_invariant("uniform", || uniform::generate(scale, 16, seed));
    }

    #[test]
    fn kronecker_generator_is_thread_count_invariant(scale in 7u32..11, seed in 0u64..1_000_000) {
        assert_thread_count_invariant("kronecker", || kronecker::generate(scale, 16, seed));
    }

    #[test]
    fn social_generator_is_thread_count_invariant(scale in 7u32..11, seed in 0u64..1_000_000) {
        assert_thread_count_invariant("social", || social::generate(scale, 20, seed));
    }

    #[test]
    fn csr_builder_is_thread_count_invariant(seed in 0u64..1_000_000, n in 16u32..500) {
        // Raw edge pairs (with duplicates and self-loops) through the
        // pack/extend/sort path, both symmetrized and not.
        let mut state = seed | 1;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..(n as usize * 8) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            edges.push((((state >> 33) % n as u64) as VertexId, ((state >> 13) % n as u64) as VertexId));
        }
        for (symmetrize, dedup) in [(false, false), (true, true)] {
            assert_thread_count_invariant("builder", || {
                csr_from_edges(n as usize, &edges, symmetrize, dedup)
            });
        }
    }
}

/// The generators at the exact sizes where the pool splits unevenly
/// (lengths straddling the chunk-count cap) — a directed regression net
/// under the property sweep.
#[test]
fn generators_deterministic_at_default_bench_shape() {
    assert_thread_count_invariant("urand-bench", || uniform::generate(12, 32, 0x5EED));
    assert_thread_count_invariant("kron-bench", || kronecker::generate(12, 16, 0x5EED));
    assert_thread_count_invariant("social-bench", || social::generate(12, 55, 0x5EED));
}
