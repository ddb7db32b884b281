//! Golden oracle for the one execution path, [`Traversal::run`].
//!
//! Every cell of the matrix graph family × system × workload is run and
//! its serialized [`RunReport`](cxlg_core::metrics::RunReport) hashed with
//! 64-bit FNV-1a. The pinned digests were captured from the round-shard
//! simulator that preceded the single coupled engine, whose sharded and
//! coupled paths were proven bit-identical; matching them shows the
//! surviving path produces the same bytes. Each cell is checked at 1, 2
//! and 8 workers, so the BFS frontier expansion and any future
//! parallelism inside a run must stay thread-count invariant too.

use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_graph::Csr;
use cxlg_link::pcie::PcieGen;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn families() -> Vec<(&'static str, Csr)> {
    vec![
        ("urand9", GraphSpec::urand(9).seed(11).build()),
        ("kron9", GraphSpec::kron(9).seed(12).build()),
        (
            "friendster8",
            GraphSpec::friendster_like(8).seed(13).build(),
        ),
    ]
}

fn systems() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("emogi_dram", SystemConfig::emogi_on_dram(PcieGen::Gen4)),
        (
            "emogi_cxl",
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
        ),
        ("uvm_dram", SystemConfig::uvm_on_dram(PcieGen::Gen4)),
        ("bam_nvme", SystemConfig::bam_on_nvme(PcieGen::Gen4, 4)),
        ("xlfdd", SystemConfig::xlfdd(PcieGen::Gen4, 16)),
    ]
}

fn workloads(g: &Csr) -> Vec<(&'static str, Traversal)> {
    let src = g.max_degree_vertex().unwrap();
    vec![
        ("bfs", Traversal::bfs(src)),
        ("sssp", Traversal::sssp(src)),
        ("pagerank2", Traversal::pagerank(2)),
        ("cc", Traversal::connected_components()),
    ]
}

/// `(family, system, workload, FNV-1a 64 of the report JSON)`.
const GOLDEN: [(&str, &str, &str, u64); 60] = [
    ("urand9", "emogi_dram", "bfs", 0x93dd5f83752e8196),
    ("urand9", "emogi_dram", "sssp", 0x35b1716c6d80bb28),
    ("urand9", "emogi_dram", "pagerank2", 0x429608bd76866def),
    ("urand9", "emogi_dram", "cc", 0x99a1c442ebeb028e),
    ("urand9", "emogi_cxl", "bfs", 0x6502aa3d77ec3c44),
    ("urand9", "emogi_cxl", "sssp", 0x040d838d1018d5a7),
    ("urand9", "emogi_cxl", "pagerank2", 0x784821ddac2687c9),
    ("urand9", "emogi_cxl", "cc", 0x99d8d36092bb4ef6),
    ("urand9", "uvm_dram", "bfs", 0x3bbbe4a3ae794203),
    ("urand9", "uvm_dram", "sssp", 0x8be1c07f9fdbd1b3),
    ("urand9", "uvm_dram", "pagerank2", 0x63478afcf85dab3a),
    ("urand9", "uvm_dram", "cc", 0xe61a71891523e93c),
    ("urand9", "bam_nvme", "bfs", 0x494f3c8bde4b1ec7),
    ("urand9", "bam_nvme", "sssp", 0xf3303c8078a52d67),
    ("urand9", "bam_nvme", "pagerank2", 0xa2283eafd71403cd),
    ("urand9", "bam_nvme", "cc", 0xa1fdf76f1a40f92b),
    ("urand9", "xlfdd", "bfs", 0x2176433bbf2e703b),
    ("urand9", "xlfdd", "sssp", 0xd75db0d321f0fe88),
    ("urand9", "xlfdd", "pagerank2", 0x0ef9eafef50ef8ae),
    ("urand9", "xlfdd", "cc", 0xc1fbc59671619a52),
    ("kron9", "emogi_dram", "bfs", 0x096da8d431e0ee67),
    ("kron9", "emogi_dram", "sssp", 0xf7544db86b94feb6),
    ("kron9", "emogi_dram", "pagerank2", 0x5547c0ed601ee638),
    ("kron9", "emogi_dram", "cc", 0x8c7c286065e80575),
    ("kron9", "emogi_cxl", "bfs", 0xb787b5db3ec15e0a),
    ("kron9", "emogi_cxl", "sssp", 0x1824629983de9a59),
    ("kron9", "emogi_cxl", "pagerank2", 0xc671da362b2bf8ea),
    ("kron9", "emogi_cxl", "cc", 0xdf07633d3d681eaa),
    ("kron9", "uvm_dram", "bfs", 0x453d1c86764764f5),
    ("kron9", "uvm_dram", "sssp", 0x63a88506ffe481e1),
    ("kron9", "uvm_dram", "pagerank2", 0x532bc4c655e1df59),
    ("kron9", "uvm_dram", "cc", 0x92cb7c866025072a),
    ("kron9", "bam_nvme", "bfs", 0xd372f700fa3fabd5),
    ("kron9", "bam_nvme", "sssp", 0x037c438d476bbcc5),
    ("kron9", "bam_nvme", "pagerank2", 0xf59b6171e0757710),
    ("kron9", "bam_nvme", "cc", 0x9fae450d4d4cd0b9),
    ("kron9", "xlfdd", "bfs", 0xa51ca87d9daf750d),
    ("kron9", "xlfdd", "sssp", 0x9acd67020ba2c2b2),
    ("kron9", "xlfdd", "pagerank2", 0x97f4a957cfd3cece),
    ("kron9", "xlfdd", "cc", 0x9874456508433601),
    ("friendster8", "emogi_dram", "bfs", 0xb50143ea7e9b833b),
    ("friendster8", "emogi_dram", "sssp", 0x623c2d2dd66d8daf),
    ("friendster8", "emogi_dram", "pagerank2", 0x14da8764b186adf5),
    ("friendster8", "emogi_dram", "cc", 0x9fd5ad4668b06d37),
    ("friendster8", "emogi_cxl", "bfs", 0x4127b034c8d41839),
    ("friendster8", "emogi_cxl", "sssp", 0x54e0607ef599aa5e),
    ("friendster8", "emogi_cxl", "pagerank2", 0xa6f8d88a458c42e1),
    ("friendster8", "emogi_cxl", "cc", 0xafc7c7d80d79f318),
    ("friendster8", "uvm_dram", "bfs", 0xc0e642a335f467ce),
    ("friendster8", "uvm_dram", "sssp", 0xcfec4752f1c39f9a),
    ("friendster8", "uvm_dram", "pagerank2", 0x13770c6d524e0716),
    ("friendster8", "uvm_dram", "cc", 0x6d4eeb0a5585b392),
    ("friendster8", "bam_nvme", "bfs", 0x643c25978af27fc3),
    ("friendster8", "bam_nvme", "sssp", 0x69393c051a9521df),
    ("friendster8", "bam_nvme", "pagerank2", 0x082085b3876af94b),
    ("friendster8", "bam_nvme", "cc", 0xada1bfba00178cc1),
    ("friendster8", "xlfdd", "bfs", 0x89bce53eb6362f05),
    ("friendster8", "xlfdd", "sssp", 0xadf05afe1db92bcf),
    ("friendster8", "xlfdd", "pagerank2", 0xf76e993b487d3b9f),
    ("friendster8", "xlfdd", "cc", 0x9a1289a7fd8b541c),
];

#[test]
fn run_reports_match_the_golden_digests_at_every_worker_count() {
    let mut expected = GOLDEN.iter();
    for (fam, g) in families() {
        for (sys_name, sys) in systems() {
            for (work, trav) in workloads(&g) {
                let &(gf, gs, gw, digest) = expected.next().expect("golden table too short");
                assert_eq!(
                    (gf, gs, gw),
                    (fam, sys_name, work),
                    "golden table out of order"
                );
                for workers in WORKER_COUNTS {
                    let report = rayon::with_num_threads(workers, || trav.run(&g, &sys));
                    let json = serde_json::to_string(&report).unwrap();
                    assert_eq!(
                        fnv1a64(json.as_bytes()),
                        digest,
                        "{work} on {sys_name} over {fam} changed at {workers} workers"
                    );
                }
            }
        }
    }
    assert!(expected.next().is_none(), "golden table has extra rows");
}
