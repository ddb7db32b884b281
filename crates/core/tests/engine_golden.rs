//! Golden oracle for the discrete-event core, [`Engine::run_batch`].
//!
//! Every cell of the matrix backend × batch shape chains three batches on
//! one engine, then hashes each [`BatchResult`] and the run's
//! [`finish`](Engine::finish) metrics with 64-bit FNV-1a. Floats are
//! hashed by their bit patterns, so the digests pin the exact event
//! order: any change to tie-breaking between events at the same instant
//! moves the latency sums and the credit-occupancy integral.
//!
//! The shapes cover fewer warps than credits, far more warps than
//! credits, and mixed request sizes whose multi-segment responses make
//! segments ready and done at the same instant.

use cxlg_core::access::DeviceRequest;
use cxlg_core::engine::{BatchResult, Engine};
use cxlg_core::system::{BackendConfig, SystemConfig};
use cxlg_link::pcie::PcieGen;
use cxlg_sim::{OnlineStats, SimTime, SplitMix64};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &OnlineStats) {
        self.u64(s.count());
        for x in [s.mean(), s.variance(), s.min(), s.max()] {
            self.u64(x.to_bits());
        }
    }

    fn batch(&mut self, r: &BatchResult) {
        self.u64(r.end.as_ps());
        self.u64(r.fetched_bytes);
        self.u64(r.requests);
        self.stats(&r.latency);
    }
}

/// Request sizes one backend accepts: memory paths take any size,
/// NVMe whole 512 B blocks, XLFDD 16 B-aligned reads of at most 2 kB.
const MEMORY_SIZES: &[u64] = &[16, 32, 128, 512, 4096];
const NVME_SIZES: &[u64] = &[512, 4096, 8192];
const XLFDD_SIZES: &[u64] = &[16, 48, 128, 2048];

/// `(name, system, mixed request sizes)`.
fn backends() -> Vec<(&'static str, SystemConfig, &'static [u64])> {
    let mut cxl_ooo = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5);
    if let BackendConfig::CxlMem { dev, .. } = &mut cxl_ooo.backend {
        *dev = dev.out_of_order();
    }
    vec![
        (
            "dram",
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            MEMORY_SIZES,
        ),
        (
            "cxl_inorder_1us",
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
            MEMORY_SIZES,
        ),
        ("cxl_ooo", cxl_ooo, MEMORY_SIZES),
        (
            "dram_far",
            SystemConfig::emogi_on_dram(PcieGen::Gen3).on_far_socket(),
            MEMORY_SIZES,
        ),
        (
            "uvm",
            SystemConfig::uvm_on_dram(PcieGen::Gen4),
            MEMORY_SIZES,
        ),
        (
            "nvme",
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
            NVME_SIZES,
        ),
        ("xlfdd", SystemConfig::xlfdd(PcieGen::Gen4, 16), XLFDD_SIZES),
    ]
}

/// `(name, active warps, mixed sizes?)`. Uniform shapes use the
/// backend's largest memory-path size that fits: 128 B, or 4 kB on NVMe.
const SHAPES: [(&str, u32, bool); 3] = [
    ("few_warps", 32, false),
    ("many_warps", 3072, false),
    ("mixed_sizes", 2048, true),
];

/// Batch sizes chained on one engine: a lone request, a batch smaller
/// than the warp count, and a long one.
const BATCHES: [usize; 3] = [1, 700, 5000];

/// One batch of size-aligned requests. On the UVM system every fifth
/// request pays a page-fault overhead on the host.
fn requests(rng: &mut SplitMix64, n: usize, sizes: &[u64], uvm: bool) -> Vec<DeviceRequest> {
    (0..n)
        .map(|_| {
            let bytes = sizes[(rng.next_u64() % sizes.len() as u64) as usize];
            let addr = (rng.next_u64() % (1 << 30)) / bytes * bytes;
            let faults = uvm && rng.next_u64().is_multiple_of(5);
            DeviceRequest {
                addr,
                bytes,
                overhead_ps: if faults { 15_000_000 } else { 0 },
            }
        })
        .collect()
}

fn digest(sys: &SystemConfig, warps: u32, sizes: &[u64], uvm: bool) -> u64 {
    let mut engine: Engine = sys.with_active_warps(warps).build_engine();
    let mut rng = SplitMix64::new(0xE16E);
    let mut h = Fnv::new();
    let mut t = SimTime::ZERO;
    for n in BATCHES {
        let r = engine.run_batch(t, &requests(&mut rng, n, sizes, uvm));
        h.batch(&r);
        t = r.end;
    }
    let m = engine.finish();
    h.u64(m.runtime.as_ps());
    h.u64(m.fetched_bytes);
    h.u64(m.requests);
    h.stats(&m.latency);
    h.u64(m.mean_outstanding.to_bits());
    h.u64(m.peak_outstanding);
    h.0
}

/// `(backend, shape, FNV-1a 64 of the chained batch results)`.
const GOLDEN: [(&str, &str, u64); 21] = [
    ("dram", "few_warps", 0x276e7126fa55892e),
    ("dram", "many_warps", 0xe11ef57b906b764a),
    ("dram", "mixed_sizes", 0x5cf2a24c0e412701),
    ("cxl_inorder_1us", "few_warps", 0x920290743b2b1630),
    ("cxl_inorder_1us", "many_warps", 0xa5d98bee363570d5),
    ("cxl_inorder_1us", "mixed_sizes", 0x8b75c58df3d2a597),
    ("cxl_ooo", "few_warps", 0xaf98c0691c5e4810),
    ("cxl_ooo", "many_warps", 0x260ac39c377be7db),
    ("cxl_ooo", "mixed_sizes", 0x6077eb8d603881de),
    ("dram_far", "few_warps", 0x2c4557bba3ba9bcc),
    ("dram_far", "many_warps", 0x66f9a3c4859da152),
    ("dram_far", "mixed_sizes", 0x8167344b5240c178),
    ("uvm", "few_warps", 0xcb9a5f5186f2e6db),
    ("uvm", "many_warps", 0xb08f548e42619db7),
    ("uvm", "mixed_sizes", 0x2531f44292cd1f27),
    ("nvme", "few_warps", 0xd665f82be800faee),
    ("nvme", "many_warps", 0xbed53c7bf829c7ac),
    ("nvme", "mixed_sizes", 0x11b251b1725ed81c),
    ("xlfdd", "few_warps", 0x0e4962658817d1d0),
    ("xlfdd", "many_warps", 0x57ec587a4ca9bd7d),
    ("xlfdd", "mixed_sizes", 0xbec3b87fb89a0f30),
];

#[test]
fn chained_batches_match_golden_digests() {
    let mut got = Vec::new();
    for (backend, sys, mixed) in backends() {
        for (shape, warps, is_mixed) in SHAPES {
            let uniform: &[u64] = if backend == "nvme" { &[4096] } else { &[128] };
            let sizes = if is_mixed { mixed } else { uniform };
            got.push((backend, shape, digest(&sys, warps, sizes, backend == "uvm")));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(b, s, d)| format!("    (\"{b}\", \"{s}\", {d:#018x}),"))
        .collect();
    let want: Vec<(&str, &str, u64)> = GOLDEN.to_vec();
    assert_eq!(got, want, "engine digests moved:\n{}", rendered.join("\n"));
}
