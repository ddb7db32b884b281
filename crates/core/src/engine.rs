//! The discrete-event execution core.
//!
//! One [`Engine`] models a GPU kernel's interaction with external memory:
//! a pool of warps issues device requests through a PCIe link with
//! bandwidth `W` and an outstanding-request credit pool `Nmax` (or the
//! storage queue depth for GPU-initiated storage access, §3.2), the
//! backend device computes service times, and responses serialize on the
//! shared return channel. The three throughput limits of Equation 2 —
//! `S·d` (device service), `Nmax·d/L` (Little's Law on credits), and `W`
//! (return-channel serialization) — all *emerge* from this mechanism; the
//! analytical model in `cxlg-model` is validated against it.
//!
//! A traversal runs as a sequence of **batches** (one per BFS level /
//! SSSP round, matching the level-synchronous kernels of EMOGI/BaM); each
//! batch is a list of [`DeviceRequest`]s executed to completion.
//!
//! Batches run back to back on one engine: the next batch starts on the
//! clock where the previous one ended, and the backend's media state,
//! the credit pool's occupancy integral and the link timestamps all
//! carry over. [`Traversal::run`](crate::traversal::Traversal::run) is the
//! only caller that chains batches.
//!
//! Pending events wait in one lane per event class rather than in one
//! global heap. Warp wake-ups (`now + compute`), device arrivals
//! (`out + const`, with the request channel's `out` strictly rising) and
//! completions (`now + propagation`) are each produced in time order, so
//! each is a FIFO; at most one segment transfer is on the return link;
//! only segment-ready times depend on the device and need a heap. Every
//! event keeps the sequence number of its scheduling order and the next
//! event is the least `(time, seq)` among the lane heads — exactly the
//! order, ties included, of a single `(time, seq)` priority queue.

use crate::access::DeviceRequest;
use crate::event::{Ev, Lanes};
use crate::metrics::RunMetrics;
use cxlg_device::target::{MemoryTarget, ReadSegment};
use cxlg_gpu::config::GpuConfig;
use cxlg_link::pcie::PcieLinkConfig;
use cxlg_sim::{CreditPool, OnlineStats, SimDuration, SimTime};
use std::collections::VecDeque;

/// How requests travel to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPath {
    /// Load/store memory access (host DRAM, CXL): read TLPs bounded by
    /// the PCIe `Nmax`.
    Memory,
    /// GPU-initiated storage access (BaM / XLFDD): submission-queue
    /// entries fetched by the drive; concurrency bounded by queue depth,
    /// and the SQ fetch adds one extra link round trip.
    Storage {
        /// Bytes per SQ entry crossing the request path.
        entry_bytes: u64,
        /// Completion-notification bytes on the return path (0 = no CQ).
        completion_bytes: u64,
    },
}

/// Engine configuration assembled by `SystemConfig::build_engine`.
pub struct EngineConfig {
    /// GPU warp model.
    pub gpu: GpuConfig,
    /// The GPU's PCIe link.
    pub link: PcieLinkConfig,
    /// Concurrency credits: `Nmax` for memory paths, total queue depth
    /// for storage paths.
    pub credits: u64,
    /// One-way socket penalty for reaching the backend (Fig. 8/9).
    pub socket_penalty: SimDuration,
    /// Request transport semantics.
    pub path: RequestPath,
}

/// Result of executing one batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Simulated completion time of the batch.
    pub end: SimTime,
    /// Bytes fetched from the device in this batch.
    pub fetched_bytes: u64,
    /// Requests executed.
    pub requests: u64,
    /// Per-request latency observations (issue → last byte at GPU).
    pub latency: OnlineStats,
}

/// The execution core. Owns the backend device and all link state; one
/// engine is used for a whole run so channel/credit state carries across
/// batches.
pub struct Engine {
    cfg: EngineConfig,
    backend: Box<dyn MemoryTarget>,
    credits: CreditPool,
    /// Serialization time of one request (TLP header or SQ entry) on the
    /// request channel.
    req_ser: SimDuration,
    /// Request channel exit → device arrival: propagation, the socket
    /// hop, and for storage the extra round trip in which the drive
    /// fetches the SQ entry from GPU BAR memory.
    req_delay: SimDuration,
    /// Request-direction channel availability.
    req_next_free: SimTime,
    /// Is a transfer currently serializing on the return link?
    ///
    /// An explicit flag rather than a `next_free` timestamp comparison:
    /// when a segment becomes ready at the exact instant the in-flight
    /// transfer ends, the ready event can be processed before the
    /// completion event, and a timestamp check would wrongly see an idle
    /// link and start a second concurrent transfer.
    ret_inflight: bool,
    /// Segments waiting for the return link, FIFO by ready time.
    ret_queue: VecDeque<(u32, u64)>,
    /// Pending events; empty between batches.
    lanes: Lanes,
    /// Per-batch buffers, indexed by request, reused across batches.
    issue_time: Vec<SimTime>,
    remaining: Vec<u32>,
    segs: Vec<ReadSegment>,
    run_latency: OnlineStats,
    run_requests: u64,
    run_fetched: u64,
    end_of_time: SimTime,
}

impl Engine {
    /// Build an engine over a backend device.
    pub fn new(cfg: EngineConfig, backend: Box<dyn MemoryTarget>) -> Self {
        let prop = cfg.link.propagation();
        let (req_bytes, extra) = match cfg.path {
            RequestPath::Memory => (PcieLinkConfig::REQUEST_TLP_BYTES, SimDuration::ZERO),
            RequestPath::Storage { entry_bytes, .. } => (entry_bytes, prop + prop),
        };
        Engine {
            credits: CreditPool::new(cfg.credits),
            req_ser: cfg.link.bandwidth().transfer_time(req_bytes),
            req_delay: prop + cfg.socket_penalty + extra,
            cfg,
            backend,
            req_next_free: SimTime::ZERO,
            ret_inflight: false,
            ret_queue: VecDeque::new(),
            lanes: Lanes::default(),
            issue_time: Vec::new(),
            remaining: Vec::new(),
            segs: Vec::with_capacity(8),
            run_latency: OnlineStats::new(),
            run_requests: 0,
            run_fetched: 0,
            end_of_time: SimTime::ZERO,
        }
    }

    /// The backend device (for statistics).
    pub fn backend(&self) -> &dyn MemoryTarget {
        self.backend.as_ref()
    }

    /// Execute `requests` starting at `start`; returns when all data has
    /// arrived at the GPU. Requests are handed to warps in order.
    pub fn run_batch(&mut self, start: SimTime, requests: &[DeviceRequest]) -> BatchResult {
        let r = requests.len();
        if r == 0 {
            return BatchResult {
                end: start,
                fetched_bytes: 0,
                requests: 0,
                latency: OnlineStats::new(),
            };
        }
        let warps = (self.cfg.gpu.active_warps as usize).min(r);
        for _ in 0..warps {
            self.lanes.push(start, Ev::Warp);
        }

        self.issue_time.clear();
        self.issue_time.resize(r, SimTime::ZERO);
        self.remaining.clear();
        self.remaining.resize(r, 0);
        let mut next_item = 0usize;
        let mut completed = 0usize;
        let mut latency = OnlineStats::new();
        let mut end = start;
        let prop = self.cfg.link.propagation();
        let penalty = self.cfg.socket_penalty;
        let compute = self.cfg.gpu.item_compute();

        while let Some((now, ev)) = self.lanes.pop() {
            match ev {
                Ev::Warp => {
                    if next_item >= r {
                        continue; // no more work; warp retires
                    }
                    let idx = next_item as u32;
                    next_item += 1;
                    if self.credits.try_acquire(now) {
                        self.issue(now, idx, requests);
                    } else {
                        self.credits.enqueue_waiter(idx as u64);
                    }
                }
                Ev::DevArrive(idx) => {
                    let reqst = requests[idx as usize];
                    self.segs.clear();
                    self.backend
                        .read(now, reqst.addr, reqst.bytes, &mut self.segs);
                    self.remaining[idx as usize] = self.segs.len() as u32;
                    for s in &self.segs {
                        debug_assert!(s.ready >= now, "segment ready before its read arrived");
                        // Return-side socket hop happens before the link.
                        self.lanes.push(
                            s.ready + penalty,
                            Ev::SegReady {
                                req: idx,
                                bytes: s.bytes,
                            },
                        );
                    }
                }
                Ev::SegReady { req, bytes } => {
                    if !self.ret_inflight {
                        self.start_return_transfer(now, req, bytes);
                    } else {
                        self.ret_queue.push_back((req, bytes));
                    }
                }
                Ev::SegDone { req } => {
                    // Data reaches the GPU after the link propagation.
                    self.remaining[req as usize] -= 1;
                    if self.remaining[req as usize] == 0 {
                        self.lanes.push(now + prop, Ev::Complete(req));
                    }
                    if let Some((nreq, nbytes)) = self.ret_queue.pop_front() {
                        self.start_return_transfer(now, nreq, nbytes);
                    } else {
                        self.ret_inflight = false;
                    }
                }
                Ev::Complete(idx) => {
                    let lat = now.saturating_since(self.issue_time[idx as usize]);
                    latency.push(lat.as_us_f64());
                    completed += 1;
                    end = end.max(now);
                    if let Some(waiter) = self.credits.release(now) {
                        self.issue(now, waiter as u32, requests);
                    }
                    // The freed warp pulls its next item after processing
                    // the fetched edges.
                    self.lanes.push(now + compute, Ev::Warp);
                }
            }
        }
        debug_assert_eq!(completed, r, "batch did not drain");
        debug_assert!(self.ret_queue.is_empty() && self.lanes.is_empty());

        let fetched: u64 = requests.iter().map(|x| x.bytes).sum();
        self.run_fetched += fetched;
        self.run_requests += r as u64;
        self.run_latency.merge(&latency);
        self.end_of_time = end;
        BatchResult {
            end,
            fetched_bytes: fetched,
            requests: r as u64,
            latency,
        }
    }

    fn issue(&mut self, now: SimTime, idx: u32, requests: &[DeviceRequest]) {
        self.issue_time[idx as usize] = now;
        // Host-side per-request overhead (zero except for UVM page
        // faults), then serialize the request on the request channel and
        // carry it to the device.
        let host = SimDuration::from_ps(requests[idx as usize].overhead_ps);
        let out = (now + host).max(self.req_next_free) + self.req_ser;
        self.req_next_free = out;
        self.lanes.push(out + self.req_delay, Ev::DevArrive(idx));
    }

    fn start_return_transfer(&mut self, now: SimTime, req: u32, bytes: u64) {
        // Every segment carries its own completion TLP header; storage
        // payload DMAs carry theirs the same way.
        let ser = self
            .cfg
            .link
            .bandwidth()
            .transfer_time(bytes + PcieLinkConfig::COMPLETION_HEADER_BYTES);
        self.ret_inflight = true;
        self.lanes.push(now + ser, Ev::SegDone { req });
    }

    /// Finalize run-level metrics at the end of the last batch.
    pub fn finish(&mut self) -> RunMetrics {
        let end = self.end_of_time;
        RunMetrics {
            runtime: end.saturating_since(SimTime::ZERO),
            useful_bytes: 0, // filled by the traversal layer
            fetched_bytes: self.run_fetched,
            requests: self.run_requests,
            cache_hits: 0, // filled by the traversal layer
            latency: self.run_latency.clone(),
            mean_outstanding: self.credits.mean_in_use(end),
            peak_outstanding: self.credits.high_water(),
        }
    }

    /// The engine's configured credit limit.
    pub fn credit_limit(&self) -> u64 {
        self.cfg.credits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_device::dram::{HostDram, HostDramConfig};
    use cxlg_link::pcie::PcieGen;

    fn dram_engine(gen: PcieGen, warps: u32) -> Engine {
        let link = PcieLinkConfig::x16(gen);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(warps),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
        };
        Engine::new(cfg, Box::new(HostDram::new(HostDramConfig::default())))
    }

    fn uniform_requests(n: usize, bytes: u64) -> Vec<DeviceRequest> {
        (0..n)
            .map(|i| DeviceRequest {
                addr: (i as u64) * 4096,
                bytes, overhead_ps: 0 })
            .collect()
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let r = e.run_batch(SimTime(123), &[]);
        assert_eq!(r.end, SimTime(123));
        assert_eq!(r.requests, 0);
    }

    #[test]
    fn single_request_latency_matches_fig9_host_dram() {
        // One 128 B zero-copy read to host DRAM: ~0.8 us link round trip
        // + 0.3 us DRAM ≈ 1.1 us (Fig. 9 shows "1+ usec").
        let mut e = dram_engine(PcieGen::Gen4, 1);
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(1, 128));
        let lat = r.latency.mean();
        assert!((1.05..1.25).contains(&lat), "latency {lat} us");
    }

    #[test]
    fn saturated_dram_run_hits_link_bandwidth() {
        // 2048 warps, 768 credits, tiny latency => the return channel is
        // the bottleneck; throughput must approach W = 24,000 MB/s.
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let reqs = uniform_requests(50_000, 128);
        let r = e.run_batch(SimTime::ZERO, &reqs);
        let mb_s = (50_000u64 * 128) as f64 / 1e6 / r.end.as_secs_f64();
        assert!(mb_s > 0.85 * 24_000.0, "throughput {mb_s} MB/s");
        assert!(mb_s <= 24_000.0 * 1.01, "throughput {mb_s} exceeds W");
    }

    #[test]
    fn gen3_halves_throughput() {
        let run = |gen| {
            let mut e = dram_engine(gen, 2048);
            let reqs = uniform_requests(30_000, 128);
            let r = e.run_batch(SimTime::ZERO, &reqs);
            (30_000u64 * 128) as f64 / 1e6 / r.end.as_secs_f64()
        };
        let g4 = run(PcieGen::Gen4);
        let g3 = run(PcieGen::Gen3);
        let ratio = g4 / g3;
        assert!((ratio - 2.0).abs() < 0.2, "Gen4/Gen3 ratio {ratio}");
    }

    #[test]
    fn littles_law_emerges() {
        // With ample warps and latency L, outstanding N ~= T * L / d
        // (Equation 3).
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let reqs = uniform_requests(40_000, 128);
        let r = e.run_batch(SimTime::ZERO, &reqs);
        let m = e.finish();
        let t_bytes_per_us = (40_000u64 * 128) as f64 / r.end.as_us_f64();
        let n_predicted = t_bytes_per_us * m.latency.mean() / 128.0;
        let n_measured = m.mean_outstanding;
        let err = (n_predicted - n_measured).abs() / n_measured;
        assert!(err < 0.15, "Little's law off by {err}: {n_predicted} vs {n_measured}");
    }

    #[test]
    fn credit_pool_bounds_outstanding() {
        let mut e = dram_engine(PcieGen::Gen3, 2048);
        let reqs = uniform_requests(20_000, 128);
        e.run_batch(SimTime::ZERO, &reqs);
        let m = e.finish();
        assert!(m.peak_outstanding <= 256, "peak {}", m.peak_outstanding);
        // And the workload is intense enough to actually hit the cap.
        assert_eq!(m.peak_outstanding, 256);
    }

    #[test]
    fn single_warp_serializes_requests() {
        // One warp = dependent loads: runtime ~= n * (latency + compute).
        let mut e = dram_engine(PcieGen::Gen4, 1);
        let n = 100;
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(n, 128));
        let per_req = r.end.as_us_f64() / n as f64;
        assert!((1.0..1.4).contains(&per_req), "per-request {per_req} us");
    }

    #[test]
    fn batches_accumulate_into_run_metrics() {
        let mut e = dram_engine(PcieGen::Gen4, 256);
        let r1 = e.run_batch(SimTime::ZERO, &uniform_requests(100, 128));
        let r2 = e.run_batch(r1.end, &uniform_requests(200, 64));
        assert!(r2.end > r1.end);
        let m = e.finish();
        assert_eq!(m.requests, 300);
        assert_eq!(m.fetched_bytes, 100 * 128 + 200 * 64);
        assert_eq!(m.latency.count(), 300);
    }

    #[test]
    fn more_warps_do_not_help_beyond_credits() {
        // §3.5.2: GPU concurrency (>= 2048) is not the limit; credits are.
        let run = |warps| {
            let mut e = dram_engine(PcieGen::Gen4, warps);
            let r = e.run_batch(SimTime::ZERO, &uniform_requests(20_000, 128));
            r.end.as_us_f64()
        };
        let t2048 = run(2048);
        let t3072 = run(3072);
        assert!((t2048 - t3072).abs() / t2048 < 0.02);
    }

    #[test]
    fn fewer_warps_than_credits_limits_throughput() {
        let run = |warps| {
            let mut e = dram_engine(PcieGen::Gen4, warps);
            let r = e.run_batch(SimTime::ZERO, &uniform_requests(20_000, 128));
            r.end.as_us_f64()
        };
        let t_few = run(64);
        let t_many = run(2048);
        assert!(
            t_few > 2.0 * t_many,
            "64 warps should be much slower: {t_few} vs {t_many}"
        );
    }
}
