//! # cxlg-core — the paper's contribution
//!
//! GPU graph traversal over external memory, reproduced end to end on the
//! discrete-event hardware models of the sibling crates. The public
//! surface mirrors how the paper's experiments are described:
//!
//! * [`system::SystemConfig`] — a complete machine: GPU, PCIe link
//!   (generation → `W`, `Nmax`), topology, and one external-memory
//!   backend (host DRAM / CXL expanders / XLFDD drives / NVMe SSDs);
//! * [`access`] — the three access methods under study: **EMOGI**
//!   zero-copy (32 B sectors, ≤128 B transactions), **BaM** (software
//!   cache, line = alignment), and **XLFDD-direct** (one small-aligned
//!   request per edge sublist);
//! * [`traversal`] — BFS and SSSP (the paper's workloads) plus PageRank
//!   and connected components (Discussion-section extensions);
//! * [`engine`] — the event-driven execution core in which Equation 2's
//!   three throughput limits (`S·d`, `Nmax·d/L`, `W`) *emerge* from
//!   credits, service rates and link serialization;
//! * [`raf`] — the software-cache read-amplification simulation behind
//!   Figure 3;
//! * [`microbench`] — pointer-chase latency (Fig. 9) and CPU-side CXL
//!   device characterization (Fig. 10);
//! * [`runner`] — rayon-parallel parameter sweeps (each simulation point
//!   is deterministic and single-threaded; sweeps are embarrassingly
//!   parallel).

#![warn(missing_docs)]

pub mod access;
pub mod engine;
mod event;
pub mod mem;
pub mod metrics;
pub mod microbench;
pub mod raf;
pub mod runner;
pub mod system;
pub mod traversal;
pub mod validate;

pub use access::{AccessMethod, DeviceRequest};
pub use metrics::{LevelStats, RunMetrics, RunReport};
pub use system::{BackendConfig, SystemConfig};
pub use traversal::{Traversal, Workload};
