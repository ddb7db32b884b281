//! # cxlg-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the timing substrate used by every hardware model in
//! the `cxl-gpu-graph` workspace: simulated time and a small set of
//! queueing-theory building blocks (bandwidth-serialized channels,
//! rate-limited servers, credit pools) from which the PCIe link, the CXL
//! memory prototype, the flash drives and the GPU warp scheduler are
//! assembled.
//!
//! ## Design notes
//!
//! * **Time** is an integer number of **picoseconds** ([`SimTime`],
//!   [`SimDuration`]). Picosecond resolution keeps byte-level serialization
//!   delays on a 24 GB/s link (≈41.7 ps/byte) exact without floating-point
//!   drift, while a `u64` still spans ~213 days of simulated time.
//! * **Determinism**: the engine has no wall-clock or OS dependencies, and
//!   ties between events scheduled for the same instant are broken by
//!   insertion order. Every stochastic model draws from the seeded
//!   [`rng::Xoshiro256StarStar`] generator. Two runs with identical
//!   configurations produce bit-identical results, which the test-suite and
//!   the paper-figure harnesses rely on.
//! * **No inversion of control**: there is no component framework and no
//!   event queue here. The *driver* (`cxlg_core::engine`) owns the event
//!   loop, its future-event list and all component state; the types in
//!   this crate are passive models it calls. This keeps borrows simple
//!   and the hot loop monomorphic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod credit;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use channel::BandwidthChannel;
pub use credit::CreditPool;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use server::RateServer;
pub use stats::{Histogram, OnlineStats, TimeWeighted};
pub use time::{Bandwidth, SimDuration, SimTime};
