//! # cxlg-bench — the experiment API behind the paper campaign
//!
//! The paper's evaluation (Figs. 3–6, 9–11, Tables 1–2 plus extension
//! studies) is modeled as one registry of [`Experiment`]s driven by the
//! `cxlg` binary:
//!
//! * [`experiment`] — the [`Experiment`] trait contract and run reports;
//! * [`registry`] — the static table of every experiment (`cxlg list`);
//! * [`ctx`] — [`ExperimentCtx`]: scale, seed, threads, results dir;
//! * [`cache`] — the [`GraphCache`] that builds each dataset exactly
//!   once per campaign;
//! * [`experiments`] — the per-figure implementations;
//! * [`cli`] — the `cxlg` driver (`list` / `run` / `--json-manifest`)
//!   and the legacy shim entry points;
//! * [`fidelity`] — `cxlg validate`: the paper's reference series as
//!   data, a residual engine over captured campaigns, and the generated
//!   FIDELITY.md report.
//!
//! The historical per-figure binaries under `src/bin/` still exist as
//! shims over the registry, with stdout and result JSON unchanged.
//! Results are dumped under `target/paper-results/` so EXPERIMENTS.md
//! can be refreshed mechanically.
//!
//! Simulation scale is controlled by the `CXLG_SCALE` environment
//! variable (log2 of the vertex count, default 16). The paper uses
//! scale 27 with ~30 GB edge lists; any scale preserves the *shapes*
//! under study because the model's behaviour is driven by degree
//! structure and byte-level geometry, not absolute size.
//!
//! [`Experiment`]: crate::experiment::Experiment
//! [`ExperimentCtx`]: crate::ctx::ExperimentCtx
//! [`GraphCache`]: crate::cache::GraphCache

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cli;
pub mod ctx;
pub mod experiment;
pub mod experiments;
pub mod fidelity;
pub mod registry;
pub mod serve_cli;

use cxlg_core::metrics::RunReport;
use std::path::PathBuf;

/// Parse the raw value of environment variable `name`: unset yields
/// `default`; a set value that `parse` rejects (or that is not UTF-8)
/// is an error naming the variable and the value, so a typo never runs
/// a silently different campaign.
fn parse_env<T>(
    name: &str,
    raw: Option<&std::ffi::OsStr>,
    default: T,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let Some(raw) = raw else { return Ok(default) };
    raw.to_str()
        .and_then(parse)
        .ok_or_else(|| format!("{name}={raw:?} is invalid: expected {expected}"))
}

/// log2 of the vertex count used by the figure binaries (`CXLG_SCALE`,
/// default 16).
pub fn bench_scale() -> Result<u32, String> {
    parse_env(
        "CXLG_SCALE",
        std::env::var_os("CXLG_SCALE").as_deref(),
        16,
        "a log2 vertex count in 1..=31",
        parse_scale,
    )
}

/// A log2 vertex count the generators accept, the same range
/// `cxlg graph-mem` enforces.
fn parse_scale(s: &str) -> Option<u32> {
    s.parse().ok().filter(|scale| (1..=31).contains(scale))
}

/// Seed shared by the figure binaries (`CXLG_SEED`, default `0x5EED`).
pub fn bench_seed() -> Result<u64, String> {
    parse_env(
        "CXLG_SEED",
        std::env::var_os("CXLG_SEED").as_deref(),
        0x5EED,
        "a decimal u64",
        |s| s.parse().ok(),
    )
}

/// A BFS/SSSP source that reaches a large component: highest-degree
/// vertex (robust for kron/social graphs with isolated vertices).
/// Accepts any graph storage backend.
pub fn good_source<G: cxlg_graph::CsrView + ?Sized>(g: &G) -> cxlg_graph::VertexId {
    g.max_degree_vertex().unwrap_or(0)
}

/// Graph storage backend for campaign builds, from `CXLG_GRAPH_STORAGE`
/// (`mem` default, `spill` for the file-backed out-of-core backend).
/// The CLI's `--graph-storage` flag overrides this. Any other value is
/// an error: results are backend-invariant by the ci.sh byte-diff gates,
/// but a misspelt `spill` must not quietly run an in-memory campaign.
pub fn graph_storage() -> Result<cxlg_graph::StorageMode, String> {
    parse_env(
        "CXLG_GRAPH_STORAGE",
        std::env::var_os("CXLG_GRAPH_STORAGE").as_deref(),
        cxlg_graph::StorageMode::default(),
        "`mem` or `spill`",
        cxlg_graph::StorageMode::parse,
    )
}

/// Output directory for machine-readable results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CXLG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/paper-results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// One-line summary of a run for tables.
pub fn run_summary(r: &RunReport) -> String {
    format!(
        "t={:>10.3} ms  D={:>8.1} MB  RAF={:>5.2}  d̄={:>6.1} B  T={:>8.0} MB/s  reqs={}",
        r.metrics.runtime.as_secs_f64() * 1e3,
        r.metrics.fetched_bytes as f64 / 1e6,
        r.metrics.raf(),
        r.metrics.mean_transfer_bytes(),
        r.metrics.throughput_mb_per_sec(),
        r.metrics.requests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::spec::GraphSpec;

    #[test]
    fn scale_env_parsing_defaults() {
        // No env manipulation (tests run in parallel); just check the
        // default path yields a sane value.
        let s = bench_scale().expect("CXLG_SCALE parses");
        assert!((8..=30).contains(&s));
    }

    #[test]
    fn parse_env_defaults_only_when_unset() {
        use std::ffi::OsStr;
        let num = |raw: Option<&str>| {
            parse_env(
                "CXLG_SEED",
                raw.map(OsStr::new),
                7u64,
                "a decimal u64",
                |s| s.parse().ok(),
            )
        };
        assert_eq!(num(None), Ok(7));
        assert_eq!(num(Some("24301")), Ok(24301));
        for bad in ["", "0x5EED", "-1", "12 "] {
            let err = num(Some(bad)).unwrap_err();
            assert!(err.starts_with("CXLG_SEED="), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn scale_must_be_a_generator_scale() {
        assert_eq!(parse_scale("15"), Some(15));
        assert_eq!(parse_scale("31"), Some(31));
        for bad in ["0", "32", "-1", "15.0", "big"] {
            assert_eq!(parse_scale(bad), None, "{bad}");
        }
    }

    #[test]
    fn parse_env_rejects_a_misspelt_storage_mode() {
        use cxlg_graph::StorageMode;
        use std::ffi::OsStr;
        let mode = |raw: &str| {
            parse_env(
                "CXLG_GRAPH_STORAGE",
                Some(OsStr::new(raw)),
                StorageMode::default(),
                "`mem` or `spill`",
                StorageMode::parse,
            )
        };
        assert_eq!(mode("spill"), Ok(StorageMode::Spill));
        assert_eq!(mode("mem"), Ok(StorageMode::Mem));
        let err = mode("spil").unwrap_err();
        assert!(
            err.contains("CXLG_GRAPH_STORAGE") && err.contains("\"spil\""),
            "{err}"
        );
    }

    #[test]
    fn good_source_prefers_hubs() {
        let g = GraphSpec::kron(8).seed(1).build();
        let s = good_source(&g);
        assert!(g.degree(s) > 0);
        let max = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max().unwrap();
        assert_eq!(g.degree(s), max);
    }
}
