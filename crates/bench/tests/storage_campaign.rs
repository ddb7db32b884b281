//! Campaign-level differential between graph storage backends: a
//! spill-mode campaign must dump byte-identical result JSON to the
//! mem-mode campaign, and the fidelity report rendered from either
//! capture must be the same document. Storage is an execution strategy;
//! nothing about it may leak into results.

use cxlg_bench::cli::run_experiments;
use cxlg_bench::ctx::ExperimentCtx;
use cxlg_bench::experiment::Experiment;
use cxlg_bench::fidelity::engine::{evaluate, Campaign};
use cxlg_bench::fidelity::report::render_markdown;
use cxlg_bench::{cache::GraphCache, registry};
use cxlg_graph::{SpillConfig, StorageMode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every result file a campaign wrote, keyed by file name.
fn result_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read results dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).expect("read result file"));
        }
    }
    out
}

#[test]
fn spill_campaign_dumps_byte_identical_results_and_fidelity() {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("storage-campaign");
    let _ = std::fs::remove_dir_all(&base);
    // The full campaign in both modes — the fidelity engine needs the
    // complete result set to load a capture. Scale 8 keeps the doubled
    // run cheap; ci.sh repeats the same byte-diff at scale 10 in
    // release.
    let exps: Vec<&dyn Experiment> = registry::all().collect();
    let run = |mode: StorageMode| {
        let dir = base.join(mode.label());
        let cache = Arc::new(GraphCache::with_storage(
            mode,
            SpillConfig::new(dir.join("graph-spill")),
        ));
        let ctx = ExperimentCtx::with_cache(8, 0x5EED, 1, dir.clone(), cache);
        let outcome =
            rayon::with_num_threads(1, || run_experiments(&ctx, &exps, None));
        assert!(outcome.failed.is_empty(), "{mode:?} failed: {:?}", outcome.failed);
        assert_eq!(ctx.graph_storage_mode(), mode);
        // The eviction plan drains the cache as experiments finish, so
        // by campaign end nothing is resident in either mode.
        assert_eq!(ctx.graph_storage_bytes(), (0, 0));
        dir
    };
    let mem_dir = run(StorageMode::Mem);
    let spill_dir = run(StorageMode::Spill);
    // Evicted spill graphs delete their files: nothing may be left
    // under the spill directory once the campaign context is gone.
    let leftovers = std::fs::read_dir(spill_dir.join("graph-spill"))
        .map(|it| it.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "evicted spill graphs must delete their files");

    let mem = result_bytes(&mem_dir);
    let spill = result_bytes(&spill_dir);
    assert_eq!(
        mem.keys().collect::<Vec<_>>(),
        spill.keys().collect::<Vec<_>>(),
        "both campaigns must dump the same result set"
    );
    assert!(!mem.is_empty(), "the slice must dump result JSON");
    for (name, bytes) in &mem {
        assert_eq!(
            bytes, &spill[name],
            "{name} differs between mem and spill campaigns"
        );
    }

    // The fidelity report over either capture renders the same bytes.
    let report = |dir: &Path| {
        let campaign = Campaign::load(dir).expect("load campaign");
        render_markdown(&evaluate(&campaign))
    };
    assert_eq!(report(&mem_dir), report(&spill_dir), "FIDELITY.md must be unchanged");
}

#[test]
fn bad_environment_values_fail_loudly_instead_of_falling_back() {
    // A misspelt storage mode once ran a mem campaign, and an unparsable
    // scale or seed ran the defaults. Each must now stop `cxlg run` with
    // exit code 2 and name the variable and its value.
    let results = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bad-env");
    for (var, value) in [
        ("CXLG_GRAPH_STORAGE", "spil"),
        ("CXLG_SCALE", "abc"),
        ("CXLG_SCALE", "40"),
        ("CXLG_SEED", "0x5EED"),
    ] {
        for args in [&["run", "fig9"][..], &["run", "--cached", "fig9"][..]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_cxlg"))
                .args(args)
                .env_remove("CXLG_GRAPH_STORAGE")
                .env_remove("CXLG_SCALE")
                .env_remove("CXLG_SEED")
                .env(var, value)
                .env("CXLG_RESULTS_DIR", &results)
                .output()
                .expect("launch cxlg");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{var}={value} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("{var}=\"{value}\"")),
                "{var}={value} {args:?}: {stderr}"
            );
        }
    }
}
