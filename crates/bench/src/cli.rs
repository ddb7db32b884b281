//! The `cxlg` campaign driver and the legacy shim entry points.
//!
//! One binary fronts the whole evaluation: `cxlg list` enumerates the
//! registry, `cxlg run <names...>` / `cxlg run --all` executes
//! experiments in-process against a single shared [`ExperimentCtx`] (so
//! the graph cache builds each dataset exactly once per invocation), and
//! `--json-manifest` records the run configuration, per-experiment
//! wall-clock, every result path, and the cache's per-spec build counts.
//!
//! The legacy per-figure binaries (`fig3`, `table1`, …) are shims over
//! [`shim_main`]; `all_figures` is a shim over [`run_all`]. `cxlg
//! validate` (the paper-fidelity gate) lives in [`crate::fidelity`].

use crate::ctx::ExperimentCtx;
use crate::experiment::{Experiment, ExperimentReport};
use crate::registry;
use cxlg_core::runner::timed;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
cxlg — one driver for the paper's experiment campaign

USAGE:
    cxlg list                                   enumerate registered experiments
    cxlg run [--json-manifest[=PATH]] <names..> run selected experiments
    cxlg run --all [--json-manifest[=PATH]]     run the full campaign
    cxlg run --cached [--cas-root=DIR] [--cas-max-bytes=N]
            [--max-attempts=N] [--fault-plan=SPEC] [--fault-seed=N]
            <names..|--all>                     run through the campaign
                                                service scheduler + content-
                                                addressed result store:
                                                repeat runs with a warm store
                                                are byte-identical cache hits;
                                                a fault plan turns the run
                                                into a deterministic chaos
                                                campaign that must self-heal
    cxlg serve --socket=PATH [--workers=N] [--cas-root=DIR]
              [--max-attempts=N] [--job-timeout-ms=N]
              [--mem-budget-bytes=N] [--cas-max-bytes=N]
                                                long-running campaign service
                                                speaking newline-delimited
                                                JSON (submit/status/wait/
                                                cancel/stats/shutdown) over a
                                                Unix socket
    cxlg serve --stats --socket=PATH            print a running service's
                                                stats snapshot
    cxlg submit --socket=PATH <experiment> [--scale=N] [--seed=N]
               [--threads=N] [--priority=high|normal|low] [--wait]
               [--timeout-ms=N]                 submit one job; or manage by
                                                key: --status=KEY
                                                --wait-key=KEY [--timeout-ms=N]
                                                --cancel=KEY --shutdown
    cxlg cas gc --cas-root=DIR [--max-bytes=N] [--max-entries=N]
                                                reap stale staging dirs,
                                                quarantine corrupt entries,
                                                and evict oldest publications
                                                until the bounds fit
    cxlg graph-mem <urand|kron|social> <scale> [--storage=mem|spill]
                                                build one dataset, report
                                                wall-clock / peak RSS /
                                                resident and on-disk
                                                bytes-per-arc / fingerprint
    cxlg validate [--campaign-dir=DIR] [--write-report[=PATH]]
                                                check a captured campaign
                                                against the paper's series
                                                (exit 1 on any FLAG)
    cxlg lint [--root=DIR] [--json] [--deny]    determinism & unsafety
                                                static analysis over every
                                                workspace .rs file (rules
                                                D1-D6; --deny exits 1 on
                                                any un-pragma'd finding)

OPTIONS:
    --json-manifest[=PATH]   write a run manifest (scale/seed/threads,
                             per-experiment wall-clock, peak RSS, result
                             paths, per-spec graph build and eviction
                             counts); default PATH is
                             <results_dir>/manifest.json
    --max-bytes-per-arc=N    (graph-mem) exit nonzero when peak RSS
                             exceeds N bytes per directed arc — the CI
                             build-memory budget
    --graph-storage=MODE     (run) graph storage backend: `mem` keeps
                             every CSR fully resident (default), `spill`
                             demand-pages targets from a file under
                             <results_dir>/graph-spill; overrides
                             CXLG_GRAPH_STORAGE. Results are
                             backend-invariant
    --storage=MODE           (graph-mem) build the probe dataset into
                             the given backend (`mem` | `spill`)
    --cached                 (run) route the campaign through the
                             service scheduler + content-addressed
                             store; repeat runs are cache hits
    --cas-root=DIR           (run --cached, serve, cas gc) content-
                             addressed store root; default
                             <results_dir>/cas
    --cas-max-bytes=N        (run --cached, serve) GC the store down to
                             N bytes after every publication
    --max-attempts=N         (run --cached, serve) execution attempts
                             per job before it is Failed; default 1
    --fault-plan=SPEC        (run --cached) deterministic fault schedule,
                             e.g. panic@2,error@5,torn@3,corrupt@4,
                             delay@6:25 — kind@nth-occurrence, delays
                             carry :ms
    --fault-seed=N           (run --cached) injector seed for the plan's
                             corruption byte choices; default 0
    --job-timeout-ms=N       (serve) watchdog deadline: executions past
                             it are marked timed_out and the key re-arms
    --mem-budget-bytes=N     (serve) admission gate: estimated bytes of
                             concurrently running jobs stay at or below N
    --timeout-ms=N           (submit) bound a --wait / --wait-key block;
                             an expired wait answers wait_timed_out and
                             exits nonzero
    --socket=PATH            (serve, submit) Unix socket path
    --workers=N              (serve) worker-pool size; default 2
    --campaign-dir=DIR       (validate) campaign to check; default is
                             the results dir
    --root=DIR               (lint) workspace root to scan; default is
                             the current directory
    --write-report[=PATH]    (validate) render FIDELITY.md — measured vs
                             paper per figure with residuals and
                             PASS/FLAG/SKIP verdicts; default PATH is
                             <campaign-dir>/FIDELITY.md

ENVIRONMENT:
    CXLG_SCALE        log2 vertex count (default 16)
    CXLG_SEED         generator seed (default 0x5EED)
    CXLG_RESULTS_DIR  result directory (default target/paper-results)
    CXLG_GRAPH_STORAGE graph storage backend: mem (default) | spill
    RAYON_NUM_THREADS worker threads for parallel sweeps
";

/// Parsed `cxlg run` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// Run every registered experiment in registry order.
    pub all: bool,
    /// Explicitly selected experiment names (empty with `all`).
    pub names: Vec<String>,
    /// `Some(None)` = manifest at the default path; `Some(Some(p))` = at `p`.
    pub manifest: Option<Option<String>>,
    /// Route the run through the campaign service scheduler + CAS.
    pub cached: bool,
    /// CAS root for `--cached` (default `<results_dir>/cas`).
    pub cas_root: Option<String>,
    /// Fault-plan spec for a `--cached` chaos run (e.g.
    /// `panic@2,torn@1,corrupt@3`).
    pub fault_plan: Option<String>,
    /// Injector seed for the plan's deterministic corruption choices.
    pub fault_seed: u64,
    /// Execution attempts per job before `Failed` (0 = scheduler
    /// default of one attempt, i.e. no retries).
    pub max_attempts: u64,
    /// CAS byte budget: GC after every publication (`--cached`).
    pub cas_max_bytes: Option<u64>,
    /// Graph storage backend override (`--graph-storage=`); `None`
    /// falls back to `CXLG_GRAPH_STORAGE` / mem.
    pub graph_storage: Option<cxlg_graph::StorageMode>,
}

/// Parse the arguments following `cxlg run`.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        all: false,
        names: Vec::new(),
        manifest: None,
        cached: false,
        cas_root: None,
        fault_plan: None,
        fault_seed: 0,
        max_attempts: 0,
        cas_max_bytes: None,
        graph_storage: None,
    };
    for a in args {
        if a == "--all" {
            out.all = true;
        } else if a == "--cached" {
            out.cached = true;
        } else if let Some(dir) = a.strip_prefix("--cas-root=") {
            if dir.is_empty() {
                return Err("--cas-root= requires a directory".to_string());
            }
            out.cas_root = Some(dir.to_string());
        } else if let Some(spec) = a.strip_prefix("--fault-plan=") {
            // Parse eagerly so a typo is a usage error, not a failure
            // minutes into the campaign.
            cxlg_serve::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            out.fault_plan = Some(spec.to_string());
        } else if let Some(n) = a.strip_prefix("--fault-seed=") {
            out.fault_seed = n
                .parse::<u64>()
                .map_err(|_| format!("--fault-seed: bad number `{n}`"))?;
        } else if let Some(n) = a.strip_prefix("--max-attempts=") {
            out.max_attempts = n
                .parse::<u64>()
                .ok()
                .filter(|m| *m >= 1)
                .ok_or_else(|| format!("--max-attempts: bad count `{n}` (need >= 1)"))?;
        } else if let Some(n) = a.strip_prefix("--cas-max-bytes=") {
            out.cas_max_bytes = Some(
                n.parse::<u64>()
                    .ok()
                    .filter(|b| *b >= 1)
                    .ok_or_else(|| format!("--cas-max-bytes: bad size `{n}` (need >= 1)"))?,
            );
        } else if let Some(mode) = a.strip_prefix("--graph-storage=") {
            out.graph_storage = Some(
                cxlg_graph::StorageMode::parse(mode)
                    .ok_or_else(|| format!("--graph-storage: unknown mode `{mode}` (mem | spill)"))?,
            );
        } else if a == "--json-manifest" {
            out.manifest = Some(None);
        } else if let Some(path) = a.strip_prefix("--json-manifest=") {
            if path.is_empty() {
                return Err("--json-manifest= requires a path".to_string());
            }
            out.manifest = Some(Some(path.to_string()));
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else {
            out.names.push(a.clone());
        }
    }
    if out.all && !out.names.is_empty() {
        return Err("--all cannot be combined with explicit names".to_string());
    }
    if !out.all && out.names.is_empty() {
        return Err("nothing to run: pass experiment names or --all".to_string());
    }
    if !out.cached {
        if out.cas_root.is_some() {
            return Err("--cas-root only applies with --cached".to_string());
        }
        if out.fault_plan.is_some() || out.fault_seed != 0 {
            return Err("--fault-plan/--fault-seed only apply with --cached".to_string());
        }
        if out.max_attempts != 0 {
            return Err("--max-attempts only applies with --cached".to_string());
        }
        if out.cas_max_bytes.is_some() {
            return Err("--cas-max-bytes only applies with --cached".to_string());
        }
    }
    Ok(out)
}

/// Resolve names against the registry, failing on the first unknown one.
pub fn resolve(names: &[String]) -> Result<Vec<&'static dyn Experiment>, String> {
    names
        .iter()
        .map(|n| {
            registry::find(n).ok_or_else(|| {
                format!(
                    "unknown experiment `{n}` (known: {})",
                    registry::names().join(", ")
                )
            })
        })
        .collect()
}

/// What a campaign run produced: the per-experiment reports plus the
/// names of any experiments that panicked.
pub struct CampaignOutcome {
    /// One report per executed experiment, in run order. Failed
    /// experiments report whatever files they dumped before panicking.
    pub reports: Vec<ExperimentReport>,
    /// Names of experiments whose run panicked.
    pub failed: Vec<String>,
}

/// Run `exps` in order against one shared context, optionally writing a
/// manifest. A panicking experiment is caught and recorded — the rest
/// of the campaign (and the manifest) still completes, matching the
/// per-child isolation the old `all_figures` spawner provided. This is
/// the library core of `cxlg run`, used directly by integration tests.
pub fn run_experiments(
    ctx: &ExperimentCtx,
    exps: &[&dyn Experiment],
    manifest_path: Option<&Path>,
) -> CampaignOutcome {
    // Eviction plan: count, across this run list, how many experiments
    // declared each spec, so a graph can leave the cache right after
    // its last consumer (peak RSS is the campaign's binding
    // constraint). Spec-ordered, so plan output order is structural
    // rather than hash-order luck (lint rule D1).
    let mut consumers: BTreeMap<cxlg_graph::GraphSpec, usize> = BTreeMap::new();
    for exp in exps {
        for spec in exp.specs(ctx) {
            *consumers.entry(spec).or_insert(0) += 1;
        }
    }
    ctx.plan_graph_consumers(consumers);
    let mut reports = Vec::with_capacity(exps.len());
    let mut walls_ms = Vec::with_capacity(exps.len());
    // Per-report flags, not a name set: `run fig3 fig3` may succeed once
    // and fail once, and the manifest must tell the two entries apart.
    let mut failed_flags = Vec::with_capacity(exps.len());
    let mut failed = Vec::new();
    for exp in exps {
        println!("\n################ {} ################\n", exp.name());
        let (outcome, wall) = timed(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(ctx)))
        });
        walls_ms.push(wall.as_secs_f64() * 1e3);
        match outcome {
            Ok(report) => {
                reports.push(report);
                failed_flags.push(false);
            }
            Err(_) => {
                // The panic message has already gone to stderr via the
                // default hook; salvage whatever was dumped pre-panic.
                eprintln!("[{} FAILED]", exp.name());
                failed.push(exp.name().to_string());
                failed_flags.push(true);
                reports.push(ExperimentReport {
                    name: exp.name().to_string(),
                    result_files: ctx.take_written(),
                    peak_rss_kb: cxlg_core::mem::peak_rss_kb(),
                });
            }
        }
        // This experiment's declared graphs are done with (even on
        // failure — it consumes no more); evict any whose last consumer
        // this was.
        for spec in exp.specs(ctx) {
            if ctx.release(spec) {
                eprintln!("[evicted {} from the graph cache]", spec.name());
            }
        }
    }
    println!(
        "\n{} of {} experiment(s) regenerated. JSON in {}.",
        reports.len() - failed.len(),
        exps.len(),
        ctx.results_dir.display()
    );
    if !failed.is_empty() {
        eprintln!("\nFAILED: {failed:?}");
    }
    if let Some(path) = manifest_path {
        write_manifest(ctx, &reports, &walls_ms, &failed_flags, path);
    }
    CampaignOutcome { reports, failed }
}

/// Serialize the run manifest: configuration, per-experiment wall-clock
/// and result paths, and the graph cache's per-spec build counts (the
/// proof that the campaign built each dataset exactly once).
fn write_manifest(
    ctx: &ExperimentCtx,
    reports: &[ExperimentReport],
    walls_ms: &[f64],
    failed_flags: &[bool],
    path: &Path,
) {
    let experiments = reports
        .iter()
        .zip(walls_ms)
        .zip(failed_flags)
        .map(|((r, wall), failed)| {
            Value::Map(vec![
                ("name".to_string(), Value::Str(r.name.clone())),
                ("wall_ms".to_string(), Value::F64(*wall)),
                ("failed".to_string(), Value::Bool(*failed)),
                // Process high-water RSS when the experiment finished
                // (monotone over the campaign; 0 = no platform source).
                ("peak_rss_kb".to_string(), Value::U64(r.peak_rss_kb)),
                (
                    "result_files".to_string(),
                    Value::Array(r.result_files.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ])
        })
        .collect();
    let builds = ctx
        .graph_build_counts()
        .into_iter()
        .map(|(spec, n)| {
            Value::Map(vec![
                ("spec".to_string(), Value::Str(spec)),
                ("builds".to_string(), Value::U64(n)),
            ])
        })
        .collect();
    let evictions = ctx
        .graph_eviction_counts()
        .into_iter()
        .map(|(spec, n)| {
            Value::Map(vec![
                ("spec".to_string(), Value::Str(spec)),
                ("evictions".to_string(), Value::U64(n)),
            ])
        })
        .collect();
    let (graph_resident, graph_on_disk) = ctx.graph_storage_bytes();
    let manifest = Value::Map(vec![
        ("scale".to_string(), Value::U64(ctx.scale as u64)),
        ("seed".to_string(), Value::U64(ctx.seed)),
        ("threads".to_string(), Value::U64(ctx.threads as u64)),
        (
            "graph_storage".to_string(),
            Value::Str(ctx.graph_storage_mode().label().to_string()),
        ),
        // Telemetry over whatever graphs the eviction plan still holds
        // at manifest time (often none — evidence, not an invariant).
        ("graph_resident_bytes".to_string(), Value::U64(graph_resident)),
        ("graph_on_disk_bytes".to_string(), Value::U64(graph_on_disk)),
        (
            "results_dir".to_string(),
            Value::Str(ctx.results_dir.display().to_string()),
        ),
        (
            "peak_rss_kb".to_string(),
            Value::U64(cxlg_core::mem::peak_rss_kb()),
        ),
        ("experiments".to_string(), Value::Array(experiments)),
        ("graph_builds".to_string(), Value::Array(builds)),
        ("graph_evictions".to_string(), Value::Array(evictions)),
    ]);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create manifest dir");
    }
    let mut f = std::fs::File::create(path).expect("create manifest file");
    let s = serde_json::to_string_pretty(&manifest).expect("serialize manifest");
    f.write_all(s.as_bytes()).expect("write manifest file");
    eprintln!("[manifest {}]", path.display());
}

/// Execute a parsed `cxlg run`, returning the process exit code.
pub fn run_cli(args: RunArgs) -> i32 {
    let exps: Vec<&dyn Experiment> = if args.all {
        registry::all().collect()
    } else {
        match resolve(&args.names) {
            Ok(e) => e,
            Err(msg) => {
                eprintln!("cxlg run: {msg}");
                return 2;
            }
        }
    };
    if args.cached {
        let env = crate::bench_scale().and_then(|scale| Ok((scale, crate::bench_seed()?)));
        let (scale, seed) = match env {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("cxlg run: {msg}");
                return 2;
            }
        };
        let results_dir = crate::results_dir();
        let cas_root = args
            .cas_root
            .map_or_else(|| results_dir.join("cas"), PathBuf::from);
        let manifest_path = args
            .manifest
            .map(|p| p.map_or_else(|| results_dir.join("manifest.json"), PathBuf::from));
        let opts = crate::serve_cli::CachedOptions {
            fault_plan: args.fault_plan,
            fault_seed: args.fault_seed,
            max_attempts: args.max_attempts,
            cas_max_bytes: args.cas_max_bytes,
            graph_storage: args.graph_storage,
        };
        let outcome = crate::serve_cli::run_cached_campaign(
            scale,
            seed,
            rayon::current_num_threads(),
            &results_dir,
            &cas_root,
            &exps,
            manifest_path.as_deref(),
            &opts,
        );
        return match outcome {
            Ok(o) if o.failed.is_empty() => 0,
            Ok(_) => 1,
            Err(msg) => {
                eprintln!("cxlg run --cached: {msg}");
                2
            }
        };
    }
    let ctx = match args
        .graph_storage
        .map_or_else(crate::graph_storage, Ok)
        .and_then(ExperimentCtx::from_env_with_storage)
    {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("cxlg run: {msg}");
            return 2;
        }
    };
    let manifest_path = args
        .manifest
        .map(|p| p.map_or_else(|| ctx.results_dir.join("manifest.json"), PathBuf::from));
    let outcome = run_experiments(&ctx, &exps, manifest_path.as_deref());
    if outcome.failed.is_empty() {
        0
    } else {
        1
    }
}

/// Parsed `cxlg graph-mem` arguments.
#[derive(Debug, PartialEq)]
pub struct GraphMemArgs {
    /// Dataset family (`urand`, `kron`, `social`).
    pub family: String,
    /// log2 vertex count.
    pub scale: u32,
    /// Fail when peak RSS exceeds this many bytes per directed arc.
    pub max_bytes_per_arc: Option<f64>,
    /// Storage backend to build the probe dataset into.
    pub storage: cxlg_graph::StorageMode,
}

/// Parse the arguments following `cxlg graph-mem`.
pub fn parse_graph_mem_args(args: &[String]) -> Result<GraphMemArgs, String> {
    let mut family = None;
    let mut scale = None;
    let mut max_bytes_per_arc = None;
    let mut storage = cxlg_graph::StorageMode::Mem;
    for a in args {
        if let Some(v) = a.strip_prefix("--storage=") {
            storage = cxlg_graph::StorageMode::parse(v)
                .ok_or_else(|| format!("--storage: unknown mode `{v}` (mem | spill)"))?;
        } else if let Some(v) = a.strip_prefix("--max-bytes-per-arc=") {
            let n: f64 = v
                .parse()
                .map_err(|_| format!("--max-bytes-per-arc: bad number `{v}`"))?;
            if !n.is_finite() || n <= 0.0 {
                return Err("--max-bytes-per-arc must be positive and finite".to_string());
            }
            max_bytes_per_arc = Some(n);
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else if family.is_none() {
            family = Some(a.clone());
        } else if scale.is_none() {
            scale = Some(
                a.parse::<u32>()
                    .map_err(|_| format!("bad scale `{a}`"))?,
            );
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let family = family.ok_or("graph-mem: missing dataset family")?;
    let scale = scale.ok_or("graph-mem: missing scale")?;
    if !matches!(family.as_str(), "urand" | "kron" | "social") {
        return Err(format!(
            "unknown family `{family}` (known: urand, kron, social)"
        ));
    }
    // Match the generators' contract (`1 <= scale < 32`) here so a bad
    // scale is a usage error, not a generator panic mid-build.
    if !(1..32).contains(&scale) {
        return Err(format!("scale {scale} out of range (1..=31)"));
    }
    Ok(GraphMemArgs {
        family,
        scale,
        max_bytes_per_arc,
        storage,
    })
}

/// Build one dataset in this process and report build wall-clock, the
/// process peak RSS, the bytes-per-arc ratio, and the CSR fingerprint —
/// the probe behind the CI build-memory budget and the EXPERIMENTS.md
/// before/after table. Returns the process exit code.
///
/// Peak RSS is a process-wide high-water mark, so the probe is honest
/// only when the build is the process's dominant allocation — which is
/// why it is a subcommand (fresh process) rather than an experiment.
pub fn graph_mem(args: GraphMemArgs) -> i32 {
    let seed = match crate::bench_seed() {
        Ok(seed) => seed,
        Err(msg) => {
            eprintln!("cxlg graph-mem: {msg}");
            return 2;
        }
    };
    let spec = match args.family.as_str() {
        "urand" => cxlg_graph::GraphSpec::urand(args.scale),
        "kron" => cxlg_graph::GraphSpec::kron(args.scale),
        _ => cxlg_graph::GraphSpec::friendster_like(args.scale),
    }
    .seed(seed);
    let spill_dir = std::env::temp_dir().join(format!(
        "cxlg-graph-mem-spill-{}",
        std::process::id()
    ));
    let spill_cfg = cxlg_graph::SpillConfig::new(&spill_dir);
    let baseline_kb = cxlg_core::mem::peak_rss_kb();
    let (g, wall) = timed(|| spec.build_with(args.storage, &spill_cfg));
    let peak_kb = cxlg_core::mem::peak_rss_kb();
    let arcs = g.num_edges();
    let per_arc = |bytes: f64| if arcs == 0 { 0.0 } else { bytes / arcs as f64 };
    let bytes_per_arc = per_arc((peak_kb * 1024) as f64);
    println!(
        "graph-mem {}: vertices={} arcs={} wall_ms={:.0} peak_rss_kb={} \
         baseline_rss_kb={} bytes_per_arc={:.2} storage={} \
         resident_bytes_per_arc={:.2} on_disk_bytes_per_arc={:.2} \
         fingerprint={:#018x}",
        spec.name(),
        g.num_vertices(),
        arcs,
        wall.as_secs_f64() * 1e3,
        peak_kb,
        baseline_kb,
        bytes_per_arc,
        g.storage_mode().label(),
        per_arc(g.resident_bytes() as f64),
        per_arc(g.on_disk_bytes() as f64),
        g.fingerprint(),
    );
    // A built spill file is deleted when `g` drops; sweep the (now
    // empty) per-process spill directory with it.
    drop(g);
    let _ = std::fs::remove_dir(&spill_dir);
    if let Some(budget) = args.max_bytes_per_arc {
        if peak_kb == 0 {
            eprintln!("graph-mem: no peak-RSS source on this platform; budget not enforced");
        } else if bytes_per_arc > budget {
            eprintln!(
                "graph-mem: peak RSS {bytes_per_arc:.2} B/arc exceeds the {budget:.2} B/arc budget"
            );
            return 1;
        }
    }
    0
}

/// Parsed `cxlg lint` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct LintArgs {
    /// Workspace root to scan (default: current directory).
    pub root: PathBuf,
    /// Emit the machine-readable JSON report instead of text.
    pub json: bool,
    /// Exit 1 on any unsuppressed finding (the CI gate mode).
    pub deny: bool,
}

/// Parse the arguments following `cxlg lint`.
pub fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut out = LintArgs {
        root: PathBuf::from("."),
        json: false,
        deny: false,
    };
    for a in args {
        if let Some(dir) = a.strip_prefix("--root=") {
            if dir.is_empty() {
                return Err("--root= requires a directory".to_string());
            }
            out.root = PathBuf::from(dir);
        } else if a == "--json" {
            out.json = true;
        } else if a == "--deny" {
            out.deny = true;
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    Ok(out)
}

/// Execute `cxlg lint`: run the determinism & unsafety analyzer over
/// the workspace, print the byte-stable report to stdout, and report
/// wall-clock on stderr (the report itself must stay host-independent).
/// Returns the process exit code: with `--deny`, 1 on any unsuppressed
/// finding; 2 on I/O failure.
pub fn run_lint(args: LintArgs) -> i32 {
    let (run, wall) = timed(|| cxlg_lint::run_workspace(&args.root));
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cxlg lint: {e}");
            return 2;
        }
    };
    if args.json {
        println!("{}", run.render_json());
    } else {
        print!("{}", run.render_text());
    }
    eprintln!("[lint wall-clock: {:.0} ms]", wall.as_secs_f64() * 1e3);
    if args.deny && run.active().count() > 0 {
        eprintln!("cxlg lint: denying on {} finding(s)", run.active().count());
        1
    } else {
        0
    }
}

/// Parsed `cxlg serve` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Unix socket path the service listens on (or is queried at).
    pub socket: PathBuf,
    /// Worker-pool size (default 2).
    pub workers: usize,
    /// CAS root (default `<results_dir>/cas`).
    pub cas_root: Option<String>,
    /// Client mode: query a running service's stats instead of serving.
    pub stats: bool,
    /// Execution attempts per job before `Failed` (default 1).
    pub max_attempts: u64,
    /// Per-job watchdog timeout in ms (`None` disables).
    pub job_timeout_ms: Option<u64>,
    /// Admission budget: estimated bytes of concurrently running jobs.
    pub mem_budget_bytes: Option<u64>,
    /// CAS byte budget: GC after every publication.
    pub cas_max_bytes: Option<u64>,
}

/// Parse the arguments following `cxlg serve`.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        socket: PathBuf::new(),
        workers: 2,
        cas_root: None,
        stats: false,
        max_attempts: 0,
        job_timeout_ms: None,
        mem_budget_bytes: None,
        cas_max_bytes: None,
    };
    let mut socket = None;
    let parse_positive = |flag: &str, n: &str| {
        n.parse::<u64>()
            .ok()
            .filter(|v| *v >= 1)
            .ok_or_else(|| format!("{flag}: bad value `{n}` (need >= 1)"))
    };
    for a in args {
        if let Some(p) = a.strip_prefix("--socket=") {
            if p.is_empty() {
                return Err("--socket= requires a path".to_string());
            }
            socket = Some(PathBuf::from(p));
        } else if let Some(n) = a.strip_prefix("--workers=") {
            out.workers = parse_positive("--workers", n)? as usize;
        } else if let Some(dir) = a.strip_prefix("--cas-root=") {
            if dir.is_empty() {
                return Err("--cas-root= requires a directory".to_string());
            }
            out.cas_root = Some(dir.to_string());
        } else if let Some(n) = a.strip_prefix("--max-attempts=") {
            out.max_attempts = parse_positive("--max-attempts", n)?;
        } else if let Some(n) = a.strip_prefix("--job-timeout-ms=") {
            out.job_timeout_ms = Some(parse_positive("--job-timeout-ms", n)?);
        } else if let Some(n) = a.strip_prefix("--mem-budget-bytes=") {
            out.mem_budget_bytes = Some(parse_positive("--mem-budget-bytes", n)?);
        } else if let Some(n) = a.strip_prefix("--cas-max-bytes=") {
            out.cas_max_bytes = Some(parse_positive("--cas-max-bytes", n)?);
        } else if a == "--stats" {
            out.stats = true;
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    out.socket = socket.ok_or("serve: --socket=PATH is required")?;
    Ok(out)
}

/// Parsed `cxlg submit` arguments: the socket plus exactly one action.
#[derive(Debug, PartialEq, Eq)]
pub struct SubmitArgs {
    /// Unix socket of the running service.
    pub socket: PathBuf,
    /// The single request this invocation sends.
    pub action: SubmitAction,
}

/// What a `cxlg submit` invocation asks the service to do.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitAction {
    /// Submit one experiment job.
    Submit {
        /// Registered experiment name.
        experiment: String,
        /// Override the server's default scale.
        scale: Option<u32>,
        /// Override the server's default seed.
        seed: Option<u64>,
        /// Override the server's default thread count.
        threads: Option<usize>,
        /// Scheduling lane (server default: normal).
        priority: Option<String>,
        /// Block until the job is terminal.
        wait: bool,
        /// Bound the `--wait` block (ms); the response carries
        /// `wait_timed_out` when it expires first.
        timeout_ms: Option<u64>,
    },
    /// Snapshot a job by key.
    Status(String),
    /// Block until a job is terminal (optionally bounded, in ms).
    WaitKey(String, Option<u64>),
    /// Cancel a queued job.
    Cancel(String),
    /// Stop the service.
    Shutdown,
}

/// Parse the arguments following `cxlg submit`.
pub fn parse_submit_args(args: &[String]) -> Result<SubmitArgs, String> {
    let mut socket = None;
    let mut experiment = None;
    let mut scale = None;
    let mut seed = None;
    let mut threads = None;
    let mut priority = None;
    let mut wait = false;
    let mut timeout_ms = None;
    let mut wait_key = None;
    let mut keyed: Option<SubmitAction> = None;
    let set_keyed = |action: SubmitAction, keyed: &mut Option<SubmitAction>| {
        if keyed.is_some() {
            Err("submit: pass at most one of --status/--wait-key/--cancel/--shutdown".to_string())
        } else {
            *keyed = Some(action);
            Ok(())
        }
    };
    for a in args {
        if let Some(p) = a.strip_prefix("--socket=") {
            if p.is_empty() {
                return Err("--socket= requires a path".to_string());
            }
            socket = Some(PathBuf::from(p));
        } else if let Some(n) = a.strip_prefix("--scale=") {
            scale = Some(n.parse::<u32>().map_err(|_| format!("bad scale `{n}`"))?);
        } else if let Some(n) = a.strip_prefix("--seed=") {
            seed = Some(n.parse::<u64>().map_err(|_| format!("bad seed `{n}`"))?);
        } else if let Some(n) = a.strip_prefix("--threads=") {
            threads = Some(
                n.parse::<usize>()
                    .ok()
                    .filter(|t| *t >= 1)
                    .ok_or_else(|| format!("bad thread count `{n}`"))?,
            );
        } else if let Some(p) = a.strip_prefix("--priority=") {
            if !matches!(p, "high" | "normal" | "low") {
                return Err(format!("bad priority `{p}` (high|normal|low)"));
            }
            priority = Some(p.to_string());
        } else if a == "--wait" {
            wait = true;
        } else if let Some(n) = a.strip_prefix("--timeout-ms=") {
            timeout_ms = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad timeout `{n}`"))?,
            );
        } else if let Some(k) = a.strip_prefix("--status=") {
            set_keyed(SubmitAction::Status(k.to_string()), &mut keyed)?;
        } else if let Some(k) = a.strip_prefix("--wait-key=") {
            // The timeout flag may come after the key; bind them once
            // every argument is seen.
            if wait_key.replace(k.to_string()).is_some() {
                return Err("submit: pass --wait-key at most once".to_string());
            }
        } else if let Some(k) = a.strip_prefix("--cancel=") {
            set_keyed(SubmitAction::Cancel(k.to_string()), &mut keyed)?;
        } else if a == "--shutdown" {
            set_keyed(SubmitAction::Shutdown, &mut keyed)?;
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else if experiment.is_none() {
            experiment = Some(a.clone());
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let socket = socket.ok_or("submit: --socket=PATH is required")?;
    if let Some(k) = wait_key {
        set_keyed(SubmitAction::WaitKey(k, timeout_ms.take()), &mut keyed)?;
    }
    if timeout_ms.is_some() && !wait {
        return Err("submit: --timeout-ms requires --wait or --wait-key".to_string());
    }
    let action = match (experiment, keyed) {
        (Some(_), Some(_)) => {
            return Err("submit: an experiment name and a keyed action are exclusive".to_string())
        }
        (None, Some(action)) => action,
        (Some(experiment), None) => SubmitAction::Submit {
            experiment,
            scale,
            seed,
            threads,
            priority,
            wait,
            timeout_ms,
        },
        (None, None) => return Err("submit: nothing to do (experiment name or keyed action)".to_string()),
    };
    Ok(SubmitArgs { socket, action })
}

/// Render one protocol request line for a submit action. Pure, so the
/// wire format is unit-testable without a live socket.
pub fn submit_request_line(action: &SubmitAction) -> String {
    let mut fields: Vec<(String, Value)> = Vec::new();
    match action {
        SubmitAction::Submit {
            experiment,
            scale,
            seed,
            threads,
            priority,
            wait,
            timeout_ms,
        } => {
            fields.push(("op".to_string(), Value::Str("submit".to_string())));
            fields.push(("experiment".to_string(), Value::Str(experiment.clone())));
            if let Some(s) = scale {
                fields.push(("scale".to_string(), Value::U64(*s as u64)));
            }
            if let Some(s) = seed {
                fields.push(("seed".to_string(), Value::U64(*s)));
            }
            if let Some(t) = threads {
                fields.push(("threads".to_string(), Value::U64(*t as u64)));
            }
            if let Some(p) = priority {
                fields.push(("priority".to_string(), Value::Str(p.clone())));
            }
            if *wait {
                fields.push(("wait".to_string(), Value::Bool(true)));
            }
            if let Some(t) = timeout_ms {
                fields.push(("timeout_ms".to_string(), Value::U64(*t)));
            }
        }
        SubmitAction::Status(k) => {
            fields.push(("op".to_string(), Value::Str("status".to_string())));
            fields.push(("key".to_string(), Value::Str(k.clone())));
        }
        SubmitAction::WaitKey(k, timeout_ms) => {
            fields.push(("op".to_string(), Value::Str("wait".to_string())));
            fields.push(("key".to_string(), Value::Str(k.clone())));
            if let Some(t) = timeout_ms {
                fields.push(("timeout_ms".to_string(), Value::U64(*t)));
            }
        }
        SubmitAction::Cancel(k) => {
            fields.push(("op".to_string(), Value::Str("cancel".to_string())));
            fields.push(("key".to_string(), Value::Str(k.clone())));
        }
        SubmitAction::Shutdown => {
            fields.push(("op".to_string(), Value::Str("shutdown".to_string())));
        }
    }
    serde_json::to_string(&Value::Map(fields)).expect("serialize request")
}

/// Exit code for a service response line: 0 when the service said
/// `ok:true`, the reported job status (if any) is not `failed`, and a
/// bounded wait did not expire (`wait_timed_out`) — so scripts can poll
/// with `--timeout-ms` and branch on the exit code.
pub fn response_exit_code(response: &str) -> i32 {
    let Ok(Value::Map(map)) = serde_json::from_str::<Value>(response) else {
        return 1;
    };
    let ok = map
        .iter()
        .any(|(k, v)| k == "ok" && matches!(v, Value::Bool(true)));
    let failed = map
        .iter()
        .any(|(k, v)| k == "status" && matches!(v, Value::Str(s) if s == "failed"));
    let timed_out = map
        .iter()
        .any(|(k, v)| k == "wait_timed_out" && matches!(v, Value::Bool(true)));
    if ok && !failed && !timed_out {
        0
    } else {
        1
    }
}

/// Parsed `cxlg cas gc` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct CasGcArgs {
    /// Store root to collect.
    pub cas_root: PathBuf,
    /// Evict (LRU by publication sequence) until at or below this many
    /// bytes.
    pub max_bytes: Option<u64>,
    /// Evict until at or below this many entries.
    pub max_entries: Option<usize>,
}

/// Parse the arguments following `cxlg cas` (currently only the `gc`
/// verb).
pub fn parse_cas_args(args: &[String]) -> Result<CasGcArgs, String> {
    let Some(("gc", rest)) = args.split_first().map(|(v, r)| (v.as_str(), r)) else {
        return Err("cas: expected the `gc` verb".to_string());
    };
    let mut out = CasGcArgs {
        cas_root: PathBuf::new(),
        max_bytes: None,
        max_entries: None,
    };
    let mut cas_root = None;
    for a in rest {
        if let Some(dir) = a.strip_prefix("--cas-root=") {
            if dir.is_empty() {
                return Err("--cas-root= requires a directory".to_string());
            }
            cas_root = Some(PathBuf::from(dir));
        } else if let Some(n) = a.strip_prefix("--max-bytes=") {
            out.max_bytes = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("--max-bytes: bad size `{n}`"))?,
            );
        } else if let Some(n) = a.strip_prefix("--max-entries=") {
            out.max_entries = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("--max-entries: bad count `{n}`"))?,
            );
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    out.cas_root = cas_root.ok_or("cas gc: --cas-root=DIR is required")?;
    Ok(out)
}

/// Execute `cxlg cas gc`: open the store (which already reaps stale
/// staging litter and quarantines corrupt manifests as part of open)
/// and evict entries oldest-publication-first until the given bounds
/// fit. With no bounds this is a recovery-only pass. Returns the exit
/// code.
pub fn run_cas_gc(args: CasGcArgs) -> i32 {
    let store = match cxlg_serve::store::ResultStore::new(&args.cas_root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cxlg cas gc: open {}: {e}", args.cas_root.display());
            return 2;
        }
    };
    let recovered = store.counters();
    let report = store.gc(args.max_bytes, args.max_entries);
    for key in &report.evicted {
        println!("evicted {key}");
    }
    println!(
        "cas gc {}: entries {} -> {}, bytes {} -> {} (reaped {} staging dir(s), \
         quarantined {} entr(ies))",
        args.cas_root.display(),
        report.entries_before,
        report.entries_before - report.evicted.len(),
        report.bytes_before,
        report.bytes_after,
        recovered.staging_reaped,
        recovered.quarantined,
    );
    0
}

/// Execute `cxlg serve`: either run the campaign service on a Unix
/// socket until a client sends `shutdown`, or (with `--stats`) query a
/// running service and print its stats line. Returns the exit code.
#[cfg(unix)]
pub fn run_serve(args: ServeArgs) -> i32 {
    use cxlg_serve::server::{request_one, Server, SubmitDefaults};
    if args.stats {
        return match request_one(&args.socket, "{\"op\":\"stats\"}") {
            Ok(resp) => {
                println!("{resp}");
                response_exit_code(&resp)
            }
            Err(e) => {
                eprintln!("cxlg serve --stats: {e}");
                1
            }
        };
    }
    let env = crate::graph_storage().and_then(|storage| {
        Ok((storage, crate::bench_scale()?, crate::bench_seed()?))
    });
    let (storage, scale, seed) = match env {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("cxlg serve: {msg}");
            return 2;
        }
    };
    let results_dir = crate::results_dir();
    let cas_root = args
        .cas_root
        .map_or_else(|| results_dir.join("cas"), PathBuf::from);
    let cache = std::sync::Arc::new(crate::cache::GraphCache::with_storage(
        storage,
        cxlg_graph::SpillConfig::new(results_dir.join("graph-spill")),
    ));
    let backend = match crate::serve_cli::RegistryBackend::new(&cas_root, cache) {
        Ok(b) => std::sync::Arc::new(b),
        Err(e) => {
            eprintln!("cxlg serve: open CAS root: {e}");
            return 2;
        }
    };
    let store = match cxlg_serve::store::ResultStore::new(&cas_root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cxlg serve: open result store: {e}");
            return 2;
        }
    };
    let defaults = SubmitDefaults {
        scale,
        seed,
        threads: rayon::current_num_threads(),
    };
    let sched = cxlg_serve::scheduler::Scheduler::with_config(
        store,
        backend,
        cxlg_serve::scheduler::SchedulerConfig {
            workers: args.workers,
            max_attempts: args.max_attempts,
            job_timeout_ms: args.job_timeout_ms,
            mem_budget_bytes: args.mem_budget_bytes,
            cas_max_bytes: args.cas_max_bytes,
            faults: None,
        },
    );
    let server = match Server::bind(&args.socket, sched, defaults) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cxlg serve: bind {}: {e}", args.socket.display());
            return 2;
        }
    };
    println!(
        "cxlg serve: listening on {} (workers={}, cas={}, defaults scale={} seed={:#x} threads={})",
        args.socket.display(),
        args.workers,
        cas_root.display(),
        defaults.scale,
        defaults.seed,
        defaults.threads,
    );
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("cxlg serve: {e}");
            1
        }
    }
}

/// Execute `cxlg submit`: send one request line to a running service
/// and print the response. Returns the exit code.
#[cfg(unix)]
pub fn run_submit(args: SubmitArgs) -> i32 {
    let line = submit_request_line(&args.action);
    match cxlg_serve::server::request_one(&args.socket, &line) {
        Ok(resp) => {
            println!("{resp}");
            response_exit_code(&resp)
        }
        Err(e) => {
            eprintln!("cxlg submit: {e}");
            1
        }
    }
}

/// Entry point of the `cxlg` binary.
pub fn cxlg_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => {
            for e in registry::all() {
                println!("{:<16} {}", e.name(), e.description());
            }
            println!();
            println!("{} experiments. Run with `cxlg run <names...>` or `cxlg run --all`.",
                registry::ALL.len());
            0
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(ra) => run_cli(ra),
            Err(msg) => {
                eprintln!("cxlg run: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("graph-mem") => match parse_graph_mem_args(&args[1..]) {
            Ok(ga) => graph_mem(ga),
            Err(msg) => {
                eprintln!("cxlg graph-mem: {msg}\n\n{USAGE}");
                2
            }
        },
        #[cfg(unix)]
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(sa) => run_serve(sa),
            Err(msg) => {
                eprintln!("cxlg serve: {msg}\n\n{USAGE}");
                2
            }
        },
        #[cfg(unix)]
        Some("submit") => match parse_submit_args(&args[1..]) {
            Ok(sa) => run_submit(sa),
            Err(msg) => {
                eprintln!("cxlg submit: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("cas") => match parse_cas_args(&args[1..]) {
            Ok(ca) => run_cas_gc(ca),
            Err(msg) => {
                eprintln!("cxlg cas: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(la) => run_lint(la),
            Err(msg) => {
                eprintln!("cxlg lint: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("validate") => match crate::fidelity::parse_validate_args(&args[1..]) {
            Ok(va) => crate::fidelity::run_validate(va),
            Err(msg) => {
                eprintln!("cxlg validate: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("cxlg: unknown command `{other}`\n\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Entry point of a legacy per-figure shim binary: run exactly one
/// registered experiment with the environment-derived context. The
/// result JSON matches `cxlg run <name>` byte for byte (enforced by
/// `tests/golden_parity.rs`); stdout is the experiment's own output,
/// without the driver's `####` separator and summary footer.
pub fn shim_main(name: &str) {
    let exp = registry::find(name)
        .unwrap_or_else(|| panic!("experiment `{name}` is not registered"));
    let ctx = ExperimentCtx::from_env().unwrap_or_else(|msg| {
        eprintln!("{name}: {msg}");
        std::process::exit(2)
    });
    exp.run(&ctx);
}

/// Entry point of the `all_figures` shim: `cxlg run --all
/// --json-manifest` under the hood (one process, shared graph cache —
/// no child spawning).
pub fn run_all() {
    let code = run_cli(RunArgs {
        all: true,
        names: Vec::new(),
        manifest: Some(None),
        cached: false,
        cas_root: None,
        fault_plan: None,
        fault_seed: 0,
        max_attempts: 0,
        cas_max_bytes: None,
        graph_storage: None,
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_names_and_manifest_forms() {
        let ra = parse_run_args(&s(&["fig3", "fig6"])).unwrap();
        assert_eq!(ra.names, vec!["fig3", "fig6"]);
        assert!(!ra.all);
        assert_eq!(ra.manifest, None);

        let ra = parse_run_args(&s(&["--all", "--json-manifest"])).unwrap();
        assert!(ra.all);
        assert_eq!(ra.manifest, Some(None));

        let ra = parse_run_args(&s(&["--json-manifest=/tmp/m.json", "fig3"])).unwrap();
        assert_eq!(ra.manifest, Some(Some("/tmp/m.json".to_string())));
    }

    #[test]
    fn parse_graph_storage_forms() {
        let ra = parse_run_args(&s(&["fig3"])).unwrap();
        assert_eq!(ra.graph_storage, None, "default defers to the environment");
        let ra = parse_run_args(&s(&["--graph-storage=spill", "fig3"])).unwrap();
        assert_eq!(ra.graph_storage, Some(cxlg_graph::StorageMode::Spill));
        let ra = parse_run_args(&s(&["--graph-storage=mem", "--cached", "fig3"])).unwrap();
        assert_eq!(ra.graph_storage, Some(cxlg_graph::StorageMode::Mem));
        assert!(ra.cached, "storage composes with --cached");
        assert!(parse_run_args(&s(&["--graph-storage=frob", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--graph-storage=", "fig3"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_combinations() {
        assert!(parse_run_args(&s(&[])).is_err());
        assert!(parse_run_args(&s(&["--all", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--json-manifest="])).is_err());
        assert!(parse_run_args(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn parse_graph_mem_forms() {
        let ga = parse_graph_mem_args(&s(&["urand", "18"])).unwrap();
        assert_eq!(
            ga,
            GraphMemArgs {
                family: "urand".to_string(),
                scale: 18,
                max_bytes_per_arc: None,
                storage: cxlg_graph::StorageMode::Mem,
            }
        );
        let ga = parse_graph_mem_args(&s(&["kron", "16", "--max-bytes-per-arc=10"])).unwrap();
        assert_eq!(ga.max_bytes_per_arc, Some(10.0));
        let ga = parse_graph_mem_args(&s(&["urand", "18", "--storage=spill"])).unwrap();
        assert_eq!(ga.storage, cxlg_graph::StorageMode::Spill);
        let ga = parse_graph_mem_args(&s(&["urand", "18", "--storage=mem"])).unwrap();
        assert_eq!(ga.storage, cxlg_graph::StorageMode::Mem);
    }

    #[test]
    fn parse_graph_mem_rejects_bad_input() {
        assert!(parse_graph_mem_args(&s(&[])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand"])).is_err());
        assert!(parse_graph_mem_args(&s(&["frob", "18"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "big"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "0"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "32"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "19"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=0"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=inf"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=nan"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--frob"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--storage=frob"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--storage="])).is_err());
    }

    #[test]
    fn parse_lint_forms() {
        let la = parse_lint_args(&s(&[])).unwrap();
        assert_eq!(
            la,
            LintArgs {
                root: PathBuf::from("."),
                json: false,
                deny: false
            }
        );
        let la = parse_lint_args(&s(&["--root=/tmp/ws", "--json", "--deny"])).unwrap();
        assert_eq!(la.root, PathBuf::from("/tmp/ws"));
        assert!(la.json && la.deny);
        assert!(parse_lint_args(&s(&["--root="])).is_err());
        assert!(parse_lint_args(&s(&["--frob"])).is_err());
        assert!(parse_lint_args(&s(&["stray"])).is_err());
    }

    #[test]
    fn parse_run_cached_forms() {
        let ra = parse_run_args(&s(&["--cached", "--all"])).unwrap();
        assert!(ra.cached && ra.all);
        assert_eq!(ra.cas_root, None);
        let ra = parse_run_args(&s(&["--cached", "--cas-root=/tmp/cas", "fig3"])).unwrap();
        assert_eq!(ra.cas_root, Some("/tmp/cas".to_string()));
        assert!(parse_run_args(&s(&["--cas-root=/tmp/cas", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--cached", "--cas-root=", "fig3"])).is_err());
    }

    #[test]
    fn parse_run_chaos_forms() {
        let ra = parse_run_args(&s(&[
            "--cached",
            "--fault-plan=panic@2,torn@1,delay@3:25",
            "--fault-seed=7",
            "--max-attempts=4",
            "--cas-max-bytes=4096",
            "fig3",
        ]))
        .unwrap();
        assert_eq!(ra.fault_plan.as_deref(), Some("panic@2,torn@1,delay@3:25"));
        assert_eq!(ra.fault_seed, 7);
        assert_eq!(ra.max_attempts, 4);
        assert_eq!(ra.cas_max_bytes, Some(4096));
        // A bad plan is a usage error, caught at parse time.
        assert!(parse_run_args(&s(&["--cached", "--fault-plan=frob@1", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--cached", "--fault-plan=panic", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--cached", "--max-attempts=0", "fig3"])).is_err());
        // The chaos knobs all require --cached.
        assert!(parse_run_args(&s(&["--fault-plan=panic@1", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--fault-seed=7", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--max-attempts=2", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--cas-max-bytes=1", "fig3"])).is_err());
    }

    #[test]
    fn parse_serve_forms() {
        let sa = parse_serve_args(&s(&["--socket=/tmp/s.sock"])).unwrap();
        assert_eq!(
            sa,
            ServeArgs {
                socket: PathBuf::from("/tmp/s.sock"),
                workers: 2,
                cas_root: None,
                stats: false,
                max_attempts: 0,
                job_timeout_ms: None,
                mem_budget_bytes: None,
                cas_max_bytes: None,
            }
        );
        let sa =
            parse_serve_args(&s(&["--socket=/tmp/s.sock", "--workers=4", "--cas-root=/tmp/cas", "--stats"]))
                .unwrap();
        assert_eq!(sa.workers, 4);
        assert_eq!(sa.cas_root, Some("/tmp/cas".to_string()));
        assert!(sa.stats);
        let sa = parse_serve_args(&s(&[
            "--socket=/tmp/s.sock",
            "--max-attempts=3",
            "--job-timeout-ms=5000",
            "--mem-budget-bytes=1073741824",
            "--cas-max-bytes=8388608",
        ]))
        .unwrap();
        assert_eq!(sa.max_attempts, 3);
        assert_eq!(sa.job_timeout_ms, Some(5000));
        assert_eq!(sa.mem_budget_bytes, Some(1_073_741_824));
        assert_eq!(sa.cas_max_bytes, Some(8_388_608));
        assert!(parse_serve_args(&s(&[])).is_err(), "socket is required");
        assert!(parse_serve_args(&s(&["--socket="])).is_err());
        assert!(parse_serve_args(&s(&["--socket=/tmp/s", "--workers=0"])).is_err());
        assert!(parse_serve_args(&s(&["--socket=/tmp/s", "--job-timeout-ms=0"])).is_err());
        assert!(parse_serve_args(&s(&["--socket=/tmp/s", "--mem-budget-bytes=x"])).is_err());
        assert!(parse_serve_args(&s(&["--socket=/tmp/s", "--frob"])).is_err());
    }

    #[test]
    fn parse_submit_forms() {
        let sa = parse_submit_args(&s(&["--socket=/tmp/s.sock", "fig3", "--wait"])).unwrap();
        assert_eq!(
            sa.action,
            SubmitAction::Submit {
                experiment: "fig3".to_string(),
                scale: None,
                seed: None,
                threads: None,
                priority: None,
                wait: true,
                timeout_ms: None
            }
        );
        let sa = parse_submit_args(&s(&[
            "--socket=/tmp/s.sock",
            "fig3",
            "--scale=10",
            "--seed=7",
            "--threads=2",
            "--priority=high",
        ]))
        .unwrap();
        let SubmitAction::Submit { scale, seed, threads, priority, wait, .. } = sa.action else {
            panic!("must parse a submit action")
        };
        assert_eq!((scale, seed, threads), (Some(10), Some(7), Some(2)));
        assert_eq!(priority.as_deref(), Some("high"));
        assert!(!wait);
        let sa = parse_submit_args(&s(&["--socket=/tmp/s", "--status=0123456789abcdef"])).unwrap();
        assert_eq!(sa.action, SubmitAction::Status("0123456789abcdef".to_string()));
        let sa = parse_submit_args(&s(&["--socket=/tmp/s", "--shutdown"])).unwrap();
        assert_eq!(sa.action, SubmitAction::Shutdown);
    }

    #[test]
    fn parse_submit_timeout_forms() {
        let sa =
            parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--wait", "--timeout-ms=250"]))
                .unwrap();
        let SubmitAction::Submit { wait, timeout_ms, .. } = sa.action else {
            panic!("must parse a submit action")
        };
        assert!(wait);
        assert_eq!(timeout_ms, Some(250));
        // The flag binds to --wait-key in either argument order.
        let sa = parse_submit_args(&s(&["--socket=/tmp/s", "--timeout-ms=100", "--wait-key=k"]))
            .unwrap();
        assert_eq!(sa.action, SubmitAction::WaitKey("k".to_string(), Some(100)));
        let sa = parse_submit_args(&s(&["--socket=/tmp/s", "--wait-key=k"])).unwrap();
        assert_eq!(sa.action, SubmitAction::WaitKey("k".to_string(), None));
        // A timeout without anything to wait on is a usage error.
        assert!(parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--timeout-ms=5"])).is_err());
        assert!(parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--timeout-ms=x", "--wait"]))
            .is_err());
        assert!(
            parse_submit_args(&s(&["--socket=/tmp/s", "--wait-key=a", "--wait-key=b"])).is_err()
        );
    }

    #[test]
    fn parse_cas_gc_forms() {
        let ca = parse_cas_args(&s(&["gc", "--cas-root=/tmp/cas"])).unwrap();
        assert_eq!(
            ca,
            CasGcArgs {
                cas_root: PathBuf::from("/tmp/cas"),
                max_bytes: None,
                max_entries: None
            }
        );
        let ca = parse_cas_args(&s(&[
            "gc",
            "--cas-root=/tmp/cas",
            "--max-bytes=1048576",
            "--max-entries=16",
        ]))
        .unwrap();
        assert_eq!(ca.max_bytes, Some(1_048_576));
        assert_eq!(ca.max_entries, Some(16));
        assert!(parse_cas_args(&s(&[])).is_err(), "the verb is required");
        assert!(parse_cas_args(&s(&["frob"])).is_err());
        assert!(parse_cas_args(&s(&["gc"])).is_err(), "the root is required");
        assert!(parse_cas_args(&s(&["gc", "--cas-root="])).is_err());
        assert!(parse_cas_args(&s(&["gc", "--cas-root=/tmp/c", "--max-bytes=x"])).is_err());
        assert!(parse_cas_args(&s(&["gc", "--cas-root=/tmp/c", "--frob"])).is_err());
    }

    #[test]
    fn parse_submit_rejects_bad_combinations() {
        assert!(parse_submit_args(&s(&["fig3"])).is_err(), "socket required");
        assert!(parse_submit_args(&s(&["--socket=/tmp/s"])).is_err(), "no action");
        assert!(parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--shutdown"])).is_err());
        assert!(
            parse_submit_args(&s(&["--socket=/tmp/s", "--status=a", "--cancel=b"])).is_err()
        );
        assert!(parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--threads=0"])).is_err());
        assert!(parse_submit_args(&s(&["--socket=/tmp/s", "fig3", "--priority=urgent"])).is_err());
    }

    #[test]
    fn submit_request_lines_are_valid_protocol() {
        let line = submit_request_line(&SubmitAction::Submit {
            experiment: "fig3".to_string(),
            scale: Some(10),
            seed: None,
            threads: None,
            priority: Some("low".to_string()),
            wait: true,
            timeout_ms: Some(250),
        });
        assert_eq!(
            line,
            r#"{"op":"submit","experiment":"fig3","scale":10,"priority":"low","wait":true,"timeout_ms":250}"#
        );
        assert!(cxlg_serve::proto::parse_request(&line).is_ok());
        let line =
            submit_request_line(&SubmitAction::WaitKey("0123456789abcdef".to_string(), Some(100)));
        assert!(line.contains(r#""timeout_ms":100"#), "{line}");
        assert!(cxlg_serve::proto::parse_request(&line).is_ok());
        let line =
            submit_request_line(&SubmitAction::WaitKey("0123456789abcdef".to_string(), None));
        assert!(cxlg_serve::proto::parse_request(&line).is_ok());
        let line = submit_request_line(&SubmitAction::Shutdown);
        assert_eq!(line, r#"{"op":"shutdown"}"#);
    }

    #[test]
    fn response_exit_codes_track_ok_and_failure() {
        assert_eq!(response_exit_code(r#"{"ok":true}"#), 0);
        assert_eq!(response_exit_code(r#"{"ok":true,"status":"done"}"#), 0);
        assert_eq!(response_exit_code(r#"{"ok":true,"status":"failed"}"#), 1);
        assert_eq!(response_exit_code(r#"{"ok":false,"error":"boom"}"#), 1);
        assert_eq!(
            response_exit_code(r#"{"ok":true,"status":"running","wait_timed_out":true}"#),
            1
        );
        assert_eq!(response_exit_code("garbage"), 1);
    }

    #[test]
    fn resolve_reports_unknown_names() {
        assert!(resolve(&s(&["fig3", "fig6"])).is_ok());
        let Err(err) = resolve(&s(&["fig3", "fig7"])) else {
            panic!("fig7 must not resolve")
        };
        assert!(err.contains("fig7"), "{err}");
        assert!(err.contains("known:"), "{err}");
    }
}
