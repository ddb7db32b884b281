//! The campaign service glue: the experiment registry as a
//! [`JobBackend`], the `cxlg run --cached` batch mode, and the
//! `cxlg serve` / `cxlg submit` front ends.
//!
//! [`RegistryBackend`] is what turns a [`Job`] into a real experiment
//! run: it resolves the experiment by name, derives the job's graph
//! fingerprints (memoized in `fingerprints.json` under the CAS root, so
//! replay passes never build a graph just to key a cache hit), executes
//! the experiment against a **per-job** [`ExperimentCtx`] whose results
//! directory is a private staging area, and hands the result bytes back
//! to the scheduler for content-addressed publication. All jobs on one
//! backend share one [`GraphCache`], so concurrent jobs over the same
//! dataset build it once.
//!
//! `run_cached_campaign` is the batch mode: the existing campaign run
//! list, routed job by job through the same scheduler + store the
//! service uses. Submission is sequential (submit → wait per
//! experiment) so the graph-cache eviction plan keeps peak RSS bounded
//! exactly as `cxlg run` does; a re-run with a warm store is all cache
//! hits and builds no graphs at all.

use crate::cache::{spec_label, GraphCache};
use crate::ctx::ExperimentCtx;
use crate::experiment::Experiment;
use cxlg_graph::{GraphKind, GraphSpec, SpillConfig, StorageMode};
use cxlg_serve::fault::{FaultInjector, FaultPlan};
use cxlg_serve::job::{Job, Priority};
use cxlg_serve::scheduler::{JobBackend, JobOutput, JobStatus, Scheduler, SchedulerConfig};
use cxlg_serve::store::ResultStore;
use cxlg_serve::JobKey;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// [`JobBackend`] over the experiment registry.
pub struct RegistryBackend {
    cache: Arc<GraphCache>,
    staging_root: PathBuf,
    memo_path: PathBuf,
    memo: Mutex<BTreeMap<String, u64>>,
}

impl RegistryBackend {
    /// Backend rooted at `cas_root` (the memo and per-job staging live
    /// under it), sharing `cache` with the caller.
    pub fn new(cas_root: &Path, cache: Arc<GraphCache>) -> std::io::Result<Self> {
        std::fs::create_dir_all(cas_root)?;
        let memo_path = cas_root.join("fingerprints.json");
        let memo = load_memo(&memo_path);
        Ok(RegistryBackend {
            cache,
            staging_root: cas_root.join(".staging"),
            memo_path,
            memo: Mutex::new(memo),
        })
    }

    /// A context carrying the job's parameters for spec resolution and
    /// (with a per-job results dir) execution.
    fn ctx_for(&self, job: &Job, results_dir: PathBuf) -> ExperimentCtx {
        ExperimentCtx::with_cache(
            job.scale,
            job.seed,
            job.threads,
            results_dir,
            Arc::clone(&self.cache),
        )
    }

    /// The specs `job` will consume (for eviction planning).
    pub fn specs_for(&self, job: &Job) -> Result<Vec<GraphSpec>, String> {
        let exp = crate::registry::find(&job.experiment)
            .ok_or_else(|| format!("unknown experiment `{}`", job.experiment))?;
        let ctx = self.ctx_for(job, self.staging_root.join("probe"));
        Ok(exp.specs(&ctx))
    }

    /// The shared graph cache (eviction hooks for batch mode).
    pub fn cache(&self) -> &Arc<GraphCache> {
        &self.cache
    }
}

/// Estimated working-set bytes for building `spec`'s CSR: ~8 B per
/// directed arc (4 B target + construction slack) plus 8 B per vertex
/// of offsets. Deliberately coarse — the admission gate only needs the
/// right order of magnitude, and over-estimating defers rather than
/// breaks (the gate always admits onto an idle pool).
pub fn spec_admission_bytes(spec: &GraphSpec) -> u64 {
    let vertices = 1u64 << spec.scale.min(63);
    let arcs = match spec.kind {
        GraphKind::Uniform { avg_degree } => vertices.saturating_mul(avg_degree as u64),
        // Kronecker symmetrizes: edge_factor undirected edges per
        // vertex become two directed arcs each.
        GraphKind::Kronecker { edge_factor } => {
            vertices.saturating_mul(2 * edge_factor as u64)
        }
        GraphKind::Social { avg_degree } => vertices.saturating_mul(avg_degree as u64),
    };
    arcs.saturating_mul(8).saturating_add(vertices.saturating_mul(8))
}

/// [`spec_admission_bytes`] generalized over the storage backend. A
/// spill-mode graph keeps only the offsets resident (8 B/vertex) plus
/// the backend's fixed overhead — the page cache and the builder's
/// per-segment working set — so its estimate is independent of the arc
/// count and far below the mem-mode figure for any non-trivial graph.
/// That is the point: a memory budget that would defer a mem-mode job
/// admits the same job in spill mode.
pub fn spec_admission_bytes_for(spec: &GraphSpec, mode: StorageMode, spill: &SpillConfig) -> u64 {
    match mode {
        StorageMode::Mem => spec_admission_bytes(spec),
        StorageMode::Spill => {
            let vertices = 1u64 << spec.scale.min(63);
            vertices
                .saturating_mul(8)
                .saturating_add(spill.resident_overhead_bytes())
        }
    }
}

impl JobBackend for RegistryBackend {
    /// `(spec label, Csr::fingerprint)` per distinct spec the job's
    /// experiment declares. Fingerprints are memoized by spec label —
    /// a fingerprint is a pure function of the (deterministic) spec —
    /// and the memo is persisted beside the CAS entries, so a warm
    /// store resolves keys without building anything.
    fn fingerprints(&self, job: &Job) -> Result<Vec<(String, u64)>, String> {
        let specs = self.specs_for(job)?;
        let mut out: Vec<(String, u64)> = Vec::new();
        let mut memo = self.memo.lock().unwrap();
        let mut dirty = false;
        for spec in specs {
            let label = spec_label(&spec);
            if out.iter().any(|(l, _)| *l == label) {
                continue;
            }
            let fp = match memo.get(&label) {
                Some(fp) => *fp,
                None => {
                    let fp = self.cache.get(spec).fingerprint();
                    memo.insert(label.clone(), fp);
                    dirty = true;
                    fp
                }
            };
            out.push((label, fp));
        }
        if dirty {
            persist_memo(&self.memo_path, &memo)
                .map_err(|e| format!("persist fingerprint memo: {e}"))?;
        }
        Ok(out)
    }

    /// Run the experiment in a private staging directory and return its
    /// result bytes. The staging directory is removed afterwards — the
    /// CAS entry is the only durable copy; clients materialize from it.
    fn execute(&self, key: &JobKey, job: &Job) -> Result<JobOutput, String> {
        let exp = crate::registry::find(&job.experiment)
            .ok_or_else(|| format!("unknown experiment `{}`", job.experiment))?;
        let staging = self.staging_root.join(format!("job-{}", key.as_str()));
        let _ = std::fs::remove_dir_all(&staging);
        let ctx = self.ctx_for(job, staging.clone());
        let report = exp.run(&ctx);
        let mut files = Vec::with_capacity(report.result_files.len());
        for path in &report.result_files {
            let p = PathBuf::from(path);
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("unnameable result file `{path}`"))?
                .to_string();
            let bytes = std::fs::read(&p).map_err(|e| format!("read result `{path}`: {e}"))?;
            files.push((name, bytes));
        }
        let _ = std::fs::remove_dir_all(&staging);
        Ok(JobOutput { files })
    }

    /// Estimated peak working set: the sum over the job's distinct
    /// graph specs (the eviction plan holds each until its last
    /// consumer, so concurrent specs are the honest bound). Jobs whose
    /// experiment does not resolve estimate 0 — they fail at
    /// fingerprint time anyway, before admission matters.
    fn admission_bytes(&self, job: &Job) -> u64 {
        let Ok(specs) = self.specs_for(job) else { return 0 };
        let mode = self.cache.storage_mode();
        let spill = self.cache.spill_config();
        let mut seen: Vec<GraphSpec> = Vec::new();
        let mut total = 0u64;
        for spec in specs {
            if seen.contains(&spec) {
                continue;
            }
            total = total.saturating_add(spec_admission_bytes_for(&spec, mode, spill));
            seen.push(spec);
        }
        total
    }
}

fn load_memo(path: &Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    // A damaged memo is discarded wholesale: fingerprints are cheap to
    // recompute and a partial table cannot corrupt keys (they are
    // re-derived from the same pure function either way).
    let Ok(Value::Map(map)) = serde_json::from_str::<Value>(&text) else {
        return out;
    };
    for (label, v) in map {
        match v {
            Value::U64(fp) => {
                out.insert(label, fp);
            }
            Value::I64(fp) if fp >= 0 => {
                out.insert(label, fp as u64);
            }
            _ => return BTreeMap::new(),
        }
    }
    out
}

fn persist_memo(path: &Path, memo: &BTreeMap<String, u64>) -> std::io::Result<()> {
    // BTreeMap iteration gives label-sorted, byte-stable output; the
    // write is staged + renamed like every other service artifact.
    let v = Value::Map(
        memo.iter()
            .map(|(label, fp)| (label.clone(), Value::U64(*fp)))
            .collect(),
    );
    let text = serde_json::to_string_pretty(&v).expect("serialize fingerprint memo");
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
    }
    std::fs::rename(&tmp, path)
}

/// One experiment's outcome in a cached campaign run.
#[derive(Debug, Clone)]
pub struct CachedReport {
    /// Experiment name.
    pub name: String,
    /// The job's content key.
    pub key: String,
    /// Whether the result came from the store.
    pub cache_hit: bool,
    /// Job wall-clock (ms) — telemetry.
    pub wall_ms: f64,
    /// Whether the job failed.
    pub failed: bool,
    /// Backend error for failed jobs.
    pub error: Option<String>,
    /// Result files materialized under the campaign results directory.
    pub result_files: Vec<String>,
}

/// What a cached campaign produced.
#[derive(Debug, Clone)]
pub struct CachedOutcome {
    /// One report per experiment, in run order.
    pub reports: Vec<CachedReport>,
    /// Names of failed experiments.
    pub failed: Vec<String>,
    /// Per-spec graph build counts (empty on a fully warm store).
    pub graph_builds: Vec<(String, u64)>,
    /// Per-spec graph eviction counts.
    pub graph_evictions: Vec<(String, u64)>,
    /// Jobs served from the store.
    pub cache_hits: u64,
    /// Jobs that executed fresh.
    pub cache_misses: u64,
}

/// Robustness knobs for a cached campaign (`cxlg run --cached`).
/// [`Default`] injects no faults, allows one attempt per job, and sets
/// no store budget — exactly the pre-chaos behaviour.
#[derive(Debug, Clone, Default)]
pub struct CachedOptions {
    /// Fault-plan spec ([`FaultPlan::parse`] grammar) for chaos runs;
    /// `None` injects nothing.
    pub fault_plan: Option<String>,
    /// Seed for the injector's deterministic corruption choices.
    pub fault_seed: u64,
    /// Execution attempts per job before `Failed` (clamped to ≥ 1 by
    /// the scheduler).
    pub max_attempts: u64,
    /// Store byte budget: GC after every publication keeps the CAS at
    /// or below this. `None` disables.
    pub cas_max_bytes: Option<u64>,
    /// Graph storage backend override; `None` falls back to
    /// `CXLG_GRAPH_STORAGE` / mem. Result bytes are backend-invariant,
    /// so a warm store primed in one mode stays valid in the other.
    pub graph_storage: Option<StorageMode>,
}

/// How many extra submit rounds `run_cached_campaign` grants a job
/// whose `Done` entry fails materialization (poisoned store entry) or
/// times out: resubmission re-arms the key and re-executes, so one
/// round heals any single corruption and a second absorbs a fault
/// injected into the healing run itself.
const HEAL_ROUNDS: usize = 2;

/// Run `exps` through the scheduler + content-addressed store,
/// materializing each job's result files into `results_dir` (bytes
/// verbatim from the store, so a cached campaign is byte-identical to a
/// fresh one). Jobs run one at a time in list order — the same ordering
/// and graph-eviction behaviour as `cxlg run` — against the store under
/// `cas_root`, which persists across invocations.
///
/// With a fault plan in `opts` the run becomes a chaos campaign: the
/// injector fires the planned faults, the scheduler retries within
/// `max_attempts`, and the heal loop resubmits jobs whose published
/// entry turns out poisoned — the campaign must converge to the same
/// bytes as a fault-free run or report the experiment failed. A
/// `service-stats.json` snapshot (retries, quarantines, faults fired)
/// is left beside the results for the CI replay gate.
pub fn run_cached_campaign(
    scale: u32,
    seed: u64,
    threads: usize,
    results_dir: &Path,
    cas_root: &Path,
    exps: &[&dyn Experiment],
    manifest_path: Option<&Path>,
    opts: &CachedOptions,
) -> Result<CachedOutcome, String> {
    std::fs::create_dir_all(results_dir).map_err(|e| format!("create results dir: {e}"))?;
    let storage = opts.graph_storage.map_or_else(crate::graph_storage, Ok)?;
    let cache = Arc::new(GraphCache::with_storage(
        storage,
        SpillConfig::new(results_dir.join("graph-spill")),
    ));
    let backend = Arc::new(
        RegistryBackend::new(cas_root, Arc::clone(&cache))
            .map_err(|e| format!("open CAS root: {e}"))?,
    );
    let faults = match &opts.fault_plan {
        Some(spec) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("fault plan: {e}"))?;
            Some(Arc::new(FaultInjector::new(opts.fault_seed, plan)))
        }
        None => None,
    };
    let mut store = ResultStore::new(cas_root).map_err(|e| format!("open result store: {e}"))?;
    if let Some(f) = &faults {
        store = store.with_faults(Arc::clone(f));
    }

    // Eviction plan, exactly as `run_experiments` computes it: how many
    // experiments in this run list consume each spec.
    let mut remaining: BTreeMap<GraphSpec, usize> = BTreeMap::new();
    let jobs: Vec<Job> = exps
        .iter()
        .map(|exp| Job {
            experiment: exp.name().to_string(),
            scale,
            seed,
            threads,
        })
        .collect();
    for job in &jobs {
        for spec in backend.specs_for(job).unwrap_or_default() {
            *remaining.entry(spec).or_insert(0) += 1;
        }
    }

    let sched = Scheduler::with_config(
        store,
        Arc::clone(&backend) as Arc<dyn JobBackend>,
        SchedulerConfig {
            workers: 1,
            max_attempts: opts.max_attempts,
            cas_max_bytes: opts.cas_max_bytes,
            faults: faults.clone(),
            ..SchedulerConfig::default()
        },
    );
    let mut reports = Vec::with_capacity(exps.len());
    let mut failed = Vec::new();
    for (exp, job) in exps.iter().zip(jobs) {
        println!("\n################ {} ################\n", exp.name());
        let specs = backend.specs_for(&job).unwrap_or_default();
        // The heal loop: a `Done` whose store entry fails its
        // materialization probe is poisoned (e.g. injected corruption
        // landed after publication) — resubmitting re-validates the
        // entry, quarantines it, re-arms the key, and re-executes.
        // Bounded so a hostile fault plan cannot loop forever.
        let mut snap = None;
        let mut hit = None;
        for _round in 0..=HEAL_ROUNDS {
            let outcome = sched.submit(job.clone(), Priority::Normal)?;
            let s = sched
                .wait(&outcome.key)
                .ok_or_else(|| format!("job for `{}` vanished", exp.name()))?;
            let is_done = s.status == JobStatus::Done;
            let timed_out = s.status == JobStatus::TimedOut;
            snap = Some(s);
            if is_done {
                hit = sched.store().probe(&snap.as_ref().unwrap().key);
                if hit.is_some() {
                    break;
                }
                eprintln!("[{}: poisoned store entry, re-executing]", exp.name());
            } else if !timed_out {
                break; // Failed: the retry budget is already spent.
            }
        }
        let snap = snap.expect("at least one heal round ran");
        let healthy = hit.is_some();
        let mut result_files = Vec::new();
        match hit {
            Some(hit) => {
                for (name, bytes) in &hit.files {
                    let path = results_dir.join(name);
                    std::fs::write(&path, bytes)
                        .map_err(|e| format!("materialize `{name}`: {e}"))?;
                    eprintln!(
                        "[{} {}]",
                        if snap.cache_hit { "cache-hit" } else { "saved" },
                        path.display()
                    );
                    result_files.push(path.display().to_string());
                }
            }
            None => {
                eprintln!("[{} FAILED]", exp.name());
                failed.push(exp.name().to_string());
            }
        }
        reports.push(CachedReport {
            name: exp.name().to_string(),
            key: snap.key.as_str().to_string(),
            cache_hit: snap.cache_hit,
            wall_ms: snap.wall_ms,
            failed: !healthy,
            error: snap.error.clone(),
            result_files,
        });
        // This experiment's graphs are done with; evict any whose last
        // consumer this was (cache hits consume no graphs, but the plan
        // counted them — decrement either way so the plan drains).
        for spec in specs {
            let evict = match remaining.get_mut(&spec) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    false
                }
                Some(_) => {
                    remaining.remove(&spec);
                    true
                }
                None => false,
            };
            if evict && cache.release(&spec) {
                eprintln!("[evicted {} from the graph cache]", spec.name());
            }
        }
    }
    let stats = sched.stats();
    // Byte-stable (modulo the wall-clock / RSS telemetry exemptions)
    // snapshot of the run's service counters: retries, quarantines,
    // faults fired, evictions. ci.sh's chaos gate replays a campaign
    // from the same `(seed, plan)` and diffs this file.
    let stats_path = results_dir.join("service-stats.json");
    std::fs::write(&stats_path, stats.render_json())
        .map_err(|e| format!("write service stats: {e}"))?;
    eprintln!("[service stats {}]", stats_path.display());
    let outcome = CachedOutcome {
        reports,
        failed,
        graph_builds: cache.build_counts(),
        graph_evictions: cache.eviction_counts(),
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    };
    println!(
        "\n{} of {} experiment(s) done ({} cache hit(s), {} fresh). JSON in {}.",
        outcome.reports.len() - outcome.failed.len(),
        outcome.reports.len(),
        outcome.cache_hits,
        outcome.cache_misses,
        results_dir.display()
    );
    if !outcome.failed.is_empty() {
        eprintln!("\nFAILED: {:?}", outcome.failed);
    }
    if let Some(path) = manifest_path {
        write_cached_manifest(scale, seed, threads, storage, results_dir, cas_root, &outcome, path)
            .map_err(|e| format!("write manifest: {e}"))?;
    }
    Ok(outcome)
}

/// The cached-campaign manifest: run configuration plus, per
/// experiment, the job key and hit/miss evidence — `wall_ms` is the one
/// exempt telemetry field, as in the plain campaign manifest.
#[allow(clippy::too_many_arguments)]
fn write_cached_manifest(
    scale: u32,
    seed: u64,
    threads: usize,
    storage: StorageMode,
    results_dir: &Path,
    cas_root: &Path,
    outcome: &CachedOutcome,
    path: &Path,
) -> std::io::Result<()> {
    let experiments = outcome
        .reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name".to_string(), Value::Str(r.name.clone())),
                ("key".to_string(), Value::Str(r.key.clone())),
                ("cache_hit".to_string(), Value::Bool(r.cache_hit)),
                ("wall_ms".to_string(), Value::F64(r.wall_ms)),
                ("failed".to_string(), Value::Bool(r.failed)),
                (
                    "result_files".to_string(),
                    Value::Array(r.result_files.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ];
            if let Some(err) = &r.error {
                fields.push(("error".to_string(), Value::Str(err.clone())));
            }
            Value::Map(fields)
        })
        .collect();
    let count_table = |counts: &[(String, u64)], field: &str| {
        Value::Array(
            counts
                .iter()
                .map(|(spec, n)| {
                    Value::Map(vec![
                        ("spec".to_string(), Value::Str(spec.clone())),
                        (field.to_string(), Value::U64(*n)),
                    ])
                })
                .collect(),
        )
    };
    let manifest = Value::Map(vec![
        ("scale".to_string(), Value::U64(scale as u64)),
        ("seed".to_string(), Value::U64(seed)),
        ("threads".to_string(), Value::U64(threads as u64)),
        (
            "graph_storage".to_string(),
            Value::Str(storage.label().to_string()),
        ),
        (
            "results_dir".to_string(),
            Value::Str(results_dir.display().to_string()),
        ),
        (
            "cas_root".to_string(),
            Value::Str(cas_root.display().to_string()),
        ),
        ("cache_hits".to_string(), Value::U64(outcome.cache_hits)),
        ("cache_misses".to_string(), Value::U64(outcome.cache_misses)),
        ("experiments".to_string(), Value::Array(experiments)),
        (
            "graph_builds".to_string(),
            count_table(&outcome.graph_builds, "builds"),
        ),
        (
            "graph_evictions".to_string(),
            count_table(&outcome.graph_evictions, "evictions"),
        ),
    ]);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let s = serde_json::to_string_pretty(&manifest).expect("serialize cached manifest");
    std::fs::write(path, s.as_bytes())?;
    eprintln!("[manifest {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_round_trips_and_discards_damage() {
        let dir = std::env::temp_dir().join(format!("cxlg-memo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fingerprints.json");
        let memo = BTreeMap::from([
            ("kron8(ef16)@0x1".to_string(), 0xABCD_u64),
            ("urand8(deg32)@0x1".to_string(), u64::MAX),
        ]);
        persist_memo(&path, &memo).unwrap();
        assert_eq!(load_memo(&path), memo);
        // Byte-stable across rewrites.
        let first = std::fs::read(&path).unwrap();
        persist_memo(&path, &memo).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        // Damage is discarded wholesale, not half-parsed.
        std::fs::write(&path, "{\"x\": \"nope\"}").unwrap();
        assert!(load_memo(&path).is_empty());
        std::fs::write(&path, "not json").unwrap();
        assert!(load_memo(&path).is_empty());
        assert!(load_memo(&dir.join("missing.json")).is_empty());
    }

    #[test]
    fn backend_memoizes_fingerprints_across_instances() {
        let dir = std::env::temp_dir().join(format!("cxlg-backend-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = Job {
            experiment: "fig3".to_string(),
            scale: 8,
            seed: 1,
            threads: 1,
        };
        let cache = Arc::new(GraphCache::new());
        let backend = RegistryBackend::new(&dir, Arc::clone(&cache)).unwrap();
        let fps = backend.fingerprints(&job).unwrap();
        assert!(!fps.is_empty(), "fig3 must declare graph inputs");
        assert!(!cache.build_counts().is_empty(), "cold memo builds to fingerprint");
        // A fresh backend + cache resolves from the persisted memo
        // without building anything.
        let cache2 = Arc::new(GraphCache::new());
        let backend2 = RegistryBackend::new(&dir, Arc::clone(&cache2)).unwrap();
        assert_eq!(backend2.fingerprints(&job).unwrap(), fps);
        assert!(cache2.build_counts().is_empty(), "warm memo must not build");
    }

    #[test]
    fn admission_estimates_scale_with_the_declared_specs() {
        // 2^10 vertices: urand (deg 32) ≈ 32 Ki arcs · 8 B + 8 KiB of
        // offsets; kron (ef 16) symmetrizes to the same arc count.
        let urand = spec_admission_bytes(&GraphSpec::urand(10));
        assert_eq!(urand, (1024 * 32) * 8 + 1024 * 8);
        assert_eq!(spec_admission_bytes(&GraphSpec::kron(10)), urand);
        let social = spec_admission_bytes(&GraphSpec::friendster_like(10));
        assert!(social > urand, "degree 55 must estimate above degree 32");
        // Monotone in scale, and huge scales saturate instead of
        // overflowing.
        assert!(spec_admission_bytes(&GraphSpec::urand(12)) > urand);
        assert_eq!(spec_admission_bytes(&GraphSpec::urand(63)), u64::MAX);

        // The backend sums distinct specs; an unknown experiment
        // estimates 0 (it fails before admission matters).
        let dir = std::env::temp_dir().join(format!("cxlg-admission-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = RegistryBackend::new(&dir, Arc::new(GraphCache::new())).unwrap();
        let job = Job {
            experiment: "fig3".to_string(),
            scale: 8,
            seed: 1,
            threads: 1,
        };
        assert!(backend.admission_bytes(&job) > 0);
        let unknown = Job {
            experiment: "frobnicate".to_string(),
            ..job
        };
        assert_eq!(backend.admission_bytes(&unknown), 0);
    }

    #[test]
    fn spill_admission_estimates_shrink_and_admit_under_mem_budgets() {
        // urand18: mem estimates arcs·8 + vertices·8 ≈ 69 MB; spill
        // estimates vertices·8 + the fixed backend overhead ≈ 28 MB.
        let spec = GraphSpec::urand(18);
        let spill_cfg = SpillConfig::new(std::env::temp_dir().join("unused"));
        let mem = spec_admission_bytes_for(&spec, StorageMode::Mem, &spill_cfg);
        let spill = spec_admission_bytes_for(&spec, StorageMode::Spill, &spill_cfg);
        assert_eq!(mem, spec_admission_bytes(&spec), "mem formula is unchanged");
        assert_eq!(
            spill,
            (1u64 << 18) * 8 + spill_cfg.resident_overhead_bytes(),
            "spill keeps offsets resident plus fixed overhead"
        );
        assert!(
            spill < mem / 2,
            "spill estimate must shrink well below mem ({spill} vs {mem})"
        );
        // A budget between the two estimates defers the mem-mode job
        // but admits the same job in spill mode (the scheduler's
        // admission gate is `estimate <= budget`).
        let budget = (spill + mem) / 2;
        assert!(spill <= budget && mem > budget);

        // The backend reports the shrunken estimate when its shared
        // cache is configured for spill.
        let dir = std::env::temp_dir().join(format!("cxlg-admission-sp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = Job {
            experiment: "fig3".to_string(),
            scale: 18,
            seed: 1,
            threads: 1,
        };
        let mem_backend = RegistryBackend::new(&dir, Arc::new(GraphCache::new())).unwrap();
        let spill_backend = RegistryBackend::new(
            &dir,
            Arc::new(GraphCache::with_storage(
                StorageMode::Spill,
                SpillConfig::new(dir.join("graph-spill")),
            )),
        )
        .unwrap();
        let mem_est = mem_backend.admission_bytes(&job);
        let spill_est = spill_backend.admission_bytes(&job);
        assert!(spill_est > 0 && spill_est < mem_est);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_experiments_fail_fingerprinting() {
        let dir = std::env::temp_dir().join(format!("cxlg-backend-unk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = RegistryBackend::new(&dir, Arc::new(GraphCache::new())).unwrap();
        let job = Job {
            experiment: "frobnicate".to_string(),
            scale: 8,
            seed: 1,
            threads: 1,
        };
        assert!(backend.fingerprints(&job).is_err());
    }
}
