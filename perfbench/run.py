#!/usr/bin/env python3
"""Host-cost benchmark of the cxlg simulator.

Builds the `cxlg` binary from the checkout, runs one workload through its
public subcommands (`graph-mem`, `run`, `validate`) and prints every metric
by name with its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload latency-sweep --seed 24301 \
        --seconds 50 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see BENCHMARK.json and perfbench/README.md). Every child process runs
alone, with a fresh results, spill and temp directory, and is measured by
its own rusage from `wait4`.

The simulator is deterministic: every run of one commit, workload, scale
and seed must produce the same result bytes. The benchmark checks that,
and compares against the digests pinned in perfbench/digests.json.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0x5EED
HELD_OUT_SEED = 7
# One worker thread. The vendored rayon spawns fresh threads for every
# parallel call, nested calls included, so `RAYON_NUM_THREADS=2` puts up
# to five runnable threads on the host's two cores and the timings then
# measure the scheduler. With one thread the run owns one core and the
# other absorbs this driver and any background work.
THREADS = 1
# Set-up is short, so it repeats and reports its median.
SETUP_REPS = 11
# Fewest `cxlg run`s a run makes: untraced, and traced (half of them
# with `--json-manifest`).
MIN_REPS = 3
MIN_TRACED_REPS = 4
# Kills a hung child well inside the 180 s a whole run may take.
CHILD_TIMEOUT_S = 150

# Metric name -> `graph-mem` family. Names carry no scale, so metric names
# survive a change of a workload's scale.
DATASETS = {"urand": "urand", "kron": "kron", "friendster": "social"}

# `cxlg run --all` order (crates/bench/src/registry.rs).
ALL_EXPERIMENTS = (
    "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10",
    "fig11", "eqcheck", "uvm_compare", "reorder_study", "write_study",
    "ablation", "pagerank_study", "cc_study", "device_scaling",
)

# FIDELITY report rows name figures; all but one match an experiment.
FIGURE_TO_EXPERIMENT = {"eq6": "eqcheck"}
# Experiments whose result is their section of `cxlg run`'s stdout rather
# than a `<name>.json` file.
PRINT_ONLY = {"eqcheck"}


@dataclass(frozen=True)
class Workload:
    scale: int
    storage: str
    experiments: tuple
    # `cxlg run --all` rather than the names, then `cxlg validate`.
    campaign: bool = False


WORKLOADS = {
    # The latency-tolerance claim (Figs. 10, 11): dominated by the
    # discrete-event memory-path simulation.
    "latency-sweep": Workload(15, "mem", ("fig11", "device_scaling")),
    # The command users run: the whole registry over out-of-core graphs,
    # then the fidelity gate. Scale 15 is the smallest at which every
    # dataset's targets outgrow the default 2 MiB spill page cache.
    "campaign-spill": Workload(15, "spill", ALL_EXPERIMENTS, campaign=True),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for ds in DATASETS:
        units.update({
            f"graph.{ds}.build_s": "s",
            f"graph.{ds}.peak_rss_mb": "MB",
            f"graph.{ds}.bytes_per_arc": "B/arc",
            f"graph.{ds}.arcs": "count",
            f"graph.{ds}.arcs_per_s": "1/s",
            f"graph.{ds}.resident_mb": "MB",
            f"graph.{ds}.on_disk_mb": "MB",
        })
    for exp in ALL_EXPERIMENTS:
        units[f"exp.{exp}.s"] = "s"
        units[f"exp.{exp}.rss_mb"] = "MB"
    units.update({
        "cache.builds": "count",
        "cache.evictions": "count",
        "validate.s": "s",
        "validate.pass": "count",
        "validate.flag": "count",
        "validate.skip": "count",
        "proc.cpu_s": "s",
        "proc.cpu_util": "ratio",
        "trace_overhead_s": "s",
    })
    return units


class BenchError(Exception):
    """A failure that leaves no result to report."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, env, cwd):
    """Run one child in `cwd` to completion and measure it by its own rusage."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. SIGTERM): leave no child running.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # Reaped by wait4 above; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def build():
    """Build `cxlg` from the checkout and return its path."""
    manifest = ROOT / "Cargo.toml"
    if not manifest.is_file():
        raise BenchError(f"no Cargo.toml at {ROOT}; nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest),
           "-p", "cxlg-bench", "--bin", "cxlg"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL)
    binary = target / "release" / "cxlg"
    if done.returncode != 0 or not binary.is_file():
        raise BenchError(f"cargo build failed (exit {done.returncode})")
    return binary


class WorkDirs:
    """Fresh per-process directories under the checkout's work dir."""

    def __init__(self):
        self.count = 0
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    def fresh(self):
        self.count += 1
        d = WORK / f"p{self.count}"
        (d / "results").mkdir(parents=True)
        (d / "tmp").mkdir()
        return d

    @staticmethod
    def close():
        shutil.rmtree(WORK, ignore_errors=True)


def leftovers(*dirs):
    """Regular files left under `dirs`, e.g. a spill file nobody deleted."""
    return [p for d in dirs if d.exists() for p in d.rglob("*") if p.is_file()]


def child_env(seed, scale, results, tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CXLG_")}
    env.update(
        CXLG_SEED=str(seed),
        CXLG_SCALE=str(scale),
        CXLG_RESULTS_DIR=str(results),
        TMPDIR=str(tmp),
        RAYON_NUM_THREADS=str(THREADS),
    )
    return env


@dataclass
class Probe:
    """One `graph-mem` build of one dataset, process start to exit."""
    wall_s: float
    rss_mb: float
    arcs: int
    # The storage's own footprint: in spill mode, resident offsets plus
    # page cache against the spill file on disk.
    resident_mb: float = 0.0
    on_disk_mb: float = 0.0


@dataclass
class Rep:
    """One `cxlg run` of the workload, checked."""
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    failed: set
    digest: str
    problems: list = field(default_factory=list)
    exp_s: dict = field(default_factory=dict)
    exp_rss_mb: dict = field(default_factory=dict)
    builds: int = 0
    evictions: int = 0
    validate: dict = field(default_factory=dict)


def setup_once(binary, wl, seed, work):
    """Build each of the workload's datasets alone, one process each."""
    probes, problems = {}, []
    for ds, family in DATASETS.items():
        d = work.fresh()
        env = child_env(seed, wl.scale, d / "results", d / "tmp")
        child = spawn([str(binary), "graph-mem", family, str(wl.scale),
                       f"--storage={wl.storage}"], env, d)
        fields = dict(re.findall(r"(\w+)=(\S+)", child.stdout))
        if child.rc != 0 or not {"arcs", "peak_rss_kb", "resident_bytes_per_arc",
                                 "on_disk_bytes_per_arc"} <= fields.keys():
            problems.append(f"graph-mem {family} exited {child.rc}: {child.stderr.strip()}")
        else:
            # Linux starts a child's wait4 peak at the spawning process's
            # high-water mark (about 20 MB for run.py), which small
            # builds stay under, so the probe's own peak report is used;
            # wait4 only if the probe has no source and reports 0.
            rss_mb = int(fields["peak_rss_kb"]) / 1024.0 or child.rss_mb
            arcs = int(fields["arcs"])
            resident_mb, on_disk_mb = (float(fields[f"{k}_bytes_per_arc"]) * arcs / 2**20
                                       for k in ("resident", "on_disk"))
            probes[ds] = Probe(child.wall_s, rss_mb, arcs, resident_mb, on_disk_mb)
        left = leftovers(d / "tmp")
        if left:
            problems.append(f"graph-mem {family} left files behind: {left}")
        shutil.rmtree(d)
    return probes, problems


def result_digest_part(name, data):
    """Result bytes minus the `"threads"` header line, as ci.sh compares them."""
    kept = b"\n".join(line for line in data.split(b"\n") if b'"threads"' not in line)
    return name.encode() + b"\0" + kept + b"\0"


def stdout_sections(text):
    """`cxlg run` stdout split at its per-experiment banners."""
    parts = re.split(r"^#{16} (\S+) #{16}$", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def read_validate_report(path):
    """Per-figure PASS/FLAG/SKIP counts from a rendered FIDELITY report."""
    rows = {}
    for line in path.read_text().splitlines():
        m = re.fullmatch(r"\| (\w+) \| (\d+) \| (\d+) \| (\d+) \|", line.strip())
        if m:
            rows[m.group(1)] = tuple(int(g) for g in m.group(2, 3, 4))
    return rows


def run_once(binary, wl, seed, work, traced):
    """One `cxlg run` of the workload in a fresh process and directories."""
    d = work.fresh()
    results, tmp = d / "results", d / "tmp"
    env = child_env(seed, wl.scale, results, tmp)
    argv = [str(binary), "run"]
    argv += ["--all"] if wl.campaign else list(wl.experiments)
    argv.append(f"--graph-storage={wl.storage}")
    if traced:
        argv.append("--json-manifest")
    child = spawn(argv, env, d)
    rep = Rep(traced, child.wall_s, child.cpu_s, child.rss_mb, set(), "")

    failed = {name for name in wl.experiments if f"[{name} FAILED]" in child.stderr}
    if traced:
        try:
            manifest = json.loads((results / "manifest.json").read_text())
            for e in manifest["experiments"]:
                if e["failed"]:
                    failed.add(e["name"])
                rep.exp_s[e["name"]] = e["wall_ms"] / 1e3
                rep.exp_rss_mb[e["name"]] = e["peak_rss_kb"] / 1024.0
            rep.builds = sum(b["builds"] for b in manifest["graph_builds"])
            rep.evictions = sum(b["evictions"] for b in manifest["graph_evictions"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            rep.problems.append(f"manifest unreadable: {err}")
            failed = set(wl.experiments)
    if child.rc != 0 and not failed:
        # The process failed without naming a culprit: all of it failed.
        failed = set(wl.experiments)

    sections = stdout_sections(child.stdout)
    digest = hashlib.sha256()
    for name in wl.experiments:
        if name in PRINT_ONLY:
            data = sections.get(name, "").encode()
            ok = bool(data.strip())
        else:
            try:
                data = (results / f"{name}.json").read_bytes()
                header = json.loads(data)["header"]
                ok = (header["experiment"], header["scale"], header["seed"]) == (name, wl.scale, seed)
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
        if not ok:
            failed.add(name)
            continue
        digest.update(result_digest_part(name, data))
    rep.digest = digest.hexdigest()

    if wl.campaign:
        report = d / "FIDELITY.md"
        v = spawn([str(binary), "validate", f"--campaign-dir={results}",
                   f"--write-report={report}"], env, d)
        rows = read_validate_report(report) if report.is_file() else {}
        if not rows:
            rep.problems.append(f"validate wrote no report (exit {v.rc}): {v.stderr.strip()}")
            failed = set(wl.experiments)
        for figure, (_, flag, _) in rows.items():
            if flag:
                failed.add(FIGURE_TO_EXPERIMENT.get(figure, figure))
        rep.validate = {
            "s": v.wall_s,
            "pass": sum(r[0] for r in rows.values()),
            "flag": sum(r[1] for r in rows.values()),
            "skip": sum(r[2] for r in rows.values()),
        }

    left = leftovers(results / "graph-spill", tmp)
    if left:
        rep.problems.append(f"spill or temp files left behind: {left}")
    rep.failed = failed & set(wl.experiments)
    shutil.rmtree(d)
    return rep


def measure(binary, name, wl, seed, seconds, trace):
    """Set up, run the workload for `seconds`, and check every output.

    With `trace`, runs alternate untraced and traced (`--json-manifest`),
    so `trace_overhead_s` compares the two under the same conditions.
    """
    work = WorkDirs()
    try:
        setups, problems = [], []
        for _ in range(SETUP_REPS):
            probes, errs = setup_once(binary, wl, seed, work)
            setups.append(probes)
            problems += errs
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(run_once(binary, wl, seed, work, trace and len(reps) % 2 == 1))
            elapsed = time.perf_counter() - start
            enough = len(reps) >= (MIN_TRACED_REPS if trace else MIN_REPS)
            if enough and len(reps) % (2 if trace else 1) == 0 \
                    and elapsed + reps[-1].wall_s > seconds:
                break
    finally:
        work.close()

    for r in reps:
        problems += r.problems
    digests = sorted({r.digest for r in reps})
    if len(digests) != 1:
        problems.append(f"result digest differs between runs: {digests}")
    pinned = json.loads(DIGESTS.read_text()).get(f"{name} scale={wl.scale} seed={seed}")
    if pinned is not None and digests != [pinned]:
        problems.append(f"result digest {digests} != pinned {pinned}")
    attempted = len(wl.experiments) * len(reps)
    failed = sum(len(r.failed) for r in reps)
    for i, r in enumerate(reps):
        if r.failed:
            problems.append(f"run {i}: failed experiments {sorted(r.failed)}")

    med = statistics.median
    if not trace:
        values = {
            "wall_s": med(r.wall_s for r in reps),
            "setup_s": med(sum(p.wall_s for p in s.values()) for s in setups),
            "peak_rss_mb": med(r.rss_mb for r in reps),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        untraced = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        values = {}
        for ds in DATASETS:
            probes = [s[ds] for s in setups if ds in s] or [Probe(0.0, 0.0, 0)]
            build_s = med(p.wall_s for p in probes)
            arcs = probes[0].arcs
            values.update({
                f"graph.{ds}.build_s": build_s,
                f"graph.{ds}.peak_rss_mb": med(p.rss_mb for p in probes),
                f"graph.{ds}.bytes_per_arc": med(p.rss_mb * 2**20 / max(p.arcs, 1) for p in probes),
                f"graph.{ds}.arcs": arcs,
                f"graph.{ds}.arcs_per_s": arcs / build_s if build_s > 0 else 0.0,
                f"graph.{ds}.resident_mb": probes[0].resident_mb,
                f"graph.{ds}.on_disk_mb": probes[0].on_disk_mb,
            })
        # Experiments and layers this workload does not run report 0.
        for exp in ALL_EXPERIMENTS:
            values[f"exp.{exp}.s"] = med(r.exp_s.get(exp, 0.0) for r in traced)
            values[f"exp.{exp}.rss_mb"] = med(r.exp_rss_mb.get(exp, 0.0) for r in traced)
        values["cache.builds"] = med(r.builds for r in traced)
        values["cache.evictions"] = med(r.evictions for r in traced)
        for key in ("s", "pass", "flag", "skip"):
            values[f"validate.{key}"] = med(r.validate.get(key, 0) for r in traced)
        values["proc.cpu_s"] = med(r.cpu_s for r in traced)
        values["proc.cpu_util"] = med(r.cpu_s / (r.wall_s * THREADS) for r in traced)
        values["trace_overhead_s"] = med(r.wall_s for r in traced) - med(r.wall_s for r in untraced)
        units = per_layer_units()

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"workload {name}: scale {wl.scale}, seed {seed}, storage {wl.storage}, "
          f"{len(reps)} runs, {THREADS} threads")
    print(f"runs wall_s: {' '.join(f'{r.wall_s:.3f}' for r in reps)}")
    print(f"digest sha256:{digests[0] if len(digests) == 1 else 'MISMATCH'}")
    for k, unit in units.items():
        print(f"{k} = {values[k]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 bits")
    try:
        binary = build()
        result = measure(binary, args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
