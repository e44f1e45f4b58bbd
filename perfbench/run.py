"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fig3-weak --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the benchmark imports ``src/repro``
from the checkout it sits in).  Every pass runs in a fresh worker
process, one at a time.  ``--trace 0`` measures the end-to-end metrics:
two set-up-only processes, then passes until ``--seconds`` would be
exceeded (at least one).  ``--trace 1`` alternates untraced and traced
passes in pairs and reports the per-layer metrics and the tracing
overhead.

``--workload all`` measures the four workloads one after another and
prints each one's result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it stamp the host and provenance and list each metric with its spread.
The exit code is 0 whenever a result was printed, even an incorrect
one, and 2 when the benchmark refuses to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig3-weak", "suite-engine", "ledger-io", "check-tree")

#: workloads whose inputs come from the seed; the rest are deterministic
SEEDED = ("ledger-io",)

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_s": ("s", "lower"),
    "warm_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics of the traced run: name -> (unit, better)
PER_LAYER = {
    "apps.gen_s": ("s", "lower"),
    "apps.run_s.arbor": ("s", "lower"),
    "apps.run_s.chroma-qcd": ("s", "lower"),
    "apps.run_s.juqcs": ("s", "lower"),
    "apps.run_s.nekrs": ("s", "lower"),
    "apps.run_s.picongpu": ("s", "lower"),
    "apps.runs": ("count", "lower"),
    "vmpi.self_s": ("s", "lower"),
    "vmpi.ops_per_s": ("1/s", "higher"),
    "vmpi.runs": ("count", "lower"),
    "vmpi.ranks": ("count", "lower"),
    "vmpi.ops": ("count", "lower"),
    "vmpi.bytes_sent": ("B", "lower"),
    "cluster.cost_calls": ("count", "lower"),
    "cluster.cost_s": ("s", "lower"),
    "exec.tasks": ("count", "lower"),
    "exec.executed": ("count", "lower"),
    "exec.cache_hits": ("count", "higher"),
    "exec.errors": ("count", "lower"),
    "exec.retries": ("count", "lower"),
    "exec.hit_ratio": ("1", "higher"),
    "exec.utilization": ("1", "higher"),
    "exec.task_samples": ("count", "higher"),
    "exec.task_p50_ms": ("ms", "lower"),
    "exec.task_tail_pct": ("%", "higher"),
    "exec.task_tail_ms": ("ms", "lower"),
    "exec.cache_get_s": ("s", "lower"),
    "exec.cache_put_s": ("s", "lower"),
    "exec.journal_write_s": ("s", "lower"),
    "exec.journal_read_s": ("s", "lower"),
    "history.appends": ("count", "higher"),
    "history.append_s": ("s", "lower"),
    "history.open_s": ("s", "lower"),
    "history.file_bytes": ("B", "lower"),
    "history.export_s": ("s", "lower"),
    "history.export_bytes": ("B", "lower"),
    "history.select_s": ("s", "lower"),
    "history.classify_s": ("s", "lower"),
    "history.series": ("count", "higher"),
    "history.flagged": ("count", "lower"),
    "service.appends": ("count", "higher"),
    "service.append_s": ("s", "lower"),
    "service.open_s": ("s", "lower"),
    "service.export_s": ("s", "lower"),
    "service.export_bytes": ("B", "lower"),
    "telemetry.sink_events": ("count", "higher"),
    "telemetry.sink_write_s": ("s", "lower"),
    "check.files": ("count", "higher"),
    "check.lines": ("count", "lower"),
    "check.findings": ("count", "lower"),
    "check.baselined": ("count", "lower"),
    "check.cache_hits": ("count", "higher"),
    "check.cache_misses": ("count", "lower"),
    "check.parse_s": ("s", "lower"),
    "check.rule_s.DET": ("s", "lower"),
    "check.rule_s.CON": ("s", "lower"),
    "check.rule_s.LCK": ("s", "lower"),
    "check.rule_s.UNIT": ("s", "lower"),
    "check.rule_s.COMM": ("s", "lower"),
    "check.rule_s.REP": ("s", "lower"),
    "check.rule_s.XLY": ("s", "lower"),
    "append_per_s": ("1/s", "higher"),
    "open_s": ("s", "lower"),
    "export_s": ("s", "lower"),
    "regress_s": ("s", "lower"),
    "trace.overhead": ("1", "lower"),
}

#: phase timings of ledger-io, taken from the untraced pass
LEDGER_PHASES = ("append_per_s", "open_s", "export_s", "regress_s")

#: set-up-only processes per untraced run (each pass adds one sample)
SETUP_PROBES = 2
#: every run must end within this many seconds
HARD_LIMIT_S = 170.0


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def provenance(workload: str, seed: int) -> dict[str, Any]:
    """Host and code stamp printed with every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    commit = "none (not a git checkout)"
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        commit = (git / head[5:].strip()).read_text().strip() \
            if head.startswith("ref:") else head
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": workload, "seed": seed,
            "seed_used": workload in SEEDED,
            "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "vmpi_mode": "event"}


class Runner:
    """Starts worker processes one at a time and collects their output."""

    def __init__(self, args: argparse.Namespace, workload: str,
                 rundir: Path):
        self.args = args
        self.workload = workload
        self.rundir = rundir
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.crashed = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, phase: str, index: int, *, trace: int = 0,
              warm_reps: int | None = None) -> dict[str, Any] | None:
        out = self.rundir / f"{phase}-{index}.json"
        workdir = self.rundir / f"work-{index}"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--phase", phase,
               "--seed", str(self.args.seed), "--root", str(ROOT),
               "--workdir", str(workdir), "--expected",
               str(self.args.expected), "--trace", str(trace),
               "--out", str(out)]
        if warm_reps is not None:
            cmd += ["--warm-reps", str(warm_reps)]
        budget = HARD_LIMIT_S - self.elapsed()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {phase} {index} exceeded the time limit",
                  file=sys.stderr)
            proc = None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc is None or proc.returncode != 0 or not out.is_file():
            if proc is not None:
                sys.stderr.write(proc.stderr[-4000:])
            self.crashed += 1
            return None
        return json.loads(out.read_text())


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return (f"n={len(values)} min={min(values):.6g} "
            f"max={max(values):.6g}")


def untraced(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    setups = []
    for i in range(SETUP_PROBES):
        doc = runner.spawn("setup", i)
        if doc is not None:
            setups.append(doc["setup_s"])
    passes: list[dict[str, Any]] = []
    index = 0
    while True:
        t0 = runner.elapsed()
        doc = runner.spawn("pass", index)
        index += 1
        if doc is not None:
            passes.append(doc)
        took = runner.elapsed() - t0
        if runner.elapsed() + took > min(seconds, HARD_LIMIT_S - 10):
            break
    if not passes:
        return {}, passes, {}
    setups += [p["setup_s"] for p in passes]
    warm = [statistics.median(p["warm_s"]) for p in passes if p["warm_s"]]
    samples = {"setup_s": setups,
               "cold_s": [p["cold_s"] for p in passes],
               "warm_s": warm,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    metrics = {name: (max(vals) if name == "peak_rss_mb"
                      else statistics.median(vals))
               for name, vals in samples.items() if vals}
    return metrics, passes, samples


def traced(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    """Untraced and traced passes in alternating pairs (AB, BA, ...)
    while the next pair fits in ``seconds``; at least one pair."""
    plain: list[dict[str, Any]] = []
    deep: list[dict[str, Any]] = []
    index = 0
    while True:
        t0 = runner.elapsed()
        order = (0, 1) if index % 4 == 0 else (1, 0)
        for trace in order:
            doc = runner.spawn("pass", index, trace=trace,
                               warm_reps=trace)
            index += 1
            if doc is not None:
                (deep if trace else plain).append(doc)
        took = runner.elapsed() - t0
        if runner.elapsed() + took > min(seconds, HARD_LIMIT_S - 10):
            break
    passes = plain + deep
    if not plain or not deep:
        return {}, passes, {}
    metrics: dict[str, float] = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [d["layers"][name] for d in deep if name in d["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    for phase in LEDGER_PHASES:
        metrics[phase] = statistics.median(
            p["facts"].get(phase, 0.0) for p in plain)
    samples = {"cold_s": [p["cold_s"] for p in plain],
               "traced_cold_s": [d["cold_s"] for d in deep]}
    metrics["trace.overhead"] = (statistics.median(samples["traced_cold_s"])
                                 / statistics.median(samples["cold_s"])
                                 - 1.0)
    return metrics, passes, samples


def run_workload(args: argparse.Namespace, workload: str) -> int:
    """Measure one workload and print its result; 0 once printed."""
    rundir = ROOT / ".perfbench" / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(args, workload, rundir)
    stamp = provenance(workload, args.seed)
    if args.trace:
        metrics, passes, samples = traced(runner, args.seconds)
        catalogue = PER_LAYER
    else:
        metrics, passes, samples = untraced(runner, args.seconds)
        catalogue = END_TO_END
    if set(metrics) != set(catalogue):
        return refuse(f"{workload}: no complete pass; see the worker "
                      f"errors above")

    attempted = sum(p["attempted"] for p in passes) + runner.crashed
    failed = sum(p["failed"] for p in passes) + runner.crashed
    failed_checks = sorted({name for p in passes
                            for name, ok in p["checks"].items() if not ok})
    correct = failed == 0 and not failed_checks

    print("# provenance " + json.dumps(stamp, sort_keys=True))
    for name in catalogue:
        unit = catalogue[name][0]
        extra = spread(samples[name]) if name in samples else ""
        print(f"# {name:<24} {metrics[name]:>16.6g} {unit:<6} {extra}")
    for name in failed_checks:
        print(f"# FAILED CHECK: {name}")
    (rundir / "result.json").write_text(json.dumps(
        {"provenance": stamp, "metrics": metrics, "samples": samples,
         "passes": passes}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": catalogue[name][0]}
                    for name in catalogue}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark "
                    "(or all of them, one after another).")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="pinned output digests (default: %(default)s)")
    args = ap.parse_args(argv)

    mode = os.environ.get("REPRO_VMPI_MODE")
    if mode is not None and mode != "event":
        return refuse(f"REPRO_VMPI_MODE={mode!r}: the benchmark measures "
                      f"the default event core only; unset it")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return refuse(f"no src/repro package under {ROOT}; run from a "
                      f"full checkout")
    if not args.expected.is_file():
        return refuse(f"expected digests {args.expected} not found")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    raise SystemExit(main())
