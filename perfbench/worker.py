"""One fresh-process unit of a benchmark run.

``--phase setup`` imports ``repro`` and builds the workload's entry
object, then exits: its wall time from process start is one ``setup_s``
sample.  ``--phase pass`` also runs one pass of the workload (see
``workloads.py``), traced with the benchmark's own span recorder when
``--trace 1``.  The result is written as one JSON document to ``--out``.

Not meant to be run by hand; ``run.py`` starts it.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before anything of repro is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from workloads import WORKLOADS, Ctx  # noqa: E402

#: Fig. 3 apps of ``apps.run_s.<slug>``
RUN_APPS = {"Arbor": "arbor", "Chroma-QCD": "chroma-qcd", "JUQCS": "juqcs",
            "nekRS": "nekrs", "PIConGPU": "picongpu"}


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest whole percentile with at least ten samples beyond
    it, and the duration at that percentile (nearest rank)."""
    n = len(durations)
    if n < 11:
        return 0.0, 0.0
    pct = int(100 * (n - 10) / n)
    rank = max(1, -(-pct * n // 100))
    return float(pct), durations[rank - 1]


def layer_metrics(rec: Any, facts: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: span-derived timings plus
    the exact counts the pass and the instrumentation collected."""
    selfs = rec.self_times()
    hot = rec.hot
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_sum: dict[str, float] = {}
    run_by_app: dict[str, float] = {}
    for sid, name, start, end, _parent, _h, attrs in rec.spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + selfs[sid]
        if name == "apps.run":
            app = attrs.get("benchmark")
            run_by_app[app] = run_by_app.get(app, 0.0) + (end - start)

    gen = hot.get("apps.gen", [0, 0.0, 0.0])
    cost = hot.get("cluster.cost", [0, 0.0, 0.0])
    vmpi_s = total.get("vmpi.run", 0.0)
    durations = facts.pop("exec.task_durations", [])
    tail_pct, tail_s = tail(durations)
    tasks = facts.get("exec.tasks", 0)
    m: dict[str, float] = {
        "apps.gen_s": gen[2],
        "apps.runs": count.get("apps.run", 0),
        "vmpi.self_s": self_sum.get("vmpi.run", 0.0),
        "vmpi.bytes_sent": math.fsum(facts.pop("vmpi.bytes_sent")),
        "vmpi.ops_per_s": facts["vmpi.ops"] / vmpi_s if vmpi_s else 0.0,
        "cluster.cost_calls": cost[0],
        "cluster.cost_s": cost[2],
        "exec.hit_ratio": (facts.get("exec.cache_hits", 0) / tasks
                           if tasks else 0.0),
        "exec.task_samples": len(durations),
        "exec.task_p50_ms": (1e3 * durations[(len(durations) - 1) // 2]
                             if durations else 0.0),
        "exec.task_tail_pct": tail_pct,
        "exec.task_tail_ms": 1e3 * tail_s,
        "exec.cache_get_s": total.get("exec.cache_get", 0.0),
        "exec.cache_put_s": total.get("exec.cache_put", 0.0),
        "exec.journal_write_s": total.get("exec.journal_write", 0.0),
        "exec.journal_read_s": total.get("exec.journal_read", 0.0),
        "history.append_s": total.get("history.append", 0.0),
        "history.open_s": total.get("history.open", 0.0),
        "history.export_s": total.get("history.export", 0.0),
        "history.select_s": total.get("history.select", 0.0),
        "history.classify_s": total.get("history.classify", 0.0),
        "service.append_s": total.get("service.append", 0.0),
        "service.open_s": total.get("service.open", 0.0),
        "service.export_s": total.get("service.export", 0.0),
        "telemetry.sink_write_s": total.get("telemetry.sink_write", 0.0),
        "check.parse_s": self_sum.get("check.run", 0.0),
    }
    for app, slug in RUN_APPS.items():
        m[f"apps.run_s.{slug}"] = run_by_app.get(app, 0.0)
    for family in ("DET", "CON", "LCK", "UNIT", "COMM", "REP", "XLY"):
        m[f"check.rule_s.{family}"] = total.get(f"check.rule.{family}", 0.0)
    for key, value in facts.items():
        m.setdefault(key, value)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--phase", required=True, choices=("setup", "pass"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--warm-reps", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(root=Path(args.root), workdir=workdir, seed=args.seed,
              expected=json.loads(Path(args.expected).read_text()),
              warm_reps=wl.warm_reps if args.warm_reps is None
              else args.warm_reps)
    state = wl.setup(ctx)
    setup_s = time.perf_counter() - T0
    doc: dict[str, Any] = {"setup_s": setup_s}
    if args.phase == "pass":
        rec = facts = None
        if args.trace:
            import spanrec

            rec, facts = spanrec.Recorder(), {}
            spanrec.instrument(rec, facts)
        # a pass that raises exits non-zero; run.py counts it as failed
        if rec is not None:
            with rec.span("pass", workload=wl.name):
                result = wl.run(state, ctx)
        else:
            result = wl.run(state, ctx)
        doc.update({"cold_s": result.cold_s, "warm_s": result.warm_s,
                    "attempted": result.attempted, "failed": result.failed,
                    "checks": result.checks, "facts": dict(result.facts)})
        if rec is not None:
            facts.update(result.facts)
            doc["layers"] = layer_metrics(rec, facts)
            rec.dump(workdir.parent / f"spans-{wl.name}.jsonl")
        doc["facts"].pop("exec.task_durations", None)
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
