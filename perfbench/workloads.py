"""The four benchmark workloads.

Each workload has a ``setup`` (import ``repro`` and build the entry
object; its wall time from process start is ``setup_s``) and a ``run``
that makes one pass: a cold main pass from empty caches, ``warm_reps``
repetitions of it with the caches the cold pass filled, and the output
checks.  Nothing here imports ``repro`` at module level, so that the
import is paid inside the timed set-up.

A pass returns a :class:`Pass`: its timings, the operations it
attempted and the ones that failed (any point, task, append, read or
file analysis that raised, or any output check that failed), and the
exact counts the traced run reports per layer.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter

#: Fig. 3 node sweep: 1 to 256 nodes, i.e. up to 1,024 ranks
FIG3_NODES = (1, 2, 8, 32, 128, 256)

#: ledger-io sizes (fixed, so its exact counts repeat on every seed)
LEDGER_SERIES = 100
LEDGER_POINTS = 100            # per series: 10,000 history records
LEDGER_PLANTED = 10            # series with a step shift
LEDGER_RESULTS = 10_000        # result envelopes
LEDGER_JOURNAL = 2_000         # task records in the run journal
LEDGER_EVENTS = 5_000          # telemetry sink events
#: cold cycles per pass, each on fresh stores in the same process (no
#: process-level cache serves the stores, so each cycle is cold)
LEDGER_CYCLES = 2

#: benchmark names the generated ledger records carry
LEDGER_BENCHMARKS = ("Amber", "Arbor", "Chroma-QCD", "GROMACS", "ICON",
                     "JUQCS", "nekRS", "ParFlow", "PIConGPU",
                     "Quantum Espresso", "SOMA", "MMoCLIP", "Megatron-LM",
                     "ResNet", "DynQCD", "NAStJA")


@dataclass
class Ctx:
    """What a pass needs from run.py."""

    root: Path                 # checkout root (holds src/repro)
    workdir: Path              # scratch directory of this pass
    seed: int
    expected: dict[str, Any]   # pinned digests (expected.json)
    warm_reps: int = 1


@dataclass
class Pass:
    cold_s: float
    warm_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: output check -> passed
    checks: dict[str, bool] = field(default_factory=dict)
    #: exact counts and phase timings for the per-layer report
    facts: dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.attempted += 1
        self.failed += 0 if ok else 1


def digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON of ``obj`` (floats by repr, so
    equal digests mean bit-equal values)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = clock()
    out = fn()
    return out, clock() - t0


# ---------------------------------------------------------------------------
# fig3-weak: cold Fig. 3 on a fresh suite, sequential, no engine
# ---------------------------------------------------------------------------

def fig3_series(data: Any) -> dict[str, Any]:
    """The plotted Fig. 3 series: efficiencies and the JUQCS split."""
    return {"curves": {name: [[n, e] for n, e in curve.efficiency()]
                       for name, curve in data.curves.items()},
            "failed": {name: list(curve.failed)
                       for name, curve in data.curves.items()},
            "juqcs_compute": [[n, e] for n, e in data.juqcs_compute],
            "juqcs_comm": [[n, e] for n, e in data.juqcs_comm]}


def fig3_setup(ctx: Ctx) -> dict[str, Any]:
    from repro import load_suite
    from repro.analysis import figure3
    from repro.exec import ExecutionEngine, MemoryCache

    return {"suite": load_suite(), "figure3": figure3,
            "Engine": ExecutionEngine, "MemoryCache": MemoryCache}


def _fig3_pass(state: dict[str, Any], cache: Any) -> tuple[Any, Any]:
    """``jubench fig3 --workers 1``: the serial engine runs every point
    inline, in order, memoising results in ``cache``."""
    suite = state["suite"]
    engine = state["Engine"](workers=1, cache=cache)
    suite.engine = engine
    try:
        return state["figure3"](suite, nodes=FIG3_NODES), engine.journal
    finally:
        suite.engine = None


def fig3_run(state: dict[str, Any], ctx: Ctx) -> Pass:
    cache = state["MemoryCache"]()
    (data, journal), cold = timed(lambda: _fig3_pass(state, cache))
    out = Pass(cold_s=cold)
    series = fig3_series(data)
    stats = journal.stats()
    out.attempted += stats.tasks + len(data.juqcs_comm)
    out.failed += stats.errors
    out.check("fig3 series digest",
              digest(series) == ctx.expected["fig3-weak"]["series_sha256"])
    warm_journal = None
    for _ in range(ctx.warm_reps):
        (again, w_journal), warm = timed(lambda: _fig3_pass(state, cache))
        out.warm_s.append(warm)
        w_stats = w_journal.stats()
        out.attempted += w_stats.tasks + len(again.juqcs_comm)
        out.failed += w_stats.errors
        out.check("warm pass executes 0 tasks", w_stats.executed == 0)
        out.check("warm fig3 equals cold", fig3_series(again) == series)
        warm_journal = warm_journal or w_journal
    out.facts.update(exec_facts(journal, warm_journal, workers=1))
    return out


def exec_facts(cold: Any, warm: Any, workers: int) -> dict[str, Any]:
    """Engine counters over the cold pass and the first warm pass;
    utilization and task durations of the cold pass."""
    stats = cold.stats()
    both = [stats] + ([warm.stats()] if warm is not None else [])
    return {
        "exec.tasks": sum(s.tasks for s in both),
        "exec.executed": sum(s.executed for s in both),
        "exec.cache_hits": sum(s.cache_hits for s in both),
        "exec.errors": sum(s.errors for s in both),
        "exec.retries": sum(s.retries for s in both),
        "exec.utilization": (stats.busy_seconds /
                             (stats.wall_seconds * workers)
                             if stats.wall_seconds > 0 else 0.0),
        "exec.task_durations": sorted(r.duration for r in cold.records
                                      if r.executed),
    }


# ---------------------------------------------------------------------------
# suite-engine: Table II + full Fig. 2 through the execution engine
# ---------------------------------------------------------------------------

def fig2_series(data: Any) -> dict[str, Any]:
    return {name: {"reference": [c.reference.nodes, c.reference.runtime],
                   "points": [[p.nodes, p.runtime] for p in c.points],
                   "failed": list(c.failed)}
            for name, c in data.curves.items()}


def suite_setup(ctx: Ctx) -> dict[str, Any]:
    from repro import load_suite
    from repro.analysis import figure2
    from repro.cluster.hardware import juwels_booster
    from repro.core.suite import encode_result
    from repro.exec import DiskCache, ExecutionEngine
    from repro.history import HistoryStore, record

    return {"suite": load_suite(), "figure2": figure2,
            "system": juwels_booster, "encode": encode_result,
            "DiskCache": DiskCache, "Engine": ExecutionEngine,
            "HistoryStore": HistoryStore, "record": record}


def _suite_pass(state: dict[str, Any], cache_dir: Path,
                history_path: Path | None = None) -> tuple[Any, ...]:
    """One ``jubench suite`` + ``fig2`` pass on 2 workers, appending one
    history record per benchmark (``--history``) when given a path."""
    suite = state["suite"]
    engine = state["Engine"](workers=2, cache=state["DiskCache"](cache_dir))
    suite.engine = engine
    try:
        results = suite.run_all()
        fig2 = state["figure2"](suite)
    finally:
        suite.engine = None
    if history_path is None:
        return results, fig2, engine.journal
    store = state["HistoryStore"].open(history_path)
    for res in results:
        store.append(state["record"](
            res.benchmark, res.fom_seconds,
            params={"study": "suite", "nodes": res.nodes, "scale": 1.0},
            system=state["system"](), engine=engine))
    return results, fig2, engine.journal


def suite_run(state: dict[str, Any], ctx: Ctx) -> Pass:
    cache_dir = ctx.workdir / "exec-cache"
    history_path = ctx.workdir / "history.jsonl"
    (results, fig2, journal), cold = timed(
        lambda: _suite_pass(state, cache_dir, history_path))
    out = Pass(cold_s=cold)
    stats = journal.stats()
    out.attempted += stats.tasks + len(results)
    out.failed += stats.errors
    golden = json.loads((ctx.root / ctx.expected["suite-engine"]
                         ["table2_golden"]).read_text(encoding="utf-8"))
    foms = {r.benchmark: r.fom_seconds for r in results}
    out.check("Table II FOMs equal the goldens exactly",
              foms == golden["foms"])
    series = fig2_series(fig2)
    out.check("fig2 curves digest",
              digest(series) == ctx.expected["suite-engine"]["fig2_sha256"])
    encoded = [state["encode"](r) for r in results]
    warm_journal = None
    for _ in range(ctx.warm_reps):
        (w_results, w_fig2, w_journal), warm = timed(
            lambda: _suite_pass(state, cache_dir))
        out.warm_s.append(warm)
        w_stats = w_journal.stats()
        out.attempted += w_stats.tasks
        out.failed += w_stats.errors
        out.check("warm pass executes 0 tasks", w_stats.executed == 0)
        out.check("warm results equal cold",
                  [state["encode"](r) for r in w_results] == encoded
                  and fig2_series(w_fig2) == series)
        warm_journal = warm_journal or w_journal
    out.facts.update(exec_facts(journal, warm_journal, workers=2))
    out.facts.update({
        "history.appends": len(results),
        "history.file_bytes": history_path.stat().st_size,
    })
    return out


# ---------------------------------------------------------------------------
# ledger-io: the four JSONL stores, written then read
# ---------------------------------------------------------------------------

def ledger_setup(ctx: Ctx) -> dict[str, Any]:
    from repro.core.benchmark import BenchmarkResult
    from repro.core.suite import encode_result
    from repro.exec import RunJournal, TaskRecord
    from repro.history import HistoryStore, RegressionDetector, RunRecord
    from repro.service import ResultEnvelope, ResultStore, TaskEnvelope
    from repro.telemetry import JsonlSink
    from repro.telemetry.schema import read_events

    state = {"HistoryStore": HistoryStore, "ResultStore": ResultStore,
             "RunJournal": RunJournal, "JsonlSink": JsonlSink,
             "Detector": RegressionDetector, "read_events": read_events,
             "RunRecord": RunRecord, "TaskRecord": TaskRecord,
             "TaskEnvelope": TaskEnvelope, "ResultEnvelope": ResultEnvelope,
             "Result": BenchmarkResult, "encode": encode_result}
    state["stores"] = _ledger_stores(state, ctx.workdir / "cycle-0")
    return state


def _ledger_stores(state: dict[str, Any], d: Path) -> dict[str, Any]:
    """The four stores, opened empty in ``d``."""
    d.mkdir(parents=True, exist_ok=True)
    return {"dir": d,
            "history": state["HistoryStore"].open(d / "history.jsonl"),
            "results": state["ResultStore"].open(d / "results.jsonl"),
            "journal": state["RunJournal"](),
            "sink": state["JsonlSink"](d / "events.jsonl")}


def ledger_inputs(state: dict[str, Any], seed: int) -> dict[str, Any]:
    """Every record the stores receive, generated from ``seed``.

    History: ``LEDGER_SERIES`` series of ``LEDGER_POINTS`` points, level
    +-0.5 % uniform noise (inside the detector's 2 % slack, so a
    stationary series is never flagged); ``LEDGER_PLANTED`` of them
    carry a +15..40 % step from a seeded onset on.  Appends interleave
    the series in a seeded order, as successive CI runs would.
    """
    rng = random.Random(seed)
    planted = set(rng.sample(range(LEDGER_SERIES), LEDGER_PLANTED))
    series = []
    for s in range(LEDGER_SERIES):
        bench = LEDGER_BENCHMARKS[s % len(LEDGER_BENCHMARKS)]
        level = rng.uniform(1.0, 500.0)
        onset = rng.randint(20, LEDGER_POINTS - 10) if s in planted else None
        shift = rng.uniform(0.15, 0.40)
        values = [level * (1.0 + 0.005 * (2.0 * rng.random() - 1.0)) *
                  (1.0 + shift if onset is not None and i >= onset else 1.0)
                  for i in range(LEDGER_POINTS)]
        series.append({"benchmark": bench,
                       "params": {"study": "ci", "nodes": 2 ** (s % 9),
                                  "series": s},
                       "machine_hash": "%016x" % rng.getrandbits(64),
                       "values": values})
    order = []
    for i in range(LEDGER_POINTS):
        batch = list(range(LEDGER_SERIES))
        rng.shuffle(batch)
        order.extend((s, i) for s in batch)
    commits = ["%040x" % rng.getrandbits(160) for _ in range(LEDGER_POINTS)]
    RunRecord = state["RunRecord"]
    history = [RunRecord(benchmark=series[s]["benchmark"],
                         params=dict(series[s]["params"]),
                         fom_seconds=series[s]["values"][i],
                         foms={"efficiency": rng.random()},
                         vmpi_mode="event", machine="JUWELS Booster",
                         machine_hash=series[s]["machine_hash"],
                         code=commits[i], seed=seed,
                         spans={"vmpi.run": {"count": 1 + s % 7}},
                         volatile={"wall_seconds": rng.uniform(0.1, 30.0)})
               for s, i in order]

    results = []
    for i in range(LEDGER_RESULTS):
        bench = LEDGER_BENCHMARKS[rng.randrange(len(LEDGER_BENCHMARKS))]
        nodes = 2 ** rng.randrange(10)
        task = state["TaskEnvelope"](
            client=f"client-{rng.randrange(8)}", benchmark=bench,
            key="%032x" % rng.getrandbits(128),
            params={"nodes": nodes, "scale": 1.0}, seq=i)
        value = state["encode"](state["Result"](
            benchmark=bench, nodes=nodes,
            fom_seconds=rng.uniform(0.01, 500.0), verified=True,
            verification="within tolerance",
            details={"compute_seconds": rng.random(),
                     "comm_seconds": rng.random(),
                     "ranks": nodes * 4, "mode": "event"}))
        results.append(state["ResultEnvelope"](
            task_id=task.task_id, client=task.client, benchmark=bench,
            key=task.key, status="ok", value=value,
            endpoint=f"endpoint-{rng.randrange(4)}", attempts=1,
            cache=rng.choice(("hit", "miss"))))

    tasks = []
    for i in range(LEDGER_JOURNAL):
        start = rng.uniform(0.0, 100.0)
        tasks.append(state["TaskRecord"](
            index=i, label=f"strong:{rng.choice(LEDGER_BENCHMARKS)}@{i}",
            status="ok", cache=rng.choice(("hit", "miss")),
            attempts=1, started=start,
            finished=start + rng.uniform(0.001, 2.0),
            key="%032x" % rng.getrandbits(128)))

    events = []
    for i in range(LEDGER_EVENTS):
        events.append({"type": "service",
                       "action": rng.choice(("submit", "dispatch",
                                             "complete")),
                       "target": f"task-{rng.getrandbits(48):012x}",
                       "at": rng.uniform(0.0, 1000.0)})
    planted_keys = {rec.series_key for rec in history
                    if rec.params["series"] in planted}
    return {"history": history, "results": results, "tasks": tasks,
            "events": events, "planted": planted_keys}


def _ledger_read(state: dict[str, Any], d: Path,
                 detector: Any) -> tuple[dict[str, Any], dict[str, float]]:
    """Reopen and replay every store, export, and summarise."""
    t0 = clock()
    history = state["HistoryStore"].open(d / "history.jsonl")
    results = state["ResultStore"].open(d / "results.jsonl")
    journal = state["RunJournal"].from_jsonl(d / "journal.jsonl")
    events = list(state["read_events"](d / "events.jsonl"))
    t1 = clock()
    h_export = history.canonical_export()
    r_export = results.canonical_export()
    t2 = clock()
    summaries = {}
    for key, recs in sorted(history.select().items()):
        values = [r.value for r in recs if r.value is not None]
        summaries[key] = (recs, detector.summarize(values))
    t3 = clock()
    return ({"history": history, "results": results, "journal": journal,
             "events": events, "h_export": h_export, "r_export": r_export,
             "summaries": summaries},
            {"open_s": t1 - t0, "export_s": t2 - t1, "regress_s": t3 - t2})


def _ledger_cycle(state: dict[str, Any], stores: dict[str, Any],
                  inputs: dict[str, Any], detector: Any
                  ) -> tuple[float, float, dict[str, Any], dict[str, float]]:
    """Append every record one at a time, then reopen, export and
    summarise: the cold pass.  Returns its time, the append time, what
    was read back and the read phases."""
    d = stores["dir"]
    history, results = stores["history"], stores["results"]
    journal, sink = stores["journal"], stores["sink"]
    t0 = clock()
    for rec in inputs["history"]:
        history.append(rec)
    for env in inputs["results"]:
        results.append(env)
    for task in inputs["tasks"]:
        journal.append(task)
    journal.to_jsonl(d / "journal.jsonl")
    for event in inputs["events"]:
        sink.emit(event)
    sink.close()
    append_s = clock() - t0
    read, phases = _ledger_read(state, d, detector)
    return clock() - t0, append_s, read, phases


def ledger_run(state: dict[str, Any], ctx: Ctx) -> Pass:
    inputs = ledger_inputs(state, ctx.seed)
    detector = state["Detector"]()
    appends = (len(inputs["history"]) + len(inputs["results"]) +
               len(inputs["tasks"]) + len(inputs["events"]))
    out = Pass(cold_s=0.0)
    colds, phase_samples, first = [], [], None
    for cycle in range(LEDGER_CYCLES):
        stores = state.pop("stores") if cycle == 0 else \
            _ledger_stores(state, ctx.workdir / f"cycle-{cycle}")
        cold, append_s, read, phases = _ledger_cycle(state, stores, inputs,
                                                     detector)
        colds.append(cold)
        phase_samples.append({"append_per_s": appends / append_s, **phases})
        out.attempted += appends + 4 + len(read["summaries"])
        exports = (read["h_export"], read["r_export"])
        if first is None:
            first = exports
            out.check("history export after reopen is byte-identical",
                      read["h_export"] ==
                      stores["history"].canonical_export())
            out.check("result export after reopen is byte-identical",
                      read["r_export"] ==
                      stores["results"].canonical_export())
        else:
            out.check("cycles export identically", exports == first)
        out.check("journal round-trips",
                  read["journal"].records == stores["journal"].records)
        out.check("sink events round-trip",
                  read["events"][1:] == inputs["events"])
        out.check("per-series seq values are dense",
                  all([r.seq for r in recs] == list(range(len(recs)))
                      for recs, _ in read["summaries"].values()))
        flagged = {key for key, (_recs, summary) in read["summaries"].items()
                   if summary["counts"]["regression"] > 0}
        out.check("exactly the planted series are flagged",
                  flagged == inputs["planted"])
        series = len(read["summaries"])
        for _ in range(ctx.warm_reps):
            (again, _p), warm = timed(
                lambda: _ledger_read(state, stores["dir"], detector))
            out.warm_s.append(warm)
            out.attempted += 4 + len(again["summaries"])
            out.check("warm exports equal cold",
                      (again["h_export"], again["r_export"]) == exports)
            del again
        del read, stores  # the next cycle's peak memory is its own
    out.cold_s = statistics.median(colds)
    out.facts.update({
        name: statistics.median(p[name] for p in phase_samples)
        for name in phase_samples[0]})
    out.facts.update({
        "history.appends": LEDGER_CYCLES * len(inputs["history"]),
        "history.file_bytes": (ctx.workdir / "cycle-0" /
                               "history.jsonl").stat().st_size,
        "history.series": series,
        "history.flagged": len(flagged),
        "service.appends": LEDGER_CYCLES * len(inputs["results"]),
        "telemetry.sink_events": LEDGER_CYCLES * len(inputs["events"]),
    })
    return out


# ---------------------------------------------------------------------------
# check-tree: ``jubench check --strict --workers 2`` over src/repro
# ---------------------------------------------------------------------------

def check_setup(ctx: Ctx) -> dict[str, Any]:
    from repro import check as chk
    from repro.exec import DiskCache

    baseline = ctx.root / "check-baseline.json"
    return {"chk": chk, "DiskCache": DiskCache, "baseline": baseline,
            "analyzer": chk.Analyzer(baseline=chk.load_baseline(baseline))}


def _check_pass(state: dict[str, Any], analyzer: Any,
                ctx: Ctx) -> tuple[Any, str, int]:
    """What ``jubench check --strict --workers 2 --cache-dir D`` does:
    analyze, add the runtime contract findings, render."""
    chk = state["chk"]
    report = analyzer.run(ctx.root / "src" / "repro", rel_base=ctx.root,
                          workers=2,
                          cache=state["DiskCache"](ctx.workdir / "cache"))
    extra = analyzer.classify(chk.runtime_contract_findings(), {})
    report.active += extra.active
    report.baselined += extra.baselined
    report.unused_baseline = extra.unused_baseline
    text = chk.render_human(report, strict=True)
    return report, text, 1 if report.failed(True) else 0


def check_run(state: dict[str, Any], ctx: Ctx) -> Pass:
    chk = state["chk"]
    (report, text, status), cold = timed(
        lambda: _check_pass(state, state["analyzer"], ctx))
    out = Pass(cold_s=cold)
    out.attempted += report.files_checked
    out.check("check --strict exits 0", status == 0)
    warm_report = None
    for _ in range(ctx.warm_reps):
        analyzer = chk.Analyzer(baseline=chk.load_baseline(state["baseline"]))
        (w_report, w_text, w_status), warm = timed(
            lambda: _check_pass(state, analyzer, ctx))
        out.warm_s.append(warm)
        out.attempted += w_report.files_checked
        out.check("warm check --strict exits 0", w_status == 0)
        out.check("cold and warm reports are byte-identical", w_text == text)
        warm_report = warm_report or w_report
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ctx.root / "src" / "repro").rglob("*.py"))
    hits_from = warm_report or report
    out.facts.update({
        "check.files": report.files_checked, "check.lines": lines,
        "check.findings": len(report.active),
        "check.baselined": len(report.baselined),
        "check.cache_hits": hits_from.cache_hits,
        "check.cache_misses": hits_from.cache_misses,
    })
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Ctx], dict[str, Any]]
    run: Callable[[dict[str, Any], Ctx], Pass]
    #: warm repetitions per untraced pass (their median is one sample)
    warm_reps: int


WORKLOADS = {w.name: w for w in (
    Workload("fig3-weak", fig3_setup, fig3_run, warm_reps=3),
    Workload("suite-engine", suite_setup, suite_run, warm_reps=150),
    Workload("ledger-io", ledger_setup, ledger_run, warm_reps=1),
    Workload("check-tree", check_setup, check_run, warm_reps=1),
)}
