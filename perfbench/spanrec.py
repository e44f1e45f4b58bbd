"""The benchmark's own span recorder and the layer instrumentation.

The traced run times the calls into each ``src/repro`` layer from the
benchmark's files: :func:`instrument` wraps the layers' public functions
and methods in place (in the fresh worker process of one traced pass),
so no change to ``repro.telemetry`` can alter the instrument.

Spans record name, start, end and parent; they stay in memory and are
written out by :meth:`Recorder.dump` when the pass ends.  A span's self
time is its duration minus the part of its interval that its children
cover.

Two kinds of span keep the recorder cheap on the hot paths:

* *stored* spans (layer calls such as ``vmpi.run`` or
  ``history.append``) are kept one record each;
* *hot* spans (every resume of a rank-program generator, every
  cost-model query: millions per Fig. 3) are folded into per-name
  count / total / self aggregates.  They nest strictly inside stored
  spans of the same thread, so their parent subtracts their total.

Each thread keeps its own stack.  A span opened on a thread whose stack
is empty (an engine or analyzer worker) takes as parent the innermost
open span of the main thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

_MAIN = threading.main_thread()


class Recorder:
    """In-memory span recorder (thread-aware)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: stored spans: [id, name, start, end, parent, hot_child_s, attrs]
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._main_stack: list[list[Any]] = []
        #: per-thread hot aggregates: name -> [count, total_s, self_s]
        self._hot_tables: list[dict[str, list[float]]] = []
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is _MAIN \
                else []
            self._local.stack = stack
        return stack

    def _hot_table(self) -> dict[str, list[float]]:
        table = getattr(self._local, "hot", None)
        if table is None:
            table = self._local.hot = defaultdict(lambda: [0, 0.0, 0.0])
            with self._lock:
                self._hot_tables.append(table)
        return table

    @property
    def hot(self) -> dict[str, list[float]]:
        """Hot aggregates merged over threads: name -> [count, total_s,
        self_s]."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for table in self._hot_tables:
            for name, (count, total, self_s) in table.items():
                agg = out[name]
                agg[0] += count
                agg[1] += total
                agg[2] += self_s
        return out

    # -- stored spans -------------------------------------------------------

    def open(self, name: str, attrs: dict[str, Any] | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if main and stack is not main else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        # frame: [id, name, start, hot_child_s, parent, attrs]
        frame = [sid, name, self.clock(), 0.0, parent, attrs or {}]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        self._stack().pop()
        sid, name, start, hot_child, parent, attrs = frame
        self.spans.append([sid, name, start, end, parent, hot_child, attrs])

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[list]:
        frame = self.open(name, attrs)
        try:
            yield frame
        finally:
            self.close(frame)

    # -- hot spans ----------------------------------------------------------

    def hot_enter(self) -> list:
        frame = [None, None, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def hot_exit(self, name: str, frame: list) -> None:
        dur = self.clock() - frame[2]
        stack = self._stack()
        stack.pop()
        agg = self._hot_table()[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[3]
        if stack:
            stack[-1][3] += dur

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every stored span: duration minus the union of
        its stored children's intervals minus its hot children's time."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _n, start, end, parent, _h, _a in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[int, float] = {}
        for sid, _n, start, end, _p, hot_child, _a in self.spans:
            cover = 0.0
            cur_s = cur_e = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        cover += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                cover += cur_e - cur_s
            out[sid] = max(0.0, end - start - cover - hot_child)
        return out

    def dump(self, path: Any) -> None:
        """Write every stored span and hot aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, hot_child, attrs in self.spans:
                fh.write(json.dumps({
                    "span": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "hot_child_s": hot_child,
                    "attrs": attrs}, sort_keys=True, default=str) + "\n")
            for name, (count, total, self_s) in sorted(self.hot.items()):
                fh.write(json.dumps({"hot": name, "count": count,
                                     "total_s": total, "self_s": self_s},
                                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# instrumentation of the repro layers
# ---------------------------------------------------------------------------

#: NetworkModel cost queries the engine memo falls through to
NETWORK_COST_METHODS = ("p2p_params", "p2p_time", "allreduce_time",
                        "bcast_time", "allgather_time", "alltoall_time",
                        "barrier_time", "reduce_scatter_time")

#: rule-family prefixes of ``check.rule_s.<family>``
RULE_FAMILIES = ("COMM", "UNIT", "DET", "CON", "LCK", "REP", "XLY")


def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping a
    classmethod a classmethod."""
    raw = owner.__dict__[attr] if isinstance(owner, type) and \
        attr in owner.__dict__ else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _stored(rec: Recorder, name: str,
            on_result: Callable[[Any], None] | None = None
            ) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(frame)
            if on_result is not None:
                on_result(result)
            return result
        return traced
    return make


def _hot(rec: Recorder, name: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = rec.hot_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.hot_exit(name, frame)
        return traced
    return make


def _timed_program(rec: Recorder, fn: Callable) -> Callable:
    """A rank program whose every resume is a hot ``apps.gen`` span."""
    @functools.wraps(fn)
    def program(*args: Any, **kwargs: Any):
        send = fn(*args, **kwargs).send  # the engine only ever sends
        value: Any = None
        while True:
            frame = rec.hot_enter()
            try:
                op = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.hot_exit("apps.gen", frame)
            value = yield op
    return program


def instrument(rec: Recorder, facts: dict[str, Any]) -> None:
    """Wrap the public calls of every measured layer.

    ``facts`` collects exact counts read from results (SpmdResult
    counters, bytes exported); timings come from the spans.
    """
    from repro.check import Analyzer
    from repro.cluster.hardware import DeviceSpec
    from repro.cluster.network import NetworkModel
    from repro.core.benchmark import Benchmark
    from repro.exec import DiskCache, ExecutionEngine, RunJournal
    from repro.history import HistoryStore, RegressionDetector
    from repro.service import ResultStore
    from repro.telemetry import JsonlSink
    from repro.vmpi.engine import VmpiEngine

    # bytes are floats summed by worker threads in completion order:
    # keep the per-run sums and add them with math.fsum, which does not
    # depend on the order
    facts.update({"vmpi.runs": 0, "vmpi.ranks": 0, "vmpi.ops": 0,
                  "vmpi.bytes_sent": [], "history.export_bytes": 0,
                  "service.export_bytes": 0})

    # apps: one stored span per benchmark execution
    def bench_make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self: Any, *args: Any, **kwargs: Any) -> Any:
            with rec.span("apps.run", benchmark=self.info.name):
                return fn(self, *args, **kwargs)
        return run
    _wrap(Benchmark, "run", bench_make)

    # vmpi: the engine run, with the rank program wrapped for apps.gen
    facts_lock = threading.Lock()

    def vmpi_make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self: Any, program: Callable, **kwargs: Any) -> Any:
            with rec.span("vmpi.run", nranks=self.machine.nranks):
                result = fn(self, _timed_program(rec, program), **kwargs)
            ops = sum(t.ops for t in result.traces)
            sent = sum(t.bytes_sent for t in result.traces)
            with facts_lock:
                facts["vmpi.runs"] += 1
                facts["vmpi.ranks"] += result.nranks
                facts["vmpi.ops"] += ops
                facts["vmpi.bytes_sent"].append(sent)
            return result
        return run
    _wrap(VmpiEngine, "run", vmpi_make)

    # cluster: cost-model queries
    for attr in NETWORK_COST_METHODS:
        _wrap(NetworkModel, attr, _hot(rec, "cluster.cost"))
    _wrap(DeviceSpec, "compute_seconds", _hot(rec, "cluster.cost"))

    # exec
    _wrap(ExecutionEngine, "map", _stored(rec, "exec.map"))
    _wrap(DiskCache, "get", _stored(rec, "exec.cache_get"))
    _wrap(DiskCache, "put", _stored(rec, "exec.cache_put"))
    _wrap(RunJournal, "to_jsonl", _stored(rec, "exec.journal_write"))
    _wrap(RunJournal, "from_jsonl", _stored(rec, "exec.journal_read"))

    # history
    def count_bytes(key: str) -> Callable[[str], None]:
        def on_result(text: str) -> None:
            facts[key] += len(text.encode("utf-8"))
        return on_result
    _wrap(HistoryStore, "append", _stored(rec, "history.append"))
    _wrap(HistoryStore, "open", _stored(rec, "history.open"))
    _wrap(HistoryStore, "canonical_export", _stored(
        rec, "history.export", count_bytes("history.export_bytes")))
    _wrap(HistoryStore, "select", _stored(rec, "history.select"))
    _wrap(RegressionDetector, "summarize", _stored(rec, "history.classify"))

    # service
    _wrap(ResultStore, "append", _stored(rec, "service.append"))
    _wrap(ResultStore, "open", _stored(rec, "service.open"))
    _wrap(ResultStore, "canonical_export", _stored(
        rec, "service.export", count_bytes("service.export_bytes")))

    # telemetry
    _wrap(JsonlSink, "emit", _stored(rec, "telemetry.sink_write"))

    # check: the run, and each rule's hooks by family (rules are
    # instances owned by an Analyzer, wrapped when it first runs)
    def rule_span(rule: Any) -> str:
        family = next((f for f in RULE_FAMILIES if rule.id.startswith(f)),
                      "other")
        return f"check.rule.{family}"

    wrapped_rules: set[int] = set()

    def analyzer_make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(self: Any, *args: Any, **kwargs: Any) -> Any:
            for rule in self.rules:
                if id(rule) not in wrapped_rules:
                    wrapped_rules.add(id(rule))
                    for hook in ("prepare", "check_module", "finalize"):
                        _wrap(rule, hook, _stored(rec, rule_span(rule)))
            with rec.span("check.run"):
                return fn(self, *args, **kwargs)
        return run
    _wrap(Analyzer, "run", analyzer_make)
