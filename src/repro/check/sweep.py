"""The COMM5xx oracle: every rank program, run through the step engine.

A *rank program* is a module-level generator ``def prog(comm, ...)``
yielding :mod:`repro.vmpi.ops` descriptors.  The sweep imports each
one and runs it through ``VmpiEngine(mode="step")`` at small
communicator sizes with ``Phantom`` payloads, so the engine's own
matching rules decide every verdict -- there is no second model of
MPI semantics to keep in sync.

* Programs that take only ``comm`` run as they are.  Every other
  program gets its benchmark's smallest arguments from :data:`PROBES`,
  keyed ``module:function``; a program without a probe is covered only
  when a probed caller reaches it (e.g. through ``yield from``).
* Each program sees a thin proxy of its communicator that records the
  source line of every op it constructs, so verdicts anchor at the
  exact call, and wraps the communicators ``split`` returns.
* Outcomes map onto the rule ids: a collective mismatch on kind is
  COMM502, on root or reduce op COMM505; a deadlocked collective
  waiting on finished or diverged members is COMM501; a pure wait-for
  cycle is COMM503; a transfer whose peer finished, or a send still
  unreceived when every rank returned, is COMM506; two transfers of one
  yielded batch on the same (communicator, channel, tag) are COMM504.
* A program that raises its own exception (an argument check, an
  out-of-range peer, anything but a ``VmpiError``) gets no finding.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable

import numpy as np

from ..cluster import juwels_booster
from ..vmpi.collectives import (
    CollectiveMismatchError,
    DeadlockError,
    RankFailedError,
    VmpiError,
)
from ..vmpi.comm import Comm
from ..vmpi.engine import VmpiEngine
from ..vmpi.machine import Machine
from ..vmpi.ops import (
    Collective,
    Exchange,
    Irecv,
    Isend,
    Recv,
    Send,
    Sendrecv,
)
from .rules.base import iter_direct_body

#: communicator sizes every rank program runs at; odd sizes are
#: deliberately included (pairing/halving programs break there first)
DEFAULT_SIZES = (2, 3, 4, 5)

_SENDS = (Send, Isend, Sendrecv)
_RECVS = (Recv, Irecv, Sendrecv)


# ---------------------------------------------------------------------------
# probes: the smallest arguments of every rank program that needs any
#
# Each probe receives the program's module and the rank's world
# communicator and returns the positional arguments after ``comm``.
# Arguments come from the constants and constructors the benchmark (or
# its tests) already use, cut to one step/iteration/round.


def _fixed(*args):
    return lambda mod, comm: args


def _probe_stages(mod, comm):
    from ..apps.ai.layers import Linear, Sequential, cross_entropy

    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 5))
    y = rng.integers(5, size=4)
    stage = Sequential([Linear(5, 5, np.random.default_rng(comm.rank))])
    return (stage, x if comm.rank == 0 else None,
            lambda logits: cross_entropy(logits, y))


def _probe_gradients(mod, comm):
    from ..apps.ai.layers import Linear

    return (Linear(5, 3, np.random.default_rng(42)).parameters(),)


def _probe_arbor_real(mod, comm):
    network = mod.RingNetwork(n_rings=2, cells_per_ring=4)
    return (network, mod.DT_MS, mod.DT_MS, 11, 2)


def _juqcs_state(mod, comm):
    # real mode at laptop scale: one local bit per rank
    return mod.dist_zero_state(comm, comm.size.bit_length())


def _probe_dist_apply(mod, comm):
    from ..apps.juqcs.statevector import H

    state = _juqcs_state(mod, comm)
    return (state, H, state.n_qubits - 1)


def _probe_dist_cg(mod, comm):
    from ..apps.lattice.dirac import random_spinor

    rng = np.random.default_rng(2024)
    dims = (comm.size, 4, 4, 4)  # one time slice per rank
    gauge = mod.GaugeField.hot(dims, rng)
    b = random_spinor(rng, dims)
    op = mod.distribute_gauge(gauge, comm.rank, comm.size, kappa=0.12)
    return (op, mod.slab_of(b, comm.rank, comm.size), 1e-8, 1)


def _probe_chroma_verify(mod, comm):
    # the real-mode lattice at its smallest scale: T = ranks
    dims = (comm.size,) + mod.ChromaBenchmark.REAL_DIMS[1:]
    return (mod.GaugeField.hot(dims, np.random.default_rng(2024)),)


def _qe_fields():
    rng = np.random.default_rng(792)
    psi = rng.normal(size=(8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8))
    return psi, rng.normal(size=(8, 8, 8)) * 0.3


def _probe_gathered_fft3(mod, comm):
    psi, _ = _qe_fields()
    lo, hi = mod.slab_range(8, comm.rank, comm.size)
    return (psi[lo:hi].copy(), 8)


PROBES: dict[str, Callable[[ModuleType, Comm], tuple]] = {
    "repro.apps.ai.benchmarks:megatron_timing_program": _fixed(1),
    "repro.apps.ai.benchmarks:mmoclip_timing_program": _fixed(1),
    "repro.apps.ai.benchmarks:resnet_timing_program": _fixed(1),
    "repro.apps.ai.parallelism:allreduce_gradients": _probe_gradients,
    "repro.apps.ai.parallelism:pipeline_train_step": _probe_stages,
    "repro.apps.arbor.benchmark:arbor_timing_program": _fixed(8.0, 1, 1, 1.0),
    "repro.apps.arbor.benchmark:arbor_real_program": _probe_arbor_real,
    "repro.apps.icon.benchmark:icon_timing_program":
        lambda mod, comm: (float(mod.SUBCASES["R02B09"]["cells"]),
                           mod.SUBCASES["R02B09"]["input_bytes"], 1, 0.0),
    "repro.apps.juqcs.benchmark:juqcs_program":
        lambda mod, comm: (comm.size.bit_length(), 1, True),
    "repro.apps.juqcs.distributed:dist_apply": _probe_dist_apply,
    "repro.apps.juqcs.distributed:dist_gather":
        lambda mod, comm: (_juqcs_state(mod, comm),),
    "repro.apps.lattice.chroma:chroma_timing_program":
        _fixed((2, 2, 2, 2), 1, 1, 1),
    "repro.apps.lattice.chroma:verification_program": _probe_chroma_verify,
    "repro.apps.lattice.distributed:dist_cg": _probe_dist_cg,
    "repro.apps.lattice.dynqcd:dynqcd_timing_program":
        _fixed((2, 2, 2, 2), 1, 1),
    "repro.apps.md.amber:amber_timing_program":
        lambda mod, comm: (mod.STMV_ATOMS, 1),
    "repro.apps.md.gromacs:gromacs_timing_program":
        lambda mod, comm: (mod.CASES["A"]["atoms"], 1, 64),
    "repro.apps.nastja.benchmark:nastja_timing_program":
        lambda mod, comm: (mod.DOMAIN, 1),
    "repro.apps.nekrs.benchmark:nekrs_timing_program":
        lambda mod, comm: (float(mod.BASE_ELEMENTS), 1, 1, 1),
    "repro.apps.parflow.benchmark:parflow_timing_program":
        lambda mod, comm: (mod.DOMAIN, 1, 1, 1),
    "repro.apps.picongpu.benchmark:picongpu_timing_program":
        lambda mod, comm: (mod.BASE_GRID, 1),
    "repro.apps.qe.benchmark:qe_real_program":
        lambda mod, comm: _qe_fields(),
    "repro.apps.qe.benchmark:qe_timing_program":
        lambda mod, comm: (mod.MESH, 16, 1),
    "repro.apps.qe.fft3d:gathered_fft3": _probe_gathered_fft3,
    "repro.apps.soma.benchmark:soma_timing_program":
        lambda mod, comm: (mod.CHAINS, mod.BEADS_PER_CHAIN,
                           mod.FIELD_GRID, 1),
    "repro.synthetic.graph500:graph500_timing_program":
        lambda mod, comm: (mod.Graph500Benchmark.SCALE_FULL, 1),
    "repro.synthetic.hpcg:hpcg_timing_program": _fixed(192, 1),
    "repro.synthetic.hpl:hpl_timing_program": _fixed(1024, 1024),
    "repro.synthetic.linktest:bisection_program":
        lambda mod, comm: (mod.MESSAGE_BYTES, 1),
    "repro.synthetic.osu:pingpong_program":
        lambda mod, comm: (mod.MESSAGE_SIZES[:1], 1, False),
}


# ---------------------------------------------------------------------------
# discovery


def is_rank_program(fn: ast.FunctionDef) -> bool:
    """A generator whose first parameter is the communicator."""
    args = fn.args.posonlyargs + fn.args.args
    if not args:
        return False
    first = args[0]
    if first.arg != "comm":
        ann = first.annotation
        if not (ann is not None and "Comm" in ast.dump(ann)):
            return False
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in iter_direct_body(fn, _nested_scope))


def _nested_scope(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda))


def rank_programs(tree: ast.Module) -> list[ast.FunctionDef]:
    """Module-level rank programs, in source order."""
    return [stmt for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and is_rank_program(stmt)]


def module_name(path: Path) -> str:
    """Dotted module name of ``path`` from its enclosing packages."""
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def load_module(path: Path, name: str) -> ModuleType:
    """Import ``path``: by ``name`` when that name resolves to this very
    file, else from the path under a private name that is dropped from
    ``sys.modules`` again once the module has executed."""
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        spec = None
    if spec is not None and spec.origin and \
            Path(spec.origin).resolve() == path.resolve():
        return importlib.import_module(name)
    private = "_comm_sweep_" + name.replace(".", "_")
    spec = importlib.util.spec_from_file_location(private, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[private] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[private]
    return mod


# ---------------------------------------------------------------------------
# results


@dataclass
class CommFinding:
    """One protocol violation the engine exposed."""

    rule_id: str
    relpath: str
    line: int
    message: str
    program: str = ""
    program_relpath: str = ""
    nranks: int = 0
    trace: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Run:
    """How one (program, size) pair of the sweep ended.

    ``outcome`` is ``completed``, ``vmpi-error`` (the engine raised; the
    findings say which rule), ``raised`` (the program's own exception),
    ``unprobed`` (arguments needed but no probe) or ``unloadable`` (the
    module failed to import).  ``posted`` counts the ops all ranks
    yielded before the run ended.
    """

    relpath: str
    program: str
    nranks: int
    outcome: str
    posted: int = 0
    error: str = ""


@dataclass
class SweepReport:
    """Findings plus the per-pair accounting the coverage test reads.

    ``reached`` holds ``(relpath, program, nranks)`` for every rank
    program that constructed at least one op inside a run that
    completed -- run directly or called from another program.
    """

    findings: list[CommFinding] = field(default_factory=list)
    runs: list[Run] = field(default_factory=list)
    reached: set[tuple[str, str, int]] = field(default_factory=set)


# ---------------------------------------------------------------------------
# one run: the comm proxy and the recorder behind it


class _Proxy:
    """A communicator that records where each op it builds comes from."""

    __slots__ = ("_comm", "_rec")

    def __init__(self, comm: Comm, rec: "_Recorder") -> None:
        self._comm = comm
        self._rec = rec
        rec.comms[comm.comm_id] = comm.members

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._comm, name)
        if name.startswith("_") or not callable(attr):
            return attr
        rec = self._rec

        def build(*args, **kwargs):
            op = attr(*args, **kwargs)
            rec.note(op, sys._getframe(1))
            return op

        return build


def _rank_main(rec: "_Recorder", func: Callable, probe: Callable | None,
               comm: Comm):
    """Drive one rank: probe its arguments, hand the program a proxy,
    log every op it posts and wrap the communicators it gets back."""
    args = probe(comm) if probe is not None else ()
    gen = func(_Proxy(comm, rec), *args)
    posted = rec.posted[comm.rank]
    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if type(op) is tuple:
            rec.check_batch(comm.rank, op)
            posted.extend(op)
        else:
            posted.append(op)
        value = rec.wrap((yield op))


_RANK_MAIN = _rank_main.__code__


class _Recorder:
    """Everything one (program, size) run learns beyond the engine."""

    def __init__(self, nranks: int, files: dict[str, str],
                 programs: dict[Any, tuple[str, str]],
                 home: tuple[str, int]) -> None:
        self.files = files
        self.programs = programs
        self.home = home
        self.comms: dict[int, tuple[int, ...]] = {}
        self.posted: list[list] = [[] for _ in range(nranks)]
        self.sites: dict[int, tuple[str, int]] = {}
        self.reached: set[tuple[str, str]] = set()
        self.events: list[tuple[str, tuple[str, int], str, list[str]]] = []
        self._keep: list = []  # keeps op ids unique for the run

    # -- recording -----------------------------------------------------------

    def note(self, op: Any, frame) -> None:
        """Anchor ``op`` at the innermost checked frame that built it."""
        site = None
        while frame is not None and frame.f_code is not _RANK_MAIN:
            code = frame.f_code
            if site is None:
                relpath = self.files.get(code.co_filename)
                if relpath is not None:
                    site = (relpath, frame.f_lineno)
            program = self.programs.get(code)
            if program is not None:
                self.reached.add(program)
            frame = frame.f_back
        self.sites[id(op)] = site or self.home
        self._keep.append(op)

    def wrap(self, value: Any) -> Any:
        if isinstance(value, Comm):
            return _Proxy(value, self)
        if type(value) is list and any(isinstance(v, Comm) for v in value):
            return [_Proxy(v, self) if isinstance(v, Comm) else v
                    for v in value]
        return value

    def site(self, op: Any) -> tuple[str, int]:
        return self.sites.get(id(op), self.home)

    def where(self, op: Any) -> str:
        relpath, line = self.site(op)
        return f"{relpath}:{line}"

    def local(self, comm_id: int, world: int) -> int | None:
        members = self.comms.get(comm_id)
        return members.index(world) if members and world in members \
            else None

    def event(self, rule_id: str, op: Any, message: str,
              trace: list[str]) -> None:
        self.events.append((rule_id, self.site(op), message, trace))

    # -- COMM504: one batch, one channel -------------------------------------

    def check_batch(self, world: int, ops: tuple) -> None:
        seen: dict[tuple, Any] = {}
        for op in ops:
            me = self.local(getattr(op, "comm_id", None), world)
            if me is None:
                continue
            keys = ([("x", op.comm_id, op.tag)] if type(op) is Exchange
                    else [(side, *chan) for side, chan in _endpoints(op, me)])
            for key in keys:
                prev = seen.setdefault(key, op)
                if prev is op:
                    continue
                what, scope = (
                    ("concurrent exchanges share", "tag")
                    if key[0] == "x" else
                    ("two concurrent point-to-point transfers share",
                     "channel, tag"))
                self.event(
                    "COMM504", op,
                    f"{what} one (communicator, {scope}) in a single "
                    f"batch; the tag no longer discriminates the messages "
                    f"(matching falls back to posting order)",
                    [f"first use at {self.where(prev)}",
                     f"colliding key {key}"])

    # -- COMM506: sends nobody received --------------------------------------

    def check_unreceived(self) -> None:
        """After a completed run every receive was matched, so a channel
        that saw more sends than receives left the surplus unreceived."""
        sends: dict[tuple, list] = defaultdict(list)
        recvs: Counter = Counter()
        for world, ops in enumerate(self.posted):
            for op in ops:
                me = self.local(getattr(op, "comm_id", None), world)
                if me is None:
                    continue
                for side, chan in _endpoints(op, me):
                    if side == "s":
                        sends[chan].append(op)
                    else:
                        recvs[chan] += 1
        for chan in sorted(sends):
            surplus = sends[chan][recvs[chan]:]
            if surplus:
                self.event(
                    "COMM506", surplus[0],
                    f"send on tag {chan[3]} (local {chan[1]} -> {chan[2]}) "
                    f"is never received: every rank terminated with the "
                    f"message still queued", [f"channel {chan}"])

    # -- engine errors ---------------------------------------------------------

    def check_mismatch(self, err: CollectiveMismatchError) -> None:
        """COMM502 (kind) or COMM505 (reduce op, root)."""
        (la, a), (lb, b) = err.pair
        # the sequence position: collectives local rank ``la`` posted on
        # this communicator before ``a`` (its last post of that op)
        seq = count = 0
        for op in self.posted[self.comms[a.comm_id][la]]:
            if isinstance(op, Collective) and op.comm_id == a.comm_id:
                if op is a:
                    seq = count
                count += 1
        if a.kind != b.kind:
            parts = "; ".join(
                f"{op.kind} at {self.where(op)} (local ranks [{lo}])"
                for lo, op in sorted(((la, a), (lb, b)),
                                     key=lambda p: p[1].kind))
            self.event(
                "COMM502", a,
                f"collective order diverges across ranks of one "
                f"communicator: sequence position {seq} mixes {parts}",
                [f"communicator id {a.comm_id}, sequence position {seq}"])
        elif a.reduce_op != b.reduce_op:
            self.event(
                "COMM505", a,
                f"{a.kind} reduce op diverges across ranks: "
                f"{sorted({a.reduce_op, b.reduce_op})}",
                [f"sequence position {seq}"])
        else:
            self.event(
                "COMM505", a,
                f"{a.kind} root is not consistent across ranks (derived "
                f"roots {sorted({a.root, b.root})}); rooted collectives "
                f"need one rank-invariant root",
                [f"sequence position {seq}"])

    def check_deadlock(self, err: DeadlockError) -> None:
        """COMM501/COMM506 from finished or diverged peers, else the
        COMM503 wait-for cycle."""
        before = len(self.events)
        edges: dict[int, set[int]] = {}
        for world, blocked in sorted(err.blocked.items()):
            op = blocked.op
            waits = {peer for _, peer, _, _ in blocked.transfers}
            if blocked.seq >= 0:
                members = blocked.members
                missing = [lo for lo in range(len(members))
                           if lo not in blocked.arrived]
                waits.update(members[lo] for lo in missing)
                self._stuck_collective(err, op, blocked, missing)
            for is_send, peer, peer_local, tag in blocked.transfers:
                if peer not in err.finished:
                    continue
                if type(op) is Exchange:
                    message = (f"exchange on tag {tag} waits for local rank "
                               f"{peer_local}, which terminated without "
                               f"posting its round (orphan exchange "
                               f"endpoint)")
                else:
                    what, other = (("send", "receive") if is_send
                                   else ("receive", "send"))
                    message = (f"{what} on tag {tag} can never complete: "
                               f"local rank {peer_local} already terminated "
                               f"without the matching {other} (orphan "
                               f"endpoint)")
                self.event("COMM506", op, message,
                           [f"blocked world rank {world}",
                            f"peer world rank {peer} terminated"])
            edges[world] = {p for p in waits if p in err.blocked}
        if len(self.events) > before:
            return
        cycle = _find_cycle(edges)
        if cycle:
            self.event(
                "COMM503", err.blocked[cycle[0]].op,
                f"send/recv wait-for cycle across ranks {cycle}: no rank "
                f"can progress (deadlock)",
                [f"rank {r} blocked at {self._at(err.blocked[r].op)}"
                 for r in cycle])

    def _stuck_collective(self, err: DeadlockError, op: Any, blocked,
                          missing: list[int]) -> None:
        members, arrived = blocked.members, list(blocked.arrived)
        gone = [lo for lo in missing if members[lo] in err.finished]
        live = [lo for lo in missing if members[lo] not in err.finished]
        if gone:
            self.event(
                "COMM501", op,
                f"collective {op.kind!r} (sequence position {blocked.seq} "
                f"on this communicator) is posted by local ranks {arrived} "
                f"but rank(s) {gone} terminated without posting it: the "
                f"collective sits under rank-divergent control flow with "
                f"non-covering branches",
                [f"posted by local ranks {arrived}",
                 f"never posted by local ranks {gone} (terminated)"])
        elif live:
            self.event(
                "COMM501", op,
                f"collective {op.kind!r} (sequence position {blocked.seq}) "
                f"is posted by local ranks {arrived} while rank(s) {live} "
                f"took a different communication path: rank-divergent "
                f"control flow splits the collective",
                [f"local rank {lo} is blocked at "
                 f"{self._at(err.blocked[members[lo]].op)}"
                 for lo in live[:4] if members[lo] in err.blocked])

    def _at(self, op: Any) -> str:
        if isinstance(op, Collective):
            what = op.kind
        else:
            args = ", ".join(f"{name}={getattr(op, name)}"
                             for name in ("dest", "source", "tag")
                             if hasattr(op, name))
            what = f"{type(op).__name__.lower()}({args})"
        return f"{what} at {self.where(op)}"


def _endpoints(op: Any, me: int):
    """The ``("s"|"r", (comm, src, dst, tag))`` channels ``op`` posts
    on as local rank ``me``; exchange edges get a trailing ``"exchange"``
    element because they never match plain point-to-point."""
    if isinstance(op, _SENDS):
        yield "s", (op.comm_id, me, op.dest, op.tag)
    if isinstance(op, _RECVS):
        yield "r", (op.comm_id, op.source, me, op.tag)
    if type(op) is Exchange:
        for dest, _ in op.sends:
            yield "s", (op.comm_id, me, dest, op.tag, "exchange")
        for src in op.recvs:
            yield "r", (op.comm_id, src, me, op.tag, "exchange")


def _find_cycle(edges: dict[int, set[int]]) -> list[int]:
    """The first wait-for cycle, following each rank's lowest peer."""
    for start in sorted(edges):
        path = [start]
        while edges.get(path[-1]):
            peer = min(edges[path[-1]])
            if peer in path:
                return path[path.index(peer):]
            path.append(peer)
    return []


# ---------------------------------------------------------------------------
# the sweep


def _needs_arguments(func: Callable) -> bool:
    params = list(inspect.signature(func).parameters.values())[1:]
    return any(p.default is inspect.Parameter.empty and
               p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
               for p in params)


def sweep_programs(modules: Iterable[tuple[str, Path, ast.Module]],
                   sizes: tuple[int, ...] = DEFAULT_SIZES) -> SweepReport:
    """Run every rank program of ``modules`` at each of ``sizes``.

    ``modules`` are ``(relpath, path, tree)`` triples; findings anchor
    at their relpaths.  Returns deduplicated findings (one per rule and
    site), each stamped with the program and the smallest size that
    exposed it, plus the accounting of every (program, size) pair.
    """
    modules = sorted(modules, key=lambda m: m[0])
    report = SweepReport()
    files = {str(path.resolve()): relpath for relpath, path, _ in modules}
    loaded: list[tuple[str, ModuleType, str, list[ast.FunctionDef]]] = []
    programs: dict[Any, tuple[str, str]] = {}
    for relpath, path, tree in modules:
        fns = rank_programs(tree)
        if not fns:
            continue
        name = module_name(path)
        try:
            mod = load_module(path, name)
        except Exception as exc:  # noqa: BLE001 - a broken module is quiet
            report.runs.extend(
                Run(relpath, fn.name, n, "unloadable", error=repr(exc))
                for fn in fns for n in sizes)
            continue
        files[getattr(mod, "__file__", None) or str(path)] = relpath
        loaded.append((relpath, mod, name, fns))
        for fn in fns:
            func = getattr(mod, fn.name, None)
            code = getattr(func, "__code__", None)
            if code is not None:
                programs[code] = (relpath, fn.name)

    machines = {n: Machine.on(juwels_booster(), n) for n in sizes}
    found: dict[tuple[str, str, int], CommFinding] = {}
    for relpath, mod, name, fns in loaded:
        for fn in fns:
            func = getattr(mod, fn.name)
            probe = PROBES.get(f"{name}:{fn.name}")
            if probe is None and _needs_arguments(func):
                report.runs.extend(Run(relpath, fn.name, n, "unprobed")
                                   for n in sizes)
                continue
            for n in sizes:
                rec = _Recorder(n, files, programs, (relpath, fn.lineno))
                run = _run_one(rec, machines[n], func,
                               None if probe is None
                               else partial(probe, mod))
                report.runs.append(Run(relpath, fn.name, n, run[0],
                                       sum(map(len, rec.posted)), run[1]))
                if run[0] == "completed":
                    report.reached.update((rel, prog, n)
                                          for rel, prog in rec.reached)
                elif run[0] == "raised":
                    continue
                for rule_id, (site_rel, line), message, trace in rec.events:
                    key = (rule_id, site_rel, line)
                    if key in found:
                        continue
                    found[key] = CommFinding(
                        rule_id=rule_id, relpath=site_rel, line=line,
                        message=message, program=fn.name,
                        program_relpath=relpath, nranks=n,
                        trace=[f"program {fn.name} ({relpath}:{fn.lineno})",
                               f"nranks={n}", *trace])
    report.findings = sorted(found.values(),
                             key=lambda f: (f.relpath, f.line, f.rule_id))
    return report


def _run_one(rec: _Recorder, machine: Machine, func: Callable,
             probe: Callable | None) -> tuple[str, str]:
    """One (program, size) run; returns (outcome, error text)."""
    engine = VmpiEngine(machine, mode="step")
    try:
        engine.run(partial(_rank_main, rec, func, probe))
    except CollectiveMismatchError as err:
        rec.check_mismatch(err)
        return "vmpi-error", str(err)
    except DeadlockError as err:
        rec.check_deadlock(err)
        return "vmpi-error", str(err)
    except RankFailedError as err:
        return "raised", f"{type(err.original).__name__}: {err.original}"
    except VmpiError as err:
        return "vmpi-error", str(err)
    except Exception as exc:  # noqa: BLE001 - the program's own crash
        return "raised", f"{type(exc).__name__}: {exc}"
    rec.check_unreceived()
    return "completed", ""
