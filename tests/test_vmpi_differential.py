"""Differential equivalence of the two virtual-MPI engine cores.

The discrete-event core (``mode="event"``) exists purely for speed; its
contract is *byte identity* with the reference step scheduler
(``mode="step"``): same return values, same final clocks (float for
float), same per-rank traces, same Chrome trace exports.  This suite
runs a corpus of programs -- covering every op family the engines
support -- under both cores and compares the canonical serializations
byte for byte (``json.dumps`` equality, no tolerances).
"""

import json

import numpy as np
import pytest

from repro.cluster import juwels_booster
from repro.vmpi import (
    CollectiveMismatchError,
    DeadlockError,
    Machine,
    MODES,
    Phantom,
    RankFailedError,
    StepEngine,
    VmpiEngine,
    VmpiError,
    default_mode,
    run_spmd,
)
from repro.vmpi.decomposition import (
    CartGrid,
    ghost_faces,
    halo_exchange,
    halo_exchange_op,
    phantom_faces,
)
from repro.vmpi.events import EventEngine


def machine(nranks, **kw):
    return Machine.on(juwels_booster(), nranks, **kw)


# -- the program corpus ------------------------------------------------------
# Each entry: (name, program, nranks, args).  Programs are plain SPMD
# generators; anything deterministic is fair game.

def prog_p2p_chain(comm):
    if comm.rank == 0:
        yield comm.send(1, np.arange(5.0))
        return None
    got = yield comm.recv(comm.rank - 1)
    if comm.rank < comm.size - 1:
        yield comm.send(comm.rank + 1, got * 2.0)
    return float(np.sum(got))


def prog_tags_and_fifo(comm):
    if comm.rank == 0:
        yield comm.send(1, 111)
        yield comm.send(1, 222)
        yield comm.send(1, "low", tag=1)
        yield comm.send(1, "high", tag=2)
        return None
    a = yield comm.recv(0)
    b = yield comm.recv(0)
    high = yield comm.recv(0, tag=2)
    low = yield comm.recv(0, tag=1)
    return (a, b, low, high)


def prog_overlap(comm):
    peer = comm.rank ^ 1
    sreq = yield comm.isend(peer, Phantom(100e6))
    rreq = yield comm.irecv(peer)
    yield comm.compute(flops=1e12, efficiency=1.0)
    yield comm.waitall([sreq, rreq])
    return None


def prog_eager_vs_rendezvous(comm):
    # one message under the eager limit, one over it
    peer = comm.rank ^ 1
    if comm.rank % 2 == 0:
        yield comm.send(peer, Phantom(1024.0))
        yield comm.send(peer, Phantom(10e6))
        return None
    small = yield comm.recv(peer)
    big = yield comm.recv(peer)
    return (small.nbytes, big.nbytes)


def prog_sendrecv_ring(comm):
    token = float(comm.rank)
    for _ in range(3):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = yield comm.sendrecv(right, token + 1.0, left)
    return token


def prog_collectives(comm):
    total = yield comm.allreduce(np.full(3, float(comm.rank + 1)))
    top = yield comm.allreduce(comm.rank, op="max")
    data = np.arange(4.0) if comm.rank == 2 else None
    bc = yield comm.bcast(data, root=2)
    ag = yield comm.allgather(comm.rank * 2)
    gathered = yield comm.gather(comm.rank ** 2, root=0)
    items = [x + 1 for x in gathered] if comm.rank == 0 else None
    sc = yield comm.scatter(items, root=0)
    yield comm.barrier()
    return (float(total.sum()), top, float(bc.sum()), ag, sc)


def prog_alltoall_tuple(comm):
    outgoing = tuple(comm.rank * 10 + j for j in range(comm.size))
    return (yield comm.alltoall(outgoing))


def prog_alltoall_uniform_phantom(comm):
    got = yield comm.alltoall(Phantom(4096.0), label="transpose")
    return [p.nbytes for p in got]


def prog_split_subcomms(comm):
    sub = yield comm.split(comm.rank % 2)
    total = yield sub.allreduce(comm.rank)
    yield sub.barrier()
    return (sub.size, total)


def prog_halo_2d(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = phantom_faces((32, 32), itemsize=8)
    for _ in range(3):
        yield comm.compute(flops=1e9, efficiency=0.5, label="stencil")
        got = yield from halo_exchange(comm, cart, faces)
    return sorted((k, v.nbytes) for k, v in got.items())


def prog_halo_doubled_edges(comm):
    # periodic dims of extent 2: both directions hit the same neighbour,
    # the hardest pairing case for round-based matching
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = {(0, -1): ("a", comm.rank), (0, +1): ("b", comm.rank),
             (1, -1): ("c", comm.rank), (1, +1): ("d", comm.rank)}
    got = yield from halo_exchange(comm, cart, faces)
    return sorted(got.items())


def prog_hoisted_batch(comm):
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    faces = phantom_faces((16, 16), itemsize=8)
    halo, _keys = halo_exchange_op(comm, cart, faces)
    step = (comm.compute(flops=2e9, efficiency=0.4, label="dyn"),
            comm.compute(flops=1e9, efficiency=0.4, label="phys"),
            halo)
    for _ in range(4):
        yield step
    return None


def prog_halo_fresh_payloads(comm):
    # a fresh Exchange every step whose real faces change value each
    # step: a reused plan that served stale payloads would diverge
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    field = np.arange(16.0).reshape(4, 4) + comm.rank
    seen = []
    for step in range(4):
        field = field * 1.5 + step
        got = yield from halo_exchange(comm, cart, ghost_faces(field))
        seen.append(sorted((k, float(v.sum())) for k, v in got.items()))
    return seen


def prog_halo_resized(comm):
    # Phantom face sizes change between steps on one (comm, tag), across
    # the eager limit, and in one step on rank 0 only: every such round
    # needs a rebuilt plan
    cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
    for edge in (16, 16, 16384, 16, 64):
        if edge == 64 and comm.rank == 0:
            edge = 16384
        faces = phantom_faces((edge, edge), itemsize=8)
        yield comm.compute(flops=1e9, efficiency=0.5, label="stencil")
        got = yield from halo_exchange(comm, cart, faces)
    return sorted((k, v.nbytes) for k, v in got.items())


def prog_exchange_subset(comm):
    # only the even ranks exchange (pairwise); odd ranks just compute --
    # exercises the event core's quiescence flush for unfillable rounds
    if comm.rank % 2 == 0:
        peer = (comm.rank + 2) % comm.size
        src = (comm.rank - 2) % comm.size
        got = yield comm.exchange(((peer, comm.rank),), (src,))
        return got
    yield comm.compute(flops=1e9, efficiency=1.0)
    return None


def prog_mixed_waitall(comm):
    reqs = []
    for peer in range(comm.size):
        if peer != comm.rank:
            reqs.append((yield comm.isend(peer, Phantom(2e6))))
    for peer in range(comm.size):
        if peer != comm.rank:
            reqs.append((yield comm.irecv(peer)))
    yield comm.compute(flops=5e10, efficiency=1.0)
    yield comm.waitall(reqs)
    yield comm.allreduce(Phantom(1e5))
    return None


def prog_elapse_and_labels(comm):
    yield comm.elapse(0.25, label="io")
    yield comm.compute(flops=1e11, efficiency=0.8, label="kernel")
    yield comm.barrier(label="sync")
    return None


CORPUS = [
    ("p2p_chain", prog_p2p_chain, 4),
    ("tags_and_fifo", prog_tags_and_fifo, 2),
    ("overlap", prog_overlap, 4),
    ("eager_vs_rendezvous", prog_eager_vs_rendezvous, 4),
    ("sendrecv_ring", prog_sendrecv_ring, 5),
    ("collectives", prog_collectives, 4),
    ("alltoall_tuple", prog_alltoall_tuple, 3),
    ("alltoall_uniform_phantom", prog_alltoall_uniform_phantom, 4),
    ("split_subcomms", prog_split_subcomms, 6),
    ("halo_2d", prog_halo_2d, 8),
    ("halo_doubled_edges", prog_halo_doubled_edges, 4),
    ("hoisted_batch", prog_hoisted_batch, 8),
    ("halo_fresh_payloads", prog_halo_fresh_payloads, 8),
    ("halo_resized", prog_halo_resized, 8),
    ("exchange_subset", prog_exchange_subset, 6),
    ("mixed_waitall", prog_mixed_waitall, 4),
    ("elapse_and_labels", prog_elapse_and_labels, 3),
]


def run_both(program, nranks, args=()):
    m = machine(nranks)
    return (run_spmd(program, machine=m, args=args, mode="step"),
            run_spmd(program, machine=m, args=args, mode="event"))


def chrome_export_bytes(tmp_path, tag, spmd):
    """Chrome trace bytes of one run's vmpi counters (mode-independent
    inputs only -- the traces)."""
    from repro.telemetry import ManualClock, Tracer, emit_vmpi, \
        write_chrome_trace

    tracer = Tracer(clock=ManualClock(start=0.0, tick=0.5))
    with tracer.span("differential", kind="test"):
        emit_vmpi(tracer, "differential", 1, spmd)
    path = tmp_path / f"{tag}.json"
    write_chrome_trace(path, tracer)
    return path.read_bytes()


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("name,program,nranks",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_byte_identical_results(self, name, program, nranks):
        step, event = run_both(program, nranks)
        assert step.mode == "step" and event.mode == "event"
        # exact float equality on the raw clocks, then the full
        # canonical serialization byte for byte
        assert step.clocks == event.clocks
        a = json.dumps(step.canonical(), sort_keys=True)
        b = json.dumps(event.canonical(), sort_keys=True)
        assert a == b, f"{name}: canonical results diverge"

    @pytest.mark.parametrize("name,program,nranks",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_byte_identical_traces(self, name, program, nranks):
        step, event = run_both(program, nranks)
        for r, (ts, te) in enumerate(zip(step.traces, event.traces)):
            assert dict(ts.compute) == dict(te.compute), f"rank {r}"
            assert dict(ts.comm) == dict(te.comm), f"rank {r}"
            assert ts.bytes_sent == te.bytes_sent, f"rank {r}"
            assert ts.ops == te.ops, f"rank {r}"

    def test_byte_identical_chrome_export(self, tmp_path):
        step, event = run_both(prog_halo_2d, 8)
        assert chrome_export_bytes(tmp_path, "step", step) == \
            chrome_export_bytes(tmp_path, "event", event)

    def test_repeated_event_runs_identical(self):
        """The event core is deterministic against itself (cached plans
        and cost tables produce the same floats every run)."""
        m = machine(8)
        r1 = run_spmd(prog_hoisted_batch, machine=m, mode="event")
        r2 = run_spmd(prog_hoisted_batch, machine=m, mode="event")
        assert r1.clocks == r2.clocks
        assert json.dumps(r1.canonical(), sort_keys=True) == \
            json.dumps(r2.canonical(), sort_keys=True)


class TestPlanReuse:
    """Plan reuse is a property of the round's shape, not of op identity."""

    def test_value_equal_rounds_build_one_plan_per_comm_tag(self,
                                                            monkeypatch):
        built = []
        build = EventEngine._build_plan

        def counting(self, members, *rest):
            built.append(members)
            return build(self, members, *rest)

        monkeypatch.setattr(EventEngine, "_build_plan", counting)

        def prog(comm):
            cart = CartGrid.for_ranks(comm.size, 2, periodic=True)
            for _ in range(6):
                # a new, value-equal op on each of two tags every step
                yield from halo_exchange(comm, cart,
                                         phantom_faces((16, 16), itemsize=8))
                yield from halo_exchange(comm, cart,
                                         phantom_faces((8, 8), itemsize=8),
                                         tag_base=7)
            return None

        run_spmd(prog, machine=machine(8), mode="event")
        assert len(built) == 2


class TestModeSelection:
    def test_default_mode_is_event(self, monkeypatch):
        monkeypatch.delenv("REPRO_VMPI_MODE", raising=False)
        assert default_mode() == "event"
        assert isinstance(VmpiEngine(machine(2)), EventEngine)

    def test_env_var_selects_step(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_MODE", "step")
        assert default_mode() == "step"
        eng = VmpiEngine(machine(2))
        assert isinstance(eng, StepEngine)
        assert not isinstance(eng, EventEngine)

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VMPI_MODE", "warp")
        with pytest.raises(ValueError):
            default_mode()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            VmpiEngine(machine(2), mode="turbo")

    def test_modes_tuple(self):
        assert set(MODES) == {"event", "step"}

    def test_result_records_mode(self):
        def prog(comm):
            yield comm.barrier()

        for mode in MODES:
            res = run_spmd(prog, machine=machine(2), mode=mode)
            assert res.mode == mode
        # canonical() hides the mode unless asked
        assert "mode" not in res.canonical()
        assert res.canonical(include_mode=True)["mode"] == res.mode

    def test_direct_subclass_construction(self):
        assert StepEngine(machine(2)).mode == "step"
        assert EventEngine(machine(2)).mode == "event"


class TestErrorPathsBothModes:
    """Failure modes must be equivalent too: same exception type, and
    diagnostics naming each blocked rank's pending operation."""

    @pytest.mark.parametrize("mode", MODES)
    def test_deadlock_reports_pending_ops(self, mode):
        def prog(comm):
            yield comm.recv((comm.rank + 1) % comm.size)

        with pytest.raises(DeadlockError) as err:
            run_spmd(prog, machine=machine(2), mode=mode)
        msg = str(err.value)
        assert "rank 0" in msg and "rank 1" in msg
        assert "recv from rank" in msg

    @pytest.mark.parametrize("mode", MODES)
    def test_deadlock_reports_blocked_exchange(self, mode):
        def prog(comm):
            if comm.rank == 0:
                yield comm.exchange(((1, "x"),), (1,))
            # rank 1 exits without posting -- the recv can never match

        with pytest.raises(DeadlockError) as err:
            run_spmd(prog, machine=machine(2), mode=mode)
        assert "exchange" in str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_deadlock_reports_partial_collective(self, mode):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            # ranks 1..n never arrive

        with pytest.raises(DeadlockError) as err:
            run_spmd(prog, machine=machine(3), mode=mode)
        assert "collective 'barrier'" in str(err.value)
        assert "1/3 ranks arrived" in str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_full_collective_mismatch(self, mode):
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            else:
                yield comm.allreduce(1)

        with pytest.raises(CollectiveMismatchError) as err:
            run_spmd(prog, machine=machine(2), mode=mode)
        assert "'barrier'" in str(err.value)
        assert "'allreduce'" in str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_collective_mismatch(self, mode):
        """Half the comm posts barrier, half allreduce, one rank never
        arrives: reported as the collective bug it is, not a deadlock."""

        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
            elif comm.rank == 1:
                yield comm.allreduce(1)
            # rank 2 exits immediately, so the collective never fills

        with pytest.raises(CollectiveMismatchError) as err:
            run_spmd(prog, machine=machine(3), mode=mode)
        assert "partial post" in str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_rank_failure_mid_collective(self, mode):
        def prog(comm):
            yield comm.barrier()
            if comm.rank == 1:
                raise ValueError("bad physics")
            yield comm.allreduce(1)  # others block here forever

        with pytest.raises(RankFailedError) as err:
            run_spmd(prog, machine=machine(3), mode=mode)
        assert err.value.rank == 1
        assert isinstance(err.value.original, ValueError)
        assert "bad physics" in str(err.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_nested_batch_rejected(self, mode):
        def prog(comm):
            yield (comm.barrier(), (comm.barrier(),))

        with pytest.raises(VmpiError):
            run_spmd(prog, machine=machine(2), mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_wrong_size_alltoall_rejected(self, mode):
        def prog(comm):
            yield comm.alltoall(tuple(range(comm.size + 1)))

        with pytest.raises(VmpiError):
            run_spmd(prog, machine=machine(3), mode=mode)


def _err_p2p_cycle(comm):
    yield comm.recv((comm.rank + 1) % comm.size)


def _err_exchange_orphan(comm):
    if comm.rank == 0:
        yield comm.exchange(((1, "x"),), (1,))


def _err_partial_barrier(comm):
    if comm.rank == 0:
        yield comm.barrier()


def _err_full_mismatch(comm):
    if comm.rank == 0:
        yield comm.barrier()
    else:
        yield comm.allreduce(1)


def _err_partial_mismatch(comm):
    if comm.rank == 0:
        yield comm.barrier()
    elif comm.rank == 1:
        yield comm.allreduce(1)


ERROR_CORPUS = [
    (_err_p2p_cycle, 2), (_err_exchange_orphan, 2),
    (_err_partial_barrier, 3), (_err_full_mismatch, 2),
    (_err_partial_mismatch, 3),
]


@pytest.mark.parametrize("program,nranks", ERROR_CORPUS,
                         ids=[p.__name__ for p, _ in ERROR_CORPUS])
def test_error_fields_identical_across_cores(program, nranks):
    """The structured fields COMM5xx classification reads are the same
    whichever core raised them."""
    fields = []
    for mode in MODES:
        with pytest.raises((DeadlockError, CollectiveMismatchError)) as err:
            run_spmd(program, machine=machine(nranks), mode=mode)
        exc = err.value
        fields.append((type(exc), str(exc), getattr(exc, "blocked", None),
                       getattr(exc, "finished", None),
                       getattr(exc, "pair", None)))
    assert fields[0] == fields[1]
    assert fields[0][2] or fields[0][4]
