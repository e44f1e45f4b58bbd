"""The discrete-event virtual-MPI core.

This core executes the exact semantics of
:class:`~repro.vmpi.engine.VmpiEngine` (see that module's docstring for
the shared matching and timing rules) but schedules and prices them the
way a discrete-event simulator does:

* **event heap** -- unblocked ranks are resumed from one global
  :class:`~repro.vmpi.heap.EventHeap` keyed by their virtual clock, so
  execution sweeps virtual time in causal order instead of polling a
  FIFO of ranks;
* **cost caches** -- point-to-point alpha-beta parameters are cached
  per node pair, roofline compute times per ``(device, kernel)``, and
  collective costs per ``(comm, kind, bytes)``, so the machine model is
  consulted once per distinct question instead of once per op;
* **vectorized exchange rounds** -- fused
  :class:`~repro.vmpi.ops.Exchange` ops are buffered per
  ``(comm, tag, round)`` and, once every member has posted, the whole
  round's clock advance is computed with closed-form alpha-beta algebra
  over NumPy arrays (one ``max``/``where`` sweep over all edges) rather
  than per-edge request machinery.  The engine reuses a plan (edge
  arrays, transfer times, payload routes) for rounds of the same
  *shape* -- every member's :attr:`~repro.vmpi.ops.Exchange.shape`:
  receives, label and per-send ``(dest, nbytes)`` -- so a halo loop
  that builds a fresh op every step pairs its edges once per run.

Heap invariants (the discrete-event contract):

1. every heap entry is an unblocked rank keyed by the virtual time at
   which it became runnable; a rank is in the heap at most once;
2. entries pop in nondecreasing ``(time, seq)`` order, ``seq`` being
   the monotone insertion counter, so equal-time wakes resume in the
   deterministic order they were caused;
3. state mutation (matching, clock algebra, payload movement) happens
   eagerly at post/match time -- the heap only orders *resumption*, so
   every float the run produces is independent of host scheduling and
   byte-identical to the step core's.

Exchange rounds that can never fill (only a subset of the communicator
exchanges) are drained by the quiescence hook: when the heap runs dry,
pending rounds are decomposed through the generic per-edge machinery,
which completes every matched transfer before deadlock is declared --
so partial participation behaves exactly as in the step core.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop

import numpy as np

from .engine import VmpiEngine
from .collectives import VmpiError, collective_arg_bytes, collective_cost
from .heap import EventHeap
from .machine import Machine
from .ops import Collective, Compute, Exchange

__all__ = ["EventEngine", "EventHeap"]

@dataclass
class _XchgPlan:
    """Precomputed completion algebra of one exchange round.

    Valid for every round whose ``shape`` -- the members'
    :attr:`Exchange.shape <repro.vmpi.ops.Exchange.shape>`, ``(recvs,
    label, ((dest, nbytes), ...))`` each -- equals the one it was built
    from: the shape fixes the pairing, transfer times, eager bits and
    labels.  Payloads are not part of it; ``routes`` says where each
    received payload comes from, so results are filled from the ops
    actually posted.  Edge arrays are indexed by position in the
    communicator's member tuple.
    """

    shape: tuple
    nedges: int
    src_idx: np.ndarray     # member index of each edge's sender
    dst_idx: np.ndarray     # member index of each edge's receiver
    t: np.ndarray           # per-edge transfer seconds (alpha + n/beta)
    eager: np.ndarray       # per-edge bool: send completes locally
    labels: tuple[str, ...]  # per-member comm-trace label
    #: (sender member, send index) of every received payload, member by
    #: member in recvs order; member i owns routes[offsets[i]:offsets[i+1]]
    routes: list[tuple[int, int]]
    offsets: list[int]
    contig: bool            # members are exactly ranks 0..n-1


class EventEngine(VmpiEngine):
    """Discrete-event core (``mode="event"``); see the module docstring."""

    mode = "event"

    def __init__(self, machine: Machine, mode: str | None = None,
                 eager_limit: int | None = None):
        super().__init__(machine, mode=mode, eager_limit=eager_limit)
        self._heap = EventHeap()
        self._node = machine.nodes_of_rank
        self._devkey = [id(d) for d in machine.devices]
        self._p2p_cache: dict[tuple[int, int], tuple[float, float]] = {}
        self._compute_cache: dict[tuple, float] = {}
        self._cost_cache: dict[tuple, float] = {}
        self._locals: dict[int, dict[int, int]] = {
            0: {g: g for g in self._comms[0]}}
        self._node_sets: dict[int, tuple[int, ...]] = {}
        #: (comm, tag) -> [next round per rank, {round: {rank: op}},
        #: members] -- the buffered-round state of the vectorized path
        self._xst: dict[tuple[int, int], list] = {}
        #: (comm, tag) -> plan of the last round, reused while the shape
        #: repeats
        self._xplans: dict[tuple[int, int], _XchgPlan] = {}

    # -- scheduling -----------------------------------------------------------

    def _wake(self, r: int) -> None:
        self._heap.push(self.clocks[r], r)

    def _loop(self) -> None:
        # Pops straight off the EventHeap's underlying list: this loop
        # runs once per rank resumption, so the method hop matters.
        heap = self._heap._heap
        step = self._step_rank
        while heap:
            step(heappop(heap)[2])

    def _quiesce(self) -> bool:
        """Decompose stalled exchange rounds through the generic path.

        Runs when the heap is dry but ranks are unfinished: every
        buffered round -- fillable or not -- is lowered onto per-edge
        FIFO matching, completing whatever has a counterpart.  Progress
        may post fresh exchanges, so the run loop calls this until it
        returns False.
        """
        stalled = []
        for (cid, tag), st in self._xst.items():
            for rnd, pend in st[1].items():
                stalled.append(((cid, tag, rnd), pend))
            st[1] = {}
        if not stalled:
            return False
        stalled.sort(key=lambda e: e[0])
        for key, pend in stalled:
            for r in sorted(pend):
                if self._decompose_exchange(r, pend[r], key):
                    self._wake(r)
        return True

    # -- cached cost queries ---------------------------------------------------

    def _p2p_seconds(self, src: int, dst: int, nbytes: float) -> float:
        nodes = self._node
        key = (nodes[src], nodes[dst])
        params = self._p2p_cache.get(key)
        if params is None:
            params = self.machine.network.p2p_params(
                key[0], key[1], self.machine.job_nodes)
            self._p2p_cache[key] = params
        if key[0] == key[1] and nbytes == 0:
            return 0.0
        return params[0] + nbytes / params[1]

    def _compute_seconds(self, r: int, flops: float, bytes_moved: float,
                         efficiency: float) -> float:
        key = (self._devkey[r], flops, bytes_moved, efficiency)
        dt = self._compute_cache.get(key)
        if dt is None:
            dt = self.machine.compute_seconds(r, flops, bytes_moved,
                                              efficiency)
            self._compute_cache[key] = dt
        return dt

    def _local_of(self, comm_id: int, r: int) -> int:
        lm = self._locals.get(comm_id)
        if lm is None:
            lm = {g: i for i, g in enumerate(self._comms[comm_id])}
            self._locals[comm_id] = lm
        try:
            return lm[r]
        except KeyError:
            raise VmpiError(
                f"rank {r} is not a member of comm {comm_id}") from None

    def _register_comm(self, cid: int, members: tuple[int, ...]) -> None:
        self._locals[cid] = {g: i for i, g in enumerate(members)}

    def _collective_cost(self, members: tuple[int, ...],
                         ops: list[Collective]) -> float:
        first = ops[0]
        arg = collective_arg_bytes(ops)
        key = (first.comm_id, first.kind, arg)
        cost = self._cost_cache.get(key)
        if cost is None:
            node_set = self._node_sets.get(first.comm_id)
            if node_set is None:
                node_set = self.machine.node_set(members)
                self._node_sets[first.comm_id] = node_set
            cost = collective_cost(self.machine.network, node_set,
                                   len(members), first.kind, arg)
            self._cost_cache[key] = cost
        return cost

    # -- hot-path dispatch -----------------------------------------------------
    # These overrides change no semantics: they produce the identical
    # floats through the cost caches (first use goes through the shared
    # machinery, later uses replay the stored value bit for bit).

    def _compute_inline(self, r: int, op: Compute) -> None:
        """Advance a rank through one Compute."""
        dt = self._compute_seconds(r, op.flops, op.bytes_moved,
                                   op.efficiency)
        trace = self.traces[r]
        trace.ops += 1
        self.clocks[r] += dt
        trace.compute[op.label] += dt

    def _dispatch(self, r: int, op) -> bool:
        kind = type(op)
        if kind is Compute:
            self._compute_inline(r, op)
            return True
        if kind is Exchange:
            self.traces[r].ops += 1
            return self._post_exchange(r, op)
        return super()._dispatch(r, op)

    def _advance_batch(self, r: int, batch: list) -> bool:
        ops, results = batch[0], batch[2]
        resume = self._resume
        if batch[3]:  # a blocked element just resumed
            results[batch[1] - 1] = resume[r]
            resume[r] = None
            batch[3] = False
        n = len(ops)
        i = batch[1]
        clocks = self.clocks
        trace = self.traces[r]
        compute = trace.compute
        cached = self._compute_cache.get
        dev = self._devkey[r]
        while i < n:
            op = ops[i]
            i += 1
            kind = type(op)
            if kind is Compute:
                # Inlined _compute_inline: completed Computes leave no
                # resume value, so the pre-filled None already stands.
                dt = cached((dev, op.flops, op.bytes_moved, op.efficiency))
                if dt is None:
                    dt = self._compute_seconds(r, op.flops, op.bytes_moved,
                                               op.efficiency)
                trace.ops += 1
                clocks[r] += dt
                compute[op.label] += dt
                continue
            batch[1] = i
            if kind is Exchange:
                trace.ops += 1
                if self._post_exchange(r, op):
                    results[i - 1] = resume[r]
                    resume[r] = None
                    continue
                batch[3] = True
                return False
            if kind is tuple:
                raise VmpiError(f"rank {r} yielded a nested op batch")
            if self._dispatch(r, op):
                results[i - 1] = resume[r]
                resume[r] = None
                continue
            batch[3] = True
            return False
        del self._batch[r]
        resume[r] = results
        return True

    # -- vectorized exchange rounds --------------------------------------------

    def _post_exchange(self, r: int, op: Exchange) -> bool:
        sk = (op.comm_id, op.tag)
        st = self._xst.get(sk)
        if st is None:
            members = self._comms.get(op.comm_id)
            if members is None:
                raise VmpiError(f"unknown communicator id {op.comm_id}")
            st = self._xst[sk] = [defaultdict(int), {}, members, len(members)]
        seq, rounds, members, nmem = st
        rnd = seq[r]
        seq[r] = rnd + 1
        self.traces[r].bytes_sent += op.nbytes
        try:
            pend = rounds[rnd]
        except KeyError:
            pend = rounds[rnd] = {}
        pend[r] = op
        if len(pend) == nmem:
            del rounds[rnd]
            return self._finish_round(members, sk + (rnd,), pend, caller=r)
        # No per-rank blocked marker: buffered ranks are found through
        # ``_xst`` (and drained by ``_quiesce`` before any deadlock).
        return False

    def _finish_round(self, members: tuple[int, ...],
                      key: tuple[int, int, int],
                      pend: dict[int, Exchange], caller: int) -> bool:
        """Complete a fully-posted round; True if the caller finished."""
        plan = self._round_plan(key, members, pend)
        if plan is None:
            # Structurally inconsistent round (unpaired edges): lower it
            # onto the generic machinery, which completes what matches.
            caller_done = False
            for r in sorted(pend):
                if self._decompose_exchange(r, pend[r], key):
                    if r == caller:
                        caller_done = True
                    else:
                        self._wake(r)
            return caller_done
        clocks = self.clocks
        nmem = len(members)
        if plan.contig:
            posts = np.array(clocks[:nmem], dtype=np.float64)
        else:
            posts = np.fromiter((clocks[g] for g in members),
                                dtype=np.float64, count=nmem)
        if plan.nedges:
            sposts = posts[plan.src_idx]
            recv_done = np.maximum(sposts, posts[plan.dst_idx]) + plan.t
            send_done = np.where(plan.eager, sposts + plan.t, recv_done)
            done = posts.copy()
            np.maximum.at(done, plan.src_idx, send_done)
            np.maximum.at(done, plan.dst_idx, recv_done)
            done_list = done.tolist()
            waited_list = np.maximum(done - posts, 0.0).tolist()
        else:
            done_list = posts.tolist()
            waited_list = [0.0] * nmem
        traces = self.traces
        resume = self._resume
        batches = self._batch
        offsets = plan.offsets
        sends = [pend[g].sends for g in members]
        got = [sends[s][k][1] for s, k in plan.routes]
        push = self._heap.push
        for g, d, waited, label, lo, hi in zip(
                members, done_list, waited_list, plan.labels, offsets,
                offsets[1:]):
            res = got[lo:hi]
            clocks[g] = d
            traces[g].comm[label] += waited
            if g != caller:
                # If the member blocked on this exchange as the last op
                # of a batch, complete the batch here: on wake the rank
                # resumes straight into its generator.
                b = batches.get(g)
                if b is not None and b[3] and b[1] == len(b[0]):
                    b[2][b[1] - 1] = res
                    del batches[g]
                    resume[g] = b[2]
                else:
                    resume[g] = res
                push(d, g)
            else:
                resume[g] = res
        return True

    def _round_plan(self, key: tuple[int, int, int],
                    members: tuple[int, ...],
                    pend: dict[int, Exchange]) -> _XchgPlan | None:
        pkey = key[:2]
        shape = tuple([pend[g].shape for g in members])
        cached = self._xplans.get(pkey)
        if cached is not None and cached.shape == shape:
            return cached
        plan = self._build_plan(members, shape)
        if plan is not None:
            self._xplans[pkey] = plan
        else:
            self._xplans.pop(pkey, None)
        return plan

    def _build_plan(self, members: tuple[int, ...],
                    shape: tuple) -> _XchgPlan | None:
        """Pair every edge of a round; None if the structure is unpaired.

        Pairing replicates per-edge FIFO order: the k-th send of a round
        on a directed pair matches the k-th receive, both in op order.
        """
        sends_at: dict[tuple[int, int], list] = defaultdict(list)
        recv_slots: dict[tuple[int, int], list] = defaultdict(list)
        offsets = [0]
        for recvs, _, _ in shape:
            offsets.append(offsets[-1] + len(recvs))
        routes = [None] * offsets[-1]
        for i, g in enumerate(members):
            recvs, _label, sizes = shape[i]
            for k, (dest_local, n) in enumerate(sizes):
                sends_at[(g, members[dest_local])].append((i, k, n))
            for slot, src_local in enumerate(recvs):
                recv_slots[(members[src_local], g)].append((i, slot))
        if len(sends_at) != len(recv_slots):
            return None
        src_idx: list[int] = []
        dst_idx: list[int] = []
        times: list[float] = []
        eager: list[bool] = []
        for edge, sends in sends_at.items():
            recvs = recv_slots.get(edge)
            if recvs is None or len(recvs) != len(sends):
                return None
            s_g, d_g = edge
            for (si, k, n), (ri, slot) in zip(sends, recvs):
                src_idx.append(si)
                dst_idx.append(ri)
                times.append(self._p2p_seconds(s_g, d_g, n))
                eager.append(n <= self.eager_limit)
                routes[offsets[ri] + slot] = (si, k)
        return _XchgPlan(
            shape=shape,
            nedges=len(times),
            src_idx=np.array(src_idx, dtype=np.intp),
            dst_idx=np.array(dst_idx, dtype=np.intp),
            t=np.array(times, dtype=np.float64),
            eager=np.array(eager, dtype=bool),
            labels=tuple(label for _, label, _ in shape),
            routes=routes,
            offsets=offsets,
            contig=members[0] == 0 and members[-1] == len(members) - 1,
        )

    # -- failure reporting -----------------------------------------------------

    def _blocked_detail(self, r: int) -> str:
        if self._blocked.get(r) is None:
            # Buffered exchange rounds carry no per-rank marker; find
            # the rank in the round state instead.
            for (cid, _tag), st in sorted(self._xst.items()):
                for _rnd, pend in sorted(st[1].items()):
                    if r in pend:
                        return (f"exchange on comm {cid} "
                                f"({len(pend)}/{len(st[2])} ranks arrived)")
        return super()._blocked_detail(r)
