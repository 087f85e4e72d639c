"""The list scheduler's loop reference: the dependency DAG builder, the
resource model and the greedy list scheduler as first written, kept as
plain loops so tests can require the optimized ones in
:mod:`repro.pim.schedule` to return identical predecessor lists and an
identical permutation.

The resource items come from :func:`repro.pim.schedule.sim_items`, the
shared cost vocabulary; everything that turns them into an order is here.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.pim.isa import Instruction, Opcode
from repro.pim.schedule import _item_durations, sim_items

if TYPE_CHECKING:
    from repro.pim.executor import ChipExecutor
    from repro.pim.plan import ExecutionPlan

_INF = float("inf")

Item = Tuple[Any, ...]


def _row_bounds(rows: Any) -> Tuple[float, float]:
    """Conservative ``[lo, hi)`` row-interval of a selector (None = whole block)."""
    if rows is None:
        return (0.0, _INF)
    if isinstance(rows, tuple):
        return (float(rows[0]), float(rows[1]))
    arr = np.asarray(rows)
    if arr.size == 0:
        return (0.0, 0.0)
    return (float(arr.min()), float(arr.max()) + 1.0)


def dependency_edges(instructions: Sequence[Instruction]) -> List[List[int]]:
    """Predecessor lists of the inter-instruction dependency DAG.

    ``preds[j]`` holds every ``i < j`` that must execute before ``j``:

    * RAW/WAW/WAR over the word regions of :func:`~repro.analysis.checker.
      accesses`, tracked per ``(block, column)`` with row-interval overlap
      (index-array selectors widen to their ``[min, max]`` hull — a
      conservative over-approximation that can only add edges);
    * serial chains on the host channel (HOSTOP order) and the DRAM
      channel (DRAM_LOAD/STORE order) — DRAM staging additionally pins the
      whole target block, mirroring the executor's clock coupling;
    * BARRIER as a full fence: it follows everything since the previous
      fence and precedes everything after it.

    A write that fully covers an earlier access prunes it from the
    history (its ordering survives transitively through the covering
    write), which keeps histories short on kernel streams that overwrite
    the same working columns every stage.
    """
    # imported lazily: repro.analysis imports the executor package.
    from repro.analysis.checker import accesses

    n = len(instructions)
    preds: List[List[int]] = [[] for _ in range(n)]
    writers: Dict[Hashable, List[Tuple[int, float, float]]] = {}
    readers: Dict[Hashable, List[Tuple[int, float, float]]] = {}
    block_keys: Dict[Any, Set[Hashable]] = {}  # block -> history keys seen
    fence: Optional[int] = None
    region: List[int] = []
    host_chain: Optional[int] = None
    dram_chain: Optional[int] = None

    def keys_for(block: Any, col: Optional[int], words: int) -> List[Hashable]:
        ks: List[Hashable] = [(block, "*")] if col is None else [
            (block, c) for c in range(col, col + words)
        ]
        seen = block_keys.setdefault(block, set())
        for k in ks:
            seen.add(k)
        if col is None:
            # a whole-block access conflicts with every column touched so far
            return sorted(seen, key=str)
        if (block, "*") in seen:
            ks.append((block, "*"))
        return ks

    for j, inst in enumerate(instructions):
        op = inst.op
        dep: Set[int] = set()
        if fence is not None:
            dep.add(fence)
        if op is Opcode.BARRIER:
            dep.update(region)
            preds[j] = sorted(dep)
            fence = j
            region = []
            writers.clear()
            readers.clear()
            block_keys.clear()
            host_chain = None
            dram_chain = None
            continue
        region.append(j)
        if op is Opcode.HOSTOP:
            if host_chain is not None:
                dep.add(host_chain)
            host_chain = j
            preds[j] = sorted(dep)
            continue
        reads, writes = accesses(inst)
        if op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
            if dram_chain is not None:
                dep.add(dram_chain)
            dram_chain = j
            if inst.block is not None:
                # DRAM staging couples the whole block clock in the
                # executor: model it as a whole-block read+write.
                from repro.analysis.checker import Access

                whole = Access(inst.block, None, 1, None)
                reads = list(reads) + [whole]
                writes = list(writes) + [whole]
        for acc in reads:
            if acc.block is None:
                continue
            lo, hi = _row_bounds(acc.rows)
            for k in keys_for(acc.block, acc.col, acc.words):
                for i, wlo, whi in writers.get(k, ()):
                    if wlo < hi and lo < whi:
                        dep.add(i)
                readers.setdefault(k, []).append((j, lo, hi))
        for acc in writes:
            if acc.block is None:
                continue
            lo, hi = _row_bounds(acc.rows)
            for k in keys_for(acc.block, acc.col, acc.words):
                wh = writers.setdefault(k, [])
                rh = readers.setdefault(k, [])
                for i, wlo, whi in wh:
                    if wlo < hi and lo < whi:
                        dep.add(i)
                for i, rlo, rhi in rh:
                    if i != j and rlo < hi and lo < rhi:
                        dep.add(i)
                # covered-pruning: this write now transitively orders
                # everything it spans.
                wh[:] = [e for e in wh if not (lo <= e[1] and e[2] <= hi)]
                rh[:] = [e for e in rh if e[0] == j or not (lo <= e[1] and e[2] <= hi)]
                wh.append((j, lo, hi))
        preds[j] = sorted(dep)
    return preds


class _Sim:
    """Executor-faithful clock model used to guide the greedy choice.

    Mirrors ``ChipExecutor``'s per-block clocks, transfer ports, switch
    occupancy and host/DRAM channels (including BARRIER *not* resetting
    switch load).  Only guides the scheduler — final makespans come from
    real replay in :func:`schedule_plan`.
    """

    def __init__(self) -> None:
        self.block: Dict[Any, float] = {}
        self.sw: Dict[Hashable, float] = {}
        self.port: Dict[Tuple[str, Any], float] = {}
        self.host = 0.0
        self.dram = 0.0
        self.barrier = 0.0

    def _g(self, d: Dict[Any, float], k: Any) -> float:
        return d.get(k, 0.0)

    def now(self) -> float:
        vals = list(self.block.values()) + list(self.port.values())
        vals += [self.host, self.dram]
        return max(vals) if vals else 0.0

    def compute_start(self, b: Any) -> float:
        return max(
            self._g(self.block, b),
            self._g(self.port, ("r", b)),
            self._g(self.port, ("w", b)),
            self.barrier,
        )

    def est(self, item: Item) -> float:
        kind = item[0]
        if kind == "c":  # block-local compute
            return self.compute_start(item[1])
        if kind == "t":  # TRANSFER (payload is the plan's _TransferStep)
            t = item[1]
            ready = max(
                self._g(self.port, ("r", t.src)),
                self._g(self.port, ("w", t.dst)),
                self._g(self.block, t.src),
                self._g(self.block, t.dst),
                self.barrier,
            )
            for k in t.keys:
                ready = max(ready, self._g(self.sw, k))
            return ready
        if kind == "l":  # LUT micro-sequence
            _, _dur, req, lut, keys = item
            ready = max(self.compute_start(req), self.compute_start(lut))
            for k in keys:
                ready = max(ready, self._g(self.sw, k))
            return ready
        if kind == "h":
            return max(self.host, self.barrier)
        if kind == "d":
            start = max(self.dram, self.barrier)
            if item[2] is not None:
                start = max(start, self._g(self.block, item[2]))
            return start
        return self.now()  # barrier

    def commit(self, item: Item) -> None:
        kind = item[0]
        if kind == "c":
            _, b, dur = item
            self.block[b] = self.compute_start(b) + dur
        elif kind == "t":
            t = item[1]
            ready = self.est(item)
            finish = ready + t.dur
            if t.exclusive:
                held = ready + t.read_t + t.wire
                for k in t.keys:
                    self.sw[k] = held
            else:
                for k in t.keys:
                    self.sw[k] = self._g(self.sw, k) + t.flit_train
            self.port[("r", t.src)] = ready + t.read_t + t.flit_train
            self.port[("w", t.dst)] = finish
        elif kind == "l":
            _, dur, req, lut, keys = item
            finish = self.est(item) + dur
            self.port[("w", req)] = finish
            self.port[("r", lut)] = finish
            for k in keys:
                self.sw[k] = finish
        elif kind == "h":
            self.host = max(self.host, self.barrier) + item[1]
        elif kind == "d":
            _, dur, b = item
            finish = self.est(item) + dur
            self.dram = finish
            if b is not None:
                self.block[b] = finish
        else:  # barrier
            now = self.now()
            for b in self.block:
                self.block[b] = now
            for k2 in self.port:
                self.port[k2] = now
            self.host = now
            self.dram = now
            self.barrier = now


def schedule_order(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
) -> List[int]:
    """Greedy list-scheduled instruction order (indices into the stream).

    Ready instructions compete on ``(modeled earliest start, critical-path
    length, emission index)`` — earliest start first, longer critical path
    breaks ties, emission index keeps it deterministic.  The heap uses
    lazy deletion: a popped candidate whose start estimate went stale
    (resources moved since it was pushed) is re-pushed with the fresh
    estimate instead of being committed.
    """
    insts = plan.instructions
    n = len(insts)
    if preds is None:
        preds = dependency_edges(insts)
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for j, ps in enumerate(preds):
        indeg[j] = len(ps)
        for i in ps:
            succs[i].append(j)

    items = sim_items(ex, plan)
    # critical-path length: edges always point forward in emission order,
    # so a reverse index walk is a reverse topological order.
    dur_of = _item_durations(items)
    cp = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = max((cp[j] for j in succs[i]), default=0.0)
        cp[i] = dur_of[i] + tail

    sim = _Sim()
    order: List[int] = []
    heap: List[Tuple[float, float, int]] = []
    for j in range(n):
        if indeg[j] == 0:
            heapq.heappush(heap, (sim.est(items[j]), -cp[j], j))
    while heap:
        est0, negcp, j = heapq.heappop(heap)
        est = sim.est(items[j])
        if est > est0 and heap and heap[0][0] < est:
            heapq.heappush(heap, (est, negcp, j))
            continue
        sim.commit(items[j])
        order.append(j)
        for s in succs[j]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (sim.est(items[s]), -cp[s], s))
    if len(order) != n:  # pragma: no cover - DAG is forward-only by construction
        raise RuntimeError("scheduler deadlock: dependency graph has a cycle")
    return order
