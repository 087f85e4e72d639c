"""Multi-chip sharding with pipelined halo exchange.

The paper folds large meshes onto one chip by batching Morton chunks
through DRAM (Fig. 7) and pipelines fetch/pre-process/compute inside a
chip (Figs. 10/13).  This layer goes one step further, in the MASIM
direction of cross-array scheduling: the HexMesh is partitioned across N
simulated chips (contiguous Morton chunks, so shard boundaries are
compact element boxes), each shard lowers its own per-phase
:class:`~repro.pim.plan.ExecutionPlan`, and an inter-chip link model with
its own latency/bandwidth/energy prices the halo traffic.

Execution is phase-parallel per RK stage with a *pipelined* halo
exchange:

``volume(k+1)`` of every shard — which touches no neighbor data — runs
while the stage-``k`` face exchange is still in flight on the links; the
exchange only gates ``flux(k+1)`` (via :meth:`ChipExecutor.sync_at`).
Makespan is therefore computed from each shard's own persistent clocks
plus link occupancy, and the compute/exchange overlap is *measured* from
per-shard :class:`~repro.obs.counters.HardwareCounters` intervals
intersected with the link busy windows, not asserted from the schedule.

Correctness rests on a dataflow property of the kernel family: the flux
emitters fetch only the neighbor's *variable* columns, and variable
columns are written only by ``load_state`` and each stage's integration.
Exchanging the ghost elements' node rows right after integration therefore
reproduces single-chip semantics bit-for-bit — verified by the PL005
halo-coverage audit (:mod:`repro.analysis.halo`) plus the N-shard ==
1-shard digest sweep in the tests.

The same partition, audit and per-shard plans also run the paper's
single-chip batching: :func:`single_chip_batched_makespan` replays the
shards as batches that take turns on one chip, swapping state and halos
through DRAM, so N shards on N chips and N batches on one chip are one
code path.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.mapper import ShardMapper, morton_order
from repro.dg.mesh import HexMesh
from repro.dg.timestepping import LSRK45
from repro.obs import get_logger
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor, TimingReport
from repro.pim.isa import Opcode, barrier, dram_swap
from repro.pim.params import ChipConfig

__all__ = [
    "InterChipLink",
    "Sharding",
    "Shard",
    "ShardedResult",
    "ShardedExecutor",
    "partition_mesh",
    "shards_needed",
]

log = get_logger("pim.multichip")


@dataclass(frozen=True)
class InterChipLink:
    """One directed chip-to-chip link (SerDes-style point-to-point).

    Defaults model a conservative off-package interconnect: ~250 ns
    end-to-end latency, 32 GB/s per direction, ~60 pJ/byte — an order of
    magnitude slower and costlier than the on-chip H-tree, which is what
    makes overlapping the exchange worth engineering for.
    """

    latency_s: float = 250e-9
    bandwidth_bps: float = 32e9
    energy_j_per_byte: float = 60e-12

    def transfer_time_s(self, n_bytes: int) -> float:
        return self.latency_s + n_bytes / self.bandwidth_bps

    def transfer_energy_j(self, n_bytes: int) -> float:
        return n_bytes * self.energy_j_per_byte


@dataclass(frozen=True)
class Sharding:
    """A face-adjacency-aware partition of the mesh across N chips.

    ``exchanges`` maps each directed shard pair ``(src, dst)`` to the
    element ids ``dst`` needs from ``src`` — ``dst``'s halo restricted to
    ``src``'s owned set.  The PL005 audit checks these sets cover every
    cross-shard face exactly once.
    """

    n_shards: int
    owned: Tuple[np.ndarray, ...]
    halo: Tuple[np.ndarray, ...]
    #: element id -> owning shard.
    owner: np.ndarray
    exchanges: Dict[Tuple[int, int], np.ndarray]


def partition_mesh(mesh: HexMesh, n_shards: int) -> Sharding:
    """Cut the mesh into ``n_shards`` contiguous Morton chunks + halos."""
    parts = mesh.partition_elements(n_shards, order=morton_order(mesh.m))
    owner = np.empty(mesh.n_elements, dtype=np.int64)
    for s, p in enumerate(parts):
        owner[p] = s
    halos: List[np.ndarray] = []
    exchanges: Dict[Tuple[int, int], np.ndarray] = {}
    for s, p in enumerate(parts):
        h = mesh.halo_of(p)
        halos.append(h)
        for src in np.unique(owner[h]):
            exchanges[(int(src), s)] = h[owner[h] == src]
    return Sharding(
        n_shards=n_shards,
        owned=tuple(parts),
        halo=tuple(halos),
        owner=owner,
        exchanges=exchanges,
    )


def shards_needed(mesh: HexMesh, chip: ChipConfig,
                  blocks_per_element: int = 1,
                  max_shards: int = 4096) -> Optional[int]:
    """Smallest power-of-two shard count whose shards all fit ``chip``.

    Pure partition arithmetic (owned + halo block groups vs chip blocks),
    no mappers or chips constructed — usable at r=6 scale (262k elements)
    where a single-chip :class:`~repro.core.mapper.ElementMapper` raises.
    Returns ``None`` when even ``max_shards`` shards do not fit.
    """
    g = int(blocks_per_element)
    n = 1
    while n <= max_shards:
        if n > mesh.n_elements:
            return None
        sharding = partition_mesh(mesh, n)
        worst = max(
            (len(o) + len(h)) * g
            for o, h in zip(sharding.owned, sharding.halo)
        )
        if worst <= chip.n_blocks:
            return n
        n *= 2
    return None


def single_chip_batched_makespan(
    mesh: HexMesh,
    chip_config: ChipConfig,
    kernel_factory: Callable[[Any], Any],
    blocks_per_element: int = 1,
    dt: float = 1e-4,
    n_steps: int = 1,
) -> Tuple[float, int]:
    """Modeled makespan of the mesh run in batches that take turns on one chip.

    Paper §6.1 batching, as sharding in time: ``shards_needed`` sets the
    batch count, :class:`ShardedExecutor` partitions the mesh, audits the
    halos (PL005) and lowers each batch's plans, and every RK stage
    replays the batches one after another on one chip clock.  A batch
    swaps in its owned variables, its owned RK register and its halo
    variables, runs volume, flux and integration over its owned elements
    — so every face is computed, the cross-batch ones against the swapped-in
    halo — and swaps its owned variables and RK register out.  Flux reads
    only the neighbours' variable columns, so the halo needs no RK
    register.  The swaps are DRAM transactions priced by the chip's HBM
    model; a single batch keeps its state resident and swaps nothing.
    Analytic only: a batch's data path is exactly a shard's, which the
    N-shard digest sweep pins.  Returns ``(makespan_s, n_batches)``.
    """
    g = int(blocks_per_element)
    n_batches = shards_needed(mesh, chip_config, g)
    if n_batches is None:
        raise ValueError(
            f"chip {chip_config.name} cannot hold even one batch of the "
            f"{mesh.n_elements}-element mesh with its halo "
            f"(g={g}, {chip_config.n_blocks} blocks)")
    sx = ShardedExecutor(mesh, chip_config, kernel_factory,
                         n_shards=n_batches, blocks_per_element=g)
    sx.lower_step(dt)
    per_element = sx.halo_bytes_per_element
    stage_plans = []
    for sh in sx.shards:
        ex = sh.executor
        swap_in: Tuple[Any, ...] = ()
        swap_out: Tuple[Any, ...] = ()
        if n_batches > 1:
            # owned variables + owned RK register move both ways, the halo
            # variables only in.
            owned_bytes = 2 * sh.mapper.n_owned * per_element
            swap_in = (ex.lower([
                dram_swap(Opcode.DRAM_LOAD,
                          owned_bytes + sh.mapper.n_halo * per_element),
                barrier(),
            ]),)
            swap_out = (ex.lower([dram_swap(Opcode.DRAM_STORE, owned_bytes)]),)
        stage_plans.append([swap_in + (sh.vol_plan, sh.flux_plan, int_plan)
                            + swap_out for int_plan in sh.int_plans])
    t = 0.0
    for _ in range(n_steps):
        for stage in range(LSRK45.n_stages):
            for sh, plans in zip(sx.shards, stage_plans):
                sh.executor.sync_at(t)
                for plan in plans[stage]:
                    sh.executor.run(plan, functional=False)
                t = sh.executor.now()
    return t, n_batches


@dataclass
class Shard:
    """One simulated chip of the sharded run."""

    shard_id: int
    mapper: ShardMapper
    chip: PimChip
    executor: ChipExecutor
    kernels: Any
    #: lowered per-phase plans, reused across stages and steps.
    vol_plan: Any = None
    flux_plan: Any = None
    int_plans: Tuple[Any, ...] = ()


@dataclass
class ShardedResult:
    """Outcome of :meth:`ShardedExecutor.run_steps`."""

    report: TimingReport
    #: modeled wall time of the whole sharded run (max over shard clocks;
    #: every scheduled exchange is consumed, so arrivals are covered).
    makespan_s: float
    shard_makespans: List[float]
    n_exchanges: int
    exchange_bytes: int
    #: total link busy time across all directed links.
    exchange_busy_s: float
    #: link busy time overlapped with destination-shard compute, measured
    #: from HardwareCounters intervals (None without counters).
    exchange_overlap_s: Optional[float]
    overlap_fraction: Optional[float]
    #: time shards spent stalled waiting on halo arrivals (the pipeline's
    #: exposed, non-overlapped exchange cost).
    halo_wait_s: float
    #: per-exchange schedule: (src, dst, start_s, end_s, n_bytes).
    link_events: List[Tuple[int, int, float, float, int]]


class ShardedExecutor:
    """Replays one shard-plan set per chip, pipelining the halo exchange.

    ``kernel_factory(mapper)`` builds the kernel generator for one shard
    (any of the OneBlock kernel families); ``jobs`` > 1 replays the
    shards of each phase on a thread pool — safe because each shard owns
    its chip/executor, and deterministic because link scheduling happens
    on the main thread between phases in sorted ``(src, dst)`` order.

    With ``n_shards == 1`` the phase loop degenerates to the exact
    single-chip substream sequence of ``time_step`` (no halo, no links),
    so results are bit-identical to plain plan replay — the anchor the
    N-shard digest sweep is chained to.
    """

    def __init__(
        self,
        mesh: HexMesh,
        chip_config: ChipConfig,
        kernel_factory: Callable[[ShardMapper], Any],
        n_shards: int = 1,
        blocks_per_element: int = 1,
        link: Optional[InterChipLink] = None,
        counters: bool = False,
        jobs: Optional[int] = None,
        sharding: Optional[Sharding] = None,
        verify_halo: bool = True,
    ) -> None:
        self.mesh = mesh
        self.config = chip_config
        self.link = link if link is not None else InterChipLink()
        self.jobs = jobs
        self.g = int(blocks_per_element)
        self.sharding = (sharding if sharding is not None
                         else partition_mesh(mesh, n_shards))
        if verify_halo:
            # lazy import keeps the analysis -> pim edge acyclic (RL003).
            from repro.analysis.halo import audit_sharding

            errors = [f for f in audit_sharding(mesh, self.sharding)
                      if f.is_error]
            if errors:
                raise ValueError(
                    "halo coverage audit failed (PL005): "
                    + "; ".join(f.format() for f in errors[:3]))
        self.shards: List[Shard] = []
        for s in range(self.sharding.n_shards):
            mapper = ShardMapper(
                mesh.m, chip_config, self.g,
                owned=self.sharding.owned[s],
                halo=self.sharding.halo[s],
                shard_id=s,
            )
            chip = PimChip(chip_config)
            self.shards.append(Shard(
                shard_id=s,
                mapper=mapper,
                chip=chip,
                executor=ChipExecutor(chip, counters=counters),
                kernels=kernel_factory(mapper),
            ))
        #: directed (src, dst) -> time the link frees up.
        self._link_free: Dict[Tuple[int, int], float] = defaultdict(float)
        self._lowered_dt: Optional[float] = None
        #: the halo exchange after the last stage of a ``run_steps`` call,
        #: carried into the next call (see :meth:`run_steps`).
        self._exchange_pending = False
        k0 = self.shards[0].kernels
        #: exchanged payload per ghost element: its full state block rows.
        self.halo_bytes_per_element = (
            int(k0.n_vars) * int(k0.element.n_nodes) * 4)

    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return self.sharding.n_shards

    def _each(self, fn: Callable[[int], Any]) -> List[Any]:
        """Run ``fn(shard_index)`` for every shard, threaded when asked."""
        idx = range(self.n_shards)
        if self.jobs and self.jobs > 1 and self.n_shards > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                return list(pool.map(fn, idx))
        return [fn(s) for s in idx]

    def setup(self, state: np.ndarray) -> None:
        """Run every shard's setup + state load (owned *and* halo blocks).

        Loading writes the halo blocks too, so any exchange still carried
        from an earlier :meth:`run_steps` call is dropped.
        """
        def one(s: int) -> None:
            sh = self.shards[s]
            sh.executor.run(
                sh.kernels.setup() + sh.kernels.load_state(state),
                functional=True,
            )
        self._each(one)
        self._exchange_pending = False

    def lower_step(self, dt: float) -> None:
        """Lower each shard's per-phase plans once (reused every stage)."""
        def one(s: int) -> None:
            sh = self.shards[s]
            kern, ex = sh.kernels, sh.executor
            owned = sh.mapper.owned
            sh.vol_plan = ex.lower(kern.volume(elements=owned) + [barrier()])
            sh.flux_plan = ex.lower(kern.flux(elements=owned) + [barrier()])
            sh.int_plans = tuple(
                ex.lower(kern.integration(stage, dt, elements=owned)
                         + [barrier()])
                for stage in range(LSRK45.n_stages)
            )
        self._each(one)
        self._lowered_dt = dt
        log.debug("lowered %d shard plan sets (dt=%g)", self.n_shards, dt)

    # ------------------------------------------------------------------ #

    def _exchange(self, functional: bool,
                  events: List[Tuple[int, int, float, float, int]]) -> List[float]:
        """Schedule one round of halo exchange; returns per-shard arrivals.

        Deterministic: directed pairs go in sorted order, each link keeps
        its own occupancy, and an exchange departs no earlier than the
        source shard's post-integration clock.  The functional copy moves
        the element rows of every ghost block (:attr:`_ghost_rows`), which
        leaves each ghost block equal to its owner's, bit for bit.
        """
        arrivals = [0.0] * self.n_shards
        for (src, dst) in sorted(self.sharding.exchanges):
            elems = self.sharding.exchanges[(src, dst)]
            n_bytes = len(elems) * self.halo_bytes_per_element
            ready = self.shards[src].executor.now()
            t0 = max(ready, self._link_free[(src, dst)])
            t1 = t0 + self.link.transfer_time_s(n_bytes)
            self._link_free[(src, dst)] = t1
            events.append((src, dst, t0, t1, n_bytes))
            arrivals[dst] = max(arrivals[dst], t1)
            if functional:
                for ghost, owner in self._ghost_rows[(src, dst)]:
                    ghost[...] = owner
        return arrivals

    @cached_property
    def _ghost_rows(self) -> Dict[Tuple[int, int], List[Tuple[np.ndarray, np.ndarray]]]:
        """``(src, dst)`` -> ``(ghost, owner)`` views of rows
        ``[0, n_nodes)`` of every block the pair's exchange copies.

        A step writes only an element's node rows; its storage rows are
        written by ``setup`` alone, with the same values on every shard
        that hosts the element.  So copying the node rows keeps a ghost
        block equal to its owner's on all rows.  Resolved on the first
        functional exchange (block storage never moves).
        """
        n = int(self.shards[0].kernels.element.n_nodes)
        views: Dict[Tuple[int, int], List[Tuple[np.ndarray, np.ndarray]]] = {}
        for (src, dst), elems in self.sharding.exchanges.items():
            src_sh, dst_sh = self.shards[src], self.shards[dst]
            views[(src, dst)] = [
                (dst_sh.chip.block(dst_sh.mapper.block_of(e, part)).data[:n],
                 src_sh.chip.block(src_sh.mapper.block_of(e, part)).data[:n])
                for e in elems for part in range(self.g)
            ]
        return views

    def run_steps(self, dt: float, n_steps: int = 1,
                  functional: bool = True) -> ShardedResult:
        """Advance ``n_steps`` RK steps across all shards.

        Per stage: parallel volume replay (overlaps the previous stage's
        in-flight exchange), halo-arrival sync, parallel flux +
        integration replay, then the next exchange round.  The round after
        a call's last stage has no consumer inside the call, so it is
        carried: the next call posts it first, before its first volume
        replay — the same departure times and ghost data as one call of
        all the steps, and still overlapping that volume.  Stepping in
        several calls is therefore clock- and bit-identical to stepping in
        one; :meth:`setup` drops a carried exchange, since it reloads the
        halos.
        """
        if self._lowered_dt != dt:
            self.lower_step(dt)
        shards = self.shards
        n_stages = LSRK45.n_stages
        reports: List[List[TimingReport]] = [[] for _ in shards]
        link_events: List[Tuple[int, int, float, float, int]] = []
        halo_wait = 0.0
        arrivals = [0.0] * self.n_shards
        if self._exchange_pending and n_steps > 0:
            arrivals = self._exchange(functional, link_events)
            self._exchange_pending = False

        def replay(plan_of: Callable[[Shard], Any]) -> None:
            def one(s: int) -> None:
                reports[s].append(shards[s].executor.run(
                    plan_of(shards[s]), functional=functional))
            self._each(one)

        for step in range(n_steps):
            for stage in range(n_stages):
                replay(lambda sh: sh.vol_plan)
                for s, sh in enumerate(shards):
                    # halo from the previous round must have landed before
                    # this shard's flux fetches ghost columns; volume above
                    # already ran under the in-flight exchange.
                    halo_wait += max(0.0, arrivals[s] - sh.executor.now())
                    sh.executor.sync_at(arrivals[s])
                replay(lambda sh: sh.flux_plan)
                replay(lambda sh, _stage=stage: sh.int_plans[_stage])
                if not self.sharding.exchanges:
                    continue
                if step == n_steps - 1 and stage == n_stages - 1:
                    self._exchange_pending = True
                else:
                    arrivals = self._exchange(functional, link_events)
        return self._finish(reports, link_events, halo_wait)

    # ------------------------------------------------------------------ #

    def _finish(self, reports: List[List[TimingReport]],
                link_events: List[Tuple[int, int, float, float, int]],
                halo_wait: float) -> ShardedResult:
        """Merge per-shard accounting + link occupancy into one report."""
        shard_makespans = [sh.executor.now() for sh in self.shards]
        makespan = max(shard_makespans) if shard_makespans else 0.0

        merged = TimingReport()
        for s, runs in enumerate(reports):
            for r in runs:
                for k, v in r.time_by_tag.items():
                    merged.time_by_tag[k] += v
                for k, v in r.energy_by_tag.items():
                    merged.energy_by_tag[k] += v
                merged.op_counts.update(r.op_counts)
                merged.dynamic_energy_j += r.dynamic_energy_j
                merged.n_instructions += r.n_instructions
                merged.transfers += r.transfers
                merged.hops += r.hops
                merged.flits += r.flits
                merged.bytes_moved += r.bytes_moved
                merged.retries += r.retries
            ex = self.shards[s].executor
            # busy clocks are absolute (persistent per-chip clocks), so the
            # per-shard snapshot overwrites — summing run reports would
            # double count; keys are namespaced by shard.
            for b, t in ex._block_clock.items():
                merged.block_busy_s[(s, int(b))] = t
            merged.host_busy_s += ex._host_clock
            merged.dram_busy_s += ex._dram_clock

        exchange_busy = sum(t1 - t0 for (_, _, t0, t1, _) in link_events)
        exchange_bytes = sum(nb for (*_, nb) in link_events)
        link_energy = self.link.transfer_energy_j(exchange_bytes)
        merged.time_by_tag["halo:exchange"] += exchange_busy
        merged.energy_by_tag["halo:exchange"] += link_energy
        merged.dynamic_energy_j += link_energy
        merged.bytes_moved += exchange_bytes
        merged.transfers += len(link_events)
        merged.total_time_s = makespan
        merged.makespan_cycles = makespan * self.config.clock_hz

        overlap = self._measured_overlap(link_events)
        return ShardedResult(
            report=merged,
            makespan_s=makespan,
            shard_makespans=shard_makespans,
            n_exchanges=len(link_events),
            exchange_bytes=exchange_bytes,
            exchange_busy_s=exchange_busy,
            exchange_overlap_s=overlap,
            overlap_fraction=(overlap / exchange_busy
                              if overlap is not None and exchange_busy > 0.0
                              else None),
            halo_wait_s=halo_wait,
            link_events=link_events,
        )

    def _measured_overlap(
        self, link_events: List[Tuple[int, int, float, float, int]]
    ) -> Optional[float]:
        """Link busy time overlapped with destination-shard compute.

        Intersects every exchange's ``[t0, t1)`` window with the union of
        the destination chip's recorded block-busy intervals — counters
        data, so the pipelining claim is measured from the same evidence
        the Gantt trace renders.  ``None`` when counters are off.
        """
        if not link_events:
            return 0.0
        busy: List[Optional[List[Tuple[float, float]]]] = []
        for sh in self.shards:
            cnt = sh.executor.counters
            if cnt is None:
                return None
            ivs = sorted(
                (start, end) for kind, _key, start, end in cnt.events
                if kind == "block" and end > start
            )
            union: List[Tuple[float, float]] = []
            for start, end in ivs:
                if union and start <= union[-1][1]:
                    union[-1] = (union[-1][0], max(union[-1][1], end))
                else:
                    union.append((start, end))
            busy.append(union)
        total = 0.0
        for (_src, dst, t0, t1, _nb) in link_events:
            for (b0, b1) in busy[dst]:
                lo, hi = max(t0, b0), min(t1, b1)
                if lo < hi:
                    total += hi - lo
                if b0 >= t1:
                    break
        return total

    # ------------------------------------------------------------------ #

    def read_state(self) -> np.ndarray:
        """Assemble the global state from every shard's *owned* elements."""
        k0 = self.shards[0].kernels
        out = np.zeros(
            (int(k0.n_vars), self.mesh.n_elements, int(k0.element.n_nodes)),
            dtype=np.float32,
        )
        for sh in self.shards:
            part = sh.kernels.read_state(sh.chip, elements=sh.mapper.owned)
            out[:, sh.mapper.owned, :] = part[:, sh.mapper.owned, :]
        return out

    def state_digests(self) -> Dict[int, str]:
        """SHA-256 of each element's full block state, from its owner shard.

        Every element is owned by exactly one shard, so this covers the
        whole mesh; comparing against a single-chip run's digests is the
        bit-identity check (scratch columns included — the sharded replay
        must reproduce the entire block image, not just the variables).
        """
        out: Dict[int, str] = {}
        for sh in self.shards:
            for e in sh.mapper.owned:
                h = hashlib.sha256()
                for part in range(self.g):
                    block = sh.chip.block(sh.mapper.block_of(e, part))
                    h.update(block.data.tobytes())
                out[int(e)] = h.hexdigest()
        return out
