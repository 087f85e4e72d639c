"""Static performance analysis (PF*): cost bounds + anti-pattern audit.

The static half of the predict-then-measure loop (DESIGN.md §15).  From an
:class:`~repro.pim.plan.ExecutionPlan` plus the chip/interconnect model —
*without executing anything* — :func:`cost_bounds` computes:

work
    Total modeled duration over every instruction (the serial floor a
    single-resource machine could never beat).
span
    The dependency critical path over the DAG of
    :func:`repro.pim.schedule.dependency_edges`, propagated with the
    *typed* edge latencies of :func:`repro.pim.schedule.earliest_starts`
    (an edge only constrains through the clock entries its source
    publishes and its sink consults), so the bound holds for **any**
    legal instruction order.
resource occupancy
    Per-resource serial-demand lower bounds: each block's compute +
    DRAM-staging seconds, each transfer port's hold time (a source read
    port frees after ``read_t + flit_train``, a destination write port
    holds the full transfer), each switch's per-contribution occupancy
    (capped at the contributor's duration so the bound stays valid even
    though switch clocks are invisible to the executor's ``now()``), and
    the host/DRAM serial channel chains.

``makespan_lower_bound = max(span, per-resource bounds)`` and the argmax
names the **predicted binding resource** — a roofline read directly off
the program.  The scheduler optimality gap is then ``measured makespan /
lower bound``: 1.0 means provably optimal, and a gap beyond tolerance
means the schedule (not the hardware) is leaving time on the table.

Every static number is cross-validated against a measured replay with
:class:`~repro.obs.counters.HardwareCounters` (PF006): the bound must not
exceed the measured makespan, and the predicted occupancy must match the
recorded busy time within a fold-order epsilon — the analyzer and the
hardware model can never silently diverge.

:class:`PerfPass` (pass h, codes PF001–PF006) folds the bounds into the
checker roster alongside four anti-pattern audits: over-fencing BARRIERs
whose removal PL004's dependency machinery proves safe (PF002), transfers
that queue behind unrelated route traffic far longer than they transmit
(PF003), segments whose every write is overwritten before any read
(PF004), and streams whose compute mostly lands in segments too narrow to
amortize dispatch (PF005).  PF006 is the only error — a bound violation
is a broken model, not a slow program; everything else is advisory.

Surfaces: ``repro check`` (the pass runs with the roster), ``repro perf
audit`` (per-benchmark bounds/gap report, ``--strict``/``--json``) and
``repro bench`` (``makespan_lower_bound`` / ``optimality_gap`` /
``predicted_binding_resource`` fields, gap-regression gated in CI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.checker import CheckContext, accesses, row_mask
from repro.analysis.findings import ERROR, WARNING, Finding
from repro.obs.counters import HardwareCounters, default_link_label
from repro.pim.isa import Instruction, Opcode
from repro.pim.plan import ExecutionPlan, STEP_SEGMENT
from repro.pim.schedule import (
    Region,
    _Sim,
    _item_durations,
    access_regions,
    critical_path_span,
    dependency_edges,
    sim_items,
)

if TYPE_CHECKING:
    from repro.pim.executor import ChipExecutor

__all__ = [
    "CostBounds",
    "PerfAudit",
    "PerfOptions",
    "PerfPass",
    "audit_program",
    "cost_bounds",
    "emission_timings",
    "measure_plan",
]


@dataclass(frozen=True)
class PerfOptions:
    """Thresholds of the PF pass family.

    Defaults are tuned so the 12 representative benchmark programs (six
    benchmarks x two interconnects, order 7) run strict-clean with margin
    (``tests/test_perf_analysis.py`` pins that) while hand-built
    anti-pattern programs still trip each finding.
    """

    #: PF001 fires when measured makespan / lower bound exceeds this.
    gap_tolerance: float = 8.0
    #: PF003 fires when a transfer's queueing delay (ready behind its own
    #: ports, blocked on route traffic) exceeds ``queue_factor`` times its
    #: duration *and* the absolute floor.
    queue_factor: float = 16.0
    queue_floor_s: float = 1e-6
    #: PF005: a segment narrower than ``narrow_width`` instructions is
    #: "degenerate"; the finding fires when more than ``narrow_fraction``
    #: of all vectorizable instructions land in such segments.
    narrow_width: int = 4
    narrow_fraction: float = 0.5
    #: PF006 epsilons: bound-vs-measured slack and occupancy agreement
    #: (absorb float fold-order drift only, never modeling error).
    bound_rel_tol: float = 1e-9
    occupancy_rel_tol: float = 1e-9
    occupancy_abs_tol: float = 1e-15
    #: cap on findings reported per anti-pattern code (keeps reports sane
    #: on pathological streams; the message carries the total).
    max_findings_per_code: int = 8


@dataclass
class CostBounds:
    """Static lower bounds of one plan (all seconds, modeled clock)."""

    #: total modeled duration over every instruction.
    work_s: float
    #: typed-latency dependency critical path (order-independent).
    span_s: float
    #: per-resource serial-demand bounds, roofline vocabulary
    #: (``block:N``/``port_r:N``/``port_w:N``/``link:tX.sY``/``host``/``dram``).
    resource_bounds_s: Dict[str, float]
    #: ``max(span, resource bounds)`` — no legal order can beat this.
    makespan_lower_bound_s: float
    #: argmax of the bound: the resource (or ``"span"``) predicted to bind.
    predicted_binding_resource: str
    #: predicted measured occupancy per counters resource name (the PF006
    #: cross-validation payload; ``block:N`` merges compute + staging,
    #: exactly like :meth:`HardwareCounters.busy_by_resource`).
    predicted_occupancy_s: Dict[str, float] = field(default_factory=dict)
    n_instructions: int = 0
    n_edges: int = 0

    def as_dict(self, top_resources: int = 8) -> Dict[str, Any]:
        ranked = sorted(self.resource_bounds_s.items(),
                        key=lambda kv: kv[1], reverse=True)
        return {
            "work_s": self.work_s,
            "span_s": self.span_s,
            "makespan_lower_bound_s": self.makespan_lower_bound_s,
            "predicted_binding_resource": self.predicted_binding_resource,
            "resource_bounds_s": dict(ranked[:top_resources]),
            "n_instructions": self.n_instructions,
            "n_edges": self.n_edges,
        }


@dataclass
class PerfAudit:
    """One program's full predict-then-measure audit."""

    bounds: CostBounds
    measured_makespan_s: float
    #: measured / lower bound; >= 1.0 whenever the model is sound.
    optimality_gap: float
    #: the measured run's busiest resource (counters vocabulary).
    measured_binding_resource: str
    findings: List[Finding] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            **self.bounds.as_dict(),
            "measured_makespan_s": self.measured_makespan_s,
            "optimality_gap": self.optimality_gap,
            "measured_binding_resource": self.measured_binding_resource,
            "findings": [f.as_dict() for f in self.findings],
        }


# --------------------------------------------------------------------- #
# static bounds
# --------------------------------------------------------------------- #

def cost_bounds(
    ex: "ChipExecutor", plan: ExecutionPlan,
    preds: Optional[Sequence[Sequence[int]]] = None,
    link_label: Optional[Callable[[Hashable], str]] = None,
) -> CostBounds:
    """Compute every static lower bound of ``plan`` (no execution).

    Soundness sketch (each bound <= any measured makespan):

    * **span** — :func:`~repro.pim.schedule.critical_path_span` only
      propagates waits the executor enforces, and every instruction's
      completion lands on a ``now()``-visible clock.
    * **block** — compute durations fold onto the block clock serially;
      DRAM staging couples the same clock, so their sum is a floor on
      that clock's final value.
    * **ports** — a source read port holds ``read_t + flit_train`` per
      outgoing transfer and a destination write port the full duration,
      strictly serially (each hold starts at or after the previous
      release); LUT micro-sequences hold both endpoints' ports for their
      whole duration.
    * **links** — each routed contribution advances the switch clock by at
      least ``min(occupancy, duration)``, and the last contributor's
      write-port publication puts the accumulated total back under
      ``now()`` (the cap keeps this valid even though switch clocks are
      invisible to the makespan directly).
    * **host/DRAM** — single serial channels; busy time is additive.
    """
    insts = plan.instructions
    if preds is None:
        preds = dependency_edges(insts)
    items = sim_items(ex, plan)
    durs = _item_durations(items)
    label = link_label or default_link_label

    bounds: Dict[str, float] = {}
    link_occ: Dict[str, float] = {}
    stage: Dict[Any, float] = {}
    host_occ = 0.0
    dram_occ = 0.0

    def badd(name: str, v: float) -> None:
        bounds[name] = bounds.get(name, 0.0) + v

    for it, d in zip(items, durs):
        kind = it[0]
        if kind == "c":
            badd(f"block:{it[1]}", d)
        elif kind == "t":
            t = it[1]
            badd(f"port_r:{t.src}", t.read_t + t.flit_train)
            badd(f"port_w:{t.dst}", t.dur)
            occ = (t.read_t + t.wire) if t.exclusive else t.flit_train
            contrib = occ if occ < t.dur else t.dur
            for k in t.keys:
                name = label(k)
                badd(name, contrib)
                link_occ[name] = link_occ.get(name, 0.0) + occ
        elif kind == "l":
            _, _d, req, lut, keys = it
            badd(f"port_w:{req}", d)
            badd(f"port_r:{lut}", d)
            for k in keys:
                name = label(k)
                badd(name, d)
                link_occ[name] = link_occ.get(name, 0.0) + d
        elif kind == "h":
            badd("host", d)
            host_occ += d
        elif kind == "d":
            badd("dram", d)
            dram_occ += d
            if it[2] is not None:
                badd(f"block:{it[2]}", d)
                stage[it[2]] = stage.get(it[2], 0.0) + d

    span = critical_path_span(ex, plan, preds)
    best_name, best_val = "span", span
    for name in sorted(bounds):
        v = bounds[name]
        if v > best_val:
            best_name, best_val = name, v

    # predicted measured occupancy (counters vocabulary): block compute
    # busy from the plan footprint (the same left-folds replay performs),
    # merged with DRAM staging exactly as busy_by_resource merges them.
    occupancy: Dict[str, float] = {}
    fp_busy = plan.footprint()["block_busy_s"]
    for b, v in fp_busy.items():
        occupancy[f"block:{b}"] = v
    for b, v in stage.items():
        occupancy[f"block:{b}"] = occupancy.get(f"block:{b}", 0.0) + v
    occupancy.update(link_occ)
    if host_occ:
        occupancy["host"] = host_occ
    if dram_occ:
        occupancy["dram"] = dram_occ

    return CostBounds(
        work_s=float(np.sum(np.asarray(durs))) if durs else 0.0,
        span_s=span,
        resource_bounds_s=bounds,
        makespan_lower_bound_s=best_val,
        predicted_binding_resource=best_name,
        predicted_occupancy_s=occupancy,
        n_instructions=len(insts),
        n_edges=sum(len(ps) for ps in preds),
    )


def emission_timings(
    ex: "ChipExecutor", plan: ExecutionPlan
) -> Tuple[np.ndarray, np.ndarray]:
    """``(start_s, queue_s)`` per instruction under emission order.

    Walks the scheduler's executor-faithful resource model; ``queue_s`` is
    the extra wait a routed op (TRANSFER/LUT) spent blocked on its route's
    switches *after* its own ports and blocks were ready — the same
    quantity the hardware counters record as ``transfer_queue_s``.
    """
    items = sim_items(ex, plan)
    n = len(items)
    sim = _Sim()
    starts = np.zeros(n)
    queues = np.zeros(n)
    for j, it in enumerate(items):
        kind = it[0]
        ready = sim.est(it)
        if kind == "t":
            queues[j] = ready - sim.transfer_ready(it[1])
        elif kind == "l":
            _, _d, req, lut, _keys = it
            ready0 = max(sim.compute_start(req), sim.compute_start(lut))
            queues[j] = ready - ready0
        starts[j] = ready
        sim.commit(it, ready)
    return starts, queues


def measure_plan(
    ex: "ChipExecutor", plan: ExecutionPlan
) -> Tuple[float, HardwareCounters]:
    """Measured makespan + hardware counters of one cold analytic replay."""
    from repro.pim.executor import ChipExecutor

    fresh = ChipExecutor(ex.chip, op_costs=ex.costs, host=ex.host, counters=True)
    report = fresh.run(plan, functional=False)
    counters = fresh.counters
    assert counters is not None
    return float(report.total_time_s), counters


# --------------------------------------------------------------------- #
# anti-pattern analyses
# --------------------------------------------------------------------- #

def _regions_overlap(a: Region, b: Region) -> bool:
    if a[0] != b[0]:
        return False
    # columns: None is a whole-block wildcard
    if a[1] is not None and b[1] is not None:
        if not (a[1] < b[1] + b[2] and b[1] < a[1] + a[2]):
            return False
    return a[3] < b[4] and b[3] < a[4]


def _overfencing_barriers(program: Sequence[Instruction]) -> List[int]:
    """Indices of BARRIERs no data dependency crosses (removable fences).

    A fence is load-bearing when some access before it conflicts
    (write-write, write-read or read-write on an overlapping word region)
    with some access after it, within the neighboring fence-to-fence
    regions; host-host and DRAM-DRAM pairs order themselves through their
    serial channels regardless of fences.  Leading/trailing barriers
    (an empty region on either side) are skipped — they fence nothing,
    and phase discipline (PH*) owns their style questions.
    """
    fence_idx = [i for i, inst in enumerate(program)
                 if inst.op is Opcode.BARRIER]
    # the DAG's own region model, so "no conflict" here means "the DAG has
    # no edge across the fence".
    regions = access_regions()
    out: List[int] = []
    for bi in fence_idx:
        prev_f = max((i for i in fence_idx if i < bi), default=-1)
        next_f = min((i for i in fence_idx if i > bi), default=len(program))
        before = list(range(prev_f + 1, bi))
        after = list(range(bi + 1, next_f))
        if not before or not after:
            continue
        a_reads: List[Region] = []
        a_writes: List[Region] = []
        for i in before:
            r, w = regions(program[i])
            a_reads.extend(r)
            a_writes.extend(w)
        conflict = False
        for j in after:
            r, w = regions(program[j])
            for reg in w:  # B writes vs A reads+writes (WAR/WAW)
                if any(_regions_overlap(reg, x) for x in a_writes) or \
                        any(_regions_overlap(reg, x) for x in a_reads):
                    conflict = True
                    break
            if conflict:
                break
            for reg in r:  # B reads vs A writes (RAW)
                if any(_regions_overlap(reg, x) for x in a_writes):
                    conflict = True
                    break
            if conflict:
                break
        if not conflict:
            out.append(bi)
    return out


def _dead_segments(
    program: Sequence[Instruction], plan: ExecutionPlan, block_rows: int
) -> List[Tuple[int, int, int]]:
    """``(segment start, segment stop, first dead write index)`` per dead segment.

    Backward row-resolution liveness: a write is dead when every row it
    writes is overwritten later with no intervening read.  Rows default to
    live (values reaching the program end are the output), whole-block
    reads (the LUT block's data-dependent rows) revive every column of the
    block, and a segment is dead when it writes at least once and every
    one of its writes is dead.
    """
    n = len(program)
    dead = [False] * n
    wrote = [False] * n
    live: Dict[Tuple[Any, int], np.ndarray] = {}

    def live_mask(block: Any, col: int) -> np.ndarray:
        m = live.get((block, col))
        if m is None:
            m = np.ones(block_rows, dtype=bool)
            live[(block, col)] = m
        return m

    for i in range(n - 1, -1, -1):
        reads, writes = accesses(program[i])
        all_dead = True
        any_write = False
        for a in writes:
            if a.block is None or a.col is None:
                continue
            any_write = True
            m = row_mask(a.rows, block_rows)
            for col in range(a.col, a.col + a.words):
                lm = live_mask(a.block, col)
                if bool(np.any(m & lm)):
                    all_dead = False
                lm &= ~m
        wrote[i] = any_write
        dead[i] = any_write and all_dead
        for a in reads:
            if a.block is None:
                continue
            m = row_mask(a.rows, block_rows)
            if a.col is None:
                # whole-block read: revive every column seen so far and
                # note that untouched columns are default-live anyway.
                for (blk, _col), lm in live.items():
                    if blk == a.block:
                        lm |= m
                continue
            for col in range(a.col, a.col + a.words):
                live_mask(a.block, col)[...] |= m

    out: List[Tuple[int, int, int]] = []
    for kind, payload in plan.steps:
        if kind != STEP_SEGMENT:
            continue
        idxs = [i for i in range(payload.start, payload.stop) if wrote[i]]
        if idxs and all(dead[i] for i in idxs):
            out.append((payload.start, payload.stop, idxs[0]))
    return out


# --------------------------------------------------------------------- #
# the audit
# --------------------------------------------------------------------- #

def audit_program(
    program: Sequence[Instruction],
    ex: "ChipExecutor",
    options: Optional[PerfOptions] = None,
    block_rows: Optional[int] = None,
    passname: str = "perf",
) -> PerfAudit:
    """Full predict-then-measure audit of one instruction stream.

    Lowers (or reuses the executor's lowering of) ``program``, computes
    the static bounds, replays once with hardware counters and emits the
    PF001–PF006 findings.  The caller owns lowering failures — this
    function assumes a lowerable stream.
    """
    opts = options or PerfOptions()
    program = program if isinstance(program, (list, tuple)) else list(program)
    plan = ex.lower(program)
    preds = dependency_edges(plan.instructions)
    bounds = cost_bounds(ex, plan, preds)
    measured_s, counters = measure_plan(ex, plan)
    gap = (measured_s / bounds.makespan_lower_bound_s
           if bounds.makespan_lower_bound_s > 0.0 else 1.0)
    busy = counters.busy_by_resource()
    measured_binding = max(busy, key=lambda r: (busy[r], r)) if busy else "idle"

    findings: List[Finding] = []

    def add(code: str, msg: str, severity: str = WARNING,
            index: Optional[int] = None, block: Optional[int] = None,
            tag: str = "") -> None:
        findings.append(Finding(code, msg, severity, index=index,
                                block=block, tag=tag, passname=passname))

    # PF006 — the model-soundness contract, checked on every audit.
    slack = opts.bound_rel_tol * max(abs(measured_s), 1e-30)
    if bounds.makespan_lower_bound_s > measured_s + slack:
        add("PF006",
            f"static lower bound {bounds.makespan_lower_bound_s:.6e}s "
            f"({bounds.predicted_binding_resource}) exceeds the measured "
            f"makespan {measured_s:.6e}s — the bound is unsound",
            severity=ERROR)
    occ_mismatches = counters.compare_occupancy(
        bounds.predicted_occupancy_s,
        rel_tol=opts.occupancy_rel_tol,
        abs_tol=opts.occupancy_abs_tol,
    )
    for msg in occ_mismatches[:opts.max_findings_per_code]:
        add("PF006", f"occupancy prediction diverged: {msg}", severity=ERROR)
    if len(occ_mismatches) > opts.max_findings_per_code:
        add("PF006",
            f"... and {len(occ_mismatches) - opts.max_findings_per_code} "
            f"more occupancy divergences", severity=ERROR)

    # PF001 — optimality gap.
    if gap > opts.gap_tolerance:
        add("PF001",
            f"measured makespan {measured_s:.6e}s is {gap:.2f}x the static "
            f"lower bound {bounds.makespan_lower_bound_s:.6e}s (tolerance "
            f"{opts.gap_tolerance:.2f}x; predicted binding resource "
            f"{bounds.predicted_binding_resource}) — the schedule leaves "
            f"most of the hardware idle")

    # PF002 — removable over-fencing barriers.
    removable = _overfencing_barriers(program)
    for bi in removable[:opts.max_findings_per_code]:
        add("PF002",
            "no data dependency crosses this BARRIER (both neighboring "
            "regions touch disjoint data); removing it lets the regions "
            "overlap", index=bi, tag=program[bi].tag)
    if len(removable) > opts.max_findings_per_code:
        add("PF002",
            f"... and {len(removable) - opts.max_findings_per_code} more "
            f"removable barriers")

    # PF003 — transfers serialized behind unrelated route traffic.
    items = sim_items(ex, plan)
    durs = _item_durations(items)
    _starts, queues = emission_timings(ex, plan)
    hits: List[int] = []
    for j, it in enumerate(items):
        if it[0] != "t":
            continue
        q = float(queues[j])
        if q > max(opts.queue_factor * durs[j], opts.queue_floor_s):
            hits.append(j)
    for j in hits[:opts.max_findings_per_code]:
        inst = program[j]
        add("PF003",
            f"transfer queues {float(queues[j]):.3e}s behind unrelated "
            f"traffic on its route — {float(queues[j]) / durs[j]:.0f}x its "
            f"own {durs[j]:.3e}s duration; reroute or reorder to overlap",
            index=j, block=inst.block, tag=inst.tag)
    if len(hits) > opts.max_findings_per_code:
        add("PF003",
            f"... and {len(hits) - opts.max_findings_per_code} more "
            f"serialized transfers")

    # PF004 — dead segments.
    rows = block_rows if block_rows is not None else ex.chip.config.block_rows
    for start, stop, first in _dead_segments(
            program, plan, rows)[:opts.max_findings_per_code]:
        inst = program[first]
        add("PF004",
            f"segment [{start}, {stop}) computes only values overwritten "
            f"before any read (first dead write at instruction {first})",
            index=first, block=inst.block, tag=inst.tag)

    # PF005 — degenerate vectorization.
    widths: List[int] = plan.footprint()["segment_widths"]
    total = sum(widths)
    narrow = sum(w for w in widths if w < opts.narrow_width)
    if total and narrow / total > opts.narrow_fraction:
        add("PF005",
            f"{narrow} of {total} vectorizable instructions "
            f"({narrow / total:.0%}) sit in segments narrower than "
            f"{opts.narrow_width} — per-segment dispatch overhead dominates; "
            f"hoist coupling ops (TRANSFER/BARRIER/LUT) out of inner loops")

    return PerfAudit(
        bounds=bounds,
        measured_makespan_s=measured_s,
        optimality_gap=gap,
        measured_binding_resource=measured_binding,
        findings=findings,
    )


class PerfPass:
    """Pass (h): static cost bounds, optimality gap, perf anti-patterns."""

    name = "perf"

    def __init__(self, options: Optional[PerfOptions] = None) -> None:
        self.options = options or PerfOptions()

    def run(self, program: Sequence[Instruction],
            ctx: CheckContext) -> List[Finding]:
        chip = ctx.chip
        if chip is None:
            return []  # no cost model to bound against
        program = program if isinstance(program, (list, tuple)) else list(program)
        try:
            from repro.pim.executor import ChipExecutor

            ex = ChipExecutor(chip)
            audit = audit_program(
                program, ex, options=self.options,
                block_rows=ctx.block_rows, passname=self.name,
            )
        except (ValueError, IndexError):
            # shape/legality defects — the structural passes own those.
            return []
        except Exception:
            # a stream the lowerer rejects outright: PL001 reports it.
            return []
        return audit.findings
