"""Instruction-stream execution: functional semantics + timing + energy.

The executor consumes a flat list of :class:`~repro.pim.isa.Instruction`
in program order and maintains:

* per-block clocks (a block executes its own instructions serially — there
  is one set of drivers per crossbar);
* per-switch availability inside each tile (the H-tree/Bus contention
  model of §4.2: disjoint H-tree paths overlap, the bus serializes);
* a host-CPU clock (sqrt/inverse pre-processing, §4.3) and a DRAM channel
  clock (batching traffic, §6.1);
* dynamic-energy and busy-time accounting per attribution tag — the raw
  data behind the Fig. 13 pipeline breakdown and the Fig. 14 intra/inter
  split.

With ``functional=True`` instructions also update the blocks' word
contents, which is how the tests prove the PIM-mapped wave kernels compute
the same numbers as the numpy dG reference.

There are two engines.  Fault-free runs replay an
:class:`~repro.pim.plan.ExecutionPlan` — raw streams are lowered on entry
— bit-identically to per-instruction dispatch (DESIGN.md §13).  The
per-instruction dispatcher is the reference the plan path is verified
against (``serial=True``), and it also runs every stream with an enabled
fault model: fault overheads move block clocks in the middle of a
segment, so a fault-injecting run walks one instruction at a time anyway
(DESIGN.md §11).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import (
    HardwareCounters,
    attribute_makespan,
    counter_track_events,
    counters_enabled,
    get_metrics,
    get_tracer,
)
from repro.pim.arithmetic import HostOpModel, OpCosts, default_op_costs
from repro.pim.chip import PimChip
from repro.pim.isa import ARITHMETIC_OPS, Instruction, Opcode
from repro.pim.plan import (
    APPLY_FILL,
    APPLY_UFUNC,
    COPY_NORS,
    STEP_SEGMENT,
    ExecutionPlan,
    fold_array,
    lower_program,
)

__all__ = [
    "TimingReport", "ChipExecutor", "ExecutionPlan",
    "tag_phase", "PHASES",
]


def _float_dict() -> defaultdict:
    """Picklable ``defaultdict(float)`` factory for report accumulators."""
    return defaultdict(float)


#: the Fig. 13-style phases a tag attributes time to (DESIGN.md
#: "Observability": ``executor.cycles.<phase>``).
PHASES = ("volume", "flux", "integration", "lut", "transfer", "dram", "host", "sync", "other")

_PHASE_CACHE: dict = {}


def tag_phase(tag: str) -> str:
    """Map an instruction tag onto its pipeline phase.

    The kernel generators use a small tag vocabulary (``volume``,
    ``flux:compute``, ``flux:fetch``, ``integration``, ``setup``/``load``,
    ``sync``, ``host``, ``dram``); fetches are interconnect time, so they
    land in ``transfer``, and DRAM staging in ``dram``.
    """
    phase = _PHASE_CACHE.get(tag)
    if phase is None:
        if not tag:
            phase = "other"
        elif tag.startswith("volume"):
            phase = "volume"
        elif tag.startswith("flux:fetch"):
            phase = "transfer"
        elif tag.startswith("flux"):
            phase = "flux"
        elif tag.startswith("integration"):
            phase = "integration"
        elif "lut" in tag:
            phase = "lut"
        elif tag in ("setup", "load") or tag.startswith("dram"):
            phase = "dram"
        elif tag.startswith("host"):
            phase = "host"
        elif tag.startswith("halo"):
            # inter-chip halo exchange (repro.pim.multichip): wire time on
            # the chip-to-chip links, accounted alongside on-chip routing.
            phase = "transfer"
        elif tag == "sync":
            phase = "sync"
        else:
            phase = "other"
        _PHASE_CACHE[tag] = phase
    return phase


@dataclass
class TimingReport:
    """Aggregated outcome of one executed instruction stream."""

    total_time_s: float = 0.0
    dynamic_energy_j: float = 0.0
    time_by_tag: dict = field(default_factory=_float_dict)
    energy_by_tag: dict = field(default_factory=_float_dict)
    op_counts: Counter = field(default_factory=Counter)
    block_busy_s: dict = field(default_factory=_float_dict)
    host_busy_s: float = 0.0
    dram_busy_s: float = 0.0
    n_instructions: int = 0
    #: interconnect accounting (TRANSFER + LUT): transfer count, switch
    #: hops traversed, flits moved, payload bytes — the raw numbers behind
    #: the ``interconnect.<kind>.*`` metrics and the Fig. 14 H-tree/Bus gap.
    transfers: int = 0
    hops: int = 0
    flits: int = 0
    bytes_moved: int = 0
    #: fault-tolerance accounting (all zero unless a
    #: :class:`~repro.faults.model.FaultModel` was attached): injected /
    #: detected / corrected fault occurrences, unrecovered outcomes, and
    #: TRANSFER retransmissions priced into the tag times above.
    retries: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    faults_corrected: int = 0
    faults_uncorrected: int = 0
    #: modeled makespan in chip clock cycles (``total_time_s`` scaled by
    #: the chip clock); for scheduler-reordered plans
    #: ``emission_makespan_cycles`` additionally records the modeled
    #: emission-order baseline the scheduler improved on (0.0 otherwise).
    makespan_cycles: float = 0.0
    emission_makespan_cycles: float = 0.0

    def __post_init__(self) -> None:
        # accept plain dicts from callers; the accumulators below rely on
        # defaultdict/Counter semantics.
        if not isinstance(self.time_by_tag, defaultdict):
            self.time_by_tag = defaultdict(float, self.time_by_tag)
        if not isinstance(self.energy_by_tag, defaultdict):
            self.energy_by_tag = defaultdict(float, self.energy_by_tag)
        if not isinstance(self.op_counts, Counter):
            self.op_counts = Counter(self.op_counts)
        if not isinstance(self.block_busy_s, defaultdict):
            self.block_busy_s = defaultdict(float, self.block_busy_s)

    def add(self, tag: str, op: Opcode, duration: float, energy: float) -> None:
        self.time_by_tag[tag] += duration
        self.energy_by_tag[tag] += energy
        self.op_counts[op.value] += 1
        self.dynamic_energy_j += energy
        self.n_instructions += 1

    def add_overhead(self, tag: str, duration: float, energy: float) -> None:
        """Account recovery work (recomputes, retransmissions, parity upkeep)
        under ``tag`` without counting an extra instruction."""
        self.time_by_tag[tag] += duration
        self.energy_by_tag[tag] += energy
        self.dynamic_energy_j += energy

    def phase_times(self) -> dict:
        """Busy seconds per pipeline phase (see :func:`tag_phase`).

        Partitions ``time_by_tag`` completely: the values sum to
        ``sum(self.time_by_tag.values())`` exactly (each tag lands in one
        phase, plain left-to-right addition per phase).
        """
        out: dict = {}
        for tag, t in self.time_by_tag.items():
            phase = tag_phase(tag)
            out[phase] = out.get(phase, 0.0) + t
        return out

    def phase_cycles(self, clock_hz: float) -> dict:
        """Per-phase busy time expressed in chip clock cycles."""
        return {phase: t * clock_hz for phase, t in self.phase_times().items()}

    def merge(self, other: "TimingReport") -> None:
        """Fold another report's accounting into this one (sequential join)."""
        self.total_time_s += other.total_time_s
        self.dynamic_energy_j += other.dynamic_energy_j
        self.host_busy_s += other.host_busy_s
        self.dram_busy_s += other.dram_busy_s
        self.n_instructions += other.n_instructions
        self.transfers += other.transfers
        self.hops += other.hops
        self.flits += other.flits
        self.bytes_moved += other.bytes_moved
        self.retries += other.retries
        self.faults_injected += other.faults_injected
        self.faults_detected += other.faults_detected
        self.faults_corrected += other.faults_corrected
        self.faults_uncorrected += other.faults_uncorrected
        self.makespan_cycles += other.makespan_cycles
        self.emission_makespan_cycles += other.emission_makespan_cycles
        for k, v in other.time_by_tag.items():
            self.time_by_tag[k] += v
        for k, v in other.energy_by_tag.items():
            self.energy_by_tag[k] += v
        self.op_counts.update(other.op_counts)
        for k, v in other.block_busy_s.items():
            self.block_busy_s[k] += v


class ChipExecutor:
    """Executes instruction streams on a :class:`PimChip`."""

    def __init__(
        self,
        chip: PimChip,
        op_costs: OpCosts | None = None,
        host: HostOpModel | None = None,
        verify: bool = False,
        faults=None,
        counters: "HardwareCounters | bool | None" = None,
    ):
        self.chip = chip
        #: optional :class:`~repro.obs.counters.HardwareCounters` recorder.
        #: ``None`` defers to the ``REPRO_COUNTERS`` knob (default off),
        #: ``True`` attaches a fresh recorder, ``False`` forces off.  The
        #: recorder is a pure observer of values the replay already
        #: computes: reports and block state are bit-identical either way.
        if counters is None:
            counters = counters_enabled()
        if counters is True:
            counters = HardwareCounters()
        self.counters: HardwareCounters | None = counters or None
        #: opt-in static checking: every :meth:`run` audits the stream with
        #: the :mod:`repro.analysis` passes before executing it (and raises
        #: :class:`~repro.analysis.checker.ProgramCheckError` on errors).
        self.verify = verify
        #: optional :class:`~repro.faults.model.FaultModel`.  With no model
        #: (or a model whose rates are all zero) runs replay plans and
        #: every fault hook short-circuits before touching a float, so the
        #: default accounting stays bit-identical to the fault-free
        #: executor; an enabled model sends every run to serial dispatch.
        self.faults = faults
        self.costs = op_costs or default_op_costs(chip.config.device)
        self.host = host or HostOpModel(power_w=chip.config.power.cpu_host_w)
        self._block_clock: dict = defaultdict(float)
        self._switch_free: dict = defaultdict(float)  # (tile, switch) -> time
        #: separate transfer ports: blocks have row *and* column buffers
        #: (§4.1), so an outbound read and an inbound write can overlap.
        self._port_free: dict = defaultdict(float)  # ("r"/"w", block) -> time
        self._host_clock = 0.0
        self._dram_clock = 0.0
        #: floor applied to every lane after a BARRIER (covers blocks that
        #: have not executed anything yet).
        self._barrier_time = 0.0

    # ------------------------------------------------------------------ #

    def reset_clocks(self) -> None:
        self._block_clock.clear()
        self._switch_free.clear()
        self._port_free.clear()
        self._host_clock = 0.0
        self._dram_clock = 0.0
        self._barrier_time = 0.0
        if self.counters is not None:
            # counter intervals live on the executor's modeled clock; a
            # clock reset would fold new intervals onto old ones, so the
            # recorder restarts with the clocks.
            self.counters = HardwareCounters(timeline=self.counters.timeline)

    def _now(self) -> float:
        clocks = (
            list(self._block_clock.values())
            + list(self._port_free.values())
            + [self._host_clock, self._dram_clock]
        )
        return max(clocks) if clocks else 0.0

    def now(self) -> float:
        """Current modeled time: the max over every clock this chip owns.

        Clocks persist across :meth:`run` calls (until
        :meth:`reset_clocks`), so replaying a step's substreams one at a
        time lands on the same final clock as replaying the whole step —
        the property the multi-chip layer's per-phase loop relies on.
        """
        return self._now()

    def sync_at(self, t: float) -> None:
        """Gate future work on an external event at modeled time ``t``.

        Raises the barrier floor so every lane (blocks, transfer ports,
        host, DRAM) starts no earlier than ``t`` — a BARRIER whose release
        time is supplied from outside the chip.  The multi-chip layer uses
        it to stall a shard's flux replay until its halo exchange arrives;
        work already on the clocks is unaffected, so compute that was
        issued before the sync (the overlap window) still runs under the
        in-flight exchange.
        """
        if t > self._barrier_time:
            self._barrier_time = t

    def _compute_start(self, block) -> float:
        """Compute must wait for pending transfers and the last barrier."""
        return max(
            self._block_clock[block],
            self._port_free[("r", block)],
            self._port_free[("w", block)],
            self._barrier_time,
        )

    # ------------------------------------------------------------------ #

    def lower(self, instructions, verify: bool = False) -> ExecutionPlan:
        """Compile ``instructions`` once into a reusable :class:`ExecutionPlan`.

        The plan precomputes every analytic cost and resolves every TRANSFER
        route (once per unique ``(src, dst)`` pair), so replaying it through
        :meth:`run` costs a few vectorized segment reductions plus a
        per-block prefix-max clock advance instead of one Python dispatch
        per instruction — with a bit-identical :class:`TimingReport`
        (see :mod:`repro.pim.plan` for the invariants).
        """
        if verify:
            # imported lazily: the analysis package depends on this module.
            from repro.analysis.checker import check_program, raise_on_errors

            instructions = (
                instructions
                if isinstance(instructions, (list, tuple))
                else list(instructions)
            )
            raise_on_errors(
                check_program(instructions, self.chip), what="lowered stream"
            )
        with get_tracer().span("pim/lower", chip=self.chip.config.name) as sp:
            plan = lower_program(self.chip, self.costs, instructions)
            if sp.name:
                sp.set(
                    n_instructions=plan.n_instructions,
                    n_segments=plan.n_segments,
                    n_transfers=plan.n_transfers,
                    vectorized_fraction=plan.vectorized_fraction,
                )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("executor.plan.lowered")
            metrics.inc("executor.plan.instructions_lowered", plan.n_instructions)
        return plan

    def run(self, instructions, functional: bool = True,
            verify: bool | None = None, serial: bool = False) -> TimingReport:
        """Execute ``instructions`` in program order; returns the report.

        ``instructions`` may be a plain stream or an :class:`ExecutionPlan`
        from :meth:`lower`.  Fault-free runs, analytic and functional,
        replay the plan — raw streams are lowered on entry — bit-identically
        to per-instruction dispatch (block state and :class:`TimingReport`
        match float for float).  A plan lowered before the chip's routes
        changed (``routing_epoch`` mismatch after spare-block remapping) is
        transparently re-lowered, never replayed stale.

        The per-instruction dispatch loop runs the stream instead when
        ``serial=True`` — the audit reference the plan path is checked
        against (PL001–PL004 and the bit-identity test sweep) — and when an
        enabled fault model is attached: the fault hooks draw, and charge
        recovery time, one instruction at a time.

        ``verify`` overrides the executor-level flag for this run: when
        true, the static checker passes audit the stream first and a
        ``ProgramCheckError`` aborts execution on any error finding.
        """
        plan = instructions if isinstance(instructions, ExecutionPlan) else None
        if plan is not None:
            instructions = plan.instructions
        if self.verify if verify is None else verify:
            # imported lazily: the analysis package depends on this module.
            from repro.analysis.checker import check_program, raise_on_errors

            instructions = (
                instructions
                if isinstance(instructions, (list, tuple))
                else list(instructions)
            )
            raise_on_errors(
                check_program(instructions, self.chip), what="executor stream"
            )
        report = TimingReport()
        faults = self.faults
        faults_on = faults is not None and faults.config.enabled
        if serial or faults_on:
            plan = None
            mode = "serial"
        else:
            if plan is None:
                plan = self.lower(instructions)
            elif plan.routing_epoch != self.chip.routing_epoch:
                # spare-block remapping moved a block since this plan was
                # lowered: its resolved routes may be stale.  Re-lower
                # against the current topology rather than replaying them,
                # once per chip and epoch; the instruction order is the
                # same, so the schedule stats still hold.
                kept = plan.relowered
                if (kept is not None and kept[0] is self.chip
                        and kept[1].routing_epoch == self.chip.routing_epoch):
                    plan = kept[1]
                else:
                    fresh = self.lower(plan.instructions)
                    fresh.schedule_stats = plan.schedule_stats
                    plan.relowered = (self.chip, fresh)
                    plan = fresh
                    metrics = get_metrics()
                    if metrics.enabled:
                        metrics.inc("executor.plan.relowered")
            mode = "plan"
        counts_before = dict(faults.counts) if faults_on else None
        with get_tracer().span("pim/run", chip=self.chip.config.name,
                               functional=functional, mode=mode) as sp:
            if plan is not None:
                self._run_plan(plan, functional, report)
            else:
                for inst in instructions:
                    self._dispatch(inst, functional, report)
            report.total_time_s = self._now()
            report.host_busy_s = self._host_clock
            report.dram_busy_s = self._dram_clock
            report.makespan_cycles = report.total_time_s * self.chip.config.clock_hz
            if plan is not None and plan.schedule_stats is not None:
                report.emission_makespan_cycles = (
                    plan.schedule_stats["emission_makespan_s"]
                    * self.chip.config.clock_hz
                )
            for b, t in self._block_clock.items():
                report.block_busy_s[b] = t
            if counts_before is not None:
                c = faults.counts
                report.faults_injected = c["injected"] - counts_before["injected"]
                report.faults_detected = c["detected"] - counts_before["detected"]
                report.faults_corrected = c["corrected"] - counts_before["corrected"]
                report.faults_uncorrected = (
                    c["uncorrected"] - counts_before["uncorrected"]
                )
                report.retries = c["retries"] - counts_before["retries"]
            self._publish(report, sp, mode)
        return report

    def _publish(self, report: TimingReport, span, mode: str = "serial") -> None:
        """Once-per-run aggregation into the metrics registry and span.

        Deliberately the *only* observability cost of an instruction
        stream: nothing above touches metrics per instruction, so the
        tracing-disabled overhead stays within the BENCH_perf.json guard's
        noise floor.
        """
        cnt = self.counters
        metrics = get_metrics()
        if metrics.enabled:
            clock = self.chip.config.clock_hz
            metrics.inc("executor.runs")
            if mode == "plan":
                metrics.inc("executor.plan.runs")
            else:
                # serial runs are audit-reference requests or fault-injecting
                # runs; the bench's plan-coverage guard excludes them.
                metrics.inc("executor.serial.runs")
            metrics.inc("executor.instructions", report.n_instructions)
            metrics.observe("executor.instructions_per_run", report.n_instructions)
            for op, n in report.op_counts.items():
                metrics.inc(f"executor.ops.{op}", n)
            for phase, t in report.phase_times().items():
                metrics.inc(f"executor.cycles.{phase}", t * clock)
            if report.transfers:
                kind = self.chip.config.interconnect
                metrics.inc(f"interconnect.{kind}.transfers", report.transfers)
                metrics.inc(f"interconnect.{kind}.hops", report.hops)
                metrics.inc(f"interconnect.{kind}.flits", report.flits)
                metrics.inc(f"interconnect.{kind}.bytes", report.bytes_moved)
            if cnt is not None and span.name:
                # per-resource utilization (busy / cumulative makespan) as
                # mergeable histograms: one observation per active block /
                # link per run, so --jobs workers and batched runs fold
                # into one fleet-wide distribution.  Published on *traced*
                # runs only: reading any counter aggregate drains the raw
                # logs (HardwareCounters._finalize), and paying that every
                # bare replay would blow the ≤2% enabled-overhead budget —
                # untraced callers read executor.counters / attribution()
                # when they want the numbers.
                span_s = self._now()
                if span_s > 0.0:
                    for t in cnt.block_busy_s.values():
                        metrics.observe("counters.block_util", t / span_s)
                    for t in cnt.link_busy_s.values():
                        metrics.observe("counters.link_util", t / span_s)
                metrics.inc("counters.runs")
                metrics.inc("counters.transfers_queued", cnt.transfers_queued)
                metrics.inc("counters.transfer_queue_cycles",
                            cnt.transfer_queue_s * clock)
                metrics.inc("counters.host_stall_cycles",
                            cnt.host_stall_s * clock)
                metrics.inc("counters.dram_stall_cycles",
                            cnt.dram_stall_s * clock)
        if span.name:  # live span (tracing enabled)
            clock = self.chip.config.clock_hz
            phases = report.phase_times()
            span.set(
                n_instructions=report.n_instructions,
                total_time_s=report.total_time_s,
                dynamic_energy_j=report.dynamic_energy_j,
                transfers=report.transfers,
                hops=report.hops,
                makespan_cycles=report.makespan_cycles,
                emission_makespan_cycles=report.emission_makespan_cycles,
                phase_times_s=phases,
                phase_cycles={p: t * clock for p, t in phases.items()},
            )
            if cnt is not None:
                # attribution + the per-resource Gantt only on profiled
                # runs: the sweep is O(events log events), far too big a
                # bill for the counters-only fast path.
                attrib = self.attribution()
                span.set(
                    binding_resource=attrib.binding_resource,
                    binding_share=attrib.binding_share,
                    idle_fraction=attrib.idle_fraction,
                    block_util=attrib.block_util,
                    link_util=attrib.link_util,
                    chrome_events=counter_track_events(
                        cnt, origin_s=span.start_s,
                        link_label=self.chip.link_label,
                    ),
                )

    def attribution(self):
        """Makespan attribution of everything recorded since the last
        :meth:`reset_clocks`, in chip clock cycles with chip-aware link
        labels.  Requires an attached counters recorder."""
        if self.counters is None:
            raise ValueError(
                "no counters attached: construct with counters=True or set "
                "REPRO_COUNTERS=1"
            )
        return attribute_makespan(
            self.counters,
            total_time_s=self._now(),
            clock_hz=self.chip.config.clock_hz,
            link_label=self.chip.link_label,
        )

    # -- plan replay ------------------------------------------------------- #

    def _run_plan(self, plan: ExecutionPlan, functional: bool,
                  report: TimingReport) -> None:
        """Replay a lowered plan fault-free: vectorized accounting, serial
        semantics.

        Walks the plan's runs — its steps cut at the DISPATCH rows —
        instead of the instruction stream.  Each run folds its precomputed
        report accounting in (per tag, the same addends in the same order
        as serial dispatch, see :mod:`repro.pim.plan`).  Compute segments
        advance each block's clock by an exact left-fold of precomputed
        durations from the serial starting point (``_compute_start``
        dominates after the first op); TRANSFERs replay the clock
        arithmetic of :meth:`_transfer` from precomputed routes and port
        keys.  When ``functional``, each run then executes its program —
        lockstep numpy calls over the tile arrays, built on the first
        functional replay on this chip, which validates every op of the
        plan before any executes (:meth:`ExecutionPlan.build_programs`).
        Everything that couples multiple clocks (LUT/HOSTOP/DRAM/BARRIER)
        dispatches through the unchanged serial handlers after its run.
        Bit-identical to ``run(plan.instructions, serial=True)``.
        """
        plan.replays += 1
        insts = plan.instructions
        programs = None
        if functional:
            programs = plan.programs
            if programs is None or plan.apply_chip is not self.chip:
                programs = plan.build_programs(self.chip)
        bc = self._block_clock
        pf = self._port_free
        sw = self._switch_free
        cnt = self.counters
        # deferred counter recording: the whole plan is logged once up
        # front and the hot loop appends only one float per (segment,
        # block) and one 3-tuple per transfer through bound list.appends —
        # the ≤2% enabled-overhead budget lives or dies here (aggregation
        # re-walks plan.steps at the counters' first read).
        if cnt is not None:
            cnt._fold = fold_array
            cnt._seg_kind = STEP_SEGMENT
            cnt.plan_log.append(plan)
            s_app = cnt.start_log.append
            x_app = cnt.xfer_log.append
        else:
            s_app = x_app = None
        time_by_tag = report.time_by_tag
        energy_by_tag = report.energy_by_tag
        for r, run in enumerate(plan.runs):
            if run.n:
                for tag, durs, ens in run.tag_groups:
                    time_by_tag[tag] = fold_array(time_by_tag[tag], durs)
                    energy_by_tag[tag] = fold_array(energy_by_tag[tag], ens)
                report.dynamic_energy_j = fold_array(
                    report.dynamic_energy_j, run.energies
                )
                report.op_counts.update(run.op_counts)
                report.n_instructions += run.n
                report.transfers += run.transfers
                report.hops += run.hops
                report.flits += run.flits
                report.bytes_moved += run.n_bytes
                # only a DISPATCH (BARRIER) or sync_at moves the floor
                barrier = self._barrier_time
                for kind, payload in run.items:
                    if kind == STEP_SEGMENT:
                        for block, durs, _nors, _ops in payload.block_groups:
                            # defaultdict lookups deliberately mirror
                            # _compute_start (they insert missing keys,
                            # which _now() later reads).
                            start = end = max(
                                bc[block], pf[("r", block)], pf[("w", block)],
                                barrier,
                            )
                            for d in durs:  # the fold_array left-fold
                                end += d
                            bc[block] = end
                            if s_app is not None:
                                s_app(start)
                        continue
                    for t in payload:
                        # the fault-free clock arithmetic of _transfer
                        rport = t.rport
                        wport = t.wport
                        ready = max(pf[rport], pf[wport], bc[t.src],
                                    bc[t.dst], barrier)
                        ready0 = ready  # before queueing behind switches
                        keys = t.keys
                        for k in keys:
                            free = sw[k]
                            if free > ready:
                                ready = free
                        if t.exclusive:
                            held = ready + t.read_t + t.wire
                            for k in keys:
                                sw[k] = held
                        else:
                            for k in keys:
                                sw[k] += t.flit_train
                        pf[rport] = ready + t.read_t + t.flit_train
                        pf[wport] = ready + t.dur
                        if x_app is not None:
                            # deferred record (HardwareCounters hot-path
                            # contract): occupancy, flits and hops derive
                            # from the step object at finalize time.
                            x_app((t, ready, ready0))
                if programs is not None:
                    for step in programs[r]:
                        kind = step[0]
                        if kind == APPLY_UFUNC:
                            _, a, dst, fn, s1, s2 = step
                            a[dst] = fn(a[s1], a[s2])
                        elif kind == APPLY_FILL:
                            _, a, dst, value = step
                            a[dst] = value
                        else:  # APPLY_MOVE
                            _, a, dst, b, src = step
                            a[dst] = b[src]
            if run.dispatch is not None:
                self._dispatch(insts[run.dispatch], functional, report)

    # ------------------------------------------------------------------ #

    def _dispatch(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        op = inst.op
        if op in ARITHMETIC_OPS:
            self._arith(inst, functional, report)
        elif op is Opcode.COPY:
            self._copy(inst, functional, report)
        elif op is Opcode.GATHER:
            self._gather(inst, functional, report)
        elif op is Opcode.BROADCAST:
            self._broadcast(inst, functional, report)
        elif op is Opcode.TRANSFER:
            self._transfer(inst, functional, report)
        elif op is Opcode.LUT:
            self._lut(inst, functional, report)
        elif op is Opcode.HOSTOP:
            self._hostop(inst, report)
        elif op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
            self._dram(inst, report)
        elif op is Opcode.BARRIER:
            self._barrier(report)
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unhandled opcode {op}")

    # -- fault hooks ------------------------------------------------------- #

    @staticmethod
    def _abs_row(rows, offset: int) -> int:
        """Absolute row index of the ``offset``-th row of a selection."""
        if isinstance(rows, tuple):
            return rows[0] + offset
        return int(np.asarray(rows)[offset])

    def _compute_faults(self, inst: Instruction, functional: bool,
                        report: TimingReport, dur: float, energy: float,
                        nors: int) -> None:
        """Inject device faults into one NOR-based compute op (arith/COPY).

        Called only when a fault model with non-zero rates is attached.
        Recovery work (parity upkeep, detect-and-recompute) is charged as
        overhead under the instruction's tag and advances the block clock,
        so mitigation shows up in the timing report, not just the counters.
        """
        f = self.faults
        cfg = f.config
        flip = f.draw_flip(nors, inst.n_rows)
        f.record_nor(inst.block, nors)
        overhead = 0.0
        o_energy = 0.0
        if cfg.protect:
            # parity-row upkeep: one row-parallel copy updates the
            # checksum column after every protected compute op.
            overhead += COPY_NORS * self.costs.device.t_nor_s
            o_energy += COPY_NORS * 32 * self.costs.device.e_nor_j * inst.n_rows

        if flip is not None:
            off, bit = flip
            f.count("injected")
            if cfg.protect:
                # parity mismatch on the written column: recompute once.
                f.count("detected")
                f.count("corrected")
                f.record("flip", f"block:{inst.block}", corrected=True,
                         detail=f"{inst.op.value} bit {bit}")
                with get_tracer().span("faults/recompute", block=inst.block,
                                       op=inst.op.value):
                    overhead += dur
                    o_energy += energy
                # the recompute restores the correct result, so the
                # functional state needs no mutation.
            else:
                f.count("uncorrected")
                f.record("flip", f"block:{inst.block}", corrected=False,
                         detail=f"{inst.op.value} bit {bit}")
                if functional and inst.dst is not None:
                    row = self._abs_row(inst.rows, off)
                    self.chip.block(inst.block).flip_bit(row, inst.dst, bit)

        if cfg.stuck_cell_rate > 0.0 and inst.dst is not None:
            cc = self.chip.config
            stuck = f.stuck_cells(inst.block, cc.block_rows, cc.row_words).get(inst.dst)
            if stuck is not None:
                s_rows, s_bits, s_vals = stuck
                if isinstance(inst.rows, tuple):
                    hit = (s_rows >= inst.rows[0]) & (s_rows < inst.rows[1])
                else:
                    hit = np.isin(s_rows, np.asarray(inst.rows))
                n_hit = int(hit.sum())
                if n_hit:
                    f.count("injected", n_hit)
                    if cfg.protect:
                        # the parity check flags the column, but a stuck
                        # cell survives the recompute: detected, charged,
                        # still wrong — the mapper's remap is the real fix.
                        f.count("detected", n_hit)
                        with get_tracer().span("faults/recompute",
                                               block=inst.block,
                                               op=inst.op.value):
                            overhead += dur
                            o_energy += energy
                    f.count("uncorrected", n_hit)
                    f.record("stuck", f"block:{inst.block}", corrected=False,
                             detail=f"col {inst.dst}, {n_hit} cells")
                    if functional:
                        self.chip.block(inst.block).force_bits(
                            s_rows[hit], inst.dst, s_bits[hit], s_vals[hit]
                        )
        if overhead:
            start = self._block_clock[inst.block]
            self._block_clock[inst.block] = start + overhead
            if self.counters is not None:
                # recovery work occupies the block but retires no op
                self.counters.compute(inst.block, start, start + overhead,
                                      ops=0)
            report.add_overhead(inst.tag, overhead, o_energy)

    # -- individual opcodes ------------------------------------------------ #

    def _arith(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        dur = self.costs.time_s(inst.op.value)
        energy = self.costs.energy_j(inst.op.value, active_rows=inst.n_rows)
        start = self._compute_start(inst.block)
        self._block_clock[inst.block] = start + dur
        if self.counters is not None:
            self.counters.compute(inst.block, start, start + dur,
                                  self.costs.nor_count(inst.op.value))
        if functional:
            blk = self.chip.block(inst.block)
            getattr(blk, inst.op.value)(inst.rows, inst.dst, inst.src1, inst.src2)
        report.add(inst.tag, inst.op, dur, energy)
        if self.faults is not None and self.faults.config.enabled:
            self._compute_faults(inst, functional, report, dur, energy,
                                 self.costs.nor_count(inst.op.value))

    def _copy(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        dur = COPY_NORS * self.costs.device.t_nor_s
        energy = COPY_NORS * 32 * self.costs.device.e_nor_j * inst.n_rows
        start = self._compute_start(inst.block)
        self._block_clock[inst.block] = start + dur
        if self.counters is not None:
            self.counters.compute(inst.block, start, start + dur, COPY_NORS)
        if functional:
            self.chip.block(inst.block).copy_column(inst.rows, inst.dst, inst.src1)
        report.add(inst.tag, inst.op, dur, energy)
        if self.faults is not None and self.faults.config.enabled:
            self._compute_faults(inst, functional, report, dur, energy, COPY_NORS)

    def _gather(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        n_unique = inst.n_unique_rows
        if n_unique is None:  # hand-built instruction: derive on the spot
            n_unique = len(np.unique(np.asarray(inst.row_map)))
        dur = self.costs.gather_time_s(n_unique)
        energy = self.costs.row_move_energy_j(inst.n_rows, words=inst.words)
        start = self._compute_start(inst.block)
        self._block_clock[inst.block] = start + dur
        if self.counters is not None:
            self.counters.compute(inst.block, start, start + dur)
        if functional:
            self.chip.block(inst.block).gather(inst.rows, inst.dst, inst.src1, inst.row_map)
        report.add(inst.tag, inst.op, dur, energy)

    def _broadcast(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        value = np.asarray(inst.value)
        if value.ndim == 0:
            # scalar constant: fill the column buffer once, one
            # column-parallel write through the column drivers.
            dur = 2 * self.costs.device.t_row_write_s
        else:
            # per-row data arrives from outside the block (host/DRAM) and
            # streams in row by row — the cost Fig. 6 hoists out of the
            # batch loop by broadcasting constants only once.
            dur = self.costs.broadcast_time_s(inst.n_rows)
        energy = self.costs.row_move_energy_j(inst.n_rows, words=inst.words)
        start = self._compute_start(inst.block)
        self._block_clock[inst.block] = start + dur
        if self.counters is not None:
            self.counters.compute(inst.block, start, start + dur)
        if functional:
            self.chip.block(inst.block).broadcast(inst.rows, inst.dst, inst.value)
        report.add(inst.tag, inst.op, dur, energy)

    def _transfer(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        src, dst = inst.src_block, inst.block
        if src is None:
            raise ValueError("TRANSFER needs src_block")
        dev = self.costs.device
        n_rows = inst.n_rows
        keys, hops, extra, ic = self.chip.transfer_path(src, dst)
        flits = -(-(n_rows * inst.words) // ic.flit_words)
        wire = hops * ic.hop_latency_per_flit * flits + extra
        read_t = n_rows * dev.t_row_read_s
        write_t = n_rows * dev.t_row_write_s
        dur = read_t + wire + write_t

        # interconnect faults: switch failures, dropped/corrupted payloads.
        plan = None
        f = self.faults
        if f is not None and f.config.any_transfer_faults:
            plan = f.transfer_plan(
                keys, lambda _tile: ic.n_switches, where=f"transfer:{src}->{dst}"
            )
        attempts = 1
        backoff = 0.0
        delivered = True
        if plan is not None:
            attempts, backoff, delivered = plan.attempts, plan.backoff_s, plan.delivered
            # every attempt re-reads the row buffer and re-traverses the
            # wire; only a successful final attempt pays the write-back.
            dur = attempts * (read_t + wire) + backoff + (write_t if delivered else 0.0)

        # The source/destination ports are busy for the whole transfer.  On
        # the H-tree, switches are only held during the wire phase
        # (store-and-forward pipelining: disjoint sub-trees overlap, §4.2.1);
        # the exclusive Bus holds its switch end-to-end ("only one data path
        # can be enabled", §4.2.2).
        exclusive = ic.exclusive
        flit_train = ic.hop_latency_per_flit * flits
        # the source's read port and the destination's write port gate the
        # transfer; compute on either block must also have drained.
        ready = max(
            self._port_free[("r", src)],
            self._port_free[("w", dst)],
            self._block_clock[src],
            self._block_clock[dst],
            self._barrier_time,
        )
        ready0 = ready  # port-ready time, before queueing behind switches
        if exclusive:
            # "only one data path can be enabled when using the bus
            # interconnection" (§4.2.2): the switch is held for the row
            # read and the wire traversal; the destination's write-back
            # overlaps the next arbitration.
            for k in keys:
                ready = max(ready, self._switch_free[k])
            finish = ready + dur
            for k in keys:
                if plan is None:
                    self._switch_free[k] = ready + read_t + wire
                else:
                    self._switch_free[k] = ready + attempts * (read_t + wire) + backoff
            link_busy = (
                read_t + wire if plan is None
                else attempts * (read_t + wire) + backoff
            )
        else:
            # H-tree switches behave as pipelined FIFO servers: each one
            # serves a transfer for one flit-train (wormhole cut-through),
            # so disjoint sub-trees — and back-to-back transfers through
            # the same switch — overlap (§4.2.1).  The gate is the switch's
            # *cumulative service load*, not the last reservation time:
            # a transfer that starts late (blocked on a port) does not
            # head-of-line-block unrelated traffic through the switch.
            for k in keys:
                ready = max(ready, self._switch_free[k])
            finish = ready + dur
            for k in keys:
                self._switch_free[k] += flit_train if plan is None else attempts * flit_train
            link_busy = flit_train if plan is None else attempts * flit_train
        # the source is free again once the row buffer has drained into the
        # network; the destination holds its write port to the end.  The
        # compute clocks are untouched: ordering against arithmetic is
        # enforced by _compute_start and the ready condition above.
        if plan is None:
            self._port_free[("r", src)] = ready + read_t + flit_train
        else:
            self._port_free[("r", src)] = (
                ready + attempts * (read_t + flit_train) + backoff
            )
        self._port_free[("w", dst)] = finish

        energy = self.costs.row_move_energy_j(n_rows, words=inst.words)
        energy += hops * n_rows * inst.words * dev.e_search_j  # switch traversal
        if plan is not None and attempts > 1:
            # retransmissions repeat the row reads and switch traversals.
            energy = attempts * energy

        n_hops = hops if plan is None else hops * attempts
        n_flits = flits if plan is None else flits * attempts
        report.transfers += 1
        report.hops += n_hops
        report.flits += n_flits
        report.bytes_moved += n_rows * inst.words * 4
        if self.counters is not None:
            self.counters.transfer(
                keys, ready, link_busy, n_flits, n_hops,
                n_rows * inst.words * 4, ready - ready0,
            )

        if plan is not None and not delivered:
            # undeliverable payload: the destination keeps its stale rows.
            report.add(inst.tag, inst.op, dur, energy)
            return
        if functional:
            sblk = self.chip.block(src)
            dblk = self.chip.block(dst)
            sr = inst.src_rows if inst.src_rows is not None else inst.rows
            s_sel = slice(sr[0], sr[1]) if isinstance(sr, tuple) else np.asarray(sr)
            d_sel = (
                slice(inst.rows[0], inst.rows[1])
                if isinstance(inst.rows, tuple)
                else np.asarray(inst.rows)
            )
            src_vals = sblk.data[s_sel, inst.src1:inst.src1 + inst.words]
            if src_vals.shape[0] != n_rows:
                raise ValueError("TRANSFER src/dst row selections must match in size")
            dblk.data[d_sel, inst.dst:inst.dst + inst.words] = src_vals
            if plan is not None and plan.corrupt_payload:
                # undetected corruption (protection off): one flipped bit
                # lands in the delivered payload.
                off, word, bit = f.draw_corrupt_bit(n_rows, inst.words)
                row = self._abs_row(inst.rows, off)
                dblk.flip_bit(row, inst.dst + word, bit)
        report.add(inst.tag, inst.op, dur, energy)

    def _lut(self, inst: Instruction, functional: bool, report: TimingReport) -> None:
        """Alg. 1: R_1 (index fetch), R_2 (content fetch), W_1 (write back).

        ``inst.block`` is the requester, ``inst.src_block`` the LUT block,
        ``inst.rows`` the row range served (vectorized micro-sequence),
        ``src1``/``dst`` the Offset_S / Offset_D word columns.
        """
        dev = self.costs.device
        n = inst.n_rows
        keys, hops, extra, ic = self.chip.transfer_path(inst.src_block, inst.block)
        hop_lat = ic.hop_latency_per_flit
        per_row = 2 * dev.t_row_read_s + dev.t_row_write_s + 2 * (hops * hop_lat + extra)
        dur = n * per_row
        ready = max(
            self._compute_start(inst.block), self._compute_start(inst.src_block)
        )
        ready0 = ready  # block-ready time, before queueing behind switches
        for k in keys:
            ready = max(ready, self._switch_free[k])
        finish = ready + dur
        self._port_free[("w", inst.block)] = finish
        self._port_free[("r", inst.src_block)] = finish
        for k in keys:
            self._switch_free[k] = finish
        energy = n * (2 * dev.e_search_j + 32 * 0.5 * (dev.e_set_j + dev.e_reset_j))

        report.transfers += 1
        report.hops += hops
        report.flits += 2 * n  # index out + entry back, one word each
        report.bytes_moved += 2 * n * 4
        if self.counters is not None:
            # the LUT micro-sequence holds its switches end-to-end
            self.counters.transfer(
                keys, ready, dur, 2 * n, hops, 2 * n * 4, ready - ready0
            )

        if functional:
            req = self.chip.block(inst.block)
            lut = self.chip.block(inst.src_block)
            for r in range(inst.rows[0], inst.rows[1]):
                index = int(req.data[r, inst.src1])
                lr, lc = divmod(index, lut.row_words)
                req.data[r, inst.dst] = lut.data[lr, lc]
        report.add(inst.tag, inst.op, dur, energy)

    def _hostop(self, inst: Instruction, report: TimingReport) -> None:
        dur = self.host.time_s(inst.count)
        energy = self.host.energy_j(inst.count)
        start = max(self._host_clock, self._barrier_time)
        if self.counters is not None:
            self.counters.host(start, start + dur, start - self._host_clock)
        self._host_clock = start + dur
        report.add(inst.tag or "host", inst.op, dur, energy)

    def _dram(self, inst: Instruction, report: TimingReport) -> None:
        n_bytes = inst.meta.get("bytes", inst.words * 4 * max(inst.n_rows, 1))
        dur = self.chip.hbm.transfer_time_s(n_bytes)
        energy = self.chip.hbm.transfer_energy_j(n_bytes)
        start = max(self._dram_clock, self._barrier_time)
        if inst.block is not None:
            start = max(start, self._block_clock[inst.block])
        finish = start + dur
        if self.counters is not None:
            self.counters.dram(start, finish, start - self._dram_clock,
                               block=inst.block)
        self._dram_clock = finish
        if inst.block is not None:
            self._block_clock[inst.block] = finish
        report.add(inst.tag or "dram", inst.op, dur, energy)

    def _barrier(self, report: TimingReport) -> None:
        now = self._now()
        for b in list(self._block_clock):
            self._block_clock[b] = now
        for k in list(self._port_free):
            self._port_free[k] = now
        self._host_clock = now
        self._dram_clock = now
        self._barrier_time = now
