"""Hardware counters: zero-divergence recording + makespan attribution.

The contract under test (DESIGN.md §14): :class:`HardwareCounters` is a
*passive* side-channel — a counters-on run is bit-identical to a
counters-off run (reports, state digests, both plan replay and the serial
audit path), its totals equal the :class:`TimingReport`'s interconnect
aggregates, the scheduler's resource model agrees with the measured
occupancy, and :func:`attribute_makespan` partitions the makespan exactly
among the recorded resources.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.programs import build_check_program
from repro.analysis.tracecheck import validate_counters
from repro.eval.bench import (
    history_summary,
    regression_failures,
    render_history,
)
from repro.obs.counters import (
    HardwareCounters,
    attribute_makespan,
    counters_enabled,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import COUNTERS_PID, counter_track_events
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.params import CHIP_CONFIGS
from repro.pim.schedule import plan_slack, verify_resource_model
from repro.workloads.benchmarks import BENCHMARKS


def _benchmark_program(key):
    spec = BENCHMARKS[key]
    return build_check_program(
        spec.physics, spec.refinement_level, chip="2GB",
        flux_kind=spec.flux_kind, order=2,
    ).program


def _run(program, counters, serial=False, functional=False):
    chip = PimChip(CHIP_CONFIGS["2GB"])
    ex = ChipExecutor(chip, counters=counters)
    rep = ex.run(program, functional=functional, serial=serial)
    return chip, ex, rep


def _state_digest(chip):
    h = hashlib.sha256()
    for tid in sorted(chip._tiles):
        tile = chip._tiles[tid]
        for lid in sorted(tile._blocks):
            h.update(tile._blocks[lid].data.tobytes())
    return h.hexdigest()


def _assert_reports_identical(a, b, what):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"{what}: TimingReport.{f.name} diverged"
        if isinstance(va, dict):
            assert list(va) == list(vb), f"{what}: {f.name} key order diverged"


# --------------------------------------------------------------------- #
# zero divergence: counters on == counters off, bit for bit
# --------------------------------------------------------------------- #


class TestOnOffBitIdentity:
    """Recording must never perturb execution: same reports, same state."""

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_plan_replay_identical(self, key):
        program = _benchmark_program(key)
        chip_off, _, off = _run(program, counters=False, functional=True)
        chip_on, ex_on, on = _run(program, counters=True, functional=True)
        _assert_reports_identical(off, on, f"{key} counters-on")
        assert _state_digest(chip_on) == _state_digest(chip_off)
        # and the recorder actually saw the run
        assert ex_on.counters.block_busy_s

    @pytest.mark.parametrize("key", ["acoustic_4", "elastic_central_4"])
    def test_serial_audit_identical(self, key):
        program = _benchmark_program(key)
        chip_off, _, off = _run(program, counters=False, serial=True,
                                functional=True)
        chip_on, _, on = _run(program, counters=True, serial=True,
                              functional=True)
        _assert_reports_identical(off, on, f"{key} serial counters-on")
        assert _state_digest(chip_on) == _state_digest(chip_off)

    def test_scheduled_elastic_r1_step_identical(self):
        """The transfer-heavy step (elastic r=1, four blocks per element,
        scheduled): 4,360 TRANSFERs in short runs between short segments,
        replayed twice functionally and once analytically from cold
        clocks, with and without the recorder."""
        from repro.core.kernels.elastic import ElasticFourBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import ElasticMaterial, HexMesh, ReferenceElement
        from repro.pim.schedule import schedule_plan

        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        rng = np.random.default_rng(9)
        n = mesh.n_elements
        mat = ElasticMaterial(lam=rng.uniform(1.0, 2.0, n),
                              mu=rng.uniform(0.5, 1.5, n),
                              rho=rng.uniform(0.8, 1.2, n))
        cfg = CHIP_CONFIGS["512MB"]
        kern = ElasticFourBlockKernels(mesh, elem, mat,
                                       ElementMapper(mesh.m, cfg, 4),
                                       flux_kind="central")
        state = (0.1 * rng.standard_normal((9, n, elem.n_nodes))
                 ).astype(np.float32)
        step = kern.time_step(1e-4)
        runs = []
        for counters in (False, True):
            chip = PimChip(cfg)
            ex = ChipExecutor(chip, counters=counters)
            ex.run(kern.setup() + kern.load_state(state), functional=True)
            plan = schedule_plan(ex, ex.lower(step))
            assert plan.schedule_stats["kept"] and plan.n_transfers == 4360
            reps = [ex.run(plan, functional=True) for _ in range(2)]
            ex.reset_clocks()
            reps.append(ex.run(plan, functional=False))
            runs.append((chip, ex, reps))
        (chip_off, _, off), (chip_on, ex_on, on) = runs
        for k, (a, b) in enumerate(zip(off, on)):
            _assert_reports_identical(a, b, f"elastic r=1 replay {k}")
        assert _state_digest(chip_on) == _state_digest(chip_off)
        assert ex_on.counters.transfers == on[-1].transfers == 4360

    def test_env_knob_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_COUNTERS", raising=False)
        assert not counters_enabled()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        assert ex.counters is None
        monkeypatch.setenv("REPRO_COUNTERS", "1")
        assert counters_enabled()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        assert ex.counters is not None


# --------------------------------------------------------------------- #
# counter totals == TimingReport aggregates
# --------------------------------------------------------------------- #


class TestTotalsMatchReport:
    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_plan_totals(self, key):
        program = _benchmark_program(key)
        _, ex, rep = _run(program, counters=True)
        c = ex.counters
        assert c.transfers == rep.transfers
        assert c.flits == rep.flits
        assert c.hops == rep.hops
        assert c.bytes_moved == rep.bytes_moved

    def test_serial_equals_plan_recording(self):
        """The deferred replay records and the eager serial records must
        agree exactly — same intervals, same NOR counts, per block."""
        program = _benchmark_program("acoustic_4")
        _, exp, rp = _run(program, counters=True)
        _, exs, rs = _run(program, counters=True, serial=True)
        assert rp == rs
        assert exp.counters.block_busy_s == exs.counters.block_busy_s
        assert exp.counters.block_nors == exs.counters.block_nors
        assert exp.counters.block_ops == exs.counters.block_ops

    def test_busy_matches_plan_footprint(self):
        """Counter busy == the plan's static footprint per block.

        Both are left-folds of the same durations but from different
        origins (runtime starts vs zero), so agreement is to float
        rounding, not bit-exact."""
        program = _benchmark_program("acoustic_4")
        chip = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip, counters=True)
        plan = ex.lower(program)
        ex.run(plan, functional=False)
        fp = plan.footprint()
        busy = ex.counters.block_busy_s
        for b, expected in fp["block_busy_s"].items():
            assert busy.get(b, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_queue_and_channel_counters_nonnegative(self):
        program = _benchmark_program("elastic_central_4")
        _, ex, _ = _run(program, counters=True)
        c = ex.counters
        assert c.transfer_queue_s >= 0.0
        assert 0 <= c.transfers_queued <= c.transfers
        assert c.host_busy_s >= 0.0 and c.host_stall_s >= 0.0
        assert c.dram_busy_s >= 0.0 and c.dram_stall_s >= 0.0
        assert all(v > 0.0 for v in c.link_busy_s.values())
        as_dict = c.as_dict(link_label=ex.chip.link_label)
        assert as_dict["transfers"] == c.transfers
        assert all(k.startswith("link:") for k in as_dict["link_busy_s"])


# --------------------------------------------------------------------- #
# scheduler resource model vs measured occupancy
# --------------------------------------------------------------------- #


class TestSchedulerCrossCheck:
    @pytest.mark.parametrize("key", ["acoustic_4", "elastic_central_4"])
    def test_resource_model_agrees(self, key):
        program = _benchmark_program(key)
        chip = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip)
        plan = ex.lower(program)
        mismatches = verify_resource_model(ex, plan)
        assert mismatches == [], "\n".join(mismatches)

    def test_plan_slack_nonnegative(self):
        program = _benchmark_program("acoustic_4")
        chip = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip)
        plan = ex.lower(program)
        slack = plan_slack(ex, plan)
        assert len(slack) == len(plan.instructions)
        assert float(np.min(slack)) >= -1e-12

    def test_plan_slack_charges_an_edge_only_the_enforced_wait(self):
        """A TRANSFER frees its source read port after ``read_t +
        flit_train``, so an ADD that then overwrites the source column
        starts before the transfer ends: on the critical path, slack 0
        (charging the edge the full transfer gave -48 ns)."""
        from repro.pim.isa import Instruction, Opcode

        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        plan = ex.lower([
            Instruction(Opcode.TRANSFER, block=1, src_block=0, rows=(0, 32),
                        src_rows=(0, 32), dst=0, src1=0, words=1),
            Instruction(Opcode.ADD, block=0, rows=(0, 32), dst=0, src1=1,
                        src2=2),
        ])
        assert plan_slack(ex, plan).tolist() == [0.0, 0.0]


# --------------------------------------------------------------------- #
# makespan attribution
# --------------------------------------------------------------------- #


class TestAttribution:
    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_shares_partition_makespan(self, key):
        program = _benchmark_program(key)
        _, ex, rep = _run(program, counters=True)
        at = ex.attribution()
        assert at.makespan_cycles == pytest.approx(
            rep.total_time_s * ex.chip.config.clock_hz, rel=1e-12
        )
        # acceptance invariant: shares sum to the makespan within 1%
        # (measured: exact to float rounding)
        assert sum(at.shares.values()) == pytest.approx(
            at.makespan_cycles, rel=1e-2
        )
        assert at.binding_resource != "idle"
        assert at.binding_resource in at.shares
        assert 0.0 < at.binding_share <= 1.0
        assert 0.0 <= at.idle_fraction < 1.0

    def test_utilization_and_render(self):
        program = _benchmark_program("acoustic_4")
        _, ex, _ = _run(program, counters=True)
        at = ex.attribution()
        assert 0.0 < at.block_util <= 1.0
        assert 0.0 < at.link_util <= 1.0
        out = at.render()
        assert "binding resource" in out and at.binding_resource in out
        d = at.as_dict()
        assert d["binding_resource"] == at.binding_resource
        assert d["block_util"] == at.block_util

    def test_attribution_without_counters_raises(self):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
        with pytest.raises(ValueError, match="no counters attached"):
            ex.attribution()

    def test_empty_recording_attributes_idle(self):
        at = attribute_makespan(HardwareCounters(), total_time_s=2.0,
                                clock_hz=10.0)
        assert at.shares == {"idle": 20.0}
        assert at.binding_resource == "idle"
        assert at.idle_fraction == 1.0


# --------------------------------------------------------------------- #
# merge (the --jobs path)
# --------------------------------------------------------------------- #


class TestMerge:
    def test_counters_merge_is_additive(self):
        program = _benchmark_program("acoustic_4")
        _, ex1, _ = _run(program, counters=True)
        _, ex2, _ = _run(program, counters=True)
        solo = ex1.counters.as_dict()
        ex1.counters.merge(ex2.counters)
        merged = ex1.counters.as_dict()
        assert merged["transfers"] == 2 * solo["transfers"]
        assert merged["flits"] == 2 * solo["flits"]
        for k, v in solo["block_busy_s"].items():
            assert merged["block_busy_s"][k] == pytest.approx(2 * v, rel=1e-12)
        for k, v in solo["block_nors"].items():
            assert merged["block_nors"][k] == 2 * v

    def test_metrics_merge_across_workers(self):
        """Simulated --jobs: per-worker registries fold into the parent."""
        parent = MetricsRegistry(enabled=True)
        for worker in range(3):
            reg = MetricsRegistry(enabled=True)
            reg.inc("counters.runs")
            reg.inc("counters.transfers_queued", 4)
            reg.observe("counters.block_util", 0.25 * (worker + 1))
            parent.merge(reg.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["counters.runs"] == 3
        assert snap["counters"]["counters.transfers_queued"] == 12
        util = snap["histograms"]["counters.block_util"]
        assert util["count"] == 3
        assert util["max"] == pytest.approx(0.75)


# --------------------------------------------------------------------- #
# Gantt timeline + trace validation
# --------------------------------------------------------------------- #


class TestTimeline:
    def _counters(self):
        program = _benchmark_program("acoustic_4")
        _, ex, rep = _run(program, counters=True)
        return ex, rep

    def test_counter_track_events_shape(self):
        ex, rep = self._counters()
        events = counter_track_events(ex.counters,
                                      link_label=ex.chip.link_label)
        assert all(e["pid"] == COUNTERS_PID for e in events)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "hardware counters" for e in meta)
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert any(n.startswith("block:") for n in thread_names)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        horizon = rep.total_time_s * 1e6  # ts is in microseconds
        for e in slices:
            assert e["dur"] >= 0.0
            assert 0.0 <= e["ts"] <= horizon * (1 + 1e-9)

    def test_truncation_cap(self):
        ex, _ = self._counters()
        events = counter_track_events(ex.counters, max_events=5)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 5
        assert any(e["ph"] == "i" for e in events)  # "dropped N" marker

    def test_validate_counters(self):
        ex, _ = self._counters()
        chrome = {"traceEvents": counter_track_events(ex.counters)}
        doc = {"metrics": {"counters": {"counters.runs": {"count": 1}}}}
        assert validate_counters(doc, chrome) == []
        # negative: no counters.* metrics, no Gantt tracks
        errs = validate_counters({"metrics": {}}, {"traceEvents": []})
        assert any("counters.*" in e for e in errs)
        assert any("hardware counters" in e for e in errs)


# --------------------------------------------------------------------- #
# bench history: backfill tolerance
# --------------------------------------------------------------------- #


def _entry(**overrides):
    base = {
        "timestamp": "2026-08-08T00:00:00",
        "executor_step_s": 0.003,
        "executor_serial_step_s": 0.5,
        "lower_s": 0.01,
        "speedup_vs_seed": {"executor_step_s": 1.5},
        "cache_hit_rate": 1.0,
        "makespan_cycles": 1e6,
        "scheduler_speedup": 1.0,
        "block_util": 0.8,
        "link_util": 0.1,
        "binding_resource": "block:1",
        "counters_overhead": 1.01,
        "optimality_gap": 1.2,
    }
    base.update(overrides)
    return base


class TestBenchHistory:
    def test_render_marks_backfilled_rows(self):
        old = _entry(block_util=None, link_util=None, binding_resource=None,
                     counters_overhead=None)
        del old["makespan_cycles"]
        doc = {"history": [old, _entry()]}
        out = render_history(doc)
        assert "backfill(5)" in out
        assert "--" in out          # unmeasured cells render as --
        assert "block:1" in out
        assert "2 entries" in out

    def test_render_flags_regressions(self):
        bad = _entry(executor_step_s=10.0)
        out = render_history({"history": [bad]})
        assert "REGRESSION" in out

    def test_render_empty_history(self):
        # stays a table: header row, placeholder row, seed-baseline footer
        out = render_history({})
        assert "(no entries yet)" in out
        assert "step_ms" in out and "repro bench" in out

    def test_backfilled_entries_never_fail_the_guard(self):
        old = _entry(block_util=None, counters_overhead=None)
        assert regression_failures(old) == []
        doc = {"history": [old, _entry()]}
        summary = history_summary(doc)
        assert summary["entries"] == 2
