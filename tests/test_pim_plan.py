"""Execution plans as the fault-free execution path: bit-identity everywhere.

The contract under test (DESIGN.md §13): every fault-free
``ChipExecutor.run``, analytic and functional, replays a lowered
:class:`~repro.pim.plan.ExecutionPlan`; the per-instruction serial
dispatcher is the audit reference behind ``run(..., serial=True)`` and
runs every stream with an enabled fault model.  Plan replay must be
*bit-identical* to that reference on every paper benchmark: same
:class:`TimingReport` (totals, phase split, interconnect accounting, dict
key order) and same block states after functional execution.  Plans
transparently re-lower when the chip's routing epoch moves, and the
MASIM-style makespan scheduler (:mod:`repro.pim.schedule`) may only emit
permutations the dependency DAG proves legal (PL004).
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.programs import build_check_program
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor, ExecutionPlan
from repro.pim.isa import Opcode
from repro.pim.params import CHIP_CONFIGS
from repro.pim.plan import fold_array, lower_program
from repro.workloads.benchmarks import BENCHMARKS


def _run_mode(program, mode, chip_name="2GB", functional=False, fault_cfg=None):
    """One fresh executor per mode: clocks all start at t=0.

    Returns ``(chip, executor, report)`` so callers can compare block
    states and fault-event digests, not just reports.
    """
    chip = PimChip(CHIP_CONFIGS[chip_name])
    faults = None
    if fault_cfg is not None:
        from repro.faults.model import FaultModel

        faults = FaultModel(fault_cfg)
    ex = ChipExecutor(chip, faults=faults)
    rep = ex.run(program, functional=functional, serial=(mode == "serial"))
    return chip, ex, rep


def _state_digest(chip):
    """sha256 over every materialized block's data, in (tile, block) order."""
    h = hashlib.sha256()
    for tid in sorted(chip._tiles):
        tile = chip._tiles[tid]
        for lid in sorted(tile._blocks):
            h.update(tile._blocks[lid].data.tobytes())
    return h.hexdigest()


def _assert_reports_identical(a, b, what):
    """Field-by-field bit-identity, incl. dict key order (fold order)."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"{what}: TimingReport.{f.name} diverged"
        if isinstance(va, dict):
            assert list(va) == list(vb), f"{what}: {f.name} key order diverged"
    assert a.phase_times() == b.phase_times(), f"{what}: phase_times diverged"
    assert list(a.phase_times()) == list(b.phase_times())


def _benchmark_program(key):
    spec = BENCHMARKS[key]
    return build_check_program(
        spec.physics, spec.refinement_level, chip="2GB",
        flux_kind=spec.flux_kind, order=2,
    ).program


class TestBenchmarkBitIdentity:
    """All six paper benchmarks: serial audit == plan replay, bit for bit,
    analytic and functional (the sweep that proves plan replay is safe as
    the path of every fault-free run)."""

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_analytic_plan_matches_serial(self, key):
        program = _benchmark_program(key)
        _, _, serial = _run_mode(program, "serial")
        _, _, plan = _run_mode(program, "plan")
        _assert_reports_identical(serial, plan, f"{key} plan")
        # the headline fields the acceptance criteria name, explicitly:
        assert plan.total_time_s == serial.total_time_s
        assert plan.dynamic_energy_j == serial.dynamic_energy_j
        assert plan.transfers == serial.transfers
        assert plan.flits == serial.flits
        assert plan.hops == serial.hops

    @pytest.mark.parametrize("key", sorted(BENCHMARKS))
    def test_functional_plan_matches_serial(self, key):
        program = _benchmark_program(key)
        chip_s, _, serial = _run_mode(program, "serial", functional=True)
        chip_p, _, plan = _run_mode(program, "plan", functional=True)
        _assert_reports_identical(serial, plan, f"{key} functional")
        assert _state_digest(chip_p) == _state_digest(chip_s)


@pytest.fixture
def acoustic_program():
    checked = build_check_program("acoustic", 4, chip="2GB", order=2)
    return checked.program


class TestLowering:
    def test_plan_shape(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        assert isinstance(plan, ExecutionPlan)
        assert plan.n_instructions == len(acoustic_program)
        n_xfer = sum(1 for i in acoustic_program if i.op is Opcode.TRANSFER)
        assert plan.n_transfers == n_xfer
        # every instruction lands in exactly one step
        covered = plan.n_dispatch + plan.n_transfers + sum(
            p.n for kind, p in plan.steps if kind == 0
        )
        assert covered == len(acoustic_program)
        assert 0.0 < plan.vectorized_fraction <= 1.0
        assert plan.chip_name == "2GB"

    def test_opcode_rows_match_stream(self, acoustic_program):
        from repro.pim.plan import OP_IDS

        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        for row, inst in zip(plan.array, acoustic_program):
            assert int(row["op"]) == OP_IDS[inst.op]

    def test_plan_reuse_counts(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        runs0 = m.value("executor.plan.runs")
        lowered0 = m.value("executor.plan.lowered")
        plan = ex.lower(acoustic_program)
        ex.run(plan, functional=False)
        ex.run(plan, functional=False)
        ex.run(plan, functional=False)
        assert plan.replays == 3
        assert m.value("executor.plan.runs") - runs0 == 3
        assert m.value("executor.plan.lowered") - lowered0 == 1

    def test_replays_are_self_identical(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        first = ex.run(plan, functional=False)
        ex.reset_clocks()
        second = ex.run(plan, functional=False)
        _assert_reports_identical(first, second, "replay")

    def test_lower_verify_runs_checker(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program, verify=True)
        assert plan.n_instructions == len(acoustic_program)


class TestUniversalPath:
    """Plan replay runs every fault-free stream; serial dispatch is the
    audit (``serial=True``) and the fault-injection engine."""

    def test_functional_run_takes_plan_path(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        runs0 = m.value("executor.plan.runs")
        rep = ex.run(plan, functional=True)
        assert m.value("executor.plan.runs") == runs0 + 1
        # ...and it matches the serial audit reference exactly.
        chip2 = PimChip(CHIP_CONFIGS["2GB"])
        ex2 = ChipExecutor(chip2)
        raw = ex2.run(acoustic_program, functional=True, serial=True)
        _assert_reports_identical(rep, raw, "functional plan")
        assert _state_digest(ex.chip) == _state_digest(chip2)

    def test_fault_model_dispatches_serially(self, acoustic_program):
        """An enabled fault model sends even a lowered plan through serial
        dispatch, with the same outcome as asking for it; a model that
        cannot inject anything keeps plan replay."""
        from repro.faults.model import FaultConfig, FaultModel
        from repro.obs import get_metrics

        m = get_metrics()
        cfg = FaultConfig.at_rate(1e-4, seed=11)
        chip = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip, faults=FaultModel(cfg))
        plan = ex.lower(acoustic_program)
        serial0 = m.value("executor.serial.runs")
        plan0 = m.value("executor.plan.runs")
        rep = ex.run(plan, functional=True)
        assert m.value("executor.serial.runs") == serial0 + 1
        assert m.value("executor.plan.runs") == plan0
        assert plan.replays == 0
        assert rep.faults_injected > 0  # the model really fired
        chip_s, ex_s, ref = _run_mode(plan.instructions, "serial",
                                      functional=True, fault_cfg=cfg)
        _assert_reports_identical(rep, ref, "fault run")
        assert ex.faults.event_digest() == ex_s.faults.event_digest()
        assert _state_digest(chip) == _state_digest(chip_s)

        off = FaultConfig(seed=11)
        assert not off.enabled
        chip_off = PimChip(CHIP_CONFIGS["2GB"])
        rep_off = ChipExecutor(chip_off, faults=FaultModel(off)).run(
            plan, functional=True)
        assert m.value("executor.plan.runs") == plan0 + 1
        assert m.value("executor.serial.runs") == serial0 + 2
        assert plan.replays == 1
        chip_ref, _, ref_off = _run_mode(plan.instructions, "serial",
                                         functional=True)
        _assert_reports_identical(rep_off, ref_off, "disabled-model run")
        assert _state_digest(chip_off) == _state_digest(chip_ref)

    def test_serial_runs_are_counted(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        serial0 = m.value("executor.serial.runs")
        plan0 = m.value("executor.plan.runs")
        ex.run(acoustic_program, functional=False, serial=True)
        assert m.value("executor.serial.runs") == serial0 + 1
        assert m.value("executor.plan.runs") == plan0


class TestStaleRoutes:
    """Satellite 1: a routing-epoch bump must never replay stale paths."""

    def test_invalidate_routes_bumps_epoch(self):
        chip = PimChip(CHIP_CONFIGS["512MB"])
        e0 = chip.routing_epoch
        chip.transfer_path(0, 5)  # populate the memo
        chip.invalidate_routes()
        assert chip.routing_epoch == e0 + 1

    def test_stale_plan_relowers_transparently(self, acoustic_program):
        from repro.obs import get_metrics

        m = get_metrics()
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        plan = ex.lower(acoustic_program)
        fresh = ex.run(plan, functional=False)
        ex.chip.invalidate_routes()
        relowered0 = m.value("executor.plan.relowered")
        ex.reset_clocks()
        after = ex.run(plan, functional=False)
        assert m.value("executor.plan.relowered") == relowered0 + 1
        # same topology, so the re-lowered schedule is the same schedule
        _assert_reports_identical(fresh, after, "re-lowered")

    def test_mapper_remap_invalidates_chip_routes(self):
        """An ElementMapper spare-block remap bumps the live chip's epoch."""
        from repro.core.mapper import ElementMapper

        class _RemapFaults:
            """Stub: block 0 is bad, so every mapped block shifts by one."""

            def __init__(self):
                self.recorded = []

            def bad_blocks(self, n_blocks, block_rows, row_words):
                return {0}

            def record_remaps(self, n, detail=""):
                self.recorded.append((n, detail))

        cfg = CHIP_CONFIGS["512MB"]
        chip = PimChip(cfg)
        e0 = chip.routing_epoch
        faults = _RemapFaults()
        mapper = ElementMapper(2, cfg, 1, fault_model=faults,
                               chip_model=chip)
        assert faults.recorded, "stub never saw the remap"
        assert chip.routing_epoch == e0 + 1
        assert mapper.block_of(int(mapper.elements[0])) != 0

    def test_schedule_plan_relowers_a_stale_plan(self, acoustic_program):
        """Scheduling a plan lowered before a routing-epoch bump schedules
        a fresh lowering: the result, kept or not, carries the current
        epoch and replays without re-lowering (keeping its stats)."""
        from repro.pim.isa import Instruction
        from repro.pim.schedule import schedule_plan

        chain = [Instruction(Opcode.ADD, block=0, rows=(0, 8), dst=1,
                             src1=1, src2=2) for _ in range(3)]
        for program, kept in ((acoustic_program, True), (chain, False)):
            ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
            stale = ex.lower(program)
            ex.chip.invalidate_routes()
            sched = schedule_plan(ex, stale)
            fresh = schedule_plan(ex, ex.lower(program))
            assert sched.schedule_stats["kept"] is kept
            assert sched.routing_epoch == ex.chip.routing_epoch
            assert sched.schedule_stats == fresh.schedule_stats
            ex.reset_clocks()
            rep = ex.run(sched, functional=False)
            assert rep.emission_makespan_cycles == (
                sched.schedule_stats["emission_makespan_s"]
                * ex.chip.config.clock_hz)

    def test_stale_plan_relowers_once_per_chip_and_epoch(self, monkeypatch):
        """After a routing-epoch bump, three functional replays of a
        scheduled acoustic r=1 step lower it once and build its programs
        once; the re-lowered plan keeps the schedule stats, so every
        report still carries the emission-order makespan."""
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import AcousticMaterial, HexMesh, ReferenceElement
        from repro.obs import get_metrics
        from repro.pim.schedule import schedule_plan

        m = get_metrics()
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        chip = PimChip(CHIP_CONFIGS["512MB"])
        kern = AcousticOneBlockKernels(
            mesh, elem, AcousticMaterial.homogeneous(mesh.n_elements),
            ElementMapper(mesh.m, chip.config, 1), flux_kind="riemann")
        ex = ChipExecutor(chip)
        ex.run(kern.setup() + kern.load_state(
            np.ones((4, mesh.n_elements, elem.n_nodes), np.float32)),
            functional=True)
        plan = schedule_plan(ex, ex.lower(kern.time_step(1e-4)))
        assert plan.schedule_stats["kept"]
        emission = (plan.schedule_stats["emission_makespan_s"]
                    * chip.config.clock_hz)
        chip.invalidate_routes()
        built = []
        real = ExecutionPlan.build_programs
        monkeypatch.setattr(ExecutionPlan, "build_programs",
                            lambda p, c: built.append(p) or real(p, c))
        lowered0 = m.value("executor.plan.lowered")
        relowered0 = m.value("executor.plan.relowered")
        for _ in range(3):
            rep = ex.run(plan, functional=True)
            assert rep.emission_makespan_cycles == emission > 0.0
        assert m.value("executor.plan.lowered") == lowered0 + 1
        assert m.value("executor.plan.relowered") == relowered0 + 1
        fresh = plan.relowered[1]
        assert built == [fresh] and fresh.replays == 3
        assert fresh.schedule_stats is plan.schedule_stats

    def test_plan_records_lowering_epoch(self, acoustic_program):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
        ex.chip.invalidate_routes()
        plan = ex.lower(acoustic_program)
        assert plan.routing_epoch == ex.chip.routing_epoch >= 1


class TestScheduler:
    """MASIM-style makespan scheduling: legal, deterministic, never worse."""

    @staticmethod
    def _lowered(program, chip_name="2GB"):
        ex = ChipExecutor(PimChip(CHIP_CONFIGS[chip_name]))
        return ex, ex.lower(program)

    def test_dependency_edges_raw_waw_war(self):
        from repro.pim.isa import Instruction
        from repro.pim.schedule import dependency_edges

        prog = [
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=1, value=1.0),
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=2, value=2.0),
            Instruction(Opcode.ADD, block=0, rows=(0, 8), dst=3, src1=1, src2=2),
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 8), dst=1, value=9.0),
            Instruction(Opcode.BROADCAST, block=1, rows=(0, 8), dst=1, value=5.0),
        ]
        preds = dependency_edges(prog)
        assert preds[0] == [] and preds[1] == []
        assert preds[2] == [0, 1]           # RAW on cols 1 and 2
        assert 2 in preds[3]                # WAR: rewrite col 1 after the read
        assert preds[4] == []               # different block: independent

    def test_barrier_is_a_full_fence(self):
        from repro.pim.isa import Instruction, barrier
        from repro.pim.schedule import dependency_edges

        prog = [
            Instruction(Opcode.BROADCAST, block=0, rows=(0, 4), dst=1, value=1.0),
            barrier(),
            Instruction(Opcode.BROADCAST, block=7, rows=(0, 4), dst=1, value=2.0),
        ]
        preds = dependency_edges(prog)
        assert preds[1] == [0]
        assert preds[2] == [1]  # fenced even though the blocks are disjoint

    def test_verify_order_rejects_violations(self):
        from repro.pim.schedule import verify_order

        preds = [[], [0], [1]]
        assert verify_order(preds, [0, 1, 2]) == []
        assert verify_order(preds, [1, 0, 2])  # 1 before its dep 0
        assert verify_order(preds, [0, 0, 2])  # not a permutation

    def test_schedule_order_is_legal_and_deterministic(self, acoustic_program):
        from repro.pim.schedule import dependency_edges, schedule_order, verify_order

        ex, plan = self._lowered(acoustic_program)
        preds = dependency_edges(plan.instructions)
        order = schedule_order(ex, plan, preds)
        assert verify_order(preds, order) == []
        assert order == schedule_order(ex, plan, preds)

    def test_schedule_plan_never_worse_and_reports_stats(self, acoustic_program):
        from repro.pim.schedule import schedule_plan

        ex, plan = self._lowered(acoustic_program)
        sched = schedule_plan(ex, plan)
        stats = sched.schedule_stats
        assert stats is not None
        assert stats["scheduled_makespan_s"] <= stats["emission_makespan_s"]
        assert stats["improvement"] >= 1.0
        assert stats["kept"] == (stats["improvement"] > 1.0)
        assert len(stats["permutation"]) == plan.n_instructions
        # the scheduled plan replays like any other plan
        ex.reset_clocks()
        rep = ex.run(sched, functional=False)
        clock = ex.chip.config.clock_hz
        assert rep.total_time_s == pytest.approx(
            stats["scheduled_makespan_s"], rel=1e-12)
        assert rep.makespan_cycles == pytest.approx(
            rep.total_time_s * clock, rel=1e-12)
        assert rep.emission_makespan_cycles == pytest.approx(
            stats["emission_makespan_s"] * clock, rel=1e-12)

    def test_scheduled_functional_state_matches_serial(self, acoustic_program):
        from repro.pim.schedule import schedule_plan

        chip_s, _, _ = _run_mode(acoustic_program, "serial", functional=True)
        chip_p = PimChip(CHIP_CONFIGS["2GB"])
        ex = ChipExecutor(chip_p)
        sched = schedule_plan(ex, ex.lower(acoustic_program))
        ex.reset_clocks()
        ex.run(sched, functional=True)
        assert _state_digest(chip_p) == _state_digest(chip_s)

    @pytest.mark.parametrize("key", sorted(BENCHMARKS)[:2])
    def test_pl004_clean_on_benchmarks(self, key):
        from repro.analysis.checker import CheckContext
        from repro.analysis.lowering import LoweringPass

        program = _benchmark_program(key)
        chip = PimChip(CHIP_CONFIGS["2GB"])
        findings = LoweringPass().run(program, CheckContext.for_chip(chip))
        assert [f for f in findings if f.code == "PL004"] == []


class TestFoldArray:
    """fold_array replays the serial dispatcher's left-fold accumulation."""

    def test_matches_sequential_left_fold(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 64, 65, 500):
            vals = rng.standard_normal(n) * 1e-6
            base = 0.125
            acc = base
            for v in vals:
                acc = acc + v
            assert fold_array(base, vals) == acc  # bitwise, not approx

    def test_empty_values(self):
        assert fold_array(1.5, np.array([])) == 1.5
        assert fold_array(1.5, ()) == 1.5

    def test_tuple_of_python_floats_folds_like_the_array(self):
        """Segments keep per-block durations as tuples of Python floats;
        both forms fold to the same bits, short and long."""
        rng = np.random.default_rng(5)
        for n in (1, 3, 64, 65, 300):
            vals = rng.standard_normal(n) * 1e-7
            as_tuple = tuple(vals.tolist())
            assert all(type(v) is float for v in as_tuple)
            for base in (0.0, 3.25e-5):
                got = fold_array(base, as_tuple)
                want = fold_array(base, vals)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestLintRules:
    """The repo lint rejects dispatch loops (RL004), _dispatch leaks (RL005),
    silent broad excepts (RL007), plan-replay internals outside the
    executors (RL008), rebinding of block storage (RL009) and environment
    knobs outside the kept list (RL010)."""

    @staticmethod
    def _lint(tmp_path, rel, source):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "lint_repo", Path(__file__).resolve().parents[1] / "scripts" / "lint_repo.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return [v[2] for v in mod._lint_file(path, tmp_path)]

    def test_flags_dispatch_loop(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        if i.op == 1:\n"
                           "            pass\n")
        assert "RL004" in codes

    def test_allows_executor_and_comprehensions(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/executor.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        x = i.op\n")
        assert "RL004" not in codes
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "def f(insts):\n"
                           "    return [i for i in insts if i.op == 1]\n")
        assert "RL004" not in codes

    def test_scheduler_may_walk_streams(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/schedule.py",
                           "def f(insts):\n"
                           "    for i in insts:\n"
                           "        x = i.op\n")
        assert "RL004" not in codes

    def test_flags_dispatch_reference_outside_executor(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f(ex, inst):\n"
                           "    return ex._dispatch(inst, True, None)\n")
        assert "RL005" in codes

    def test_allows_dispatch_inside_executor(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/pim/executor.py",
                           "def f(ex, inst):\n"
                           "    return ex._dispatch(inst, True, None)\n")
        assert "RL005" not in codes

    def test_flags_silent_broad_except(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except Exception:\n"
                           "        pass\n")
        assert "RL007" in codes

    def test_flags_bare_except_and_tuple(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except:\n"
                           "        ...\n")
        assert "RL007" in codes
        codes = self._lint(tmp_path, "src/repro/core/bad2.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except (ValueError, Exception):\n"
                           "        pass\n")
        assert "RL007" in codes

    def test_allows_narrow_or_logging_except(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "def f():\n"
                           "    try:\n"
                           "        g()\n"
                           "    except ValueError:\n"
                           "        pass\n")
        assert "RL007" not in codes
        codes = self._lint(tmp_path, "src/repro/core/ok2.py",
                           "def f(log):\n"
                           "    try:\n"
                           "        g()\n"
                           "    except Exception:\n"
                           "        log.warning('g failed')\n")
        assert "RL007" not in codes

    def test_flags_plan_replay_internals_outside_executors(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           "def f(ex, plan, rep):\n"
                           "    ex._run_plan(plan, True, rep)\n")
        assert "RL008" in codes
        codes = self._lint(tmp_path, "src/repro/pim/multichip.py",
                           "def f(ex, plan, rep):\n"
                           "    ex._run_plan(plan, True, rep)\n")
        assert "RL008" not in codes

    @pytest.mark.parametrize("stmt", [
        "blk.data = arr",
        "blk.data += 1.0",
        "blk.data: object = arr",
        "blk.data, other = arr, None",
        "setattr(blk, 'data', arr)",
        "del blk.data",
    ])
    def test_flags_block_data_rebind(self, tmp_path, stmt):
        codes = self._lint(tmp_path, "src/repro/core/bad.py",
                           f"def f(blk, arr):\n    {stmt}\n")
        assert "RL009" in codes

    def test_allows_writes_through_block_view(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "def f(blk, arr):\n"
                           "    blk.data[:, 0] = arr\n"
                           "    blk.data[1:3] += 1.0\n"
                           "    return blk.data.copy()\n")
        assert "RL009" not in codes
        codes = self._lint(tmp_path, "src/repro/pim/block.py",
                           "class MemoryBlock:\n"
                           "    def __init__(self, data):\n"
                           "        self.data = data\n")
        assert "RL009" not in codes

    @pytest.mark.parametrize("source", [
        "import os\nX = os.environ.get('REPRO_SCHED')\n",
        "import os\nos.environ['REPRO_PLAN'] = 'off'\n",
        "def f(n):\n    return f'REPRO_SHARDS={n}'\n",
        "def f():\n    'Set ``REPRO_NEW_KNOB=1`` to turn it on.'\n",
    ], ids=["environ-get", "environ-set", "f-string", "docstring"])
    def test_flags_unlisted_env_knob(self, tmp_path, source):
        codes = self._lint(tmp_path, "src/repro/core/bad.py", source)
        assert "RL010" in codes

    def test_allows_kept_env_knobs(self, tmp_path):
        codes = self._lint(tmp_path, "src/repro/core/ok.py",
                           "import os\n"
                           "A = os.environ.get('REPRO_CACHE_DIR')\n"
                           "B = os.environ.get('REPRO_TRACE_FILE')\n"
                           "C = 'set REPRO_COUNTERS=1 or REPRO_LOG_LEVEL'\n"
                           "D = 'REPRO_NO_CACHE REPRO_JOBS REPRO_TRACE'\n")
        assert "RL010" not in codes
        # the rule covers src/ only: tests and scripts may name anything
        codes = self._lint(tmp_path, "tests/test_x.py",
                           "X = 'REPRO_SCHED'\n")
        assert "RL010" not in codes


class TestLowerProgramDirect:
    def test_rejects_transfer_without_source(self):
        from repro.pim.isa import Instruction

        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip)
        bad = [Instruction(op=Opcode.TRANSFER, block=1, dst=0, src1=0,
                           rows=(0, 4), words=1)]
        with pytest.raises(ValueError):
            lower_program(chip, ex.costs, bad)


# --------------------------------------------------------------------- #
# lockstep functional replay: randomized differential test vs serial
# --------------------------------------------------------------------- #

#: the random ops stay inside the first LS_ROWS rows and LS_COLS word
#: columns of each block, so destinations and sources collide often.
LS_ROWS = 12
LS_COLS = 4
_LS_OPS = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.COPY, Opcode.GATHER,
           Opcode.BROADCAST)


def _lockstep_chip():
    """Three tiles of four 16-row blocks: streams span tiles, and groups
    of one block (its 2-D view) and of several (the tile array) occur."""
    from repro.pim.params import ChipConfig

    block_bytes = 16 * 1024 // 8
    return PimChip(ChipConfig(name="lockstep-test",
                              capacity_bytes=3 * 4 * block_bytes,
                              block_rows=16, blocks_per_tile=4))


def _ls_rows():
    """Row selectors: ``(start, stop)`` ranges, evenly spaced index arrays
    and arbitrary index arrays without repeats (a repeated destination
    row leaves the result to numpy's write order)."""
    ranges = st.integers(0, LS_ROWS).flatmap(
        lambda r0: st.tuples(st.just(r0), st.integers(r0, LS_ROWS)))
    spaced = st.tuples(st.integers(0, LS_ROWS - 1), st.integers(1, 4),
                       st.integers(1, 4)).map(
        lambda t: np.arange(t[0], LS_ROWS, t[1])[:t[2]])
    arbitrary = st.lists(st.integers(0, LS_ROWS - 1), min_size=1,
                         max_size=LS_ROWS, unique=True).map(np.array)
    return st.one_of(ranges, spaced, arbitrary)


def _n_rows(rows):
    return rows[1] - rows[0] if isinstance(rows, tuple) else len(rows)


def _ls_shape():
    """One op shape ``(opcode, rows, dst, src1, src2, row_map)``."""
    col = st.integers(0, LS_COLS - 1)

    def with_map(t):
        n = _n_rows(t[1])
        rmap = (st.lists(st.integers(0, LS_ROWS - 1), min_size=n, max_size=n)
                .map(np.array) if t[0] is Opcode.GATHER else st.none())
        return rmap.map(lambda m: t + (m,))

    return st.tuples(st.sampled_from(_LS_OPS), _ls_rows(), col, col,
                     col).flatmap(with_map)


def _ls_instruction(block, shape, value):
    from repro.pim.isa import Instruction

    op, rows, dst, src1, src2, row_map = shape
    if op is Opcode.BROADCAST:
        return Instruction(op, block=block, rows=rows, dst=dst, value=value,
                           tag="volume")
    if op is Opcode.GATHER:
        return Instruction(op, block=block, rows=rows, dst=dst, src1=src1,
                           row_map=row_map, tag="flux")
    if op is Opcode.COPY:
        return Instruction(op, block=block, rows=rows, dst=dst, src1=src1,
                           tag="flux")
    return Instruction(op, block=block, rows=rows, dst=dst, src1=src1,
                       src2=src2, tag="integration")


def _ls_transfer(blocks):
    """A TRANSFER between two of ``blocks`` (often on different tiles):
    a row range or an index array without repeats on each side."""
    from repro.pim.isa import Instruction

    def rows(n):
        return st.one_of(
            st.integers(0, LS_ROWS - n).map(lambda r0: (r0, r0 + n)),
            st.permutations(range(LS_ROWS)).map(lambda p: np.array(p[:n])))

    def build(t):
        (src, dst), words, n = t
        col = st.integers(0, LS_COLS - words)
        return st.tuples(rows(n), rows(n), col, col).map(
            lambda r: Instruction(Opcode.TRANSFER, block=dst, src_block=src,
                                  rows=r[0], src_rows=r[1], dst=r[2],
                                  src1=r[3], words=words, tag="flux"))

    return st.tuples(
        st.lists(st.sampled_from(blocks), min_size=2, max_size=2, unique=True),
        st.integers(1, 2), st.integers(1, LS_ROWS)).flatmap(build)


def _xfer(src, dst, rows, src_rows, dst_col=0, src1=0, words=1,
          tag="flux:fetch"):
    """A TRANSFER of ``src_rows`` of block ``src`` (columns ``src1`` +
    ``words``) into ``rows`` of block ``dst`` (from column ``dst_col``)."""
    from repro.pim.isa import Instruction

    return Instruction(Opcode.TRANSFER, block=dst, src_block=src, rows=rows,
                       src_rows=src_rows, dst=dst_col, src1=src1,
                       words=words, tag=tag)


def _reader_of(draw, inst, blocks):
    """A TRANSFER that reads the cells ``inst`` writes (its rows and
    destination columns) into another of ``blocks``."""
    from repro.pim.isa import Instruction

    n = _n_rows(inst.rows)
    words = inst.words if inst.op is Opcode.TRANSFER else 1
    dst = draw(st.sampled_from([b for b in blocks if b != inst.block]))
    rows = draw(st.one_of(
        st.integers(0, LS_ROWS - n).map(lambda r0: (r0, r0 + n)),
        st.permutations(range(LS_ROWS)).map(lambda p: np.array(p[:n]))))
    return Instruction(Opcode.TRANSFER, block=dst, src_block=inst.block,
                       rows=rows, src_rows=inst.rows,
                       dst=draw(st.integers(0, LS_COLS - words)),
                       src1=inst.dst, words=words, tag="flux")


@st.composite
def _lockstep_streams(draw):
    """``(blocks, stream, seed)``: one or two compute segments whose blocks
    run windows of one shared template, so many ops line up across blocks,
    with per-block divergences, unequal lengths and out-of-step starts,
    interleaved in a random order, with TRANSFERs between the blocks —
    some of them reading cells an earlier op wrote."""
    from repro.pim.isa import barrier

    cfg = _lockstep_chip().config
    per_tile = cfg.blocks_per_tile
    blocks = draw(st.lists(st.integers(0, cfg.n_blocks - 1), min_size=3,
                           max_size=8, unique=True)
                  .filter(lambda bs: len({b // per_tile for b in bs}) >= 2))
    template = draw(st.lists(_ls_shape(), min_size=1, max_size=8))
    f32 = st.floats(-1.0, 1.0, width=32)
    per_block = []
    for b in blocks:
        start = draw(st.integers(0, min(2, len(template) - 1)))
        stop = draw(st.integers(start + 1, len(template)))
        ops = []
        for shape in template[start:stop]:
            if draw(st.integers(0, 9)) == 0:  # diverge from the other blocks
                shape = draw(_ls_shape())
            value = None
            if shape[0] is Opcode.BROADCAST:
                n = _n_rows(shape[1])
                value = draw(st.one_of(
                    f32, st.lists(f32, min_size=n, max_size=n)
                    .map(lambda v: np.array(v, dtype=np.float32))))
            ops.append(_ls_instruction(b, shape, value))
        per_block.append(ops)
    order = draw(st.permutations(
        [k for k, ops in enumerate(per_block) for _ in ops]))
    cursor = [0] * len(per_block)
    stream = []
    for k in order:
        stream.append(per_block[k][cursor[k]])
        cursor[k] += 1
    for t in draw(st.lists(_ls_transfer(blocks), max_size=8)):
        stream.insert(draw(st.integers(0, len(stream))), t)
    # back-to-back runs among the blocks of one tile, which merge into one
    # copy unless a hazard splits them: their rows and columns overlap
    # often, so runs hold RAW/WAR/WAW pairs and hazard-free ones
    tiles: dict = {}
    for b in blocks:
        tiles.setdefault(b // per_tile, []).append(b)
    crowded = max(tiles.values(), key=len)
    for run in draw(st.lists(st.lists(
            _ls_transfer(crowded if len(crowded) > 1 else blocks),
            min_size=2, max_size=5), max_size=2)):
        at = draw(st.integers(0, len(stream)))
        stream[at:at] = run
    # TRANSFERs that read what an earlier op wrote: they join their
    # source block's queue as well as their destination's
    for _ in range(draw(st.integers(0, 4))):
        writers = [k for k, i in enumerate(stream) if _n_rows(i.rows)]
        if not writers:
            break
        writer = draw(st.sampled_from(writers))
        stream.insert(draw(st.integers(writer + 1, len(stream))),
                      _reader_of(draw, stream[writer], blocks))
    split = draw(st.integers(0, len(stream)))
    if split and draw(st.booleans()):  # a BARRIER ends the first segment
        stream.insert(split, barrier())
    return blocks, stream, draw(st.integers(0, 2**16))


def _ls_load(chip, blocks, seed):
    rng = np.random.default_rng(seed)
    for b in blocks:
        chip.block(b).data[:LS_ROWS, :LS_COLS] = rng.uniform(
            -1.0, 1.0, (LS_ROWS, LS_COLS))


def _ls_digests(chip, blocks):
    return [hashlib.sha256(chip.block(b).data.tobytes()).hexdigest()
            for b in blocks]


def _ls_check(blocks, stream, seed):
    """Plan replay (twice: build, then the kept programs) == serial, and
    the replay of the plan's ``schedule_plan`` twin (whose programs are
    regrouped in emission order when the schedule is kept) leaves the
    same block state."""
    from repro.pim.schedule import schedule_plan

    chip_s, chip_p, chip_t = _lockstep_chip(), _lockstep_chip(), _lockstep_chip()
    for chip in (chip_s, chip_p, chip_t):
        _ls_load(chip, blocks, seed)
    ex_s, ex_p, ex_t = ChipExecutor(chip_s), ChipExecutor(chip_p), ChipExecutor(chip_t)
    plan = ex_p.lower(stream)
    twin = schedule_plan(ex_t, ex_t.lower(stream))
    for rep in range(2):
        serial = ex_s.run(stream, functional=True, serial=True)
        replay = ex_p.run(plan, functional=True)
        _assert_reports_identical(serial, replay, f"lockstep replay {rep}")
        ex_t.run(twin, functional=True)
        assert _ls_digests(chip_p, blocks) == _ls_digests(chip_s, blocks)
        assert _ls_digests(chip_t, blocks) == _ls_digests(chip_s, blocks)


class TestLockstepDifferential:
    """Lockstep plan replay (one numpy call per group of blocks issuing
    the same op) is bit-identical to serial dispatch on random streams."""

    @given(_lockstep_streams())
    @settings(max_examples=60, deadline=None)
    def test_matches_serial_on_random_streams(self, case):
        _ls_check(*case)

    @pytest.mark.parametrize("blocks", [[0, 1, 2], [2, 0, 3], [5, 1, 3, 9]])
    def test_broadcast_values_stack_per_block(self, blocks):
        """Each block of a group gets its own BROADCAST scalar or vector,
        for range and index-array row selectors, on one tile and across
        tiles."""
        from repro.pim.isa import Instruction

        rng = np.random.default_rng(len(blocks))
        stream = []
        for rows in ((1, 5), np.array([7, 2, 9, 4])):
            for dst in (0, 1):
                for b in blocks:
                    value = (np.float32(rng.uniform(-1, 1)) if dst == 0 else
                             rng.uniform(-1, 1, 4).astype(np.float32))
                    stream.append(Instruction(Opcode.BROADCAST, block=b,
                                              rows=rows, dst=dst, value=value))
        _ls_check(blocks, stream, seed=1)

    def test_plan_replayed_on_another_chip_writes_that_chip(self):
        """Run programs index one chip's tile arrays; replaying the plan
        through another chip's executor rebuilds them for it."""
        from repro.pim.isa import Instruction

        blocks = [0, 1, 5]
        stream = [Instruction(Opcode.ADD, block=b, rows=(0, 8), dst=2,
                              src1=0, src2=1) for b in blocks]
        stream += [  # one tile, then across tiles, then back
            _xfer(0, 1, (0, 8), (4, 12), dst_col=3, src1=2),
            _xfer(1, 5, np.array([7, 1, 3]), (0, 3), dst_col=0, src1=3),
            _xfer(5, 0, (2, 6), np.array([9, 8, 0, 2]), dst_col=1, src1=2),
        ]
        stream += [Instruction(Opcode.MUL, block=b, rows=(0, 8), dst=2,
                               src1=3, src2=0) for b in blocks]
        chip_s, chip_a, chip_b = (_lockstep_chip() for _ in range(3))
        for chip in (chip_s, chip_a, chip_b):
            _ls_load(chip, blocks, seed=3)
        ChipExecutor(chip_s).run(stream, functional=True, serial=True)
        plan = ChipExecutor(chip_a).lower(stream)
        ChipExecutor(chip_a).run(plan, functional=True)
        ChipExecutor(chip_b).run(plan, functional=True)
        assert _ls_digests(chip_a, blocks) == _ls_digests(chip_s, blocks)
        assert _ls_digests(chip_b, blocks) == _ls_digests(chip_s, blocks)

    @given(_lockstep_streams(), st.integers(0, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_out_of_bounds_op_raises_before_any_block_changes(
            self, case, which, data):
        from repro.pim.isa import Instruction

        blocks, stream, seed = case
        chip = _lockstep_chip()
        rows, words = chip.config.block_rows, chip.config.row_words
        b = data.draw(st.sampled_from(blocks))
        bad = [
            Instruction(Opcode.ADD, block=b, rows=(rows - 1, rows + 1), dst=0,
                        src1=1, src2=2),
            Instruction(Opcode.MUL, block=b, rows=(0, 4), dst=0, src1=words,
                        src2=1),
            Instruction(Opcode.COPY, block=b, rows=np.array([3, -1]), dst=0,
                        src1=1),
            Instruction(Opcode.GATHER, block=b, rows=(0, 2), dst=0, src1=1,
                        row_map=np.array([0, rows])),
            Instruction(Opcode.GATHER, block=b, rows=(0, 2), dst=0, src1=1,
                        row_map=np.array([0])),
            Instruction(Opcode.BROADCAST, block=b, rows=(0, 3), dst=1,
                        value=np.zeros(2, np.float32)),
        ][which]
        # one compute segment: nothing may run before the bad op's checks
        stream = [i for i in stream
                  if i.op not in (Opcode.BARRIER, Opcode.TRANSFER)]
        stream.insert(data.draw(st.integers(0, len(stream))), bad)
        _ls_load(chip, blocks, seed)
        before = _ls_digests(chip, blocks)
        with pytest.raises((IndexError, ValueError)):
            ChipExecutor(chip).run(stream, functional=True)
        assert _ls_digests(chip, blocks) == before


def _two_tile_chip():
    """Two tiles of four 16-row blocks."""
    from repro.pim.params import ChipConfig

    block_bytes = 16 * 1024 // 8
    return PimChip(ChipConfig(name="two-tile-test",
                              capacity_bytes=2 * 4 * block_bytes,
                              block_rows=16, blocks_per_tile=4))


def _is_copy(entry):
    """A TRANSFER copy indexes raveled (1-D) tile arrays; a compute call
    indexes a tile array."""
    return entry[1].ndim == 1


def _copies_per_run(plan):
    """Number of TRANSFER copies in each run program of ``plan``."""
    return [sum(1 for e in prog if _is_copy(e)) for prog in plan.programs]


def _program_sizes(plan):
    """``(compute calls, TRANSFER copies)`` over ``plan``'s run programs."""
    entries = [e for prog in plan.programs for e in prog]
    copies = sum(1 for e in entries if _is_copy(e))
    return len(entries) - copies, copies


def _serial_equal_program(chip_factory, blocks, stream, seed=6):
    """Replay ``stream``'s plan twice on one chip and serially on another:
    reports and block digests match.  Returns the plan."""
    chip_s, chip_p = chip_factory(), chip_factory()
    for chip in (chip_s, chip_p):
        _ls_load(chip, blocks, seed)
    ex_s, ex_p = ChipExecutor(chip_s), ChipExecutor(chip_p)
    plan = ex_p.lower(stream)
    for rep in range(2):
        serial = ex_s.run(stream, functional=True, serial=True)
        replay = ex_p.run(plan, functional=True)
        _assert_reports_identical(serial, replay, f"run program {rep}")
        assert _ls_digests(chip_p, blocks) == _ls_digests(chip_s, blocks)
    return plan


class TestTransferRuns:
    """TRANSFERs run in lockstep rounds with the compute ops of their run:
    a round's TRANSFERs between two tiles move in one fancy-indexed copy,
    and the queue rule keeps every read and write in serial order
    (DESIGN.md §12)."""

    #: ``(stream, copies)``: each stream is one run of TRANSFERs between
    #: compute ops on every block (an ADD writing column 0 before, a MUL
    #: after), ``copies`` the copies its program takes.  Blocks A, B, C,
    #: D are 0-3 on tile 0; block 5 is on tile 1.
    CASES = {
        # B's column 1 rows 0-4 are written, then read on to C: the
        # second TRANSFER waits in B's queue for the first
        "raw_chain": ([
            _xfer(0, 1, (0, 4), (0, 4), dst_col=1, src1=0),
            _xfer(1, 2, (4, 8), (0, 4), dst_col=2, src1=1),
        ], 2),
        # rows 2-3 of B's column 1 are written twice: the second wins
        "waw": ([
            _xfer(0, 1, (0, 4), (0, 4), dst_col=1, src1=0),
            _xfer(2, 1, (2, 6), (4, 8), dst_col=1, src1=0),
        ], 2),
        # B's column 1 is read, then overwritten: the read joins B's
        # queue, so the write lands a round later
        "war": ([
            _xfer(1, 2, (0, 4), (0, 4), dst_col=3, src1=1),
            _xfer(0, 1, (0, 4), (4, 8), dst_col=1, src1=0),
        ], 2),
        # tile 0 -> tile 1 -> tile 0, reading what the last one wrote;
        # the third reads cells nothing writes and moves in round one,
        # beside the first but in another tile pair's copy
        "cross_tile": ([
            _xfer(0, 5, (0, 4), (0, 4), dst_col=2, src1=0),
            _xfer(5, 1, (8, 12), (0, 4), dst_col=2, src1=2),
            _xfer(1, 2, (0, 4), (0, 4), dst_col=0, src1=1),
        ], 3),
        # index arrays and ranges: the first and third share round one
        # and a copy, the second writes B again a round later, and the
        # last reads what those two wrote
        "mixed_selectors": ([
            _xfer(0, 1, np.array([9, 3, 5]), (0, 3), dst_col=2, src1=0,
                  words=2),
            _xfer(2, 1, (10, 13), np.array([1, 7, 4]), dst_col=2, src1=1,
                  words=2),
            _xfer(3, 2, np.array([0, 15]), np.array([6, 2]), dst_col=0,
                  src1=3),
            _xfer(1, 3, (0, 2), np.array([11, 5]), dst_col=1, src1=3),
        ], 3),
    }

    @staticmethod
    def _check(stream):
        from repro.pim.isa import Instruction

        blocks = sorted({b for i in stream for b in (i.block, i.src_block)})
        # compute on both sides keeps the TRANSFERs one run between segments
        stream = (
            [Instruction(Opcode.ADD, block=b, rows=(0, 16), dst=0, src1=0,
                         src2=1, tag="volume") for b in blocks]
            + stream
            + [Instruction(Opcode.MUL, block=b, rows=(0, 16), dst=4, src1=0,
                           src2=2, tag="volume") for b in blocks])
        return _serial_equal_program(_two_tile_chip, blocks, stream, seed=11)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_serial(self, case):
        stream, copies = self.CASES[case]
        plan = self._check(stream)
        assert _copies_per_run(plan) == [copies]

    def test_row_count_mismatch_raises_before_any_block_changes(self):
        """A bad TRANSFER later in the plan raises before the plan's first
        copy or compute op runs."""
        from repro.pim.isa import Instruction

        stream = [
            Instruction(Opcode.ADD, block=0, rows=(0, 8), dst=2, src1=0,
                        src2=1),
            _xfer(0, 1, (0, 4), (0, 4), dst_col=1, src1=0),
            Instruction(Opcode.ADD, block=1, rows=(0, 8), dst=2, src1=0,
                        src2=1),
            _xfer(1, 2, (0, 4), (0, 6), dst_col=1, src1=0),
        ]
        chip = _two_tile_chip()
        _ls_load(chip, [0, 1, 2], seed=5)
        before = _ls_digests(chip, [0, 1, 2])
        ex = ChipExecutor(chip)
        plan = ex.lower(stream)
        for _ in range(2):  # nothing is kept from the failed build
            with pytest.raises(ValueError, match="must match in size"):
                ex.run(plan, functional=True)
            assert plan.programs is None and plan.apply_chip is None
            assert _ls_digests(chip, [0, 1, 2]) == before

    def test_emission_and_scheduled_twin_on_two_chips(self):
        """``schedule_plan`` shares ``_TransferStep`` objects between the
        emission plan and its scheduled twin; each plan keeps its own
        per-chip programs, so replaying the two in turn on two chips
        writes each chip as its own serial run does."""
        from repro.pim.isa import Instruction
        from repro.pim.schedule import schedule_plan

        blocks = [0, 1, 2, 5]
        stream = [Instruction(Opcode.MUL, block=0, rows=(0, 12), dst=5 + k,
                              src1=0, src2=1) for k in range(6)]
        stream += [
            _xfer(0, 1, (0, 8), (0, 8), dst_col=4, src1=5),
            _xfer(2, 5, np.array([3, 1, 0]), (4, 7), dst_col=4, src1=2),
            _xfer(5, 2, (0, 3), np.array([8, 2, 6]), dst_col=5, src1=3),
        ]
        stream += [Instruction(Opcode.ADD, block=b, rows=(0, 12), dst=3,
                               src1=1, src2=2) for b in (1, 2, 5)]
        chips = [_two_tile_chip() for _ in range(4)]
        for chip in chips:
            _ls_load(chip, blocks, seed=8)
        ex_a, ex_b, ref_a, ref_b = (ChipExecutor(c) for c in chips)
        emission = ex_a.lower(stream)
        twin = schedule_plan(ex_b, emission)
        assert twin.schedule_stats["kept"]
        steps = {id(p) for k, p in emission.steps if k == 1}
        assert steps == {id(p) for k, p in twin.steps if k == 1}
        for _ in range(2):
            ex_a.run(emission, functional=True)
            ex_b.run(twin, functional=True)
            ref_a.run(emission.instructions, functional=True, serial=True)
            ref_b.run(twin.instructions, functional=True, serial=True)
            assert _ls_digests(chips[0], blocks) == _ls_digests(chips[2], blocks)
            assert _ls_digests(chips[1], blocks) == _ls_digests(chips[3], blocks)

    def test_routing_epoch_bump_rebuilds_transfer_copies(self, monkeypatch):
        """A stale plan is lowered again, and the new plan builds its own
        programs, transfer copies included; the result still equals
        serial dispatch."""
        stream = self.CASES["cross_tile"][0]
        blocks = [0, 1, 2, 5]
        chip_s, chip_p = _two_tile_chip(), _two_tile_chip()
        for chip in (chip_s, chip_p):
            _ls_load(chip, blocks, seed=2)
        ex_s, ex_p = ChipExecutor(chip_s), ChipExecutor(chip_p)
        built = []
        real = ExecutionPlan.build_programs

        def spy(plan, chip):
            built.append(plan)
            return real(plan, chip)

        monkeypatch.setattr(ExecutionPlan, "build_programs", spy)
        plan = ex_p.lower(stream)
        ex_p.run(plan, functional=True)
        ex_s.run(stream, functional=True, serial=True)
        assert built == [plan]
        chip_p.invalidate_routes()
        serial = ex_s.run(stream, functional=True, serial=True)
        replay = ex_p.run(plan, functional=True)
        _assert_reports_identical(serial, replay, "re-lowered replay")
        assert _ls_digests(chip_p, blocks) == _ls_digests(chip_s, blocks)
        assert len(built) == 2 and built[1] is not plan
        assert built[1].routing_epoch == chip_p.routing_epoch
        assert plan.programs is not built[1].programs


def _ops(block, rows, *ops, tag="flux"):
    """Compute ops ``(opcode, dst, src1, src2)`` on ``block``'s ``rows``."""
    from repro.pim.isa import Instruction

    return [Instruction(op, block=block, rows=rows, dst=d, src1=a, src2=b,
                        tag=tag) for op, d, a, b in ops]


def _flux_chip():
    """One tile of sixteen 32-row blocks, like a shard's flux tile."""
    from repro.pim.params import ChipConfig

    return PimChip(ChipConfig(name="flux-test", capacity_bytes=16 * 4096,
                              block_rows=32, blocks_per_tile=16))


class TestRunPrograms:
    """One functional program per run: the queue rule, lockstep rounds
    across TRANSFERs, and the sizes of the bench plans' programs."""

    def test_transfer_joins_the_queue_of_a_source_the_run_writes(self):
        """Compute on A feeds a TRANSFER A->B, which feeds compute on B;
        A is overwritten after the TRANSFER reads it.  The TRANSFER waits
        in both queues: B's three ops first, then A's write-after-read."""
        A, B = 0, 1
        add, mul, sub = Opcode.ADD, Opcode.MUL, Opcode.SUB
        stream = (_ops(A, (0, 8), (add, 2, 0, 1))
                  + _ops(B, (0, 8), (add, 2, 0, 1), (mul, 5, 2, 2),
                         (sub, 6, 5, 0))
                  + [_xfer(A, B, (8, 16), (0, 8), dst_col=3, src1=2)]
                  + _ops(A, (0, 8), (mul, 2, 2, 2))
                  + _ops(B, (8, 16), (add, 4, 3, 3)))
        plan = _serial_equal_program(_two_tile_chip, [A, B], stream)
        # rounds: ADD on A and B | MUL B | SUB B | copy | MUL A, ADD B
        assert _program_sizes(plan) == (5, 1)
        assert [_is_copy(e) for e in plan.programs[0]] == [
            False, False, False, True, False, False]

    def test_transfer_from_cells_the_run_never_writes_has_one_queue(self):
        """A TRANSFER whose source no op of the run writes joins only its
        destination's queue, so it moves in the first round while its
        source block computes, and the two TRANSFERs share one copy."""
        A, B, C, D = 0, 1, 2, 3
        add, mul = Opcode.ADD, Opcode.MUL
        stream = (_ops(A, (0, 8), (add, 2, 0, 1)) + _ops(C, (0, 8), (add, 2, 0, 1))
                  + _ops(A, (0, 8), (mul, 2, 2, 2)) + _ops(C, (0, 8), (mul, 2, 2, 2))
                  + [_xfer(A, B, (0, 8), (4, 12), dst_col=4, src1=3),
                     _xfer(C, D, (0, 8), (4, 12), dst_col=4, src1=3)]
                  + _ops(B, (0, 8), (add, 5, 4, 4)) + _ops(D, (0, 8), (add, 5, 4, 4)))
        plan = _serial_equal_program(_two_tile_chip, [A, B, C, D], stream)
        # rounds: ADD on A and C, the copy | MUL on A and C, ADD on B and D
        assert [_is_copy(e) for e in plan.programs[0]] == [
            False, True, False, False]

    def test_shard_flux_runs_one_call_per_face_and_op(self):
        """A shard-style flux in emission order: element by element, each
        face a fetch from a neighbour's state column (which the run never
        writes) and 14 ops on the fetched rows.  Lockstep across the
        fetches, 16 elements compile into one copy per face and one call
        per (face, op) over all 16 blocks."""
        from repro.dg import ReferenceElement

        faces = ReferenceElement(2).face_nodes
        add, mul, sub, copy = Opcode.ADD, Opcode.MUL, Opcode.SUB, Opcode.COPY
        fourteen = [(mul, 5, 4, 1), (add, 6, 5, 0), (sub, 7, 4, 0),
                    (mul, 8, 7, 2), (add, 9, 8, 6), (copy, 10, 9, None),
                    (mul, 5, 10, 3), (sub, 6, 5, 1), (add, 7, 6, 2),
                    (mul, 8, 7, 7), (add, 9, 9, 8), (sub, 10, 10, 5),
                    (mul, 11, 10, 1), (add, 12, 12, 11)]
        stream = []
        for e in range(16):
            for f in range(6):
                nb = (e + (1, -1, 4, -4, 5, -5)[f]) % 16
                rows = np.asarray(faces[f])
                stream.append(_xfer(nb, e, rows, rows, dst_col=4, src1=0))
                stream += _ops(e, rows, *fourteen)
        plan = _serial_equal_program(_flux_chip, list(range(16)), stream)
        assert _program_sizes(plan) == (6 * 14, 6)
        for entry in plan.programs[0]:
            blocks = entry[2][0] if not _is_copy(entry) else None
            assert blocks is None or blocks == slice(0, 16, 1)

    @pytest.mark.parametrize("where", ["compute", "transfer"])
    def test_bad_op_in_last_run_raises_before_first_run_changes(self, where):
        """Every op of every run is validated before the first executes."""
        from repro.pim.isa import barrier

        rows = _two_tile_chip().config.block_rows
        bad = {
            "compute": _ops(2, (rows - 2, rows + 1), (Opcode.ADD, 0, 1, 2)),
            "transfer": [_xfer(1, 2, (0, 4), (0, 5), dst_col=1, src1=0)],
        }[where]
        stream = (_ops(0, (0, 8), (Opcode.ADD, 2, 0, 1))
                  + [_xfer(0, 1, (0, 4), (0, 4), dst_col=1, src1=2), barrier()]
                  + _ops(1, (0, 8), (Opcode.MUL, 3, 1, 1)) + [barrier()]
                  + _ops(2, (0, 8), (Opcode.SUB, 3, 1, 0)) + bad)
        chip = _two_tile_chip()
        _ls_load(chip, [0, 1, 2], seed=9)
        before = _ls_digests(chip, [0, 1, 2])
        ex = ChipExecutor(chip)
        plan = ex.lower(stream)
        assert len(plan.runs) == 3
        with pytest.raises((IndexError, ValueError)):
            ex.run(plan, functional=True)
        assert plan.programs is None
        assert _ls_digests(chip, [0, 1, 2]) == before

    @staticmethod
    def _bench_problem(physics, level, flux):
        """The bench problem's mesh and kernel factory (order 2)."""
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.core.kernels.elastic import ElasticFourBlockKernels
        from repro.dg import (
            AcousticMaterial,
            ElasticMaterial,
            HexMesh,
            ReferenceElement,
        )

        mesh = HexMesh.from_refinement_level(level)
        elem = ReferenceElement(2)
        if physics == "acoustic":
            mat = AcousticMaterial.homogeneous(mesh.n_elements)
            cls = AcousticOneBlockKernels
        else:
            mat = ElasticMaterial.homogeneous(mesh.n_elements)
            cls = ElasticFourBlockKernels
        return mesh, lambda mapper: cls(mesh, elem, mat, mapper,
                                        flux_kind=flux)

    @pytest.mark.parametrize("physics,level,flux,g,sizes", [
        ("acoustic", 2, "riemann", 1, (895, 30)),  # pim-acoustic-r2
        ("elastic", 1, "central", 4, (2610, 545)),  # pim-elastic-r1
    ])
    def test_bench_step_program_sizes(self, physics, level, flux, g, sizes):
        """The bench steps' programs on 512MB.  A scheduled plan is
        regrouped in emission order, so these are also the sizes of the
        bench's scheduled plans (per-segment programs and per-transfer-run
        copies took 3,469 calls + 187 copies and 8,593 + 1,972)."""
        from repro.core.mapper import ElementMapper

        chip = PimChip(CHIP_CONFIGS["512MB"])
        mesh, make = self._bench_problem(physics, level, flux)
        kern = make(ElementMapper(mesh.m, chip.config, g))
        plan = ChipExecutor(chip).lower(kern.time_step(1e-4))
        plan.build_programs(chip)
        assert _program_sizes(plan) == sizes

    def test_shard4_flux_program_size(self):
        """shard4-acoustic-r2's flux plan, per shard and RK stage: 84
        calls over all 16 blocks + 10 copies (1,344 single-block calls
        and 96 copies while every TRANSFER ended a lockstep program)."""
        from repro.pim.multichip import ShardedExecutor
        from repro.workloads.sharding import shard_proxy_chip

        mesh, make = self._bench_problem("acoustic", 2, "riemann")
        sx = ShardedExecutor(mesh, shard_proxy_chip(), make, n_shards=4)
        sx.lower_step(1e-4)
        for sh in sx.shards:
            sh.flux_plan.build_programs(sh.chip)
            assert _program_sizes(sh.flux_plan) == (84, 10)


class TestAccountingRuns:
    """Plan replay folds each run of segments and TRANSFERs between two
    DISPATCH rows once per tag; the dispatches' own addends must land
    between the runs' folds exactly as serial dispatch orders them."""

    @staticmethod
    def _stream():
        from repro.pim.isa import Instruction, barrier, dram_swap

        def compute(tag, k):
            return [Instruction(Opcode.ADD if j % 2 else Opcode.MUL,
                                block=b, rows=(0, 4 + j + k), dst=2,
                                src1=0, src2=1, tag=tag)
                    for j, b in enumerate((0, 1, 5))]

        def fetch(tag, k):
            return [_xfer(0, 1, (0, 3 + k), (0, 3 + k), dst_col=3, src1=2,
                          tag=tag),
                    _xfer(5, 2, (4, 6), (k, k + 2), dst_col=3, src1=2,
                          words=2, tag=tag)]

        host = Instruction(Opcode.HOSTOP, count=17, tag="volume")
        lut = Instruction(Opcode.LUT, block=1, src_block=2, rows=(0, 4),
                          src1=6, dst=7, tag="flux:fetch")
        load = Instruction(Opcode.DRAM_LOAD, block=5, rows=(0, 6), words=3,
                           tag="flux")
        return (
            [barrier()]  # a dispatch first
            + compute("volume", 0) + fetch("flux:fetch", 0)
            + compute("flux", 1) + [host]
            + fetch("flux:fetch", 1) + compute("volume", 2) + [lut]
            + compute("flux", 3) + fetch("volume", 2)
            + [load, barrier()]  # two adjacent dispatches: an empty run
            + fetch("flux", 3) + compute("flux:fetch", 4)
            + [dram_swap(Opcode.DRAM_STORE, 4096)]  # a dispatch last
        )

    @pytest.mark.parametrize("functional", [False, True])
    def test_report_equals_serial_bit_for_bit(self, functional):
        stream = self._stream()
        blocks = [0, 1, 2, 5]
        chip_s, chip_p = _two_tile_chip(), _two_tile_chip()
        for chip in (chip_s, chip_p):
            _ls_load(chip, blocks, seed=4)
        ex_s, ex_p = ChipExecutor(chip_s), ChipExecutor(chip_p)
        plan = ex_p.lower(stream)
        assert [r.n for r in plan.runs][:2] == [0, 8]
        assert 0 in [r.n for r in plan.runs][2:-1]  # the adjacent dispatches
        assert plan.runs[-1].n == 0 and plan.runs[-1].dispatch is None
        for rep in range(2):
            serial = ex_s.run(stream, functional=functional, serial=True)
            replay = ex_p.run(plan, functional=functional)
            _assert_reports_identical(serial, replay, f"accounting {rep}")
            assert list(replay.op_counts) == list(serial.op_counts)
        assert _ls_digests(chip_p, blocks) == _ls_digests(chip_s, blocks)


def _sched_check(blocks, stream, seed):
    """``schedule_plan`` on a random stream: a legal permutation whose
    functional replay equals the emission plan's by block digest, with
    dependency span <= scheduled makespan <= emission makespan."""
    from repro.pim.schedule import (
        critical_path_span,
        dependency_edges,
        schedule_plan,
        verify_order,
    )

    chip_e, chip_s = _lockstep_chip(), _lockstep_chip()
    for chip in (chip_e, chip_s):
        _ls_load(chip, blocks, seed)
    ex_e, ex_s = ChipExecutor(chip_e), ChipExecutor(chip_s)
    plan = ex_s.lower(stream)
    sched = schedule_plan(ex_s, plan)
    stats = sched.schedule_stats
    preds = dependency_edges(plan.instructions)
    assert verify_order(preds, stats["permutation"]) == []
    if stats["kept"]:
        assert all(a is plan.instructions[i] for a, i in
                   zip(sched.instructions, stats["permutation"]))
    span = critical_path_span(ex_s, plan, preds)
    assert span <= stats["scheduled_makespan_s"] <= stats["emission_makespan_s"]
    ex_e.run(ex_e.lower(stream), functional=True)
    replay = ex_s.run(sched, functional=True)
    assert replay.total_time_s == stats["scheduled_makespan_s"]
    assert _ls_digests(chip_s, blocks) == _ls_digests(chip_e, blocks)


class TestScheduledDifferential:
    """The makespan scheduler on random streams of compute ops and
    TRANSFERs between the blocks (the lockstep-differential generator)."""

    @given(_lockstep_streams())
    @settings(max_examples=100, deadline=None)
    def test_scheduled_equals_emission_order(self, case):
        _sched_check(*case)

    def test_span_adds_latencies_in_executor_order(self):
        """The TRANSFER frees its read port at ``ready + read_t +
        flit_train``; summing the two latencies first rounds one ulp above
        the measured clock, and the span would overshoot the makespan."""
        from repro.pim.isa import Instruction
        from repro.pim.schedule import critical_path_span

        stream = [
            Instruction(Opcode.ADD, block=0, rows=(0, 1), dst=0, src1=0,
                        src2=0, tag="integration"),
            Instruction(Opcode.TRANSFER, block=0, src_block=1, rows=(0, 9),
                        src_rows=(0, 9), dst=0, src1=3, words=1, tag="flux"),
            # overwrites the column the TRANSFER reads: waits on its read port
            Instruction(Opcode.ADD, block=1, rows=(0, 1), dst=3, src1=0,
                        src2=0, tag="integration"),
        ]
        ex = ChipExecutor(_lockstep_chip())
        plan = ex.lower(stream)
        span = critical_path_span(ex, plan)
        assert span == ex.run(plan, functional=False).total_time_s


class TestScheduledLockstep:
    """A scheduled step interleaves every block's ops; one functional
    replay of it equals serial dispatch of the permuted stream."""

    @pytest.mark.parametrize("physics", ["acoustic", "elastic"])
    def test_scheduled_step_matches_serial(self, physics):
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.core.kernels.elastic import ElasticFourBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import (
            AcousticMaterial,
            ElasticMaterial,
            HexMesh,
            ReferenceElement,
        )
        from repro.pim.schedule import schedule_plan

        rng = np.random.default_rng(4)
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        n = mesh.n_elements
        chip_cfg = CHIP_CONFIGS["512MB"]
        if physics == "acoustic":
            mat = AcousticMaterial(kappa=rng.uniform(1.0, 2.0, n),
                                   rho=rng.uniform(0.5, 1.5, n))
            g, n_vars = 1, 4
            make = lambda m: AcousticOneBlockKernels(  # noqa: E731
                mesh, elem, mat, m, flux_kind="riemann")
        else:
            mat = ElasticMaterial(lam=rng.uniform(1.0, 2.0, n),
                                  mu=rng.uniform(0.5, 1.5, n),
                                  rho=rng.uniform(0.8, 1.2, n))
            g, n_vars = 4, 9
            make = lambda m: ElasticFourBlockKernels(  # noqa: E731
                mesh, elem, mat, m, flux_kind="central")
        kern = make(ElementMapper(mesh.m, chip_cfg, g))
        state = (0.1 * rng.standard_normal((n_vars, n, elem.n_nodes))
                 ).astype(np.float32)
        chips = [PimChip(chip_cfg), PimChip(chip_cfg)]
        exs = [ChipExecutor(c) for c in chips]
        for ex in exs:
            ex.run(kern.setup() + kern.load_state(state), functional=True)
        plan = schedule_plan(exs[0], exs[0].lower(kern.time_step(1e-4)))
        assert plan.schedule_stats["kept"]  # really interleaved
        exs[0].reset_clocks()
        exs[1].reset_clocks()
        replay = exs[0].run(plan, functional=True)
        serial = exs[1].run(plan.instructions, functional=True, serial=True)
        assert _state_digest(chips[0]) == _state_digest(chips[1])
        assert replay.total_time_s == serial.total_time_s
        assert replay.dynamic_energy_j == serial.dynamic_energy_j
        assert dict(replay.time_by_tag) == dict(serial.time_by_tag)
