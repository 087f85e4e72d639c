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


@st.composite
def _lockstep_streams(draw):
    """``(blocks, stream, seed)``: one or two compute segments whose blocks
    run windows of one shared template, so many ops line up across blocks,
    with per-block divergences, unequal lengths and out-of-step starts,
    interleaved in a random order."""
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
    """Plan replay (twice: build, then the cached program) == serial."""
    chip_s, chip_p = _lockstep_chip(), _lockstep_chip()
    for chip in (chip_s, chip_p):
        _ls_load(chip, blocks, seed)
    ex_s, ex_p = ChipExecutor(chip_s), ChipExecutor(chip_p)
    plan = ex_p.lower(stream)
    for rep in range(2):
        serial = ex_s.run(stream, functional=True, serial=True)
        replay = ex_p.run(plan, functional=True)
        _assert_reports_identical(serial, replay, f"lockstep replay {rep}")
        assert _ls_digests(chip_p, blocks) == _ls_digests(chip_s, blocks)


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
        """Lockstep programs index one chip's tile arrays; replaying the
        plan through another chip's executor rebuilds them for it."""
        from repro.pim.isa import Instruction

        blocks = [0, 1, 5]
        stream = [Instruction(Opcode.ADD, block=b, rows=(0, 8), dst=2,
                              src1=0, src2=1) for b in blocks]
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
        stream = [i for i in stream if i.op is not Opcode.BARRIER]
        stream.insert(data.draw(st.integers(0, len(stream))), bad)
        _ls_load(chip, blocks, seed)
        before = _ls_digests(chip, blocks)
        with pytest.raises((IndexError, ValueError)):
            ChipExecutor(chip).run(stream, functional=True)
        assert _ls_digests(chip, blocks) == before


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
