"""Throughput micro-benchmarks of the library's own hot paths.

Unlike the table/figure regenerations these measure *our* simulator's
speed (real pytest-benchmark rounds): the numpy dG right-hand side, the
PIM functional executor, and the executor's transfer replay.
"""

import numpy as np
import pytest

from repro.core.kernels.acoustic import AcousticOneBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg import (
    AcousticMaterial,
    AcousticOperator,
    ElasticMaterial,
    ElasticOperator,
    HexMesh,
    ReferenceElement,
)
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS


@pytest.mark.benchmark(group="micro")
def test_acoustic_rhs_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(2)
    elem = ReferenceElement(4)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    op = AcousticOperator(mesh, mat, elem, flux="riemann")
    q = np.random.default_rng(0).standard_normal((4, mesh.n_elements, elem.n_nodes))
    out = benchmark(op.rhs, q)
    assert np.all(np.isfinite(out))
    benchmark.extra_info["dofs"] = 4 * mesh.n_elements * elem.n_nodes


@pytest.mark.benchmark(group="micro")
def test_elastic_rhs_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(4)
    mat = ElasticMaterial.homogeneous(mesh.n_elements)
    op = ElasticOperator(mesh, mat, elem, flux="riemann")
    q = np.random.default_rng(0).standard_normal((9, mesh.n_elements, elem.n_nodes))
    out = benchmark(op.rhs, q)
    assert np.all(np.isfinite(out))


@pytest.mark.benchmark(group="micro")
def test_pim_functional_step_throughput(benchmark):
    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(2)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
    kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "riemann")
    chip = PimChip(CHIP_CONFIGS["512MB"])
    ex = ChipExecutor(chip)
    state = np.zeros((4, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    ex.run(kern.setup() + kern.load_state(state), functional=True)
    step = kern.time_step(1e-4)

    def run():
        return ex.run(step, functional=True)

    rep = benchmark(run)
    benchmark.extra_info["pim_instructions"] = rep.n_instructions


@pytest.mark.benchmark(group="micro")
def test_schedule_plan_throughput(benchmark):
    """Makespan scheduling of one acoustic r=1 time-step, lowered once:
    dependency DAG, list scheduling, re-lowering and both replays."""
    from repro.pim.schedule import schedule_plan

    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(2)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
    kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "riemann")
    ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
    plan = ex.lower(kern.time_step(1e-4))
    sched = benchmark(schedule_plan, ex, plan)
    assert sched.schedule_stats["kept"]
    benchmark.extra_info["pim_instructions"] = plan.n_instructions


@pytest.mark.benchmark(group="micro")
def test_transfer_replay_throughput(benchmark):
    """Analytic replay of 1,000 random tile-0 TRANSFERs, lowered once."""
    rng = np.random.default_rng(1)
    pairs = [(int(rng.integers(0, 256)), int(rng.integers(0, 256)))
             for _ in range(1000)]
    ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
    plan = ex.lower([
        Instruction(Opcode.TRANSFER, block=dst, src_block=src, rows=(0, 1),
                    src_rows=(0, 1), dst=0, src1=0, words=32)
        for src, dst in pairs
    ])
    rep = benchmark(ex.run, plan, functional=False)
    assert rep.transfers == 1000


@pytest.mark.benchmark(group="micro")
def test_transfer_heavy_replay_throughput(benchmark):
    """One functional and one analytic replay of the scheduled elastic
    r=1, order-2 step on 512MB: four blocks per element, 4,360 TRANSFERs
    in short runs between short compute segments.  Functional replay runs
    one lockstep program per dispatch-free run, regrouped in emission
    order: 2,610 numpy calls and 545 copies per step."""
    from repro.core.kernels.elastic import ElasticFourBlockKernels
    from repro.pim.schedule import schedule_plan

    mesh = HexMesh.from_refinement_level(1)
    elem = ReferenceElement(2)
    mat = ElasticMaterial.homogeneous(mesh.n_elements)
    mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 4)
    kern = ElasticFourBlockKernels(mesh, elem, mat, mapper, "central")
    ex = ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))
    state = np.zeros((9, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    ex.run(kern.setup() + kern.load_state(state), functional=True)
    plan = schedule_plan(ex, ex.lower(kern.time_step(1e-4)))
    assert plan.schedule_stats["kept"]
    assert plan.n_transfers == 4360

    def run():
        ex.run(plan, functional=True)
        return ex.run(plan, functional=False)

    rep = benchmark(run)
    assert rep.transfers == 4360
    benchmark.extra_info["pim_instructions"] = rep.n_instructions


@pytest.mark.benchmark(group="micro")
def test_sharded_step_throughput(benchmark):
    """One functional ``run_steps`` of acoustic r=2, order 2, on 4 shards
    of the 48-block proxy chip.  Each shard's flux plan emits every face
    of every element as a fetch and 14 compute ops; lockstep across the
    fetches runs it as one call per (face, op) over all 16 blocks."""
    from repro.pim.multichip import ShardedExecutor
    from repro.workloads.sharding import shard_proxy_chip

    mesh = HexMesh.from_refinement_level(2)
    elem = ReferenceElement(2)
    mat = AcousticMaterial.homogeneous(mesh.n_elements)
    sx = ShardedExecutor(
        mesh, shard_proxy_chip(),
        lambda m: AcousticOneBlockKernels(mesh, elem, mat, m, "riemann"),
        n_shards=4)
    state = np.zeros((4, mesh.n_elements, elem.n_nodes), dtype=np.float32)
    sx.setup(state)
    res = benchmark(sx.run_steps, 1e-4, 1)
    for sh in sx.shards:
        assert sum(len(p) for p in sh.flux_plan.programs) <= 94
    benchmark.extra_info["pim_instructions"] = res.report.n_instructions


@pytest.mark.benchmark(group="micro")
def test_cold_compile_throughput(benchmark):
    """One uncached order-7 compile of elastic_5 Riemann on 16GB per
    round: the grid's largest fetch lanes, 3,072 TRANSFERs per face set,
    which ``flux_fetches`` builds without the flux compute.  A spy checks
    that ``flux()`` only ever sees one element, so the new path runs even
    with timing off."""
    from unittest import mock

    from repro.core.compiler import WavePimCompiler
    from repro.core.kernels.base import KernelBase
    from repro.core.kernels.elastic import ElasticFourBlockKernels

    real_flux = ElasticFourBlockKernels.flux
    real_fetches = KernelBase.flux_fetches
    flux_sizes, lane_sizes = [], []

    def flux_spy(self, faces=range(6), *args, elements=None, **kwargs):
        flux_sizes.append(len(elements))
        return real_flux(self, faces, *args, elements=elements, **kwargs)

    def fetches_spy(self, faces=range(6), elements=None):
        out = real_fetches(self, faces, elements)
        lane_sizes.append(len(out))
        return out

    def run():
        return WavePimCompiler(order=7).compile(
            "elastic", 5, CHIP_CONFIGS["16GB"], "riemann")

    with mock.patch.object(ElasticFourBlockKernels, "flux", flux_spy), \
            mock.patch.object(KernelBase, "flux_fetches", fetches_spy):
        cb = benchmark(run)
    assert cb.stage_times.flux_fetch_minus > 0
    assert flux_sizes and max(flux_sizes) == 1
    assert lane_sizes and set(lane_sizes) == {3072}


# --------------------------------------------------------------------- #
# perf-regression guard (methodology lives in repro.eval.bench, shared
# with the `repro bench` subcommand and the CI perf job)
# --------------------------------------------------------------------- #

from repro.eval.bench import (  # noqa: E402  (re-exported for back-compat)
    REGRESSION_FACTOR,
    SEED_BASELINE,
    append_entry,
    history_summary,
    measure_hot_paths,
    regression_failures,
)


def test_perf_regression_guard():
    """Time the hot paths, record the trajectory, fail only on >3x.

    Appends to ``BENCH_perf.json`` at the repo root: the seed baselines,
    this run's numbers (``executor_step_s`` is the warm plan-replay path),
    and the history so regressions are visible as a time series rather
    than a single boolean.  Older history entries may carry ``null`` for
    ``cache_hit_rate``/``plan_reuse_rate`` — those mean "not measured"
    and must never fail the guard.
    """
    entry = measure_hot_paths()
    assert entry["plan_reuse_rate"] is not None and entry["plan_reuse_rate"] > 0
    # hardware-counter roll-ups recorded alongside the timings
    assert 0.0 < entry["block_util"] <= 1.0
    assert 0.0 < entry["link_util"] <= 1.0
    assert entry["binding_resource"] and entry["binding_resource"] != "idle"
    assert entry["counters_overhead"] > 0.0
    doc = append_entry(entry)

    # the null-safe summary must digest the whole history, including
    # pre-plan entries that never recorded the rates.
    summary = history_summary(doc)
    assert summary["entries"] == len(doc["history"])
    for key in ("cache_hit_rate", "plan_reuse_rate"):
        assert summary[key]["measured"] <= summary["entries"]

    failures = regression_failures(entry)
    assert not failures, "\n".join(failures)
