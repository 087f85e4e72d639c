"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each isolates one Wave-PIM design
decision and quantifies its contribution.
"""

import numpy as np
import pytest

from repro.core.compiler import WavePimCompiler
from repro.core.kernels.acoustic import (
    AcousticFourBlockKernels,
    AcousticOneBlockKernels,
)
from repro.core.mapper import ElementMapper
from repro.core.pipeline import pipelined_stage_time, serial_stage_time
from repro.core.runtime import estimate_benchmark
from repro.dg import AcousticMaterial, HexMesh, ReferenceElement
from repro.eval.report import Table
from repro.interconnect import HTree
from repro.pim.arithmetic import default_op_costs
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS

ORDER = 7


def _print(capsys, table):
    with capsys.disabled():
        print()
        print(table.render())


@pytest.mark.benchmark(group="ablations")
def test_ablation_multiplier(benchmark, capsys):
    """Serial shift-add vs FloatPIM-style row-parallel multiplication."""

    def run():
        costs = default_op_costs()
        t = Table("Ablation: multiplier microarchitecture", ["variant", "nors", "latency_us"])
        for op, label in (("mul", "row-parallel partial products"), ("mul_serial", "bit-serial shift-add")):
            t.add(variant=label, nors=costs.nor_count(op),
                  latency_us=round(costs.time_s(op) * 1e6, 2))
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, t)
    assert t.rows[0]["latency_us"] < t.rows[1]["latency_us"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_expansion(benchmark, capsys):
    """Fig. 8/9 expansion: per-stage makespans, 1-block vs 4-block."""

    def run():
        mesh = HexMesh.from_refinement_level(2)
        elem = ReferenceElement(ORDER)
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        t = Table("Ablation: acoustic expansion (order 7)",
                  ["mapping", "volume_us", "flux_us", "total_us"])
        for g, cls, label in ((1, AcousticOneBlockKernels, "one block (naive)"),
                              (4, AcousticFourBlockKernels, "four blocks (E_p)")):
            mapper = ElementMapper(mesh.m, CHIP_CONFIGS["2GB"], g)
            kern = cls(mesh, elem, mat, mapper, "riemann")
            ex = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
            vol = ex.run(kern.volume(elements=[0]), functional=False).total_time_s
            ex2 = ChipExecutor(PimChip(CHIP_CONFIGS["2GB"]))
            flux = ex2.run(kern.flux(elements=[0]), functional=False).total_time_s
            t.add(mapping=label, volume_us=round(vol * 1e6, 1),
                  flux_us=round(flux * 1e6, 1),
                  total_us=round((vol + flux) * 1e6, 1))
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, t)
    assert t.rows[1]["volume_us"] < t.rows[0]["volume_us"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_htree_fanout(benchmark, capsys):
    """§4.2.1: 'the number of children of a tree node does not have to be
    4' — sweep the fanout under a neighbor-heavy transfer pattern, priced
    by the executor (one 32-word row per transfer)."""

    def run():
        rng = np.random.default_rng(0)
        transfers = [
            Instruction(Opcode.TRANSFER, block=int(min(255, a + rng.integers(1, 5))),
                        src_block=int(a), rows=(0, 1), src_rows=(0, 1),
                        dst=0, src1=0, words=32)
            for a in rng.integers(0, 250, size=512)
        ]
        t = Table("Ablation: H-tree fanout sweep (512 neighbor transfers)",
                  ["fanout", "switches", "makespan_us", "switch_power_mw"])
        for fanout in (2, 4, 16):
            chip = PimChip(CHIP_CONFIGS["512MB"])
            # detach from the route memo that same-config chips share
            # before swapping in a non-default tree.
            chip.invalidate_routes()
            h = chip.tile(0).interconnect = HTree(256, fanout=fanout)
            rep = ChipExecutor(chip).run(transfers, functional=False)
            t.add(fanout=fanout, switches=h.n_switches,
                  makespan_us=round(rep.total_time_s * 1e6, 3),
                  switch_power_mw=round(h.switch_power_w * 1e3, 2))
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, t)
    best = min(t.rows, key=lambda r: r["makespan_us"])
    assert best["fanout"] == 4


@pytest.mark.benchmark(group="ablations")
def test_ablation_pipeline(benchmark, capsys):
    """§6.3 pipelining on/off across all six benchmarks (2 GB chip)."""

    def run():
        comp = WavePimCompiler(order=ORDER)
        t = Table("Ablation: pipelining (2GB)",
                  ["benchmark", "pipelined_us", "serial_us", "throughput_ratio"])
        from repro.workloads import benchmark_list

        for spec in benchmark_list():
            cb = comp.compile(spec.physics, spec.refinement_level,
                              CHIP_CONFIGS["2GB"], spec.flux_kind)
            p = pipelined_stage_time(cb.stage_times)
            s = serial_stage_time(cb.stage_times)
            t.add(benchmark=spec.name, pipelined_us=round(p * 1e6, 1),
                  serial_us=round(s * 1e6, 1), throughput_ratio=round(p / s, 3))
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, t)
    for row in t.rows:
        assert row["throughput_ratio"] < 1.0


@pytest.mark.benchmark(group="ablations")
def test_ablation_batching_overhead(benchmark, capsys):
    """Folding cost: the same benchmark across chip capacities."""

    def run():
        comp = WavePimCompiler(order=ORDER)
        t = Table("Ablation: batching overhead (Elastic-Central_5)",
                  ["chip", "batches", "dram_ms_per_step", "total_s"])
        for name in ("512MB", "2GB", "8GB", "16GB"):
            cb = comp.compile("elastic", 5, CHIP_CONFIGS[name], "central")
            est = estimate_benchmark(cb, n_steps=1024)
            t.add(chip=name, batches=cb.plan.n_batches,
                  dram_ms_per_step=round(est.dram_time_per_step_s * 1e3, 3),
                  total_s=round(est.time_s, 2))
        return t

    t = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, t)
    totals = [r["total_s"] for r in t.rows]
    assert totals == sorted(totals, reverse=True)  # more capacity, less time
