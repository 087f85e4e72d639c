"""The DAG builder and list scheduler against their loop reference.

:mod:`tests.schedule_reference` keeps ``dependency_edges``, ``_Sim`` and
``schedule_order`` as first written.  The optimized versions in
:mod:`repro.pim.schedule` must return the same predecessor lists and the
same permutation, on random streams of every opcode on both interconnects
and on the time-step of every kernel family.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode, barrier
from repro.pim.params import CHIP_CONFIGS, ChipConfig
from repro.pim.schedule import dependency_edges, schedule_order
from tests import schedule_reference as ref

#: ops stay inside the first ROWS rows and COLS word columns of a block,
#: so accesses collide often.
ROWS = 12
COLS = 4


def _chip(interconnect):
    """Three tiles of four 16-row blocks, so transfers cross tiles."""
    block_bytes = 16 * 1024 // 8
    return PimChip(ChipConfig(name="schedule-test",
                              capacity_bytes=3 * 4 * block_bytes,
                              block_rows=16, blocks_per_tile=4,
                              interconnect=interconnect))


def _rows(n=None):
    """A ``(start, stop)`` range or an index array without repeats; ``n``
    fixes the row count."""
    if n is None:
        ranges = st.integers(0, ROWS).flatmap(
            lambda r0: st.tuples(st.just(r0), st.integers(r0, ROWS)))
        return st.one_of(ranges, st.integers(1, ROWS).flatmap(_rows))
    return st.one_of(
        st.integers(0, ROWS - n).map(lambda r0: (r0, r0 + n)),
        st.permutations(range(ROWS)).map(lambda p: np.array(p[:n])))


@st.composite
def _instruction(draw, n_blocks):
    block = st.integers(0, n_blocks - 1)
    col = st.integers(0, COLS - 1)
    op = draw(st.sampled_from(list(Opcode)))
    if op is Opcode.BARRIER:
        return barrier()
    if op is Opcode.HOSTOP:
        return Instruction(op, count=draw(st.integers(1, 4)), tag="host")
    if op in (Opcode.DRAM_LOAD, Opcode.DRAM_STORE):
        return Instruction(op, block=draw(st.none() | block), rows=(0, 4),
                           words=draw(st.integers(1, 4)), tag="dram")
    if op is Opcode.TRANSFER:
        src, dst = draw(st.lists(block, min_size=2, max_size=2, unique=True))
        words = draw(st.integers(1, 2))
        n = draw(st.integers(1, ROWS))
        wcol = st.integers(0, COLS - words)
        return Instruction(op, block=dst, src_block=src, rows=draw(_rows(n)),
                           src_rows=draw(_rows(n)), dst=draw(wcol),
                           src1=draw(wcol), words=words, tag="flux")
    b = draw(block)
    rows = draw(_rows())
    if op is Opcode.LUT:
        lut = draw(block.filter(lambda x: x != b))
        return Instruction(op, block=b, src_block=lut, rows=rows,
                           dst=draw(col), src1=draw(col), tag="lut")
    if op is Opcode.BROADCAST:
        return Instruction(op, block=b, rows=rows, dst=draw(col), value=1.0)
    if op is Opcode.GATHER:
        n = rows[1] - rows[0] if isinstance(rows, tuple) else len(rows)
        row_map = np.array(draw(st.lists(st.integers(0, ROWS - 1),
                                         min_size=n, max_size=n)))
        return Instruction(op, block=b, rows=rows, dst=draw(col),
                           src1=draw(col), row_map=row_map)
    return Instruction(op, block=b, rows=rows, dst=draw(col), src1=draw(col),
                       src2=draw(col))


@st.composite
def _streams(draw):
    """``(interconnect, stream)``: every opcode, drawn over a few blocks so
    histories, ports and switches are shared."""
    interconnect = draw(st.sampled_from(["htree", "bus"]))
    n_blocks = draw(st.integers(2, 12))
    stream = draw(st.lists(_instruction(n_blocks), min_size=1, max_size=40))
    return interconnect, stream


def _assert_matches_reference(ex, stream):
    plan = ex.lower(stream)
    preds = dependency_edges(plan.instructions)
    assert preds == ref.dependency_edges(plan.instructions)
    assert schedule_order(ex, plan, preds) == ref.schedule_order(ex, plan, preds)


class TestScheduleReference:
    @given(_streams())
    @settings(max_examples=150, deadline=None)
    def test_random_streams_match_reference(self, case):
        interconnect, stream = case
        _assert_matches_reference(ChipExecutor(_chip(interconnect)), stream)

    @pytest.mark.parametrize("interconnect", ["htree", "bus"])
    @pytest.mark.parametrize("family", ["acoustic_one_block",
                                        "acoustic_four_block", "elastic",
                                        "maxwell"])
    def test_kernel_time_steps_match_reference(self, family, interconnect):
        from repro.core.kernels.acoustic import (
            AcousticFourBlockKernels,
            AcousticOneBlockKernels,
        )
        from repro.core.kernels.elastic import ElasticFourBlockKernels
        from repro.core.kernels.maxwell import MaxwellOneBlockKernels
        from repro.core.mapper import ElementMapper
        from repro.dg import (
            AcousticMaterial,
            ElasticMaterial,
            HexMesh,
            ReferenceElement,
        )
        from repro.dg.maxwell import ElectromagneticMaterial

        kernels, blocks, material = {
            "acoustic_one_block": (AcousticOneBlockKernels, 1, AcousticMaterial),
            "acoustic_four_block": (AcousticFourBlockKernels, 4, AcousticMaterial),
            "elastic": (ElasticFourBlockKernels, 4, ElasticMaterial),
            "maxwell": (MaxwellOneBlockKernels, 1, ElectromagneticMaterial),
        }[family]
        cfg = CHIP_CONFIGS["512MB"].with_interconnect(interconnect)
        mesh = HexMesh.from_refinement_level(1)
        kern = kernels(mesh, ReferenceElement(2),
                       material.homogeneous(mesh.n_elements),
                       ElementMapper(mesh.m, cfg, blocks), "central")
        _assert_matches_reference(ChipExecutor(PimChip(cfg)),
                                  kern.time_step(1e-4))
