"""Edge cases and failure injection across the stack.

The functional executor doubles as a validator: malformed instruction
streams must fail loudly (index checks, size mismatches), not corrupt
neighbouring state — the property that let the kernel generators be
debugged against the numpy reference in the first place.
"""

import warnings

import numpy as np
import pytest

from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg import AcousticMaterial, HexMesh, ReferenceElement
from repro.dg.mesh import BoundaryKind
from repro.pim.block import MemoryBlock
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS, MB, ChipConfig


class TestExecutorFailureInjection:
    def _ex(self):
        return ChipExecutor(PimChip(CHIP_CONFIGS["512MB"]))

    def test_bad_column_rejected(self):
        ex = self._ex()
        with pytest.raises(IndexError):
            ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=32, src1=0, src2=1)])

    def test_bad_row_range_rejected(self):
        ex = self._ex()
        with pytest.raises(IndexError):
            ex.run([Instruction(Opcode.ADD, block=0, rows=(0, 2048), dst=0, src1=1, src2=2)])

    def test_bad_block_rejected(self):
        ex = self._ex()
        with pytest.raises(IndexError):
            ex.run([Instruction(Opcode.ADD, block=99999, rows=(0, 4), dst=0, src1=1, src2=2)])

    def test_transfer_size_mismatch_rejected(self):
        ex = self._ex()
        with pytest.raises(ValueError):
            ex.run([
                Instruction(Opcode.TRANSFER, block=1, src_block=0, rows=(0, 4),
                            src_rows=(0, 8), dst=0, src1=0, words=1)
            ])

    def test_gather_map_out_of_block_rejected(self):
        ex = self._ex()
        with pytest.raises(IndexError):
            ex.run([
                Instruction(Opcode.GATHER, block=0, rows=(0, 4), dst=0, src1=1,
                            row_map=np.array([0, 1, 2, 5000]))
            ])

    def test_failure_leaves_other_blocks_untouched(self):
        """A rejected instruction must not have side effects elsewhere."""
        ex = self._ex()
        ex.chip.block(1).broadcast((0, 4), 0, 7.0)
        bad = [
            Instruction(Opcode.ADD, block=1, rows=(0, 4), dst=1, src1=0, src2=0),
            Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=99, src1=0, src2=1),
        ]
        # plan replay validates the whole stream before any state changes:
        # a rejected stream executes nothing at all.
        with pytest.raises(IndexError):
            ex.run(bad)
        assert np.allclose(ex.chip.block(1).data[0:4, 1], 0.0)
        # the serial audit dispatcher keeps per-instruction semantics: the
        # first (valid) instruction executed, the second was rejected.
        with pytest.raises(IndexError):
            ex.run(bad, serial=True)
        assert np.allclose(ex.chip.block(1).data[0:4, 1], 14.0)

    def test_timing_mode_skips_functional_validation_of_contents(self):
        """functional=False still validates structure via cost lookups."""
        ex = self._ex()
        rep = ex.run(
            [Instruction(Opcode.ADD, block=0, rows=(0, 4), dst=1, src1=2, src2=3)],
            functional=False,
        )
        assert rep.total_time_s > 0
        # data untouched in timing mode
        assert np.all(ex.chip.block(0).data == 0)


class TestNumericalEdgeCases:
    def test_float32_overflow_propagates_as_inf(self):
        b = MemoryBlock(rows=4, row_words=4)
        b.broadcast((0, 4), 0, 3e38)
        b.broadcast((0, 4), 1, 3e38)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            b.add((0, 4), 2, 0, 1)
        assert np.all(np.isinf(b.data[0:4, 2]))

    def test_denormal_inputs_survive(self):
        b = MemoryBlock(rows=4, row_words=4)
        b.broadcast((0, 4), 0, 1e-40)
        b.mul((0, 4), 1, 0, 0)
        assert np.all(np.isfinite(b.data[0:4, 1]))

    def test_single_element_mesh(self):
        """m=1 periodic mesh: every neighbor is the element itself."""
        mesh = HexMesh(m=1)
        assert np.all(mesh.neighbors == 0)
        from repro.dg import AcousticOperator

        elem = ReferenceElement(2)
        mat = AcousticMaterial.homogeneous(1)
        op = AcousticOperator(mesh, mat, elem, flux="riemann")
        q = np.zeros((4, 1, 27))
        q[0] = 2.0
        # self-periodic constant state is steady
        assert np.max(np.abs(op.rhs(q))) < 1e-12

    def test_order_one_elements_work_end_to_end(self):
        from repro.core.kernels.acoustic import AcousticOneBlockKernels
        from repro.dg import AcousticOperator

        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)  # 8 nodes, minimal
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
        kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "central")
        op = AcousticOperator(mesh, mat, elem, flux="central")
        rng = np.random.default_rng(0)
        state = rng.standard_normal((4, 8, 8)).astype(np.float32)
        chip = PimChip(CHIP_CONFIGS["512MB"])
        ex = ChipExecutor(chip)
        ex.run(kern.setup() + kern.load_state(state), functional=True)
        ex.run(kern.volume() + kern.flux(), functional=True)
        got = kern.read_contributions(chip)
        ref = op.rhs(state.astype(np.float64))
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 5e-6

    def test_high_order_quadrature_stability(self):
        """Order-12 GLL nodes still converge and integrate exactly."""
        elem = ReferenceElement(12)
        assert np.all(np.isfinite(elem.diff_1d))
        x = elem.nodes_1d
        d = elem.diff_1d @ (x**12)
        assert np.allclose(d, 12 * x**11, atol=1e-6)


class TestCapacityEdges:
    def test_exact_fit_plan(self):
        """elastic_4 on 2GB is an exact 100% fit — no batching, no E_p."""
        from repro.core.planner import plan_configuration

        plan = plan_configuration("elastic", 4, CHIP_CONFIGS["2GB"])
        assert plan.utilization == 1.0
        assert not plan.batched and not plan.expansion_parallel

    def test_tiny_custom_chip_config(self):
        cfg = ChipConfig(name="tiny", capacity_bytes=4 * MB, blocks_per_tile=32)
        assert cfg.n_blocks == 32
        chip = PimChip(cfg)
        assert chip.locate(31) == (0, 31)
        with pytest.raises(IndexError):
            chip.locate(32)

    def test_layout_boundary_orders(self):
        """Order 7 exactly fills the paper's 512 compute rows; order 8
        overflows and must be rejected."""
        assert ElementLayout(7).n_nodes == 512
        with pytest.raises(ValueError):
            ElementLayout(8)

    def test_mapper_exact_capacity(self):
        cfg = ChipConfig(name="t64", capacity_bytes=8 * MB, blocks_per_tile=64)
        m = ElementMapper(4, cfg, 1)  # 64 elements on 64 blocks
        assert m.utilization == 1.0
        with pytest.raises(ValueError):
            ElementMapper(4, cfg, 4)


class TestBoundaryPhysicsEdges:
    @pytest.mark.parametrize("kind", [BoundaryKind.FREE_SURFACE, BoundaryKind.RIGID])
    def test_reflecting_walls_conserve_energy_with_central_flux(self, kind):
        """Free-surface and rigid walls reflect without creating energy."""
        from repro.dg import SolverConfig, WaveSolver

        s = WaveSolver(
            SolverConfig(physics="acoustic", refinement_level=1, order=3,
                         flux="central", boundary=kind)
        )
        rng = np.random.default_rng(0)
        s.set_state(0.01 * rng.standard_normal(s.state.shape))
        e0 = s.energy()
        s.run(20)
        assert s.energy() <= e0 * 1.001

    def test_pim_kernels_refuse_physical_boundaries(self):
        """PIM kernel generation is periodic-only by design (documented)."""
        from repro.core.kernels.acoustic import AcousticOneBlockKernels

        mesh = HexMesh.from_refinement_level(1, boundary=BoundaryKind.FREE_SURFACE)
        elem = ReferenceElement(1)
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        mapper = ElementMapper(mesh.m, CHIP_CONFIGS["512MB"], 1)
        kern = AcousticOneBlockKernels(mesh, elem, mat, mapper, "central")
        with pytest.raises(NotImplementedError):
            kern.flux(elements=[0])
