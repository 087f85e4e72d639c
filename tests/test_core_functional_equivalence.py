"""The flagship verification: the compiled PIM kernels compute the same
wavefield as the numpy dG solver (up to float32 rounding).

Covers both mappings (one-block naive and Fig. 8/9 four-block expansion),
both flux kinds, heterogeneous materials, and multi-step evolution.
"""

import numpy as np
import pytest

from repro.core.kernels.acoustic import (
    AcousticFourBlockKernels,
    AcousticOneBlockKernels,
)
from repro.core.mapper import ElementMapper
from repro.dg import (
    AcousticMaterial,
    AcousticOperator,
    HexMesh,
    ReferenceElement,
    cfl_timestep,
)
from repro.dg.timestepping import LSRK45
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.params import CHIP_CONFIGS

ORDER = 2
LEVEL = 1
TOL = 5e-6  # float32 end-to-end


def _setup(flux, g, seed=0):
    mesh = HexMesh.from_refinement_level(LEVEL)
    elem = ReferenceElement(ORDER)
    rng = np.random.default_rng(seed)
    mat = AcousticMaterial(
        kappa=rng.uniform(1.0, 2.0, mesh.n_elements),
        rho=rng.uniform(0.5, 1.5, mesh.n_elements),
    )
    chip = PimChip(CHIP_CONFIGS["512MB"])
    mapper = ElementMapper(mesh.m, chip.config, g)
    cls = AcousticOneBlockKernels if g == 1 else AcousticFourBlockKernels
    kern = cls(mesh, elem, mat, mapper, flux_kind=flux)
    op = AcousticOperator(mesh, mat, elem, flux=flux)
    state = (0.1 * rng.standard_normal((4, mesh.n_elements, elem.n_nodes))).astype(
        np.float32
    ).astype(np.float64)
    return mesh, elem, mat, chip, kern, op, state


def _boot(chip, kern, state):
    ex = ChipExecutor(chip)
    ex.run(kern.setup() + kern.load_state(state.astype(np.float32)), functional=True)
    return ex


@pytest.mark.parametrize("g", [1, 4])
@pytest.mark.parametrize("flux", ["central", "riemann"])
class TestRhsEquivalence:
    def test_volume_matches_numpy(self, flux, g):
        mesh, elem, mat, chip, kern, op, state = _setup(flux, g)
        ex = _boot(chip, kern, state)
        ex.run(kern.volume(), functional=True)
        got = kern.read_contributions(chip)
        ref = op.volume_rhs(state)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < TOL

    def test_volume_plus_flux_matches_full_rhs(self, flux, g):
        mesh, elem, mat, chip, kern, op, state = _setup(flux, g)
        ex = _boot(chip, kern, state)
        ex.run(kern.volume() + kern.flux(), functional=True)
        got = kern.read_contributions(chip)
        ref = op.rhs(state)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < TOL

    def test_state_roundtrip(self, flux, g):
        mesh, elem, mat, chip, kern, op, state = _setup(flux, g)
        _boot(chip, kern, state)
        got = kern.read_state(chip)
        assert np.allclose(got, state.astype(np.float32))


@pytest.mark.parametrize("g", [1, 4])
class TestTimeStepEquivalence:
    def test_three_full_steps(self, g):
        flux = "riemann"
        mesh, elem, mat, chip, kern, op, state = _setup(flux, g, seed=3)
        dt = cfl_timestep(mesh.h, mat.max_speed, ORDER, cfl=0.3)

        ref = state.copy()
        stepper = LSRK45(lambda s: op.rhs(s))
        aux = np.zeros_like(ref)
        for _ in range(3):
            stepper.step(ref, 0.0, dt, aux)

        ex = _boot(chip, kern, state)
        insts = []
        for _ in range(3):
            insts += kern.time_step(dt)
        ex.run(insts, functional=True)
        got = kern.read_state(chip)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < 5e-5  # float32 accumulation over 15 RK stages

    def test_energy_trajectory_matches(self, g):
        """The PIM evolution dissipates energy like the reference (upwind)."""
        flux = "riemann"
        mesh, elem, mat, chip, kern, op, state = _setup(flux, g, seed=4)
        dt = cfl_timestep(mesh.h, mat.max_speed, ORDER, cfl=0.3)
        e0 = op.energy(state)
        ex = _boot(chip, kern, state)
        ex.run(kern.time_step(dt) + kern.time_step(dt), functional=True)
        e_pim = op.energy(kern.read_state(chip).astype(np.float64))
        assert e_pim < e0
        ref = state.copy()
        stepper = LSRK45(lambda s: op.rhs(s))
        aux = np.zeros_like(ref)
        for _ in range(2):
            stepper.step(ref, 0.0, dt, aux)
        assert e_pim == pytest.approx(op.energy(ref), rel=1e-4)


@pytest.mark.parametrize("flux", ["central", "riemann"])
def test_scheduled_step_tracks_float64_for_100_steps(flux):
    """Long-run ground truth: 100 scheduled one-block PIM steps (float32)
    against the float64 LSRK45 dG solution.  The error stays at float32
    rounding, the energies agree, the upwind flux never gains energy and
    the central flux keeps it."""
    from repro.pim.schedule import schedule_plan

    mesh, elem, mat, chip, kern, op, state = _setup(flux, 1)
    dt = cfl_timestep(mesh.h, mat.max_speed, ORDER, cfl=0.3)
    ex = _boot(chip, kern, state)
    plan = schedule_plan(ex, ex.lower(kern.time_step(dt)))
    assert plan.schedule_stats["kept"]
    ref = state.copy()
    stepper = LSRK45(lambda s: op.rhs(s))
    aux = np.zeros_like(ref)
    e0 = e_prev = op.energy(state)
    for step in range(1, 101):
        ex.run(plan, functional=True)
        stepper.step(ref, 0.0, dt, aux)
        got = kern.read_state(chip).astype(np.float64)
        e_pim = op.energy(got)
        if flux == "riemann":
            assert e_pim <= e_prev, f"energy grew at step {step}"
        e_prev = e_pim
        if step in (10, 50, 100):
            rel_err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert rel_err <= 1e-5, f"rel_err {rel_err:.3g} at step {step}"
            assert abs(e_pim / op.energy(ref) - 1.0) <= 1e-5
    if flux == "central":
        assert abs(e_pim / e0 - 1.0) <= 1e-4


class TestExpansionBehaviour:
    def test_four_block_faster_than_one_block_per_stage(self):
        """§6.2.1: the expanded implementation beats the naive one."""
        _, _, _, chip1, kern1, _, state = _setup("riemann", 1, seed=5)
        ex1 = _boot(chip1, kern1, state)
        rep1 = ex1.run(kern1.volume(elements=[0]), functional=True)

        _, _, _, chip4, kern4, _, _ = _setup("riemann", 4, seed=5)
        ex4 = _boot(chip4, kern4, state)
        rep4 = ex4.run(kern4.volume(elements=[0]), functional=True)
        assert rep4.total_time_s < rep1.total_time_s

    def test_four_block_uses_more_transfers(self):
        """...at the price of 'data duplication and inter-block data
        movement' (§6.2.1)."""
        _, _, _, chip1, kern1, _, state = _setup("riemann", 1, seed=6)
        _, _, _, chip4, kern4, _, _ = _setup("riemann", 4, seed=6)
        from repro.pim.isa import Opcode

        n1 = sum(i.op is Opcode.TRANSFER for i in kern1.volume(elements=[0]))
        n4 = sum(i.op is Opcode.TRANSFER for i in kern4.volume(elements=[0]))
        assert n4 > n1


# ------------------------------------------------------------------------- #
# Elastic (E_r four-block) functional equivalence
# ------------------------------------------------------------------------- #

from repro.core.kernels.elastic import ElasticFourBlockKernels  # noqa: E402
from repro.dg import ElasticMaterial, ElasticOperator  # noqa: E402


def _setup_elastic(flux, seed=0):
    mesh = HexMesh.from_refinement_level(LEVEL)
    elem = ReferenceElement(ORDER)
    rng = np.random.default_rng(seed)
    mat = ElasticMaterial(
        lam=rng.uniform(1.0, 2.0, mesh.n_elements),
        mu=rng.uniform(0.5, 1.5, mesh.n_elements),
        rho=rng.uniform(0.8, 1.2, mesh.n_elements),
    )
    chip = PimChip(CHIP_CONFIGS["512MB"])
    mapper = ElementMapper(mesh.m, chip.config, 4)
    kern = ElasticFourBlockKernels(mesh, elem, mat, mapper, flux_kind=flux)
    op = ElasticOperator(mesh, mat, elem, flux=flux)
    state = (0.1 * rng.standard_normal((9, mesh.n_elements, elem.n_nodes))).astype(
        np.float32
    ).astype(np.float64)
    return mesh, elem, mat, chip, kern, op, state


@pytest.mark.parametrize("flux", ["central", "riemann"])
class TestElasticRhsEquivalence:
    def test_volume_matches_numpy(self, flux):
        mesh, elem, mat, chip, kern, op, state = _setup_elastic(flux)
        ex = ChipExecutor(chip)
        ex.run(kern.setup() + kern.load_state(state.astype(np.float32)), functional=True)
        ex.run(kern.volume(), functional=True)
        got = kern.read_contributions(chip)
        ref = op.volume_rhs(state)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < TOL

    def test_full_rhs_matches_numpy(self, flux):
        """Nine-variable heterogeneous elastic RHS on four blocks =
        the numpy operator, for central AND exact-Riemann fluxes."""
        mesh, elem, mat, chip, kern, op, state = _setup_elastic(flux, seed=1)
        ex = ChipExecutor(chip)
        ex.run(kern.setup() + kern.load_state(state.astype(np.float32)), functional=True)
        ex.run(kern.volume() + kern.flux(), functional=True)
        got = kern.read_contributions(chip)
        ref = op.rhs(state)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < TOL

    def test_two_full_time_steps(self, flux):
        mesh, elem, mat, chip, kern, op, state = _setup_elastic(flux, seed=2)
        dt = cfl_timestep(mesh.h, mat.max_speed, ORDER, cfl=0.3)
        ref = state.copy()
        stepper = LSRK45(lambda s: op.rhs(s))
        aux = np.zeros_like(ref)
        for _ in range(2):
            stepper.step(ref, 0.0, dt, aux)
        ex = ChipExecutor(chip)
        ex.run(kern.setup() + kern.load_state(state.astype(np.float32)), functional=True)
        ex.run(kern.time_step(dt) + kern.time_step(dt), functional=True)
        got = kern.read_state(chip)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err < 5e-5
