"""Fetch-only emission: the compiler's Fig. 13 fetch lanes.

``flux_fetches`` must be exactly the TRANSFER sub-stream of ``flux`` —
every field, in order — for every kernel family, flux kind, face split,
element set and order, because the compiler prices the fetch lanes from
it.  A compile hands ``flux`` one representative element and
``flux_fetches`` one tile's fully-interior elements in ``true_interior``
order, and builds no flux-coefficient table: the tables are built on the
first ``setup()``, their only reader.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.core.compiler import MINUS_FACES, PLUS_FACES, WavePimCompiler
from repro.core.kernels import acoustic as acoustic_mod
from repro.core.kernels import elastic as elastic_mod
from repro.core.kernels.acoustic import AcousticFourBlockKernels, AcousticOneBlockKernels
from repro.core.kernels.base import KernelBase
from repro.core.kernels.elastic import CENTRAL_COEFFS, ElasticFourBlockKernels
from repro.core.kernels.maxwell import MaxwellOneBlockKernels
from repro.core.mapper import ElementMapper
from repro.dg import AcousticMaterial, ElasticMaterial, HexMesh, ReferenceElement
from repro.dg.maxwell import ElectromagneticMaterial
from repro.pim.isa import Instruction, Opcode
from repro.pim.params import CHIP_CONFIGS, ChipConfig
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.opcount import count_benchmark

#: 256 one-megabit blocks in tiles of 16: the 64-element r=2 mesh spans
#: several tiles for every family (16 elements per tile at g=1, 4 at g=4).
CHIP = ChipConfig(name="256blk", capacity_bytes=256 * 1024 * 1024 // 8,
                  blocks_per_tile=16)

FAMILIES = [
    ("acoustic1", "riemann"), ("acoustic1", "central"),
    ("acoustic4", "riemann"), ("acoustic4", "central"),
    ("elastic", "riemann"), ("elastic", "central"),
    ("maxwell", "upwind"), ("maxwell", "central"),
]

FACE_SETS = (MINUS_FACES, PLUS_FACES, tuple(range(6)))

FIELDS = tuple(f.name for f in dataclasses.fields(Instruction))


def _kernels(family, flux, mesh, element, elements=None):
    g = 4 if family in ("acoustic4", "elastic") else 1
    mapper = ElementMapper(mesh.m, CHIP, g, elements=elements)
    if family == "acoustic1":
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        return AcousticOneBlockKernels(mesh, element, mat, mapper, flux)
    if family == "acoustic4":
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        return AcousticFourBlockKernels(mesh, element, mat, mapper, flux)
    if family == "elastic":
        mat = ElasticMaterial.homogeneous(mesh.n_elements)
        return ElasticFourBlockKernels(mesh, element, mat, mapper, flux)
    mat = ElectromagneticMaterial.homogeneous(mesh.n_elements)
    return MaxwellOneBlockKernels(mesh, element, mat, mapper, flux_kind=flux, alpha=1.0)


def _same(a: Instruction, b: Instruction) -> bool:
    """Field-by-field equality; arrays by dtype, shape and content."""
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if type(x) is not type(y):
            return False
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def _tile_interior(kern, mesh):
    """One tile's fully-interior elements, in ``true_interior`` order."""
    mapper = kern.mapper
    _rep, interior, true_interior = WavePimCompiler.representative_elements(mapper, mesh)
    tile = mapper.tile_of(interior[0])
    return [e for e in true_interior if mapper.tile_of(e) == tile]


@pytest.fixture(scope="module")
def mesh():
    return HexMesh.from_refinement_level(2)


@pytest.fixture(scope="module", params=[2, 7], ids=["order2", "order7"])
def element(request):
    return ReferenceElement(request.param)


class TestFluxFetches:
    @pytest.mark.parametrize("family,flux", FAMILIES)
    @pytest.mark.parametrize("subset", ["all", "tile", "batched"])
    def test_equals_transfer_substream_of_flux(self, mesh, element, family, flux, subset):
        if subset == "batched":
            # one z-slab of the mesh: every +-z face is off-batch
            kern = _kernels(family, flux, mesh, element, elements=np.arange(16))
            elems = None
        else:
            kern = _kernels(family, flux, mesh, element)
            elems = None if subset == "all" else _tile_interior(kern, mesh)
        for faces in FACE_SETS:
            want = [i for i in kern.flux(faces=faces, elements=elems)
                    if i.op is Opcode.TRANSFER]
            got = kern.flux_fetches(faces, elems)
            assert len(got) == len(want) > 0
            assert all(_same(a, b) for a, b in zip(got, want))
            assert {i.tag for i in got} <= {"flux:fetch", "flux:fetch:intra"}
        if subset == "batched":
            per_face = len(kern.flux_fetches((0,), [0]))
            assert len(kern.flux_fetches(elements=elems)) == 4 * per_face * 16

    @pytest.mark.parametrize("family,flux", FAMILIES)
    def test_face_shares_one_rows_object(self, mesh, element, family, flux):
        """A face's compute and TRANSFERs share one ``rows`` object:
        lowering and scheduling memoize row selectors by identity."""
        kern = _kernels(family, flux, mesh, element)
        for face in range(6):
            assert len({id(i.rows) for i in kern.flux(faces=(face,), elements=[5])}) == 1


class TestCompileEmission:
    def test_flux_gets_one_element_and_fetches_get_the_tile(self):
        """A compile hands ``flux`` the representative element only and
        ``flux_fetches`` the tile's interior in ``true_interior`` order."""
        compiler = WavePimCompiler(order=2)
        chip = CHIP_CONFIGS["512MB"]
        flux_calls, fetch_calls = [], []
        real_flux = AcousticOneBlockKernels.flux
        real_fetches = KernelBase.flux_fetches

        def flux_spy(self, faces=range(6), *args, elements=None, **kwargs):
            flux_calls.append(list(elements))
            return real_flux(self, faces, *args, elements=elements, **kwargs)

        def fetches_spy(self, faces=range(6), elements=None):
            fetch_calls.append((tuple(faces), list(elements)))
            return real_fetches(self, faces, elements)

        with mock.patch.object(AcousticOneBlockKernels, "flux", flux_spy), \
                mock.patch.object(KernelBase, "flux_fetches", fetches_spy):
            compiler.compile("acoustic", 4, chip, "riemann")
        _plan, mesh, _element, mapper, kern = compiler._prepare(
            "acoustic", 4, chip, "riemann", 2)
        assert isinstance(kern, AcousticOneBlockKernels)
        rep, _interior, _true = compiler.representative_elements(mapper, mesh)
        tile = _tile_interior(kern, mesh)
        assert flux_calls == [rep, rep]
        assert fetch_calls == [(MINUS_FACES, tile), (PLUS_FACES, tile)]
        assert len(tile) == chip.blocks_per_tile and tile != sorted(tile)


class TestLazyFluxTables:
    @pytest.fixture()
    def spies(self):
        with mock.patch.object(
                acoustic_mod, "acoustic_flux_coefficients",
                wraps=acoustic_mod.acoustic_flux_coefficients) as ac, \
                mock.patch.object(
                    elastic_mod, "elastic_flux_coefficients",
                    wraps=elastic_mod.elastic_flux_coefficients) as el:
            yield ac, el

    @pytest.mark.parametrize("family,flux,builder", [
        ("acoustic1", "riemann", "acoustic"),
        ("acoustic1", "central", "acoustic"),
        ("acoustic4", "riemann", "acoustic"),
        ("elastic", "riemann", "elastic"),
        ("elastic", "central", None),
    ])
    def test_built_on_first_setup_only(self, spies, mesh_l1, elem2, family, flux, builder):
        ac, el = spies
        kern = _kernels(family, flux, mesh_l1, elem2)
        assert ac.call_count == el.call_count == 0
        kern.setup()
        kern.setup(elements=[0])
        assert (ac.call_count, el.call_count) == {
            "acoustic": (1, 0), "elastic": (0, 1), None: (0, 0)}[builder]

    def test_central_elastic_table_is_a_readonly_view(self, mesh_l1, elem2):
        table = _kernels("elastic", "central", mesh_l1, elem2).flux_coeffs
        assert table.shape == (mesh_l1.n_elements, 6, 8)
        assert not table.flags.writeable
        assert np.shares_memory(table, CENTRAL_COEFFS)
        assert np.array_equal(table[3, 5], CENTRAL_COEFFS)

    def test_compile_and_opcount_build_no_table(self, spies):
        ac, el = spies
        compiler = WavePimCompiler(order=2)
        for physics, flux in (("acoustic", "riemann"), ("elastic", "riemann")):
            compiler.compile(physics, 4, CHIP_CONFIGS["512MB"], flux)
            compiler.compile(physics, 4, CHIP_CONFIGS["2GB"], flux)
        for key in ("acoustic_4", "elastic_riemann_4"):
            count_benchmark(BENCHMARKS[key], order=2)
        assert ac.call_count == el.call_count == 0
