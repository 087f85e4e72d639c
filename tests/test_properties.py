"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper, morton3_decode, morton3_encode
from repro.dg.mesh import HexMesh
from repro.dg.quadrature import gll_points_weights
from repro.dg.reference_element import ReferenceElement, opposite_face
from repro.interconnect import HTree
from repro.pim.block import MemoryBlock
from repro.pim.params import CHIP_CONFIGS
from tests.transfer_timing import run_transfers, single_transfer_s


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_gll_weights_positive(order):
    _, w = gll_points_weights(order)
    assert np.all(w > 0)


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_diff_matrix_nilpotent_on_top_degree(order):
    """Applying D order+1 times annihilates every polynomial."""
    e = ReferenceElement(order)
    x = e.nodes_1d.copy()
    f = x**order
    for _ in range(order + 1):
        f = e.diff_1d @ f
    assert np.max(np.abs(f)) < 1e-6


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_mesh_neighbor_involution(m):
    mesh = HexMesh(m=m)
    for e in range(mesh.n_elements):
        for f in range(6):
            nbr = int(mesh.neighbors[e, f])
            assert int(mesh.neighbors[nbr, opposite_face(f)]) == e


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=100, deadline=None)
def test_htree_path_disjointness_criterion(a, b):
    """Blocks in different top-level quadrants share only the root."""
    h = HTree(256)
    if a // 64 != b // 64 and a != b:
        path = h.path(a, b)
        assert h.switch_id(h.levels - 1, 0) in path


@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=30,
))
@settings(max_examples=50, deadline=None)
def test_scheduler_invariants(pairs):
    """Random traffic on the executor: the makespan lies between the
    slowest single transfer and the sum of all of them; the Bus never
    holds its switch for two transfers at once, so its makespan covers
    the switch's whole busy time (paper §4.2.2)."""
    for kind in ("htree", "bus"):
        singles = [single_transfer_s(s, d, kind) for s, d in pairs]
        makespan, ex = run_transfers(pairs, kind, counters=True)
        assert max(singles) <= makespan * (1 + 1e-12)
        assert makespan <= sum(singles) * (1 + 1e-12)
        if kind == "bus":
            links = sorted((s, e) for k, _, s, e in ex.counters.events
                           if k == "link")
            for (_, end), (start, _) in zip(links, links[1:]):
                assert start >= end - 1e-15
            busy = sum(ex.counters.link_busy_s.values())
            assert makespan >= busy * (1 - 1e-12)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2),
       st.data())
@settings(max_examples=50, deadline=None)
def test_tap_map_is_line_projection(order, axis, data):
    """Applying the tap map twice is idempotent along the axis."""
    lay = ElementLayout(order)
    tap = data.draw(st.integers(min_value=0, max_value=order))
    m = lay.tap_row_map(axis, tap)
    assert np.array_equal(m[m], m)  # projection onto the tap plane


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=4, deadline=None)
def test_mapper_is_injective(levelish):
    m = levelish * 2
    mapper = ElementMapper(m, CHIP_CONFIGS["16GB"], 4)
    blocks = [mapper.block_of(e, p) for e in range(m**3) for p in range(4)]
    assert len(set(blocks)) == len(blocks)


@given(st.integers(min_value=0, max_value=511), st.integers(min_value=0, max_value=511),
       st.integers(min_value=0, max_value=511))
@settings(max_examples=100, deadline=None)
def test_morton3_monotone_in_octants(x, y, z):
    code = morton3_encode(x, y, z)
    assert morton3_decode(code) == (x, y, z)
    # doubling all coordinates shifts the code by 3 bits
    assert morton3_encode(2 * x, 2 * y, 2 * z) == code << 3


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=8, max_size=8),
       st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_block_arithmetic_matches_float32(a_vals, b_vals):
    b = MemoryBlock(rows=8, row_words=4)
    a32 = np.array(a_vals, dtype=np.float32)
    b32 = np.array(b_vals, dtype=np.float32)
    b.broadcast((0, 8), 0, a32)
    b.broadcast((0, 8), 1, b32)
    b.add((0, 8), 2, 0, 1)
    b.mul((0, 8), 3, 0, 1)
    assert np.array_equal(b.data[:, 2], a32 + b32)
    assert np.array_equal(b.data[:, 3], a32 * b32)
