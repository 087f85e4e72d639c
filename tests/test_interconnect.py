"""H-tree and Bus topologies: switch counts, paths, power, transfer timing.

Transfers are timed by the executor; its contention cases are in
``tests/test_pim_chip_executor.py::TestInterconnectContention``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import Bus, HTree
from repro.interconnect.htree import morton_decode, morton_encode
from tests.transfer_timing import run_transfers, single_transfer_s

blocks256 = st.integers(min_value=0, max_value=255)


class TestMorton:
    @given(st.integers(min_value=0, max_value=1023), st.integers(min_value=0, max_value=1023))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, r, c):
        assert morton_decode(morton_encode(r, c)) == (r, c)

    def test_quad_locality(self):
        """The four blocks of each 2x2 quad have consecutive codes."""
        codes = sorted(morton_encode(r, c) for r in (0, 1) for c in (0, 1))
        assert codes == [0, 1, 2, 3]


class TestHTree:
    def test_paper_switch_count(self):
        """256-block tile: 64 + 16 + 4 + 1 = 85 switches (§4.2.2)."""
        h = HTree(256)
        assert h.switches_per_level == [64, 16, 4, 1]
        assert h.n_switches == 85

    def test_16_block_example(self):
        """Fig. 3's example: 4 S0 switches and 1 S1."""
        h = HTree(16)
        assert h.switches_per_level == [4, 1]

    def test_same_quad_single_switch(self):
        """Blocks under one S0 use exactly that one switch (§4.2.1)."""
        h = HTree(256)
        assert h.path(0, 1) == (h.switch_id(0, 0),)
        assert h.path(2, 3) == (h.switch_id(0, 0),)

    def test_paper_fig3_path_lengths(self):
        """Fig. 3: Block 0 -> Block 5 crosses S0, S1, S0 (3 switches)."""
        h = HTree(16)
        assert len(h.path(0, 5)) == 3

    def test_path_symmetric_length(self):
        h = HTree(256)
        for a, b in ((0, 255), (13, 200), (64, 65)):
            assert len(h.path(a, b)) == len(h.path(b, a))

    def test_self_path_empty(self):
        assert HTree(64).path(7, 7) == ()

    def test_path_to_root_chain(self):
        h = HTree(256)
        chain = h.path_to_root(0)
        assert len(chain) == h.levels
        assert chain[-1] == h.switch_id(h.levels - 1, 0)

    @given(blocks256, blocks256)
    @settings(max_examples=100, deadline=None)
    def test_path_endpoints_ancestors(self, a, b):
        """Every switch on the path is an ancestor of a or b."""
        h = HTree(256)
        path = h.path(a, b)
        anc = set(h.path_to_root(a)) | set(h.path_to_root(b))
        assert set(path) <= anc

    def test_fanout_generalization(self):
        """§4.2.1: 'the number of children of a tree node does not have
        to be 4' — a fanout-16 tree over 256 blocks has 2 levels."""
        h = HTree(256, fanout=16)
        assert h.switches_per_level == [16, 1]
        assert h.n_switches == 17

    def test_switch_power_scales(self):
        full = HTree(256).switch_power_w
        assert full == pytest.approx(0.10713)
        small = HTree(16).switch_power_w
        assert small == pytest.approx(0.10713 * 5 / 85)

    def test_rejects_bad_fanout(self):
        with pytest.raises(ValueError):
            HTree(16, fanout=1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            HTree(16).path(0, 16)


class TestBus:
    def test_single_switch(self):
        b = Bus(256)
        assert b.n_switches == 1
        assert b.path(0, 200) == (0,)
        assert b.path(5, 5) == ()
        assert b.switch_power_w == pytest.approx(0.0172)
        assert b.exclusive

    def test_power_cheaper_than_htree(self):
        assert Bus(256).switch_power_w < HTree(256).switch_power_w


class TestScheduler:
    """Transfer scheduling as timed by the executor on the H-tree."""

    def test_makespan_nonnegative_and_bounded(self):
        """Random traffic finishes no sooner than its slowest transfer and
        no later than all transfers run one after another."""
        rng = np.random.default_rng(0)
        pairs = [(int(rng.integers(0, 16)), int(rng.integers(0, 16)))
                 for _ in range(20)]
        makespan, _ = run_transfers(pairs, "htree")
        singles = [single_transfer_s(s, d, "htree") for s, d in pairs]
        assert 0 <= max(singles) <= makespan * (1 + 1e-12)
        assert makespan <= sum(singles) * (1 + 1e-12)
