"""Abstract tile interconnect: switch paths, switch counts and power.

A *transfer* moves rows of words (typically one 1024-bit row-buffer image,
or a few words of it) from a source block to a destination block inside a
tile.  The interconnect gives each ``(src, dst)`` pair its *path*, the
ordered switch ids the transfer occupies, plus the flit geometry and
switch-holding discipline that price it;
:class:`~repro.pim.executor.ChipExecutor` places transfers in time along
these paths.

The instruction sequence of the paper's example (§4.2.1) — read I0, memcpy
I1..I3 hop by hop along D0->D1->D2->D3, write I4 — maps to
``read + len(path) * hop_latency_per_flit * flits + write``.
"""

from __future__ import annotations

import abc

__all__ = ["Interconnect"]


class Interconnect(abc.ABC):
    """Common interface for tile-level interconnects.

    Concrete topologies provide switch paths, switch counts, labels and
    static power; :class:`~repro.pim.executor.ChipExecutor` prices
    transfers from the paths and the timing attributes below.
    """

    #: seconds for one flit to traverse one switch (model parameter,
    #: aligned with the crossbar row access time T_search = 1.5 ns).
    hop_latency_per_flit: float = 1.5e-9

    #: 32-bit words per link flit.  Every topology, the Bus included, moves
    #: 4-word (128-bit) flits, and Fig. 14's H-tree/Bus comparison is
    #: reproduced with this value: the two differ in switch count and in
    #: :attr:`exclusive`, not in datapath width.
    flit_words: int = 4

    #: exclusive interconnects ("only one data path can be enabled when
    #: using the bus interconnection", §4.2.2) hold their switches through
    #: the row read and the wire phase of each transfer; non-exclusive ones
    #: (H-tree) serve each transfer for one flit train per switch, so
    #: disjoint sub-trees and back-to-back transfers through one switch
    #: overlap.
    exclusive: bool = False

    def __init__(self, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("interconnect needs at least one block")
        self.n_blocks = n_blocks

    # -- topology ------------------------------------------------------- #

    @abc.abstractmethod
    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Ordered switch ids a ``src -> dst`` transfer occupies."""

    def path_to_root(self, block: int) -> tuple[int, ...]:
        """Switch ids from ``block`` up to the tile's root switch.

        Used for transfers that leave the tile through the central
        controller.  Defaults to the path to block 0's top ancestor; the
        H-tree overrides with the exact ancestor chain.
        """
        self._check_block(block)
        return self.path(block, block ^ 1) if self.n_blocks > 1 else ()

    @property
    @abc.abstractmethod
    def n_switches(self) -> int:
        """Total number of switches in the tile."""

    def switch_ids(self) -> range:
        """All switch ids of the tile (fault-injection enumeration)."""
        return range(self.n_switches)

    def switch_level(self, switch_id: int) -> int:
        """Tree level of a switch (0 = leaf level).

        Flat topologies have a single level; the H-tree overrides this
        with the exact level so fault reports can tell a leaf switch
        (4 blocks unreachable) from the root (the whole tile cut off).
        """
        if not 0 <= switch_id < self.n_switches:
            raise IndexError(f"switch {switch_id} outside tile of {self.n_switches}")
        return 0

    def switch_label(self, switch_id: int) -> str:
        """Human name of a switch for counter timelines and reports.

        Topologies with structure override this (H-tree: ``S<level>.<n>``,
        Bus: ``bus``); the default is the bare id.
        """
        if not 0 <= switch_id < self.n_switches:
            raise IndexError(f"switch {switch_id} outside tile of {self.n_switches}")
        return f"s{switch_id}"

    @property
    @abc.abstractmethod
    def switch_power_w(self) -> float:
        """Total static switch power for one tile (Table 3)."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        ...

    def _check_block(self, b: int) -> None:
        if not 0 <= b < self.n_blocks:
            raise IndexError(f"block {b} outside tile of {self.n_blocks}")
