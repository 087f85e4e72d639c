"""A memory tile: 256 blocks plus their interconnect (paper Fig. 3).

Blocks are materialized lazily — a functional simulation of a small
problem touches only a handful of blocks, while the analytic timing path
never allocates block storage at all.

Every block of a tile stores its words in one shared
``(blocks_per_tile, rows, row_words)`` float32 array, :attr:`Tile.data`,
and each :class:`~repro.pim.block.MemoryBlock`'s ``data`` is a view of
its slice.  Functional plan replay indexes this array directly to run one
compute instruction across every block that issues it (the lockstep
execution of :mod:`repro.pim.plan`), while per-block code — transfers,
LUT, fault injection, state read-back — keeps using the block views.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect import Bus, HTree, Interconnect
from repro.pim.block import MemoryBlock
from repro.pim.params import ChipConfig

__all__ = ["Tile", "make_interconnect"]


def make_interconnect(kind: str, n_blocks: int, fanout: int = 4) -> Interconnect:
    """Build a tile interconnect of the configured kind."""
    if kind == "htree":
        return HTree(n_blocks=n_blocks, fanout=fanout)
    if kind == "bus":
        return Bus(n_blocks=n_blocks)
    raise ValueError(f"unknown interconnect kind {kind!r}")


class Tile:
    """One memory tile of a Wave-PIM chip."""

    def __init__(self, config: ChipConfig, tile_id: int = 0):
        self.config = config
        self.tile_id = tile_id
        self.n_blocks = config.blocks_per_tile
        self.interconnect = make_interconnect(config.interconnect, self.n_blocks)
        self._blocks: dict = {}
        self._data: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        """Word storage of all blocks, ``(blocks, rows, row_words)`` float32.

        Allocated on first use with ``np.zeros``, whose pages the OS maps
        only when first written, so untouched blocks and rows cost no
        memory.  Block ``i``'s ``data`` is ``self.data[i]``.
        """
        if self._data is None:
            self._data = np.zeros(
                (self.n_blocks, self.config.block_rows, self.config.row_words),
                dtype=np.float32,
            )
        return self._data

    def block(self, local_id: int) -> MemoryBlock:
        """The block with tile-local id ``local_id`` (lazily created)."""
        if not 0 <= local_id < self.n_blocks:
            raise IndexError(f"block {local_id} outside tile of {self.n_blocks}")
        blk = self._blocks.get(local_id)
        if blk is None:
            blk = MemoryBlock(
                rows=self.config.block_rows,
                row_words=self.config.row_words,
                block_id=self.tile_id * self.n_blocks + local_id,
                data=self.data[local_id],
            )
            self._blocks[local_id] = blk
        return blk

    @property
    def materialized_blocks(self) -> int:
        return len(self._blocks)

    def static_power_w(self) -> float:
        """Tile static power (Table 3: 1.68 W H-tree / 1.59 W Bus)."""
        return self.config.power.tile_w(self.config.interconnect, self.n_blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tile(id={self.tile_id}, blocks={self.n_blocks}, "
            f"interconnect={self.interconnect.name})"
        )
