"""Single-switch Bus interconnect (paper §4.2.2).

"Only one central bus switch is needed for a bus interconnect" — cheap in
leakage power (17.2 mW vs 107.13 mW for the H-tree, Table 3) but "the bus
switch processes these transmissions sequentially": every transfer in the
tile occupies the one switch, and :attr:`Bus.exclusive` makes the executor
hold it through each transfer's read and wire phases, serializing them.
"""

from __future__ import annotations

from repro.interconnect.topology import Interconnect

__all__ = ["Bus"]

#: Table 3: one bus switch draws 17.2 mW.
BUS_SWITCH_POWER_W = 0.0172


class Bus(Interconnect):
    """Tile-wide shared bus: one switch, full serialization."""

    exclusive = True

    def __init__(self, n_blocks: int = 256):
        super().__init__(n_blocks)

    @property
    def name(self) -> str:
        return "bus"

    @property
    def n_switches(self) -> int:
        return 1

    @property
    def switch_power_w(self) -> float:
        return BUS_SWITCH_POWER_W

    def path(self, src: int, dst: int) -> tuple:
        self._check_block(src)
        self._check_block(dst)
        if src == dst:
            return ()
        return (0,)

    def switch_level(self, switch_id: int) -> int:
        """The bus switch is the tile root: losing it cuts off every block."""
        if switch_id != 0:
            raise IndexError(f"switch {switch_id} outside tile of 1")
        return 0

    def switch_label(self, switch_id: int) -> str:
        if switch_id != 0:
            raise IndexError(f"switch {switch_id} outside tile of 1")
        return "bus"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bus(n_blocks={self.n_blocks})"
