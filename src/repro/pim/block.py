"""The PIM memory block: 1K x 1K memristor crossbar with row-parallel math.

"The memory block is the most basic unit, which contains memristor memory
cells, sense amplifiers, decoders, row and column drivers, and row and
column buffers ... computations are performed inside the blocks in a
bit-serial way utilizing NOR operations inherently, without any separate
ALU hardware." (§4.1)

Functionally we model the block at word granularity: 1024 rows of 32
float32 words (= 1024 bits).  An arithmetic instruction applies to one
word-column triple across a *range of rows simultaneously* — the
row-parallelism that gives PIM its throughput — while the timing model in
:mod:`repro.pim.arithmetic` prices it at the bit-serial NOR latency.

On a chip, ``data`` is a view into its tile's ``(blocks, rows, row_words)``
array (:attr:`repro.pim.tile.Tile.data`), which is what lets plan replay
run one instruction across many blocks in a single numpy call.  Writes go
through the view (``data[...] = ...``); ``data`` itself is bound once,
here — rebinding it elsewhere would detach the block from its tile (repo
lint RL009).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MemoryBlock"]


class MemoryBlock:
    """Word-level functional model of one crossbar memory block."""

    def __init__(self, rows: int = 1024, row_words: int = 32, block_id: int = 0,
                 data: np.ndarray | None = None):
        if rows < 1 or row_words < 1:
            raise ValueError("block needs positive rows and row_words")
        self.rows = rows
        self.row_words = row_words
        self.block_id = block_id
        if data is None:
            data = np.zeros((rows, row_words), dtype=np.float32)
        elif data.shape != (rows, row_words) or data.dtype != np.float32:
            raise ValueError(
                f"block storage must be float32 {(rows, row_words)}, got "
                f"{data.dtype} {data.shape}"
            )
        #: word storage; a view into the tile array when the block lives
        #: on a chip (see the module docstring).
        self.data = data

    # -- bounds checking ------------------------------------------------- #

    def _rows(self, rows):
        """Normalize a row selector: ``(start, stop)`` tuple or index array.

        The row drivers can activate an arbitrary subset of rows (face
        nodes are scattered through the node enumeration), so arithmetic
        accepts either form; timing is row-count independent either way.

        Side-effect-free by contract: the plan engine
        (:class:`repro.pim.plan._ProgramBuilder`) validates a whole plan
        through ``_rows``/``_cols`` *before* mutating any block state,
        which is what makes a rejected plan execute nothing at all under
        plan replay.
        """
        if isinstance(rows, tuple):
            r0, r1 = rows
            if not (0 <= r0 <= r1 <= self.rows):
                raise IndexError(f"row range {rows} outside block of {self.rows} rows")
            return slice(r0, r1), r1 - r0
        idx = np.asarray(rows, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("row index array must be 1-D")
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise IndexError("row index outside block")
        return idx, idx.size

    def _check(self, rows, *cols: int):
        sel, _ = self._rows(rows)
        self._cols(*cols)
        return sel

    def _cols(self, *cols: int) -> None:
        """Reject word columns outside the row (``None`` means unused)."""
        for c in cols:
            if c is not None and not 0 <= c < self.row_words:
                raise IndexError(f"column {c} outside row of {self.row_words} words")

    # -- row-parallel arithmetic ------------------------------------------ #

    def add(self, rows, dst: int, src1: int, src2: int) -> None:
        sel = self._check(rows, dst, src1, src2)
        self.data[sel, dst] = self.data[sel, src1] + self.data[sel, src2]

    def sub(self, rows, dst: int, src1: int, src2: int) -> None:
        sel = self._check(rows, dst, src1, src2)
        self.data[sel, dst] = self.data[sel, src1] - self.data[sel, src2]

    def mul(self, rows, dst: int, src1: int, src2: int) -> None:
        sel = self._check(rows, dst, src1, src2)
        self.data[sel, dst] = self.data[sel, src1] * self.data[sel, src2]

    # -- data movement ----------------------------------------------------- #

    def copy_column(self, rows, dst: int, src: int) -> None:
        sel = self._check(rows, dst, src)
        self.data[sel, dst] = self.data[sel, src]

    def gather(self, rows, dst: int, src: int, row_map) -> None:
        """``data[rows[i], dst] = data[row_map[i], src]``.

        The decoder lowers this to a serial micro-sequence of row
        reads/writes; functionally it is a permutation copy.
        """
        sel, n = self._rows(rows)
        self._check(rows, dst, src)
        row_map = np.asarray(row_map, dtype=np.int64)
        if row_map.shape != (n,):
            raise ValueError(f"row_map must have {n} entries, got {row_map.shape}")
        if row_map.size and (np.any(row_map < 0) or np.any(row_map >= self.rows)):
            raise IndexError("row_map entry outside block")
        self.data[sel, dst] = self.data[row_map, src]

    def broadcast(self, rows, dst: int, value) -> None:
        """Write a constant (or per-row vector) into a column slice."""
        sel, n = self._rows(rows)
        self._check(rows, dst)
        value = np.asarray(value, dtype=np.float32)
        if value.ndim not in (0, 1):
            raise ValueError("broadcast value must be scalar or 1-D")
        if value.ndim == 1 and value.shape != (n,):
            raise ValueError(f"broadcast vector must have {n} entries")
        self.data[sel, dst] = value

    # -- fault injection ---------------------------------------------------- #

    def flip_bit(self, row: int, col: int, bit: int) -> None:
        """Flip one bit of the float32 word at ``(row, col)`` in place.

        Models a transient upset in the bit-serial datapath; operates on
        the raw IEEE-754 pattern so a sign/exponent/mantissa bit flips
        exactly as the hardware would see it.
        """
        self._check((row, row + 1), col)
        if not 0 <= bit < 32:
            raise IndexError(f"bit {bit} outside the 32-bit word")
        u = self.data.view(np.uint32)
        u[row, col] ^= np.uint32(1) << np.uint32(bit)

    def force_bits(self, rows, col: int, bits, values) -> None:
        """Force stuck-at cells: bit ``bits[i]`` of ``(rows[i], col)`` reads
        ``values[i]`` regardless of what was written."""
        rows = np.asarray(rows, dtype=np.int64)
        self._check(rows, col)
        bits = np.asarray(bits, dtype=np.uint32)
        if bits.size and int(bits.max()) >= 32:
            raise IndexError("bit index outside the 32-bit word")
        mask = np.uint32(1) << bits
        u = self.data.view(np.uint32)
        word = u[rows, col]
        u[rows, col] = np.where(np.asarray(values).astype(bool), word | mask, word & ~mask)

    def read(self, rows, col: int) -> np.ndarray:
        sel = self._check(rows, col)
        return self.data[sel, col].copy()

    def write(self, rows, col: int, values) -> None:
        sel, n = self._rows(rows)
        self._check(rows, col)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (n,):
            raise ValueError(f"write expects {n} values, got {values.shape}")
        self.data[sel, col] = values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryBlock(id={self.block_id}, {self.rows}x{self.row_words} words)"
