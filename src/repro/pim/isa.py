"""The Wave-PIM instruction set.

"Wave simulation can be abstracted as general memory instructions and
arithmetic instructions.  Instructions are sent from the host, and are
pre-processed by the decoder on the PIM chip.  Next, micro sequences are
generated and sent to each memory block." (§4.1)

The ISA below is the instruction stream the Wave-PIM compiler
(:mod:`repro.core.kernels`) emits and the executor prices/executes:

=============  ====================================================
``ADD/SUB/MUL``  row-parallel float32 arithmetic between three columns
``GATHER``       intra-block row permutation copy (micro-sequence of
                 row reads/writes; used to stage derivative taps)
``BROADCAST``    write a constant column into a row range (Fig. 6 step 1)
``COPY``         intra-block column copy over a row range
``TRANSFER``     inter-block memcpy routed by the H-tree/Bus (§4.2)
``LUT``          the Fig. 4 look-up-table instruction (Alg. 1)
``HOSTOP``       sqrt/inverse offloaded to the host CPU (§4.3)
``DRAM_LOAD/STORE``  off-chip HBM transactions (batching, §6.1)
``BARRIER``      phase synchronization marker
=============  ====================================================

The 64-bit LUT encoding follows Fig. 4 exactly:
``opcode[63:57] | row_id[56:31] | offset_s[30:26] | lut_block[25:5] |
offset_d[4:0]`` — 5-bit offsets because a 1024-bit row holds 32 32-bit
words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Opcode", "Instruction", "LutInstructionFormat", "ARITHMETIC_OPS",
    "barrier", "dram_swap",
]


class Opcode(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    GATHER = "gather"
    BROADCAST = "broadcast"
    COPY = "copy"
    TRANSFER = "transfer"
    LUT = "lut"
    HOSTOP = "hostop"
    DRAM_LOAD = "dram_load"
    DRAM_STORE = "dram_store"
    BARRIER = "barrier"


#: Opcodes whose latency comes from the arithmetic NOR tables.
ARITHMETIC_OPS = {Opcode.ADD, Opcode.SUB, Opcode.MUL}


@dataclass
class Instruction:
    """One decoded Wave-PIM instruction.

    Only the fields relevant to the opcode are populated; the executor
    validates the combination.  ``block`` is a *global* block id.

    Field semantics
    ---------------
    rows:
        ``(start, stop)`` row range the op applies to (row-parallel).
    dst/src1/src2:
        Column (word) indices within the row for arithmetic, or column
        indices for COPY/BROADCAST/GATHER.
    row_map:
        For GATHER: sequence such that ``data[r, dst] = data[row_map[r -
        rows[0]], src1]``.
    n_unique_rows:
        For GATHER: number of distinct source rows in ``row_map``, the
        quantity that prices the micro-sequence.  Computed once at emit
        time (the row map is static) so the executor's hot loop does not
        re-run ``np.unique`` per dispatch; left ``None`` for hand-built
        instructions, in which case the executor derives it.
    value:
        For BROADCAST: the constant (or per-row array) to write.
    src_block/words:
        For TRANSFER: source block id and payload size in words per row.
    tag:
        Cost attribution label ("volume", "flux:inter", ...), the raw
        material of Figs. 13/14.
    """

    op: Opcode
    block: int | None = None
    rows: tuple = (0, 0)
    dst: int | None = None
    src1: int | None = None
    src2: int | None = None
    row_map: object = None
    n_unique_rows: int | None = None
    value: object = None
    src_block: int | None = None
    src_rows: tuple | None = None
    words: int = 1
    count: int = 1
    tag: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        if isinstance(self.rows, tuple):
            return max(0, self.rows[1] - self.rows[0])
        return len(self.rows)

    def __post_init__(self):
        if not isinstance(self.op, Opcode):
            raise TypeError(f"op must be an Opcode, got {type(self.op)}")


def barrier(tag: str = "sync") -> Instruction:
    """A BARRIER phase-synchronization marker."""
    return Instruction(Opcode.BARRIER, tag=tag)


def dram_swap(op: Opcode, n_bytes: int) -> Instruction:
    """A DRAM_LOAD (swap in) or DRAM_STORE (swap out) of a batch's state.

    One off-chip transaction (§6.1, Fig. 6).  It names no block: it streams
    a whole batch, so it holds the DRAM channel, not one block's clock.
    """
    return Instruction(op, tag="dram:swap", meta={"bytes": int(n_bytes)})


class LutInstructionFormat:
    """Encoder/decoder for the paper's 64-bit LUT instruction (Fig. 4)."""

    OPCODE_BITS = 7
    ROW_BITS = 26
    OFFSET_BITS = 5
    LUT_BLOCK_BITS = 21

    OPCODE_SHIFT = 57
    ROW_SHIFT = 31
    OFFSET_S_SHIFT = 26
    LUT_BLOCK_SHIFT = 5
    OFFSET_D_SHIFT = 0

    #: The opcode value that "differentiates look-up table instructions
    #: from other PIM instructions" (§4.3).
    LUT_OPCODE = 0b1010101

    @classmethod
    def encode(cls, row_id: int, offset_s: int, lut_block_id: int, offset_d: int,
               opcode: int | None = None) -> int:
        opcode = cls.LUT_OPCODE if opcode is None else opcode
        for name, val, bits in (
            ("opcode", opcode, cls.OPCODE_BITS),
            ("row_id", row_id, cls.ROW_BITS),
            ("offset_s", offset_s, cls.OFFSET_BITS),
            ("lut_block_id", lut_block_id, cls.LUT_BLOCK_BITS),
            ("offset_d", offset_d, cls.OFFSET_BITS),
        ):
            if not 0 <= val < (1 << bits):
                raise ValueError(f"{name}={val} does not fit in {bits} bits")
        return (
            (opcode << cls.OPCODE_SHIFT)
            | (row_id << cls.ROW_SHIFT)
            | (offset_s << cls.OFFSET_S_SHIFT)
            | (lut_block_id << cls.LUT_BLOCK_SHIFT)
            | (offset_d << cls.OFFSET_D_SHIFT)
        )

    @classmethod
    def decode(cls, word: int) -> dict:
        if not 0 <= word < (1 << 64):
            raise ValueError("LUT instruction must be a 64-bit word")
        mask = lambda bits: (1 << bits) - 1  # noqa: E731
        return {
            "opcode": (word >> cls.OPCODE_SHIFT) & mask(cls.OPCODE_BITS),
            "row_id": (word >> cls.ROW_SHIFT) & mask(cls.ROW_BITS),
            "offset_s": (word >> cls.OFFSET_S_SHIFT) & mask(cls.OFFSET_BITS),
            "lut_block_id": (word >> cls.LUT_BLOCK_SHIFT) & mask(cls.LUT_BLOCK_BITS),
            "offset_d": (word >> cls.OFFSET_D_SHIFT) & mask(cls.OFFSET_BITS),
        }
