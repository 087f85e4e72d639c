"""Pass runner and shared access model for the static program checker.

The checker consumes a compiled :class:`~repro.pim.isa.Instruction` stream
*before* execution and reports :class:`~repro.analysis.findings.Finding`
records.  A :class:`CheckContext` carries everything the passes may consult
— block geometry, the chip topology (for route resolution), the mapper's
planned occupancy and the :class:`CheckOptions` knobs.

:func:`accesses` is the shared read/write model: every pass that reasons
about dataflow (def-use, clobbers, hazards) derives its regions from the
same function, so the passes can never disagree about what an opcode
touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.findings import Finding
from repro.pim.chip import PimChip
from repro.pim.isa import ARITHMETIC_OPS, Instruction, Opcode

__all__ = [
    "Access",
    "CheckOptions",
    "CheckContext",
    "ProgramCheckError",
    "accesses",
    "row_mask",
    "check_program",
    "raise_on_errors",
    "all_passes",
]

RowSel = Union[Tuple[int, int], np.ndarray, Sequence[int]]


class Access(NamedTuple):
    """One word-region touched by an instruction.

    ``col``/``words`` span columns ``[col, col + words)``; ``rows`` is the
    instruction's row selector (tuple range or index array).  ``rows=None``
    means "the whole block" (used for the LUT block, whose served rows are
    data-dependent).  A named tuple: immutable, and cheap to build for
    every instruction of a stream.
    """

    block: Optional[int]
    col: Optional[int]
    words: int
    rows: Optional[RowSel]


@dataclass(frozen=True)
class CheckOptions:
    """Pass behaviour knobs.

    assume_zero_init:
        Blocks power up zeroed in the model (``np.zeros`` storage), and
        kernels legitimately rely on that (the RK auxiliary column is first
        *read* with an implicit 0).  With the default ``True`` the dataflow
        pass therefore does not report ``DF001`` read-before-write; set it
        to ``False`` for strict def-use analysis of hand-built programs.
    check_occupancy:
        Report ``LY005`` when a block id exceeds the planned occupancy
        (``CheckContext.allowed_blocks``).
    """

    assume_zero_init: bool = True
    check_occupancy: bool = True


@dataclass
class CheckContext:
    """Everything a pass may consult about the target machine."""

    n_blocks: int
    block_rows: int
    row_words: int
    chip: Optional[PimChip] = None
    #: mapper plan: block ids must stay below this (None disables LY005).
    allowed_blocks: Optional[int] = None
    #: first storage-region row; defaults to the Fig. 5 top half.  The
    #: element layout may push it up (``max(n_nodes, block_rows // 2)``).
    storage0: Optional[int] = None
    #: spare rows the fault model's parity protection needs per block;
    #: 0 (the default) disables the FT001 fault-readiness pass.
    parity_rows: int = 0
    options: CheckOptions = field(default_factory=CheckOptions)

    @classmethod
    def for_chip(
        cls,
        chip: PimChip,
        allowed_blocks: Optional[int] = None,
        storage0: Optional[int] = None,
        parity_rows: int = 0,
        options: Optional[CheckOptions] = None,
    ) -> "CheckContext":
        cfg = chip.config
        return cls(
            n_blocks=cfg.n_blocks,
            block_rows=cfg.block_rows,
            row_words=cfg.row_words,
            chip=chip,
            allowed_blocks=allowed_blocks,
            storage0=storage0,
            parity_rows=parity_rows,
            options=options or CheckOptions(),
        )

    @property
    def storage_row0(self) -> int:
        """First row of the Fig. 5 constant/storage region (top half)."""
        return self.storage0 if self.storage0 is not None else self.block_rows // 2


class ProgramCheckError(RuntimeError):
    """Raised by the ``verify=True`` paths when error findings exist."""

    def __init__(self, findings: Sequence[Finding], what: str = "program"):
        self.findings = list(findings)
        errors = [f for f in self.findings if f.is_error]
        lines = "\n  ".join(f.format() for f in errors[:20])
        more = f"\n  ... and {len(errors) - 20} more" if len(errors) > 20 else ""
        super().__init__(
            f"static checks failed for {what}: {len(errors)} error finding"
            f"{'s' if len(errors) != 1 else ''}\n  {lines}{more}"
        )


# --------------------------------------------------------------------- #
# shared access model
# --------------------------------------------------------------------- #


def accesses(inst: Instruction) -> Tuple[List[Access], List[Access]]:
    """``(reads, writes)`` word-regions of one instruction.

    BARRIER/HOSTOP/DRAM_* touch no modelled words (DRAM traffic lands via
    explicit BROADCASTs in the kernel streams, matching the executor's
    functional semantics).
    """
    op = inst.op
    reads: List[Access] = []
    writes: List[Access] = []
    if op in ARITHMETIC_OPS:
        reads.append(Access(inst.block, inst.src1, 1, inst.rows))
        reads.append(Access(inst.block, inst.src2, 1, inst.rows))
        writes.append(Access(inst.block, inst.dst, 1, inst.rows))
    elif op is Opcode.COPY:
        reads.append(Access(inst.block, inst.src1, 1, inst.rows))
        writes.append(Access(inst.block, inst.dst, 1, inst.rows))
    elif op is Opcode.GATHER:
        rm = None if inst.row_map is None else np.asarray(inst.row_map)
        reads.append(Access(inst.block, inst.src1, 1, rm))
        writes.append(Access(inst.block, inst.dst, 1, inst.rows))
    elif op is Opcode.BROADCAST:
        writes.append(Access(inst.block, inst.dst, 1, inst.rows))
    elif op is Opcode.TRANSFER:
        src_rows = inst.src_rows if inst.src_rows is not None else inst.rows
        reads.append(Access(inst.src_block, inst.src1, inst.words, src_rows))
        writes.append(Access(inst.block, inst.dst, inst.words, inst.rows))
    elif op is Opcode.LUT:
        # requester reads the index column and writes the result column;
        # the LUT block is read at data-dependent rows (whole block).
        reads.append(Access(inst.block, inst.src1, 1, inst.rows))
        reads.append(Access(inst.src_block, None, 1, None))
        writes.append(Access(inst.block, inst.dst, 1, inst.rows))
    return reads, writes


def row_mask(rows: Optional[RowSel], block_rows: int) -> np.ndarray:
    """Boolean row mask of a selector, clipped to the block.

    Out-of-range rows are *dropped* (the layout pass reports them); the
    dataflow passes only reason about the in-range part.
    """
    mask = np.zeros(block_rows, dtype=bool)
    if rows is None:
        mask[:] = True
        return mask
    if isinstance(rows, tuple):
        r0, r1 = rows
        mask[max(int(r0), 0):max(int(r1), 0)] = True
        return mask
    idx = np.asarray(rows, dtype=np.int64).ravel()
    idx = idx[(idx >= 0) & (idx < block_rows)]
    mask[idx] = True
    return mask


# --------------------------------------------------------------------- #
# pass registry
# --------------------------------------------------------------------- #


def all_passes() -> tuple:
    """The default pass roster, in execution order.

    Structural passes run first so the dataflow passes can assume the
    stream is at least shape-legal.
    """
    from repro.analysis.dataflow import DataflowPass
    from repro.analysis.faultready import FaultReadinessPass
    from repro.analysis.hazards import HazardPass
    from repro.analysis.lowering import LoweringPass
    from repro.analysis.perf import PerfPass
    from repro.analysis.phases import PhasePass
    from repro.analysis.structural import LayoutPass, TransferPass

    return (
        LayoutPass(), TransferPass(), DataflowPass(), PhasePass(),
        HazardPass(), FaultReadinessPass(), LoweringPass(), PerfPass(),
    )


def check_program(
    program: Sequence[Instruction],
    context: Union[CheckContext, PimChip],
    passes: Optional[Sequence] = None,
) -> List[Finding]:
    """Run the checker passes over ``program``; returns all findings.

    ``context`` is a :class:`CheckContext` or a bare :class:`PimChip` (a
    default context is derived).  Findings keep pass order, then program
    order.
    """
    if isinstance(context, PimChip):
        context = CheckContext.for_chip(context)
    program = program if isinstance(program, (list, tuple)) else list(program)
    findings: List[Finding] = []
    for p in all_passes() if passes is None else passes:
        findings.extend(p.run(program, context))
    return findings


def raise_on_errors(findings: Sequence[Finding], what: str = "program") -> List[Finding]:
    """Raise :class:`ProgramCheckError` when any error finding exists.

    Returns the findings unchanged otherwise (warnings pass through).
    """
    if any(f.is_error for f in findings):
        raise ProgramCheckError(findings, what=what)
    return list(findings)
