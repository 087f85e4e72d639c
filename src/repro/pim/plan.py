"""Execution plans: lower an instruction stream once, replay it cheaply.

Wave simulation replays the same per-element instruction streams every
RK stage of every time-step (§4–§5), yet per-instruction dispatch pays the
full Python interpretation cost on every replay.  :func:`lower_program`
compiles a stream *once* into an :class:`ExecutionPlan` — a numpy
structured array of ``(opcode, duration, energy, NOR cycles)`` with every
TRANSFER's route resolved per unique ``(src, dst)`` pair up front — so
:meth:`repro.pim.executor.ChipExecutor.run` on a plan becomes a few
vectorized segment reductions plus a per-block prefix-max clock advance
instead of thousands of Python dispatches.

Plan replay runs every fault-free execution (DESIGN.md §13), analytic
and functional.  Functional replay runs the blocks in lockstep, as the
chip does: a segment holds only block-local compute ops, so ops of
different blocks commute, and each segment's program (built lazily by
:meth:`_VecSegment.build_apply`) issues one numpy call over a tile's
block array (:attr:`repro.pim.tile.Tile.data`) for every group of blocks
whose next op is the same, keeping each block's own op order.  Serial
dispatch is the audit reference (``ChipExecutor.run(..., serial=True)``)
and runs every stream with an enabled fault model, whose overheads move
block clocks in the middle of a segment.

Bit-identity contract
---------------------
The plan path must produce a :class:`~repro.pim.executor.TimingReport`
*bit-identical* to serial dispatch.  Three invariants make that possible:

1. Compute opcodes (ADD/SUB/MUL/COPY/GATHER/BROADCAST) only read the
   block clock, the block's two transfer ports and the barrier floor —
   and only write the block clock.  Ports/barrier change exclusively at
   *coupling* opcodes (TRANSFER/LUT/HOSTOP/DRAM/BARRIER), so inside a
   maximal run of compute ops (a *segment*) each block's clock advances
   by a pure left-fold of durations from ``max(clock, port_r, port_w,
   barrier)`` — exactly what serial dispatch computes (after the first
   op the clock already dominates the unchanged port values).
2. Report accumulators (per-tag time/energy, total dynamic energy) are
   independent left-folds over the same addend sequence in stream order;
   :func:`fold_array` replays the exact serial addition order (a Python
   loop for short runs, a strict ``np.add.accumulate`` — never pairwise
   ``np.sum`` — beyond that).
3. Every per-instruction float (durations, energies, wire latencies) is
   precomputed at lower time with the *same expression and association
   order* as the serial opcode handlers, so replay only re-executes the
   data-dependent ``max``/update logic.

Coupling opcodes keep their serial handlers: TRANSFER gets a precomputed
fast-path row (route, flit count, phase latencies *and* the functional
row selectors resolved at lower time); LUT/HOSTOP/DRAM/BARRIER dispatch
through the executor unchanged.

A plan records the chip's ``routing_epoch`` at lower time; if spare-block
remapping has invalidated the routes since, the executor re-lowers
instead of replaying stale paths.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.pim.isa import ARITHMETIC_OPS, Instruction, Opcode

if TYPE_CHECKING:
    from repro.pim.arithmetic import OpCosts
    from repro.pim.block import MemoryBlock
    from repro.pim.chip import PimChip

__all__ = [
    "COPY_NORS",
    "ExecutionPlan",
    "PLAN_DTYPE",
    "OP_IDS",
    "STEP_DISPATCH",
    "STEP_SEGMENT",
    "STEP_TRANSFER",
    "fold_array",
    "lower_program",
    "VECTORIZABLE_OPS",
]

#: NOR cycles of a row-parallel column-to-column copy (two cascaded NOTs).
COPY_NORS = 2

#: Opcodes whose timing touches only the owning block's clock — the ones a
#: segment may vectorize.  Everything else couples clocks (ports, switches,
#: host, DRAM, barrier) and ends the segment.
VECTORIZABLE_OPS = frozenset(ARITHMETIC_OPS) | {
    Opcode.COPY, Opcode.GATHER, Opcode.BROADCAST,
}

#: One row per instruction: opcode id, analytic duration/energy (zero for
#: dispatch-handled rows) and the NOR cycles of the op (nonzero only for
#: arithmetic/COPY; the hardware counters sum them per block).
PLAN_DTYPE = np.dtype([
    ("op", np.uint8),
    ("dur", np.float64),
    ("energy", np.float64),
    ("nors", np.int32),
])

#: stable opcode -> small-int encoding for the structured array.
OP_IDS = {op: i for i, op in enumerate(Opcode)}
OP_LIST = tuple(Opcode)
#: ``Opcode.value`` by id (the enum's ``value`` property is slow per call).
_OP_VALUES = tuple(op.value for op in OP_LIST)

#: plan step kinds (first element of each ``ExecutionPlan.steps`` entry).
STEP_SEGMENT = 0
STEP_TRANSFER = 1
STEP_DISPATCH = 2

#: lockstep-program entry kinds (first element of a ``_VecSegment.apply``
#: entry ``(kind, array, dst index, ...)``):
#: ``array[dst] = ufunc(array[a], array[b])`` (ADD/SUB/MUL),
#: ``array[dst] = array[src]`` (COPY, and GATHER with the row map in
#: ``src``) and ``array[dst] = value`` (BROADCAST).
APPLY_UFUNC = 0
APPLY_MOVE = 1
APPLY_FILL = 2

#: ufunc per arithmetic opcode id: the lockstep apply computes the exact
#: same float32 elementwise operation as ``MemoryBlock.add``/``sub``/``mul``.
_APPLY_UFUNCS = {
    OP_IDS[Opcode.ADD]: np.add,
    OP_IDS[Opcode.SUB]: np.subtract,
    OP_IDS[Opcode.MUL]: np.multiply,
}
_VECTORIZABLE_IDS = frozenset(OP_IDS[op] for op in VECTORIZABLE_OPS)
_TRANSFER_ID = OP_IDS[Opcode.TRANSFER]
_BROADCAST_ID = OP_IDS[Opcode.BROADCAST]
_GATHER_ID = OP_IDS[Opcode.GATHER]
_COPY_ID = OP_IDS[Opcode.COPY]


def fold_array(base: float, values: np.ndarray) -> float:
    """Left-fold the additions of ``values`` (in order) onto ``base``.

    Bit-identical to ``for v in values: base += v``.  ``np.add.accumulate``
    is a strict sequential fold (it must produce every prefix), unlike
    ``np.sum``/``np.add.reduce`` whose pairwise re-association would break
    the bit-identity contract.
    """
    n = values.shape[0]
    if n <= 64:
        for v in values:
            base += v
        return float(base)
    acc = np.empty(n + 1)
    acc[0] = base
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


class _VecSegment:
    """A maximal run of compute ops, pre-grouped for vectorized replay."""

    __slots__ = (
        "n", "start", "stop", "op_counts", "energies", "tag_groups",
        "block_groups", "apply",
    )

    def __init__(self, array: np.ndarray, indices: range,
                 insts: Sequence[Instruction]) -> None:
        self.n = len(indices)
        self.start = indices.start
        self.stop = indices.stop
        durs = array["dur"][indices.start:indices.stop]
        ens = array["energy"][indices.start:indices.stop]
        nors = array["nors"][indices.start:indices.stop]
        #: whole-segment energies in stream order (global dynamic-energy fold)
        self.energies = ens
        self.op_counts = Counter(map(
            _OP_VALUES.__getitem__, array["op"][indices.start:indices.stop].tolist()
        ))
        # group positions by tag / block, preserving first-seen order so the
        # report dicts are populated in the same key order as serial dispatch
        by_tag: Dict[str, List[int]] = {}
        by_block: Dict[Any, List[int]] = {}
        for pos, i in enumerate(indices):
            by_tag.setdefault(insts[i].tag, []).append(pos)
            by_block.setdefault(insts[i].block, []).append(pos)
        self.tag_groups = [
            (tag, durs[np.asarray(p, dtype=np.intp)], ens[np.asarray(p, dtype=np.intp)])
            for tag, p in by_tag.items()
        ]
        # per-block duration runs plus the hardware-counter aggregates
        # (NOR cycles issued / ops retired) precomputed at lower time, so
        # counters-enabled replay costs one dict update per group.
        self.block_groups = [
            (block, durs[sel], int(nors[sel].sum()), len(p))
            for block, p in by_block.items()
            for sel in (np.asarray(p, dtype=np.intp),)
        ]
        #: functional apply program, built lazily on the first functional
        #: replay (analytic replays never pay for it).
        self.apply: Optional[List[Tuple[Any, ...]]] = None

    def build_apply(self, insts: Sequence[Instruction], chip: "PimChip",
                    interned: Dict[Hashable, Any]) -> List[Tuple[Any, ...]]:
        """Compile this segment's functional effects into a lockstep program.

        A segment holds only block-local compute ops, so ops of different
        blocks touch disjoint memory and commute: only each block's own
        stream order matters.  The build queues every block's ops in
        stream order, then merges the queues in *lockstep* rounds — each
        round takes the next op of every block, and the blocks of one tile
        whose next ops share a signature (opcode, row selector, columns,
        ``row_map``) become one numpy call over the tile array
        (:attr:`repro.pim.tile.Tile.data`), indexed by those blocks.  That
        is how the chip runs an instruction: every block at once, row-
        parallel (§4–§5).  BROADCAST values are stacked per block; a group
        of one block indexes that block's 2-D view directly.  Each call
        computes the same float32 elementwise operation as the serial
        :class:`~repro.pim.block.MemoryBlock` method on each of its
        blocks, so block state stays bit-identical to serial dispatch.

        Validation (row/column bounds, row-map shape and bounds, broadcast
        shape) runs here with the ``MemoryBlock`` checks for every op
        before anything executes, so an out-of-bounds op in any block
        raises with all block state untouched.  Index arrays — row
        selectors, row maps and block sets, which recur every RK stage —
        are interned in ``interned`` (one table per plan): replay memory
        holds one copy per distinct array, and a row index array is
        bounds-checked once, when first seen.
        """
        bpt = chip.config.blocks_per_tile
        blocks: Dict[Any, "MemoryBlock"] = {}
        #: per block, in stream order: (signature id, signature, row
        #: selector, row map or BROADCAST value)
        queues: Dict[Any, List[Tuple[int, Tuple[Any, ...], Any, Any]]] = {}
        sig_ids: Dict[Tuple[Any, ...], int] = {}
        for i in range(self.start, self.stop):
            inst = insts[i]
            op = inst.op
            blk = blocks.get(inst.block)
            if blk is None:
                blk = blocks[inst.block] = chip.block(inst.block)
                queues[inst.block] = []
            rkey, rsel, n_sel = _row_selector(interned, inst.rows, blk)
            src = inst.src1
            other: Any = None
            extra: Any = None
            if op is Opcode.GATHER:
                blk._cols(inst.dst, src)
                row_map = np.asarray(inst.row_map, dtype=np.int64)
                if row_map.shape != (n_sel,):
                    raise ValueError(
                        f"row_map must have {n_sel} entries, got {row_map.shape}"
                    )
                other, extra = _row_map_selector(interned, row_map, blk)
            elif op is Opcode.BROADCAST:
                blk._cols(inst.dst)
                extra = np.asarray(inst.value, dtype=np.float32)
                if extra.ndim not in (0, 1):
                    raise ValueError("broadcast value must be scalar or 1-D")
                if extra.ndim == 1 and extra.shape != (n_sel,):
                    raise ValueError(f"broadcast vector must have {n_sel} entries")
                src = None
                other = extra.ndim
            elif op is Opcode.COPY:
                blk._cols(inst.dst, src)
            else:
                blk._cols(inst.dst, src, inst.src2)
                other = inst.src2
            sig = (blk.block_id // bpt, OP_IDS[op], rkey, inst.dst, src, other)
            queues[inst.block].append(
                (sig_ids.setdefault(sig, len(sig_ids)), sig, rsel, extra))

        prog: List[Tuple[Any, ...]] = []
        heads = dict.fromkeys(queues, 0)
        while heads:
            groups: Dict[int, List[Any]] = {}
            for b, pos in heads.items():
                groups.setdefault(queues[b][pos][0], []).append(b)
            for group in groups.values():
                entries = [queues[b][heads[b]] for b in group]
                if len(group) == 1:
                    prog.append(_lockstep_call(
                        blocks[group[0]].data, None, None, entries))
                    continue
                tile_id = entries[0][1][0]
                base = tile_id * bpt
                flat, column = _block_selector(
                    interned, tuple(b - base for b in group))
                prog.append(_lockstep_call(
                    chip.tile(tile_id).data, flat, column, entries))
            heads = {b: pos + 1 for b, pos in heads.items()
                     if pos + 1 < len(queues[b])}
        self.apply = prog
        return prog


def _row_selector(interned: Dict[Hashable, Any], rows: Any,
                  blk: "MemoryBlock") -> Tuple[Hashable, Any, int]:
    """Validate a row selector; return its signature key, numpy selector
    and row count.

    Ranges are checked by ``MemoryBlock._rows`` on every use.  An index
    array is checked by it once per plan: the interned table only holds
    arrays that passed, and every block of a chip has the same rows.
    """
    if isinstance(rows, tuple):
        sel, n = blk._rows(rows)
        return (int(sel.start), int(sel.stop)), sel, n
    idx = np.asarray(rows, dtype=np.int64)
    hit = interned.get(idx.tobytes()) if idx.ndim == 1 else None
    if hit is None:
        blk._rows(idx)
        hit = interned[idx.tobytes()] = _index_selector(idx, len(interned))
    return hit


def _row_map_selector(interned: Dict[Hashable, Any], row_map: np.ndarray,
                      blk: "MemoryBlock") -> Tuple[Hashable, Any]:
    """Validate a GATHER row map (1-D, shape already checked) once per
    plan, like :func:`_row_selector`; return its key and selector."""
    hit = interned.get(row_map.tobytes())
    if hit is None:
        if row_map.size and (
            np.any(row_map < 0) or np.any(row_map >= blk.rows)
        ):
            raise IndexError("row_map entry outside block")
        hit = interned[row_map.tobytes()] = _index_selector(
            row_map, len(interned))
    return hit[0], hit[1]


def _index_selector(idx: np.ndarray, key: int) -> Tuple[Hashable, Any, int]:
    """``(key, selector, count)`` of a valid 1-D row index array: a
    read-only copy, keyed by the integer ``key``."""
    arr = idx.copy()
    arr.flags.writeable = False
    return key, arr, idx.size


def _block_selector(interned: Dict[Hashable, Any],
                    local_ids: Tuple[int, ...]) -> Tuple[Any, Any]:
    """Tile-array selectors of a block set: the interned ``(k,)`` index
    array and its ``(k, 1)`` column form, which broadcasts against a row
    index array."""
    hit = interned.get(local_ids)
    if hit is None:
        flat = np.array(local_ids, dtype=np.intp)
        flat.flags.writeable = False
        hit = interned[local_ids] = (flat, flat[:, None])
    return hit


def _lockstep_call(arr: np.ndarray, flat: Any, column: Any,
                   entries: List[Tuple[int, Tuple[Any, ...], Any, Any]]
                   ) -> Tuple[Any, ...]:
    """One program entry running ``entries`` — one op per block, all with
    the same signature — as a single numpy call on ``arr``.

    ``arr`` is a tile array indexed by the block selectors ``flat`` /
    ``column`` (:func:`_block_selector`), or one block's 2-D view when
    ``flat`` is None.  Every index selects a ``(blocks, rows)`` plane of
    one word column (a ``rows`` vector for one block), the same shape on
    both sides of the assignment.
    """
    _, (_, code, _, dst_col, src_col, other), rsel, extra = entries[0]

    def at(r: Any, col: int) -> Tuple[Any, ...]:
        if flat is None:
            return (r, col)
        return (flat, r, col) if isinstance(r, slice) else (column, r, col)

    dst = at(rsel, dst_col)
    if code == _BROADCAST_ID:
        if flat is None:
            value = extra
        elif other == 0:
            value = np.array([e[3] for e in entries], dtype=np.float32)[:, None]
        else:
            value = np.stack([e[3] for e in entries])
        return (APPLY_FILL, arr, dst, value)
    if code == _GATHER_ID:
        return (APPLY_MOVE, arr, dst, at(extra, src_col))
    if code == _COPY_ID:
        return (APPLY_MOVE, arr, dst, at(rsel, src_col))
    return (APPLY_UFUNC, arr, dst, _APPLY_UFUNCS[code], at(rsel, src_col),
            at(rsel, other))


class _TransferStep:
    """A TRANSFER with its route and phase latencies resolved at lower time.

    Every float here is computed with the exact expression order of
    ``ChipExecutor._transfer``; replay re-runs only the readiness ``max``
    and the switch/port updates.  The functional row selectors are
    precomputed too, so functional replay indexes block state directly.
    """

    __slots__ = (
        "src", "dst", "keys", "hops", "flits", "read_t", "write_t", "wire",
        "flit_train", "dur", "energy", "n_bytes", "exclusive", "tag", "op",
        "n_rows", "words", "src1", "dst_col", "s_sel", "d_sel",
    )

    def __init__(self, inst: Instruction, chip: "PimChip",
                 costs: "OpCosts",
                 template: Optional[Tuple[Any, ...]] = None) -> None:
        src, dst = inst.src_block, inst.block
        if src is None:
            raise ValueError("TRANSFER needs src_block")
        n_rows = inst.n_rows
        if template is None:
            template = _transfer_cost_template(chip, costs, src, dst,
                                               n_rows, inst.words)
        (self.keys, self.hops, self.flits, self.read_t, self.write_t,
         self.wire, self.flit_train, self.dur, self.energy, self.n_bytes,
         self.exclusive) = template
        self.src = src
        self.dst = dst
        self.tag = inst.tag
        self.op = inst.op
        # functional inputs
        self.n_rows = n_rows
        self.words = inst.words
        self.src1 = inst.src1
        self.dst_col = inst.dst
        sr = inst.src_rows if inst.src_rows is not None else inst.rows
        self.s_sel = slice(sr[0], sr[1]) if isinstance(sr, tuple) else np.asarray(sr)
        self.d_sel = (
            slice(inst.rows[0], inst.rows[1])
            if isinstance(inst.rows, tuple)
            else np.asarray(inst.rows)
        )


def _transfer_cost_template(chip: "PimChip", costs: "OpCosts", src: int,
                            dst: int, n_rows: int,
                            words: int) -> Tuple[Any, ...]:
    """Route + cost fields of a TRANSFER, keyed by ``(src, dst, n_rows, words)``.

    Factored out of :class:`_TransferStep` so :func:`lower_program` can
    memoize it per shape: a halo-heavy lowering emits thousands of
    TRANSFERs that differ only in row selectors, and re-deriving the same
    floats dominated the compile path (the ``compile_s`` drift satellite).
    The expressions are byte-for-byte the serial handler's, so memoized
    and direct construction are bit-identical.
    """
    dev = costs.device
    keys, hops, extra, ic = chip.transfer_path(src, dst)
    flits = -(-(n_rows * words) // ic.flit_words)
    read_t = n_rows * dev.t_row_read_s
    write_t = n_rows * dev.t_row_write_s
    wire = hops * ic.hop_latency_per_flit * flits + extra
    flit_train = ic.hop_latency_per_flit * flits
    dur = read_t + wire + write_t
    energy = costs.row_move_energy_j(n_rows, words=words)
    energy += hops * n_rows * words * dev.e_search_j
    return (tuple(keys), hops, flits, read_t, write_t, wire, flit_train,
            dur, energy, n_rows * words * 4, ic.exclusive)


class ExecutionPlan:
    """A lowered instruction stream, replayable by ``ChipExecutor.run``.

    Keeps the original ``instructions`` (the serial audit path and the
    re-lowering after a routing-epoch bump both need them) next to the
    structured accounting ``array`` and the ordered ``steps`` the replay
    engine walks.
    """

    __slots__ = (
        "instructions", "array", "steps", "routing_epoch", "chip_name",
        "replays", "schedule_stats", "apply_chip", "interned",
    )

    def __init__(self, instructions: List[Instruction], array: np.ndarray,
                 steps: List[Tuple[int, Any]],
                 routing_epoch: int, chip_name: str) -> None:
        self.instructions: List[Instruction] = instructions
        self.array: np.ndarray = array
        self.steps: List[Tuple[int, Any]] = steps
        #: ``PimChip.routing_epoch`` at lower time; a mismatch at run time
        #: means spare-block remapping moved a block and the resolved routes
        #: may be stale — the executor re-lowers instead of replaying them.
        self.routing_epoch: int = routing_epoch
        self.chip_name: str = chip_name
        #: number of times this plan has been replayed (plan-reuse metric).
        self.replays: int = 0
        #: makespan bookkeeping attached by :func:`repro.pim.schedule.
        #: schedule_plan` (None for emission-order plans).
        self.schedule_stats: Optional[Dict[str, Any]] = None
        #: the chip whose tile arrays the segments' lockstep programs
        #: index, and the index arrays they share (see
        #: :meth:`_VecSegment.build_apply`).
        self.apply_chip: Optional["PimChip"] = None
        self.interned: Dict[Hashable, Any] = {}

    def reset_apply(self, chip: "PimChip") -> None:
        """Drop every lockstep program; the next functional replay builds
        them for ``chip``."""
        for kind, payload in self.steps:
            if kind == STEP_SEGMENT:
                payload.apply = None
        self.apply_chip = chip
        self.interned = {}

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    @property
    def n_segments(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == STEP_SEGMENT)

    @property
    def n_transfers(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == STEP_TRANSFER)

    @property
    def n_dispatch(self) -> int:
        """Instructions the replay still hands to the serial dispatcher."""
        return sum(1 for kind, _ in self.steps if kind == STEP_DISPATCH)

    @property
    def vectorized_fraction(self) -> float:
        n = self.n_instructions
        if not n:
            return 0.0
        return 1.0 - (self.n_dispatch + self.n_transfers) / n

    def footprint(self) -> Dict[str, Any]:
        """Resource totals of one replay, derived from the plan alone.

        An executor-independent cross-check for the hardware counters:
        per-block compute busy seconds (left-fold of segment durations, the
        same order replay folds them), per-block NOR cycles and compute-op
        counts, and the interconnect totals of the TRANSFER steps —
        including the per-switch occupancy the counters charge (the flit
        train on an h-tree route, the exclusive read+wire hold on a bus)
        under ``link_busy_s``/``link_flits``, the serial transfer time
        ``transfer_time_s`` (left-fold of TRANSFER durations, a ceiling on
        any one link's occupancy) and the vectorization profile
        ``segment_widths`` (instructions per segment, stream order).  LUT/
        HOSTOP/DRAM/BARRIER go through serial dispatch, so their footprint
        is reported separately as ``dispatch_ops`` — the perf analyzer
        (:mod:`repro.analysis.perf`) folds their link/channel occupancy in
        from the scheduler's resource items.
        """
        block_busy: Dict[Any, float] = {}
        block_nors: Dict[Any, int] = {}
        block_ops: Dict[Any, int] = {}
        link_busy: Dict[Hashable, float] = {}
        link_flits: Dict[Hashable, int] = {}
        segment_widths: List[int] = []
        transfers = flits = hops = n_bytes = 0
        transfer_time = 0.0
        dispatch_ops = 0
        for kind, payload in self.steps:
            if kind == STEP_SEGMENT:
                segment_widths.append(payload.n)
                for block, durs, nors, ops in payload.block_groups:
                    block_busy[block] = fold_array(block_busy.get(block, 0.0), durs)
                    block_nors[block] = block_nors.get(block, 0) + nors
                    block_ops[block] = block_ops.get(block, 0) + ops
            elif kind == STEP_TRANSFER:
                transfers += 1
                flits += payload.flits
                hops += payload.hops
                n_bytes += payload.n_bytes
                transfer_time += payload.dur
                # per-link occupancy, exactly as the counters charge it
                # (executor._transfer's link_busy argument).
                occ = (payload.read_t + payload.wire if payload.exclusive
                       else payload.flit_train)
                for k in payload.keys:
                    link_busy[k] = link_busy.get(k, 0.0) + occ
                    link_flits[k] = link_flits.get(k, 0) + payload.flits
            else:
                dispatch_ops += 1
        return {
            "block_busy_s": block_busy,
            "block_nors": block_nors,
            "block_ops": block_ops,
            "link_busy_s": link_busy,
            "link_flits": link_flits,
            "segment_widths": segment_widths,
            "transfers": transfers,
            "flits": flits,
            "hops": hops,
            "bytes_moved": n_bytes,
            "transfer_time_s": transfer_time,
            "dispatch_ops": dispatch_ops,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan({self.n_instructions} insts, "
            f"{self.n_segments} segments, {self.n_transfers} transfers, "
            f"{self.n_dispatch} dispatched, epoch={self.routing_epoch})"
        )


def lower_program(
    chip: "PimChip", costs: "OpCosts", instructions: Iterable[Instruction]
) -> ExecutionPlan:
    """Lower ``instructions`` into an :class:`ExecutionPlan` for ``chip``.

    One O(n) Python pass: per-instruction analytic costs are computed with
    the serial handlers' exact expressions, TRANSFER routes are resolved
    through the chip's memoized path table (once per unique ``(src, dst)``
    pair), and maximal compute runs become :class:`_VecSegment` groups.
    """
    insts = list(instructions)
    array, transfers = _cost_rows(chip, costs, insts)
    return _assemble(chip, insts, array, transfers)


def _cost_rows(
    chip: "PimChip", costs: "OpCosts", insts: Sequence[Instruction]
) -> Tuple[np.ndarray, List[_TransferStep]]:
    """Per-instruction half of lowering: each instruction's cost row and
    each TRANSFER's :class:`_TransferStep`, in stream order.  Each depends
    on its own instruction alone, so a permuted stream's are permuted."""
    n = len(insts)
    array = np.zeros(n, dtype=PLAN_DTYPE)
    transfers: List[_TransferStep] = []
    xfer_templates: Dict[Tuple[int, Optional[int], int, int], Tuple[Any, ...]] = {}
    dev = costs.device
    op_col = array["op"]
    dur_col = array["dur"]
    energy_col = array["energy"]
    nors_col = array["nors"]
    # per-opcode constants, resolved once per lowering
    arith_dur = {op: costs.time_s(op.value) for op in ARITHMETIC_OPS}
    arith_nors = {op: costs.nor_count(op.value) for op in ARITHMETIC_OPS}
    copy_dur = COPY_NORS * dev.t_nor_s
    copy_e_unit = COPY_NORS * 32 * dev.e_nor_j

    for i, inst in enumerate(insts):
        op = inst.op
        op_col[i] = OP_IDS[op]
        if op in VECTORIZABLE_OPS:
            # exact serial-handler cost expressions (see executor._arith &c.)
            n_rows = inst.n_rows
            if op in ARITHMETIC_OPS:
                dur = arith_dur[op]
                energy = costs.energy_j(op.value, active_rows=n_rows)
                nors_col[i] = arith_nors[op]
            elif op is Opcode.COPY:
                dur = copy_dur
                energy = copy_e_unit * n_rows
                nors_col[i] = COPY_NORS
            elif op is Opcode.GATHER:
                n_unique = inst.n_unique_rows
                if n_unique is None:
                    n_unique = len(np.unique(np.asarray(inst.row_map)))
                dur = costs.gather_time_s(n_unique)
                energy = costs.row_move_energy_j(n_rows, words=inst.words)
            else:  # BROADCAST
                if np.asarray(inst.value).ndim == 0:
                    dur = 2 * dev.t_row_write_s
                else:
                    dur = costs.broadcast_time_s(n_rows)
                energy = costs.row_move_energy_j(n_rows, words=inst.words)
            dur_col[i] = dur
            energy_col[i] = energy
        elif op is Opcode.TRANSFER:
            tpl = None
            if inst.src_block is not None:
                key = (inst.src_block, inst.block, inst.n_rows, inst.words)
                tpl = xfer_templates.get(key)
                if tpl is None:
                    tpl = xfer_templates[key] = _transfer_cost_template(
                        chip, costs, inst.src_block, inst.block,
                        inst.n_rows, inst.words)
            t = _TransferStep(inst, chip, costs, template=tpl)
            transfers.append(t)
            dur_col[i] = t.dur
            energy_col[i] = t.energy
    return array, transfers


def _assemble(
    chip: "PimChip", insts: List[Instruction], array: np.ndarray,
    transfers: Iterable[_TransferStep],
) -> ExecutionPlan:
    """Step half of lowering: the steps of ``insts`` and their
    :func:`_cost_rows` (possibly permuted)."""
    steps: List[Tuple[int, Any]] = []
    seg_start = -1  # start index of the open vec segment, -1 when closed
    xfers = iter(transfers)

    def flush(end: int) -> None:
        nonlocal seg_start
        if seg_start >= 0:
            steps.append((STEP_SEGMENT, _VecSegment(array, range(seg_start, end), insts)))
            seg_start = -1

    for i, op_id in enumerate(array["op"].tolist()):
        if op_id in _VECTORIZABLE_IDS:
            if seg_start < 0:
                seg_start = i
            continue
        flush(i)
        if op_id == _TRANSFER_ID:
            steps.append((STEP_TRANSFER, next(xfers)))
        else:
            # LUT/HOSTOP/DRAM_*/BARRIER couple multiple clocks: replay
            # through the serial handlers, which stay the single source of
            # truth for their semantics.
            steps.append((STEP_DISPATCH, i))
    flush(len(insts))

    return ExecutionPlan(
        instructions=insts,
        array=array,
        steps=steps,
        routing_epoch=chip.routing_epoch,
        chip_name=chip.config.name,
    )
