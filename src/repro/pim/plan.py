"""Execution plans: lower an instruction stream once, replay it cheaply.

Wave simulation replays the same per-element instruction streams every
RK stage of every time-step (§4–§5), yet per-instruction dispatch pays the
full Python interpretation cost on every replay.  :func:`lower_program`
compiles a stream *once* into an :class:`ExecutionPlan` — a numpy
structured array of ``(opcode, duration, energy, NOR cycles, tag id)``
with every TRANSFER's route resolved per unique ``(src, dst)`` pair up
front — so :meth:`repro.pim.executor.ChipExecutor.run` on a plan
becomes a few vectorized segment reductions plus a per-block prefix-max
clock advance instead of thousands of Python dispatches.

Plan replay runs every fault-free execution (DESIGN.md §13), analytic
and functional.  Functional replay runs the blocks in lockstep, as the
chip does: each *run* of segment and TRANSFER rows between two DISPATCH
rows gets one program (:class:`_ProgramBuilder`, built on the first
functional replay on a chip), whose entries each issue one numpy call
over a tile's block array (:attr:`repro.pim.tile.Tile.data`) for a group
of blocks running the same op, or one copy for a group of TRANSFERs.
Serial dispatch is the audit reference (``ChipExecutor.run(...,
serial=True)``) and runs every stream with an enabled fault model, whose
overheads move block clocks in the middle of a segment.

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
   op the clock already dominates the unchanged port values).  The
   barrier floor moves only at a BARRIER (a DISPATCH row) or between
   runs (``sync_at``), so replay reads it once per run.
2. Report accumulators (per-tag time/energy, total dynamic energy) are
   independent left-folds over the same addend sequence in stream order,
   and between two DISPATCH rows nothing else touches them.  So each
   *run* — the segment and TRANSFER rows between two DISPATCH rows — is
   one left-fold per tag and one for ``dynamic_energy_j`` over the
   plan's own ``dur``/``energy`` columns (:class:`_Run`), tags in
   first-seen order so the report dicts get serial key order; op counts
   and interconnect totals are integer sums per run.  :func:`fold_array`
   replays the exact serial addition order (a Python loop for short
   runs, a strict ``np.add.accumulate`` — never pairwise ``np.sum`` —
   beyond that).
3. Every per-instruction float (durations, energies, wire latencies) is
   precomputed at lower time with the *same expression and association
   order* as the serial opcode handlers, so replay only re-executes the
   data-dependent ``max``/update logic.

Coupling opcodes keep their serial handlers: TRANSFER gets a precomputed
fast-path row (route, flit count, phase latencies, port keys *and* the
functional row selectors resolved at lower time); LUT/HOSTOP/DRAM/BARRIER
dispatch through the executor unchanged, between runs.

A plan records the chip's ``routing_epoch`` at lower time; if spare-block
remapping has invalidated the routes since, the executor re-lowers
instead of replaying stale paths.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
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
#: dispatch-handled rows), the NOR cycles of the op (nonzero only for
#: arithmetic/COPY; the hardware counters sum them per block) and the
#: instruction's tag as an index into ``ExecutionPlan.tags``.
PLAN_DTYPE = np.dtype([
    ("op", np.uint8),
    ("dur", np.float64),
    ("energy", np.float64),
    ("nors", np.int32),
    ("tag", np.int32),
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

#: run-program entry kinds (first element of each entry of a run's
#: functional program, see :class:`_ProgramBuilder`):
#: ``a[dst] = ufunc(a[s1], a[s2])`` (ADD/SUB/MUL), ``a[dst] = b[src]``
#: (COPY, GATHER with the row map in ``src``, and TRANSFER copies between
#: raveled tile arrays) and ``a[dst] = value`` (BROADCAST).
APPLY_UFUNC = 0
APPLY_MOVE = 1
APPLY_FILL = 2

#: ufunc per arithmetic opcode id: a program computes the exact same
#: float32 elementwise operation as ``MemoryBlock.add``/``sub``/``mul``.
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


def fold_array(base: float, values: Sequence[float]) -> float:
    """Left-fold the additions of ``values`` (in order) onto ``base``.

    ``values`` is a float64 array or a tuple of Python floats (both IEEE
    doubles, so either form folds to the same bits).  Bit-identical to
    ``for v in values: base += v``.  ``np.add.accumulate`` is a strict
    sequential fold (it must produce every prefix), unlike
    ``np.sum``/``np.add.reduce`` whose pairwise re-association would break
    the bit-identity contract.
    """
    n = len(values)
    if n <= 64:
        for v in values:
            base += v
        return float(base)
    acc = np.empty(n + 1)
    acc[0] = base
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


class _VecSegment:
    """A maximal run of compute ops, pre-grouped per block for replay."""

    __slots__ = ("n", "start", "stop", "block_groups")

    def __init__(self, array: np.ndarray, indices: range,
                 insts: Sequence[Instruction]) -> None:
        self.n = len(indices)
        self.start = start = indices.start
        self.stop = stop = indices.stop
        # per block, in first-seen order: its durations as Python floats
        # (the replay folds them onto the block clock) plus the hardware-
        # counter aggregates (NOR cycles issued / ops retired), so
        # counters-enabled replay costs one dict update per group.
        groups: Dict[Any, List[Any]] = {}
        for inst, dur, nors in zip(insts[start:stop],
                                   array["dur"][start:stop].tolist(),
                                   array["nors"][start:stop].tolist()):
            g = groups.get(inst.block)
            if g is None:
                groups[inst.block] = [[dur], nors]
            else:
                g[0].append(dur)
                g[1] += nors
        self.block_groups = [
            (block, tuple(durs), nors, len(durs))
            for block, (durs, nors) in groups.items()
        ]


class _TransferStep:
    """A TRANSFER with its route and phase latencies resolved at lower time.

    Every float here is computed with the exact expression order of
    ``ChipExecutor._transfer``; replay re-runs only the readiness ``max``
    and the switch/port updates, through the precomputed port keys
    ``rport``/``wport``.  The functional row selectors are precomputed
    too; the copies they make are resolved per plan and per chip (in its
    run programs, :class:`_ProgramBuilder`), never stored here: the
    makespan scheduler shares these objects between two plans.
    """

    __slots__ = (
        "src", "dst", "rport", "wport", "keys", "hops", "flits", "read_t",
        "write_t", "wire", "flit_train", "dur", "energy", "n_bytes",
        "exclusive", "n_rows", "words", "src1", "dst_col", "s_sel", "d_sel",
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
        self.rport = ("r", src)
        self.wport = ("w", dst)
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


class _Run:
    """A maximal run of segment and TRANSFER steps between DISPATCH rows,
    with its report accounting folded into plan constants.

    Only dispatch handlers touch the report between a run's rows, so the
    run's share of every report accumulator is a constant of the plan:
    per tag, a left-fold of its rows' durations and energies in stream
    order (``tag_groups``, tags in first-seen order so they enter the
    report dicts in serial key order), the left-fold of every row's
    energy (``energies``), and integer totals.  ``items`` are the run's
    segments and transfer runs (tuples of :class:`_TransferStep`) in
    stream order, over rows ``lo`` to ``lo + n``; ``dispatch`` is the row
    of the DISPATCH step that ends the run (None for the last run).
    """

    __slots__ = (
        "items", "lo", "n", "tag_groups", "energies", "op_counts",
        "transfers", "hops", "flits", "n_bytes", "dispatch",
    )

    def __init__(self, array: np.ndarray, lo: int, hi: int,
                 items: List[Tuple[int, Any]], tags: Sequence[str],
                 dispatch: Optional[int]) -> None:
        self.items = items
        self.lo = lo
        self.n = hi - lo
        self.dispatch = dispatch
        durs = array["dur"][lo:hi]
        self.energies = ens = array["energy"][lo:hi]
        self.op_counts: Counter = Counter()
        self.tag_groups: List[Tuple[str, np.ndarray, np.ndarray]] = []
        if self.n:
            ops, first, counts = np.unique(array["op"][lo:hi],
                                           return_index=True,
                                           return_counts=True)
            order = np.argsort(first)  # first-seen, as serial dispatch
            self.op_counts.update(dict(zip(
                [_OP_VALUES[op] for op in ops[order].tolist()],
                counts[order].tolist())))
            ids = array["tag"][lo:hi]
            uniq, first = np.unique(ids, return_index=True)
            if len(uniq) == 1:
                self.tag_groups.append((tags[int(uniq[0])], durs, ens))
            else:
                for i in uniq[np.argsort(first)].tolist():
                    sel = ids == i
                    self.tag_groups.append((tags[i], durs[sel], ens[sel]))
        transfers = hops = flits = n_bytes = 0
        for kind, payload in items:
            if kind == STEP_TRANSFER:
                transfers += len(payload)
                for t in payload:
                    hops += t.hops
                    flits += t.flits
                    n_bytes += t.n_bytes
        self.transfers = transfers
        self.hops = hops
        self.flits = flits
        self.n_bytes = n_bytes


def _word_cols(start: int, words: int, row_words: int) -> range:
    """The word columns ``[start, start + words)`` as numpy slices them."""
    return range(*slice(start, start + words).indices(row_words))


def _index_selector(idx: np.ndarray, key: int) -> Tuple[Hashable, Any, int]:
    """``(key, selector, count)`` of a valid 1-D row index array: a slice
    keyed ``(start, stop, step)`` when the rows are evenly spaced and
    increasing, else a read-only copy keyed by the integer ``key``."""
    n = idx.size
    if n:
        start = int(idx[0])
        step = int(idx[1]) - start if n > 1 else 1
        if step > 0 and (n < 3 or bool((np.diff(idx) == step).all())):
            stop = start + step * (n - 1) + 1
            return (start, stop, step), slice(start, stop, step), n
    arr = idx.copy()
    arr.flags.writeable = False
    return key, arr, n


class _ProgramBuilder:
    """Compiles a plan's runs into functional programs on one chip.

    A run's program is a list of entries (``APPLY_*``), each one numpy
    call on a tile array (:attr:`repro.pim.tile.Tile.data`): the chip
    issues one instruction to every block of a tile at once (§4–§5), and
    the program does so across the run's TRANSFERs too.

    *Order.*  A run's ops are taken in emission order: the rows of a plan
    that :func:`repro.pim.schedule.schedule_plan` kept are re-sorted by
    its ``schedule_stats["permutation"]``.  Emission order restricted to
    a run is a topological order of the dependency DAG, and so is the
    scheduler's order, so both leave every cell with the same value.  A
    plan without a kept permutation is taken in its own order.

    *Queues.*  Every op joins the queue of the block it writes: a compute
    op its own block's, a TRANSFER its destination's.  A TRANSFER also
    joins its source's queue when some op of the run writes one of its
    source ``(block, column)`` cells (rows are ignored, so the rule is
    conservative); otherwise it reads cells that hold the same values all
    through the run.  So every write, and every read of a cell the run
    writes, keeps its emission order within its block's queue.

    *Rounds.*  The queues merge in lockstep rounds: a round takes the head
    of every queue, a two-queue op only when it heads both.  The ops of a
    round touch disjoint blocks, apart from reads of cells the run never
    writes, so they commute.  Its compute ops with the same signature
    (tile, opcode, rows, columns, row map) become one numpy call indexed
    by their blocks; its TRANSFERs between the same two tiles become one
    fancy-indexed copy of flat cell indices, with at most one destination
    block per TRANSFER, so the copy holds no RAW or WAW pair.  The op
    earliest in emission order heads all its queues, so the merge never
    stalls.  Each call computes the same float32 elementwise operation
    as the serial :class:`~repro.pim.block.MemoryBlock` method on each of
    its blocks, so block state stays bit-identical to serial dispatch.

    *Validation.*  Every op is checked while its program is built, before
    any op of the plan executes: compute ops with the ``MemoryBlock``
    bounds checks, TRANSFERs by indexing a table of one block's cell
    numbers with the serial handler's own selectors, so slicing,
    broadcasting and bounds errors are numpy's, as in
    ``ChipExecutor._transfer``.  Index arrays (row selectors, row maps and
    block sets, which recur every RK stage) are interned: a program holds
    one copy of each, evenly spaced ones become slices, and a row index
    array is bounds-checked once.
    """

    def __init__(self, chip: "PimChip") -> None:
        self.chip = chip
        cfg = chip.config
        self.bpt = cfg.blocks_per_tile
        self.row_words = cfg.row_words
        self.per_block = cfg.block_rows * cfg.row_words
        self.cells = np.arange(self.per_block, dtype=np.intp).reshape(
            cfg.block_rows, cfg.row_words)
        self.blocks: Dict[int, "MemoryBlock"] = {}
        #: tile id -> its array raveled (TRANSFER copies index it)
        self.flat: Dict[int, np.ndarray] = {}
        #: row selectors by value (range tuples, index-array bytes), and
        #: by the identity of the instruction's array, which the plan
        #: keeps alive while the build runs
        self.rows: Dict[Hashable, Tuple[Hashable, Any, int]] = {}
        self.rows_by_id: Dict[int, Tuple[Any, Tuple[Hashable, Any, int]]] = {}
        self.block_sets: Dict[Tuple[int, ...], Tuple[Any, Any]] = {}

    def build(self, plan: "ExecutionPlan") -> List[List[Tuple[Any, ...]]]:
        """One program per run of ``plan``."""
        stats = plan.schedule_stats
        perm = stats["permutation"] if stats and stats["kept"] else None
        op_ids = plan.array["op"].tolist()
        xfer_at = dict(zip(  # row -> its step
            (r for r, op in enumerate(op_ids) if op == _TRANSFER_ID),
            (p for k, p in plan.steps if k == STEP_TRANSFER)))
        programs = []
        for run in plan.runs:
            rows: Sequence[int] = range(run.lo, run.lo + run.n)
            if perm is not None:
                rows = sorted(rows, key=perm.__getitem__)
            programs.append(self.program(plan.instructions, op_ids, rows,
                                         xfer_at))
        return programs

    def program(self, insts: Sequence[Instruction], op_ids: List[int],
                rows: Sequence[int], xfer_at: Dict[int, _TransferStep],
                ) -> List[Tuple[Any, ...]]:
        """The program of one run, whose ops are ``insts[r]`` for ``r`` in
        ``rows`` (emission order).

        An op's lockstep round is one past the latest round of the ops
        before it in its queues: the round in which it heads them all.
        """
        rw = self.row_words
        sig_ids: Dict[Tuple[Any, ...], int] = {}
        sig_of: List[int] = []
        payloads: List[Tuple[Any, ...]] = []
        home: List[int] = []  # the block each op writes: its queue
        reads: Dict[int, Tuple[int, range]] = {}  # TRANSFER -> its source
        written: Set[Tuple[int, int]] = set()
        for r in rows:
            t = xfer_at.get(r)
            if t is None:
                inst = insts[r]
                sig, pay = self.compute(inst, op_ids[r])
                home.append(inst.block)
                written.add((inst.block, inst.dst))
            else:
                sig, pay = self.transfer(t)
                if t.src != t.dst:
                    reads[len(home)] = (t.src, _word_cols(t.src1, t.words, rw))
                home.append(t.dst)
                written.update((t.dst, c)
                               for c in _word_cols(t.dst_col, t.words, rw))
            sig_of.append(sig_ids.setdefault(sig, len(sig_ids)))
            payloads.append(pay)
        second = {op: src for op, (src, cols) in reads.items()
                  if any((src, c) in written for c in cols)}

        last: Dict[int, int] = {}  # queue -> round of its latest op
        rounds: List[Dict[int, List[Tuple[Any, ...]]]] = []
        for op, b in enumerate(home):
            rnd = last.get(b, -1) + 1
            src = second.get(op)
            if src is not None:
                rnd = max(rnd, last.get(src, -1) + 1)
                last[src] = rnd
            last[b] = rnd
            if rnd == len(rounds):
                rounds.append({})
            rounds[rnd].setdefault(sig_of[op], []).append(payloads[op])
        sigs = list(sig_ids)
        return [self.entry(sigs[sid], pays)
                for rnd in rounds for sid, pays in rnd.items()]

    def compute(self, inst: Instruction,
                code: int) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
        """Validate a compute op (opcode id ``code``); return its signature
        and its payload ``(tile-local block id, row selector, row map or
        value)``."""
        blk = self.blocks.get(inst.block)
        if blk is None:
            blk = self.blocks[inst.block] = self.chip.block(inst.block)
        rkey, rsel, n_sel = self.row_selector(inst.rows, blk)
        src = inst.src1
        other: Any = None
        extra: Any = None
        if code == _GATHER_ID:
            blk._cols(inst.dst, src)
            row_map = inst.row_map
            if not isinstance(row_map, np.ndarray):
                row_map = np.asarray(row_map, dtype=np.int64)
            other, extra, n = self.row_selector(row_map, blk)
            if n != n_sel:
                raise ValueError(f"row_map must have {n_sel} entries, got {n}")
        elif code == _BROADCAST_ID:
            blk._cols(inst.dst)
            extra = np.asarray(inst.value, dtype=np.float32)
            if extra.ndim not in (0, 1):
                raise ValueError("broadcast value must be scalar or 1-D")
            if extra.ndim == 1 and extra.shape != (n_sel,):
                raise ValueError(f"broadcast vector must have {n_sel} entries")
            src = None
            other = extra.ndim
        elif code == _COPY_ID:
            blk._cols(inst.dst, src)
        else:
            blk._cols(inst.dst, src, inst.src2)
            other = inst.src2
        tile, local = divmod(blk.block_id, self.bpt)
        return (tile, code, rkey, inst.dst, src, other), (local, rsel, extra)

    def transfer(self, t: _TransferStep) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
        """Validate a TRANSFER; return its signature and its flat
        destination and source cells."""
        for b in (t.src, t.dst):
            if b not in self.blocks:
                self.blocks[b] = self.chip.block(b)
        src1, dst_col = t.src1, t.dst_col
        if src1 is None or dst_col is None:
            raise TypeError("TRANSFER needs src1 and dst word columns")
        s_idx = self.cells[t.s_sel, src1:src1 + t.words]
        if s_idx.shape[0] != t.n_rows:
            raise ValueError("TRANSFER src/dst row selections must match in size")
        d_idx = self.cells[t.d_sel, dst_col:dst_col + t.words]
        if s_idx.shape != d_idx.shape:
            s_idx = np.broadcast_to(s_idx, d_idx.shape)
        s_tile, s_loc = divmod(t.src, self.bpt)
        d_tile, d_loc = divmod(t.dst, self.bpt)
        for tile in (s_tile, d_tile):
            if tile not in self.flat:
                self.flat[tile] = self.chip.tile(tile).data.reshape(-1)
        return ((d_tile, _TRANSFER_ID, s_tile),
                ((d_idx + d_loc * self.per_block).ravel(),
                 (s_idx + s_loc * self.per_block).ravel()))

    def row_selector(self, rows: Any, blk: "MemoryBlock") -> Tuple[Hashable, Any, int]:
        """Validate a row selector or GATHER row map; return its signature
        key, numpy selector and row count (see :func:`_index_selector`).

        A selector is checked by ``MemoryBlock._rows`` the first time it is
        seen: every block of a chip has the same rows.
        """
        if isinstance(rows, tuple):
            hit = self.rows.get(rows)
            if hit is None:
                sel, n = blk._rows(rows)
                hit = self.rows[rows] = ((sel.start, sel.stop, 1), sel, n)
            return hit
        by_id = self.rows_by_id.get(id(rows))
        if by_id is not None and by_id[0] is rows:
            return by_id[1]
        idx = np.asarray(rows, dtype=np.int64)
        hit = self.rows.get(idx.tobytes()) if idx.ndim == 1 else None
        if hit is None:
            blk._rows(idx)
            hit = self.rows[idx.tobytes()] = _index_selector(idx, len(self.rows))
        self.rows_by_id[id(rows)] = (rows, hit)
        return hit

    def entry(self, sig: Tuple[Any, ...],
              pays: List[Tuple[Any, ...]]) -> Tuple[Any, ...]:
        """One program entry running ``pays`` (one op per block, all with
        signature ``sig``) as a single numpy call.

        A compute entry indexes a ``(blocks, rows)`` plane of one word
        column of its tile array (a ``rows`` vector for one block), the
        same shape on both sides of the assignment.
        """
        tile, code = sig[0], sig[1]
        if code == _TRANSFER_ID:
            if len(pays) == 1:
                d, s = pays[0]
            else:
                d = np.concatenate([p[0] for p in pays])
                s = np.concatenate([p[1] for p in pays])
            return (APPLY_MOVE, self.flat[tile], d, self.flat[sig[2]], s)
        _, _, _, dst_col, src_col, other = sig
        arr = self.chip.tile(tile).data
        if len(pays) > 1:
            pays.sort(key=itemgetter(0))  # block order
        bsel, bcol = self.block_set(tuple(p[0] for p in pays))
        rsel = pays[0][1]

        def at(r: Any, col: int) -> Tuple[Any, ...]:
            # an index-array block set broadcasts against an index-array
            # row selector in its ``(k, 1)`` column form
            return (bsel if bcol is None or isinstance(r, slice) else bcol,
                    r, col)

        dst = at(rsel, dst_col)
        if code == _BROADCAST_ID:
            if len(pays) == 1:
                value = pays[0][2]
            elif other == 0:
                value = np.array([p[2] for p in pays], dtype=np.float32)[:, None]
            else:
                value = np.stack([p[2] for p in pays])
            return (APPLY_FILL, arr, dst, value)
        if code == _GATHER_ID:
            return (APPLY_MOVE, arr, dst, arr, at(pays[0][2], src_col))
        if code == _COPY_ID:
            return (APPLY_MOVE, arr, dst, arr, at(rsel, src_col))
        return (APPLY_UFUNC, arr, dst, _APPLY_UFUNCS[code], at(rsel, src_col),
                at(rsel, other))

    def block_set(self, local_ids: Tuple[int, ...]) -> Tuple[Any, Any]:
        """Tile-array selectors of an increasing block set: an integer for
        one block, a slice for evenly spaced blocks, else the interned
        ``(k,)`` index array and its ``(k, 1)`` column form."""
        hit = self.block_sets.get(local_ids)
        if hit is None:
            first = local_ids[0]
            step = local_ids[1] - first if len(local_ids) > 1 else 1
            if len(local_ids) == 1:
                hit = (first, None)
            elif local_ids == tuple(range(first, local_ids[-1] + 1, step)):
                hit = (slice(first, local_ids[-1] + 1, step), None)
            else:
                flat = np.array(local_ids, dtype=np.intp)
                flat.flags.writeable = False
                hit = (flat, flat[:, None])
            self.block_sets[local_ids] = hit
        return hit


class ExecutionPlan:
    """A lowered instruction stream, replayable by ``ChipExecutor.run``.

    Keeps the original ``instructions`` (the serial audit path and the
    re-lowering after a routing-epoch bump both need them) next to the
    structured accounting ``array``, the id -> tag table ``tags`` of its
    ``tag`` column, the ordered ``steps`` (one per segment, TRANSFER and
    DISPATCH row) and the ``runs`` the replay engine walks: the same
    steps cut at the DISPATCH rows (:class:`_Run`).
    """

    __slots__ = (
        "instructions", "array", "tags", "steps", "runs", "routing_epoch",
        "chip_name", "replays", "schedule_stats", "apply_chip", "programs",
        "relowered",
    )

    def __init__(self, instructions: List[Instruction], array: np.ndarray,
                 tags: Tuple[str, ...], steps: List[Tuple[int, Any]],
                 runs: List[_Run], routing_epoch: int, chip_name: str) -> None:
        self.instructions: List[Instruction] = instructions
        self.array: np.ndarray = array
        self.tags: Tuple[str, ...] = tags
        self.steps: List[Tuple[int, Any]] = steps
        self.runs: List[_Run] = runs
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
        #: the chip whose tile arrays the run programs index, and one
        #: functional program per run (:meth:`build_programs`).
        self.apply_chip: Optional["PimChip"] = None
        self.programs: Optional[List[List[Tuple[Any, ...]]]] = None
        #: ``(chip, plan)``: this plan lowered again on ``chip`` after its
        #: routes went stale there; replays reuse it while the chip's
        #: routing epoch holds.
        self.relowered: Optional[Tuple["PimChip", "ExecutionPlan"]] = None

    def build_programs(self, chip: "PimChip") -> List[List[Tuple[Any, ...]]]:
        """Build every run's functional program on ``chip`` (see
        :class:`_ProgramBuilder`) and keep them for later replays.  Every
        op of the plan is validated first, so a bad one raises before any
        block changes, and a failed build keeps nothing."""
        self.apply_chip = self.programs = None
        programs = _ProgramBuilder(chip).build(self)
        self.apply_chip = chip
        self.programs = programs
        return programs

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
    array, transfers, tags = _cost_rows(chip, costs, insts)
    return _assemble(chip, insts, array, transfers, tags)


def _cost_rows(
    chip: "PimChip", costs: "OpCosts", insts: Sequence[Instruction]
) -> Tuple[np.ndarray, List[_TransferStep], Tuple[str, ...]]:
    """Per-instruction half of lowering: each instruction's cost row and
    each TRANSFER's :class:`_TransferStep`, in stream order, and the
    id -> tag table of the rows' ``tag`` column.  Each row depends on its
    own instruction alone, so a permuted stream's rows are permuted."""
    transfers: List[_TransferStep] = []
    xfer_templates: Dict[Tuple[int, Optional[int], int, int], Tuple[Any, ...]] = {}
    tag_ids: Dict[str, int] = {}
    # the columns, built as lists and stored once
    ops: List[int] = []
    durs: List[float] = []
    energies: List[float] = []
    nors: List[int] = []
    tags: List[int] = []
    dev = costs.device
    # per-opcode constants by opcode id, resolved once per lowering
    arith = {OP_IDS[op]: (op.value, costs.time_s(op.value),
                          costs.nor_count(op.value)) for op in ARITHMETIC_OPS}
    copy_dur = COPY_NORS * dev.t_nor_s
    copy_e_unit = COPY_NORS * 32 * dev.e_nor_j

    for inst in insts:
        op_id = OP_IDS[inst.op]
        ops.append(op_id)
        tag = tag_ids.get(inst.tag)
        if tag is None:
            tag = tag_ids[inst.tag] = len(tag_ids)
        tags.append(tag)
        nor = 0
        if op_id in _VECTORIZABLE_IDS:
            # exact serial-handler cost expressions (see executor._arith &c.)
            n_rows = inst.n_rows
            a = arith.get(op_id)
            if a is not None:
                name, dur, nor = a
                energy = costs.energy_j(name, active_rows=n_rows)
            elif op_id == _COPY_ID:
                dur = copy_dur
                energy = copy_e_unit * n_rows
                nor = COPY_NORS
            elif op_id == _GATHER_ID:
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
        elif op_id == _TRANSFER_ID:
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
            dur = t.dur
            energy = t.energy
        else:  # dispatched: priced by its serial handler at replay
            dur = energy = 0.0
        durs.append(dur)
        energies.append(energy)
        nors.append(nor)
    array = np.zeros(len(insts), dtype=PLAN_DTYPE)
    array["op"] = ops
    array["dur"] = durs
    array["energy"] = energies
    array["nors"] = nors
    array["tag"] = tags
    return array, transfers, tuple(tag_ids)


def _assemble(
    chip: "PimChip", insts: List[Instruction], array: np.ndarray,
    transfers: Iterable[_TransferStep], tags: Tuple[str, ...],
) -> ExecutionPlan:
    """Step half of lowering: the steps and runs of ``insts`` and their
    :func:`_cost_rows` (possibly permuted)."""
    steps: List[Tuple[int, Any]] = []
    runs: List[_Run] = []
    items: List[Tuple[int, Any]] = []  # the open run's segments and transfer runs
    run_start = 0  # first row of the open run
    seg_start = -1  # start index of the open vec segment, -1 when closed
    xrun: List[_TransferStep] = []  # the open transfer run
    xfers = iter(transfers)

    def flush(end: int) -> None:
        """Close the open segment or transfer run (at most one is open)."""
        nonlocal seg_start
        if seg_start >= 0:
            seg = _VecSegment(array, range(seg_start, end), insts)
            steps.append((STEP_SEGMENT, seg))
            items.append((STEP_SEGMENT, seg))
            seg_start = -1
        elif xrun:
            items.append((STEP_TRANSFER, tuple(xrun)))
            xrun.clear()

    for i, op_id in enumerate(array["op"].tolist()):
        if op_id in _VECTORIZABLE_IDS:
            if seg_start < 0:
                flush(i)
                seg_start = i
            continue
        if op_id == _TRANSFER_ID:
            if seg_start >= 0:
                flush(i)
            t = next(xfers)
            steps.append((STEP_TRANSFER, t))
            xrun.append(t)
        else:
            # LUT/HOSTOP/DRAM_*/BARRIER couple multiple clocks: replay
            # through the serial handlers, which stay the single source of
            # truth for their semantics.
            flush(i)
            steps.append((STEP_DISPATCH, i))
            runs.append(_Run(array, run_start, i, items, tags, dispatch=i))
            items = []
            run_start = i + 1
    flush(len(insts))
    runs.append(_Run(array, run_start, len(insts), items, tags, dispatch=None))

    return ExecutionPlan(
        instructions=insts,
        array=array,
        tags=tags,
        steps=steps,
        runs=runs,
        routing_epoch=chip.routing_epoch,
        chip_name=chip.config.name,
    )
