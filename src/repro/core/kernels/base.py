"""Shared infrastructure for kernel generators."""

from __future__ import annotations

import numpy as np

from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import FACE_NORMALS, ReferenceElement, opposite_face
from repro.dg.timestepping import LSRK45
from repro.pim.isa import Instruction, Opcode

__all__ = ["KernelBase", "face_sign_axis"]


_FACE_SIGN_AXIS: dict = {}


def face_sign_axis(face: int) -> tuple[float, int]:
    """(outward-normal sign, axis index) of a reference face (memoized —
    six faces, requested once per emitted flux instruction)."""
    out = _FACE_SIGN_AXIS.get(face)
    if out is None:
        normal = FACE_NORMALS[face]
        axis = int(np.argmax(np.abs(normal)))
        out = _FACE_SIGN_AXIS[face] = (float(normal[axis]), axis)
    return out


class KernelBase:
    """Common state and emit helpers for the per-physics kernel builders.

    Subclasses own the flux coefficient tables (host-precomputed, §4.3,
    built on the first ``setup()``, their only reader) and the per-kernel
    instruction emitters.
    """

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        self.mesh = mesh
        self.element = element
        self.mapper = mapper
        self.flux_kind = flux_kind
        self.order = element.order
        self.dscale = 2.0 / mesh.h
        self.lift = self.dscale / element.w_end
        self.rk = LSRK45(rhs=None)

    # -- emit helpers ---------------------------------------------------- #

    @staticmethod
    def _bcast(block, rows, dst, value, tag) -> Instruction:
        return Instruction(
            Opcode.BROADCAST, block=block, rows=rows, dst=dst, value=value, tag=tag
        )

    #: row-map distinct-row counts keyed by array identity; the value holds
    #: the array itself so the id stays pinned.  Row maps come from the
    #: (memoized) ElementLayout producers, so the same handful of arrays
    #: recur for every element of every compile; the size cap only guards
    #: against a caller streaming fresh arrays.
    _GATHER_STATS: dict = {}

    @staticmethod
    def _gather(block, rows, dst, src, row_map, tag) -> Instruction:
        cache = KernelBase._GATHER_STATS
        hit = cache.get(id(row_map))
        if hit is not None and hit[0] is row_map:
            n_unique = hit[1]
        else:
            # row maps are small non-negative row indices: a boolean
            # occupancy mask counts the distinct rows without np.unique's
            # sort.
            rm = np.asarray(row_map)
            seen = np.zeros(int(rm.max()) + 1 if rm.size else 0, dtype=bool)
            seen[rm] = True
            n_unique = int(np.count_nonzero(seen))
            if len(cache) > 4096:
                cache.clear()
            cache[id(row_map)] = (row_map, n_unique)
        return Instruction(
            Opcode.GATHER, block=block, rows=rows, dst=dst, src1=src, row_map=row_map,
            n_unique_rows=n_unique, tag=tag,
        )

    @staticmethod
    def _arith(op, block, rows, dst, src1, src2, tag) -> Instruction:
        return Instruction(op, block=block, rows=rows, dst=dst, src1=src1, src2=src2, tag=tag)

    @staticmethod
    def _transfer(dst_block, src_block, dst_rows, src_rows, dst_col, src_col, words, tag):
        return Instruction(
            Opcode.TRANSFER,
            block=dst_block,
            src_block=src_block,
            rows=dst_rows,
            src_rows=src_rows,
            dst=dst_col,
            src1=src_col,
            words=words,
            tag=tag,
        )

    def _derivative_chain(self, b, lay, axis, var_col, acc_col, tag,
                          accumulate=False) -> list:
        """Emit the tap/coeff gather + multiply-accumulate dot product.

        Differentiates column ``var_col`` of block ``b`` (laid out by
        ``lay``) along ``axis`` into ``acc_col``; with ``accumulate`` the
        first tap adds to ``acc_col`` instead of overwriting it.  Uses the
        subclass's ``r_tap``/``r_coeff``/``r_tmp`` scratch registers.
        """
        rows = lay.compute_rows
        insts = []
        dmap = lay.dshape_row_map(axis)
        for a in range(lay.npts):
            insts.append(self._gather(b, rows, self.r_tap, var_col, lay.tap_row_map(axis, a), tag))
            insts.append(self._gather(b, rows, self.r_coeff, a, dmap, tag))
            first = (a == 0) and not accumulate
            dst = acc_col if first else self.r_tmp
            insts.append(self._arith(Opcode.MUL, b, rows, dst, self.r_tap, self.r_coeff, tag))
            if not first:
                insts.append(self._arith(Opcode.ADD, b, rows, acc_col, acc_col, self.r_tmp, tag))
        return insts

    # -- geometry helpers -------------------------------------------------- #

    def face_rows(self, face: int) -> np.ndarray:
        """Compute-row ids of a face's nodes (= face node ids)."""
        return self.element.face_nodes[face]

    def neighbor_face_rows(self, face: int) -> np.ndarray:
        """Matching rows in the neighbor block (its opposite face)."""
        return self.element.face_nodes[opposite_face(face)]

    def neighbor(self, e: int, face: int) -> int | None:
        """Mapped neighbor across ``face``, or None when it is off-batch.

        Off-batch faces are reconciled by the Fig. 7 sliced-flux schedule
        (an extra streamed pass), so per-stage kernels simply skip them.
        """
        nbr = int(self.mesh.neighbors[e, face])
        if nbr < 0:
            raise NotImplementedError(
                "PIM kernel generation currently assumes periodic meshes; "
                "physical boundaries are handled by the numpy reference solver"
            )
        return nbr if nbr in self.mapper else None

    # -- flux transfers ---------------------------------------------------- #

    def _face_transfers(self, e: int, face: int, fetch_tag: str) -> list:
        """The TRANSFERs ``flux`` emits for one face of element ``e``, in
        stream order; empty when the neighbor is off-batch.

        ``flux`` splices its compute instructions between these, and
        :meth:`flux_fetches` concatenates them, so the two streams share
        one source and cannot drift apart.  ``flux`` also gives its
        compute the first TRANSFER's ``rows`` object, so a face has one
        rows object: lowering and scheduling memoize row selectors by
        identity.
        """
        raise NotImplementedError

    def flux_fetches(self, faces=range(6), elements=None) -> list:
        """The TRANSFER sub-stream of ``flux(faces, elements=elements)``.

        Same instructions in the same order (every flux TRANSFER is tagged
        ``flux:fetch`` or ``flux:fetch:intra``), built without a single
        compute instruction: the compiler's Fig. 13 fetch lanes replay
        these for every element of a tile, while the compute lanes need
        one element.
        """
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            for face in faces:
                insts += self._face_transfers(e, face, "flux:fetch")
        return insts

    # -- stage composition ------------------------------------------------- #

    def rk_stage(self, stage: int, dt: float) -> list:
        """One full LSRK stage: Volume, Flux, Integration + barriers."""
        insts = self.volume()
        insts.append(Instruction(Opcode.BARRIER, tag="sync"))
        insts += self.flux()
        insts.append(Instruction(Opcode.BARRIER, tag="sync"))
        insts += self.integration(stage, dt)
        insts.append(Instruction(Opcode.BARRIER, tag="sync"))
        return insts

    def time_step(self, dt: float) -> list:
        """The paper's five integration steps per time-step."""
        insts = []
        for s in range(5):
            insts += self.rk_stage(s, dt)
        return insts
