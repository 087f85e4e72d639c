"""Elastic wave kernels on PIM: the forced four-block (E_r) mapping.

"The 1K memory block row size is not enough for the nine variables in the
elastic wave simulation" (Sec 5.1): nine variables x (variable + auxiliary
+ contribution) = 27 words plus mass inverse and constants overflow the
32-word row, so the element is split across four blocks (Sec 6.2.2):

* part 0 (``S1``): the x-traction row ``sxx, sxy, sxz``;
* part 1 (``S2``): the remaining stresses ``syy, syz, szz``;
* part 2 (``V``): the velocities ``vx, vy, vz``;
* part 3 (``B``): the Fig. 9 neighbor-data buffer, which also hosts the
  per-face flux arithmetic.

The streams are **functionally correct** for both flux kinds — executed on
the chip model they reproduce the numpy
:class:`~repro.dg.elastic.ElasticOperator` (the test-suite checks it) —
thanks to a componentwise star-state formulation.  For a face with axis
``a`` and outward-normal sign ``s``, with the *signed* velocity jump
``Dv_i = s (v+_i - v-_i)`` and the *raw* stress-column jump
``Dsig_i = sigma+_{ia} - sigma-_{ia}``::

    X   = a1 Dv_a + a2 Dsig_a        # normal (P-wave) star velocity delta
    Y_j = b1 Dv_j + b2 Dsig_j        # tangential (S-wave), j != a
    W_a = a3 Dsig_a + a4 Dv_a        # star traction deltas
    W_j = b3 Dsig_j + b4 Dv_j

    d sigma_ii += lift*lam * X   (+ 2 lift*mu * X  when i == a)
    d sigma_aj += lift*mu  * Y_j
    d v_i      += (lift*s/rho) * W_i

All outward-normal signs cancel into the two rules "swap the SUB operands
on negative faces" and "fold s into the velocity scale factor" — every
other coefficient is sign-free.  The ``a*/b*`` coefficients are
host-precomputed impedance combinations (central: ``a1=b1=a3=b3=1/2``,
rest zero) — the sqrt/inverse work the paper offloads to the host CPU and
serves through LUTs (Sec 4.3 / 5.1).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.kernels.base import KernelBase, face_sign_axis
from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.elastic import VOIGT
from repro.dg.materials import ElasticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.isa import Instruction, Opcode

__all__ = ["ElasticFourBlockKernels", "elastic_flux_coefficients"]

#: variable placement: part -> hosted variables
S1_VARS = ("sxx", "sxy", "sxz")
S2_VARS = ("syy", "syz", "szz")
V_VARS = ("vx", "vy", "vz")

#: div(sigma) chains: velocity -> [(stress var, derivative axis), ...]
DIV_SIGMA = {
    "vx": (("sxx", 0), ("sxy", 1), ("sxz", 2)),
    "vy": (("sxy", 0), ("syy", 1), ("syz", 2)),
    "vz": (("sxz", 0), ("syz", 1), ("szz", 2)),
}

VOIGT_NAMES = ("sxx", "syy", "szz", "syz", "sxz", "sxy")

#: stress column ``a`` of the tensor (the axis-``a`` face's traction
#: components, before the outward sign): axis -> (s_xa, s_ya, s_za)
TRACTION_VARS = {
    0: ("sxx", "sxy", "sxz"),
    1: ("sxy", "syy", "syz"),
    2: ("sxz", "syz", "szz"),
}

#: Voigt name of tensor component (i, j)
TENSOR_TO_VOIGT = {
    (0, 0): "sxx", (1, 1): "syy", (2, 2): "szz",
    (1, 2): "syz", (2, 1): "syz",
    (0, 2): "sxz", (2, 0): "sxz",
    (0, 1): "sxy", (1, 0): "sxy",
}


def elastic_flux_coefficients(material: ElasticMaterial, mesh: HexMesh) -> np.ndarray:
    """Host-precomputed star-state coefficients, shape ``(K, 6, 8)``.

    Columns: ``a1 a2 a3 a4 b1 b2 b3 b4`` (see module docstring).  They
    fold the P/S impedances (sqrts) and the ``1/(Z- + Z+)`` inverses.
    Fluid-fluid interfaces (``Zs- + Zs+ == 0``) degenerate to averaged
    tangential slip and zero tangential traction.
    """
    zp = material.zp
    zs = material.zs
    K = material.n_elements
    out = np.zeros((K, 6, 8), dtype=np.float64)
    for face in range(6):
        nbr = mesh.neighbors[:, face]
        safe = np.where(nbr >= 0, nbr, 0)
        zp_p = np.where(nbr >= 0, zp[safe], zp)
        zs_p = np.where(nbr >= 0, zs[safe], zs)
        zp_sum = zp + zp_p
        zs_sum = zs + zs_p
        shear = zs_sum > 0
        zs_safe = np.where(shear, zs_sum, 1.0)
        out[:, face, 0] = zp_p / zp_sum                        # a1
        out[:, face, 1] = 1.0 / zp_sum                         # a2
        out[:, face, 2] = zp / zp_sum                          # a3
        out[:, face, 3] = zp * zp_p / zp_sum                   # a4
        out[:, face, 4] = np.where(shear, zs_p / zs_safe, 0.5)  # b1
        out[:, face, 5] = np.where(shear, 1.0 / zs_safe, 0.0)   # b2
        out[:, face, 6] = np.where(shear, zs / zs_safe, 0.5)    # b3
        out[:, face, 7] = np.where(shear, zs * zs_p / zs_safe, 0.0)  # b4
    return out


#: central-flux coefficient vector (a1 a2 a3 a4 b1 b2 b3 b4)
CENTRAL_COEFFS = np.array([0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0])


class ElasticFourBlockKernels(KernelBase):
    """E_r mapping: one elastic element across four memory blocks."""

    n_vars = 9
    S1, S2, V, B = 0, 1, 2, 3
    _ABC = ("a", "b", "c")

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: ElasticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "central",
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        if mapper.g != 4:
            raise ValueError(f"elastic E_r needs blocks_per_element=4, got {mapper.g}")
        self.material = material
        self.lay3 = ElementLayout(element.order, variables=self._ABC)

        # Register file over the 20 scratch columns.  Scratch columns are
        # per-block storage, so the flux registers (live on the buffer
        # block) deliberately ALIAS the volume registers (live on the V and
        # stress blocks); only r_tmp / r_c / r_t are shared across roles,
        # which the barrier-separated kernel phases make safe.
        s0 = self.lay3.scratch0
        # volume registers (V / S blocks)
        self.r_tap = s0 + 0
        self.r_coeff = s0 + 3
        self.r_grad = s0 + 6  # V block: the three diagonal dv_ii (3 cols)
        self.r_part = s0 + 9  # incoming cross-block partial sums (2 cols)
        self.r_tmp = s0 + 12
        self.r_acc = s0 + 13
        self.r_lam = s0 + 14  # V block, persistent: lam * dscale
        # flux registers (buffer block); own_* are overwritten by the star
        # deltas in step 4
        self.r_own_v = s0 + 0  # 3 cols
        self.r_own_t = s0 + 3  # 3 cols
        self.r_nb_v = s0 + 6  # 3 cols; becomes the signed velocity jump Dv
        self.r_nb_t = s0 + 9  # 3 cols; becomes the raw stress jump Dsig
        # shared temporaries (every block)
        self.r_c = s0 + 15  # 2 cols: coefficient gathers
        self.r_t = s0 + 17  # 2 cols: temporaries / outgoing corrections
        assert s0 + 19 <= self.lay3.row_words

    @cached_property
    def flux_coeffs(self) -> np.ndarray:
        """The ``(K, 6, 8)`` star coefficient table, built on first use
        (``setup`` is its only reader; compiles never build it).  Central
        flux is a read-only broadcast view of :data:`CENTRAL_COEFFS`."""
        if self.flux_kind == "central":
            return np.broadcast_to(CENTRAL_COEFFS, (self.mesh.n_elements, 6, 8))
        return elastic_flux_coefficients(self.material, self.mesh)

    # -- placement -------------------------------------------------------- #

    def part_of(self, var: str) -> tuple[int, int]:
        """(part, local column) hosting ``var``."""
        for part, group in ((self.S1, S1_VARS), (self.S2, S2_VARS), (self.V, V_VARS)):
            if var in group:
                return part, self.lay3.col_var[self._ABC[group.index(var)]]
        raise KeyError(var)

    def block_of_var(self, e: int, var: str) -> tuple[int, int]:
        part, col = self.part_of(var)
        return self.mapper.block_of(e, part), col

    def _contrib_col(self, var: str) -> int:
        _, col = self.part_of(var)
        return self.lay3.col_contrib[self._ABC[col - 1]]

    # ------------------------------------------------------------------ #

    def setup(self, elements=None) -> list:
        """Constants broadcast: dshape, material constants, flux coeffs.

        Per-block material columns: S1/S2 get ``(lam*ds, mu*ds)``; V gets
        ``(ds/rho, mu*ds)`` plus ``lam*ds`` in a scratch register (its
        stress-contribution combos need all three).  The buffer block's
        storage rows carry, per face: the eight star coefficients, then
        ``lift*lam``, ``lift*mu`` and ``lift*s/rho``.
        """
        lay = self.lay3
        d = self.element.diff_1d
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            lam = self.material.lam[e]
            mu = self.material.mu[e]
            inv_rho = 1.0 / self.material.rho[e]
            for part in range(4):
                b = self.mapper.block_of(e, part)
                insts.append(Instruction(Opcode.DRAM_LOAD, block=b, tag="setup",
                                         meta={"bytes": lay.n_nodes * 4 * 8}))
                rows = (lay.row_dshape0, lay.row_dshape0 + lay.npts)
                for a in range(lay.npts):
                    insts.append(self._bcast(b, rows, a, d[:, a], "setup"))
                c0 = lam * self.dscale if part in (self.S1, self.S2) else inv_rho * self.dscale
                c1 = mu * self.dscale
                insts.append(self._bcast(
                    b, lay.compute_rows, lay.col_econst[0], float(c0), "setup"))
                insts.append(self._bcast(
                    b, lay.compute_rows, lay.col_econst[1], float(c1), "setup"))
                if part == self.V:
                    insts.append(self._bcast(
                        b, lay.compute_rows, self.r_lam, float(lam * self.dscale), "setup"))
            bb = self.mapper.block_of(e, self.B)
            for face in range(6):
                sign, _ = face_sign_axis(face)
                row = (lay.row_flux0 + face, lay.row_flux0 + face + 1)
                for c in range(8):
                    insts.append(self._bcast(
                        bb, row, c, float(self.flux_coeffs[e, face, c]), "setup"))
                insts.append(self._bcast(bb, row, 8, float(self.lift * lam), "setup"))
                insts.append(self._bcast(bb, row, 9, float(self.lift * mu), "setup"))
                insts.append(self._bcast(
                    bb, row, 10, float(self.lift * inv_rho * sign), "setup"))
        return insts

    def load_state(self, state: np.ndarray, elements=None) -> list:
        """Write a ``(9, K, n_nodes)`` state into the variable blocks."""
        lay = self.lay3
        order = VOIGT_NAMES + V_VARS
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            for i, var in enumerate(order):
                b, col = self.block_of_var(e, var)
                insts.append(self._bcast(
                    b, lay.compute_rows, col, state[i, e].astype(np.float32), "load"))
            for part in range(3):
                insts.append(Instruction(
                    Opcode.DRAM_LOAD, block=self.mapper.block_of(e, part), tag="load",
                    meta={"bytes": lay.n_nodes * 4 * 3}))
        return insts

    def read_state(self, chip, elements=None) -> np.ndarray:
        nn = self.lay3.n_nodes
        order = VOIGT_NAMES + V_VARS
        out = np.zeros((9, self.mesh.n_elements, nn), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            for i, var in enumerate(order):
                b, col = self.block_of_var(e, var)
                out[i, e] = chip.block(b).data[:nn, col]
        return out

    def read_contributions(self, chip, elements=None) -> np.ndarray:
        nn = self.lay3.n_nodes
        order = VOIGT_NAMES + V_VARS
        out = np.zeros((9, self.mesh.n_elements, nn), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            for i, var in enumerate(order):
                b, _ = self.block_of_var(e, var)
                out[i, e] = chip.block(b).data[:nn, self._contrib_col(var)]
        return out

    # ------------------------------------------------------------------ #
    # Volume
    # ------------------------------------------------------------------ #

    def volume(self, tag: str = "volume", elements=None) -> list:
        """Nine dv chains + six stress combos (V) and nine dsigma chains."""
        lay = self.lay3
        rows = lay.compute_rows
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            vb = self.mapper.block_of(e, self.V)
            s_blocks = {v: self.block_of_var(e, v) for v in VOIGT_NAMES}
            # --- V block: exactly nine dv_i/dx_j chains, combined per Voigt.
            for i in range(3):
                insts += self._derivative_chain(
                    vb, lay, i, lay.col_var[self._ABC[i]], self.r_grad + i, tag)
            insts.append(self._arith(
                Opcode.ADD, vb, rows, self.r_acc, self.r_grad + 0, self.r_grad + 1, tag))
            insts.append(self._arith(
                Opcode.ADD, vb, rows, self.r_acc, self.r_acc, self.r_grad + 2, tag))
            for q, (vi, vj) in enumerate(VOIGT):
                if vi == vj:
                    # sigma_ii contribution = lam_ds * div v + 2 mu_ds * dv_ii
                    insts.append(self._arith(
                        Opcode.MUL, vb, rows, self.r_t + 0, self.r_acc, self.r_lam, tag))
                    insts.append(self._arith(
                        Opcode.MUL, vb, rows, self.r_t + 1,
                        self.r_grad + vi, lay.col_econst[1], tag))
                    insts.append(self._arith(
                        Opcode.ADD, vb, rows, self.r_t + 0, self.r_t + 0, self.r_t + 1, tag))
                    insts.append(self._arith(
                        Opcode.ADD, vb, rows, self.r_t + 0, self.r_t + 0, self.r_t + 1, tag))
                else:
                    # sigma_ij contribution = mu_ds * (dv_i/dx_j + dv_j/dx_i)
                    insts += self._derivative_chain(
                        vb, lay, vj, lay.col_var[self._ABC[vi]], self.r_part + 0, tag)
                    insts += self._derivative_chain(
                        vb, lay, vi, lay.col_var[self._ABC[vj]], self.r_part + 1, tag)
                    insts.append(self._arith(
                        Opcode.ADD, vb, rows, self.r_t + 0,
                        self.r_part + 0, self.r_part + 1, tag))
                    insts.append(self._arith(
                        Opcode.MUL, vb, rows, self.r_t + 0,
                        self.r_t + 0, lay.col_econst[1], tag))
                # ship the contribution to the hosting stress block
                sb, _ = s_blocks[VOIGT_NAMES[q]]
                insts.append(self._transfer(
                    sb, vb, rows, rows, self._contrib_col(VOIGT_NAMES[q]),
                    self.r_t + 0, 1, f"{tag}:sync"))
            # --- stress blocks: div(sigma) chains for velocity contribs ---
            for vi, v in enumerate(V_VARS):
                base_b = None
                for var, axis in DIV_SIGMA[v]:
                    sb, scol = s_blocks[var]
                    if base_b is None:
                        base_b = sb
                        insts += self._derivative_chain(sb, lay, axis, scol, self.r_acc, tag)
                        continue
                    acc = self.r_part + 0
                    insts += self._derivative_chain(sb, lay, axis, scol, acc, tag)
                    if sb != base_b:
                        insts.append(self._transfer(
                            base_b, sb, rows, rows, self.r_part + 1, acc, 1, f"{tag}:sync"))
                        acc = self.r_part + 1
                    insts.append(self._arith(
                        Opcode.ADD, base_b, rows, self.r_acc, self.r_acc, acc, tag))
                insts.append(self._transfer(
                    vb, base_b, rows, rows, self.r_part + 0, self.r_acc, 1, f"{tag}:sync"))
                insts.append(self._arith(
                    Opcode.MUL, vb, rows, lay.col_contrib[self._ABC[vi]],
                    self.r_part + 0, lay.col_econst[0], tag))
        return insts

    # ------------------------------------------------------------------ #
    # Flux (functional for central AND Riemann)
    # ------------------------------------------------------------------ #

    def _star_delta(self, bb, fr, face, dst, d_main, d_other, c_main, c_other,
                    tag, skip_other):
        """``dst = c[c_main] * d_main (+ c[c_other] * d_other)`` on face rows."""
        lay = self.lay3
        cmap = lay.face_row_map(fr, lay.row_flux0 + face)
        insts = [self._gather(bb, fr, self.r_c + 0, c_main, cmap, tag)]
        if not skip_other:
            insts.append(self._gather(bb, fr, self.r_c + 1, c_other, cmap, tag))
        insts.append(self._arith(Opcode.MUL, bb, fr, self.r_t + 1, self.r_c + 0, d_main, tag))
        if not skip_other:
            insts.append(self._arith(
                Opcode.MUL, bb, fr, dst if dst != d_other else self.r_t + 0,
                self.r_c + 1, d_other, tag))
            src2 = dst if dst != d_other else self.r_t + 0
            insts.append(self._arith(Opcode.ADD, bb, fr, dst, self.r_t + 1, src2, tag))
        else:
            insts.append(Instruction(Opcode.COPY, block=bb, rows=fr, dst=dst,
                                     src1=self.r_t + 1, tag=tag))
        return insts

    def flux(self, faces=range(6), fetch_tag="flux:fetch", compute_tag="flux:compute",
             elements=None) -> list:
        """Per-face star-state corrections through the buffer block."""
        lay = self.lay3
        riemann = self.flux_kind != "central"
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            bb = self.mapper.block_of(e, self.B)
            for face in faces:
                moves = self._face_transfers(e, face, fetch_tag)
                if not moves:
                    continue
                fr = moves[0].rows  # shared with the TRANSFERs
                sign, axis = face_sign_axis(face)
                cmap = lay.face_row_map(fr, lay.row_flux0 + face)

                # 1. inter-element fetches into the buffer block,
                # 2. own data over the short intra-quad paths (Fig. 9)
                insts += moves[:8]
                returns = iter(moves[8:])

                # 3. jumps, in place: Dv_i = s (v+ - v-) — the outward sign
                #    is folded in by swapping the SUB operands on negative
                #    faces; Dsig_i = sigma+ - sigma- stays raw.
                for i in range(3):
                    v1, v2 = (self.r_nb_v + i, self.r_own_v + i)
                    if sign < 0:
                        v1, v2 = v2, v1
                    insts.append(self._arith(
                        Opcode.SUB, bb, fr, self.r_nb_v + i, v1, v2, compute_tag))
                    insts.append(self._arith(
                        Opcode.SUB, bb, fr, self.r_nb_t + i, self.r_nb_t + i,
                        self.r_own_t + i, compute_tag))

                # 4. star deltas into the (now free) own_* registers:
                #    own_v[i] <- X (i==axis) or Y_i ; own_t[i] <- W_i
                for i in range(3):
                    cm, co = (0, 1) if i == axis else (4, 5)
                    insts += self._star_delta(
                        bb, fr, face, self.r_own_v + i, self.r_nb_v + i,
                        self.r_nb_t + i, cm, co, compute_tag, skip_other=not riemann)
                for i in range(3):
                    cm, co = (2, 3) if i == axis else (6, 7)
                    insts += self._star_delta(
                        bb, fr, face, self.r_own_t + i, self.r_nb_t + i,
                        self.r_nb_v + i, cm, co, compute_tag, skip_other=not riemann)

                # 5. corrections, shipped to the hosting blocks by the
                #    returns that end ``moves``
                def correction(dst_var, emit):
                    local = []
                    emit(local)
                    ret = next(returns)
                    local.append(ret)
                    cc = self._contrib_col(dst_var)
                    local.append(self._arith(
                        Opcode.ADD, ret.block, fr, cc, cc, self.r_t + 0, compute_tag))
                    return local

                # common diagonal term lift*lam*X (const col 8)
                insts.append(self._gather(bb, fr, self.r_c + 0, 8, cmap, compute_tag))
                insts.append(self._arith(
                    Opcode.MUL, bb, fr, self.r_tmp, self.r_c + 0,
                    self.r_own_v + axis, compute_tag))
                for i in range(3):
                    var = TENSOR_TO_VOIGT[(i, i)]

                    def emit_diag(out, i=i):
                        if i == axis:
                            # lift*lam*X + 2*lift*mu*X
                            out.append(self._gather(
                                bb, fr, self.r_c + 1, 9, cmap, compute_tag))
                            out.append(self._arith(
                                Opcode.MUL, bb, fr, self.r_t + 0, self.r_c + 1,
                                self.r_own_v + axis, compute_tag))
                            out.append(self._arith(
                                Opcode.ADD, bb, fr, self.r_t + 0, self.r_t + 0,
                                self.r_t + 0, compute_tag))
                            out.append(self._arith(
                                Opcode.ADD, bb, fr, self.r_t + 0, self.r_t + 0,
                                self.r_tmp, compute_tag))
                        else:
                            out.append(Instruction(
                                Opcode.COPY, block=bb, rows=fr, dst=self.r_t + 0,
                                src1=self.r_tmp, tag=compute_tag))

                    insts += correction(var, emit_diag)
                # off-diagonals sigma_{axis,j}: lift*mu*Y_j (const col 9)
                insts.append(self._gather(bb, fr, self.r_c + 1, 9, cmap, compute_tag))
                for j in range(3):
                    if j == axis:
                        continue
                    var = TENSOR_TO_VOIGT[(axis, j)]

                    def emit_off(out, j=j):
                        out.append(self._arith(
                            Opcode.MUL, bb, fr, self.r_t + 0, self.r_c + 1,
                            self.r_own_v + j, compute_tag))

                    insts += correction(var, emit_off)
                # velocities: (lift*s/rho) * W_i (const col 10)
                insts.append(self._gather(bb, fr, self.r_c + 0, 10, cmap, compute_tag))
                for i in range(3):
                    var = V_VARS[i]

                    def emit_vel(out, i=i):
                        out.append(self._arith(
                            Opcode.MUL, bb, fr, self.r_t + 0, self.r_c + 0,
                            self.r_own_t + i, compute_tag))

                    insts += correction(var, emit_vel)
        return insts

    def _face_transfers(self, e, face, fetch_tag) -> list:
        """The neighbor's velocity and traction fetches into the buffer
        block, the intra-quad copies of the element's own, then the eight
        corrections returned to their hosting blocks in ``flux`` order:
        diagonal stresses, off-diagonals ``sigma_{axis,j}``, velocities."""
        nbr = self.neighbor(e, face)
        if nbr is None:
            return []
        e = int(e)
        lay = self.lay3
        fr = self.face_rows(face)
        nfr = self.neighbor_face_rows(face)
        _, axis = face_sign_axis(face)
        trac = TRACTION_VARS[axis]
        bb = self.mapper.block_of(e, self.B)
        intra = f"{fetch_tag}:intra"
        moves = [self._transfer(
            bb, self.mapper.block_of(nbr, self.V), fr, nfr, self.r_nb_v,
            lay.col_var["a"], 3, fetch_tag)]
        for i, var in enumerate(trac):
            nb_b, nb_col = self.block_of_var(nbr, var)
            moves.append(self._transfer(
                bb, nb_b, fr, nfr, self.r_nb_t + i, nb_col, 1, fetch_tag))
        moves.append(self._transfer(
            bb, self.mapper.block_of(e, self.V), fr, fr, self.r_own_v,
            lay.col_var["a"], 3, intra))
        for i, var in enumerate(trac):
            ob, ocol = self.block_of_var(e, var)
            moves.append(self._transfer(
                bb, ob, fr, fr, self.r_own_t + i, ocol, 1, intra))
        for var in ([TENSOR_TO_VOIGT[(i, i)] for i in range(3)]
                    + [TENSOR_TO_VOIGT[(axis, j)] for j in range(3) if j != axis]
                    + list(V_VARS)):
            db, _ = self.block_of_var(e, var)
            moves.append(self._transfer(
                db, bb, fr, fr, self.r_t + 0, self.r_t + 0, 1, intra))
        return moves

    # ------------------------------------------------------------------ #

    def integration(self, stage: int, dt: float, tag: str = "integration",
                    elements=None) -> list:
        lay = self.lay3
        rows = lay.compute_rows
        a_s, b_s = float(self.rk.A[stage]), float(self.rk.B[stage])
        insts = []
        r_ic = self.r_c  # two coefficient registers; B_s rides in r_t
        for e in (self.mapper.elements if elements is None else elements):
            e = int(e)
            for part in (self.S1, self.S2, self.V):
                b = self.mapper.block_of(e, part)
                insts.append(self._bcast(b, rows, r_ic + 0, a_s, tag))
                insts.append(self._bcast(b, rows, r_ic + 1, float(dt), tag))
                insts.append(self._bcast(b, rows, self.r_t + 0, b_s, tag))
                for v in self._ABC:
                    aux, contrib, var = lay.col_aux[v], lay.col_contrib[v], lay.col_var[v]
                    insts.append(self._arith(Opcode.MUL, b, rows, aux, aux, r_ic + 0, tag))
                    insts.append(self._arith(
                        Opcode.MUL, b, rows, self.r_tmp, contrib, r_ic + 1, tag))
                    insts.append(self._arith(Opcode.ADD, b, rows, aux, aux, self.r_tmp, tag))
                    insts.append(self._arith(
                        Opcode.MUL, b, rows, self.r_tmp, aux, self.r_t + 0, tag))
                    insts.append(self._arith(Opcode.ADD, b, rows, var, var, self.r_tmp, tag))
        return insts
