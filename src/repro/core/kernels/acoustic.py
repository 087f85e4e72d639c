"""Acoustic wave kernels on PIM: one-block and expanded four-block forms.

One-block (naive): the whole 4-variable element lives in a single memory
block (Fig. 5); Volume, Flux and Integration execute serially inside it.

Four-block (E_p, Figs. 8/9): pressure lives in the *part-3* block — which
doubles as the Fig. 9 neighbor-data buffer — and each velocity component
in its own *axis block*.  Volume distributes the three directional
derivative chains across the axis blocks (div-v partial sums travel to
the p block); Flux fetches neighbor data into the buffer block, spreads
it over the short intra-quad H-tree paths, computes per-axis corrections
locally and returns the pressure corrections.  "With more dynamic power
consumption, the four-block implementation can achieve a better
performance than the one-block naive solution." (§6.2.1)

Both generators emit real :class:`~repro.pim.isa.Instruction` streams that
execute functionally — the test-suite proves them equal to the numpy dG
solver — and carry the cost tags behind Figs. 13/14.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.kernels.base import KernelBase, face_sign_axis
from repro.core.layout import ElementLayout
from repro.core.mapper import ElementMapper
from repro.dg.materials import AcousticMaterial
from repro.dg.mesh import HexMesh
from repro.dg.reference_element import ReferenceElement
from repro.pim.isa import Instruction, Opcode

__all__ = ["AcousticOneBlockKernels", "AcousticFourBlockKernels"]

_VARS = ("p", "vx", "vy", "vz")


def acoustic_flux_coefficients(
    material: AcousticMaterial, mesh: HexMesh, lift: float, flux_kind: str
) -> np.ndarray:
    """Host-precomputed per-(element, face) flux coefficients ``c1..c4``.

    The correction applied at face nodes is::

        contrib_p   += c1 * (vax- - vax+) + c2 * (p- - p+)
        contrib_vax += c3 * (p-  - p+ ) + c4 * (vax- - vax+)

    These fold the impedances (sqrt) and the ``1/(Z- + Z+)`` inverse — the
    exact computations the paper offloads to the host CPU and serves from
    LUTs (§4.3/§5.1).  Returns shape ``(K, 6, 4)``.
    """
    z = material.impedance
    kappa = material.kappa
    rho = material.rho
    K = material.n_elements
    out = np.zeros((K, 6, 4), dtype=np.float64)
    for face in range(6):
        sign, _ = face_sign_axis(face)
        nbr = mesh.neighbors[:, face]
        interior = nbr >= 0
        zp = np.where(interior, z[np.where(interior, nbr, 0)], z)
        if flux_kind == "central":
            out[:, face, 0] = 0.5 * lift * kappa * sign
            out[:, face, 2] = 0.5 * lift * sign / rho
        else:
            zsum = z + zp
            out[:, face, 0] = lift * kappa * zp * sign / zsum
            out[:, face, 1] = -lift * kappa / zsum
            out[:, face, 2] = lift * sign * z / (rho * zsum)
            out[:, face, 3] = -lift * z * zp / (rho * zsum)
    return out


class AcousticOneBlockKernels(KernelBase):
    """Naive mapping: one element per memory block."""

    n_vars = 4

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: AcousticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        self.material = material
        self.layout = ElementLayout(element.order, variables=_VARS)
        lay = self.layout
        s = lay.scratch
        s.free_all()
        # persistent scratch register file for the kernels
        self.r_tap = s.alloc()
        self.r_coeff = s.alloc()
        self.r_tmp = s.alloc()
        self.r_acc = s.alloc()
        self.r_nb = s.alloc(4)  # neighbor p, vx, vy, vz
        self.r_dp = s.alloc()
        self.r_dv = s.alloc()
        self.r_c = s.alloc(4)  # flux coefficients c1..c4
        self.r_t1 = s.alloc()
        self.r_t2 = s.alloc()
        # integration constants A_s, dt, B_s reuse the flux-coefficient
        # registers -- Integration and Flux never overlap inside a block.
        self.r_ic = self.r_c

    @cached_property
    def flux_coeffs(self) -> np.ndarray:
        """The ``(K, 6, 4)`` flux coefficient table, built on first use
        (``setup`` is its only reader; compiles never build it)."""
        return acoustic_flux_coefficients(self.material, self.mesh, self.lift, self.flux_kind)

    # ------------------------------------------------------------------ #
    # setup: constants + state  (Fig. 6 step 1 / Fig. 5 storage space)
    # ------------------------------------------------------------------ #

    def setup(self, elements=None) -> list:
        """Broadcast constants into every element block (executed once)."""
        lay = self.layout
        d = self.element.diff_1d
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            b = self.mapper.block_of(e)
            insts.append(
                Instruction(Opcode.DRAM_LOAD, block=b, tag="setup",
                            meta={"bytes": lay.n_nodes * 4 * 8})
            )
            # dshape into storage rows (column a holds D[:, a])
            rows = (lay.row_dshape0, lay.row_dshape0 + lay.npts)
            for a in range(lay.npts):
                insts.append(self._bcast(b, rows, a, d[:, a], "setup"))
            # per-element Volume constants, broadcast to the compute rows
            ck = -self.material.kappa[e] * self.dscale
            cr = -self.dscale / self.material.rho[e]
            insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[0], float(ck), "setup"))
            insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[1], float(cr), "setup"))
            # mass inverse (used by source injection / diagnostics)
            minv = 1.0 / (self.element.node_weights * (self.mesh.h / 2.0) ** 3)
            insts.append(self._bcast(b, lay.compute_rows, lay.col_mass, minv, "setup"))
            # host-precomputed flux coefficients into the six storage rows
            for face in range(6):
                row = (lay.row_flux0 + face, lay.row_flux0 + face + 1)
                for c in range(4):
                    insts.append(
                        self._bcast(b, row, c, float(self.flux_coeffs[e, face, c]), "setup")
                    )
        return insts

    def load_state(self, state: np.ndarray, elements=None) -> list:
        """Write a ``(4, K, n_nodes)`` state into the variable columns."""
        lay = self.layout
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            b = self.mapper.block_of(e)
            insts.append(
                Instruction(Opcode.DRAM_LOAD, block=b, tag="load",
                            meta={"bytes": lay.n_nodes * 4 * self.n_vars})
            )
            for i, v in enumerate(_VARS):
                insts.append(
                    self._bcast(b, lay.compute_rows, lay.col_var[v],
                                state[i, e].astype(np.float32), "load")
                )
        return insts

    def read_state(self, chip, elements=None) -> np.ndarray:
        """Host-side read-back of the full state."""
        lay = self.layout
        out = np.zeros((self.n_vars, self.mesh.n_elements, lay.n_nodes), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            blk = chip.block(self.mapper.block_of(e))
            for i, v in enumerate(_VARS):
                out[i, e] = blk.data[: lay.n_nodes, lay.col_var[v]]
        return out

    def read_contributions(self, chip, elements=None) -> np.ndarray:
        lay = self.layout
        out = np.zeros((self.n_vars, self.mesh.n_elements, lay.n_nodes), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            blk = chip.block(self.mapper.block_of(e))
            for i, v in enumerate(_VARS):
                out[i, e] = blk.data[: lay.n_nodes, lay.col_contrib[v]]
        return out

    # ------------------------------------------------------------------ #
    # Volume (Fig. 5 left timeline)
    # ------------------------------------------------------------------ #

    def volume(self, tag: str = "volume", elements=None) -> list:
        """contrib_p = c_kappa * div(v); contrib_v = c_invrho * grad(p)."""
        lay = self.layout
        rows = lay.compute_rows
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            b = self.mapper.block_of(e)
            # div v into r_acc (accumulates across the three axes)
            for axis, v in enumerate(("vx", "vy", "vz")):
                insts += self._derivative_chain(
                    b, lay, axis, lay.col_var[v], self.r_acc, tag, accumulate=axis > 0
                )
            insts.append(self._arith(
                Opcode.MUL, b, rows, lay.col_contrib["p"], self.r_acc, lay.col_econst[0], tag))
            # grad p, one axis at a time, straight into the contributions
            for axis, v in enumerate(("vx", "vy", "vz")):
                insts += self._derivative_chain(
                    b, lay, axis, lay.col_var["p"], self.r_acc, tag
                )
                insts.append(self._arith(
                    Opcode.MUL, b, rows, lay.col_contrib[v], self.r_acc, lay.col_econst[1], tag))
        return insts

    # ------------------------------------------------------------------ #
    # Flux
    # ------------------------------------------------------------------ #

    def flux(self, faces=range(6), fetch_tag="flux:fetch", compute_tag="flux:compute", elements=None) -> list:
        """Neighbor reconciliation for the given faces (default all six)."""
        lay = self.layout
        riemann = self.flux_kind != "central"
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            b = self.mapper.block_of(e)
            for face in faces:
                fetches = self._face_transfers(e, face, fetch_tag)
                if not fetches:
                    continue
                fr = fetches[0].rows  # shared with the TRANSFERs
                _, axis = face_sign_axis(face)
                # 1. fetch the neighbor's 4 variables at its matching face
                insts += fetches
                # 2. flux coefficients from the face's storage row
                cmap = lay.face_row_map(fr, lay.row_flux0 + face)
                used = (0, 1, 2, 3) if riemann else (0, 2)
                for c in used:
                    insts.append(self._gather(b, fr, self.r_c + c, c, cmap, compute_tag))
                # 3. differences
                insts.append(self._arith(
                    Opcode.SUB, b, fr, self.r_dp, lay.col_var["p"], self.r_nb, compute_tag))
                vax = lay.col_var[_VARS[1 + axis]]
                insts.append(self._arith(
                    Opcode.SUB, b, fr, self.r_dv, vax, self.r_nb + 1 + axis, compute_tag))
                # 4. pressure correction: c1*dv (+ c2*dp)
                insts.append(self._arith(
                    Opcode.MUL, b, fr, self.r_t1, self.r_c + 0, self.r_dv, compute_tag))
                if riemann:
                    insts.append(self._arith(
                        Opcode.MUL, b, fr, self.r_t2, self.r_c + 1, self.r_dp, compute_tag))
                    insts.append(self._arith(
                        Opcode.ADD, b, fr, self.r_t1, self.r_t1, self.r_t2, compute_tag))
                cp = lay.col_contrib["p"]
                insts.append(self._arith(Opcode.ADD, b, fr, cp, cp, self.r_t1, compute_tag))
                # 5. axis-velocity correction: c3*dp (+ c4*dv)
                insts.append(self._arith(
                    Opcode.MUL, b, fr, self.r_t1, self.r_c + 2, self.r_dp, compute_tag))
                if riemann:
                    insts.append(self._arith(
                        Opcode.MUL, b, fr, self.r_t2, self.r_c + 3, self.r_dv, compute_tag))
                    insts.append(self._arith(
                        Opcode.ADD, b, fr, self.r_t1, self.r_t1, self.r_t2, compute_tag))
                cv = lay.col_contrib[_VARS[1 + axis]]
                insts.append(self._arith(Opcode.ADD, b, fr, cv, cv, self.r_t1, compute_tag))
        return insts

    def _face_transfers(self, e, face, fetch_tag) -> list:
        """One fetch of the neighbor's four variables at its matching face."""
        nbr = self.neighbor(e, face)
        if nbr is None:
            return []
        return [self._transfer(
            self.mapper.block_of(e), self.mapper.block_of(nbr), self.face_rows(face),
            self.neighbor_face_rows(face), self.r_nb, self.layout.col_var["p"], 4, fetch_tag)]

    # ------------------------------------------------------------------ #
    # Integration (one LSRK stage)
    # ------------------------------------------------------------------ #

    def integration(self, stage: int, dt: float, tag: str = "integration", elements=None) -> list:
        """aux = A_s aux + dt*contrib ; var += B_s aux — for all variables."""
        lay = self.layout
        rows = lay.compute_rows
        a_s = float(self.rk.A[stage])
        b_s = float(self.rk.B[stage])
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            b = self.mapper.block_of(e)
            insts.append(self._bcast(b, rows, self.r_ic + 0, a_s, tag))
            insts.append(self._bcast(b, rows, self.r_ic + 1, float(dt), tag))
            insts.append(self._bcast(b, rows, self.r_ic + 2, b_s, tag))
            for v in _VARS:
                aux, contrib, var = lay.col_aux[v], lay.col_contrib[v], lay.col_var[v]
                insts.append(self._arith(Opcode.MUL, b, rows, aux, aux, self.r_ic + 0, tag))
                insts.append(self._arith(Opcode.MUL, b, rows, self.r_tmp, contrib, self.r_ic + 1, tag))
                insts.append(self._arith(Opcode.ADD, b, rows, aux, aux, self.r_tmp, tag))
                insts.append(self._arith(Opcode.MUL, b, rows, self.r_tmp, aux, self.r_ic + 2, tag))
                insts.append(self._arith(Opcode.ADD, b, rows, var, var, self.r_tmp, tag))
        return insts


class AcousticFourBlockKernels(KernelBase):
    """Expanded mapping (E_p): p + one block per velocity axis (Figs. 8/9).

    Part assignment: parts 0..2 host ``vx, vy, vz``; part 3 hosts ``p``
    and doubles as the neighbor-data buffer of Fig. 9.
    """

    n_vars = 4
    P_PART = 3

    def __init__(
        self,
        mesh: HexMesh,
        element: ReferenceElement,
        material: AcousticMaterial,
        mapper: ElementMapper,
        flux_kind: str = "riemann",
    ):
        super().__init__(mesh, element, mapper, flux_kind)
        if mapper.g != 4:
            raise ValueError(f"four-block kernels need blocks_per_element=4, got {mapper.g}")
        self.material = material
        self.lay_v = ElementLayout(element.order, variables=("v",))
        self.lay_p = ElementLayout(element.order, variables=("p",))
        # scratch registers (same offsets valid in both layouts: the single-
        # variable layouts are identical column-wise)
        for lay in (self.lay_v, self.lay_p):
            lay.scratch.free_all()
        s = self.lay_v.scratch
        self.r_tap = s.alloc()
        self.r_coeff = s.alloc()
        self.r_tmp = s.alloc()
        self.r_acc = s.alloc()
        self.r_pcopy = s.alloc()  # axis blocks' copy of p
        self.r_div = s.alloc(3)  # p block: incoming div partial sums
        self.r_nb_p = s.alloc()
        self.r_nb_v = s.alloc()
        self.r_my_v = s.alloc()  # p-block copy of own face velocities
        self.r_dp = s.alloc()
        self.r_dv = s.alloc()
        self.r_c = s.alloc(4)
        self.r_t1 = s.alloc()
        self.r_t2 = s.alloc()
        self.r_ic = s.alloc(3)

    @cached_property
    def flux_coeffs(self) -> np.ndarray:
        """The ``(K, 6, 4)`` flux coefficient table, built on first use
        (``setup`` is its only reader; compiles never build it)."""
        return acoustic_flux_coefficients(self.material, self.mesh, self.lift, self.flux_kind)

    # -- placement helpers -------------------------------------------------- #

    def vblock(self, e: int, axis: int) -> int:
        return self.mapper.block_of(e, axis)

    def pblock(self, e: int) -> int:
        return self.mapper.block_of(e, self.P_PART)

    # ------------------------------------------------------------------ #

    def setup(self, elements=None) -> list:
        d = self.element.diff_1d
        insts = []
        minv = 1.0 / (self.element.node_weights * (self.mesh.h / 2.0) ** 3)
        for e in (self.mapper.elements if elements is None else elements):
            ck = -self.material.kappa[e] * self.dscale
            cr = -self.dscale / self.material.rho[e]
            for part in range(4):
                lay = self.lay_p if part == self.P_PART else self.lay_v
                b = self.mapper.block_of(e, part)
                insts.append(Instruction(Opcode.DRAM_LOAD, block=b, tag="setup",
                                         meta={"bytes": lay.n_nodes * 4 * 8}))
                rows = (lay.row_dshape0, lay.row_dshape0 + lay.npts)
                for a in range(lay.npts):
                    insts.append(self._bcast(b, rows, a, d[:, a], "setup"))
                const = ck if part == self.P_PART else cr
                insts.append(self._bcast(b, lay.compute_rows, lay.col_econst[0], float(const), "setup"))
                insts.append(self._bcast(b, lay.compute_rows, lay.col_mass, minv, "setup"))
                for face in range(6):
                    row = (lay.row_flux0 + face, lay.row_flux0 + face + 1)
                    for c in range(4):
                        insts.append(self._bcast(
                            b, row, c, float(self.flux_coeffs[e, face, c]), "setup"))
        return insts

    def load_state(self, state: np.ndarray, elements=None) -> list:
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            for part in range(4):
                lay = self.lay_p if part == self.P_PART else self.lay_v
                b = self.mapper.block_of(e, part)
                var = state[0, e] if part == self.P_PART else state[1 + part, e]
                insts.append(Instruction(Opcode.DRAM_LOAD, block=b, tag="load",
                                         meta={"bytes": lay.n_nodes * 4}))
                col = lay.col_var["p" if part == self.P_PART else "v"]
                insts.append(self._bcast(b, lay.compute_rows, col, var.astype(np.float32), "load"))
        return insts

    def read_state(self, chip, elements=None) -> np.ndarray:
        nn = self.lay_v.n_nodes
        out = np.zeros((4, self.mesh.n_elements, nn), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            out[0, e] = chip.block(self.pblock(e)).data[:nn, self.lay_p.col_var["p"]]
            for axis in range(3):
                out[1 + axis, e] = chip.block(self.vblock(e, axis)).data[
                    :nn, self.lay_v.col_var["v"]]
        return out

    def read_contributions(self, chip, elements=None) -> np.ndarray:
        nn = self.lay_v.n_nodes
        out = np.zeros((4, self.mesh.n_elements, nn), dtype=np.float32)
        for e in (self.mapper.elements if elements is None else elements):
            out[0, e] = chip.block(self.pblock(e)).data[:nn, self.lay_p.col_contrib["p"]]
            for axis in range(3):
                out[1 + axis, e] = chip.block(self.vblock(e, axis)).data[
                    :nn, self.lay_v.col_contrib["v"]]
        return out

    # ------------------------------------------------------------------ #

    def volume(self, tag: str = "volume", elements=None) -> list:
        """Fig. 8: per-axis derivative chains + div partial-sum exchange."""
        lv, lp = self.lay_v, self.lay_p
        rows = lv.compute_rows
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            pb = self.pblock(e)
            # broadcast p to the axis blocks (the Fig. 8 data duplication)
            for axis in range(3):
                vb = self.vblock(e, axis)
                insts.append(self._transfer(
                    vb, pb, rows, rows, self.r_pcopy, lp.col_var["p"], 1, f"{tag}:sync"))
            for axis in range(3):
                vb = self.vblock(e, axis)
                # grad p along my axis -> my contribution
                insts += self._derivative_chain(vb, lv, axis, self.r_pcopy, self.r_acc, tag)
                insts.append(self._arith(
                    Opcode.MUL, vb, rows, lv.col_contrib["v"], self.r_acc, lv.col_econst[0], tag))
                # div v partial: derivative of my own velocity component
                insts += self._derivative_chain(vb, lv, axis, lv.col_var["v"], self.r_acc, tag)
                # ship the partial sum to the p block (Fig. 8 inter-block memcpy)
                insts.append(self._transfer(
                    pb, vb, rows, rows, self.r_div + axis, self.r_acc, 1, f"{tag}:sync"))
            # p block: combine the three partials
            insts.append(self._arith(
                Opcode.ADD, pb, rows, self.r_acc, self.r_div + 0, self.r_div + 1, tag))
            insts.append(self._arith(
                Opcode.ADD, pb, rows, self.r_acc, self.r_acc, self.r_div + 2, tag))
            insts.append(self._arith(
                Opcode.MUL, pb, rows, lp.col_contrib["p"], self.r_acc, lp.col_econst[0], tag))
        return insts

    def flux(self, faces=range(6), fetch_tag="flux:fetch", compute_tag="flux:compute", elements=None) -> list:
        """Fig. 9: buffer in part 3, compute per axis, return p corrections."""
        lv, lp = self.lay_v, self.lay_p
        riemann = self.flux_kind != "central"
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            pb = self.pblock(e)
            for face in faces:
                moves = self._face_transfers(e, face, fetch_tag)
                if not moves:
                    continue
                fr = moves[0].rows  # shared with the TRANSFERs
                _, axis = face_sign_axis(face)
                vb = self.vblock(e, axis)
                # 1. inter-element fetches into the buffer block (part 3),
                # 2. short intra-quad distribution to the axis block
                insts += moves[:5]
                # 3. axis block computes both corrections
                cmap = lv.face_row_map(fr, lv.row_flux0 + face)
                used = (0, 1, 2, 3) if riemann else (0, 2)
                for c in used:
                    insts.append(self._gather(vb, fr, self.r_c + c, c, cmap, compute_tag))
                insts.append(self._arith(
                    Opcode.SUB, vb, fr, self.r_dp, self.r_pcopy, self.r_nb_p, compute_tag))
                insts.append(self._arith(
                    Opcode.SUB, vb, fr, self.r_dv, lv.col_var["v"], self.r_nb_v, compute_tag))
                # velocity correction (kept local)
                insts.append(self._arith(
                    Opcode.MUL, vb, fr, self.r_t1, self.r_c + 2, self.r_dp, compute_tag))
                if riemann:
                    insts.append(self._arith(
                        Opcode.MUL, vb, fr, self.r_t2, self.r_c + 3, self.r_dv, compute_tag))
                    insts.append(self._arith(
                        Opcode.ADD, vb, fr, self.r_t1, self.r_t1, self.r_t2, compute_tag))
                cv = lv.col_contrib["v"]
                insts.append(self._arith(Opcode.ADD, vb, fr, cv, cv, self.r_t1, compute_tag))
                # pressure correction, then returned to the p block
                insts.append(self._arith(
                    Opcode.MUL, vb, fr, self.r_t1, self.r_c + 0, self.r_dv, compute_tag))
                if riemann:
                    insts.append(self._arith(
                        Opcode.MUL, vb, fr, self.r_t2, self.r_c + 1, self.r_dp, compute_tag))
                    insts.append(self._arith(
                        Opcode.ADD, vb, fr, self.r_t1, self.r_t1, self.r_t2, compute_tag))
                insts.append(moves[5])
                cp = lp.col_contrib["p"]
                insts.append(self._arith(Opcode.ADD, pb, fr, cp, cp, self.r_t1, compute_tag))
        return insts

    def _face_transfers(self, e, face, fetch_tag) -> list:
        """The neighbor's p and axis-v fetches into the buffer block, the
        three intra-quad copies to the axis block, then the return of the
        pressure correction to the p block."""
        nbr = self.neighbor(e, face)
        if nbr is None:
            return []
        lv, lp = self.lay_v, self.lay_p
        fr = self.face_rows(face)
        nfr = self.neighbor_face_rows(face)
        _, axis = face_sign_axis(face)
        pb, vb = self.pblock(e), self.vblock(e, axis)
        intra = f"{fetch_tag}:intra"
        return [
            self._transfer(pb, self.pblock(nbr), fr, nfr, self.r_nb_p, lp.col_var["p"], 1,
                           fetch_tag),
            self._transfer(pb, self.vblock(nbr, axis), fr, nfr, self.r_nb_v, lv.col_var["v"], 1,
                           fetch_tag),
            self._transfer(vb, pb, fr, fr, self.r_nb_p, self.r_nb_p, 1, intra),
            self._transfer(vb, pb, fr, fr, self.r_nb_v, self.r_nb_v, 1, intra),
            self._transfer(vb, pb, fr, fr, self.r_pcopy, lp.col_var["p"], 1, intra),
            self._transfer(pb, vb, fr, fr, self.r_t1, self.r_t1, 1, intra),
        ]

    def integration(self, stage: int, dt: float, tag: str = "integration", elements=None) -> list:
        a_s, b_s = float(self.rk.A[stage]), float(self.rk.B[stage])
        insts = []
        for e in (self.mapper.elements if elements is None else elements):
            for part in range(4):
                lay = self.lay_p if part == self.P_PART else self.lay_v
                v = "p" if part == self.P_PART else "v"
                b = self.mapper.block_of(e, part)
                rows = lay.compute_rows
                insts.append(self._bcast(b, rows, self.r_ic + 0, a_s, tag))
                insts.append(self._bcast(b, rows, self.r_ic + 1, float(dt), tag))
                insts.append(self._bcast(b, rows, self.r_ic + 2, b_s, tag))
                aux, contrib, var = lay.col_aux[v], lay.col_contrib[v], lay.col_var[v]
                insts.append(self._arith(Opcode.MUL, b, rows, aux, aux, self.r_ic + 0, tag))
                insts.append(self._arith(
                    Opcode.MUL, b, rows, self.r_tmp, contrib, self.r_ic + 1, tag))
                insts.append(self._arith(Opcode.ADD, b, rows, aux, aux, self.r_tmp, tag))
                insts.append(self._arith(Opcode.MUL, b, rows, self.r_tmp, aux, self.r_ic + 2, tag))
                insts.append(self._arith(Opcode.ADD, b, rows, var, var, self.r_tmp, tag))
        return insts
