"""Sparse operator assembly on the finite-volume meshes.

Every operator is its form matrix: a symmetric sparse matrix S such that
x' S y approximates the continuous form (Dirichlet integral, boundary
penalty, linearized quadratic form, ...). The diagonal quadrature weights m
live only on the mesh (Mesh.bulk_weights, Mesh.surface_weights), and
S x / m is the strong (pointwise) action.

Storing the form keeps symmetry exact entrywise; the pointwise polar
Laplacian is only self-adjoint against the weighted inner product, so
symmetry must live at the form level. The same matrices feed the
generalized eigenproblems directly.

Joint operators act on the concatenation [bulk values, surface values].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs, dpttrf, dpttrs

from .errors import ConfigurationError, NumericalError
from .mesh import Mesh, matvec, per_mesh, trace_adjoint, trace_matrix
from .nonlinearity import NonlinearitySpec


@dataclass
class DiscreteOperator:
    """One symmetric form matrix of an eigen pair."""

    matrix: sp.csr_matrix


@dataclass
class DualVector:
    """Coefficient representation of a functional: pairing = plain dot product.

    Components are quadrature-weighted, so pairing with a direction needs no
    extra mass factors.
    """

    bulk: np.ndarray
    surface: np.ndarray

    def joint(self) -> np.ndarray:
        return np.concatenate([self.bulk, self.surface])


def _sym_from_faces(n: int, rows, cols, coefs) -> sp.csr_matrix:
    """Graph Laplacian of weighted faces: exact entrywise symmetry."""
    i = np.concatenate([rows, cols, rows, cols])
    j = np.concatenate([rows, cols, cols, rows])
    v = np.concatenate([coefs, coefs, -coefs, -coefs])
    return sp.coo_matrix((v, (i, j)), shape=(n, n)).tocsr()


def dirichlet_form_value(faces, x: np.ndarray) -> float:
    """Nonnegative evaluation of a face-table Dirichlet form at x."""
    i, j, w = faces
    d = x[i] - x[j]
    return float(w @ (d * d))


@per_mesh
def bulk_dirichlet_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Pure-diffusion Dirichlet form of the bulk Laplacian (no boundary terms)."""
    return _sym_from_faces(mesh.n_bulk, *mesh.bulk_faces)


@per_mesh
def surface_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Dirichlet form of the boundary Laplacian (zero in interval mode)."""
    return _sym_from_faces(mesh.n_surface, *mesh.surface_faces)


def _robin_trace_block(mesh: Mesh, K: float) -> sp.csr_matrix:
    """K^-1 Tr' D_s Tr on the bulk space."""
    tr = trace_matrix(mesh)
    return (tr.T @ sp.diags(mesh.surface_weights / K) @ tr).tocsr()


@per_mesh
def assemble_bulk_laplacian(mesh: Mesh, K: float) -> sp.csr_matrix:
    """Bulk diffusion form closed by the Robin boundary flux.

    The matrix is S_bulk + K^-1 Tr' D_s Tr. The coupling to the surface
    variable through h(phi) is not part of the matrix: callers add
    K^-1 Tr' D_s h(phi) as a source, which keeps this operator linear and
    symmetric for every coupling family.
    """
    if K <= 0:
        raise ConfigurationError("K must be positive")
    return (bulk_dirichlet_stiffness(mesh) + _robin_trace_block(mesh, K)).tocsr()


@per_mesh
def assemble_wentzell_robin_pair(mesh: Mesh, K: float):
    """Generalized pair for the eigenproblem with the eigenvalue in the flux.

    stiffness  = bulk Dirichlet form + K^-1 boundary trace mass,
    weighted mass = bulk quadrature mass + K^-1 boundary trace mass.

    The boundary term removes the constant kernel from the stiffness, so the
    smallest eigenvalue is strictly positive; the weighted mass is positive
    definite.
    """
    wmass = sp.diags(mesh.bulk_weights).tocsr() + _robin_trace_block(mesh, K)
    return (DiscreteOperator(assemble_bulk_laplacian(mesh, K)),
            DiscreteOperator(wmass.tocsr()))


@per_mesh
def assemble_surface_shifted_pair(mesh: Mesh):
    """Shifted boundary pair: stiffness = boundary Dirichlet form + boundary mass.

    In interval mode the boundary Laplacian vanishes and the pair degenerates
    to (mass, mass), whose spectrum is identically 1.
    """
    mass_mat = sp.diags(mesh.surface_weights).tocsr()
    stiff = surface_stiffness(mesh) + mass_mat
    return DiscreteOperator(stiff.tocsr()), DiscreteOperator(mass_mat)


def joint_mass(mesh: Mesh) -> np.ndarray:
    return np.concatenate([mesh.bulk_weights, mesh.surface_weights])


@per_mesh
def trace_lift(mesh: Mesh, alpha: float) -> sp.csr_matrix:
    """The lift [I; Tr/alpha] from bulk vectors to joint ones: the surface
    field a bulk field u fixes through the constraint alpha phi + eta = u|_G,
    up to the constant eta/alpha."""
    return sp.vstack([sp.identity(mesh.n_bulk), trace_matrix(mesh) / alpha], format="csr")


def _spread(lift: sp.csr_matrix, index: np.ndarray, *carried):
    """One copy of each entry per stored entry of row `index` of lift: the
    column and value of that lift entry, and the carried arrays repeated."""
    counts = np.diff(lift.indptr)[index]
    first = np.cumsum(counts) - counts
    slot = np.repeat(lift.indptr[index] - first, counts) + np.arange(counts.sum())
    return lift.indices[slot], lift.data[slot], [np.repeat(c, counts) for c in carried]


class RingBands:
    """Band solves with the angle average of matrices on one sparse pattern.

    Sorted by rings, the ring of each unknown of the pattern, the unknowns
    run ring by ring, each through its period angles. With more than one
    angle they must run so already (every disk layout does, bulk, surface
    and transmission), and a solve gathers nothing; another order raises
    ValueError. With one angle any order is sorted. The mean of the
    entries over the angle, per ring pair and angular offset, is the nearest
    matrix the angular shift leaves unchanged (Chan, SISSC 9, 1988). Its
    Fourier transform along the angle, a cosine sum over the pattern's
    offsets, splits it into one radial band block per mode (Swarztrauber,
    SIAM Rev. 19, 1977). With one angle there is one block, a band matrix
    for LAPACK's dgbtrf. With more than one each ring but the last may
    couple only to its neighbours, so that every block is a tridiagonal core
    and at most one border ring, the last, which the trace's 3/2, -1/2
    stencil couples two rings in (border: 1 if some entry reaches across two
    rings or more, else 0); another layout raises ValueError. The average is
    then factored through the stacked cores, by L D L' or, when they are
    indefinite, by pivoted L U, and one Schur complement per mode (factor).
    The solve is exact for a matrix the shift and the reflection leave
    unchanged, and a symmetric preconditioner for any other symmetric one;
    with one angle (exact) it is exact for every matrix. The same blocks,
    dense, are the radial pencils of the eigen path; invariant tells
    it whether a matrix is unchanged by the shift and the reflection, so
    that they are exact, and rises whether a pencil's blocks rise with the
    mode, so that its modes past the requested values need no solve.
    """

    def __init__(self, pattern: sp.spmatrix, rings: np.ndarray, period: int):
        n = pattern.shape[0]
        self.exact = period == 1
        self.order = np.argsort(rings, kind="stable")
        if period > 1 and not np.array_equal(self.order, np.arange(n)):
            raise ValueError(f"the unknowns of a {period}-angle layout must run ring by ring")
        self.place = np.argsort(self.order)     # the inverse permutation
        ring, angle = np.divmod(self.place, period)
        entries = pattern.tocoo()           # entries in the order of pattern.data
        row, col = ring[entries.row], ring[entries.col]
        angles = (angle[entries.col] - angle[entries.row]) % period
        present = np.bincount(angles, minlength=period) > 0
        # the distinct angular offsets, and the index of each entry's among them
        self.offsets = offsets = np.flatnonzero(present)
        offset = (np.cumsum(present) - 1)[angles]
        self.width = w = int(np.max(np.abs(row - col)))
        self.sizes = (n // period, period, 3 * w + 1)   # rings, angles, band rows
        # the outer ring of each entry that reaches across two rings or more
        far = np.maximum(row, col)[np.abs(row - col) > 1]
        self.border = int(far.size > 0)
        if period > 1 and np.any(far != n // period - 1):
            raise ValueError(f"a {period}-angle layout must couple its rings only to their "
                             f"neighbours, apart from the last")
        # mode m's mean over the angle, exactly even in the offset
        self.cosines = np.cos(2 * np.pi / period * np.outer(
            np.arange(period // 2 + 1), np.minimum(offsets, period - offsets))) / period
        # table[offset, column ring, band row]; per mode, LAPACK's band storage
        self.bins = (offset * (n // period) + col) * (3 * w + 1) + 2 * w + row - col

    def invariant(self, data: np.ndarray) -> bool:
        """Whether the matrix whose stored values are data is exactly
        unchanged by the angular shift j -> j+1 and the reflection j -> -j:
        every (offset, ring pair) bin holds period equal entries, absent
        ones counting as zeros, and offsets o and period - o agree."""
        period = self.sizes[1]
        size = self.offsets.size * self.sizes[0] * self.sizes[2]
        low = np.where(np.bincount(self.bins, minlength=size) == period, np.inf, 0.0)
        high = -low
        np.minimum.at(low, self.bins, data)
        np.maximum.at(high, self.bins, data)
        if not np.array_equal(low, high):
            return False
        index = np.full(period, -1)
        index[self.offsets] = np.arange(self.offsets.size)
        mirror = index[-self.offsets % period]
        table = low.reshape(self.offsets.size, -1)
        return np.array_equal(table, np.where(mirror[:, None] >= 0, table[mirror], 0.0))

    def rises(self, data: np.ndarray, mass: RingBands) -> bool:
        """Whether the Fourier blocks of the pencil (the matrix whose stored
        values are data, the matrix of mass's layout) rise with the mode: the
        mass has entries only at angular offset 0, and every entry of data
        off offset 0 sits at offset +-1 within one ring and is nonpositive.
        Then block k - block j = 2 A_1 (cos 2 pi k / period - cos 2 pi j /
        period) is positive semidefinite for j < k <= period / 2, A_1 the
        diagonal of the offset-1 entries, over one mass block shared by
        every mode."""
        n_rings, period, rows = self.sizes
        offset, band_row = np.divmod(self.bins, n_rings * rows)
        angle = self.offsets[offset]
        off = angle != 0
        same_ring = band_row % rows == 2 * self.width
        return bool(np.array_equal(mass.offsets, [0]) and np.all(
            same_ring[off] & (data[off] <= 0) & np.isin(angle[off], (1, period - 1))))

    def _band(self, data: np.ndarray) -> np.ndarray:
        """The mode blocks of the angle average of the matrix whose stored
        values are data, stacked in LAPACK's band storage."""
        n_rings, _, rows = self.sizes
        table = np.bincount(self.bins, data, self.cosines.shape[1] * n_rings * rows)
        return (self.cosines @ table.reshape(self.cosines.shape[1], -1)).reshape(-1, rows).T

    def blocks(self, data: np.ndarray):
        """The dense radial block of each Fourier mode of the same average,
        mode 0 first, one at a time."""
        n_rings, w = self.sizes[0], self.width
        band = self._band(data)[w:].reshape(2 * w + 1, -1, n_rings)  # [row - col, mode, col]
        row = np.arange(n_rings) + np.arange(-w, w + 1)[:, None]
        inside = (row >= 0) & (row < n_rings)
        rows, cols = row[inside], np.nonzero(inside)[1]
        for mode in range(band.shape[1]):
            block = np.zeros((n_rings, n_rings))
            block[rows, cols] = band[:, mode][inside]
            yield block

    def factor(self, data: np.ndarray):
        """The solve with the angle average of the matrix whose stored values
        are data, or None when that average is singular.

        With one angle the solve is dgbtrf's LU of the band. With more than
        one the matrix must be symmetric, as every caller's is, and the factor
        reads the lower triangle of each mode's block only. The cores of the
        modes, stacked mode after mode, are one tridiagonal matrix T: dpttrf
        factors it as L D L' when its pivots are positive, and otherwise (a
        Newton step past the convexity bound, dt c4 > 1) the pivoted dgttrf
        as L U; None if U is singular. The border ring, whose row left of
        the diagonal reaches the last width core rings, is eliminated by one
        scalar Schur complement per mode, s = g - b' T^-1 b, of either sign;
        None if some s is zero. A solve writes the rfft of the right-hand
        side's core rings, its real and imaginary parts as the two columns
        and the modes one after the other, into one Fortran-ordered buffer
        that the core's solve overwrites, z = T^-1 c; then the border's
        y = (g_hat - b' z) / s and z -= T^-1 b y, and the solution's modes
        into one complex array for irfft. The buffers are the solve's own,
        so one solve must end before the next starts: it is not reentrant."""
        (n_rings, period, rows), w = self.sizes, self.width
        band = self._band(data)
        if period == 1:
            lu, pivots, info = dgbtrf(band, w, w, overwrite_ab=1)
            if info > 0:
                return None

            def solve(r: np.ndarray) -> np.ndarray:
                x, _ = dgbtrs(lu, w, w, r[self.order].reshape(n_rings, 1), pivots)
                return x.ravel()[self.place]
            return solve
        n_modes, n_core = period // 2 + 1, n_rings - self.border
        blocks = band.reshape(rows, n_modes, n_rings)     # [band row, mode, ring]
        diagonal = blocks[2 * w, :, :n_core].ravel()
        # the core's sub-diagonal; none between modes, nor on one ring
        below = blocks[2 * w + 1, :, :n_core].copy() if w else np.zeros((n_modes, n_core))
        below[:, -1] = 0.0
        below = below.ravel()[:-1]
        d, e, info = dpttrf(diagonal, below)
        if info == 0:
            def core(b: np.ndarray) -> np.ndarray:
                return dpttrs(d, e, b, overwrite_b=1)[0]
        else:
            *lu, info = dgttrf(below, diagonal, below)
            if info > 0:
                return None

            def core(b: np.ndarray) -> np.ndarray:
                return dgttrs(*lu, b, overwrite_b=1)[0]
        if self.border:
            # the border's row left of the diagonal: [mode, last w core rings]
            edge = blocks[np.arange(3 * w, 2 * w, -1), :, np.arange(n_core - w, n_core)].T
            column = np.zeros((n_modes, n_core))
            column[:, -w:] = edge
            v = core(column.reshape(-1, 1)).reshape(n_modes, n_core)
            schur = blocks[2 * w, :, n_core] - (edge * v[:, -w:]).sum(axis=1)
            if np.any(schur == 0):
                return None
        parts = np.empty((2, n_modes, n_core))     # [part, mode, ring]; (n_cols, 2) in F order
        modes = np.empty((n_rings, n_modes), dtype=complex)

        def solve(r: np.ndarray) -> np.ndarray:
            spectrum = np.fft.rfft(r.reshape(n_rings, period))
            parts[0] = spectrum.real[:n_core].T
            parts[1] = spectrum.imag[:n_core].T
            z = core(parts.reshape(2, -1).T).T.reshape(2, n_modes, n_core)
            if self.border:
                top = spectrum[n_core]
                y = (np.stack([top.real, top.imag]) - (edge * z[:, :, -w:]).sum(axis=2)) / schur
                z -= v * y[:, :, None]
                modes.real[n_core] = y[0]
                modes.imag[n_core] = y[1]
            modes.real[:n_core] = z[0].T
            modes.imag[:n_core] = z[1].T
            return np.fft.irfft(modes, period).ravel()
        return solve


@dataclass(frozen=True)
class JacobianMap:
    """The joint form P' (B + diag(d) + C(c) + diag(m)) P on one fixed CSC pattern.

    B is the joint base [S_bulk + K^-1 Tr' D_s Tr, S_surf] of one K, C(c)
    the trace coupling block Tr' diag(c) between bulk rows and surface
    columns, mirrored, and P the identity or a trace lift. The values are
    base + coef @ [d; c], then + coef @ [m; 0] (mass_values, which a caller
    with one mass for many Jacobians computes once): with P the identity
    each entry takes at most one term from each, so a diagonal entry is
    (B_ii + d_i) + m_i, the order the sums of separate sparse matrices round
    in. values writes the values alone; matrix wraps them on the pattern,
    sharing indptr and indices with every other matrix of the map.
    """

    indptr: np.ndarray
    indices: np.ndarray
    base: np.ndarray
    coef: sp.csr_matrix         # (nnz, n_joint + n_surface)

    def pattern(self) -> sp.csc_matrix:
        return self.matrix(self.base)

    def values(self, diagonal: np.ndarray, coupling: np.ndarray,
               mass_values: np.ndarray | None = None) -> np.ndarray:
        data = self.base + matvec(self.coef, np.concatenate([diagonal, coupling]))
        if mass_values is not None:
            data += mass_values
        return data

    def mass_values(self, mass: np.ndarray) -> np.ndarray:
        """coef @ [mass; 0], the values diag(mass) adds on the pattern."""
        return matvec(self.coef, np.concatenate([mass, np.zeros(self.coef.shape[1] - mass.size)]))

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        n = self.indptr.size - 1
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))


@per_mesh
def jacobian_map(mesh: Mesh, K: float, alpha: float | None) -> JacobianMap:
    """The JacobianMap of K, pulled back through trace_lift(mesh, alpha)
    unless alpha is None."""
    n_b, n = mesh.n_bulk, mesh.n_bulk + mesh.n_surface
    tr = trace_matrix(mesh).tocoo()
    # (row, column, input, coefficient) of diag(d) and C(c) on the joint space
    k = np.arange(n)
    rows = np.concatenate([k, tr.col, n_b + tr.row])
    cols = np.concatenate([k, n_b + tr.row, tr.col])
    inputs = np.concatenate([k, n + tr.row, n + tr.row])
    coefs = np.concatenate([np.ones(n), tr.data, tr.data])
    base = sp.block_diag([assemble_bulk_laplacian(mesh, K), surface_stiffness(mesh)],
                         format="csr")
    if alpha is not None:
        lift = trace_lift(mesh, alpha)
        base = lift.T @ base @ lift
        rows, row_w, (cols, inputs, coefs) = _spread(lift, rows, cols, inputs, coefs)
        cols, col_w, (rows, inputs, coefs, row_w) = _spread(lift, cols, rows, inputs,
                                                             coefs, row_w)
        coefs = coefs * row_w * col_w
    base = base.tocoo()
    size = base.shape[0]

    def key(row, col):
        # column-major, in the order CSC stores the entries
        return col.astype(np.int64) * size + row

    base_keys = key(base.row, base.col)
    keys = np.sort(np.concatenate([base_keys, key(rows, cols)]))
    keys = keys[np.diff(keys, prepend=-1) > 0]     # np.unique, without its hash table
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // size, minlength=size))])
    values = np.zeros(keys.size)
    values[np.searchsorted(keys, base_keys)] = base.data
    coef = sp.csr_matrix((coefs, (np.searchsorted(keys, key(rows, cols)), inputs)),
                         shape=(keys.size, n + mesh.n_surface))
    return JacobianMap(indptr.astype(np.int32), (keys % size).astype(np.int32), values, coef)


class Variation:
    """The first variation of the energy at one state, and the pointwise
    coefficients of its second: one pass over the state, in which every
    pointwise term is evaluated once.

    Built, it holds the gradient (energy.compute_gradient), and the f(u),
    f_G(phi), h(phi), h'(phi) and Tr u it comes from, which the energy
    report and the semi-implicit step read too. The reaction terms f'(u), f_G'(phi)
    and the cross term h''(phi) (h(phi) - Tr u) / K are evaluated on the
    first read of reactions, and the coefficients of assemble_linearized on
    the first read of coefficients, reusing h, h' and Tr u: a state whose
    Jacobian is never built (a rejected trial point, a semi-implicit step)
    pays only for its gradient.
    """

    def __init__(self, mesh: Mesh, spec: NonlinearitySpec, state, K: float):
        self.mesh, self.spec, self.K = mesh, spec, K
        self.u = u = mesh.check_bulk(state.bulk)
        self.phi = phi = mesh.check_surface(state.surface)
        self.tr_u = matvec(trace_matrix(mesh), u)
        self.h = spec.eval("h", phi)
        self.hp = spec.eval("h'", phi)
        self.f = spec.eval("f", u)
        self.f_G = spec.eval("f_G", phi)
        weighted_mismatch = mesh.surface_weights * (self.tr_u - self.h) / K
        g_bulk = (matvec(bulk_dirichlet_stiffness(mesh), u)
                  + mesh.bulk_weights * self.f
                  + matvec(trace_adjoint(mesh), weighted_mismatch))
        g_surf = (matvec(surface_stiffness(mesh), phi)
                  + mesh.surface_weights * self.f_G
                  - self.hp * weighted_mismatch)
        self.gradient = DualVector(g_bulk, g_surf)

    @functools.cached_property
    def reactions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f'(u), f_G'(phi) and the cross term h''(phi) (h(phi) - Tr u) / K."""
        spec = self.spec
        cross = spec.eval("h''", self.phi) * (self.h - self.tr_u) / self.K
        return spec.eval("f'", self.u), spec.eval("f_G'", self.phi), cross

    @functools.cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The reaction diagonal and the trace coupling vector of the second
        variation; see assemble_linearized."""
        fp, fgp, cross = self.reactions
        s_w, hp, K = self.mesh.surface_weights, self.hp, self.K
        surf_react = s_w * fgp + s_w * hp * hp / K + s_w * cross
        return np.concatenate([self.mesh.bulk_weights * fp, surf_react]), -s_w * hp / K

    def lower_bound(self) -> float:
        """A lower bound on the spectrum of (assemble_linearized, joint_mass).

        The second variation is a positive semidefinite part (both Dirichlet
        forms and K^-1 |Tr w - h'(phi) xi|^2 weighted by D_s) plus the reaction
        diagonals M f'(u) and D_s (f_G'(phi) + K^-1 h''(phi) (h(phi) - u|_G)).
        Against the diagonal joint mass its Rayleigh quotient is at least the
        smallest of their nodal ratios.
        """
        fp, fgp, cross = self.reactions
        return float(min(np.min(fp), np.min(fgp + cross)))


def assemble_linearized(mesh: Mesh, spec: NonlinearitySpec, state, K: float) -> sp.csc_matrix:
    """Second variation of the energy at the given state, on the joint space.

    Block structure (form level, all weighted by quadrature):

        [ S_bulk + M diag(f'(u)) + K^-1 Tr' D_s Tr   |  -K^-1 Tr' D_s diag(h'(phi)) ]
        [ (transpose)                                |  S_surf + D_s diag(f_G'(phi))
                                                        + K^-1 D_s diag(h'(phi)^2)
                                                        + K^-1 D_s diag(h''(phi) (h(phi) - u|_G)) ]

    This is the exact Jacobian of the energy gradient, including the
    second-derivative coupling term that appears for nonaffine h.
    """
    jac = jacobian_map(mesh, K, None)     # raises ConfigurationError for K <= 0
    return jac.matrix(jac.values(*Variation(mesh, spec, state, K).coefficients))


def h1_solves(mesh: Mesh, scale: float = 1.0) -> list:
    """Band solves with scale * S + M on the bulk and on the surface, S the
    Dirichlet form and M the quadrature mass; exact, as the angular shift and
    reflection leave both matrices unchanged; a singular one raises NumericalError."""
    blocks = ((bulk_dirichlet_stiffness(mesh), mesh.bulk_weights, mesh.rings[:mesh.n_bulk]),
              (surface_stiffness(mesh), mesh.surface_weights, mesh.rings[mesh.n_bulk:]))
    matrices = [((s * scale + sp.diags(w)).tocsr(), rings) for s, w, rings in blocks]
    solves = [RingBands(m, rings, mesh.angular_period).factor(m.data) for m, rings in matrices]
    if None in solves:
        raise NumericalError(f"singular H1 band factor at scale {scale!r}")
    return solves


class RieszMap:
    """Identifies functionals with fields through the block H1 inner product.

    The inner product is (grad u, grad w) + (u, w) on the bulk plus the same
    on the surface, block diagonal with unit weights. The solves of both
    blocks are kept for many dual-norm evaluations.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._bulk_solve, self._surf_solve = h1_solves(mesh)

    def dual_norm(self, functional: DualVector) -> float:
        rb = self._bulk_solve(self.mesh.check_bulk(functional.bulk))
        rs = self._surf_solve(self.mesh.check_surface(functional.surface))
        val = functional.bulk @ rb + functional.surface @ rs
        if not np.isfinite(val):
            raise NumericalError("Riesz solve produced non-finite pairing",
                                 residuals={"pairing": val})
        return float(np.sqrt(max(val, 0.0)))
