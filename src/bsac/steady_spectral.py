"""Stationary states, generalized eigenproblems, and coercivity constants.

The stationary solver is damped Newton on the energy gradient with the exact
second variation as Jacobian; the line search halves the step until the dual
norm of the gradient decreases; it is the Robin time step's Newton at dt = inf.
The eigen solver handles both generalized pairs (bulk with boundary-weighted
mass, surface with shifted stiffness) and the second variation, and picks
its path from the pencil's structure and the request alone: one radial
pencil per Fourier mode for rotation-invariant disk pencils whose blocks
rise with the mode (reduced through one Cholesky factor of the mass block
they share, to a tridiagonal problem when the blocks allow it, and only the
modes and pairs that can hold a requested value), the same reduction with
the whole pencil as one block for near-full requests, shift-invert Lanczos
otherwise, on a Lanczos basis sized to the request, which inverts by CG on
the stepper's band solve for the stability tag and by the shifted pencil's
band solve for any other call, so no path factors a sparse LU. The solver
reports per-pair residuals, the mass Gram defect and the path it took; the
eigenfields are normalized and checked in blocks of rows, every entry of
them, by the compiled product on each row range, with no temporary as large
as the fields and no sliced submatrix.

The coercivity report evaluates the stability constant c_* nodewise at a
converged equilibrium and scans the two spectra for the first index m whose
weighted spectral gap theta_m = min(1, 1/K) * min(lambda_m, mu_m) clears
8 c_*.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, InputError, NumericalError
from .mesh import FieldPair, Mesh, matvec
from .nonlinearity import NonlinearitySpec
from .energy import compute_gradient, robin_residual
from .operators import (DiscreteOperator, RingBands, Variation,
                        assemble_surface_shifted_pair, assemble_wentzell_robin_pair)
from .dynamics import _RobinStepper


@dataclass
class EquilibriumState:
    state: FieldPair
    residual_dual_norm: float
    newton_iterations: int
    converged: bool
    stability_tag: float = np.nan   # smallest eigenvalue of the linearized operator
    factorizations: int = 0         # LU factors the Newton solve and the tag built
    krylov_iterations: int = 0      # CG iterations of its directions and the tag's solves
    stability_path: str = "none"    # EigenResult.path of the tag's eigensolve

    @property
    def is_stable(self) -> bool:
        return bool(np.isfinite(self.stability_tag) and self.stability_tag > 0)


@dataclass
class EigenResult:
    values: np.ndarray
    fields: np.ndarray          # columns are eigenfields
    residuals: np.ndarray       # ||S y - lam M y|| / ||y|| per pair
    gram_defect: float          # max deviation of the weighted Gram matrix from I
    path: str                   # "blocks", "arpack" or "dense"; see eigen_solve


@dataclass
class SpectralReport:
    lambda_values: np.ndarray
    lambda_fields: np.ndarray
    mu_values: np.ndarray
    mu_fields: np.ndarray
    c_star: float
    chosen_m: int               # 0 when the scan failed
    theta_m: float
    margin: float

    def succeeded(self) -> bool:
        return self.chosen_m > 0 and self.margin > 0


def _as_matrix(op) -> sp.csr_matrix:
    if isinstance(op, DiscreteOperator):
        return op.matrix
    if isinstance(op, np.ndarray) and op.ndim == 1:
        return sp.diags(op).tocsr()     # diagonal weights
    return sp.csr_matrix(op)


def _pencil_lower_bound(stiff: sp.csr_matrix, mass_diag: np.ndarray) -> float:
    # Gershgorin for the symmetrically scaled pencil: centers S_ii / m_i,
    # radii sum_j |S_ij| / sqrt(m_i m_j).
    inv_sqrt = 1.0 / np.sqrt(mass_diag)
    absrow = np.abs(stiff) @ inv_sqrt
    centers = stiff.diagonal() / mass_diag
    radii = absrow * inv_sqrt - np.abs(stiff.diagonal()) / mass_diag
    return float(np.min(centers - radii))


def _band_shift_inverse(stiff: sp.csr_matrix, mass: sp.csr_matrix, shift: float):
    """The exact band solve with stiff - shift * mass in the reverse Cuthill-McKee
    order of its pattern (George & Liu, 1981): width 3 for a joint interval pencil,
    not n as in its natural order, and about the period on the disk; NumericalError if singular."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee   # only ARPACK's callers pay
    shifted = (stiff - shift * mass).tocsr()
    rank = np.argsort(reverse_cuthill_mckee(shifted, symmetric_mode=True))
    solve = RingBands(shifted, rank, 1).factor(shifted.data)
    if solve is None:
        raise NumericalError(f"singular shifted factor at shift {shift:.6g}")
    return solve


# relative widening of the by-value cut: near the cut a dense eigh value and its
# block Rayleigh quotient differ by at most 5e-12 relative on the 128x256 disk
# for 1e-8 <= K <= 1, and eps * max|U^-1 A_m U^-T| stays below 3e-9 of the cut
_CUT_MARGIN = 1e-6


def _fourier_block_solve(stiff_blocks, mass_block: np.ndarray, period: int, count: int,
                         tridiagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Smallest `count` eigenpairs of a rotation-invariant pencil whose
    Fourier blocks rise with the mode (RingBands.rises), one radial pencil
    per Fourier mode.

    stiff_blocks yields each mode's dense stiffness block, mode 0 first, the
    unknowns numbered ring * period + angle; tridiagonal says that every
    one is. Modes 0 and period/2 give one field each, every other mode a
    cos and a sin field. The mass has entries at angular offset 0 only, so
    every mode has the same mass block M, mass_block. It is factored once,
    M = U U' with U upper triangular, and each radial pencil (A_m, M) is
    reduced to the standard problem U^-1 A_m U^-T (Parlett, The Symmetric
    Eigenvalue Problem, sec. 15). When M couples no rings but its last two,
    U^-1 is diagonal but for its entry (-2, -1), so a tridiagonal A_m stays
    tridiagonal: its three diagonals cost O(n), and MRRR solves it (LAPACK
    dstemr, Dhillon & Parlett, LAA 387, 2004). Every other pencil is reduced
    by triangular solves and solved dense (dsyevd, or dsyevr by value).
    Until `count` values are kept each mode gives all its pairs; after that
    only those at or below the count-th kept value, widened by a relative
    margin, since no larger one can be chosen. As the blocks rise, each
    eigenvalue of a block bounds those of every later block from below
    (Courant-Fischer), so the modes stop at the first one with no value at
    or below the cut. Pairs are ordered by (value, mode, cos before sin,
    index); the values are the block Rayleigh quotients. With period 1 the
    one block is the whole pencil, the mass and stiffness as dense arrays:
    eigen_solve's dense path.
    """
    u = scipy.linalg.cholesky(mass_block[::-1, ::-1], lower=True)[::-1, ::-1]
    if tridiagonal:
        # U^-1 = diag(g) + gamma e_{n-2} e_{n-1}' if M couples no rings but its last two
        coupled = np.triu(mass_block, 1)
        coupled[-2:, -1] = 0.0
        tridiagonal = not coupled.any()
        g = 1.0 / np.diag(u)
        gamma = -u[-2, -1] * g[-2] * g[-1] if len(g) > 1 else 0.0
    if not tridiagonal:
        u = np.ascontiguousarray(u)
    radial, keys, kept = [], [], []
    for mode, b_s in enumerate(stiff_blocks):
        kinds = (0,) if mode == 0 or 2 * mode == period else (0, 1)
        below = None
        if len(kept) >= count:
            cut = np.partition(kept, count - 1)[count - 1]
            below = (-np.inf, cut + _CUT_MARGIN * abs(cut))
        if tridiagonal:
            a, b = np.diag(b_s), np.diag(b_s, -1)
            d, e = a * g * g, b * g[:-1] * g[1:]
            if gamma:
                d[-2] += gamma * (2.0 * g[-2] * b[-1] + gamma * a[-1])
                e[-1] += gamma * g[-1] * a[-1]
            _, z = scipy.linalg.eigh_tridiagonal(d, e, select="a" if below is None else "v",
                                                 select_range=below, lapack_driver="stemr")
        else:
            # U^-1 (U^-1 A)' = U^-1 A U^-T for the symmetric A
            reduced = scipy.linalg.solve_triangular(u, scipy.linalg.solve_triangular(u, b_s).T)
            _, z = scipy.linalg.eigh(reduced, driver="evd" if below is None else "evr",
                                     overwrite_a=True, subset_by_value=below)
        if z.shape[1] == 0:
            break
        # index j of a cos/sin mode has 2j values of its own mode below it
        z = z[:, :count if len(kinds) == 1 else (count + 1) // 2]
        if tridiagonal:
            vecs = z * g[:, None]
            if gamma:
                vecs[-1] += gamma * z[-2]
        else:
            vecs = scipy.linalg.solve_triangular(u, z, trans="T", overwrite_b=True)
        values = (np.einsum("ij,ij->j", vecs, b_s @ vecs)
                  / np.einsum("ij,ij->j", vecs, mass_block @ vecs))
        radial.append(vecs)
        index = np.arange(vecs.shape[1])
        for kind in kinds:
            keys.append(np.stack([values, np.full_like(values, mode),
                                  np.full_like(values, kind), index]))
            kept.extend(values)
    keys = np.concatenate(keys, axis=1)
    chosen = np.lexsort(keys[::-1])[:count]
    _, mode, kind, index = keys[:, chosen].astype(int)
    turns = mode * np.arange(period)[:, None] % period
    # the cos factor exactly even under turns -> period - turns
    angular = np.where(kind == 0,
                       np.cos(2.0 * np.pi * np.minimum(turns, period - turns) / period),
                       np.sin(2.0 * np.pi * turns / period))
    radial = np.stack([radial[m][:, i] for m, i in zip(mode, index)], axis=1)
    # ring * period + angle, C order: one broadcast, no copy for the sparse products
    return keys[0, chosen], (radial[:, None, :] * angular).reshape(-1, count)


_LEAD_BLOCK = 1024      # rows of the fields that eigen_solve normalizes and checks at a time


def _lead_rows(vecs: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """The row of each column's first entry within a relative 1e-8 of its
    largest magnitude, so mirrored extremes tie whatever the roundoff; row
    0 where none is (a NaN column), as argmax finds. peaks holds each
    column's largest magnitude in each block of _LEAD_BLOCK rows, so only
    the first block that reaches a column's bound is scanned for it."""
    bound = (1.0 - 1e-8) * peaks.max(axis=0)
    first = np.argmax(peaks >= bound, axis=0)
    lead = np.empty(vecs.shape[1], dtype=np.intp)
    for block in np.unique(first):
        cols = np.flatnonzero(first == block)
        start = block * _LEAD_BLOCK
        hit = np.abs(vecs[start:start + _LEAD_BLOCK, cols]) >= bound[cols]
        lead[cols] = start + np.argmax(hit, axis=0)
    return lead


def eigen_solve(pair, count: int, *, period: int = 1, lower_bound: float | None = None,
                shift_inverse=None) -> EigenResult:
    """Smallest `count` eigenpairs of a symmetric pencil, mass-orthonormal.

    The path depends only on the pencil's structure and `count`, and is
    recorded in `EigenResult.path`:

    - "blocks": with `period > 1`, unknowns numbered ring * period + angle,
      both matrices exactly unchanged by the angular shift and the
      reflection (RingBands.invariant, one layout per matrix), and blocks
      that rise with the mode (RingBands.rises: the mass at angular offset 0
      only), as for the pairs the meshes assemble, the pencil splits
      into period/2 + 1 radial pencils, one per Fourier mode, each solved
      as a standard problem through the one Cholesky factor of the mass
      block they share: tridiagonal, by MRRR, when the stiffness couples
      only neighbouring rings and the mass no rings but its last two (the
      Wentzell-Robin and surface pairs), dense otherwise. Once `count`
      values are kept, a mode gives only the pairs at or below the count-th
      of them, and the modes above the requested part of the spectrum are
      not solved (_fourier_block_solve).
      Degenerate cos/sin pairs come out in a fixed order, so reruns are
      bitwise. Invariant pencils whose blocks need not rise take one of
      the other two paths.
    - "dense": otherwise, a request for all pairs but at most one is the
      same solve with the whole pencil as its one block (period 1, every
      unknown its own ring): a Cholesky-reduced standard `eigh` with
      Rayleigh-quotient values.
    - "arpack": otherwise, shift-invert Lanczos with the mass as weight. The
      shift sits just below `lower_bound`, a lower bound on the spectrum the
      caller knows; without one, below the Gershgorin bound of a diagonal
      mass, or at -1e-8 for a positive-definite stiffness. The Lanczos basis
      holds min(n, 2 count + 2) vectors (Lehoucq, Sorensen & Yang, ARPACK
      Users' Guide, 1998): 4 for the stability tag, not scipy's 20, so the
      tag pays its inner solves for the one pair it returns. The inner solve
      with stiffness - shift * mass is `shift_inverse(shift)` when the caller
      gives one: the stability tag of solve_stationary_newton passes CG on
      the stepper's band solve. Every other caller (bsac spectrum and the
      coercivity scan on the interval among them) gets the exact band solve
      of that matrix in reverse Cuthill-McKee order (_band_shift_inverse).

    Every path's fields are then scaled to unit mass norm, signed so that
    the first entry within 1e-8 of each field's largest magnitude is
    positive, and checked: residuals and the Gram defect are those of the
    returned fields, every entry of them, formed one block of _LEAD_BLOCK
    rows at a time; each block's products are mesh.matvec on that range of
    the matrices' rows, so no submatrix is sliced.

    NumericalError is raised for a pencil with a non-finite entry, before
    any solve; for a singular shifted band factor; for an ARPACK error; for
    a mass block whose Cholesky factor fails; for a field of nonpositive
    mass norm; and for residuals that are not below 1e-8. No path falls
    back to another.
    """
    stiff, mass = (_as_matrix(op) for op in pair)
    n = stiff.shape[0]
    if count < 1:
        raise ConfigurationError("count must be positive")
    if count > n:
        raise ConfigurationError(f"requested {count} eigenpairs of a {n}-pencil")
    if not (np.all(np.isfinite(stiff.data)) and np.all(np.isfinite(mass.data))):
        raise NumericalError("pencil has non-finite entries")

    path, tridiagonal = "arpack", False
    if period > 1 and n % period == 0:
        bands = [RingBands(mat, np.arange(n) // period, period) for mat in (stiff, mass)]
        if (all(layout.invariant(mat.data) for layout, mat in zip(bands, (stiff, mass)))
                and bands[0].rises(stiff.data, bands[1])):
            path = "blocks"
            blocks = bands[0].blocks(stiff.data), next(bands[1].blocks(mass.data))
            tridiagonal = bands[0].width <= 1
    if path == "arpack" and count >= n - 1:
        path, period = "dense", 1
        blocks = [stiff.toarray()], mass.toarray()
    if path == "arpack":
        mass_diag = mass.diagonal()
        if lower_bound is None and (mass.nnz == np.count_nonzero(mass_diag)
                                    and np.all(mass_diag > 0)):
            lower_bound = _pencil_lower_bound(stiff, mass_diag)
        # without a bound a positive-definite stiffness is expected; shift
        # slightly negative so the factorization never lands on an exact eigenvalue
        sigma = (-1e-8 if lower_bound is None
                 else lower_bound - 0.01 * (1.0 + abs(lower_bound)))
        # a Lanczos basis sized to the request, not scipy's max(2 count + 1, 20):
        # the shift sits below the spectrum and the inner solve is all but
        # exact, so the wanted pairs converge as soon, for fewer inner solves
        ncv = min(n, 2 * count + 2)
        # a fixed start vector makes reruns bitwise; ARPACK's own start is
        # random per process. Random rather than constant: a constant can be
        # an exact eigenvector of the pencil.
        v0 = np.random.default_rng(0).standard_normal(n)
        opinv = spla.LinearOperator((n, n), dtype=float, matvec=shift_inverse(sigma)
                                    if shift_inverse else _band_shift_inverse(stiff, mass, sigma))
    try:
        if path == "arpack":
            vals, vecs = spla.eigsh(stiff, k=count, M=mass, sigma=sigma,
                                    which="LM", tol=0, v0=v0, ncv=ncv, OPinv=opinv)
        else:
            vals, vecs = _fourier_block_solve(*blocks, period, count, tridiagonal)
    except (RuntimeError, ValueError) as exc:   # ArpackError, LinAlgError among them
        raise NumericalError(f"{path} eigensolve failed: {exc}") from exc

    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    if np.any(order != np.arange(count)) or not vecs.flags.c_contiguous:
        vecs = np.ascontiguousarray(vecs[:, order])

    # enforce the weighted normalization exactly, fix the sign convention and
    # check the fields in blocks of rows whose products stay in cache: one
    # sweep for the mass norms and each block's peak magnitudes, one for the
    # Gram matrix and the residuals of the returned fields
    row_blocks = [slice(start, start + _LEAD_BLOCK) for start in range(0, n, _LEAD_BLOCK)]
    norms = np.zeros(count)
    peaks = np.empty((len(row_blocks), count))
    for rows, peak in zip(row_blocks, peaks):
        block = vecs[rows]
        norms += np.einsum("ij,ij->j", block, matvec(mass, vecs, rows=rows))
        np.maximum(block.max(axis=0), -block.min(axis=0), out=peak)
    norms = np.sqrt(norms)
    if not np.all(norms > 0):
        raise NumericalError("eigenfield with nonpositive weighted norm", residuals=vals)
    vecs /= np.where(vecs[_lead_rows(vecs, peaks), np.arange(count)] < 0, -norms, norms)
    gram = np.zeros((count, count))
    squares = np.zeros((2, count))      # |S y - lam M y|^2 and |y|^2 per field
    for rows in row_blocks:
        block = vecs[rows]
        mass_vecs = matvec(mass, vecs, rows=rows)
        gram += block.T @ mass_vecs
        mass_vecs *= vals
        r = matvec(stiff, vecs, rows=rows)
        r -= mass_vecs
        squares += np.einsum("ij,ij->j", r, r), np.einsum("ij,ij->j", block, block)
    gram.flat[::count + 1] -= 1.0
    gram_defect = float(np.max(np.abs(gram, out=gram)))
    res = np.sqrt(squares[0] / squares[1])
    if not np.all(res < 1e-8):
        raise NumericalError(
            f"eigen residuals not converged (max {np.max(res):.3g})",
            residuals=res)
    return EigenResult(vals, vecs, res, gram_defect, path)


def solve_stationary_newton(mesh: Mesh, spec: NonlinearitySpec, K: float,
                            guess: FieldPair, tolerance: float, *,
                            max_iter: int = 50, max_halvings: int = 30,
                            compute_stability: bool = True) -> EquilibriumState:
    """Damped Newton for the stationary system; residual measured in V'.

    The Robin stepper's Newton at dt = inf (_Stepper.stationary): its
    Jacobian, and directions from the band solve of its angle average (by
    CG on the disk, the band solve itself on the interval). The
    line search halves the update until the dual norm of the gradient
    decreases. Hitting the iteration cap returns a non-converged state
    carrying the last residual instead of raising. The stability tag's
    shift-invert solves are the stepper's too (_Stepper.shift_inverse), and
    the state's solver counts include them.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    stepper = _RobinStepper(mesh, spec, K)
    y, variation, rho, iters, converged = stepper.stationary(
        stepper.unknowns(guess), tolerance, max_iter, max_halvings)
    state = stepper.state_of(y)
    tag, path = np.nan, "none"
    if converged and compute_stability:
        jacobian = stepper.jac_map.matrix(stepper.jacobian(variation, math.inf))
        lowest = eigen_solve((jacobian, stepper.joint_mass), 1,
                             lower_bound=variation.lower_bound(),
                             shift_inverse=functools.partial(stepper.shift_inverse, variation))
        tag, path = float(lowest.values[0]), lowest.path
    return EquilibriumState(state, float(rho), iters, converged, tag,
                            stepper.factorizations, stepper.krylov_iterations, path)


def pair_spectra(mesh: Mesh, K: float, count: int) -> tuple[EigenResult, EigenResult]:
    """The smallest eigenpairs of the Wentzell-Robin pair at K and of the
    surface pair, each solved at the mesh's angular period: count pairs, or
    as many as the pencil has if that is fewer."""
    return (eigen_solve(assemble_wentzell_robin_pair(mesh, K), min(count, mesh.n_bulk),
                        period=mesh.angular_period),
            eigen_solve(assemble_surface_shifted_pair(mesh), min(count, mesh.n_surface),
                        period=mesh.angular_period))


def strong_form_residuals(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair,
                          K: float) -> dict:
    """Nodewise stationary residuals: bulk equation, boundary balance law
    (one-sided normal derivative), surface equation."""
    g = compute_gradient(mesh, spec, state, K)
    return {
        "bulk": g.bulk / mesh.bulk_weights,
        "robin": robin_residual(mesh, spec, state, K),
        "surface": g.surface / mesh.surface_weights,
    }


def compute_coercivity_margin(mesh: Mesh, spec: NonlinearitySpec, K: float,
                              equilibrium: EquilibriumState,
                              max_m: int) -> SpectralReport:
    """Spectral gap scan at a converged equilibrium.

    c_* collects the nodewise suprema of the linearization coefficients; the
    scan looks for the first m with theta_m = min(1,1/K) min(lambda_m, mu_m)
    above 8 c_*. A failed scan reports chosen_m = 0 and a nonpositive margin.
    """
    if not equilibrium.converged:
        raise InputError("coercivity margin needs a converged equilibrium")
    if max_m < 1:
        raise ConfigurationError("max_m must be positive")
    variation = Variation(mesh, spec, equilibrium.state, K)
    fp, fgp, cross = variation.reactions
    sup_fp = float(np.max(np.abs(fp)))
    sup_hp2 = float(np.max(np.abs(variation.hp) ** 2))
    sup_fgp = float(np.max(np.abs(fgp)))
    sup_cross = float(np.max(np.abs(cross)))
    c_star = max(sup_fp, 0.5 + sup_hp2 / K + sup_fgp + sup_cross)

    wr, surf = pair_spectra(mesh, K, max_m)

    weight = min(1.0, 1.0 / K)
    chosen = 0
    limit = min(wr.values.size, surf.values.size)
    for m in range(1, limit + 1):
        theta_m = weight * min(wr.values[m - 1], surf.values[m - 1])
        if theta_m > 8.0 * c_star:
            chosen, theta = m, theta_m
            break
    if chosen == 0:
        theta = weight * min(wr.values[limit - 1], surf.values[limit - 1])
    return SpectralReport(wr.values, wr.fields, surf.values, surf.fields, c_star, chosen,
                          float(theta), float(theta - 8.0 * c_star))
