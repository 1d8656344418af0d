"""Stationary states, generalized eigenproblems, and coercivity constants.

The stationary solver is damped Newton on the energy gradient with the exact
second variation as Jacobian; the line search halves the step until the dual
norm of the gradient decreases; it is the Robin time step's Newton at dt = inf.
The eigen solver handles both generalized pairs (bulk with boundary-weighted
mass, surface with shifted stiffness) and the second variation, and picks
its path from the pencil's structure and the request alone: one radial
pencil per Fourier mode for rotation-invariant disk pencils whose blocks
rise with the mode (reduced through one Cholesky factor of the mass block
they share, and only the modes and pairs that can hold a requested value),
the same reduction with the whole pencil as one block for near-full
requests, shift-invert Lanczos otherwise. The stability tag's
shift-invert solves are CG on the stepper's band solve, so it factors
nothing. The solver reports per-pair residuals, the mass Gram defect and the
path it took; the eigenfields are normalized and checked as whole arrays, not
column by column.

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
from .mesh import Mesh, boundary_trace, normal_derivative
from .nonlinearity import NonlinearitySpec
from .energy import FieldPair, compute_gradient
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
    K: float

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


# relative widening of the by-value cut: near the cut a dense eigh value and its
# block Rayleigh quotient differ by at most 5e-12 relative on the 128x256 disk
# for 1e-8 <= K <= 1, and eps * max|W A_m W'| stays below 3e-9 of the cut
_CUT_MARGIN = 1e-6


def _fourier_block_solve(stiff: sp.csr_matrix, mass: sp.csr_matrix,
                         layouts: list[RingBands], period: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest `count` eigenpairs of a rotation-invariant pencil whose
    Fourier blocks rise with the mode (RingBands.rises), one dense radial
    pencil per Fourier mode.

    The blocks are the Fourier blocks of the pencil's RingBands layouts, the
    unknowns numbered ring * period + angle. Modes 0 and period/2 give one
    field each, every other mode a cos and a sin field. The mass has
    entries at angular offset 0 only, so every mode has the same mass block
    M. It is factored once, M = L L', and each radial pencil (A_m, M) is
    reduced to the standard problem W A_m W', W = L^-1 (Parlett, The
    Symmetric Eigenvalue Problem, sec. 15). Until `count` values are kept
    each mode gives all its pairs (LAPACK dsyevd); after that only those at
    or below the count-th kept value, widened by a relative margin, since no
    larger one can be chosen (dsyevr, Dhillon & Parlett, LAA 387, 2004). As
    the blocks rise, each eigenvalue of a block bounds those of every later
    block from below (Courant-Fischer), so the modes stop at the first one
    with no value at or below the cut. Pairs are ordered by (value, mode,
    cos before sin, index); the values are the block Rayleigh quotients.
    With period 1 and every unknown its own ring, the one block is the whole
    pencil: eigen_solve's dense path.
    """
    stiff_bands, mass_bands = layouts
    b_m = next(mass_bands.blocks(mass.data))
    w = scipy.linalg.solve_triangular(scipy.linalg.cholesky(b_m, lower=True),
                                      np.eye(len(b_m)), lower=True)
    radial, keys, kept = [], [], []
    for mode, b_s in enumerate(stiff_bands.blocks(stiff.data)):
        reduced = w @ b_s @ w.T
        kinds = (0,) if mode == 0 or 2 * mode == period else (0, 1)
        if len(kept) < count:
            _, vecs = scipy.linalg.eigh(reduced, driver="evd")
        else:
            cut = np.partition(kept, count - 1)[count - 1]
            _, vecs = scipy.linalg.eigh(reduced, driver="evr", subset_by_value=(
                -np.inf, cut + _CUT_MARGIN * abs(cut)))
            if vecs.shape[1] == 0:
                break
        # index j of a cos/sin mode has 2j values of its own mode below it
        vecs = w.T @ vecs[:, :count if len(kinds) == 1 else (count + 1) // 2]
        values = (np.einsum("ij,ij->j", vecs, b_s @ vecs)
                  / np.einsum("ij,ij->j", vecs, b_m @ vecs))
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
      dense as a standard problem through the one Cholesky factor of the
      mass block they share. Once `count` values are kept, a mode gives only
      the pairs at or below the count-th of them, and the modes above the
      requested part of the spectrum are not solved (_fourier_block_solve).
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
      mass, or at -1e-8 for a positive-definite stiffness. The inner solve
      with stiffness - shift * mass is `shift_inverse(shift)` when the caller
      gives one: the stability tag of solve_stationary_newton passes CG on
      the stepper's band solve, which factors nothing. Every other caller,
      bsac spectrum and the coercivity scan on pencils without the symmetry
      (the interval) among them, gets scipy's sparse LU of that matrix.

    NumericalError is raised for a pencil with a non-finite entry, before
    any solve; for an ARPACK error; for a mass block whose Cholesky factor
    fails; and for residuals that are not below 1e-8. No path falls back to
    another.
    """
    stiff, mass = (_as_matrix(op) for op in pair)
    n = stiff.shape[0]
    if count < 1:
        raise ConfigurationError("count must be positive")
    if count > n:
        raise ConfigurationError(f"requested {count} eigenpairs of a {n}-pencil")
    if not (np.all(np.isfinite(stiff.data)) and np.all(np.isfinite(mass.data))):
        raise NumericalError("pencil has non-finite entries")

    path, rings = "arpack", np.arange(n)
    if period > 1 and n % period == 0:
        bands = [RingBands(mat, rings // period, period) for mat in (stiff, mass)]
        if (all(layout.invariant(mat.data) for layout, mat in zip(bands, (stiff, mass)))
                and bands[0].rises(stiff.data, bands[1])):
            path = "blocks"
    if path == "arpack" and count >= n - 1:
        path, period = "dense", 1
        bands = [RingBands(mat, rings, 1) for mat in (stiff, mass)]
    if path == "arpack":
        mass_diag = mass.diagonal()
        if lower_bound is None and (mass.nnz == np.count_nonzero(mass_diag)
                                    and np.all(mass_diag > 0)):
            lower_bound = _pencil_lower_bound(stiff, mass_diag)
        # without a bound a positive-definite stiffness is expected; shift
        # slightly negative so the factorization never lands on an exact eigenvalue
        sigma = (-1e-8 if lower_bound is None
                 else lower_bound - 0.01 * (1.0 + abs(lower_bound)))
        # a fixed start vector makes reruns bitwise; ARPACK's own start is
        # random per process. Random rather than constant: a constant can be
        # an exact eigenvector of the pencil.
        v0 = np.random.default_rng(0).standard_normal(n)
        opinv = None if shift_inverse is None else spla.LinearOperator(
            (n, n), matvec=shift_inverse(sigma), dtype=float)
    try:
        if path == "arpack":
            vals, vecs = spla.eigsh(stiff, k=count, M=mass, sigma=sigma,
                                    which="LM", tol=0, v0=v0, OPinv=opinv)
        else:
            vals, vecs = _fourier_block_solve(stiff, mass, bands, period, count)
    except (RuntimeError, ValueError) as exc:   # ArpackError, LinAlgError among them
        raise NumericalError(f"{path} eigensolve failed: {exc}") from exc

    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    if np.any(order != np.arange(count)) or not vecs.flags.c_contiguous:
        vecs = np.ascontiguousarray(vecs[:, order])

    # enforce the weighted normalization exactly and fix the sign convention;
    # the mass products are scaled along, and at most two more field arrays live
    mass_vecs = mass @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, mass_vecs))
    if not np.all(norms > 0):
        raise NumericalError("eigenfield with nonpositive weighted norm", residuals=vals)
    vecs /= norms
    size = np.abs(vecs)
    # the first largest entry, as np.argmax(size, axis=0) finds it, without its copy
    lead = np.argmax(size == np.max(size, axis=0), axis=0)
    del size
    scale = np.where(vecs[lead, np.arange(count)] < 0, -1.0, 1.0)
    vecs *= scale
    mass_vecs *= scale / norms
    gram = vecs.T @ mass_vecs
    gram_defect = float(np.max(np.abs(gram - np.eye(count))))
    mass_vecs *= vals
    r = stiff @ vecs
    r -= mass_vecs
    res = np.sqrt(np.einsum("ij,ij->j", r, r) / np.einsum("ij,ij->j", vecs, vecs))
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


def strong_form_residuals(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair,
                          K: float) -> dict:
    """Nodewise stationary residuals: bulk equation, boundary balance law
    (one-sided normal derivative), surface equation."""
    g = compute_gradient(mesh, spec, state, K)
    robin = (K * normal_derivative(mesh, state.bulk) + boundary_trace(mesh, state.bulk)
             - spec.eval("h", state.surface))
    return {
        "bulk": g.bulk / mesh.bulk_weights,
        "robin": robin,
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

    k_bulk = min(max_m, mesh.n_bulk)
    k_surf = min(max_m, mesh.n_surface)
    wr = eigen_solve(assemble_wentzell_robin_pair(mesh, K), k_bulk,
                     period=mesh.angular_period)
    surf = eigen_solve(assemble_surface_shifted_pair(mesh), k_surf,
                       period=mesh.angular_period)

    weight = min(1.0, 1.0 / K)
    chosen = 0
    theta = np.nan
    limit = min(k_bulk, k_surf)
    for m in range(1, limit + 1):
        theta_m = weight * min(wr.values[m - 1], surf.values[m - 1])
        if theta_m > 8.0 * c_star:
            chosen, theta = m, theta_m
            break
    if chosen == 0:
        theta = weight * min(wr.values[limit - 1], surf.values[limit - 1])
    return SpectralReport(wr.values, wr.fields, surf.values, surf.fields,
                          c_star, chosen, float(theta),
                          float(theta - 8.0 * c_star), K)
