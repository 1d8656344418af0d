"""Stationary states, generalized eigenproblems, and coercivity constants.

The stationary solver is damped Newton on the energy gradient with the exact
second variation as Jacobian; the line search halves the step until the dual
norm of the gradient decreases; it is the Robin time step's Newton at dt = inf.
The eigen solver handles both generalized pairs (bulk with boundary-weighted
mass, surface with shifted stiffness) and the second variation: dense for
small pencils, one radial pencil per Fourier mode for rotation-invariant disk
pencils, shift-invert Lanczos otherwise. It reports per-pair residuals, the
mass Gram defect and the path it took.

The coercivity report evaluates the stability constant c_* nodewise at a
converged equilibrium and scans the two spectra for the first index m whose
weighted spectral gap theta_m = min(1, 1/K) * min(lambda_m, mu_m) clears
8 c_*.
"""

from __future__ import annotations

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
from .operators import (DiscreteOperator, assemble_surface_shifted_pair,
                        assemble_wentzell_robin_pair, linearized_lower_bound)
from .dynamics import _RobinStepper


@dataclass
class EquilibriumState:
    state: FieldPair
    residual_dual_norm: float
    newton_iterations: int
    converged: bool
    stability_tag: float = np.nan   # smallest eigenvalue of the linearized operator
    factorizations: int = 0         # LU factors the Newton solve built
    krylov_iterations: int = 0      # CG iterations of its directions
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

    def serialize(self) -> str:
        lines = [
            "spectral report",
            f"K = {self.K!r}",
            f"c_star = {self.c_star!r}",
            f"chosen_m = {self.chosen_m}",
            f"theta_m = {self.theta_m!r}",
            f"margin = {self.margin!r}",
            f"scan = {'ok' if self.succeeded() else 'failed'}",
            "bulk spectrum:",
        ]
        lines += [f"  lambda[{i + 1}] = {v!r}"
                  for i, v in enumerate(self.lambda_values)]
        lines.append("surface spectrum:")
        lines += [f"  mu[{j + 1}] = {v!r}" for j, v in enumerate(self.mu_values)]
        return "\n".join(lines) + "\n"


def _as_matrix(op) -> sp.csr_matrix:
    if isinstance(op, DiscreteOperator):
        return op.matrix
    return sp.csr_matrix(op)


def _pencil_lower_bound(stiff: sp.csr_matrix, mass_diag: np.ndarray) -> float:
    # Gershgorin for the symmetrically scaled pencil: centers S_ii / m_i,
    # radii sum_j |S_ij| / sqrt(m_i m_j).
    inv_sqrt = 1.0 / np.sqrt(mass_diag)
    absrow = np.abs(stiff) @ inv_sqrt
    centers = stiff.diagonal() / mass_diag
    radii = absrow * inv_sqrt - np.abs(stiff.diagonal()) / mass_diag
    return float(np.min(centers - radii))


def _rotation_invariant(mat: sp.csr_matrix, period: int) -> bool:
    """Whether mat, on unknowns numbered ring * period + angle, is exactly
    unchanged by the angular shift j -> j+1 and the reflection j -> -j."""
    ring, angle = np.divmod(np.arange(mat.shape[0]), period)
    for perm in (ring * period + (angle + 1) % period, ring * period + (-angle) % period):
        if (mat[perm][:, perm] != mat).nnz:
            return False
    return True


def _fourier_block_solve(stiff: sp.csr_matrix, mass: sp.csr_matrix, period: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest `count` eigenpairs of a rotation-invariant pencil, one dense
    radial pencil per Fourier mode.

    The block of mode k is read off the rows at angle 0: entry (i, l) sums the
    row-i entries of ring l weighted by cos(2 pi k d / period), d the angular
    offset. Modes 0 and period/2 give one field each, every other mode a cos
    and a sin field. Pairs are ordered by (value, mode, cos before sin, index);
    the values are the block Rayleigh quotients, which meet the residual gate
    where the generalized eigh values lose digits.
    """
    n_rings = stiff.shape[0] // period
    q = np.arange(period)
    # exact under q -> period - q, so every block is exactly symmetric
    cos_q = np.cos(2.0 * np.pi * np.minimum(q, period - q) / period)
    sin_q = np.sin(2.0 * np.pi * q / period)
    entries = []
    for mat in (stiff, mass):
        rows = mat[np.arange(n_rings) * period].tocoo()
        ring, offset = np.divmod(rows.col, period)
        entries.append((rows.row * n_rings + ring, offset, rows.data))

    def block(mode, flat, offset, data):
        return np.bincount(flat, weights=data * cos_q[(mode * offset) % period],
                           minlength=n_rings * n_rings).reshape(n_rings, n_rings)

    radial, keys = [], []
    for mode in range(period // 2 + 1):
        b_s, b_m = (block(mode, *e) for e in entries)
        _, vecs = scipy.linalg.eigh(b_s, b_m, driver="gvd")
        kinds = (0,) if mode == 0 or 2 * mode == period else (0, 1)
        # index j of a cos/sin mode has 2j values of its own mode below it
        vecs = vecs[:, :count if len(kinds) == 1 else (count + 1) // 2]
        values = (np.einsum("ij,ij->j", vecs, b_s @ vecs)
                  / np.einsum("ij,ij->j", vecs, b_m @ vecs))
        radial.append(vecs)
        index = np.arange(vecs.shape[1])
        for kind in kinds:
            keys.append(np.stack([values, np.full_like(values, mode),
                                  np.full_like(values, kind), index]))
    keys = np.concatenate(keys, axis=1)
    chosen = np.lexsort(keys[::-1])[:count]
    fields = np.empty((stiff.shape[0], count))
    for col, (_, mode, kind, index) in enumerate(keys[:, chosen].T):
        mode, index = int(mode), int(index)
        angular = (cos_q if kind == 0 else sin_q)[(mode * q) % period]
        fields[:, col] = np.outer(radial[mode][:, index], angular).ravel()
    return keys[0, chosen], fields


def eigen_solve(pair, count: int, *, period: int = 1,
                lower_bound: float | None = None) -> EigenResult:
    """Smallest `count` eigenpairs of a symmetric pencil, mass-orthonormal.

    Three paths, recorded in `EigenResult.path`:

    - "dense": pencils under 400 unknowns, or near-full requests, go through
      one dense `eigh`.
    - "blocks": with `period > 1`, unknowns numbered ring * period + angle,
      and both matrices exactly unchanged by the angular shift and the
      reflection, the pencil splits into period/2 + 1 radial pencils, one per
      Fourier mode, each solved dense. Degenerate cos/sin pairs come out in a
      fixed order, so reruns are bitwise.
    - "arpack": otherwise, shift-invert Lanczos with the mass as weight. The
      shift sits just below `lower_bound`, a lower bound on the spectrum the
      caller knows; without one, below the Gershgorin bound of a diagonal
      mass, or at -1e-8 for a positive-definite stiffness. An ARPACK error
      falls back to "dense".

    Residuals above 1e-8 raise NumericalError.
    """
    stiff_in, mass_in = pair
    stiff = _as_matrix(stiff_in)
    if isinstance(mass_in, DiscreteOperator):
        mass = mass_in.matrix
    elif isinstance(mass_in, np.ndarray) and mass_in.ndim == 1:
        mass = sp.diags(mass_in).tocsr()
    else:
        mass = sp.csr_matrix(mass_in)
    n = stiff.shape[0]
    if count < 1:
        raise ConfigurationError("count must be positive")
    if count > n:
        raise ConfigurationError(f"requested {count} eigenpairs of a {n}-pencil")

    if n < 400 or count >= n - 1:
        path = "dense"
    elif (period > 1 and n % period == 0 and _rotation_invariant(stiff, period)
          and _rotation_invariant(mass, period)):
        path = "blocks"
        vals, vecs = _fourier_block_solve(stiff, mass, period, count)
    else:
        path = "arpack"
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
        try:
            vals, vecs = spla.eigsh(stiff, k=count, M=mass, sigma=sigma,
                                    which="LM", tol=0, v0=v0)
        except (RuntimeError, spla.ArpackError, ValueError):
            path = "dense"
    if path == "dense":
        vals, vecs = scipy.linalg.eigh(stiff.toarray(), mass.toarray(),
                                       subset_by_index=[0, count - 1])

    order = np.argsort(vals, kind="stable")
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])

    # enforce the weighted normalization exactly and fix the sign convention
    for j in range(count):
        y = vecs[:, j]
        nrm = float(np.sqrt(y @ (mass @ y)))
        if nrm <= 0:
            raise NumericalError("eigenfield with nonpositive weighted norm",
                                 residuals=vals)
        y /= nrm
        lead = np.argmax(np.abs(y))
        if y[lead] < 0:
            y *= -1
        vecs[:, j] = y

    res = np.empty(count)
    for j in range(count):
        y = vecs[:, j]
        r = stiff @ y - vals[j] * (mass @ y)
        res[j] = float(np.linalg.norm(r) / np.linalg.norm(y))
    gram = vecs.T @ (mass @ vecs)
    gram_defect = float(np.max(np.abs(gram - np.eye(count))))
    if np.max(res) >= 1e-8:
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
    Jacobian, and CG directions on the band solve of its angle average. The
    line search halves the update until the dual norm of the gradient
    decreases. Hitting the iteration cap returns a non-converged state
    carrying the last residual instead of raising.
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be positive")
    stepper = _RobinStepper(mesh, spec, K)
    y, rho, iters, converged = stepper.stationary(stepper.unknowns(guess), tolerance,
                                                  max_iter, max_halvings)
    state = stepper.state_of(y)
    tag, path = np.nan, "none"
    if converged and compute_stability:
        lowest = eigen_solve((stepper.jacobian(y, math.inf), stepper.joint_mass), 1,
                             lower_bound=linearized_lower_bound(mesh, spec, state, K))
        tag, path = float(lowest.values[0]), lowest.path
    return EquilibriumState(state, float(rho), iters, converged, tag,
                            stepper.factorizations, stepper.krylov_iterations, path)


def strong_form_residuals(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair,
                          K: float) -> dict:
    """Nodewise stationary residuals: bulk equation, boundary balance law
    (one-sided normal derivative), surface equation."""
    g = compute_gradient(mesh, spec, state, K)
    dnu = normal_derivative(mesh, state.bulk, state.surface, spec, K, "one_sided")
    robin = K * dnu + boundary_trace(mesh, state.bulk) - spec.eval("h", state.surface)
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
    u = equilibrium.state.bulk
    phi = equilibrium.state.surface
    tr_u = boundary_trace(mesh, u)

    sup_fp = float(np.max(np.abs(spec.eval("f'", u))))
    sup_hp2 = float(np.max(np.abs(spec.eval("h'", phi)) ** 2))
    sup_fgp = float(np.max(np.abs(spec.eval("f_G'", phi))))
    sup_cross = float(np.max(np.abs(spec.eval("h''", phi)
                                    * (spec.eval("h", phi) - tr_u))))
    c_star = max(sup_fp, 0.5 + sup_hp2 / K + sup_fgp + sup_cross / K)

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
