"""Energy functional, its first variation, and the dissipation identity.

The discrete energy uses exactly the stencils of the assembled operators:
Dirichlet parts are the stored stiffness forms, potentials are quadrature
sums, and the boundary penalty evaluates the trace extrapolation. The first
variation is then the exact derivative of the discrete energy (up to round
off), which turns the Lyapunov decay of the implicit scheme into an
algebraic identity rather than an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .mesh import Mesh, boundary_trace
from .nonlinearity import NonlinearitySpec
from .operators import (DualVector, Variation, bulk_dirichlet_stiffness,
                        dirichlet_form_value, surface_stiffness)


@dataclass
class FieldPair:
    bulk: np.ndarray
    surface: np.ndarray

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk, dtype=float)
        self.surface = np.asarray(self.surface, dtype=float)
        if not (np.all(np.isfinite(self.bulk)) and np.all(np.isfinite(self.surface))):
            raise ShapeError("field values must be finite")

    @classmethod
    def trusted(cls, bulk: np.ndarray, surface: np.ndarray) -> "FieldPair":
        """A pair of float arrays known to be finite, built unchecked."""
        pair = object.__new__(cls)
        pair.bulk, pair.surface = bulk, surface
        return pair

    def copy(self) -> "FieldPair":
        return FieldPair(self.bulk.copy(), self.surface.copy())

    def joint(self) -> np.ndarray:
        return np.concatenate([self.bulk, self.surface])

    @staticmethod
    def constant(mesh: Mesh, bulk_value: float, surface_value: float) -> "FieldPair":
        return FieldPair(np.full(mesh.n_bulk, float(bulk_value)),
                         np.full(mesh.n_surface, float(surface_value)))


@dataclass
class EnergyReport:
    bulk_dirichlet: float
    bulk_potential: float
    surface_dirichlet: float
    surface_potential: float
    robin_penalty: float
    total: float = None

    def __post_init__(self):
        if self.total is None:
            self.total = (self.bulk_dirichlet + self.bulk_potential
                          + self.surface_dirichlet + self.surface_potential
                          + self.robin_penalty)

    def parts(self) -> tuple:
        return (self.bulk_dirichlet, self.bulk_potential, self.surface_dirichlet,
                self.surface_potential, self.robin_penalty)


def compute_energy(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair, K: float) -> EnergyReport:
    u = mesh.check_bulk(state.bulk)
    phi = mesh.check_surface(state.surface)
    mismatch = boundary_trace(mesh, u) - spec.eval("h", phi)
    return EnergyReport(
        bulk_dirichlet=0.5 * dirichlet_form_value(mesh.bulk_faces, u),
        bulk_potential=float(mesh.bulk_weights @ spec.eval("F", u)),
        surface_dirichlet=0.5 * dirichlet_form_value(mesh.surface_faces, phi),
        surface_potential=float(mesh.surface_weights @ spec.eval("F_G", phi)),
        robin_penalty=float(mesh.surface_weights @ mismatch**2) / (2.0 * K),
    )


def compute_gradient(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair, K: float) -> DualVector:
    """First variation of the energy as a quadrature-weighted functional.

    Pairing the result with any direction (w, xi) by plain dot product equals
    the directional derivative of compute_energy at the state. It is the
    gradient of operators.Variation, the one pass that also gives the second
    variation's coefficients.
    """
    return Variation(mesh, spec, state, K).gradient


def h_norm(mesh: Mesh, bulk: np.ndarray, surface: np.ndarray) -> float:
    """Product L2 norm of a (bulk, surface) pair."""
    q = (mesh.bulk_weights @ bulk**2) + (mesh.surface_weights @ surface**2)
    return float(np.sqrt(max(q, 0.0)))


def part_norm(weights: np.ndarray, values: np.ndarray) -> float:
    """L2 norm of one part, bulk or surface, with its quadrature weights:
    h_norm of the pair whose other part is zero, bit for bit."""
    return float(np.sqrt(max(weights @ values**2, 0.0)))


def v_norm(mesh: Mesh, bulk: np.ndarray, surface: np.ndarray) -> float:
    """Product first-order norm (L2 plus Dirichlet forms)."""
    q = ((mesh.bulk_weights @ bulk**2) + bulk @ (bulk_dirichlet_stiffness(mesh).matrix @ bulk)
         + (mesh.surface_weights @ surface**2)
         + surface @ (surface_stiffness(mesh).matrix @ surface))
    return float(np.sqrt(max(q, 0.0)))


def w_norm(mesh: Mesh, bulk: np.ndarray, surface: np.ndarray) -> float:
    """Second-order composite norm: first-order part plus strong Laplacians.

    The strong actions S x / m stand in for the second derivatives; at fixed
    mesh this is a genuine norm and is used only inside rate-bound checks
    where the fitted constant absorbs equivalence factors.
    """
    lap_b = (bulk_dirichlet_stiffness(mesh).matrix @ bulk) / mesh.bulk_weights
    lap_s = (surface_stiffness(mesh).matrix @ surface) / mesh.surface_weights
    q = (v_norm(mesh, bulk, surface) ** 2
         + (mesh.bulk_weights @ lap_b**2) + (mesh.surface_weights @ lap_s**2))
    return float(np.sqrt(max(q, 0.0)))


def energy_identity_residual(samples, mesh: Mesh, spec: NonlinearitySpec, K: float) -> np.ndarray:
    """Per-interval defect of the discrete dissipation balance.

    samples: sequence of (state, time) with strictly increasing times.
    Returns R_n = (E_{n+1} - E_n)/dt + ||du/dt||^2 + ||dphi/dt||^2 per
    interval; the implicit scheme makes these nonpositive (numerical
    dissipation), and they vanish linearly with dt.
    """
    if len(samples) < 2:
        raise InputError("need at least two samples")
    times = np.array([t for _, t in samples], dtype=float)
    if not np.all(np.diff(times) > 0):
        raise InputError("sample times must be strictly increasing")
    energies = np.array([compute_energy(mesh, spec, st, K).total for st, _ in samples])
    out = np.empty(len(samples) - 1)
    for n in range(len(samples) - 1):
        dt = times[n + 1] - times[n]
        du = (samples[n + 1][0].bulk - samples[n][0].bulk) / dt
        dphi = (samples[n + 1][0].surface - samples[n][0].surface) / dt
        out[n] = ((energies[n + 1] - energies[n]) / dt
                  + (mesh.bulk_weights @ du**2) + (mesh.surface_weights @ dphi**2))
    return out
