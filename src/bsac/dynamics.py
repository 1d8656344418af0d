"""Time integration of the coupled bulk-surface gradient flows.

One adaptive loop integrates both flows of the package through a small
stepper protocol (energy, the functional whose dual norm is logged, and one
backward-Euler Newton iteration shared by all steppers):

* the Robin-coupled system, with two schemes:

  * fully_implicit: backward Euler solved by Newton with the exact second
    variation as Jacobian. The gold standard; every accepted step
    dissipates the discrete energy. Each Newton direction comes from the
    band solve of the Jacobian's angle average (operators.RingBands), built
    afresh from its values: on the interval (one angle) it is the
    direction, on the disk it preconditions CG (the Jacobian is symmetric,
    and SPD for dt c4 <= 1); the Jacobian is factored only when CG does not
    converge or the band factor is singular. A Newton iteration builds no
    sparse matrix (operators.jacobian_map writes the values on one pattern,
    the mass term once per dt; _pcg is scipy's CG arithmetic without its
    set-up, and its products are mesh.matvec's kernel on that pattern with
    the iteration's values; only the counted LU fallback wraps them in a
    matrix) and evaluates its iterate once (operators.Variation: the
    functional, and the Jacobian coefficients when a Jacobian is built
    there); the last iterate's is the new state's, for its energy report,
    the record and the next step. Fixed operators are applied by
    mesh.matvec.
  * stabilized_semi_implicit: diffusion and the linear part of the boundary
    coupling implicit, potentials (and the coupling itself when it is not
    affine) explicit with a stabilization shift S (new - old), S recomputed
    from the current field range each step; the explicit terms and S are
    read from the state's pass. Its matrix is unchanged by the angular shift
    and reflection, so the band solve of its values, written through the
    same JacobianMap, is exact and no sparse matrix is built.

* the affine transmission system (trace of the bulk field slaved to the
  surface field): the Robin flow pulled back through the lift that solves
  the constraint for the surface field, so the bulk vector is the only
  unknown and the normal-derivative term of the surface equation appears as
  the constraint flux of the reduced solve. Its Jacobian is written the
  same way, on the pattern of the pulled-back form.

Equilibria are the same Newton iteration at dt = inf, damped by a line search
on the dual norm of the functional (_Stepper.stationary).

Steps that would raise the energy are rejected and retried with half the
step size; five consecutive acceptances grow the step by 1.2x up to dt_max.
The loop is fully deterministic for a fixed configuration and seed, and a
checkpoint (hex-encoded floats) restores the exact loop state for bitwise
resume. No solver state outlives a Newton iteration but the mass term of
the last dt, a pure function of it, so that is the whole state, and
writing checkpoints never changes a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field as dfield, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, InputError, NumericalError, RunAbort, StepFailure
from .mesh import FieldPair, Mesh, build_mesh, matvec, trace_adjoint, trace_matrix
from .nonlinearity import NonlinearitySpec, make_spec
from .energy import EnergyReport, part_norm, robin_residual, variation_energy
from .operators import (RieszMap, RingBands, Variation, h1_solves, jacobian_map,
                        joint_mass, trace_lift)

ENERGY_SLACK = 1e-12    # accepted-step monotonicity allowance, relative
KRYLOV_RTOL = 1e-6     # CG forcing term: Newton-direction residual over step residual
KRYLOV_MAX_ITER = 30   # CG iterations before the Jacobian is factored
SHIFT_RTOL = 1e-10     # CG tolerance of the shift-invert solves of the stability tag


def energy_rose(old, new):
    """Whether the energy rose from old to new by more than ENERGY_SLACK of
    max(1, |old|), elementwise; a NaN energy rose. The step rejection rule."""
    return ~(new <= old + ENERGY_SLACK * np.maximum(1.0, np.abs(old)))


def _pcg(product, b: np.ndarray, precondition, rtol: float,
         max_iter: int) -> tuple[np.ndarray, int, bool]:
    """Preconditioned CG for A x = b from x = 0, given the product x -> A x,
    the arithmetic of scipy.sparse.linalg.cg step for step: the iterate, the
    iterations taken, and whether |r| fell below rtol |b| before max_iter
    iterations ran out. As in scipy, running out is failure even when the
    last iterate would have passed the test."""
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return b, 0, True
    atol = rtol * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    for it in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, it, True
        z = precondition(r)
        rho = np.dot(r, z)
        if it == 0:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = product(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iter, False


@dataclass
class RunConfig:
    # the field order is the echo order of the command-line configuration,
    # which feeds its config hash: reordering fields breaks old manifests
    geometry: str = "disk"
    radius: float = 1.0
    length: float = 1.0
    n_r: int = 64
    n_theta: int = 128
    n: int = 64
    K: float = 1.0
    scheme: str = "fully_implicit"
    dt: float = 0.05
    dt_min: float = 1e-7
    dt_max: float = 1.0
    t_final: float = 50.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    adaptive: bool = True
    reject_energy_increase: bool = True
    seed: int = 0
    init_kind: str = "smoothed_noise"
    init_mean: float = 0.4
    init_amplitude: float = 0.2
    init_smoothing: float = 0.02
    sample_every: int = 1
    checkpoint_every: int = 50
    keep_states: bool = False
    spec: NonlinearitySpec | None = None

    def __post_init__(self):
        checks = [(math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
                  for f in fields(self) if f.type == "float"]
        checks += [
            (self.geometry in ("disk", "interval"),
             f"geometry must be disk or interval, got {self.geometry!r}"),
            (self.K > 0, "K must be positive"),
            (0 < self.dt_min <= self.dt <= self.dt_max, "need 0 < dt_min <= dt <= dt_max"),
            (self.t_final >= 0, "t_final must be nonnegative"),
            (self.newton_tol > 0, "newton_tol must be positive"),
            (self.newton_max_iter >= 1, "newton_max_iter must be at least 1"),
            (self.scheme in ("fully_implicit", "stabilized_semi_implicit"),
             f"unknown scheme {self.scheme!r}"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.init_kind in ("smoothed_noise", "constant"),
             f"unknown init_kind {self.init_kind!r}"),
            (self.init_smoothing >= 0, "init_smoothing must be nonnegative"),
            (self.sample_every >= 1, "sample_every must be at least 1"),
            (self.checkpoint_every >= 0, "checkpoint_every must be nonnegative"),
        ]
        problems = [message for ok, message in checks if not ok]
        if problems:
            raise ConfigurationError("; ".join(problems))

    def build_mesh(self) -> Mesh:
        if self.geometry == "disk":
            return build_mesh("disk", radius=self.radius, n_r=self.n_r, n_theta=self.n_theta)
        return build_mesh("interval", length=self.length, n=self.n)

    def get_spec(self) -> NonlinearitySpec:
        if self.spec is None:
            self.spec = make_spec()
        return self.spec


@dataclass
class StepDiagnostics:
    accepted: bool
    reason: str
    energy_old: float
    energy_new: float
    newton_iterations: int = 0
    newton_residual: float = np.nan
    stabilization: float = 0.0


@dataclass
class Checkpoint:
    step: int
    time: float
    dt_policy: float
    accept_streak: int
    state: FieldPair


ROW_HEADER = ("time,bulk_dirichlet,bulk_potential,surface_dirichlet,"
              "surface_potential,robin_penalty,total,bulk_dissipation,"
              "surface_dissipation,dual_norm")


@dataclass
class TrajectoryRecord:
    """The samples of one run and its solver counts; states holds each
    sample's state with keep_states, else the last accepted state alone."""

    times: np.ndarray
    energy_parts: np.ndarray        # (n_samples, 5)
    energy_total: np.ndarray
    dissipation_bulk: np.ndarray
    dissipation_surface: np.ndarray
    dual_norm: np.ndarray
    states: list = dfield(default_factory=list)
    diagnostics: dict = dfield(default_factory=dict)

    def n_samples(self) -> int:
        return self.times.size

    def final_state(self) -> FieldPair:
        if not self.states:
            raise ConfigurationError("record kept no states")
        return self.states[-1]

    def sampled_states(self) -> list:
        """The state of each sample; InputError unless the run kept them
        (keep_states)."""
        if not self.states or len(self.states) != self.n_samples():
            raise InputError("record has no state per sample: run it with keep_states")
        return self.states

    def rows(self) -> np.ndarray:
        return np.column_stack([
            self.times, self.energy_parts, self.energy_total,
            self.dissipation_bulk, self.dissipation_surface, self.dual_norm])

    def csv_lines(self) -> list:
        """ROW_HEADER, then one line per sample, its values written by repr."""
        return [ROW_HEADER, *(",".join(map(repr, row)) for row in self.rows().tolist())]


class _Stepper:
    """What the time loop needs of one gradient flow on one mesh.

    A stepper carries mesh, spec, the relaxation constant K its energy uses,
    and the quadrature weights of its unknown vector. It maps states to
    unknowns and back (unknowns, state_of), evaluates a state once
    (evaluate: the functional whose dual norm the recorder logs, and the
    operators.Variation it comes from, whose coefficients give the Jacobian
    there and whose trace and h(phi) give the energy report,
    energy.variation_energy), the backward-Euler residual on the functional
    and the Jacobian. advance takes one step under the energy rejection rule.

    The Jacobian is P' (H + M/dt) P, with H the second variation, M the
    joint mass and P the stepper's map from unknowns to joint vectors; its
    values are written through the stepper's JacobianMap (jac_map) on one
    fixed pattern (pattern, the CSC matrix of the map's base values, whose
    indptr and indices CG's products use), the mass term once per dt. Its
    solves (_solver) use the band solve of its angle average, rebuilt every
    iteration from the band layout of that pattern (bands); a stepper holds
    no factor between iterations, only that layout, the mass term of its
    last dt and its solver counts.
    """

    factorizations = 0
    krylov_iterations = 0
    _mass_dt = None     # the dt of _mass_data, the mass term of the Jacobian

    def advance(self, state: FieldPair, report: EnergyReport, functional: FieldPair,
                variation: Variation, dt: float, scheme: str, *, newton_tol: float,
                newton_max_iter: int, reject_energy_increase: bool
                ) -> tuple[FieldPair, StepDiagnostics, EnergyReport, FieldPair, Variation]:
        """One step from state, given its energy report, functional and
        variation; returns the new state, the step's diagnostics and the new
        state's report, functional and variation. Acceptance requires the
        discrete energy not to increase."""
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if scheme == "fully_implicit":
            new, functional, variation, iters, rnorm = self.implicit_step(
                state, functional, variation, dt, newton_tol, newton_max_iter)
            s_stab = 0.0
        elif scheme == "stabilized_semi_implicit":
            new, s_stab = self.semi_implicit_step(state, variation, dt)
            functional, variation = self.evaluate(new)
            iters, rnorm = 1, np.nan
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        new_report = variation_energy(variation)
        e_old, e_new = report.total, new_report.total
        accepted = True
        reason = "ok"
        if reject_energy_increase and energy_rose(e_old, e_new):
            accepted = False
            reason = f"energy increased by {e_new - e_old:.3g}"
        diag = StepDiagnostics(accepted, reason, e_old, e_new, iters, rnorm, s_stab)
        return new, diag, new_report, functional, variation

    def jacobian(self, variation: Variation, dt: float) -> np.ndarray:
        """The values of the Jacobian at the state of variation on jac_map's
        pattern."""
        if dt != self._mass_dt:
            self._mass_dt = dt
            self._mass_data = self.jac_map.mass_values(self.joint_mass / dt)
        return self.jac_map.values(*variation.coefficients, self._mass_data)

    def _factor(self, data: np.ndarray):
        """Sparse LU of the matrix of values data on jac_map's pattern; the
        only factorization of the steppers, counted, and the only place a
        Newton iteration builds that matrix."""
        self.factorizations += 1
        try:
            return spla.splu(self.jac_map.matrix(data))
        except RuntimeError as exc:
            raise StepFailure(f"implicit solve failed: {exc}") from exc

    def _solver(self, data: np.ndarray, rtol: float):
        """The solve with the matrix of values data on jac_map's pattern: the
        band solve itself where it is exact (bands.exact); otherwise CG to
        rtol preconditioned with the band solve of the matrix's angle
        average, its products mesh.matvec's kernel on the pattern with these
        values, and from the first time CG misses its cap, or when the band
        factor is singular, the factor of the matrix. CG iterations and
        factors add to the stepper's counts."""
        precondition = self.bands.factor(data)
        if precondition is not None and self.bands.exact:
            return precondition
        lu = None

        def product(p: np.ndarray) -> np.ndarray:
            return matvec(self.pattern, p, data)

        def solve(b: np.ndarray) -> np.ndarray:
            nonlocal lu
            if lu is None and precondition is not None:
                x, iterations, converged = _pcg(product, b, precondition, rtol,
                                                KRYLOV_MAX_ITER)
                self.krylov_iterations += iterations
                if converged:
                    return x
            if lu is None:
                lu = self._factor(data)
            return lu.solve(b)
        return solve

    def shift_inverse(self, variation: Variation, shift: float):
        """The solve with P' (H - shift M) P at the state of variation, for a
        shift below the spectrum of the pencil (P' H P, P' M P), where the
        matrix is SPD; _solver to SHIFT_RTOL."""
        data = self.jac_map.values(*variation.coefficients,
                                   self.jac_map.mass_values(-shift * self.joint_mass))
        return self._solver(data, SHIFT_RTOL)

    def _residual_norm(self, r: np.ndarray) -> float:
        # L2 norm of the strong-form residual (coefficients divided by weights)
        return float(np.sqrt(np.sum(r * r / self.weights)))

    def implicit_step(self, state: FieldPair, functional: FieldPair, variation: Variation,
                      dt: float, tol: float, max_iter: int
                      ) -> tuple[FieldPair, FieldPair, Variation, int, float]:
        """Backward-Euler Newton from state, given its functional and
        variation: the new state, its functional and variation, the
        iterations and the last residual norm."""
        x = y = self.unknowns(state)
        res = self.unknowns(functional)     # the residual at y = x: the mass term is 0
        rnorm = best = self._residual_norm(res)
        for it in range(1, max_iter + 1):
            y = y + self._solver(self.jacobian(variation, dt), KRYLOV_RTOL)(-res)
            if not np.all(np.isfinite(y)):
                raise StepFailure("implicit iteration produced non-finite state")
            new = self.state_of(y)
            functional, variation = self.evaluate(new)
            res = self.residual(y, x, dt, functional)
            rnorm = self._residual_norm(res)
            if rnorm < tol:
                return new, functional, variation, it, rnorm
            if rnorm > 1e4 * max(best, tol):
                raise StepFailure(f"implicit iteration diverged (residual {rnorm:.3g})")
            best = min(best, rnorm)
        raise StepFailure(f"implicit iteration cap reached (residual {rnorm:.3g})")

    def stationary(self, y: np.ndarray, tolerance: float, max_iter: int, max_halvings: int
                   ) -> tuple[np.ndarray, Variation, float, int, bool]:
        """Damped Newton for functional = 0 from the unknowns y, the Newton of
        implicit_step at dt = inf. Each update is halved until the H1 dual norm
        of the functional falls; that norm below tolerance, tested before the
        first iteration too, is convergence. Returns the unknowns, their
        variation, their dual norm, the iterations and whether it converged.
        A singular Jacobian raises NumericalError."""
        self.factorizations = self.krylov_iterations = 0
        riesz = RieszMap(self.mesh)

        def evaluate(y):
            # the functional's unknowns are the residual
            functional, variation = self.evaluate(self.state_of(y))
            return riesz.dual_norm(functional), self.unknowns(functional), variation

        rho, res, variation = evaluate(y)
        iters = 0
        while rho >= tolerance and iters < max_iter:
            iters += 1
            try:
                direction = self._solver(self.jacobian(variation, math.inf),
                                         KRYLOV_RTOL)(-res)
            except StepFailure as exc:
                raise NumericalError(f"singular linearized operator: {exc}",
                                     residuals=np.array([rho])) from exc
            step = 1.0
            for _ in range(max_halvings + 1):
                trial = y + step * direction
                if np.all(np.isfinite(trial)):
                    rho_trial, res_trial, variation_trial = evaluate(trial)
                    if rho_trial < rho:
                        y, rho, res, variation = trial, rho_trial, res_trial, variation_trial
                        break
                step /= 2.0
            else:
                break
        return y, variation, rho, iters, rho < tolerance


class _RobinStepper(_Stepper):
    """Stepping engine for the Robin-coupled system on one mesh."""

    def __init__(self, mesh: Mesh, spec: NonlinearitySpec, K: float):
        self.mesh = mesh
        self.spec = spec
        self.K = K
        self.weights = self.joint_mass = joint_mass(mesh)
        self.n_b = mesh.n_bulk
        self.affine = spec.coupling.kind == "affine"
        self.jac_map = jacobian_map(mesh, K, None)
        self.pattern = self.jac_map.pattern()
        self.bands = RingBands(self.pattern, mesh.rings, mesh.angular_period)

    def unknowns(self, state: FieldPair) -> np.ndarray:
        return state.joint()

    def state_of(self, y: np.ndarray) -> FieldPair:
        # y is finite: a Newton iterate, tested, or the unknowns of a FieldPair
        return FieldPair.trusted(y[:self.n_b], y[self.n_b:])

    def evaluate(self, state: FieldPair) -> tuple[FieldPair, Variation]:
        variation = Variation(self.mesh, self.spec, state, self.K)
        return variation.gradient, variation

    def residual(self, y: np.ndarray, x: np.ndarray, dt: float,
                 functional: FieldPair) -> np.ndarray:
        """The backward-Euler residual at y from x, given the functional at y."""
        return self.weights * (y - x) / dt + functional.joint()

    def semi_implicit_step(self, state: FieldPair, variation: Variation,
                           dt: float) -> tuple[FieldPair, float]:
        """One stabilized semi-implicit step from state, whose pass variation
        holds the explicit terms, f(u), f_G(phi) and, for a coupling that is
        not affine, h(phi), h'(phi) and Tr u, and the reactions f'(u) and
        f_G'(phi) of the shift S = max(c4, max f'(u), max f_G'(phi), 0)."""
        mesh, K = self.mesh, self.K
        ws = mesh.surface_weights
        x = state.joint()
        fp, fgp, _ = variation.reactions
        s_stab = max(self.spec.c4, float(np.max(fp)), float(np.max(fgp)), 0.0)
        diagonal = self.weights * (1.0 / dt + s_stab)
        rhs = self.weights * (x / dt + s_stab * x
                              - np.concatenate([variation.f, variation.f_G]))
        if self.affine:
            # linear boundary coupling implicit: it sits in the matrix
            alpha, eta = self.spec.coupling.alpha, self.spec.coupling.eta
            diagonal[self.n_b:] += ws * alpha * alpha / K
            coupling = -ws * alpha / K
            bulk_src, surf_src = ws * eta / K, -ws * alpha * eta / K
        else:
            # nonlinear coupling explicit: a source on the block-diagonal solve
            coupling = np.zeros(mesh.n_surface)
            bulk_src = ws * variation.h / K
            surf_src = variation.hp * ws * (variation.tr_u - variation.h) / K
        rhs += np.concatenate([matvec(trace_adjoint(mesh), bulk_src), surf_src])
        solve = self.bands.factor(self.jac_map.values(diagonal, coupling))
        if solve is None:
            raise StepFailure("semi-implicit band factor is singular")
        y = solve(rhs)
        if not np.all(np.isfinite(y)):
            raise StepFailure("semi-implicit solve produced non-finite state")
        return self.state_of(y), s_stab


def transmission_state(mesh: Mesh, spec: NonlinearitySpec):
    """The map u -> (u, phi) onto the trace constraint alpha phi + eta = u|_G
    of the affine transmission limit, phi = (Tr u - eta) / alpha: one trace
    product per call. ConfigurationError for a coupling that is not affine or
    for alpha = 0."""
    if spec.coupling.kind != "affine":
        raise ConfigurationError("transmission limit requires affine coupling")
    alpha, eta = spec.coupling.alpha, spec.coupling.eta
    if alpha == 0:
        raise ConfigurationError("transmission limit requires alpha != 0")
    tr = trace_matrix(mesh)

    def state_of(u: np.ndarray) -> FieldPair:
        return FieldPair.trusted(u, (matvec(tr, u) - eta) / alpha)
    return state_of


class _TransmissionStepper(_Stepper):
    """Backward Euler for the trace-constrained limit system, bulk unknown only.

    The constraint gives phi from u (transmission_state, its state_of), so
    the lift P = [I; Tr/alpha] carries bulk directions to joint ones. The
    limit flow is the Robin flow pulled back through P: metric P' M P with M
    the joint mass, functional P' times the Robin gradient, Jacobian P' times
    the Robin second variation times P. Testing with bulk directions thus
    reproduces both equations, the normal derivative entering as the
    constraint flux. Its states are lifted, so their operators.Variation is
    the Robin one, and its coefficients give the Jacobian through the map.
    """

    K = 1.0     # the robin penalty and its derivatives vanish on the constraint manifold

    def __init__(self, mesh: Mesh, spec: NonlinearitySpec):
        self.state_of = transmission_state(mesh, spec)
        self.mesh = mesh
        self.spec = spec
        self.weights = mesh.bulk_weights
        self.joint_mass = joint_mass(mesh)
        lift = trace_lift(mesh, spec.coupling.alpha)
        self.lift_adjoint = lift.T
        self.metric = (self.lift_adjoint @ sp.diags(self.joint_mass) @ lift).tocsr()
        self.jac_map = jacobian_map(mesh, self.K, spec.coupling.alpha)
        self.pattern = self.jac_map.pattern()
        self.bands = RingBands(self.pattern, mesh.rings[:mesh.n_bulk], mesh.angular_period)

    def unknowns(self, state: FieldPair) -> np.ndarray:
        return state.bulk

    def evaluate(self, state: FieldPair) -> tuple[FieldPair, Variation]:
        variation = Variation(self.mesh, self.spec, state, self.K)
        functional = FieldPair.trusted(matvec(self.lift_adjoint, variation.gradient.joint()),
                                       np.zeros(self.mesh.n_surface))
        return functional, variation

    def residual(self, y: np.ndarray, x: np.ndarray, dt: float,
                 functional: FieldPair) -> np.ndarray:
        return matvec(self.metric, y - x) / dt + functional.bulk


def advance_step(mesh: Mesh, spec: NonlinearitySpec, state: FieldPair, K: float,
                 dt: float, scheme: str = RunConfig.scheme, *,
                 reject_energy_increase: bool = RunConfig.reject_energy_increase
                 ) -> tuple[FieldPair, StepDiagnostics]:
    """One time step of the Robin system, Newton at RunConfig's default
    tolerance and cap; acceptance requires the discrete energy not to
    increase."""
    stepper = _RobinStepper(mesh, spec, K)
    functional, variation = stepper.evaluate(state)
    new, diag, *_ = stepper.advance(state, variation_energy(variation), functional, variation,
                                    dt, scheme, newton_tol=RunConfig.newton_tol,
                                    newton_max_iter=RunConfig.newton_max_iter,
                                    reject_energy_increase=reject_energy_increase)
    return new, diag


def smoothed_random_state(mesh: Mesh, seed: int, mean: float = RunConfig.init_mean,
                          amplitude: float = RunConfig.init_amplitude,
                          smoothing: float = RunConfig.init_smoothing) -> FieldPair:
    """Low-pass filtered noise: two implicit smoothing solves, then rescale."""
    rng = np.random.default_rng(seed)
    raw_b = rng.standard_normal(mesh.n_bulk)
    raw_s = rng.standard_normal(mesh.n_surface)
    solve_b, solve_s = h1_solves(mesh, smoothing)
    for _ in range(2):
        raw_b = solve_b(mesh.bulk_weights * raw_b)
        raw_s = solve_s(mesh.surface_weights * raw_s)
    scale_b = max(np.max(np.abs(raw_b)), 1e-12)
    scale_s = max(np.max(np.abs(raw_s)), 1e-12)
    return FieldPair(mean + amplitude * raw_b / scale_b,
                     mean + amplitude * raw_s / scale_s)


def initial_state(config: RunConfig, mesh: Mesh) -> FieldPair:
    if config.init_kind == "constant":
        return FieldPair.constant(mesh, config.init_mean, config.init_mean)
    return smoothed_random_state(mesh, config.seed, config.init_mean,
                                 config.init_amplitude, config.init_smoothing)


def _integrate(stepper: _Stepper, config: RunConfig, start: FieldPair | Checkpoint,
               diagnostics: dict | None = None, on_checkpoint=None) -> TrajectoryRecord:
    """The adaptive, energy-monotone time loop shared by every stepper.

    Reads only the loop settings of config: dt and its bounds, t_final,
    adaptive, scheme, the Newton and rejection settings, the sampling and
    checkpoint cadences and keep_states. A FieldPair start is sampled at
    t = 0; a Checkpoint start continues that exact loop state, and the record
    then holds only the samples after it, bitwise equal to the original run.
    The variation of each accepted state is computed once, and its energy
    report and functional from it: they are the recorded sample, and the
    next step's starting energy, first Newton residual and first Jacobian; a
    Checkpoint start computes them from its state, a pure function of it.
    Each sample is a row in ROW_HEADER order; the record is built from them
    once, as the run finishes or aborts (RunAbort carries it), and ends in
    the last accepted state, sampled if the cadence skipped it.
    on_checkpoint, when given, is called with each checkpoint as the loop
    reaches it and with the endpoint's: the only way one leaves the loop.
    """
    mesh = stepper.mesh
    riesz = RieszMap(mesh)
    rows, kept = [], []     # the samples in ROW_HEADER order, and their states if kept
    diagnostics = {"accepted": 0, "rejected": 0, "newton_iterations": 0,
                   "factorizations": 0, "krylov_iterations": 0, "aborted": False,
                   **(diagnostics or {})}

    def sample(diss_b=0.0, diss_s=0.0) -> None:
        rows.append((t, *report.parts(), report.total, diss_b, diss_s,
                     riesz.dual_norm(functional)))
        if config.keep_states:
            kept.append(state.copy())

    def checkpoint() -> None:
        if on_checkpoint is not None:
            on_checkpoint(Checkpoint(step, t, dt_policy, streak, state.copy()))

    def build() -> TrajectoryRecord:
        if not rows or rows[-1][0] < t - 1e-12 * max(1.0, t_end):
            sample()
        diagnostics.update(factorizations=stepper.factorizations,
                           krylov_iterations=stepper.krylov_iterations)
        table = np.array(rows)
        return TrajectoryRecord(table[:, 0], table[:, 1:6], table[:, 6], table[:, 7],
                                table[:, 8], table[:, 9],
                                kept if config.keep_states else [state.copy()], diagnostics)

    stepper.factorizations = stepper.krylov_iterations = 0
    if isinstance(start, Checkpoint):
        _check_checkpoint(stepper, config, start)
        state = start.state.copy()
        t, step = start.time, start.step
        dt_policy, streak = start.dt_policy, start.accept_streak
    else:
        state, t, step = start, 0.0, 0
        dt_policy, streak = config.dt, 0
    functional, variation = stepper.evaluate(state)
    report = variation_energy(variation)
    if not isinstance(start, Checkpoint):
        sample()

    t_end = config.t_final
    while t < t_end - 1e-12 * max(1.0, t_end):
        dt = min(dt_policy, t_end - t)
        try:
            new, diag, new_report, new_functional, new_variation = stepper.advance(
                state, report, functional, variation, dt, config.scheme,
                newton_tol=config.newton_tol, newton_max_iter=config.newton_max_iter,
                reject_energy_increase=config.reject_energy_increase)
            diagnostics["newton_iterations"] += diag.newton_iterations
        except StepFailure as exc:
            diag = StepDiagnostics(False, str(exc), np.nan, np.nan)
        if diag.accepted:
            delta_b = part_norm(mesh.bulk_weights, (new.bulk - state.bulk) / dt)
            delta_s = part_norm(mesh.surface_weights, (new.surface - state.surface) / dt)
            state, report = new, new_report
            functional, variation = new_functional, new_variation
            t += dt
            step += 1
            streak += 1
            diagnostics["accepted"] += 1
            if config.adaptive and streak >= 5:
                dt_policy = min(dt_policy * 1.2, config.dt_max)
                streak = 0
            if step % config.sample_every == 0:
                sample(delta_b, delta_s)
            if config.checkpoint_every and step % config.checkpoint_every == 0:
                checkpoint()
        else:
            diagnostics["rejected"] += 1
            if not config.adaptive:
                diagnostics["aborted"] = True
                raise RunAbort(f"step rejected with fixed dt: {diag.reason}", build())
            streak = 0
            dt_policy = dt / 2.0
            if dt_policy < config.dt_min:
                diagnostics["aborted"] = True
                raise RunAbort(f"dt underflow below dt_min: {diag.reason}", build())
    checkpoint()
    return build()


def _check_checkpoint(stepper: _Stepper, config: RunConfig, cp: Checkpoint) -> None:
    """A checkpoint start must be finite, its step, accept_streak and time
    nonnegative and its dt_policy within [dt_min, dt_max], as the loop keeps
    them, and its state sized for stepper."""
    if not (math.isfinite(cp.time) and math.isfinite(cp.dt_policy)):
        raise InputError("checkpoint time and dt_policy must be finite")
    for name in ("step", "accept_streak", "time"):
        if getattr(cp, name) < 0:
            raise InputError(f"checkpoint {name} {getattr(cp, name)!r} is negative")
    if not cp.dt_policy >= config.dt_min:
        raise InputError(f"checkpoint dt_policy {cp.dt_policy!r} is below "
                         f"dt_min {config.dt_min!r}")
    if cp.dt_policy > config.dt_max:
        raise InputError(f"checkpoint dt_policy {cp.dt_policy!r} is above "
                         f"dt_max {config.dt_max!r}")
    stepper.mesh.check_bulk(cp.state.bulk)
    stepper.mesh.check_surface(cp.state.surface)


def run_trajectory(config: RunConfig, initial: FieldPair | None = None,
                   mesh: Mesh | None = None,
                   resume: Checkpoint | None = None, *,
                   on_checkpoint=None) -> TrajectoryRecord:
    """Integrate the Robin system to t_final with adaptive step control.

    Fully deterministic. With resume, continues the exact loop state of a
    previous run: the record then contains only samples after the checkpoint,
    and they match the original run bitwise. on_checkpoint, when given, is
    called with each checkpoint as the loop reaches it and with the
    endpoint's (_integrate). RunAbort carries the record up to its abort.
    """
    mesh = mesh if mesh is not None else config.build_mesh()
    spec = config.get_spec()
    stepper = _RobinStepper(mesh, spec, config.K)
    if resume is not None:
        return _integrate(stepper, config, resume, on_checkpoint=on_checkpoint)
    state = initial if initial is not None else initial_state(config, mesh)
    mesh.check_bulk(state.bulk)
    mesh.check_surface(state.surface)
    mism = robin_residual(mesh, spec, state, config.K)
    compatibility = part_norm(mesh.surface_weights, mism)
    return _integrate(stepper, config, state,
                      {"compatibility_residual": compatibility}, on_checkpoint)


def solve_transmission_limit(mesh: Mesh, spec: NonlinearitySpec,
                             initial: FieldPair, t_final: float,
                             dt: float, *, newton_tol: float = 1e-11,
                             newton_max_iter: int = RunConfig.newton_max_iter,
                             sample_every: int = RunConfig.sample_every,
                             keep_states: bool = True) -> TrajectoryRecord:
    """Integrate the trace-constrained limit flow with fixed dt.

    The surface field is derived from u: the initial surface value is
    replaced by the constraint value (u|_G - eta)/alpha, mirroring the limit
    system's derived initial datum. A rejected step raises RunAbort.
    """
    stepper = _TransmissionStepper(mesh, spec)
    config = RunConfig(dt=dt, dt_min=dt, dt_max=dt, t_final=t_final,
                       adaptive=False, newton_tol=newton_tol,
                       newton_max_iter=newton_max_iter, sample_every=sample_every,
                       checkpoint_every=0, keep_states=keep_states, spec=spec)
    u = mesh.check_bulk(initial.bulk).copy()
    return _integrate(stepper, config, stepper.state_of(u))


@contextlib.contextmanager
def atomic_writer(path):
    """A text file handle on a temporary file next to path, renamed over path
    when the block completes: path holds the old file or the whole new one,
    never a partial write."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def hex_line(key: str, values) -> str:
    """`key = ` and the values as hex floats, which hex_floats reads back
    bit for bit: the text of every state bsac writes."""
    return f"{key} = " + " ".join(v.hex() for v in np.ravel(values).tolist())


def hex_floats(text: str) -> np.ndarray:
    return np.array([float.fromhex(tok) for tok in text.split()])


def _state_sha256(bulk_line: str, surface_line: str) -> str:
    return hashlib.sha256(f"{bulk_line}\n{surface_line}".encode()).hexdigest()


def write_checkpoint(path, cp: Checkpoint, config_hash: str = "") -> None:
    """Hex-encoded text snapshot, written atomically; restores the loop state
    bit for bit. The state_sha256 line, the checksum of the two state lines,
    precedes them, so a file cut anywhere in the state keeps it."""
    with atomic_writer(path) as fh:
        state = hex_line("bulk", cp.state.bulk), hex_line("surface", cp.state.surface)
        lines = [f"step = {cp.step}", hex_line("time", float(cp.time)),
                 hex_line("dt_policy", float(cp.dt_policy)),
                 f"accept_streak = {cp.accept_streak}", f"config_hash = {config_hash}",
                 f"state_sha256 = {_state_sha256(*state)}", *state]
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path) -> tuple[Checkpoint, str]:
    """Inverse of write_checkpoint, ignoring keys it does not write; a file
    that cannot be opened or decoded, a missing, malformed or non-finite
    field raises InputError, and then a state that does not match its
    state_sha256 line, where the file has one."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if "=" in line:
                    key, _, val = line.partition("=")
                    entries[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"checkpoint {path} cannot be read: {exc}") from None

    def parse(key, cast):
        if key not in entries:
            raise InputError(f"checkpoint {path} has no {key!r} field")
        try:
            value = cast(entries[key])
        except ValueError as exc:
            raise InputError(f"checkpoint {path} has a bad {key!r} field: {exc}") from None
        if not np.all(np.isfinite(value)):
            raise InputError(f"checkpoint {path} has a non-finite {key!r} field")
        return value

    state = FieldPair(parse("bulk", hex_floats), parse("surface", hex_floats))
    cp = Checkpoint(parse("step", int), parse("time", float.fromhex),
                    parse("dt_policy", float.fromhex),
                    parse("accept_streak", int), state)
    checksum = entries.get("state_sha256")
    if checksum is not None and checksum != _state_sha256(
            *(f"{key} = {entries[key]}" for key in ("bulk", "surface"))):
        raise InputError(f"checkpoint {path} does not match its state_sha256 checksum")
    return cp, entries.get("config_hash", "")
