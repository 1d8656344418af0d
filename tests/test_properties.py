"""Property tests over random admissible nonlinearities on small meshes: the
gradient is the derivative of the energy, the second variation is the
derivative of the gradient, the steppers' Jacobians written on their fixed
patterns equal the same forms summed as plain sparse matrices and, at
dt = inf, the stationary system, the form bound lies below the spectrum, and
an implicit step below the convexity limit dissipates energy, for every family
and both geometries."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bsac import (FieldPair, Variation, advance_step, assemble_bulk_laplacian,
                  assemble_linearized, build_disk, build_interval, compute_energy,
                  compute_gradient, joint_mass, make_spec, trace_matrix)
from bsac.dynamics import _RobinStepper, _TransmissionStepper
from bsac.operators import surface_stiffness
from conftest import jacobian_at

MESHES = {"disk": build_disk(1.0, 8, 16), "interval": build_interval(1.0, 16)}
EPS = 1e-5
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_unit = st.floats(-1.0, 1.0)


@st.composite
def potentials(draw):
    kind = draw(st.sampled_from(["scaled", "polynomial"]))
    if kind == "scaled":
        return kind, {"amplitude": draw(st.floats(0.5, 2.0)),
                      "width": draw(st.floats(0.5, 1.5))}
    # quartic with a dominant leading term: F(s) >= |s| - 1 beyond |s| = 2
    low = [draw(st.floats(0.0, 1.0))] + [0.2 * draw(_unit) for _ in range(3)]
    return kind, {"coeffs": low + [draw(st.floats(0.25, 1.0))]}


@st.composite
def affine_couplings(draw):
    return "affine", {"alpha": draw(st.floats(0.5, 1.5)), "eta": 0.5 * draw(_unit)}


@st.composite
def couplings(draw):
    if draw(st.booleans()):
        return "tanh", {"scale": draw(st.floats(0.5, 1.5)), "gain": draw(st.floats(0.5, 2.0)),
                        "offset": 0.5 * draw(_unit)}
    return draw(affine_couplings())


@st.composite
def cases(draw, coupling_strategy=couplings()):
    """A validated spec, a mesh, K, a state and a direction."""
    (bulk, bulk_params), (surf, surf_params) = draw(potentials()), draw(potentials())
    coupling, coupling_params = draw(coupling_strategy)
    spec = make_spec(bulk, surf, coupling, bulk_params=bulk_params,
                     surface_params=surf_params, coupling_params=coupling_params)
    assert spec.validation.accepted, spec.validation.summary()
    mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))]
    K = draw(st.floats(0.1, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pair(amplitude):
        return FieldPair(amplitude * rng.standard_normal(mesh.n_bulk),
                         amplitude * rng.standard_normal(mesh.n_surface))

    return spec, mesh, K, pair(0.6), pair(1.0)


def _shifted(state, direction, t):
    return FieldPair(state.bulk + t * direction.bulk, state.surface + t * direction.surface)


@PROPERTY
@given(cases())
def test_gradient_is_derivative_of_energy(case):
    spec, mesh, K, state, d = case

    def energy(t):
        return compute_energy(mesh, spec, _shifted(state, d, t), K).total

    fd = (energy(EPS) - energy(-EPS)) / (2 * EPS)
    g = compute_gradient(mesh, spec, state, K).joint()
    pairing = g @ d.joint()
    assert fd == pytest.approx(pairing, rel=1e-6,
                               abs=1e-7 * np.linalg.norm(g) * np.linalg.norm(d.joint()))


@PROPERTY
@given(cases())
def test_jacobian_is_derivative_of_gradient(case):
    spec, mesh, K, state, d = case

    def gradient(t):
        return compute_gradient(mesh, spec, _shifted(state, d, t), K).joint()

    fd = (gradient(EPS) - gradient(-EPS)) / (2 * EPS)
    an = assemble_linearized(mesh, spec, state, K) @ d.joint()
    assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)


def plain_hessian(mesh, spec, state, K):
    """The second variation summed block by block from scipy.sparse pieces."""
    u, phi = state.bulk, state.surface
    tr, w_s = trace_matrix(mesh), mesh.surface_weights
    hp = spec.eval("h'", phi)
    cross = sp.diags(-w_s * hp / K) @ tr
    surface = w_s * (spec.eval("f_G'", phi) + hp * hp / K
                     + spec.eval("h''", phi) * (spec.eval("h", phi) - tr @ u) / K)
    bulk = (assemble_bulk_laplacian(mesh, K)
            + sp.diags(mesh.bulk_weights * spec.eval("f'", u)))
    return sp.bmat([[bulk, cross.T], [cross, surface_stiffness(mesh) + sp.diags(surface)]])


def _assert_close(matrix, reference):
    assert matrix.shape == reference.shape
    assert abs(matrix - reference).max() <= 1e-13 * abs(reference).max()


@PROPERTY
@given(cases(), st.floats(0.01, 1.0))
def test_pattern_jacobians_equal_plain_sparse_sums(case, dt):
    spec, mesh, K, state, _ = case
    mass = sp.diags(joint_mass(mesh) / dt)
    robin = _RobinStepper(mesh, spec, K)
    jac = robin.jac_map.matrix(robin.jacobian(robin.evaluate(state)[1], dt))
    # bitwise: the Robin outputs rest on this sum's rounding
    assert (jac != assemble_linearized(mesh, spec, state, K) + mass).nnz == 0
    _assert_close(jac, plain_hessian(mesh, spec, state, K) + mass)
    if spec.coupling.kind == "affine":
        limit = _TransmissionStepper(mesh, spec)
        lift = sp.vstack([sp.identity(mesh.n_bulk), trace_matrix(mesh) / spec.coupling.alpha])
        hessian = plain_hessian(mesh, spec, limit.state_of(state.bulk), limit.K)
        _assert_close(limit.jac_map.matrix(jacobian_at(limit, state.bulk, dt)),
                      limit.metric / dt + lift.T @ hessian @ lift)


@PROPERTY
@given(cases())
def test_steppers_at_infinite_dt_are_the_stationary_system(case):
    # equilibria are the steppers' Newton at dt = inf: M/dt vanishes exactly,
    # leaving the second variation and the gradient entry for entry
    spec, mesh, K, state, _ = case
    robin = _RobinStepper(mesh, spec, K)
    y = robin.unknowns(state)
    jac = robin.jac_map.matrix(robin.jacobian(robin.evaluate(state)[1], math.inf))
    hessian = assemble_linearized(mesh, spec, state, K)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(jac, attr), getattr(hessian, attr))
    assert np.array_equal(robin.residual(y, y, math.inf, robin.evaluate(state)[0]),
                          compute_gradient(mesh, spec, state, K).joint())
    if spec.coupling.kind == "affine":
        limit = _TransmissionStepper(mesh, spec)
        u = state.bulk
        functional = limit.evaluate(limit.state_of(u))[0]
        assert np.array_equal(limit.residual(u, u, math.inf, functional), functional.bulk)


@PROPERTY
@given(cases())
def test_form_bound_is_below_the_linearized_spectrum(case):
    spec, mesh, K, state, _ = case
    bound = Variation(mesh, spec, state, K).lower_bound()
    lowest = scipy.linalg.eigh(assemble_linearized(mesh, spec, state, K).toarray(),
                               np.diag(joint_mass(mesh)), eigvals_only=True,
                               subset_by_index=[0, 0])[0]
    assert bound <= lowest + 1e-10 * max(1.0, abs(lowest))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_form_bound_is_exact_at_the_uniform_well(name):
    # f'(1) = f_G'(1) = 2 and h'' = 0; the constant pair attains it
    mesh, spec = MESHES[name], make_spec()
    state = FieldPair.constant(mesh, 1.0, 1.0)
    assert Variation(mesh, spec, state, 1.0).lower_bound() == 2.0


@pytest.mark.parametrize("name", sorted(MESHES))
def test_form_bound_is_attained_with_a_curved_coupling(name):
    # At constants (a, b) the pair (1, 1/h'(b)) zeroes the semidefinite part,
    # so its Rayleigh quotient averages the bulk ratio f'(a) and the surface
    # ratio f_G'(b) + h''(b)(h(b) - a)/K. Where the two agree, the bound is
    # the smallest eigenvalue, h'' term included.
    mesh, K, b = MESHES[name], 0.2, 0.4
    spec = make_spec(coupling_kind="tanh",
                     coupling_params={"scale": 1.0, "gain": 1.5, "offset": 0.1})

    def ratio_gap(a):
        return float(spec.eval("f'", np.array([a]))[0]
                     - (spec.eval("f_G'", np.array([b]))[0]
                        + spec.eval("h''", np.array([b]))[0]
                        * (spec.eval("h", np.array([b]))[0] - a) / K))

    a = scipy.optimize.brentq(ratio_gap, 0.0, 1.5, xtol=1e-15)
    state = FieldPair.constant(mesh, a, b)
    assert abs(spec.eval("h''", np.array([b]))[0]) > 0.1
    lowest = scipy.linalg.eigh(assemble_linearized(mesh, spec, state, K).toarray(),
                               np.diag(joint_mass(mesh)), eigvals_only=True,
                               subset_by_index=[0, 0])[0]
    assert Variation(mesh, spec, state, K).lower_bound() == pytest.approx(lowest, rel=1e-10)


@PROPERTY
@given(cases(affine_couplings()), st.floats(0.01, 0.9))
def test_implicit_step_below_convexity_limit_dissipates(case, fraction):
    # With affine coupling and dt < 1/c4 the backward-Euler step minimizes the
    # strictly convex E(y) + |y - x|_M^2 / (2 dt), which is E(x) at y = x.
    spec, mesh, K, state, _ = case
    dt = fraction / max(spec.c4, 0.1)
    new, _ = advance_step(mesh, spec, state, K, dt, "fully_implicit",
                          reject_energy_increase=False)
    delta = new.joint() - state.joint()
    e_old = compute_energy(mesh, spec, state, K).total
    e_new = compute_energy(mesh, spec, new, K).total
    assert e_new + joint_mass(mesh) @ delta**2 / (2 * dt) <= e_old + 1e-10 * max(1.0, abs(e_old))
