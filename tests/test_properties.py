"""Property tests over random admissible nonlinearities on small meshes: the
gradient is the derivative of the energy, the second variation is the
derivative of the gradient, and an implicit step below the convexity limit
dissipates energy, for every family and both geometries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsac import (FieldPair, advance_step, assemble_linearized, build_disk, build_interval,
                  compute_energy, compute_gradient, joint_mass, make_spec)

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
    an = assemble_linearized(mesh, spec, state, K).matrix @ d.joint()
    assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)


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
