"""Energy functional, its first variation, and the dissipation balance."""

import numpy as np
import pytest
import scipy.optimize

from bsac import (
    FieldPair,
    InputError,
    advance_step,
    boundary_trace,
    build_disk,
    build_interval,
    compute_energy,
    compute_gradient,
    energy_identity_residual,
    make_spec,
)
from bsac.energy import variation_energy
from bsac.nonlinearity import CouplingFamily, NonlinearitySpec, PotentialFamily
from bsac.nonlinearity import validate_assumptions
from bsac.operators import Variation

from conftest import random_pair


def constant_pair(mesh, value):
    return FieldPair(np.full(mesh.n_bulk, float(value)),
                     np.full(mesh.n_surface, float(value)))


def test_zero_state_energy_closed_form(dw_spec):
    mesh = build_disk(1.0, 8, 16)
    rep = compute_energy(mesh, dw_spec, constant_pair(mesh, 0.0), 1.0)
    # F(0) = 1/4 over area pi plus perimeter 2 pi; gradient and penalty absent
    assert rep.bulk_dirichlet == 0.0
    assert rep.surface_dirichlet == 0.0
    assert rep.robin_penalty == 0.0
    assert rep.bulk_potential == pytest.approx(np.pi / 4, rel=1e-14)
    assert rep.surface_potential == pytest.approx(np.pi / 2, rel=1e-14)
    assert rep.total == pytest.approx(3 * np.pi / 4, rel=1e-14)


def test_minimum_state_has_zero_energy(dw_spec):
    mesh = build_disk(1.0, 8, 16)
    rep = compute_energy(mesh, dw_spec, constant_pair(mesh, 1.0), 1.0)
    assert rep.total == 0.0
    for part in (rep.bulk_dirichlet, rep.bulk_potential, rep.surface_dirichlet,
                 rep.surface_potential, rep.robin_penalty):
        assert part == 0.0


def test_total_is_sum_of_parts(dw_spec):
    mesh = build_interval(1.0, 16)
    rng = np.random.default_rng(2)
    rep = compute_energy(mesh, dw_spec, random_pair(mesh, rng), 0.3)
    parts = (rep.bulk_dirichlet + rep.bulk_potential + rep.surface_dirichlet
             + rep.surface_potential + rep.robin_penalty)
    assert rep.total == pytest.approx(parts, rel=1e-15)
    assert rep.bulk_dirichlet >= 0 and rep.surface_dirichlet >= 0
    assert rep.robin_penalty >= 0


def test_linear_profile_energy_parts(dw_spec):
    """u = x with phi = cos(theta): both Dirichlet parts are pi/2 and the
    penalty vanishes because the trace of an r-affine field is exact."""
    mesh = build_disk(1.0, 32, 64)
    x = mesh.bulk_points[:, 0]
    theta = np.arctan2(mesh.surface_points[:, 1], mesh.surface_points[:, 0])
    state = FieldPair(x, np.cos(theta))
    rep = compute_energy(mesh, dw_spec, state, 1.0)
    assert rep.bulk_dirichlet == pytest.approx(np.pi / 2, rel=2e-3)
    assert rep.surface_dirichlet == pytest.approx(np.pi / 2, rel=2e-3)
    assert rep.robin_penalty < 1e-25
    # potentials against a 10x-refined quadrature of the same integrand
    fine = build_disk(1.0, 320, 640)
    fx = fine.bulk_points[:, 0]
    ftheta = np.arctan2(fine.surface_points[:, 1], fine.surface_points[:, 0])
    ref_bulk = float(fine.bulk_weights @ ((1 - fx**2) ** 2 / 4))
    ref_surf = float(fine.surface_weights @ ((1 - np.cos(ftheta) ** 2) ** 2 / 4))
    assert rep.bulk_potential == pytest.approx(ref_bulk, rel=1e-3)
    assert rep.surface_potential == pytest.approx(ref_surf, rel=1e-3)


@pytest.mark.parametrize("coupling", ["affine", "tanh"])
@pytest.mark.parametrize("geometry", ["disk", "interval"])
def test_variation_energy_is_compute_energy_bit_for_bit(geometry, coupling):
    # the time loop's report, from the trace and h(phi) of the state's pass
    mesh = build_disk(1.0, 6, 12) if geometry == "disk" else build_interval(1.0, 20)
    spec = make_spec(coupling_kind=coupling)
    rng = np.random.default_rng(11)
    for K in (1.0, 0.03):
        state = random_pair(mesh, rng)
        report = variation_energy(Variation(mesh, spec, state, K))
        assert report == compute_energy(mesh, spec, state, K)


def test_gradient_zero_at_both_uniform_critical_points(dw_spec):
    mesh = build_disk(1.0, 8, 16)
    for value in (0.0, 1.0, -1.0):
        g = compute_gradient(mesh, dw_spec, constant_pair(mesh, value), 1.0)
        # stiffness action on a constant leaves summation-order ulps only
        assert np.max(np.abs(g.bulk)) < 1e-13
        assert np.max(np.abs(g.surface)) < 1e-13


@pytest.mark.parametrize("geometry", ["disk", "interval"])
def test_gradient_matches_central_difference(dw_spec, geometry):
    mesh = build_disk(1.0, 8, 16) if geometry == "disk" else build_interval(1.0, 16)
    rng = np.random.default_rng(7)
    state = random_pair(mesh, rng, amplitude=0.6)
    K = 0.7
    g = compute_gradient(mesh, dw_spec, state, K)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        d = random_pair(mesh, rng)
        ep = compute_energy(mesh, dw_spec, FieldPair(state.bulk + eps * d.bulk,
                                                     state.surface + eps * d.surface), K).total
        em = compute_energy(mesh, dw_spec, FieldPair(state.bulk - eps * d.bulk,
                                                     state.surface - eps * d.surface), K).total
        fd = (ep - em) / (2 * eps)
        pairing = g.bulk @ d.bulk + g.surface @ d.surface
        worst = max(worst, abs(fd - pairing) / max(abs(pairing), 1e-30))
    assert worst < 1e-6


def test_penalty_vanishes_when_trace_equals_coupling(dw_spec):
    mesh = build_disk(1.0, 8, 16)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(mesh.n_bulk)
    state = FieldPair(u, boundary_trace(mesh, u))
    rep = compute_energy(mesh, dw_spec, state, 0.2)
    assert rep.robin_penalty == 0.0


def test_energy_invariant_under_angular_relabeling(dw_spec):
    mesh = build_disk(1.0, 8, 16)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(mesh.n_bulk).reshape(8, 16)
    phi = rng.standard_normal(16)
    e0 = compute_energy(mesh, dw_spec, FieldPair(u.ravel(), phi), 1.0).total
    shift = 5
    e1 = compute_energy(mesh, dw_spec,
                        FieldPair(np.roll(u, shift, axis=1).ravel(),
                                  np.roll(phi, shift)), 1.0).total
    assert e1 == pytest.approx(e0, rel=1e-13)


def test_identity_residual_zero_for_stationary_samples(dw_spec):
    mesh = build_interval(1.0, 16)
    state = constant_pair(mesh, 1.0)
    samples = [(state, 0.0), (state, 0.5), (state, 1.0)]
    res = energy_identity_residual(samples, mesh, dw_spec, 1.0)
    assert np.all(res == 0.0)


def test_identity_residual_rejects_bad_times(dw_spec):
    mesh = build_interval(1.0, 8)
    state = constant_pair(mesh, 0.5)
    with pytest.raises(InputError):
        energy_identity_residual([(state, 0.0)], mesh, dw_spec, 1.0)
    with pytest.raises(InputError):
        energy_identity_residual([(state, 0.5), (state, 0.5)], mesh, dw_spec, 1.0)


def test_identity_residual_sign_and_linear_decay(dw_spec):
    """Backward Euler dissipates: R_n <= 0, and |R_n| shrinks linearly in dt.

    The linear-in-dt regime needs well-prepared data: raw profiles violate
    the boundary compatibility condition, and the resulting initial layer
    makes the first difference quotients blow up as dt shrinks. A short
    burn-in at fixed dt produces data the flow has already prepared.
    """
    mesh = build_interval(1.0, 32)
    x = mesh.bulk_points[:, 0]
    state = FieldPair(1.0 + 0.4 * np.sin(2 * np.pi * x), np.array([1.3, 0.7]))
    for _ in range(20):
        state, _ = advance_step(mesh, dw_spec, state, 1.0, 0.01)
    init = state
    peaks = []
    for dt in (0.02, 0.01):
        state = init
        samples = [(state, 0.0)]
        t = 0.0
        for _ in range(int(round(0.4 / dt))):
            state, diag = advance_step(mesh, dw_spec, state, 1.0, dt)
            assert diag.accepted
            t += dt
            samples.append((state, t))
        res = energy_identity_residual(samples, mesh, dw_spec, 1.0)
        assert np.all(res <= 1e-13)
        peaks.append(np.max(np.abs(res)))
    assert peaks[0] / peaks[1] == pytest.approx(1.9, abs=0.4)


def _diffusion_only_spec():
    zero = {"F": lambda s: np.zeros_like(np.asarray(s, float)),
            "f": lambda s: np.zeros_like(np.asarray(s, float)),
            "f'": lambda s: np.zeros_like(np.asarray(s, float)),
            "f''": lambda s: np.zeros_like(np.asarray(s, float))}
    pot = dict(functions=zero, growth_c=1.0, growth_exp=0.0, lower_c1=0.0,
               lower_c2=0.0, lower_c3=1e30, convexity_c4=0.0)
    spec = NonlinearitySpec(bulk=PotentialFamily("custom", **pot),
                            surface=PotentialFamily("custom", **pot),
                            coupling=CouplingFamily("affine", alpha=0.0, eta=0.0))
    validate_assumptions(spec)
    assert spec.validation.accepted
    return spec


def test_pure_diffusion_run_tracks_separated_decay():
    """With the nonlinearities switched off and h = 0 the bulk equation is the
    heat flow with an elastic boundary condition; starting from the lowest
    separated profile cos(c(x - 1/2)), tan(c/2) = 1/c, the energy decays like
    exp(-2 c^2 t)."""
    spec = _diffusion_only_spec()
    mesh = build_interval(1.0, 64)
    c = scipy.optimize.brentq(lambda c: np.tan(c / 2.0) - 1.0 / c, 1e-3,
                              np.pi - 1e-9, xtol=1e-14)
    lam = c * c
    x = mesh.bulk_points[:, 0]
    state = FieldPair(np.cos(c * (x - 0.5)), np.zeros(2))
    dt = 1e-3
    t, times, energies = 0.0, [], []
    samples = []
    for _ in range(400):
        state, diag = advance_step(mesh, spec, state, 1.0, dt)
        assert diag.accepted
        t += dt
        times.append(t)
        energies.append(compute_energy(mesh, spec, state, 1.0).total)
        samples.append((state, t))
    rate = np.polyfit(times, np.log(energies), 1)[0]
    assert rate == pytest.approx(-2.0 * lam, rel=2e-3)
    res = energy_identity_residual(samples, mesh, spec, 1.0)
    assert np.all(res <= 1e-13)
