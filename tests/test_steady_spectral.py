"""Stationary Newton solves, generalized eigensolves, coercivity scan."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import solve_bvp

from bsac import (
    FieldPair,
    NumericalError,
    RieszMap,
    RunConfig,
    Variation,
    assemble_linearized,
    assemble_surface_shifted_pair,
    assemble_wentzell_robin_pair,
    build_disk,
    build_interval,
    compute_coercivity_margin,
    compute_energy,
    compute_gradient,
    eigen_solve,
    joint_mass,
    make_spec,
    run_trajectory,
    smoothed_random_state,
    solve_stationary_newton,
    strong_form_residuals,
)
from bsac import dynamics, steady_spectral
from bsac.energy import part_norm
from conftest import forbid_sparse_lu, interval_boundary_eigenvalues, random_pair


def uniform_guess(mesh, value):
    return FieldPair(np.full(mesh.n_bulk, value), np.full(mesh.n_surface, value))


def test_newton_finds_both_wells(dw_spec):
    mesh = build_disk(1.0, 12, 24)
    for sign in (1.0, -1.0):
        eq = solve_stationary_newton(mesh, dw_spec, 1.0,
                                     uniform_guess(mesh, 0.9 * sign), 1e-12)
        assert eq.converged
        assert eq.residual_dual_norm < 1e-12
        assert np.max(np.abs(eq.state.bulk - sign)) < 1e-10
        assert np.max(np.abs(eq.state.surface - sign)) < 1e-10


def equilibrium_error(mesh, state, exact):
    """The bulk L2 error plus the surface one."""
    return (part_norm(mesh.bulk_weights, state.bulk - exact.bulk)
            + part_norm(mesh.surface_weights, state.surface - exact.surface))


def test_interval_kink_is_met_at_second_order():
    # u = tanh(a (x - 1/2)) solves u'' = f(u) for the scaled well of
    # amplitude 2 a^2 and width 1. With h = alpha phi and T = tanh(a/2) the
    # Robin condition puts phi at -+phi_1 = -+(K a (1 - T^2) + T) / alpha,
    # and the surface equation f_G(phi_1) = -alpha a (1 - T^2) holds for the
    # odd polynomial f_G = c2 s + c4 s^3 with c2 below; c0 only meets the
    # linear lower bound. The energy is closed form too
    a, K, alpha, c4, c0 = 4.0, 1.0, 1.0, 1.0, 2.0
    T = np.tanh(a / 2)
    phi_1 = (K * a * (1 - T * T) + T) / alpha
    c2 = (-alpha * a * (1 - T * T) - c4 * phi_1**3) / phi_1
    spec = make_spec("scaled", "polynomial", bulk_params={"amplitude": 2 * a * a},
                     surface_params={"coeffs": (c0, 0.0, c2 / 2, 0.0, c4 / 4)},
                     coupling_params={"alpha": alpha})
    assert spec.validation.accepted
    surface_energy = c0 + c2 * phi_1**2 / 2 + c4 * phi_1**4 / 4
    energy = 2 * a * (T - T**3 / 3) + 2 * surface_energy + K * (a * (1 - T * T)) ** 2
    assert energy == pytest.approx(7.8430724, abs=1e-7)
    errors, gaps = [], []
    for n in (16, 32, 64, 128, 256):
        mesh = build_interval(1.0, n)
        kink = FieldPair(np.tanh(a * (mesh.bulk_points[:, 0] - 0.5)), np.array([-phi_1, phi_1]))
        eq = solve_stationary_newton(mesh, spec, K, kink, 1e-11, compute_stability=False)
        assert eq.converged
        errors.append(equilibrium_error(mesh, eq.state, kink))
        gaps.append(abs(compute_energy(mesh, spec, eq.state, K).total - energy))
    # measured: error ratios 4.27, 3.98, 3.99, 4.00 (2.6e-3 to 9.8e-6);
    # energy gap ratios 3.88, 3.96, 3.98, 3.99
    error_ratios = np.divide(errors[:-1], errors[1:])
    gap_ratios = np.divide(gaps[:-1], gaps[1:])
    assert np.all((error_ratios > 3.9) & (error_ratios < 4.4)) and errors[-1] < 1.1e-5
    assert np.all((gap_ratios > 3.8) & (gap_ratios < 4.1)) and gaps[-1] < 5e-5


def test_tanh_coupled_interval_kink_is_met_at_second_order():
    # the kink above with h = s tanh(g phi): the Robin condition K q + T =
    # h(phi_1), q = a (1 - T^2) the kink's slope at the ends, puts phi at
    # -+phi_1 = -+artanh((K q + T) / s) / g, and the surface equation
    # f_G(phi_1) = -h'(phi_1) q fixes c2. h is odd, so the kink stays odd
    a, K, c4, c0, scale, gain = 4.0, 1.0, 1.0, 2.0, 1.5, 0.8
    T = np.tanh(a / 2)
    q = a * (1 - T * T)
    phi_1 = np.arctanh((K * q + T) / scale) / gain
    c2 = (-scale * gain * (1 - ((K * q + T) / scale) ** 2) * q - c4 * phi_1**3) / phi_1
    assert phi_1 == pytest.approx(1.4895518, abs=1e-7)
    assert c2 == pytest.approx(-2.2891811, abs=1e-7)
    spec = make_spec("scaled", "polynomial", "tanh", bulk_params={"amplitude": 2 * a * a},
                     surface_params={"coeffs": (c0, 0.0, c2 / 2, 0.0, c4 / 4)},
                     coupling_params={"scale": scale, "gain": gain})
    assert spec.validation.accepted
    surface_energy = c0 + c2 * phi_1**2 / 2 + c4 * phi_1**4 / 4
    energy = 2 * a * (T - T**3 / 3) + 2 * surface_energy + K * q * q
    assert energy == pytest.approx(6.7852742, abs=1e-7)
    errors, gaps = [], []
    for n in (16, 32, 64, 128, 256, 512):
        mesh = build_interval(1.0, n)
        kink = FieldPair(np.tanh(a * (mesh.bulk_points[:, 0] - 0.5)), np.array([-phi_1, phi_1]))
        eq = solve_stationary_newton(mesh, spec, K, kink, 1e-11, compute_stability=False)
        assert eq.converged and eq.newton_iterations <= 3
        errors.append(equilibrium_error(mesh, eq.state, kink))
        gaps.append(abs(compute_energy(mesh, spec, eq.state, K).total - energy))
    # measured: error ratios 4.35, 4.12, 4.06, 4.03, 4.015 (2.58e-3 to
    # 2.19e-6); energy gap ratios 3.88, 3.96, 3.98, 3.99, 3.995
    error_ratios = np.divide(errors[:-1], errors[1:])
    gap_ratios = np.divide(gaps[:-1], gaps[1:])
    assert np.all((error_ratios > 3.9) & (error_ratios < 4.45)) and errors[-1] < 2.5e-6
    assert np.all((gap_ratios > 3.8) & (gap_ratios < 4.1)) and gaps[-1] < 1.2e-5


def test_interval_kink_stability_threshold_is_met_at_second_order():
    # the kink's zero mode is its translation sech^2(a (x - 1/2)); the
    # linearized boundary conditions hold for it when f_G'(phi_1) (1 - 2 a K
    # T) = 2 a T alpha^2, so the stability tag changes sign at the c4* below.
    # The discrete tag's root in c4, bisected to a width of 1e-6 (Newton
    # stops converging within about 1e-7 of it), meets c4* at second order
    a, K, alpha, c0 = 2.0, 0.1, 1.0, 2.0
    T = np.tanh(a / 2)
    phi_1 = (K * a * (1 - T * T) + T) / alpha
    c4_star = (2 * a * T * alpha**2 / (1 - 2 * a * K * T)
               + alpha * a * (1 - T * T) / phi_1) / (2 * phi_1**2)
    assert c4_star == pytest.approx(3.758157383, abs=1e-9)

    def tag(mesh, c4):
        c2 = (-alpha * a * (1 - T * T) - c4 * phi_1**3) / phi_1
        spec = make_spec("scaled", "polynomial", bulk_params={"amplitude": 2 * a * a},
                         surface_params={"coeffs": (c0, 0.0, c2 / 2, 0.0, c4 / 4)},
                         coupling_params={"alpha": alpha})
        kink = FieldPair(np.tanh(a * (mesh.bulk_points[:, 0] - 0.5)), np.array([-phi_1, phi_1]))
        eq = solve_stationary_newton(mesh, spec, K, kink, 1e-10)
        assert spec.validation.accepted and eq.converged
        return eq.stability_tag

    roots = []
    for n in (32, 64, 128, 256):
        mesh = build_interval(1.0, n)
        lo, hi = 3.7, 3.8
        assert tag(mesh, lo) < 0 < tag(mesh, hi)
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if tag(mesh, mid) < 0 else (lo, mid)
        roots.append((lo + hi) / 2)
    # measured: 3.7538036, 3.7570339, 3.7578747, 3.7580868; gap ratios
    # 3.88, 3.97, 4.00
    gaps = c4_star - np.array(roots)
    ratios = gaps[:-1] / gaps[1:]
    assert np.all(gaps > 0) and gaps[-1] < 8e-5
    assert np.all((ratios > 3.8) & (ratios < 4.1))


def test_radial_disk_equilibrium_meets_the_ode_reference():
    # with eta != 0 the disk equilibrium is radial but not uniform: u'' +
    # u'/r = f(u), u'(0) = 0, K u'(1) + u(1) = alpha phi + eta and f_G(phi) +
    # alpha u'(1) = 0 for the constant phi, which solve_bvp solves with its
    # singular term S. Its Newton directions are CG on the band solve with
    # the surface as border ring
    alpha, eta, K = 0.8, 0.3, 1.0
    spec = make_spec(coupling_params={"alpha": alpha, "eta": eta})

    def flux(r, y, p):
        return np.vstack([y[1], spec.eval("f", y[0])])

    def ends(y0, y1, p):
        return np.array([y0[1], K * y1[1] + y1[0] - alpha * p[0] - eta,
                         spec.eval("f_G", p[0]) + alpha * y1[1]])

    r = np.linspace(0.0, 1.0, 101)
    # about 520 nodes; at tol 1e-12 it stops at the default cap of 1000 (status 1)
    reference = solve_bvp(flux, ends, r, np.vstack([np.ones_like(r), np.zeros_like(r)]),
                          p=[1.0], S=np.diag([0.0, -1.0]), tol=1e-11)
    assert reference.status == 0
    phi = reference.p[0]
    assert phi == pytest.approx(0.98361487, abs=1e-8)
    errors = []
    for n_r in (16, 32, 64, 128, 256):
        mesh = build_disk(1.0, n_r, 4)
        exact = FieldPair(reference.sol(np.hypot(*mesh.bulk_points.T))[0],
                          np.full(mesh.n_surface, phi))
        eq = solve_stationary_newton(mesh, spec, K, uniform_guess(mesh, 1.0), 1e-11,
                                     compute_stability=False)
        assert eq.converged and eq.factorizations == 0 and eq.krylov_iterations > 0
        errors.append(equilibrium_error(mesh, eq.state, exact))
    # measured: 7.3e-5 to 1.8e-7, ratios 4.62, 4.58, 4.47, 4.34
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all((ratios > 4.0) & (ratios < 4.8)) and np.all(np.diff(ratios) < 0)
    assert errors[0] < 1e-4 and errors[-1] < 2e-7


def test_newton_stability_tag_matches_rayleigh_quotient(dw_spec):
    mesh = build_interval(1.0, 32)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9),
                                 1e-12)
    lin = assemble_linearized(mesh, dw_spec, eq.state, 1.0)
    # recompute the smallest eigenvalue directly from the pair
    mass = joint_mass(mesh)
    got = eigen_solve((lin, mass), 1)
    y = got.fields[:, 0]
    rq = (y @ (lin @ y)) / (y @ (mass * y))
    assert eq.stability_tag == pytest.approx(rq, rel=1e-8)
    assert eq.stability_tag == pytest.approx(2.0, rel=1e-10)
    assert eq.is_stable


def test_newton_saddle_has_negative_tag(dw_spec):
    # the zero state is a critical point; its linearization opens downward
    mesh = build_interval(1.0, 24)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.0),
                                 1e-12)
    assert eq.converged
    assert eq.newton_iterations == 0
    assert eq.residual_dual_norm < 1e-13
    assert eq.stability_tag == pytest.approx(-1.0, abs=1e-9)
    assert not eq.is_stable


@pytest.mark.parametrize("mesh_name", ["interval_small", "disk_small"])
def test_line_search_damps_an_overshooting_step(dw_spec, mesh_name, request):
    # f'(0.58) is nearly 0, so the full Newton step from 0.58 lands near 42;
    # the halvings keep the dual norm falling until the +1 well is reached
    mesh = request.getfixturevalue(mesh_name)
    guess = uniform_guess(mesh, 0.58)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, guess, 1e-12)
    assert eq.converged
    assert eq.newton_iterations <= 5
    assert np.max(np.abs(eq.state.joint() - 1.0)) < 1e-10
    # the interval's direction is its band solve; the disk's is CG on one
    assert eq.factorizations == 0
    assert (eq.krylov_iterations > 0) == (mesh_name == "disk_small")
    # without halvings the full step is refused and the solve stops at the guess
    stopped = solve_stationary_newton(mesh, dw_spec, 1.0, guess, 1e-12, max_halvings=0,
                                      compute_stability=False)
    assert not stopped.converged
    assert stopped.newton_iterations == 1
    assert np.array_equal(stopped.state.joint(), guess.joint())


@pytest.mark.parametrize("mesh_name", ["interval_small", "disk_small"])
def test_newton_reaches_the_saddle_from_small_noise(dw_spec, mesh_name, request):
    # the Hessian near 0 is indefinite: CG on the band solve of its angle
    # average must still give usable directions, or the Jacobian is factored
    mesh = request.getfixturevalue(mesh_name)
    guess = smoothed_random_state(mesh, 3, mean=0.0, amplitude=0.05)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, guess, 1e-12)
    assert eq.converged
    assert np.max(np.abs(eq.state.joint())) < 1e-10
    assert eq.stability_tag == pytest.approx(-1.0, abs=1e-9)


def test_singular_jacobian_raises_numerical_error(dw_spec, interval_small, monkeypatch):
    # a singular band factor sends the direction to the sparse LU, which finds
    # it singular too
    class SingularBands(dynamics.RingBands):
        def factor(self, data):
            return None

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(dynamics, "RingBands", SingularBands)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    with pytest.raises(NumericalError, match="singular linearized operator"):
        solve_stationary_newton(interval_small, dw_spec, 1.0,
                                uniform_guess(interval_small, 0.9), 1e-12)


def lu_reference_tag(mesh, spec, state):
    """The stability tag at state by scipy's own shift-invert, a sparse LU,
    called here so that it shares no inverse with eigen_solve; the shift and
    start vector are eigen_solve's."""
    stiff = assemble_linearized(mesh, spec, state, 1.0)
    bound = Variation(mesh, spec, state, 1.0).lower_bound()
    values = scipy.sparse.linalg.eigsh(
        stiff, k=1, M=scipy.sparse.diags(joint_mass(mesh)).tocsr(),
        sigma=bound - 0.01 * (1.0 + abs(bound)), which="LM", tol=0,
        v0=np.random.default_rng(0).standard_normal(stiff.shape[0]),
        return_eigenvectors=False)
    return values[0]


def test_stability_tag_counts_its_solves_and_factors_nothing(dw_spec, disk_mid):
    guess = uniform_guess(disk_mid, 0.9)
    runs = [solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12) for _ in range(2)]
    untagged = solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12,
                                       compute_stability=False)
    counts = [(eq.newton_iterations, eq.factorizations, eq.krylov_iterations,
               eq.stability_tag, eq.stability_path) for eq in runs]
    assert counts[0] == counts[1]
    assert runs[0].factorizations == 0 and runs[0].stability_path == "arpack"
    # the tag's CG iterations add to the same count
    assert runs[0].krylov_iterations > untagged.krylov_iterations


# (spec, K, uniform guess): the +1 well, the radial affine equilibrium, a
# tanh-coupled well at small K and the unstable zero state at large K
TAG_STATES = {
    "well": (make_spec(), 1.0, 0.9),
    "affine": (make_spec(coupling_params={"alpha": 0.8, "eta": 0.3}), 1.0, 1.0),
    "tanh": (make_spec(coupling_kind="tanh",
                       coupling_params={"scale": 1.0, "gain": 1.0, "offset": 0.3}), 0.1, 0.9),
    "saddle": (make_spec(), 10.0, 0.0),
}


@pytest.mark.parametrize("state", TAG_STATES)
@pytest.mark.parametrize("geometry", ["disk", "interval"])
def test_stability_tag_basis_pays_for_its_one_pair(state, geometry, disk_mid, monkeypatch):
    # the tag is the smallest eigenvalue of a dense solve of the same pencil;
    # a Lanczos basis of 4 vectors, not scipy's 20, gets it in at most 12
    # inner solves and, on the disk, 12 CG iterations (measured: 9-11 of
    # each, against 21 solves and 21-22 CG iterations on scipy's basis)
    spec, K, value = TAG_STATES[state]
    mesh = disk_mid if geometry == "disk" else build_interval(1.0, 64)
    solves = Counter()
    shift_inverse = dynamics._RobinStepper.shift_inverse

    def counted(self, variation, shift):
        solve = shift_inverse(self, variation, shift)

        def counted_solve(b):
            solves["tag"] += 1
            return solve(b)

        return counted_solve

    monkeypatch.setattr(dynamics._RobinStepper, "shift_inverse", counted)
    guess = uniform_guess(mesh, value)
    eq = solve_stationary_newton(mesh, spec, K, guess, 1e-12)
    untagged = solve_stationary_newton(mesh, spec, K, guess, 1e-12, compute_stability=False)
    assert eq.converged and eq.stability_path == "arpack"
    dense = scipy.linalg.eigh(assemble_linearized(mesh, spec, eq.state, K).toarray(),
                              np.diag(joint_mass(mesh)), eigvals_only=True,
                              subset_by_index=(0, 0))[0]
    assert abs(eq.stability_tag / dense - 1.0) < 1e-10
    assert (eq.stability_tag < 0) == (state == "saddle")
    assert solves["tag"] <= 12
    tag_cg = eq.krylov_iterations - untagged.krylov_iterations
    assert tag_cg <= 12 if geometry == "disk" else tag_cg == 0


def test_stability_tag_builds_no_sparse_lu(dw_spec, disk_mid, monkeypatch):
    guess = uniform_guess(disk_mid, 0.9)
    eq = solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12)
    reference = lu_reference_tag(disk_mid, dw_spec, eq.state)
    forbid_sparse_lu(monkeypatch)
    again = solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12)
    assert again.stability_path == "arpack" and again.factorizations == 0
    assert again.stability_tag == eq.stability_tag
    assert abs(again.stability_tag / reference - 1.0) < 1e-12


def test_interval_coercivity_scan_builds_no_sparse_lu(dw_spec, monkeypatch):
    # the Wentzell-Robin pencil without the symmetry takes ARPACK, whose
    # shift-invert is the band solve in reverse Cuthill-McKee order
    mesh = build_interval(1.0, 512)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9), 1e-12)
    forbid_sparse_lu(monkeypatch)
    report = compute_coercivity_margin(mesh, dw_spec, 1.0, eq, max_m=12)
    oracle = interval_boundary_eigenvalues(4)
    assert np.max(np.abs(report.lambda_values[:4] / oracle - 1.0)) < 1e-4


def test_joint_pencil_without_shift_inverse_gets_a_narrow_band(dw_spec, monkeypatch):
    # in its natural order the joint interval pencil couples bulk cell 0 to
    # the last unknown, a band of width n; reverse Cuthill-McKee makes it 3
    mesh = build_interval(1.0, 4096)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9), 1e-12)
    widths = []

    class RecordedBands(steady_spectral.RingBands):
        def __init__(self, *args):
            super().__init__(*args)
            widths.append(self.width)

    monkeypatch.setattr(steady_spectral, "RingBands", RecordedBands)
    pencil = (assemble_linearized(mesh, dw_spec, eq.state, 1.0), joint_mass(mesh))
    result = eigen_solve(pencil, 1,
                         lower_bound=Variation(mesh, dw_spec, eq.state, 1.0).lower_bound())
    assert result.path == "arpack"
    assert len(widths) == 1 and widths[0] <= 3
    assert abs(result.values[0] / eq.stability_tag - 1.0) < 1e-12


def test_singular_shifted_factor_raises_numerical_error():
    # the caller's bound puts the shift, bound - 0.01, exactly on an eigenvalue
    stiff = scipy.sparse.diags(np.r_[-0.01, np.arange(1.0, 10.0)]).tocsr()
    with pytest.raises(NumericalError, match="singular shifted factor"):
        eigen_solve((stiff, np.ones(10)), 2, lower_bound=0.0)


def test_stalled_tag_solves_fall_back_to_the_counted_factor(dw_spec, disk_mid, monkeypatch):
    guess = uniform_guess(disk_mid, 0.9)
    cg = solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12)

    def stalled(product, b, precondition, rtol, max_iter):
        return np.zeros_like(b), max_iter, False

    monkeypatch.setattr(dynamics, "_pcg", stalled)
    eq = solve_stationary_newton(disk_mid, dw_spec, 1.0, guess, 1e-12)
    assert eq.converged and eq.stability_path == "arpack"
    # one factor per Newton direction, and one that serves every solve of the tag
    assert eq.factorizations == eq.newton_iterations + 1
    assert abs(eq.stability_tag / lu_reference_tag(disk_mid, dw_spec, eq.state) - 1.0) < 1e-12
    assert abs(eq.stability_tag / cg.stability_tag - 1.0) < 1e-12


def test_newton_nonconvergence_reports_instead_of_raising(dw_spec):
    mesh = build_interval(1.0, 16)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 30.0),
                                 1e-13, max_iter=1, compute_stability=False)
    assert not eq.converged
    assert np.isfinite(eq.residual_dual_norm)
    assert eq.residual_dual_norm > 1e-13


def test_newton_agrees_with_long_run_endpoint(dw_spec):
    config = RunConfig(geometry="interval", n=32, dt=0.05, dt_max=1.0,
                       t_final=30.0, adaptive=True, keep_states=True,
                       seed=5, checkpoint_every=0, spec=dw_spec)
    mesh = config.build_mesh()
    rec = run_trajectory(config, mesh=mesh)
    endpoint = rec.final_state()
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, endpoint, 1e-11)
    assert eq.converged
    assert eq.residual_dual_norm < 1e-11
    gap = max(np.max(np.abs(eq.state.bulk - endpoint.bulk)),
              np.max(np.abs(eq.state.surface - endpoint.surface)))
    assert gap < 1e-4
    # independent residual recomputation through the dual norm
    g = compute_gradient(mesh, dw_spec, eq.state, 1.0)
    assert RieszMap(mesh).dual_norm(g) < 1e-11


def test_strong_form_residuals_vanish_at_equilibrium(dw_spec):
    mesh = build_disk(1.0, 16, 32)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9),
                                 1e-12)
    res = strong_form_residuals(mesh, dw_spec, eq.state, 1.0)
    for key, val in res.items():
        assert np.max(np.abs(val)) < 1e-8, key
    # a perturbed state must not pass
    bent = FieldPair(eq.state.bulk + 0.1, eq.state.surface)
    res2 = strong_form_residuals(mesh, dw_spec, bent, 1.0)
    assert any(np.max(np.abs(v)) > 1e-3 for v in res2.values())


def test_eigen_solve_orthonormality_and_residual_contract():
    mesh = build_disk(1.0, 16, 32)
    pair = assemble_wentzell_robin_pair(mesh, 1.0)
    res = eigen_solve(pair, 8)
    assert res.gram_defect < 1e-8
    assert np.all(res.residuals < 1e-8)
    assert np.all(np.diff(res.values) >= -1e-12)
    # Rayleigh quotient of each returned field reproduces its eigenvalue
    s, m = pair
    for i in range(8):
        y = res.fields[:, i]
        rq = (y @ (s.matrix @ y)) / (y @ (m.matrix @ y))
        assert rq == pytest.approx(res.values[i], rel=1e-8)


# 16x32 has 512 rows, one block of the checks; 20x52 has 1040, a full block
# and a ragged one of 16 rows
@pytest.mark.parametrize("shape, period", [((16, 32), 1), ((16, 32), 32), ((20, 52), 1),
                                           ((20, 52), 52)],
                         ids=["arpack", "blocks", "arpack-20x52", "blocks-20x52"])
def test_array_checks_match_the_column_loop(shape, period):
    # each eigenfield on its own: unit mass norm, the first entry within 1e-8
    # of the largest positive, and its residual and the Gram matrix recomputed
    pair = assemble_wentzell_robin_pair(build_disk(1.0, *shape), 1.0)
    result = eigen_solve(pair, 12, period=period)
    assert result.path == ("arpack" if period == 1 else "blocks")
    stiff, mass = pair[0].matrix, pair[1].matrix
    residuals = []
    for value, y in zip(result.values, result.fields.T):
        assert y @ (mass @ y) == pytest.approx(1.0, abs=1e-14)
        assert y[np.argmax(np.abs(y) >= (1 - 1e-8) * np.max(np.abs(y)))] > 0
        residuals.append(np.linalg.norm(stiff @ y - value * (mass @ y)) / np.linalg.norm(y))
    assert np.allclose(result.residuals, residuals, rtol=0, atol=1e-12)
    gram = np.array([[a @ (mass @ b) for b in result.fields.T] for a in result.fields.T])
    assert result.gram_defect == pytest.approx(np.max(np.abs(gram - np.eye(12))), abs=1e-14)
    again = eigen_solve(pair, 12, period=period)
    assert np.array_equal(again.values, result.values)
    assert np.array_equal(again.fields, result.fields)


def test_checks_cover_the_last_partial_row_block(monkeypatch):
    # one entry of the 20x52 disk's last 16 rows moved by 1e-6 breaks its
    # field's residual
    mesh = build_disk(1.0, 20, 52)
    assert mesh.n_bulk % steady_spectral._LEAD_BLOCK == 16
    solve = steady_spectral._fourier_block_solve

    def perturbed(*args):
        values, fields = solve(*args)
        fields[-5, 3] += 1e-6
        return values, fields

    monkeypatch.setattr(steady_spectral, "_fourier_block_solve", perturbed)
    with pytest.raises(NumericalError, match="residuals not converged"):
        eigen_solve(assemble_wentzell_robin_pair(mesh, 1.0), 12, period=mesh.angular_period)


def test_lead_rows_scan_matches_the_whole_array_rule():
    # the scan from each block's peak magnitudes gives the first entry within
    # 1e-8 of each column's largest magnitude, within a block and across
    # block edges; a mirrored tie goes to the first, and a NaN column, with
    # no such entry, to row 0 as argmax gives
    block = steady_spectral._LEAD_BLOCK
    fields = np.random.default_rng(3).standard_normal((2 * block + 5, 7))
    fields[4, 1], fields[17, 1] = -9.0, 9.0 * (1 - 1e-9)
    fields[block - 1, 2], fields[block, 2] = 9.0 * (1 - 1e-9), -9.0
    fields[block, 3], fields[2 * block + 4, 3] = 9.0, -9.0
    fields[2 * block + 1, 4] = 9.0
    fields[:, 6] = np.nan
    size = np.abs(fields)
    expected = np.argmax(size >= (1.0 - 1e-8) * np.max(size, axis=0), axis=0)
    assert list(expected[1:]) == [4, block - 1, block, 2 * block + 1, expected[5], 0]
    peaks = np.array([np.max(size[start:start + block], axis=0)
                      for start in range(0, len(size), block)])
    assert np.array_equal(steady_spectral._lead_rows(fields, peaks), expected)


@pytest.mark.parametrize("n", [64, 256])
def test_arpack_and_dense_paths_sign_fields_alike(n):
    # an antisymmetric interval mode has equal extremes at mirrored unknowns;
    # the lead entry's tolerance makes its sign independent of the roundoff
    pair = assemble_wentzell_robin_pair(build_interval(1.0, n), 1.0)
    few = eigen_solve(pair, 12)
    full = eigen_solve(pair, pair[0].matrix.shape[0] - 1)
    assert (few.path, full.path) == ("arpack", "dense")
    overlap = np.einsum("ij,ij->j", few.fields, pair[1].matrix @ full.fields[:, :12])
    assert np.allclose(overlap, 1.0, rtol=0, atol=1e-8)


def test_eigen_solve_reruns_are_bitwise():
    # 512 unknowns: the shift-invert Lanczos path, not the dense fallback
    pair = assemble_wentzell_robin_pair(build_disk(1.0, 16, 32), 1.0)
    first = eigen_solve(pair, 6)
    second = eigen_solve(pair, 6)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.fields, second.fields)


@pytest.mark.parametrize("bad, path", [(np.inf, "arpack"), (np.nan, "dense")])
def test_non_finite_pencil_raises_numerical_error(bad, path, monkeypatch):
    # refused before any solve, whichever path the request would take: the
    # dense one for all pairs but one, ARPACK for a few
    stiff, mass = assemble_wentzell_robin_pair(build_disk(1.0, 16, 32), 1.0)
    broken = stiff.matrix.copy()
    broken.data[0] = bad
    count = broken.shape[0] - 1 if path == "dense" else 3

    def no_solve(*args, **kwargs):
        raise AssertionError("a non-finite pencil reached a solver")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_solve)
    monkeypatch.setattr(scipy.linalg, "eigh", no_solve)
    with pytest.raises(NumericalError, match="non-finite"):
        eigen_solve((broken, mass), count)
    with pytest.raises(NumericalError, match="non-finite"):
        eigen_solve((stiff, np.where(np.arange(mass.matrix.shape[0]) == 0, bad,
                                     mass.matrix.diagonal())), count)


def test_arpack_failure_raises_numerical_error(monkeypatch):
    # no re-route to a dense solve: at the sizes ARPACK serves it would
    # densify both matrices of the pencil
    pair = assemble_wentzell_robin_pair(build_disk(1.0, 16, 32), 1.0)

    def failing_eigsh(*args, **kwargs):
        raise RuntimeError("ARPACK error -9999")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    with pytest.raises(NumericalError, match="arpack eigensolve failed: ARPACK error -9999"):
        eigen_solve(pair, 6)


@pytest.mark.parametrize("period", [1, 32], ids=["dense", "blocks"])
def test_mass_without_cholesky_factor_raises_numerical_error(disk_mid, period):
    # a negative weight keeps the mass diagonal, invariant and at offset 0,
    # so the pencil keeps its path, and the mass block's Cholesky factor fails
    stiff, mass = assemble_wentzell_robin_pair(disk_mid, 1.0)
    weights = -mass.matrix.diagonal() if period > 1 else np.where(
        np.arange(stiff.matrix.shape[0]) == 5, -1.0, mass.matrix.diagonal())
    count = 4 if period > 1 else stiff.matrix.shape[0] - 1
    with pytest.raises(NumericalError, match="not positive definite"):
        eigen_solve((stiff, weights), count, period=period)


def _clusters(values):
    """(start, stop) of each run of eigenvalues equal to 1e-8 relative; a run
    that reaches the end of the list may be cut, so it is left out."""
    start = 0
    while start < values.size:
        stop = start + 1
        while stop < values.size and values[stop] - values[start] < 1e-8 * values[start]:
            stop += 1
        if stop < values.size:
            yield start, stop
        start = stop


def assert_same_eigenspaces(first, second, mass):
    # both bases are mass-orthonormal, so the mass norm of the part of one
    # cluster's basis outside the other's span is the projector difference
    for start, stop in _clusters(first.values):
        y_f, y_s = first.fields[:, start:stop], second.fields[:, start:stop]
        outside = y_s - y_f @ (y_f.T @ (mass @ y_s))
        assert np.sqrt(np.max(np.sum(outside * (mass @ outside), axis=0))) < 1e-8


def assert_blocks_match_the_sparse_solve(pair, count, period):
    blocks = eigen_solve(pair, count, period=period)
    sparse = eigen_solve(pair, count)
    assert (blocks.path, sparse.path) == ("blocks", "arpack")
    assert np.max(np.abs(blocks.values / sparse.values - 1.0)) < 1e-9
    assert any(stop - start == 2 for start, stop in _clusters(blocks.values))
    assert_same_eigenspaces(blocks, sparse, pair[1].matrix)


# 128x4 has three Fourier modes, so the 24 pairs reach deep radial indices
@pytest.mark.parametrize("shape", [(16, 32), (32, 64), (128, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("K", [1.0, 0.01])
def test_fourier_blocks_match_the_sparse_solve(shape, K):
    mesh = build_disk(1.0, *shape)
    assert_blocks_match_the_sparse_solve(assemble_wentzell_robin_pair(mesh, K), 24,
                                         mesh.angular_period)


def assert_arpack_matches_a_dense_solve(stiff, mass, count, period):
    # an invariant pencil whose blocks need not rise takes ARPACK even with
    # its period, and agrees with one dense generalized eigh
    result = eigen_solve((stiff, mass), count, period=period)
    assert result.path == "arpack"
    values, fields = scipy.linalg.eigh(stiff.toarray(), mass.toarray(),
                                       subset_by_index=[0, count - 1])
    assert np.max(np.abs(result.values / values - 1.0)) < 1e-9
    assert any(stop - start == 2 for start, stop in _clusters(values))
    assert_same_eigenspaces(result, SimpleNamespace(values=values, fields=fields), mass)


@pytest.mark.parametrize("K", [1e-5, 1e-6, 1e-7])
def test_blocks_meet_the_residual_gate_at_small_robin_strength(K):
    # the trace block scales like 1/K against an absolute 1e-8 gate; one
    # generalized eigh per mode missed it here (1.35e-8, 3.42e-8, 9.07e-8)
    mesh = build_disk(1.0, 64, 128)
    result = eigen_solve(assemble_wentzell_robin_pair(mesh, K), 96,
                         period=mesh.angular_period)
    assert result.path == "blocks"
    assert np.max(result.residuals) < 1e-8


@pytest.mark.parametrize("shape, K", [((256,), 1e-4), ((256,), 1e-5), ((16, 16), 1e-5),
                                      ((8, 16), 1e-7)],
                         ids=["interval-1e-4", "interval-1e-5", "disk16x16-1e-5", "disk8x16-1e-7"])
def test_small_pencils_meet_the_residual_gate_at_small_robin_strength(shape, K):
    # bsac spectrum's 12 pairs. Pencils under 400 unknowns once went through
    # a generalized dense eigh whatever their structure, and missed the gate
    # here (1.8e-8, 3.6e-7, 5.3e-8, 3.6e-6); the disks take the blocks path
    # at any size, the interval ARPACK
    mesh = build_interval(1.0, *shape) if len(shape) == 1 else build_disk(1.0, *shape)
    result = eigen_solve(assemble_wentzell_robin_pair(mesh, K), 12,
                         period=mesh.angular_period)
    assert result.path == ("arpack" if len(shape) == 1 else "blocks")
    assert np.max(result.residuals) < 1e-8


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of scipy.linalg.<name>."""
    calls = []
    function = getattr(scipy.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, name, counted)
    return calls


@pytest.mark.parametrize("count", [2, 7, 12, 24])
def test_the_by_value_cut_chooses_what_a_full_solve_chooses(count, disk_mid, monkeypatch):
    pair = assemble_wentzell_robin_pair(disk_mid, 1.0)
    period = disk_mid.angular_period
    cut = eigen_solve(pair, count, period=period)
    # every mode solved, and each for all its pairs: a full eigh never
    # returns an empty mode, so the modes never stop early
    eigh, eigh_tridiagonal = scipy.linalg.eigh, scipy.linalg.eigh_tridiagonal
    monkeypatch.setattr(scipy.linalg, "eigh", lambda matrix, **kwargs: eigh(matrix))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e, **kwargs: eigh_tridiagonal(d, e, lapack_driver="stemr"))
    full = eigen_solve(pair, count, period=period)
    assert cut.path == full.path == "blocks"
    assert np.allclose(cut.values, full.values, rtol=1e-12, atol=0)
    assert_same_eigenspaces(cut, full, pair[1].matrix)


def test_one_mass_factor_unless_the_mass_blocks_differ(disk_mid, monkeypatch):
    period = disk_mid.angular_period
    stiff, wmass = assemble_wentzell_robin_pair(disk_mid, 1.0)
    factors = count_calls(monkeypatch, "cholesky")
    assert eigen_solve((stiff, wmass), 8, period=period).path == "blocks"
    assert len(factors) == 1
    # same-ring entries at angular offset +-1, a quarter of the cell's weight
    # each, keep the mass invariant and diagonally dominant, but give every
    # mode its own mass block, and the blocks need not rise with the mode
    cells = np.arange(disk_mid.n_bulk)
    across = cells - cells % period + (cells + 1) % period
    faces = scipy.sparse.coo_matrix((0.25 * disk_mid.bulk_weights, (cells, across)),
                                    shape=wmass.matrix.shape)
    general = (wmass.matrix + faces + faces.T).tocsr()
    assert_arpack_matches_a_dense_solve(stiff.matrix, general, 8, period)


@pytest.mark.parametrize("K", [1.0, 1e-2, 1e-5])
@pytest.mark.parametrize("shape", [(8, 16), (16, 32)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("pencil", ["wentzell-robin", "surface"])
def test_tridiagonal_kernel_matches_a_generalized_dense_solve(pencil, shape, K, monkeypatch):
    # the stiffness couples neighbouring rings only and the mass no rings but
    # its last two (the trace's two rings; the surface pencil has one ring),
    # so every radial pencil reduces to a tridiagonal one
    mesh = build_disk(1.0, *shape)
    pair = (assemble_wentzell_robin_pair(mesh, K) if pencil == "wentzell-robin"
            else assemble_surface_shifted_pair(mesh))
    stiff, mass = (op.matrix for op in pair)
    count, period = min(12, stiff.shape[0] - 2), mesh.angular_period
    values, fields = scipy.linalg.eigh(stiff.toarray(), mass.toarray(),
                                       subset_by_index=[0, count - 1])
    reference = SimpleNamespace(values=values, fields=fields)
    solve = steady_spectral._fourier_block_solve
    monkeypatch.setattr(steady_spectral, "_fourier_block_solve",
                        lambda *args: solve(*args[:4], False))
    dense_kernel = eigen_solve(pair, count, period=period)
    monkeypatch.setattr(steady_spectral, "_fourier_block_solve", solve)
    factors, dense, tridiagonal = (count_calls(monkeypatch, name)
                                   for name in ("cholesky", "eigh", "eigh_tridiagonal"))
    result = eigen_solve(pair, count, period=period)
    assert result.path == "blocks"
    assert (len(factors), len(dense)) == (1, 0) and tridiagonal
    assert np.max(np.abs(result.values / values - 1.0)) < 1e-10
    assert np.max(result.residuals) < 1e-8 and result.gram_defect < 1e-8
    assert_same_eigenspaces(result, dense_kernel, mass)
    # the whole-pencil solve is itself only as close as its residuals: 3e-8
    # on 8x16 and 2e-7 on 16x32 at K = 1e-5, against 2e-11 for the blocks
    residuals = (np.linalg.norm(stiff @ fields - (mass @ fields) * values, axis=0)
                 / np.linalg.norm(fields, axis=0))
    if np.max(residuals) < 1e-8:
        assert_same_eigenspaces(result, reference, mass)


def test_a_mass_coupling_two_inner_rings_takes_the_dense_kernel(disk_mid, monkeypatch):
    # entries between rings 2 and 3 at angular offset 0 keep the mass
    # invariant and its blocks rising, but U^-1 then mixes more than the
    # last two rings, and the reduced pencils are not tridiagonal
    period = disk_mid.angular_period
    stiff, wmass = assemble_wentzell_robin_pair(disk_mid, 1.0)
    inner = np.arange(2 * period, 3 * period)
    faces = scipy.sparse.coo_matrix((0.25 * disk_mid.bulk_weights[inner], (inner, inner + period)),
                                    shape=wmass.matrix.shape)
    coupled = (wmass.matrix + faces + faces.T).tocsr()
    assert_arpack_matches_a_dense_solve(stiff.matrix, coupled, 8, 1)
    arpack = eigen_solve((stiff.matrix, coupled), 8)
    dense, tridiagonal = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch,
                                                                       "eigh_tridiagonal")
    blocks = eigen_solve((stiff.matrix, coupled), 8, period=period)
    assert blocks.path == "blocks" and dense and not tridiagonal
    assert np.max(np.abs(blocks.values / arpack.values - 1.0)) < 1e-9
    assert_same_eigenspaces(blocks, arpack, coupled)


def test_fourier_modes_stop_once_no_later_mode_can_contribute(disk_mid, monkeypatch):
    # the per-mode solves of both kernels
    dense, tridiagonal = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch,
                                                                       "eigh_tridiagonal")
    result = eigen_solve(assemble_wentzell_robin_pair(disk_mid, 1.0), 7,
                         period=disk_mid.angular_period)
    modes = disk_mid.angular_period // 2 + 1
    assert result.path == "blocks" and 0 < len(dense) + len(tridiagonal) < modes


def test_pencils_whose_blocks_need_not_rise_take_arpack(disk_mid):
    # same-ring faces at angular offset 2 keep the shift and reflection
    # invariance, but mode k's block then moves like cos(4 pi k / period),
    # so stopping at the first mode above the 8th value kept would miss the
    # low modes near period / 2
    period = disk_mid.angular_period
    stiff, wmass = assemble_wentzell_robin_pair(disk_mid, 1.0)
    cells = np.arange(disk_mid.n_bulk)
    across = cells - cells % period + (cells + 2) % period
    faces = scipy.sparse.coo_matrix((np.full(cells.size, 5.0), (cells, across)),
                                    shape=stiff.matrix.shape)
    faces = faces + faces.T
    skipping = (stiff.matrix + scipy.sparse.diags(np.asarray(faces.sum(axis=1)).ravel())
                - faces).tocsr()
    assert_arpack_matches_a_dense_solve(skipping, wmass.matrix, 8, period)


def test_blocks_only_for_pencils_with_the_symmetry(dw_spec, disk_mid):
    mass = joint_mass(disk_mid)
    period = disk_mid.angular_period
    uniform = assemble_linearized(disk_mid, dw_spec, uniform_guess(disk_mid, 1.0), 1.0)
    blocks = eigen_solve((uniform, mass), 4, period=period)
    assert blocks.path == "blocks"
    assert np.allclose(blocks.values, eigen_solve((uniform, mass), 4).values,
                       rtol=1e-10, atol=0)
    state = random_pair(disk_mid, np.random.default_rng(7), mean=0.9, amplitude=0.1)
    lin = assemble_linearized(disk_mid, dw_spec, state, 1.0)
    assert eigen_solve((lin, mass), 4, period=period).path == "arpack"
    # one entry off by one part in 1e12 breaks the shift invariance
    stiff, wmass = assemble_wentzell_robin_pair(disk_mid, 1.0)
    bent = stiff.matrix.copy()
    bent[5, 5] *= 1.0 + 1e-12
    assert eigen_solve((bent, wmass), 4, period=period).path == "arpack"
    # faces from (ring i, angle j) to (ring i+1, angle j+1) keep the shift
    # invariance but not the reflection
    inner = np.arange(disk_mid.n_bulk - period)
    outer = inner + period - inner % period + (inner + 1) % period
    twist = scipy.sparse.coo_matrix((np.full(inner.size, 0.3), (inner, outer)),
                                    shape=stiff.matrix.shape)
    twist = twist + twist.T
    twisted = (stiff.matrix + scipy.sparse.diags(np.asarray(twist.sum(axis=1)).ravel())
               - twist).tocsr()
    result = eigen_solve((twisted, wmass), 4, period=period)
    assert result.path == "arpack"
    assert np.max(result.residuals) < 1e-8


@pytest.mark.parametrize("count", [2, 7, 12])
def test_fourier_block_reruns_are_bitwise(count, disk_mid):
    pair = assemble_wentzell_robin_pair(disk_mid, 1.0)
    first = eigen_solve(pair, count, period=disk_mid.angular_period)
    second = eigen_solve(pair, count, period=disk_mid.angular_period)
    assert first.path == "blocks"
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.fields, second.fields)


def test_count_two_splits_a_cos_sin_pair(disk_mid):
    # so the rerun case count=2 keeps the cos field of mode 1 and drops its sin
    result = eigen_solve(assemble_wentzell_robin_pair(disk_mid, 1.0), 3,
                         period=disk_mid.angular_period)
    assert result.values[1] == pytest.approx(result.values[2], rel=1e-12)
    assert result.values[0] < 0.99 * result.values[1]
    # cos before sin: the sin field vanishes at angle 0 on every ring
    period = disk_mid.angular_period
    assert np.all(result.fields[::period, 1] != 0)
    assert np.all(result.fields[::period, 2] == 0)


def test_eigen_solve_dense_fallback_tiny_pair():
    # the interval surface pair is 2x2 with identical operators: both
    # eigenvalues are exactly 1 and only the dense path can deliver them
    mesh = build_interval(1.0, 16)
    res = eigen_solve(assemble_surface_shifted_pair(mesh), 2)
    assert np.allclose(res.values, [1.0, 1.0], atol=1e-13)


def test_coercivity_constant_closed_form(dw_spec):
    mesh = build_disk(1.0, 24, 48)
    # the uniform well is an exact discrete equilibrium: Newton accepts the
    # guess with zero iterations and the constant is reproduced exactly
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 1.0),
                                 1e-12)
    assert eq.converged
    assert eq.newton_iterations == 0
    report = compute_coercivity_margin(mesh, dw_spec, 1.0, eq, max_m=12)
    # max(|f'(1)|, 1/2 + |h'|^2 + |f_G'(1)| + 0) = max(2, 3.5)
    assert report.c_star == 3.5
    # from a nearby guess the constant is recovered to solver accuracy
    near = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9),
                                   1e-12)
    rep2 = compute_coercivity_margin(mesh, dw_spec, 1.0, near, max_m=1)
    assert rep2.c_star == pytest.approx(3.5, abs=1e-10)


def test_coercivity_mu_branch_crossing_index(dw_spec):
    # continuum surface branch crosses 8 c* = 28 at the sixth angular mode
    k = np.arange(0, 20)
    mu = 1.0 + k**2
    assert k[np.argmax(mu > 28.0)] == 6


def test_interval_scan_fails_honestly(dw_spec):
    # two boundary points carry no surface diffusion: mu is identically 1,
    # so no m can clear the threshold and the report must say so
    mesh = build_interval(1.0, 32)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, uniform_guess(mesh, 0.9),
                                 1e-12)
    report = compute_coercivity_margin(mesh, dw_spec, 1.0, eq, max_m=8)
    assert not report.succeeded()
    assert report.chosen_m == 0
    assert report.margin <= 0.0
    assert report.mu_values.size >= 1


def test_scan_outcome_across_robin_strengths(dw_spec):
    """Larger K scales the joint threshold down, smaller K inflates c*;
    either way the reported m can only move up or the scan fails."""
    mesh = build_disk(1.0, 64, 128)
    reports = {}
    for K in (0.1, 1.0, 10.0):
        eq = solve_stationary_newton(mesh, dw_spec, K, uniform_guess(mesh, 0.9),
                                     1e-11)
        assert eq.converged
        reports[K] = compute_coercivity_margin(mesh, dw_spec, K, eq, max_m=96)
    assert reports[1.0].succeeded()
    assert reports[1.0].margin > 0.0
    assert reports[1.0].theta_m > 8 * reports[1.0].c_star
    m_ref = reports[1.0].chosen_m
    for K in (0.1, 10.0):
        rep = reports[K]
        assert (not rep.succeeded()) or rep.chosen_m > m_ref
