"""Assembled operators against closed-form and root-finding oracles.

The generalized boundary eigenproblem admits separated solutions; its
eigenvalues are roots of scalar characteristic functions (trigonometric on
the interval, Bessel on the disk). Those roots, bracketed and refined with
brentq, are the reference values here.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgttrf, dgttrs, dpttrf, dpttrs

from bsac import (
    ConfigurationError,
    FieldPair,
    NumericalError,
    RieszMap,
    assemble_bulk_laplacian,
    assemble_linearized,
    assemble_surface_shifted_pair,
    assemble_wentzell_robin_pair,
    build_disk,
    build_interval,
    compute_gradient,
    eigen_solve,
    joint_mass,
)
from bsac import dynamics, make_spec, operators, smoothed_random_state
from bsac.operators import (RingBands, bulk_dirichlet_stiffness, h1_solves, jacobian_map,
                            surface_stiffness)

from conftest import disk_boundary_eigenvalues, interval_boundary_eigenvalues, random_pair


def test_bulk_laplacian_interior_rows_annihilate_constants():
    mesh = build_disk(1.0, 8, 16)
    action = assemble_bulk_laplacian(mesh, 1.0) @ np.ones(mesh.n_bulk)
    coupled = set(mesh.boundary_map.ravel().tolist())
    interior = np.array([i for i in range(mesh.n_bulk) if i not in coupled])
    # row sums cancel pairwise by construction; the sparse matvec reassociates
    # the sum, leaving at most a few ulp of the largest face coefficient
    assert np.max(np.abs(action[interior])) < 1e-12


def test_bulk_laplacian_manufactured_quadratic():
    # strong action is mass^{-1} times the form matrix; -Lap(r^2) = -4
    mesh = build_disk(1.0, 16, 32)
    r2 = mesh.bulk_points[:, 0] ** 2 + mesh.bulk_points[:, 1] ** 2
    action = (assemble_bulk_laplacian(mesh, 1.0) @ r2) / mesh.bulk_weights
    coupled = set(mesh.boundary_map.ravel().tolist())
    interior = np.array([i for i in range(mesh.n_bulk) if i not in coupled])
    assert np.max(np.abs(action[interior] + 4.0)) < 1e-10


def test_all_assemblies_exactly_symmetric(dw_spec):
    rng = np.random.default_rng(11)
    for mesh in (build_disk(1.0, 6, 12), build_interval(1.0, 9)):
        mats = [assemble_bulk_laplacian(mesh, 0.7),
                surface_stiffness(mesh),
                *[p.matrix for p in assemble_wentzell_robin_pair(mesh, 0.7)],
                *[p.matrix for p in assemble_surface_shifted_pair(mesh)],
                assemble_linearized(mesh, dw_spec, random_pair(mesh, rng), 0.7)]
        for m in mats:
            assert (m - m.T).nnz == 0 or abs(m - m.T).max() == 0.0


def test_surface_laplacian_circle_fourier_action():
    mesh = build_disk(1.0, 8, 64)
    op = surface_stiffness(mesh)
    assert np.all(op @ np.ones(mesh.n_surface) == 0.0)
    theta = np.arctan2(mesh.surface_points[:, 1], mesh.surface_points[:, 0])
    h_t = mesh.spacings["h_theta"]
    for k in (1, 3):
        w = np.cos(k * theta)
        action = (op @ w) / mesh.surface_weights
        symbol = 4.0 * np.sin(k * h_t / 2.0) ** 2 / h_t**2
        # exact circulant symbol, and the symbol is k^2 + O(h^2)
        assert np.max(np.abs(action - symbol * w)) < 1e-11
        assert abs(symbol - k * k) < k**4 * h_t**2


def test_surface_laplacian_interval_is_zero():
    mesh = build_interval(1.0, 8)
    assert surface_stiffness(mesh).nnz == 0


def test_boundary_pair_constant_quadratic_forms():
    mesh = build_disk(1.0, 12, 24)
    K = 0.5
    stiff, mass = assemble_wentzell_robin_pair(mesh, K)
    ones = np.ones(mesh.n_bulk)
    gamma = 2 * np.pi
    omega = np.pi
    assert ones @ (stiff.matrix @ ones) == pytest.approx(gamma / K, rel=1e-13)
    assert ones @ (mass.matrix @ ones) == pytest.approx(omega + gamma / K, rel=1e-13)


def test_boundary_pair_rayleigh_bound_for_smallest_eigenvalue():
    mesh = build_disk(1.0, 16, 32)
    pair = assemble_wentzell_robin_pair(mesh, 1.0)
    res = eigen_solve(pair, 1)
    bound = (2 * np.pi) / (np.pi + 2 * np.pi)  # constant trial field
    assert 0.0 < res.values[0] <= bound


def test_interval_boundary_spectrum_matches_root_oracle():
    oracle = interval_boundary_eigenvalues(6)
    errs = []
    for n in (64, 128):
        mesh = build_interval(1.0, n)
        res = eigen_solve(assemble_wentzell_robin_pair(mesh, 1.0), 6)
        errs.append(np.max(np.abs(res.values - oracle) / oracle))
    assert errs[0] < 4e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


@pytest.mark.parametrize("path", ["arpack", "blocks"])
def test_disk_boundary_spectrum_matches_bessel_oracle(path):
    oracle = disk_boundary_eigenvalues(5)
    mesh = build_disk(1.0, 32, 64)
    period = mesh.angular_period if path == "blocks" else 1
    res = eigen_solve(assemble_wentzell_robin_pair(mesh, 1.0), 5, period=period)
    assert res.path == path
    rel = np.abs(res.values - oracle) / oracle
    assert np.max(rel) < 3e-3


def test_shifted_surface_pair_constant_mode_exact():
    for n_t in (16, 48):
        mesh = build_disk(1.0, 6, n_t)
        res = eigen_solve(assemble_surface_shifted_pair(mesh), 1)
        assert res.values[0] == pytest.approx(1.0, abs=1e-11)


def test_shifted_surface_spectrum_and_refinement():
    vals = {}
    for n_t in (32, 64):
        mesh = build_disk(1.0, 6, n_t)
        res = eigen_solve(assemble_surface_shifted_pair(mesh), 7)
        vals[n_t] = res.values
    target = np.array([1.0, 2.0, 2.0, 5.0, 5.0, 10.0, 10.0])
    assert np.allclose(vals[64], target, rtol=1e-2)
    # error at the pair k=3 (positions 5, 6) drops by about 4x
    e32 = abs(vals[32][5] - 10.0)
    e64 = abs(vals[64][5] - 10.0)
    assert e32 / e64 == pytest.approx(4.0, abs=0.6)


@pytest.mark.parametrize("n_theta", [16, 128, 256])
def test_circle_surface_pair_matches_its_closed_form(n_theta):
    # the shifted pair on the circle is circulant: mode k of the discrete
    # Laplacian gives mu_k = 1 + 2 (1 - cos(2 pi k / N)) / (R h)^2, h = 2 pi / N
    radius = 1.0
    mesh = build_disk(radius, 4, n_theta)
    res = eigen_solve(assemble_surface_shifted_pair(mesh), n_theta,
                      period=mesh.angular_period)
    assert res.path == "blocks"
    k = np.arange(n_theta)
    oracle = 1.0 + 2.0 * (1.0 - np.cos(2 * np.pi * k / n_theta)) / (
        radius * 2 * np.pi / n_theta) ** 2
    assert np.allclose(res.values, np.sort(oracle), rtol=1e-10, atol=0)


def test_wr_positive_definite_after_robin_closure():
    # the boundary term removes the constant kernel: smallest eigenvalue > 0
    mesh = build_interval(1.0, 32)
    res = eigen_solve(assemble_wentzell_robin_pair(mesh, 2.0), 1)
    assert res.values[0] > 0.0


def test_linearized_matches_fd_jacobian(dw_spec):
    rng = np.random.default_rng(29)
    mesh = build_disk(1.0, 8, 16)
    state = random_pair(mesh, rng, amplitude=0.5)
    K = 0.8
    lin = assemble_linearized(mesh, dw_spec, state, K)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        d = random_pair(mesh, rng)
        joint = np.concatenate([d.bulk, d.surface])
        sp_ = FieldPair(state.bulk + eps * d.bulk, state.surface + eps * d.surface)
        sm = FieldPair(state.bulk - eps * d.bulk, state.surface - eps * d.surface)
        gp = compute_gradient(mesh, dw_spec, sp_, K)
        gm = compute_gradient(mesh, dw_spec, sm, K)
        fd = (np.concatenate([gp.bulk, gp.surface])
              - np.concatenate([gm.bulk, gm.surface])) / (2 * eps)
        an = lin @ joint
        worst = max(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-30))
    assert worst < 1e-6


def test_linearized_surface_reaction_coefficient_at_uniform_state(dw_spec):
    # interval mode has no surface diffusion, so the surface diagonal is the
    # plain reaction weight: f_G'(1) + h'(1)^2 / K = 2 + 1 = 3
    mesh = build_interval(1.0, 8)
    lin = assemble_linearized(mesh, dw_spec, FieldPair(np.ones(8), np.ones(2)), 1.0)
    dense = lin.toarray()
    for j in range(2):
        assert dense[8 + j, 8 + j] == pytest.approx(3.0, abs=1e-13)


def test_riesz_zero_functional(disk_small):
    z = FieldPair(np.zeros(disk_small.n_bulk), np.zeros(disk_small.n_surface))
    assert RieszMap(disk_small).dual_norm(z) == 0.0


def test_riesz_roundtrip_identity(disk_small):
    rng = np.random.default_rng(5)
    mesh = disk_small
    gb = bulk_dirichlet_stiffness(mesh) + sp.diags(mesh.bulk_weights)
    gs = surface_stiffness(mesh) + sp.diags(mesh.surface_weights)
    rb = rng.standard_normal(mesh.n_bulk)
    rs = rng.standard_normal(mesh.n_surface)
    func = FieldPair(gb @ rb, gs @ rs)
    direct = np.sqrt(rb @ (gb @ rb) + rs @ (gs @ rs))
    assert RieszMap(mesh).dual_norm(func) == pytest.approx(direct, rel=1e-10)


def test_riesz_against_dense_factorization():
    mesh = build_disk(1.0, 8, 16)
    rng = np.random.default_rng(17)
    gb = (bulk_dirichlet_stiffness(mesh) + sp.diags(mesh.bulk_weights)).toarray()
    gs = (surface_stiffness(mesh) + sp.diags(mesh.surface_weights)).toarray()
    for _ in range(5):
        f = FieldPair(rng.standard_normal(mesh.n_bulk),
                      rng.standard_normal(mesh.n_surface))
        dense = np.sqrt(f.bulk @ np.linalg.solve(gb, f.bulk)
                        + f.surface @ np.linalg.solve(gs, f.surface))
        assert RieszMap(mesh).dual_norm(f) == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("mesh_name", ["interval_small", "disk_small"])
def test_band_solve_is_exact_on_the_invariant_matrices(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    cases = []      # (matrix, its solve)
    # the Riesz map's H1 blocks and smoothed_random_state's smoothing matrices
    for scale in (1.0, dynamics.RunConfig.init_smoothing):
        blocks = ((bulk_dirichlet_stiffness(mesh), mesh.bulk_weights),
                  (surface_stiffness(mesh), mesh.surface_weights))
        cases += [(scale * stiffness + sp.diags(weights), solve)
                  for (stiffness, weights), solve in zip(blocks, h1_solves(mesh, scale))]

    # the semi-implicit left-hand sides, affine coupling in the matrix and tanh
    # as a source, each with the solve its step took
    state = smoothed_random_state(mesh, 4)
    for coupling in ("affine", "tanh"):
        stepper = dynamics._RobinStepper(mesh, make_spec(coupling_kind=coupling), 0.5)
        factor = stepper.bands.factor

        def recorded(data):
            solve = factor(data)
            cases.append((stepper.jac_map.matrix(data), solve))
            return solve

        stepper.bands.factor = recorded
        stepper.semi_implicit_step(state, stepper.evaluate(state)[1], 0.05)
    assert len(cases) == 6
    rng = np.random.default_rng(8)
    for matrix, solve in cases:
        b = rng.standard_normal(matrix.shape[0])
        assert np.linalg.norm(matrix @ solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def angle_average(matrix, period: int) -> np.ndarray:
    """The mean of a matrix over every angular shift and the reflection, in
    a layout that runs ring by ring through period angles, dense."""
    n = matrix.shape[0]
    ring, angle = np.divmod(np.arange(n), period)
    dense = matrix.toarray()
    mean = sum(dense[np.ix_(p, p)] for p in (ring * period + (angle + s) % period
                                             for s in range(period))) / period
    flip = ring * period + (-angle) % period
    return (mean + mean[np.ix_(flip, flip)]) / 2


def test_band_solve_inverts_the_angle_average(disk_small):
    # on a Jacobian whose reaction varies with the angle the solve is the
    # inverse of the mean over every angular shift and the reflection
    mesh = disk_small
    rng = np.random.default_rng(9)
    n, period = mesh.n_bulk + mesh.n_surface, mesh.angular_period
    jac = jacobian_map(mesh, 0.5, None)
    matrix = jac.matrix(jac.values(joint_mass(mesh) * rng.uniform(1, 30, n),
                                   -mesh.surface_weights * rng.uniform(0, 2, mesh.n_surface)))
    mean = angle_average(matrix, period)
    b = rng.standard_normal(n)
    bands = dynamics._RobinStepper(mesh, make_spec(), 0.5).bands
    x = bands.factor(matrix.data)(b)
    np.testing.assert_allclose(x, np.linalg.solve(mean, b), rtol=1e-10, atol=1e-12)
    assert np.linalg.norm(matrix @ x - b) > 1e-3 * np.linalg.norm(b)
    # a singular band factor is reported, not used
    assert bands.factor(0 * matrix.data) is None


def refuse(*args, **kwargs):
    raise AssertionError("a LAPACK routine this factor must not call")


@pytest.mark.parametrize("dt", [0.05, 1.0, math.inf])
@pytest.mark.parametrize("K", [1.0, 1e-2])
def test_band_solve_of_each_layout_is_the_dense_solve_of_its_average(disk_small, K, dt,
                                                                     monkeypatch):
    # the Robin Jacobian has one border ring, the surface, which the trace
    # reaches across two rings; the transmission Jacobian and the H1 blocks
    # (here at scale K) have none. Near u = 1 every average is SPD, so each
    # takes the L D L' factor and not the pivoted one
    monkeypatch.setattr(operators, "dgttrf", refuse)
    mesh = disk_small
    period, n_b = mesh.angular_period, mesh.n_bulk
    rng = np.random.default_rng(14)
    spec = make_spec()
    state = random_pair(mesh, rng, mean=0.9, amplitude=0.1)
    cases = []      # (layout, matrix, stored values)
    for stepper in (dynamics._RobinStepper(mesh, spec, K),
                    dynamics._TransmissionStepper(mesh, spec)):
        variation = stepper.evaluate(stepper.state_of(stepper.unknowns(state)))[1]
        data = stepper.jacobian(variation, dt)
        cases.append((stepper.bands, stepper.jac_map.matrix(data), data))
    for stiffness, weights, rings in (
            (bulk_dirichlet_stiffness(mesh), mesh.bulk_weights, mesh.rings[:n_b]),
            (surface_stiffness(mesh), mesh.surface_weights, mesh.rings[n_b:])):
        matrix = (K * stiffness + sp.diags(weights)).tocsr()
        cases.append((RingBands(matrix, rings, period), matrix, matrix.data))
    assert [bands.border for bands, _, _ in cases] == [1, 0, 0, 0]
    for bands, matrix, data in cases:
        b = rng.standard_normal(matrix.shape[0])
        np.testing.assert_allclose(bands.factor(data)(b),
                                   np.linalg.solve(angle_average(matrix, period), b),
                                   rtol=1e-10, atol=1e-12)


def uniform_hessian(mesh, bulk: float):
    """The Robin stepper at K = 10 and the stationary Hessian of the state
    that is bulk in the bulk and 0 on the surface, its own angle average.
    At K = 10 the first Robin eigenvalue lies below 1, so f'(0) = -1 makes
    the core indefinite at bulk = 0; at bulk = 1 the core is SPD, but
    f_G'(0) + 1/K < 0 makes the border's Schur complement negative."""
    stepper = dynamics._RobinStepper(mesh, make_spec(), 10.0)
    state = FieldPair(np.full(mesh.n_bulk, bulk), np.zeros(mesh.n_surface))
    return stepper, stepper.jacobian(stepper.evaluate(state)[1], math.inf)


@pytest.mark.parametrize("bulk", [0.0, 1.0], ids=["core", "border"])
def test_an_indefinite_core_takes_the_pivoted_lu_and_a_border_a_negative_schur_step(
        disk_small, bulk, monkeypatch):
    # the indefinite core is factored by dgttrf; the SPD one by dpttrf, and
    # its border's negative Schur complement is kept. CG takes one
    # iteration on a uniform Hessian, which is its own angle average
    pivoted = []
    monkeypatch.setattr(operators, "dgttrf",
                        lambda *args: pivoted.append(1) or dgttrf(*args))
    mesh = disk_small
    stepper, data = uniform_hessian(mesh, bulk)
    matrix = stepper.jac_map.matrix(data)
    core = mesh.rings < mesh.rings.max()        # every ring but the border
    dense = matrix.toarray()
    assert np.linalg.eigvalsh(dense).min() < 0
    assert (np.linalg.eigvalsh(dense[np.ix_(core, core)]).min() > 0) == (bulk == 1.0)
    b = np.random.default_rng(15).standard_normal(matrix.shape[0])
    x_dense = np.linalg.solve(dense, b)
    np.testing.assert_allclose(stepper.bands.factor(data)(b), x_dense, rtol=1e-10, atol=1e-12)
    assert len(pivoted) == (bulk == 0.0)
    x = stepper._solver(data, dynamics.KRYLOV_RTOL)(b)
    assert (stepper.krylov_iterations, stepper.factorizations) == (1, 0)
    assert np.linalg.norm(x - x_dense) <= 1e-6 * np.linalg.norm(x_dense)


@pytest.mark.parametrize("bulk", [0.0, 1.0], ids=["core", "border"])
def test_an_indefinite_average_takes_the_band_lu(disk_small, bulk, monkeypatch):
    # on one angle the average is the matrix itself, and dgbtrf's pivoted
    # band LU factors it whatever its inertia: the uniform Hessians with an
    # indefinite core and with a negative Schur step both solve exactly
    banded = []
    monkeypatch.setattr(operators, "dgbtrf",
                        lambda *args, **kwargs: banded.append(1) or dgbtrf(*args, **kwargs))
    monkeypatch.setattr(operators, "dpttrf", refuse)
    monkeypatch.setattr(operators, "dgttrf", refuse)
    mesh = disk_small
    stepper, data = uniform_hessian(mesh, bulk)
    matrix = stepper.jac_map.matrix(data)
    dense = matrix.toarray()
    assert np.linalg.eigvalsh(dense).min() < 0
    bands = RingBands(matrix, mesh.rings, 1)
    assert bands.exact
    b = np.random.default_rng(15).standard_normal(matrix.shape[0])
    np.testing.assert_allclose(bands.factor(matrix.data)(b), np.linalg.solve(dense, b),
                               rtol=1e-10, atol=1e-12)
    assert banded == [1]


def test_disk_averages_never_take_the_band_lu(disk_small, monkeypatch):
    # dgbtrf serves one angle only: an SPD average, one with a negative
    # Schur step and one with an indefinite core all solve without it
    monkeypatch.setattr(operators, "dgbtrf", refuse)
    monkeypatch.setattr(operators, "dgbtrs", refuse)
    mesh = disk_small
    rng = np.random.default_rng(16)
    n = mesh.n_bulk + mesh.n_surface
    spd = dynamics._RobinStepper(mesh, make_spec(), 0.5)
    cases = [(spd, spd.jac_map.values(joint_mass(mesh) * rng.uniform(1, 30, n),
                                      -mesh.surface_weights * rng.uniform(0, 2, mesh.n_surface)))]
    cases += [uniform_hessian(mesh, bulk) for bulk in (1.0, 0.0)]
    for stepper, data in cases:
        matrix = stepper.jac_map.matrix(data)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(stepper.bands.factor(data)(b),
                                   np.linalg.solve(angle_average(matrix, mesh.angular_period), b),
                                   rtol=1e-10, atol=1e-12)


def fourier_reference(bands, data, pivoted: bool):
    """The solve with the angle average of data, one Fourier mode at a
    time: rfft; the mode's core rings factored by dpttrf, or by dgttrf if
    pivoted, the real and imaginary parts two columns of its solve with
    f2py's copy; the border ring by the mode's Schur complement; irfft."""
    (n_rings, period, _), w = bands.sizes, bands.width
    core = n_rings - 1
    # [row ring - column ring, mode, column ring]: the lower triangle
    lower = bands._band(data)[2 * w:].reshape(w + 1, -1, n_rings)
    factors = []
    for mode in lower.transpose(1, 0, 2):
        if pivoted:
            sub = mode[1, :core - 1]
            *lu, info = dgttrf(sub, mode[0, :core], sub)
            core_solve = functools.partial(lambda lu, b: dgttrs(*lu, b)[0], lu)
        else:
            d, e, info = dpttrf(mode[0, :core], mode[1, :core - 1])
            core_solve = functools.partial(lambda d, e, b: dpttrs(d, e, b)[0], d, e)
        assert info == 0
        edge = np.array([mode[core - ring, ring] for ring in range(core - w, core)])
        column = np.zeros(core)
        column[-w:] = edge
        v = core_solve(column.reshape(-1, 1)).ravel()
        factors.append((core_solve, edge, v, mode[0, core] - (edge * v[-w:]).sum()))

    def solve(b):
        spectrum = np.fft.rfft(b.reshape(n_rings, period))
        modes = np.empty_like(spectrum)
        for m, (core_solve, edge, v, schur) in enumerate(factors):
            z = core_solve(np.column_stack([spectrum[:core, m].real, spectrum[:core, m].imag]))
            y = (np.array([spectrum[core, m].real, spectrum[core, m].imag])
                 - (edge * z[-w:].T).sum(axis=1)) / schur
            z -= v[:, None] * y
            modes[:core, m] = z[:, 0] + 1j * z[:, 1]
            modes[core, m] = y[0] + 1j * y[1]
        return np.fft.irfft(modes, period).ravel()
    return solve


def test_band_solve_is_the_plain_fourier_solve_bit_for_bit(disk_small):
    # on an SPD average, and on one whose stacked core is indefinite, which
    # every mode then factors by the pivoted LU
    mesh = disk_small
    rng = np.random.default_rng(12)
    n = mesh.n_bulk + mesh.n_surface
    spd = dynamics._RobinStepper(mesh, make_spec(), 0.5)
    cases = [(spd, spd.jac_map.values(joint_mass(mesh) * rng.uniform(1, 30, n),
                                      -mesh.surface_weights * rng.uniform(0, 2, mesh.n_surface)),
              False), (*uniform_hessian(mesh, 0.0), True)]
    for stepper, data, pivoted in cases:
        solve = stepper.bands.factor(data)
        reference = fourier_reference(stepper.bands, data, pivoted)
        solved, expected = [], []
        for b in rng.standard_normal((3, n)):
            solved.append(solve(b))
            expected.append(reference(b))
        # each solution its own array, though the solves share their buffers
        assert all(np.array_equal(s, e) for s, e in zip(solved, expected, strict=True))


def test_band_layouts_refuse_rings_coupled_past_their_neighbours(disk_small):
    # past its neighbours only the last ring, the border, may couple: an
    # entry two rings apart in the core, or a second border ring, is refused
    mesh = disk_small
    period, last = mesh.angular_period, mesh.rings[-1]
    pattern = jacobian_map(mesh, 0.5, None).pattern()
    for pair in ((2, 4), (last - 1, last - 3)):
        ends = np.array(pair) * period
        extra = sp.coo_matrix((np.ones(2), (ends, ends[::-1])), shape=pattern.shape)
        with pytest.raises(ValueError, match="neighbours"):
            RingBands((pattern + extra).tocsc(), mesh.rings, period)


def test_band_layouts_with_angles_run_ring_by_ring(disk_small):
    # the disk's unknowns run ring by ring, so its solves gather nothing; a
    # layout with the boundary ring first is refused, on one angle sorted
    mesh = disk_small
    rng = np.random.default_rng(10)
    n, n_b = mesh.n_bulk + mesh.n_surface, mesh.n_bulk
    jac = jacobian_map(mesh, 0.5, None)
    matrix = jac.matrix(jac.values(joint_mass(mesh) * rng.uniform(1, 30, n),
                                   -mesh.surface_weights * rng.uniform(0, 2, mesh.n_surface)))
    order = np.r_[n_b:n, :n_b]
    moved = matrix[order][:, order].tocsc()
    with pytest.raises(ValueError, match="ring by ring"):
        RingBands(moved, mesh.rings[order], mesh.angular_period)
    b = rng.standard_normal(n)
    x = RingBands(matrix, mesh.rings, 1).factor(matrix.data)(b)
    assert np.array_equal(RingBands(moved, mesh.rings[order], 1).factor(moved.data)(b[order]),
                          x[order])


def test_singular_h1_band_factor_raises(disk_small, monkeypatch):
    monkeypatch.setattr(RingBands, "factor", lambda self, data: None)
    with pytest.raises(NumericalError, match="singular H1 band factor"):
        h1_solves(disk_small, 0.5)


def test_nonpositive_k_rejected():
    mesh = build_interval(1.0, 8)
    with pytest.raises(ConfigurationError):
        assemble_bulk_laplacian(mesh, 0.0)
    with pytest.raises(ConfigurationError):
        assemble_wentzell_robin_pair(mesh, -2.0)


def test_joint_mass_concatenates_quadrature(disk_small):
    m = joint_mass(disk_small)
    assert m.shape == (disk_small.n_bulk + disk_small.n_surface,)
    assert np.all(m > 0)
    assert m[: disk_small.n_bulk].sum() == pytest.approx(np.pi, rel=1e-14)
