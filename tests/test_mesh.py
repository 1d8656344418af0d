"""Geometry construction, quadrature, trace extrapolation, normal derivatives."""

import numpy as np
import pytest

from bsac import (
    ConfigurationError,
    FieldPair,
    advance_step,
    assemble_wentzell_robin_pair,
    boundary_trace,
    build_disk,
    build_interval,
    build_mesh,
    normal_derivative,
    trace_matrix,
)
from bsac.dynamics import _RobinStepper, _TransmissionStepper
from bsac.mesh import matvec, trace_adjoint
from bsac.operators import bulk_dirichlet_stiffness, jacobian_map, surface_stiffness

from conftest import jacobian_at, random_pair


def test_disk_counts_and_exact_area():
    mesh = build_disk(1.0, 4, 8)
    assert mesh.n_bulk == 32
    assert mesh.n_surface == 8
    assert mesh.bulk_weights @ np.ones(32) == pytest.approx(np.pi, rel=1e-14)


def test_interval_counts_and_boundary_measure():
    mesh = build_interval(1.0, 10)
    assert mesh.n_bulk == 10
    assert mesh.n_surface == 2
    assert mesh.surface_weights.sum() == 2.0
    assert mesh.bulk_weights.sum() == pytest.approx(1.0, rel=1e-15)


def test_disk_boundary_measure_scales_with_radius():
    mesh = build_disk(2.0, 8, 16)
    assert mesh.surface_weights.sum() == pytest.approx(4 * np.pi, rel=1e-14)
    assert mesh.bulk_weights.sum() == pytest.approx(4 * np.pi, rel=1e-14)


def test_radial_nodes_cell_centered():
    mesh = build_disk(1.0, 4, 8)
    r = np.hypot(mesh.bulk_points[:, 0], mesh.bulk_points[:, 1])
    h_r = mesh.spacings["h_r"]
    expected = (np.arange(1, 5) - 0.5) * h_r
    assert np.allclose(np.unique(np.round(r, 12)), expected)
    assert r.min() > 0  # no node at the origin


def test_boundary_map_well_formed():
    for mesh in (build_disk(1.0, 5, 12), build_interval(1.0, 7)):
        bm = mesh.boundary_map
        assert bm.shape == (mesh.n_surface, 2)
        assert np.all(bm >= 0) and np.all(bm < mesh.n_bulk)
        assert len(np.unique(bm[:, 0])) == mesh.n_surface


def test_degenerate_sizes_rejected():
    with pytest.raises(ConfigurationError):
        build_disk(1.0, 3, 8)
    with pytest.raises(ConfigurationError):
        build_disk(-1.0, 8, 16)
    with pytest.raises(ConfigurationError):
        build_interval(1.0, 3)
    with pytest.raises(ConfigurationError):
        build_mesh("torus")


def test_integrate_constant_exact_everywhere():
    for mesh in (build_disk(1.0, 6, 12), build_disk(0.7, 9, 20), build_interval(2.0, 13)):
        area = np.pi * mesh.extent**2 if mesh.geometry == "disk" else mesh.extent
        assert mesh.bulk_weights @ np.ones(mesh.n_bulk) == pytest.approx(area, rel=1e-14)
        perim = 2 * np.pi * mesh.extent if mesh.geometry == "disk" else 2.0
        assert (mesh.surface_weights @ np.ones(mesh.n_surface)
                == pytest.approx(perim, rel=1e-14))


def test_quadratic_integration_second_order():
    # closed form: int_disk x^2 = pi/4 on the unit disk
    errs = []
    for n_r, n_t in ((8, 16), (16, 32)):
        mesh = build_disk(1.0, n_r, n_t)
        val = mesh.bulk_weights @ mesh.bulk_points[:, 0] ** 2
        errs.append(abs(val - np.pi / 4))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_trace_reproduces_constants_exactly():
    mesh = build_disk(1.0, 8, 16)
    tr = boundary_trace(mesh, np.full(mesh.n_bulk, 2.75))
    assert np.all(tr == 2.75)


def test_trace_exact_on_radially_affine_fields():
    mesh = build_disk(1.0, 8, 16)
    r = np.hypot(mesh.bulk_points[:, 0], mesh.bulk_points[:, 1])
    tr = boundary_trace(mesh, 0.3 + 1.7 * r)
    assert np.allclose(tr, 2.0, rtol=0, atol=1e-13)


def test_trace_second_order_on_curved_profile():
    errs = []
    for n_r in (8, 16):
        mesh = build_disk(1.0, n_r, 16)
        r = np.hypot(mesh.bulk_points[:, 0], mesh.bulk_points[:, 1])
        errs.append(np.max(np.abs(boundary_trace(mesh, r**3) - 1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.7)


def test_interval_trace_endpoints():
    mesh = build_interval(1.0, 32)
    x = mesh.bulk_points[:, 0]
    tr = boundary_trace(mesh, x)
    assert np.allclose(tr, [0.0, 1.0], atol=1e-13)


def test_one_sided_derivative_manufactured():
    mesh = build_disk(1.0, 32, 16)
    r2 = mesh.bulk_points[:, 0] ** 2 + mesh.bulk_points[:, 1] ** 2
    dnu = normal_derivative(mesh, r2)
    h_r = mesh.spacings["h_r"]
    assert np.max(np.abs(dnu - 2.0)) < 3.0 * h_r


def test_flux_methods_agree_after_implicit_step(dw_spec):
    """After a converged implicit step the Robin identity and the one-sided
    difference see the same boundary layer up to O(h_r)."""
    gaps = []
    for n_r, n_t in ((16, 32), (32, 64)):
        mesh = build_disk(1.0, n_r, n_t)
        x = mesh.bulk_points[:, 0]
        theta = np.arctan2(mesh.surface_points[:, 1], mesh.surface_points[:, 0])
        state = FieldPair(0.8 + 0.2 * x, 0.8 + 0.2 * np.cos(theta))
        new, diag = advance_step(mesh, dw_spec, state, 1.0, 0.02)
        assert diag.accepted
        # the flux the Robin condition assigns, K^-1 (h(phi) - u|_G), at K = 1
        a = dw_spec.eval("h", new.surface) - boundary_trace(mesh, new.bulk)
        b = normal_derivative(mesh, new.bulk)
        gaps.append(np.max(np.abs(a - b)))
    assert gaps[1] < 0.75 * gaps[0]
    assert gaps[0] < 0.1


@pytest.mark.parametrize("geometry", ["disk", "interval"])
def test_matvec_is_scipys_product_bit_for_bit(geometry, dw_spec, disk_small):
    # every operator the package applies by matvec, in the format it has there
    mesh = disk_small if geometry == "disk" else build_interval(1.0, 24)
    limit = _TransmissionStepper(mesh, dw_spec)
    operators = {
        "trace": trace_matrix(mesh),
        "trace adjoint": trace_adjoint(mesh),
        "bulk stiffness": bulk_dirichlet_stiffness(mesh),
        "surface stiffness": surface_stiffness(mesh),
        "jacobian coef": jacobian_map(mesh, 0.5, None).coef,
        "lifted jacobian coef": limit.jac_map.coef,
        "lift adjoint": limit.lift_adjoint,
        "transmission metric": limit.metric,
    }
    assert {a.format for a in operators.values()} == {"csr", "csc"}
    assert operators["trace adjoint"].format == operators["lift adjoint"].format == "csc"
    rng = np.random.default_rng(2)
    for name, a in operators.items():
        wide = rng.standard_normal(3 * a.shape[1])
        for x in (wide[:a.shape[1]], wide[::3]):
            assert np.array_equal(matvec(a, x), a @ x), name
    with pytest.raises(TypeError):
        matvec(trace_matrix(mesh).tocoo(), np.ones(mesh.n_bulk))
    with pytest.raises(ValueError):
        matvec(trace_matrix(mesh), np.ones(mesh.n_bulk + 1))


@pytest.mark.parametrize("geometry", ["disk", "interval"])
def test_matvec_with_values_on_a_pattern_is_that_matrixs_product(geometry, dw_spec,
                                                                   disk_small):
    # CG's product: the Jacobian's values on its stepper's pattern, no matrix built
    mesh = disk_small if geometry == "disk" else build_interval(1.0, 24)
    rng = np.random.default_rng(3)
    for stepper in (_RobinStepper(mesh, dw_spec, 0.5), _TransmissionStepper(mesh, dw_spec)):
        y = stepper.unknowns(random_pair(mesh, rng))
        data = jacobian_at(stepper, y, 0.1)
        x = rng.standard_normal(y.size)
        assert np.array_equal(matvec(stepper.pattern, x, data),
                              stepper.jac_map.matrix(data) @ x)
        with pytest.raises(ValueError):
            matvec(stepper.pattern, x, data[1:])


def test_matvec_over_a_row_range_is_the_sliced_product():
    # eigen_solve's row blocks: 1040 rows of the 20x52 disk are one full
    # block of 1024 and a last partial one of 16; one column takes the
    # one-vector kernel as scipy's product does, 96 the several-vector one
    pair = assemble_wentzell_robin_pair(build_disk(1.0, 20, 52), 1.0)
    rng = np.random.default_rng(4)
    for a in (op.matrix for op in pair):
        assert a.format == "csr" and a.shape[0] == 1040
        wide = rng.standard_normal((a.shape[1], 96))
        arrays = (wide[:, :1], wide, np.ascontiguousarray(wide[:, 0]), wide[:, ::2])
        for rows in (slice(0, 1024), slice(1024, 2048), slice(1040, 2064), slice(7, 7),
                     slice(500, 400), slice(None)):
            for x in arrays:
                got = matvec(a, x, rows=rows)
                assert got.shape == a[rows].shape[:1] + x.shape[1:]
                assert np.array_equal(got, a[rows] @ x), (rows, x.shape)
        for x in arrays:
            assert np.array_equal(matvec(a, x), a @ x)
    with pytest.raises(TypeError):
        matvec(pair[0].matrix.tocsc(), wide, rows=slice(0, 16))
    with pytest.raises(TypeError):
        matvec(pair[0].matrix.tocoo(), wide, rows=slice(0, 16))
    with pytest.raises(ValueError):
        matvec(pair[0].matrix, wide, rows=slice(0, 16, 2))
