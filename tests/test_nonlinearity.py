"""Potential and coupling families: closed-form values, derivative chains,
and the sampled admissibility gate."""

import numpy as np
import pytest

from bsac import ConfigurationError, make_spec, validate_assumptions
from bsac.nonlinearity import CouplingFamily, PotentialFamily


def test_double_well_point_values(dw_spec):
    assert dw_spec.eval("F", 0.0) == pytest.approx(0.25, abs=0)
    assert dw_spec.eval("f", 0.0) == 0.0
    assert dw_spec.eval("f'", 0.0) == -1.0
    assert dw_spec.eval("f", 1.0) == 0.0
    assert dw_spec.eval("F", 1.0) == 0.0
    assert dw_spec.eval("f", 0.5) == pytest.approx(0.5**3 - 0.5)
    # surface family is the same double well
    assert dw_spec.eval("f_G'", 1.0) == 2.0


def test_tanh_coupling_curvature_bound():
    spec = make_spec(coupling_kind="tanh")
    assert spec.eval("h'", 0.0) == 1.0
    # independent oracle: scan |h''| on a fine grid, refine by maximizing the
    # exact formula -2 t (1 - t^2) at t = 1/sqrt(3)
    s = np.linspace(-5.0, 5.0, 400001)
    scanned = np.abs(spec.eval("h''", s)).max()
    exact = 4.0 / (3.0 * np.sqrt(3.0))
    assert scanned == pytest.approx(exact, rel=1e-8)
    assert spec.coupling.bound_h2 == pytest.approx(exact, rel=1e-12)
    assert exact == pytest.approx(0.7698, abs=5e-5)


def test_default_spec_accepted_with_expected_constants(dw_spec):
    rep = dw_spec.validation
    assert rep is not None and rep.accepted
    # f'' grows linearly, one-sided bound constant is 1
    assert dw_spec.bulk.growth_exp == 1.0
    assert dw_spec.surface.growth_exp == 1.0
    assert dw_spec.bulk.convexity_c4 == 1.0
    assert dw_spec.c4 == 1.0
    # affine coupling has identically vanishing curvature
    s = np.linspace(-10, 10, 101)
    assert np.all(dw_spec.eval("h''", s) == 0.0)
    assert np.all(dw_spec.eval("h'''", s) == 0.0)


def test_exponential_potential_rejected_on_lower_bound():
    funcs = {"F": np.exp, "f": np.exp, "f'": np.exp, "f''": np.exp}
    fam = PotentialFamily("custom", functions=funcs,
                          growth_c=float(np.exp(10.5)), growth_exp=0.0,
                          convexity_c4=1.0)
    from bsac.nonlinearity import NonlinearitySpec
    spec = NonlinearitySpec(bulk=fam, surface=PotentialFamily("double_well"),
                            coupling=CouplingFamily("affine"))
    rep = validate_assumptions(spec)
    assert not rep.accepted
    failed = {c.name for c in rep.failed_clauses()}
    # exp(s) undershoots every linear lower bound as s -> -inf
    assert "bulk potential linear lower bound" in failed
    assert "bulk second-derivative growth" not in failed


def test_quadratic_coupling_rejected_unbounded_slope():
    funcs = {"h": lambda s: s**2, "h'": lambda s: 2.0 * s,
             "h''": lambda s: np.full_like(np.asarray(s, float), 2.0),
             "h'''": lambda s: np.zeros_like(np.asarray(s, float))}
    from bsac.nonlinearity import NonlinearitySpec
    spec = NonlinearitySpec(bulk=PotentialFamily("double_well"),
                            surface=PotentialFamily("double_well"),
                            coupling=CouplingFamily("custom", functions=funcs,
                                                    bound_h2=2.0, third_c=0.0))
    rep = validate_assumptions(spec)
    assert not rep.accepted
    failed = {c.name for c in rep.failed_clauses()}
    assert "coupling first derivative bounded" in failed


def test_derivative_chain_central_difference(dw_spec):
    s = np.linspace(-10.0, 10.0, 401)
    step = 1e-5
    cd = (dw_spec.eval("F", s + step)
          - dw_spec.eval("F", s - step)) / (2 * step)
    f = dw_spec.eval("f", s)
    rel = np.abs(cd - f) / np.maximum(1.0, np.abs(f))
    assert rel.max() < 1e-8


def test_one_sided_bound_on_scan_grid(dw_spec):
    s = np.linspace(-10.0, 10.0, 2001)
    c4 = dw_spec.c4
    assert np.all(dw_spec.eval("f'", s) + c4 >= 0.0)
    assert np.all(dw_spec.eval("f_G'", s) + c4 >= 0.0)


def test_scan_grid_too_coarse_rejected(dw_spec):
    with pytest.raises(ConfigurationError):
        validate_assumptions(make_spec(validate=False), scan_points=999)


def test_unknown_selector(dw_spec):
    with pytest.raises(ConfigurationError):
        dw_spec.eval("g", 0.0)
