"""Rate fitting, the empirical gradient-inequality probe, the relaxation
sweep in the boundary parameter, and the limit-set diagnostic."""

import dataclasses

import numpy as np
import pytest

from bsac import (
    ConfigurationError,
    FieldPair,
    InputError,
    RunConfig,
    TrajectoryRecord,
    build_interval,
    convergence_diagnostic,
    fit_decay_rate,
    k_sweep,
    ls_probe,
    majorization_check,
    make_spec,
    run_trajectory,
    solve_stationary_newton,
)
from bsac.analysis import SWEEP_REFERENCES


def test_fit_recovers_power_law():
    t = np.linspace(0.0, 30.0, 200)
    fit = fit_decay_rate((t, 2.5 * (1.0 + t) ** -2.0), model="auto")
    assert fit.model == "power"
    assert fit.exponent == pytest.approx(-2.0, abs=1e-3)
    assert fit.r_squared > 0.999999


def test_fit_recovers_exponential():
    t = np.linspace(0.0, 5.0, 120)
    fit = fit_decay_rate((t, 0.7 * np.exp(-3.0 * t)), model="auto")
    assert fit.model == "exponential"
    assert fit.exponent == pytest.approx(-3.0, abs=1e-3)


def test_fit_survives_multiplicative_noise():
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 5.0, 300)
    vals = np.exp(-3.0 * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = fit_decay_rate((t, vals), model="exponential")
    assert fit.exponent == pytest.approx(-3.0, abs=5e-2)


def test_fit_input_guards():
    t = np.linspace(0, 1, 20)
    with pytest.raises(InputError):
        fit_decay_rate((t, np.linspace(1, -1, 20)))
    with pytest.raises(InputError):
        fit_decay_rate((t[:5], np.exp(-t[:5])))


T20 = np.linspace(0.0, 1.0, 20)


def one_bad(values, bad):
    values = np.array(values, dtype=float)
    values[7] = bad
    return values


def probe_of_a_short_run(spec, window_radius):
    mesh, rec = _settled_run(spec, t_final=1.0, n=16)
    eq = solve_stationary_newton(mesh, spec, 1.0, rec.final_state(), 1e-12)
    return ls_probe(mesh, spec, 1.0, rec, eq, window_radius)


@pytest.mark.parametrize("call, error", [
    (lambda spec: fit_decay_rate((T20, one_bad(np.exp(-T20), np.nan))), InputError),
    (lambda spec: fit_decay_rate((T20, one_bad(np.exp(-T20), np.inf))), InputError),
    (lambda spec: fit_decay_rate((one_bad(T20, np.nan), np.exp(-T20))), InputError),
    (lambda spec: majorization_check(T20, np.exp(-T20), theta=np.nan), InputError),
    (lambda spec: majorization_check(T20, one_bad(np.exp(-T20), np.nan), 0.4), InputError),
    (lambda spec: probe_of_a_short_run(spec, np.nan), ConfigurationError),
], ids=["fit-nan-value", "fit-inf-value", "fit-nan-time", "majorization-nan-theta",
        "majorization-nan-distance", "probe-nan-radius"])
def test_analysis_refuses_nonfinite_input(dw_spec, call, error):
    # as it refuses a nonpositive value, not with a nan result
    with pytest.raises(error):
        call(dw_spec)


def _settled_run(dw_spec, t_final=40.0, n=32, seed=2):
    config = RunConfig(geometry="interval", n=n, dt=0.05, dt_max=0.5,
                       t_final=t_final, adaptive=True, keep_states=True,
                       sample_every=1, checkpoint_every=0, seed=seed,
                       spec=dw_spec)
    mesh = config.build_mesh()
    return mesh, run_trajectory(config, mesh=mesh)


def test_probe_insufficient_data_at_equilibrium(dw_spec):
    mesh = build_interval(1.0, 24)
    flat = FieldPair(np.ones(24), np.ones(2))
    config = RunConfig(geometry="interval", n=24, dt=0.05, t_final=1.0,
                       adaptive=False, keep_states=True, sample_every=1,
                       checkpoint_every=0, spec=dw_spec)
    rec = run_trajectory(config, initial=flat, mesh=mesh)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, flat, 1e-12)
    probe = ls_probe(mesh, dw_spec, 1.0, rec, eq, window_radius=0.5)
    assert not probe.valid
    assert "sample" in probe.reason or "decade" in probe.reason


def test_probe_slope_near_half_for_hyperbolic_well(dw_spec):
    mesh, rec = _settled_run(dw_spec)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, rec.final_state(), 1e-12)
    assert eq.converged
    probe = ls_probe(mesh, dw_spec, 1.0, rec, eq, window_radius=0.5)
    assert probe.valid, probe.reason
    # quadratic energy gap against linear gradient: slope 1 - theta near 1/2
    assert 0.4 < probe.slope < 0.8
    theta = probe.theta
    assert 0.0 < theta <= 0.5
    # fitted-constant form of the inequality holds on the recorded window
    mask = probe.gaps > 0
    lhs = probe.dual_norms[mask]
    rhs = probe.fitted_c * probe.gaps[mask] ** (1.0 - theta)
    assert np.all(lhs >= rhs * (1.0 - 1e-9))


def test_majorization_of_synthetic_exponential_tail():
    t = np.linspace(0.0, 60.0, 400)
    d = 1.4 * np.exp(-0.8 * t)
    ok, c_fit, worst = majorization_check(t, d, theta=0.45)
    assert ok
    assert c_fit > 0


def test_majorization_rejects_slow_decay():
    t = np.linspace(0.0, 60.0, 400)
    d = 1.0 / (1.0 + 0.05 * t) ** 0.2
    theta = 0.45   # demands (1+t)^{-9/2}: far faster than the data
    ok, _, _ = majorization_check(t, d, theta=theta)
    assert not ok


def base_sweep_config(dw_spec, n=32):
    return RunConfig(geometry="interval", n=n, dt=0.01, dt_min=1e-8,
                     dt_max=0.01, t_final=0.4, adaptive=False,
                     keep_states=True, sample_every=1, checkpoint_every=0,
                     seed=12, spec=dw_spec)


def test_sweep_duplicate_k_rows_identical(dw_spec):
    table = k_sweep(base_sweep_config(dw_spec, n=24), [1e-1, 1e-1])
    assert len(table.rows) == 2
    assert table.rows[0].gap == table.rows[1].gap
    assert table.rows[0].mismatch == table.rows[1].mismatch


def test_sweep_gap_shrinks_with_k_and_slopes_in_range(dw_spec):
    table = k_sweep(base_sweep_config(dw_spec),
                    [1e-1, 1e-2, 1e-3, 1e-4])
    gaps = [r.gap for r in table.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert table.gap_slope >= 0.45
    assert 0.8 <= table.mismatch_slope <= 1.2
    lines = table.csv_lines()
    assert lines[0] == "K,gap,mismatch"
    assert len(lines) == 5


def test_sweep_rejects_nonaffine_reference():
    spec = make_spec(coupling_kind="tanh")
    config = dataclasses.replace(base_sweep_config(spec, n=24), spec=spec)
    with pytest.raises(ConfigurationError):
        k_sweep(config, [1e-1, 1e-2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reference", SWEEP_REFERENCES)
def test_sweep_refuses_alpha_zero(reference):
    # the compatible initial state solves alpha phi + eta = Tr u for phi
    spec = make_spec(coupling_params={"alpha": 0.0})
    with pytest.raises(ConfigurationError, match="alpha != 0"):
        k_sweep(base_sweep_config(spec, n=16), [1e-1, 1e-2], reference)


def test_limit_set_constant_trajectory_singleton(dw_spec):
    mesh = build_interval(1.0, 24)
    flat = FieldPair(np.ones(24), np.ones(2))
    config = RunConfig(geometry="interval", n=24, dt=0.05, t_final=1.0,
                       adaptive=False, keep_states=True, sample_every=1,
                       checkpoint_every=0, spec=dw_spec)
    rec = run_trajectory(config, initial=flat, mesh=mesh)
    report = convergence_diagnostic(mesh, rec, [0.2, 0.5, 0.9])
    assert report.singleton
    assert report.verdict == "singleton-consistent"
    assert np.all(report.pairwise_h == 0.0)


def test_limit_set_periodic_signal_rejected(dw_spec):
    mesh = build_interval(1.0, 16)
    times = np.linspace(0.0, 10.0, 101)
    states = [FieldPair(np.full(16, 0.5 + 0.4 * np.sin(2 * np.pi * t)),
                        np.full(2, 0.5)) for t in times]
    zeros = np.zeros(times.size)
    rec = TrajectoryRecord(times, np.zeros((times.size, 5)), zeros,
                           zeros + 1.0, zeros, zeros, states=states)
    report = convergence_diagnostic(mesh, rec, [2.5, 5.0, 7.5, 10.0])
    assert not report.singleton


def test_limit_set_requires_kept_states(dw_spec):
    mesh = build_interval(1.0, 24)
    config = RunConfig(geometry="interval", n=24, dt=0.05, t_final=0.5,
                       adaptive=False, keep_states=False, sample_every=1,
                       checkpoint_every=0, spec=dw_spec)
    rec = run_trajectory(config, mesh=mesh)
    with pytest.raises(InputError):
        convergence_diagnostic(mesh, rec, [0.1, 0.25, 0.4])


def test_probe_requires_kept_states(dw_spec):
    mesh = build_interval(1.0, 24)
    config = RunConfig(geometry="interval", n=24, dt=0.05, t_final=0.5,
                       adaptive=False, keep_states=False, sample_every=1,
                       checkpoint_every=0, spec=dw_spec)
    rec = run_trajectory(config, mesh=mesh)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0, rec.final_state(), 1e-12)
    with pytest.raises(InputError):
        ls_probe(mesh, dw_spec, 1.0, rec, eq, window_radius=0.5)


def test_limit_set_settled_run_is_singleton(dw_spec):
    mesh, rec = _settled_run(dw_spec, t_final=60.0)
    snaps = [15.0, 30.0, 45.0, 60.0]
    report = convergence_diagnostic(mesh, rec, snaps)
    assert report.singleton, report.verdict
    assert np.all(np.diff(report.consecutive_h) <= 1e-12)
