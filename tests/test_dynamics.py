"""Time integration: monotone decay, determinism, failure paths, resume,
and the trace-constrained limit system."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bsac import (
    Checkpoint,
    ConfigurationError,
    FieldPair,
    InputError,
    NonlinearitySpec,
    RunAbort,
    RunConfig,
    ShapeError,
    advance_step,
    boundary_trace,
    build_disk,
    build_interval,
    compute_energy,
    h_norm,
    initial_state,
    make_spec,
    read_checkpoint,
    run_trajectory,
    smoothed_random_state,
    solve_transmission_limit,
    write_checkpoint,
)

from bsac import dynamics, operators
from bsac.dynamics import _integrate, _RobinStepper, _TransmissionStepper
from bsac.errors import StepFailure
from bsac.mesh import matvec
from bsac.operators import RieszMap

from conftest import jacobian_at, random_pair


def small_config(dw_spec, **over):
    base = dict(geometry="interval", n=24, dt=0.02, dt_min=1e-6, dt_max=0.5,
                t_final=0.5, seed=3, adaptive=False, keep_states=True,
                checkpoint_every=5, spec=dw_spec)
    base.update(over)
    return RunConfig(**base)


@pytest.mark.parametrize("scheme", ["fully_implicit", "stabilized_semi_implicit"])
def test_uniform_minimum_is_a_fixed_point(dw_spec, scheme):
    mesh = build_interval(1.0, 16)
    state = FieldPair(np.ones(16), np.ones(2))
    new, diag = advance_step(mesh, dw_spec, state, 1.0, 0.1, scheme)
    assert diag.accepted
    assert np.max(np.abs(new.bulk - 1.0)) < 1e-9
    assert np.max(np.abs(new.surface - 1.0)) < 1e-9


@pytest.mark.parametrize("scheme, coupling, mesh", [
    pytest.param("fully_implicit", "affine", build_interval(1.0, 24), id="fully_implicit"),
    pytest.param("stabilized_semi_implicit", "affine", build_interval(1.0, 24),
                 id="stabilized_semi_implicit"),
    # a nonaffine coupling is explicit: the step is one block-diagonal solve
    pytest.param("stabilized_semi_implicit", "tanh", build_disk(1.0, 8, 16),
                 id="stabilized_semi_implicit-tanh-disk"),
])
def test_hundred_steps_monotone_from_random_state(scheme, coupling, mesh):
    spec = make_spec(coupling_kind=coupling)
    rng = np.random.default_rng(17)
    state = random_pair(mesh, rng, mean=0.2, amplitude=0.5)
    energy = compute_energy(mesh, spec, state, 1.0).total
    for _ in range(100):
        state, diag = advance_step(mesh, spec, state, 1.0, 0.05, scheme)
        assert diag.accepted
        assert diag.energy_new <= energy + 1e-12 * max(1.0, abs(energy))
        energy = diag.energy_new


def test_zero_horizon_gives_single_sample(dw_spec):
    record = run_trajectory(small_config(dw_spec, t_final=0.0))
    assert record.n_samples() == 1
    assert record.times[0] == 0.0
    assert len(record.states) == 1


def test_identical_configs_are_bitwise_identical(dw_spec):
    a = run_trajectory(small_config(dw_spec))
    b = run_trajectory(small_config(dw_spec))
    assert np.array_equal(a.rows(), b.rows())
    assert all(np.array_equal(x.bulk, y.bulk) and np.array_equal(x.surface, y.surface)
               for x, y in zip(a.states, b.states))


def test_seed_changes_trajectory(dw_spec):
    a = run_trajectory(small_config(dw_spec))
    b = run_trajectory(small_config(dw_spec, seed=4))
    assert not np.array_equal(a.rows(), b.rows())


def test_resume_from_checkpoint_reproduces_tail(dw_spec):
    config = small_config(dw_spec)
    checkpoints = []
    full = run_trajectory(config, on_checkpoint=checkpoints.append)
    cp = checkpoints[2]
    assert 0 < cp.time < config.t_final
    tail = run_trajectory(config, resume=cp)
    full_rows = full.rows()
    tail_rows = tail.rows()
    mask = full.times > cp.time + 1e-15
    assert np.array_equal(full_rows[mask], tail_rows)


def test_checkpoint_file_roundtrip_bitwise(tmp_path, dw_spec):
    mesh = build_interval(1.0, 24)
    rng = np.random.default_rng(5)
    state = random_pair(mesh, rng)
    cp = Checkpoint(7, 0.35, 0.0123456789012345, 3, state)
    path = tmp_path / "checkpoint_7.txt"
    write_checkpoint(path, cp, "deadbeef")
    back, tag = read_checkpoint(path)
    assert tag == "deadbeef"
    assert back.step == 7 and back.accept_streak == 3
    assert back.time == cp.time and back.dt_policy == cp.dt_policy
    assert np.array_equal(back.state.bulk, state.bulk)
    assert np.array_equal(back.state.surface, state.surface)


@pytest.mark.parametrize("damage, field", [
    (lambda text: text[:text.index("surface =")], "surface"),
    (lambda text: text.replace("bulk = ", "bulk = 0xzz ", 1), "bulk"),
    (lambda text: text.replace("step = 7", "step = seven"), "step"),
])
def test_malformed_checkpoint_raises_input_error(tmp_path, damage, field):
    mesh = build_interval(1.0, 8)
    path = tmp_path / "checkpoint_7.txt"
    write_checkpoint(path, Checkpoint(7, 0.35, 0.01, 3,
                                      random_pair(mesh, np.random.default_rng(2))))
    path.write_text(damage(path.read_text()))
    with pytest.raises(InputError, match=f"'{field}'"):
        read_checkpoint(path)


def test_checkpoint_with_an_edited_state_value_raises_input_error(tmp_path):
    # a well-formed, finite value that is not the one written fails the
    # state checksum; the other fields are still checked first
    mesh = build_interval(1.0, 8)
    path = tmp_path / "checkpoint_7.txt"
    write_checkpoint(path, Checkpoint(7, 0.35, 0.01, 3,
                                      random_pair(mesh, np.random.default_rng(2))))
    text = path.read_text()
    last = text.rindex(" ") + 1
    path.write_text(text[:last] + "0x1.8p+0\n")
    with pytest.raises(InputError, match="state_sha256"):
        read_checkpoint(path)
    path.write_text(text[:last] + "0x1.8p+0\n" + "step = seven\n")
    with pytest.raises(InputError, match="'step'"):
        read_checkpoint(path)


def test_failed_checkpoint_write_leaves_no_partial_file(tmp_path):
    mesh = build_interval(1.0, 8)
    good = Checkpoint(7, 0.35, 0.01, 3, random_pair(mesh, np.random.default_rng(2)))
    kept = tmp_path / "checkpoint_7.txt"
    write_checkpoint(kept, good, "deadbeef")
    before = kept.read_bytes()
    # an integer surface has no float.hex: the write fails after the bulk line
    bad = dataclasses.replace(good, state=good.state.copy())
    bad.state.surface = np.array([1, 2])
    for path in (tmp_path / "checkpoint_8.txt", kept):
        with pytest.raises(AttributeError):
            write_checkpoint(path, bad, "deadbeef")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_7.txt"]
    assert kept.read_bytes() == before


def test_adaptive_growth_after_five_acceptances(dw_spec):
    config = small_config(dw_spec, adaptive=True, dt=0.01, t_final=0.12,
                          sample_every=1)
    record = run_trajectory(config)
    diffs = np.diff(record.times)
    assert np.allclose(diffs[:5], 0.01, rtol=1e-12)
    assert diffs[5] == pytest.approx(0.012, rel=1e-12)


def test_dt_clamped_at_dt_max(dw_spec):
    config = small_config(dw_spec, adaptive=True, dt=0.05, dt_max=0.06,
                          t_final=1.0)
    record = run_trajectory(config)
    assert np.max(np.diff(record.times)) <= 0.06 + 1e-12


def _rough_pair(mesh):
    rng = np.random.default_rng(8)
    return FieldPair(2.0 * rng.standard_normal(mesh.n_bulk),
                     2.0 * rng.standard_normal(mesh.n_surface))


def test_rejection_then_abort_carries_partial_record(dw_spec):
    # a single Newton iteration cannot reach 1e-14 from rough data, so every
    # attempted dt fails and the halving cascade runs into dt_min
    mesh = build_interval(1.0, 24)
    config = small_config(dw_spec, adaptive=True, dt=10.0, dt_min=2.0,
                          dt_max=10.0, t_final=40.0, newton_tol=1e-14,
                          newton_max_iter=1)
    with pytest.raises(RunAbort, match="dt underflow") as info:
        run_trajectory(config, initial=_rough_pair(mesh), mesh=mesh)
    partial = info.value.partial_record
    assert partial is not None
    assert partial.diagnostics["aborted"]
    assert partial.diagnostics["rejected"] >= 3
    assert partial.n_samples() >= 1


def test_fixed_dt_rejection_aborts_immediately(dw_spec):
    mesh = build_interval(1.0, 24)
    config = small_config(dw_spec, adaptive=False, dt=10.0, dt_max=10.0,
                          t_final=40.0, newton_tol=1e-14, newton_max_iter=1)
    with pytest.raises(RunAbort, match="fixed dt"):
        run_trajectory(config, initial=_rough_pair(mesh), mesh=mesh)


@pytest.fixture(scope="module")
def steep_wells():
    # scaled wells of amplitude 50 and a start of small noise about their
    # barrier at 0: a step of 0.5 overshoots, and the energy rises
    mesh = build_interval(1.0, 16)
    params = {"amplitude": 50.0, "width": 1.0}
    spec = make_spec("scaled", "scaled", bulk_params=params, surface_params=params)
    start = smoothed_random_state(mesh, 0, mean=0.0, amplitude=0.2, smoothing=0.001)
    config = RunConfig(geometry="interval", n=16, dt=0.5, dt_max=0.5, t_final=2.0,
                       checkpoint_every=0, spec=spec)
    return mesh, spec, start, config


def test_step_that_raises_the_energy_is_rejected(steep_wells):
    mesh, spec, start, _ = steep_wells
    _, diag = advance_step(mesh, spec, start, 1.0, 0.5)
    assert not diag.accepted and diag.reason == "energy increased by 1.04"
    assert (diag.energy_old, diag.energy_new) == pytest.approx((36.4526, 37.4971), abs=1e-4)
    _, diag = advance_step(mesh, spec, start, 1.0, 0.5, reject_energy_increase=False)
    assert diag.accepted and diag.energy_new > diag.energy_old


def test_energy_rejections_halve_dt_or_abort_a_fixed_dt_run(steep_wells):
    mesh, _, start, config = steep_wells
    record = run_trajectory(config, initial=start, mesh=mesh)
    assert (record.diagnostics["accepted"], record.diagnostics["rejected"]) == (35, 4)
    assert np.all(np.diff(record.energy_total) <= 0)
    with pytest.raises(RunAbort) as info:
        run_trajectory(dataclasses.replace(config, adaptive=False), initial=start, mesh=mesh)
    assert str(info.value) == "step rejected with fixed dt: energy increased by 1.04"
    # no step was accepted: the record ends in the start
    assert np.array_equal(info.value.partial_record.final_state().joint(), start.joint())


@pytest.mark.parametrize("keep_states, sample_every", [(False, 1), (True, 2)])
def test_aborted_record_ends_in_its_last_accepted_state(dw_spec, keep_states, sample_every,
                                                        monkeypatch):
    # three steps accepted and the fourth failed with fixed dt: the record
    # ends as a run to the third step's time ends, not at the checkpoint of
    # the second step nor at the sample of the second
    dt = 2.0 ** -6     # step times are exact, so both runs take the same steps
    config = small_config(dw_spec, dt=dt, dt_min=dt, keep_states=keep_states,
                          sample_every=sample_every, checkpoint_every=2)
    finished = run_trajectory(dataclasses.replace(config, t_final=3 * dt))
    advance, calls = _RobinStepper.advance, []

    def fourth_fails(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise StepFailure("injected failure")
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(_RobinStepper, "advance", fourth_fails)
    checkpoints = []
    with pytest.raises(RunAbort, match="fixed dt: injected failure") as info:
        run_trajectory(config, on_checkpoint=checkpoints.append)
    record = info.value.partial_record
    assert [cp.step for cp in checkpoints] == [2]
    assert record.times[-1] == 3 * dt
    assert np.array_equal(record.rows(), finished.rows())
    assert np.array_equal(record.final_state().joint(), finished.final_state().joint())
    assert len(record.states) == (record.n_samples() if keep_states else 1)


def test_smoothed_initial_state_deterministic_and_centered():
    mesh = build_disk(1.0, 16, 32)
    a = smoothed_random_state(mesh, 9, mean=0.4, amplitude=0.2)
    b = smoothed_random_state(mesh, 9, mean=0.4, amplitude=0.2)
    assert np.array_equal(a.bulk, b.bulk)
    assert np.array_equal(a.surface, b.surface)
    assert abs(np.mean(a.bulk) - 0.4) < 0.1
    assert np.std(a.bulk) < 0.5


def test_compatibility_diagnostic_reported(dw_spec):
    record = run_trajectory(small_config(dw_spec, t_final=0.1))
    assert "compatibility_residual" in record.diagnostics
    assert record.diagnostics["compatibility_residual"] >= 0.0
    # a uniform minimum satisfies the boundary balance identically
    mesh = build_interval(1.0, 24)
    flat = FieldPair(np.ones(24), np.ones(2))
    rec2 = run_trajectory(small_config(dw_spec, t_final=0.1), initial=flat,
                          mesh=mesh)
    assert rec2.diagnostics["compatibility_residual"] < 1e-12


def test_continuous_dependence_linear_in_perturbation(dw_spec):
    mesh = build_interval(1.0, 32)
    base = smoothed_random_state(mesh, 11, mean=0.3, amplitude=0.3)
    rng = np.random.default_rng(13)
    direction = random_pair(mesh, rng)
    nrm = h_norm(mesh, direction.bulk, direction.surface)
    gaps = {}
    config = small_config(dw_spec, n=32, dt=0.02, t_final=1.0)
    ref = run_trajectory(config, initial=base, mesh=mesh)
    for delta in (1e-3, 1e-4):
        pert = FieldPair(base.bulk + delta / nrm * direction.bulk,
                         base.surface + delta / nrm * direction.surface)
        rec = run_trajectory(config, initial=pert, mesh=mesh)
        gaps[delta] = h_norm(mesh, rec.final_state().bulk - ref.final_state().bulk,
                             rec.final_state().surface - ref.final_state().surface)
    ratio = gaps[1e-3] / gaps[1e-4]
    assert 5.0 < ratio < 20.0


def test_schemes_agree_to_first_order_in_dt(dw_spec):
    mesh = build_interval(1.0, 32)
    init = smoothed_random_state(mesh, 7, mean=0.3, amplitude=0.3)
    gaps = []
    for dt in (0.02, 0.01):
        finals = {}
        for scheme in ("fully_implicit", "stabilized_semi_implicit"):
            config = small_config(dw_spec, n=32, dt=dt, t_final=1.0,
                                  scheme=scheme)
            rec = run_trajectory(config, initial=init, mesh=mesh)
            finals[scheme] = rec.final_state()
        gaps.append(h_norm(mesh,
                           finals["fully_implicit"].bulk
                           - finals["stabilized_semi_implicit"].bulk,
                           finals["fully_implicit"].surface
                           - finals["stabilized_semi_implicit"].surface))
    assert 1.4 < gaps[0] / gaps[1] < 2.9


def test_transmission_keeps_trace_constraint(dw_spec):
    mesh = build_interval(1.0, 32)
    u0 = smoothed_random_state(mesh, 21, mean=0.5, amplitude=0.3).bulk
    init = FieldPair(u0, boundary_trace(mesh, u0))
    rec = solve_transmission_limit(mesh, dw_spec, init, 0.5, 0.01)
    for st in rec.states:
        gap = boundary_trace(mesh, st.bulk) - st.surface  # h(s) = s
        assert np.max(np.abs(gap)) < 1e-12


def test_transmission_fixed_point(dw_spec):
    mesh = build_interval(1.0, 16)
    init = FieldPair(np.ones(16), np.ones(2))
    rec = solve_transmission_limit(mesh, dw_spec, init, 0.2, 0.05)
    final = rec.final_state()
    assert np.max(np.abs(final.bulk - 1.0)) < 1e-9
    assert np.max(np.abs(final.surface - 1.0)) < 1e-9


def test_transmission_rejection_aborts_with_reason(dw_spec):
    # one Newton iteration cannot reach 1e-14 from rough data
    mesh = build_interval(1.0, 24)
    with pytest.raises(RunAbort, match="iteration cap reached") as info:
        solve_transmission_limit(mesh, dw_spec, _rough_pair(mesh), 40.0, 10.0,
                                 newton_tol=1e-14, newton_max_iter=1)
    partial = info.value.partial_record
    assert partial.diagnostics["aborted"] and partial.diagnostics["rejected"] == 1
    assert partial.n_samples() == 1


def test_transmission_resume_from_checkpoint_reproduces_tail(dw_spec):
    mesh = build_interval(1.0, 32)
    u0 = smoothed_random_state(mesh, 21, mean=0.5, amplitude=0.3).bulk
    init = FieldPair(u0, boundary_trace(mesh, u0))
    plain = solve_transmission_limit(mesh, dw_spec, init, 0.3, 0.01)
    stepper = _TransmissionStepper(mesh, dw_spec)
    config = small_config(dw_spec, n=32, dt=0.01, dt_min=0.01, dt_max=0.01,
                          t_final=0.3, newton_tol=1e-11, checkpoint_every=7)
    checkpoints = []
    full = _integrate(stepper, config, stepper.state_of(u0.copy()),
                      on_checkpoint=checkpoints.append)
    assert np.array_equal(full.rows(), plain.rows())
    cp = checkpoints[1]
    assert cp.step == 14
    tail = _integrate(stepper, config, cp)
    mask = full.times > cp.time + 1e-15
    assert np.array_equal(full.rows()[mask], tail.rows())
    kept = [st for st, later in zip(full.states, mask) if later]
    assert len(kept) == len(tail.states)
    assert all(np.array_equal(a.bulk, b.bulk) and np.array_equal(a.surface, b.surface)
               for a, b in zip(kept, tail.states))


def test_transmission_requires_affine_nonzero_slope():
    tanh_spec = make_spec(coupling_kind="tanh")
    flat_spec = make_spec(coupling_params={"alpha": 0.0})
    mesh = build_interval(1.0, 16)
    init = FieldPair(np.zeros(16), np.zeros(2))
    with pytest.raises(ConfigurationError):
        solve_transmission_limit(mesh, tanh_spec, init, 0.1, 0.05)
    with pytest.raises(ConfigurationError):
        solve_transmission_limit(mesh, flat_spec, init, 0.1, 0.05)


def test_transmission_on_disk_with_shifted_affine_coupling(disk_small):
    alpha, eta = 0.8, 0.3
    spec = make_spec(coupling_params={"alpha": alpha, "eta": eta})
    mesh = disk_small
    u0 = smoothed_random_state(mesh, 5, mean=0.5, amplitude=0.3).bulk
    rec = solve_transmission_limit(mesh, spec, FieldPair(u0, np.zeros(mesh.n_surface)),
                                   0.5, 0.02)
    for st in rec.states:
        gap = boundary_trace(mesh, st.bulk) - (alpha * st.surface + eta)
        assert np.max(np.abs(gap)) < 1e-12
    drops = np.diff(rec.energy_total)
    assert np.all(drops <= 1e-12 * np.maximum(1.0, np.abs(rec.energy_total[:-1])))
    assert rec.energy_total[-1] < rec.energy_total[0]
    assert rec.diagnostics["newton_iterations"] >= rec.diagnostics["accepted"] == 25

    # the pulled-back Jacobian is the derivative of the pulled-back residual
    stepper = _TransmissionStepper(mesh, spec)
    rng = np.random.default_rng(11)
    dt = 0.02
    x = rec.states[3].bulk
    y = x + 0.05 * rng.standard_normal(mesh.n_bulk)
    jac = stepper.jac_map.matrix(jacobian_at(stepper, y, dt))

    def residual(z):
        return stepper.residual(z, x, dt, stepper.evaluate(stepper.state_of(z))[0])

    eps = 1e-6
    for _ in range(5):
        d = rng.standard_normal(mesh.n_bulk)
        fd = (residual(y + eps * d) - residual(y - eps * d)) / (2 * eps)
        an = jac @ d
        assert np.linalg.norm(fd - an) <= 1e-7 * np.linalg.norm(an)


def test_small_k_runs_approach_transmission_monotonically(dw_spec):
    """The elastic boundary runs close in on the constrained limit as K
    drops; the sup-over-time gap must shrink with K."""
    mesh = build_interval(1.0, 32)
    u0 = smoothed_random_state(mesh, 31, mean=0.4, amplitude=0.2).bulk
    init = FieldPair(u0, boundary_trace(mesh, u0))
    limit = solve_transmission_limit(mesh, dw_spec, init, 0.4, 0.01)
    sup_gap = {}
    for K in (1e-2, 1e-3):
        config = RunConfig(geometry="interval", n=32, K=K, dt=0.01,
                           dt_min=1e-8, dt_max=0.01, t_final=0.4,
                           adaptive=False, keep_states=True, sample_every=1,
                           checkpoint_every=0, spec=dw_spec)
        rec = run_trajectory(config, initial=init, mesh=mesh)
        assert np.allclose(rec.times, limit.times)
        gaps = [h_norm(mesh, a.bulk - b.bulk, a.surface - b.surface)
                for a, b in zip(rec.states, limit.states)]
        sup_gap[K] = max(gaps)
    assert sup_gap[1e-3] < sup_gap[1e-2]


def test_config_validation_guards(dw_spec):
    with pytest.raises(ConfigurationError):
        RunConfig(K=0.0, spec=dw_spec)
    with pytest.raises(ConfigurationError):
        RunConfig(dt=0.5, dt_min=1.0, spec=dw_spec)
    with pytest.raises(ConfigurationError):
        RunConfig(scheme="leapfrog", spec=dw_spec)
    with pytest.raises(ConfigurationError):
        RunConfig(t_final=-1.0, spec=dw_spec)
    # neither may fall through to a default when the run starts
    with pytest.raises(ConfigurationError, match="geometry must be disk or interval"):
        RunConfig(geometry="sphere", spec=dw_spec)
    with pytest.raises(ConfigurationError, match="unknown init_kind 'blob'"):
        RunConfig(init_kind="blob", spec=dw_spec)
    # a negative smoothing scale would sharpen the noise instead
    with pytest.raises(ConfigurationError, match="init_smoothing must be nonnegative"):
        RunConfig(init_smoothing=-0.25, spec=dw_spec)
    # numpy's generator would refuse it only once the run starts, with a ValueError
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        RunConfig(geometry="interval", n=16, seed=-1, spec=dw_spec)


def test_nonfinite_values_and_newton_settings_rejected_together(dw_spec):
    with pytest.raises(ConfigurationError) as err:
        RunConfig(t_final=np.inf, K=np.inf, dt_max=np.inf, init_mean=np.nan,
                  newton_tol=0.0, newton_max_iter=0, spec=dw_spec)
    text = str(err.value)
    for name in ("t_final", "K", "dt_max", "init_mean"):
        assert f"{name} must be finite" in text
    assert "newton_tol must be positive" in text
    assert "newton_max_iter must be at least 1" in text


def test_energy_totals_nonincreasing_in_record(dw_spec):
    record = run_trajectory(small_config(dw_spec, t_final=1.0))
    drops = np.diff(record.energy_total)
    assert np.all(drops <= 1e-12 * np.maximum(1.0, np.abs(record.energy_total[:-1])))


@pytest.mark.parametrize("over, error, match", [
    (dict(dt_policy=np.nan), InputError, "must be finite"),
    (dict(time=np.inf), InputError, "must be finite"),
    (dict(dt_policy=1e-9), InputError, "below dt_min"),
    (dict(dt_policy=np.inf), InputError, "must be finite"),
    (dict(state=FieldPair(np.full(16, 0.5), np.full(3, 0.5))), ShapeError, "surface field"),
    (dict(state=FieldPair(np.full(20, 0.5), np.full(2, 0.5))), ShapeError, "bulk field"),
    (dict(dt_policy=2.0), InputError, "above dt_max"),
    (dict(step=-7), InputError, "step -7 is negative"),
    (dict(accept_streak=-50), InputError, "accept_streak -50 is negative"),
    (dict(time=-5.0), InputError, "time -5.0 is negative"),
])
def test_resume_rejects_a_bad_checkpoint_before_stepping(dw_spec, over, error, match):
    # a nan dt_policy used to halve to nan on every rejection and never
    # underflow; one above dt_max was taken as the next step; a negative
    # step numbered the checkpoints from below zero, a negative streak
    # delayed the growth of dt and a negative time ran more steps than the
    # run it continues
    config = RunConfig(geometry="interval", n=16, t_final=1.0, spec=dw_spec)
    state = FieldPair(np.full(16, 0.5), np.full(2, 0.5))
    cp = dataclasses.replace(Checkpoint(1, 0.1, 0.05, 0, state), **over)
    with pytest.raises(error, match=match):
        run_trajectory(config, resume=cp)


def disk_config(spec, **over):
    # fully implicit Robin flow on the 16x32 disk, with the adaptive dt growing
    base = dict(n_r=16, n_theta=32, t_final=5.0, checkpoint_every=7, keep_states=True,
                spec=spec)
    base.update(over)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def disk_run(disk_mid, dw_spec):
    stepper = _RobinStepper(disk_mid, dw_spec, 1.0)
    config = disk_config(dw_spec)
    checkpoints = []
    full = _integrate(stepper, config, initial_state(config, disk_mid),
                      on_checkpoint=checkpoints.append)
    return stepper, config, full, checkpoints


def test_solver_counts_repeat_and_no_factor_is_built(disk_mid, dw_spec):
    config = disk_config(dw_spec, checkpoint_every=0)
    first = run_trajectory(config, mesh=disk_mid).diagnostics
    again = run_trajectory(config, mesh=disk_mid).diagnostics
    assert first == again
    assert first["factorizations"] == 0
    assert first["krylov_iterations"] > 0


def test_default_disk_run_needs_no_factor(monkeypatch):
    # every Newton direction of the default run converges within the CG cap
    # on the band solve of the Jacobian's angle average
    runs, pcg = [], dynamics._pcg
    passes, variation = [], dynamics.Variation
    matrices, matrix = [], operators.JacobianMap.matrix

    def counted(*args):
        runs.append(pcg(*args))
        return runs[-1]

    def counted_pass(*args):
        passes.append(None)
        return variation(*args)

    def counted_matrix(*args):
        matrices.append(None)
        return matrix(*args)

    monkeypatch.setattr(dynamics, "_pcg", counted)
    monkeypatch.setattr(dynamics, "Variation", counted_pass)
    monkeypatch.setattr(operators.JacobianMap, "matrix", counted_matrix)
    diagnostics = run_trajectory(RunConfig(checkpoint_every=0)).diagnostics
    assert (diagnostics["accepted"], diagnostics["newton_iterations"]) == (109, 194)
    # the stepper's pattern is the one sparse matrix of the run: CG's
    # products run on it with each iteration's values
    assert len(matrices) == 1
    # each Newton iterate is evaluated once, the initial state too: the
    # record and the next step reuse the last iterate's pass
    assert diagnostics["rejected"] == 0 and len(passes) == 194 + 1
    assert len(runs) == 194 and all(converged for _, _, converged in runs)
    assert max(iterations for _, iterations, _ in runs) <= dynamics.KRYLOV_MAX_ITER
    assert diagnostics["krylov_iterations"] == sum(iterations for _, iterations, _ in runs)
    assert diagnostics["factorizations"] == 0


def test_interval_run_evaluates_each_iterate_once(dw_spec, monkeypatch):
    # one pointwise pass per Newton iterate and the initial state; each
    # Jacobian reads the coefficients of the pass at its iterate, so f',
    # f_G' and h'' are evaluated once per Jacobian, and each energy report
    # reads h and the trace of its state's pass, so h and h' are evaluated
    # once per pass
    passes, variation = [], dynamics.Variation
    names, evaluate = [], NonlinearitySpec.eval

    def counted_pass(*args):
        passes.append(None)
        return variation(*args)

    def counted_eval(spec, name, x):
        names.append(name)
        return evaluate(spec, name, x)

    monkeypatch.setattr(dynamics, "Variation", counted_pass)
    monkeypatch.setattr(NonlinearitySpec, "eval", counted_eval)
    config = RunConfig(geometry="interval", n=64, dt=0.01, dt_min=0.01, dt_max=0.01,
                       t_final=0.5, adaptive=False, checkpoint_every=0, spec=dw_spec)
    diagnostics = run_trajectory(config).diagnostics
    newton = diagnostics["newton_iterations"]
    assert diagnostics["accepted"] == 50 and newton > 50
    assert len(passes) == newton + 1
    counts = Counter(names)
    # run_trajectory's compatibility residual of the initial state adds one h
    assert counts["h"] - 1 == counts["h'"] == newton + 1
    assert counts["f'"] == counts["f_G'"] == counts["h''"] == newton


@pytest.mark.parametrize("coupling", ["affine", "tanh"])
def test_semi_implicit_run_evaluates_each_state_once(coupling, monkeypatch):
    # the explicit terms of a step are those of its state's pass: f and f_G
    # once per state, and for a coupling that is not affine h and h' too
    passes, variation = [], dynamics.Variation
    names, evaluate = [], NonlinearitySpec.eval

    def counted_pass(*args):
        passes.append(None)
        return variation(*args)

    def counted_eval(spec, name, x):
        names.append(name)
        return evaluate(spec, name, x)

    monkeypatch.setattr(dynamics, "Variation", counted_pass)
    monkeypatch.setattr(NonlinearitySpec, "eval", counted_eval)
    config = RunConfig(geometry="interval", n=64, scheme="stabilized_semi_implicit",
                       t_final=5.0, checkpoint_every=0, spec=make_spec(coupling_kind=coupling))
    diagnostics = run_trajectory(config).diagnostics
    steps = diagnostics["accepted"] + diagnostics["rejected"]
    assert steps > 10 and len(passes) == steps + 1
    counts = Counter(names)
    assert counts["f"] == counts["f_G"] == counts["h'"] == steps + 1
    # and one h for run_trajectory's compatibility residual
    assert counts["h"] == steps + 2


def assert_dual_norms_are_the_states(stepper, record):
    # the carried functional is the one the kept state gives, bit for bit
    riesz = RieszMap(stepper.mesh)
    assert len(record.states) == record.n_samples() > 1
    assert [riesz.dual_norm(stepper.evaluate(state)[0]) for state in record.states] == list(
        record.dual_norm)


def test_recorded_dual_norms_are_the_kept_states(disk_run, disk_mid, dw_spec):
    stepper, config, full, checkpoints = disk_run
    assert_dual_norms_are_the_states(stepper, full)
    assert_dual_norms_are_the_states(stepper, _integrate(stepper, config, checkpoints[1]))
    config = small_config(dw_spec, scheme="stabilized_semi_implicit")
    stepper = _RobinStepper(config.build_mesh(), dw_spec, config.K)
    assert_dual_norms_are_the_states(
        stepper, _integrate(stepper, config, initial_state(config, stepper.mesh)))
    mesh = build_interval(1.0, 24)
    limit = solve_transmission_limit(mesh, dw_spec, smoothed_random_state(mesh, 2), 0.2, 0.02)
    assert_dual_norms_are_the_states(_TransmissionStepper(mesh, dw_spec), limit)


@pytest.mark.parametrize("make_stepper", [
    pytest.param(lambda mesh, spec: _RobinStepper(mesh, spec, 0.5), id="robin"),
    pytest.param(_TransmissionStepper, id="transmission")])
def test_interval_direction_is_the_band_solve(dw_spec, make_stepper, monkeypatch):
    # one angle: the band solve is the Jacobian's own, so it is the Newton
    # direction, with no CG and no sparse matrix
    mesh = build_interval(1.0, 24)
    stepper = make_stepper(mesh, dw_spec)
    state = stepper.state_of(stepper.unknowns(smoothed_random_state(mesh, 6)))
    y = stepper.unknowns(state)
    data = jacobian_at(stepper, y, 0.05)
    rhs = np.random.default_rng(3).standard_normal(y.size)
    dense = np.linalg.solve(stepper.jac_map.matrix(data).toarray(), rhs)

    def forbidden(*args):
        raise AssertionError("CG or a sparse matrix in an interval Newton iteration")

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_pcg", forbidden)
        patch.setattr(operators.JacobianMap, "matrix", forbidden)
        delta = stepper._solver(data, dynamics.KRYLOV_RTOL)(rhs)
        _, _, _, newton, _ = stepper.implicit_step(state, *stepper.evaluate(state), 0.05,
                                                   1e-10, 50)
    assert np.linalg.norm(delta - dense) <= 1e-12 * np.linalg.norm(dense)
    assert newton >= 1 and stepper.krylov_iterations == stepper.factorizations == 0
    # a singular band factor still falls back to one counted factor
    monkeypatch.setattr(stepper.bands, "factor", lambda data: None)
    delta = stepper._solver(data, dynamics.KRYLOV_RTOL)(rhs)
    assert np.linalg.norm(delta - dense) <= 1e-12 * np.linalg.norm(dense)
    assert (stepper.krylov_iterations, stepper.factorizations) == (0, 1)


def test_singular_semi_implicit_band_factor_is_a_step_failure(dw_spec, monkeypatch):
    mesh = build_interval(1.0, 16)
    stepper = _RobinStepper(mesh, dw_spec, 1.0)
    monkeypatch.setattr(stepper.bands, "factor", lambda data: None)
    state = smoothed_random_state(mesh, 1)
    with pytest.raises(StepFailure, match="band factor is singular"):
        stepper.semi_implicit_step(state, stepper.evaluate(state)[1], 0.05)


@pytest.mark.parametrize("coupling", ["affine", "tanh"])
@pytest.mark.parametrize("mesh_name", ["interval_small", "disk_small"])
def test_semi_implicit_step_builds_no_sparse_matrix(mesh_name, coupling, request,
                                                    monkeypatch):
    # its left-hand side goes to the band factor as values on jac_map's pattern
    mesh = request.getfixturevalue(mesh_name)
    stepper = _RobinStepper(mesh, make_spec(coupling_kind=coupling), 0.5)

    def no_matrix(self, data):
        raise AssertionError("a sparse matrix was built")

    monkeypatch.setattr(operators.JacobianMap, "matrix", no_matrix)
    state = smoothed_random_state(mesh, 4)
    new, _ = stepper.semi_implicit_step(state, stepper.evaluate(state)[1], 0.05)
    assert np.all(np.isfinite(new.joint()))


def test_checkpoints_do_not_change_the_run(disk_run, disk_mid):
    _, config, full, _ = disk_run
    plain = run_trajectory(dataclasses.replace(config, checkpoint_every=0), mesh=disk_mid)
    # the same solver counts; run_trajectory adds its compatibility residual
    assert full.diagnostics.items() <= plain.diagnostics.items()
    assert np.array_equal(full.rows(), plain.rows())


def test_resume_from_every_checkpoint_is_bitwise(disk_run, disk_mid, tmp_path):
    stepper, config, full, checkpoints = disk_run
    assert len(checkpoints) >= 5
    for cp in checkpoints[:-1]:
        mask = full.times > cp.time + 1e-15
        same_stepper = _integrate(stepper, config, cp)
        path = tmp_path / f"checkpoint_{cp.step}.txt"
        write_checkpoint(path, cp)
        back, _ = read_checkpoint(path)
        from_file = run_trajectory(config, mesh=disk_mid, resume=back)
        for tail in (same_stepper, from_file):
            assert np.array_equal(full.rows()[mask], tail.rows())
            assert np.array_equal(full.final_state().joint(), tail.final_state().joint())


def test_checkpoint_with_factor_anchor_lines_resumes_bitwise(disk_run, disk_mid, tmp_path):
    # older versions wrote the unknowns and dt of a kept LU factor after the
    # state; a resume ignores them
    _, config, full, checkpoints = disk_run
    cp = checkpoints[2]
    plain, old = tmp_path / "checkpoint_plain.txt", tmp_path / "checkpoint_old.txt"
    write_checkpoint(plain, cp, "abc")
    old.write_text(plain.read_text() + "anchor_dt = " + (0.06).hex() + "\nanchor = "
                   + " ".join(v.hex() for v in cp.state.joint() + 0.25) + "\n")
    tails = []
    for path in (plain, old):
        back, config_hash = read_checkpoint(path)
        assert config_hash == "abc"
        tails.append(run_trajectory(config, mesh=disk_mid, resume=back))
    assert np.array_equal(tails[0].rows(), tails[1].rows())
    assert np.array_equal(tails[0].rows(), full.rows()[full.times > cp.time + 1e-15])


def test_krylov_failure_falls_back_to_a_fresh_factor(disk_mid, dw_spec, monkeypatch):
    stepper = _RobinStepper(disk_mid, dw_spec, 1.0)
    x0 = smoothed_random_state(disk_mid, 3)
    tol = 1e-10
    x1, g1, v1, _, _ = stepper.implicit_step(x0, *stepper.evaluate(x0), 0.05, tol, 50)
    built = stepper.factorizations
    iterations = []

    def stalled(product, b, precondition, rtol, max_iter):
        iterations.append(max_iter)
        return np.zeros_like(b), max_iter, False

    monkeypatch.setattr(dynamics, "_pcg", stalled)
    _, _, _, newton, rnorm = stepper.implicit_step(x1, g1, v1, 0.2, tol, 50)
    assert rnorm < tol
    assert len(iterations) == newton
    assert stepper.factorizations == built + newton


def test_pcg_is_scipy_cg_step_for_step(disk_mid, dw_spec):
    stepper = _RobinStepper(disk_mid, dw_spec, 1.0)
    y = stepper.unknowns(smoothed_random_state(disk_mid, 5))
    lu = spla.splu(stepper.jac_map.matrix(jacobian_at(stepper, y, 0.05)),
                   permc_spec="MMD_AT_PLUS_A")
    # five iterations at dt = 0.06
    data = jacobian_at(stepper, y, 0.06)
    jac = stepper.jac_map.matrix(data)
    rhs = -stepper.residual(y, y + 0.01, 0.06, stepper.evaluate(stepper.state_of(y))[0])
    converged = []
    for max_iter in (dynamics.KRYLOV_MAX_ITER, 2):
        steps = []
        expected, info = spla.cg(jac, rhs, rtol=dynamics.KRYLOV_RTOL, maxiter=max_iter,
                                 M=spla.LinearOperator(jac.shape, lu.solve),
                                 callback=steps.append)
        # the product the stepper gives _pcg: the kernel on the pattern, no matrix
        x, iterations, ok = dynamics._pcg(lambda p: matvec(stepper.pattern, p, data), rhs,
                                          lu.solve, dynamics.KRYLOV_RTOL, max_iter)
        assert np.array_equal(x, expected)
        assert ok == (info == 0)
        assert iterations == len(steps)
        converged.append(ok)
    # the first solve needs more than two iterations, so the cap of two fails it
    assert converged == [True, False]


def test_jacobians_share_one_pattern(disk_small, dw_spec):
    rng = np.random.default_rng(4)
    for stepper in (_RobinStepper(disk_small, dw_spec, 0.5),
                    _TransmissionStepper(disk_small, dw_spec)):
        y = stepper.unknowns(random_pair(disk_small, rng))
        first, second = (stepper.jac_map.matrix(jacobian_at(stepper, z, dt))
                         for z, dt in ((y, 0.1), (1.1 * y, 0.2)))
        assert np.shares_memory(first.indices, second.indices)
        assert np.shares_memory(first.indptr, second.indptr)
        assert not np.shares_memory(first.data, second.data)
        assert (first != second).nnz > 0

