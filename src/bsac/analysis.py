"""Post-processing: decay-rate fits, the gradient-inequality probe, the
boundary-relaxation sweep, and the limit-set singleton diagnostic.

Everything here consumes immutable trajectory records and equilibria; nothing
mutates solver state. The probe and the rate fit are empirical by design:
the exponent of the gradient inequality is estimated by regression and the
polynomial decay bound is checked by pointwise majorization with a fitted
constant, never asserted as an equality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InputError
from .mesh import Mesh, boundary_trace
from .nonlinearity import NonlinearitySpec
from .energy import compute_energy, h_norm, part_norm, v_norm
from .dynamics import (RunConfig, TrajectoryRecord, initial_state, run_trajectory,
                       solve_transmission_limit, transmission_state)
from .steady_spectral import EquilibriumState

THETA_CAP = 0.5 - 1e-2   # keeps the rate exponent theta/(1-2*theta) finite
RATE_MODEL = "auto"                     # fit_decay_rate's default model
SWEEP_REFERENCE = "transmission_limit"  # k_sweep's default reference flow
GAP_FLOOR = 1e-13       # ls_probe: smaller energy gaps are roundoff, not data
TAIL_THRESHOLD = 1e-8   # convergence_diagnostic: largest final time-derivative norm
CAUCHY_SLACK = 1e-12    # convergence_diagnostic: allowed rise of consecutive distances


@dataclass
class RateFit:
    model: str                  # "power" or "exponential"
    exponent: float             # slope in the model's log coordinate
    prefactor: float
    r_squared: float
    window: tuple


@dataclass
class LSProbeResult:
    gaps: np.ndarray            # |E - E_inf| per in-window sample
    dual_norms: np.ndarray
    slope: float                # estimate of 1 - theta
    window_radius: float
    valid: bool
    reason: str = ""
    fitted_c: float = np.nan    # largest c with dual >= c * gap^(1-theta) pointwise

    @property
    def theta(self) -> float:
        if not np.isfinite(self.slope):
            return np.nan
        return float(np.clip(1.0 - self.slope, 1e-6, THETA_CAP))


@dataclass
class SweepRow:
    K: float
    gap: float                  # e(K): max-over-time state distance to reference
    mismatch: float             # r(K): max-over-time boundary residual


@dataclass
class SweepTable:
    rows: list
    gap_slope: float
    mismatch_slope: float

    def csv_lines(self) -> list:
        lines = ["K,gap,mismatch"]
        lines += [f"{r.K!r},{r.gap!r},{r.mismatch!r}" for r in self.rows]
        return lines


@dataclass
class LimitSetReport:
    times: np.ndarray
    pairwise_h: np.ndarray
    consecutive_h: np.ndarray
    singleton: bool
    verdict: str


def _log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), min(1.0, r2)


RATE_MODELS = ("power", "exponential", "auto")


def fit_decay_rate(series, model: str = RATE_MODEL) -> RateFit:
    """Least squares in log coordinates: value vs log(1+t) for the power
    model, vs t for the exponential model; auto keeps the better fit."""
    times = np.asarray(series[0], dtype=float)
    values = np.asarray(series[1], dtype=float)
    if times.size != values.size:
        raise InputError("time and value series must have equal length")
    if times.size < 10:
        raise InputError(f"need at least 10 samples, got {times.size}")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))
            and np.all(values > 0)):
        raise InputError("decay fit requires finite times and finite, strictly positive values")
    if model not in RATE_MODELS:
        raise ConfigurationError(f"unknown model {model!r}")
    logv = np.log(values)
    fits = {}
    if model in ("power", "auto"):
        fits["power"] = _log_fit(np.log1p(times), logv)
    if model in ("exponential", "auto"):
        fits["exponential"] = _log_fit(times, logv)
    tag = model if model != "auto" else max(fits, key=lambda k: fits[k][2])
    slope, intercept, r2 = fits[tag]
    return RateFit(tag, slope, float(np.exp(intercept)), r2,
                   (float(times[0]), float(times[-1])))


def majorization_check(times, dists, theta: float, *,
                       fit_fraction: float = 0.5) -> tuple[bool, float, float]:
    """Fit C on the early part of the tail, then require
    d(t) <= C (1+t)^(-theta/(1-2 theta)) on the whole tail.

    theta is capped below 1/2 so the exponent stays finite; the bound is an
    upper envelope, so faster-than-polynomial decay passes.
    """
    times = np.asarray(times, dtype=float)
    dists = np.asarray(dists, dtype=float)
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(dists))):
        raise InputError("majorization needs finite times and distances")
    if not theta > 0:
        raise InputError("theta must be positive")
    th = min(float(theta), THETA_CAP)
    gamma = th / (1.0 - 2.0 * th)
    n_fit = max(2, int(np.ceil(fit_fraction * times.size)))
    envelope = dists * (1.0 + times) ** gamma
    c_fit = float(np.max(envelope[:n_fit]))
    ok = bool(np.all(dists <= c_fit * (1.0 + times) ** (-gamma) * (1 + 1e-9)))
    return ok, c_fit, gamma


def ls_probe(mesh: Mesh, spec: NonlinearitySpec, K: float,
             trajectory: TrajectoryRecord, equilibrium: EquilibriumState,
             window_radius: float) -> LSProbeResult:
    """Empirical gradient inequality: regress log dual norm on log |E - E_inf|
    over the samples inside the V-norm window around the equilibrium.

    The result is only flagged valid when at least 10 samples survive the
    window and the energy gaps span two decades; a trajectory sitting at the
    equilibrium degenerates to an insufficient-data report.
    """
    if not window_radius > 0:
        raise ConfigurationError("window radius must be positive")
    states = trajectory.sampled_states()
    e_inf = compute_energy(mesh, spec, equilibrium.state, K).total
    gaps, duals = [], []
    eq_b, eq_s = equilibrium.state.bulk, equilibrium.state.surface
    for i, st in enumerate(states):
        dist = v_norm(mesh, st.bulk - eq_b, st.surface - eq_s)
        gap = trajectory.energy_total[i] - e_inf
        dual = trajectory.dual_norm[i]
        if dist < window_radius and gap > GAP_FLOOR and dual > 0:
            gaps.append(gap)
            duals.append(dual)
    gaps = np.array(gaps)
    duals = np.array(duals)
    if gaps.size < 10:
        return LSProbeResult(gaps, duals, np.nan, window_radius, False,
                             f"only {gaps.size} usable samples in window")
    decades = float(np.log10(gaps.max() / gaps.min()))
    slope, _, _ = _log_fit(np.log(gaps), np.log(duals))
    valid = decades >= 2.0
    reason = "" if valid else f"gap span {decades:.2f} decades < 2"
    probe = LSProbeResult(gaps, duals, slope, window_radius, valid, reason)
    if valid:
        probe.fitted_c = float(np.min(duals / gaps ** (1.0 - probe.theta)))
    return probe


SWEEP_REFERENCES = ("transmission_limit", "smallest_k")


def k_sweep(base_config: RunConfig, k_values,
            reference: str = SWEEP_REFERENCE) -> SweepTable:
    """Boundary-relaxation sweep on a shared mesh, initial state, and fixed
    time grid; per K the maximal state gap to the reference flow and the
    maximal boundary mismatch, with log-log slopes over K.

    Initial data is prepared compatibly (surface value slaved to the bulk
    trace by dynamics.transmission_state, for the transmission reference
    and for any affine coupling) so no artificial initial layer pollutes the
    gap.
    """
    k_values = [float(k) for k in k_values]
    if not k_values or any(k <= 0 for k in k_values):
        raise ConfigurationError("K values must be positive")
    if reference not in SWEEP_REFERENCES:
        raise ConfigurationError(f"unknown reference {reference!r}")
    spec = base_config.get_spec()
    mesh = base_config.build_mesh()
    init = initial_state(base_config, mesh)
    if reference == "transmission_limit" or spec.coupling.kind == "affine":
        init = transmission_state(mesh, spec)(init.bulk)

    def member(k: float) -> TrajectoryRecord:
        cfg = replace(base_config, K=k, adaptive=False, keep_states=True,
                      checkpoint_every=0, spec=spec)
        return run_trajectory(cfg, initial=init.copy(), mesh=mesh)

    # duplicates recompute rather than share, so identical rows demonstrate
    # determinism instead of assuming it
    records = [member(k) for k in k_values]

    if reference == "transmission_limit":
        ref = solve_transmission_limit(
            mesh, spec, init.copy(), base_config.t_final, base_config.dt,
            sample_every=base_config.sample_every, keep_states=True)
    else:
        ref = records[k_values.index(min(k_values))]
    ref_states = ref.sampled_states()

    rows = []
    for k, rec in zip(k_values, records):
        if (rec.times.size != ref.times.size
                or not np.array_equal(rec.times, ref.times)):
            raise ConfigurationError("sweep member time grid differs from reference")
        gap = 0.0
        mism = 0.0
        for st, rf in zip(rec.sampled_states(), ref_states):
            gap = max(gap, part_norm(mesh.bulk_weights, st.bulk - rf.bulk)
                      + part_norm(mesh.surface_weights, st.surface - rf.surface))
            bres = boundary_trace(mesh, st.bulk) - spec.eval("h", st.surface)
            mism = max(mism, part_norm(mesh.surface_weights, bres))
        rows.append(SweepRow(k, gap, mism))

    uniq = sorted({r.K: r for r in rows}.values(), key=lambda r: r.K)
    # the smallest_k reference's own gap is exactly 0: it leaves the gap fit
    gapped = uniq[1:] if reference == "smallest_k" else uniq
    if len(gapped) >= 2 and all(r.gap > 0 for r in gapped) and all(r.mismatch > 0 for r in uniq):
        gap_slope = _log_fit(np.log([r.K for r in gapped]), np.log([r.gap for r in gapped]))[0]
        mis_slope = _log_fit(np.log([r.K for r in uniq]), np.log([r.mismatch for r in uniq]))[0]
    else:
        gap_slope = mis_slope = np.nan
    return SweepTable(rows, gap_slope, mis_slope)


def convergence_diagnostic(mesh: Mesh, trajectory: TrajectoryRecord,
                           snapshot_times) -> LimitSetReport:
    """Limit-set singleton check: pairwise snapshot distances must shrink
    along the tail, up to CAUCHY_SLACK, and the final time-derivative norm
    must be below TAIL_THRESHOLD."""
    req = np.asarray(snapshot_times, dtype=float)
    if req.size < 3:
        raise InputError("need at least 3 snapshot times")
    states = trajectory.sampled_states()
    idx = [int(np.argmin(np.abs(trajectory.times - t))) for t in req]
    if len(set(idx)) != len(idx):
        raise InputError("snapshot times resolve to duplicate samples")
    snaps = [states[i] for i in idx]
    used = trajectory.times[idx]

    n = len(snaps)
    d_h = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d_h[i, j] = d_h[j, i] = h_norm(mesh, snaps[i].bulk - snaps[j].bulk,
                                           snaps[i].surface - snaps[j].surface)
    consecutive = np.array([d_h[i, i + 1] for i in range(n - 1)])
    cauchy = bool(np.all(np.diff(consecutive) <= CAUCHY_SLACK))
    tail_rate = float(trajectory.dissipation_bulk[-1]
                      + trajectory.dissipation_surface[-1])
    singleton = cauchy and tail_rate < TAIL_THRESHOLD
    if singleton:
        verdict = "singleton-consistent"
    elif not cauchy:
        verdict = "not Cauchy-decreasing"
    else:
        verdict = f"tail derivative {tail_rate:.3g} above threshold"
    return LimitSetReport(used, d_h, consecutive, singleton, verdict)
