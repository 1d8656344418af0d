"""Empirical gradient inequality and the convergence-rate envelope.

A long interval run settles into one well; near the limit the dual norm of
the first variation should dominate a power of the energy gap (the gradient
inequality), and the distance tail should sit under a polynomial envelope
whose exponent comes from the fitted theta.
"""

import _one_blas_thread  # noqa: F401  before numpy

import numpy as np

from bsac import (RunConfig, ls_probe, majorization_check, make_spec,
                  run_trajectory, solve_stationary_newton, w_norm)

spec = make_spec()
config = RunConfig(geometry="interval", n=32, dt=0.05, dt_max=0.5,
                   t_final=60.0, adaptive=True, keep_states=True,
                   sample_every=1, checkpoint_every=0, seed=2, spec=spec)
mesh = config.build_mesh()
record = run_trajectory(config, mesh=mesh)
eq = solve_stationary_newton(mesh, spec, 1.0, record.final_state(), 1e-12)
print(f"settled run: {record.n_samples()} samples, newton residual "
      f"{eq.residual_dual_norm:.1e}")

probe = ls_probe(mesh, spec, 1.0, record, eq, window_radius=0.5)
print(f"probe valid {probe.valid}: slope {probe.slope:.3f} "
      f"-> theta {probe.theta:.3f}, window {probe.gaps.size} samples")

dists = np.array([w_norm(mesh, s.bulk - eq.state.bulk,
                         s.surface - eq.state.surface)
                  for s in record.states])
mask = record.times >= 2.0
times, dists = record.times[mask], dists[mask]
floor = 10.0 * np.median(dists[-20:])
cut = np.argmax(dists <= floor) or dists.size
ok, c_fit, gamma = majorization_check(times[:cut], dists[:cut], probe.theta,
                                      fit_fraction=1.0)
print(f"\ndistance tail: {cut} resolvable samples spanning "
      f"{np.log10(dists[0] / dists[cut - 1]):.1f} decades")
print(f"envelope C (1+t)^(-{gamma:.2f}) holds pointwise: {ok}, C = {c_fit:.2e}")
