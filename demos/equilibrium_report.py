"""Newton equilibrium on the disk plus the spectral coercivity certificate.

Solves the stationary system from a uniform guess, reports the residual in
the dual norm, then searches for the mode count m whose eigenvalue floor
clears 8 c_* so the shifted linearization is provably coercive.
"""

import argparse

import numpy as np

from bsac import (FieldPair, build_disk, compute_coercivity_margin,
                  compute_energy, make_spec, solve_stationary_newton)

cli = argparse.ArgumentParser()
cli.add_argument("--guess", type=float, default=0.9)
cli.add_argument("--K", type=float, default=1.0)
args = cli.parse_args()

spec = make_spec()
mesh = build_disk(1.0, 64, 128)
start = FieldPair.constant(mesh, args.guess, args.guess)
eq = solve_stationary_newton(mesh, spec, args.K, start, 1e-11)

print(f"converged          {eq.converged}")
print(f"newton iterations  {eq.newton_iterations}")
print(f"dual residual      {eq.residual_dual_norm:.2e}")
print(f"stability tag      {eq.stability_tag:.6f}  (smallest Rayleigh quotient)")
print(f"bulk range         [{eq.state.bulk.min():.6f}, {eq.state.bulk.max():.6f}]")
print(f"energy             {compute_energy(mesh, spec, eq.state, args.K).total:.3e}")

report = compute_coercivity_margin(mesh, spec, args.K, eq, max_m=96)
print(f"\nc_* (nodewise max of the closed-form bounds) = {report.c_star}")
print(f"need min(lambda_m, mu_m) > 8 c_* = {8 * report.c_star}")
if report.succeeded():
    print(f"m = {report.chosen_m}: spectral floor {report.theta_m:.3f}, "
          f"margin {report.margin:+.3f}")
else:
    print(f"no admissible m up to 96 (best floor {report.theta_m:.3f}); "
          "refine the mesh or enlarge max_m")
assert np.isfinite(report.c_star)
