"""Boundary-weighted eigenvalues against their closed-form roots.

On the unit interval at K = 1 the eigenvalues are squares of roots of
    c sin(c/2) = (1 - c^2) cos(c/2)   (even modes)
    c cos(c/2) = (c^2 - 1) sin(c/2)   (odd modes)
so the discrete pair can be checked against scalar root finding, including
the second-order convergence of the error under mesh refinement.
"""

import _one_blas_thread  # noqa: F401  before numpy

import numpy as np
import scipy.optimize

from bsac import assemble_wentzell_robin_pair, build_interval, eigen_solve


def reference_eigenvalues(count):
    even = lambda c: c * np.sin(c / 2) - (1 - c * c) * np.cos(c / 2)
    odd = lambda c: c * np.cos(c / 2) - (c * c - 1) * np.sin(c / 2)
    roots = []
    for g in (even, odd):
        grid = np.linspace(1e-4, 40.0, 40001)
        for a, b in zip(grid[:-1], grid[1:]):
            if np.sign(g(a)) != np.sign(g(b)):
                roots.append(scipy.optimize.brentq(g, a, b, xtol=1e-14))
    return np.sort(np.array(roots) ** 2)[:count]


exact = reference_eigenvalues(6)
errors = {}
for n in (32, 64, 128, 256):
    rep = eigen_solve(assemble_wentzell_robin_pair(build_interval(1.0, n), 1.0), 6)
    errors[n] = np.abs(rep.values / exact - 1.0)
    print(f"n = {n:4d}: " + " ".join(f"{v:.6f}" for v in rep.values)
          + f"   gram defect {rep.gram_defect:.1e}")

print("\nexact:     " + " ".join(f"{v:.6f}" for v in exact))
print("\nrelative error and refinement ratio (expect ~4):")
for i in range(6):
    line = f"  mode {i + 1}: "
    for n in (32, 64, 128, 256):
        line += f"{errors[n][i]:.2e} "
    ratios = [errors[n][i] / errors[2 * n][i] for n in (32, 64, 128)]
    line += "  ratios " + "/".join(f"{r:.2f}" for r in ratios)
    print(line)
