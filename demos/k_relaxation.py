"""How fast does the Robin coupling approach the transmission limit?

For shrinking K the relaxed solution should close in on the run with the
hard constraint (trace of bulk) = (coupling of surface), with the state gap
scaling like K^0.5 and the boundary mismatch like K^1.
"""

import _one_blas_thread  # noqa: F401  before numpy

import numpy as np

from bsac import RunConfig, k_sweep, make_spec

config = RunConfig(geometry="interval", n=32, dt=0.01, dt_max=0.01,
                   t_final=0.4, adaptive=False, keep_states=True,
                   sample_every=1, checkpoint_every=0, seed=12,
                   spec=make_spec())
table = k_sweep(config, [1e-1, 1e-2, 1e-3, 1e-4])

print(f"{'K':>8} {'state gap e(K)':>16} {'mismatch r(K)':>16}")
for row in table.rows:
    print(f"{row.K:8.0e} {row.gap:16.6e} {row.mismatch:16.6e}")
print(f"\nlog-log slope of e(K): {table.gap_slope:.3f}   (theory: >= 1/2)")
print(f"log-log slope of r(K): {table.mismatch_slope:.3f}   (theory: ~ 1)")

gaps = np.array([r.gap for r in table.rows])
assert np.all(np.diff(gaps) < 0), "gap should shrink with K"
