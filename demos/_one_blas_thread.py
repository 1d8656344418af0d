"""Imported by each demo before numpy: one BLAS thread, unless the caller set
the variables already, so that a demo's numbers do not depend on the core
count (and the eigensolver's small dense solves do not slow down on a pool
that spins on every core), as in tests/conftest.py and perfbench."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
