"""Shared fixtures: one validated default spec, a few small meshes; and the
root-finding oracles of the boundary eigenproblems at K = 1."""

import os

# One BLAS thread, set before numpy is first imported: the suite's numbers
# then do not depend on the core count, and the eigensolver's small dense
# solves do not slow down on a pool that spins on every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg
from scipy.special import jv, jvp

from bsac import FieldPair, build_disk, build_interval, make_spec


@pytest.fixture(scope="session")
def dw_spec():
    # double-well bulk and surface, identity coupling
    return make_spec()


@pytest.fixture(scope="session")
def disk_small():
    return build_disk(1.0, 8, 16)


@pytest.fixture(scope="session")
def disk_mid():
    return build_disk(1.0, 16, 32)


@pytest.fixture(scope="session")
def interval_small():
    return build_interval(1.0, 16)


def jacobian_at(stepper, y, dt):
    """The values of a stepper's Jacobian at the unknowns y, from the
    variation it evaluates there."""
    return stepper.jacobian(stepper.evaluate(stepper.state_of(y))[1], dt)


def forbid_sparse_lu(monkeypatch):
    """Make every splu call raise: scipy's own, and the one ARPACK's
    shift-invert makes for a pencil when it gets no OPinv."""
    def no_lu(*args, **kwargs):
        raise AssertionError("splu called")

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    for module in (scipy.sparse.linalg, arpack):
        monkeypatch.setattr(module, "splu", no_lu)


def random_pair(mesh, rng, mean=0.0, amplitude=1.0):
    return FieldPair(mean + amplitude * rng.standard_normal(mesh.n_bulk),
                     mean + amplitude * rng.standard_normal(mesh.n_surface))


def _brackets(g, grid):
    """The grid cells whose end values of g differ in sign, from one
    vectorized evaluation of g on the grid."""
    signs = np.sign(g(grid))
    return np.flatnonzero(signs[:-1] != signs[1:])


def _polish(g, grid, cells):
    return [scipy.optimize.brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15)
            for i in cells]


def _bracketed_roots(g, grid):
    """brentq roots of g in every grid cell whose end values differ in sign."""
    return _polish(g, grid, _brackets(g, grid))


# characteristic functions for the interval (0, 1) with K = 1, lam = c^2:
# even modes cos(c(x - 1/2)), odd modes sin(c(x - 1/2))
def _interval_even(c):
    return c * np.sin(c / 2.0) - (1.0 - c * c) * np.cos(c / 2.0)


def _interval_odd(c):
    return c * np.cos(c / 2.0) - (c * c - 1.0) * np.sin(c / 2.0)


def interval_boundary_eigenvalues(count):
    """Smallest eigenvalues for the interval pair at K=1 by scalar root finding."""
    grid = np.linspace(1e-4, 40.0, 40001)
    roots = _bracketed_roots(_interval_even, grid) + _bracketed_roots(_interval_odd, grid)
    return np.sort(np.array(roots) ** 2)[:count]


def disk_boundary_eigenvalues(count, k_max=8):
    """Disk eigenvalues at K=1: roots of c J_k'(c) + (1 - c^2) J_k(c), with
    angular multiplicity two for k >= 1. The sign scan covers growing
    prefixes of one grid until count roots lie in the prefix; every other
    root lies beyond it and is larger, so polishing the prefix's brackets
    alone gives the full scan's values."""
    grid = np.linspace(1e-6, 30.0, 30001)
    orders = [lambda c, k=k: c * jvp(k, c) + (1.0 - c * c) * jv(k, c)
              for k in range(k_max + 1)]
    multiplicity = [1] + [2] * k_max
    end = 1000
    while True:
        end = min(2 * end, grid.size)
        cells = [_brackets(g, grid[:end]) for g in orders]
        if end == grid.size or sum(m * c.size for m, c in zip(multiplicity, cells)) >= count:
            break
    lams = [c * c for g, m, found in zip(orders, multiplicity, cells)
            for c in _polish(g, grid, found) for _ in range(m)]
    return np.sort(np.array(lams))[:count]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance tests register one-line verdicts; surface them even when
    # stdout capture is on
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", []) if mod is not None else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
