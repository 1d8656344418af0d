"""Span tracer that wraps bsac's public entry points from outside the package.

`Tracer.installed()` replaces, for the duration of a `with` block, each public
function and method the benchmark follows, and the scipy solvers the modules
call (`splu`, `factorized`, `eigsh`, `eigh`), with a wrapper that records a
span: name, start, end and the enclosing span. Nothing inside `src/bsac` is
edited; leaving the block puts every original object back.

Scipy entry points and `run_trajectory` are named after the bsac module that
called them (`dynamics.splu`, `steady_spectral.splu`, `analysis.run_trajectory`,
`cli.run_trajectory`); everything else is named after the module that defines
it. Work the tracer does for itself after a call (counting L+U fill, sizing
written files) runs inside a `trace.bookkeeping` span, so it is not charged as
self time to any bsac layer.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

import bsac
from bsac import analysis, cli, dynamics, energy, mesh, nonlinearity, operators, steady_spectral

_BSAC_NAMESPACES = (bsac, analysis, cli, dynamics, energy, mesh, nonlinearity,
                    operators, steady_spectral)


def _caller_layer() -> str:
    """The bsac module that called the wrapper calling this, without `bsac.`."""
    module = sys._getframe(2).f_globals.get("__name__", "")
    return module.rpartition(".")[2] if module.startswith("bsac.") else "harness"


class _TracedLU:
    """A SuperLU factor whose `solve` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, by_caller: bool = False, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{_caller_layer()}.{name}" if by_caller else name
            result = tracer.call(label, fn, *args, **kwargs)
            if after is not None:
                return tracer.call("trace.bookkeeping", after, label, result, args)
            return result
        return traced

    # -- hooks that turn results into counts --------------------------------
    def _after_splu(self, label, lu, args):
        fill = lu.L.nnz + lu.U.nnz                  # computed, not measured
        self.counts[label + ".fill_nnz_total"] += fill
        self.counts[label + ".factor_bytes_total"] += fill * lu.L.dtype.itemsize
        layer = label.rpartition(".")[0]
        return _TracedLU(lu, self._wrap(lu.solve, layer + ".lu_solve"))

    def _after_factorized(self, label, solve, args):
        return self._wrap(solve, label.rpartition(".")[0] + ".lu_solve")

    def _after_advance_step(self, label, result, args):
        diag = result[1]
        self.counts["dynamics.newton_iters"] += diag.newton_iterations
        return result

    def _after_trajectory(self, label, record, args):
        self.counts["dynamics.steps_accepted"] += record.diagnostics["accepted"]
        self.counts["dynamics.steps_rejected"] += record.diagnostics["rejected"]
        return record

    def _after_newton(self, label, eq, args):
        self.counts["steady_spectral.newton_iters"] += eq.newton_iterations
        return eq

    def _after_checkpoint(self, label, result, args):
        self.counts["dynamics.write_checkpoint.bytes"] += os.path.getsize(args[0])
        return result

    def _after_dispatch(self, label, result, args):
        run_dir = Path(result[1])
        self.counts["cli.output_bytes"] += sum(
            p.stat().st_size for p in run_dir.iterdir() if p.is_file())
        return result

    # -- installation --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        undo = []

        def patch_everywhere(orig, wrapper):
            for ns in _BSAC_NAMESPACES:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        undo.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

        def patch(owner, attr, wrapper):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        functions = [
            (dynamics.advance_step, "dynamics.advance_step", False, self._after_advance_step),
            (dynamics.run_trajectory, "run_trajectory", True, self._after_trajectory),
            (dynamics.solve_transmission_limit, "dynamics.solve_transmission_limit",
             False, self._after_trajectory),
            (dynamics.write_checkpoint, "dynamics.write_checkpoint", False,
             self._after_checkpoint),
            (operators.assemble_linearized, "operators.assemble_linearized", False, None),
            (operators.assemble_wentzell_robin_pair, "operators.pair_assembly", False, None),
            (operators.assemble_surface_shifted_pair, "operators.pair_assembly", False, None),
            (mesh.build_mesh, "mesh.build_mesh", False, None),
            (energy.compute_energy, "energy.compute_energy", False, None),
            (energy.compute_gradient, "energy.compute_gradient", False, None),
            (steady_spectral.solve_stationary_newton,
             "steady_spectral.solve_stationary_newton", False, self._after_newton),
            (steady_spectral.eigen_solve, "steady_spectral.eigen_solve", False, None),
            (steady_spectral.compute_coercivity_margin,
             "steady_spectral.compute_coercivity_margin", False, None),
            (analysis.k_sweep, "analysis.k_sweep", False, None),
            (cli.parse_config, "cli.parse_config", False, None),
            (cli.dispatch, "cli.dispatch", False, self._after_dispatch),
        ]
        methods = [
            (mesh.Mesh, "content_hash", "mesh.content_hash"),
            (nonlinearity.NonlinearitySpec, "eval", "nonlinearity.eval"),
            (operators.RieszMap, "dual_norm", "operators.riesz.dual_norm"),
        ]
        solvers = [
            (scipy.sparse.linalg, "splu", "splu", self._after_splu),
            (scipy.sparse.linalg, "factorized", "factorized", self._after_factorized),
            (scipy.sparse.linalg, "eigsh", "eigsh", None),
            (scipy.linalg, "eigh", "dense_eigh", None),
        ]
        try:
            for fn, name, by_caller, after in functions:
                patch_everywhere(fn, self._wrap(fn, name, by_caller, after))
            for cls, attr, name in methods:
                patch(cls, attr, self._wrap(cls.__dict__[attr], name))
            for module, attr, name, after in solvers:
                patch(module, attr, self._wrap(getattr(module, attr), name, True, after))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- aggregation -----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, self seconds and inclusive seconds.

        Self time is a span's duration minus the time its child spans cover;
        inclusive time counts only the outermost span of each name, so a
        recursive call is not counted twice.
        """
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "incl_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["incl_s"] += end - start
        return dict(out)

    def write_spans(self, path: Path, origin: float) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
