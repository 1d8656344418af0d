"""The three benchmark workloads.

Each workload is built from the benchmark seed alone (its constructor is the
set-up the benchmark times as `setup_s`), runs one job through bsac's public
API (`run`, the timed part), and checks the job's outputs (`check`, untimed).
bsac only ever sees the inputs derived here: a config, a mesh, an initial
state or guess.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import numpy as np

# Calls go through the module objects, so the tracer's wrappers are seen.
from bsac import analysis, cli, dynamics, mesh, nonlinearity, operators, steady_spectral


def derived_seed(workload: str, seed: int) -> int:
    """The integer seed bsac receives: a fixed function of workload and seed."""
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.strip() == "[config]":
            break
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


class DiskRelax:
    """Default `bsac simulate` (64x128 disk, fully implicit, t_final=50)."""

    name = "disk-relax"
    # Recorded at the commit that introduced the benchmark; identical for every
    # seed tried there. A solver change claiming the same numerics keeps them.
    ACCEPTED_STEPS = 109
    STEP_TOLERANCE = 2
    # The flow relaxes to the uniform +1 state, whose energy is exactly 0;
    # 2.5e-25 to 4.1e-25 was recorded at t=50.
    FINAL_ENERGY_MAX = 1e-20
    CHECKPOINTS = 3         # steps 50, 100 and the endpoint

    def __init__(self, seed: int, scratch: Path):
        self.bsac_seed = derived_seed(self.name, seed)
        self.scratch = scratch
        self.resolved = cli.parse_config("", {"seed": str(self.bsac_seed)})

    def prepare(self) -> None:
        pass

    def run(self):
        return cli.dispatch("simulate", self.resolved, output_root=self.scratch)

    def check(self, result) -> dict:
        status, run_dir = result
        manifest = _key_values((run_dir / "manifest.txt").read_text())
        rows = (run_dir / "trajectory.csv").read_text().splitlines()[1:]
        accepted = len(rows) - 1                    # one sample per step plus t=0
        final_energy = float(rows[-1].split(",")[6])
        return {
            "exit_status": status == 0 and manifest.get("exit_status") == "0",
            "energy_monotone": manifest.get("check_energy_monotone") == "ok",
            "completed": manifest.get("check_completed") == "ok",
            "rejections_recoverable": manifest.get("check_rejections_recoverable") == "ok",
            "accepted_steps": abs(accepted - self.ACCEPTED_STEPS) <= self.STEP_TOLERANCE,
            "final_energy": 0.0 <= final_energy <= self.FINAL_ENERGY_MAX,
            "checkpoints": len(list(run_dir.glob("checkpoint_*.txt"))) == self.CHECKPOINTS,
        }

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


class IntervalKSweep:
    """`analysis.k_sweep` on the interval against the transmission limit."""

    name = "interval-ksweep"
    K_VALUES = (1e-1, 1e-2, 1e-3, 1e-4)

    def __init__(self, seed: int, scratch: Path):
        self.bsac_seed = derived_seed(self.name, seed)
        self.config = dynamics.RunConfig(
            geometry="interval", n=256, dt=0.01, dt_min=1e-8, dt_max=0.01,
            t_final=2.0, adaptive=False, keep_states=True, checkpoint_every=0,
            seed=self.bsac_seed, spec=nonlinearity.make_spec())

    def prepare(self) -> None:
        pass

    def run(self):
        return analysis.k_sweep(self.config, self.K_VALUES, "transmission_limit")

    def check(self, table) -> dict:
        gaps = [row.gap for row in table.rows]      # rows follow K_VALUES, K falling
        return {
            "rows": [row.K for row in table.rows] == list(self.K_VALUES),
            "gap_decreasing": all(a > b for a, b in zip(gaps, gaps[1:])),
            "gap_slope": table.gap_slope >= 0.45,
            "mismatch_slope": 0.8 <= table.mismatch_slope <= 1.2,
        }

    def cleanup(self, result) -> None:
        pass


class DiskSpectral:
    """Newton equilibrium at 128x256 plus the coercivity certificate."""

    name = "disk-spectral"
    K = 1.0
    MAX_M = 96
    TOLERANCE = 1e-11
    # c_* is 3.5 exactly at the uniform +1 state. Newton stops within
    # TOLERANCE of it, which moves c_* by about 1e-12 (3.500000000000702
    # was recorded); 1e-9 leaves room for that and nothing else.
    C_STAR = 3.5
    C_STAR_TOLERANCE = 1e-9

    def __init__(self, seed: int, scratch: Path):
        self.bsac_seed = derived_seed(self.name, seed)
        self.spec = nonlinearity.make_spec()
        self.mesh = mesh.build_mesh("disk", n_r=128, n_theta=256)
        self.guess = dynamics.smoothed_random_state(self.mesh, self.bsac_seed,
                                                    mean=0.9, amplitude=0.05)

    def prepare(self) -> None:
        # Each job starts from a fresh mesh memo, as a new process would.
        self.mesh.cache.clear()

    def run(self):
        eq = steady_spectral.solve_stationary_newton(self.mesh, self.spec, self.K,
                                                     self.guess, self.TOLERANCE)
        if not eq.converged:
            return eq, None
        return eq, steady_spectral.compute_coercivity_margin(self.mesh, self.spec, self.K,
                                                             eq, self.MAX_M)

    def check(self, result) -> dict:
        eq, report = result
        if report is None:
            return {"newton_converged": False}
        pairs = ((operators.assemble_wentzell_robin_pair(self.mesh, self.K),
                  report.lambda_values, report.lambda_fields),
                 (operators.assemble_surface_shifted_pair(self.mesh),
                  report.mu_values, report.mu_fields))
        worst = 0.0
        for (stiff, mass), values, fields in pairs:
            res = stiff.matrix @ fields - (mass.matrix @ fields) * values
            worst = max(worst, float(np.max(np.linalg.norm(res, axis=0)
                                            / np.linalg.norm(fields, axis=0))))
        return {
            "newton_converged": eq.converged,
            "stable": eq.stability_tag > 0,
            "c_star": abs(report.c_star - self.C_STAR) <= self.C_STAR_TOLERANCE,
            "margin_positive": report.chosen_m > 0 and report.margin > 0,
            "eigen_residuals": worst < 1e-8,
        }

    def cleanup(self, result) -> None:
        pass


WORKLOADS = {w.name: w for w in (DiskRelax, IntervalKSweep, DiskSpectral)}
