"""Command-line front end: flat key=value configuration, subcommand dispatch,
run directories with manifests, and deterministic output tables.

Every run writes into its own directory (timestamp plus config hash) and
nothing outside it. The manifest embeds the fully resolved configuration
between [config]/[end config] markers; feeding the manifest back in as the
configuration reproduces the run bitwise, which is the backbone of the
determinism guarantee. Floats are serialized through repr so the tables
round-trip exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import functools
import hashlib
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, InputError, RunAbort
from .nonlinearity import (SCAN_POINTS, SCAN_RANGE, CouplingFamily, NonlinearitySpec,
                           PotentialFamily, make_spec)
from .mesh import Mesh
from .energy import FieldPair
from .dynamics import (Checkpoint, RunConfig, TrajectoryRecord, atomic_writer, energy_rose,
                       hex_line, read_checkpoint, run_trajectory, write_checkpoint)
from .steady_spectral import pair_spectra, solve_stationary_newton
from .analysis import (RATE_MODEL, RATE_MODELS, SWEEP_REFERENCE, SWEEP_REFERENCES,
                       fit_decay_rate, k_sweep, ls_probe)

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False, "on": True, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


# RunConfig fields that are not config keys: keep_states is chosen by the
# subcommand, spec is built from the potential and coupling keys
_RUN_FIELDS = [f for f in fields(RunConfig)
               if f.name not in ("keep_states", "spec")]
_CASTERS = {"str": str, "float": float, "int": int, "bool": _parse_bool,
            "tuple": _parse_float_list}

# family parameters with a flat key "<prefix>_<parameter>"; every kind gets
# all of them and ignores the ones it does not use
_POTENTIAL_PARAMS = ("amplitude", "width", "coeffs")
_COUPLING_PARAMS = ("alpha", "eta", "scale", "gain", "offset")


def _family_keys(kind_key: str, prefix: str, family, params) -> dict:
    """A nonlinearity family's keys, cast and defaulted by the family's fields."""
    fam = {f.name: f for f in fields(family)}
    return {kind_key: (str, fam["kind"].default),
            **{f"{prefix}_{p}": (_CASTERS[fam[p].type], fam[p].default) for p in params}}


# key -> (caster, default). Order here is the canonical echo order.
KEY_SPECS = {
    **{f.name: (_CASTERS[f.type], f.default) for f in _RUN_FIELDS},
    **_family_keys("bulk_potential", "bulk", PotentialFamily, _POTENTIAL_PARAMS),
    **_family_keys("surface_potential", "surface", PotentialFamily, _POTENTIAL_PARAMS),
    **_family_keys("coupling", "coupling", CouplingFamily, _COUPLING_PARAMS),
    "eigen_count": (int, 12),
    "max_m": (int, 96),
    "steady_tol": (float, 1e-11),
    "steady_guess": (float, 0.9),
    "probe_radius": (float, 0.5),
    "rate_model": (str, RATE_MODEL),
    "rate_series": (str, "dual_norm"),
    "k_values": (_parse_float_list, (1e-1, 1e-2, 1e-3, 1e-4)),
    "sweep_reference": (str, SWEEP_REFERENCE),
    "validate_scan_lo": (float, SCAN_RANGE[0]),
    "validate_scan_hi": (float, SCAN_RANGE[1]),
    "validate_points": (int, SCAN_POINTS),
}

_FLOAT_KEYS = {k for k, (cast, _) in KEY_SPECS.items() if cast is float}
_LIST_KEYS = {k for k, (cast, _) in KEY_SPECS.items() if cast is _parse_float_list}


@dataclass
class ResolvedConfig:
    values: dict
    run_config: RunConfig
    spec: NonlinearitySpec

    def echo(self) -> str:
        lines = []
        for key in KEY_SPECS:
            val = self.values[key]
            if key in _FLOAT_KEYS:
                text = repr(float(val))
            elif key in _LIST_KEYS:
                text = ",".join(repr(float(v)) for v in val)
            elif isinstance(val, bool):
                text = "true" if val else "false"
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:16]


def _extract_config_lines(text: str):
    lines = text.splitlines()
    if any(line.strip() == "[config]" for line in lines):
        inside = False
        picked = []
        for line in lines:
            stripped = line.strip()
            if stripped == "[config]":
                inside = True
                continue
            if inside and stripped.startswith("["):
                break
            if inside:
                picked.append(line)
        return picked
    return lines


def _build_spec(values: dict, errors: list) -> NonlinearitySpec | None:
    """The spec of the family keys, with its verdict on the validate_* grid."""
    def params(prefix, names):
        return {p: values[f"{prefix}_{p}"] for p in names}

    try:
        return make_spec(values["bulk_potential"], values["surface_potential"],
                         values["coupling"],
                         bulk_params=params("bulk", _POTENTIAL_PARAMS),
                         surface_params=params("surface", _POTENTIAL_PARAMS),
                         coupling_params=params("coupling", _COUPLING_PARAMS),
                         scan_range=(values["validate_scan_lo"],
                                     values["validate_scan_hi"]),
                         scan_points=values["validate_points"])
    except (ConfigurationError, InputError, ValueError) as exc:
        errors.append(str(exc))
        return None


def parse_config(source: str | Path, overrides: dict | None = None) -> ResolvedConfig:
    """Resolve a config from a file path or inline text.

    One line is a file path, unless it holds "=" and names no readable file.
    Manifest files work directly: only the [config] section is read. All
    omitted keys take their documented defaults; every problem found, a
    file that cannot be opened or decoded too, is reported in one
    ConfigurationError.
    """
    text = str(source)
    if text.strip() and "\n" not in text:
        path = Path(text)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            # one line with "=" that names no readable file is inline text
            if "=" not in text or isinstance(exc, UnicodeDecodeError):
                missing = isinstance(exc, FileNotFoundError)
                reason = "not found" if missing else f"unreadable ({exc})"
                raise ConfigurationError(f"config file {reason}: {path}") from None

    values = {key: default for key, (_, default) in KEY_SPECS.items()}
    errors = []
    assignments = []
    for lineno, line in enumerate(_extract_config_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        assignments.append((key.strip(), raw.strip()))
    # overrides come last, so they win over the file
    assignments += [(key, str(val)) for key, val in (overrides or {}).items()]
    for key, raw in assignments:
        if key not in KEY_SPECS:
            near = difflib.get_close_matches(key, KEY_SPECS, n=1)
            hint = f" (nearest valid key: {near[0]})" if near else ""
            errors.append(f"unknown key {key!r}{hint}")
            continue
        cast = KEY_SPECS[key][0]
        try:
            values[key] = cast(raw)
        except (ValueError, TypeError):
            errors.append(f"key {key!r}: expected {cast.__name__}, got {raw!r}")
    for key, choices in (("rate_model", RATE_MODELS), ("rate_series", RATE_SERIES),
                         ("sweep_reference", SWEEP_REFERENCES)):
        if values[key] not in choices:
            errors.append(f"{key} must be one of {', '.join(choices)}, got {values[key]!r}")
    if not values["probe_radius"] > 0:
        errors.append(f"probe_radius must be positive, got {values['probe_radius']!r}")

    spec = _build_spec(values, errors)
    try:
        run_config = RunConfig(**{f.name: values[f.name] for f in _RUN_FIELDS}, spec=spec)
    except ConfigurationError as exc:
        errors.append(str(exc))
    if errors:
        raise ConfigurationError("configuration invalid:\n  " + "\n  ".join(errors))
    return ResolvedConfig(values, run_config, spec)


def _fmt(v) -> str:
    return repr(float(v))


class RunManifest:
    def __init__(self, subcommand: str, resolved: ResolvedConfig):
        self.subcommand = subcommand
        self.resolved = resolved
        self.hashes: dict = {}
        self.timings: dict = {}
        self.counts: dict = {}
        self.checks: dict = {}
        self.errors: list = []

    def exit_status(self) -> int:
        if self.errors:
            return 2
        return 0 if all(self.checks.values()) else 1

    def render(self) -> str:
        lines = [
            "# run manifest",
            f"artifact_version = {__version__}",
            f"subcommand = {self.subcommand}",
            f"created = {datetime.now().isoformat(timespec='seconds')}",
            f"config_hash = {self.resolved.config_hash()}",
        ]
        lines += [f"hash_{k} = {v}" for k, v in self.hashes.items()]
        lines += [f"timing_{k} = {v:.3f}s" for k, v in self.timings.items()]
        lines += [f"{k} = {v}" for k, v in self.counts.items()]
        lines += [f"check_{k} = {'ok' if v else 'FAIL'}" for k, v in self.checks.items()]
        lines += [f"error = {e}" for e in self.errors]
        lines.append(f"exit_status = {self.exit_status()}")
        lines.append("[config]")
        lines.append(self.resolved.echo().rstrip("\n"))
        lines.append("[end config]")
        return "\n".join(lines) + "\n"


def _make_run_dir(root: Path, subcommand: str, resolved: ResolvedConfig) -> Path:
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    base = f"{subcommand}-{stamp}-{resolved.config_hash()[:8]}"
    candidate = root / base
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = root / f"{base}-{suffix}"
    candidate.mkdir(parents=True)
    return candidate


@contextlib.contextmanager
def _phase(manifest: RunManifest, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        manifest.timings[name] = time.perf_counter() - start


def _cmd_simulate(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest,
                  resume_path: str | None) -> None:
    cfg = resolved.run_config
    mesh = cfg.build_mesh()
    manifest.hashes["mesh"] = mesh.content_hash()
    config_hash = resolved.config_hash()
    resume = None
    if resume_path is not None:
        cp, stored_hash = read_checkpoint(resume_path)
        if stored_hash and stored_hash != config_hash:
            raise ConfigurationError(
                "checkpoint belongs to a different configuration")
        resume = cp

    def write(cp: Checkpoint) -> None:
        write_checkpoint(run_dir / f"checkpoint_{cp.step}.txt", cp, config_hash)

    with _phase(manifest, "simulate"):
        try:
            record = run_trajectory(cfg, mesh=mesh, resume=resume, on_checkpoint=write)
        except RunAbort as abort:
            record = abort.partial_record
            manifest.errors.append(str(abort))
    (run_dir / "trajectory.csv").write_text("\n".join(record.csv_lines()) + "\n")
    total = record.energy_total
    manifest.checks["energy_monotone"] = not np.any(energy_rose(total[:-1], total[1:]))
    diag = record.diagnostics
    manifest.checks["completed"] = not diag["aborted"]
    manifest.checks["rejections_recoverable"] = not diag["aborted"]
    manifest.counts.update(steps_accepted=diag["accepted"], steps_rejected=diag["rejected"],
                           newton_iterations=diag["newton_iterations"],
                           factorizations=diag["factorizations"],
                           krylov_iterations=diag["krylov_iterations"])


def _cmd_steady(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    cfg = resolved.run_config
    mesh = cfg.build_mesh()
    manifest.hashes["mesh"] = mesh.content_hash()
    g = resolved.values["steady_guess"]
    guess = FieldPair.constant(mesh, g, g)
    with _phase(manifest, "newton"):
        eq = solve_stationary_newton(mesh, resolved.spec, cfg.K, guess,
                                     resolved.values["steady_tol"])
    lines = [
        f"converged = {str(eq.converged).lower()}",
        f"residual_dual_norm = {_fmt(eq.residual_dual_norm)}",
        f"newton_iterations = {eq.newton_iterations}",
        f"stability_tag = {_fmt(eq.stability_tag)}",
        hex_line("bulk", eq.state.bulk), hex_line("surface", eq.state.surface),
    ]
    (run_dir / "equilibrium.txt").write_text("\n".join(lines) + "\n")
    manifest.counts.update(newton_iterations=eq.newton_iterations,
                           factorizations=eq.factorizations,
                           krylov_iterations=eq.krylov_iterations,
                           eigen_path_stability=eq.stability_path)
    manifest.checks["newton_converged"] = eq.converged


def _cmd_spectrum(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    cfg = resolved.run_config
    mesh = cfg.build_mesh()
    manifest.hashes["mesh"] = mesh.content_hash()
    count = resolved.values["eigen_count"]
    with _phase(manifest, "eigen"):
        wr, surf = pair_spectra(mesh, cfg.K, count)
    manifest.counts.update(eigen_path_bulk=wr.path, eigen_path_surface=surf.path)
    lines = [f"K = {_fmt(cfg.K)}", "bulk spectrum (boundary-weighted pair):"]
    lines += [f"  lambda[{i + 1}] = {_fmt(v)}" for i, v in enumerate(wr.values)]
    lines.append("surface spectrum (shifted pair):")
    lines += [f"  mu[{j + 1}] = {_fmt(v)}" for j, v in enumerate(surf.values)]
    lines.append(f"max_residual = {_fmt(max(wr.residuals.max(), surf.residuals.max()))}")
    lines.append(f"gram_defect = {_fmt(max(wr.gram_defect, surf.gram_defect))}")
    (run_dir / "spectrum.txt").write_text("\n".join(lines) + "\n")
    manifest.checks["eigen_residuals"] = bool(
        max(wr.residuals.max(), surf.residuals.max()) < 1e-8)
    manifest.checks["gram_identity"] = bool(
        max(wr.gram_defect, surf.gram_defect) < 1e-8)


def _cmd_ksweep(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    cfg = resolved.run_config
    with _phase(manifest, "sweep"):
        table = k_sweep(cfg, resolved.values["k_values"],
                        resolved.values["sweep_reference"])
    (run_dir / "sweep.csv").write_text("\n".join(table.csv_lines()) + "\n")
    gaps = [r.gap for r in sorted(table.rows, key=lambda r: r.K)]
    manifest.checks["gap_monotone"] = bool(np.all(np.diff(gaps) >= 0))
    manifest.checks["slopes_finite"] = bool(np.isfinite(table.gap_slope)
                                            and np.isfinite(table.mismatch_slope))
    manifest.hashes["sweep_slopes"] = (f"gap={table.gap_slope:.4f},"
                                       f"mismatch={table.mismatch_slope:.4f}")


def _run_for_analysis(resolved: ResolvedConfig, manifest: RunManifest,
                      keep_states: bool) -> tuple[Mesh, TrajectoryRecord]:
    cfg = replace(resolved.run_config, keep_states=keep_states)
    mesh = cfg.build_mesh()
    manifest.hashes["mesh"] = mesh.content_hash()
    with _phase(manifest, "simulate"):
        record = run_trajectory(cfg, mesh=mesh)
    return mesh, record


RATE_SERIES = ("dual_norm", "energy_gap")


def _cmd_ratefit(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    mesh, record = _run_for_analysis(resolved, manifest, keep_states=False)
    (run_dir / "trajectory.csv").write_text("\n".join(record.csv_lines()) + "\n")
    series_kind = resolved.values["rate_series"]    # one of RATE_SERIES
    values = (record.dual_norm if series_kind == "dual_norm"
              else record.energy_total - record.energy_total[-1])
    mask = values > 1e-14
    if np.count_nonzero(mask) < 10:
        raise InputError("series decayed below resolution; not enough samples to fit")
    with _phase(manifest, "fit"):
        fit = fit_decay_rate((record.times[mask], values[mask]),
                             resolved.values["rate_model"])
    lines = [
        f"series = {series_kind}",
        f"model = {fit.model}",
        f"exponent = {_fmt(fit.exponent)}",
        f"prefactor = {_fmt(fit.prefactor)}",
        f"r_squared = {_fmt(fit.r_squared)}",
        f"window = {_fmt(fit.window[0])} .. {_fmt(fit.window[1])}",
    ]
    (run_dir / "ratefit.txt").write_text("\n".join(lines) + "\n")
    manifest.checks["fit_finite"] = bool(np.isfinite(fit.exponent))


def _cmd_probe(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    cfg = resolved.run_config
    mesh, record = _run_for_analysis(resolved, manifest, keep_states=True)
    (run_dir / "trajectory.csv").write_text("\n".join(record.csv_lines()) + "\n")
    with _phase(manifest, "newton"):
        eq = solve_stationary_newton(mesh, resolved.spec, cfg.K,
                                     record.final_state(),
                                     resolved.values["steady_tol"],
                                     compute_stability=False)
    with _phase(manifest, "probe"):
        probe = ls_probe(mesh, resolved.spec, cfg.K, record, eq,
                         resolved.values["probe_radius"])
    lines = [
        f"valid = {str(probe.valid).lower()}",
        f"samples = {probe.gaps.size}",
        f"slope = {_fmt(probe.slope)}",
        f"theta = {_fmt(probe.theta)}",
        f"fitted_c = {_fmt(probe.fitted_c)}",
        f"window_radius = {_fmt(probe.window_radius)}",
    ]
    if probe.reason:
        lines.append(f"reason = {probe.reason}")
    (run_dir / "probe.txt").write_text("\n".join(lines) + "\n")
    manifest.counts.update(newton_iterations=eq.newton_iterations,
                           factorizations=eq.factorizations,
                           krylov_iterations=eq.krylov_iterations)
    manifest.checks["newton_converged"] = eq.converged
    manifest.checks["probe_valid"] = probe.valid


def _cmd_validate(resolved: ResolvedConfig, run_dir: Path, manifest: RunManifest) -> None:
    (run_dir / "validation.txt").write_text(resolved.spec.validation.summary() + "\n")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "spectrum": _cmd_spectrum,
    "ksweep": _cmd_ksweep,
    "ratefit": _cmd_ratefit,
    "probe": _cmd_probe,
    "validate": _cmd_validate,
}
SUBCOMMANDS = tuple(_COMMANDS)


def dispatch(subcommand: str, resolved: ResolvedConfig, *,
             output_root: str | Path = "runs",
             resume_path: str | None = None) -> tuple[int, Path]:
    """Run one subcommand; returns (exit status, run directory).

    The first check is the spec's admissibility verdict from parse_config,
    so a spec outside the hypotheses exits 1 whatever the subcommand.
    resume_path only applies to simulate; other subcommands ignore it.
    """
    if subcommand not in _COMMANDS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    command = _COMMANDS[subcommand]
    if subcommand == "simulate":
        command = functools.partial(command, resume_path=resume_path)
    run_dir = _make_run_dir(Path(output_root), subcommand, resolved)
    manifest = RunManifest(subcommand, resolved)
    manifest.checks["assumptions_accepted"] = resolved.spec.validation.accepted
    try:
        command(resolved, run_dir, manifest)
    except Exception as exc:   # manifest must record the failure either way
        manifest.errors.append(f"{type(exc).__name__}: {exc}")
    with atomic_writer(run_dir / "manifest.txt") as fh:
        fh.write(manifest.render())
    return manifest.exit_status(), run_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsac",
        description="Bulk-surface Allen-Cahn laboratory with Robin boundary "
                    "relaxation")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", nargs="?", default=None,
                        help="config file (or manifest of a previous run)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides", help="override one config key")
    parser.add_argument("--output-root", default="runs")
    parser.add_argument("--resume", default=None, metavar="CHECKPOINT",
                        help="continue a simulate run from a checkpoint file")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.overrides:
        key, sep, val = item.partition("=")
        if not sep:
            print(f"bad --set (need KEY=VALUE): {item}", file=sys.stderr)
            return 2
        overrides[key.strip()] = val.strip()
    try:
        resolved = parse_config(args.config if args.config is not None else "",
                                overrides)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.resume is not None and args.subcommand != "simulate":
        print("--resume only applies to simulate", file=sys.stderr)
        return 2
    status, run_dir = dispatch(args.subcommand, resolved,
                               output_root=args.output_root,
                               resume_path=args.resume)
    print(f"{args.subcommand}: exit {status}, outputs in {run_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
