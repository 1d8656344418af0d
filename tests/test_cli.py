"""Command-line layer: config resolution, run directories and manifests,
manifest-echo reruns, and checkpoint resume."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from bsac import cli, dynamics
from bsac.analysis import RATE_MODELS, SWEEP_REFERENCES
from bsac.cli import KEY_SPECS, RATE_SERIES, dispatch, main, parse_config
from bsac.dynamics import ROW_HEADER, TrajectoryRecord, read_checkpoint
from bsac.errors import ConfigurationError, InputError
from bsac.nonlinearity import make_spec
from conftest import forbid_sparse_lu

TINY = ["--set", "geometry=interval", "--set", "n=12",
        "--set", "dt=0.05", "--set", "t_final=0.3",
        "--set", "adaptive=false", "--set", "checkpoint_every=2",
        "--set", "seed=5"]
# the same run on the 8x16 disk: the interval's Newton direction is its band
# solve, the disk's is CG preconditioned with the band solve of an average
SMALL_DISK = ["--set", "n_r=8", "--set", "n_theta=16"] + TINY[4:]


def run_main(tmp_path, tag, args):
    root = tmp_path / tag
    status = main(list(args) + ["--output-root", str(root)])
    return status, root


def single_run_dir(root, subcommand):
    dirs = [p for p in root.iterdir() if p.name.startswith(subcommand + "-")]
    assert len(dirs) == 1
    return dirs[0]


def csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ROW_HEADER
    return lines[1:]


def test_empty_config_gives_documented_defaults():
    resolved = parse_config("")
    v = resolved.values
    assert v["geometry"] == "disk"
    assert (v["n_r"], v["n_theta"]) == (64, 128)
    assert v["K"] == 1.0
    assert v["t_final"] == 50.0
    assert v["bulk_potential"] == "double_well"
    assert v["coupling"] == "affine"
    assert resolved.run_config is not None
    assert resolved.spec is not None


def test_echo_round_trips_through_parse():
    first = parse_config("", {"geometry": "interval", "n": 24, "dt": 0.07})
    second = parse_config(first.echo())
    assert second.values == first.values
    assert second.config_hash() == first.config_hash()


# values of every kind of key, with the extremes of the float range where
# the key allows them
_EDGES = st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | _EDGES
_POSITIVE = st.floats(min_value=5e-324, max_value=1e308) | st.sampled_from([5e-324, 1e308])
_NONNEGATIVE = _POSITIVE | st.sampled_from([0.0, -0.0])
# where a family raises its parameters to a power: kept clear of overflow
_MODERATE = st.floats(1e-3, 1e3)
_BOOL_TEXT = {True: ["true", "1", "yes", "on"], False: ["false", "0", "no", "off"]}


@st.composite
def configs(draw):
    """Each key of KEY_SPECS set to a value its checks accept, as (value,
    text for the parser)."""
    def finite_list(min_size=0):
        return tuple(draw(st.lists(_FINITE, min_size=min_size, max_size=5)))

    dt_min, dt, dt_max = sorted(draw(st.lists(_POSITIVE, min_size=3, max_size=3)))
    scan_lo, scan_hi = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    values = {
        "geometry": draw(st.sampled_from(["disk", "interval"])),
        "radius": draw(_FINITE), "length": draw(_FINITE),
        "K": draw(_POSITIVE),
        "scheme": draw(st.sampled_from(["fully_implicit", "stabilized_semi_implicit"])),
        "dt": dt, "dt_min": dt_min, "dt_max": dt_max,
        "t_final": draw(_NONNEGATIVE), "newton_tol": draw(_POSITIVE),
        "newton_max_iter": draw(st.integers(min_value=1)),
        "adaptive": draw(st.booleans()), "reject_energy_increase": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0)),
        "init_kind": draw(st.sampled_from(["smoothed_noise", "constant"])),
        "init_mean": draw(_FINITE), "init_amplitude": draw(_FINITE),
        "init_smoothing": draw(_NONNEGATIVE),
        "sample_every": draw(st.integers(min_value=1)),
        "checkpoint_every": draw(st.integers(min_value=0)),
        "coupling": draw(st.sampled_from(["affine", "tanh"])),
        "coupling_alpha": draw(_FINITE), "coupling_eta": draw(_FINITE),
        "coupling_offset": draw(_FINITE),
        "steady_tol": draw(_FINITE), "steady_guess": draw(_FINITE),
        "probe_radius": draw(_POSITIVE),
        "rate_model": draw(st.sampled_from(RATE_MODELS)),
        "rate_series": draw(st.sampled_from(RATE_SERIES)),
        "k_values": finite_list(),
        "sweep_reference": draw(st.sampled_from(SWEEP_REFERENCES)),
        "validate_scan_lo": scan_lo, "validate_scan_hi": scan_hi,
        "validate_points": draw(st.integers(1000, 3000)),
    }
    for key in ("n_r", "n_theta", "n", "eigen_count", "max_m"):
        values[key] = draw(st.integers())
    for prefix in ("bulk", "surface"):
        kind = draw(st.sampled_from(["double_well", "scaled", "polynomial"]))
        size = _MODERATE if kind == "scaled" else _FINITE
        values.update({f"{prefix}_potential": kind, f"{prefix}_amplitude": draw(size),
                       f"{prefix}_width": draw(size),
                       f"{prefix}_coeffs": finite_list(3 if kind == "polynomial" else 0)})
    size = _MODERATE if values["coupling"] == "tanh" else _FINITE
    values.update(coupling_scale=draw(size), coupling_gain=draw(size))

    def text(value):
        if isinstance(value, bool):
            return draw(st.sampled_from(_BOOL_TEXT[value]))
        if isinstance(value, tuple):
            return ",".join(map(repr, value))
        return repr(value) if isinstance(value, float) else str(value)
    return values, {key: text(value) for key, value in values.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the scan of extreme families
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(configs())
def test_echo_of_any_valid_config_round_trips_through_parse(config):
    values, texts = config
    assert values.keys() == KEY_SPECS.keys()
    first = parse_config("", texts)
    assert first.values == values
    second = parse_config(first.echo())
    assert second.values == first.values
    # the hash reads the echo, so it also sees the sign of a zero
    assert second.config_hash() == first.config_hash()


def test_config_file_is_read_from_disk(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ngeometry = interval\nn = 20\n\nK = 2.5\n")
    resolved = parse_config(cfg)
    assert resolved.values["geometry"] == "interval"
    assert resolved.values["n"] == 20
    assert resolved.values["K"] == 2.5


def test_manifest_text_only_reads_config_section():
    base = parse_config("", {"n_r": 12, "n_theta": 24})
    text = ("subcommand = simulate\nexit_status = 0\n[config]\n"
            + base.echo() + "[end config]\nhash_mesh = deadbeef\n")
    resolved = parse_config(text)
    # junk keys outside the section must not be reported as errors
    assert resolved.values == base.values


def test_missing_config_file_is_reported():
    with pytest.raises(ConfigurationError, match="config file not found"):
        parse_config("no_such_file.cfg")


def test_one_long_inline_line_is_config_text():
    # longer than a file name may be, so opening it fails; it is still text
    assert parse_config("seed = " + "0" * 300 + "7").values["seed"] == 7


def test_nonpositive_k_rejected():
    with pytest.raises(ConfigurationError, match="K must be positive"):
        parse_config("K = -1")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigurationError) as err:
        parse_config("n_thta = 4")
    assert "unknown key 'n_thta'" in str(err.value)
    assert "n_theta" in str(err.value)


def test_cast_failure_names_expected_type():
    with pytest.raises(ConfigurationError, match="expected int, got 'many'"):
        parse_config("n_r = many")


def test_all_problems_collected_in_one_error():
    with pytest.raises(ConfigurationError) as err:
        parse_config("K = -2\ngeometry = torus\nbogus = 1\ninit_kind = blob\n")
    text = str(err.value)
    assert "K must be positive" in text
    assert "geometry must be disk or interval" in text
    assert "unknown key 'bogus'" in text
    assert "unknown init_kind 'blob'" in text


def test_bad_set_syntax_exits_2(tmp_path, capsys):
    status, _ = run_main(tmp_path, "a", ["validate", "--set", "oops"])
    assert status == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_config_error_exits_2(tmp_path, capsys):
    status, _ = run_main(tmp_path, "a", ["simulate", "--set", "K=-1"])
    assert status == 2
    assert "K must be positive" in capsys.readouterr().err
    # each cadence names its own bound: 0 is a valid checkpoint_every
    status, _ = run_main(tmp_path, "b", ["simulate", "--set", "checkpoint_every=-1"])
    assert status == 2
    err = capsys.readouterr().err
    assert "checkpoint_every must be nonnegative" in err and "sample_every" not in err
    # refused at parse time, not by numpy's generator inside the run
    status, root = run_main(tmp_path, "c", ["simulate", "--set", "seed=-1"])
    assert status == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not list(root.glob("simulate-*"))


def test_negative_smoothing_exits_2(tmp_path, capsys):
    status, _ = run_main(tmp_path, "a", ["simulate", "--set", "geometry=interval",
                                         "--set", "n=16", "--set", "init_smoothing=-0.25"])
    assert status == 2
    assert "init_smoothing must be nonnegative" in capsys.readouterr().err


def test_resume_flag_restricted_to_simulate(tmp_path, capsys):
    status, _ = run_main(tmp_path, "a",
                         ["steady", "--resume", "checkpoint_2.txt"])
    assert status == 2
    assert "only applies to simulate" in capsys.readouterr().err


def test_validate_run_dir_and_manifest(tmp_path, capsys):
    status, root = run_main(tmp_path, "a", ["validate"])
    assert status == 0
    run_dir = single_run_dir(root, "validate")
    assert re.fullmatch(r"validate-\d{8}-\d{6}-[0-9a-f]{8}(-\d+)?",
                        run_dir.name)
    assert (run_dir / "validation.txt").is_file()
    manifest = (run_dir / "manifest.txt").read_text()
    assert "check_assumptions_accepted = ok" in manifest
    assert "exit_status = 0" in manifest
    assert "[config]" in manifest and "[end config]" in manifest
    out = capsys.readouterr().out
    assert f"validate: exit 0, outputs in {run_dir}" in out


# F(s) = -s^2 has no linear lower bound, so the paper's hypotheses fail
INADMISSIBLE = ["--set", "geometry=interval", "--set", "n=16", "--set", "t_final=1",
                "--set", "bulk_potential=polynomial", "--set", "bulk_coeffs=0,0,-1"]


def test_inadmissible_spec_runs_and_exits_1(tmp_path):
    status, root = run_main(tmp_path, "a", ["simulate"] + INADMISSIBLE)
    entries = manifest_entries(root, "simulate")
    assert entries["check_assumptions_accepted"] == "FAIL"
    assert entries["check_completed"] == "ok"
    assert (status, entries["exit_status"]) == (1, "1")


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_every_manifest_leads_with_the_verdict(tmp_path, subcommand):
    # recorded before the command runs, whether it then succeeds or not
    run_main(tmp_path, "a", [subcommand] + TINY)
    manifest = (single_run_dir(tmp_path / "a", subcommand) / "manifest.txt").read_text()
    checks = [line for line in manifest.splitlines() if line.startswith("check_")]
    assert checks[0] == "check_assumptions_accepted = ok"


VALIDATION_ACCEPTED = """\
accepted = True
  [pass] coupling analytic: family 'affine' closed form
  [pass] coupling first derivative bounded: max sampled |h'| = 1, stored bound = 1
  [pass] coupling second derivative bounded: max sampled |h''| = 0, stored bound = 0
  [pass] coupling third derivative growth: max(|h'''| - envelope) = 0 with c = 0, exponent = 0
  [pass] potentials analytic: bulk 'double_well', surface 'double_well'
  [pass] bulk second-derivative growth: exponent = 1 (cap 3.0), max(|f''| - envelope) = -6
  [pass] surface second-derivative growth: exponent = 1 (cap inf), max(|f''| - envelope) = -6
  [pass] bulk potential linear lower bound: max(c1|s| - c2 - F) = -1.3 over |s| > 2
  [pass] surface potential linear lower bound: max(c1|s| - c2 - F) = -1.3 over |s| > 2
  [pass] bulk one-sided derivative bound: min sampled f' = -1, -c4 = -1
  [pass] surface one-sided derivative bound: min sampled f' = -1, -c4 = -1
  [pass] bulk derivative chain consistency: \
max relative gap between F' (central difference) and f = 1.37e-10
  [pass] surface derivative chain consistency: \
max relative gap between F' (central difference) and f = 1.37e-10
"""
VALIDATION_REJECTED = """\
accepted = False
  [pass] coupling analytic: family 'affine' closed form
  [pass] coupling first derivative bounded: max sampled |h'| = 1, stored bound = 1
  [pass] coupling second derivative bounded: max sampled |h''| = 0, stored bound = 0
  [pass] coupling third derivative growth: max(|h'''| - envelope) = 0 with c = 0, exponent = 0
  [pass] potentials analytic: bulk 'polynomial', surface 'double_well'
  [pass] bulk second-derivative growth: exponent = 0 (cap 3.0), max(|f''| - envelope) = 0
  [pass] surface second-derivative growth: exponent = 1 (cap inf), max(|f''| - envelope) = -6
  [FAIL] bulk potential linear lower bound: max(c1|s| - c2 - F) = 109 over |s| > 2
  [pass] surface potential linear lower bound: max(c1|s| - c2 - F) = -1.3 over |s| > 2
  [pass] bulk one-sided derivative bound: min sampled f' = -2, -c4 = -2
  [pass] surface one-sided derivative bound: min sampled f' = -1, -c4 = -1
  [pass] bulk derivative chain consistency: \
max relative gap between F' (central difference) and f = 7.08e-11
  [pass] surface derivative chain consistency: \
max relative gap between F' (central difference) and f = 1.37e-10
"""


@pytest.mark.parametrize("args, text, status", [([], VALIDATION_ACCEPTED, 0),
                                                (INADMISSIBLE, VALIDATION_REJECTED, 1)],
                         ids=["accepted", "rejected"])
def test_validate_writes_the_verdict_of_parse_time(tmp_path, args, text, status):
    # the verdict's text, pinned byte for byte
    assert run_main(tmp_path, "a", ["validate"] + args)[0] == status
    run_dir = single_run_dir(tmp_path / "a", "validate")
    assert (run_dir / "validation.txt").read_text() == text
    assert "timing_" not in (run_dir / "manifest.txt").read_text()


def test_simulate_writes_trajectory_and_checkpoints(tmp_path):
    status, root = run_main(tmp_path, "a", ["simulate"] + TINY)
    assert status == 0
    run_dir = single_run_dir(root, "simulate")
    rows = csv_rows(run_dir / "trajectory.csv")
    assert len(rows) >= 6
    cps = sorted(run_dir.glob("checkpoint_*.txt"))
    assert cps and (run_dir / "checkpoint_2.txt") in cps
    manifest = (run_dir / "manifest.txt").read_text()
    assert "check_energy_monotone = ok" in manifest
    assert "check_completed = ok" in manifest


def test_rerun_from_manifest_is_bitwise(tmp_path):
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    status, root_b = run_main(tmp_path, "b",
                              ["simulate", str(dir_a / "manifest.txt")])
    assert status == 0
    dir_b = single_run_dir(root_b, "simulate")
    # same resolved config hashes to the same run dir suffix
    assert dir_a.name[-8:] == dir_b.name[-8:]
    assert ((dir_a / "trajectory.csv").read_bytes()
            == (dir_b / "trajectory.csv").read_bytes())


def test_resume_reproduces_trajectory_tail(tmp_path):
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    cp, _ = read_checkpoint(dir_a / "checkpoint_2.txt")
    status, root_c = run_main(
        tmp_path, "c",
        ["simulate", str(dir_a / "manifest.txt"),
         "--resume", str(dir_a / "checkpoint_2.txt")])
    assert status == 0
    dir_c = single_run_dir(root_c, "simulate")

    def tail(run_dir):
        return [row for row in csv_rows(run_dir / "trajectory.csv")
                if float(row.split(",")[0]) > cp.time]

    resumed = tail(dir_c)
    assert resumed and resumed == tail(dir_a)


def test_checkpoints_are_written_as_the_run_reaches_them(tmp_path, monkeypatch):
    # a run whose 60th step raises keeps every checkpoint before it, and the
    # last one resumes to the uninterrupted run's rows bitwise
    args = ["simulate", "--set", "geometry=interval", "--set", "n=32",
            "--set", "dt=0.01", "--set", "t_final=0.8", "--set", "adaptive=false",
            "--set", "checkpoint_every=10"]
    _, root_a = run_main(tmp_path, "a", args)
    advance, steps = dynamics._Stepper.advance, []

    def failing_advance(self, *a, **kw):
        steps.append(1)
        if len(steps) == 60:
            raise RuntimeError("injected failure at step 60")
        return advance(self, *a, **kw)

    monkeypatch.setattr(dynamics._Stepper, "advance", failing_advance)
    status, root_b = run_main(tmp_path, "b", args)
    monkeypatch.undo()
    assert status == 2
    dir_b = single_run_dir(root_b, "simulate")
    assert "injected failure at step 60" in manifest_entries(root_b, "simulate")["error"]
    assert sorted(p.name for p in dir_b.glob("checkpoint_*.txt")) == [
        f"checkpoint_{step}.txt" for step in (10, 20, 30, 40, 50)]
    last = dir_b / "checkpoint_50.txt"
    cp, _ = read_checkpoint(last)
    status, root_c = run_main(tmp_path, "c",
                              ["simulate", str(dir_b / "manifest.txt"), "--resume", str(last)])
    assert status == 0

    def tail(root):
        return [row for row in csv_rows(single_run_dir(root, "simulate") / "trajectory.csv")
                if float(row.split(",")[0]) > cp.time]

    assert tail(root_c) and tail(root_c) == tail(root_a)


def test_resume_rejects_foreign_checkpoint(tmp_path):
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    other = [a if a != "seed=5" else "seed=6" for a in TINY]
    _, root_b = run_main(tmp_path, "b", ["simulate"] + other)
    dir_b = single_run_dir(root_b, "simulate")
    status, root_c = run_main(
        tmp_path, "c",
        ["simulate", str(dir_a / "manifest.txt"),
         "--resume", str(dir_b / "checkpoint_2.txt")])
    assert status == 2
    manifest = (single_run_dir(root_c, "simulate") / "manifest.txt").read_text()
    assert "different configuration" in manifest
    assert "exit_status = 2" in manifest


def test_aborted_simulate_exits_2_with_partial_output(tmp_path):
    # one-iteration Newton can never reach 1e-14, so every dt fails
    status, root = run_main(
        tmp_path, "a",
        ["simulate"] + TINY + ["--set", "adaptive=true",
                               "--set", "newton_tol=1e-14",
                               "--set", "newton_max_iter=1",
                               "--set", "dt_min=0.04"])
    assert status == 2
    run_dir = single_run_dir(root, "simulate")
    manifest = (run_dir / "manifest.txt").read_text()
    assert "error = " in manifest
    assert "exit_status = 2" in manifest
    assert (run_dir / "trajectory.csv").is_file()


def test_failed_check_exits_1(tmp_path):
    # a run parked at the well gives the probe nothing to fit
    status, root = run_main(
        tmp_path, "a",
        ["probe", "--set", "geometry=interval", "--set", "n=12",
         "--set", "dt=0.05", "--set", "t_final=0.5",
         "--set", "init_kind=constant", "--set", "init_mean=1.0"])
    assert status == 1
    run_dir = single_run_dir(root, "probe")
    probe = (run_dir / "probe.txt").read_text()
    assert "valid = false" in probe
    assert "reason = " in probe
    assert "check_probe_valid = FAIL" in (run_dir / "manifest.txt").read_text()


@pytest.mark.parametrize("rise, accepted", [
    (1e-12, True),              # 1.0 -> 1.000000000001: exactly the allowance at |E| = 1
    (3e-12, False),
    (float("nan"), False),
])
def test_energy_check_agrees_with_the_loop(tmp_path, monkeypatch, rise, accepted):
    # a step the loop accepts must not fail the manifest's energy check,
    # nor a step it rejects pass it
    old, new = 1.0, 1.0 + rise

    class Frozen(dynamics._Stepper):
        def implicit_step(self, state, functional, variation, dt, tol, max_iter):
            return state, functional, variation, 1, 0.0

    monkeypatch.setattr(dynamics, "variation_energy", lambda variation: SimpleNamespace(total=new))
    _, diag, *_ = Frozen().advance(None, SimpleNamespace(total=old), None, None, 0.1,
                                   "fully_implicit", newton_tol=1e-10, newton_max_iter=1,
                                   reject_energy_increase=True)
    assert diag.accepted is accepted
    zeros = np.zeros(2)
    record = TrajectoryRecord(np.array([0.0, 0.1]), np.zeros((2, 5)), np.array([old, new]),
                              zeros, zeros, zeros, diagnostics={
                                  "accepted": 1, "rejected": 0, "newton_iterations": 1,
                                  "factorizations": 0, "krylov_iterations": 0, "aborted": False})
    monkeypatch.setattr(cli, "run_trajectory", lambda *args, **kwargs: record)
    _, run_dir = dispatch("simulate", parse_config("", {"geometry": "interval", "n": 8}),
                          output_root=tmp_path)
    manifest = (run_dir / "manifest.txt").read_text()
    assert f"check_energy_monotone = {'ok' if accepted else 'FAIL'}" in manifest


def test_steady_writes_equilibrium(tmp_path):
    status, root = run_main(tmp_path, "a",
                            ["steady", "--set", "geometry=interval",
                             "--set", "n=16"])
    assert status == 0
    text = (single_run_dir(root, "steady") / "equilibrium.txt").read_text()
    assert "converged = true" in text
    bulk_line = next(l for l in text.splitlines() if l.startswith("bulk = "))
    bulk = np.array([float.fromhex(tok) for tok in bulk_line[7:].split()])
    assert np.allclose(bulk, 1.0, atol=1e-8)


def test_spectrum_output_matches_known_values(tmp_path):
    status, root = run_main(tmp_path, "a",
                            ["spectrum", "--set", "geometry=interval",
                             "--set", "n=32", "--set", "eigen_count=4"])
    assert status == 0
    text = (single_run_dir(root, "spectrum") / "spectrum.txt").read_text()
    values = {}
    for line in text.splitlines():
        m = re.match(r"\s*(lambda|mu)\[(\d+)\] = (\S+)", line)
        if m:
            values[(m.group(1), int(m.group(2)))] = float(m.group(3))
    # sin/cos transcendental root c^2 with c tan(c/2) = ... at K=1
    assert values[("lambda", 1)] == pytest.approx(0.65395537, rel=1e-3)
    # two-point surface pair sits at the unit shift exactly
    assert values[("mu", 1)] == pytest.approx(1.0, abs=1e-12)
    assert values[("mu", 2)] == pytest.approx(1.0, abs=1e-12)
    assert "check_eigen_residuals = ok" in (
        single_run_dir(root, "spectrum") / "manifest.txt").read_text()


def test_ratefit_reports_finite_fit(tmp_path):
    status, root = run_main(
        tmp_path, "a",
        ["ratefit", "--set", "geometry=interval", "--set", "n=16",
         "--set", "dt=0.05", "--set", "t_final=2.0",
         "--set", "adaptive=false", "--set", "seed=2"])
    assert status == 0
    run_dir = single_run_dir(root, "ratefit")
    text = (run_dir / "ratefit.txt").read_text()
    assert "series = dual_norm" in text
    exponent = float(next(l for l in text.splitlines()
                          if l.startswith("exponent = ")).split(" = ")[1])
    assert np.isfinite(exponent)
    assert (run_dir / "trajectory.csv").is_file()


def test_ksweep_csv_shape(tmp_path):
    status, root = run_main(
        tmp_path, "a",
        ["ksweep", "--set", "geometry=interval", "--set", "n=16",
         "--set", "dt=0.02", "--set", "t_final=0.3",
         "--set", "adaptive=false", "--set", "seed=12",
         "--set", "k_values=0.5,0.25"])
    assert status == 0
    run_dir = single_run_dir(root, "ksweep")
    lines = (run_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "K,gap,mismatch"
    assert len(lines) == 3
    manifest = (run_dir / "manifest.txt").read_text()
    assert "check_gap_monotone = ok" in manifest
    assert "hash_sweep_slopes = gap=" in manifest


def test_ksweep_smallest_k_reference_fits_the_other_gaps(tmp_path):
    # the reference row's own gap is exactly 0 and stays out of the gap fit
    status, root = run_main(
        tmp_path, "a",
        ["ksweep", "--set", "geometry=interval", "--set", "n=32",
         "--set", "dt=0.01", "--set", "t_final=0.4", "--set", "adaptive=false",
         "--set", "sweep_reference=smallest_k"])
    assert status == 0
    run_dir = single_run_dir(root, "ksweep")
    rows = [line.split(",") for line in
            (run_dir / "sweep.csv").read_text().splitlines()[1:]]
    gaps = {float(k): float(gap) for k, gap, _ in rows}
    assert gaps[min(gaps)] == 0.0 and all(g > 0 for k, g in gaps.items() if k != min(gaps))
    entries = manifest_entries(root, "ksweep")
    assert entries["check_slopes_finite"] == "ok"
    gap_slope = float(re.search(r"gap=([^,]+)", entries["hash_sweep_slopes"]).group(1))
    assert 0.9 < gap_slope < 1.1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reference", SWEEP_REFERENCES)
def test_ksweep_refuses_alpha_zero(tmp_path, reference):
    # the compatible initial state solves the trace constraint for phi
    status, root = run_main(
        tmp_path, "a",
        ["ksweep", "--set", "geometry=interval", "--set", "n=16", "--set", "t_final=0.2",
         "--set", "coupling_alpha=0", "--set", f"sweep_reference={reference}"])
    entries = manifest_entries(root, "ksweep")
    assert entries["error"] == "ConfigurationError: transmission limit requires alpha != 0"
    assert status == 2


def test_dispatch_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown subcommand"):
        dispatch("frobnicate", parse_config(""), output_root=tmp_path)


def test_config_hash_pinned_across_releases():
    # old manifests and checkpoints carry these hashes; resume compares them
    assert parse_config("").config_hash() == "56aec2cf65edd481"
    overrides = {"geometry": "interval", "n": 32, "adaptive": "false",
                 "k_values": "1e-1,1e-2"}
    assert parse_config("", overrides).config_hash() == "90f4b3852d7f2785"


@pytest.mark.parametrize("damage, field", [
    (lambda text: text[:text.index("bulk =")], "bulk"),
    (lambda text: text.replace("bulk = ", "bulk = 0xzz ", 1), "bulk"),
    (lambda text: text.replace("bulk = ", "bulk = inf ", 1), "bulk"),
    (lambda text: re.sub(r"^dt_policy = .*$", "dt_policy = nan", text, flags=re.MULTILINE),
     "dt_policy"),
])
def test_resume_rejects_malformed_checkpoint(tmp_path, damage, field):
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    broken = tmp_path / "broken_checkpoint.txt"
    broken.write_text(damage((dir_a / "checkpoint_2.txt").read_text()))
    status, root_c = run_main(
        tmp_path, "c",
        ["simulate", str(dir_a / "manifest.txt"), "--resume", str(broken)])
    assert status == 2
    manifest = (single_run_dir(root_c, "simulate") / "manifest.txt").read_text()
    assert re.search(rf"^error = InputError: .*'{field}'", manifest, re.MULTILINE)


def test_resume_rejects_a_checkpoint_above_dt_max(tmp_path):
    # the loop never writes a dt_policy above dt_max; an edited one that
    # keeps the config hash must not set the next step
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    edited = tmp_path / "edited_checkpoint.txt"
    edited.write_text(re.sub(r"^dt_policy = .*$", f"dt_policy = {(2.0).hex()}",
                             (dir_a / "checkpoint_2.txt").read_text(), flags=re.MULTILINE))
    status, root_c = run_main(
        tmp_path, "c", ["simulate", str(dir_a / "manifest.txt"), "--resume", str(edited)])
    assert status == 2
    manifest = (single_run_dir(root_c, "simulate") / "manifest.txt").read_text()
    assert re.search(r"^error = InputError: checkpoint dt_policy 2\.0 is above dt_max 1\.0$",
                     manifest, re.MULTILINE)


def test_resume_rejects_a_checkpoint_with_a_negative_step(tmp_path):
    # the loop never writes a negative step; an edited one would number the
    # resumed run's checkpoints from below zero
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    edited = tmp_path / "edited_checkpoint.txt"
    edited.write_text(re.sub(r"^step = .*$", "step = -7",
                             (dir_a / "checkpoint_2.txt").read_text(), flags=re.MULTILINE))
    status, root_c = run_main(
        tmp_path, "c", ["simulate", str(dir_a / "manifest.txt"), "--resume", str(edited)])
    assert status == 2
    run_dir = single_run_dir(root_c, "simulate")
    assert re.search(r"^error = InputError: checkpoint step -7 is negative$",
                     (run_dir / "manifest.txt").read_text(), re.MULTILINE)
    assert not list(run_dir.glob("checkpoint_*.txt"))


def test_resume_rejects_a_checkpoint_cut_inside_a_value(tmp_path):
    # cut five characters into its last hex token, the file still parses:
    # its last surface value reads 1.375 in place of 0.35642971
    _, root_a = run_main(tmp_path, "a", ["simulate", "--set", "geometry=interval",
                                         "--set", "n=16", "--set", "t_final=1",
                                         "--set", "checkpoint_every=5"])
    dir_a = single_run_dir(root_a, "simulate")
    text = (dir_a / "checkpoint_5.txt").read_text()
    cut = tmp_path / "cut_checkpoint.txt"
    cut.write_text(text[:text.rindex(" ") + 6])
    with pytest.raises(InputError, match="state_sha256"):
        read_checkpoint(cut)
    status, root_c = run_main(
        tmp_path, "c", ["simulate", str(dir_a / "manifest.txt"), "--resume", str(cut)])
    assert status == 2
    assert re.search(r"^error = InputError: .*state_sha256",
                     (single_run_dir(root_c, "simulate") / "manifest.txt").read_text(),
                     re.MULTILINE)


def unreadable_files(tmp_path):
    """A missing file, a directory and a file with a byte that is not UTF-8."""
    bad = tmp_path / "not_utf8.txt"
    bad.write_bytes(b"n = 16\nseed = \xff\n")
    return {"missing": tmp_path / "nothere.txt", "directory": tmp_path, "not utf-8": bad}


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_an_unreadable_config_file_exits_2_without_a_run_dir(tmp_path, kind, capsys):
    path = unreadable_files(tmp_path)[kind]
    with pytest.raises(ConfigurationError, match="config file"):
        parse_config(str(path))
    status, root = run_main(tmp_path, "a", ["validate", str(path)])
    assert status == 2
    assert f"config file {'not found' if kind == 'missing' else 'unreadable'}" in \
        capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_an_unreadable_checkpoint_is_an_input_error(tmp_path, kind):
    path = unreadable_files(tmp_path)[kind]
    with pytest.raises(InputError, match="cannot be read"):
        read_checkpoint(path)
    status, root = run_main(tmp_path, "a", ["simulate", "--resume", str(path)] + TINY)
    assert status == 2
    assert re.search(r"^error = InputError: checkpoint .* cannot be read: ",
                     (single_run_dir(root, "simulate") / "manifest.txt").read_text(),
                     re.MULTILINE)


def test_checkpoint_without_its_checksum_line_resumes_bitwise(tmp_path):
    # files written before the checksum line existed still load
    _, root_a = run_main(tmp_path, "a", ["simulate"] + TINY)
    dir_a = single_run_dir(root_a, "simulate")
    text = (dir_a / "checkpoint_2.txt").read_text()
    plain = tmp_path / "plain_checkpoint.txt"
    plain.write_text(re.sub(r"^state_sha256 = [0-9a-f]{64}\n", "", text, flags=re.MULTILINE))
    assert plain.read_text() != text
    status, root_c = run_main(
        tmp_path, "c", ["simulate", str(dir_a / "manifest.txt"), "--resume", str(plain)])
    assert status == 0
    resumed = csv_rows(single_run_dir(root_c, "simulate") / "trajectory.csv")
    assert resumed and resumed == csv_rows(dir_a / "trajectory.csv")[-len(resumed):]


def test_override_cast_failure_names_expected_type():
    # overrides are checked by the same code as config-file lines
    with pytest.raises(ConfigurationError) as err:
        parse_config("", {"n_r": "many", "n_thta": "4"})
    assert "key 'n_r': expected int, got 'many'" in str(err.value)
    assert "unknown key 'n_thta' (nearest valid key: n_theta)" in str(err.value)


def test_family_ignores_parameters_of_other_kinds():
    grid = np.linspace(-3.0, 3.0, 61)
    resolved = parse_config("", {"coupling": "tanh", "coupling_alpha": "3.0",
                                 "coupling_eta": "-2.0", "bulk_amplitude": "5.0",
                                 "surface_coeffs": "1,2,3"})
    plain = make_spec(coupling_kind="tanh")
    for which in ("f", "f_G", "h", "h'"):
        assert np.array_equal(resolved.spec.eval(which, grid), plain.eval(which, grid))


def test_polynomial_coupling_is_unknown(tmp_path, capsys):
    status, _ = run_main(tmp_path, "a", ["validate", "--set", "coupling=polynomial"])
    assert status == 2
    assert "unknown coupling kind 'polynomial'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["t_final", "K", "dt_max"])
def test_nonfinite_value_exits_2(tmp_path, capsys, key):
    status, root = run_main(tmp_path, "a", ["simulate", "--set", f"{key}=inf"])
    assert status == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("family_args, expected", [
    (["bulk_potential=scaled", "bulk_amplitude=nan"], "scaled potential needs finite"),
    (["surface_potential=scaled", "surface_width=inf"], "scaled potential needs finite"),
    (["bulk_potential=polynomial", "bulk_coeffs=0,0,nan,0,0.25"],
     "polynomial potential needs finite"),
    (["coupling=tanh", "coupling_gain=nan"], "tanh coupling needs finite"),
    (["coupling_alpha=-inf"], "affine coupling needs finite"),
    # finite, but a power in the family's constants overflows or underflows to 0
    (["bulk_potential=scaled", "bulk_width=1e308"], "scaled potential parameters out of range"),
    (["bulk_potential=scaled", "bulk_width=1e-100"], "scaled potential parameters out of range"),
    (["coupling=tanh", "coupling_gain=1e308"], "tanh coupling parameters out of range"),
])
def test_unusable_family_parameter_exits_2_before_any_run(tmp_path, capsys, family_args,
                                                          expected):
    overrides = [arg for pair in family_args for arg in ("--set", pair)]
    status, root = run_main(tmp_path, "a", ["simulate", *TINY, *overrides])
    assert status == 2
    assert expected in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("subcommand, key, value, expected", [
    ("ratefit", "rate_model", "bogus", "power, exponential, auto"),
    ("ratefit", "rate_series", "bogus", "dual_norm, energy_gap"),
    ("ksweep", "sweep_reference", "bogus", "transmission_limit, smallest_k"),
    ("probe", "probe_radius", "0", "must be positive"),
    ("probe", "probe_radius", "-0.5", "must be positive"),
])
def test_bad_choice_exits_2_before_any_run(tmp_path, capsys, subcommand, key, value, expected):
    status, root = run_main(tmp_path, "a", [subcommand, *TINY, "--set", f"{key}={value}"])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{key} must" in err and expected in err
    assert not root.exists()


def test_analysis_run_leaves_resolved_config_unchanged(tmp_path):
    resolved = parse_config("", {"geometry": "interval", "n": 12, "dt": 0.05,
                                 "t_final": 0.5, "init_kind": "constant",
                                 "init_mean": 1.0})
    dispatch("probe", resolved, output_root=tmp_path)
    assert resolved.run_config.keep_states is False


def test_spectrum_reruns_are_byte_identical(tmp_path):
    # 24x48 bulk unknowns go through the Fourier blocks
    args = ["spectrum", "--set", "n_r=24", "--set", "n_theta=48",
            "--set", "eigen_count=6"]
    texts = []
    for tag in ("a", "b"):
        status, root = run_main(tmp_path, tag, args)
        assert status == 0
        texts.append((single_run_dir(root, "spectrum") / "spectrum.txt").read_bytes())
    assert texts[0] == texts[1]


def test_simulate_manifest_reports_repeatable_solver_counts(tmp_path):
    keys = ("steps_accepted", "steps_rejected", "newton_iterations", "factorizations",
            "krylov_iterations")
    for case, args in (("interval", TINY), ("disk", SMALL_DISK)):
        counts = []
        for tag in ("a", "b"):
            status, root = run_main(tmp_path, case + tag, ["simulate"] + args)
            assert status == 0
            lines = (single_run_dir(root, "simulate") / "manifest.txt").read_text().splitlines()
            entries = dict(line.split(" = ", 1) for line in lines if " = " in line)
            counts.append({key: int(entries[key]) for key in keys})
        assert counts[0] == counts[1]
        assert counts[0]["steps_accepted"] == 6 and counts[0]["steps_rejected"] == 0
        assert counts[0]["factorizations"] == 0
        assert (counts[0]["krylov_iterations"] > 0) == (case == "disk")


def manifest_entries(root, subcommand):
    lines = (single_run_dir(root, subcommand) / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


@pytest.mark.parametrize("subcommand", ["steady", "probe"])
def test_newton_manifests_report_repeatable_solver_counts(tmp_path, subcommand):
    # from 0.58 the steady solve needs line-search halvings; probe solves from
    # the end of a short run. Every direction is a band solve: on the interval
    # the direction itself, on the disk CG's preconditioner.
    keys = ("newton_iterations", "factorizations", "krylov_iterations")
    if subcommand == "steady":
        keys += ("eigen_path_stability",)
    for case, args in (("interval", TINY), ("disk", SMALL_DISK)):
        counts = []
        for tag in ("a", "b"):
            status, root = run_main(tmp_path, case + tag,
                                    [subcommand, "--set", "steady_guess=0.58"] + args)
            assert status in (0, 1)
            entries = manifest_entries(root, subcommand)
            counts.append({key: entries[key] for key in keys})
        assert counts[0] == counts[1]
        assert int(counts[0]["factorizations"]) == 0
        assert (int(counts[0]["krylov_iterations"]) > 0) == (case == "disk")
        if subcommand == "steady":
            assert counts[0]["eigen_path_stability"] == "arpack"


@pytest.mark.parametrize("args, bulk_path", [
    (["--set", "n_r=24", "--set", "n_theta=48"], "blocks"),
    (["--set", "geometry=interval", "--set", "n=512"], "arpack"),
], ids=["disk", "interval"])
def test_spectrum_manifest_names_each_eigensolver_path(tmp_path, args, bulk_path):
    # the circle's surface pencil is circulant, so it takes the blocks path;
    # the interval's is 2x2, and 4 pairs asked of it are all of them
    status, root = run_main(tmp_path, "a", ["spectrum", "--set", "eigen_count=4"] + args)
    assert status == 0
    entries = manifest_entries(root, "spectrum")
    surface_path = "blocks" if bulk_path == "blocks" else "dense"
    assert (entries["eigen_path_bulk"], entries["eigen_path_surface"]) == (bulk_path,
                                                                         surface_path)


def test_interval_spectrum_builds_no_sparse_lu(tmp_path, monkeypatch):
    forbid_sparse_lu(monkeypatch)
    status, root = run_main(tmp_path, "a", ["spectrum", "--set", "eigen_count=12",
                                            "--set", "geometry=interval", "--set", "n=512"])
    assert status == 0
    entries = manifest_entries(root, "spectrum")
    assert entries["eigen_path_bulk"] == "arpack"
    assert entries["check_eigen_residuals"] == "ok"


def test_spectrum_exits_2_on_an_arpack_error(tmp_path, monkeypatch):
    def failing_eigsh(*args, **kwargs):
        raise RuntimeError("ARPACK error -9999")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    status, root = run_main(tmp_path, "a", ["spectrum", "--set", "eigen_count=4",
                                            "--set", "geometry=interval", "--set", "n=512"])
    assert status == 2
    entries = manifest_entries(root, "spectrum")
    assert "arpack eigensolve failed: ARPACK error -9999" in entries["error"]
    assert "eigen_path_bulk" not in entries
