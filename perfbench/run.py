"""bsac benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload disk-relax --seed 1 --seconds 35 --trace 0

--trace 0 times whole jobs with tracing off and reports the end-to-end
metrics named in BENCHMARK.json (wall_s, setup_s, cpu_s, peak_rss_mb).
--trace 1 alternates an untraced and a traced job and reports the per-layer
metrics, plus the tracing overhead (traced minus untraced wall time).

One closed-loop client runs jobs back to back, in this process, with no added
threads, until the next job would end past --seconds (at least one job, or one
pair under --trace 1). Every job's outputs are checked; the last line of
standard output is the JSON result. Full results, an environment stamp and,
for traced runs, every recorded span go to .perfbench_out/ in the root.

The bsac sources are imported from src/ next to this directory, never from an
installed copy; without them the benchmark exits with status 1.
"""

import time

T0 = time.perf_counter()     # set-up is timed from here, before any heavy import

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 2       # extra cold set-ups, each in a fresh interpreter

# One thread everywhere: the benchmark adds none, and a BLAS pool that spins on
# both cores of a small shared machine turns other tenants' load into noise.
# Set before numpy is first imported; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_program():
    init = SRC / "bsac" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: bsac sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import bsac
    if Path(bsac.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported bsac from {bsac.__file__}, not {init}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment stamp ---------------------------------------------------------

def _blas_threads() -> dict:
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "bsac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "bsac_seed": workload.bsac_seed,
    }


# -- measurement -----------------------------------------------------------------

def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_job(workload, tracer=None) -> dict:
    """One timed job; its outputs are checked afterwards, untimed and untraced."""
    workload.prepare()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = workload.run()
        else:
            with tracer.installed():
                result = workload.run()
    except Exception:
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - wall0, "checks": {"job_completed": False}}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        checks = workload.check(result)
    except Exception:
        traceback.print_exc()
        checks = {"outputs_readable": False}
    finally:
        workload.cleanup(result)
    return {"wall_s": wall, "cpu_s": cpu, "checks": checks}


def closed_loop(seconds: float, one_round) -> list:
    """Run rounds back to back until the next one would end past `seconds`."""
    start = time.perf_counter()
    done = []
    while True:
        done.append(one_round())
        elapsed = time.perf_counter() - start
        if (not all(all(r["checks"].values()) for r in done[-1])
                or elapsed * (len(done) + 1) / len(done) > seconds):
            return done


def layer_values(tracers: list) -> dict:
    """Per-layer metrics from one set-up tracer plus traced jobs.

    Raw values (calls, self and inclusive seconds, counts) are the set-up's
    plus the median over traced jobs; ratios and means are derived after.
    """
    def raw(tracer):
        vals = dict(tracer.counts)
        for name, row in tracer.summary().items():
            for key, value in row.items():
                vals[f"{name}.{key}"] = value
        vals["trace.spans"] = len(tracer.spans)
        return vals

    setup, jobs = raw(tracers[0]), [raw(t) for t in tracers[1:]]
    keys = set(setup).union(*jobs)
    vals = {k: setup.get(k, 0) + statistics.median(j.get(k, 0) for j in jobs) for k in keys}
    for key in [k for k in keys if k.endswith(".splu.fill_nnz_total")]:
        base = key[: -len(".fill_nnz_total")]
        vals[base + ".fill_nnz"] = vals[key] / vals[base + ".calls"]
        vals[base + ".factor_bytes"] = vals[base + ".factor_bytes_total"] / vals[base + ".calls"]
    steps = vals.get("dynamics.steps_accepted", 0) + vals.get("dynamics.steps_rejected", 0)
    vals["dynamics.accept_ratio"] = vals.get("dynamics.steps_accepted", 0) / steps if steps else 0.0
    vals["cli.io_s"] = vals.get("cli.dispatch.incl_s", 0.0) - vals.get("cli.run_trajectory.incl_s", 0.0)
    return vals


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    Workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        Workload(args.seed, OUT)
        print(repr(time.perf_counter() - T0))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            import tracing
            tracers = [tracing.Tracer()]
            with tracers[0].installed():
                workload = Workload(args.seed, scratch)

            def one_round():
                untraced = run_job(workload)
                tracers.append(tracing.Tracer())
                return [untraced, run_job(workload, tracers[-1])]
        else:
            workload = Workload(args.seed, scratch)
            setup = [time.perf_counter() - T0]
            setup += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

            def one_round():
                return [run_job(workload)]
        jobs = [job for rnd in closed_loop(args.seconds, one_round) for job in rnd]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [ok for job in jobs for ok in job["checks"].values()]
    failed = checks.count(False)
    if args.trace:
        untraced = statistics.median(j["wall_s"] for j in jobs[0::2])
        traced = statistics.median(j["wall_s"] for j in jobs[1::2])
        vals = layer_values(tracers)
        vals.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                     "trace.overhead_s": traced - untraced})
        wanted = bench["per_layer"]
    else:
        vals = {
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "cpu_s": statistics.median(j.get("cpu_s", 0.0) for j in jobs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": vals.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    env = environment(workload, args.seed)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"env": env, "jobs": jobs, "metrics": metrics, "all_values": vals,
              "setup_samples_s": None if args.trace else setup}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, default=float) + "\n")
    if args.trace:
        for i, tracer in enumerate(tracers):
            tracer.write_spans(Path(f"{stem}-{'setup' if i == 0 else f'job{i}'}.spans.csv"), T0)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(jobs)} jobs, {len(checks)} checks, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44} {failed / len(checks):>16.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
