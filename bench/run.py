"""Benchmark of the locent workbench, measured from outside the library.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_sparse_l1 --seed 1 --seconds 28 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One run executes units of one workload (see ``workloads.py``) in this single
process, serially and with one BLAS thread, until the next unit would end
past ``--seconds``; at least one unit always runs, two for
``sweep_monotone2d``.  It prints an environment
header, every metric by name and unit, and as its last line one JSON object:

* ``--trace 0``: the end-to-end metrics ``wall_s`` (median wall time of a
  unit), ``setup_s`` (median over fresh processes of the time from process
  start to inputs ready, ``import locent`` included) and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics, per unit, from a run with the
  outside-in tracer installed, followed by an untraced rerun of unit 0 whose
  output digest must equal the traced one; the time difference of the two is
  ``trace.overhead_s``.

Failed units (a replicate whose risk is NaN or that raised, an MC cell that
raised or missed its closed-form bound) count toward ``failed``.  Output
digests are also kept in ``.bench_out/digests.json``, keyed by a hash of the
sources, the workload, the unit seed and the BLAS core, so any two runs of
the same code and unit in a checkout are compared; runs on different BLAS
cores are flagged, not compared, because OpenBLAS cores may round
differently.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread, recorded in the header
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("sweep_sparse_l1", "sweep_ellipsoid", "sweep_monotone2d", "mc_checks")
SETUP_SAMPLES = 5


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import locent from this checkout's src/ and nowhere else."""
    if not (SRC / "locent" / "__init__.py").is_file():
        fail(f"no locent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import locent

    if Path(locent.__file__).resolve().parent != (SRC / "locent").resolve():
        fail(f"imported locent from {locent.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Environment header
# ---------------------------------------------------------------------------


def _openblas_runtime() -> dict:
    # the core OpenBLAS picked at load time; show_config reports the build's
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if fn is None:
                    continue
                fn.restype = ctypes.c_char_p
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                threads.restype = ctypes.c_int
                return {"core": fn().decode(), "threads": threads()}
    return {"core": "unknown", "threads": None}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **_openblas_runtime()},
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_only(name: str):
    """Child side of the set-up probe: import, build the inputs, report."""
    workloads = import_library()
    workloads.WORKLOADS[name].inputs()
    print("ready", flush=True)


def measure_setup(name: str) -> list[float]:
    """Process start to inputs ready, in fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            fail(f"set-up of {name} failed")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_units(workload, inputs, seed: int, seconds: float, tracer=None):
    """Run units until the next one would end past ``seconds``, and at least
    ``workload.min_units`` of them."""
    times, results = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.unit = len(results)
        t0 = time.perf_counter()
        results.append(workload.run_unit(len(results), seed, inputs))
        times.append(time.perf_counter() - t0)
        if (len(times) >= workload.min_units
                and time.perf_counter() - start + statistics.median(times) > seconds):
            return times, results


def risk_ratio(results) -> tuple[float, float, int]:
    """Mean over n of pooled mean risk / theory, its standard error, and the
    number of replicates behind it."""
    import numpy as np

    if not results[0].theory:
        return 0.0, 0.0, 0
    ratios, var, count = [], 0.0, 0
    for n, theory in results[0].theory.items():
        risks = np.concatenate([r.risks[n] for r in results])
        risks = risks[np.isfinite(risks)]
        count += len(risks)
        ratios.append(risks.mean() / theory)
        if len(risks) > 1:
            var += (risks.std(ddof=1) / np.sqrt(len(risks)) / theory) ** 2
    return float(np.mean(ratios)), float(np.sqrt(var) / len(ratios)), count


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(name: str, core: str, digests: dict) -> tuple[list, list]:
    """Check unit digests against earlier runs of the same code in this
    checkout; returns (mismatches, BLAS-core flags) and records new ones."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    src = source_hash()
    mismatches, flags = [], []
    for useed, digest in digests.items():
        entry = known.setdefault(f"{src}:{name}:{useed}", {})
        if entry.get(core, digest) != digest:
            mismatches.append(f"unit seed {useed}: {digest[:12]} != {entry[core][:12]}")
        others = sorted(c for c in entry if c != core)
        if others:
            flags.append(f"unit seed {useed} also ran on BLAS core(s) {others}; not compared")
        entry.setdefault(core, digest)
    OUT.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    tmp.replace(store)
    return mismatches, flags


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(totals: dict, units: int, overhead: float, ratio: float) -> dict:
    """Per-unit layer metrics.  A name ``<span>.<field>`` reads that field
    of ``Tracer.totals``; the ratios and sums are derived here."""
    def get(span, field):
        return totals.get(span, {}).get(field, 0) / units

    derived = {
        "packing.centers_per_candidate": (
            get("packing.greedy_select", "centers")
            / max(get("packing.greedy_select", "candidates"), 1e-300)),
        "entropy.distinct_per_call": (
            get("entropy.local_entropy", "distinct")
            / max(get("entropy.local_entropy", "calls"), 1e-300)),
        "estimator.risk_ratio": ratio,
        "harness.mc_trials": (get("harness.check_test_error", "trials")
                              + get("harness.check_norm_concentration", "trials")),
        "trace.overhead_s": overhead,
    }
    out = {}
    for name, unit in declared_metrics("per_layer").items():
        value = derived[name] if name in derived else get(*name.rsplit(".", 1))
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args):
    # run_experiment's per-n standard error is undefined at one replicate
    warnings.filterwarnings("ignore", "Degrees of freedom", RuntimeWarning)
    setup_times = None if args.trace else measure_setup(args.workload)
    workloads = import_library()
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    env = environment()
    inputs = workload.inputs()
    print(json.dumps({"env": env, "workload": args.workload, "seed": seed,
                      "seconds": args.seconds, "trace": args.trace}))

    tracer = None
    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            times, results = run_units(workload, inputs, seed, args.seconds, tracer)
        t0 = time.perf_counter()
        recheck = workload.run_unit(0, seed, inputs)
        untraced0 = time.perf_counter() - t0
    else:
        times, results = run_units(workload, inputs, seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    digests = {workloads.unit_seed(seed, i): r.digest for i, r in enumerate(results)}
    if args.trace and recheck.digest != results[0].digest:
        problems.append("traced and untraced digests of unit 0 differ")
    mismatches, flags = compare_digests(args.workload, env["blas"]["core"], digests)
    problems += [f"digest differs from an earlier run: {m}" for m in mismatches]
    ratio, ratio_se, ratio_count = risk_ratio(results)

    print(f"units {len(results)}: " + " ".join(f"{t:.3f}" for t in times) + " s")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} units)")
    if ratio_count:
        print(f"risk_ratio {ratio:.6g} ratio, standard error {ratio_se:.3g}"
              f" (over {ratio_count} replicates)")
    print(f"digest {results[0].digest} (unit 0, seed {seed})")
    for line in problems:
        print(f"INCORRECT: {line}")
    for line in flags:
        print(f"FLAG: {line}")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{seed}.json")
        metrics = layer_metrics(tracer.totals(), len(results), times[0] - untraced0, ratio)
        wall = statistics.mean(times)
        print(f"traced wall {wall:.4f} s per unit")
    else:
        values = {"wall_s": statistics.median(times),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()}
    for name, m in metrics.items():
        share = f" ({m['value'] / wall:.1%} of wall)" if args.trace and m["unit"] == "s" else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{share}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            print(f"== {name} trace={trace}", flush=True)
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(out.stdout, end="", flush=True)
            if out.returncode != 0:
                fail(f"{name} trace={trace} exited with {out.returncode}")
            summary[f"{name}/trace{trace}"] = json.loads(out.stdout.splitlines()[-1])
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance master seed)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
