"""nkm benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload score-missing --seed 8 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same workload with spans around calls into the nkm modules and
reports the per-layer metrics instead, together with the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--setup-only`` stops after set-up and prints its duration; the main run
starts two such processes after its timed phase, so ``setup_s`` is the
median of three cold set-ups. ``--toy`` shrinks every workload to seconds,
for the self-test.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3             # cold set-ups whose median is setup_s
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--toy", action="store_true")
    return p.parse_args(argv)


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, n_params: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
        "params": n_params,
    }


def child_setups(args, n: int) -> tuple[list[float], list[str]]:
    """Durations of `n` cold set-ups, each in its own process, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--toy"] if args.toy else [])
    times, problems = [], []
    for _ in range(n):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append("set-up process timed out")
            continue
        last = out.stdout.strip().splitlines()[-1:] or [""]
        if out.returncode != 0 or not last[0].startswith("setup_s "):
            problems.append(f"set-up process failed: {out.stderr.strip()[-500:]}")
            continue
        times.append(float(last[0].split()[1]))
    return times, problems


def percentile_summary(samples: list[float], scale: float = 1.0) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {scale * float(np.median(samples)):.6g}"
    for p in (99.9, 99.5, 99, 95, 90):
        if n * (1.0 - p / 100.0) >= 10:
            text += f", p{p:g} {scale * float(np.percentile(samples, p)):.6g}"
            break
    return text + f", n={n}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nkm" / "__init__.py").is_file():
        print(f"bench: no nkm package under {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.toy:
        wl = workloads.toy(wl)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    s = workloads.setup(wl, args.seed)
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(f"setup_s {setup_main!r}")
        return 0

    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    try:
        smp = workloads.run_timed(s, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        plain = float(np.median(workloads.train_rates(s, smp, traced=False)))
        traced = float(np.median(workloads.train_rates(s, smp, traced=True)))
        metrics, unsteady = tracer.metrics(100.0 * (plain / traced - 1.0))
        for name in unsteady:
            smp.record(f"exact count {name} differs between calls: "
                       f"{sorted(set(tracer.counts[name]))}")
        units = tracing.PER_LAYER_UNITS
    else:
        setups, problems = child_setups(args, SETUP_RUNS - 1)
        for problem in problems:
            smp.record(problem)
        metrics = workloads.end_to_end(s, smp, [setup_main] + setups,
                                       peak_rss_mb)
        units = workloads.END_TO_END_UNITS

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  model params {s.model.params.n_values()}")
    timings = [("train() call", smp.train_s, 1.0, "s"),
               ("predict 1 window", smp.predict1_s, 1e3, "ms"),
               (f"predict {len(s.predict_X)} windows", smp.predict_batch_s, 1.0, "s"),
               ("transform held-out rows", smp.transform_s, 1e3, "ms"),
               ("EDMD fit", smp.edmd_fit_s, 1.0, "s"),
               ("verify_bound", smp.bound_s, 1.0, "s")]
    for label, samples, scale, unit in timings:
        print(f"  {label:<26} {percentile_summary(samples, scale)} ({unit})")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    for problem in smp.failures:
        print(f"  FAILED: {problem}")
    print("env " + json.dumps(environment(args, s.model.params.n_values()),
                              sort_keys=True))
    result = {
        "correct": not smp.failures,
        "attempted": smp.attempted,
        "failed": len(smp.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
