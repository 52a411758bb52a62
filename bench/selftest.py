"""Toy-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload shrunk to a tiny cohort and one epoch per training call
and checks that

* each run's last line carries exactly the result keys, with every metric
  of BENCHMARK.json under its unit, and that all output checks pass;
* the exact counts of the traced run repeat between two runs with the
  same seed;
* a deliberately corrupted program output makes the run report a failed
  operation, for each kind of check.

Exits 0 when everything holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
SECONDS = "1"


def expect(problems: list[str], ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_toy(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
           "--toy"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(problems: list[str], result: dict, spec_metrics: list[dict],
                 label: str) -> None:
    expect(problems, set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly the four keys")
    expect(problems, result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1,
           f"{label}: correct, {result['attempted']} attempted, none failed")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(problems, got == want, f"{label}: every metric emitted with its unit")
    expect(problems, all(isinstance(v["value"], (int, float))
                         and math.isfinite(v["value"])
                         for v in result["metrics"].values()),
           f"{label}: every value is a finite number")


def corrupted_run(workload: str, patch) -> dict:
    """Run the toy workload in this process with `patch` applied."""
    import run
    buf = io.StringIO()
    with patch(), contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", str(SEED),
                  "--seconds", SECONDS, "--toy"])
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def replaced(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []

    print("metrics and units")
    for name in names:
        check_result(problems, run_toy(name, 0), spec["end_to_end"],
                     f"{name} trace 0")
        check_result(problems, run_toy(name, 1), spec["per_layer"],
                     f"{name} trace 1")

    print("exact counts repeat between runs")
    import tracing
    first, second = run_toy("score-missing", 1), run_toy("score-missing", 1)
    for count in tracing.EXACT_COUNTS:
        a, b = first["metrics"][count]["value"], second["metrics"][count]["value"]
        expect(problems, a == b, f"{count}: {a} == {b}")

    print("corrupted outputs fail a check")
    sys.path.insert(0, str(ROOT / "src"))
    from nkm import data, model, training
    import workloads

    def shift_observed(transform):
        def bad(self, X):
            Z = transform(self, X)
            i, j = np.argwhere(~np.isnan(np.asarray(X)))[0]
            Z[i, j] += 1e-3
            return Z
        return bad

    def perturb_batches(predict):
        def bad(self, X):
            y = predict(self, X)
            return y + 1e-9 if len(X) > 1 else y
        return bad

    def nan_last_epoch(train):
        def bad(*args, **kwargs):
            res = train(*args, **kwargs)
            res.history[-1]["L_koop"] = float("nan")
            return res
        return bad

    cases = [
        ("imputed entry off by 1e-3", "score-missing",
         lambda: replaced(data.Preprocessor, "transform", shift_observed)),
        ("batched predictions off by 1e-9", "train-full-alt",
         lambda: replaced(model.NkmModel, "predict", perturb_batches)),
        ("non-finite loss part", "score-missing",
         lambda: replaced(training, "train", nan_last_epoch)),
    ]
    for label, workload, patch in cases:
        result = corrupted_run(workload, patch)
        expect(problems, result["failed"] >= 1 and result["correct"] is False,
               f"{label}: {result['failed']} of {result['attempted']} failed")

    K = 2.0 * np.eye(4)
    expect(problems, workloads.check_k_norm(K, workloads.RHO) is not None,
           "||K||_2 above rho fails the norm check")
    expect(problems, workloads.check_k_norm(0.25 * K, workloads.RHO) is None,
           "||K||_2 below rho passes the norm check")
    expect(problems, workloads.check_floor("r", 0.1, 0.5) is not None,
           "a Pearson r below its floor fails")

    print("self-test " + ("passed" if not problems else
                          f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
