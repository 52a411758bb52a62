"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 10 --first-seed 100 --out bench/results/baseline.json

Each run is a fresh process of the command in BENCHMARK.json, one at a
time. For every workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``, next to the metric's bound from BENCHMARK.json, and writes all
values plus the environment of the first run to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(spec: dict, workload: str, seed: int, trace: int
             ) -> tuple[dict, dict, float]:
    """(result object, env record, wall seconds) of one benchmark process."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr.strip()[-2000:]}")
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env, wall


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", default=None,
                   help="comma-separated names; default: all in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": seeds, "env": None, "workloads": {}}
    worst = 0.0
    for name in names:
        results, walls = [], []
        for seed in seeds:
            result, env, wall = run_once(spec, name, seed, args.trace)
            report["env"] = report["env"] or env
            results.append(result)
            walls.append(wall)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", flush=True)
        per_metric = {}
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in results]
            per_metric[m] = summarize(values, bounds[m])
            per_metric[m]["unit"] = results[0]["metrics"][m]["unit"]
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "wall_s": walls,
            "metrics": per_metric,
        }
        print(f"\n{name}: median [q1, q3] spread (bound)")
        for m, st in per_metric.items():
            flag = ""
            if st["bound"] is not None and m != "setup_s":
                worst = max(worst, st["spread"] / st["bound"])
                flag = "  <-- above a third of its bound" \
                    if st["spread"] > st["bound"] / 3 else ""
            bound = "" if st["bound"] is None else f" ({st['bound']})"
            print(f"  {m:<40} {st['median']:.6g} [{st['q1']:.6g}, "
                  f"{st['q3']:.6g}] {st['spread']:.4f}{bound} {st['unit']}{flag}")
        print(flush=True)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if bounds and any(b is not None for b in bounds.values()):
        print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
