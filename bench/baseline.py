"""Measures the baseline: repeated benchmark runs, medians and spreads.

    python3 bench/baseline.py [--runs 10] [--workloads short_wide ...] [--out FILE]

For each workload it runs ``bench/run.py`` once per seed (seeds 1..runs,
tracing off) and reports each end-to-end metric's median, quartiles and
spread (interquartile distance as a share of the median, from
``statistics.quantiles(values, n=4)``). It then makes one traced run at the
default seed for the per-layer split. The result is printed and, with
``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(run.benchmark_doc()["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{proc.stderr[-2000:]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark baseline: medians and spreads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=list(run.CONFIG["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    doc = {"run_seconds": run.benchmark_doc()["run_seconds"], "runs": args.runs,
           "seeds": list(range(1, args.runs + 1)),
           "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
           "workloads": {}}
    for workload in args.workloads:
        started = time.perf_counter()
        results = [one_run(workload, seed, 0) for seed in doc["seeds"]]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        entry = {"end_to_end": metrics, "wall_s_per_run": (time.perf_counter() - started) / args.runs}
        for name, m in metrics.items():
            print(f"{workload:16s} {name:12s} median {m['median']:.6g}  spread {m['spread']:.4f}")
        traced = one_run(workload, run.CONFIG["default_seed"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for name, value in entry["per_layer"].items():
            print(f"{workload:16s} {name:26s} {value:.6g}")
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
