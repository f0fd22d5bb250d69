"""Self-test of the benchmark harness at toy size (about a minute).

    python3 bench/selftest.py

Kept out of the repository's test suite on purpose: it starts processes
and times them. It runs every workload at toy size with and without
tracing and asserts that each metric named in BENCHMARK.json is reported
with its unit and that the output check passes. It then corrupts one score
in the CLI's report and asserts that the check catches it, and runs the
benchmark from a directory without the program's sources, which must fail
without printing a result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import run

TOY = {
    "short_wide": {"n_transcripts": 12, "n_problems": 30},
    "long_narrow": {"n_transcripts": 2, "lines_per_segment": [20, 30]},
    "llm_independent": {"n_transcripts": 8},
}
SEED = 2


def check_metrics(name: str, trace: bool) -> None:
    result = run.run_workload(name, SEED, seconds=1, trace=trace, spec_override=TOY[name])
    assert result["correct"], (name, trace, result["problems"])
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    expected = run.units()["per_layer" if trace else "end_to_end"]
    got = json.loads(json.dumps(result["metrics"]))
    assert {m: v["unit"] for m, v in got.items()} == expected, (name, trace, got)
    assert all(isinstance(v["value"], (int, float)) for v in got.values()), got
    if not trace:
        assert all(v["value"] > 0 for v in got.values()), (name, got)
    print(f"ok  {name} trace={int(trace)}")


def corrupt_one_score(out) -> None:
    path = out / "shard-00" / "posr" / "posr_metrics.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["srs_line"] = str(float(rows[0]["srs_line"]) + 1e-9)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def check_corruption_caught() -> None:
    result = run.run_workload("short_wide", SEED, seconds=1, trace=False,
                              spec_override=TOY["short_wide"], before_check=corrupt_one_score)
    assert not result["correct"], "corrupted score passed the output check"
    runs = result["attempted"] // TOY["short_wide"]["n_transcripts"]
    assert result["failed"] == runs, result
    assert result["metrics"]["ok_frac"]["value"] < 1.0, result["metrics"]
    print("ok  corrupted score caught:", result["problems"][0])


def check_fails_without_sources() -> None:
    bare = run.ROOT / ".posrbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "short_wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  no sources: exit", proc.returncode)


def main() -> int:
    run.CONFIG["setup_repeats"] = 1
    for name in TOY:
        for trace in (False, True):
            check_metrics(name, trace)
    check_corruption_caught()
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
