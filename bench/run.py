"""posr benchmark: one workload run, its output check, one JSON result line.

    python3 bench/run.py --workload short_wide --seed 1 --seconds 20 --trace 0

The program is imported from the ``src`` directory of the checkout that
holds this script. The run generates the workload's corpus from the seed
(``bench/workloads.json`` holds the generator parameters) and writes it as
equal shard manifests. It times a fresh interpreter importing the CLI and
loading every shard (``setup_s``, median of several launches), then starts
``bench/worker.py`` in its own process: a closed loop of CLI runs, one per
shard, for ``--seconds``, followed by one traced pass through the layers.
``lines_per_s`` is the median over those runs of shard lines / wall time;
many short samples keep the median steady under bursts of host contention.
The LLM workload also starts ``bench/fake_llm.py`` as its endpoint.

Every run checks the outputs: reports are byte-identical across the loop's
runs; the CLI's per-transcript scores and thresholds equal the traced
pass's; flagged transcripts are exactly the planted prose replies, which
equal the parse fallbacks; at the default seed the score columns equal
``bench/reference.json``. A transcript that fails a check counts as failed
and lowers ``ok_frac``.

The last line of standard output is the JSON result. With ``--trace 0`` it
carries the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1``
the per-layer ones. ``--update-reference`` rewrites the workload's entry
in ``bench/reference.json`` from a checked run at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
REFERENCE_PATH = BENCH / "reference.json"
MODEL = "bench-fake-model"
# one dollar per token, so cost_usd_per_100 reads as tokens per 100 transcripts
PRICES = {MODEL: {"input_usd_per_1k": 1000.0, "output_usd_per_1k": 1000.0}}
WORKER_TIMEOUT_S = 150
SETUP_SNIPPET = (
    "import sys, time\n"
    "import posr.cli\n"
    "from posr.corpus import load_corpus, load_manifest\n"
    "for manifest in sys.argv[1:]:\n"
    "    load_corpus(load_manifest(manifest))\n"
    "print(time.time())\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def benchmark_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units() -> dict[str, dict[str, str]]:
    return {kind: {m["name"]: m["unit"] for m in benchmark_doc()[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict[str, str]:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup(manifests: list[str], repeats: int) -> float:
    """Median wall time of a fresh interpreter importing posr.cli and loading
    every shard. One extra launch first fills the bytecode and page caches."""
    times = []
    for i in range(repeats + 1):
        t0 = time.time()
        # the child stamps its own end: waiting with a timeout polls in
        # steps of up to 50 ms, which would quantize the measurement
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *manifests],
                              env=child_env(), check=True, timeout=60,
                              stdout=subprocess.PIPE, text=True)
        if i:
            times.append(float(proc.stdout) - t0)
    return statistics.median(times)


class FakeEndpoint:
    """bench/fake_llm.py in its own process, stopped on exit from the block."""

    def __init__(self, plan_path: Path):
        self.plan_path = plan_path

    def __enter__(self) -> str:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fake_llm.py"), "--plan", str(self.plan_path)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.__exit__()
            raise BenchError("fake endpoint did not start")
        return f"http://127.0.0.1:{int(line)}"

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def shard_entries(entries: tuple, n_shards: int) -> dict[str, tuple]:
    """Contiguous, near-equal shards named shard-00, shard-01, ..."""
    n = len(entries)
    k = min(n_shards, n)
    return {f"shard-{i:02d}": entries[i * n // k:(i + 1) * n // k] for i in range(k)}


def plant_prose(name: str, seed: int, shards: dict[str, tuple], per_shard: int) -> set[str]:
    """Exactly ``per_shard`` transcripts of every shard, chosen from the seed,
    whose segmentation reply is prose."""
    rng = random.Random(f"{name}:{seed}")
    return {tid for entries in shards.values()
            for tid in rng.sample([e.transcript.id for e in entries], per_shard)}


def read_csv_rows(path: Path) -> dict[str, dict[str, str]]:
    if not path.exists():
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["transcript_id"]: row for row in csv.DictReader(fh)}


def same_value(cli: str, expected) -> bool:
    if expected is None:
        return cli == ""
    try:
        return float(cli) == float(expected)
    except ValueError:
        return False


def check_outputs(ids: list[str], planted: set[str], worker: dict, out: Path,
                  shards: list[str], reference: dict | None) -> tuple[set[str], list[str]]:
    """Returns (transcripts that failed a check, problems found)."""
    problems: list[str] = []
    bad: set[str] = set()
    iterations, traced = worker["iterations"], worker["traced"]
    cli = cli_outputs(out, shards)

    def fail_all(problem: str) -> None:
        problems.append(problem)
        bad.update(ids)

    if any(code != 0 for it in iterations for code in it["exit_codes"]):
        fail_all("a CLI command exited non-zero")
    if len({it["digest"] for it in iterations}) != 1:
        fail_all("reports differ between runs of the same inputs")

    for tid in ids:
        row, expected = cli["rows"].get(tid), traced["rows"].get(tid)
        if row is None or expected is None:
            bad.add(tid)
            problems.append(f"{tid}: missing from posr_metrics.csv or the traced pass")
            continue
        wrong = [c for c, v in expected.items() if c != "transcript_id"
                 and not same_value(row.get(c, ""), v)]
        if wrong:
            bad.add(tid)
            problems.append(f"{tid}: CLI and traced scores differ in {wrong}")
        if reference is not None:
            ref_row = reference["rows"].get(tid)
            wrong = (["every column"] if ref_row is None else
                     [c for c, v in ref_row.items() if not same_value(row.get(c, ""), v)])
            if wrong:
                bad.add(tid)
                problems.append(f"{tid}: scores differ from bench/reference.json in {wrong}")

    cli_failed: set[str] = set()
    for shard in shards:
        path = out / shard / "posr" / "failed_transcripts.json"
        if path.exists():
            cli_failed.update(json.loads(path.read_text(encoding="utf-8")))
    for tid in (cli_failed ^ planted) | (set(traced["failed"]) ^ planted):
        bad.add(tid)
        problems.append(f"{tid}: flagged by the CLI or traced pass, but not planted (or the reverse)")

    if cli["thresholds"] != traced["thresholds"]:
        fail_all(f"CLI thresholds {cli['thresholds']} != traced {traced['thresholds']}")
    if reference is not None and reference["thresholds"] != cli["thresholds"]:
        fail_all(f"thresholds {cli['thresholds']} differ from bench/reference.json")

    layer = traced["per_layer"]
    if traced["server"]:
        served = [it["server"]["malformed_served"] for it in iterations]
        served.append(traced["server"]["malformed_served"])
        if set(served) != {len(planted)} or layer["llm.parse_fallbacks"] != len(planted):
            fail_all(f"{len(planted)} planted prose replies, endpoint served {served}, "
                     f"{layer['llm.parse_fallbacks']} parse fallbacks")
        if traced["usage_tokens"] != layer["llm.tokens_in"] + layer["llm.tokens_out"]:
            fail_all("tokens accounted by the runner differ from the endpoint's replies")
    return bad, problems


def cli_outputs(out: Path, shards: list[str]) -> dict:
    """The CLI's per-transcript report rows and per-shard thresholds."""
    rows: dict[str, dict[str, str]] = {}
    thresholds: dict[str, dict[str, float]] = {}
    for shard in shards:
        rows.update(read_csv_rows(out / shard / "posr" / "posr_metrics.csv"))
        path = out / shard / "calibrate" / "thresholds.json"
        thresholds[shard] = (json.loads(path.read_text(encoding="utf-8"))["thresholds"]
                             if path.exists() else {})
    return {"rows": rows, "thresholds": thresholds}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 spec_override: dict | None = None, check_reference: bool = True,
                 before_check=None) -> dict:
    """Runs one workload and returns the result object (plus ``problems``
    and the CLI's outputs under ``outputs``)."""
    sys.path.insert(0, str(SRC))
    from posr.corpus import Corpus, SyntheticSpec, generate_synthetic, write_corpus

    from fake_llm import transcript_key

    wl = CONFIG["workloads"][name]
    spec = {**wl["spec"], **(spec_override or {})}
    for key in ("lines_per_segment", "segments_per_transcript"):
        spec[key] = tuple(spec[key])
    reference = None
    if check_reference and spec_override is None and seed == CONFIG["default_seed"]:
        reference = load_reference(name)
        if reference is None:
            raise BenchError(f"bench/reference.json has no entry for {name}")

    work = ROOT / ".posrbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = generate_synthetic(SyntheticSpec(seed=seed, **spec))
        shards = shard_entries(corpus.entries, wl["shards"])
        manifests = {shard: str(write_corpus(Corpus(entries, corpus.split), work / "corpus" / shard))
                     for shard, entries in shards.items()}
        shard_lines = [sum(len(e.transcript) for e in entries) for entries in shards.values()]
        ids = [e.transcript.id for e in corpus.entries]
        setup_s = measure_setup(list(manifests.values()), CONFIG["setup_repeats"])

        job = {"src": str(SRC), "shards": manifests, "commands": wl["commands"],
               "out": str(work / "out"), "result": str(work / "result.json"),
               "seconds": seconds, "min_iterations": CONFIG["min_iterations"],
               "model": MODEL, "endpoint_url": None}
        planted: set[str] = set()
        endpoint = contextlib.nullcontext()
        if "endpoint" in wl:
            ep = wl["endpoint"]
            planted = plant_prose(name, seed, shards, ep["prose_per_shard"])
            plan = {"latency_s": ep["latency_s"], "span_lines": ep["span_lines"],
                    "fail_period": ep["fail_period"], "fail_offset": seed % ep["fail_period"],
                    "prose_keys": sorted(transcript_key([l.utterance for l in e.transcript.lines])
                                         for e in corpus.entries if e.transcript.id in planted)}
            (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
            endpoint = FakeEndpoint(work / "plan.json")

        with endpoint as url:
            if url is not None:
                ep = wl["endpoint"]
                job["endpoint_url"] = url
                job["llm_config"] = str(work / "llm_config.json")
                job["prices"] = str(work / "prices.json")
                (work / "llm_config.json").write_text(json.dumps({
                    "url": url + "/v1/chat/completions", "timeout_s": 30,
                    "max_attempts": ep["max_attempts"], "backoff_s": ep["backoff_s"],
                }), encoding="utf-8")
                (work / "prices.json").write_text(json.dumps(PRICES), encoding="utf-8")
            (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
            subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "job.json")],
                           env=child_env(), check=True, timeout=WORKER_TIMEOUT_S,
                           stdout=sys.stderr)
        worker = json.loads((work / "result.json").read_text(encoding="utf-8"))

        out = work / "out"
        if before_check is not None:
            before_check(out)
        bad, problems = check_outputs(ids, planted, worker, out, list(shards), reference)
        iterations = worker["iterations"]
        traced = worker["traced"]
        if trace:
            run_s = statistics.median(sum(it["shard_wall_s"]) for it in iterations)
            values = {**traced["per_layer"], "cli.other_s": run_s - traced["layer_total_s"]}
            kind = "per_layer"
        else:
            values = {"lines_per_s": statistics.median(
                          lines / wall for it in iterations
                          for lines, wall in zip(shard_lines, it["shard_wall_s"])),
                      "setup_s": setup_s,
                      "peak_rss_mb": worker["peak_rss_mb"],
                      "ok_frac": len(set(ids) - bad - planted) / len(ids)}
            kind = "end_to_end"
        metrics = {m: {"value": values[m], "unit": u} for m, u in units()[kind].items()}
        return {"correct": not problems, "attempted": len(ids) * len(iterations),
                "failed": len(bad) * len(iterations), "metrics": metrics, "problems": problems,
                "outputs": cli_outputs(out, list(shards))}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_reference(name: str) -> dict | None:
    """The workload's reference rows as {transcript_id: {column: value}}."""
    entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(name)
    if entry is None:
        return None
    rows = {tid: dict(zip(entry["columns"], values)) for tid, values in entry["rows"].items()}
    return {"thresholds": entry["thresholds"], "rows": rows}


def update_reference(name: str, result: dict) -> None:
    """Stores the CLI's score columns at the default seed, one transcript a line."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    rows = result["outputs"]["rows"]
    columns = [c for c in next(iter(rows.values())) if c != "transcript_id"]
    doc[name] = {
        "seed": CONFIG["default_seed"],
        "thresholds": result["outputs"]["thresholds"],
        "columns": columns,
        "rows": {tid: [float(row[c]) if row[c] != "" else None for c in columns]
                 for tid, row in sorted(rows.items())},
    }
    lines = []
    for wl, entry in sorted(doc.items()):
        head = {k: v for k, v in entry.items() if k != "rows"}
        rows_text = ",\n".join(f"   {json.dumps(tid)}: {json.dumps(values)}"
                               for tid, values in entry["rows"].items())
        lines.append(f" {json.dumps(wl)}: {json.dumps(head)[:-1]}, \"rows\": {{\n{rows_text}\n  }}}}")
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="posr benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=int, default=benchmark_doc()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the worker and the fake endpoint are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "posr" / "__init__.py").is_file():
        print(f"error: no posr sources at {SRC}", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != CONFIG["default_seed"]:
        print("error: the reference is taken at the default seed", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              check_reference=not args.update_reference)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.update_reference:
        if not result["correct"]:
            print("error: reference not updated, the run failed its checks", file=sys.stderr)
            return 1
        update_reference(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
