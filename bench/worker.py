"""Workload process: timed CLI loop, then one traced pass over the layers.

    python3 bench/worker.py job.json

``bench/run.py`` writes the job file and starts this script in a fresh
interpreter, so the process's peak resident memory is the workload's own.
The job lists the workload's shard manifests. The timed loop calls
``posr.cli.main(argv)`` in-process with no tracing: one workload run per
shard, one after another (closed loop, one client), all shards per
iteration, until the job's ``seconds`` have passed.
The traced pass then sends the same inputs through each layer's public
functions, in the order the CLI calls them, with a span around every call,
and returns per-transcript scores so the caller can prove that the traced
pass mirrors the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import urllib.request
from pathlib import Path

CALIBRATE_METHODS = ("jaccard", "tfidf", "bm25")
CALIBRATE_FOLDS = 5
CALIBRATE_SEED = 0


def endpoint_call(url: str | None, path: str) -> dict:
    """GET /stats or POST /reset on the fake endpoint; {} when there is none."""
    if url is None:
        return {}
    data = b"" if path == "/reset" else None
    with urllib.request.urlopen(url + path, data=data, timeout=10) as resp:
        return json.loads(resp.read())


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def command_argv(job: dict, name: str, manifest: str, out: Path, threshold: str) -> list[str]:
    if name == "calibrate":
        return ["calibrate", "--manifest", manifest, "--folds", str(CALIBRATE_FOLDS),
                "--seed", str(CALIBRATE_SEED), "--out", str(out / "calibrate")]
    if name == "posr-bm25":
        return ["posr", "--manifest", manifest, "--method", "texttiling", "--retrieval", "bm25",
                "--threshold", threshold, "--out", str(out / "posr")]
    if name == "posr-independent-llm":
        return ["posr", "--manifest", manifest, "--method", "independent-llm",
                "--llm-config", job["llm_config"], "--model", job["model"],
                "--prices", job["prices"], "--out", str(out / "posr")]
    raise ValueError(f"unknown command {name!r}")


def run_cli_once(job: dict, manifest: str, out: Path) -> list[int]:
    """One workload run through the public CLI; returns each command's exit code."""
    from posr.cli import main

    codes = []
    threshold = "0.0"
    for name in job["commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(command_argv(job, name, manifest, out, threshold)))
        if name == "calibrate":
            doc = json.loads((out / "calibrate" / "thresholds.json").read_text(encoding="utf-8"))
            threshold = repr(float(doc["thresholds"]["bm25"]))
    return codes


class Tracer:
    """In-memory spans: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        try:
            yield index
        finally:
            _, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def busy(self, name: str) -> float:
        return sum((end - start for n, start, end, _ in self.spans if n == name), 0.0)


class TimedClient:
    """ChatClient proxy that times every request and sums its tokens."""

    def __init__(self, tracer: Tracer):
        self.inner = None  # the CLI makes a new client per run; so does the traced pass
        self.tracer = tracer
        self.parent: int | None = None
        self.requests = 0
        self.tokens_in = 0
        self.tokens_out = 0

    def complete(self, request):
        with self.tracer.span("llm.request", self.parent):
            response = self.inner.complete(request)
        self.requests += 1
        self.tokens_in += response.input_tokens
        self.tokens_out += response.output_tokens
        return response


class PairCounter:
    """Segment x problem pairs scored, and how many share at least one token.

    A pair with no shared token scores 0 under every lexical scorer, so the
    nonzero share is what a postings index would still have to touch.
    """

    def __init__(self):
        self.segments = 0
        self.pairs = 0
        self.nonzero = 0
        self._postings: dict[str, dict[str, set[int]]] = {}

    def add(self, text: str, worksheet) -> None:
        from posr.tokens import tokenize

        postings = self._postings.get(worksheet.id)
        if postings is None:
            postings = {}
            for i, problem in enumerate(worksheet.problems):
                for tok in tokenize(problem.text):
                    postings.setdefault(tok, set()).add(i)
            self._postings[worksheet.id] = postings
        hit: set[int] = set()
        for tok in set(tokenize(text)):
            hit |= postings.get(tok, set())
        self.segments += 1
        self.pairs += len(worksheet.problems)
        self.nonzero += len(hit)


def segment_texts(transcript, labeling) -> list[str]:
    from posr.model import labeling_to_spans

    return [
        " ".join(transcript.lines[i].utterance for i in range(s.start_line, s.end_line + 1))
        for s in labeling_to_spans(labeling)
    ]


def traced_pass(job: dict) -> dict:
    """The workload's commands, layer by layer, mirroring posr.cli."""
    from posr.corpus import load_corpus, load_manifest
    from posr.llm import HttpChatClient, LLMEndpointConfig, PromptKind, run_posr_llm
    from posr.metrics import cost_per_100, derive_window_config, evaluate
    from posr.retrieval import RetrieverConfig, calibrate_threshold, retrieve_labeling
    from posr.segmentation import TextTilingParams, segment_texttiling

    tracer = Tracer()
    pairs = PairCounter()
    counts = {"segmentation.lines": 0, "segmentation.segments_out": 0,
              "metrics.lines": 0, "metrics.windows": 0, "llm.parse_fallbacks": 0}
    loaded: dict[str, int] = {}
    thresholds: dict[str, dict[str, float]] = {}
    rows: dict[str, dict] = {}
    failed: list[str] = []
    client = None
    n_usages = usage_tokens = 0

    def load(manifest: str, parent: int):
        with tracer.span("corpus", parent):
            corpus = load_corpus(load_manifest(manifest))
        loaded.update((e.transcript.id, len(e.transcript)) for e in corpus.entries)
        return corpus

    def score(pred, entry, parent: int) -> dict:
        with tracer.span("metrics", parent):
            report = evaluate(pred, entry.gold, entry.transcript)
        k = derive_window_config(entry.gold, entry.transcript).k_lines
        counts["metrics.lines"] += len(entry.transcript)
        counts["metrics.windows"] += 4 * (len(entry.transcript) - k)
        row = rows[entry.transcript.id] = {"transcript_id": entry.transcript.id,
                                           **report.as_row()}
        return row

    endpoint_call(job.get("endpoint_url"), "/reset")
    for shard, manifest in job["shards"].items():
        shard_thresholds = thresholds.setdefault(shard, {})
        for name in job["commands"]:
            with tracer.span("cli." + name) as cmd:
                corpus = load(manifest, cmd)
                if name == "calibrate":
                    for method in CALIBRATE_METHODS:
                        with tracer.span("retrieval.calibrate", cmd):
                            shard_thresholds[method] = calibrate_threshold(
                                method, corpus, folds=CALIBRATE_FOLDS, seed=CALIBRATE_SEED)
                        for entry in corpus.annotated().entries:
                            for text in segment_texts(entry.transcript, entry.gold):
                                pairs.add(text, entry.worksheet)
                elif name == "posr-bm25":
                    config = RetrieverConfig(method="bm25",
                                             threshold=shard_thresholds.get("bm25", 0.0))
                    for entry in corpus.entries:
                        with tracer.span("segmentation", cmd):
                            seg = segment_texttiling(TextTilingParams(), entry.transcript)
                        counts["segmentation.lines"] += len(entry.transcript)
                        counts["segmentation.segments_out"] += seg.num_segments()
                        with tracer.span("retrieval", cmd):
                            pred = retrieve_labeling(config, entry.transcript, seg,
                                                     entry.worksheet)
                        for text in segment_texts(entry.transcript, seg):
                            if text.strip():
                                pairs.add(text, entry.worksheet)
                        if entry.gold is not None:
                            score(pred, entry, cmd)
                elif name == "posr-independent-llm":
                    client = client or TimedClient(tracer)
                    client.inner = HttpChatClient(LLMEndpointConfig.from_file(job["llm_config"]))
                    usages = []
                    shard_rows = []
                    for entry in corpus.entries:
                        with tracer.span("llm", cmd) as runner:
                            client.parent = runner
                            try:
                                result = run_posr_llm(client, job["model"], entry.transcript,
                                                      entry.worksheet,
                                                      PromptKind.INDEPENDENT_RETRIEVAL)
                            except Exception:  # noqa: BLE001 - mirrors the CLI's batch policy
                                failed.append(entry.transcript.id)
                                continue
                        usages.append(result.usage)
                        if result.parse_failed:
                            counts["llm.parse_fallbacks"] += 1
                            failed.append(entry.transcript.id)
                        if entry.gold is not None:
                            shard_rows.append(score(result.labeling, entry, cmd))
                    n_usages += len(usages)
                    usage_tokens += sum(u.input_tokens + u.output_tokens for u in usages)
                    prices = json.loads(Path(job["prices"]).read_text(encoding="utf-8"))
                    if usages and job["model"] in prices:
                        cost = cost_per_100(usages, job["model"], prices)
                        for row in shard_rows:
                            row["cost_usd_per_100"] = cost
                else:
                    raise ValueError(f"unknown command {name!r}")
    server = endpoint_call(job.get("endpoint_url"), "/stats")

    layer_total = sum(tracer.busy(n) for n in
                      ("corpus", "segmentation", "retrieval", "retrieval.calibrate",
                       "metrics", "llm"))
    seg_busy = tracer.busy("segmentation")
    retrieval_busy = tracer.busy("retrieval") + tracer.busy("retrieval.calibrate")
    metrics_busy = tracer.busy("metrics")
    wait = tracer.busy("llm.request")
    requests = client.requests if client else 0
    tokens = (client.tokens_in + client.tokens_out) if client else 0
    per_layer = {
        "corpus.load_s": tracer.busy("corpus"),
        "corpus.lines": sum(loaded.values()),
        "segmentation.busy_s": seg_busy,
        "segmentation.us_per_line": per_line_us(seg_busy, counts["segmentation.lines"]),
        "segmentation.segments_out": counts["segmentation.segments_out"],
        "retrieval.busy_s": retrieval_busy,
        "retrieval.calibrate_s": tracer.busy("retrieval.calibrate"),
        "retrieval.segments_scored": pairs.segments,
        "retrieval.problem_scores": pairs.pairs,
        "retrieval.nonzero_frac": pairs.nonzero / pairs.pairs if pairs.pairs else 0.0,
        "metrics.busy_s": metrics_busy,
        "metrics.us_per_line": per_line_us(metrics_busy, counts["metrics.lines"]),
        "metrics.windows": counts["metrics.windows"],
        "llm.requests": requests,
        "llm.server_requests": server.get("requests", 0),
        "llm.retries": server.get("requests", 0) - requests,
        "llm.wait_s": wait,
        "llm.client_overhead_s": wait - server.get("slept_s", 0.0),
        "llm.runner_self_s": tracer.busy("llm") - wait,
        "llm.parse_fallbacks": counts["llm.parse_fallbacks"],
        "llm.tokens_in": client.tokens_in if client else 0,
        "llm.tokens_out": client.tokens_out if client else 0,
        "llm.tokens_per_100": tokens / n_usages * 100 if n_usages else 0.0,
    }
    return {"per_layer": per_layer, "layer_total_s": layer_total, "rows": rows,
            "thresholds": thresholds, "failed": failed, "server": server,
            "usage_tokens": usage_tokens}


def per_line_us(busy_s: float, lines: int) -> float:
    return busy_s / lines * 1e6 if lines else 0.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import posr.cli  # noqa: F401 - import cost belongs to set-up, not to the timed runs

    out = Path(job["out"])
    iterations = []
    started = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        endpoint_call(job.get("endpoint_url"), "/reset")
        walls, codes = [], []
        for shard, manifest in job["shards"].items():
            (out / shard).mkdir(parents=True)
            t0 = time.perf_counter()
            codes += run_cli_once(job, manifest, out / shard)
            walls.append(time.perf_counter() - t0)
        iterations.append({"shard_wall_s": walls, "exit_codes": codes, "digest": tree_digest(out),
                           "server": endpoint_call(job.get("endpoint_url"), "/stats")})
        elapsed = time.perf_counter() - started
        if len(iterations) >= job["min_iterations"] and elapsed >= job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"iterations": iterations, "peak_rss_mb": peak_rss_mb, "traced": traced_pass(job)}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
