"""Command-line entry point.

Commands: gen-corpus, segment, retrieve, calibrate, posr, analyze, stats.
Every command writes CSV reports into the ``--out`` directory, which
``main`` creates; after the command succeeds, ``main`` adds a run manifest
(command, config, seed where the command takes one, version). Reruns with
the same seed and cassette are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import logging
import sys
from collections.abc import Callable, Iterable
from dataclasses import fields
from pathlib import Path

from . import __version__
from .corpus import (
    Corpus,
    SyntheticSpec,
    corpus_stats,
    encode_annotation,
    generate_synthetic,
    load_corpus,
    load_manifest,
    save_json,
    write_corpus,
)
from .errors import InputError
from .metrics import EvalReport, cost_per_100, evaluate
from .model import REF_NONE, Labeling, labeling_to_spans
from .retrieval import (
    METHODS as RETRIEVAL_METHODS,
    RetrievalError,
    RetrieverConfig,
    calibrate_thresholds,
    clear_indexes,
    retrieve_labeling,
)
from .segmentation import segmenter
from .tokens import token_column

# each LLM method's posr.llm.PromptKind, by value: the LLM client and runner
# are imported only by the commands that use them
LLM_METHODS = {
    "joint-llm": "joint_posr",
    "independent-llm": "independent_retrieval",
    "segment-llm": "independent_segmentation",
}
# the default of a read option that must be given
REQUIRED = object()
# the options each segmenter reads beyond --manifest, --method and --out, each
# with the value it takes when not given
TRAINED = {"train_manifest": REQUIRED}
SEGMENT_OPTIONS = {"top10": TRAINED, "top20": TRAINED, "texttiling": {}}
# --manifest, --method and --out, which every method reads, and the parser's own entries
ALWAYS_READ = ("command", "func", "manifest", "method", "out")
POSR_COLUMNS = ["transcript_id", *(f.name for f in fields(EvalReport)), "cost_usd_per_100"]
# segmentation alone has no retrieval (SRS) and no cost columns
SEGMENT_COLUMNS = [c for c in POSR_COLUMNS if not c.startswith("srs_") and c != "cost_usd_per_100"]


def _write_run_manifest(out: Path, args: argparse.Namespace) -> None:
    save_json(out / "run_manifest.json", {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "args": {k: v for k, v in vars(args).items() if k != "func"},
    })


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


class UsageError(InputError):
    """A command-line argument that cannot be used as given."""


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out}: {exc.strerror or exc}") from exc
    return out


def cmd_gen_corpus(args: argparse.Namespace, out: Path) -> None:
    spec = SyntheticSpec(
        n_transcripts=args.n_transcripts,
        n_problems=args.n_problems,
        vocab_overlap=args.vocab_overlap,
        informal_prob=args.informal_prob,
        seed=args.seed,
    )
    corpus = generate_synthetic(spec)
    manifest_path = write_corpus(corpus, out)
    print(f"wrote {len(corpus)} transcripts; manifest at {manifest_path}")


def _segmenter(args: argparse.Namespace):
    """The ``--method`` segmenter, trained on ``--train-manifest`` if it reads one."""
    train = load_corpus(load_manifest(args.train_manifest)) if args.train_manifest else None
    return segmenter(args.method, train)


def _write_and_score(out: Path, corpus: Corpus, preds: Iterable[Labeling], suffix: str,
                     write: Callable[[Path, Labeling], None]) -> list[dict]:
    """Writes each entry's prediction to ``<transcript id><suffix>`` with
    ``write`` as it comes, and returns the report row of every annotated
    entry."""
    rows = []
    for entry, pred in zip(corpus.entries, preds):
        tid = entry.transcript.id
        write(out / f"{tid}{suffix}", pred)
        if entry.gold is not None:
            rows.append({"transcript_id": tid,
                         **evaluate(pred, entry.gold, entry.transcript).as_row()})
    return rows


def _write_spans(path: Path, pred: Labeling) -> None:
    save_json(path, [{"start_line": s.start_line, "end_line": s.end_line}
                     for s in labeling_to_spans(pred)])


def _read_options(args: argparse.Namespace, reads: dict[str, object]) -> None:
    """Gives each option in ``reads`` that was not given its default there. A
    given option outside ``reads`` and ``ALWAYS_READ``, or a ``REQUIRED`` one
    not given, is a ``UsageError``."""
    for name, value in vars(args).items():
        if value is not None and name not in reads and name not in ALWAYS_READ:
            raise UsageError(f"--{name.replace('_', '-')} is not read by --method {args.method}")
    for name, default in reads.items():
        if getattr(args, name) is None:
            if default is REQUIRED:
                raise UsageError(f"--method {args.method} needs --{name.replace('_', '-')}")
            setattr(args, name, default)


def cmd_segment(args: argparse.Namespace, out: Path) -> None:
    _read_options(args, SEGMENT_OPTIONS[args.method])
    corpus = load_corpus(load_manifest(args.manifest))
    segment = _segmenter(args)
    rows = _write_and_score(out, corpus, (segment(e.transcript) for e in corpus.entries),
                            ".spans.json", _write_spans)
    if rows:
        _write_csv(out / "segmentation_metrics.csv", SEGMENT_COLUMNS, rows)
    print(f"segmented {len(corpus)} transcripts with {args.method}")


def cmd_retrieve(args: argparse.Namespace, out: Path) -> None:
    corpus = load_corpus(load_manifest(args.manifest)).annotated()
    if not corpus.entries:
        raise RetrievalError("retrieval evaluation needs annotated transcripts")
    config = RetrieverConfig(method=args.method, threshold=args.threshold)
    decisions, hits = [], 0
    for entry, start, stop, gold, pid in config.gold_decisions(corpus):
        decisions.append({"transcript_id": entry.transcript.id, "gold": gold.serialize(),
                          "start_line": start, "end_line": stop - 1,
                          "decision": REF_NONE.serialize() if pid is None else pid})
        hits += pid == gold.problem_id
    accuracy = hits / len(decisions) if decisions else 0.0
    _write_csv(out / "retrieval_decisions.csv",
               ["transcript_id", "start_line", "end_line", "decision", "gold"], decisions)
    save_json(out / "retrieval_accuracy.json",
              {"method": args.method, "threshold": args.threshold, "accuracy": accuracy})
    print(f"{args.method} accuracy on ground-truth segments: {accuracy:.4f}")


def cmd_calibrate(args: argparse.Namespace, out: Path) -> None:
    train = load_corpus(load_manifest(args.manifest))
    thresholds = calibrate_thresholds([args.method] if args.method else RETRIEVAL_METHODS,
                                      train, folds=args.folds, seed=args.seed)
    for method, threshold in thresholds.items():
        print(f"{method}: {threshold:.4f}")
    save_json(out / "thresholds.json",
              {"seed": args.seed, "folds": args.folds, "thresholds": thresholds})


def _make_client(args: argparse.Namespace):
    from .llm import CassetteClient, HttpChatClient, LLMConfigError, LLMEndpointConfig

    inner = None
    if args.llm_config:
        inner = HttpChatClient(LLMEndpointConfig.from_file(args.llm_config))
    if args.cassette:
        return CassetteClient(args.cassette, inner=inner)
    if inner is None:
        raise LLMConfigError("LLM methods need --llm-config and/or --cassette")
    return inner


def _lexical_predictions(args: argparse.Namespace, corpus: Corpus):
    rconf = RetrieverConfig(method=args.retrieval, threshold=args.threshold)
    segment = _segmenter(args)
    # CPU-bound under the interpreter lock: threads would not help here
    return (retrieve_labeling(rconf, e.transcript, segment(e.transcript), e.worksheet)
            for e in corpus.entries), [], []


def _llm_predictions(kind: str, args: argparse.Namespace, corpus: Corpus):
    from .llm import CassetteClient, PromptKind, run_posr_llm_batch

    client = _make_client(args)
    try:
        results = run_posr_llm_batch(
            client, args.model, [(e.transcript, e.worksheet) for e in corpus.entries],
            PromptKind(kind))
    finally:
        if isinstance(client, CassetteClient):
            client.close()  # writes the cassette once, for the whole run
    return ([r.labeling for r in results], [r.usage for r in results],
            [e.transcript.id for e, r in zip(corpus.entries, results)
             if r.parse_failed or r.error is not None])


# each posr method: the options it reads beyond --manifest, --method and --out,
# each with the value it takes when not given, and its function from (args,
# corpus) to its labelings, token usages and flagged transcript ids
POSR_METHODS = {
    **{method: ({**reads, "retrieval": "jaccard", "threshold": 0.0}, _lexical_predictions)
       for method, reads in SEGMENT_OPTIONS.items()},
    **{method: ({"model": "default-model", "llm_config": None, "cassette": None, "prices": None},
                functools.partial(_llm_predictions, kind))
       for method, kind in LLM_METHODS.items()},
}


def cmd_posr(args: argparse.Namespace, out: Path) -> None:
    reads, predict = POSR_METHODS[args.method]
    _read_options(args, reads)
    corpus = load_corpus(load_manifest(args.manifest))
    prices = {}
    if args.prices is not None:
        from .llm import load_prices

        prices = load_prices(args.prices)
        if args.model not in prices:
            raise UsageError(f"{args.prices}: no entry for --model {args.model!r}")
    preds, usages, failed = predict(args, corpus)
    # an empty prediction is written as one empty line, not an empty file
    rows = _write_and_score(out, corpus, preds, ".pred.jsonl", lambda path, pred:
                            path.write_text(encode_annotation(pred) or "\n", encoding="utf-8"))
    cost = None
    if usages and prices:
        cost = cost_per_100(usages, args.model, prices)
        for row in rows:
            row["cost_usd_per_100"] = cost
    if rows:
        _write_csv(out / "posr_metrics.csv", POSR_COLUMNS, rows)
    if failed:
        save_json(out / "failed_transcripts.json", failed)
    print(f"evaluated {len(rows)} transcripts"
          + (f", cost/100 = ${cost:.2f}" if cost is not None else "")
          + (f", {len(failed)} flagged" if failed else ""))


def cmd_analyze(args: argparse.Namespace, out: Path) -> None:
    from .analysis import AnalysisError, quartile_language_compare, talk_time

    corpus = load_corpus(load_manifest(args.manifest)).annotated()
    if not corpus.entries:
        raise AnalysisError("analyze needs annotated transcripts")
    table = talk_time(corpus)
    _write_csv(out / "talk_time.csv",
               ["problem_id", "transcript_id", "seconds"],
               [{"problem_id": pid, "transcript_id": tid, "seconds": secs}
                for (pid, tid), secs in sorted(table.per_cell.items())])
    _write_csv(out / "talk_time_summary.csv",
               ["problem_id", "mean", "q1", "median", "q3"],
               [{"problem_id": pid, **stats} for pid, stats in sorted(table.summary.items())])
    if args.problem:
        ranked = quartile_language_compare(corpus, args.problem)
        _write_csv(out / f"logodds_{args.problem}.csv",
                   ["bigram", "z"],
                   [{"bigram": b, "z": z} for b, z in ranked])
    print(f"analysis artifacts written to {out}")


def cmd_stats(args: argparse.Namespace, out: Path | None) -> None:
    corpus = load_corpus(load_manifest(args.manifest))
    stats = corpus_stats(corpus)
    for key, value in stats.items():
        print(f"{key}: {value}")
    if out is not None:
        save_json(out / "corpus_stats.json", stats)


# parse_args never changes the parser, so one process builds it once
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="posr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus to disk")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-transcripts", type=int, default=4)
    p.add_argument("--n-problems", type=int, default=8)
    p.add_argument("--vocab-overlap", type=float, default=0.0)
    p.add_argument("--informal-prob", type=float, default=0.0)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("segment", help="run a segmentation baseline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-manifest")
    p.add_argument("--method", required=True, choices=tuple(SEGMENT_OPTIONS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("retrieve", help="retrieval over ground-truth segments")
    p.add_argument("--manifest", required=True)
    p.add_argument("--method", required=True, choices=RETRIEVAL_METHODS)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("calibrate", help="cross-validated threshold search")
    p.add_argument("--manifest", required=True)
    p.add_argument("--method", choices=RETRIEVAL_METHODS)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("posr", help="full segmentation+retrieval evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-manifest")
    p.add_argument("--method", required=True, choices=tuple(POSR_METHODS))
    p.add_argument("--retrieval", choices=RETRIEVAL_METHODS)
    p.add_argument("--threshold", type=float)
    p.add_argument("--model")
    p.add_argument("--llm-config")
    p.add_argument("--cassette")
    p.add_argument("--prices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_posr)

    p = sub.add_parser("analyze", help="talk time + log-odds analyses")
    p.add_argument("--manifest", required=True)
    p.add_argument("--problem", help="problem id for quartile language comparison")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stats", help="corpus summary statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig()
    # worksheet indexes and token columns are built once per command, never outliving it
    clear_indexes()
    token_column.cache_clear()
    made_out = bool(args.out) and not Path(args.out).exists()
    try:
        out = _out_dir(args.out) if args.out else None
        args.func(args, out)
    except InputError as exc:
        # input that cannot be used as written: a usage error, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        if made_out:  # a refused run leaves no --out it made, unless it wrote there
            with contextlib.suppress(OSError):
                Path(args.out).rmdir()
        return 2
    finally:
        clear_indexes()
        token_column.cache_clear()
    # written last, so an out directory with a manifest holds a finished run
    if out is not None:
        _write_run_manifest(out, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
