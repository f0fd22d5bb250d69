"""Segment-as-query retrieval over a worksheet.

Scorers: Jaccard token overlap, TF-IDF cosine fitted on the worksheet's
own problems, and Okapi BM25 with the worksheet as the collection. BM25
is unbounded, so its scores are min-max normalized within each query's
top 10 candidates so one threshold applies across queries. The top of
that window is then exactly 1.0 when any problem shares a term with the
segment and 0.0 when none does, so every bm25 threshold in (0, 1] makes
the same decisions: calibration can only choose between linking the
argmax always (0.0) and linking it only on a shared term.

All three read one postings index per worksheet (``WorksheetIndex``), so
a query touches only the problems that share one of its terms; every
other problem scores 0 under every method. ``worksheet_index`` fits each
distinct worksheet once; ``posr.cli.main`` clears those fits around every
command.

Predicted and ground-truth segments take one walk, ``_queries``. Each
ground-truth segment becomes one row (gold id, argmax id, effective score)
in ``gold_rows``: calibration reads the rows of every method at once, and
``posr retrieve`` one method's decisions through
``RetrieverConfig.gold_decisions``.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .corpus import Corpus, CorpusEntry
from .errors import InputError
from .model import (
    REF_NONE,
    Labeling,
    RefLabel,
    Transcript,
    Worksheet,
    runs_to_labeling,
)
from .tokens import token_column, tokenize

METHODS = ("jaccard", "tfidf", "bm25")

# Okapi BM25 term-frequency saturation and length normalization
BM25_K1 = 1.5
BM25_B = 0.75


class RetrievalError(InputError):
    pass


@dataclass(frozen=True)
class RetrieverConfig:
    method: str = "jaccard"
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise RetrievalError(f"unknown method {self.method!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise RetrievalError("threshold must be in [0, 1]")

    def gold_decisions(
            self, corpus: Corpus) -> Iterator[tuple[CorpusEntry, int, int, RefLabel, str | None]]:
        """Each ground-truth segment of ``corpus``, in order: its entry, its
        first line, one past its last line, its gold ref, and its decision
        under this config: the problem id linked, or None."""
        for entry, segments, by_method in gold_rows([self.method], corpus):
            for (start, stop, gold), (_, best_pid, best) in zip(segments, by_method[self.method]):
                yield entry, start, stop, gold, _decision(best_pid, best, self.threshold)


_NO_POSTINGS: tuple[float, tuple] = (0.0, ())


class WorksheetIndex:
    """Postings over one worksheet's problems, shared by every method.

    ``postings[term]`` is ``(tfidf idf, [(problem index, bm25 weight,
    tfidf weight), ...])``. The weights are the per-pair terms of the dense
    formulas, and a query adds them up in the dense formulas' term order,
    so each score is the same float the dense sum gives.
    """

    __slots__ = ("ids", "sizes", "postings")

    def __init__(self, worksheet: Worksheet):
        tokens = [tokenize(p.text) for p in worksheet.problems]
        tfs = [Counter(toks) for toks in tokens]
        n_docs = len(tokens)
        self.ids = tuple(worksheet.problem_ids())
        self.sizes = [len(tf) for tf in tfs]  # jaccard denominators
        df = Counter(t for tf in tfs for t in tf)
        # both idfs depend on a term only through its document frequency:
        # the smooth idf (sklearn convention) and the Okapi idf (never
        # negative with the +1 inside the log)
        idfs = {d: (math.log((1 + n_docs) / (1 + d)) + 1,
                    math.log((n_docs - d + 0.5) / (d + 0.5) + 1))
                for d in set(df.values())}
        avgdl = sum(map(len, tokens)) / n_docs
        k1, b = BM25_K1, BM25_B
        postings: dict[str, tuple[float, list[tuple[int, float, float]]]] = {
            t: (idfs[d][0], []) for t, d in df.items()
        }
        for i, (tf, toks) in enumerate(zip(tfs, tokens)):
            if not tf:
                continue  # no postings; if every problem is like this, avgdl is 0
            length_norm = k1 * (1 - b + b * len(toks) / avgdl)
            vec = {t: c * postings[t][0] for t, c in tf.items()}
            norm = math.sqrt(sum(v * v for v in vec.values()))
            for t, f in tf.items():
                postings[t][1].append(
                    (i, idfs[df[t]][1] * f * (k1 + 1) / (f + length_norm), vec[t] / norm)
                )
        self.postings = postings

    def scores(self, method: str, q: list[str]) -> dict[int, float]:
        """Raw scores of the problems sharing a term with the query tokens
        ``q``, keyed by worksheet index. Every other problem scores 0."""
        postings = self.postings
        if method == "jaccard":
            qs = set(q)
            shared: Counter[int] = Counter()
            for t in qs:
                for i, _, _ in postings.get(t, _NO_POSTINGS)[1]:
                    shared[i] += 1
            # |q & p| / |q | p|, with the union counted as |q| + |p| - |q & p|
            return {i: n / (len(qs) + self.sizes[i] - n) for i, n in shared.items()}
        if method == "tfidf":
            qvec = {t: c * postings[t][0] for t, c in Counter(q).items() if t in postings}
            norm = math.sqrt(sum(v * v for v in qvec.values()))
            # summed per problem with sum(), as the dense formula is: from
            # Python 3.12 sum() compensates rounding, unlike a running +=
            products: dict[int, list[float]] = {}
            for t, v in qvec.items():
                w = v / norm
                for i, _, pw in postings[t][1]:
                    products.setdefault(i, []).append(w * pw)
            return {i: sum(ps) for i, ps in products.items()}
        # bm25
        bm25: dict[int, float] = {}
        for t in dict.fromkeys(q):  # distinct terms, in first-seen order
            for i, bw, _ in postings.get(t, _NO_POSTINGS)[1]:
                bm25[i] = bm25.get(i, 0.0) + bw
        return bm25


# bounded so that callers outside the CLI, which never clear it, cannot
# accumulate fits; a command clears it on entry and exit
@functools.lru_cache(maxsize=16)
def worksheet_index(worksheet: Worksheet) -> WorksheetIndex:
    """The fitted index of ``worksheet``, fitted once until ``clear_indexes``."""
    return WorksheetIndex(worksheet)


clear_indexes = worksheet_index.cache_clear


def _decision(best_pid: str | None, best: float, threshold: float) -> str | None:
    """The argmax problem if its score clears the threshold, else None."""
    return best_pid if best >= threshold else None


def _segment_query(transcript: Transcript, start: int, stop: int) -> list[str] | None:
    """The token column's slice of lines start..stop-1; None if all their
    utterances are blank (whitespace only), [] if they hold only punctuation."""
    tokens, starts = token_column(transcript)
    q = tokens[starts[start]:starts[stop]]
    return q if q or any(line.utterance.strip() for line in transcript.lines[start:stop]) else None


def _queries(transcript: Transcript, labeling: Labeling) -> list[list[str] | None]:
    """The query of each segment of ``labeling``, in transcript order."""
    return [_segment_query(transcript, *run) for run in zip(labeling.starts, labeling.stops())]


def _best(index: WorksheetIndex, method: str, q: list[str] | None) -> tuple[str | None, float]:
    """(argmax problem id, its effective score) for one segment's query; a
    blank segment is (None, 0.0), never a problem.

    The argmax is the highest raw score, the earliest worksheet problem on
    ties, and the first problem, at 0.0, when no problem shares a term (one
    that does scores above 0). The effective score is the raw one, or for
    bm25 the top of the min-max normalized top 10: (hi - lo) / (hi - lo),
    or 1.0 for a flat positive window, so 1.0 whenever a problem scores.
    """
    if q is None:
        return None, 0.0
    scores = index.scores(method, q)
    if not scores:
        return index.ids[0], 0.0
    hi = max(scores.values())
    best = min(i for i, s in scores.items() if s == hi)
    return index.ids[best], 1.0 if method == "bm25" else hi


def retrieve_labeling(
    config: RetrieverConfig,
    transcript: Transcript,
    segmentation: Labeling,
    worksheet: Worksheet,
) -> Labeling:
    """Fill each segment's ref by scoring its concatenated utterances. The
    segments keep their boundaries and are numbered 0, 1, ... in order."""
    if len(segmentation) != len(transcript):
        raise RetrievalError("segmentation does not cover the transcript")
    index = worksheet_index(worksheet)
    pids = [_decision(*_best(index, config.method, q), config.threshold)
            for q in _queries(transcript, segmentation)]
    # one RefLabel per distinct decision, not one per segment
    refs = {pid: REF_NONE if pid is None else RefLabel.problem(pid) for pid in set(pids)}
    return runs_to_labeling(segmentation.starts, map(refs.__getitem__, pids), len(transcript))


# ---------------------------------------------------------------------------
# ground-truth segments: threshold calibration and accuracy

GRID = [round(i * 0.01, 2) for i in range(101)]

# one ground-truth segment: (gold problem id or None, argmax id, effective score)
Row = tuple[str | None, str | None, float]


def gold_rows(
    methods: Sequence[str], corpus: Corpus
) -> Iterator[tuple[CorpusEntry, list[tuple[int, int, RefLabel]], dict[str, list[Row]]]]:
    """Per annotated entry of ``corpus``, in order: the entry, the (start,
    stop, gold ref) of each ground-truth segment, and under each method the
    row of every segment, from one query each. Warm-up/off-worksheet golds
    count as None."""
    for entry in corpus.annotated().entries:
        gold: Labeling = entry.gold  # type: ignore[assignment]
        refs, queries = gold.run_refs, _queries(entry.transcript, gold)
        index = worksheet_index(entry.worksheet)
        yield entry, list(zip(gold.starts, gold.stops(), refs)), {
            method: [(ref.problem_id, *_best(index, method, q)) for ref, q in zip(refs, queries)]
            for method in methods}


def _best_grid_threshold(rows: list[Row]) -> float:
    """The ``GRID`` value of highest accuracy on ``rows``, the lowest
    on ties (``GRID[0]`` for no rows), from one sort and one ascending sweep.

    At threshold t a row is correct when best >= t and its argmax is the
    gold, or when best < t and the gold is None. So a row counts
    ``best_pid == gold`` until t passes its score, ``gold is None`` after.
    The accuracies share the denominator ``len(rows)``, so the integer
    counts rank them alike.
    """
    correct = sum(best_pid == gold for gold, best_pid, _ in rows)
    passed = sorted((best, (gold is None) - (best_pid == gold)) for gold, best_pid, best in rows)
    best_t, best_correct, below = GRID[0], -1, 0
    for t in GRID:
        while below < len(passed) and passed[below][0] < t:
            correct += passed[below][1]
            below += 1
        if correct > best_correct:
            best_correct, best_t = correct, t
    return best_t


def calibrate_thresholds(methods: Sequence[str], train: Corpus, folds: int = 5,
                         seed: int = 0) -> dict[str, float]:
    """Cross-validated grid search for each method's decision threshold.

    Transcripts are assigned to folds with a seeded shuffle; each fold's
    best grid threshold (highest held-out accuracy, lowest value on ties)
    is averaged into the method's result. Accuracy is segment-level over
    ground truth segments, counting no-ref agreement as correct.
    """
    if folds < 1:
        raise RetrievalError(f"calibration needs at least 1 fold, got {folds}")
    annotated = train.annotated()
    if not annotated.entries:
        raise RetrievalError("calibration needs annotated transcripts")
    folds = min(folds, len(annotated.entries))
    for method in methods:
        RetrieverConfig(method)  # an unknown method is a RetrievalError

    indices = list(range(len(annotated.entries)))
    random.Random(seed).shuffle(indices)
    fold_of = {idx: i % folds for i, idx in enumerate(indices)}

    held_out: dict[str, list[list[Row]]] = {m: [[] for _ in range(folds)] for m in methods}
    for idx, (_, _, by_method) in enumerate(gold_rows(methods, annotated)):
        for method, rows in by_method.items():
            held_out[method][fold_of[idx]] += rows
    return {method: sum(map(_best_grid_threshold, per_fold)) / folds
            for method, per_fold in held_out.items()}


def calibrate_threshold(method: str, train: Corpus, folds: int = 5, seed: int = 0) -> float:
    """``calibrate_thresholds`` for one method."""
    return calibrate_thresholds((method,), train, folds, seed)[method]

