"""Segment-as-query retrieval over a worksheet.

Scorers: Jaccard token overlap, TF-IDF cosine fitted on the worksheet's
own problems, and Okapi BM25 with the worksheet as the collection. BM25
is unbounded, so its scores are min-max normalized within each query's
top 10 candidates so one threshold applies across queries.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus
from .model import (
    REF_NONE,
    Labeling,
    RefLabel,
    Transcript,
    Worksheet,
    labeling_to_spans,
)
from .tokens import tokenize

METHODS = ("jaccard", "tfidf", "bm25")

# Okapi BM25 term-frequency saturation and length normalization
BM25_K1 = 1.5
BM25_B = 0.75


class RetrievalError(ValueError):
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

    @property
    def normalized(self) -> bool:
        # bm25 is the one unbounded scorer
        return self.method == "bm25"


@dataclass(frozen=True)
class ScoredCandidates:
    """Raw and (optionally) normalized scores per problem id, worksheet order."""

    raw: dict[str, float]
    normalized: dict[str, float] | None
    order: tuple[str, ...]  # worksheet problem order, for tie-breaking

    def effective(self) -> dict[str, float]:
        return self.normalized if self.normalized is not None else self.raw


def normalize_top10(raw: dict[str, float]) -> dict[str, float]:
    """Min-max rescale within the 10 best scores; everything else -> 0.

    A flat top-10 (max == min) maps positive scores to 1.0 so a clear
    winner set is still retrievable.
    """
    top = sorted(raw.items(), key=lambda kv: -kv[1])[:10]
    if not top:
        return {}
    hi = top[0][1]
    lo = top[-1][1]
    out = {pid: 0.0 for pid in raw}
    for pid, score in top:
        if hi == lo:
            out[pid] = 1.0 if score > 0 else 0.0
        else:
            out[pid] = (score - lo) / (hi - lo)
    return out


class WorksheetScorer:
    """Per-worksheet fitted lexical scorer; stateless after fitting."""

    def __init__(self, config: RetrieverConfig, worksheet: Worksheet):
        self.config = config
        self.worksheet = worksheet
        self._problem_tokens = {p.id: tokenize(p.text) for p in worksheet.problems}
        self._problem_sets = {pid: set(toks) for pid, toks in self._problem_tokens.items()}
        n_docs = len(worksheet.problems)
        df: Counter[str] = Counter()
        for toks in self._problem_sets.values():
            df.update(toks)
        # smooth idf, sklearn convention
        self._idf = {t: math.log((1 + n_docs) / (1 + d)) + 1 for t, d in df.items()}
        # Okapi idf (never negative with the +1 inside the log)
        self._bm25_idf = {
            t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1) for t, d in df.items()
        }
        self._avgdl = sum(len(toks) for toks in self._problem_tokens.values()) / n_docs
        self._tfidf_vecs = {
            pid: self._tfidf_vector(toks) for pid, toks in self._problem_tokens.items()
        }

    def _tfidf_vector(self, toks: list[str]) -> dict[str, float]:
        tf = Counter(toks)
        vec = {t: c * self._idf.get(t, 0.0) for t, c in tf.items() if t in self._idf}
        norm = math.sqrt(sum(v * v for v in vec.values()))
        if norm > 0:
            vec = {t: v / norm for t, v in vec.items()}
        return vec

    def raw_scores(self, segment_text: str) -> dict[str, float]:
        method = self.config.method
        q = tokenize(segment_text)
        if method == "jaccard":
            qs = set(q)
            return {
                pid: (len(qs & ps) / len(qs | ps) if qs | ps else 0.0)
                for pid, ps in self._problem_sets.items()
            }
        if method == "tfidf":
            qvec = self._tfidf_vector(q)
            return {
                pid: sum(w * vec.get(t, 0.0) for t, w in qvec.items())
                for pid, vec in self._tfidf_vecs.items()
            }
        # bm25
        k1, b = BM25_K1, BM25_B
        qcounts = Counter(q)
        scores: dict[str, float] = {}
        for pid, toks in self._problem_tokens.items():
            tf = Counter(toks)
            dl = len(toks)
            score = 0.0
            for term in qcounts:
                f = tf.get(term, 0)
                if f == 0:
                    continue
                denom = f + k1 * (1 - b + b * dl / self._avgdl)
                score += self._bm25_idf[term] * f * (k1 + 1) / denom
            scores[pid] = score
        return scores


def score_segment(
    config: RetrieverConfig, segment_text: str, worksheet: Worksheet
) -> ScoredCandidates:
    if not worksheet.problems:
        raise RetrievalError("empty worksheet")
    scorer = WorksheetScorer(config, worksheet)
    raw = scorer.raw_scores(segment_text)
    return candidates_from_raw(config, raw, worksheet)


def candidates_from_raw(
    config: RetrieverConfig, raw: dict[str, float], worksheet: Worksheet
) -> ScoredCandidates:
    """Wrap raw per-problem scores for decision."""
    order = tuple(worksheet.problem_ids())
    missing = set(order) - set(raw)
    if missing:
        raw = {**raw, **{pid: 0.0 for pid in missing}}
    normalized = normalize_top10(raw) if config.normalized else None
    return ScoredCandidates(raw=raw, normalized=normalized, order=order)


def _best(candidates: ScoredCandidates) -> tuple[str | None, float]:
    """(argmax problem id, its effective score); ties break toward the
    earlier worksheet problem."""
    scores = candidates.effective()
    best_pid = None
    best = -1.0
    for pid in candidates.order:
        s = scores.get(pid, 0.0)
        if s > best:
            best, best_pid = s, pid
    return best_pid, best


def decide(config: RetrieverConfig, candidates: ScoredCandidates) -> RefLabel:
    """Argmax problem if its effective score clears the threshold, else no ref.

    Ties break toward the earlier worksheet problem.
    """
    best_pid, best = _best(candidates)
    if best_pid is not None and best >= config.threshold:
        return RefLabel.problem(best_pid)
    return REF_NONE


def retrieve_labeling(
    config: RetrieverConfig,
    transcript: Transcript,
    segmentation: Labeling,
    worksheet: Worksheet,
) -> Labeling:
    """Fill each segment's ref by scoring its concatenated utterances."""
    if len(segmentation) != len(transcript):
        raise RetrievalError("segmentation does not cover the transcript")
    scorer = WorksheetScorer(config, worksheet)
    per_line: list[tuple[int, RefLabel]] = [None] * len(transcript)  # type: ignore[list-item]
    for span in labeling_to_spans(segmentation):
        text = " ".join(
            transcript.lines[i].utterance for i in range(span.start_line, span.end_line + 1)
        )
        if text.strip():
            cands = candidates_from_raw(config, scorer.raw_scores(text), worksheet)
            ref = decide(config, cands)
        else:
            ref = REF_NONE
        seg_id = segmentation.per_line[span.start_line][0]
        for i in range(span.start_line, span.end_line + 1):
            per_line[i] = (seg_id, ref)
    return Labeling(tuple(per_line))


# ---------------------------------------------------------------------------
# threshold calibration

GRID = [round(i * 0.01, 2) for i in range(101)]


def _segment_best_scores(
    config: RetrieverConfig, corpus: Corpus
) -> list[tuple[str | None, str | None, float]]:
    """Per ground-truth segment: (gold problem id or None, argmax problem id,
    argmax effective score). Warm-up/off-worksheet golds count as None."""
    rows: list[tuple[str | None, str | None, float]] = []
    for entry in corpus.annotated().entries:
        scorer = WorksheetScorer(config, entry.worksheet)
        for span in labeling_to_spans(entry.gold):  # type: ignore[arg-type]
            text = " ".join(
                entry.transcript.lines[i].utterance
                for i in range(span.start_line, span.end_line + 1)
            )
            cands = candidates_from_raw(config, scorer.raw_scores(text), entry.worksheet)
            best_pid, best = _best(cands)
            gold = span.ref.problem_id if span.ref and span.ref.kind == "problem" else None
            rows.append((gold, best_pid, best))
    return rows


def _accuracy_at(rows: list[tuple[str | None, str | None, float]], threshold: float) -> float:
    correct = 0
    for gold, best_pid, best in rows:
        pred = best_pid if best >= threshold else None
        correct += pred == gold
    return correct / len(rows) if rows else 0.0


def calibrate_threshold(
    method: str,
    train: Corpus,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Cross-validated grid search for the decision threshold.

    Transcripts are assigned to folds with a seeded shuffle; each fold's
    best grid threshold (highest held-out accuracy, lowest value on ties)
    is averaged into the result. Accuracy is segment-level over ground
    truth segments, counting no-ref agreement as correct.
    """
    annotated = train.annotated()
    if not annotated.entries:
        raise RetrievalError("calibration needs annotated transcripts")
    if folds > len(annotated.entries):
        folds = len(annotated.entries)
    base = RetrieverConfig(method=method)

    indices = list(range(len(annotated.entries)))
    random.Random(seed).shuffle(indices)
    fold_of = {idx: i % folds for i, idx in enumerate(indices)}

    per_entry_rows = [
        _segment_best_scores(base, Corpus((entry,), annotated.split))
        for entry in annotated.entries
    ]
    best_thresholds: list[float] = []
    for fold in range(folds):
        held_out: list[tuple[str | None, str | None, float]] = []
        for idx, rows in enumerate(per_entry_rows):
            if fold_of[idx] == fold:
                held_out.extend(rows)
        best_t, best_acc = GRID[0], -1.0
        for t in GRID:
            acc = _accuracy_at(held_out, t)
            if acc > best_acc:
                best_acc, best_t = acc, t
        best_thresholds.append(best_t)
    return sum(best_thresholds) / len(best_thresholds)


def retrieval_accuracy(config: RetrieverConfig, corpus: Corpus) -> float:
    """Segment-level accuracy of decisions on ground-truth segments."""
    rows = _segment_best_scores(config, corpus)
    return _accuracy_at(rows, config.threshold)
