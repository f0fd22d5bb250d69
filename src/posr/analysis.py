"""Downstream analyses: log-odds lexical contrasts, boundary-placement
agreement, and talk-time distributions."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus
from .errors import InputError
from .model import Labeling
from .tokens import bigrams, token_column


# the log-odds prior of quartile_language_compare sums to this share of its bigrams
_ALPHA0_SCALE = 0.01


class AnalysisError(InputError):
    pass


def log_odds(
    counts_a: Counter[str],
    counts_b: Counter[str],
    prior: Counter[str],
    alpha0: float,
) -> list[tuple[str, float]]:
    """Z-scored log-odds-ratio of two bigram ``Counter``s with an
    informative Dirichlet prior, itself a ``Counter`` of bigrams.

    Prior counts are rescaled so they sum to alpha0. Returns every bigram
    in the union vocabulary ranked descending by z (positive z favors
    corpus a).
    """
    n_a, n_b = counts_a.total(), counts_b.total()
    if n_a == 0 or n_b == 0:
        raise AnalysisError("both corpora must be non-empty")
    if alpha0 <= 0:
        raise AnalysisError("alpha0 must be positive")
    n_prior = prior.total()
    if n_prior == 0:
        raise AnalysisError("prior corpus must be non-empty")
    vocab = set(counts_a) | set(counts_b)
    uncovered = vocab - set(prior)
    if uncovered:
        raise AnalysisError(f"prior does not cover {len(uncovered)} bigrams, e.g. {next(iter(uncovered))!r}")
    scale = alpha0 / n_prior
    results: list[tuple[str, float]] = []
    for w in vocab:
        alpha = prior[w] * scale
        y_a = counts_a[w]
        y_b = counts_b[w]
        delta = math.log((y_a + alpha) / (n_a + alpha0 - y_a - alpha)) - math.log(
            (y_b + alpha) / (n_b + alpha0 - y_b - alpha)
        )
        variance = 1.0 / (y_a + alpha) + 1.0 / (y_b + alpha)
        results.append((w, delta / math.sqrt(variance)))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results


def cochran_q(boundary_matrix: list[list[bool]]) -> tuple[float, float]:
    """Cochran's Q over an annotators x positions binary matrix.

    Returns (Q, p) with p from chi-square on m-1 degrees of freedom. A
    degenerate matrix (zero denominator, i.e. complete agreement at every
    position) reports Q = 0, p = 1.
    """
    m = len(boundary_matrix)
    if m < 2:
        raise AnalysisError("need at least 2 annotators")
    n_pos = len(boundary_matrix[0])
    if n_pos < 2 or any(len(row) != n_pos for row in boundary_matrix):
        raise AnalysisError("need >= 2 positions and equal-length rows")
    # annotators are the treatments (df = m-1), positions the blocks;
    # with m = 2 this reduces to McNemar's (b-c)^2 / (b+c)
    annotator_totals = [sum(int(v) for v in row) for row in boundary_matrix]
    position_totals = [sum(int(row[j]) for row in boundary_matrix) for j in range(n_pos)]
    total = sum(annotator_totals)
    denom = m * total - sum(p * p for p in position_totals)
    if denom == 0:
        return 0.0, 1.0
    q = (m - 1) * (m * sum(a * a for a in annotator_totals) - total * total) / denom
    return q, _chi2_sf(q, m - 1)


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of chi-square with integer ``df`` >= 1, x >= 0.

    Closed forms (Abramowitz & Stegun 26.4.4-26.4.5): for even df a finite
    Poisson sum, for odd df ``erfc`` plus a finite series. Every term is
    positive, so nothing cancels.
    """
    half = x / 2
    if df % 2 == 0:
        term = total = 1.0
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return math.exp(-half) * total
    term = math.sqrt(2 * x / math.pi) * math.exp(-half)
    total = 0.0
    for r in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return math.erfc(math.sqrt(half)) + total


@dataclass(frozen=True)
class TalkTimeTable:
    """Seconds of talk per (problem, transcript) plus per-problem summaries."""

    per_cell: dict[tuple[str, str], float]  # (problem_id, transcript_id) -> seconds
    summary: dict[str, dict[str, float]]  # problem_id -> {mean, q1, median, q3}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    ordered = sorted(values)

    def at(p: float) -> float:
        # linear interpolation between closest ranks
        idx = p * (len(ordered) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(ordered) - 1)
        frac = idx - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    return at(0.25), at(0.5), at(0.75)


def talk_time(corpus: Corpus) -> TalkTimeTable:
    """Sum line durations per (worksheet problem, transcript) over the gold
    segments, one line at a time: a per-segment sum would round differently.

    Problems never discussed are absent from the table.
    """
    per_cell: dict[tuple[str, str], float] = {}
    for entry in corpus.annotated().entries:
        gold: Labeling = entry.gold  # type: ignore[assignment]
        for start, stop, ref in zip(gold.starts, gold.stops(), gold.run_refs):
            if ref.kind != "problem":
                continue
            key = (ref.problem_id, entry.transcript.id)  # type: ignore[arg-type]
            for line in entry.transcript.lines[start:stop]:
                per_cell[key] = per_cell.get(key, 0.0) + line.duration_ms / 1000
    by_problem: dict[str, list[float]] = {}
    for (pid, _tid), secs in per_cell.items():
        by_problem.setdefault(pid, []).append(secs)
    summary = {}
    for pid, values in by_problem.items():
        q1, median, q3 = _quartiles(values)
        summary[pid] = {
            "mean": math.fsum(values) / len(values),
            "q1": q1,
            "median": median,
            "q3": q3,
        }
    return TalkTimeTable(per_cell=per_cell, summary=summary)


def quartile_language_compare(corpus: Corpus, problem_id: str) -> list[tuple[str, float]]:
    """Log-odds of long-duration vs short-duration segments of one problem.

    Segments labeled with the problem are split at the duration quartiles
    (top quartile vs bottom quartile); the prior is the bigram language of
    the whole corpus; alpha0 is the prior total scaled by ``_ALPHA0_SCALE``.
    Positive z marks bigrams distinctive of long segments.
    """
    segments: list[tuple[float, list[list[str]]]] = []  # (duration_s, each line's bigrams)
    prior: Counter[str] = Counter()
    for entry in corpus.annotated().entries:
        # each line's bigrams, from one read of the transcript's token column
        tokens, starts = token_column(entry.transcript)
        line_bigrams = [bigrams(tokens[a:b]) for a, b in zip(starts, starts[1:])]
        for grams in line_bigrams:
            prior.update(grams)
        gold: Labeling = entry.gold  # type: ignore[assignment]
        for start, stop, ref in zip(gold.starts, gold.stops(), gold.run_refs):
            if ref.kind != "problem" or ref.problem_id != problem_id:
                continue
            duration = sum(l.duration_ms for l in entry.transcript.lines[start:stop]) / 1000
            segments.append((duration, line_bigrams[start:stop]))
    if len(segments) < 4:
        raise AnalysisError(
            f"problem {problem_id}: {len(segments)} segments, need at least 4"
        )
    durations = [d for d, _ in segments]
    q1, _, q3 = _quartiles(durations)
    counts_long = Counter(gram for d, line_grams in segments if d >= q3
                          for grams in line_grams for gram in grams)
    counts_short = Counter(gram for d, line_grams in segments if d <= q1
                           for grams in line_grams for gram in grams)
    return log_odds(counts_long, counts_short, prior, alpha0=_ALPHA0_SCALE * prior.total())
