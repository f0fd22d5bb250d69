"""Independent segmentation baselines: top-k boundary words and TextTiling.

Both produce a Labeling over the full transcript with every ref unset
(retrieval is a separate stage).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress, count, repeat

from .corpus import Corpus
from .errors import InputError
from .model import REF_NONE, Labeling, Transcript, runs_to_labeling
from .tokens import token_column


METHODS = ("top10", "top20", "texttiling")


class SegmentationError(InputError):
    pass


def segmenter(method: str, train: Corpus | None) -> Callable[[Transcript], Labeling]:
    """The segmenter named ``method``, one of ``METHODS``. top10 and top20
    keep the 10 or 20 boundary words of the annotated ``train`` corpus;
    TextTiling ignores ``train``."""
    if method == "texttiling":
        return functools.partial(segment_texttiling, TextTilingParams())
    if method not in METHODS:
        raise SegmentationError(f"unknown method {method!r}")
    if train is None:
        raise SegmentationError(f"{method} needs an annotated train corpus (--train-manifest)")
    return functools.partial(segment_boundary_words,
                             fit_boundary_words(train, k=10 if method == "top10" else 20))


def fit_boundary_words(train: Corpus, k: int) -> tuple[str, ...]:
    """The boundary words of ``train``: collect tokens from the first line
    of every ground-truth segment, rank by frequency over those boundary
    lines (ties lexicographic), keep the top k."""
    if k < 1:
        raise SegmentationError("k must be >= 1")
    annotated = train.annotated()
    if not annotated.entries:
        raise SegmentationError("train corpus has no annotations")
    counts: Counter[str] = Counter()
    for entry in annotated.entries:
        tokens, starts = token_column(entry.transcript)
        for i in entry.gold.starts:  # type: ignore[union-attr]
            counts.update(tokens[starts[i]:starts[i + 1]])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(w for w, _ in ranked[:k])


def segment_boundary_words(words: tuple[str, ...], transcript: Transcript) -> Labeling:
    """Start a new segment at every line containing any of ``words``.

    Line 0 always opens segment 0.
    """
    vocab = set(words)
    tokens, starts = token_column(transcript)
    opens = (not vocab.isdisjoint(tokens[a:b]) for a, b in zip(starts[1:], starts[2:]))
    return runs_to_labeling([0, *compress(count(1), opens)], repeat(REF_NONE), len(transcript))


@dataclass(frozen=True)
class TextTilingParams:
    pseudo_sentence_size: int = 20  # tokens per pseudo-sentence
    block_size: int = 10  # pseudo-sentences per comparison block
    smoothing_width: int = 2

    def __post_init__(self) -> None:
        if min(self.pseudo_sentence_size, self.block_size, self.smoothing_width) < 1:
            raise SegmentationError("TextTiling parameters must be positive")


def segment_texttiling(params: TextTilingParams, transcript: Transcript) -> Labeling:
    """Depth-score lexical-cohesion segmentation, linear in the token count.

    Token stream -> fixed-size pseudo-sentences -> adjacent-block cosine
    similarity over term counts -> mean-smoothed gap scores -> depth score
    per gap -> boundaries where depth exceeds mean - stddev/2, mapped back
    to the line holding the last token before the gap. Degenerate inputs
    (shorter than two blocks) collapse to a single segment.

    The two blocks slide: at each gap one pseudo-sentence moves from the
    right block to the left, one leaves the left block and one enters the
    right, and the dot product and squared norms are kept as integer
    running sums. The peaks around every gap come from one pass each way.
    Both give exactly the floats of rebuilding the blocks and walking to
    the peaks at every gap, so the boundaries are unchanged.
    """
    n = len(transcript)
    tokens, starts = token_column(transcript)
    w = params.pseudo_sentence_size
    if len(tokens) < 2 * params.block_size * w:
        return runs_to_labeling([0], repeat(REF_NONE), n)

    smoothed = _smooth(_gap_scores(tokens, w, params.block_size), params.smoothing_width)
    depths = _depths(smoothed)
    mean = sum(depths) / len(depths)
    std = math.sqrt(sum((d - mean) ** 2 for d in depths) / len(depths))
    cutoff = mean - std / 2

    # the gap between pseudo-sentences gap-1 and gap opens the line after the
    # one holding its last token, gap * w - 1; none opens after the last line
    opens = {bisect_right(starts, gap * w - 1) for gap, depth in enumerate(depths, 1)
             if depth > cutoff and depth > 0}
    return runs_to_labeling([0, *sorted(opens - {n})], repeat(REF_NONE), n)


def _gap_scores(stream: list[str], w: int, block_size: int) -> list[float]:
    """Cosine of the term counts of the blocks of up to ``block_size``
    pseudo-sentences (``w`` tokens each) on each side of every gap.

    Moving one token changes one count by 1, so the dot product and the
    squared norms change by an integer that needs only that token's counts.
    The counts are lists indexed by a dense id per distinct token.
    """
    n_ps = len(stream) // w  # trailing partial pseudo-sentence dropped
    ids: dict[str, int] = {}
    seq = [ids.setdefault(tok, len(ids)) for tok in stream]
    left = [0] * len(ids)
    right = [0] * len(ids)
    dot = sq_left = sq_right = 0
    # each loop below moves w tokens and adds up the counts it passes, so
    # a squared norm changes by 2 * (that sum) + w: (c + 1)^2 - c^2 = 2c + 1
    for tok in seq[: min(n_ps, block_size) * w]:
        r = right[tok]
        sq_right += 2 * r + 1
        right[tok] = r + 1
    scores: list[float] = []
    for gap in range(1, n_ps):
        # the blocks move from [gap-1-B, gap-1) | [gap-1, gap-1+B)
        #                   to [gap-B, gap)     | [gap, gap+B)
        sum_r = sum_l = 0
        for tok in seq[(gap - 1) * w : gap * w]:
            r = right[tok] - 1
            right[tok] = r
            sum_r += r
            l = left[tok]
            left[tok] = l + 1
            sum_l += l
        dot += sum_r - sum_l
        sq_right -= 2 * sum_r + w
        sq_left += 2 * sum_l + w
        if gap > block_size:
            sum_l = sum_r = 0
            for tok in seq[(gap - 1 - block_size) * w : (gap - block_size) * w]:
                l = left[tok] - 1
                left[tok] = l
                sum_l += l
                sum_r += right[tok]
            dot -= sum_r
            sq_left -= 2 * sum_l + w
        if gap - 1 + block_size < n_ps:
            sum_l = sum_r = 0
            for tok in seq[(gap - 1 + block_size) * w : (gap + block_size) * w]:
                r = right[tok]
                right[tok] = r + 1
                sum_r += r
                sum_l += left[tok]
            dot += sum_l
            sq_right += 2 * sum_r + w
        # both blocks hold at least one pseudo-sentence, so neither norm is 0
        scores.append(dot / (math.sqrt(sq_left) * math.sqrt(sq_right)))
    return scores


def _smooth(values: list[float], width: int) -> list[float]:
    out = []
    for i in range(len(values)):
        lo = max(0, i - width)
        hi = min(len(values), i + width + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def _depths(scores: list[float]) -> list[float]:
    """Rise to the nearest peak on each side of every gap.

    Walking left from i while the scores do not fall reaches the same peak
    as walking from i-1 when ``scores[i-1] >= scores[i]``, so one pass each
    way finds every peak.
    """
    n = len(scores)
    left = scores[:]
    for i in range(1, n):
        if scores[i - 1] >= scores[i]:
            left[i] = left[i - 1]
    right = scores[:]
    for i in range(n - 2, -1, -1):
        if scores[i + 1] >= scores[i]:
            right[i] = right[i + 1]
    return [(lp - s) + (rp - s) for lp, s, rp in zip(left, scores, right)]
