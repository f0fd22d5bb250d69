"""Segmentation and joint evaluation metrics, line- and time-based.

Window conventions, fixed here for every metric:

* a boundary at position i sits between lines i-1 and i;
* the line window at j covers lines j..j+k and counts boundaries i with
  j < i <= j+k;
* the time window at j runs from the start of line j to the end of line j
  plus delta and counts boundaries whose timestamp (start of the first
  line after the boundary) lies strictly inside that open interval.

The strict right edge of the time window makes the time metrics collapse
exactly to their line counterparts when every line has equal duration d
and delta = k*d.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, eq, ne, sub

from .errors import InputError
from .model import Labeling, Transcript

_START_MS = attrgetter("start_ms")
_END_MS = attrgetter("end_ms")


class MetricError(InputError):
    pass


@dataclass(frozen=True)
class WindowConfig:
    """Window sizes: k lines for the line windows, delta ms for the time
    windows. ``derive_window_config`` derives them from the reference."""

    k_lines: int
    delta_ms: int


def _prefix_counts(labeling: Labeling) -> list[int]:
    """``P[x]``, the number of boundaries at positions below x, for 0 <= x <= N:
    k for each x in (starts[k], stops[k]], past the k boundaries at starts[1..k]."""
    lengths = map(sub, labeling.stops(), labeling.starts)
    return [0, *chain.from_iterable(map(repeat, count(), lengths))]


def derive_window_config(ref: Labeling, transcript: Transcript) -> WindowConfig:
    """k = half the mean reference segment length in lines (at least 1);
    delta = half the mean reference segment duration."""
    if len(transcript) != len(ref):
        raise MetricError("transcript length mismatch")
    n_segments = ref.num_segments()
    if n_segments == 0:
        raise MetricError("empty reference labeling")
    k = max(1, int(len(ref) / n_segments / 2 + 0.5))
    # a segment runs from the start of its first line to the end of its last
    lines = transcript.lines
    total_ms = (sum(lines[stop - 1].end_ms for stop in ref.stops())
                - sum(lines[start].start_ms for start in ref.starts))
    return WindowConfig(k_lines=k, delta_ms=max(1, int(total_ms / n_segments / 2)))


def _window_errors(cp: list[int], cr: list[int]) -> tuple[float, float]:
    """(Pk, WindowDiff) from each window's boundary count in pred and in ref."""
    pk = sum(map(ne, map(bool, cp), map(bool, cr)))
    wd = sum(map(ne, cp, cr))
    return pk / len(cp), wd / len(cp)


def _line_counts(prefix: list[int], k: int) -> list[int]:
    """Boundaries in each line window j < N-k, the positions j < i <= j+k:
    P[j+k+1] - P[j+1] of ``_prefix_counts``."""
    return list(map(sub, islice(prefix, k + 1, None), islice(prefix, 1, None)))


def _time_window_errors(
    pred_prefix: list[int], ref_prefix: list[int], starts: list[int], ends: list[int],
    delta_ms: int, k: int,
) -> tuple[float, float]:
    """Time (Pk, WindowDiff) from each labeling's ``_prefix_counts``."""
    # the window at j counts the boundaries i with starts[j] < starts[i] <
    # ends[j] + delta; start_ms never decreases, so those i are the range
    # los[j] <= i < his[j], found by one bisection per edge for both labelings
    n_windows = len(starts) - k
    his = list(map(bisect_left, repeat(starts),
                   map(add, islice(ends, n_windows), repeat(delta_ms))))
    los = list(map(bisect_right, repeat(starts), islice(starts, n_windows)))

    def counts(prefix: list[int]) -> list[int]:
        return list(map(sub, map(prefix.__getitem__, his), map(prefix.__getitem__, los)))

    return _window_errors(counts(pred_prefix), counts(ref_prefix))


def _overlaps(pred: Labeling, ref: Labeling) -> tuple[list[int], list[int], list, list]:
    """The merge of two labelings' runs: the first line, stop, pred ref and
    gold ref of each overlap of a pred run and a gold run, in line order, as
    four columns. A labeling's run holding an overlap is the one opened by
    the last of its starts at or before the overlap's first line."""
    firsts = sorted(set(pred.starts).union(ref.starts))

    def refs(labeling: Labeling) -> list:
        opens = accumulate(map(set(labeling.starts).__contains__, firsts))
        return list(map(labeling.run_refs.__getitem__, map(sub, opens, repeat(1))))

    return firsts, [*firsts[1:], len(ref)] if firsts else [], refs(pred), refs(ref)


def _srs(pred: Labeling, ref: Labeling, starts: list[int],
         ends: list[int]) -> tuple[float | None, float | None]:
    """(line SRS, time SRS): the share of the lines, and of their duration,
    in overlaps whose refs are equal. Each is an exact integer sum, the
    time one over a prefix sum of line durations, divided once: the float
    of summing line by line, as float sums are exact below 2**53. None for
    a total of 0."""
    firsts, stops, pred_refs, ref_refs = _overlaps(pred, ref)
    matches = list(map(eq, pred_refs, ref_refs))
    elapsed = [0, *accumulate(map(sub, ends, starts))]
    held_ms = map(sub, map(elapsed.__getitem__, stops), map(elapsed.__getitem__, firsts))
    n, total_ms = len(ref), elapsed[-1]
    return (sum(compress(map(sub, stops, firsts), matches)) / n if n else None,
            sum(compress(held_ms, matches)) / total_ms if total_ms else None)


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0
    n_requests: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
            self.n_requests + other.n_requests,
        )


def cost_per_100(
    usages: list[TokenUsage], model: str, price_table: dict[str, dict[str, float]]
) -> float:
    """Mean per-transcript cost, scaled to 100 transcripts.

    price_table maps model name -> {input_usd_per_1k, output_usd_per_1k}.
    """
    if model not in price_table:
        raise MetricError(f"model {model!r} not in price table")
    prices = price_table[model]
    if not usages:
        return 0.0
    total = math.fsum(
        u.input_tokens / 1000 * prices["input_usd_per_1k"]
        + u.output_tokens / 1000 * prices["output_usd_per_1k"]
        for u in usages
    )
    return total / len(usages) * 100


@dataclass(frozen=True)
class EvalReport:
    """One transcript's metrics; None where a metric has no value.

    Pk is the fraction of windows where exactly one labeling has a boundary,
    WindowDiff the fraction whose boundary counts differ; the time windows
    are as many as the line windows, N-k. SRS is the share of lines, or of
    line duration, whose ref equals the gold ref: no-ref matches no-ref and
    off-worksheet matches off-worksheet. ``seg_count_diff`` is the number
    of predicted segments minus the number of reference segments."""

    pk_line: float | None
    pk_time: float | None
    wd_line: float | None
    wd_time: float | None
    srs_line: float | None
    srs_time: float | None
    seg_count_diff: int

    def as_row(self) -> dict[str, float | int | None]:
        return asdict(self)


def evaluate(
    pred: Labeling, ref: Labeling, transcript: Transcript, window: WindowConfig | None = None
) -> EvalReport:
    """All metrics for one (pred, ref) pair: the one scoring entry. ``window``
    sets k and delta; None derives them from ref, as ``derive_window_config``
    does. Each labeling's boundaries are found once and shared by every
    metric. A metric with no value is None: Pk and WindowDiff when the
    transcript is no longer than the window (or empty), ``srs_time`` when
    its lines last 0 ms in total, and both SRS values when it has no lines.
    Labelings of the wrong length raise a MetricError that names the
    transcript."""
    n = len(ref)
    if len(pred) != n or len(transcript) != n:
        raise MetricError(f"transcript {transcript.id}: length mismatch: pred {len(pred)}, "
                          f"ref {n}, transcript {len(transcript)} lines")
    lines = transcript.lines
    starts, ends = list(map(_START_MS, lines)), list(map(_END_MS, lines))
    pred_prefix = _prefix_counts(pred)
    ref_prefix = _prefix_counts(ref)
    pk_line = wd_line = pk_time = wd_time = None
    if n:
        cfg = window or derive_window_config(ref, transcript)
        k = cfg.k_lines
        if n > k:
            pk_line, wd_line = _window_errors(_line_counts(pred_prefix, k),
                                              _line_counts(ref_prefix, k))
            pk_time, wd_time = _time_window_errors(pred_prefix, ref_prefix, starts, ends,
                                                   cfg.delta_ms, k)
    srs_line, srs_time = _srs(pred, ref, starts, ends)
    return EvalReport(
        pk_line=pk_line,
        pk_time=pk_time,
        wd_line=wd_line,
        wd_time=wd_time,
        srs_line=srs_line,
        srs_time=srs_time,
        seg_count_diff=pred.num_segments() - ref.num_segments(),
    )
