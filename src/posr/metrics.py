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

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .model import Labeling, Transcript, boundaries, labeling_to_spans


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class WindowConfig:
    """Window sizes derived from the reference segmentation."""

    k_lines: int
    delta_ms: int

    def __post_init__(self) -> None:
        if self.k_lines < 1:
            raise MetricError("k_lines must be >= 1")
        if self.delta_ms <= 0:
            raise MetricError("delta_ms must be positive")


def derive_window_config(ref: Labeling, transcript: Transcript) -> WindowConfig:
    """k = half the mean reference segment length in lines (at least 1);
    delta = half the mean reference segment duration."""
    spans = labeling_to_spans(ref)
    if not spans:
        raise MetricError("empty reference labeling")
    mean_len = len(ref) / len(spans)
    k = max(1, int(mean_len / 2 + 0.5))
    durations = [
        transcript.lines[s.end_line].end_ms - transcript.lines[s.start_line].start_ms
        for s in spans
    ]
    delta = max(1, int(sum(durations) / len(durations) / 2))
    return WindowConfig(k_lines=k, delta_ms=delta)


def _check_pair(pred: Labeling, ref: Labeling, k: int) -> int:
    n = len(ref)
    if len(pred) != n:
        raise MetricError(f"length mismatch: pred {len(pred)} vs ref {n}")
    if n <= k:
        raise MetricError("transcript shorter than window")
    return n


def _window_errors(
    pred_at: list[int], ref_at: list[int], windows: list[tuple[int, int]]
) -> tuple[float, float]:
    """(Pk, WindowDiff) over open windows (lo, hi), given each labeling's
    sorted boundary positions on the windows' axis (line index or ms)."""
    pk = wd = 0
    for lo, hi in windows:
        cp = bisect_left(pred_at, hi) - bisect_right(pred_at, lo)
        cr = bisect_left(ref_at, hi) - bisect_right(ref_at, lo)
        pk += (cp > 0) != (cr > 0)
        wd += cp != cr
    return pk / len(windows), wd / len(windows)


def _line_errors(pred: Labeling, ref: Labeling, k: int) -> tuple[float, float]:
    n = _check_pair(pred, ref, k)
    windows = [(j, j + k + 1) for j in range(n - k)]
    return _window_errors(sorted(boundaries(pred)), sorted(boundaries(ref)), windows)


def _time_errors(
    pred: Labeling, ref: Labeling, transcript: Transcript, delta_ms: int, k: int | None
) -> tuple[float, float]:
    if k is None:
        k = derive_window_config(ref, transcript).k_lines
    n = _check_pair(pred, ref, k)
    if len(transcript) != n:
        raise MetricError("transcript length mismatch")
    lines = transcript.lines
    # boundary timestamp = onset of the first line after the boundary;
    # start_ms never decreases, so these lists come out sorted
    pred_at = [lines[i].start_ms for i in sorted(boundaries(pred))]
    ref_at = [lines[i].start_ms for i in sorted(boundaries(ref))]
    windows = [(lines[j].start_ms, lines[j].end_ms + delta_ms) for j in range(n - k)]
    return _window_errors(pred_at, ref_at, windows)


def window_diff(pred: Labeling, ref: Labeling, k: int) -> float:
    """Fraction of length-k windows whose boundary counts differ."""
    return _line_errors(pred, ref, k)[1]


def p_k(pred: Labeling, ref: Labeling, k: int) -> float:
    """Fraction of length-k windows where exactly one labeling has a boundary."""
    return _line_errors(pred, ref, k)[0]


def time_window_diff(
    pred: Labeling,
    ref: Labeling,
    transcript: Transcript,
    delta_ms: int,
    k: int | None = None,
) -> float:
    """Duration-windowed WindowDiff; k (defaulting to the reference-derived
    value) fixes the summation count N-k."""
    return _time_errors(pred, ref, transcript, delta_ms, k)[1]


def time_p_k(
    pred: Labeling,
    ref: Labeling,
    transcript: Transcript,
    delta_ms: int,
    k: int | None = None,
) -> float:
    """Duration-windowed Pk."""
    return _time_errors(pred, ref, transcript, delta_ms, k)[0]


def srs(pred: Labeling, ref: Labeling, transcript: Transcript, weighting: str = "line") -> float:
    """Weighted fraction of lines whose ref matches the gold ref.

    weighting "line" counts every line equally; "time" weights by line
    duration. No-ref matches no-ref; off-worksheet matches off-worksheet.
    """
    n = len(ref)
    if len(pred) != n or len(transcript) != n:
        raise MetricError("length mismatch")
    if weighting not in ("line", "time"):
        raise MetricError(f"unknown weighting {weighting!r}")
    if n == 0:
        raise MetricError("empty labeling")
    total = 0.0
    matched = 0.0
    for i in range(n):
        alpha = 1.0 if weighting == "line" else float(transcript.lines[i].duration_ms)
        total += alpha
        if pred.per_line[i][1] == ref.per_line[i][1]:
            matched += alpha
    if total == 0:
        raise MetricError("total time weight is zero")
    return matched / total


def segment_count_diff(pred: Labeling, ref: Labeling) -> int:
    """Signed (#predicted segments) - (#reference segments)."""
    return pred.num_segments() - ref.num_segments()


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
    total = sum(
        u.input_tokens / 1000 * prices["input_usd_per_1k"]
        + u.output_tokens / 1000 * prices["output_usd_per_1k"]
        for u in usages
    )
    return total / len(usages) * 100


@dataclass(frozen=True)
class EvalReport:
    pk_line: float
    pk_time: float
    wd_line: float
    wd_time: float
    srs_line: float
    srs_time: float
    seg_count_diff: int
    cost_usd_per_100: float | None = None

    def as_row(self) -> dict[str, float | int | None]:
        return asdict(self)


def evaluate(
    pred: Labeling,
    ref: Labeling,
    transcript: Transcript,
    cost_usd_per_100: float | None = None,
) -> EvalReport:
    """All metrics for one (pred, ref) pair, windows derived from ref."""
    cfg = derive_window_config(ref, transcript)
    pk_line, wd_line = _line_errors(pred, ref, cfg.k_lines)
    pk_time, wd_time = _time_errors(pred, ref, transcript, cfg.delta_ms, cfg.k_lines)
    return EvalReport(
        pk_line=pk_line,
        pk_time=pk_time,
        wd_line=wd_line,
        wd_time=wd_time,
        srs_line=srs(pred, ref, transcript, "line"),
        srs_time=srs(pred, ref, transcript, "time"),
        seg_count_diff=segment_count_diff(pred, ref),
        cost_usd_per_100=cost_usd_per_100,
    )
