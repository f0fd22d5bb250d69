"""Core data model: transcripts, worksheets, per-line labelings, and spans.

Everything here is immutable after construction so evaluation workers can
share instances freely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, itemgetter, lt, ne, sub
from typing import NamedTuple

logger = logging.getLogger(__name__)

_SEGMENT_ID = itemgetter(0)
_INDEX = attrgetter("index")
_START_MS = attrgetter("start_ms")


class ModelError(ValueError):
    """Raised when a domain object violates its invariants."""


class _LineFields(NamedTuple):
    index: int  # 0-based position in the transcript
    speaker: str  # e.g. "[TUTOR]", "[STUDENT]"
    utterance: str
    start_ms: int
    end_ms: int


class Line(_LineFields):
    """One timestamped utterance: an immutable tuple of its five fields.

    The constructor raises ``ModelError`` when ``end_ms < start_ms``.
    ``tuple.__new__(Line, fields)`` builds a Line from its five fields
    without that check, as do ``Line._make`` and ``_replace``; the corpus
    loader does so after checking whole columns at once.
    """

    __slots__ = ()

    def __new__(cls, index: int, speaker: str, utterance: str, start_ms: int, end_ms: int):
        if end_ms < start_ms:
            raise ModelError(f"line {index}: end_ms {end_ms} < start_ms {start_ms}")
        return tuple.__new__(cls, (index, speaker, utterance, start_ms, end_ms))

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclass(frozen=True, slots=True)
class Transcript:
    id: str
    lines: tuple[Line, ...]

    def __post_init__(self) -> None:
        # whole-column checks in C; the loops only find the first bad line
        indexes = list(map(_INDEX, self.lines))
        if indexes != list(range(len(indexes))):
            pos = next(pos for pos, index in enumerate(indexes) if index != pos)
            raise ModelError(
                f"transcript {self.id}: line at position {pos} has index {indexes[pos]}"
            )
        starts = list(map(_START_MS, self.lines))
        if any(map(lt, islice(starts, 1, None), starts)):
            pos = next(pos for pos in range(1, len(starts)) if starts[pos] < starts[pos - 1])
            raise ModelError(
                f"transcript {self.id}: start_ms decreases at line {indexes[pos]}"
            )

    def __hash__(self) -> int:
        # equal transcripts have equal ids; the generated hash walks every line
        return hash(self.id)

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def duration_ms(self) -> int:
        if not self.lines:
            return 0
        return self.lines[-1].end_ms - self.lines[0].start_ms


@dataclass(frozen=True, slots=True)
class Problem:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ModelError(f"problem {self.id}: empty text")


@dataclass(frozen=True, slots=True)
class Worksheet:
    id: str
    problems: tuple[Problem, ...]

    def __post_init__(self) -> None:
        if not self.problems:
            raise ModelError(f"worksheet {self.id}: no problems")
        seen: set[str] = set()
        for p in self.problems:
            if p.id in seen:
                raise ModelError(f"worksheet {self.id}: duplicate problem id {p.id}")
            seen.add(p.id)

    def __hash__(self) -> int:
        # equal worksheets have equal ids; hashing the problems instead costs
        # time linear in the worksheet on every worksheet_index lookup
        return hash(self.id)

    def problem_ids(self) -> list[str]:
        return [p.id for p in self.problems]


@dataclass(frozen=True, slots=True)
class RefLabel:
    """What a segment is about: a worksheet problem, an off-worksheet
    problem ("-1" in serialized form), or nothing ("null": informal talk
    or a warm-up outside the worksheet)."""

    kind: str  # "problem" | "not_in_corpus" | "none"
    problem_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("problem", "not_in_corpus", "none"):
            raise ModelError(f"bad RefLabel kind {self.kind!r}")
        if (self.kind == "problem") != (self.problem_id is not None):
            raise ModelError("problem_id must be set exactly for kind='problem'")

    @staticmethod
    def problem(problem_id: str) -> "RefLabel":
        return RefLabel("problem", str(problem_id))

    def serialize(self) -> str:
        if self.kind == "problem":
            return self.problem_id  # type: ignore[return-value]
        return "-1" if self.kind == "not_in_corpus" else "null"

    @staticmethod
    def deserialize(raw: str) -> "RefLabel":
        if raw == "null":
            return REF_NONE
        if raw == "-1":
            return REF_NOT_IN_CORPUS
        return RefLabel.problem(raw)


REF_NONE = RefLabel("none")
REF_NOT_IN_CORPUS = RefLabel("not_in_corpus")


@dataclass(frozen=True, slots=True)
class Labeling:
    """Per-line (segment id, ref) assignment over a whole transcript.

    Segment ids are arbitrary integers; only the run structure matters.
    Lines sharing a segment id must share a ref, and a segment id may not
    recur after a different id intervenes.
    """

    per_line: tuple[tuple[int, RefLabel], ...]

    def __post_init__(self) -> None:
        seen_done: set[int] = set()
        prev_seg: int | None = None
        seg_ref: dict[int, RefLabel] = {}
        for i, (seg, ref) in enumerate(self.per_line):
            if seg != prev_seg:
                if seg in seen_done:
                    raise ModelError(f"segment id {seg} recurs non-contiguously at line {i}")
                if prev_seg is not None:
                    seen_done.add(prev_seg)
                prev_seg = seg
            known = seg_ref.setdefault(seg, ref)
            # identity first: the generated __eq__ is slow, and most lines of
            # a segment share one RefLabel object
            if known is not ref and known != ref:
                raise ModelError(f"segment {seg} has conflicting refs at line {i}")

    def __len__(self) -> int:
        return len(self.per_line)

    @property
    def refs(self) -> list[RefLabel]:
        return [ref for _, ref in self.per_line]

    def num_segments(self) -> int:
        return len(run_starts(self))


@dataclass(frozen=True, slots=True)
class SegmentSpan:
    """Inclusive line range and its ref (``REF_NONE`` when it has none).

    The span form of segmenter and LLM outputs before normalization to a
    per-line Labeling.
    """

    start_line: int
    end_line: int
    ref: RefLabel = REF_NONE

    def __post_init__(self) -> None:
        if self.start_line > self.end_line:
            raise ModelError(f"span start {self.start_line} > end {self.end_line}")


def clamp_span(start: int, end: int, n_lines: int) -> tuple[int, int] | None:
    """``(start, end)`` clamped to [0, n_lines), logged if it moved; None for
    a span wholly outside, also logged, or with start > end."""
    if end < 0 or start >= n_lines:
        logger.warning("span (%d, %d) outside [0, %d); dropped", start, end, n_lines)
        return None
    clamped = (max(start, 0), min(end, n_lines - 1))
    if clamped != (start, end):
        logger.warning("span (%d, %d) clamped to (%d, %d)", start, end, *clamped)
    return clamped if clamped[0] <= clamped[1] else None


def spans_to_labeling(spans: list[SegmentSpan], n_lines: int) -> Labeling:
    """Normalize possibly gappy/overlapping spans into a total Labeling.

    Spans reaching outside [0, n_lines) are clamped by ``clamp_span`` and
    sorted by (start, end). One sweep then gives each span the lines
    after those already taken, so overlaps resolve first-span-wins, and each
    maximal run of lines no span takes becomes its own segment with no ref:
    linear in n_lines plus the number of spans, after the sort. An empty
    span list yields a single all-covering segment with no ref.
    """
    if n_lines <= 0:
        return Labeling(())
    clean: list[tuple[int, int, RefLabel]] = []
    for span in spans:
        clamped = clamp_span(span.start_line, span.end_line, n_lines)
        if clamped is not None:
            clean.append((*clamped, span.ref))
    clean.sort(key=itemgetter(0, 1))  # stable: equal spans keep their order

    runs: list[tuple[int, RefLabel]] = []  # (first line, ref) of each segment
    taken = 0  # lines below this already have a segment
    for start, end, ref in clean:
        if start > taken:  # the lines before this span that no span took
            runs.append((taken, REF_NONE))
            taken = start
        if end >= taken:
            runs.append((taken, ref))
            taken = end + 1
    if taken < n_lines:
        runs.append((taken, REF_NONE))
    starts, refs = zip(*runs)  # n_lines > 0, so some span or gap made a run
    return runs_to_labeling(starts, refs, n_lines)


def runs_to_labeling(starts: Sequence[int], refs: Iterable[RefLabel], n_lines: int) -> Labeling:
    """The Labeling of ``n_lines`` lines cut into segments at ``starts``
    (ascending, the first 0), the k-th carrying the k-th of ``refs`` and
    numbered k. The one writer of per-line pairs: it repeats each
    segment's pair over its run, in C, with no step per line."""
    lengths = map(sub, chain(islice(starts, 1, None), (n_lines,)), starts)
    return Labeling(tuple(chain.from_iterable(map(repeat, zip(count(), refs), lengths))))


def run_starts(labeling: Labeling) -> list[int]:
    """The first line of each maximal run of equal segment id, in order."""
    return [0, *compress(count(1), boundary_flags(labeling))] if len(labeling) else []


def labeling_to_spans(labeling: Labeling) -> list[SegmentSpan]:
    """Maximal runs of equal segment id, in transcript order: the one reader
    of per-line pairs, finding the runs through ``run_starts``."""
    starts = run_starts(labeling)
    ends = chain(map(sub, islice(starts, 1, None), repeat(1)), (len(labeling) - 1,))
    return list(map(SegmentSpan, starts, ends, [labeling.per_line[s][1] for s in starts]))


def boundary_flags(labeling: Labeling) -> list[bool]:
    """``flags[i - 1]`` tells whether a boundary sits at position i, 1 <= i < N."""
    segs = list(map(_SEGMENT_ID, labeling.per_line))
    return list(map(ne, islice(segs, 1, None), segs))

