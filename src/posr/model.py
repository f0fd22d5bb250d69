"""Core data model: transcripts, worksheets, labelings, and spans.

Everything here is immutable after construction so evaluation workers can
share instances freely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import compress, count, islice, repeat
from operator import attrgetter, itemgetter, lt, ne, sub
from typing import NamedTuple

logger = logging.getLogger(__name__)

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
            if p.id in ("-1", "null"):
                raise ModelError(f"worksheet {self.id}: problem id {p.id} is reserved: annotations "
                                 'write "-1" for an off-worksheet problem and "null" for none')
            seen.add(p.id)

    def __hash__(self) -> int:
        # equal worksheets have equal ids; hashing the problems instead costs
        # time linear in the worksheet on every worksheet_index lookup
        return hash(self.id)

    def problem_ids(self) -> list[str]:
        return [p.id for p in self.problems]


class _RefFields(NamedTuple):
    kind: str  # "problem" | "not_in_corpus" | "none"
    problem_id: str | None = None


class RefLabel(_RefFields):
    """What a segment is about: a worksheet problem, an off-worksheet
    problem ("-1" in serialized form), or nothing ("null": informal talk
    or a warm-up outside the worksheet).

    An immutable ``(kind, problem_id)`` tuple, compared and hashed as that
    pair. The constructor raises ``ModelError`` on an unknown kind, or on a
    ``problem_id`` unset for kind ``problem`` or set for another kind.
    """

    __slots__ = ()

    def __new__(cls, kind: str, problem_id: str | None = None):
        if kind not in ("problem", "not_in_corpus", "none"):
            raise ModelError(f"bad RefLabel kind {kind!r}")
        if (kind == "problem") != (problem_id is not None):
            raise ModelError("problem_id must be set exactly for kind='problem'")
        return tuple.__new__(cls, (kind, problem_id))

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
    """A transcript of ``n_lines`` lines cut into segments: segment k runs
    from line ``starts[k]`` (ascending, the first 0) up to ``stops()[k]``
    and carries ``run_refs[k]``.

    ``runs_to_labeling`` builds one from runs, ``columns_to_labeling``
    reads and checks the per-line form of annotation files.
    """

    starts: tuple[int, ...]
    run_refs: tuple[RefLabel, ...]
    n_lines: int

    def __len__(self) -> int:
        return self.n_lines

    def stops(self) -> list[int]:
        """The line after each segment: the next one's start, or ``n_lines``."""
        return [*islice(self.starts, 1, None), self.n_lines] if self.starts else []

    def num_segments(self) -> int:
        return len(self.starts)


class SegmentSpan(NamedTuple):
    """Inclusive line range and its ref (``REF_NONE`` when it has none).

    The span form of segmenter and LLM outputs before normalization to a
    Labeling, which ``clamp_span`` bounds to the transcript.
    """

    start_line: int
    end_line: int
    ref: RefLabel = REF_NONE


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
        return Labeling((), (), 0)
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
    (ascending, the first 0), the k-th carrying the k-th of ``refs``: the
    runs as given, with no step per line. Refs past the last start are unread."""
    starts = tuple(starts) if n_lines else ()
    return Labeling(starts, tuple(islice(refs, len(starts))), n_lines)


def columns_to_labeling(segs: Sequence[int], refs: Sequence[RefLabel]) -> Labeling:
    """The runs of the segment id and the ref of each line. The ids are
    arbitrary integers, of which only the runs are kept. Lines sharing an id
    must share a ref, and an id may not recur after a different id."""
    starts = [0, *compress(count(1), map(ne, islice(segs, 1, None), segs))] if segs else []
    labeling = runs_to_labeling(starts, map(refs.__getitem__, starts), len(segs))
    seen: set[int] = set()
    for start, stop, ref in zip(starts, labeling.stops(), labeling.run_refs):
        seg, run = segs[start], refs[start:stop]
        if seg in seen:
            raise ModelError(f"segment id {seg} recurs non-contiguously at line {start}")
        seen.add(seg)
        if run.count(ref) != len(run):
            i = start + next(i for i, other in enumerate(run) if other != ref)
            raise ModelError(f"segment {seg} has conflicting refs at line {i}")
    return labeling


def labeling_to_spans(labeling: Labeling) -> list[SegmentSpan]:
    """The segments of ``labeling`` as spans, in transcript order."""
    ends = map(sub, labeling.stops(), repeat(1))
    return list(map(SegmentSpan, labeling.starts, ends, labeling.run_refs))
