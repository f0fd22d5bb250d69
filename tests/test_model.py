import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posr.model import (
    Line,
    ModelError,
    Problem,
    REF_NONE,
    RefLabel,
    SegmentSpan,
    Transcript,
    Worksheet,
    labeling_to_spans,
    runs_to_labeling,
    spans_to_labeling,
)

from conftest import (
    boundary_set,
    line_pairs,
    line_refs,
    per_line_labeling,
    random_labeling,
    seg_ids,
)

A = RefLabel.problem("A")
B = RefLabel.problem("B")


def test_line_rejects_negative_duration():
    with pytest.raises(ModelError):
        Line(index=0, speaker="[TUTOR]", utterance="hi", start_ms=100, end_ms=50)


def test_transcript_rejects_non_monotone_starts():
    lines = (
        Line(0, "[TUTOR]", "a", 0, 5000),
        Line(1, "[TUTOR]", "b", 5000, 6000),
        Line(2, "[TUTOR]", "c", 3000, 7000),
    )
    with pytest.raises(ModelError):
        Transcript(id="t", lines=lines)


def test_worksheet_rejects_duplicate_ids():
    with pytest.raises(ModelError):
        Worksheet(id="w", problems=(Problem("P3", "x"), Problem("P3", "y")))


def test_reflabel_serialization_round_trip():
    for ref in (REF_NONE, RefLabel("not_in_corpus"), RefLabel.problem("P7")):
        assert RefLabel.deserialize(ref.serialize()) == ref
    assert RefLabel.deserialize("null") == REF_NONE
    assert RefLabel.deserialize("-1").kind == "not_in_corpus"


def test_reflabel_checks_its_fields():
    with pytest.raises(ModelError, match=r"^bad RefLabel kind 'topic'$"):
        RefLabel("topic", "P1")
    for kind, problem_id in (("problem", None), ("none", "P1"), ("not_in_corpus", "P1")):
        with pytest.raises(ModelError,
                           match=r"^problem_id must be set exactly for kind='problem'$"):
            RefLabel(kind, problem_id)


def test_reflabel_equals_and_hashes_as_its_kind_and_problem_id():
    refs = [REF_NONE, RefLabel("none"), RefLabel("not_in_corpus"), A, RefLabel("problem", "A"), B]
    for x in refs:
        assert hash(x) == hash((x.kind, x.problem_id))
        for y in refs:
            assert (x == y) == ((x.kind, x.problem_id) == (y.kind, y.problem_id))
            assert (x != y) == ((x.kind, x.problem_id) != (y.kind, y.problem_id))


def test_labeling_rejects_non_contiguous_segment():
    with pytest.raises(ModelError):
        per_line_labeling(((0, REF_NONE), (1, REF_NONE), (0, REF_NONE)))


def test_labeling_rejects_conflicting_refs():
    with pytest.raises(ModelError):
        per_line_labeling(((0, A), (0, B)))
    with pytest.raises(ModelError, match="segment 1 has conflicting refs at line 3"):
        per_line_labeling(((0, A), (1, RefLabel.problem("B")), (1, B), (1, RefLabel.problem("C"))))


def test_labeling_accepts_equal_but_distinct_refs():
    # the identity shortcut must still fall back to equality
    a2 = RefLabel.problem("A")
    assert a2 == A and a2 is not A
    lab = per_line_labeling(((0, A), (0, a2), (0, A), (1, REF_NONE), (1, RefLabel("none"))))
    assert lab.num_segments() == 2
    assert line_refs(lab) == [A, A, A, REF_NONE, REF_NONE]


def test_spans_to_labeling_exact_cover():
    lab = spans_to_labeling([SegmentSpan(0, 4, A), SegmentSpan(5, 9, B)], 10)
    assert lab.num_segments() == 2
    assert line_refs(lab)[:5] == [A] * 5
    assert line_refs(lab)[5:] == [B] * 5


def test_spans_to_labeling_gap_policy():
    # hand enumeration: gap before, span, gap after -> 3 segments
    lab = spans_to_labeling([SegmentSpan(2, 4, A)], 6)
    assert seg_ids(lab) == [0, 0, 1, 1, 1, 2]
    assert line_refs(lab) == [REF_NONE, REF_NONE, A, A, A, REF_NONE]


def test_spans_to_labeling_first_span_wins():
    # line-by-line overlap rule: lines 0-5 keep A, B gets only 6-9
    lab = spans_to_labeling([SegmentSpan(0, 5, A), SegmentSpan(4, 9, B)], 10)
    assert line_refs(lab) == [A] * 6 + [B] * 4
    assert lab.num_segments() == 2


def test_spans_to_labeling_empty_and_out_of_range():
    lab = spans_to_labeling([], 5)
    assert lab.num_segments() == 1
    assert line_refs(lab) == [REF_NONE] * 5

    clamped = spans_to_labeling([SegmentSpan(-3, 20, A)], 4)
    assert line_refs(clamped) == [A] * 4


def oracle_spans_to_labeling(spans, n_lines):
    """The owner-array definition: clamp, sort by (start, end), let every span
    claim each line of its range that no earlier span claimed, then start a
    segment wherever the owning span changes; unowned lines carry no ref."""
    if n_lines <= 0:
        return per_line_labeling(())
    clean = sorted(
        (SegmentSpan(max(s.start_line, 0), min(s.end_line, n_lines - 1), s.ref)
         for s in spans if s.end_line >= 0 and s.start_line < n_lines),
        key=lambda s: (s.start_line, s.end_line))
    owner = [None] * n_lines
    for idx, span in enumerate(clean):
        for i in range(span.start_line, span.end_line + 1):
            if owner[i] is None:
                owner[i] = idx
    per_line = []
    for i in range(n_lines):
        ref = REF_NONE if owner[i] is None else clean[owner[i]].ref
        if i == 0 or owner[i] != owner[i - 1]:
            seg = per_line[-1][0] + 1 if per_line else 0
        per_line.append((seg, ref))
    return per_line_labeling(tuple(per_line))


SPAN_REFS = st.sampled_from([REF_NONE, RefLabel("not_in_corpus"), A, B])


@st.composite
def span_lists(draw):
    """Span lists over up to 30 lines that reach outside the transcript,
    overlap, share starts and carry no ref."""
    n_lines = draw(st.integers(0, 30))
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(-5, 35))
        spans.append(SegmentSpan(start, start + draw(st.integers(0, 15)), draw(SPAN_REFS)))
    return spans, n_lines


@settings(max_examples=2000, deadline=None)
@given(span_lists())
def test_spans_to_labeling_equals_owner_array_oracle(case):
    spans, n_lines = case
    assert line_pairs(spans_to_labeling(spans, n_lines)) == \
        line_pairs(oracle_spans_to_labeling(spans, n_lines))


def test_spans_to_labeling_linear_in_overlapping_spans():
    started = time.perf_counter()
    lab = spans_to_labeling([SegmentSpan(0, 19_999, A)] * 20_000, 20_000)
    # the owner array visited every line of every span: 19.6 s on a 2-vCPU host
    assert time.perf_counter() - started < 5.0
    assert lab.num_segments() == 1


def test_labeling_to_spans_basic():
    lab = per_line_labeling(tuple((0, REF_NONE) for _ in range(10)))
    assert labeling_to_spans(lab) == [SegmentSpan(0, 9, REF_NONE)]

    lab = per_line_labeling(((0, REF_NONE), (0, REF_NONE), (1, A), (1, A), (1, A)))
    spans = labeling_to_spans(lab)
    assert [(s.start_line, s.end_line) for s in spans] == [(0, 1), (2, 4)]


def oracle_labeling_to_spans(pl):
    """Maximal runs of equal segment id in the (segment id, ref) pairs ``pl``,
    found by comparing every line with the first line of its run."""
    spans = []
    start = 0
    for i in range(1, len(pl) + 1):
        if i == len(pl) or pl[i][0] != pl[start][0]:
            spans.append(SegmentSpan(start, i - 1, pl[start][1]))
            start = i
    return spans


@st.composite
def labelings(draw):
    """Labelings of up to 40 lines whose segment ids are distinct arbitrary
    integers in any order, not 0, 1, ..."""
    lengths = draw(st.lists(st.integers(1, 6), max_size=12))
    ids = draw(st.lists(st.integers(-50, 50), min_size=len(lengths), max_size=len(lengths),
                        unique=True))
    refs = draw(st.lists(SPAN_REFS, min_size=len(lengths), max_size=len(lengths)))
    return per_line_labeling(tuple((seg, ref) for seg, ref, length in zip(ids, refs, lengths)
                          for _ in range(length)))


@settings(max_examples=500, deadline=None)
@given(labelings())
def test_run_reader_and_writer_equal_per_line_oracle(labeling):
    spans = labeling_to_spans(labeling)
    assert spans == oracle_labeling_to_spans(line_pairs(labeling))
    written = runs_to_labeling([s.start_line for s in spans], [s.ref for s in spans],
                               len(labeling))
    # the same boundaries and refs, with the segments numbered 0, 1, ...
    assert oracle_labeling_to_spans(line_pairs(written)) == spans
    assert boundary_set(written) == boundary_set(labeling)
    assert line_refs(written) == line_refs(labeling)
    assert line_pairs(written) == tuple((k, s.ref) for k, s in enumerate(spans)
                                        for _ in range(s.start_line, s.end_line + 1))


@st.composite
def runs(draw):
    """Runs drawn as ``runs_to_labeling`` takes them (starts ascending from 0,
    one ref each, some equal to another run's but a distinct object, any
    n_lines >= 0), and the same runs one (segment id, ref) pair per line
    under distinct arbitrary ids."""
    lengths = draw(st.lists(st.integers(1, 6), max_size=12))
    starts = [sum(lengths[:k]) for k in range(len(lengths))]
    if not lengths and draw(st.booleans()):
        starts = [0]  # a start, and no lines to cut
    refs = draw(st.lists(SPAN_REFS | st.sampled_from("AB").map(RefLabel.problem),
                         min_size=len(starts), max_size=len(starts)))
    ids = draw(st.lists(st.integers(-50, 50), min_size=len(lengths), max_size=len(lengths),
                        unique=True))
    per_line = tuple((seg, ref) for seg, ref, length in zip(ids, refs, lengths)
                     for _ in range(length))
    return starts, refs, sum(lengths), per_line


@settings(max_examples=500, deadline=None)
@given(runs())
def test_runs_to_labeling_equals_the_labeling_of_its_lines(case):
    starts, refs, n_lines, per_line = case
    written = runs_to_labeling(starts, refs, n_lines)
    read = per_line_labeling(per_line)
    assert written == read and hash(written) == hash(read)
    spans = oracle_labeling_to_spans(per_line)
    assert labeling_to_spans(written) == spans
    # the ids are not kept: the segments are numbered 0, 1, ...
    assert line_pairs(written) == tuple((k, s.ref) for k, s in enumerate(spans)
                                        for _ in range(s.start_line, s.end_line + 1))
    assert boundary_set(written) == {i for i in range(1, n_lines)
                                     if per_line[i][0] != per_line[i - 1][0]}


def test_runs_to_labeling_of_no_lines():
    assert runs_to_labeling([0], [A], 0) == per_line_labeling(())
    assert runs_to_labeling([], [], 0) == per_line_labeling(())
    assert labeling_to_spans(per_line_labeling(())) == []


def test_round_trip_identity():
    spans = [SegmentSpan(0, 4, A), SegmentSpan(5, 9, B)]
    assert labeling_to_spans(spans_to_labeling(spans, 10)) == spans


def test_round_trip_random_disjoint(rng):
    for _ in range(50):
        lab = random_labeling(rng.randint(1, 40), rng)
        spans = labeling_to_spans(lab)
        back = spans_to_labeling(spans, len(lab))
        assert labeling_to_spans(back) == spans


def test_boundaries():
    assert boundary_set(per_line_labeling(tuple((0, REF_NONE) for _ in range(5)))) == set()
    assert boundary_set(per_line_labeling(((0, REF_NONE), (0, REF_NONE), (1, A), (1, A)))) == {2}
    # enumerate adjacent pairs: changes at 1 and 2
    assert boundary_set(per_line_labeling(((0, REF_NONE), (1, A), (2, B)))) == {1, 2}


def test_labeling_starts_and_stops():
    lab = per_line_labeling(((0, REF_NONE), (0, REF_NONE), (1, REF_NONE), (1, REF_NONE)))
    assert lab.starts == (0, 2) and lab.stops() == [2, 4]
    assert per_line_labeling(()).stops() == []


def test_boundary_count_matches_segment_count(rng):
    for _ in range(100):
        lab = random_labeling(rng.randint(1, 60), rng)
        assert len(boundary_set(lab)) == lab.num_segments() - 1
