"""Shared builders and independent brute-force oracles for the test suite.

The oracles enumerate every window explicitly from raw per-line segment
ids and timestamps; they never call the library's metric code.
"""

from __future__ import annotations

import random

import pytest

from posr.model import Line, REF_NONE, RefLabel, Transcript, columns_to_labeling


def make_transcript(durations_ms, tid="t0", words_per_line=4, seed=0):
    rng = random.Random(seed)
    lines = []
    clock = 0
    for i, d in enumerate(durations_ms):
        utt = " ".join(f"w{rng.randrange(50)}" for _ in range(words_per_line))
        lines.append(
            Line(index=i, speaker="[TUTOR]" if i % 2 == 0 else "[STUDENT]",
                 utterance=utt, start_ms=clock, end_ms=clock + d)
        )
        clock += d
    return Transcript(id=tid, lines=tuple(lines))


REF_POOL = [REF_NONE, RefLabel("not_in_corpus"),
            RefLabel.problem("P1"), RefLabel.problem("P2"), RefLabel.problem("P3")]


def random_labeling(n, rng, max_seg_len=8, ref_pool=REF_POOL):
    """Random contiguous segmentation with a random ref per segment."""
    per_line = []
    seg = 0
    i = 0
    while i < n:
        length = rng.randint(1, max_seg_len)
        ref = rng.choice(ref_pool)
        for _ in range(min(length, n - i)):
            per_line.append((seg, ref))
        i += length
        seg += 1
    return per_line_labeling(per_line)


def per_line_labeling(per_line):
    """The Labeling of one (segment id, ref) pair per line, read and checked
    as the two columns of an annotation file are."""
    return columns_to_labeling([seg for seg, _ in per_line], [ref for _, ref in per_line])


def gold_accuracy(config, corpus):
    """The share of gold segments whose decision is the gold problem id (None
    for warm-up and off-worksheet golds), counted from ``gold_decisions`` as
    ``posr retrieve`` counts it."""
    hits = [pid == gold.problem_id for *_, gold, pid in config.gold_decisions(corpus)]
    return sum(hits) / len(hits) if hits else 0.0


def line_pairs(labeling):
    """The (segment number, ref) of each line, the segments numbered 0, 1, ...:
    a plain loop over the runs, independent of the library's run arithmetic."""
    pairs = []
    for k, (start, ref) in enumerate(zip(labeling.starts, labeling.run_refs)):
        stop = labeling.starts[k + 1] if k + 1 < len(labeling.starts) else labeling.n_lines
        for _ in range(start, stop):
            pairs.append((k, ref))
    return tuple(pairs)


def line_refs(labeling):
    return [ref for _, ref in line_pairs(labeling)]


def seg_ids(labeling):
    return [seg for seg, _ in line_pairs(labeling)]


def boundary_set(labeling):
    """Positions i (1 <= i <= N-1) with a segment change between lines i-1 and i."""
    ids = seg_ids(labeling)
    return {i for i in range(1, len(ids)) if ids[i] != ids[i - 1]}


def oracle_line_metric(pred_ids, ref_ids, k, presence_only):
    """Direct enumeration of every window over raw segment-id lists."""
    n = len(ref_ids)
    assert len(pred_ids) == n and 1 <= k < n
    errors = 0
    for j in range(n - k):
        cp = sum(1 for i in range(j + 1, j + k + 1) if pred_ids[i] != pred_ids[i - 1])
        cr = sum(1 for i in range(j + 1, j + k + 1) if ref_ids[i] != ref_ids[i - 1])
        mismatch = (cp > 0) != (cr > 0) if presence_only else cp != cr
        errors += mismatch
    return errors / (n - k)


def oracle_time_metric(pred_ids, ref_ids, starts, ends, delta_ms, k, presence_only):
    """Direct enumeration: boundary time is the onset of the line after the
    boundary; a window at j spans the open interval (starts[j], ends[j]+delta)."""
    n = len(ref_ids)
    errors = 0
    for j in range(n - k):
        lo, hi = starts[j], ends[j] + delta_ms
        cp = sum(
            1 for i in range(1, n)
            if pred_ids[i] != pred_ids[i - 1] and lo < starts[i] < hi
        )
        cr = sum(
            1 for i in range(1, n)
            if ref_ids[i] != ref_ids[i - 1] and lo < starts[i] < hi
        )
        mismatch = (cp > 0) != (cr > 0) if presence_only else cp != cr
        errors += mismatch
    return errors / (n - k)


def oracle_srs(pred, ref, weights):
    total = sum(weights)
    hit = sum(
        w for w, (p, r) in zip(weights, zip(line_refs(pred), line_refs(ref))) if p == r
    )
    return hit / total


@pytest.fixture
def rng():
    return random.Random(12345)
