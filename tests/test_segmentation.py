import math
import random
import time
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posr.corpus import Corpus, CorpusEntry, SyntheticSpec, generate_synthetic
from posr.model import Line, Problem, REF_NONE, Transcript, Worksheet
from posr.segmentation import (
    SegmentationError,
    TextTilingParams,
    _depths,
    _gap_scores,
    fit_boundary_words,
    segment_boundary_words,
    segment_texttiling,
)
from posr.tokens import tokenize

from conftest import boundary_set, line_refs, make_transcript, per_line_labeling, seg_ids

WS = Worksheet(id="w", problems=(Problem("P1", "placeholder"),))


def corpus_of(lines_text, seg_ids, tid="t"):
    lines = tuple(
        Line(i, "[TUTOR]", text, i * 1000, (i + 1) * 1000)
        for i, text in enumerate(lines_text)
    )
    gold = per_line_labeling(tuple((s, REF_NONE) for s in seg_ids))
    entry = CorpusEntry(Transcript(id=tid, lines=lines), WS, gold)
    return Corpus((entry,), "train")


def test_fit_boundary_words_counts_opening_lines():
    corpus = corpus_of(
        ["okay next question one", "blah blah", "okay next question two", "more talk"],
        [0, 0, 1, 1],
    )
    words = fit_boundary_words(corpus, k=5)
    assert set(words) >= {"okay", "next", "question"}
    # "one"/"two" appear once each; frequency-2 tokens rank first
    assert words[0] in {"next", "okay", "question"}


def test_fit_boundary_words_tie_lexicographic():
    corpus = corpus_of(["zebra apple", "x"], [0, 0])
    words = fit_boundary_words(corpus, k=2)
    assert words == ("apple", "zebra")


def test_fit_boundary_words_k1():
    corpus = corpus_of(["go go go stop", "x"], [0, 0])
    words = fit_boundary_words(corpus, k=1)
    assert words == ("go",)


def test_fit_boundary_words_requires_annotations():
    empty = Corpus((), "train")
    with pytest.raises(SegmentationError):
        fit_boundary_words(empty, k=10)


def test_segment_boundary_words_no_hits_single_segment():
    t = make_transcript([1000] * 6)
    lab = segment_boundary_words(("zzzznope",), t)
    assert lab.num_segments() == 1


def test_segment_boundary_words_scan():
    lines = ["intro talk", "more talk", "still going", "next question now", "work", "done"]
    t = Transcript(id="t", lines=tuple(
        Line(i, "[TUTOR]", u, i * 1000, (i + 1) * 1000) for i, u in enumerate(lines)
    ))
    lab = segment_boundary_words(("question",), t)
    assert boundary_set(lab) == {3}


def test_segment_boundary_words_every_line_fires():
    lines = ["question one", "question two", "question three"]
    t = Transcript(id="t", lines=tuple(
        Line(i, "[TUTOR]", u, i * 1000, (i + 1) * 1000) for i, u in enumerate(lines)
    ))
    lab = segment_boundary_words(("question",), t)
    assert lab.num_segments() == len(lines)


def test_segment_boundary_words_case_invariant():
    lines = ["hello there", "Next QUESTION", "ok"]
    t = Transcript(id="t", lines=tuple(
        Line(i, "[TUTOR]", u, i * 1000, (i + 1) * 1000) for i, u in enumerate(lines)
    ))
    assert segment_boundary_words(("question",), t).num_segments() == 2


def _passage_transcript(vocab_a, vocab_b, lines_each=40, tokens_per_line=12, seed=0):
    rng = random.Random(seed)
    lines = []
    for i in range(2 * lines_each):
        vocab = vocab_a if i < lines_each else vocab_b
        utt = " ".join(rng.choice(vocab) for _ in range(tokens_per_line))
        lines.append(Line(i, "[TUTOR]", utt, i * 1000, (i + 1) * 1000))
    return Transcript(id="two-passages", lines=tuple(lines))


def test_texttiling_finds_junction():
    vocab_a = [f"alpha{i}" for i in range(15)]
    vocab_b = [f"beta{i}" for i in range(15)]
    t = _passage_transcript(vocab_a, vocab_b)
    lab = segment_texttiling(TextTilingParams(pseudo_sentence_size=12, block_size=4), t)
    b = boundary_set(lab)
    assert len(b) >= 1
    assert any(abs(pos - 40) <= 2 for pos in b)


def test_texttiling_short_transcript_single_segment():
    t = make_transcript([1000] * 3)
    lab = segment_texttiling(TextTilingParams(), t)
    assert lab.num_segments() == 1
    assert len(lab) == 3


def test_texttiling_speaker_invariant():
    vocab_a = [f"alpha{i}" for i in range(15)]
    vocab_b = [f"beta{i}" for i in range(15)]
    t = _passage_transcript(vocab_a, vocab_b)
    relabeled = Transcript(id=t.id, lines=tuple(
        Line(l.index, "[STUDENT]", l.utterance, l.start_ms, l.end_ms) for l in t.lines
    ))
    params = TextTilingParams(pseudo_sentence_size=12, block_size=4)
    assert boundary_set(segment_texttiling(params, t)) == boundary_set(
        segment_texttiling(params, relabeled)
    )


def test_texttiling_oversegments_random_text():
    # uniform random tokens trip the depth threshold far more often than a
    # structured transcript has true boundaries
    rng = random.Random(9)
    counts = []
    for trial in range(20):
        lines = tuple(
            Line(i, "[TUTOR]",
                 " ".join(f"tok{rng.randrange(200)}" for _ in range(12)),
                 i * 1000, (i + 1) * 1000)
            for i in range(120)
        )
        t = Transcript(id=f"rand{trial}", lines=lines)
        lab = segment_texttiling(TextTilingParams(pseudo_sentence_size=12, block_size=4), t)
        counts.append(lab.num_segments())
    assert sum(counts) / len(counts) > 3


def test_segmenters_output_valid_labelings():
    corpus = generate_synthetic(SyntheticSpec(seed=21, n_transcripts=3))
    words = fit_boundary_words(corpus, k=10)
    for entry in corpus.entries:
        for lab in (
            segment_boundary_words(words, entry.transcript),
            segment_texttiling(TextTilingParams(), entry.transcript),
        ):
            assert len(lab) == len(entry.transcript)
            assert all(ref == REF_NONE for ref in line_refs(lab))


def test_segmenters_number_segments_from_zero():
    corpus = generate_synthetic(SyntheticSpec(seed=21, n_transcripts=2, lines_per_segment=(30, 80)))
    words = fit_boundary_words(corpus, k=10)
    transcripts = [e.transcript for e in corpus.entries]
    for t in [*transcripts, make_transcript([1000] * 3), Transcript(id="empty", lines=())]:
        for lab in (segment_boundary_words(words, t), segment_texttiling(TextTilingParams(), t)):
            assert [seg for seg, _ in groupby(seg_ids(lab))] == list(range(lab.num_segments()))
    # both segmenters cut the synthetic transcripts
    assert min(segment_boundary_words(words, t).num_segments() for t in transcripts) > 1
    assert min(segment_texttiling(TextTilingParams(), t).num_segments() for t in transcripts) > 1


# ---------------------------------------------------------------------------
# oracle: TextTiling as it was before the sliding blocks and the peak passes,
# rebuilding both blocks at every gap and walking to the peaks from every gap


def _oracle_texttiling(params, transcript):
    n = len(transcript)
    if n == 0:
        return per_line_labeling(())
    stream = []
    token_line = []
    for line in transcript.lines:
        for tok in tokenize(line.utterance):
            stream.append(tok)
            token_line.append(line.index)

    w = params.pseudo_sentence_size
    single = per_line_labeling(tuple((0, REF_NONE) for _ in range(n)))
    if len(stream) < 2 * params.block_size * w:
        return single

    n_ps = len(stream) // w
    if n_ps < 2:
        return single

    gap_scores = _oracle_gap_scores(stream, w, params.block_size)
    smoothed = _oracle_smooth(gap_scores, params.smoothing_width)
    depths = [_oracle_depth(smoothed, i) for i in range(len(smoothed))]
    mean = sum(depths) / len(depths)
    std = math.sqrt(sum((d - mean) ** 2 for d in depths) / len(depths))
    cutoff = mean - std / 2

    boundary_lines = set()
    for i, depth in enumerate(depths):
        if depth > cutoff and depth > 0:
            gap = i + 1
            last_tok = gap * w - 1
            line = token_line[last_tok]
            if line + 1 < n:
                boundary_lines.add(line + 1)

    per_line = []
    seg = 0
    for i in range(n):
        if i in boundary_lines and i > 0:
            seg += 1
        per_line.append((seg, REF_NONE))
    return per_line_labeling(tuple(per_line))


def _oracle_gap_scores(stream, w, block_size):
    n_ps = len(stream) // w
    pseudo = [Counter(stream[i * w : (i + 1) * w]) for i in range(n_ps)]
    gap_scores = []
    for gap in range(1, n_ps):
        lo = max(0, gap - block_size)
        hi = min(n_ps, gap + block_size)
        left = Counter()
        right = Counter()
        for c in pseudo[lo:gap]:
            left.update(c)
        for c in pseudo[gap:hi]:
            right.update(c)
        gap_scores.append(_oracle_cosine(left, right))
    return gap_scores


def _oracle_cosine(a, b):
    dot = sum(cnt * b[tok] for tok, cnt in a.items())
    na = math.sqrt(sum(c * c for c in a.values()))
    nb = math.sqrt(sum(c * c for c in b.values()))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def _oracle_smooth(values, width):
    out = []
    for i in range(len(values)):
        lo = max(0, i - width)
        hi = min(len(values), i + width + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def _oracle_depth(scores, i):
    left = scores[i]
    for j in range(i, -1, -1):
        if scores[j] >= left:
            left = scores[j]
        else:
            break
    right = scores[i]
    for j in range(i, len(scores)):
        if scores[j] >= right:
            right = scores[j]
        else:
            break
    return (left - scores[i]) + (right - scores[i])


def _lines_transcript(utterances, tid="t"):
    return Transcript(id=tid, lines=tuple(
        Line(i, "[TUTOR]", u, i * 1000, (i + 1) * 1000) for i, u in enumerate(utterances)
    ))


@st.composite
def tiling_cases(draw):
    params = TextTilingParams(
        pseudo_sentence_size=draw(st.integers(1, 8)),
        block_size=draw(st.integers(1, 6)),
        smoothing_width=draw(st.integers(1, 4)),
    )
    # tiny vocabularies make ties, plateaus and all-equal blocks common
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 12)))]
    cutoff = 2 * params.block_size * params.pseudo_sentence_size
    n_tokens = draw(st.one_of(
        st.integers(0, 3 * cutoff),
        st.integers(max(0, cutoff - params.pseudo_sentence_size - 1),
                    cutoff + params.pseudo_sentence_size + 1),
    ))
    tokens = draw(st.lists(st.sampled_from(vocab), min_size=n_tokens, max_size=n_tokens))
    # tokens per line; 0 is an empty or punctuation-only utterance, and the
    # last line takes whatever is left
    sizes = draw(st.lists(st.integers(0, 6), max_size=60))
    utterances = []
    for k in sizes:
        utterances.append(" ".join(tokens[:k]) if k else draw(st.sampled_from(["", "?!"])))
        tokens = tokens[k:]
    utterances.append(" ".join(tokens))
    return params, _lines_transcript(utterances)


@settings(max_examples=1000, deadline=None)
@given(tiling_cases())
def test_texttiling_equals_oracle(case):
    params, transcript = case
    assert segment_texttiling(params, transcript) == _oracle_texttiling(params, transcript)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6),
       st.lists(st.integers(0, 9).map(str), max_size=300))
def test_gap_scores_equal_oracle(w, block_size, stream):
    # the same floats, not only the same boundaries
    assert _gap_scores(stream, w, block_size) == _oracle_gap_scores(stream, w, block_size)


def test_texttiling_equals_oracle_on_synthetic_corpora():
    # long segments, shared vocabulary and chatter, as in the benchmark corpora
    spec = SyntheticSpec(seed=5, n_transcripts=2, n_problems=20, vocab_overlap=0.3,
                         informal_prob=0.2, lines_per_segment=(30, 80),
                         segments_per_transcript=(8, 15))
    for entry in generate_synthetic(spec).entries:
        for params in (TextTilingParams(), TextTilingParams(7, 3, 1), TextTilingParams(3, 25, 4)):
            assert segment_texttiling(params, entry.transcript) == _oracle_texttiling(
                params, entry.transcript)


@pytest.mark.parametrize("scores", [
    [0.5], [1.0, 1.0, 1.0], [0.0, 0.3, 0.3, 0.1, 0.1, 0.4, 0.2, 0.2, 0.9],
    [3.0, 2.0, 1.0, 2.0, 2.0, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0],
])
def test_depths_equal_walk_to_the_peaks(scores):
    assert _depths(scores) == [_oracle_depth(scores, i) for i in range(len(scores))]


def test_depths_linear_on_monotone_runs():
    # walking to the peaks from every gap is quadratic on a monotone run:
    # 5k elements already took about 0.4 s that way
    n = 100_000
    rising = [i / n for i in range(n)]
    t0 = time.perf_counter()
    up = _depths(rising)
    down = _depths(rising[::-1])
    elapsed = time.perf_counter() - t0
    assert up == [(rising[-1] - s) for s in rising]
    assert down == up[::-1]
    assert elapsed < 2.0
