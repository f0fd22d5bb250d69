import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posr import retrieval
from posr.cli import main
from posr.corpus import (
    Corpus,
    CorpusEntry,
    SyntheticSpec,
    generate_synthetic,
    load_corpus,
    load_manifest,
    write_corpus,
)
from posr.model import (
    Line,
    Problem,
    REF_NONE,
    REF_NOT_IN_CORPUS,
    RefLabel,
    Transcript,
    Worksheet,
    labeling_to_spans,
)
from posr.retrieval import (
    BM25_B,
    BM25_K1,
    GRID,
    RetrievalError,
    RetrieverConfig,
    _best,
    _best_grid_threshold,
    _decision,
    _segment_query,
    calibrate_threshold,
    retrieve_labeling,
    worksheet_index,
)
from posr import tokens
from posr.tokens import tokenize

from conftest import boundary_set, gold_accuracy, line_refs, per_line_labeling, seg_ids

WS = Worksheet(id="w", problems=(
    Problem("P1", "a b c"),
    Problem("P2", "b c d"),
    Problem("P3", "x y z"),
))


def all_scores(method, text, ws=WS):
    """Raw scores of every worksheet problem, keyed by problem id."""
    index = worksheet_index(ws)
    scores = index.scores(method, tokenize(text))
    return {pid: scores.get(i, 0.0) for i, pid in enumerate(index.ids)}


def segment_best(config, text, ws=WS):
    """(argmax problem id, effective score) of a one-line segment of ``text``."""
    transcript = Transcript(id="t", lines=(Line(0, "[TUTOR]", text, 0, 1000),))
    query = _segment_query(transcript, 0, 1)
    return _best(worksheet_index(ws), config.method, query)


def normalize_top10(raw):
    """Min-max rescale within the 10 best scores; everything else -> 0.

    A flat top-10 (max == min) maps positive scores to 1.0 so a clear
    winner set is still retrievable. This is the definition of bm25's
    effective score; ``_best`` gives only its argmax and top.
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


def first_max(scores):
    """(argmax, its score) of scores in worksheet order: ties go to the
    earlier worksheet problem."""
    hi = max(scores.values())
    return next(pid for pid, s in scores.items() if s == hi), hi


def test_jaccard_identical_tokens_scores_one():
    assert all_scores("jaccard", "a b c")["P1"] == 1.0


def test_jaccard_hand_value():
    # |{a,b,c} & {b,c,d}| = 2, union = 4
    assert all_scores("jaccard", "a b c")["P2"] == pytest.approx(0.5)


def test_disjoint_tokens_decision_none():
    config = RetrieverConfig("jaccard", threshold=0.01)
    assert segment_best(config, "q r s") == ("P1", 0.0)
    assert _decision(*segment_best(config, "q r s"), config.threshold) is None


def test_empty_segment_all_zero():
    config = RetrieverConfig("jaccard", threshold=0.5)
    assert all(v == 0.0 for v in all_scores("jaccard", "").values())
    assert segment_best(config, "") == (None, 0.0)
    # a segment without tokens still has an argmax, the first problem at 0
    assert segment_best(config, " ?! ") == ("P1", 0.0)
    assert _decision(*segment_best(config, " ?! "), config.threshold) is None


def test_tfidf_self_similarity_is_best():
    raw = all_scores("tfidf", "x y z")
    assert max(raw, key=raw.get) == "P3"
    assert raw["P3"] == pytest.approx(1.0)


def test_bm25_normalized_scores_in_unit_interval():
    config = RetrieverConfig("bm25", threshold=0.0)
    normalized = normalize_top10(all_scores("bm25", "b c d"))
    assert all(0.0 <= v <= 1.0 for v in normalized.values())
    assert segment_best(config, "b c d") == first_max(normalized) == ("P2", 1.0)


def test_scores_finite_non_negative():
    for method in ("jaccard", "tfidf", "bm25"):
        for v in all_scores(method, "a b c q").values():
            assert v >= 0.0 and v == v  # finite, not nan


def test_decide_threshold_boundary():
    assert _decision("P1", 0.25, 0.11) == "P1"
    assert _decision("P1", 0.35, 0.40) is None
    assert _decision("P1", 0.40, 0.40) == "P1"


def test_decide_tie_breaks_by_worksheet_order():
    ws = Worksheet(id="w", problems=(
        Problem("P1", "x y"), Problem("P2", "b a"), Problem("P3", "a b"), Problem("P4", "a b"),
    ))
    # P3 meets the query's first term, so the scores list it before P2
    later_first = Worksheet(id="w2", problems=(
        Problem("P1", "x y"), Problem("P2", "a b"), Problem("P3", "c d"),
    ))
    for method in retrieval.METHODS:
        for sheet, query in ((ws, "a b"), (ws, "b a"), (ws, "b b a x"), (later_first, "c d a b")):
            expected = first_max(all_scores(method, query, sheet))
            assert expected[0] in ("P1", "P2")
            got = segment_best(RetrieverConfig(method), query, sheet)
            assert got == (expected if method != "bm25" else (expected[0], 1.0))


def test_decide_scale_invariant_after_normalization():
    raw = {f"P{i}": float(i) for i in range(12)}
    base = _decision(*first_max(normalize_top10(raw)), 0.3)
    scaled = _decision(*first_max(normalize_top10({k: 7.5 * v for k, v in raw.items()})), 0.3)
    assert base == scaled == "P11"


def test_normalize_top10_outside_top10_is_zero():
    raw = {f"P{i}": float(i) for i in range(15)}
    norm = normalize_top10(raw)
    assert norm["P0"] == 0.0 and norm["P4"] == 0.0  # below the top 10
    assert norm["P14"] == 1.0
    assert norm["P5"] == 0.0  # min of the top-10 window


def make_entry(segments, worksheet, tid="t"):
    """segments: list of (utterance_tokens, gold_ref) producing 1-line segments."""
    lines = []
    per_line = []
    for i, (text, ref) in enumerate(segments):
        lines.append(Line(i, "[TUTOR]", text, i * 1000, (i + 1) * 1000))
        per_line.append((i, ref))
    return CorpusEntry(
        Transcript(id=tid, lines=tuple(lines)), worksheet, per_line_labeling(tuple(per_line))
    )


def test_retrieve_labeling_fills_segments_uniformly():
    config = RetrieverConfig("jaccard", threshold=0.1)
    lines = tuple(
        Line(i, "[TUTOR]", text, i * 1000, (i + 1) * 1000)
        for i, text in enumerate(["a b c", "a b", "x y z", "x z"])
    )
    t = Transcript(id="t", lines=lines)
    seg = per_line_labeling(((0, REF_NONE), (0, REF_NONE), (1, REF_NONE), (1, REF_NONE)))
    out = retrieve_labeling(config, t, seg, WS)
    assert line_refs(out) == [RefLabel.problem("P1")] * 2 + [RefLabel.problem("P3")] * 2


def test_retrieve_labeling_none_when_below_threshold():
    config = RetrieverConfig("jaccard", threshold=0.9)
    lines = (Line(0, "[TUTOR]", "q r s", 0, 1000),)
    t = Transcript(id="t", lines=lines)
    seg = per_line_labeling(((0, REF_NONE),))
    assert line_refs(retrieve_labeling(config, t, seg, WS)) == [REF_NONE]


def test_retrieve_labeling_keeps_the_segmentation_boundaries():
    lines = tuple(
        Line(i, "[TUTOR]", text, i * 1000, (i + 1) * 1000)
        for i, text in enumerate(["a b", "a c", "x y", "z", "b d", "q"])
    )
    t = Transcript(id="t", lines=lines)
    # segment ids that are neither 0, 1, ... nor ascending
    seg = per_line_labeling(((7, REF_NONE), (7, REF_NONE), (-3, REF_NONE), (-3, REF_NONE),
                    (40, REF_NONE), (2, REF_NONE)))
    out = retrieve_labeling(RetrieverConfig("jaccard", threshold=0.1), t, seg, WS)
    assert boundary_set(out) == boundary_set(seg)
    assert seg_ids(out) == [0, 0, 1, 1, 2, 3]
    assert line_refs(out) == [RefLabel.problem("P1")] * 2 + [RefLabel.problem("P3")] * 2 + [
        RefLabel.problem("P2"), REF_NONE]


def test_calibrate_planted_gap():
    # positives share most tokens with their problem; negatives share none
    ws = Worksheet(id="w", problems=(
        Problem("P1", "p1a p1b p1c p1d"),
        Problem("P2", "p2a p2b p2c p2d"),
    ))
    entries = [
        make_entry([("p1a p1b p1c", RefLabel.problem("P1")),
                    ("chat1 chat2", REF_NONE)], ws, "t1"),
        make_entry([("p2a p2b p2c p2d", RefLabel.problem("P2")),
                    ("chat3 chat4", REF_NONE)], ws, "t2"),
        make_entry([("p1a p1b p1c p1d", RefLabel.problem("P1"))], ws, "t3"),
    ]
    corpus = Corpus(tuple(entries), "train")
    t = calibrate_threshold("jaccard", corpus, folds=3, seed=0)
    # positives score >= 0.6, negatives 0; any grid point in (0, 0.6] is optimal
    assert 0.0 < t <= 0.6


def test_calibrate_single_fold_exact_grid_value():
    ws = Worksheet(id="w", problems=(Problem("P1", "a b c d"),))
    corpus = Corpus((make_entry([("a b c d", RefLabel.problem("P1")),
                                 ("z z z", REF_NONE)], ws),), "train")
    t = calibrate_threshold("jaccard", corpus, folds=1, seed=0)
    assert t == pytest.approx(0.01)  # lowest grid value separating 0 from 1.0


def test_calibrate_reduces_folds_to_transcript_count():
    ws = Worksheet(id="w", problems=(Problem("P1", "a b"),))
    corpus = Corpus((make_entry([("a b", RefLabel.problem("P1"))], ws),), "train")
    t = calibrate_threshold("jaccard", corpus, folds=5, seed=0)
    assert 0.0 <= t <= 1.0


def accuracy_at(rows, threshold):
    """Share of rows whose decision at ``threshold`` is their gold id."""
    correct = sum(_decision(best_pid, best, threshold) == gold for gold, best_pid, best in rows)
    return correct / len(rows) if rows else 0.0


def grid_search_oracle(rows):
    """One ``accuracy_at`` pass per grid value; the first best value wins."""
    best_t, best_acc = GRID[0], -1.0
    for t in GRID:
        acc = accuracy_at(rows, t)
        if acc > best_acc:
            best_acc, best_t = acc, t
    return best_t


PIDS = st.sampled_from([None, "P1", "P2"])
# scores on grid values and one ulp either side of them, so ties and
# threshold edges are common, besides any score in [0, 1]
SCORES = st.one_of(
    st.sampled_from(GRID),
    st.sampled_from(GRID).map(lambda t: math.nextafter(t, 2.0)),
    st.sampled_from(GRID).map(lambda t: math.nextafter(t, -1.0)),
    st.floats(0.0, 1.0),
)
ROWS = st.one_of(st.lists(st.tuples(PIDS, PIDS, SCORES), max_size=40),
                 st.lists(st.tuples(st.just(None), PIDS, SCORES), max_size=40))  # no gold problem


@settings(max_examples=500, deadline=None)
@given(ROWS)
@example([])
@example([(None, "P1", 0.5)])
@example([("P1", "P1", 0.5)])
@example([(None, None, 0.0), (None, "P1", 0.3), (None, "P2", 1.0)])
@example([("P1", "P1", 0.3), (None, "P1", 0.3), ("P2", "P1", 0.3)])
def test_grid_sweep_equals_grid_search(rows):
    assert _best_grid_threshold(rows) == grid_search_oracle(rows)


@pytest.mark.parametrize("folds", [0, -1])
def test_calibrate_rejects_fewer_than_one_fold(folds):
    ws = Worksheet(id="w", problems=(Problem("P1", "a b"),))
    corpus = Corpus((make_entry([("a b", RefLabel.problem("P1"))], ws),), "train")
    with pytest.raises(RetrievalError, match="at least 1 fold"):
        calibrate_threshold("jaccard", corpus, folds=folds)


def test_oversegmentation_does_not_beat_ground_truth():
    accs_gt, accs_over = [], []
    for seed in range(20):
        corpus = generate_synthetic(SyntheticSpec(seed=seed, vocab_overlap=0.3,
                                                  n_transcripts=2))
        config = RetrieverConfig("jaccard", threshold=0.05)
        accs_gt.append(gold_accuracy(config, corpus))
        over_entries = []
        for e in corpus.entries:
            per_line = tuple((i, ref) for i, ref in enumerate(line_refs(e.gold)))
            over_entries.append(CorpusEntry(e.transcript, e.worksheet, per_line_labeling(per_line)))
        accs_over.append(gold_accuracy(config, Corpus(tuple(over_entries))))
    assert sum(accs_gt) / 20 >= sum(accs_over) / 20


def test_unknown_method_rejected():
    with pytest.raises(RetrievalError):
        RetrieverConfig(method="colbert")


def test_empty_segment_is_never_a_problem():
    # at threshold 0 an all-zero row would pick the first problem; an empty
    # segment must instead count as no ref, as retrieve_labeling decides it
    ws = Worksheet(id="w", problems=(Problem("P1", "a b c"),))
    entry = make_entry([("", REF_NONE), ("a b c", RefLabel.problem("P1"))], ws)
    config = RetrieverConfig("jaccard", threshold=0.0)
    pred = retrieve_labeling(config, entry.transcript, entry.gold, ws)
    assert line_refs(pred) == line_refs(entry.gold)
    assert gold_accuracy(config, Corpus((entry,))) == 1.0


# ---------------------------------------------------------------------------
# one path from a ground-truth segment to its row


def test_retrieve_off_worksheet_gold_is_written_and_counted(tmp_path):
    ws = Worksheet(id="w", problems=(Problem("P1", "a b c"),))
    entry = make_entry([("x y z", REF_NOT_IN_CORPUS), ("a b c", RefLabel.problem("P1")),
                        ("a q", REF_NOT_IN_CORPUS)], ws)
    manifest = write_corpus(Corpus((entry,)), tmp_path / "corpus")
    out = tmp_path / "ret"
    assert main(["retrieve", "--manifest", str(manifest), "--method", "jaccard",
                 "--threshold", "0.05", "--out", str(out)]) == 0
    decisions = (out / "retrieval_decisions.csv").read_text().splitlines()[1:]
    # (decision, gold): no ref against an off-worksheet gold is correct; a
    # problem against it (jaccard 0.25 clears 0.05) is not
    assert [row.split(",")[3:] for row in decisions] == [
        ["null", "-1"], ["P1", "P1"], ["P1", "-1"]]
    config = RetrieverConfig("jaccard", threshold=0.05)
    doc = json.loads((out / "retrieval_accuracy.json").read_text())
    assert doc["accuracy"] == gold_accuracy(config, Corpus((entry,))) == 2 / 3


def muffle(entry, rng):
    """``entry`` with some gold segments' utterances made blank or
    punctuation only, whole segments or line by line."""
    lines = list(entry.transcript.lines)
    spans = labeling_to_spans(entry.gold)
    for span in spans:
        mode = rng.choice(("keep", "blank", "punctuation", "mixed"))
        for i in range(span.start_line, span.end_line + 1):
            line_mode = rng.choice(("keep", "blank", "punctuation")) if mode == "mixed" else mode
            if line_mode == "blank":
                lines[i] = lines[i]._replace(utterance=rng.choice(("", "  ", "\t")))
            elif line_mode == "punctuation":
                lines[i] = lines[i]._replace(utterance=rng.choice(("?!", "...", "-- ,")))
    return CorpusEntry(Transcript(entry.transcript.id, tuple(lines)), entry.worksheet, entry.gold)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), vocab_overlap=st.floats(0.0, 1.0),
       informal_prob=st.floats(0.0, 1.0), muffle_seed=st.integers(0, 2**32 - 1))
def test_gold_and_predicted_segments_reach_one_decision(seed, vocab_overlap, informal_prob,
                                                        muffle_seed):
    spec = SyntheticSpec(n_transcripts=2, n_problems=5, vocab_overlap=vocab_overlap,
                         informal_prob=informal_prob, seed=seed)
    rng = random.Random(muffle_seed)
    corpus = Corpus(tuple(muffle(e, rng) for e in generate_synthetic(spec).entries))
    for method in retrieval.METHODS:
        for threshold in (0.0, 0.5, 1.0):
            config = RetrieverConfig(method, threshold)
            preds = {e.transcript.id: retrieve_labeling(config, e.transcript, e.gold, e.worksheet)
                     for e in corpus.entries}
            decisions = list(config.gold_decisions(corpus))
            # one decision per gold segment, with the segment's lines and ref
            assert [(e.transcript.id, start, stop - 1, gold) for e, start, stop, gold, _
                    in decisions] == [(e.transcript.id, s.start_line, s.end_line, s.ref)
                                      for e in corpus.entries for s in labeling_to_spans(e.gold)]
            for entry, start, _, _, pid in decisions:
                expected = REF_NONE if pid is None else RefLabel.problem(pid)
                assert line_refs(preds[entry.transcript.id])[start] == expected


def test_calibrate_all_methods_equals_each_method_alone(tmp_path):
    ws = Worksheet(id="w", problems=(Problem("P1", "a b c d"), Problem("P2", "e f g h")))
    entries = [
        make_entry([("a b c d", RefLabel.problem("P1")), ("a x y z w", REF_NONE),
                    ("e q", RefLabel.problem("P2"))], ws, "t1"),
        make_entry([("e f g", RefLabel.problem("P2")), ("e v", REF_NONE),
                    ("", REF_NONE), ("b c", RefLabel.problem("P1"))], ws, "t2"),
        make_entry([("h r s", RefLabel.problem("P2")), ("d", REF_NONE)], ws, "t3"),
    ]
    manifest = str(write_corpus(Corpus(tuple(entries), "train"), tmp_path / "corpus"))

    def thresholds(*method):
        out = tmp_path / "-".join(("cal",) + method)
        assert main(["calibrate", "--manifest", manifest, "--folds", "2", "--seed", "3",
                     "--out", str(out), *(("--method",) + method if method else ())]) == 0
        return json.loads((out / "thresholds.json").read_text())["thresholds"]

    together = thresholds()
    assert list(together) == list(retrieval.METHODS)
    for method in retrieval.METHODS:
        assert thresholds(method) == {method: together[method]}
    # a mix-up between methods would show: each calibrates to its own value
    assert len(set(together.values())) == len(together)


def test_calibrate_tokenizes_each_gold_segment_once(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    main(["gen-corpus", "--out", str(corpus_dir), "--seed", "4", "--n-transcripts", "5",
          "--informal-prob", "0.3"])
    corpus = load_corpus(load_manifest(corpus_dir / "manifest.json"))
    tokenized = count_tokenize(monkeypatch)
    assert main(["calibrate", "--manifest", str(corpus_dir / "manifest.json"),
                 "--out", str(tmp_path / "cal")]) == 0
    problems = corpus.entries[0].worksheet.problems
    lines = sum(len(e.transcript) for e in corpus.entries)
    # one fit of the shared worksheet, then each line once: every gold
    # segment's query, under all three methods, is a slice of one column
    assert len(tokenized) == len(problems) + lines


def count_tokenize(monkeypatch):
    """The texts passed to ``tokenize`` from here on, wherever it is called."""
    tokenized = []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(tokens, "tokenize", counting_tokenize)
    monkeypatch.setattr(retrieval, "tokenize", counting_tokenize)
    return tokenized


@pytest.mark.parametrize("argv", [
    ["posr", "--method", "texttiling", "--retrieval", "jaccard"],
    ["posr", "--method", "texttiling", "--retrieval", "tfidf"],
    ["posr", "--method", "texttiling", "--retrieval", "bm25"],
    ["calibrate"],
])
def test_lexical_commands_tokenize_each_text_once(tmp_path, monkeypatch, argv):
    corpus_dir = tmp_path / "corpus"
    main(["gen-corpus", "--out", str(corpus_dir), "--seed", "4", "--n-transcripts", "5",
          "--informal-prob", "0.3"])
    corpus = load_corpus(load_manifest(corpus_dir / "manifest.json"))
    tokenized = count_tokenize(monkeypatch)
    assert main([*argv, "--manifest", str(corpus_dir / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 0
    # the transcripts share one worksheet; each utterance and each problem
    # text reaches tokenize once, alone
    texts = [line.utterance for e in corpus.entries for line in e.transcript.lines]
    texts += [p.text for p in corpus.entries[0].worksheet.problems]
    assert sorted(tokenized) == sorted(texts)


# ---------------------------------------------------------------------------
# the postings index against the dense formulas


def dense_scores(method, text, worksheet):
    """Brute-force reference: every problem scored on every query term."""
    problem_tokens = {p.id: tokenize(p.text) for p in worksheet.problems}
    n_docs = len(problem_tokens)
    df = Counter()
    for toks in problem_tokens.values():
        df.update(set(toks))
    idf = {t: math.log((1 + n_docs) / (1 + d)) + 1 for t, d in df.items()}
    bm25_idf = {t: math.log((n_docs - d + 0.5) / (d + 0.5) + 1) for t, d in df.items()}
    avgdl = sum(len(toks) for toks in problem_tokens.values()) / n_docs

    def tfidf_vector(toks):
        vec = {t: c * idf.get(t, 0.0) for t, c in Counter(toks).items() if t in idf}
        norm = math.sqrt(sum(v * v for v in vec.values()))
        return {t: v / norm for t, v in vec.items()} if norm > 0 else vec

    q = tokenize(text)
    if method == "jaccard":
        qs = set(q)
        return {pid: (len(qs & set(toks)) / len(qs | set(toks)) if qs | set(toks) else 0.0)
                for pid, toks in problem_tokens.items()}
    if method == "tfidf":
        qvec = tfidf_vector(q)
        return {pid: sum(w * tfidf_vector(toks).get(t, 0.0) for t, w in qvec.items())
                for pid, toks in problem_tokens.items()}
    scores = {}
    for pid, toks in problem_tokens.items():
        tf = Counter(toks)
        score = 0.0
        for term in Counter(q):
            f = tf.get(term, 0)
            if f:
                denom = f + BM25_K1 * (1 - BM25_B + BM25_B * len(toks) / avgdl)
                score += bm25_idf[term] * f * (BM25_K1 + 1) / denom
        scores[pid] = score
    return scores


def random_worksheets(seed, count):
    """Worksheets with repeated tokens, one-problem sheets, problems that
    share every term, and a token-free problem, each with queries that
    include terms absent from the worksheet and the empty query."""
    rng = random.Random(seed)
    for _ in range(count):
        vocab = [f"w{i}" for i in range(rng.randint(1, 30))]
        n = rng.choice([1, 2, 3, 9, 10, 11, 25])
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 12))) for _ in range(n)]
        if n > 2 and rng.random() < 0.3:
            texts[1] = texts[0]  # identical problems share every term
        if rng.random() < 0.1:
            texts[-1] = "?!"  # no tokens at all
        ws = Worksheet(id="w", problems=tuple(Problem(f"P{i}", t) for i, t in enumerate(texts)))
        queries = [""] + [" ".join(rng.choices(vocab + ["absent", "zz"], k=rng.randint(1, 20)))
                          for _ in range(4)]
        yield ws, queries


@pytest.mark.parametrize("method", retrieval.METHODS)
def test_index_scores_equal_dense_formulas(method):
    for ws, queries in random_worksheets(seed=retrieval.METHODS.index(method), count=300):
        for q in queries:
            assert all_scores(method, q, ws) == dense_scores(method, q, ws)


@pytest.mark.parametrize("method", retrieval.METHODS)
def test_index_decisions_equal_dense_decisions(method):
    rng = random.Random(5)
    for ws, queries in random_worksheets(seed=7, count=300):
        config = RetrieverConfig(method, threshold=rng.choice([0.0, 0.01, 0.3, 1.0]))
        for q in queries:
            dense = dense_scores(method, q, ws)
            if method == "bm25":
                dense = normalize_top10(dense)
            # the first problem of the highest score, worksheet order; an
            # empty segment is never a problem
            best_pid, best = first_max(dense) if q.strip() else (None, 0.0)
            sparse = segment_best(config, q, ws)
            assert sparse == (best_pid, best)
            assert _decision(*sparse, config.threshold) == (
                best_pid if best >= config.threshold else None)


def test_bm25_best_is_one_on_any_shared_term():
    # so every bm25 threshold in (0, 1] makes the same decisions, and
    # calibration can only choose between 0.0 and linking on overlap
    for ws, queries in random_worksheets(seed=11, count=300):
        for q in queries:
            shares = any(s > 0 for s in dense_scores("jaccard", q, ws).values())
            pid, best = segment_best(RetrieverConfig("bm25"), q, ws)
            assert best == (1.0 if shares else 0.0)
            decisions = {_decision(pid, best, t) for t in (0.01, 0.3, 0.99, 1.0)}
            assert decisions == {pid if shares else None}
    corpus = generate_synthetic(SyntheticSpec(seed=1, n_transcripts=6))
    assert 0.0 <= calibrate_threshold("bm25", corpus) <= 0.01


def test_one_fit_per_worksheet_per_command(tmp_path, monkeypatch):
    fits = []

    class CountingIndex(retrieval.WorksheetIndex):
        def __init__(self, worksheet):
            fits.append(worksheet.id)
            super().__init__(worksheet)

    monkeypatch.setattr(retrieval, "WorksheetIndex", CountingIndex)
    corpus_dir = tmp_path / "corpus"
    main(["gen-corpus", "--out", str(corpus_dir), "--seed", "3", "--n-transcripts", "4"])
    manifest = str(corpus_dir / "manifest.json")
    # a fit made outside a command is not reused by the next one
    worksheet_index(load_corpus(load_manifest(manifest)).entries[0].worksheet)
    assert fits == ["synthetic-ws"]
    # three methods over four transcripts that share one worksheet
    assert main(["calibrate", "--manifest", manifest, "--out", str(tmp_path / "c")]) == 0
    assert fits == ["synthetic-ws"] * 2
    assert main(["retrieve", "--manifest", manifest, "--method", "bm25",
                 "--out", str(tmp_path / "r")]) == 0
    assert main(["posr", "--manifest", manifest, "--method", "texttiling",
                 "--retrieval", "tfidf", "--out", str(tmp_path / "p")]) == 0
    assert fits == ["synthetic-ws"] * 4  # a fresh fit for every command
    assert worksheet_index.cache_info().currsize == 0  # no fit outlives its command


def test_equal_worksheets_share_one_fit_and_hash_by_id():
    problems = [Problem(f"P{i}", f"text {i}") for i in range(200)]
    a, b = Worksheet("w", tuple(problems)), Worksheet("w", tuple(problems))
    assert a == b and a is not b and hash(a) == hash(b)
    # the hash never reads the problems, so a lookup costs the same at any size
    assert hash(a) == hash(Worksheet("w", (problems[0],)))
    retrieval.clear_indexes()
    try:
        first = worksheet_index(a)
        hits = worksheet_index.cache_info().hits
        assert worksheet_index(b) is first
        assert worksheet_index.cache_info().hits == hits + 1
    finally:
        retrieval.clear_indexes()
