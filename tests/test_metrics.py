import pytest

from posr.metrics import (
    MetricError,
    TokenUsage,
    cost_per_100,
    derive_window_config,
    evaluate,
    p_k,
    segment_count_diff,
    srs,
    time_p_k,
    time_window_diff,
    window_diff,
)
from posr.model import Labeling, Line, REF_NONE, RefLabel, Transcript

from conftest import (
    REF_POOL,
    boundary_set,
    make_transcript,
    oracle_line_metric,
    oracle_srs,
    oracle_time_metric,
    random_labeling,
    seg_ids,
)

A = RefLabel.problem("A")
B = RefLabel.problem("B")


def lab(ids, refs=None):
    if refs is None:
        refs = {}
    return Labeling(tuple((s, refs.get(s, REF_NONE)) for s in ids))


def test_identity_scores_zero():
    l = lab([0, 0, 1, 1, 2, 2, 2])
    t = make_transcript([1000] * 7)
    assert window_diff(l, l, 2) == 0.0
    assert p_k(l, l, 2) == 0.0
    assert time_window_diff(l, l, t, 2000, 2) == 0.0
    assert time_p_k(l, l, t, 2000, 2) == 0.0


def test_window_diff_hand_case():
    # ref [0,0,1,1] pred [0,1,1,1], k=1: windows (0,1),(1,2),(2,3)
    # pred boundary {1}, ref boundary {2} -> mismatches at j=0 and j=1
    assert window_diff(lab([0, 1, 1, 1]), lab([0, 0, 1, 1]), 1) == pytest.approx(2 / 3)


def test_window_diff_total_disagreement():
    n = 8
    pred = lab([0] * n)
    ref = lab(list(range(n)))
    assert window_diff(pred, ref, 1) == 1.0


def test_pk_vs_window_diff_count_difference():
    # a window holding 2 pred boundaries vs 1 ref boundary agrees for Pk
    # (both present) but mismatches for WindowDiff (counts differ)
    pred = lab([0, 1, 2, 2])
    ref = lab([0, 0, 1, 1])
    k = 3
    assert p_k(pred, ref, k) == 0.0
    assert window_diff(pred, ref, k) == 1.0


def test_window_metrics_match_oracle(rng):
    for _ in range(300):
        n = rng.randint(3, 50)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        assert window_diff(pred, ref, k) == pytest.approx(
            oracle_line_metric(seg_ids(pred), seg_ids(ref), k, False), abs=1e-12
        )
        assert p_k(pred, ref, k) == pytest.approx(
            oracle_line_metric(seg_ids(pred), seg_ids(ref), k, True), abs=1e-12
        )


def test_time_metrics_match_oracle(rng):
    for _ in range(200):
        n = rng.randint(3, 40)
        t = make_transcript([rng.randint(500, 60000) for _ in range(n)])
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        delta = rng.randint(1000, 120000)
        starts = [l.start_ms for l in t.lines]
        ends = [l.end_ms for l in t.lines]
        assert time_window_diff(pred, ref, t, delta, k) == pytest.approx(
            oracle_time_metric(seg_ids(pred), seg_ids(ref), starts, ends, delta, k, False),
            abs=1e-12,
        )
        assert time_p_k(pred, ref, t, delta, k) == pytest.approx(
            oracle_time_metric(seg_ids(pred), seg_ids(ref), starts, ends, delta, k, True),
            abs=1e-12,
        )


def tied_transcript(n, rng):
    """Onsets drawn from a coarse grid, so many repeat; durations may be zero
    and lines may run past the next onset. Window edges then land exactly on
    boundary times."""
    starts = sorted(rng.randrange(0, 20) * 500 for _ in range(n))
    return Transcript(id="tied", lines=tuple(
        Line(index=i, speaker="[TUTOR]", utterance="w", start_ms=s,
             end_ms=s + rng.choice([0, 0, 500, 1000, 2500]))
        for i, s in enumerate(starts)
    ))


def test_time_metrics_match_oracle_on_ties(rng):
    for _ in range(300):
        n = rng.randint(3, 40)
        t = tied_transcript(n, rng)
        pred = random_labeling(n, rng, max_seg_len=4)
        ref = random_labeling(n, rng, max_seg_len=4)
        k = rng.randint(1, n - 1)
        delta = rng.choice([500, 1000, 1500, 2500])
        starts = [l.start_ms for l in t.lines]
        ends = [l.end_ms for l in t.lines]
        assert time_window_diff(pred, ref, t, delta, k) == oracle_time_metric(
            seg_ids(pred), seg_ids(ref), starts, ends, delta, k, False)
        assert time_p_k(pred, ref, t, delta, k) == oracle_time_metric(
            seg_ids(pred), seg_ids(ref), starts, ends, delta, k, True)


def test_evaluate_matches_oracles_on_ties(rng):
    for _ in range(100):
        n = rng.randint(6, 40)
        t = tied_transcript(n, rng)
        pred = random_labeling(n, rng, max_seg_len=4)
        ref = random_labeling(n, rng, max_seg_len=4)
        cfg = derive_window_config(ref, t)
        if cfg.k_lines >= n:
            continue
        report = evaluate(pred, ref, t)
        starts = [l.start_ms for l in t.lines]
        ends = [l.end_ms for l in t.lines]
        for presence_only, line_value, time_value in (
            (True, report.pk_line, report.pk_time),
            (False, report.wd_line, report.wd_time),
        ):
            assert line_value == oracle_line_metric(
                seg_ids(pred), seg_ids(ref), cfg.k_lines, presence_only)
            assert time_value == oracle_time_metric(
                seg_ids(pred), seg_ids(ref), starts, ends, cfg.delta_ms, cfg.k_lines,
                presence_only)


def test_window_metrics_match_oracle_dense(rng):
    # about 500 lines with a boundary on most of them
    n = 500
    pred = random_labeling(n, rng, max_seg_len=2)
    ref = random_labeling(n, rng, max_seg_len=2)
    for k in (1, 2, 7, 60, n - 1):
        assert window_diff(pred, ref, k) == oracle_line_metric(
            seg_ids(pred), seg_ids(ref), k, False)
        assert p_k(pred, ref, k) == oracle_line_metric(
            seg_ids(pred), seg_ids(ref), k, True)


def test_uniform_duration_reduction(rng):
    for _ in range(200):
        n = rng.randint(3, 40)
        d = rng.choice([500, 1000, 2500])
        t = make_transcript([d] * n)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        assert time_window_diff(pred, ref, t, k * d, k) == pytest.approx(
            window_diff(pred, ref, k), abs=1e-12
        )
        assert time_p_k(pred, ref, t, k * d, k) == pytest.approx(
            p_k(pred, ref, k), abs=1e-12
        )


def test_time_wd_amplifies_missed_long_segment():
    # a long opening segment inflates delta, so the boundary missed among
    # the short lines is straddled by more time windows than line windows
    ids_ref = [0] * 3 + [1] * 3 + [2] * 3
    ids_pred = [0] * 3 + [1] * 6
    durations = [100_000] * 3 + [1000] * 6
    t = make_transcript(durations)
    ref = lab(ids_ref)
    pred = lab(ids_pred)
    cfg = derive_window_config(ref, t)
    wd_time = time_window_diff(pred, ref, t, cfg.delta_ms, cfg.k_lines)
    wd_line = window_diff(pred, ref, cfg.k_lines)
    assert wd_time > wd_line


def test_time_pk_soft_on_oversegmentation():
    # long segments; pred chops each into pieces
    ids_ref = [0] * 20 + [1] * 20
    ids_pred = [i // 4 for i in range(40)]
    durations = [30000] * 40
    t = make_transcript(durations)
    ref = lab(ids_ref)
    pred = lab(ids_pred)
    cfg = derive_window_config(ref, t)
    assert time_p_k(pred, ref, t, cfg.delta_ms, cfg.k_lines) <= p_k(pred, ref, cfg.k_lines)


def test_short_transcript_errors():
    l = lab([0, 1])
    with pytest.raises(MetricError):
        window_diff(l, l, 2)


def test_srs_examples():
    ref = lab([0] * 5 + [1] * 5, {0: A, 1: B})
    pred = lab([0] * 6 + [1] * 4, {0: A, 1: B})
    t = make_transcript([1000] * 10)
    assert srs(pred, ref, t, "line") == pytest.approx(0.9)

    durations = [1000] * 5 + [91000] + [1000] * 4
    t_weighted = make_transcript(durations)
    assert srs(pred, ref, t_weighted, "time") == pytest.approx(9 / 100)


def test_srs_perfect_is_one():
    ref = lab([0, 0, 1, 1], {0: A, 1: B})
    t = make_transcript([1000] * 4)
    assert srs(ref, ref, t, "line") == 1.0
    assert srs(ref, ref, t, "time") == 1.0


def test_srs_matches_oracle(rng):
    for _ in range(200):
        n = rng.randint(1, 50)
        t = make_transcript([rng.randint(500, 60000) for _ in range(n)])
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        assert srs(pred, ref, t, "line") == oracle_srs(pred, ref, [1.0] * n)
        weights = [l.duration_ms for l in t.lines]
        assert srs(pred, ref, t, "time") == pytest.approx(
            oracle_srs(pred, ref, weights), abs=1e-12
        )


def test_srs_and_evaluate_match_oracle_on_equal_distinct_refs(rng):
    # refs equal to the gold ones but never the same objects, as the
    # retriever's refs are to the loader's
    fresh_pool = [RefLabel(r.kind, r.problem_id) for r in REF_POOL]
    for _ in range(200):
        n = rng.randint(2, 50)
        t = make_transcript([rng.randint(500, 60000) for _ in range(n)])
        ref = random_labeling(n, rng, max_seg_len=5)
        copy = Labeling(tuple((seg, RefLabel(r.kind, r.problem_id)) for seg, r in ref.per_line))
        weights = [l.duration_ms for l in t.lines]
        for pred in (random_labeling(n, rng, ref_pool=fresh_pool), copy):
            assert not any(p is r for p, r in zip(pred.refs, ref.refs))
            line, time = oracle_srs(pred, ref, [1.0] * n), oracle_srs(pred, ref, weights)
            assert srs(pred, ref, t, "line") == line
            assert srs(pred, ref, t, "time") == time
            if derive_window_config(ref, t).k_lines < n:
                report = evaluate(pred, ref, t)
                assert (report.srs_line, report.srs_time) == (line, time)
        assert srs(copy, ref, t, "line") == srs(copy, ref, t, "time") == 1.0


def test_srs_invariant_to_segment_id_relabeling(rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        t = make_transcript([1000] * n)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        shifted = Labeling(tuple((seg + 100, ref_) for seg, ref_ in pred.per_line))
        assert srs(shifted, ref, t, "line") == srs(pred, ref, t, "line")


def test_srs_distinguishes_none_from_off_worksheet():
    ref = lab([0, 0], {0: RefLabel("not_in_corpus")})
    pred = lab([0, 0], {0: REF_NONE})
    t = make_transcript([1000] * 2)
    assert srs(pred, ref, t, "line") == 0.0
    assert srs(ref, ref, t, "line") == 1.0


def test_segment_count_diff():
    assert segment_count_diff(lab([0, 0, 1]), lab([0, 0, 1])) == 0
    assert segment_count_diff(lab([0, 1, 2, 3, 4]), lab([0, 0, 1, 1, 2])) == 2
    assert segment_count_diff(lab([0, 0, 0]), lab([0, 1, 2])) == -2


PRICES = {"m": {"input_usd_per_1k": 0.01, "output_usd_per_1k": 0.03}}


def test_cost_arithmetic():
    usage = [TokenUsage(input_tokens=10_000, output_tokens=1_000, n_requests=1)]
    assert cost_per_100(usage, "m", PRICES) == pytest.approx(13.0)


def test_cost_zero_tokens():
    assert cost_per_100([TokenUsage()], "m", PRICES) == 0.0


def test_cost_unknown_model():
    with pytest.raises(MetricError):
        cost_per_100([TokenUsage(1, 1, 1)], "nope", PRICES)


def test_evaluate_perfect():
    ref = lab([0] * 5 + [1] * 5, {0: A, 1: B})
    t = make_transcript([1000] * 10)
    report = evaluate(ref, ref, t)
    assert report.pk_line == report.wd_line == 0.0
    assert report.pk_time == report.wd_time == 0.0
    assert report.srs_line == report.srs_time == 1.0
    assert report.seg_count_diff == 0


@pytest.mark.parametrize("durations, ids, none", [
    ([], [], {"pk_line", "pk_time", "wd_line", "wd_time", "srs_line", "srs_time"}),
    ([1000], [0], {"pk_line", "pk_time", "wd_line", "wd_time"}),
    ([0] * 6, [0, 0, 0, 1, 1, 1], {"srs_time"}),
])
def test_evaluate_gives_none_for_a_metric_without_a_value(durations, ids, none):
    t = make_transcript(durations)
    ref = lab(ids, {0: A, 1: B})
    report = evaluate(ref, ref, t).as_row()
    assert {name for name, value in report.items() if value is None} == none
    assert report["seg_count_diff"] == 0
    # the single metrics still raise where evaluate leaves a metric out
    single = {"pk_line": lambda: p_k(ref, ref, 1), "wd_line": lambda: window_diff(ref, ref, 1),
              "pk_time": lambda: time_p_k(ref, ref, t, 1, 1),
              "wd_time": lambda: time_window_diff(ref, ref, t, 1, 1),
              "srs_line": lambda: srs(ref, ref, t, "line"),
              "srs_time": lambda: srs(ref, ref, t, "time")}
    for name in none:
        with pytest.raises(MetricError):
            single[name]()


def test_evaluate_bounds(rng):
    for _ in range(100):
        n = rng.randint(6, 40)
        t = make_transcript([rng.randint(500, 30000) for _ in range(n)])
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng, max_seg_len=5)
        cfg = derive_window_config(ref, t)
        if cfg.k_lines >= n:
            continue
        report = evaluate(pred, ref, t)
        for v in (report.pk_line, report.pk_time, report.wd_line, report.wd_time,
                  report.srs_line, report.srs_time):
            assert 0.0 <= v <= 1.0


def test_derive_window_config():
    ref = lab([0] * 6 + [1] * 6)
    t = make_transcript([1000] * 12)
    cfg = derive_window_config(ref, t)
    assert cfg.k_lines == 3  # half of mean segment length 6
    assert cfg.delta_ms == 3000  # half of mean segment duration 6 s


def test_pk_windowdiff_agree_on_sparse_windows(rng):
    # where both labelings have <= 1 boundary inside a window, the two
    # mismatch rules coincide
    for _ in range(100):
        n = rng.randint(3, 30)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        bp, br = boundary_set(pred), boundary_set(ref)
        for j in range(n - k):
            cp = sum(1 for i in bp if j < i <= j + k)
            cr = sum(1 for i in br if j < i <= j + k)
            if cp <= 1 and cr <= 1:
                assert (cp != cr) == ((cp > 0) != (cr > 0))
