import pytest

from posr.metrics import (
    MetricError,
    TokenUsage,
    WindowConfig,
    cost_per_100,
    derive_window_config,
    evaluate,
)
from posr.model import Line, REF_NONE, RefLabel, Transcript

from conftest import (
    REF_POOL,
    boundary_set,
    line_pairs,
    line_refs,
    make_transcript,
    oracle_line_metric,
    oracle_srs,
    oracle_time_metric,
    per_line_labeling,
    random_labeling,
    seg_ids,
)

A = RefLabel.problem("A")
B = RefLabel.problem("B")


def lab(ids, refs=None):
    if refs is None:
        refs = {}
    return per_line_labeling(tuple((s, refs.get(s, REF_NONE)) for s in ids))


def test_identity_scores_zero():
    l = lab([0, 0, 1, 1, 2, 2, 2])
    t = make_transcript([1000] * 7)
    report = evaluate(l, l, t, WindowConfig(2, 2000))
    assert report.wd_line == report.pk_line == report.wd_time == report.pk_time == 0.0


def test_window_diff_hand_case():
    # ref [0,0,1,1] pred [0,1,1,1], k=1: windows (0,1),(1,2),(2,3)
    # pred boundary {1}, ref boundary {2} -> mismatches at j=0 and j=1
    report = evaluate(lab([0, 1, 1, 1]), lab([0, 0, 1, 1]), make_transcript([1000] * 4),
                      WindowConfig(1, 1000))
    assert report.wd_line == pytest.approx(2 / 3)


def test_window_diff_total_disagreement():
    n = 8
    pred = lab([0] * n)
    ref = lab(list(range(n)))
    assert evaluate(pred, ref, make_transcript([1000] * n), WindowConfig(1, 1000)).wd_line == 1.0


def test_pk_vs_window_diff_count_difference():
    # a window holding 2 pred boundaries vs 1 ref boundary agrees for Pk
    # (both present) but mismatches for WindowDiff (counts differ)
    pred = lab([0, 1, 2, 2])
    ref = lab([0, 0, 1, 1])
    report = evaluate(pred, ref, make_transcript([1000] * 4), WindowConfig(3, 1000))
    assert report.pk_line == 0.0
    assert report.wd_line == 1.0


def test_window_metrics_match_oracle(rng):
    for _ in range(300):
        n = rng.randint(3, 50)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        report = evaluate(pred, ref, make_transcript([1000] * n), WindowConfig(k, 1000))
        assert report.wd_line == pytest.approx(
            oracle_line_metric(seg_ids(pred), seg_ids(ref), k, False), abs=1e-12
        )
        assert report.pk_line == pytest.approx(
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
        report = evaluate(pred, ref, t, WindowConfig(k, delta))
        assert report.wd_time == pytest.approx(
            oracle_time_metric(seg_ids(pred), seg_ids(ref), starts, ends, delta, k, False),
            abs=1e-12,
        )
        assert report.pk_time == pytest.approx(
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
        report = evaluate(pred, ref, t, WindowConfig(k, delta))
        assert report.wd_time == oracle_time_metric(
            seg_ids(pred), seg_ids(ref), starts, ends, delta, k, False)
        assert report.pk_time == oracle_time_metric(
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
    t = make_transcript([1000] * n)
    for k in (1, 2, 7, 60, n - 1):
        report = evaluate(pred, ref, t, WindowConfig(k, 1000))
        assert report.wd_line == oracle_line_metric(
            seg_ids(pred), seg_ids(ref), k, False)
        assert report.pk_line == oracle_line_metric(
            seg_ids(pred), seg_ids(ref), k, True)


def test_uniform_duration_reduction(rng):
    for _ in range(200):
        n = rng.randint(3, 40)
        d = rng.choice([500, 1000, 2500])
        t = make_transcript([d] * n)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        k = rng.randint(1, n - 1)
        report = evaluate(pred, ref, t, WindowConfig(k, k * d))
        assert report.wd_time == pytest.approx(report.wd_line, abs=1e-12)
        assert report.pk_time == pytest.approx(report.pk_line, abs=1e-12)


def test_time_wd_amplifies_missed_long_segment():
    # a long opening segment inflates delta, so the boundary missed among
    # the short lines is straddled by more time windows than line windows
    ids_ref = [0] * 3 + [1] * 3 + [2] * 3
    ids_pred = [0] * 3 + [1] * 6
    durations = [100_000] * 3 + [1000] * 6
    t = make_transcript(durations)
    ref = lab(ids_ref)
    pred = lab(ids_pred)
    report = evaluate(pred, ref, t)
    assert report.wd_time > report.wd_line


def test_time_pk_soft_on_oversegmentation():
    # long segments; pred chops each into pieces
    ids_ref = [0] * 20 + [1] * 20
    ids_pred = [i // 4 for i in range(40)]
    durations = [30000] * 40
    t = make_transcript(durations)
    ref = lab(ids_ref)
    pred = lab(ids_pred)
    report = evaluate(pred, ref, t)
    assert report.pk_time <= report.pk_line


def test_srs_examples():
    ref = lab([0] * 5 + [1] * 5, {0: A, 1: B})
    pred = lab([0] * 6 + [1] * 4, {0: A, 1: B})
    t = make_transcript([1000] * 10)
    assert evaluate(pred, ref, t).srs_line == pytest.approx(0.9)

    durations = [1000] * 5 + [91000] + [1000] * 4
    t_weighted = make_transcript(durations)
    assert evaluate(pred, ref, t_weighted).srs_time == pytest.approx(9 / 100)


def test_srs_perfect_is_one():
    ref = lab([0, 0, 1, 1], {0: A, 1: B})
    t = make_transcript([1000] * 4)
    report = evaluate(ref, ref, t)
    assert report.srs_line == report.srs_time == 1.0


def test_srs_matches_oracle(rng):
    for _ in range(200):
        n = rng.randint(1, 50)
        t = make_transcript([rng.randint(500, 60000) for _ in range(n)])
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        report = evaluate(pred, ref, t)
        assert report.srs_line == oracle_srs(pred, ref, [1.0] * n)
        weights = [l.duration_ms for l in t.lines]
        assert report.srs_time == pytest.approx(
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
        copy = per_line_labeling(tuple((seg, RefLabel(r.kind, r.problem_id)) for seg, r in line_pairs(ref)))
        weights = [l.duration_ms for l in t.lines]
        for pred in (random_labeling(n, rng, ref_pool=fresh_pool), copy):
            assert not any(p is r for p, r in zip(line_refs(pred), line_refs(ref)))
            line, time = oracle_srs(pred, ref, [1.0] * n), oracle_srs(pred, ref, weights)
            report = evaluate(pred, ref, t)
            assert (report.srs_line, report.srs_time) == (line, time)
        report = evaluate(copy, ref, t)
        assert report.srs_line == report.srs_time == 1.0


def test_srs_invariant_to_segment_id_relabeling(rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        t = make_transcript([1000] * n)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        shifted = per_line_labeling(tuple((seg + 100, ref_) for seg, ref_ in line_pairs(pred)))
        assert evaluate(shifted, ref, t).srs_line == evaluate(pred, ref, t).srs_line


def test_srs_distinguishes_none_from_off_worksheet():
    ref = lab([0, 0], {0: RefLabel("not_in_corpus")})
    pred = lab([0, 0], {0: REF_NONE})
    t = make_transcript([1000] * 2)
    assert evaluate(pred, ref, t).srs_line == 0.0
    assert evaluate(ref, ref, t).srs_line == 1.0


def test_segment_count_diff():
    for pred, ref, diff in (([0, 0, 1], [0, 0, 1], 0), ([0, 1, 2, 3, 4], [0, 0, 1, 1, 2], 2),
                            ([0, 0, 0], [0, 1, 2], -2)):
        t = make_transcript([1000] * len(ref))
        assert evaluate(lab(pred), lab(ref), t).seg_count_diff == diff


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


def test_evaluate_default_window_is_the_derived_window(rng):
    for i in range(200):
        n = 1 if i % 4 == 0 else rng.randint(2, 40)
        durations = [0] * n if i % 3 == 0 else [rng.choice([0, 500, 1000, 60000])
                                                for _ in range(n)]
        t = make_transcript(durations)
        pred = random_labeling(n, rng)
        ref = random_labeling(n, rng)
        assert evaluate(pred, ref, t) == evaluate(pred, ref, t, derive_window_config(ref, t))


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
