import math
import random
from collections import Counter

import pytest

from posr.analysis import (
    AnalysisError,
    _chi2_sf,
    cochran_q,
    log_odds,
    quartile_language_compare,
    talk_time,
)
from posr import tokens
from posr.cli import main
from posr.corpus import Corpus, CorpusEntry, load_corpus, load_manifest
from posr.model import Line, Problem, REF_NONE, RefLabel, Transcript, Worksheet
from posr.tokens import tokenize

from conftest import line_pairs, per_line_labeling


# --- log odds


def test_log_odds_symmetric_inputs_zero():
    a = Counter(x_y=5, y_z=3)
    b = Counter(x_y=5, y_z=3)
    prior = Counter(x_y=10, y_z=6)
    for _, z in log_odds(a, b, prior, alpha0=1.0):
        assert z == pytest.approx(0.0)


def test_log_odds_exclusive_bigram_positive():
    a = Counter(only_here=8, shared=10)
    b = Counter(shared=10)
    prior = Counter(only_here=8, shared=20)
    ranked = dict(log_odds(a, b, prior, alpha0=0.5))
    assert ranked["only_here"] > 0


def test_log_odds_antisymmetry():
    rng = random.Random(3)
    vocab = [f"b{i}_x" for i in range(30)]
    a, b, prior = Counter(), Counter(), Counter()
    for w in vocab:
        ca, cb = rng.randint(0, 20), rng.randint(0, 20)
        a[w] += ca
        b[w] += cb
        prior[w] += ca + cb + 1
    fwd = dict(log_odds(a, b, prior, alpha0=2.0))
    rev = dict(log_odds(b, a, prior, alpha0=2.0))
    for w in fwd:
        assert fwd[w] == pytest.approx(-rev[w], abs=1e-12)


def test_log_odds_hand_value():
    # y_a=3 of n_a=5, y_b=1 of n_b=5; prior {w_w: 4, q_q: 6}, alpha0=1
    # so alpha_w = 1 * 4/10 = 0.4
    a = Counter(w_w=3, q_q=2)
    b = Counter(w_w=1, q_q=4)
    prior = Counter(w_w=4, q_q=6)
    delta = math.log(3.4 / (5 + 1 - 3 - 0.4)) - math.log(1.4 / (5 + 1 - 1 - 0.4))
    z = delta / math.sqrt(1 / 3.4 + 1 / 1.4)
    got = dict(log_odds(a, b, prior, alpha0=1.0))
    assert got["w_w"] == pytest.approx(z)


def test_log_odds_rejects_empty():
    with pytest.raises(AnalysisError):
        log_odds(Counter(), Counter(x_y=1), Counter(x_y=1), 1.0)


def test_log_odds_requires_prior_coverage():
    with pytest.raises(AnalysisError):
        log_odds(Counter(x_y=1), Counter(q_r=1), Counter(x_y=2), 1.0)


# --- cochran's q


def test_cochran_identical_annotators():
    row = [True, False, True, False, True]
    q, p = cochran_q([row, list(row), list(row)])
    assert q == 0.0
    assert p == 1.0


def test_cochran_hand_evaluation_2x4():
    # annotator totals [3, 1], position totals [2, 1, 1, 0]
    matrix = [[True, True, True, False], [True, False, False, False]]
    m, total = 2, 4
    num = (m - 1) * (m * (9 + 1) - total * total)
    den = m * total - (4 + 1 + 1 + 0)
    expected = num / den  # = (20 - 16) / 2 = 2.0
    q, p = cochran_q(matrix)
    assert q == pytest.approx(expected)
    assert 0.0 < p < 1.0


def test_cochran_reduces_to_mcnemar():
    # b = 3 discordant one way, c = 1 the other
    matrix = [
        [True, True, True, True, False, False],
        [False, False, False, True, True, False],
    ]
    b = sum(1 for x, y in zip(*matrix) if x and not y)
    c = sum(1 for x, y in zip(*matrix) if y and not x)
    q, _ = cochran_q(matrix)
    assert q == pytest.approx((b - c) ** 2 / (b + c))


def test_cochran_permutation_invariance():
    rng = random.Random(7)
    matrix = [[rng.random() < 0.4 for _ in range(12)] for _ in range(4)]
    q1, p1 = cochran_q(matrix)
    rows = matrix[::-1]
    perm = rng.sample(range(12), 12)
    cols = [[row[j] for j in perm] for row in rows]
    q2, p2 = cochran_q(cols)
    assert q1 == pytest.approx(q2)
    assert p1 == pytest.approx(p2)


def test_cochran_input_validation():
    with pytest.raises(AnalysisError):
        cochran_q([[True, False]])
    with pytest.raises(AnalysisError):
        cochran_q([[True], [False]])


# scipy.stats.chi2.sf(x, df) for x in CHI2_SF_X, computed with scipy 1.17.1
CHI2_SF_X = (0.01, 0.1, 0.5, 2.0, 8.0, 30.0, 100.0, 300.0)
CHI2_SF = {
    1: (0.920344325445942, 0.7518296340458492, 0.47950012218695337,
        0.15729920705028105, 0.004677734981047276, 4.3204630578274955e-08,
        1.5239706048320995e-23, 3.2943623833139784e-67),
    2: (0.9950124791926823, 0.951229424500714, 0.7788007830714049,
        0.36787944117144245, 0.018315638888734182, 3.0590232050182594e-07,
        1.9287498479639183e-22, 7.175095973164448e-66),
    3: (0.9997348349413444, 0.9918374237318764, 0.9188914116546758,
        0.5724067044708798, 0.04601170568923136, 1.3800570312932553e-06,
        1.5541594313896026e-21, 9.948758346327588e-65),
    4: (0.9999875415886458, 0.9987908957257497, 0.9735009788392561,
        0.7357588823428847, 0.0915781944436709, 4.894437128029217e-06,
        9.836624224615988e-21, 1.083439491947837e-63),
    5: (0.9999994699729957, 0.9998376833880774, 0.9921232932326296,
        0.8491450360846096, 0.1562356275777222, 1.4748581038443073e-05,
        5.285148360943219e-20, 1.0015302305957817e-62),
    6: (0.9999999792446357, 0.9999799325063756, 0.9978385033102375,
        0.9196986029286058, 0.23810330555354436, 3.930844818448459e-05,
        2.509303552201055e-19, 8.180326919004622e-62),
    7: (0.999999999243059, 0.9999976885812014, 0.9994464813904249,
        0.9598403687301016, 0.3325939025993081, 9.495972508134177e-05,
        1.0787979671702833e-18, 6.0496418565564134e-61),
    8: (0.9999999999740623, 0.9999997497860527, 0.999866630349486,
        0.9810118431238462, 0.43347012036670896, 0.00021137850346676174,
        4.269159205144943e-18, 4.117794754094997e-60),
    9: (0.9999999999991591, 0.9999999743696746, 0.9999695662588389,
        0.9914676066288135, 0.5341462169096916, 0.00043872177097947936,
        1.5735176303753876e-17, 2.6102773472069844e-59),
    10: (0.999999999999974, 0.9999999975020487, 0.999993388289439,
         0.9963401531726563, 0.6288369351798734, 0.000856641210775301,
         5.4497019829205215e-17, 1.5546747543803087e-58),
    11: (0.9999999999999992, 0.9999999997673243, 0.9999986265293064,
         0.9984958817174162, 0.7133038296300321, 0.0015845952573066058,
         1.7858382448801597e-16, 8.760297496858875e-58),
    12: (1.0, 0.9999999999792086, 0.9999997261864366,
         0.9994058151824183, 0.7851303870304052, 0.0027924293327009145,
         5.567756260698086e-16, 4.6959578959561177e-57),
    13: (1.0, 0.999999999998212, 0.9999999474506912,
         0.999773749915344, 0.8436002752448255, 0.004709704765471494,
         1.659026080708587e-15, 2.405585637369904e-56),
    14: (1.0, 0.9999999999998517, 0.9999999902654781,
         0.999916758850712, 0.8893260215974264, 0.007631899637514952,
         4.742430678074824e-15, 1.1820821840890893e-55),
    15: (1.0, 0.9999999999999881, 0.9999999982553599,
         0.9999703450227174, 0.9237827033154676, 0.011921495938159686,
         1.3047043436251422e-14, 5.5897493231246435e-55),
    16: (1.0, 0.9999999999999991, 0.9999999996968725,
         0.9999897508033253, 0.9488663842071527, 0.018002193147830754,
         3.4639966763825014e-14, 2.5506138008293157e-54),
    17: (1.0, 0.9999999999999999, 0.9999999999488488,
         0.9999965577037006, 0.9665466649531433, 0.026345078283536126,
         8.896715913987052e-14, 1.125735645108784e-53),
    18: (1.0, 1.0, 0.9999999999916036,
         0.999998874797402, 0.9786365655120158, 0.037446493479672875,
         2.2149956729976326e-13, 4.815821847121125e-53),
    19: (1.0, 1.0, 0.9999999999986573,
         0.9999996415485222, 0.9866708821944026, 0.05179845889302389,
         5.355560750435117e-13, 2.0005232442947767e-52),
    20: (1.0, 1.0, 0.9999999999997906,
         0.9999998885745217, 0.9918677572030661, 0.06985366069940986,
         1.2596084591660847e-12, 8.082849629775851e-52),
    21: (1.0, 1.0, 0.9999999999999681,
         0.9999999661637665, 0.9951442368223011, 0.09198800722379412,
         2.8860240534837315e-12, 3.181025503035581e-51),
    22: (1.0, 1.0, 0.9999999999999952,
         0.9999999899522336, 0.9971602338794863, 0.11846441152901499,
         6.450152918497711e-12, 1.2210186130573193e-50),
    23: (1.0, 1.0, 0.9999999999999993,
         0.999999997079504, 0.998372181442453, 0.149401647696323,
         1.4078728712722855e-11, 4.576635662597998e-50),
    24: (1.0, 1.0, 0.9999999999999999,
         0.9999999991683892, 0.99908477085273, 0.18475179902393143,
         3.00435368245505e-11, 1.6769065659778778e-49),
    25: (1.0, 1.0, 1.0,
         0.999999999767829, 0.9994949447885928, 0.22428900483440378,
         6.274266201376244e-11, 6.01227197360037e-49),
    26: (1.0, 1.0, 1.0,
         0.9999999999364022, 0.9997262831771445, 0.2676110333925769,
         1.2834930309977087e-10, 2.1111965374379458e-48),
    27: (1.0, 1.0, 1.0,
         0.999999999982895, 0.9998542290593575, 0.3141538334001014,
         2.5739839521792187e-10, 7.266757286168736e-48),
    28: (1.0, 1.0, 1.0,
         0.9999999999954802, 0.9999236715846567, 0.36321784227947546,
         5.064484041583106e-10, 2.453626439328626e-47),
    29: (1.0, 1.0, 1.0,
         0.9999999999988259, 0.9999606836581025, 0.41400364291754255,
         9.783455552333214e-10, 8.132820271737761e-47),
    30: (1.0, 1.0, 1.0,
         0.9999999999997, 0.9999800682725173, 0.4656537089440098,
         1.8568023365102314e-09, 2.64804848563084e-46),
    31: (1.0, 1.0, 1.0,
         0.9999999999999246, 0.9999900504439633, 0.5172965493148962,
         3.4643702449416187e-09, 8.474810864884965e-46),
    32: (1.0, 1.0, 1.0,
         0.9999999999999813, 0.9999951073892801, 0.5680895756085438,
         6.35798211101664e-09, 2.6674906902610788e-45),
    33: (1.0, 1.0, 1.0,
         0.9999999999999954, 0.9999976289693467, 0.617257426473625,
         1.1483804727871504e-08, 8.261863832660652e-45),
    34: (1.0, 1.0, 1.0,
         0.9999999999999989, 0.9999988671684709, 0.6641232006065444,
         2.0424168906349178e-08, 2.5192670456180066e-44),
    35: (1.0, 1.0, 1.0,
         0.9999999999999998, 0.9999994661876215, 0.7081309511633784,
         3.578512134281061e-08, 7.566534334331449e-44),
    36: (1.0, 1.0, 1.0,
         0.9999999999999999, 0.9999997518223981, 0.7488587520753689,
         6.179530653967975e-08, 2.2394425662605058e-43),
    37: (1.0, 1.0, 1.0,
         1.0, 0.9999998861232271, 0.7860225437545957,
         1.0521745452835139e-07, 6.5340945343465e-43),
    38: (1.0, 1.0, 1.0,
         1.0, 0.9999999484121597, 0.8194717116327225,
         1.767151332989336e-07, 1.8802074747083222e-42),
    39: (1.0, 1.0, 1.0,
         1.0, 0.9999999769201149, 0.849177889098826,
         2.9287240908386897e-07, 5.337821156877931e-42),
    40: (1.0, 1.0, 1.0,
         1.0, 0.9999999897994779, 0.8752187849674751,
         4.791357300338064e-07, 1.4955969722726186e-41),
    41: (1.0, 1.0, 1.0,
         1.0, 0.9999999955451174, 0.8977589239790029,
         7.740389592262126e-07, 4.1371757337210337e-41),
    42: (1.0, 1.0, 1.0,
         1.0, 0.9999999980769415, 0.9170290899685397,
         1.2351872218710016e-06, 1.1302418658286007e-40),
    43: (1.0, 1.0, 1.0,
         1.0, 0.9999999991792643, 0.9333060226718153,
         1.9476159107929263e-06, 3.0503470499817925e-40),
    44: (1.0, 1.0, 1.0,
         1.0, 0.9999999996536013, 0.9468935935407288,
         3.0353098214833436e-06, 8.135114498695407e-40),
    45: (1.0, 1.0, 1.0,
         1.0, 0.9999999998553847, 0.9581063240854055,
         4.676864635366609e-06, 2.1445436421677616e-39),
    46: (1.0, 1.0, 1.0,
         1.0, 0.9999999999402667, 0.9672557550672212,
         7.126497547875074e-06, 5.589560972278608e-39),
    47: (1.0, 1.0, 1.0,
         1.0, 0.9999999999755839, 0.9746398583611323,
         1.0741861801086078e-05, 1.440793655663154e-38),
    48: (1.0, 1.0, 1.0,
         1.0, 0.9999999999901216, 0.9805354256279772,
         1.6020383909596092e-05, 3.673771003146821e-38),
    49: (1.0, 1.0, 1.0,
         1.0, 0.9999999999960433, 0.9851931781115962,
         2.3646111089850406e-05, 9.26849126063993e-38),
    50: (1.0, 1.0, 1.0,
         1.0, 0.9999999999984307, 0.9888352197284497,
         3.454931382984871e-05, 2.3141364165140704e-37),
    51: (1.0, 1.0, 1.0,
         1.0, 0.9999999999993836, 0.9916543942853495,
         4.998131371998267e-05, 5.719317047478375e-37),
    52: (1.0, 1.0, 1.0,
         1.0, 0.9999999999997602, 0.9938150961887332,
         7.160717367035318e-05, 1.3994692313710157e-36),
    53: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999075, 0.9954551096816752,
         0.00010161896593592719, 3.391030482050435e-36),
    54: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999647, 0.9966881018388968,
         0.00014287228874824767, 8.138251479753482e-36),
    55: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999867, 0.9976064580192179,
         0.00019904849841884047, 1.9348193372442154e-35),
    56: (1.0, 1.0, 1.0,
         1.0, 0.999999999999995, 0.9982842160889877,
         0.0002748447240776812, 4.5575930637434316e-35),
    57: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999981, 0.9987799207487866,
         0.00037619310293323917, 1.0638726368367253e-34),
    58: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999993, 0.9991392772943934,
         0.0005105097871659523, 2.4613492612500777e-34),
    59: (1.0, 1.0, 1.0,
         1.0, 0.9999999999999998, 0.9993975327117176,
         0.0006869731108532106, 5.644876337427698e-34),
}


def test_chi2_sf_matches_scipy():
    for df, row in CHI2_SF.items():
        for x, expected in zip(CHI2_SF_X, row):
            assert math.isclose(_chi2_sf(x, df), expected, rel_tol=1e-12, abs_tol=0.0), (df, x)


# --- talk time


def _corpus_one_transcript(line_specs, refs):
    """line_specs: list of (duration_ms); refs: per-line RefLabel."""
    lines, per_line, clock = [], [], 0
    seg = 0
    for i, (d, ref) in enumerate(zip(line_specs, refs)):
        if i > 0 and refs[i] != refs[i - 1]:
            seg += 1
        lines.append(Line(i, "[TUTOR]", f"word{i} word{i}b", clock, clock + d))
        per_line.append((seg, ref))
        clock += d
    ws = Worksheet(id="w", problems=(Problem("A", "text a"), Problem("B", "text b")))
    entry = CorpusEntry(Transcript(id="t", lines=tuple(lines)), ws,
                        per_line_labeling(tuple(per_line)))
    return Corpus((entry,))


def test_talk_time_sums_line_durations():
    A = RefLabel.problem("A")
    corpus = _corpus_one_transcript(
        [100_000, 200_000, 60_000], [A, A, REF_NONE]
    )
    table = talk_time(corpus)
    assert table.per_cell[("A", "t")] == pytest.approx(300.0)  # 5 minutes
    assert ("B", "t") not in table.per_cell
    assert table.summary["A"]["mean"] == pytest.approx(300.0)


def test_talk_time_totals_vs_independent_sum():
    from posr.corpus import SyntheticSpec, generate_synthetic

    for seed in (13, 1, 2, 7):
        corpus = generate_synthetic(SyntheticSpec(seed=seed, informal_prob=0.3))
        table = talk_time(corpus)
        # independent per-line aggregation, in line order: the sums must be
        # equal to the last bit, as talk_time.csv prints them in full
        expected = {}
        for e in corpus.entries:
            for i, (_s, ref) in enumerate(line_pairs(e.gold)):
                if ref.kind == "problem":
                    key = (ref.problem_id, e.transcript.id)
                    secs = e.transcript.lines[i].duration_ms / 1000
                    expected[key] = expected.get(key, 0.0) + secs
        assert table.per_cell == expected, seed


# --- quartile comparison


def _planted_corpus(marker="lets say", n_segments=12, seed=0):
    rng = random.Random(seed)
    ws = Worksheet(id="w", problems=(Problem("A", "alpha beta gamma"),))
    entries = []
    for t in range(n_segments):
        long_side = t % 2 == 0
        n_lines = 6
        duration = 60_000 if long_side else 2_000
        lines, per_line, clock = [], [], 0
        for i in range(n_lines):
            base = "alpha beta gamma delta"
            utt = f"{base} {marker}" if long_side else base
            lines.append(Line(i, "[TUTOR]", utt, clock, clock + duration))
            per_line.append((0, RefLabel.problem("A")))
            clock += duration
        entries.append(CorpusEntry(Transcript(id=f"t{t}", lines=tuple(lines)), ws,
                                   per_line_labeling(tuple(per_line))))
    return Corpus(tuple(entries))


def test_quartile_compare_surfaces_planted_marker():
    corpus = _planted_corpus()
    ranked = quartile_language_compare(corpus, "A")
    top3 = [b for b, _ in ranked[:3]]
    assert "lets_say" in top3 or "gamma_lets" in top3 or "say_alpha" in top3


def test_quartile_compare_identical_language_no_signal():
    corpus = _planted_corpus(marker="")
    ranked = quartile_language_compare(corpus, "A")
    assert all(abs(z) < 1.96 for _, z in ranked)


def test_quartile_compare_minimum_segments():
    corpus = _planted_corpus(n_segments=3)
    with pytest.raises(AnalysisError, match="at least 4"):
        quartile_language_compare(corpus, "A")


def test_analyze_tokenizes_each_utterance_once(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus_dir), "--seed", "1",
                 "--n-transcripts", "20"]) == 0
    corpus = load_corpus(load_manifest(corpus_dir / "manifest.json"))
    tokenized = []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(tokens, "tokenize", counting_tokenize)
    assert main(["analyze", "--manifest", str(corpus_dir / "manifest.json"),
                 "--problem", "P4", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "logodds_P4.csv").stat().st_size > 0
    # the corpus prior and the quartile segments read one token column per
    # transcript: each utterance reaches tokenize once, alone
    assert sorted(tokenized) == sorted(line.utterance for e in corpus.entries
                                       for line in e.transcript.lines)
