import json

import pytest

from posr.cli import main
from posr.corpus import Corpus, CorpusEntry, load_corpus, load_manifest, write_corpus
from posr.model import REF_NONE, Labeling, Line, Problem, RefLabel, Transcript, Worksheet


@pytest.fixture
def synthetic_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(out), "--seed", "7",
                 "--n-transcripts", "3", "--informal-prob", "0.2"]) == 0
    return out


def test_gen_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["gen-corpus", "--out", str(a), "--seed", "7"])
    main(["gen-corpus", "--out", str(b), "--seed", "7"])
    for name in sorted(p.name for p in a.iterdir()):
        if name == "run_manifest.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_corpus_loadable(synthetic_dir):
    corpus = load_corpus(load_manifest(synthetic_dir / "manifest.json"))
    assert len(corpus) == 3
    assert all(e.gold is not None for e in corpus.entries)


def test_segment_texttiling(synthetic_dir, tmp_path):
    out = tmp_path / "seg"
    rc = main(["segment", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "texttiling", "--out", str(out)])
    assert rc == 0
    csv_text = (out / "segmentation_metrics.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == ["transcript_id", "pk_line", "pk_time", "wd_line", "wd_time",
                      "seg_count_diff"]
    assert len(csv_text.splitlines()) == 4  # header + 3 transcripts


def test_segment_topk_requires_train(synthetic_dir, tmp_path):
    rc = main(["segment", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "top10", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_segment_topk_with_train(synthetic_dir, tmp_path):
    out = tmp_path / "seg10"
    rc = main(["segment", "--manifest", str(synthetic_dir / "manifest.json"),
               "--train-manifest", str(synthetic_dir / "manifest.json"),
               "--method", "top10", "--out", str(out)])
    assert rc == 0
    assert (out / "segmentation_metrics.csv").exists()


def test_retrieve_perfect_on_zero_overlap(synthetic_dir, tmp_path):
    out = tmp_path / "ret"
    rc = main(["retrieve", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "jaccard", "--threshold", "0.05", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "retrieval_accuracy.json").read_text())
    assert doc["accuracy"] == 1.0


def test_retrieve_accuracy_agrees_with_decisions_on_empty_segment(tmp_path):
    ws = Worksheet(id="w", problems=(Problem("P1", "a b c"),))
    lines = (Line(0, "[TUTOR]", "", 0, 1000), Line(1, "[STUDENT]", "a b c", 1000, 2000))
    gold = Labeling(((0, REF_NONE), (1, RefLabel.problem("P1"))))
    manifest = write_corpus(Corpus((CorpusEntry(Transcript("t", lines), ws, gold),)),
                            tmp_path / "corpus")
    out = tmp_path / "ret"
    assert main(["retrieve", "--manifest", str(manifest), "--method", "jaccard",
                 "--threshold", "0.0", "--out", str(out)]) == 0
    decisions = (out / "retrieval_decisions.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in decisions] == [["null", "null"], ["P1", "P1"]]
    assert json.loads((out / "retrieval_accuracy.json").read_text())["accuracy"] == 1.0


def test_posr_bad_llm_config_is_a_usage_error(synthetic_dir, tmp_path, capsys):
    config = tmp_path / "llm.json"
    config.write_text(json.dumps({"url": "http://localhost:9", "api_key": "inline"}))
    with pytest.raises(SystemExit) as exc:
        main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
              "--method", "joint-llm", "--llm-config", str(config),
              "--out", str(tmp_path / "p")])
    assert exc.value.code == 2
    assert "unknown keys ['api_key']" in capsys.readouterr().err


def test_calibrate_writes_thresholds(synthetic_dir, tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "jaccard", "--out", str(out), "--folds", "3"])
    assert rc == 0
    doc = json.loads((out / "thresholds.json").read_text())
    assert 0.0 < doc["thresholds"]["jaccard"] <= 1.0


def test_posr_offline_pipeline(synthetic_dir, tmp_path):
    out = tmp_path / "posr"
    rc = main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "texttiling", "--retrieval", "jaccard",
               "--threshold", "0.05", "--out", str(out)])
    assert rc == 0
    csv_text = (out / "posr_metrics.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == ["transcript_id", "pk_line", "pk_time", "wd_line", "wd_time",
                      "srs_line", "srs_time", "seg_count_diff", "cost_usd_per_100"]


def test_posr_rerun_identical(synthetic_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
              "--method", "texttiling", "--retrieval", "jaccard",
              "--threshold", "0.05", "--out", str(out)])
        outs.append((out / "posr_metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_analyze_emits_artifacts(synthetic_dir, tmp_path):
    out = tmp_path / "ana"
    rc = main(["analyze", "--manifest", str(synthetic_dir / "manifest.json"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "talk_time.csv").read_text().splitlines()[0] == \
        "problem_id,transcript_id,seconds"
    assert (out / "talk_time_summary.csv").exists()


def test_stats_prints(synthetic_dir, capsys):
    rc = main(["stats", "--manifest", str(synthetic_dir / "manifest.json")])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "total_transcripts: 3" in captured


def test_unknown_method_usage_error(synthetic_dir, tmp_path):
    with pytest.raises(SystemExit):
        main(["segment", "--manifest", str(synthetic_dir / "manifest.json"),
              "--method", "nope", "--out", str(tmp_path / "x")])
