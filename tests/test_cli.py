import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import posr
from posr.cli import LLM_METHODS, POSR_COLUMNS, main
from posr.corpus import (
    Corpus,
    CorpusEntry,
    load_corpus,
    load_manifest,
    load_transcript,
    save_transcript,
    write_corpus,
)
from posr.llm import (
    CassetteClient,
    ChatRequest,
    PromptKind,
    ScriptedClient,
    TransportError,
    run_posr_llm,
)
from posr.metrics import TokenUsage, cost_per_100, evaluate
from posr.model import REF_NONE, Line, Problem, RefLabel, Transcript, Worksheet

from conftest import line_pairs, per_line_labeling


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
    gold = per_line_labeling(((0, REF_NONE), (1, RefLabel.problem("P1"))))
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
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", "joint-llm", "--llm-config", str(config),
                 "--out", str(tmp_path / "p")]) == 2
    assert "unknown keys ['api_key']" in capsys.readouterr().err


def test_posr_url_without_a_scheme_is_a_usage_error(synthetic_dir, tmp_path, capsys):
    config = tmp_path / "llm.json"
    config.write_text(json.dumps({"url": "127.0.0.1:9/v1/chat/completions"}))
    out = tmp_path / "p"
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", "independent-llm", "--model", "m", "--llm-config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: 'url' must be an http://")
    assert not (out / "run_manifest.json").exists()


def test_malformed_manifest_is_a_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"worksheets": {}}))
    assert main(["stats", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: missing field transcripts\n"


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_unmapped_transcript_fails_at_the_manifest(synthetic_dir, capsys):
    manifest = synthetic_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["worksheets"]["synthetic-7-002"]
    manifest.write_text(json.dumps(doc))
    for tpath in doc["transcripts"]:  # the manifest is rejected before any is read
        (synthetic_dir / tpath).unlink()
    assert main(["stats", "--manifest", str(manifest)]) == 2
    assert one_error_line(capsys) == (
        f"error: {manifest}: no worksheet mapped for transcript synthetic-7-002\n")


def test_annotation_record_without_line_index_is_a_usage_error(synthetic_dir, tmp_path, capsys):
    path = synthetic_dir / "synthetic-7-001.labels.jsonl"
    records = path.read_text().splitlines(keepends=True)
    records[3] = json.dumps({k: v for k, v in json.loads(records[3]).items()
                             if k != "line_index"}) + "\n"
    path.write_text("".join(records))
    out = tmp_path / "p"
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", "texttiling", "--out", str(out)]) == 2
    assert one_error_line(capsys) == f"error: {path}:4: missing field line_index\n"
    assert not (out / "run_manifest.json").exists()


def test_a_refused_run_leaves_no_out_directory_it_made(synthetic_dir, tmp_path, capsys):
    (synthetic_dir / "synthetic-7-001.labels.jsonl").write_text("{}\n")
    argv = ["posr", "--manifest", str(synthetic_dir / "manifest.json"), "--method", "texttiling"]
    assert main([*argv, "--out", str(tmp_path / "p")]) == 2
    assert not (tmp_path / "p").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main([*argv, "--out", str(kept)]) == 2
    assert kept.is_dir()


@pytest.mark.parametrize("damage", ["missing", "not utf-8"])
@pytest.mark.parametrize("kind", ["manifest", "transcript", "worksheet", "annotation"])
def test_unreadable_corpus_file_is_a_usage_error(synthetic_dir, capsys, kind, damage):
    manifest = synthetic_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    path = {"manifest": manifest,
            "transcript": synthetic_dir / doc["transcripts"][1],
            "worksheet": synthetic_dir / next(iter(doc["worksheets"].values())),
            "annotation": synthetic_dir / list(doc["annotations"].values())[1]}[kind]
    if damage == "missing":
        path.unlink()
    else:
        path.write_bytes(b"\xff\xfe{}")
    assert main(["stats", "--manifest", str(manifest)]) == 2
    assert one_error_line(capsys).startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag", ["--llm-config", "--prices"])
def test_missing_llm_config_or_prices_file_is_a_usage_error(synthetic_dir, tmp_path, capsys,
                                                            flag):
    missing = tmp_path / "nope.json"
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", "joint-llm", "--cassette", str(tmp_path / "c.json"),
                 flag, str(missing), "--out", str(tmp_path / "p")]) == 2
    assert one_error_line(capsys) == f"error: {missing}: No such file or directory\n"


@pytest.fixture
def unannotated_manifest(synthetic_dir):
    doc = json.loads((synthetic_dir / "manifest.json").read_text())
    del doc["annotations"]
    path = synthetic_dir / "unannotated.json"
    path.write_text(json.dumps(doc))
    return path


def test_segment_top10_on_unannotated_train_is_a_usage_error(
        synthetic_dir, unannotated_manifest, tmp_path, capsys):
    assert main(["segment", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--train-manifest", str(unannotated_manifest), "--method", "top10",
                 "--out", str(tmp_path / "s")]) == 2
    assert "no annotations" in one_error_line(capsys)


def test_calibrate_on_unannotated_corpus_is_a_usage_error(unannotated_manifest, tmp_path, capsys):
    assert main(["calibrate", "--manifest", str(unannotated_manifest),
                 "--out", str(tmp_path / "c")]) == 2
    assert "needs annotated transcripts" in one_error_line(capsys)


@pytest.mark.parametrize("args, message", [
    (["retrieve", "--manifest", "{unannotated}", "--method", "jaccard"], "needs annotated"),
    (["analyze", "--manifest", "{unannotated}"], "needs annotated"),
    (["analyze", "--manifest", "{annotated}", "--problem", "P1"], "at least 4"),
    (["posr", "--manifest", "{annotated}", "--method", "joint-llm"], "--llm-config and/or"),
])
def test_usage_errors_print_one_line_and_exit_2(
        synthetic_dir, unannotated_manifest, tmp_path, capsys, args, message):
    paths = {"unannotated": unannotated_manifest, "annotated": synthetic_dir / "manifest.json"}
    assert main([a.format(**paths) for a in args] + ["--out", str(tmp_path / "o")]) == 2
    assert message in one_error_line(capsys)


@pytest.mark.parametrize("train", [None, "unannotated"])
def test_segment_and_posr_give_the_same_top10_error(
        synthetic_dir, unannotated_manifest, tmp_path, capsys, train):
    extra = [] if train is None else ["--train-manifest", str(unannotated_manifest)]
    errors = []
    for command in ("segment", "posr"):
        assert main([command, "--manifest", str(synthetic_dir / "manifest.json"),
                     "--method", "top10", *extra, "--out", str(tmp_path / command)]) == 2
        errors.append(one_error_line(capsys))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON"),
    ("[]", "expected a JSON object"),
    (json.dumps({"m": {"input_usd_per_1k": 0.5}}), "'m' needs numeric"),
    *(('{"m": {"input_usd_per_1k": %s, "output_usd_per_1k": 1}}' % price, "'m' needs numeric")
      for price in ("true", "NaN", "Infinity", "-5")),
])
def test_posr_bad_prices_file_is_a_usage_error(synthetic_dir, tmp_path, capsys, text, message):
    prices = tmp_path / "prices.json"
    prices.write_text(text)
    out = tmp_path / "p"
    rc = main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
               "--method", "segment-llm", "--model", "m", "--cassette", str(tmp_path / "c.json"),
               "--prices", str(prices), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prices}: ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("method", list(LLM_METHODS))
def test_prices_without_the_model_is_a_usage_error(synthetic_dir, tmp_path, capsys, method):
    prices = tmp_path / "prices.json"
    prices.write_text(json.dumps({"other": {"input_usd_per_1k": 1, "output_usd_per_1k": 2}}))
    cassette = tmp_path / "cassette.json"
    out = tmp_path / "p"
    # with no cassette entries, a request would fail its transcript, not the run
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", method, "--model", "m", "--cassette", str(cassette),
                 "--prices", str(prices), "--out", str(out)]) == 2
    assert one_error_line(capsys) == f"error: {prices}: no entry for --model 'm'\n"
    assert not list(out.glob("*.pred.jsonl"))
    assert not cassette.exists()


@pytest.mark.parametrize("content, message", [
    (b"{not json", "invalid JSON"),
    (b"[]", "a cassette is a JSON object"),
    (b"\xff\xfe{}", "can't decode"),
    (None, "Is a directory"),
])
def test_posr_bad_cassette_is_a_usage_error(synthetic_dir, tmp_path, capsys, content, message):
    cassette = tmp_path / "bad.json"
    if content is None:
        cassette.mkdir()
    else:
        cassette.write_bytes(content)
    assert main(["posr", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--method", "joint-llm", "--cassette", str(cassette),
                 "--out", str(tmp_path / "p")]) == 2
    err = one_error_line(capsys)
    assert err.startswith(f"error: {cassette}: ")
    assert message in err


# what each posr method reads beyond --manifest, --method and --out
POSR_READS = {
    "texttiling": {"--retrieval", "--threshold"},
    "top10": {"--train-manifest", "--retrieval", "--threshold"},
    "top20": {"--train-manifest", "--retrieval", "--threshold"},
    **{method: {"--model", "--llm-config", "--cassette", "--prices"} for method in LLM_METHODS},
}
# a value of each option; a file option names a file that does not exist
POSR_OPTIONS = {"--train-manifest": "missing/train.json", "--retrieval": "bm25",
                "--threshold": "0.5", "--model": "m", "--llm-config": "missing/llm.json",
                "--cassette": "missing/cassette.json", "--prices": "missing/prices.json"}
UNREAD = [("posr", method, option) for method, reads in POSR_READS.items()
          for option in POSR_OPTIONS if option not in reads]
UNREAD.append(("segment", "texttiling", "--train-manifest"))


@pytest.mark.parametrize("command, method, option", UNREAD)
def test_an_option_the_method_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                             command, method, option):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    # the manifest is missing too: the option is refused before any file is read
    assert main([command, "--manifest", "missing/manifest.json", "--method", method,
                 option, POSR_OPTIONS[option], "--out", str(out)]) == 2
    assert one_error_line(capsys) == f"error: {option} is not read by --method {method}\n"
    assert not out.exists()
    assert not (tmp_path / "missing").exists()  # no cassette was written


@pytest.mark.parametrize("command, method", [("posr", "top10"), ("segment", "top20")])
def test_a_trained_method_without_train_manifest_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                                  command, method):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    # the manifest is missing too: the absence is refused before any file is read
    assert main([command, "--manifest", "missing/manifest.json", "--method", method,
                 "--out", str(out)]) == 2
    assert one_error_line(capsys) == f"error: --method {method} needs --train-manifest\n"
    assert not out.exists()


def test_run_manifest_records_the_effective_value_of_each_read_option(synthetic_dir, tmp_path):
    m = str(synthetic_dir / "manifest.json")
    runs = {"lexical": ["--method", "texttiling"],
            "llm": ["--method", "segment-llm", "--cassette", str(tmp_path / "c.json")]}
    recorded = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["posr", "--manifest", m, *argv, "--out", str(out)]) == 0
        recorded[name] = json.loads((out / "run_manifest.json").read_text())["args"]
    assert {k: recorded["lexical"][k] for k in ("retrieval", "threshold", "model")} == {
        "retrieval": "jaccard", "threshold": 0.0, "model": None}
    assert {k: recorded["llm"][k] for k in ("retrieval", "threshold", "model")} == {
        "retrieval": None, "threshold": None, "model": "default-model"}


@pytest.mark.parametrize("command", [
    ["stats", "--manifest", "{manifest}"],
    ["posr", "--manifest", "{manifest}", "--method", "texttiling"],
    ["gen-corpus"],
])
@pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")])
def test_out_that_is_not_a_directory_is_a_usage_error(synthetic_dir, tmp_path, capsys,
                                                      command, below, reason):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if below else afile
    args = [a.format(manifest=synthetic_dir / "manifest.json") for a in command]
    assert main([*args, "--out", str(out)]) == 2
    assert one_error_line(capsys) == f"error: --out {out}: {reason}\n"


@pytest.mark.parametrize("flag, value", [
    ("--informal-prob", "1.5"), ("--informal-prob", "nan"), ("--vocab-overlap", "-0.1"),
])
def test_gen_corpus_probability_outside_0_1_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(out), flag, value]) == 2
    assert one_error_line(capsys) == f"error: {flag[2:].replace('-', '_')} must be in [0, 1]\n"
    assert not out.exists()


def test_main_writes_the_run_manifest_of_each_command_that_succeeds(
        synthetic_dir, tmp_path, monkeypatch):
    m = str(synthetic_dir / "manifest.json")
    commands = [["gen-corpus", "--seed", "5"],
                ["segment", "--manifest", m, "--method", "texttiling"],
                ["retrieve", "--manifest", m, "--method", "jaccard"],
                ["calibrate", "--manifest", m, "--folds", "3", "--seed", "4"],
                ["posr", "--manifest", m, "--method", "texttiling"],
                ["analyze", "--manifest", m],
                ["stats", "--manifest", m]]
    for command in commands:
        out = tmp_path / command[0]
        assert main([*command, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == command[0]
        assert manifest["version"] == posr.__version__
        assert manifest["seed"] == {"gen-corpus": 5, "calibrate": 4}.get(command[0])
        assert manifest["args"]["out"] == str(out)
    failed = tmp_path / "failed"
    assert main(["calibrate", "--manifest", m, "--folds", "0", "--out", str(failed)]) == 2
    assert not (failed / "run_manifest.json").exists()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["stats", "--manifest", m]) == 0
    assert list(cwd.iterdir()) == []


def test_posr_writes_an_empty_prediction_as_one_empty_line(synthetic_dir, tmp_path):
    doc = json.loads((synthetic_dir / "manifest.json").read_text())
    del doc["annotations"]
    (synthetic_dir / doc["transcripts"][0]).write_text("")
    manifest = synthetic_dir / "unannotated.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "p"
    assert main(["posr", "--manifest", str(manifest), "--method", "texttiling",
                 "--out", str(out)]) == 0
    tid = Path(doc["transcripts"][0]).stem
    assert (out / f"{tid}.pred.jsonl").read_bytes() == b"\n"


SCORING_COMMANDS = [["segment", "--method", "texttiling"], ["posr", "--method", "texttiling"]]
WINDOW_CELLS = ("pk_line", "pk_time", "wd_line", "wd_time")


def scored_rows(command, manifest, out) -> dict[str, dict[str, str]]:
    """Runs a scoring command, which must succeed and write its run manifest,
    and returns its metrics rows by transcript id."""
    assert main([*command, "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "run_manifest.json").exists()
    report = {"segment": "segmentation_metrics.csv", "posr": "posr_metrics.csv"}[command[0]]
    with open(out / report, newline="", encoding="utf-8") as fh:
        return {row["transcript_id"]: row for row in csv.DictReader(fh)}


@pytest.mark.parametrize("command", SCORING_COMMANDS)
@pytest.mark.parametrize("n_lines", [0, 1])
def test_transcript_too_short_to_score_gets_empty_window_cells(synthetic_dir, tmp_path,
                                                               command, n_lines):
    doc = json.loads((synthetic_dir / "manifest.json").read_text())
    tid = Path(doc["transcripts"][1]).stem
    for path in (synthetic_dir / doc["transcripts"][1],
                 synthetic_dir / doc["annotations"][tid]):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:n_lines]))
    rows = scored_rows(command, synthetic_dir / "manifest.json", tmp_path / "o")
    assert list(rows) == [Path(t).stem for t in doc["transcripts"]]
    for row_tid, row in rows.items():
        short = row_tid == tid
        assert [row[cell] == "" for cell in WINDOW_CELLS] == [short] * 4
        assert row["seg_count_diff"] != ""
        if command[0] == "posr":
            assert [row["srs_line"] == "", row["srs_time"] == ""] == [short and n_lines == 0] * 2


@pytest.mark.parametrize("command", SCORING_COMMANDS)
def test_zero_duration_transcript_gets_an_empty_srs_time_cell(synthetic_dir, tmp_path, command):
    doc = json.loads((synthetic_dir / "manifest.json").read_text())
    path = synthetic_dir / doc["transcripts"][0]
    lines = load_transcript(path).lines
    save_transcript(Transcript(path.stem, tuple(line._replace(start_ms=0, end_ms=0)
                                                for line in lines)), path)
    rows = scored_rows(command, synthetic_dir / "manifest.json", tmp_path / "o")
    assert list(rows) == [Path(t).stem for t in doc["transcripts"]]
    for row_tid, row in rows.items():
        assert "" not in [row[cell] for cell in (*WINDOW_CELLS, "seg_count_diff")]
        if command[0] == "posr":
            assert row["srs_line"] != ""
            assert (row["srs_time"] == "") == (row_tid == path.stem)


@pytest.mark.parametrize("folds", ["0", "-2"])
def test_calibrate_with_no_folds_is_a_usage_error(synthetic_dir, tmp_path, capsys, folds):
    assert main(["calibrate", "--manifest", str(synthetic_dir / "manifest.json"),
                 "--folds", folds, "--out", str(tmp_path / "c")]) == 2
    assert "at least 1 fold" in one_error_line(capsys)


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


def test_cli_import_does_not_load_scipy():
    """Nor the LLM client and runner or the analyses: only the commands that
    use them import them, so a lexical command starts without them."""
    src = str(Path(posr.__file__).resolve().parents[1])
    unused = {"scipy", "posr.llm", "posr.analysis", "http.client", "concurrent.futures"}
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import posr.cli; "
         f"print(sorted({sorted(unused)!r} & sys.modules.keys()))"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert probe.stdout.strip() == "[]"


# --- LLM methods through the CLI, replayed from a cassette

LLM_PRICES = {"m": {"input_usd_per_1k": 0.5, "output_usd_per_1k": 1.5}}
_INDEXED_LINE = re.compile(r"^\d+ \S+: ", re.M)
_PROBLEM_ID = re.compile(r"^Problem ID (\S+): ", re.M)


def llm_responder(req: ChatRequest) -> str:
    """Deterministic replies for every prompt kind. Segments are 4 lines
    long; a transcript of 40-something lines gets a prose reply, which the
    runner flags; retrieval names a problem picked from the prompt."""
    ids = _PROBLEM_ID.findall(req.user)
    if "Segment:\n" in req.user:
        return ids[len(req.user) % len(ids)]
    n = len(_INDEXED_LINE.findall(req.user))
    if 40 <= n < 50:
        return "The segments are hard to tell apart."
    spans = [(s, min(s + 4, n) - 1) for s in range(0, n, 4)]
    if "list of lists" in req.system:
        return json.dumps([list(span) for span in spans])
    return json.dumps([{"start_line_idx": a, "end_line_idx": b,
                        "problem_id": ids[(a // 4) % len(ids)]} for a, b in spans])


@pytest.fixture
def llm_corpus(tmp_path):
    out = tmp_path / "llm_corpus"
    assert main(["gen-corpus", "--out", str(out), "--seed", "3",
                 "--n-transcripts", "12"]) == 0
    prices = tmp_path / "prices.json"
    prices.write_text(json.dumps(LLM_PRICES), encoding="utf-8")
    return out / "manifest.json", prices


def sequential_reports(manifest, cassette, method) -> dict[str, bytes]:
    """The CLI's reports, built from one run_posr_llm call per transcript,
    in order, each recorded into the cassette as it goes."""
    corpus = load_corpus(load_manifest(manifest))
    client = CassetteClient(cassette, inner=ScriptedClient(llm_responder))
    kind = PromptKind(LLM_METHODS[method])
    results = [run_posr_llm(client, "m", e.transcript, e.worksheet, kind)
               for e in corpus.entries]
    reports = {}
    rows = []
    cost = cost_per_100([r.usage for r in results], "m", LLM_PRICES)
    for entry, result in zip(corpus.entries, results):
        reports[f"{entry.transcript.id}.pred.jsonl"] = "".join(
            json.dumps({"line_index": i, "segment_id": seg, "ref": ref.serialize()}) + "\n"
            for i, (seg, ref) in enumerate(line_pairs(result.labeling))).encode()
        report = evaluate(result.labeling, entry.gold, entry.transcript)
        rows.append({"transcript_id": entry.transcript.id, **report.as_row(),
                     "cost_usd_per_100": cost})
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=POSR_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    reports["posr_metrics.csv"] = buf.getvalue().encode()
    failed = [e.transcript.id for e, r in zip(corpus.entries, results) if r.parse_failed]
    if failed:
        reports["failed_transcripts.json"] = (json.dumps(failed, indent=2) + "\n").encode()
    return reports


@pytest.mark.parametrize("method", list(LLM_METHODS))
def test_posr_llm_reports_match_a_sequential_loop(llm_corpus, tmp_path, method):
    manifest, prices = llm_corpus
    cassette = tmp_path / "cassette.json"
    expected = sequential_reports(manifest, cassette, method)
    out = tmp_path / "posr"
    assert main(["posr", "--manifest", str(manifest), "--method", method, "--model", "m",
                 "--cassette", str(cassette), "--prices", str(prices),
                 "--out", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}
    assert written == expected
    assert "failed_transcripts.json" in expected  # the prose reply is covered


def test_posr_llm_transport_failure_is_scored_and_flagged(llm_corpus, tmp_path):
    manifest, prices = llm_corpus
    corpus = load_corpus(load_manifest(manifest))
    cassette = tmp_path / "cassette.json"
    recorder = CassetteClient(cassette, inner=ScriptedClient(llm_responder))
    missing = corpus.entries[1]
    for entry in corpus.entries:
        if entry is not missing:
            run_posr_llm(recorder, "m", entry.transcript, entry.worksheet,
                         PromptKind(LLM_METHODS["independent-llm"]))
    out = tmp_path / "posr"
    # replay only: the missing transcript's first request raises TransportError
    assert main(["posr", "--manifest", str(manifest), "--method", "independent-llm",
                 "--model", "m", "--cassette", str(cassette), "--prices", str(prices),
                 "--out", str(out)]) == 0
    tid = missing.transcript.id
    with open(out / "posr_metrics.csv", newline="", encoding="utf-8") as fh:
        rows = {row["transcript_id"]: row for row in csv.DictReader(fh)}
    assert list(rows) == [e.transcript.id for e in corpus.entries]
    n = len(missing.transcript)
    fallback = per_line_labeling(tuple((0, REF_NONE) for _ in range(n)))
    report = evaluate(fallback, missing.gold, missing.transcript).as_row()
    assert {k: rows[tid][k] for k in report} == {k: str(v) for k, v in report.items()}
    pred = [json.loads(line) for line in (out / f"{tid}.pred.jsonl").read_text().splitlines()]
    assert pred == [{"line_index": i, "segment_id": 0, "ref": "null"} for i in range(n)]
    assert tid in json.loads((out / "failed_transcripts.json").read_text())


def test_posr_llm_prices_the_tokens_of_a_partly_failed_transcript(llm_corpus, tmp_path):
    manifest, prices = llm_corpus
    corpus = load_corpus(load_manifest(manifest))
    cassette = tmp_path / "cassette.json"
    kind = PromptKind(LLM_METHODS["independent-llm"])
    # the first transcript whose segmentation reply parses
    partial = next(e for e in corpus.entries if not 40 <= len(e.transcript) < 50)
    recorder = CassetteClient(cassette, inner=ScriptedClient(llm_responder))
    usages = {e.transcript.id: run_posr_llm(recorder, "m", e.transcript, e.worksheet, kind).usage
              for e in corpus.entries if e is not partial}

    def segmentation_only(req):
        if "Segment:\n" in req.user:
            raise TransportError("endpoint down")
        return llm_responder(req)

    scripted = ScriptedClient(segmentation_only)
    result = run_posr_llm(CassetteClient(cassette, inner=scripted), "m",
                          partial.transcript, partial.worksheet, kind)
    assert isinstance(result.error, TransportError)
    # every retrieval request was sent, also after the first one raised
    segmentation, *retrievals = scripted.calls
    assert len(retrievals) == len(json.loads(llm_responder(segmentation)))
    assert all("Segment:\n" in retrieval.user for retrieval in retrievals)
    # ScriptedClient counts whitespace-separated words as tokens
    usages[partial.transcript.id] = TokenUsage(
        len(segmentation.system.split()) + len(segmentation.user.split()),
        len(llm_responder(segmentation).split()), 1)
    assert result.usage == usages[partial.transcript.id]

    out = tmp_path / "posr"
    # replay only: the partial transcript's retrieval request misses and raises
    assert main(["posr", "--manifest", str(manifest), "--method", "independent-llm",
                 "--model", "m", "--cassette", str(cassette), "--prices", str(prices),
                 "--out", str(out)]) == 0
    assert partial.transcript.id in json.loads((out / "failed_transcripts.json").read_text())
    expected = cost_per_100([usages[e.transcript.id] for e in corpus.entries], "m", LLM_PRICES)
    with open(out / "posr_metrics.csv", newline="", encoding="utf-8") as fh:
        costs = {row["cost_usd_per_100"] for row in csv.DictReader(fh)}
    assert costs == {str(expected)}
