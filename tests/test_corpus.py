import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posr.corpus import (
    Corpus,
    CorpusEntry,
    CorpusError,
    SyntheticSpec,
    _decode_line,
    corpus_stats,
    encode_annotation,
    generate_synthetic,
    load_annotation,
    load_corpus,
    load_manifest,
    load_transcript,
    load_worksheet,
    save_annotation,
    save_transcript,
    write_corpus,
)
from posr.model import (
    REF_NONE,
    REF_NOT_IN_CORPUS,
    Labeling,
    Line,
    ModelError,
    Problem,
    RefLabel,
    Transcript,
    Worksheet,
    labeling_to_spans,
)
from posr.retrieval import RetrieverConfig, retrieval_accuracy


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_transcript_basic(tmp_path):
    path = tmp_path / "t1.jsonl"
    write_lines(path, [
        {"index": 0, "speaker": "[TUTOR]", "utterance": "hi", "start_ms": 0, "end_ms": 1000},
        {"index": 1, "speaker": "[STUDENT]", "utterance": "hello", "start_ms": 1000, "end_ms": 2000},
        {"index": 2, "speaker": "[TUTOR]", "utterance": "ok", "start_ms": 2000, "end_ms": 2500},
    ])
    t = load_transcript(path)
    assert len(t) == 3
    assert t.id == "t1"


def test_load_transcript_missing_field_names_it(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [{"index": 0, "speaker": "s", "utterance": "u", "start_ms": 0}])
    with pytest.raises(CorpusError, match="end_ms"):
        load_transcript(path)


def test_load_transcript_non_monotone(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        {"index": 0, "speaker": "s", "utterance": "a", "start_ms": 0, "end_ms": 1000},
        {"index": 1, "speaker": "s", "utterance": "b", "start_ms": 5000, "end_ms": 6000},
        {"index": 2, "speaker": "s", "utterance": "c", "start_ms": 3000, "end_ms": 7000},
    ])
    with pytest.raises(CorpusError):
        load_transcript(path)


def test_load_worksheet(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "id": "w1",
        "problems": [{"id": f"P{i}", "text": f"problem {i}"} for i in range(1, 17)],
    }))
    ws = load_worksheet(path)
    assert len(ws.problems) == 16

    path.write_text(json.dumps({"id": "w2", "problems": []}))
    with pytest.raises(CorpusError):
        load_worksheet(path)

    path.write_text(json.dumps({
        "id": "w3",
        "problems": [{"id": "P3", "text": "a"}, {"id": "P3", "text": "b"}],
    }))
    with pytest.raises(CorpusError):
        load_worksheet(path)

    # integer ids are read in decimal
    path.write_text(json.dumps({"id": 7, "problems": [{"id": 3, "text": "a"}]}))
    assert load_worksheet(path) == Worksheet("7", (Problem("3", "a"),))


def test_annotation_requires_full_cover(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, [{"line_index": 0, "segment_id": 0, "ref": "null"}])
    with pytest.raises(CorpusError):
        load_annotation(path, 2)



def at(path, lineno=None):
    """Pattern for an error message that names the file (and line)."""
    return "^" + re.escape(f"{path}:{lineno}" if lineno else f"{path}:")


GOOD_LINE = {"index": 0, "speaker": "s", "utterance": "u", "start_ms": 0, "end_ms": 1000}


@pytest.mark.parametrize("bad", [
    {**GOOD_LINE, "index": "x"},
    {**GOOD_LINE, "start_ms": None},
    {**GOOD_LINE, "end_ms": [1000]},
    {**GOOD_LINE, "end_ms": float("inf")},
    [0, "s", "u", 0, 1000],
    5,
    "index",
    {**GOOD_LINE, "speaker": None, "utterance": None},
    {**GOOD_LINE, "speaker": True},
    {**GOOD_LINE, "utterance": ["u"]},
    {**GOOD_LINE, "utterance": 5},
    {**GOOD_LINE, "index": "1"},
    {**GOOD_LINE, "index": True},
    {**GOOD_LINE, "index": 1.0},
    {**GOOD_LINE, "start_ms": 12.7},
    {**GOOD_LINE, "end_ms": 1500.9},
    {**GOOD_LINE, "start_ms": False},
    {**GOOD_LINE, "end_ms": "1000"},
])
def test_load_transcript_mistyped_record_names_file_and_line(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    write_lines(path, [GOOD_LINE, bad])
    with pytest.raises(CorpusError, match=at(path, 2)):
        load_transcript(path)


@pytest.mark.parametrize("text", [
    '{"worksheets": {}, "split": "test"}',
    '{"transcripts": ["a.jsonl"]}',
    '{"transcripts": ["a.jsonl"], "worksheets": {}, "annotations": 3}',
    '{"transcripts": 5, "worksheets": {}}',
    '{"transcripts": [5], "worksheets": {}}',
    '{"transcripts": ["a.jsonl"], "worksheets": {"a": 5}}',
    '{"transcripts": ["a.jsonl"], "worksheets": {"a": "w.json"}, "annotations": {"a": null}}',
    '{"transcripts": ["a.jsonl"], "worksheets": {}}',
    '["a.jsonl"]',
    '{"transcripts": ["a.jsonl"], ',
    "",
])
def test_load_manifest_malformed_names_file(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(CorpusError, match=at(path)):
        load_manifest(path)


@pytest.mark.parametrize("key, value, message", [
    ("transcripts", "synthetic-1-000.jsonl", "transcripts must be a list, not str"),
    ("worksheets", [["synthetic-1-000", "w.json"]], "worksheets must be an object, not list"),
    ("annotations", [], "annotations must be an object or null, not list"),
    ("split", ["x"], "split must be a string, not list"),
    ("split", None, "split must be a string, not NoneType"),
])
def test_load_manifest_checks_the_type_of_each_field(tmp_path, key, value, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"transcripts": ["synthetic-1-000.jsonl"],
                                "worksheets": {"synthetic-1-000": "w.json"}, key: value}))
    with pytest.raises(CorpusError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: malformed manifest: {message}"


def test_load_manifest_fills_absent_annotations_and_split(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"transcripts": ["a.jsonl"], "worksheets": {"a": "w.json"},
                                "annotations": None}))
    manifest = load_manifest(path)
    assert (manifest.transcripts, manifest.worksheets) == (["a.jsonl"], {"a": "w.json"})
    assert (manifest.annotations, manifest.split) == (None, "test")
    path.write_text(json.dumps({"transcripts": [], "worksheets": {}}))
    manifest = load_manifest(path)
    assert (manifest.annotations, manifest.split) == (None, "test")


@pytest.mark.parametrize("paths", [["a/x.jsonl", "b/x.jsonl"], ["x.jsonl", "x.jsonl"]])
def test_load_manifest_rejects_transcripts_sharing_an_id(tmp_path, paths):
    # one id would give two transcripts one worksheet entry and one output file
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"transcripts": paths, "worksheets": {"x": "w.json"}}))
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}: transcripts {paths[0]} and {paths[1]} both have id 'x'")):
        load_manifest(path)


# characters str.splitlines breaks lines at, which JSON allows raw in a string
LINE_BREAKING_CHARS = ["\u2028", "\u2029", "\x85"]


@pytest.mark.parametrize("char", LINE_BREAKING_CHARS)
def test_load_transcript_keeps_raw_line_breaking_characters(tmp_path, char):
    path = tmp_path / "t.jsonl"
    rec = {"index": 0, "speaker": "[TUTOR]", "utterance": f"one{char}two", "start_ms": 0,
           "end_ms": 1}
    path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    assert load_transcript(path).lines == (Line(0, "[TUTOR]", f"one{char}two", 0, 1),)


@pytest.mark.parametrize("char", LINE_BREAKING_CHARS)
def test_load_annotation_keeps_raw_line_breaking_characters(tmp_path, char):
    path = tmp_path / "a.jsonl"
    recs = [{"line_index": 0, "segment_id": 0, "ref": f"P{char}1"},
            {"line_index": 1, "segment_id": 1, "ref": "null"}]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in recs),
                    encoding="utf-8")
    assert load_annotation(path, 2).per_line == ((0, RefLabel.problem(f"P{char}1")),
                                                 (1, REF_NONE))


def test_annotation_with_arbitrary_segment_ids_round_trips(tmp_path):
    path = tmp_path / "a.jsonl"
    recs = [(2, -3, "P2"), (0, 7, "P1"), (1, 7, "P1"), (3, 42, "null"), (4, 42, "null")]
    path.write_text("".join(json.dumps({"line_index": i, "segment_id": seg, "ref": ref}) + "\n"
                            for i, seg, ref in recs), encoding="utf-8")
    loaded = load_annotation(path, 5)
    save_annotation(loaded, tmp_path / "b.jsonl")
    assert load_annotation(tmp_path / "b.jsonl", 5) == loaded
    # written as runs, numbered 0, 1, ...
    assert [json.loads(raw)["segment_id"] for raw in encode_annotation(loaded).splitlines()] == \
        [0, 0, 1, 2, 2]


def test_load_annotation_duplicate_line_names_file_and_line(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, [
        {"line_index": 0, "segment_id": 0, "ref": "null"},
        {"line_index": 1, "segment_id": 0, "ref": "null"},
        {"line_index": 0, "segment_id": 1, "ref": "null"},
    ])
    with pytest.raises(CorpusError, match=at(path, 3) + ".*duplicate"):
        load_annotation(path, 2)


@pytest.mark.parametrize("bad", [
    {"line_index": "one", "segment_id": 0, "ref": "null"},
    {"line_index": 1, "segment_id": None, "ref": "null"},
    {"line_index": float("inf"), "segment_id": 0, "ref": "null"},
    [1, 0, "null"],
    7,
    {"line_index": 1, "segment_id": 0, "ref": None},
    {"line_index": 1, "segment_id": 0, "ref": True},
    {"line_index": 1, "segment_id": 0, "ref": ["P1"]},
    {"line_index": 1, "segment_id": 0, "ref": 1.0},
    {"line_index": 0.9, "segment_id": 0, "ref": "null"},
    {"line_index": 1.0, "segment_id": 0, "ref": "null"},
    {"line_index": True, "segment_id": 0, "ref": "null"},
    {"line_index": "1", "segment_id": 0, "ref": "null"},
    {"line_index": 1, "segment_id": 0.0, "ref": "null"},
    {"line_index": 1, "segment_id": False, "ref": "null"},
    {"line_index": 1, "segment_id": "0", "ref": "null"},
])
def test_load_annotation_mistyped_record_names_file_and_line(tmp_path, bad):
    path = tmp_path / "a.jsonl"
    write_lines(path, [{"line_index": 0, "segment_id": 0, "ref": "null"}, bad])
    with pytest.raises(CorpusError, match=at(path, 2)):
        load_annotation(path, 2)


# one value of each JSON type that some field does not accept, by the name
# the error gives its type
WRONG_VALUES = {"bool": True, "float": 1.0, "str": "1", "NoneType": None, "list": [1]}
# every field of each record type, with the JSON types it accepts as the
# error words them
FIELD_RULES = [
    ("transcript", "index", "an integer"),
    ("transcript", "speaker", "a string"),
    ("transcript", "utterance", "a string"),
    ("transcript", "start_ms", "an integer"),
    ("transcript", "end_ms", "an integer"),
    ("annotation", "line_index", "an integer"),
    ("annotation", "segment_id", "an integer"),
    ("annotation", "ref", "a string or an integer"),
    ("worksheet", "id", "a string or an integer"),
    ("problem", "id", "a string or an integer"),
    ("problem", "text", "a string"),
]


@pytest.mark.parametrize("record, key, kinds, type_name", [
    pytest.param(record, key, kinds, type_name, id=f"{record}-{key}-{type_name}")
    for record, key, kinds in FIELD_RULES for type_name in WRONG_VALUES
    if not (type_name == "str" and "string" in kinds)
])
def test_integer_fields_must_be_json_integers(tmp_path, record, key, kinds, type_name):
    value = WRONG_VALUES[type_name]
    wrong = f"{key} must be {kinds}, not {type_name}"
    if record == "transcript":
        path = tmp_path / "t.jsonl"
        write_lines(path, [{**GOOD_LINE, key: value}])
        load, want = lambda: load_transcript(path), f"{path}:1: malformed record: {wrong}"
    elif record == "annotation":
        path = tmp_path / "a.jsonl"
        write_lines(path, [{"line_index": 0, "segment_id": 0, "ref": "null", key: value}])
        load, want = lambda: load_annotation(path, 1), f"{path}:1: malformed record: {wrong}"
    else:
        doc = {"id": "w", "problems": [{"id": "P1", "text": "a"}]}
        (doc if record == "worksheet" else doc["problems"][0])[key] = value
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        load, want = lambda: load_worksheet(path), f"{path}: malformed worksheet: {wrong}"
    with pytest.raises(CorpusError) as info:
        load()
    assert str(info.value) == want


def test_the_first_mistyped_field_in_check_order_is_named(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [{**GOOD_LINE, "end_ms": 1500.9, "start_ms": 12.7, "index": "0"}])
    with pytest.raises(CorpusError) as info:
        load_transcript(path)
    assert str(info.value) == f"{path}:1: malformed record: index must be an integer, not str"
    path = tmp_path / "a.jsonl"
    write_lines(path, [{"ref": None, "segment_id": True, "line_index": 0}])
    with pytest.raises(CorpusError) as info:
        load_annotation(path, 1)
    assert str(info.value) == f"{path}:1: malformed record: segment_id must be an integer, not bool"


def test_load_annotation_integer_ref_is_a_problem_id(tmp_path):
    path = tmp_path / "a.jsonl"
    write_lines(path, [{"line_index": 0, "segment_id": 0, "ref": 3},
                       {"line_index": 1, "segment_id": 1, "ref": -1}])
    assert load_annotation(path, 2).refs == [RefLabel.problem("3"), REF_NOT_IN_CORPUS]


@pytest.mark.parametrize("doc", [
    {"id": None, "problems": [{"id": "P1", "text": "a"}]},
    {"id": "w", "problems": [{"id": None, "text": "a"}]},
    {"id": "w", "problems": [{"id": "P1", "text": True}]},
    {"id": True, "problems": [{"id": "P1", "text": "a"}]},
    {"id": "w", "problems": [{"id": 1.0, "text": "a"}]},
    {"id": "w", "problems": [{"id": "P1", "text": 7}]},
])
def test_load_worksheet_mistyped_field_names_file(tmp_path, doc):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorpusError, match=at(path) + " malformed worksheet"):
        load_worksheet(path)


@pytest.mark.parametrize("doc, message", [
    ([1], "a worksheet is a JSON object"),
    ({"id": "w"}, "missing field problems"),
    ({"problems": [{"id": "P1", "text": "a"}]}, "missing field id"),
    ({"id": "w", "problems": "abc"}, "malformed worksheet: problems must be a list, not str"),
    ({"id": "w", "problems": {"id": "P1"}}, "malformed worksheet: problems must be a list, not dict"),
    ({"id": "w", "problems": 3}, "malformed worksheet: problems must be a list, not int"),
    ({"id": "w", "problems": [{"id": "P1", "text": "a"}, ["P2", "b"]]},
     "malformed worksheet: each problem must be an object, not list"),
    ({"id": "w", "problems": [{"id": "P1"}]}, "missing field text"),
])
def test_load_worksheet_malformed_structure_names_file(tmp_path, doc, message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorpusError) as info:
        load_worksheet(path)
    assert str(info.value) == f"{path}: {message}"


# one malformation each: the bad line's text made from a good record and the
# name of its first field, and the error text after "path:line: "
MALFORMATIONS = [
    pytest.param(lambda rec, first: json.dumps({k: v for k, v in rec.items() if k != first}),
                 "missing field {first}", id="missing-field"),
    pytest.param(lambda rec, first: json.dumps(rec)[:-1] + ",",
                 "invalid JSON: Expecting property name enclosed in double quotes: "
                 "line 1 column {end} (char {end_char})", id="invalid-json"),
    pytest.param(lambda rec, first: json.dumps(list(rec.values())),
                 "malformed record: list indices must be integers or slices, not str",
                 id="not-an-object"),
    pytest.param(lambda rec, first: json.dumps({**rec, first: str(rec[first])}),
                 "malformed record: {first} must be an integer, not str", id="mistyped-field"),
]


@pytest.mark.parametrize("blank_lines", [0, 2])
@pytest.mark.parametrize("damage, message", MALFORMATIONS)
def test_transcript_and_annotation_word_one_malformation_alike(tmp_path, damage, message,
                                                               blank_lines):
    for name, first, good, load in [
            ("t.jsonl", "index", GOOD_LINE, load_transcript),
            ("a.jsonl", "line_index", {"line_index": 0, "segment_id": 0, "ref": "null"},
             lambda path: load_annotation(path, 2))]:
        path = tmp_path / name
        bad = damage(good, first)
        path.write_text(json.dumps(good) + "\n" + " \n" * blank_lines + bad + "\n")
        with pytest.raises(CorpusError) as info:
            load(path)
        want = message.format(first=first, end=len(bad) + 1, end_char=len(bad))
        assert str(info.value) == f"{path}:{2 + blank_lines}: {want}"


LONG_INT = "1" + "0" * 5000  # past Python's limit on the digits int() converts


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits")
@pytest.mark.parametrize("name, text, load", [
    ("t.jsonl", f'{{"index": {LONG_INT}, "speaker": "a", "utterance": "b", "start_ms": 0, '
                f'"end_ms": 1}}', load_transcript),
    ("a.jsonl", f'{{"line_index": {LONG_INT}, "segment_id": 0, "ref": "null"}}',
     lambda path: load_annotation(path, 1)),
    ("w.json", f'{{"id": {LONG_INT}, "problems": []}}', load_worksheet),
    ("m.json", f'{{"transcripts": [], "worksheets": {{}}, "split": {LONG_INT}}}', load_manifest),
], ids=["transcript", "annotation", "worksheet", "manifest"])
def test_an_integer_json_cannot_convert_is_invalid_json(tmp_path, name, text, load):
    path = tmp_path / name
    path.write_text(text + "\n")
    where = f"{path}:1:" if name.endswith(".jsonl") else f"{path}:"
    with pytest.raises(CorpusError) as info:
        load(path)
    assert str(info.value).startswith(f"{where} invalid JSON: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


# values one step from a valid field: a boolean, float or digit string where
# an integer belongs, null, or an integer out of order
NEAR_MISSES = (st.sampled_from([True, False, 0.0, 0.9, 1.0, 12.7, "0", "1", None])
               | st.integers(-5000, 5000))


@st.composite
def damaged_records(draw, records):
    """``records`` with one record damaged: a field retyped, a field
    dropped, the record replaced by another JSON value, or its text cut."""
    records = [dict(r) for r in records]
    i = draw(st.integers(0, len(records) - 1))
    lines = [json.dumps(r) for r in records]
    how = draw(st.sampled_from(["retype", "drop", "replace", "truncate", "duplicate"]))
    key = draw(st.sampled_from(sorted(records[i])))
    if how == "retype":
        records[i][key] = draw(JSON_VALUES | NEAR_MISSES)
        lines[i] = json.dumps(records[i])
    elif how == "drop":
        del records[i][key]
        lines[i] = json.dumps(records[i])
    elif how == "replace":
        lines[i] = json.dumps(draw(JSON_VALUES))
    elif how == "truncate":
        lines[i] = lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


TRANSCRIPT_RECORDS = [
    {"index": i, "speaker": "[TUTOR]", "utterance": f"line {i}",
     "start_ms": 1000 * i, "end_ms": 1000 * i + 900}
    for i in range(3)
]
ANNOTATION_RECORDS = [
    {"line_index": i, "segment_id": i // 2, "ref": ["P1", "-1", "null"][i]} for i in range(3)
]


@settings(max_examples=300, deadline=None)
@given(damaged_records(TRANSCRIPT_RECORDS))
def test_load_transcript_raises_only_corpus_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("t") / "t.jsonl"
    path.write_text(text)
    try:
        load_transcript(path)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}:")


@settings(max_examples=300, deadline=None)
@given(damaged_records(ANNOTATION_RECORDS))
def test_load_annotation_raises_only_corpus_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("a") / "a.jsonl"
    path.write_text(text)
    try:
        load_annotation(path, 3)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}:")


# ---------------------------------------------------------------------------
# the column loaders against a per-record reference loader


def reference_field(rec, key, kinds, want):
    """``rec[key]`` when its type is exactly one of ``kinds``."""
    value = rec[key]
    if type(value) in kinds:
        return value
    raise TypeError(f"{key} must be {want}, not {type(value).__name__}")


def reference_int(rec, key):
    return reference_field(rec, key, (int,), "an integer")


def reference_text(rec, key):
    return reference_field(rec, key, (str,), "a string")


def reference_id(rec, key):
    return str(reference_field(rec, key, (str, int), "a string or an integer"))


def reference_load_transcript(path):
    """One record at a time, every field checked as it is read: the loader
    before the column pass, with integer fields required to be JSON
    integers."""
    lines = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            lines.append(Line(
                index=reference_int(rec, "index"),
                speaker=reference_text(rec, "speaker"),
                utterance=reference_text(rec, "utterance"),
                start_ms=reference_int(rec, "start_ms"),
                end_ms=reference_int(rec, "end_ms"),
            ))
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc.args[0]}") from exc
        except ModelError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
    try:
        return Transcript(id=path.stem, lines=tuple(lines))
    except ModelError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def reference_load_annotation(path, n_lines):
    """The annotation loader before the column pass, with the same integer
    rule."""
    records = {}
    refs = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            line_index = reference_int(rec, "line_index")
            segment_id = reference_int(rec, "segment_id")
            raw_ref = reference_id(rec, "ref")
            ref = refs.setdefault(raw_ref, RefLabel.deserialize(raw_ref))
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc.args[0]}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if line_index in records:
            raise CorpusError(f"{path}:{lineno}: duplicate line_index {line_index}")
        records[line_index] = (segment_id, ref)
    if sorted(records) != list(range(n_lines)):
        raise CorpusError(f"{path}: annotation does not cover lines 0..{n_lines - 1}")
    try:
        return Labeling(tuple(records[i] for i in range(n_lines)))
    except ModelError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def load_outcome(load, *args):
    """What ``load(*args)`` gives: the loaded value, or the CorpusError text."""
    try:
        return "value", load(*args)
    except CorpusError as exc:
        return "error", str(exc)


BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def with_blank_lines(draw, text):
    """``text`` with whitespace-only lines put between its lines."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK_LINES))
    return "\n".join(lines) + "\n"


@st.composite
def shuffled_annotations(draw):
    """Annotation text for a few lines in any order, maybe with blank lines,
    whose segment ids and refs may break the labeling's rules, and a line
    count that may not match."""
    n = draw(st.integers(0, 6))
    records = [{"line_index": i, "segment_id": draw(st.integers(0, 2)),
                "ref": draw(st.sampled_from(["P1", "-1", "null", 3, "3"]))} for i in range(n)]
    text = "".join(json.dumps(r) + "\n" for r in draw(st.permutations(records)))
    return draw(with_blank_lines(text)), n + draw(st.sampled_from([0, 0, 0, -1, 1]))


def jsonl(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


T0, T1, T2 = TRANSCRIPT_RECORDS
A0, A1, A2 = ANNOTATION_RECORDS


@settings(max_examples=300, deadline=None)
@given(damaged_records(TRANSCRIPT_RECORDS).flatmap(with_blank_lines))
@example("\n")
@example(jsonl(T0, {**T1, "end_ms": T1["start_ms"] - 1}, T2))
@example(jsonl({**T0, "index": False}, T1, T2))
@example(jsonl(T0, {**T1, "start_ms": 1000.0}, T2))
@example(jsonl(T0, {**T1, "speaker": 7}, {**T2, "end_ms": 0}))
def test_load_transcript_equals_the_per_record_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("t") / "t.jsonl"
    path.write_text(text)
    outcome = load_outcome(load_transcript, path)
    assert outcome == load_outcome(reference_load_transcript, path)
    if outcome[0] == "value":  # a tuple of the same fields would compare equal too
        assert {type(line) for line in outcome[1].lines} <= {Line}


@settings(max_examples=300, deadline=None)
@given(damaged_records(ANNOTATION_RECORDS).flatmap(with_blank_lines))
@example(jsonl(A0, A1, {**A2, "ref": 1.5}))
@example(jsonl({**A0, "line_index": False}, A1, A2))
@example(jsonl(A0, {**A1, "segment_id": 0.0}, A2))
@example(jsonl(A0, A1, A2, A1))
def test_load_annotation_equals_the_per_record_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("a") / "a.jsonl"
    path.write_text(text)
    assert (load_outcome(load_annotation, path, 3)
            == load_outcome(reference_load_annotation, path, 3))


@settings(max_examples=300, deadline=None)
@given(shuffled_annotations())
@example(("", 0))
def test_load_shuffled_annotation_equals_the_per_record_reference(tmp_path_factory, case):
    text, n_lines = case
    path = tmp_path_factory.mktemp("a") / "a.jsonl"
    path.write_text(text)
    assert (load_outcome(load_annotation, path, n_lines)
            == load_outcome(reference_load_annotation, path, n_lines))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 0, 1]), st.sampled_from(["id", "text", "problems"]), JSON_VALUES)
def test_load_worksheet_raises_only_corpus_error(tmp_path_factory, problem, key, value):
    doc = {"id": "w", "problems": [{"id": "P1", "text": "a"}, {"id": "P2", "text": "b"}]}
    target = doc if problem is None else doc["problems"][problem]
    target[key] = value
    path = tmp_path_factory.mktemp("w") / "w.json"
    path.write_text(json.dumps(doc))
    try:
        load_worksheet(path)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}:")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["transcripts", "worksheets", "annotations", "split"]), JSON_VALUES)
@example("annotations", ["00", [None, ""]])  # pairs that give a None transcript id
def test_load_manifest_raises_only_corpus_error(tmp_path_factory, key, value):
    doc = {"transcripts": ["a.jsonl"], "worksheets": {"a": "w.json"},
           "annotations": {"a": "a.labels.jsonl"}, "split": "test", key: value}
    path = tmp_path_factory.mktemp("m") / "manifest.json"
    path.write_text(json.dumps(doc))
    try:
        load_manifest(path)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}:")


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a == b


def test_generate_synthetic_single_segment():
    spec = SyntheticSpec(segments_per_transcript=(1, 1), seed=3)
    corpus = generate_synthetic(spec)
    for entry in corpus.entries:
        assert entry.gold.num_segments() == 1


def test_zero_overlap_jaccard_perfect():
    # by construction each segment shares tokens only with its own problem
    corpus = generate_synthetic(SyntheticSpec(vocab_overlap=0.0, seed=11))
    config = RetrieverConfig(method="jaccard", threshold=0.01)
    assert retrieval_accuracy(config, corpus) == 1.0


def test_write_load_round_trip(tmp_path):
    corpus = generate_synthetic(SyntheticSpec(seed=5, n_transcripts=3))
    manifest_path = write_corpus(corpus, tmp_path / "c")
    loaded = load_corpus(load_manifest(manifest_path))
    assert len(loaded) == len(corpus)
    for orig, back in zip(corpus.entries, loaded.entries):
        assert back.transcript == orig.transcript
        assert back.worksheet == orig.worksheet
        assert back.gold == orig.gold


def test_write_corpus_rejects_two_worksheets_with_one_id(tmp_path):
    first, second = generate_synthetic(SyntheticSpec(seed=5, n_transcripts=2)).entries
    other = Worksheet(first.worksheet.id, first.worksheet.problems[:1])
    corpus = Corpus((first, CorpusEntry(second.transcript, other, second.gold)))
    with pytest.raises(CorpusError) as info:
        write_corpus(corpus, tmp_path / "c")
    assert str(info.value) == "two different worksheets have id 'synthetic-ws'"


def test_save_transcript_writes_the_five_fields_in_order(tmp_path):
    line = Line(1, "[STUDENT]", 'say "caf\u00e9"\u2028', 10, 20)
    save_transcript(Transcript("t", (Line(0, "[TUTOR]", "", 0, 5), line)), tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes().split(b"\n")[1] == (
        b'{"index": 1, "speaker": "[STUDENT]", "utterance": "say \\"caf\\u00e9\\"\\u2028", '
        b'"start_ms": 10, "end_ms": 20}')


def test_corpus_stats_small():
    corpus = generate_synthetic(SyntheticSpec(seed=1, n_transcripts=2))
    stats = corpus_stats(corpus)
    assert stats["total_transcripts"] == 2
    # independent one-pass aggregation over the same entries
    seg_total = sum(len(labeling_to_spans(e.gold)) for e in corpus.entries)
    assert stats["total_segments"] == seg_total
    mean_lines = sum(len(e.transcript) for e in corpus.entries) / 2
    assert stats["mean_lines_per_transcript"] == mean_lines
    mean_mins = sum(e.transcript.duration_ms for e in corpus.entries) / 2 / 60000
    assert stats["mean_duration_mins"] == pytest.approx(mean_mins)


def test_corpus_stats_without_annotations():
    corpus = generate_synthetic(SyntheticSpec(seed=2, n_transcripts=2))
    from posr.corpus import Corpus, CorpusEntry

    stripped = Corpus(
        tuple(CorpusEntry(e.transcript, e.worksheet, None) for e in corpus.entries)
    )
    stats = corpus_stats(stripped)
    assert "total_segments" not in stats
    assert "notice" in stats


# ---------------------------------------------------------------------------
# the JSONL codec against the plain json.loads / json.dumps paths


def decode_outcome(decode, raw):
    """What ``decode(raw)`` gives: the value's repr (which tells 1 from 1.0
    and shows NaN), or the ``JSONDecodeError`` message."""
    try:
        return "value", repr(decode(raw))
    except json.JSONDecodeError as exc:
        return "error", str(exc)


ODD_CHARS = st.sampled_from(['"', "\\", "\x85", "\u2028", "\ufeff", "\x00", "\u00e9", " "])
LINE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(ODD_CHARS | st.characters(), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(ODD_CHARS | st.characters(), max_size=3), inner, max_size=3),
    max_leaves=6,
)
PADDING = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x85\u2028\xa0\ufeff"), max_size=3)


@st.composite
def jsonl_lines(draw):
    """One line's text: a JSON value as written (raw non-ASCII or escaped),
    maybe cut short, padded, behind a BOM, followed by a second value, or
    with a key given twice; or JSON-ish noise."""
    text = json.dumps(draw(LINE_VALUES), ensure_ascii=draw(st.booleans()))
    how = draw(st.sampled_from(
        ["as is", "truncate", "pad", "bom", "two values", "duplicate keys", "noise"]))
    if how == "truncate":
        text = text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    elif how == "pad":
        text = draw(PADDING) + text + draw(PADDING)
    elif how == "bom":
        text = "\ufeff" + text
    elif how == "two values":
        text += draw(st.sampled_from(["", " ", "\x85"])) + json.dumps(draw(LINE_VALUES))
    elif how == "duplicate keys":
        second = json.dumps(draw(LINE_VALUES), ensure_ascii=False)
        text = f'{{"ref": {text}, "k": 1, "ref": {second}}}'
    elif how == "noise":
        text = draw(st.text(st.sampled_from('{}[]":,0123456789.eE+-tfnulsaNIiy \\\x85'),
                            max_size=12))
    return text


@settings(max_examples=500, deadline=None)
@given(jsonl_lines())
def test_decode_line_equals_json_loads(raw):
    assert decode_outcome(_decode_line, raw) == decode_outcome(json.loads, raw)


REF_IDS = st.text(st.sampled_from(['"', "\\", "\u00e9", "\u2028", "\x85", "P", "1", "-", "/"])
                  | st.characters(), max_size=5)


@st.composite
def labelings(draw):
    """A labeling of random segments and ids whose problem refs may hold
    quotes, backslashes and non-ASCII characters; sometimes empty."""
    seg_ids = draw(st.lists(st.integers(-10**12, 10**12), unique=True, max_size=8))
    per_line = []
    for seg in seg_ids:
        ref = draw(st.sampled_from([REF_NONE, REF_NOT_IN_CORPUS])
                   | REF_IDS.map(RefLabel.problem))
        per_line += [(seg, ref)] * draw(st.integers(1, 4))
    return Labeling(tuple(per_line))


def dumps_annotation(labeling):
    """The annotation JSONL written one ``json.dumps`` per line."""
    return "".join(
        json.dumps({"line_index": i, "segment_id": seg, "ref": ref.serialize()}) + "\n"
        for i, (seg, ref) in enumerate(labeling.per_line))


@settings(max_examples=300, deadline=None)
@given(labelings())
@example(Labeling(()))
def test_annotation_codec_equals_json_dumps_and_loads(tmp_path_factory, labeling):
    text = encode_annotation(labeling)
    assert text == dumps_annotation(labeling)
    path = tmp_path_factory.mktemp("a") / "a.jsonl"
    save_annotation(labeling, path)
    assert path.read_bytes() == dumps_annotation(labeling).encode("utf-8")
    oracle = tuple((int(rec["segment_id"]), RefLabel.deserialize(str(rec["ref"])))
                   for rec in map(json.loads, text.splitlines()))
    assert load_annotation(path, len(labeling)).per_line == oracle
