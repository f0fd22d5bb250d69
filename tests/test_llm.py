import itertools
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posr.llm import (
    LLM_CONCURRENCY,
    CassetteClient,
    ChatRequest,
    ChatResponse,
    HttpChatClient,
    LLMConfigError,
    LLMEndpointConfig,
    ParseFailure,
    PromptKind,
    ScriptedClient,
    TransportError,
    build_prompt,
    fallback_labeling,
    parse_joint,
    parse_retrieval,
    parse_segmentation,
    run_posr_llm,
    run_posr_llm_batch,
)
from posr.llm import client as client_module
from posr.llm.parsing import _extract_json_array, _strip_fences
from posr.metrics import TokenUsage, evaluate
from posr.model import (
    Labeling,
    Line,
    Problem,
    REF_NONE,
    REF_NOT_IN_CORPUS,
    RefLabel,
    Transcript,
    Worksheet,
    labeling_to_spans,
)

from conftest import line_refs, per_line_labeling, seg_ids

WS = Worksheet(id="w", problems=(Problem("3", "first problem"), Problem("7", "second problem")))


def small_transcript(n=4):
    return Transcript(id="t", lines=tuple(
        Line(i, "[TUTOR]" if i % 2 == 0 else "[STUDENT]", f"line {i} text",
             i * 1000, (i + 1) * 1000)
        for i in range(n)
    ))


# --- prompt building


def test_joint_prompt_contains_lines_and_problems():
    t = small_transcript(2)
    system, user = build_prompt(PromptKind.JOINT_POSR, t, WS)
    assert "0 [TUTOR]: line 0 text" in user
    assert "1 [STUDENT]: line 1 text" in user
    assert "Problem ID 3: first problem" in user
    assert "Problem ID 7: second problem" in user
    assert "list of JSON objects" in system


def test_retrieval_prompt_requires_worksheet_and_segment():
    t = small_transcript()
    with pytest.raises(ValueError):
        build_prompt(PromptKind.INDEPENDENT_RETRIEVAL, t)
    system, user = build_prompt(PromptKind.INDEPENDENT_RETRIEVAL, t, WS, segment=(1, 2))
    # retrieval lines are rendered without indices
    assert "[STUDENT]: line 1 text" in user
    assert "0 [TUTOR]" not in user


def test_prompt_deterministic_bytes():
    t = small_transcript()
    a = build_prompt(PromptKind.INDEPENDENT_SEGMENTATION, t)
    b = build_prompt(PromptKind.INDEPENDENT_SEGMENTATION, t)
    assert a == b


# --- parsers


def test_parse_segmentation_plain():
    spans = parse_segmentation("[[0,10],[11,20]]", 21)
    assert [(s.start_line, s.end_line) for s in spans] == [(0, 10), (11, 20)]


def test_parse_segmentation_fenced_with_prose():
    spans = parse_segmentation("Here are the segments:\n```[[0,5]]```", 6)
    assert [(s.start_line, s.end_line) for s in spans] == [(0, 5)]


def test_parse_segmentation_failure():
    with pytest.raises(ParseFailure):
        parse_segmentation("I cannot determine segments.", 10)


def test_parse_segmentation_clamps():
    spans = parse_segmentation("[[0, 99]]", 10)
    assert [(s.start_line, s.end_line) for s in spans] == [(0, 9)]


def test_parse_retrieval_values():
    assert parse_retrieval("null", WS) == REF_NONE
    assert parse_retrieval('"NULL"', WS) == REF_NONE
    assert parse_retrieval("-1", WS) == REF_NOT_IN_CORPUS
    assert parse_retrieval("Problem ID 7", WS) == RefLabel.problem("7")
    with pytest.raises(ParseFailure):
        parse_retrieval("the answer is unclear", WS)


# problem ids that hold characters outside [\w.-]
ODD_IDS = Worksheet(id="w", problems=(
    Problem("3", "first problem"), Problem("3(b)", "part b"), Problem("Q 7", "seventh"),
))


@pytest.mark.parametrize("reply, pid", [
    ("3(b)", "3(b)"),  # not problem 3
    ("Problem ID 3(b)", "3(b)"),  # the longest id at the earliest place
    ("Q 7", "Q 7"),  # the exact answer, spaces and all
    ('"Q 7"', "Q 7"),
    ("Problem ID 3", "3"),
    ("3 (b)", "3"),
    ("It is Q 7, then 3(b).", "Q 7"),
    ("3.", "3"),  # a sentence that ends with the id
    ("Problem 3.", "3"),
    ("3. It is about slopes", "3"),
])
def test_parse_retrieval_reads_ids_outside_word_characters(reply, pid):
    assert parse_retrieval(reply, ODD_IDS) == RefLabel.problem(pid)


@pytest.mark.parametrize("reply", ["Q 77", "x3(b)", "Q7", "3.5", "3-b"])
def test_parse_retrieval_id_must_stand_apart(reply):
    with pytest.raises(ParseFailure):
        parse_retrieval(reply, ODD_IDS)


def parse_retrieval_by_tokens(text, worksheet):
    """The token rule: the first ``[\\w.-]+`` token that is a problem id, or
    that is one followed by the ``.`` that ends a sentence."""
    stripped = _strip_fences(text).strip().strip('"').strip()
    if stripped.lower() == "null":
        return REF_NONE
    if stripped == "-1":
        return REF_NOT_IN_CORPUS
    ids = set(worksheet.problem_ids())
    for token in re.findall(r"[\w.-]+", stripped):
        if token in ids:
            return RefLabel.problem(token)
        if token.endswith(".") and token[:-1] in ids:
            return RefLabel.problem(token[:-1])
    raise ParseFailure("no id")


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.text("ab1.-_", min_size=1, max_size=3).filter(lambda pid: pid != "-1"),
                    min_size=1, max_size=5, unique=True),
       reply=st.text("ab1.-_ (),\"`", max_size=14))
def test_parse_retrieval_equals_token_rule_on_word_ids(ids, reply):
    # for ids of word characters, '.' and '-' only, the rule reads what the
    # token rule reads ("-1" is a reserved id, which no worksheet holds)
    ws = Worksheet("w", tuple(Problem(pid, "text") for pid in ids))
    outcomes = []
    for parse in (parse_retrieval, parse_retrieval_by_tokens):
        try:
            outcomes.append(parse(reply, ws))
        except ParseFailure:
            outcomes.append(ParseFailure)
    assert outcomes[0] == outcomes[1]


def test_parse_joint_basic():
    text = '[{"start_line_idx":0,"end_line_idx":9,"problem_id":3}]'
    spans = parse_joint(text, 10, WS)
    assert spans[0].ref == RefLabel.problem("3")

    text = '[{"start_line_idx":0,"end_line_idx":4,"problem_id":-1}]'
    assert parse_joint(text, 5, WS)[0].ref == REF_NOT_IN_CORPUS

    text = '[{"start_line_idx":0,"end_line_idx":4,"problem_id":null}]'
    assert parse_joint(text, 5, WS)[0].ref == REF_NONE


@pytest.mark.parametrize("index", ["2.9", "2.0", "true", '"5"'])
def test_parsers_take_only_json_integers_as_line_indexes(index):
    joint = '[{"start_line_idx": 0, "end_line_idx": %s, "problem_id": 3}]' % index
    with pytest.raises(ParseFailure):
        parse_joint(joint, 12, WS)
    with pytest.raises(ParseFailure):
        parse_segmentation(f"[[0, {index}]]", 12)
    result = run_posr_llm(ScriptedClient(lambda req: joint), "m", gold_transcript(), WS,
                          PromptKind.JOINT_POSR)
    assert result.parse_failed


def test_parsers_total_on_garbage():
    for garbage in ("", "{}", "[1, 2", "[[true, false]]", "[{}]", "\x00\xff"):
        for fn in (lambda s: parse_segmentation(s, 5),
                   lambda s: parse_joint(s, 5, WS),
                   lambda s: parse_retrieval(s, WS)):
            try:
                fn(garbage)
            except ParseFailure:
                pass  # a typed failure is the only acceptable non-value


def extract_json_array_oracle(text: str) -> list:
    """The quadratic scan the parser used to run, kept as the reference:
    from every '[', scan to the first return to depth 0 and try that region."""
    text = _strip_fences(text)
    for start in range(len(text)):
        if text[start] != "[":
            continue
        depth = 0
        in_str = False
        escape = False
        for end in range(start, len(text)):
            ch = text[end]
            if in_str:
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == '"':
                    in_str = False
                continue
            if ch == '"':
                in_str = True
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    candidate = text[start : end + 1]
                    try:
                        value = json.loads(candidate)
                    except json.JSONDecodeError:
                        break
                    if isinstance(value, list):
                        return value
                    break
    raise ParseFailure("no parseable JSON array found")


def extraction_outcome(fn, text):
    try:
        return ("value", fn(text))
    except ParseFailure:
        return ("failure",)


BRACKET_SOUP = st.lists(
    st.sampled_from(['[', ']', '"', '\\', ',', '1', '23', ' ', '{', '}', ':',
                     'null', 'segments:', '```']),
    max_size=40,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(BRACKET_SOUP)
def test_extract_json_array_matches_quadratic_oracle(text):
    assert (extraction_outcome(_extract_json_array, text)
            == extraction_outcome(extract_json_array_oracle, text))


@pytest.mark.parametrize("text", [
    '"[1]',            # a [ inside a string still starts its own scan
    '["[", [2]]',
    '[x, [1]] [3]',    # the outer region fails, the nested one parses
    '["\\"]", [4]]',
    '["\\""]',         # an escaped quote keeps the string open
    '["\\\\"] [2]',    # an escaped backslash does not
    '[1] [2]',
    '[[1], 2',
])
def test_extract_json_array_hand_cases_match_oracle(text):
    assert (extraction_outcome(_extract_json_array, text)
            == extraction_outcome(extract_json_array_oracle, text))


def test_extract_json_array_linear_on_unbalanced_brackets():
    started = time.perf_counter()
    with pytest.raises(ParseFailure):
        _extract_json_array("[" * 200_000)
    # the old per-bracket scan needed seconds for 8,000 brackets; this input is 25x longer
    assert time.perf_counter() - started < 5.0


# --- runner with scripted clients


def encode_joint(labeling: Labeling) -> str:
    objs = []
    for span in labeling_to_spans(labeling):
        ref = span.ref
        if ref is None or ref.kind == "none":
            pid = None
        elif ref.kind == "not_in_corpus":
            pid = -1
        else:
            pid = ref.problem_id
        objs.append({"start_line_idx": span.start_line, "end_line_idx": span.end_line,
                     "problem_id": pid})
    return json.dumps(objs)


def encode_segmentation(labeling: Labeling) -> str:
    return json.dumps([[s.start_line, s.end_line] for s in labeling_to_spans(labeling)])


def gold_labeling():
    return per_line_labeling(
        tuple((0, RefLabel.problem("3")) for _ in range(5))
        + tuple((1, REF_NONE) for _ in range(3))
        + tuple((2, RefLabel.problem("7")) for _ in range(4))
    )


def gold_transcript():
    return small_transcript(12)


def test_joint_round_trip_single_call():
    gold = gold_labeling()
    client = ScriptedClient(lambda req: encode_joint(gold))
    result = run_posr_llm(client, "m", gold_transcript(), WS, PromptKind.JOINT_POSR)
    assert line_refs(result.labeling) == list(line_refs(gold))
    assert len(client.calls) == 1
    assert result.usage.n_requests == 1
    assert not result.parse_failed


def test_independent_round_trip_call_count():
    gold = gold_labeling()

    def responder(req: ChatRequest) -> str:
        if "list of lists" in req.system:
            return encode_segmentation(gold)
        # per-segment retrieval: answer from the segment text
        if "line 0 text" in req.user:
            return "3"
        if "line 5 text" in req.user:
            return "null"
        return "7"

    client = ScriptedClient(responder)
    result = run_posr_llm(client, "m", gold_transcript(), WS,
                          PromptKind.INDEPENDENT_RETRIEVAL)
    assert line_refs(result.labeling) == list(line_refs(gold))
    assert len(client.calls) == 1 + 3  # one segmentation + one per segment
    t = gold_transcript()
    assert evaluate(result.labeling, gold, t).srs_line == 1.0


def test_segmentation_only_mode():
    gold = gold_labeling()
    client = ScriptedClient(lambda req: encode_segmentation(gold))
    result = run_posr_llm(client, "m", gold_transcript(), WS,
                          PromptKind.INDEPENDENT_SEGMENTATION)
    assert seg_ids(result.labeling) == seg_ids(gold)
    assert all(r == REF_NONE for r in line_refs(result.labeling))
    assert len(client.calls) == 1


def test_parse_failure_fallback_flagged():
    client = ScriptedClient(lambda req: "no idea, sorry")
    result = run_posr_llm(client, "m", gold_transcript(), WS, PromptKind.JOINT_POSR)
    assert result.parse_failed
    assert result.labeling.num_segments() == 1
    assert line_refs(result.labeling) == [REF_NONE] * 12


def test_usage_accumulates_monotonically():
    gold = gold_labeling()
    seen = []

    def responder(req):
        if "list of lists" in req.system:
            return encode_segmentation(gold)
        return "null"

    client = ScriptedClient(responder)
    result = run_posr_llm(client, "m", gold_transcript(), WS,
                          PromptKind.INDEPENDENT_RETRIEVAL)
    assert result.usage.n_requests == 4
    assert result.usage.input_tokens > 0
    assert result.usage.output_tokens > 0


def test_failed_request_settles_to_the_fallback_priced_with_every_answer():
    gold = gold_labeling()
    reply = encode_segmentation(gold)

    def responder(req):
        if "list of lists" in req.system:
            return reply
        raise TransportError("endpoint down")

    client = ScriptedClient(responder)
    result = run_posr_llm(client, "m", gold_transcript(), WS, PromptKind.INDEPENDENT_RETRIEVAL)
    assert isinstance(result.error, TransportError)
    assert str(result.error) == "endpoint down"
    assert result.labeling == fallback_labeling(12)
    assert not result.parse_failed
    # every retrieval request was sent, also after the first one raised
    segmentation, *retrievals = client.calls
    assert len(retrievals) == len(json.loads(reply))
    assert all("Segment:\n" in retrieval.user for retrieval in retrievals)
    # ScriptedClient counts whitespace-separated words as tokens
    assert result.usage == TokenUsage(
        len(segmentation.system.split()) + len(segmentation.user.split()),
        len(reply.split()), 1)


# --- cassette


def test_cassette_record_and_replay(tmp_path):
    path = tmp_path / "cassette.json"
    live = ScriptedClient(lambda req: "null")
    recording = CassetteClient(path, inner=live)
    req = ChatRequest(model="m", system="s", user="u")
    first = recording.complete(req)
    assert len(live.calls) == 1

    replay = CassetteClient(path)  # no inner client: offline
    assert replay.complete(req) == first

    with pytest.raises(TransportError):
        replay.complete(ChatRequest(model="m", system="s", user="different"))


def test_cassette_round_trip_full_run(tmp_path):
    gold = gold_labeling()
    path = tmp_path / "cassette.json"
    live = ScriptedClient(lambda req: encode_joint(gold))
    CassetteClient(path, inner=live).complete  # construct only
    recorder = CassetteClient(path, inner=live)
    t = gold_transcript()
    first = run_posr_llm(recorder, "m", t, WS, PromptKind.JOINT_POSR)
    offline = CassetteClient(path)
    second = run_posr_llm(offline, "m", t, WS, PromptKind.JOINT_POSR)
    assert first.labeling == second.labeling


def test_cassette_failed_save_keeps_previous_recording(tmp_path, monkeypatch):
    path = tmp_path / "cassette.json"
    first_req = ChatRequest(model="m", system="s", user="first")
    second_req = ChatRequest(model="m", system="s", user="second")
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: "one"))
    first = recorder.complete(first_req)
    recorder.close()

    write_text = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: "two"))
    second = recorder.complete(second_req)  # journaled, not yet saved
    with pytest.raises(OSError):
        recorder.close()
    monkeypatch.undo()

    # the cassette is the first run's, the journal still holds the second reply
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cassette.json",
                                                          "cassette.json.journal"]
    replay = CassetteClient(path)
    assert replay.complete(first_req) == first
    assert replay.complete(second_req) == second


def test_cassette_journal_compacts_to_the_bytes_of_save(tmp_path):
    """A recording run appends each miss to the journal and writes the
    sorted cassette once, on close; the bytes equal a save of the same
    replies in any order."""
    path = tmp_path / "cassette.json"
    requests_ = [ChatRequest(model="m", system="s", user=f"u{i}") for i in range(20)]
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: req.user.upper()))
    for req in requests_:
        recorder.complete(req)
    assert not path.exists()
    assert len(recorder.journal.read_text(encoding="utf-8").splitlines()) == len(requests_)
    recorder.close()
    assert [p.name for p in tmp_path.iterdir()] == ["cassette.json"]
    expected = {req.key(): {"input_tokens": 2, "output_tokens": 1, "text": req.user.upper()}
                for req in reversed(requests_)}
    assert path.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True)


def test_cassette_replays_a_journal_with_a_torn_last_line(tmp_path):
    path = tmp_path / "cassette.json"
    first_req = ChatRequest(model="m", system="s", user="first")
    second_req = ChatRequest(model="m", system="s", user="second")
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: "one"))
    first = recorder.complete(first_req)
    recorder.close()
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: "two"))
    second = recorder.complete(second_req)
    # a crash in the middle of the next append leaves half a line
    with open(recorder.journal, "a", encoding="utf-8") as fh:
        fh.write('["abc", {"text": "thr')
    del recorder  # never closed

    resumed = CassetteClient(path, inner=ScriptedClient(lambda req: "three"))
    assert resumed.complete(first_req) == first
    assert resumed.complete(second_req) == second
    third_req = ChatRequest(model="m", system="s", user="third")
    third = resumed.complete(third_req)
    replay = CassetteClient(path)  # the new line follows the whole ones
    assert [replay.complete(r) for r in (first_req, second_req, third_req)] == [
        first, second, third]
    resumed.close()
    assert [p.name for p in tmp_path.iterdir()] == ["cassette.json"]
    assert len(json.loads(path.read_text(encoding="utf-8"))) == 3


def test_cassette_journal_line_that_is_not_a_recording_is_a_config_error(tmp_path):
    path = tmp_path / "cassette.json"
    journal = tmp_path / "cassette.json.journal"
    journal.write_text('["k", {"text": "a"}]\n{"k": 1}\n["j", {"text": "b"}]\n', encoding="utf-8")
    with pytest.raises(LLMConfigError, match=re.escape(f"{journal}:2: ")):
        CassetteClient(path)


# --- many transcripts at once


def numbered_transcripts(k, n_lines=12):
    return [Transcript(id=f"t{i}", lines=tuple(
        Line(j, "[TUTOR]", f"transcript {i} line {j}", j * 1000, (j + 1) * 1000)
        for j in range(n_lines)
    )) for i in range(k)]


def transcript_number(req: ChatRequest) -> int:
    return int(req.user.split("transcript ", 1)[1].split(" ", 1)[0])


def joint_reply_by_transcript(req: ChatRequest) -> str:
    """A joint reply that depends on the transcript: t<i> ends its first
    segment at line i % 10."""
    i = transcript_number(req)
    return json.dumps([
        {"start_line_idx": 0, "end_line_idx": i % 10, "problem_id": 3},
        {"start_line_idx": i % 10 + 1, "end_line_idx": 11, "problem_id": 7},
    ])


class OverlapProbe:
    """Responder that sleeps and records how many calls overlap."""

    def __init__(self, answer, sleep_s):
        self.answer = answer
        self.sleep_s = sleep_s
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, req):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.sleep_s(req))
            return self.answer(req)
        finally:
            with self._lock:
                self.active -= 1


def test_batch_overlaps_at_most_llm_concurrency_and_keeps_input_order():
    transcripts = numbered_transcripts(3 * LLM_CONCURRENCY)
    # earlier transcripts answer more slowly, so they finish out of order
    probe = OverlapProbe(joint_reply_by_transcript,
                         lambda req: 0.002 * (len(transcripts) - transcript_number(req)))
    outcomes = run_posr_llm_batch(ScriptedClient(probe), "m",
                                  [(t, WS) for t in transcripts], PromptKind.JOINT_POSR)
    assert 1 < probe.peak <= LLM_CONCURRENCY
    sequential = [run_posr_llm(ScriptedClient(joint_reply_by_transcript), "m", t, WS,
                               PromptKind.JOINT_POSR) for t in transcripts]
    assert outcomes == sequential


def test_batch_settles_a_failed_transcript_in_place():
    transcripts = numbered_transcripts(4)
    down = TransportError("endpoint down")  # one instance: the results compare equal

    def responder(req):
        if "transcript 2 " in req.user:
            raise down
        return joint_reply_by_transcript(req)

    outcomes = run_posr_llm_batch(ScriptedClient(responder), "m",
                                  [(t, WS) for t in transcripts], PromptKind.JOINT_POSR)
    assert [o.error for o in outcomes] == [None, None, down, None]
    assert outcomes[2].labeling == fallback_labeling(12)
    assert outcomes[2].usage == TokenUsage()
    sequential = [run_posr_llm(ScriptedClient(responder), "m", t, WS, PromptKind.JOINT_POSR)
                  for t in transcripts]
    assert outcomes == sequential


def test_batch_interrupted_wait_starts_no_more_transcripts():
    transcripts = numbered_transcripts(6 * LLM_CONCURRENCY)

    def responder(req):
        if transcript_number(req) == 0:
            raise KeyboardInterrupt
        time.sleep(0.05)
        return joint_reply_by_transcript(req)

    client = ScriptedClient(responder)
    with pytest.raises(KeyboardInterrupt):
        run_posr_llm_batch(client, "m", [(t, WS) for t in transcripts], PromptKind.JOINT_POSR)
    assert len(client.calls) < len(transcripts)


def test_concurrent_recordings_write_identical_cassettes(tmp_path):
    transcripts = numbered_transcripts(2 * LLM_CONCURRENCY)
    items = [(t, WS) for t in transcripts]
    files = []
    for run in range(2):
        rng = random.Random(run)
        jitter = [rng.random() * 0.01 for _ in transcripts]  # a new finishing order
        probe = OverlapProbe(joint_reply_by_transcript,
                             lambda req: jitter[transcript_number(req)])
        path = tmp_path / f"cassette{run}.json"
        client = CassetteClient(path, inner=ScriptedClient(probe))
        run_posr_llm_batch(client, "m", items, PromptKind.JOINT_POSR)
        client.close()
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert len(json.loads(files[0])) == len(transcripts)


def test_cassette_loses_no_recording_under_contention(tmp_path):
    path = tmp_path / "cassette.json"
    recorder = CassetteClient(path, inner=ScriptedClient(lambda req: req.user))
    requests_ = [ChatRequest(model="m", system="s", user=f"u{i}") for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            answers = [r.text for r in pool.map(recorder.complete, requests_, timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert answers == [r.user for r in requests_]
    replay = CassetteClient(path)  # from the journal
    assert [replay.complete(r).text for r in requests_] == [r.user for r in requests_]
    recorder.close()
    replay = CassetteClient(path)
    assert [replay.complete(r).text for r in requests_] == [r.user for r in requests_]
    assert [p.name for p in tmp_path.iterdir()] == ["cassette.json"]


# --- independent retrieval on one request queue


def transcript_and_line(req: ChatRequest) -> tuple[int, int]:
    """The first "transcript i line j" a prompt quotes: for a retrieval
    prompt, the transcript and the first line of its segment."""
    i, j = re.search(r"transcript (\d+) line (\d+)", req.user).groups()
    return int(i), int(j)


def is_segmentation(req: ChatRequest) -> bool:
    return "list of lists" in req.system


def segment_starts(i: int, n_lines: int = 12) -> range:
    """t<i> splits into segments of i % 3 + 1 lines (one-line segments for t0)."""
    return range(0, n_lines, i % 3 + 1)


def independent_reply(req: ChatRequest) -> str:
    """Segments t<i> by ``segment_starts``; a segment's ref depends on its
    transcript and first line."""
    i, j = transcript_and_line(req)
    if is_segmentation(req):
        n = len(re.findall(r"transcript \d+ line \d+", req.user))
        return json.dumps([[s, min(s + i % 3 + 1, n) - 1] for s in segment_starts(i, n)])
    return ("3", "7", "null", "-1")[(i + j) % 4]


def scripted_usage(req: ChatRequest, reply: str) -> TokenUsage:
    """The tokens ScriptedClient counts for one answered request."""
    return TokenUsage(len(req.system.split()) + len(req.user.split()), len(reply.split()), 1)


def test_batch_overlaps_the_retrieval_requests_of_one_transcript():
    transcript = numbered_transcripts(1, n_lines=2 * LLM_CONCURRENCY)[0]
    probe = OverlapProbe(independent_reply, lambda req: 0.0 if is_segmentation(req) else 0.01)
    client = ScriptedClient(probe)
    outcomes = run_posr_llm_batch(client, "m", [(transcript, WS)],
                                  PromptKind.INDEPENDENT_RETRIEVAL)
    assert len(client.calls) - 1 > LLM_CONCURRENCY  # retrieval requests
    assert 1 < probe.peak <= LLM_CONCURRENCY
    assert outcomes == [run_posr_llm(ScriptedClient(independent_reply), "m", transcript, WS,
                                     PromptKind.INDEPENDENT_RETRIEVAL)]


def test_batch_keeps_exactly_llm_concurrency_retrieval_requests_in_flight():
    # 2 * LLM_CONCURRENCY one-line segments: every retrieval is ready at once
    transcript = numbered_transcripts(1, n_lines=2 * LLM_CONCURRENCY)[0]
    # each retrieval is held until LLM_CONCURRENCY of them are in flight; a
    # smaller pool breaks the barrier after the timeout and fails the run
    barrier = threading.Barrier(LLM_CONCURRENCY, timeout=5)

    def held_reply(req):
        if not is_segmentation(req):
            barrier.wait()
        return independent_reply(req)

    probe = OverlapProbe(held_reply, lambda req: 0.0)
    client = ScriptedClient(probe)
    [outcome] = run_posr_llm_batch(client, "m", [(transcript, WS)],
                                   PromptKind.INDEPENDENT_RETRIEVAL)
    assert probe.peak == LLM_CONCURRENCY
    assert outcome.error is None
    assert len(client.calls) - 1 == 2 * LLM_CONCURRENCY
    assert outcome == run_posr_llm(ScriptedClient(independent_reply), "m", transcript, WS,
                                   PromptKind.INDEPENDENT_RETRIEVAL)


def test_run_posr_llm_sends_one_request_at_a_time_in_segment_order():
    transcript = numbered_transcripts(1, n_lines=2 * LLM_CONCURRENCY)[0]
    probe = OverlapProbe(independent_reply, lambda req: 0.0 if is_segmentation(req) else 0.01)
    client = ScriptedClient(probe)
    run_posr_llm(client, "m", transcript, WS, PromptKind.INDEPENDENT_RETRIEVAL)
    retrievals = client.calls[1:]
    assert len(retrievals) > LLM_CONCURRENCY
    assert probe.peak == 1
    starts = [transcript_and_line(req)[1] for req in retrievals]
    assert starts == sorted(starts)


def test_batch_retrievals_finishing_out_of_order_match_a_sequential_loop():
    transcripts = numbered_transcripts(2 * LLM_CONCURRENCY)
    # later segments and earlier transcripts answer sooner
    probe = OverlapProbe(independent_reply, lambda req: 0.0005 * (
        len(transcripts) - transcript_and_line(req)[0] + 12 - transcript_and_line(req)[1]))
    outcomes = run_posr_llm_batch(ScriptedClient(probe), "m", [(t, WS) for t in transcripts],
                                  PromptKind.INDEPENDENT_RETRIEVAL)
    sequential = [run_posr_llm(ScriptedClient(independent_reply), "m", t, WS,
                               PromptKind.INDEPENDENT_RETRIEVAL) for t in transcripts]
    assert outcomes == sequential
    assert {line_refs(r.labeling)[0] for r in sequential} == {
        RefLabel.problem("3"), RefLabel.problem("7"), REF_NONE, REF_NOT_IN_CORPUS}


def test_batch_returns_the_first_failing_segment_priced_with_every_answer():
    transcript = numbered_transcripts(1)[0]
    segmentation = json.dumps([[0, 1], [2, 4], [5, 6], [7, 9], [10, 11]])
    answered = []
    lock = threading.Lock()

    def responder(req):
        if is_segmentation(req):
            reply = segmentation
        else:
            start = transcript_and_line(req)[1]
            if start == 10:  # the last segment fails first
                raise TransportError("segment 10")
            time.sleep(0.05)
            if start == 5:  # the middle segment
                raise TransportError("segment 5")
            reply = "3"
        with lock:
            answered.append(scripted_usage(req, reply))
        return reply

    client = ScriptedClient(responder)
    [outcome] = run_posr_llm_batch(client, "m", [(transcript, WS)],
                                   PromptKind.INDEPENDENT_RETRIEVAL)
    assert isinstance(outcome.error, TransportError)
    assert str(outcome.error) == "segment 5"
    assert outcome.labeling == fallback_labeling(12)
    assert len(client.calls) == 1 + 5
    # the segmentation reply and the retrievals of segments 0, 2 and 7
    assert outcome.usage == sum(answered, TokenUsage())
    assert outcome.usage.n_requests == 4
    answered.clear()
    sequential = run_posr_llm(ScriptedClient(responder), "m", transcript, WS,
                              PromptKind.INDEPENDENT_RETRIEVAL)
    assert str(sequential.error) == "segment 5"
    assert sequential.usage == sum(answered, TokenUsage()) == outcome.usage
    assert sequential.labeling == outcome.labeling


def test_batch_interrupted_retrieval_wait_sends_no_more_requests():
    transcripts = numbered_transcripts(6 * LLM_CONCURRENCY)

    def responder(req):
        if not is_segmentation(req):
            if transcript_and_line(req)[0] == 0:
                raise KeyboardInterrupt
            time.sleep(0.05)
        return independent_reply(req)

    client = ScriptedClient(responder)
    with pytest.raises(KeyboardInterrupt):
        run_posr_llm_batch(client, "m", [(t, WS) for t in transcripts],
                           PromptKind.INDEPENDENT_RETRIEVAL)
    sent = len(client.calls)
    time.sleep(0.2)
    assert len(client.calls) == sent
    assert sent < sum(1 + len(segment_starts(i)) for i in range(len(transcripts)))


def test_concurrent_independent_recordings_write_identical_cassettes(tmp_path):
    transcripts = numbered_transcripts(LLM_CONCURRENCY)
    items = [(t, WS) for t in transcripts]
    files = []
    for run in range(2):
        rng = random.Random(run)
        jitter = {(i, j): rng.random() * 0.005 for i in range(len(transcripts)) for j in range(12)}
        probe = OverlapProbe(independent_reply, lambda req: jitter[transcript_and_line(req)])
        path = tmp_path / f"cassette{run}.json"
        client = CassetteClient(path, inner=ScriptedClient(probe))
        run_posr_llm_batch(client, "m", items, PromptKind.INDEPENDENT_RETRIEVAL)
        client.close()
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert len(json.loads(files[0])) == sum(1 + len(segment_starts(i))
                                            for i in range(len(transcripts)))


# --- HTTP client


@dataclass
class Reply:
    """One scripted reply: a status with headers and a body (``doc`` as JSON,
    else the text "error"), sent after ``delay_s``. ``then_close`` closes
    the connection after the reply without telling the client, as a server
    does with a connection left idle too long."""

    status: int
    doc: dict | None = None
    headers: dict = field(default_factory=dict)
    delay_s: float = 0.0
    then_close: bool = False


HANG_UP = object()  # close the connection without replying


@dataclass(frozen=True)
class Seen:
    """A request as the endpoint received it."""

    target: str
    headers: dict
    connection: int


class LoopbackServer(ThreadingHTTPServer):
    # a batch opens up to LLM_CONCURRENCY connections at once; with the
    # default listen backlog of 5 a burst can overflow it, and the client
    # then waits about a second for the kernel to resend its SYN
    request_queue_size = 2 * LLM_CONCURRENCY
    block_on_close = False


class Endpoint:
    """A loopback HTTP/1.1 server that plays back a script of replies, then
    ``default`` once the script runs out, and records every request it
    reads and how many connections are open."""

    def __init__(self, *script, default=None):
        self.script = list(script)
        self.default = default
        self.seen: list[Seen] = []
        self.open_connections = 0
        self._lock = threading.Lock()
        self._connections = itertools.count()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body go out in two writes; with Nagle on, each
            # reply would wait for the client's delayed ACK
            disable_nagle_algorithm = True

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def setup(self):
                super().setup()
                with endpoint._lock:
                    self.number = next(endpoint._connections)
                    endpoint.open_connections += 1

            def finish(self):
                try:
                    super().finish()
                finally:
                    with endpoint._lock:
                        endpoint.open_connections -= 1

            def do_POST(self):  # noqa: N802 - stdlib name
                self.rfile.read(int(self.headers["Content-Length"]))
                with endpoint._lock:
                    endpoint.seen.append(Seen(self.path, dict(self.headers), self.number))
                    reply = endpoint.script.pop(0) if endpoint.script else endpoint.default
                if reply is HANG_UP:
                    self.close_connection = True
                    return
                if reply.delay_s:
                    time.sleep(reply.delay_s)
                payload = (json.dumps(reply.doc) if reply.doc is not None else "error").encode()
                try:
                    self.send_response(reply.status)
                    for name, value in reply.headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except OSError:  # the client gave up waiting
                    self.close_connection = True
                self.close_connection |= reply.then_close

            def do_CONNECT(self):  # noqa: N802 - stdlib name
                # a proxy that records each tunnel request and refuses it
                with endpoint._lock:
                    endpoint.seen.append(Seen(self.path, dict(self.headers), self.number))
                self.send_response(403)
                self.send_header("Content-Length", "0")
                self.end_headers()
                self.close_connection = True

        self.server = LoopbackServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat"
        threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.02},
                         daemon=True).start()

    def connections(self) -> set[int]:
        return {seen.connection for seen in self.seen}

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint_factory(monkeypatch):
    """Starts loopback endpoints, with no proxy from the environment, and
    stops them after the test."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    started = []

    def start(*script, default=None):
        started.append(Endpoint(*script, default=default))
        return started[-1]

    yield start
    for endpoint in started:
        endpoint.close()


def refused_url() -> str:
    """A loopback URL on which nothing listens."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{probe.getsockname()[1]}/v1/chat"


def wait_for(predicate, timeout_s=5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


OK_REPLY = {"text": "null", "input_tokens": 3, "output_tokens": 1}
OK = Reply(200, OK_REPLY)
REQUEST = ChatRequest(model="m", system="s", user="u")


def http_client(endpoint, attempts=3, backoff_s=0.0, timeout_s=120.0):
    url = endpoint if isinstance(endpoint, str) else endpoint.url
    return HttpChatClient(LLMEndpointConfig(url=url, max_attempts=attempts,
                                            backoff_s=backoff_s, timeout_s=timeout_s))


@pytest.mark.parametrize("reply", [
    Reply(503), Reply(500), Reply(429),
    HANG_UP,                            # a connection closed with no reply
    Reply(200, OK_REPLY, delay_s=1.0),  # a reply slower than timeout_s
])
def test_http_retries_transient_failures(endpoint_factory, reply):
    endpoint = endpoint_factory(reply, OK)
    response = http_client(endpoint, timeout_s=0.3).complete(REQUEST)
    assert response.text == "null" and len(endpoint.seen) == 2


def test_http_retries_a_refused_connection(endpoint_factory, monkeypatch):
    sleeps = []
    monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
    with pytest.raises(TransportError, match="all 2 attempts failed") as info:
        http_client(refused_url(), attempts=2, backoff_s=0.5).complete(REQUEST)
    assert isinstance(info.value.__cause__, ConnectionRefusedError)
    assert sleeps == [0.5]


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422, 302])  # redirects not followed
def test_http_permanent_errors_fail_at_once(endpoint_factory, status):
    endpoint = endpoint_factory(Reply(status), OK)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        http_client(endpoint).complete(REQUEST)
    assert len(endpoint.seen) == 1


def test_http_reads_a_chat_completion_reply(endpoint_factory):
    doc = {"choices": [{"message": {"role": "assistant", "content": "[[0, 3]]"}}],
           "usage": {"prompt_tokens": 7, "completion_tokens": 2}}
    endpoint = endpoint_factory(Reply(200, doc))
    assert http_client(endpoint).complete(REQUEST) == ChatResponse("[[0, 3]]", 7, 2)


def test_http_reply_without_a_choice_fails_at_once(endpoint_factory):
    endpoint = endpoint_factory(Reply(200, {"choices": []}), OK)
    with pytest.raises(TransportError,
                       match=re.escape("unrecognized response shape: {'choices': []}")):
        http_client(endpoint).complete(REQUEST)
    assert len(endpoint.seen) == 1


def test_http_non_json_reply_fails_at_once(endpoint_factory):
    endpoint = endpoint_factory(Reply(200), OK)
    with pytest.raises(TransportError, match="reply is not JSON: error"):
        http_client(endpoint).complete(REQUEST)
    assert len(endpoint.seen) == 1


def test_http_gives_up_after_max_attempts(endpoint_factory):
    endpoint = endpoint_factory(*[Reply(503)] * 3)
    with pytest.raises(TransportError, match="all 3 attempts failed"):
        http_client(endpoint).complete(REQUEST)
    assert len(endpoint.seen) == 3


@pytest.mark.parametrize("status, retry_after, backoff_s, slept", [
    (503, "5", 0.5, 5.0),      # Retry-After longer than the backoff wins
    (429, " 2 ", 0.5, 2.0),
    (429, "1", 3.0, 3.0),      # the backoff wins when it is longer
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, 0.5),  # HTTP-date: backoff
    (503, "-4", 0.5, 0.5),
    (500, "5", 0.5, 0.5),      # only 429 and 503 carry a usable Retry-After
])
def test_http_honours_retry_after(endpoint_factory, monkeypatch, status, retry_after,
                                  backoff_s, slept):
    endpoint = endpoint_factory(Reply(status, headers={"Retry-After": retry_after}), OK)
    sleeps = []
    monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
    response = http_client(endpoint, backoff_s=backoff_s).complete(REQUEST)
    assert response.text == "null"
    assert sleeps == [slept]


def test_http_retry_after_applies_to_the_next_attempt_only(endpoint_factory, monkeypatch):
    # the 503 closes its connection, so the hang-up after it fails a fresh
    # connection and is retried with backoff, not resent at once
    endpoint = endpoint_factory(
        Reply(503, headers={"Retry-After": "7", "Connection": "close"}), HANG_UP, OK)
    sleeps = []
    monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
    http_client(endpoint, backoff_s=1.0).complete(REQUEST)
    assert sleeps == [7.0, 2.0]
    assert len(endpoint.seen) == 3


def test_http_sequential_requests_share_one_connection(endpoint_factory):
    endpoint = endpoint_factory(default=OK)
    client = http_client(endpoint)
    for _ in range(20):
        assert client.complete(REQUEST).text == "null"
    assert len(endpoint.seen) == 20
    assert len(endpoint.connections()) == 1


def test_http_batch_opens_at_most_one_connection_per_worker(endpoint_factory):
    n = 2 * LLM_CONCURRENCY + 1
    endpoint = endpoint_factory(default=Reply(200, {"text": "[[0, 3]]"}, delay_s=0.02))
    items = [(small_transcript(), WS)] * n
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        results = run_posr_llm_batch(http_client(endpoint), "m", items,
                                     PromptKind.INDEPENDENT_SEGMENTATION)
    assert all(r.error is None and not r.parse_failed for r in results)
    assert len(endpoint.seen) == n
    assert 1 < len(endpoint.connections()) <= LLM_CONCURRENCY
    # the workers are gone, and their connections were closed with them,
    # not left for the collector to find unclosed
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert wait_for(lambda: endpoint.open_connections == 0)


def test_http_resends_once_on_a_connection_closed_while_idle(endpoint_factory, monkeypatch):
    endpoint = endpoint_factory(Reply(200, OK_REPLY, then_close=True), OK)
    client = http_client(endpoint, attempts=1)
    client.complete(REQUEST)
    assert wait_for(lambda: endpoint.open_connections == 0)
    sleeps = []
    monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
    assert client.complete(REQUEST).text == "null"
    assert sleeps == []
    assert len(endpoint.seen) == 2 and len(endpoint.connections()) == 2


def test_http_does_not_resend_a_timeout(endpoint_factory):
    endpoint = endpoint_factory(OK, Reply(200, OK_REPLY, delay_s=1.0), OK)
    client = http_client(endpoint, attempts=1, timeout_s=0.3)
    client.complete(REQUEST)
    with pytest.raises(TransportError, match="all 1 attempts failed") as info:
        client.complete(REQUEST)
    assert isinstance(info.value.__cause__, TimeoutError)
    assert len(endpoint.seen) == 2
    # the timed-out connection was dropped; the next request opens another
    assert client.complete(REQUEST).text == "null"
    assert len(endpoint.connections()) == 2


def test_http_proxy_gets_the_absolute_url_and_no_proxy_bypasses_it(endpoint_factory,
                                                                    monkeypatch):
    proxy = endpoint_factory(OK)
    monkeypatch.setenv("http_proxy", proxy.url.rsplit("/v1/", 1)[0])
    http_client("http://llm.invalid:8080/v1/chat?v=2").complete(REQUEST)
    assert [seen.target for seen in proxy.seen] == ["http://llm.invalid:8080/v1/chat?v=2"]
    assert proxy.seen[0].headers["Host"] == "llm.invalid:8080"

    direct = endpoint_factory(OK)
    monkeypatch.setenv("http_proxy", refused_url())
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    http_client(direct).complete(REQUEST)
    assert [seen.target for seen in direct.seen] == ["/v1/chat"]


def test_http_credentials_in_urls_go_out_as_basic_auth(endpoint_factory, monkeypatch):
    proxy = endpoint_factory(OK)
    base = proxy.url.rsplit("/v1/", 1)[0]
    monkeypatch.setenv("http_proxy", base.replace("://", "://ann:s%40cret@"))
    http_client("http://bo:pw@llm.invalid/v1/chat").complete(REQUEST)
    seen = proxy.seen[0]
    assert seen.headers["Proxy-Authorization"] == "Basic YW5uOnNAY3JldA=="
    assert seen.headers["Authorization"] == "Basic Ym86cHc="
    assert seen.target == "http://llm.invalid/v1/chat"


def test_http_proxy_other_than_http_is_a_config_error(endpoint_factory, monkeypatch):
    monkeypatch.setenv("https_proxy", "socks5://127.0.0.1:1080")
    with pytest.raises(LLMConfigError, match="only http:// proxies"):
        http_client("https://llm.invalid/v1/chat")


@pytest.mark.parametrize("credentials, proxy_auth", [
    ("", None),
    ("ann:s%40cret@", "Basic YW5uOnNAY3JldA=="),
])
def test_https_behind_a_proxy_goes_through_a_connect_tunnel(endpoint_factory, monkeypatch,
                                                            credentials, proxy_auth):
    proxy = endpoint_factory()
    monkeypatch.setenv("https_proxy", proxy.url.rsplit("/v1/", 1)[0].replace(
        "://", f"://{credentials}"))
    monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
    # the proxy refuses the tunnel, so nothing leaves the loopback interface
    with pytest.raises(TransportError, match="all 1 attempts failed") as info:
        http_client("https://llm.invalid/v1/chat", attempts=1).complete(REQUEST)
    assert str(info.value.__cause__).startswith("Tunnel connection failed: 403")
    assert [seen.target for seen in proxy.seen] == ["llm.invalid:443"]
    assert proxy.seen[0].headers.get("Proxy-Authorization") == proxy_auth


def test_http_unreadable_ca_bundle_is_a_config_error(endpoint_factory, monkeypatch, tmp_path):
    bundle = tmp_path / "missing.pem"
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
    with pytest.raises(LLMConfigError, match=re.escape(f"CA bundle {bundle}: ")):
        http_client("https://llm.invalid/v1/chat")


def test_cli_import_does_not_load_the_transport():
    src = str(Path(client_module.__file__).resolve().parents[2])
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import posr.cli; "
         "print(sorted({'http.client', 'ssl', 'urllib.request'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert probe.stdout.strip() == "[]"


def write_config(tmp_path, doc):
    path = tmp_path / "llm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_endpoint_config_readme_shape(tmp_path, monkeypatch, endpoint_factory):
    endpoint = endpoint_factory(OK)
    monkeypatch.setenv("POSR_TEST_KEY", "secret")
    config = LLMEndpointConfig.from_file(write_config(tmp_path, {
        "url": endpoint.url, "api_key_env": "POSR_TEST_KEY",
        "headers": {"X-Org": "lab"}, "timeout_s": 5, "max_attempts": 1, "backoff_s": 0,
    }))
    HttpChatClient(config).complete(REQUEST)
    headers = endpoint.seen[0].headers
    assert headers["Authorization"] == "Bearer secret"
    assert headers["X-Org"] == "lab"


def test_endpoint_config_unset_key_variable_is_an_error(tmp_path, monkeypatch):
    monkeypatch.delenv("POSR_TEST_KEY", raising=False)
    path = write_config(tmp_path, {"url": "http://endpoint", "api_key_env": "POSR_TEST_KEY"})
    with pytest.raises(LLMConfigError, match="POSR_TEST_KEY"):
        LLMEndpointConfig.from_file(path)


@pytest.mark.parametrize("doc", [
    {"url": "http://endpoint", "api_key": "inline"},
    {"url": "http://endpoint", "header": {"X-Org": "lab"}},
    {"url": "http://endpoint", "headers": {"X-Retries": 3}},
    {"api_key_env": "HOME"},
    {"url": "http://endpoint", "api_key_env": 7},
    {"url": 5},
    {"url": ""},
    {"url": "http://endpoint", "timeout_s": "abc"},
    {"url": "http://endpoint", "timeout_s": 0},
    {"url": "http://endpoint", "timeout_s": float("nan")},
    {"url": "http://endpoint", "timeout_s": float("inf")},
    {"url": "http://endpoint", "max_attempts": None},
    {"url": "http://endpoint", "max_attempts": 0},
    {"url": "http://endpoint", "max_attempts": 2.5},
    {"url": "http://endpoint", "max_attempts": True},
    {"url": "http://endpoint", "backoff_s": -1},
    {"url": "http://endpoint", "backoff_s": False},
    {"url": "127.0.0.1:9/v1/chat/completions"},
    {"url": "ftp://endpoint/v1"},
    {"url": "http:///v1/chat"},
    {"url": "http://endpoint:port/v1"},
    {"url": "http://endpoint/v1 chat"},
])
def test_endpoint_config_rejects_bad_keys(tmp_path, doc):
    with pytest.raises(LLMConfigError):
        LLMEndpointConfig.from_file(write_config(tmp_path, doc))


def test_endpoint_config_error_names_the_file_and_the_key(tmp_path):
    path = write_config(tmp_path, {"url": "http://endpoint", "max_attempts": 0})
    with pytest.raises(LLMConfigError, match=r"max_attempts.*integer >= 1") as info:
        LLMEndpointConfig.from_file(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("field_value", [
    {"url": "127.0.0.1:9/v1/chat/completions"},
    {"max_attempts": 0},
    {"timeout_s": 0.0},
    {"backoff_s": -1.0},
    {"headers": {"X-Retries": 3}},
])
def test_endpoint_config_constructor_checks_every_field(field_value):
    with pytest.raises(LLMConfigError, match=repr(next(iter(field_value)))):
        LLMEndpointConfig(**{"url": "http://endpoint", **field_value})
