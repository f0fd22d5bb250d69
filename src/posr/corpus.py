"""Corpus loading, writing, synthetic generation, and summary statistics.

On-disk formats (all UTF-8):

* transcript: JSONL, one record per line with fields
  ``{index, speaker, utterance, start_ms, end_ms}``
* worksheet: one JSON document ``{id, problems: [{id, text}]}``
* annotation: JSONL ``{line_index, segment_id, ref}`` with ref one of a
  problem id string, ``"-1"``, or ``"null"``
* manifest: one JSON document listing the files of one split (see
  ``CorpusManifest``); paths are relative to the manifest's directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge, itemgetter
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import InputError
from .model import (
    Labeling,
    Line,
    ModelError,
    Problem,
    RefLabel,
    Transcript,
    Worksheet,
    columns_to_labeling,
    runs_to_labeling,
)


_Rows = TypeVar("_Rows")


class CorpusError(InputError):
    """Raised on malformed corpus files."""


@dataclass(frozen=True)
class CorpusManifest:
    transcripts: list[str]  # file paths
    worksheets: dict[str, str]  # transcript id -> worksheet path
    annotations: dict[str, str] | None  # transcript id -> annotation path
    split: str  # "train" | "test"
    root: Path = Path(".")  # directory paths are resolved against


@dataclass(frozen=True)
class CorpusEntry:
    transcript: Transcript
    worksheet: Worksheet
    gold: Labeling | None


@dataclass(frozen=True)
class Corpus:
    """A fully loaded split: one entry per transcript."""

    entries: tuple[CorpusEntry, ...]
    split: str = "test"

    def __len__(self) -> int:
        return len(self.entries)

    def annotated(self) -> "Corpus":
        return Corpus(tuple(e for e in self.entries if e.gold is not None), self.split)


# ---------------------------------------------------------------------------
# loading / saving


def _read_text(path: str | Path, error: type[InputError] = CorpusError) -> str:
    """The text of a UTF-8 file; a missing or unreadable one is an ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_json(path: str | Path, error: type[InputError] = CorpusError):
    """The JSON document in a UTF-8 file; unreadable or invalid is an ``error``."""
    text = _read_text(path, error)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise error(f"{path}: invalid JSON: {exc}") from exc


def save_json(path: str | Path, doc: object) -> None:
    """``doc`` as JSON indented by 2, with a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# the decoder's C scanner: (value, end) of the JSON value at an index, or
# StopIteration when none starts there
_scan_once = json.JSONDecoder().scan_once


def _decode_line(raw: str):
    """``json.loads(raw)``, in one C scan when ``raw`` is exactly one JSON
    value. Anything else (surrounding whitespace, a BOM, extra data, a
    syntax error) goes to ``json.loads`` itself, so the accepted lines, the
    values and the error messages are all its own."""
    try:
        value, end = _scan_once(raw, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(raw)
    return value if end == len(raw) else json.loads(raw)


# Each record type's fields in check order (a transcript's in Line's field
# order), with the JSON types each accepts, compared exactly: a boolean is
# not an integer, nor is an integral float.
_TRANSCRIPT = (("index", (int,)), ("speaker", (str,)), ("utterance", (str,)),
               ("start_ms", (int,)), ("end_ms", (int,)))
_ANNOTATION = (("line_index", (int,)), ("segment_id", (int,)), ("ref", (str, int)))
_WORKSHEET = (("id", (str, int)), ("problems", (list,)))
_PROBLEM = (("id", (str, int)), ("text", (str,)))
# a manifest's fields, in CorpusManifest's order
_MANIFEST = (("transcripts", (list,)), ("worksheets", (dict,)),
             ("annotations", (dict, type(None))), ("split", (str,)))
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object",
               type(None): "null"}


def _field(rec, key: str, types: tuple[type, ...]):
    """``rec[key]`` when its type is exactly one of ``types``."""
    value = rec[key]
    if type(value) in types:
        return value
    kinds = " or ".join(map(_TYPE_NAMES.__getitem__, types))
    raise TypeError(f"{key} must be {kinds}, not {type(value).__name__}")


def _object_fields(path: Path, doc: dict, table: tuple, kind: str) -> list:
    """The fields of ``table`` in ``doc``, an object in a ``kind`` file."""
    try:
        return [_field(doc, key, types) for key, types in table]
    except KeyError as exc:
        raise CorpusError(f"{path}: missing field {exc.args[0]}") from exc
    except TypeError as exc:
        raise CorpusError(f"{path}: malformed {kind}: {exc}") from exc


def _records(text: str, table: tuple) -> Iterator[tuple]:
    """The fields of ``table`` of each non-blank line's JSON record, lazily,
    through C calls that keep no decoded record. A line that does not
    decode, or a record that is not an object or lacks a field, raises when
    it is reached; the caller then words the error with a per-line loop."""
    raws = text.split("\n")  # not splitlines(): JSON strings hold U+0085, U+2028, U+2029 raw
    fields = itemgetter(*(key for key, _ in table))
    return map(fields, map(_decode_line, compress(raws, map(str.strip, raws))))


def _columns(table: tuple, rows) -> Iterator[Iterator]:
    """Each field's column of ``rows``, in ``table`` order. One itemgetter map
    per column, not ``zip(*rows)``: that makes one iterator object per row,
    and the cyclic collector would run a young-generation pass for every 700
    of them."""
    return (map(itemgetter(i), rows) for i in range(len(table)))


def _typed(table: tuple, columns) -> bool:
    """Whether every value of each column has exactly one of its field's types."""
    return all(set(types).issuperset(map(type, column))
               for (_, types), column in zip(table, columns))


def _read_records(path: Path, text: str, table: tuple, make: Callable[[Iterator[tuple]], _Rows],
                  columns_ok: Callable[[tuple[tuple, ...]], bool],
                  check: Callable[..., object]) -> tuple[_Rows, tuple[tuple, ...]]:
    """The rows that ``make`` builds from the field tuples (in ``table``
    order) of JSONL ``text``'s records, and the file's columns, one tuple per
    field. One column pass checks the whole file: the field types, then
    ``columns_ok(columns)``. Only when it rejects the file does a line loop
    find the first bad line, where ``check(*fields)`` raises the
    ``ModelError`` of a record that breaks ``columns_ok``. The error names
    the file and the line."""
    try:
        rows = make(_records(text, table))
    except (ValueError, KeyError, TypeError):
        pass
    else:
        columns = tuple(map(tuple, _columns(table, rows)))
        if _typed(table, columns) and columns_ok(columns):
            return rows, columns
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not raw.strip():
            continue
        try:
            rec = _decode_line(raw)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            check(*(_field(rec, key, types) for key, types in table))
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing field {exc.args[0]}") from exc
        except ModelError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        except TypeError as exc:
            # a record that is not an object, or a field of the wrong type
            raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
    raise AssertionError(f"{path}: the column check and the line check disagree")


def _lines(records: Iterator[tuple]) -> tuple[Line, ...]:
    # Line._make without its length check, all in C: the table gives 5
    # fields, and each record's field tuple is freed once its Line is made
    return tuple(map(tuple.__new__, repeat(Line), records))


def _ends_after_starts(columns: tuple[tuple, ...]) -> bool:
    _, _, _, start_ms, end_ms = columns
    return all(map(ge, end_ms, start_ms))


def load_transcript(path: str | Path) -> Transcript:
    path = Path(path)
    lines, _ = _read_records(path, _read_text(path), _TRANSCRIPT, _lines, _ends_after_starts,
                             Line)
    try:
        return Transcript(id=path.stem, lines=lines)
    except ModelError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def save_transcript(transcript: Transcript, path: str | Path) -> None:
    """One JSON record per line: the ``Line`` fields, in their order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line._asdict()) + "\n" for line in transcript.lines)


def load_worksheet(path: str | Path) -> Worksheet:
    path = Path(path)
    doc = read_json(path)
    if type(doc) is not dict:
        raise CorpusError(f"{path}: a worksheet is a JSON object")
    worksheet_id, problems = _object_fields(path, doc, _WORKSHEET, "worksheet")
    for p in problems:
        if type(p) is not dict:
            raise CorpusError(f"{path}: malformed worksheet: each problem must be an object, "
                              f"not {type(p).__name__}")
    try:
        # str() gives an integer id as its digits and a string as it is
        return Worksheet(str(worksheet_id), tuple(
            Problem(*map(str, _object_fields(path, p, _PROBLEM, "worksheet"))) for p in problems))
    except ModelError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def save_worksheet(worksheet: Worksheet, path: str | Path) -> None:
    save_json(path, {"id": worksheet.id,
                     "problems": [{"id": p.id, "text": p.text} for p in worksheet.problems]})


def _unique_line_indexes(columns: tuple[tuple, ...]) -> bool:
    return len(set(columns[0])) == len(columns[0])


def _no_repeated_line_index() -> Callable[..., None]:
    """A per-record check that raises on a line index seen before."""
    seen: set[int] = set()

    def check(line_index: int, segment_id: int, ref: str | int) -> None:
        if line_index in seen:
            raise ModelError(f"duplicate line_index {line_index}")
        seen.add(line_index)
    return check


def load_annotation(path: str | Path, n_lines: int) -> Labeling:
    path = Path(path)
    _, (line_index, segment_id, raw_ref) = _read_records(
        path, _read_text(path), _ANNOTATION, list, _unique_line_indexes, _no_repeated_line_index())
    in_order = list(range(n_lines))
    if sorted(line_index) != in_order:
        raise CorpusError(f"{path}: annotation does not cover lines 0..{n_lines - 1}")
    if list(line_index) != in_order:  # the indexes are unique: the sort compares only them
        _, segment_id, raw_ref = zip(*sorted(zip(line_index, segment_id, raw_ref)))
    refs = {raw: RefLabel.deserialize(raw) for raw in set(map(str, raw_ref))}
    try:
        return columns_to_labeling(segment_id, list(map(refs.__getitem__, map(str, raw_ref))))
    except ModelError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def encode_annotation(labeling: Labeling) -> str:
    """The annotation JSONL of ``labeling``: one ``{"line_index", "segment_id",
    "ref"}`` record per line, each ending in a newline, with the bytes of
    ``json.dumps`` on the record. The segments are numbered 0, 1, ...;
    ``json.dumps`` runs once per segment, not once per line."""
    records = []
    runs = zip(labeling.starts, labeling.stops(), labeling.run_refs)
    for seg, (start, stop, ref) in enumerate(runs):
        ref_json = json.dumps(ref.serialize())
        records.extend(f'{{"line_index": {i}, "segment_id": {seg}, "ref": {ref_json}}}\n'
                       for i in range(start, stop))
    return "".join(records)


def save_annotation(labeling: Labeling, path: str | Path) -> None:
    Path(path).write_text(encode_annotation(labeling), encoding="utf-8")


def load_manifest(path: str | Path) -> CorpusManifest:
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CorpusError(f"{path}: a manifest is a JSON object")
    doc = {"annotations": None, "split": "test", **doc}  # the two optional fields
    manifest = CorpusManifest(*_object_fields(path, doc, _MANIFEST, "manifest"), root=path.parent)
    # the transcript ids, the keys of JSON objects, are strings already
    files = [*manifest.transcripts, *manifest.worksheets.values(),
             *(manifest.annotations or {}).values()]
    if not all(isinstance(f, str) for f in files):
        raise CorpusError(f"{path}: file paths must be strings")
    ids: dict[str, str] = {}  # transcript id -> its path
    for tpath in manifest.transcripts:
        tid = Path(tpath).stem
        if tid in ids:
            raise CorpusError(f"{path}: transcripts {ids[tid]} and {tpath} both have id {tid!r}")
        if tid not in manifest.worksheets:
            raise CorpusError(f"{path}: no worksheet mapped for transcript {tid}")
        ids[tid] = tpath
    if manifest.annotations:
        missing = manifest.annotations.keys() - ids.keys()
        if missing:
            raise CorpusError(f"{path}: annotations reference unknown transcripts {sorted(missing)}")
    return manifest


def load_corpus(manifest: CorpusManifest) -> Corpus:
    entries: list[CorpusEntry] = []
    worksheet_cache: dict[str, Worksheet] = {}
    for tpath in manifest.transcripts:
        transcript = load_transcript(manifest.root / tpath)
        wpath = manifest.worksheets[transcript.id]
        if wpath not in worksheet_cache:
            worksheet_cache[wpath] = load_worksheet(manifest.root / wpath)
        gold = None
        if manifest.annotations and transcript.id in manifest.annotations:
            gold = load_annotation(
                manifest.root / manifest.annotations[transcript.id], len(transcript)
            )
        entries.append(CorpusEntry(transcript, worksheet_cache[wpath], gold))
    return Corpus(tuple(entries), manifest.split)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the deterministic synthetic corpus generator.

    ``vocab_overlap`` is the fraction of each segment's tokens drawn from a
    vocabulary shared across problems; at 0 every problem-linked segment
    uses only its own problem's vocabulary, so lexical retrieval over
    ground-truth segments is exact by construction. ``informal_prob`` is
    the chance a segment is informal talk (no ref) drawing from a separate
    chatter vocabulary.
    """

    n_transcripts: int = 4
    lines_per_segment: tuple[int, int] = (4, 10)
    segments_per_transcript: tuple[int, int] = (3, 8)
    n_problems: int = 8
    vocab_overlap: float = 0.0
    informal_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for lo, hi in (self.lines_per_segment, self.segments_per_transcript):
            if lo < 1 or hi < lo:
                raise CorpusError(f"empty or non-positive range ({lo}, {hi})")
        for name in ("vocab_overlap", "informal_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise CorpusError(f"{name} must be in [0, 1]")
        if self.n_transcripts < 1 or self.n_problems < 1:
            raise CorpusError("n_transcripts and n_problems must be positive")


TOKENS_PER_LINE = (5, 12)
VOCAB_WORDS_PER_PROBLEM = 12


def _word(prefix: str, i: int) -> str:
    return f"{prefix}{i:03d}"


def generate_synthetic(spec: SyntheticSpec) -> Corpus:
    """Deterministic synthetic corpus with known ground truth.

    Per-line durations are log-normal, clipped to [500 ms, 60 s], so time
    metrics genuinely diverge from line metrics.
    """
    rng = random.Random(spec.seed)
    problems = tuple(
        Problem(
            id=f"P{p + 1}",
            text=" ".join(_word(f"prob{p}w", i) for i in range(VOCAB_WORDS_PER_PROBLEM)),
        )
        for p in range(spec.n_problems)
    )
    worksheet = Worksheet(id="synthetic-ws", problems=problems)
    shared_vocab = [_word("common", i) for i in range(40)]
    chatter_vocab = [_word("chat", i) for i in range(40)]

    entries: list[CorpusEntry] = []
    for t in range(spec.n_transcripts):
        n_segments = rng.randint(*spec.segments_per_transcript)
        lines: list[Line] = []
        starts: list[int] = []
        refs: list[RefLabel] = []
        clock = 0
        problem_order = list(range(spec.n_problems))
        rng.shuffle(problem_order)
        for _ in range(n_segments):
            if rng.random() < spec.informal_prob or not problem_order:
                ref = RefLabel("none")
                base_vocab = chatter_vocab
            else:
                p = problem_order.pop()
                ref = RefLabel.problem(problems[p].id)
                base_vocab = problems[p].text.split()
            starts.append(len(lines))
            refs.append(ref)
            for _ in range(rng.randint(*spec.lines_per_segment)):
                n_tokens = rng.randint(*TOKENS_PER_LINE)
                toks = [
                    rng.choice(shared_vocab)
                    if rng.random() < spec.vocab_overlap
                    else rng.choice(base_vocab)
                    for _ in range(n_tokens)
                ]
                duration = int(min(max(rng.lognormvariate(8.0, 0.8), 500), 60_000))
                speaker = "[TUTOR]" if rng.random() < 0.6 else "[STUDENT]"
                lines.append(
                    Line(
                        index=len(lines),
                        speaker=speaker,
                        utterance=" ".join(toks),
                        start_ms=clock,
                        end_ms=clock + duration,
                    )
                )
                clock += duration
        transcript = Transcript(id=f"synthetic-{spec.seed}-{t:03d}", lines=tuple(lines))
        gold = runs_to_labeling(starts, refs, len(lines))
        entries.append(CorpusEntry(transcript, worksheet, gold))
    return Corpus(tuple(entries), split="train")


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write a loaded corpus to disk; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    transcripts: list[str] = []
    worksheets: dict[str, str] = {}
    annotations: dict[str, str] = {}
    written_ws: dict[str, Worksheet] = {}  # worksheet id -> the worksheet in its file
    for entry in corpus.entries:
        tpath = f"{entry.transcript.id}.jsonl"
        save_transcript(entry.transcript, out / tpath)
        transcripts.append(tpath)
        wpath = f"{entry.worksheet.id}.json"
        written = written_ws.get(entry.worksheet.id)
        if written is None:
            save_worksheet(entry.worksheet, out / wpath)
            written_ws[entry.worksheet.id] = entry.worksheet
        elif written != entry.worksheet:
            raise CorpusError(f"two different worksheets have id {entry.worksheet.id!r}")
        worksheets[entry.transcript.id] = wpath
        if entry.gold is not None:
            apath = f"{entry.transcript.id}.labels.jsonl"
            save_annotation(entry.gold, out / apath)
            annotations[entry.transcript.id] = apath
    manifest: dict = {"split": corpus.split, "transcripts": transcripts, "worksheets": worksheets}
    if annotations:
        manifest["annotations"] = annotations
    save_json(out / "manifest.json", manifest)
    return out / "manifest.json"


# ---------------------------------------------------------------------------
# statistics


def corpus_stats(corpus: Corpus) -> dict[str, float | int | str]:
    """Summary table: totals and per-transcript means.

    Segment/problem rows are omitted (with a notice key) when no
    annotations are present.
    """
    n = len(corpus)
    if n == 0:
        raise CorpusError("empty corpus")
    stats: dict[str, float | int | str] = {"total_transcripts": n}
    speakers_per = [len({l.speaker for l in e.transcript.lines}) for e in corpus.entries]
    # a speaker is counted once per transcript, and transcript ids are unique
    stats["total_speakers"] = sum(speakers_per)
    stats["mean_speakers_per_transcript"] = sum(speakers_per) / n
    stats["mean_lines_per_transcript"] = sum(len(e.transcript) for e in corpus.entries) / n
    stats["mean_duration_mins"] = (
        sum(e.transcript.duration_ms for e in corpus.entries) / n / 60_000
    )
    annotated = [e for e in corpus.entries if e.gold is not None]
    if annotated and len(annotated) == n:
        seg_counts = [e.gold.num_segments() for e in annotated]  # type: ignore[union-attr]
        stats["total_segments"] = sum(seg_counts)
        stats["mean_segments_per_transcript"] = sum(seg_counts) / n
        prob_counts = [
            len({r.problem_id for r in e.gold.run_refs if r.kind == "problem"})  # type: ignore[union-attr]
            for e in annotated
        ]
        stats["mean_problems_per_transcript"] = sum(prob_counts) / n
    else:
        stats["notice"] = "segment/problem rows omitted: annotations missing"
    stats["total_worksheets"] = len({e.worksheet.id for e in corpus.entries})
    stats["total_problems"] = sum(
        len(ws.problems)
        for ws in {e.worksheet.id: e.worksheet for e in corpus.entries}.values()
    )
    return stats
