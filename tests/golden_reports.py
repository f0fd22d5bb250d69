"""Golden report digests: every CLI command run on a small committed fixture,
each output file reduced to its sha256.

``tests/test_golden.py`` compares a fresh run with ``golden/digests.json``.
A change that alters reports on purpose rewrites the table:

    PYTHONPATH=src python tests/golden_reports.py            # the table
    PYTHONPATH=src python tests/golden_reports.py --fixture  # fixture, then table

Every supported Python writes the same bytes, so the table holds one
digest per file.

The fixture is a ``gen-corpus`` corpus at a fixed seed (``plain``) and a
deterministic rewrite of its text (``surface``) with capitals, punctuation,
``'s``, ``(x^2-1)``, ``3.5``, tabs and non-ASCII words. The LLM methods are
replayed from ``golden/cassette.json``, recorded from scripted replies that
include a prose reply (a parse fallback) and two requests with no entry (a
failed transcript each).
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPORA = ("plain", "surface")
MODEL = "m"


def commands(corpus: Path, out: Path) -> list[list[str]]:
    """Every command of the CLI on one fixture corpus, writing below ``out``."""
    m = str(corpus / "manifest.json")
    cmds = [["stats", "--manifest", m, "--out", str(out / "stats")],
            ["calibrate", "--manifest", m, "--out", str(out / "calibrate")],
            ["analyze", "--manifest", m, "--problem", "P4", "--out", str(out / "analyze")]]
    # only the boundary-word segmenters read a train manifest
    train = {"texttiling": [], "top10": ["--train-manifest", m], "top20": ["--train-manifest", m]}
    for method in ("texttiling", "top10", "top20"):
        cmds.append(["segment", "--manifest", m, *train[method], "--method", method,
                     "--out", str(out / f"segment-{method}")])
    for scorer in ("jaccard", "tfidf", "bm25"):
        cmds.append(["retrieve", "--manifest", m, "--method", scorer, "--threshold", "0.05",
                     "--out", str(out / f"retrieve-{scorer}")])
        for method in ("texttiling", "top10"):
            cmds.append(["posr", "--manifest", m, *train[method], "--method", method,
                         "--retrieval", scorer, "--threshold", "0.05",
                         "--out", str(out / f"posr-{method}-{scorer}")])
    for method in ("joint-llm", "independent-llm", "segment-llm"):
        cmds.append(["posr", "--manifest", m, "--method", method, "--model", MODEL,
                     "--cassette", str(GOLDEN / "cassette.json"),
                     "--prices", str(GOLDEN / "prices.json"),
                     "--out", str(out / f"posr-{method}")])
    return cmds


def run_digests(work: Path) -> dict[str, str]:
    """Run every command on both fixture corpora into ``work``; the sha256 of
    each output file except ``run_manifest.json``, keyed by its path below
    ``work``."""
    from posr.cli import main

    for name in CORPORA:
        for argv in commands(GOLDEN / name, work / name):
            if main(argv) != 0:
                raise RuntimeError(f"posr {' '.join(argv)} failed")
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "run_manifest.json"}


def write_table(digests: dict[str, str]) -> None:
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")


# --- fixture -----------------------------------------------------------------

NON_ASCII = ["caf\xe9", "na\xefve", "Stra\xdfe", "ﬁnal", "İstanbul",
             "Kelvin", "Ωmega", "\U0001F600", "d\xe9j\xe0-vu", "\xc9T\xc9"]


def surface_text(text: str, i: int) -> str:
    """A deterministic rewrite of one utterance or problem text: the same
    words, with the surface forms real transcripts have."""
    words = text.split()
    words[0] = words[0].capitalize()
    if i % 8 == 5:
        words[-1] = words[-1].upper()
    if i % 4 == 0 and len(words) > 1:
        words[1] += "'s"
    if i % 6 == 1:
        words.append("(x^2-1)")
    if i % 6 == 4:
        words.append("3.5,")
    if i % 5 == 0:
        words.insert(len(words) // 2, NON_ASCII[i // 5 % len(NON_ASCII)])
    words[-1] += ",.?!:"[i % 5]
    head = "\t".join(words[:2]) if i % 7 == 3 else " ".join(words[:2])
    return " ".join([head, *words[2:]])


def write_surface(plain: Path, surface: Path) -> None:
    """``plain`` with every utterance and problem text rewritten by
    ``surface_text``; manifests and annotations are copied as they are."""
    surface.mkdir(parents=True)
    count = 0
    for path in sorted(plain.iterdir()):
        if path.name.endswith(".labels.jsonl") or path.name == "manifest.json":
            shutil.copyfile(path, surface / path.name)
        elif path.suffix == ".jsonl":
            records = []
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                rec["utterance"] = surface_text(rec["utterance"], count)
                count += 1
                records.append(json.dumps(rec, ensure_ascii=False) + "\n")
            (surface / path.name).write_text("".join(records), encoding="utf-8")
        elif path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            for j, problem in enumerate(doc["problems"]):
                problem["text"] = surface_text(problem["text"], j)
            (surface / path.name).write_text(
                json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _ref_id(ref) -> str | int | None:
    if ref.kind == "problem":
        return ref.problem_id
    return -1 if ref.kind == "not_in_corpus" else None


def _majority_problem(segment_text: str, problem_ids: list[str]) -> str:
    """The retrieval answer a careful reader would give: the problem whose
    words fill most of the segment, "-1" if no problem has a majority of
    them, "null" if there are none."""
    hits = [int(k) for k in re.findall(r"prob(\d+)w", segment_text.lower())]
    if not hits:
        return "null"
    top = max(set(hits), key=lambda k: (hits.count(k), -k))
    return problem_ids[top] if 2 * hits.count(top) > len(hits) else "-1"


def scripted_responder(position: int, entry):
    """Replies for the ``position``-th transcript of a corpus, derived from
    its gold spans. Transcript 1 gets prose with no JSON array; from
    transcript 3 on, spans overlap, leave gaps, reach past the transcript and
    name a problem the worksheet lacks; transcript 3's first segment gets a
    retrieval answer naming no problem."""
    from posr.model import labeling_to_spans

    n = len(entry.transcript)
    problem_ids = entry.worksheet.problem_ids()
    first = entry.transcript.lines[0]
    first_line = f"{first.speaker}: {first.utterance}"
    spans = [(s.start_line, s.end_line, _ref_id(s.ref)) for s in labeling_to_spans(entry.gold)]
    if position >= 3 and len(spans) >= 3:
        s0, e0, r0 = spans[0]
        spans[0] = (s0, min(e0 + 2, n - 1), r0)  # overlaps the next span
        del spans[1]  # leaves a gap unless the overlap covers it
        s, e, _ = spans[-1]
        spans[-1] = (s, e + 5, "P99")  # clamped; not on the worksheet
        spans.append((n + 2, n + 6, None))  # wholly outside: dropped
        spans.insert(1, (spans[1][0], spans[1][1], None))  # equal starts

    def respond(request) -> str:
        user = request.user
        if position == 1 and "Segment:\n" not in user:
            return "I could not find any clear segments in this transcript."
        if "Segment:\n" in user:
            segment = user.split("Segment:\n", 1)[1].split("\n\nMath problems:", 1)[0]
            if position == 3 and segment.startswith(first_line):
                return "I am not sure which problem this is."
            answer = _majority_problem(segment, problem_ids)
            if answer in ("null", "-1"):
                return answer
            # the three shapes of answer that parse_retrieval accepts
            return (answer, f'"{answer}"', f"The problem discussed is {answer}.")[len(segment) % 3]
        if "Math problems:" in user:
            doc = [{"start_line_idx": s, "end_line_idx": e, "problem_id": r}
                   for s, e, r in spans]
            return "Here are the segments:\n```json\n" + json.dumps(doc) + "\n```"
        return json.dumps([[s, e] for s, e, _ in spans])

    return respond


def write_cassette(plain: Path, surface: Path) -> None:
    """Record every LLM request of both corpora from ``scripted_responder``,
    then delete two entries: transcript 2's joint request and its second
    retrieval request."""
    from posr.corpus import load_corpus, load_manifest
    from posr.llm import CassetteClient, PromptKind, ScriptedClient, run_posr_llm

    cassette = CassetteClient(GOLDEN / "cassette.json")
    missing = []
    for corpus_dir in (plain, surface):
        corpus = load_corpus(load_manifest(corpus_dir / "manifest.json"))
        for position, entry in enumerate(corpus.entries):
            for kind in PromptKind:
                scripted = ScriptedClient(scripted_responder(position, entry))
                cassette.inner = scripted
                run_posr_llm(cassette, MODEL, entry.transcript, entry.worksheet, kind)
                if position != 2:
                    continue
                if kind is PromptKind.JOINT_POSR:
                    missing.append(scripted.calls[0].key())
                elif kind is PromptKind.INDEPENDENT_RETRIEVAL:
                    retrievals = [c for c in scripted.calls if "Segment:\n" in c.user]
                    missing.append(retrievals[1].key())
    for key in missing:
        del cassette._cache[key]
    cassette.save()


def write_fixture() -> None:
    from posr.cli import main

    for name in (*CORPORA, "cassette.json", "digests.json"):
        path = GOLDEN / name
        if path.is_dir():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)
    plain = GOLDEN / "plain"
    main(["gen-corpus", "--out", str(plain), "--seed", "11", "--n-transcripts", "6",
          "--n-problems", "5", "--vocab-overlap", "0.2", "--informal-prob", "0.25"])
    (plain / "run_manifest.json").unlink()
    write_surface(plain, GOLDEN / "surface")
    (GOLDEN / "prices.json").write_text(json.dumps(
        {MODEL: {"input_usd_per_1k": 0.5, "output_usd_per_1k": 1.5}}, indent=2) + "\n",
        encoding="utf-8")
    write_cassette(plain, GOLDEN / "surface")


def main(argv: list[str]) -> int:
    if "--fixture" in argv:
        write_fixture()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    write_table(digests)
    print(f"{len(digests)} digests written to {GOLDEN / 'digests.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
