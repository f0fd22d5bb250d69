"""Prompt construction from the verbatim template assets.

Templates live as text files next to this module so they can be reviewed
and diffed without touching code; rendering is plain ``str.format`` style
substitution of the ``{transcript}`` and ``{problems}`` placeholders.
"""

from __future__ import annotations

import enum
import functools
from importlib import resources

from ..model import Transcript, Worksheet


class PromptKind(enum.Enum):
    INDEPENDENT_SEGMENTATION = "independent_segmentation"
    INDEPENDENT_RETRIEVAL = "independent_retrieval"
    JOINT_POSR = "joint_posr"


@functools.cache
def _load_template(name: str) -> str:
    ref = resources.files("posr.llm") / "templates" / name
    return ref.read_text(encoding="utf-8").rstrip("\n")


def render_transcript_lines(transcript: Transcript) -> str:
    return "\n".join(f"{l.index} {l.speaker}: {l.utterance}" for l in transcript.lines)


def render_segment_lines(transcript: Transcript, start: int, end: int) -> str:
    return "\n".join(
        f"{l.speaker}: {l.utterance}" for l in transcript.lines[start : end + 1]
    )


def render_problems(worksheet: Worksheet) -> str:
    return "\n".join(f"Problem ID {p.id}: {p.text}" for p in worksheet.problems)


def build_prompt(
    kind: PromptKind,
    transcript: Transcript | None = None,
    worksheet: Worksheet | None = None,
    segment: tuple[int, int] | None = None,
) -> tuple[str, str]:
    """Render (system, user) for one request; byte-stable for fixed inputs.

    Every kind needs the transcript, and all but segmentation the worksheet.
    The retrieval prompt shows only ``segment``, the inclusive (start_line,
    end_line) pair, in place of the whole transcript.
    """
    retrieval = kind is PromptKind.INDEPENDENT_RETRIEVAL
    with_problems = kind is not PromptKind.INDEPENDENT_SEGMENTATION
    required: dict[str, object] = {"transcript": transcript}
    if with_problems:
        required["worksheet"] = worksheet
    if retrieval:
        required["segment"] = segment
    if any(value is None for value in required.values()):
        raise ValueError(f"{kind.value} prompt requires {', '.join(required)}")
    lines = (render_segment_lines(transcript, *segment) if retrieval  # type: ignore[misc]
             else render_transcript_lines(transcript))
    # {transcript} first: a "{problems}" inside the transcript is filled too
    user = _load_template(f"{kind.value}.user.txt").replace("{transcript}", lines)
    if with_problems:
        user = user.replace("{problems}", render_problems(worksheet))  # type: ignore[arg-type]
    return _load_template(f"{kind.value}.system.txt"), user
