"""Prompt construction from the verbatim template assets.

Templates live as text files next to this module so they can be reviewed
and diffed without touching code; rendering is plain ``str.format`` style
substitution of the ``{transcript}`` and ``{problems}`` placeholders.
"""

from __future__ import annotations

import enum
from importlib import resources

from ..model import Transcript, Worksheet


class PromptKind(enum.Enum):
    INDEPENDENT_SEGMENTATION = "independent_segmentation"
    INDEPENDENT_RETRIEVAL = "independent_retrieval"
    JOINT_POSR = "joint_posr"


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

    ``segment`` is the inclusive (start_line, end_line) pair required by
    the per-segment retrieval prompt.
    """
    system = _load_template(f"{kind.value}.system.txt")
    user = _load_template(f"{kind.value}.user.txt")
    if kind is PromptKind.INDEPENDENT_SEGMENTATION:
        if transcript is None:
            raise ValueError("segmentation prompt requires a transcript")
        user = user.replace("{transcript}", render_transcript_lines(transcript))
    elif kind is PromptKind.INDEPENDENT_RETRIEVAL:
        if transcript is None or worksheet is None or segment is None:
            raise ValueError("retrieval prompt requires transcript, worksheet, and segment")
        user = user.replace(
            "{transcript}", render_segment_lines(transcript, segment[0], segment[1])
        )
        user = user.replace("{problems}", render_problems(worksheet))
    else:
        if transcript is None or worksheet is None:
            raise ValueError("joint prompt requires transcript and worksheet")
        user = user.replace("{transcript}", render_transcript_lines(transcript))
        user = user.replace("{problems}", render_problems(worksheet))
    return system, user
