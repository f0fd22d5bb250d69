"""End-to-end LLM prediction for one transcript.

Three modes mirror the prompt kinds: joint (one request yielding spans
with refs), segmentation-only (one request, refs left unset), and the
independent pipeline (one segmentation request followed by one retrieval
request per predicted segment). ``run_posr_llm_batch`` overlaps the
requests of different transcripts on a small thread pool.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..metrics import TokenUsage
from ..model import (
    REF_NONE,
    GapPolicy,
    Labeling,
    SegmentSpan,
    Transcript,
    Worksheet,
    spans_to_labeling,
)
from .client import ChatClient, ChatRequest, ChatResponse
from .parsing import ParseFailure, parse_joint, parse_retrieval, parse_segmentation
from .prompts import PromptKind, build_prompt

logger = logging.getLogger(__name__)

# Transcripts in flight at once. Below requests' default pool of 10
# connections per host, so a shared HttpChatClient never drops a connection.
LLM_CONCURRENCY = 8


@dataclass(frozen=True)
class LLMRunResult:
    labeling: Labeling
    usage: TokenUsage
    parse_failed: bool = False


def fallback_labeling(n_lines: int) -> Labeling:
    """The flagged fallback: one segment with no ref over every line."""
    return Labeling(tuple((0, REF_NONE) for _ in range(n_lines)))


def _call(client: ChatClient, model: str, system: str, user: str, max_tokens: int,
          temperature: float, usage: TokenUsage) -> tuple[ChatResponse, TokenUsage]:
    """One request; returns the response and ``usage`` plus its tokens.

    A request that raises carries ``usage``, the tokens spent before it, as
    the exception's ``usage`` attribute, so a transcript that fails part-way
    is still priced.
    """
    try:
        response = client.complete(
            ChatRequest(model=model, system=system, user=user,
                        max_tokens=max_tokens, temperature=temperature)
        )
    except Exception as exc:
        exc.usage = usage  # type: ignore[attr-defined]
        raise
    return response, usage + TokenUsage(response.input_tokens, response.output_tokens, 1)


def run_posr_llm(
    client: ChatClient,
    model: str,
    transcript: Transcript,
    worksheet: Worksheet,
    kind: PromptKind,
    max_tokens: int = 4096,
    temperature: float = 0.0,
    gap_policy: GapPolicy = GapPolicy.OWN_SEGMENT,
) -> LLMRunResult:
    """Predict a Labeling for one transcript via the chosen prompt protocol.

    An unparseable top-level response falls back to a single no-ref
    segment and is flagged; per-segment retrieval parse failures degrade
    that segment to no ref without failing the transcript. An exception
    raised by a request carries the usage of the requests answered before
    it as its ``usage`` attribute.
    """
    n = len(transcript)
    usage = TokenUsage()

    if kind is PromptKind.JOINT_POSR:
        system, user = build_prompt(kind, transcript, worksheet)
        response, usage = _call(client, model, system, user, max_tokens, temperature, usage)
        try:
            spans = parse_joint(response.text, n, worksheet)
        except ParseFailure as exc:
            logger.warning("%s: joint parse failure: %s", transcript.id, exc)
            return LLMRunResult(fallback_labeling(n), usage, parse_failed=True)
        return LLMRunResult(spans_to_labeling(spans, n, gap_policy), usage)

    # both independent modes start with a segmentation request
    system, user = build_prompt(PromptKind.INDEPENDENT_SEGMENTATION, transcript)
    response, usage = _call(client, model, system, user, max_tokens, temperature, usage)
    try:
        spans = parse_segmentation(response.text, n)
    except ParseFailure as exc:
        logger.warning("%s: segmentation parse failure: %s", transcript.id, exc)
        return LLMRunResult(fallback_labeling(n), usage, parse_failed=True)

    if kind is PromptKind.INDEPENDENT_SEGMENTATION:
        return LLMRunResult(spans_to_labeling(spans, n, gap_policy), usage)

    # independent retrieval: one request per predicted segment, in order
    labeled: list[SegmentSpan] = []
    for span in spans:
        system, user = build_prompt(
            PromptKind.INDEPENDENT_RETRIEVAL,
            transcript,
            worksheet,
            segment=(span.start_line, span.end_line),
        )
        response, usage = _call(client, model, system, user, max_tokens, temperature, usage)
        try:
            ref = parse_retrieval(response.text, worksheet)
        except ParseFailure as exc:
            logger.warning(
                "%s: retrieval parse failure on segment (%d, %d): %s",
                transcript.id, span.start_line, span.end_line, exc,
            )
            ref = REF_NONE
        labeled.append(SegmentSpan(span.start_line, span.end_line, ref))
    return LLMRunResult(spans_to_labeling(labeled, n, gap_policy), usage)


def run_posr_llm_batch(
    client: ChatClient,
    model: str,
    items: Sequence[tuple[Transcript, Worksheet]],
    kind: PromptKind,
) -> list[LLMRunResult | Exception]:
    """``run_posr_llm`` over (transcript, worksheet) pairs, up to
    ``LLM_CONCURRENCY`` transcripts at a time, on one shared client.

    Returns one outcome per pair, in input order: the result, or the
    exception its run raised. The requests of one transcript still go out
    one after another.
    """
    pool = ThreadPoolExecutor(max_workers=LLM_CONCURRENCY)
    try:
        futures = [pool.submit(run_posr_llm, client, model, transcript, worksheet, kind)
                   for transcript, worksheet in items]
        outcomes: list[LLMRunResult | Exception] = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # noqa: BLE001 - the caller flags this transcript
                outcomes.append(exc)
        return outcomes
    finally:
        # an interrupted wait drops the transcripts not yet started
        pool.shutdown(cancel_futures=True)
