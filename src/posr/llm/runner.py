"""End-to-end LLM prediction for one transcript.

Three modes mirror the prompt kinds: joint (one request yielding spans
with refs), segmentation-only (one request, refs left unset), and the
independent pipeline (one segmentation request followed by one retrieval
request per predicted segment). ``run_posr_llm_batch`` runs the requests of
many transcripts on one pool of ``LLM_CONCURRENCY`` (16) threads, so the
retrieval requests of one transcript overlap with each other and with
other transcripts' requests. 16 halves the rounds of endpoint latency a
run waits out at 8; 32 or more gained nothing on the bench and stalled
more often on bursts of new connections. ``run_posr_llm`` is the same run
for one transcript on one worker, so its requests go out one after
another.

Both settle every transcript to one ``LLMRunResult``. A reply that does not
parse gives the flagged fallback (``parse_failed``). A request that raises
gives the fallback too, priced with every reply the transcript got
answered, with the exception of its first failing request (in segment
order) as ``error``, logged here. Either way the transcript is scored and
priced, never dropped.
"""

from __future__ import annotations

import logging
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..metrics import TokenUsage
from ..model import (
    REF_NONE,
    Labeling,
    SegmentSpan,
    Transcript,
    Worksheet,
    runs_to_labeling,
    spans_to_labeling,
)
from .client import ChatClient, ChatRequest, ChatResponse
from .parsing import ParseFailure, parse_joint, parse_retrieval, parse_segmentation
from .prompts import PromptKind, build_prompt

logger = logging.getLogger(__name__)

# Requests in flight at once; an HttpChatClient holds one connection per
# worker. A latency-bound run waits out about ceil(requests / this) rounds
# of endpoint latency: the bench's independent-llm workload ran 1.5x faster
# at 16 than at 8. At 32 it ran no faster and peaked 1.3% higher in memory.
# Bursts of new connections can overflow an endpoint's listen backlog, and
# each overflow stalls a request about a second until the SYN is resent:
# against the bench endpoint (backlog 5) that hit 1 run in 48 at 16, 11 in
# 48 at 32 and nearly every run at 64. 16 also keeps one run a modest load
# on a shared endpoint and its rate limit.
LLM_CONCURRENCY = 16


@dataclass(frozen=True)
class LLMRunResult:
    labeling: Labeling
    usage: TokenUsage
    parse_failed: bool = False
    error: Exception | None = None


def fallback_labeling(n_lines: int) -> Labeling:
    """The flagged fallback: one segment with no ref over every line."""
    return runs_to_labeling([0], [REF_NONE], n_lines)


def _call(client: ChatClient, model: str, system: str,
          user: str) -> tuple[ChatResponse, TokenUsage]:
    """One request; returns the response and its tokens."""
    response = client.complete(ChatRequest(model=model, system=system, user=user))
    return response, TokenUsage(response.input_tokens, response.output_tokens, 1)


def _failed(transcript: Transcript, usage: TokenUsage, exc: Exception) -> LLMRunResult:
    """A run with a request that raised: the fallback, priced with ``usage``."""
    logger.error("%s: LLM run failed: %s", transcript.id, exc, exc_info=exc)
    return LLMRunResult(fallback_labeling(len(transcript)), usage, error=exc)


def _first_request(
    pool: ThreadPoolExecutor, client: ChatClient, model: str, transcript: Transcript,
    worksheet: Worksheet, kind: PromptKind,
) -> LLMRunResult | tuple[TokenUsage, list[Future]]:
    """A transcript's joint or segmentation request.

    Returns the finished result, or, under independent retrieval with a
    reply that parses, the usage so far and the futures of the retrieval
    requests it submitted to ``pool``, one per predicted span.
    """
    n = len(transcript)
    if kind is PromptKind.JOINT_POSR:
        system, user = build_prompt(kind, transcript, worksheet)
        response, usage = _call(client, model, system, user)
        try:
            spans = parse_joint(response.text, n, worksheet)
        except ParseFailure as exc:
            logger.warning("%s: joint parse failure: %s", transcript.id, exc)
            return LLMRunResult(fallback_labeling(n), usage, parse_failed=True)
        return LLMRunResult(spans_to_labeling(spans, n), usage)

    # both independent modes start with a segmentation request
    system, user = build_prompt(PromptKind.INDEPENDENT_SEGMENTATION, transcript)
    response, usage = _call(client, model, system, user)
    try:
        spans = parse_segmentation(response.text, n)
    except ParseFailure as exc:
        logger.warning("%s: segmentation parse failure: %s", transcript.id, exc)
        return LLMRunResult(fallback_labeling(n), usage, parse_failed=True)

    if kind is PromptKind.INDEPENDENT_SEGMENTATION:
        return LLMRunResult(spans_to_labeling(spans, n), usage)
    return usage, [pool.submit(_retrieval_request, client, model, transcript, worksheet, span)
                   for span in spans]


def _retrieval_request(
    client: ChatClient, model: str, transcript: Transcript, worksheet: Worksheet,
    span: SegmentSpan,
) -> tuple[SegmentSpan, TokenUsage]:
    """One segment's retrieval request; returns the segment with its ref and
    the reply's tokens. A reply that does not parse degrades the segment to
    no ref without failing the transcript."""
    system, user = build_prompt(
        PromptKind.INDEPENDENT_RETRIEVAL,
        transcript,
        worksheet,
        segment=(span.start_line, span.end_line),
    )
    response, usage = _call(client, model, system, user)
    try:
        ref = parse_retrieval(response.text, worksheet)
    except ParseFailure as exc:
        logger.warning(
            "%s: retrieval parse failure on segment (%d, %d): %s",
            transcript.id, span.start_line, span.end_line, exc,
        )
        ref = REF_NONE
    return SegmentSpan(span.start_line, span.end_line, ref), usage


def run_posr_llm(
    client: ChatClient,
    model: str,
    transcript: Transcript,
    worksheet: Worksheet,
    kind: PromptKind,
) -> LLMRunResult:
    """Predict a Labeling for one transcript via the chosen prompt protocol.

    Every request asks for up to ``MAX_TOKENS`` tokens at ``TEMPERATURE``,
    the constants of ``posr.llm.client``. Lines that no predicted span
    covers become their own no-ref segments (``spans_to_labeling``). An
    unparseable top-level response falls back to a single no-ref segment and
    is flagged; per-segment retrieval parse failures degrade that segment to
    no ref without failing the transcript. The requests go out one after
    another; a request that raises is settled as in ``run_posr_llm_batch``.
    """
    return _run(client, model, [(transcript, worksheet)], kind, workers=1)[0]


def run_posr_llm_batch(
    client: ChatClient,
    model: str,
    items: Sequence[tuple[Transcript, Worksheet]],
    kind: PromptKind,
) -> list[LLMRunResult]:
    """``run_posr_llm`` over (transcript, worksheet) pairs on one shared
    client, with up to ``LLM_CONCURRENCY`` requests in flight.

    Returns one result per pair, in input order. When requests of a
    transcript raise, its result is the fallback, its ``error`` is the
    exception of the first failing request in segment order, and its
    ``usage`` counts every reply that was answered, also those that
    finished after the failing one.
    """
    return _run(client, model, items, kind, workers=LLM_CONCURRENCY)


def _run(client: ChatClient, model: str, items: Sequence[tuple[Transcript, Worksheet]],
         kind: PromptKind, workers: int) -> list[LLMRunResult]:
    """Each request is one task on one pool of ``workers`` threads. A
    transcript's first task sends its joint or segmentation request; under
    independent retrieval it then submits that transcript's retrieval
    requests to the same pool. No task waits on another, so the pool cannot
    deadlock, and one worker sends the requests in order."""
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        started = [pool.submit(_first_request, pool, client, model, transcript, worksheet, kind)
                   for transcript, worksheet in items]
        return [_outcome(future, transcript)
                for (transcript, _), future in zip(items, started)]
    finally:
        # an interrupted wait drops the requests not yet started
        pool.shutdown(cancel_futures=True)


def _outcome(started: Future, transcript: Transcript) -> LLMRunResult:
    """Wait for one transcript of the batch: its first request, then each of
    its retrieval requests in segment order."""
    try:
        first = started.result()
    except Exception as exc:  # noqa: BLE001 - settled as a flagged fallback
        return _failed(transcript, TokenUsage(), exc)
    if isinstance(first, LLMRunResult):
        return first
    usage, retrievals = first
    labeled: list[SegmentSpan] = []
    failure: Exception | None = None
    for future in retrievals:
        try:
            segment, reply = future.result()
        except Exception as exc:  # noqa: BLE001 - settled as a flagged fallback
            if failure is None:
                failure = exc
            continue
        labeled.append(segment)
        usage += reply
    if failure is not None:
        return _failed(transcript, usage, failure)
    return LLMRunResult(spans_to_labeling(labeled, len(transcript)), usage)
