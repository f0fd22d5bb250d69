"""Total parsers for model responses.

Every parser either returns a value or raises ParseFailure saying why the
reply did not parse; callers choose the fallback (single no-ref segment,
flagged).
"""

from __future__ import annotations

import json
import logging
import re

from ..model import (
    REF_NONE,
    REF_NOT_IN_CORPUS,
    RefLabel,
    SegmentSpan,
    Worksheet,
    clamp_span,
)

logger = logging.getLogger(__name__)

_FENCE = re.compile(r"```[a-zA-Z]*\n?|```")


class ParseFailure(Exception):
    """A response that could not be interpreted."""


def _strip_fences(text: str) -> str:
    return _FENCE.sub("", text)


def _closing_brackets(text: str) -> list[int]:
    """``closes[p]``: where a scan that enters ``text[p:]`` outside a string
    at bracket depth 0 first reads an unmatched ``]``, or -1 if it never does.

    A scan that starts on the ``[`` at ``s`` therefore returns to depth 0 at
    ``closes[s + 1]``. Every ``[`` starts its own scan outside a string, even
    one that an earlier scan reads as inside a string, so one forward pass
    with a single string state would miss candidates. Filled in one pass
    from right to left, so linear in ``len(text)``.
    """
    n = len(text)
    closes = [-1] * (n + 1)  # entering p outside a string
    in_str = [-1] * (n + 2)  # entering p inside a string
    for p in range(n - 1, -1, -1):
        ch = text[p]
        if ch == "\\":
            in_str[p] = in_str[p + 2]  # the next character is escaped
        elif ch == '"':
            in_str[p] = closes[p + 1]
        else:
            in_str[p] = in_str[p + 1]
        if ch == "]":
            closes[p] = p
        elif ch == "[":
            inner = closes[p + 1]  # the ] that matches this [
            closes[p] = -1 if inner < 0 else closes[inner + 1]
        elif ch == '"':
            closes[p] = in_str[p + 1]
        else:
            closes[p] = closes[p + 1]
    return closes


def _extract_json_array(text: str) -> list:
    """First balanced top-level [...] that parses as JSON, prose tolerated.

    Tries each ``[`` in order whose scan closes. ``raw_decode`` from that
    ``[`` succeeds exactly when the balanced region parses as a whole: a
    valid JSON array ends at the ``]`` that balances it, and the decoder
    stops at or before that ``]`` when the region is not valid.
    """
    text = _strip_fences(text)
    closes = _closing_brackets(text)
    decode = json.JSONDecoder().raw_decode
    start = text.find("[")
    while start >= 0:
        if closes[start + 1] >= 0:
            try:
                return decode(text, start)[0]  # a list: it starts with [
            except json.JSONDecodeError:
                pass
        start = text.find("[", start + 1)
    raise ParseFailure("no parseable JSON array found")


def _is_index(value) -> bool:
    """A line index is a JSON integer, not a boolean: never 2.9, true or "5"."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_segmentation(text: str, n_lines: int) -> list[SegmentSpan]:
    """Parse the list-of-[first, last] output of the segmentation prompt."""
    value = _extract_json_array(text)
    spans: list[SegmentSpan] = []
    for item in value:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_index, item))):
            raise ParseFailure(f"expected [first, last] pair, got {item!r}")
        clamped = clamp_span(item[0], item[1], n_lines)
        if clamped is not None:
            spans.append(SegmentSpan(*clamped))
    if not spans:
        raise ParseFailure("no usable spans in response")
    return spans


def parse_retrieval(text: str, worksheet: Worksheet) -> RefLabel:
    """Parse the retrieval answer: "null", -1, or a problem id: the earliest
    id in the answer with no word character, ``.`` or ``-`` on either side,
    the longest at that place, so the whole answer when it is an id. A ``.``
    that ends the answer, or that no word character, ``.`` or ``-`` follows,
    ends a sentence and so bounds the id before it: ``Problem 3.`` names 3,
    ``3.5`` does not. An empty id never matches."""
    stripped = _strip_fences(text).strip().strip('"').strip()
    if stripped.lower() == "null":
        return REF_NONE
    if stripped == "-1":
        return REF_NOT_IN_CORPUS
    ids = sorted(filter(None, worksheet.problem_ids()), key=len, reverse=True)
    alternatives = "|".join(map(re.escape, ids))  # tried longest first at each place
    found = ids and re.search(rf"(?<![\w.-])(?:{alternatives})(?![\w-]|\.[\w.-])", stripped)
    if found:
        return RefLabel.problem(found.group())
    raise ParseFailure(f"no worksheet problem id in {stripped!r}")


def _to_ref(problem_id, ids: set[str]) -> RefLabel:
    if problem_id is None:
        return REF_NONE
    pid = str(problem_id)
    if pid == "-1":
        return REF_NOT_IN_CORPUS
    if pid in ids:
        return RefLabel.problem(pid)
    logger.warning("problem_id %r not in worksheet; treating as off-worksheet", problem_id)
    return REF_NOT_IN_CORPUS


def parse_joint(text: str, n_lines: int, worksheet: Worksheet) -> list[SegmentSpan]:
    """Parse the list of {start_line_idx, end_line_idx, problem_id} objects."""
    value = _extract_json_array(text)
    ids = set(worksheet.problem_ids())
    spans: list[SegmentSpan] = []
    for item in value:
        if not isinstance(item, dict):
            raise ParseFailure(f"expected JSON object, got {item!r}")
        start, end = item.get("start_line_idx"), item.get("end_line_idx")
        if not (_is_index(start) and _is_index(end)):
            raise ParseFailure(f"bad segment object {item!r}")
        clamped = clamp_span(start, end, n_lines)
        if clamped is not None:
            spans.append(SegmentSpan(*clamped, _to_ref(item.get("problem_id"), ids)))
    if not spans:
        raise ParseFailure("no usable spans in response")
    return spans
