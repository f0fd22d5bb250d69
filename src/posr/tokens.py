"""Shared tokenizer used by every lexical component.

All baselines, retrieval scorers, and language analyses tokenize the same
way so their scores stay comparable: lowercase, split on any run of
non-alphanumeric characters, drop empties.
"""

from __future__ import annotations

import functools

from .model import Transcript

# each non-ASCII character encodes to "?", and every byte outside [0-9a-z]
# becomes a space, so str.split gives the runs of [0-9a-z]
_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz"
_ASCII_TO_SPACE = bytes(c if c in _ALNUM else 32 for c in range(256))


def tokenize(text: str) -> list[str]:
    return text.lower().encode("ascii", "replace").translate(_ASCII_TO_SPACE).decode().split()


def bigrams(toks: list[str]) -> list[str]:
    """Adjacent-token bigrams of one utterance's tokens, joined with '_'.

    Bigrams never cross utterance boundaries; call per line, on its slice
    of ``token_column``.
    """
    return [f"{a}_{b}" for a, b in zip(toks, toks[1:])]


@functools.lru_cache(maxsize=1)  # its readers run back to back; each command clears it
def token_column(transcript: Transcript) -> tuple[list[str], list[int]]:
    """Every token of ``transcript`` in line order (one string per distinct
    token), and where each line's tokens start: lines i..j-1 hold
    ``tokens[starts[i]:starts[j]]``, ``tokenize`` of their utterances joined by
    spaces. Every caller gets the same two lists, so none may change them."""
    shared: dict[str, str] = {}
    tokens: list[str] = []
    starts = [0]
    for toks in map(tokenize, [line.utterance for line in transcript.lines]):
        tokens += map(shared.setdefault, toks, toks)
        starts.append(len(tokens))
    return tokens, starts
