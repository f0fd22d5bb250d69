"""Shared tokenizer used by every lexical component.

All baselines, retrieval scorers, and language analyses tokenize the same
way so their scores stay comparable: lowercase, split on any run of
non-alphanumeric characters, drop empties.
"""

from __future__ import annotations

# each non-ASCII character encodes to "?", and every byte outside [0-9a-z]
# becomes a space, so str.split gives the runs of [0-9a-z]
_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz"
_ASCII_TO_SPACE = bytes(c if c in _ALNUM else 32 for c in range(256))


def tokenize(text: str) -> list[str]:
    return text.lower().encode("ascii", "replace").translate(_ASCII_TO_SPACE).decode().split()


def bigrams(text: str) -> list[str]:
    """Adjacent-token bigrams within one utterance, joined with '_'.

    Bigrams never cross utterance boundaries; call per utterance.
    """
    toks = tokenize(text)
    return [f"{a}_{b}" for a, b in zip(toks, toks[1:])]
