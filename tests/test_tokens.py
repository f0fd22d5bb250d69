import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from posr.model import Line, Transcript
from posr.retrieval import _segment_query
from posr.tokens import bigrams, token_column, tokenize


def oracle_tokenize(s):
    """The tokenizer's definition: lowercase, split on every run of
    characters outside [0-9a-z], drop empties."""
    return [t for t in re.split(r"[^0-9a-z]+", s.lower()) if t]


# characters where a shortcut could part from the definition: whitespace
# str.split knows but a plain space test does not, letters whose lowercase
# is ASCII (the Kelvin sign) or grows (dotted capital I), combining marks,
# letters and digits outside ASCII, and punctuation
TRICKY = ["a", "Z", "7", " ", "  ", "\t", "\n", "\x0b", "\x1c", "\xa0", "\u3000",
          "\u212a", "\u0130", "\u0301", "\xe9", "\xdf", "\u03a3", "\u0663", "\xb2",
          "_", "-", "?!", "'"]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(TRICKY), max_size=30).map("".join),
    st.text(alphabet=st.characters(max_codepoint=127)),  # the translate path
))
@example("")
@example("   ")
@example("?! ... --")
@example("Hello  World 42")
@example("Okay, so what's 3.5? It's x^2-1!")
@example("\u212aelvin")
@example("\u0130stanbul")
@example("cafe\u0301 na\xefve")
@example("a\tb\nc\x0bd\x1ce\xa0f\u3000g")
@example("\ud800")  # a lone surrogate
@example("\U0001F600")  # an astral character
@example("\ufb01")  # a ligature whose lowercase is itself
def test_tokenize_equals_regex_definition(s):
    assert tokenize(s) == oracle_tokenize(s)


def test_bigrams_stay_within_one_utterance():
    assert bigrams(["add", "3", "and", "4"]) == ["add_3", "3_and", "and_4"]
    assert bigrams(["one"]) == [] and bigrams([]) == []


# one utterance: arbitrary text, or a few tricky pieces that make it empty,
# whitespace only (embedded newlines too), punctuation only or non-ASCII
UTTERANCES = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(TRICKY + ["", "\n", " \n ", "...", "(x^2-1)", "3.5"]),
             max_size=5).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(UTTERANCES, max_size=8))
@example([])
@example(["", " ", "\t\n"])
@example(["?!", "", "Hi there", " \n", "\xe9t\xe9"])
def test_token_column_slices_equal_the_joined_lines(utterances):
    transcript = Transcript("t", tuple(Line(i, "[TUTOR]", u, i, i + 1)
                                       for i, u in enumerate(utterances)))
    tokens, starts = token_column(transcript)
    n = len(utterances)
    assert len(starts) == n + 1
    # equal tokens are one string object
    assert len(set(map(id, tokens))) == len(set(tokens))
    for start in range(n + 1):
        for stop in range(start, n + 1):
            text = " ".join(utterances[start:stop])
            assert tokens[starts[start]:starts[stop]] == tokenize(text)
            query = _segment_query(transcript, start, stop)
            assert (query is None) == (not text.strip())
            assert query in (None, tokenize(text))
