"""The infinite dihedral group: normal forms, multiplication, Bruhat order."""

import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from heckehom.weyl import (
    E,
    S,
    T,
    WeylWord,
    all_words,
    bruhat_leq,
    st_power,
    ts_power,
    word_mul,
)

words = st.builds(
    lambda n, first: WeylWord(n, first if n else None),
    st.integers(min_value=0, max_value=12),
    st.sampled_from("st"),
)


def test_multiplication_examples():
    assert word_mul(S, S) == E
    assert word_mul(WeylWord.parse("st"), WeylWord.parse("ts")) == E
    assert word_mul(WeylWord.parse("st"), WeylWord.parse("st")) == WeylWord(4, "s")


def lengths_add(x: WeylWord, y: WeylWord) -> bool:
    """True iff l(xy) = l(x) + l(y)."""
    return word_mul(x, y).length == x.length + y.length


def test_lengths_add_examples():
    assert lengths_add(S, T)
    assert not lengths_add(S, S)
    assert lengths_add(WeylWord.parse("st"), WeylWord.parse("st"))


@given(words, words, words)
def test_associativity_and_identity(x, y, z):
    assert word_mul(word_mul(x, y), z) == word_mul(x, word_mul(y, z))
    assert word_mul(E, x) == x
    assert word_mul(x, E) == x


@given(words)
def test_inverse(x):
    assert word_mul(x, x.inverse()) == E
    assert word_mul(x.inverse(), x) == E


@given(words, words)
def test_length_laws(x, y):
    product = word_mul(x, y)
    assert product.length <= x.length + y.length
    assert (product.length - x.length - y.length) % 2 == 0


def _subword_strings(word: WeylWord) -> set:
    """Brute force: every subsequence of the reduced word, as a string."""
    letters = word.letters
    out = set()
    for size in range(len(letters) + 1):
        for positions in combinations(range(len(letters)), size):
            out.add("".join(letters[i] for i in positions))
    return out


def test_bruhat_matches_subword_enumeration():
    for w in all_words(12):
        subwords = _subword_strings(w)
        for x in all_words(12):
            assert bruhat_leq(x, w) == (x.letters in subwords), (x, w)


def test_bruhat_examples():
    assert bruhat_leq(S, WeylWord.parse("sts"))
    for w in all_words(6):
        assert bruhat_leq(E, w)
    assert not bruhat_leq(WeylWord.parse("stst"), WeylWord.parse("sts"))


def test_parse_and_render():
    assert WeylWord.parse("e") == E
    assert str(WeylWord.parse("stst")) == "stst"
    for bad in ("", "ss", "sta", "ets"):
        with pytest.raises(ValueError):
            WeylWord.parse(bad)


def test_powers():
    assert st_power(0) == E
    assert st_power(2) == WeylWord.parse("stst")
    assert ts_power(1) == WeylWord.parse("ts")
    assert st_power(3).inverse() == ts_power(3)


def test_construction_validates():
    with pytest.raises(ValueError, match="nonnegative"):
        WeylWord(-1)
    with pytest.raises(ValueError, match="no first letter"):
        WeylWord(0, "s")
    for bad in ("u", "", None, "st"):
        with pytest.raises(ValueError, match="first letter"):
            WeylWord(2, bad)


@given(words, words)
def test_equal_words_are_equal_keys(x, y):
    for twin in (WeylWord(x.length, x.first), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is WeylWord
        assert twin == x and hash(twin) == hash(x)
        assert {x: 1}[twin] == 1
    assert (x == y) == (x.length == y.length and x.first == y.first)
    assert (x != y) == (not x == y)


def test_printing_of_the_named_words():
    assert (str(E), str(S), str(T)) == ("e", "s", "t")
    assert (repr(E), repr(S), repr(T)) == ("e", "s", "t")
    assert (E.length, E.first, S.length, S.first, T.first) == (0, None, 1, "s", "t")
    assert repr(WeylWord(4, "t")) == "tsts" and str([S, E]) == "[s, e]"
