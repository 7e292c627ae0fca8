"""Free-group words: reduction, cyclic reduction, canonical forms."""

import random

import pytest

from pairglue import (Presentation, Word, cyclic_normal_form, cyclic_reduce,
                      free_reduce)
from pairglue.errors import DomainError


def test_parse_and_str_round_trip():
    w = Word.parse("a1 b3 -d")
    assert w.letters == (("a1", 1), ("b3", 1), ("d", -1))
    assert str(w) == "a1 b3 -d"
    assert Word.parse(str(w)) == w


def test_word_equality_and_hash():
    assert Word.parse("a b") == Word.parse("a b")
    assert Word.parse("a b") != Word.parse("b a")
    assert hash(Word.parse("a -b")) == hash(Word.parse("a -b"))
    assert Word.parse("") == Word(())


def test_word_rejects_bad_signs():
    with pytest.raises(DomainError, match="sign"):
        Word([("a", 2)])
    with pytest.raises(DomainError, match="sign"):
        Word([("a", 0)])
    # a bool or float sign is refused, not stored as given
    for sign in (True, 1.0, -1.0, "1", None):
        with pytest.raises(DomainError, match="sign"):
            Word([("a", sign)])


def test_word_rejects_letters_that_are_not_pairs():
    for letter in (("a",), ("a", 1, 1), (), 5, None, "a"):
        with pytest.raises(DomainError, match="pair"):
            Word([("b", 1), letter])
    # a two-character string unpacks to a name and a sign that is no int
    with pytest.raises(DomainError, match="sign"):
        Word(["ab"])


def test_word_refuses_letter_names_that_are_not_str():
    # a name was once turned into a str, so None became the letter "None"
    for name in (None, 1, ("a",), b"a"):
        with pytest.raises(DomainError, match="not a str"):
            Word([("a", 1), (name, -1)])
    assert Word([("a", 1), ("b", -1)]).letters == (("a", 1), ("b", -1))


def test_presentation_refuses_generator_names_that_are_not_str():
    for name in (None, 1, ("a",), b"a"):
        with pytest.raises(DomainError, match="not a str"):
            Presentation(["a", name], [])
    assert Presentation(["a", "b"], []).generators == ("a", "b")


def test_parse_rejects_bare_minus():
    # a bare "-" used to become the letter ('', -1)
    for text in ("-", "a - b", "a -"):
        with pytest.raises(DomainError, match="bare '-'"):
            Word.parse(text)


def test_multiplication_concatenates():
    assert Word.parse("a b") * Word.parse("-b c") == Word.parse("a b -b c")


def test_inverse_reverses_and_flips():
    w = Word.parse("a b -c")
    assert w.inverse() == Word.parse("c -b -a")
    assert free_reduce(w * w.inverse()) == Word(())


def test_exponent_sum():
    w = Word.parse("a b a -b a -a")
    assert w.exponent_sum("a") == 2
    assert w.exponent_sum("b") == 0
    assert w.exponent_sum("z") == 0


def test_free_reduce_examples():
    assert free_reduce(Word.parse("a -a")) == Word(())
    assert free_reduce(Word.parse("a b -b a")) == Word.parse("a a")
    assert free_reduce(Word.parse("c1 c1 c2 -c2 c1")) == Word.parse("c1 c1 c1")


def test_free_reduce_cancels_nested_pairs():
    # the stack-based scan must cancel pairs exposed by earlier cancellations
    assert free_reduce(Word.parse("a b -b -a")) == Word(())
    assert free_reduce(Word.parse("a b c -c -b -a x")) == Word.parse("x")


def test_cyclic_reduce_strips_conjugation():
    assert cyclic_reduce(Word.parse("a b -a")) == Word.parse("b")
    assert cyclic_reduce(Word.parse("-c a b c")) == Word.parse("a b")
    assert cyclic_reduce(Word.parse("a")) == Word.parse("a")


def test_cyclic_normal_form_examples():
    # rotations of a word and of its inverse share one normal form
    assert (cyclic_normal_form(Word.parse("c2 c2 c2 c1 c1 c1"))
            == cyclic_normal_form(Word.parse("c1 c1 c1 c2 c2 c2")))
    assert cyclic_normal_form(Word(())) == Word(())
    assert cyclic_normal_form(Word.parse("-a")) == Word.parse("a")


def test_cyclic_normal_form_prefers_positive_letters():
    assert cyclic_normal_form(Word.parse("-a -b")) == Word.parse("a b")


def _random_word(rng, names, max_len=12):
    return Word([(rng.choice(names), rng.choice((1, -1)))
                 for _ in range(rng.randrange(max_len + 1))])


def test_free_reduce_properties_fuzz():
    rng = random.Random(0x5EED)
    names = ["a", "b", "c", "d1"]
    for _ in range(1000):
        w = _random_word(rng, names)
        r = free_reduce(w)
        # idempotent, no adjacent inverse pair, full inverse cancellation
        assert free_reduce(r) == r
        assert all(r.letters[i] != (r.letters[i + 1][0], -r.letters[i + 1][1])
                   for i in range(len(r.letters) - 1))
        assert free_reduce(w * w.inverse()) == Word(())
        assert r.exponent_sum("a") == w.exponent_sum("a")


def test_cyclic_normal_form_invariance_fuzz():
    rng = random.Random(0xC1C1E)
    names = ["a", "b", "c"]
    for _ in range(400):
        w = _random_word(rng, names, max_len=10)
        base = cyclic_normal_form(w)
        assert cyclic_normal_form(base) == base
        assert cyclic_normal_form(w.inverse()) == base
        if w.letters:
            cut = rng.randrange(len(w.letters))
            rotated = Word(w.letters[cut:] + w.letters[:cut])
            assert cyclic_normal_form(rotated) == base
        conjugator = _random_word(rng, names, max_len=4)
        conjugated = conjugator * w * conjugator.inverse()
        assert cyclic_normal_form(conjugated) == base
