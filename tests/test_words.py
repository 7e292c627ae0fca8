"""Free-group words: reduction, cyclic reduction, canonical forms."""

import random
import signal

import pytest

from pairglue import (AbelianGroup, IntegerMatrix, Presentation, Word,
                      abelianization_matrix, auto_simplify, build_m24,
                      build_m25, count_homomorphisms, cyclic_normal_form,
                      cyclic_reduce, free_reduce, h1, parse_presentation,
                      presentation_from_cw, presentation_from_pairings,
                      serialize_presentation, small_groups, smith_normal_form,
                      validate_table)
from pairglue.errors import DomainError, PairglueError


def test_parse_and_str_round_trip():
    w = Word.parse("a1 b3 -d")
    assert w.letters == (("a1", 1), ("b3", 1), ("d", -1))
    assert str(w) == "a1 b3 -d"
    assert Word.parse(str(w)) == w


@pytest.mark.parametrize("letters", [
    [("-a", 1)], [("a b", 1)], [("", 1)], [("a", 1), ("\tb", -1)],
    [("a", 1), ("b", -1), ("a1", 1)], [("x-y", -1)], [],
])
def test_repr_evaluates_back_to_the_word(letters):
    word = Word(letters)
    assert eval(repr(word)) == word
    # only words whose names all read back are written through parse
    readable = all(name.split() == [name] and not name.startswith("-")
                   for name, _ in letters)
    assert repr(word).startswith("Word.parse(") == readable


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


def test_presentation_refuses_relators_that_are_not_sequences():
    # a relator is a field of the relator list, so it is in the domain
    for relator in (5, None, 1.5):
        with pytest.raises(DomainError, match="sequence of letters"):
            Presentation(["a"], [relator])


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


# ------------------------------------------------ object-level fuzz

FUZZ_VALUES = ("", "a b", "-a", "a", "b", "z", -1, 0, 1, 2, 1.0, True, None,
               ("a",), ("a", 1), ("b", -1), ("a", 1, 0), [], [1, 2], 5)


def corrupted_presentation(rng):
    """A small presentation's arguments with one field inside them
    replaced (a generator name, a whole relator, a letter, or a letter's
    name or sign), and the run through everything that reads a
    presentation.  Half the values are junk, and half are names, signs,
    letters or relators of the presentation's own kind, which often leave
    it valid."""
    generators, relators = rng.choice(FUZZ_PRESENTATIONS)
    generators = list(generators)
    relators = [[list(letter) for letter in relator] for relator in relators]
    site = rng.choice(["generator", "relator", "letter", "name", "sign"])
    name = rng.choice(generators)
    value = rng.choice(FUZZ_VALUES if rng.random() < 0.5 else {
        "generator": (name, name + "2"), "relator": ([], [(name, 1)] * 2),
        "letter": ((name, 1), (name, -1)), "name": (name,),
        "sign": (1, -1)}[site])
    if site == "generator":
        generators[rng.randrange(len(generators))] = value
    elif site == "relator":
        relators[rng.randrange(len(relators))] = value
    else:
        relator = rng.choice([r for r in relators if r])
        i = rng.randrange(len(relator))
        if site == "letter":
            relator[i] = value
        else:
            relator[i][site == "sign"] = value

    def run():
        presentation = Presentation(generators, relators)
        h1(presentation)
        matrix = abelianization_matrix(presentation)
        d, u, v = smith_normal_form(matrix)
        assert u * matrix * v == d
        auto_simplify(presentation)
        for table in FUZZ_TABLES[:2]:  # D3 and Z2
            count_homomorphisms(presentation, table)
        text = serialize_presentation(presentation)
        assert parse_presentation(text) == presentation

    return site, value, run


def corrupted_matrix(rng):
    """A small random matrix's rows with one entry or one row replaced, and
    the run through the Smith normal form and a double transpose."""
    rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]]
    rows += [[rng.randint(-4, 4) for _ in rows[0]]
             for _ in range(rng.randint(0, 3))]
    i = rng.randrange(len(rows))
    site, value = rng.choice(["entry", "row"]), rng.choice(FUZZ_VALUES)
    if site == "row":
        rows[i] = value
    else:
        rows[i][rng.randrange(len(rows[i]))] = value

    def run():
        matrix = IntegerMatrix(rows)
        d, u, v = smith_normal_form(matrix)
        assert u * matrix * v == d
        assert matrix.transpose().transpose() == matrix

    return site, value, run


def corrupted_abelian_group(rng):
    """An abelian group's rank or one of its factors replaced, and the run
    through its string form and order."""
    rank, factors = rng.choice(((0, [3]), (1, [2, 4]), (2, [])))
    site, value = rng.choice(["rank", "factor"]), rng.choice(FUZZ_VALUES)
    if site == "factor" and factors:
        factors[rng.randrange(len(factors))] = value
    else:
        rank = value

    def run():
        group = AbelianGroup(rank, factors)
        str(group), group.order()

    return site, value, run


def corrupted_table(rng):
    """A small group table, as lists, with one entry or one row replaced,
    and the run through validation and a count into it."""
    table = [list(row) for row in rng.choice(FUZZ_TABLES)]
    i = rng.randrange(len(table))
    site, value = rng.choice(["entry", "row"]), rng.choice(FUZZ_VALUES)
    if site == "row":
        table[i] = value
    else:
        table[i][rng.randrange(len(table))] = value

    def run():
        validate_table(table)
        count_homomorphisms(
            Presentation(["a", "b"], [Word.parse("a a b b")]), table)

    return site, value, run


FUZZ_TABLES = tuple(small_groups()[name] for name in ("D3", "Z2", "Z2xZ2"))
FUZZ_PRESENTATIONS = tuple(
    (p.generators, p.relators) for p in (
        presentation_from_pairings(build_m24(1)),
        presentation_from_pairings(build_m24(2)),
        presentation_from_pairings(build_m25(2)),
        presentation_from_cw(build_m25(2)))) + (
    (("a", "b"), (Word.parse("a a b"), Word.parse("a b -a -b"))),
    (("a", "b", "c"), (Word.parse("a b c"), Word.parse("a a"),
                       Word.parse("b -c b c"))),
    (("x", "y"), (Word.parse("x x x"), Word.parse("y y"),
                  Word.parse("x y x y"))),
)


def test_group_theory_fuzz_ends_in_a_result_or_a_pairglue_error():
    # corrupted fields inside the arguments of Word, Presentation,
    # IntegerMatrix and AbelianGroup, and inside multiplication tables, each
    # run under an alarm; every case ends in a result or a PairglueError,
    # and nothing hangs
    def timed_out(signum, frame):
        raise AssertionError("fuzz case did not finish in 5 s")

    rng = random.Random(29)
    kinds = (corrupted_presentation, corrupted_matrix,
             corrupted_abelian_group, corrupted_table)
    outcomes = {(kind.__name__, outcome): 0 for kind in kinds
                for outcome in ("refused", "result")}
    previous = signal.signal(signal.SIGALRM, timed_out)
    try:
        for case in range(20000):
            kind = kinds[case % len(kinds)]
            site, value, run = kind(rng)
            signal.alarm(5)
            try:
                run()
                outcomes[kind.__name__, "result"] += 1
            except PairglueError:
                outcomes[kind.__name__, "refused"] += 1
            except Exception as exc:  # the error contract allows no other
                raise AssertionError(f"{kind.__name__}: {site} {value!r}") \
                    from exc
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert min(outcomes.values()) >= 50, outcomes
