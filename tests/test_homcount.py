"""Homomorphism counting into small finite groups.

The library counts into an abelian target through H1 and into a nonabelian
one by a search up to automorphisms.  Both routes are held against a
search over every tuple of images (``brute_force_count``), and against each
other by running the search on abelian targets too.  The search's pruning
by the target's abelianization is held against the same search without it
(``unpruned_search``).
"""

import pickle
import random
from collections import Counter
from itertools import permutations, product

import pytest

from pairglue import (
    Presentation,
    Word,
    auto_simplify,
    build_m24,
    build_m25,
    count_homomorphisms,
    h1,
    presentation_from_pairings,
    reduced_family_presentation,
    scripted_reduction,
    small_groups,
    validate_table,
)
from pairglue.errors import CapacityError, DomainError
from pairglue.group_theory import presentations
from pairglue.group_theory.homcount import (
    _abelianization,
    _automorphisms,
    _compile,
    _direct_product,
    _power_cycles,
    _quotient_trie,
    _runs,
    _search,
    _Target,
    _target,
)


def z_table(m):
    return tuple(tuple((i + j) % m for j in range(m)) for i in range(m))


# ------------------------------------------------------- table validation

def test_validate_table_accepts_cyclic():
    for m in (1, 2, 3, 7, 12):
        validate_table(z_table(m))


def test_validate_table_rejects_defects():
    with pytest.raises(DomainError):
        validate_table(())
    with pytest.raises(DomainError):
        validate_table(((0, 1), (1,)))  # ragged
    with pytest.raises(DomainError):
        validate_table(((1, 0), (0, 1)))  # identity not at index 0
    with pytest.raises(DomainError):
        validate_table(((0, 1), (1, 2)))  # entry out of range
    # identity and squareness fine, but associativity broken
    bad = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(DomainError):
        validate_table(tuple(tuple(row) for row in bad))
    # a table, or a row, that cannot be read names itself
    with pytest.raises(DomainError, match="table is not a sequence: 5"):
        validate_table(5)
    with pytest.raises(DomainError, match="table row 0 is not"):
        validate_table([5])
    with pytest.raises(DomainError, match="table row 1 is not"):
        validate_table([[0, 1], 5])


def cubic_associative(table):
    """Associativity over every triple: the reference for validate_table."""
    n = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i, j, k in product(range(n), repeat=3))


def random_loop_table(rng, order):
    """A random Latin square on range(order) with identity 0, filled cell by
    cell with randomly ordered backtracking."""
    rows = [list(range(order))] + [[i] + [None] * (order - 1)
                                   for i in range(1, order)]
    cells = [(i, j) for i in range(1, order) for j in range(1, order)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        choices = [v for v in range(order) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return tuple(map(tuple, rows))


def relabelled(table, rng):
    """The table with its elements renamed by a random permutation fixing 0."""
    rest = list(range(1, len(table)))
    rng.shuffle(rest)
    name = [0] + rest
    new = [[None] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            new[name[i]][name[j]] = name[entry]
    return tuple(map(tuple, new))


def test_validate_table_agrees_with_cubic_associativity():
    # Light's test in validate_table against the check of every triple, on
    # random loops (orders 1..7, mostly not associative from order 5 on),
    # their products with Z2 (where element 1 associates with everything),
    # relabelled group tables, and group tables with one entry changed
    rng = random.Random(0x11647)
    tables = [random_loop_table(rng, rng.randint(1, 7)) for _ in range(300)]
    tables += [_direct_product(random_loop_table(rng, 5), z_table(2))
               for _ in range(20)]
    for table in small_groups().values():
        tables.append(relabelled(table, rng))
        if len(table) > 2:
            broken = [list(row) for row in table]
            i, j = rng.randrange(1, len(table)), rng.randrange(1, len(table))
            broken[i][j] = rng.choice(
                [v for v in range(len(table)) if v != table[i][j]])
            tables.append(tuple(map(tuple, broken)))
    outcomes = {True: 0, False: 0, "associativity": 0}
    for table in tables:
        try:
            validate_table(table)
            accepted = True
        except DomainError as exc:
            accepted = False
            if "associativity" in str(exc):
                outcomes["associativity"] += 1
        assert accepted == cubic_associative(table), table
        outcomes[accepted] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_small_groups_catalog():
    catalog = small_groups()
    assert len(catalog) == 24
    orders = {name: len(table) for name, table in catalog.items()}
    assert orders["Z1"] == 1
    assert orders["D3"] == 6
    assert orders["Q8"] == 8
    assert orders["A4"] == 12
    assert orders["Dic3"] == 12
    assert sorted(orders.values()) == sorted(
        [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8, 9, 9, 10, 10, 11,
         12, 12, 12, 12, 12])
    # D3 is nonabelian: some pair fails to commute
    d3 = catalog["D3"]
    assert any(d3[i][j] != d3[j][i]
               for i in range(6) for j in range(6))


def test_small_groups_are_validated_once(monkeypatch):
    from pairglue.group_theory import homcount
    validated = []

    def counted(table):
        validated.append(table)
        return validate_table(table)

    monkeypatch.setattr(homcount, "validate_table", counted)
    homcount._small_group_tables.cache_clear()
    first, second = small_groups(), small_groups()
    # building the catalog validates nothing: a table is validated when a
    # count first prepares it
    assert validated == []
    for table in first.values():
        validate_table(table)
    _target.cache_clear()
    presentation = Presentation(["a", "b"], [Word.parse("a a b b")])
    for _ in range(2):
        for table in first.values():
            count_homomorphisms(presentation, table)
    assert validated == list(first.values()) and len(validated) == 24
    assert first == second and first is not second
    # a caller that mutates its dict does not change later results
    first["Z1"] = first.pop("Z2")
    assert small_groups() == second


def test_dicyclic_groups():
    # Dic_m = <a, x | a^(2m), x^2 = a^m, x a x^-1 = a^-1>, order 4m, with a
    # single element of order 2; Q8 is Dic_2
    catalog = small_groups()
    for name, m in (("Q8", 2), ("Dic3", 3)):
        table = catalog[name]
        assert len(table) == 4 * m
        involutions = [g for g in range(1, 4 * m) if table[g][g] == 0]
        assert len(involutions) == 1
        z = involutions[0]
        assert all(table[g][z] == table[z][g] for g in range(4 * m))
        assert any(table[g][h] != table[h][g]
                   for g in range(4 * m) for h in range(4 * m))


def test_dicyclic_counts_on_family_members():
    catalog = small_groups()
    expected = {("m24", 3): (1, 3), ("m24", 6): (2, 54),
                ("m25", 5): (1, 3), ("m25", 8): (8, 72)}
    for (family, n), counts in expected.items():
        raw = presentation_from_pairings(
            build_m24(n) if family == "m24" else build_m25(n))
        assert (count_homomorphisms(raw, catalog["Q8"]),
                count_homomorphisms(raw, catalog["Dic3"])) == counts


# ---------------------------------------------------------- frozen counts

def test_frozen_counts():
    catalog = small_groups()
    triple = Presentation(["c"], [Word.parse("c c c")])
    assert count_homomorphisms(triple, catalog["Z3"]) == 3
    assert count_homomorphisms(triple, catalog["Z6"]) == 3
    m24_2 = reduced_family_presentation("m24", 2)
    assert count_homomorphisms(m24_2, catalog["Z3"]) == 9


# Counts of every small group, from a search over all image tuples without
# the automorphism reduction; the raw and the scripted presentation agree.
GOLDEN_COUNTS = {
    ("m24", 6): {
        "Z1": 1, "Z2": 2, "Z3": 27, "Z4": 2, "Z2xZ2": 4, "Z5": 1, "Z6": 54,
        "D3": 30, "Z7": 1, "Z8": 2, "Z4xZ2": 4, "Z2xZ2xZ2": 8, "D4": 6,
        "Q8": 2, "Z9": 243, "Z3xZ3": 729, "Z10": 2, "D5": 6, "Z11": 1,
        "Z12": 54, "Z6xZ2": 108, "D6": 60, "A4": 396, "Dic3": 54},
    ("m25", 8): {
        "Z1": 1, "Z2": 2, "Z3": 27, "Z4": 4, "Z2xZ2": 4, "Z5": 1, "Z6": 54,
        "D3": 36, "Z7": 49, "Z8": 4, "Z4xZ2": 8, "Z2xZ2xZ2": 8, "D4": 8,
        "Q8": 8, "Z9": 27, "Z3xZ3": 729, "Z10": 2, "D5": 6, "Z11": 1,
        "Z12": 108, "Z6xZ2": 108, "D6": 72, "A4": 684, "Dic3": 72},
    ("m24", 8): {
        "Z1": 1, "Z2": 2, "Z3": 9, "Z4": 4, "Z2xZ2": 4, "Z5": 1, "Z6": 18,
        "D3": 12, "Z7": 49, "Z8": 8, "Z4xZ2": 8, "Z2xZ2xZ2": 8, "D4": 8,
        "Q8": 8, "Z9": 9, "Z3xZ3": 81, "Z10": 2, "D5": 6, "Z11": 1,
        "Z12": 36, "Z6xZ2": 36, "D6": 24, "A4": 156, "Dic3": 24},
    ("m25", 10): {
        "Z1": 1, "Z2": 1, "Z3": 3, "Z4": 1, "Z2xZ2": 1, "Z5": 125, "Z6": 3,
        "D3": 3, "Z7": 1, "Z8": 1, "Z4xZ2": 1, "Z2xZ2xZ2": 1, "D4": 1,
        "Q8": 1, "Z9": 3, "Z3xZ3": 9, "Z10": 125, "D5": 125, "Z11": 121,
        "Z12": 3, "Z6xZ2": 3, "D6": 3, "A4": 9, "Dic3": 3},
}


@pytest.mark.parametrize("family, n", sorted(GOLDEN_COUNTS))
def test_golden_counts_raw_and_scripted(family, n):
    catalog = small_groups()
    raw = presentation_from_pairings(
        build_m24(n) if family == "m24" else build_m25(n))
    scripted = reduced_family_presentation(family, n)
    for presentation in (raw, scripted):
        counts = {name: count_homomorphisms(presentation, table)
                  for name, table in catalog.items()}
        assert counts == GOLDEN_COUNTS[family, n]


def test_counts_on_free_and_trivial_groups():
    catalog = small_groups()
    free2 = Presentation(["a", "b"], [])
    for name, table in catalog.items():
        assert count_homomorphisms(free2, table) == len(table) ** 2
    trivial = Presentation([], [])
    assert count_homomorphisms(trivial, catalog["A4"]) == 1


def test_capacity_error_on_wide_free_group():
    # only a nonabelian target is searched, so only it has a cap
    wide = Presentation([f"g{i}" for i in range(7)], [])
    with pytest.raises(CapacityError):
        count_homomorphisms(wide, small_groups()["D3"])
    with pytest.raises(CapacityError):
        count_homomorphisms(presentation_from_pairings(build_m24(11)),
                            small_groups()["D3"])
    # raw m25 relators grow about 2.6-fold per n under auto_simplify; the
    # size bound stops the growth instead of letting it run for minutes
    with pytest.raises(CapacityError, match="letters"):
        count_homomorphisms(presentation_from_pairings(build_m25(100)),
                            small_groups()["D3"])


def test_failed_simplification_is_kept(monkeypatch):
    # a simplification that hits the letter bound is not redone: the next
    # count raises the same CapacityError at once
    calls = []
    simplify = presentations._simplify
    monkeypatch.setattr(presentations, "MAX_SIMPLIFY_LETTERS", 1000)
    monkeypatch.setattr(presentations, "_simplify",
                        lambda p: calls.append(p) or simplify(p))
    raw = presentation_from_pairings(build_m25(8))
    errors = []
    for _ in range(2):
        with pytest.raises(CapacityError, match="letters") as caught:
            count_homomorphisms(raw, small_groups()["D3"])
        errors.append(caught.value)
    assert calls == [raw]
    assert errors[0] is errors[1]
    # the kept error holds no frame of the growth, nor of earlier raises
    frames, tb = [], errors[1].__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "_simplify" not in frames and frames.count("auto_simplify") == 1
    # what is kept is not part of the value: a copy is equal and starts afresh
    copy = pickle.loads(pickle.dumps(raw))
    assert copy == raw
    with pytest.raises(CapacityError):
        auto_simplify(copy)
    assert calls == [raw, copy]


def test_abelian_targets_have_no_generator_cap():
    wide = Presentation([f"g{i}" for i in range(7)], [])
    assert count_homomorphisms(wide, z_table(2)) == 128
    catalog = small_groups()
    members = [("m24", n) for n in range(11, 21)]
    members += [("m25", 30), ("m24", 100), ("m25", 100)]
    for family, n in members:
        raw = presentation_from_pairings(
            build_m24(n) if family == "m24" else build_m25(n))
        scripted = reduced_family_presentation(family, n)
        for name in ABELIAN_TARGETS:
            table = catalog[name]
            assert count_homomorphisms(raw, table) == \
                count_homomorphisms(scripted, table), (family, n, name)


# ------------------------------------------- targets and presentations kept

def test_list_of_lists_tables_are_counted():
    triple = Presentation(["c"], [Word.parse("c c c")])
    for name, table in small_groups().items():
        rows = [list(row) for row in table]
        assert count_homomorphisms(triple, rows) == \
            count_homomorphisms(triple, table), name


def test_mutated_table_is_validated_again():
    triple = Presentation(["c"], [Word.parse("c c c")])
    rows = [list(row) for row in z_table(3)]
    assert count_homomorphisms(triple, rows) == 3
    rows[0][1] = 2  # element 0 is no longer an identity
    with pytest.raises(DomainError, match="identity"):
        count_homomorphisms(triple, rows)
    rows[0][1] = 1
    assert count_homomorphisms(triple, rows) == 3


def test_malformed_table_raises_on_every_call():
    triple = Presentation(["c"], [Word.parse("c c c")])
    broken = ((0, 1, 2), (1, 2, 0), (2, 0, 3))  # 3 is no element
    for _ in range(3):
        with pytest.raises(DomainError, match="element index"):
            count_homomorphisms(triple, broken)
        with pytest.raises(DomainError, match="table is not a sequence: 5"):
            count_homomorphisms(triple, 5)
        with pytest.raises(DomainError, match="table row 0 is not"):
            count_homomorphisms(triple, [5])


def test_table_of_bools_is_refused_after_its_int_twin():
    # False == 0 and True == 1 with equal hashes: a table of bools is no
    # table of element indices, and must not be counted as Z2
    with pytest.raises(DomainError, match="element index"):
        validate_table(((False, True), (True, False)))
    square = Presentation(["a"], [Word.parse("a a")])
    assert count_homomorphisms(square, z_table(2)) == 2
    for twin in (((False, True), (True, False)), ((0, True), (1, 0))):
        with pytest.raises(DomainError, match="element index"):
            count_homomorphisms(square, twin)


def test_table_of_floats_is_refused_after_its_int_twin():
    # 1.0 == 1 and hash(1.0) == hash(1): an equal table of floats must
    # not be answered from the int table's prepared target
    triple = Presentation(["c"], [Word.parse("c c c")])
    assert count_homomorphisms(triple, z_table(3)) == 3
    for entry in (float, str):
        twin = tuple(tuple(entry(x) for x in row) for row in z_table(3))
        with pytest.raises(DomainError):
            count_homomorphisms(triple, twin)


def test_targets_and_presentations_are_prepared_once(monkeypatch):
    from pairglue.group_theory import homcount

    calls = {"validate_table": [], "_automorphisms": [], "_compile": [],
             "h1": [], "_abelianization": [], "_quotient_trie": [],
             "_runs": 0}

    def counted(name):
        original = getattr(homcount, name)

        def wrapper(first, *rest):
            calls[name].append((first, *rest) if rest else first)
            return original(first, *rest)

        monkeypatch.setattr(homcount, name, wrapper)

    runs = homcount._runs

    def counted_runs(relator, index_of):
        calls["_runs"] += 1
        return runs(relator, index_of)

    catalog = small_groups()
    for name in ("validate_table", "_automorphisms", "_compile", "h1",
                 "_abelianization", "_quotient_trie"):
        counted(name)
    monkeypatch.setattr(homcount, "_runs", counted_runs)
    homcount._target.cache_clear()
    # fresh presentations, so no simplification or compilation is kept yet
    presentations = [
        Presentation(p.generators, p.relators) for p in (
            presentation_from_pairings(build_m24(6)),
            reduced_family_presentation("m24", 6),
            presentation_from_pairings(build_m25(8)),
            reduced_family_presentation("m25", 8))]
    for presentation in presentations:
        counts = {name: count_homomorphisms(presentation, table)
                  for name, table in catalog.items()}
        assert counts == GOLDEN_COUNTS[
            ("m24", 6) if presentation in presentations[:2] else ("m25", 8)]
    tables = list(catalog.values())
    assert calls["validate_table"] == tables
    # only the search reads Aut(T), and only nonabelian targets are searched
    assert [table for table, _ in calls["_automorphisms"]] == \
        [catalog[name] for name in NONABELIAN_TARGETS]
    assert calls["_abelianization"] == [catalog[name]
                                        for name in NONABELIAN_TARGETS]
    # one trie per simplified presentation and distinct quotient table: Z2
    # (D3, D5), Z2xZ2 (D4, Q8, D6), Z3 (A4) and Z4 (Dic3)
    quotients = list(dict.fromkeys(_target(catalog[name]).quotient
                                   for name in NONABELIAN_TARGETS))
    assert [len(q) for q in quotients] == [2, 4, 3, 4]
    assert calls["_quotient_trie"] == [(auto_simplify(p), q)
                                       for p in presentations
                                       for q in quotients]
    assert calls["h1"] == presentations
    assert calls["_compile"] == [auto_simplify(p) for p in presentations]
    assert calls["_runs"] == sum(len(auto_simplify(p).relators)
                                 for p in presentations)


# ----------------------------------------------------------- abelian targets

ABELIAN_TARGETS = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7",
                   "Z8", "Z4xZ2", "Z2xZ2xZ2", "Z9", "Z3xZ3", "Z10",
                   "Z11", "Z12", "Z6xZ2")


def test_catalog_splits_into_abelian_and_nonabelian_targets():
    catalog = small_groups()
    assert sorted(ABELIAN_TARGETS + NONABELIAN_TARGETS) == sorted(catalog)
    for name, table in catalog.items():
        assert _target(table).abelian == (name in ABELIAN_TARGETS), name


def test_count_matches_brute_force_on_abelian_targets():
    catalog = small_groups()
    cases = [reduced_family_presentation(fam, n)
             for fam in ("m24", "m25") for n in (1, 2, 3)]
    cases.append(Presentation(["c"], [Word.parse("c c c")]))
    for presentation in cases:
        for name in ABELIAN_TARGETS:
            table = catalog[name]
            assert count_homomorphisms(presentation, table) == \
                brute_force_count(presentation, table), (name, presentation)


def searchable_target(table):
    """A fresh target of an abelian ``table`` with the data the search
    reads, which the library computes for nonabelian tables only."""
    target = _Target(table)
    target.automorphisms = _automorphisms(table, target.cycles)
    target.proj, target.quotient = _abelianization(table)
    target.chain = {}
    return target


@pytest.mark.parametrize("family, top", [("m24", 8), ("m25", 10)])
def test_search_agrees_with_h1_route_on_abelian_targets(family, top):
    # the search is exact on any target; run it where the library does not
    catalog = small_groups()
    targets = {name: searchable_target(catalog[name]) for name in ABELIAN_TARGETS}
    build = build_m24 if family == "m24" else build_m25
    for n in range(1, top + 1):
        for presentation in (presentation_from_pairings(build(n)),
                             reduced_family_presentation(family, n)):
            for name in ABELIAN_TARGETS:
                assert _search(presentation, targets[name]) == \
                    count_homomorphisms(presentation, catalog[name]), \
                    (family, n, name)


# ------------------------------------- invariance along scripted reduction

def test_counts_invariant_along_scripted_reduction():
    catalog = small_groups()
    for family, build in (("m24", build_m24), ("m25", build_m25)):
        for n in (2, 3):
            steps = list(scripted_reduction(family, n))
            assert steps[0] == presentation_from_pairings(build(n))
            baseline = {name: count_homomorphisms(steps[-1], table)
                        for name, table in catalog.items()}
            for step in steps:
                for name, table in catalog.items():
                    assert count_homomorphisms(step, table) == baseline[name]


# ---------------------------------------- brute force, nonabelian targets

NONABELIAN_TARGETS = ("D3", "D4", "Q8", "D5", "D6", "A4", "Dic3")


def brute_force_count(presentation, table):
    """Try every tuple of images of the simplified generators, evaluating
    each relator one letter at a time."""
    reduced = auto_simplify(presentation)
    inverse = [row.index(0) for row in table]
    total = 0
    for images in product(range(len(table)), repeat=len(reduced.generators)):
        image_of = dict(zip(reduced.generators, images))
        for relator in reduced.relators:
            value = 0
            for name, sign in relator:
                image = image_of[name]
                value = table[value][image if sign == 1 else inverse[image]]
            if value != 0:
                break
        else:
            total += 1
    return total


def test_count_matches_brute_force_on_nonabelian_targets():
    catalog = small_groups()
    cases = [reduced_family_presentation(family, n)
             for family in ("m24", "m25") for n in (2, 3)]
    # runs longer than every target's order, inverse runs, a run that
    # cancels inside a relator, and a relator that is not freely reduced
    cases.append(Presentation(["a", "b"], [
        Word.parse("-a -a -a -a -a b b b b b b b"),
        Word.parse(" ".join(["a"] * 13 + ["-b"] * 14 + ["a", "b"] * 2)),
        Word.parse("a b -b a a -b -b -b")]))
    cases.append(Presentation(["a", "b", "c"], [
        Word.parse("a a b -a -a -a -b c c"),
        Word.parse("-c -c -c -c -c -c -c b b a a -b -b")]))
    for presentation in cases:
        reduced = auto_simplify(presentation)
        assert 1 <= len(reduced.generators) <= 3
        for name in NONABELIAN_TARGETS:
            table = catalog[name]
            assert count_homomorphisms(presentation, table) == \
                brute_force_count(presentation, table), (name, presentation)


def random_presentation(rng):
    """One to three generators and one to three relators, each a random word
    of up to five letters raised to a power from 1 to 3."""
    generators = ["a", "b", "c"][:rng.randint(1, 3)]
    relators = []
    for _ in range(rng.randint(1, 3)):
        letters = [(rng.choice(generators), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 5))]
        relators.append(Word(letters * rng.choice((1, 2, 3))))
    return Presentation(generators, relators)


def test_count_matches_brute_force_on_random_presentations():
    catalog = small_groups()
    rng = random.Random(0xB7F)
    for _ in range(30):
        presentation = random_presentation(rng)
        for name, table in catalog.items():
            assert count_homomorphisms(presentation, table) == \
                brute_force_count(presentation, table), (name, presentation)


# ------------------------------------------ layered relators in the search

def expanded(compiled, check):
    """A compiled check with its segments expanded back into runs."""
    runs, _, _, segments_by_depth = compiled
    children_of = {symbol: children for segments in segments_by_depth
                   for symbol, children in segments}

    def expand(symbol):
        if symbol < len(runs):
            return [runs[symbol]]
        return [run for child in children_of[symbol] for run in expand(child)]

    return [run for symbol in check for run in expand(symbol)]


def assert_compiled_faithfully(presentation):
    """The checks expand to the relators' runs, each at its last generator;
    every segment has two or more children, none of them a segment of its own
    depth, and lies over generators up to its depth; returns the compiled
    layers."""
    compiled = _compile(presentation)
    runs, slots_by_depth, checks_by_depth, segments_by_depth = compiled
    index_of = {g: i for i, g in enumerate(presentation.generators)}
    words = [_runs(relator, index_of) for relator in presentation.relators]
    expected = sorted((max(g for g, _ in word), word) for word in words if word)
    assert sorted((depth, expanded(compiled, check))
                  for depth, checks in enumerate(checks_by_depth)
                  for check in checks) == expected
    assert sorted(s for slots in slots_by_depth for s in slots) == \
        list(range(len(runs)))
    depth_of = {symbol: depth for depth, segments in enumerate(segments_by_depth)
                for symbol, _ in segments}
    for depth, segments in enumerate(segments_by_depth):
        for _, children in segments:
            assert len(children) >= 2
            assert all(depth_of[c] < depth if c in depth_of
                       else runs[c][0] <= depth for c in children)
            assert any(c not in depth_of and runs[c][0] == depth
                       for c in children)
    return compiled


def test_m25_8_first_check_has_fewer_factors_than_runs():
    for build, n in ((build_m24, 6), (build_m25, 8)):
        assert_compiled_faithfully(
            auto_simplify(presentation_from_pairings(build(n))))
    compiled = _compile(auto_simplify(presentation_from_pairings(build_m25(8))))
    _, _, checks_by_depth, _ = compiled
    first = checks_by_depth[-1][0]
    assert not any(checks_by_depth[:-1])
    # 63 factors for 114 runs
    assert len(first) < len(expanded(compiled, first))


def nested_presentation(rng, generators):
    """Relators over ``generators`` with every run of length two or more, so
    that nothing is eliminated, built from pools of shared words: a relator
    alternates runs of the last generator with words from the pool one layer
    down, which in turn alternate their own last generator with words from
    the pool below them.  Half of them also have a word of that pool as a
    relator."""
    def run(g):
        return [(g, rng.choice((1, -1)))] * rng.randint(2, 3)

    pool = [run(generators[0]) for _ in range(2)]
    for g in generators[1:-1]:
        pool = [run(g) + rng.choice(pool) + run(g) + rng.choice(pool)
                for _ in range(2)]
    relators = []
    for _ in range(rng.randint(1, 2)):
        letters = []
        for _ in range(rng.randint(2, 3)):
            letters += run(generators[-1]) + rng.choice(pool)
        relators.append(Word(letters))
    if rng.random() < 0.5:
        # a relator one layer down: a check at a depth that has segments
        relators.append(Word(rng.choice(pool)))
    return Presentation(generators, relators)


def test_layered_search_matches_brute_force_on_shared_nested_segments():
    catalog = small_groups()
    rng = random.Random(0x5E6)
    shared = nested = 0
    for generators, targets, repeats in (
            (["a", "b", "c", "d"], ("D3", "Q8", "D4"), 8),
            (["a", "b", "c"], NONABELIAN_TARGETS, 8)):
        for _ in range(repeats):
            presentation = nested_presentation(rng, generators)
            assert auto_simplify(presentation) is presentation
            _, _, checks_by_depth, segments_by_depth = \
                assert_compiled_faithfully(presentation)
            uses = Counter(symbol for checks in checks_by_depth
                           for check in checks for symbol in check)
            uses.update(child for segments in segments_by_depth
                        for _, children in segments for child in children)
            symbols = {symbol for segments in segments_by_depth
                       for symbol, _ in segments}
            shared += any(uses[symbol] > 1 for symbol in symbols)
            nested += any(child in symbols for segments in segments_by_depth
                          for _, children in segments for child in children)
            for name in targets:
                table = catalog[name]
                assert count_homomorphisms(presentation, table) == \
                    brute_force_count(presentation, table), (name, presentation)
    assert shared >= 12 and nested >= 6


# ---------------------------------------- automorphisms used by the search

# |Aut(G)| of every catalog group: phi(m) for Z_m, |GL(2, 2)| = 6, |GL(3, 2)|
# = 168 and |GL(2, 3)| = 48 for the elementary abelian ones, m phi(m) for
# D_m (m >= 3), Aut(Q8) = S4, Aut(A4) = S4
AUTOMORPHISM_COUNTS = {
    "Z1": 1, "Z2": 1, "Z3": 2, "Z4": 2, "Z2xZ2": 6, "Z5": 4, "Z6": 2,
    "D3": 6, "Z7": 6, "Z8": 4, "Z4xZ2": 8, "Z2xZ2xZ2": 168, "D4": 8,
    "Q8": 24, "Z9": 6, "Z3xZ3": 48, "Z10": 4, "D5": 20, "Z11": 10,
    "Z12": 4, "Z6xZ2": 12, "D6": 12, "A4": 24, "Dic3": 12}


def test_search_automorphisms_form_a_group_of_automorphisms():
    catalog = small_groups()
    assert sorted(catalog) == sorted(AUTOMORPHISM_COUNTS)
    for name, table in catalog.items():
        order = len(table)
        maps = _automorphisms(table, _power_cycles(table))
        assert len(maps) == len(set(maps)) == AUTOMORPHISM_COUNTS[name], name
        assert tuple(range(order)) in maps
        for m in maps:
            assert sorted(m) == list(range(order)) and m[0] == 0, name
            assert all(m[table[x][y]] == table[m[x]][m[y]]
                       for x in range(order) for y in range(order)), name
        closed = set(maps)
        assert all(tuple(a[b[x]] for x in range(order)) in closed
                   for a in maps for b in maps), name


def brute_force_automorphisms(table):
    """Every permutation fixing 0 that respects the table, sorted."""
    order = len(table)
    return sorted(
        m for m in ((0,) + rest for rest in permutations(range(1, order)))
        if all(m[table[x][y]] == table[m[x]][m[y]]
               for x in range(1, order) for y in range(1, order)))


def test_search_automorphisms_are_all_automorphisms():
    # a bijection that respects the table fixes the identity, so for every
    # table of order at most 8 the maps are exactly the brute-force ones
    for name, table in small_groups().items():
        if len(table) <= 8:
            assert _automorphisms(table, _power_cycles(table)) == \
                brute_force_automorphisms(table), name


def test_automorphism_group_survives_relabelling():
    rng = random.Random(0xA07)
    for name, table in small_groups().items():
        for _ in range(2):
            twin = relabelled(table, rng)
            maps = _automorphisms(twin, _power_cycles(twin))
            assert len(maps) == AUTOMORPHISM_COUNTS[name], name


def test_counts_survive_relabelling_the_target():
    catalog = small_groups()
    rng = random.Random(0x2E1A)
    cases = [reduced_family_presentation("m24", 4),
             reduced_family_presentation("m25", 5)]
    cases += [random_presentation(rng) for _ in range(4)]
    for name, table in catalog.items():
        twin = relabelled(table, rng)
        for presentation in cases:
            assert count_homomorphisms(presentation, twin) == \
                count_homomorphisms(presentation, table), (name, presentation)


# --------------------------------------- pruning by the abelianization

def unpruned_search(presentation, target):
    """The search as it was before the abelianization pruned it: each depth
    tries one image per orbit of the stabiliser and recurses whenever the
    relators checked there hold."""
    reduced = auto_simplify(presentation)
    runs, slots_by_depth, checks_by_depth, segments_by_depth = \
        _compile(reduced)
    table = target.table
    powers = [tuple(cycle[exponent % len(cycle)] for cycle in target.cycles)
              for _, exponent in runs]
    current = [0] * (len(runs) + sum(map(len, segments_by_depth)))

    def search(depth, stabiliser):
        if depth == len(reduced.generators):
            return 1
        total = 0
        for candidate, weight, stabilised in target.orbits(stabiliser):
            for slot in slots_by_depth[depth]:
                current[slot] = powers[slot][candidate]
            for factors in checks_by_depth[depth]:
                value = 0
                for symbol in factors:
                    value = table[value][current[symbol]]
                if value:
                    break
            else:
                for symbol, factors in segments_by_depth[depth]:
                    value = 0
                    for factor in factors:
                        value = table[value][current[factor]]
                    current[symbol] = value
                total += weight * search(depth + 1, stabilised)
        return total

    return search(0, tuple(range(len(target.automorphisms))))


def generated_subgroup(table, elements):
    """The subgroup generated by ``elements``, breadth first from the
    identity."""
    found = [0]
    for x in found:
        for g in elements:
            if table[x][g] not in found:
                found.append(table[x][g])
    return set(found)


# |T/[T, T]| of the nonabelian catalog groups: Z2 for the odd dihedral
# groups, Z2xZ2 for D4, Q8 and D6, Z3 for A4 and Z4 for Dic3
ABELIANIZATION_ORDERS = {"D3": 2, "D4": 4, "Q8": 4, "D5": 2, "D6": 4,
                         "A4": 3, "Dic3": 4}


def test_abelianization_is_the_quotient_by_the_commutator_subgroup():
    catalog = small_groups()
    rng = random.Random(0xAB1)
    for name, table in catalog.items():
        for twin in (table, relabelled(table, rng)):
            order = len(twin)
            proj, quotient = _abelianization(twin)
            validate_table(quotient)
            assert quotient == tuple(zip(*quotient)), name
            assert sorted(set(proj)) == list(range(len(quotient))), name
            assert all(proj[twin[x][y]] == quotient[proj[x]][proj[y]]
                       for x in range(order) for y in range(order)), name
            inverse = [row.index(0) for row in twin]
            commutator_subgroup = generated_subgroup(twin, [
                twin[twin[x][y]][twin[inverse[x]][inverse[y]]]
                for x in range(order) for y in range(order)])
            assert {x for x in range(order) if proj[x] == 0} == \
                commutator_subgroup, name
            # cosets are numbered in order of their least element
            assert [proj.index(c) for c in range(len(quotient))] == \
                sorted(proj.index(c) for c in range(len(quotient))), name
        expected = ABELIANIZATION_ORDERS.get(name, len(table))
        assert len(_abelianization(table)[1]) == expected, name
    dic3 = _target(catalog["Dic3"])
    assert max(map(len, _power_cycles(dic3.quotient))) == 4  # Z4, not Z2xZ2


def trie_leaves(node, depth, width):
    """The number of leaves under a trie node at ``depth``; every inner node
    on the way must have a child, and only the last depth holds leaves."""
    if depth == width:
        assert node == {}
        return 1
    assert node
    return sum(trie_leaves(child, depth + 1, width) for child in node.values())


def torsion_presentation(rng):
    """Two to four generators and up to five relators, each a random word of
    up to four letters raised to a power from 1 to 6, so that H1 often has
    2- and 3-torsion."""
    generators = ["a", "b", "c", "d"][:rng.randint(2, 4)]
    relators = []
    for _ in range(rng.randint(1, len(generators) + 1)):
        letters = [(rng.choice(generators), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 4))]
        relators.append(Word(letters * rng.choice((1, 2, 3, 4, 6))))
    return Presentation(generators, relators)


def torsion_presentations(count, seed):
    """``count`` seeded presentations whose H1 has 2- or 3-torsion."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        presentation = torsion_presentation(rng)
        factors = h1(presentation).invariant_factors
        if any(d % 2 == 0 or d % 3 == 0 for d in factors):
            found.append(presentation)
    return found


def family_presentations(top):
    """Raw and scripted m24(n) and m25(n) for n = 1..top."""
    return [presentation
            for family, build in (("m24", build_m24), ("m25", build_m25))
            for n in range(1, top + 1)
            for presentation in (presentation_from_pairings(build(n)),
                                 reduced_family_presentation(family, n))]


def test_quotient_trie_counts_homomorphisms_into_the_quotient():
    catalog = small_groups()
    quotients = {_abelianization(catalog[name])[1]
                 for name in NONABELIAN_TARGETS}
    quotients |= {catalog[name] for name in ("Z6", "Z3xZ3", "Z2xZ2xZ2")}
    cases = family_presentations(8) + torsion_presentations(40, 0x7E1)
    pruning = 0
    for presentation in cases:
        reduced = auto_simplify(presentation)
        width = len(reduced.generators)
        for quotient in quotients:
            trie = _quotient_trie(reduced, quotient)
            assert trie_leaves(trie, 0, width) == \
                count_homomorphisms(presentation, quotient), presentation
            # a prefix is dropped above the last depth
            nodes = [trie]
            for _ in range(width - 1):
                pruning += any(len(node) < len(quotient) for node in nodes)
                nodes = [child for node in nodes for child in node.values()]
    assert pruning >= 100


@pytest.mark.parametrize("family", ["m24", "m25"])
def test_pruned_search_matches_unpruned_on_families(family):
    catalog = small_groups()
    build = build_m24 if family == "m24" else build_m25
    for n in range(1, 11):
        for presentation in (presentation_from_pairings(build(n)),
                             reduced_family_presentation(family, n)):
            for name in NONABELIAN_TARGETS:
                target = _target(catalog[name])
                assert _search(presentation, target) == \
                    unpruned_search(presentation, target), (family, n, name)


def test_pruned_search_matches_unpruned_on_random_torsion_presentations():
    catalog = small_groups()
    cases = torsion_presentations(120, 0x2A3)
    factors = [h1(p).invariant_factors for p in cases]
    assert sum(any(d % 2 == 0 for d in f) for f in factors) >= 40
    assert sum(any(d % 3 == 0 for d in f) for f in factors) >= 40
    for presentation in cases:
        for name in NONABELIAN_TARGETS:
            target = _target(catalog[name])
            assert _search(presentation, target) == \
                unpruned_search(presentation, target), (name, presentation)
