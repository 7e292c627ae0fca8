"""Homomorphism counting into small finite groups.

The library counts into an abelian target through H1 and into a nonabelian
one by a search up to automorphisms.  Both routes are held against a
search over every tuple of images (``brute_force_count``), and against each
other by running the search on abelian targets too.
"""

import random
from itertools import permutations, product

import pytest

from pairglue import (
    Presentation,
    Word,
    auto_simplify,
    build_m24,
    build_m25,
    count_homomorphisms,
    presentation_from_pairings,
    reduced_family_presentation,
    scripted_reduction,
    small_groups,
    validate_table,
)
from pairglue.errors import CapacityError, DomainError
from pairglue.group_theory.homcount import (
    _automorphisms,
    _direct_product,
    _power_cycles,
    _search,
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
    assert len(validated) == 24
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
             "h1": [], "_runs": 0}

    def counted(name):
        original = getattr(homcount, name)

        def wrapper(first, *rest):
            calls[name].append(first)
            return original(first, *rest)

        monkeypatch.setattr(homcount, name, wrapper)

    runs = homcount._runs

    def counted_runs(relator, index_of):
        calls["_runs"] += 1
        return runs(relator, index_of)

    catalog = small_groups()
    for name in ("validate_table", "_automorphisms", "_compile", "h1"):
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
    assert calls["_automorphisms"] == [catalog[name]
                                       for name in NONABELIAN_TARGETS]
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


@pytest.mark.parametrize("family, top", [("m24", 8), ("m25", 10)])
def test_search_agrees_with_h1_route_on_abelian_targets(family, top):
    # the search is exact on any target; run it where the library does not
    catalog = small_groups()
    build = build_m24 if family == "m24" else build_m25
    for n in range(1, top + 1):
        for presentation in (presentation_from_pairings(build(n)),
                             reduced_family_presentation(family, n)):
            for name in ABELIAN_TARGETS:
                table = catalog[name]
                assert _search(presentation, _target(table)) == \
                    count_homomorphisms(presentation, table), (family, n, name)


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
