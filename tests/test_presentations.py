"""Presentation extraction, Tietze machinery, scripted reductions, presets."""

import copy
import pickle
import random
import re
from collections import Counter

import pytest

from pairglue import (
    PairedComplex,
    Pairing,
    Presentation,
    Word,
    auto_simplify,
    build_family,
    build_m24,
    build_m25,
    count_homomorphisms,
    cyclic_normal_form,
    cyclic_reduce,
    family_elimination_order,
    free_reduce,
    h1,
    parse_complex,
    presentation_from_cw,
    presentation_from_pairings,
    preset_presentation,
    reduced_family_presentation,
    scripted_reduction,
    serialize_complex,
    small_groups,
    tietze_eliminate,
    vertex_orbits,
)
from pairglue.errors import (CapacityError, DomainError, EliminationError,
                             StructureError)
from pairglue.group_theory import presentations
from pairglue.group_theory.presentations import _defining_word, _Relators


def idx(i, n):
    return (i - 1) % n + 1


def cnfset(p):
    out = {cyclic_normal_form(r) for r in p.relators}
    out.discard(Word(()))
    return out


def cnf(text):
    return cyclic_normal_form(Word.parse(text))


# ----------------------------------------------------------- basic type

def test_presentation_rejects_duplicates_and_unknowns():
    with pytest.raises(DomainError):
        Presentation(["a", "a"], [])
    with pytest.raises(DomainError):
        Presentation(["a"], [Word.parse("a b")])


def test_presentation_equality():
    p = Presentation(["a"], [Word.parse("a a")])
    assert p == Presentation(["a"], [Word.parse("a a")])
    assert p != Presentation(["a"], [Word.parse("a")])


# ------------------------------------------------- pairing-mode extraction

def test_pairing_presentation_m24_1_verbatim():
    p = presentation_from_pairings(build_m24(1))
    assert p.generators == ("a1", "b1", "c1", "d")
    assert cnfset(p) == {cnf("a1 b1 -d"), cnf("a1 -c1 -b1"),
                         cnf("c1 c1 -b1"), cnf("a1")}


def test_pairing_presentation_generator_per_pairing():
    for build, n in ((build_m24, 4), (build_m25, 3)):
        c = build(n)
        p = presentation_from_pairings(c)
        assert sorted(p.generators) == sorted(q.name for q in c.pairings)
        assert len(p.relators) == 3 * n + 1 + (1 if (build is build_m25
                                                     and n % 2 == 0) else 0)


def test_pairing_presentation_m24_shapes():
    for n in (2, 3, 5):
        p = presentation_from_pairings(build_m24(n))
        want = set()
        for i in range(1, n + 1):
            want.add(cnf(f"a{i} b{idx(i + 2, n)} -d"))
            want.add(cnf(f"a{i} -c{idx(i + 1, n)} -b{i}"))
            want.add(cnf(f"c{i} c{i} -b{i}"))
        want.add(cyclic_normal_form(
            Word([(f"a{i}", 1) for i in range(1, n + 1)])))
        assert cnfset(p) == want


def test_pairing_presentation_m25_4_split_products():
    p = presentation_from_pairings(build_m25(4))
    assert len(p.generators) == 13
    assert len(p.relators) == 14
    relators = cnfset(p)
    assert cnf("a1 a3") in relators
    assert cnf("a2 a4") in relators


def test_pairing_presentation_refuses_invalid():
    c = build_m24(2)
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, [])
    with pytest.raises(StructureError):
        presentation_from_pairings(broken)


# ---------------------------------------------------- CW-mode extraction

def test_cw_presentation_m24_shapes():
    for n in (1, 3, 5):
        p = presentation_from_cw(build_m24(n))
        assert sorted(p.generators) == sorted(
            [f"{x}{i}" for x in "xyz" for i in range(1, n + 1)] + ["u"])
        want = set()
        for i in range(1, n + 1):
            want.add(cnf(f"x{i} u -y{i}"))
            want.add(cnf(f"x{i} y{idx(i + 2, n)} -z{idx(i + 2, n)}"))
            want.add(cnf(f"z{i} z{i} y{idx(i - 1, n)}"))
        want.add(cyclic_normal_form(
            Word([(f"x{i}", 1) for i in range(1, n + 1)])))
        assert cnfset(p) == want


def test_cw_relator_count_includes_tree():
    for build, n in ((build_m24, 2), (build_m25, 3), (build_m25, 4)):
        c = build(n)
        p = presentation_from_cw(c)
        sigma0 = len(vertex_orbits(c))
        assert len(p.relators) == len(c.pairings) + (sigma0 - 1)


def with_metadata(c, edge_names, preferred_tree):
    return PairedComplex(c.vertex_labels, c.faces, c.involution, c.pairings,
                         name=c.name, n=c.n, edge_names=edge_names,
                         preferred_tree=preferred_tree)


def test_cw_m25_even_tree_relator():
    c = build_m25(4)
    p = presentation_from_cw(c)
    assert "u" in p.generators and "v" in p.generators
    assert cnf("v") in cnfset(p)
    alt = presentation_from_cw(with_metadata(c, c.edge_names, ("u",)))
    assert cnf("u") in cnfset(alt)


def test_cw_tree_choice_does_not_change_h1():
    for n in (2, 4, 6):
        c = build_m25(n)
        base = h1(presentation_from_pairings(c))
        assert h1(presentation_from_cw(c)) == base
        for tree in (("u",), ("v",)):
            assert h1(presentation_from_cw(
                with_metadata(c, c.edge_names, tree))) == base


def test_cw_tree_errors():
    for build, n, tree in ((build_m24, 3, ("u",)), (build_m25, 4, ("x1", "u")),
                           (build_m25, 4, ("nope",))):
        c = build(n)
        with pytest.raises(DomainError):
            presentation_from_cw(with_metadata(c, c.edge_names, tree))


def test_cw_greedy_tree_on_documents_without_metadata():
    # a parsed document carries no edge names and no preferred tree, so the
    # CW route names the classes e1..ek and grows the spanning tree greedily
    for n in (4, 6):
        c = parse_complex(serialize_complex(build_m25(n)))
        assert (c.edge_names, c.preferred_tree) == ((), ())
        assert len(vertex_orbits(c)) == 2
        p = presentation_from_cw(c)
        assert p.generators[0] == "e1"
        assert len(p.relators) == len(c.pairings) + 1
        assert len(p.relators[-1]) == 1
        assert h1(p) == h1(presentation_from_pairings(c))


def test_cw_edge_name_metadata_must_match_the_classes():
    c = build_m24(2)
    for edge_names in (c.edge_names[:-1], c.edge_names + c.edge_names[:1],
                       c.edge_names[:-1] + c.edge_names[:1]):
        with pytest.raises(DomainError, match="edge naming metadata does not "
                           "match the edge classes"):
            presentation_from_cw(with_metadata(c, edge_names, ()))


def test_cw_edge_name_anchor_off_the_faces_does_not_match():
    # an anchor on a face the complex lacks, or past the end of its face
    c = build_m24(2)
    name, face, _, flag = c.edge_names[0]
    for anchor in ((name, "Z9", 0, flag), (name, face, len(c.faces[face]), flag),
                   (name, face, -1, flag)):
        with pytest.raises(DomainError, match="edge naming metadata does not "
                           "match the edge classes"):
            presentation_from_cw(with_metadata(
                c, (anchor, *c.edge_names[1:]), ()))


def test_cw_refuses_malformed_metadata_entries():
    c = build_m24(2)
    for entry in (5, ("x1", "A1"), ("x1", "A1", [0], False),
                  (["x1"], "A1", 0, False)):
        with pytest.raises(DomainError, match=re.escape(
                f"malformed edge_names entry {entry!r}")):
            presentation_from_cw(with_metadata(
                c, (entry, *c.edge_names[1:]), ()))
    d = build_m25(2)
    with pytest.raises(DomainError,
                       match=re.escape("malformed preferred_tree entry ['v']")):
        presentation_from_cw(with_metadata(d, d.edge_names, [["v"]]))


def test_cw_preferred_tree_too_small_to_span():
    # two triangles glued vertex to vertex keep p, q and r apart, so the
    # glued 1-skeleton is a triangle and a tree needs two of its edges
    faces = {"F": ("p", "q", "r"), "G": ("p", "q", "r")}
    involution = [(("F", k), ("G", k), True) for k in range(3)]
    c = PairedComplex(["p", "q", "r"], faces, involution,
                      [Pairing("f", "F", "G", 0, 1)])
    assert len(vertex_orbits(c)) == 3
    spanned = presentation_from_cw(with_metadata(c, (), ("e1", "e2")))
    assert len(spanned.relators) == 3
    with pytest.raises(DomainError, match="do not span"):
        presentation_from_cw(with_metadata(c, (), ("e1",)))


def test_cw_preferred_tree_with_an_unknown_name():
    c = build_m25(4)
    with pytest.raises(DomainError, match="unknown tree generator 'w'"):
        presentation_from_cw(with_metadata(c, c.edge_names, ("w",)))


# ------------------------------------------------------- Tietze machinery

def test_tietze_eliminate_trivial_example():
    p = Presentation(["g", "h"], [Word.parse("g -h")])
    q = tietze_eliminate(p, "g")
    assert q.generators == ("h",)
    assert cnfset(q) == set()


def test_tietze_eliminate_b1_substitutes_square():
    p = presentation_from_pairings(build_m24(3))
    q = tietze_eliminate(p, "b1")
    assert "b1" not in q.generators
    assert all("b1" not in r.generators() for r in q.relators)
    # the defining relator c1^2 b1^{-1} is consumed, and a1 c2^{-1} b1^{-1}
    # becomes a1 c2^{-1} c1^{-2}
    assert cnf("a1 -c2 -c1 -c1") in cnfset(q)
    assert len(q.relators) == len(p.relators) - 1


def test_tietze_eliminate_d_after_b_and_a():
    steps = list(scripted_reduction("m24", 3))
    before_d = steps[-2]
    assert set(before_d.generators) == {"c1", "c2", "c3", "d"}
    by_hand = tietze_eliminate(before_d, "d")
    assert cnfset(by_hand) == cnfset(reduced_family_presentation("m24", 3))
    # d's defining word after the prior eliminations
    assert cnf("d -c3 -c3 -c2 -c1 -c1") in cnfset(before_d)


def test_tietze_eliminate_errors():
    p = Presentation(["a"], [Word.parse("a a a")])
    with pytest.raises(EliminationError):
        tietze_eliminate(p, "a")
    with pytest.raises(DomainError):
        tietze_eliminate(p, "zzz")


def test_tietze_preserves_h1_spotcheck():
    for family in ("m24", "m25"):
        before = h1(presentation_from_pairings(
            build_m24(5) if family == "m24" else build_m25(5)))
        for step in scripted_reduction(family, 5):
            assert h1(step) == before


def test_auto_simplify_collapses_lens_presentation():
    s = auto_simplify(presentation_from_pairings(build_m24(1)))
    assert len(s.generators) == 1
    g = s.generators[0]
    assert cnfset(s) == {cyclic_normal_form(Word([(g, 1)] * 3))}


def test_auto_simplify_preserves_h1():
    for build, n in ((build_m24, 3), (build_m25, 4)):
        p = presentation_from_pairings(build(n))
        assert h1(auto_simplify(p)) == h1(p)


# ------------------------------------------------------ scripted reduction

def test_family_elimination_order():
    assert family_elimination_order(2) == ["b1", "b2", "a1", "a2", "d"]
    assert family_elimination_order(1) == ["b1", "a1", "d"]
    # n is checked like every other family function's
    for bad in (0, -1, True, "3", 2.0):
        with pytest.raises(DomainError, match="positive integer"):
            family_elimination_order(bad)


def test_scripted_reduction_step_count_and_generators():
    # first yield is the untouched pairing presentation, then one
    # presentation per eliminated generator
    for family in ("m24", "m25"):
        for n in (1, 2, 4):
            steps = list(scripted_reduction(family, n))
            assert len(steps) == 2 * n + 2
            assert set(steps[-1].generators) == {f"c{i}"
                                                 for i in range(1, n + 1)}
            sizes = [len(s.generators) for s in steps]
            assert sizes == list(range(3 * n + 1, n - 1, -1))


def test_reduced_m24_2_verbatim():
    p = reduced_family_presentation("m24", 2)
    assert set(p.generators) == {"c1", "c2"}
    assert cnfset(p) == {
        cnf("c1 c1 c1 c2 c2 c2"),
        cnf("c1 c1 c2 c1 c1 -c2 -c2 -c1 -c2 -c2"),
    }


def test_reduced_m24_3_product_relator():
    p = reduced_family_presentation("m24", 3)
    assert set(p.generators) == {"c1", "c2", "c3"}
    product = cnf("c1 c1 c2 c2 c2 c3 c3 c3 c1")
    assert product in cnfset(p)
    from pairglue import abelianization_matrix
    m = abelianization_matrix(p)
    rows = set(m.rows)
    assert (3, 3, 3) in rows


def test_reduced_m25_2_verbatim():
    p = reduced_family_presentation("m25", 2)
    assert set(p.generators) == {"c1", "c2"}
    assert cnfset(p) == {
        cnf("c1 c1 c2"),
        cnf("c1 c2 c2"),
        cnf("c1 c2 c2 c2 c1 -c2 -c1 -c1 -c1 -c2"),
    }


def test_reduced_relator_counts():
    # each elimination consumes its defining relator
    for n in (1, 2, 3, 6):
        assert len(reduced_family_presentation("m24", n).relators) == n
        expected = n if n % 2 else n + 1
        assert len(reduced_family_presentation("m25", n).relators) == expected


# --------------------------------------------------------------- presets

def test_preset_g25_size():
    p = preset_presentation("G25", 3)
    assert len(p.generators) == 10
    assert len(p.relators) == 10


def test_preset_seifert_relators():
    p = preset_presentation("SEIFERT_M24_2")
    assert sorted(p.generators) == ["h", "x", "y", "z"]
    relators = cnfset(p)
    assert cnf("x x x h") in relators
    assert cnf("z z z -h") in relators
    assert cnf("x y z") in relators


def test_preset_h25_even_relators():
    p = preset_presentation("H25", 4)
    relators = cnfset(p)
    assert cnf("x2 y2") in relators
    assert cnf("x4 y4") in relators
    assert cnf("x1 y1 -u") in relators
    with pytest.raises(DomainError):
        preset_presentation("H25", 3)
    with pytest.raises(DomainError):
        preset_presentation("NOPE", 2)


@pytest.mark.parametrize("n", [0, -2, 1.5, True, "3"])
def test_preset_rejects_a_bad_parameter(n):
    with pytest.raises(DomainError, match="must be a positive integer"):
        preset_presentation("G25", n)


def test_dual24_matches_cw_route():
    for n in (1, 2, 3, 6):
        d = preset_presentation("DUAL24", n)
        c = presentation_from_cw(build_m24(n))
        assert sorted(d.generators) == sorted(c.generators)
        assert cnfset(d) == cnfset(c)


def test_g25_matches_cw_route_odd():
    for n in (1, 3, 5):
        g = preset_presentation("G25", n)
        c = presentation_from_cw(build_m25(n))
        assert sorted(g.generators) == sorted(c.generators)
        assert cnfset(g) == cnfset(c)


def test_h25_matches_cw_route_after_tree_elimination():
    for n in (2, 4, 6):
        hp = preset_presentation("H25", n)
        c = tietze_eliminate(presentation_from_cw(build_m25(n)), "v")
        assert sorted(hp.generators) == sorted(c.generators)
        assert cnfset(hp) == cnfset(c)


# ------------------------------------- one-pass defining-relator search

def rotation_candidates(presentation, generator):
    """Reference: the rotation-based search the one-pass search replaced.

    Materialises every rotation of every cyclically reduced relator and of
    its inverse, and keeps those that read ``g * w^-1`` with ``w`` free of g.
    """
    out = []
    for index, relator in enumerate(presentation.relators):
        reduced = cyclic_reduce(relator)
        for inverted, base in ((0, reduced.letters),
                               (1, reduced.inverse().letters)):
            for rotation in range(len(base)):
                rotated = base[rotation:] + base[:rotation]
                if rotated[0] != (generator, 1):
                    continue
                tail = rotated[1:]
                if any(name == generator for name, _ in tail):
                    continue
                key = (len(reduced), index, rotation, inverted)
                out.append((key, index, Word(tail).inverse()))
    out.sort(key=lambda item: item[0])
    return out


def reference_simplify(presentation):
    """Reference: the elimination schedule of auto_simplify, letter by letter."""
    current = presentation
    while True:
        best = None
        for position, generator in enumerate(current.generators):
            candidates = rotation_candidates(current, generator)
            if candidates:
                rank = (candidates[0][0][0], position)
                if best is None or rank < best[0]:
                    best = (rank, generator, candidates[0])
        if best is None:
            return current
        _, generator, (_, index, replacement) = best
        relators = []
        for i, relator in enumerate(current.relators):
            if i == index:
                continue
            letters = []
            for name, sign in relator:
                if name != generator:
                    letters.append((name, sign))
                else:
                    word = replacement if sign == 1 else replacement.inverse()
                    letters.extend(word.letters)
            new = free_reduce(Word(letters))
            if new.letters:
                relators.append(new)
        current = Presentation(
            [g for g in current.generators if g != generator], relators)


def family_presentations(n):
    for family, build in (("m24", build_m24), ("m25", build_m25)):
        complex_ = build(n)
        yield presentation_from_pairings(complex_)
        yield presentation_from_cw(complex_)
        yield from scripted_reduction(family, n)


def definitions_and_rotation_search(presentation, generator):
    """``(length, index, replacement)`` of each defining relator of the
    generator, from the one-pass scan and from the rotation search."""
    relators = _Relators(presentation)
    scanned = [(length, key, relators.replacement(generator, key))
               for key, length in relators.defines[generator].items()]
    searched = [(key[0], index, replacement)
                for key, index, replacement
                in rotation_candidates(presentation, generator)]
    return sorted(scanned, key=lambda item: item[:2]), searched


def test_defining_candidates_match_rotation_search_on_families():
    for n in range(1, 7):
        for presentation in family_presentations(n):
            for generator in presentation.generators:
                scanned, searched = definitions_and_rotation_search(
                    presentation, generator)
                assert scanned == searched, (n, generator)


@pytest.mark.parametrize("text", [
    "a b c",                # g absent
    "g",                    # g alone
    "-g",                   # g^-1 alone
    "a g b c",              # g once
    "a b -g c",             # g^-1 once
    "g a b g",              # g twice
    "g a -g b",             # g and g^-1
    "a g -a",               # not cyclically reduced: reduces to g
    "b a -g -a -b c",       # not cyclically reduced, g^-1 inside
    "a g -a -a g a",        # reduces to g g
    "a b -b g c -c",        # not freely reduced
    "g -g",                 # reduces to the empty word
])
def test_defining_candidates_match_rotation_search_by_hand(text):
    relators = [Word.parse(text), Word.parse("c -g a"), Word.parse(text)]
    presentation = Presentation(["a", "b", "c", "g"], relators)
    for generator in presentation.generators:
        scanned, searched = definitions_and_rotation_search(
            presentation, generator)
        assert scanned == searched, generator


def test_auto_simplify_follows_the_reference_schedule():
    for n in range(1, 9):
        for build in (build_m24, build_m25):
            p = presentation_from_pairings(build(n))
            assert auto_simplify(p) == reference_simplify(p), (build, n)
    for n in range(1, 5):
        for build in (build_m24, build_m25):
            p = presentation_from_cw(build(n))
            assert auto_simplify(p) == reference_simplify(p), (build, n)


def test_auto_simplify_fingerprints():
    for build, n, generators, letters in ((build_m24, 6, 4, 102),
                                          (build_m25, 8, 3, 1396)):
        s = auto_simplify(presentation_from_pairings(build(n)))
        assert len(s.generators) == generators
        assert sum(len(r) for r in s.relators) == letters


# ------------------------------ incremental steps vs the full rewrite

def full_rewrite_definitions(presentation):
    """Reference: every defining relator of every generator, rescanning every
    relator, as ``{g: [(length, relator index, cyclic letters), ...]}``."""
    definitions = {}
    for index, relator in enumerate(presentation.relators):
        letters = cyclic_reduce(relator).letters
        for name, count in Counter(name for name, _ in letters).items():
            if count == 1:
                definitions.setdefault(name, []).append(
                    (len(letters), index, letters))
    return definitions


def full_rewrite_step(presentation, generator, relator_index, replacement):
    """Reference: one elimination that rewrites and freely reduces every
    relator and builds a new presentation."""
    relators = []
    for index, relator in enumerate(presentation.relators):
        if index == relator_index:
            continue
        letters = []
        for name, sign in relator:
            if name != generator:
                letters.append((name, sign))
            else:
                word = replacement if sign == 1 else replacement.inverse()
                letters.extend(word.letters)
        new = free_reduce(Word(letters))
        if new.letters:
            relators.append(new)
    return Presentation([g for g in presentation.generators if g != generator],
                        relators)


def full_rewrite_simplify(presentation):
    """Reference: the previous auto_simplify schedule, which rewrote and
    rescanned every relator at every step."""
    current = presentation
    while True:
        definitions = full_rewrite_definitions(current)
        if not definitions:
            return current
        position = {g: i for i, g in enumerate(current.generators)}
        best = {g: min(options) for g, options in definitions.items()}
        generator = min(best, key=lambda g: (best[g][0], position[g]))
        _, index, letters = best[generator]
        current = full_rewrite_step(current, generator, index,
                                    _defining_word(letters, generator))
        size = sum(map(len, current.relators))
        if size > presentations.MAX_SIMPLIFY_LETTERS:
            raise CapacityError(
                f"simplification grew the relators to {size} letters, "
                f"past {presentations.MAX_SIMPLIFY_LETTERS}")


def full_rewrite_scripted_reduction(family, n):
    """Reference: the previous scripted reduction, one full rewrite a step."""
    current = presentation_from_pairings(
        build_m24(n) if family == "m24" else build_m25(n))
    yield current
    surviving = {f"c{i}" for i in range(1, n + 1)}
    for generator in family_elimination_order(n):
        options = []
        for length, index, letters in full_rewrite_definitions(current).get(
                generator, ()):
            replacement = _defining_word(letters, generator)
            if replacement.letters and replacement.generators() <= surviving:
                positive = all(sign == 1 for _, sign in replacement.letters)
                options.append((length, not positive, index, replacement))
        _, _, index, replacement = min(options)
        current = full_rewrite_step(current, generator, index, replacement)
        yield current


def simplified_afresh(presentation):
    """auto_simplify on an equal presentation that has kept nothing yet."""
    return auto_simplify(Presentation(presentation.generators,
                                      presentation.relators))


def simplify_outcome(simplify, presentation):
    """The simplified presentation, or the CapacityError message."""
    try:
        return simplify(presentation)
    except CapacityError as exc:
        return str(exc)


def test_scripted_reduction_matches_the_full_rewrite():
    for n in range(1, 13):
        for family in ("m24", "m25"):
            steps = list(scripted_reduction(family, n))
            assert steps == list(full_rewrite_scripted_reduction(family, n)), \
                (family, n)
            # each intermediate is a fresh presentation that keeps nothing
            assert all(step._simplified is None for step in steps)
            assert steps[-1] == reduced_family_presentation(family, n)


@pytest.mark.parametrize("n", [1, 2, 6, 8, 12])
@pytest.mark.parametrize("family", ["m24", "m25"])
def test_scripted_reduction_builds_only_the_presentations_it_returns(
        monkeypatch, family, n):
    built = []
    init = Presentation.__init__

    def spy(self, generators, relators):
        init(self, generators, relators)
        built.append(self)

    monkeypatch.setattr(Presentation, "__init__", spy)
    # the raw pairing presentation and the result, not one per step
    reduced = reduced_family_presentation(family, n)
    assert len(built) == 2 and built[-1] is reduced
    assert built[0].generators == tuple(
        p.name for p in build_family(family, n).pairings)
    # one per value yielded: the raw presentation, then one per step
    built.clear()
    steps = list(scripted_reduction(family, n))
    assert len(built) == len(steps) == 2 * n + 2
    assert all(a is b for a, b in zip(built, steps))


def test_auto_simplify_matches_the_full_rewrite_on_families():
    for n in range(1, 13):
        for family, build in (("m24", build_m24), ("m25", build_m25)):
            complex_ = build(n)
            for presentation in (presentation_from_pairings(complex_),
                                 presentation_from_cw(complex_),
                                 reduced_family_presentation(family, n)):
                simplified = simplified_afresh(presentation)
                assert simplified == full_rewrite_simplify(presentation), \
                    (family, n, presentation.generators[:3])
                assert simplified._simplified is simplified


def random_relator(rng, generators):
    """A word that is often not freely or cyclically reduced: random letters,
    a conjugate, a power, or a word times its inverse."""
    letters = [(rng.choice(generators), rng.choice((1, -1)))
               for _ in range(rng.randint(0, 6))]
    shape = rng.randrange(4)
    if shape == 1 and letters:
        conjugator = [(rng.choice(generators), rng.choice((1, -1)))]
        return Word(conjugator) * Word(letters) * Word(conjugator).inverse()
    if shape == 2:
        return Word(letters * rng.randint(2, 3))
    if shape == 3 and rng.random() < 0.3:
        return Word(letters) * Word(letters).inverse()
    return Word(letters)


def test_random_presentations_eliminate_as_the_full_rewrite():
    rng = random.Random(0x71E7)
    eliminated = 0
    for _ in range(400):
        generators = ["a", "b", "c", "d", "e"][:rng.randint(1, 5)]
        presentation = Presentation(generators, [
            random_relator(rng, generators) for _ in range(rng.randint(0, 6))])
        simplified = simplified_afresh(presentation)
        assert simplified == full_rewrite_simplify(presentation), presentation
        assert simplified._simplified is simplified
        for generator in generators:
            options = full_rewrite_definitions(presentation).get(generator)
            if not options:
                with pytest.raises(EliminationError):
                    tietze_eliminate(presentation, generator)
                continue
            eliminated += 1
            _, index, letters = min(options)
            assert tietze_eliminate(presentation, generator) == \
                full_rewrite_step(presentation, generator, index,
                                  _defining_word(letters, generator))
    assert eliminated > 300


@pytest.mark.parametrize("bound", [60, 200, 1000, 5000])
def test_capacity_error_at_the_same_step_as_the_full_rewrite(monkeypatch, bound):
    monkeypatch.setattr(presentations, "MAX_SIMPLIFY_LETTERS", bound)
    rng = random.Random(bound)
    cases = [presentation_from_pairings(build(n))
             for build in (build_m24, build_m25) for n in (4, 6, 8, 10)]
    cases += [presentation_from_cw(build_m25(7))]
    for _ in range(40):
        generators = ["a", "b", "c", "d"]
        cases.append(Presentation(generators, [
            Word(random_relator(rng, generators).letters * 4)
            for _ in range(4)]))
    raised = 0
    for presentation in cases:
        outcome = simplify_outcome(simplified_afresh, presentation)
        # the message names the letter count, so equal messages mean the
        # same step raised
        assert outcome == simplify_outcome(full_rewrite_simplify,
                                           presentation), presentation
        raised += isinstance(outcome, str)
    assert raised


# ------------------------------------------- immutability, simplify once

def test_presentations_and_words_are_immutable():
    p = Presentation(["a", "b"], [Word.parse("a b -a")])
    with pytest.raises(AttributeError):
        p.generators = ("a",)
    with pytest.raises(AttributeError):
        p.relators = ()
    with pytest.raises(AttributeError):
        p.relators[0].letters = ()
    with pytest.raises(AttributeError):
        del p.generators
    assert p == Presentation(["a", "b"], [Word.parse("a b -a")])
    assert str(p.relators[0]) == "a b -a"
    # copies are rebuilt through the constructors
    assert copy.copy(p) == copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p


def test_presentation_is_simplified_once(monkeypatch):
    from pairglue.group_theory import presentations

    calls = []
    simplify = presentations._simplify

    def counted(presentation):
        calls.append(presentation)
        return simplify(presentation)

    monkeypatch.setattr(presentations, "_simplify", counted)
    p = presentation_from_pairings(build_m25(4))
    tables = small_groups()
    assert len(tables) == 24
    counts = [count_homomorphisms(p, table) for table in tables.values()]
    assert calls == [p]
    assert auto_simplify(p) is auto_simplify(p)
    assert auto_simplify(auto_simplify(p)) is auto_simplify(p)
    assert calls == [p]
    # an equal presentation built afresh has its own, equal result
    again = presentation_from_pairings(build_m25(4))
    assert auto_simplify(again) == auto_simplify(p)
    assert [count_homomorphisms(again, t) for t in tables.values()] == counts
    assert calls == [p, again]
