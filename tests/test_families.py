"""The two builder families: labels, faces, pairings, census formulas."""

import gc
import pickle
import weakref

import pytest

from pairglue import (
    Word,
    build_family,
    build_m24,
    build_m25,
    cell_counts,
    cyclic_normal_form,
    edge_orbits,
    is_manifold,
    reduced_family_presentation,
    rotation,
    singularity_report,
    validate,
    vertex_orbits,
)
from pairglue import families
from pairglue.errors import DomainError


def idx(i, n):
    return (i - 1) % n + 1


def test_build_family_dispatch():
    assert build_family("m24", 3).same_structure(build_m24(3))
    assert build_family("m25", 2).same_structure(build_m25(2))
    with pytest.raises(DomainError):
        build_family("m26", 3)
    for bad in (0, -1):
        with pytest.raises(DomainError):
            build_m24(bad)
        with pytest.raises(DomainError):
            build_m25(bad)
    with pytest.raises(DomainError):
        build_m24("3")


# ------------------------------------------------ live members are shared

def test_build_family_shares_a_held_member():
    first = build_family("m24", 7)
    assert build_family("m24", 7) is first
    assert build_family("M24", 7) is first
    assert build_family("m25", 7) is not first
    assert build_family("m24", 6) is not first


def test_a_released_member_leaves_the_registry():
    member = build_family("m25", 9)
    ref = weakref.ref(member)
    del member
    gc.collect()
    assert ref() is None
    assert dict(families._LIVE) == {}


def test_build_family_checks_n_before_the_lookup():
    # True == 1 and hash(True) == hash(1), so a lookup made first would
    # return m24(1)
    one = build_family("m24", 1)
    for bad in (True, 1.0):
        with pytest.raises(DomainError, match="positive integer"):
            build_family("m24", bad)
    assert build_family("m24", 1) is one


def test_builders_always_build_afresh():
    held = build_family("m24", 7)
    for build in (build_m24, build_m25):
        first, second = build(7), build(7)
        assert first is not second and first.same_structure(second)
    assert build_m24(7) is not held and build_m24(7).same_structure(held)


def test_a_shared_member_survives_a_pickle_round_trip():
    member = build_family("m25", 6)
    validate(member)
    twin = pickle.loads(pickle.dumps(member))
    assert twin is not member and twin.same_structure(member)
    assert edge_orbits(twin) == edge_orbits(member)
    assert build_family("m25", 6) is member


def test_library_calls_reuse_a_held_member(monkeypatch):
    member, base = build_family("m24", 6), build_family("m24", 1)
    built = []

    def counted(n, _build=families.build_m24):
        built.append(n)
        return _build(n)

    monkeypatch.setattr(families, "build_m24", counted)
    assert rotation("m24", 6).domain is member
    assert singularity_report("m24", 6).base_n == 1
    reduced_family_presentation("m24", 6)
    assert built == []
    assert build_family("m24", 6) is member and base is build_family("m24", 1)


def test_counts_of_raw_cells():
    for n in (1, 2, 5, 12):
        for build in (build_m24, build_m25):
            c = build(n)
            assert len(c.vertex_labels) == 4 * n
            assert len(c.faces) == 6 * n + 2
            assert len(c.pairings) == 3 * n + 1
            assert len(c.all_slots()) == 20 * n
            assert len(c.involution) == 20 * n


def test_pairing_names_and_shape():
    for build in (build_m24, build_m25):
        c = build(4)
        names = sorted(p.name for p in c.pairings)
        assert names == sorted([f"{x}{i}" for x in "abc"
                                for i in range(1, 5)] + ["d"])
        for p in c.pairings:
            assert p.offset == 0 and p.direction == 1
        by_name = {p.name: p for p in c.pairings}
        assert (by_name["a2"].source, by_name["a2"].target) == ("A2", "Ab2")
        assert (by_name["b3"].source, by_name["b3"].target) == ("B3", "Bb3")
        assert (by_name["c1"].source, by_name["c1"].target) == ("C1", "Cb1")
        assert (by_name["d"].source, by_name["d"].target) == ("D", "Db")


def test_m24_face_cycles_spot_checks():
    c = build_m24(3)
    assert c.faces["A1"] == ("P1", "P2", "Q1")
    assert c.faces["A3"] == ("P3", "P1", "Q3")
    assert c.faces["Ab1"] == ("R3", "P3", "Q2")
    assert c.faces["Ab2"] == ("R1", "P1", "Q3")
    assert c.faces["B2"] == ("R2", "P2", "Q2")
    assert c.faces["Bb3"] == ("S3", "S1", "R1")
    assert c.faces["C1"] == ("S1", "R1", "Q1")
    assert c.faces["Cb2"] == ("R3", "Q2", "S2")
    assert c.faces["D"] == ("P1", "P2", "P3")
    assert c.faces["Db"] == ("S3", "S1", "S2")
    assert build_m24(5).faces["Db"] == ("S3", "S4", "S5", "S1", "S2")


def test_m25_face_cycles_spot_checks():
    c = build_m25(4)
    assert c.faces["A1"] == ("P1", "P2", "Q1")
    assert c.faces["Ab1"] == ("P3", "R3", "Q3")
    assert c.faces["B1"] == ("Q1", "R2", "P2")
    assert c.faces["Bb2"] == ("R4", "S4", "S3")
    assert c.faces["C1"] == ("Q4", "R1", "S4")
    assert c.faces["Cb3"] == ("S3", "Q3", "R3")
    assert c.faces["D"] == ("P1", "P2", "P3", "P4")
    assert c.faces["Db"] == ("S3", "S4", "S1", "S2")


def test_monogon_and_bigon_members_are_legal():
    # the n=1 lids are monogons and several faces repeat vertices; the
    # positional edge model must still validate and certify both members
    for build in (build_m24, build_m25):
        c = build(1)
        assert len(c.faces["D"]) == 1
        assert validate(c) == []
        closed, chi = is_manifold(c)
        assert closed and chi == 0


def test_census_formulas_families():
    for n in range(1, 13):
        assert tuple(cell_counts(build_m24(n))) == (1, 3 * n + 1, 3 * n + 1, 1)
        expected = ((1, 3 * n + 1, 3 * n + 1, 1) if n % 2
                    else (2, 3 * n + 2, 3 * n + 1, 1))
        assert tuple(cell_counts(build_m25(n))) == expected


def m24_chain_shapes(n):
    shapes = set()
    for i in range(1, n + 1):
        shapes.add(cyclic_normal_form(
            Word.parse(f"a{i} b{idx(i + 2, n)} -d")))
        shapes.add(cyclic_normal_form(
            Word.parse(f"a{i} -c{idx(i + 1, n)} -b{i}")))
        shapes.add(cyclic_normal_form(Word.parse(f"c{i} c{i} -b{i}")))
    shapes.add(cyclic_normal_form(
        Word([(f"a{i}", 1) for i in range(1, n + 1)])))
    return shapes


def m25_chain_shapes(n):
    shapes = set()
    for i in range(1, n + 1):
        shapes.add(cyclic_normal_form(
            Word.parse(f"a{i} b{idx(i + 1, n)} -d")))
        shapes.add(cyclic_normal_form(
            Word.parse(f"a{i} -c{idx(i + 2, n)} -b{i}")))
        shapes.add(cyclic_normal_form(
            Word.parse(f"b{i} -c{idx(i + 2, n)} -c{idx(i + 1, n)}")))
    if n % 2:
        shapes.add(cyclic_normal_form(
            Word([(f"a{idx(1 + 2 * k, n)}", 1) for k in range(n)])))
    else:
        for start in (1, 2):
            shapes.add(cyclic_normal_form(
                Word([(f"a{start + 2 * k}", 1) for k in range(n // 2)])))
    return shapes


def test_m24_chain_words():
    for n in (1, 2, 3, 4, 7):
        words = {cyclic_normal_form(o.cycle_word)
                 for o in edge_orbits(build_m24(n))}
        assert words == m24_chain_shapes(n)


def test_m25_chain_words():
    for n in (1, 2, 3, 4, 6, 7):
        words = {cyclic_normal_form(o.cycle_word)
                 for o in edge_orbits(build_m25(n))}
        assert words == m25_chain_shapes(n)


def test_m24_3_chain_words_verbatim():
    got = {(o.representative, len(o.member_edges), str(o.cycle_word))
           for o in edge_orbits(build_m24(3))}
    assert got == {
        (("A1", 0), 3, "a1 b3 -d"),
        (("A1", 1), 3, "a1 a2 a3"),
        (("A1", 2), 3, "a1 -c2 -b1"),
        (("A2", 0), 3, "a2 b1 -d"),
        (("A2", 2), 3, "a2 -c3 -b2"),
        (("A3", 0), 3, "a3 b2 -d"),
        (("A3", 2), 3, "a3 -c1 -b3"),
        (("B1", 2), 3, "b1 -c1 -c1"),
        (("B2", 2), 3, "b2 -c2 -c2"),
        (("B3", 2), 3, "b3 -c3 -c3"),
    }


def test_m24_a_product_class():
    # one class closes after n steps through the a pairings alone; its edges
    # are the Q_i P_{i+1} diagonals
    for n in (2, 4, 5):
        c = build_m24(n)
        product = [o for o in edge_orbits(c)
                   if cyclic_normal_form(o.cycle_word)
                   == cyclic_normal_form(Word([(f"a{i}", 1)
                                               for i in range(1, n + 1)]))]
        assert len(product) == 1
        assert len(product[0].member_edges) == n
        endpoints = {frozenset(c.slot_endpoints(e))
                     for e in product[0].member_edges}
        assert endpoints == {frozenset((f"P{idx(i + 1, n)}", f"Q{i}"))
                             for i in range(1, n + 1)}


def test_m25_even_split_class_sizes():
    for n in (2, 4, 6):
        orbits = edge_orbits(build_m25(n))
        split = [o for o in orbits
                 if set(o.cycle_word.generators())
                 <= {f"a{i}" for i in range(1, n + 1)}]
        assert len(split) == 2
        assert all(len(o.member_edges) == n // 2 for o in split)


def test_vertex_class_split():
    for n in (2, 4, 10):
        assert len(vertex_orbits(build_m25(n))) == 2
    for n in (1, 3, 9):
        assert len(vertex_orbits(build_m25(n))) == 1
    for n in (1, 2, 3, 8):
        assert len(vertex_orbits(build_m24(n))) == 1


def test_even_m25_carries_preferred_tree():
    assert build_m25(4).preferred_tree == ("v",)
    assert build_m25(3).preferred_tree == ()
    assert build_m24(6).preferred_tree == ()


def test_metadata_does_not_affect_structure():
    a, b = build_m24(2), build_m24(2)
    assert a.same_structure(b)
    assert a.name == "m24" and a.n == 2
    assert b.edge_names, "builders should carry edge naming metadata"
