"""Structural validation, orbit computation and the manifold certificate.

The orbit tests carry two independent oracles: a union-find closure over the
pairing correspondences (membership, no traversal involved) and a literal
replay of each cycle word through the stored offsets and directions.
"""

import copy
import pickle

import pytest

from pairglue import (
    PairedComplex,
    Pairing,
    build_m24,
    build_m25,
    cell_counts,
    edge_orbits,
    is_manifold,
    presentation_from_cw,
    presentation_from_pairings,
    validate,
    vertex_orbits,
)
from pairglue import complex_core
from pairglue.complex_core import _orbit_data, natural_key
from pairglue.errors import StructureError


def slot_key(slot):
    """Scan order for slots, from the labels alone: face label (natural),
    then index."""
    return (natural_key(slot[0]), slot[1])


def canonical_edge(complex_, slot):
    mate, _ = complex_.involution[slot]
    return min(slot, mate, key=slot_key)


def union_find_edge_classes(complex_):
    """Edge classes via union-find over the pairing correspondences only."""
    c = complex_
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for slot in c.all_slots():
        find(canonical_edge(c, slot))
    for p in c.pairings:
        length = len(c.faces[p.source])
        for k in range(length):
            if p.direction == 1:
                j = (p.offset + k) % length
            else:
                j = (p.offset - k - 1) % length
            union(canonical_edge(c, (p.source, k)),
                  canonical_edge(c, (p.target, j)))
    classes = {}
    for slot in c.all_slots():
        edge = canonical_edge(c, slot)
        classes.setdefault(find(edge), set()).add(edge)
    return {frozenset(members) for members in classes.values()}


def replay_cycle_word(complex_, orbit):
    """Walk the orbit's cycle word from its representative; return the edges
    visited and the arrival edge."""
    c = complex_
    by_name = {p.name: p for p in c.pairings}
    slot, sense = orbit.representative, 1
    visited = [canonical_edge(c, slot)]
    for i, (name, sign) in enumerate(orbit.cycle_word):
        p = by_name[name]
        face, k = slot
        if sign == 1:
            assert face == p.source, "positive letter must act on the source face"
            length = len(c.faces[face])
            if p.direction == 1:
                slot = (p.target, (p.offset + k) % length)
            else:
                slot, sense = (p.target, (p.offset - k - 1) % length), -sense
        else:
            assert face == p.target, "inverse letter must act on the target face"
            length = len(c.faces[p.source])
            if p.direction == 1:
                slot = (p.source, (k - p.offset) % length)
            else:
                slot, sense = (p.source, (p.offset - k - 1) % length), -sense
        if i == len(orbit.cycle_word.letters) - 1:
            break
        visited.append(canonical_edge(c, slot))
        mate, aligned = c.involution[slot]
        slot, sense = mate, (sense if aligned else -sense)
    return visited, canonical_edge(c, slot)


@pytest.fixture(scope="module", params=["m24", "m25"])
def family(request):
    return request.param


def build(family, n):
    return build_m24(n) if family == "m24" else build_m25(n)


def test_families_validate_clean(family):
    for n in range(1, 13):
        assert validate(build(family, n)) == []


def test_edge_orbits_match_union_find_oracle(family):
    for n in (1, 2, 3, 4, 6, 9):
        c = build(family, n)
        computed = {frozenset(orbit.member_edges) for orbit in edge_orbits(c)}
        assert computed == union_find_edge_classes(c)


def test_edge_orbits_partition_all_edges(family):
    for n in (1, 2, 5):
        c = build(family, n)
        all_edges = {canonical_edge(c, slot) for slot in c.all_slots()}
        seen = []
        for orbit in edge_orbits(c):
            assert orbit.representative == orbit.member_edges[0]
            seen.extend(orbit.member_edges)
        assert len(seen) == len(set(seen)), "orbits overlap"
        assert set(seen) == all_edges


def test_cycle_words_close_and_cover(family):
    for n in (1, 2, 3, 4, 7):
        c = build(family, n)
        for orbit in edge_orbits(c):
            visited, arrival = replay_cycle_word(c, orbit)
            assert arrival == orbit.representative
            assert set(visited) == set(orbit.member_edges)
            assert len(visited) == len(orbit.member_edges)


def test_vertex_orbits_partition(family):
    for n in (1, 2, 4, 5):
        c = build(family, n)
        members = [v for orbit in vertex_orbits(c)
                   for v in orbit.member_vertices]
        assert sorted(members) == sorted(c.vertex_labels)
        for orbit in vertex_orbits(c):
            assert orbit.representative == orbit.member_vertices[0]


def test_orbit_order_is_deterministic(family):
    a = edge_orbits(build(family, 4))
    b = edge_orbits(build(family, 4))
    assert [o.representative for o in a] == [o.representative for o in b]
    assert [o.cycle_word for o in a] == [o.cycle_word for o in b]
    reps = [o.representative for o in a]
    assert reps == sorted(reps, key=slot_key)


def test_cell_counts_and_certificate():
    assert tuple(cell_counts(build_m24(3))) == (1, 10, 10, 1)
    assert tuple(cell_counts(build_m24(1))) == (1, 4, 4, 1)
    assert tuple(cell_counts(build_m25(4))) == (2, 14, 13, 1)
    for n in range(1, 21):
        for c in (build_m24(n), build_m25(n)):
            closed, chi = is_manifold(c)
            assert closed and chi == 0


def test_m24_orbit_counts():
    assert len(edge_orbits(build_m24(3))) == 10
    assert len(edge_orbits(build_m24(1))) == 4
    assert len(vertex_orbits(build_m24(5))) == 1


def test_m25_split_class():
    orbits = edge_orbits(build_m25(4))
    assert len(orbits) == 14
    assert sorted(len(o.member_edges) for o in orbits).count(2) == 2
    assert len(vertex_orbits(build_m25(4))) == 2
    assert len(vertex_orbits(build_m25(3))) == 1


# ---------------------------------------------------------------- validator

def tetra_like():
    """Two triangles glued along their rims (a valid 2-face complex)."""
    faces = {"F": ("p", "q", "r"), "G": ("p", "q", "r")}
    involution = [(("F", k), ("G", k), True) for k in range(3)]
    return PairedComplex(["p", "q", "r"], faces, involution,
                         [Pairing("f", "F", "G", 0, 1)])


def test_validator_accepts_minimal_complex():
    assert validate(tetra_like()) == []


def broken_tetra(vertices=None, faces=(), involution=(), pairings=None):
    """A copy of tetra_like() with fields replaced: ``faces`` and
    ``involution`` update its mappings (an involution entry of None removes
    the slot's entry)."""
    c = tetra_like()
    faces_ = {**c.faces, **dict(faces)}
    mates = {**c.involution, **dict(involution)}
    return PairedComplex(
        c.vertex_labels if vertices is None else vertices, faces_,
        {slot: entry for slot, entry in mates.items() if entry is not None},
        c.pairings if pairings is None else pairings)


@pytest.mark.parametrize("broken, expected", [
    (broken_tetra(faces={"H": ()}),
     ["face H has no vertices", "unpaired face H"]),
    (broken_tetra(vertices=["p", "q"]),
     ["face F references unknown vertex r", "face G references unknown vertex r"]
     + [f"involution references unknown slot {face}.{k}"
        for k in range(3) for face in "FG"]),
    (broken_tetra(pairings=[Pairing("f", "F", "G"), Pairing("f", "G", "F")]),
     ["duplicate pairing name f", "face F doubly paired (f, f)",
      "face G doubly paired (f, f)"]),
    (broken_tetra(pairings=[Pairing("f", "F", "H")]),
     ["pairing f references unknown face H", "unpaired face F",
      "unpaired face G"]),
    (broken_tetra(pairings=[Pairing("f", "F", "F")]),
     ["pairing f pairs face F with itself", "face F doubly paired (f, f)",
      "unpaired face G"]),
    (broken_tetra(pairings=[Pairing("f", "F", "G", 3)]),
     ["pairing f offset 3 out of range"]),
    (broken_tetra(pairings=[Pairing("f", "F", "G", 0, 0)]),
     ["pairing f direction must be +1 or -1"]),
    (broken_tetra(involution={("F", 1): None}),
     ["involution missing entry for F.1", "involution not symmetric at G.1"]),
    (broken_tetra(involution={("F", 0): (("F", 0), True)}),
     ["involution has a fixed point at F.0", "involution not symmetric at G.0"]),
    (broken_tetra(involution={("F", 0): (("F", 3), True)}),
     ["involution at F.0 references unknown slot F.3",
      "involution not symmetric at G.0"]),
    (broken_tetra(involution={("F", 0): (("G", 0), False)}),
     ["involution not symmetric at F.0", "involution not symmetric at G.0"]),
    (broken_tetra(involution={("F", 0): (("G", 1), True),
                              ("G", 1): (("F", 0), True),
                              ("F", 1): (("G", 0), True),
                              ("G", 0): (("F", 1), True)}),
     [f"involution endpoints mismatch at {slot}"
      for slot in ("F.0", "F.1", "G.0", "G.1")]),
    (broken_tetra(involution={("F", 3): (("G", 0), True)}),
     ["involution references unknown slot F.3"]),
], ids=["faceless face", "unknown vertex", "duplicate pairing name",
        "unknown face", "self-pairing", "offset out of range", "bad direction",
        "missing involution entry", "involution fixed point",
        "involution mate unknown", "involution not symmetric",
        "involution endpoints mismatch", "involution key unknown"])
def test_validator_messages(broken, expected):
    assert validate(broken) == expected


@pytest.mark.parametrize("offset, direction, expected", [
    (1.0, 1, "pairing f offset 1.0 is not an int"),
    ("1", 1, "pairing f offset '1' is not an int"),
    (True, 1, "pairing f offset True is not an int"),
    (0, 1.0, "pairing f direction must be +1 or -1"),
    (0, "1", "pairing f direction must be +1 or -1"),
    (0, True, "pairing f direction must be +1 or -1"),
])
def test_validator_reports_non_int_offset_and_direction(offset, direction,
                                                        expected):
    broken = broken_tetra(pairings=[Pairing("f", "F", "G", offset, direction)])
    assert validate(broken) == [expected]
    with pytest.raises(StructureError) as exc:
        vertex_orbits(broken)
    assert exc.value.violations == [expected]


def test_validator_requires_one_connected_boundary():
    c = tetra_like()
    faces = dict(c.faces)
    faces.update({f"{label}2": cycle for label, cycle in c.faces.items()})
    involution = dict(c.involution)
    involution.update({(f"{face}2", k): ((f"{mate}2", mk), aligned)
                       for (face, k), ((mate, mk), aligned)
                       in c.involution.items()})
    two = PairedComplex(c.vertex_labels, faces, involution,
                        [Pairing("f", "F", "G"), Pairing("f2", "F2", "G2")])
    assert validate(two) == [
        "boundary is not connected: face F2 is not reached from face F"]
    with pytest.raises(StructureError):
        cell_counts(two)
    assert validate(PairedComplex(["p"], {}, {}, [])) == [
        "boundary has no faces"]


def test_validator_reports_unpaired_face():
    c = tetra_like()
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, [])
    problems = validate(broken)
    assert any("unpaired face" in p for p in problems)


def test_validator_reports_doubly_paired_face():
    c = tetra_like()
    doubled = PairedComplex(
        c.vertex_labels, c.faces, c.involution,
        [Pairing("f", "F", "G", 0, 1), Pairing("g", "G", "F", 0, 1)])
    problems = validate(doubled)
    assert any("doubly paired" in p for p in problems)


def test_validator_reports_fixed_slot_involution():
    faces = {"F": ("p", "q", "r"), "G": ("p", "q", "r")}
    involution = {("F", 0): (("F", 0), True),
                  ("F", 1): (("G", 1), True), ("G", 1): (("F", 1), True),
                  ("F", 2): (("G", 2), True), ("G", 2): (("F", 2), True),
                  ("G", 0): (("G", 0), True)}
    broken = PairedComplex(["p", "q", "r"], faces, involution,
                           [Pairing("f", "F", "G", 0, 1)])
    assert validate(broken)


def test_validator_reports_orientation_failure():
    # identity gluing along an aligned rim with the back face reversed does
    # not reverse orientation
    faces = {"F": ("p", "q", "r"), "G": ("p", "r", "q")}
    involution = [(("F", 0), ("G", 2), False),
                  (("F", 1), ("G", 1), False),
                  (("F", 2), ("G", 0), False)]
    c = PairedComplex(["p", "q", "r"], faces, involution,
                      [Pairing("f", "F", "G", 0, 1)])
    problems = validate(c)
    assert any("reverse orientation" in p for p in problems)


def test_validator_reports_length_mismatch():
    faces = {"F": ("p", "q", "r"), "G": ("p", "q")}
    c = PairedComplex(["p", "q", "r"], faces, [],
                      [Pairing("f", "F", "G", 0, 1)])
    assert validate(c)


def test_orbit_functions_refuse_invalid_input():
    c = tetra_like()
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, [])
    with pytest.raises(StructureError):
        edge_orbits(broken)
    with pytest.raises(StructureError):
        cell_counts(broken)


# ------------------------------------------- immutability, analysis once

def test_complexes_and_pairings_are_immutable():
    c = build_m25(4)
    for name, value in (("name", "other"), ("n", 5), ("faces", {}),
                        ("pairings", ()), ("_analysis", None)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    with pytest.raises(AttributeError):
        del c.vertex_labels
    with pytest.raises(TypeError):
        c.faces["X"] = ("P1",)
    with pytest.raises(TypeError):
        c.involution[("A1", 0)] = (("A1", 1), True)
    pairing = c.pairings[0]
    with pytest.raises(AttributeError):
        pairing.offset = 1
    with pytest.raises(AttributeError):
        del pairing.name
    assert c.same_structure(build_m25(4))
    assert pairing == Pairing("a1", "A1", "Ab1", 0, 1)


def test_complex_copy_and_pickle_round_trip():
    for c in (build_m24(3), build_m25(4), tetra_like()):
        edges = edge_orbits(c)
        for twin in (copy.copy(c), copy.deepcopy(c),
                     pickle.loads(pickle.dumps(c))):
            assert twin is not c and twin.same_structure(c)
            assert (twin.name, twin.n, twin.edge_names, twin.preferred_tree) \
                == (c.name, c.n, c.edge_names, c.preferred_tree)
            assert list(twin.faces) == list(c.faces)
            assert edge_orbits(twin) == edges
        for p in c.pairings:
            assert pickle.loads(pickle.dumps(p)) == copy.deepcopy(p) == p
            assert repr(copy.copy(p)) == repr(p)


def test_returned_analysis_cannot_be_corrupted():
    c = build_m25(4)
    edges, vertices = edge_orbits(c), vertex_orbits(c)
    edge_orbits(c).clear()
    vertex_orbits(c).append("junk")
    validate(c).append("junk")
    returned = edge_orbits(c)
    returned[0] = None
    assert edge_orbits(c) == edges == edge_orbits(build_m25(4))
    assert vertex_orbits(c) == vertices == vertex_orbits(build_m25(4))
    assert validate(c) == []
    _, slot_sign, orbit_index = _orbit_data(c)
    with pytest.raises(TypeError):
        slot_sign[("A1", 0)] = -slot_sign[("A1", 0)]
    with pytest.raises(TypeError):
        orbit_index[("A1", 0)] = 0


def count_analysis(monkeypatch):
    """Record the complex each analysis body runs on, by body name."""
    calls = {}
    for name in ("_violations", "_traverse_edges", "_vertex_classes"):
        def counted(complex_, _name=name, _body=getattr(complex_core, name)):
            calls.setdefault(_name, []).append(complex_)
            return _body(complex_)
        monkeypatch.setattr(complex_core, name, counted)
    return calls


def test_each_complex_is_analysed_once(monkeypatch):
    calls = count_analysis(monkeypatch)
    c, d = build_m25(4), build_m24(3)
    for complex_ in (c, d, c, d):
        assert validate(complex_) == []
        assert is_manifold(complex_) == (True, 0)
        cell_counts(complex_)
        edge_orbits(complex_)
        vertex_orbits(complex_)
        presentation_from_pairings(complex_)
        presentation_from_cw(complex_)
    assert calls == {"_violations": [c, d], "_traverse_edges": [c, d],
                     "_vertex_classes": [c, d]}

    calls.clear()
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, [])
    for _ in range(2):
        assert validate(broken)
        for analysis in (edge_orbits, vertex_orbits, cell_counts,
                         presentation_from_pairings):
            with pytest.raises(StructureError):
                analysis(broken)
    assert calls == {"_violations": [broken]}
