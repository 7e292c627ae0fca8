"""Structural validation, orbit computation and the manifold certificate.

The orbit tests carry two independent oracles: a union-find closure over the
pairing correspondences (membership, no traversal involved) and a literal
replay of each cycle word through the stored offsets and directions.
"""

import copy
import pickle
import random
import re
from collections import Counter
from types import MappingProxyType

import pytest

from pairglue import (
    PairedComplex,
    Pairing,
    build_m24,
    build_m25,
    cell_counts,
    edge_orbits,
    h1,
    is_manifold,
    parse_complex,
    presentation_from_cw,
    presentation_from_pairings,
    quotient_complex,
    serialize_complex,
    validate,
    vertex_orbits,
)
from pairglue import complex_core
from pairglue.complex_core import (EdgeOrbit, VertexOrbit, _find, _is_int,
                                   _join, _orbit_data, format_slot,
                                   natural_key)
from pairglue.errors import (DomainError, PairglueError, ParseError,
                             StructureError)
from pairglue.group_theory.words import Word


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
    # a value that is not a (label, k) pair is rendered with repr
    (broken_tetra(involution={("Z",): (("F", 0), True)}),
     ["involution references unknown slot ('Z',)"]),
    (broken_tetra(involution={("F", 0): (("G", 0, 9), True)}),
     ["involution at F.0 references unknown slot ('G', 0, 9)",
      "involution not symmetric at G.0"]),
    (broken_tetra(involution={("F", 0): (("G", []), True)}),
     ["involution at F.0 references unknown slot G.[]",
      "involution not symmetric at G.0"]),
    (broken_tetra(faces={"F": ("p", ["x"], "r")}),
     ["face F references unknown vertex ['x']"]
     + [f"involution at G.{k} references unknown slot F.{k}" for k in range(3)]
     + [f"involution references unknown slot F.{k}" for k in range(3)]),
    (broken_tetra(pairings=[Pairing(5, "F", "G")]),
     ["pairing name 5 is not a str"]),
    (broken_tetra(pairings=[Pairing([], "F", "G")]),
     ["pairing name [] is not a str"]),
    (broken_tetra(pairings=[Pairing("f", "F", [])]),
     ["pairing f references unknown face []", "unpaired face F",
      "unpaired face G"]),
    (broken_tetra(vertices=["p", "q", "r", "q", "p", "q"]),
     ["duplicate vertex label p", "duplicate vertex label q"]),
], ids=["faceless face", "unknown vertex", "duplicate pairing name",
        "unknown face", "self-pairing", "offset out of range", "bad direction",
        "missing involution entry", "involution fixed point",
        "involution mate unknown", "involution not symmetric",
        "involution endpoints mismatch", "involution key unknown",
        "short involution key", "long involution mate",
        "unhashable involution mate", "unhashable face entry",
        "pairing name not str", "unhashable pairing name",
        "unhashable pairing face", "duplicate vertex label"])
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


@pytest.mark.parametrize("label", [None, -1, 1.0, True])
def test_constructor_refuses_labels_that_are_not_str(label):
    c = build_m24(1)
    last = c.face_order[-1]
    faces = {label if face == last else face: cycle
             for face, cycle in c.faces.items()}
    for kind, args in (
            ("vertex", ([*c.vertex_labels, label], c.faces)),
            ("face", (c.vertex_labels, faces))):
        message = re.escape(f"{kind} label {label!r} is not a str")
        with pytest.raises(DomainError, match=message):
            PairedComplex(*args, c.involution, c.pairings)


@pytest.mark.parametrize("entry", [(5, True), (None, True), (), ("Z",), 5],
                         ids=["int mate", "None mate", "empty entry",
                              "short entry", "int entry"])
def test_constructor_refuses_involution_entries_that_are_not_mates(entry):
    c = build_m24(1)
    mates = {**c.involution, ("A1", 0): entry}
    message = (f"involution entry of slot A1.0 is not a (mate, aligned) "
               f"pair: {entry!r}")
    with pytest.raises(DomainError, match=re.escape(message)):
        PairedComplex(c.vertex_labels, c.faces, mates, c.pairings)
    triple = (("A1", 0), *entry) if isinstance(entry, tuple) else entry
    message = (f"involution entry {triple!r} is not a "
               "(slot, mate, aligned) triple")
    with pytest.raises(DomainError, match=re.escape(message)):
        PairedComplex(c.vertex_labels, c.faces, [*c.edges(), triple],
                      c.pairings)


@pytest.mark.parametrize("cycle", [None, -1, 1.0, True])
def test_constructor_refuses_a_face_that_is_not_a_vertex_list(cycle):
    c = build_m24(1)
    message = re.escape(f"face A1 is not a vertex list: {cycle!r}")
    with pytest.raises(DomainError, match=message):
        PairedComplex(c.vertex_labels, {**c.faces, "A1": cycle},
                      c.involution, c.pairings)


@pytest.mark.parametrize("entry", [None, ("a1", "A1"), "a1", "tuple"])
def test_constructor_refuses_a_pairing_entry_that_is_not_a_pairing(entry):
    # a Pairing equals the tuple of its fields, but the tuple is refused
    c = build_m24(1)
    if entry == "tuple":
        entry = tuple(c.pairings[0])
    message = re.escape(f"pairing entry {entry!r} is not a Pairing")
    with pytest.raises(DomainError, match=message):
        PairedComplex(c.vertex_labels, c.faces, c.involution,
                      [entry, *c.pairings[1:]])


@pytest.mark.parametrize("field", ["vertex_labels", "faces", "pairings",
                                   "edge_names", "preferred_tree"])
@pytest.mark.parametrize("value", [5, None, 1.0])
def test_constructor_refuses_an_argument_that_is_not_a_collection(field, value):
    c = build_m24(1)
    args = {"vertex_labels": c.vertex_labels, "faces": c.faces,
            "involution": c.involution, "pairings": c.pairings,
            "edge_names": c.edge_names, "preferred_tree": c.preferred_tree}
    args[field] = value
    message = re.escape(f"{field} argument cannot be read: {value!r}")
    with pytest.raises(DomainError, match=message):
        PairedComplex(**args)


def test_edges_sorts_mixed_index_types_of_an_undeclared_face():
    # the two slots of face G have an int and a str index
    c = build_m24(1)
    extra = (("G", "1"), ("G", 0), True)
    broken = PairedComplex(c.vertex_labels, c.faces, [*c.edges(), extra],
                           c.pairings)
    assert broken.edges() == [*c.edges(), (("G", 0), ("G", "1"), True)]


# ------------------------------------------------ object-level fuzz

# a dict key must be hashable, so involution keys come from the first part
FUZZ_KEYS = ("", "a b", -1, 1.0, True, None, ("Z",), ("A1", 0, 9))
FUZZ_VALUES = FUZZ_KEYS + (("A1", []), [])


def corrupt_argument(c, rng):
    """The constructor arguments of ``c`` with one part replaced by junk: a
    vertex label, a face entry, an involution key, mate or entry, a pairing
    field or entry, an edge_names entry or one part of it, the preferred
    tree or one entry of it, or a whole argument."""
    args = {"vertex_labels": list(c.vertex_labels), "faces": dict(c.faces),
            "involution": dict(c.involution), "pairings": list(c.pairings),
            "edge_names": list(c.edge_names),
            "preferred_tree": list(c.preferred_tree)}
    site = rng.choice(["vertex label", "face entry", "involution key",
                       "involution mate", "involution entry", "pairing field",
                       "pairing entry", "edge_names entry", "preferred_tree",
                       "whole argument"])
    value = rng.choice(FUZZ_KEYS if site == "involution key" else FUZZ_VALUES)
    if site == "edge_names entry":
        i = rng.randrange(len(c.edge_names))
        anchor = list(c.edge_names[i])
        anchor[rng.randrange(len(anchor))] = value
        args["edge_names"][i] = rng.choice((value, tuple(anchor)))
    elif site == "preferred_tree":
        args["preferred_tree"] = rng.choice((value, [value]))
    elif site == "pairing entry":
        # the plain tuple of a Pairing's fields, or a short one, is no Pairing
        i = rng.randrange(len(c.pairings))
        value = rng.choice((value, tuple(c.pairings[i]),
                            tuple(c.pairings[i])[:3]))
        args["pairings"][i] = value
    elif site == "whole argument":
        args[rng.choice(list(args))] = value
    elif site == "vertex label":
        args["vertex_labels"][rng.randrange(len(c.vertex_labels))] = value
    elif site == "face entry":
        label = rng.choice(c.face_order)
        cycle = list(c.faces[label])
        cycle[rng.randrange(len(cycle))] = value
        args["faces"][label] = cycle
    elif site == "pairing field":
        i = rng.randrange(len(c.pairings))
        args["pairings"][i] = c.pairings[i]._replace(
            **{rng.choice(Pairing._fields): value})
    else:
        slot = rng.choice(c.all_slots())
        mate, aligned = args["involution"].pop(slot)
        if site == "involution key":
            args["involution"][value] = (mate, aligned)
        else:
            args["involution"][slot] = (
                (value, aligned) if site == "involution mate" else value)
    return site, value, args


def test_object_level_fuzz_ends_in_a_result_or_a_pairglue_error():
    # every corrupted argument is refused by the constructor, reported by
    # validate, or analysed; no other exception escapes any analysis
    rng = random.Random(7)
    members = [build_m24(1), build_m24(2), build_m25(2), build_m25(3)]
    analyses = (edge_orbits, vertex_orbits, cell_counts,
                presentation_from_pairings, presentation_from_cw,
                lambda c: h1(presentation_from_pairings(c)),
                lambda c: quotient_complex(c, {v: v for v in c.vertex_labels}),
                serialize_complex, PairedComplex.edges)
    outcomes = {"refused": 0, "invalid": 0, "valid": 0}
    for _ in range(6000):
        site, value, args = corrupt_argument(rng.choice(members), rng)
        try:
            broken = PairedComplex(**args)
        except DomainError:
            outcomes["refused"] += 1
            continue
        problems = validate(broken)
        assert all(isinstance(problem, str) for problem in problems)
        outcomes["invalid" if problems else "valid"] += 1
        for analysis in analyses:
            try:
                analysis(broken)
            except PairglueError:
                pass
            except Exception as exc:  # the error contract allows no other
                raise AssertionError(f"{site} {value!r}") from exc
    assert min(outcomes.values()) >= 20, outcomes


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
    _, start, sign, orbit_of = _orbit_data(c)
    with pytest.raises(TypeError):
        start["A1"] = 1
    with pytest.raises(TypeError):
        sign[0] = -sign[0]
    with pytest.raises(TypeError):
        orbit_of[0] = 1


def count_analysis(monkeypatch):
    """Record the complex each analysis body runs on, by body name."""
    calls = {}
    for name in ("_violations", "_traverse_edges"):
        def counted(complex_, *args, _name=name,
                    _body=getattr(complex_core, name)):
            calls.setdefault(_name, []).append(complex_)
            return _body(complex_, *args)
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
    assert calls == {"_violations": [c, d], "_traverse_edges": [c, d]}

    calls.clear()
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, [])
    for _ in range(2):
        assert validate(broken)
        for analysis in (edge_orbits, vertex_orbits, cell_counts,
                         presentation_from_pairings):
            with pytest.raises(StructureError):
                analysis(broken)
    assert calls == {"_violations": [broken]}


# ------------------------------------------ the analysis vs its previous version

def reference_violations(complex_):
    """Reference: the previous ``_violations``, over ``(label, k)`` slots."""
    violations = [] if complex_.faces else ["boundary has no faces"]
    c = complex_
    known_vertices = set(c.vertex_labels)

    for label, cycle in c.faces.items():
        if not cycle:
            violations.append(f"face {label} has no vertices")
        for v in cycle:
            if v not in known_vertices:
                violations.append(f"face {label} references unknown vertex {v}")

    seen_names = set()
    usage = {}
    for pairing in c.pairings:
        if pairing.name in seen_names:
            violations.append(f"duplicate pairing name {pairing.name}")
        seen_names.add(pairing.name)
        missing = [f for f in (pairing.source, pairing.target) if f not in c.faces]
        for f in missing:
            violations.append(f"pairing {pairing.name} references unknown face {f}")
        if missing:
            continue
        if pairing.source == pairing.target:
            violations.append(f"pairing {pairing.name} pairs face "
                              f"{pairing.source} with itself")
        ls, lt = len(c.faces[pairing.source]), len(c.faces[pairing.target])
        if ls != lt:
            violations.append(f"pairing {pairing.name} joins faces of different "
                              f"lengths ({ls} vs {lt})")
        if not _is_int(pairing.offset):
            violations.append(f"pairing {pairing.name} offset "
                              f"{pairing.offset!r} is not an int")
        elif not 0 <= pairing.offset < lt:
            violations.append(f"pairing {pairing.name} offset {pairing.offset} "
                              f"out of range")
        if not _is_int(pairing.direction) or pairing.direction not in (1, -1):
            violations.append(f"pairing {pairing.name} direction must be +1 or -1")
        for f in (pairing.source, pairing.target):
            usage.setdefault(f, []).append(pairing.name)

    for label in c.faces:
        names = usage.get(label, [])
        if not names:
            violations.append(f"unpaired face {label}")
        elif len(names) > 1:
            violations.append(f"face {label} doubly paired ({', '.join(names)})")

    scan = [(label, k) for label in c.face_order
            if all(v in known_vertices for v in c.faces[label])
            for k in range(len(c.faces[label]))]
    slots = set(scan)
    for slot in scan:
        entry = complex_.involution.get(slot)
        if entry is None:
            violations.append(f"involution missing entry for {format_slot(slot)}")
            continue
        mate, aligned = entry
        if mate == slot:
            violations.append(f"involution has a fixed point at {format_slot(slot)}")
            continue
        if mate not in slots:
            violations.append(f"involution at {format_slot(slot)} references "
                              f"unknown slot {format_slot(mate)}")
            continue
        back = complex_.involution.get(mate)
        if back != (slot, aligned):
            violations.append(f"involution not symmetric at {format_slot(slot)}")
            continue
        tail, head = c.slot_endpoints(slot)
        mtail, mhead = c.slot_endpoints(mate)
        expected = (mtail, mhead) if aligned else (mhead, mtail)
        if (tail, head) != expected:
            violations.append(f"involution endpoints mismatch at {format_slot(slot)}")
    for slot in complex_.involution:
        if slot not in slots:
            violations.append(f"involution references unknown slot {format_slot(slot)}")

    if violations:
        return violations

    # Orientation phase: orient every face so that neighbouring faces traverse
    # each shared edge in opposite directions, then require every pairing to
    # reverse that orientation (the glued space is then orientable).  One walk
    # must reach every face, as the boundary is connected.
    orient = {}
    for start in c.face_order:
        if start in orient:
            continue
        if orient:
            violations.append(f"boundary is not connected: face {start} is "
                              f"not reached from face {next(iter(orient))}")
            return violations
        orient[start] = 1
        queue = [start]
        while queue:
            face = queue.pop()
            for k in range(len(c.faces[face])):
                mate, aligned = c.involution[(face, k)]
                needed = -orient[face] if aligned else orient[face]
                if mate[0] not in orient:
                    orient[mate[0]] = needed
                    queue.append(mate[0])
                elif orient[mate[0]] != needed:
                    violations.append("boundary orientation inconsistent near "
                                      f"face {mate[0]}")
                    return violations
    for pairing in c.pairings:
        if pairing.direction * orient[pairing.source] * orient[pairing.target] != -1:
            violations.append(f"pairing {pairing.name} does not reverse orientation")

    return violations


def reference_pairing_by_face(complex_):
    """Reference: the previous ``PairedComplex.pairing_by_face``, each face
    label's first pairing and whether the face is its source."""
    table = {}
    for pairing in complex_.pairings:
        table.setdefault(pairing.source, (pairing, True))
        table.setdefault(pairing.target, (pairing, False))
    return table


def reference_image_directed(pairing, k, sense, length):
    """Reference: the previous ``Pairing.image_directed``, the image of
    source slot ``k`` traversed with ``sense`` (+1 forward)."""
    if pairing.direction == 1:
        return (pairing.offset + k) % length, sense
    return (pairing.offset - k - 1) % length, -sense


def reference_preimage_directed(pairing, k, sense, length):
    """Reference: the previous ``Pairing.preimage_directed``, the directed
    preimage of target slot ``k``."""
    if pairing.direction == 1:
        return (k - pairing.offset) % length, sense
    return (pairing.offset - k - 1) % length, -sense


def reference_traverse_edges(complex_):
    """Reference: the previous ``_traverse_edges``, through closures."""
    c = complex_
    by_face = reference_pairing_by_face(c)

    def pairing_move(slot, sense):
        face, k = slot
        pairing, is_source = by_face[face]
        length = len(c.faces[face])
        if is_source:
            k2, sense2 = reference_image_directed(pairing, k, sense, length)
            return (pairing.target, k2), sense2, (pairing.name, 1)
        k2, sense2 = reference_preimage_directed(pairing, k, sense, length)
        return (pairing.source, k2), sense2, (pairing.name, -1)

    position = {slot: i for i, slot in enumerate(c.all_slots())}

    def edge_of(slot):
        """The slot of the edge through ``slot`` that comes first in scan order."""
        mate = c.involution[slot][0]
        return slot if position[slot] < position[mate] else mate

    orbits = []
    slot_sign = {}
    orbit_index = {}
    for rep in position:
        if rep in slot_sign:
            continue
        index = len(orbits)

        def record(slot, sense):
            mate, aligned = c.involution[slot]
            slot_sign[slot] = sense
            slot_sign[mate] = sense if aligned else -sense
            orbit_index[slot] = index
            orbit_index[mate] = index
            return edge_of(slot)

        members = [record(rep, 1)]
        letters = []
        slot, sense = rep, 1
        while True:
            slot, sense, letter = pairing_move(slot, sense)
            letters.append(letter)
            if slot in slot_sign and orbit_index[slot] == index:
                if edge_of(slot) != members[0]:
                    raise StructureError([f"edge class at {format_slot(rep)} "
                                          "folds onto itself"])
                break
            members.append(record(slot, sense))
            mate, aligned = c.involution[slot]
            slot, sense = mate, sense if aligned else -sense
        members.sort(key=position.__getitem__)
        orbits.append(EdgeOrbit(representative=rep, member_edges=tuple(members),
                                cycle_word=Word(letters)))
    return (tuple(orbits), MappingProxyType(slot_sign),
            MappingProxyType(orbit_index))


def reference_vertex_classes(complex_):
    """Reference: the previous ``_vertex_classes``."""
    c = complex_
    parent = {v: v for v in c.vertex_labels}
    for pairing in c.pairings:
        source = c.faces[pairing.source]
        target = c.faces[pairing.target]
        for j, v in enumerate(source):
            _join(parent, v, target[pairing.vertex_image(j, len(source))])

    # walking the vertices in natural order lists each class, and the
    # classes, by their natural-least member
    classes = {}
    for v in c.vertex_order:
        classes.setdefault(_find(parent, v), []).append(v)
    return tuple(VertexOrbit(representative=members[0],
                             member_vertices=tuple(members))
                 for members in classes.values())


def analysis(violations, traverse, complex_):
    """The violations; for a valid complex, the orbit data and vertex
    classes instead; or the message of the StructureError raised.

    ``violations`` returns the violations and the slot numbering that
    ``traverse`` takes after the complex."""
    try:
        found, numbering = violations(complex_)
        if found:
            return list(found)
        orbits, slot_sign, orbit_index, classes = traverse(complex_, *numbering)
        return orbits, dict(slot_sign), dict(orbit_index), classes
    except StructureError as exc:
        return str(exc)


def traverse_edges_by_slot(complex_, scan, start, face_of, mates, aligned):
    """``_traverse_edges`` with its per-slot tuples keyed by slot, in the
    numbering ``all_slots()`` lists, as the reference returns them; the face
    numbers are the analysis's, not its."""
    orbits, sign, orbit_of, classes = complex_core._traverse_edges(
        complex_, scan, start, mates, aligned)
    slots = complex_.all_slots()
    return orbits, dict(zip(slots, sign)), dict(zip(slots, orbit_of)), classes


def public_analysis(complex_):
    """``analysis`` through the public functions of a fresh copy of the
    complex, with ``_orbit_data`` read last and its numbered tuples keyed by
    the slots of ``all_slots()``, each face's from its first number."""
    c = copy.copy(complex_)
    try:
        found = validate(c)
        if found:
            return found
        orbits, classes = edge_orbits(c), vertex_orbits(c)
        assert cell_counts(c) == (len(classes), len(orbits), len(c.faces) // 2, 1)
        assert is_manifold(c)[1] == len(classes) - len(orbits) + len(c.faces) // 2 - 1
        kept, start, sign, orbit_of = _orbit_data(c)
        assert list(kept) == orbits
        slots = c.all_slots()
        assert [start[face] + k for face, k in slots] == list(range(len(slots)))
        return (kept, dict(zip(slots, sign)), dict(zip(slots, orbit_of)),
                tuple(classes))
    except StructureError as exc:
        return str(exc)


def assert_analysis_matches_reference(complex_):
    expected = analysis(lambda c: (reference_violations(c), ()),
                        lambda c: (*reference_traverse_edges(c),
                                   reference_vertex_classes(c)),
                        complex_)
    assert analysis(complex_core._violations, traverse_edges_by_slot,
                    complex_) == expected
    assert public_analysis(complex_) == expected


def test_analysis_matches_reference_on_families(family):
    for n in range(1, 61):
        assert_analysis_matches_reference(build(family, n))


def mutated_documents(seed, count):
    """Documents of small members with one or two tokens or lines changed."""
    rng = random.Random(seed)
    documents = [serialize_complex(build(family, n)).splitlines()
                 for family, n in (("m24", 1), ("m24", 2), ("m25", 2),
                                   ("m25", 3))]
    pool = sorted({token for lines in documents for line in lines[1:]
                   for token in line.split()} | {"-", "0", "1", "2", "3"})
    for _ in range(count):
        lines = list(rng.choice(documents))
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(1, len(lines))
            tokens = lines[i].split()
            j = rng.randrange(1, len(tokens)) if len(tokens) > 1 else 0
            roll = rng.random()
            if tokens[0] == "pairing" and roll < 0.3:
                # a new sign and offset, with the image list to match
                length = len(tokens) - 5
                sign, offset = rng.choice("+-"), rng.randrange(length)
                step = 1 if sign == "+" else -1
                tokens[4:] = [sign] + [str((offset + step * k) % length)
                                       for k in range(length)]
            elif roll < 0.6:
                tokens[j] = rng.choice(pool)
            elif roll < 0.75:
                k = rng.randrange(len(tokens))
                tokens[j], tokens[k] = tokens[k], tokens[j]
            elif roll < 0.8:
                del tokens[j]
            elif roll < 0.9:
                lines.insert(rng.randrange(1, len(lines) + 1), lines[i])
                continue
            else:
                del lines[i]
                continue
            lines[i] = " ".join(tokens)
        yield "\n".join(lines) + "\n"


def test_analysis_matches_reference_on_mutated_documents():
    outcomes = []
    for text in mutated_documents(seed=16, count=2000):
        try:
            complex_ = parse_complex(text)
        except ParseError:
            continue
        assert_analysis_matches_reference(complex_)
        outcomes.append(bool(validate(complex_)))
    # both kinds occur: complexes that fail validation and ones that pass
    assert outcomes.count(True) > 500 and outcomes.count(False) > 50


def test_routes_on_valid_complexes_that_are_not_manifolds():
    # the pairing route presents pi1 of the glued space minus its vertex
    # classes (the group of the dual 2-complex), the CW route pi1 of the
    # glued space; on the valid non-manifolds among these documents, each
    # with one vertex class, the two H1 have the same torsion and the
    # pairing route's has chi more free generators
    seen = Counter()
    for text in mutated_documents(seed=16, count=2000):
        try:
            complex_ = parse_complex(text)
        except ParseError:
            continue
        if validate(complex_):
            continue
        manifold, chi = is_manifold(complex_)
        if manifold:
            continue
        assert cell_counts(complex_).sigma0 == 1
        pairing = h1(presentation_from_pairings(complex_))
        cw = h1(presentation_from_cw(complex_))
        assert pairing.invariant_factors == cw.invariant_factors
        assert (pairing.rank, cw.rank) == (chi, 0)
        seen[chi, str(pairing), str(cw)] += 1
    assert seen == {(1, "Z3 + Z^1", "Z3"): 6, (2, "Z3 + Z^2", "Z3"): 4,
                    (2, "Z2 + Z^2", "Z2"): 1}


def test_mutated_documents_round_trip():
    parsed = 0
    for text in mutated_documents(seed=16, count=2000):
        try:
            complex_ = parse_complex(text)
        except ParseError:
            continue
        parsed += 1
        again = parse_complex(serialize_complex(complex_))
        assert again.same_structure(complex_), text
    assert parsed > 500
