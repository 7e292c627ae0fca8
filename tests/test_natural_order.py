"""The natural label order: every result is independent of the order in which
a complex's faces, vertex labels and involution entries were supplied, and
labels whose natural keys tie keep the order they were given in."""

import random

import pytest

from pairglue import (
    PairedComplex,
    Pairing,
    build_family,
    edge_orbits,
    parse_complex,
    presentation_from_cw,
    presentation_from_pairings,
    quotient_complex,
    rotation,
    serialize_complex,
    validate,
    vertex_orbits,
)


def shuffled(c, rng):
    """``c`` with its faces, vertex labels and involution entries supplied in
    a random order; pairings and metadata are kept as they are."""
    def shuffle(items):
        items = list(items)
        rng.shuffle(items)
        return items

    return PairedComplex(shuffle(c.vertex_labels), shuffle(c.faces.items()),
                         dict(shuffle(c.involution.items())), c.pairings,
                         name=c.name, n=c.n, edge_names=c.edge_names,
                         preferred_tree=c.preferred_tree)


def edge_lines(document):
    return [line for line in document.splitlines() if line.startswith("edge ")]


@pytest.mark.parametrize("family", ["m24", "m25"])
def test_results_do_not_depend_on_the_supplied_order(family):
    rng = random.Random(f"natural order {family}")
    for n in range(1, 13):
        c = build_family(family, n)
        twin = shuffled(c, rng)
        assert list(twin.faces) != list(c.faces)
        assert twin.all_slots() == c.all_slots()
        assert edge_orbits(twin) == edge_orbits(c)
        assert vertex_orbits(twin) == vertex_orbits(c)
        assert presentation_from_pairings(twin) == presentation_from_pairings(c)
        assert presentation_from_cw(twin) == presentation_from_cw(c)
        document = serialize_complex(twin)
        assert edge_lines(document) == edge_lines(serialize_complex(c))
        # each edge line names its earlier slot first, in scan order
        position = {f"{face}.{k}": i for i, (face, k) in enumerate(c.all_slots())}
        pairs = [[position[s] for s in line.split()[1:3]]
                 for line in edge_lines(document)]
        assert all(a < b for a, b in pairs)
        assert [a for a, _ in pairs] == sorted(a for a, _ in pairs)

        vertex_map = rotation(family, n).vertex_map
        down, twin_down = (quotient_complex(c, vertex_map),
                           quotient_complex(twin, vertex_map))
        assert twin_down.same_structure(down)
        assert twin_down.vertex_labels == down.vertex_labels
        assert list(twin_down.faces) == list(down.faces)
        assert serialize_complex(twin_down) == serialize_complex(down)


@pytest.mark.parametrize("family", ["m24", "m25"])
def test_violations_do_not_depend_on_the_supplied_order(family):
    c = build_family(family, 3)
    dropped = {("Cb2", 1), ("A1", 0), ("B3", 2)}
    broken = PairedComplex(c.vertex_labels, c.faces,
                           {slot: entry for slot, entry in c.involution.items()
                            if slot not in dropped}, c.pairings)
    problems = validate(broken)
    assert [p for p in problems if "missing" in p] == [
        f"involution missing entry for {slot}" for slot in ("A1.0", "B3.2", "Cb2.1")]
    rng = random.Random(f"violations {family}")
    for _ in range(5):
        assert validate(shuffled(broken, rng)) == problems


def relabelled(c, faces, vertices):
    """``c`` with face and vertex labels renamed by the given mappings."""
    def face(label):
        return faces.get(label, label)

    def slot(s):
        return (face(s[0]), s[1])

    return PairedComplex(
        [vertices.get(v, v) for v in c.vertex_labels],
        {face(label): tuple(vertices.get(v, v) for v in cycle)
         for label, cycle in c.faces.items()},
        {slot(s): (slot(mate), aligned)
         for s, (mate, aligned) in c.involution.items()},
        [Pairing(p.name, face(p.source), face(p.target), p.offset, p.direction)
         for p in c.pairings],
        name=c.name, n=c.n,
        edge_names=[(name, face(f), k, flag) for name, f, k, flag in c.edge_names],
        preferred_tree=c.preferred_tree)


@pytest.mark.parametrize("family", ["m24", "m25"])
def test_tied_labels_keep_the_supplied_order(family):
    # A01 ties with A1 and Ab02 with Ab2; P01 and P001 tie with P1
    c = relabelled(build_family(family, 3), {"B1": "A01", "C2": "Ab02"},
                   {"R1": "P01", "Q1": "P001"})
    assert c.face_order[:2] == ("A1", "A01")
    assert c.face_order.index("Ab2") + 1 == c.face_order.index("Ab02")
    assert c.vertex_order[:3] == ("P1", "P001", "P01")

    scan = c.all_slots()
    assert scan[:6] == [("A1", k) for k in range(3)] + [("A01", k) for k in range(3)]
    for orbit in edge_orbits(c):
        assert orbit.representative == orbit.member_edges[0]
        assert list(orbit.member_edges) == sorted(orbit.member_edges,
                                                  key=scan.index)
    for orbit in vertex_orbits(c):
        assert list(orbit.member_vertices) == sorted(orbit.member_vertices,
                                                     key=c.vertex_order.index)

    document = serialize_complex(c)
    assert parse_complex(document).same_structure(c)
    slots = [line.split()[1:3] for line in edge_lines(document)]
    assert 2 * len(slots) == len({s for pair in slots for s in pair}) == len(scan)

    down = quotient_complex(c, {c.vertex_labels[i]: c.vertex_labels[j]
                                for i, j in enumerate(
                                    [1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9])})
    assert down.vertex_labels == ("P1", "P001", "P01", "S1")
