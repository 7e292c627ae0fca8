"""Rotational symmetries, quotient complexes, branching reports."""

import copy
import pickle
import random
import re
from math import gcd, lcm

import pytest

from pairglue import (
    AutomorphismCheck,
    ComplexAutomorphism,
    PairedComplex,
    Pairing,
    build_family,
    build_m24,
    build_m25,
    cell_counts,
    h1,
    is_manifold,
    parse_complex,
    presentation_from_pairings,
    quotient_complex,
    rotation,
    serialize_complex,
    singular_components,
    singularity_report,
    strongly_cyclic,
    validate,
    verify_automorphism,
)
from pairglue import symmetry
from pairglue.complex_core import (
    _find,
    _join,
    _require_valid,
    format_slot,
    natural_key,
)
from pairglue.errors import (
    DomainError,
    StructureError,
    UnsupportedQuotientError,
)
from pairglue.io_cli import main


def shift_map(n, step):
    return {f"{letter}{i}": f"{letter}{(i - 1 + step) % n + 1}"
            for letter in "PQRS" for i in range(1, n + 1)}


# -------------------------------------------------------------- rotation

def test_rotation_orders_step_one():
    # the family label rule read back: X_i goes to X_{i+1}
    for family in ("m24", "m25"):
        for n in (*range(1, 13), 20):
            auto = rotation(family, n)
            assert auto.vertex_map == shift_map(n, 1), (family, n)
            assert auto.order == n


def test_rotation_orders_step_two():
    # X_i goes to X_{i+2}, of order n / gcd(n, 2) = n / 2
    for k in (*range(1, 7), 7, 10):
        for family in ("m25", "m24"):
            auto = rotation(family, 2 * k, step=2)
            assert auto.vertex_map == shift_map(2 * k, 2), (family, 2 * k)
            assert auto.order == k


def test_rotation_step_errors():
    # only the int 1 or 2: True is not step 1, and 2.0 is not step 2
    for step in (3, 0, True, False, 2.0, 1.0, "1"):
        for analysis in (rotation, singularity_report):
            with pytest.raises(DomainError, match="rotation step must be 1 or 2"):
                analysis("m24", 4, step)
    with pytest.raises(DomainError, match="even"):
        rotation("m25", 5, step=2)


def test_rotation_checks_n_before_the_step():
    for n in ("4", 0, 2.0, True):
        for step in (1, 2):
            with pytest.raises(DomainError, match="positive integer"):
                rotation("m25", n, step)


def test_rotation_fixes_lid_faces_setwise():
    auto = rotation("m24", 6)
    assert auto.face_map["D"] == "D"
    assert auto.face_map["Db"] == "Db"
    assert auto.face_map["A2"] == "A3"
    assert auto.face_map["A6"] == "A1"


# ---------------------------------------------------- verify_automorphism

def test_verify_accepts_rotation_map():
    complex_ = build_m24(5)
    check = verify_automorphism(complex_, shift_map(5, 1))
    assert check
    assert check.valid is True
    assert check.order == 5
    assert check.reason == ""


def test_verify_accepts_automorphism_object():
    auto = rotation("m25", 4)
    check = verify_automorphism(auto.domain, auto)
    assert check and check.order == 4


def test_verify_check_is_falsy_on_failure():
    complex_ = build_m24(3)
    bad = shift_map(3, 1)
    # swap the images of P1 and S1: still a permutation, no face matches
    bad["P1"], bad["S1"] = bad["S1"], bad["P1"]
    check = verify_automorphism(complex_, bad)
    assert not check
    assert isinstance(check, AutomorphismCheck)
    assert "no face matches" in check.reason


def test_verify_rejects_non_permutation():
    complex_ = build_m24(2)
    squash = shift_map(2, 1)
    squash["P1"] = "P2"
    squash["Q1"] = "P2"
    check = verify_automorphism(complex_, squash)
    assert not check and "not a permutation" in check.reason


def test_verify_unknown_labels_raise():
    complex_ = build_m24(2)
    with pytest.raises(DomainError, match="labels not in the complex"):
        verify_automorphism(complex_, {"P1": "P9", "P9": "P1"})


def identity_with(**changes):
    """The identity map of m24(2)'s labels, with the images given."""
    return {**{v: v for v in build_m24(2).vertex_labels}, **changes}


@pytest.mark.parametrize("entry", [verify_automorphism, ComplexAutomorphism,
                                   quotient_complex])
@pytest.mark.parametrize("vertex_map, message", [
    (identity_with(P1=["x"]), "vertex map label ['x'] cannot be hashed"),
    (5, "vertex map is not a mapping: 5"),
    ([("P1",)], "vertex map is not a mapping: [('P1',)]"),
    # labels that are not str are unknown, named by repr after the rest
    (identity_with(P1=1), "labels not in the complex: 1"),
    ({**identity_with(P1=1, Q1=("x",)), "P9": "P1"},
     "labels not in the complex: P9 ('x',) 1"),
], ids=["unhashable", "int", "short pair", "int label", "mixed labels"])
def test_vertex_maps_that_are_not_label_maps_raise_domain_error(
        entry, vertex_map, message):
    if "not in the complex" in message and entry is not verify_automorphism:
        # a map onto other hashable labels is no permutation of the labels
        with pytest.raises(StructureError, match="not a permutation"):
            entry(build_m24(2), vertex_map)
        return
    with pytest.raises(DomainError, match=re.escape(message)):
        entry(build_m24(2), vertex_map)


class Payload:
    """Pickles as the constructor call its ``__reduce__`` names."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return (ComplexAutomorphism, self.args)


def test_automorphism_is_verified_when_made():
    auto = rotation("m24", 6)
    # the derived fields, the order among them, cannot be supplied
    with pytest.raises(TypeError):
        ComplexAutomorphism(
            auto.domain, auto.vertex_map, auto.face_map, auto.face_rotation,
            auto.slot_map, auto.pairing_map, 3)
    assert quotient_complex(auto.domain, auto).name == "m24/Z6"
    # an unpickled payload is checked like any other construction
    assert auto.__reduce__() == (ComplexAutomorphism,
                                 (auto.domain, dict(auto.vertex_map)))
    bad = dict(auto.vertex_map)
    bad["P1"], bad["S1"] = bad["S1"], bad["P1"]
    for vertex_map in (bad, {**bad, "P1": "P2"}):
        with pytest.raises(StructureError):
            pickle.loads(pickle.dumps(Payload(auto.domain, vertex_map)))


def test_automorphisms_are_immutable():
    # a changed order would otherwise reach quotient_complex unchecked
    auto = rotation("m24", 4)
    for field in ComplexAutomorphism.__slots__:
        with pytest.raises(AttributeError):
            setattr(auto, field, 7)
        with pytest.raises(AttributeError):
            delattr(auto, field)
    assert quotient_complex(auto.domain, auto).name == "m24/Z4"
    # copies are rebuilt through the constructor
    for twin in (copy.copy(auto), copy.deepcopy(auto),
                 pickle.loads(pickle.dumps(auto))):
        assert type(twin) is ComplexAutomorphism
        for field in ComplexAutomorphism.__slots__[1:]:
            assert getattr(twin, field) == getattr(auto, field), field
        assert twin.domain.same_structure(auto.domain)
        assert quotient_complex(twin.domain, twin).same_structure(
            quotient_complex(auto.domain, auto))


def test_automorphism_maps_are_read_only():
    auto = rotation("m24", 4)
    for field in ("vertex_map", "face_map", "face_rotation", "slot_map",
                  "pairing_map"):
        mapping = getattr(auto, field)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    # the vertex map is a copy: changing the dict given does not reach it
    given = dict(auto.vertex_map)
    twin = ComplexAutomorphism(auto.domain, given)
    given["P1"], given["P2"] = given["P2"], given["P1"]
    assert twin.vertex_map == auto.vertex_map
    assert quotient_complex(twin.domain, twin).name == "m24/Z4"
    copied = pickle.loads(pickle.dumps(auto))
    for field in ComplexAutomorphism.__slots__[1:]:
        assert getattr(copied, field) == getattr(auto, field), field
    assert pickle.loads(pickle.dumps(copied)).vertex_map == auto.vertex_map


def test_labels_on_no_face_count_in_the_order():
    # two labels on no face: swapping them doubles the rotation's order, and
    # a face vertex sent to one of them leaves a face image unmatched
    c = build_m24(3)
    extra = PairedComplex([*c.vertex_labels, "Z", "W"], c.faces,
                          c.involution, c.pairings)
    assert validate(extra) == []
    swap = {**rotation("m24", 3).vertex_map, "Z": "W", "W": "Z"}
    assert verify_automorphism(extra, swap) == (True, 6, "")
    assert quotient_complex(extra, swap).same_structure(PairedComplex(
        [*build_m24(1).vertex_labels, "W"], build_m24(1).faces,
        build_m24(1).involution, build_m24(1).pairings))
    off_face = {**{v: v for v in extra.vertex_labels}, "P1": "Z", "Z": "P1"}
    assert verify_automorphism(extra, off_face) == (
        False, None, "no face matches the image of face A1 under the vertex map")


def hexagonal_bipyramid():
    """Faces F_i = (N, E_i, E_i+1) and G_i = (S, E_i+1, E_i), i = 0..5, with
    E_i labelled a(i mod 3), each F_i paired onto G_i."""
    e = [f"a{i % 3}" for i in range(7)]
    faces = {**{f"F{i}": ("N", e[i], e[i + 1]) for i in range(6)},
             **{f"G{i}": ("S", e[i + 1], e[i]) for i in range(6)}}
    involution = [edge for i in range(6) for edge in (
        ((f"F{i}", 0), (f"F{(i - 1) % 6}", 2), False),
        ((f"F{i}", 1), (f"G{i}", 1), False),
        ((f"G{i}", 0), (f"G{(i + 1) % 6}", 2), False))]
    pairings = [Pairing(f"p{i}", f"F{i}", f"G{i}", 0, -1) for i in range(6)]
    return PairedComplex(["N", "S", "a0", "a1", "a2"], faces, involution,
                         pairings, name="bipyramid")


def test_order_counts_the_face_orbit_beyond_the_vertex_cycles():
    # the vertex map has order 3, but it carries F0 to F1 round all six F
    # faces, so the face-orbit term alone gives the order 6
    c = hexagonal_bipyramid()
    assert validate(c) == []
    auto = ComplexAutomorphism(c, {"N": "N", "S": "S", "a0": "a1",
                                   "a1": "a2", "a2": "a0"})
    assert auto.face_map["F0"] == "F1"
    assert auto.order == 6 == lcm(*map(len, symmetry._cycles(
        auto.slot_map, auto.slot_map)))
    assert quotient_complex(c, auto).name == "bipyramid/Z6"


def test_identity_rotation_has_order_one():
    assert rotation("m24", 1).order == 1
    assert rotation("m25", 1).order == 1


# ------------------------------------------------------- quotient complex

def test_quotient_by_full_rotation_is_smallest_member():
    for family in ("m24", "m25"):
        for n in (2, 3, 5, 8):
            auto = rotation(family, n)
            quotient = quotient_complex(auto.domain, auto)
            assert quotient.same_structure(build_family(family, 1))


def test_quotient_by_step_two_halves_the_parameter():
    for k in (1, 2, 4):
        auto = rotation("m25", 2 * k, step=2)
        quotient = quotient_complex(auto.domain, auto)
        assert quotient.same_structure(build_m25(2))
        auto = rotation("m24", 2 * k, step=2)
        assert quotient_complex(auto.domain, auto).same_structure(build_m24(2))


def test_quotient_by_identity_keeps_structure():
    auto = rotation("m24", 1)
    assert quotient_complex(auto.domain, auto).same_structure(build_m24(1))


def test_quotient_accepts_bare_vertex_map():
    complex_ = build_m25(6)
    quotient = quotient_complex(complex_, shift_map(6, 2))
    assert quotient.same_structure(build_m25(2))


def test_quotient_rebuilds_an_automorphism_of_another_complex():
    # a fresh build is not the rotation's domain, so its vertex map is
    # verified again on the complex given
    auto = rotation("m24", 6, 2)
    quotient = quotient_complex(build_m24(6), auto)
    assert quotient.name == "m24/Z3"
    assert quotient.same_structure(build_m24(2))
    quotient = quotient_complex(build_m25(6), auto)
    assert quotient.name == "m25/Z3"
    assert quotient.same_structure(build_m25(2))
    with pytest.raises(StructureError):
        quotient_complex(build_m24(3), auto)


def test_quotient_base_homology_is_z3():
    for family, n, step in (("m24", 5, 1), ("m25", 5, 1), ("m25", 6, 2)):
        auto = rotation(family, n, step)
        quotient = quotient_complex(auto.domain, auto)
        assert str(h1(presentation_from_pairings(quotient))) == "Z3"


TETRA = """pgv1 complex
name tetra
vertices a b c d
face F1 a c b
face F2 a b d
face T1 a d c
face T2 b c d
pairing p F1 T1 - 0 2 1
pairing q F2 T2 - 1 0 2
"""


def test_a_verified_automorphism_can_have_no_quotient():
    # a half-turn of the tetrahedron that swaps a with b and c with d is an
    # automorphism of this closed manifold, but it reverses edge ab, so its
    # quotient would fold that edge onto itself
    complex_ = parse_complex(TETRA)
    assert validate(complex_) == []
    assert cell_counts(complex_) == (2, 3, 2, 1)
    assert is_manifold(complex_) == (True, 0)
    half_turn = {"a": "b", "b": "a", "c": "d", "d": "c"}
    assert verify_automorphism(complex_, half_turn) == (True, 2, "")
    auto = ComplexAutomorphism(complex_, half_turn)
    message = ("quotient is not a valid paired complex: involution has a "
               "fixed point at F1.2; involution has a fixed point at T1.1")
    for refused in (lambda: quotient_complex(complex_, half_turn),
                    lambda: quotient_complex(complex_, auto),
                    lambda: singular_components(auto, complex_)):
        with pytest.raises(UnsupportedQuotientError) as exc:
            refused()
        assert str(exc.value) == message


# ----------------------------------------------------- singularity report

def test_report_m24_full_rotation():
    report = singularity_report("m24", 5)
    assert report.base_family == "m24"
    assert report.base_n == 1
    assert report.total_space_n == 5
    assert report.covering_degree == 5
    kinds = [c.kind for c in report.components]
    assert kinds == ["collapsed-edge-class", "rotation-axis"]
    assert [c.branching_index for c in report.components] == [5, 5]
    assert report.components[0].downstairs_class == ("A1", 1)
    assert report.components[0].upstairs_orbit_size == 1
    assert strongly_cyclic(report)


def test_report_m25_step_two():
    report = singularity_report("m25", 6, step=2)
    assert report.base_n == 2 and report.covering_degree == 3
    assert len(report.components) == 3
    assert all(c.branching_index == 3 for c in report.components)
    collapsed = [c for c in report.components
                 if c.kind == "collapsed-edge-class"]
    assert {c.downstairs_class for c in collapsed} == {("A1", 2), ("A2", 2)}
    assert strongly_cyclic(report)


def test_report_trivial_cover_has_no_components():
    report = singularity_report("m24", 1)
    assert report.covering_degree == 1
    assert report.components == ()
    assert not strongly_cyclic(report)


def test_report_m25_even_step_one_not_strongly_cyclic():
    # the full rotation swaps the two halves of the split edge class, so
    # that component branches with index n/2 only
    report = singularity_report("m25", 4)
    assert report.covering_degree == 4
    indices = [(c.kind, c.branching_index, c.upstairs_orbit_size)
               for c in report.components]
    assert indices == [("collapsed-edge-class", 2, 2), ("rotation-axis", 4, 1)]
    assert not strongly_cyclic(report)


def test_report_strongly_cyclic_sweep():
    for n in range(2, 13):
        assert strongly_cyclic(singularity_report("m24", n))
    for n in range(3, 13, 2):
        assert strongly_cyclic(singularity_report("m25", n))
    for n in range(4, 13, 2):
        assert strongly_cyclic(singularity_report("m25", n, step=2))
        assert not strongly_cyclic(singularity_report("m25", n))
    # at n = 2 the split classes swap freely, so only the axis branches
    assert strongly_cyclic(singularity_report("m25", 2))


def test_report_checks_quotient_against_base_member():
    for family, n, step in (("m24", 5, 1), ("m25", 6, 2)):
        auto = rotation(family, n, step)
        for wrong in (build_family(family, step + 1),
                      build_family("m25" if family == "m24" else "m24", step)):
            with pytest.raises(UnsupportedQuotientError,
                               match="not have the structure of the base"):
                singular_components(auto, wrong)


@pytest.mark.parametrize("family", ["m24", "m25"])
def test_components_of_parsed_copies_match_the_report(family):
    # a parsed document names no family: the collapsed classes come from its
    # cells under a shift of its vertex labels, the axis from the report
    for n in range(1, 13):
        for step in (1, 2) if n % 2 == 0 else (1,):
            report = singularity_report(family, n, step)
            upstairs, base = (parse_complex(serialize_complex(
                build_family(family, m))) for m in (n, step))
            auto = ComplexAutomorphism(upstairs, shift_map(n, step))
            components = singular_components(auto, base)
            assert components == tuple(
                c for c in report.components
                if c.kind == "collapsed-edge-class"), (family, n, step)
            assert report.components[:len(components)] == components


def test_report_notes_axis_provenance():
    report = singularity_report("m24", 3)
    assert "axis" in report.note


def test_report_projects_through_one_face_transport(monkeypatch):
    # the report quotients by the rotation it analyses, through the public
    # quotient_complex, and projects with that automorphism's own transport
    made, rotations, quotients = [], [], []
    init, rotate, quotient = (ComplexAutomorphism.__init__, symmetry.rotation,
                              symmetry.quotient_complex)

    def counted_init(self, domain, vertex_map):
        made.append(domain)
        init(self, domain, vertex_map)

    def counted_rotation(*args):
        rotations.append(rotate(*args))
        return rotations[-1]

    def counted_quotient(complex_, automorphism):
        quotients.append((complex_, automorphism))
        return quotient(complex_, automorphism)

    monkeypatch.setattr(ComplexAutomorphism, "__init__", counted_init)
    monkeypatch.setattr(symmetry, "rotation", counted_rotation)
    monkeypatch.setattr(symmetry, "quotient_complex", counted_quotient)
    for family, n, step in (("m24", 5, 1), ("m25", 6, 2), ("m24", 1, 1)):
        del made[:], rotations[:], quotients[:]
        singularity_report(family, n, step)
        [auto] = rotations
        assert len(quotients) == 1
        assert quotients[0][0] is auto.domain and quotients[0][1] is auto
        assert made == [auto.domain]


# ------------------------------------- forced propagation vs the old search

def reference_extend_vertex_map(complex_, vertex_map):
    """Reference: the recursive face-assignment search propagation replaced.

    Lists each face's candidates by comparing it with every face, then
    assigns faces in natural order depth first, checking the involution and
    the pairings against the faces assigned so far.
    """
    c = complex_
    _require_valid(c)
    labels = set(c.vertex_labels)
    if set(vertex_map) != labels or set(vertex_map.values()) != labels:
        raise StructureError(
            ["vertex map is not a permutation of the vertex labels"])

    faces_sorted = sorted(c.faces, key=natural_key)
    candidates = {}
    for face in faces_sorted:
        image_cycle = tuple(vertex_map[v] for v in c.faces[face])
        length = len(image_cycle)
        options = []
        for g in faces_sorted:
            cycle = c.faces[g]
            if len(cycle) != length:
                continue
            options.extend(
                (g, r) for r in range(length)
                if all(cycle[(k + r) % length] == image_cycle[k]
                       for k in range(length)))
        if not options:
            raise StructureError(
                [f"no face matches the image of face {face} under the vertex map"])
        candidates[face] = options

    by_face = {}
    for pairing in c.pairings:
        by_face.setdefault(pairing.source, (pairing, True))
        by_face.setdefault(pairing.target, (pairing, False))
    pairing_lookup = {(p.source, p.target): p for p in c.pairings}
    assignment = {}
    used = set()

    def involution_ok(face):
        g, r = assignment[face]
        length = len(c.faces[face])
        for k in range(length):
            (mface, mk), aligned = c.involution[(face, k)]
            if mface not in assignment:
                continue
            mg, mr = assignment[mface]
            image = (g, (k + r) % length)
            expected = ((mg, (mk + mr) % len(c.faces[mface])), aligned)
            if c.involution[image] != expected:
                return False
        return True

    def pairing_ok(face):
        pairing, _ = by_face[face]
        if pairing.source not in assignment or pairing.target not in assignment:
            return True
        gs, rs = assignment[pairing.source]
        gt, rt = assignment[pairing.target]
        image = pairing_lookup.get((gs, gt))
        if image is None or image.direction != pairing.direction:
            return False
        length = len(c.faces[gt])
        return image.offset == (pairing.offset
                                - pairing.direction * rs + rt) % length

    def search(i):
        if i == len(faces_sorted):
            return True
        face = faces_sorted[i]
        for g, r in candidates[face]:
            if g in used:
                continue
            assignment[face] = (g, r)
            used.add(g)
            if involution_ok(face) and pairing_ok(face) and search(i + 1):
                return True
            del assignment[face]
            used.discard(g)
        return False

    if not search(0):
        raise StructureError(
            ["vertex map does not extend to an automorphism of the paired complex"])

    face_map = {f: assignment[f][0] for f in faces_sorted}
    face_rotation = {f: assignment[f][1] for f in faces_sorted}
    slot_map = {}
    for f in faces_sorted:
        g, r = assignment[f]
        length = len(c.faces[f])
        for k in range(length):
            slot_map[(f, k)] = (g, (k + r) % length)
    pairing_map = {p.name: pairing_lookup[(face_map[p.source],
                                           face_map[p.target])].name
                   for p in c.pairings}

    order = lcm(*(len(cycle) for mapping in (vertex_map, slot_map)
                  for cycle in symmetry._cycles(mapping, mapping)))
    return (dict(vertex_map), face_map, face_rotation, slot_map, pairing_map,
            order)


def reference_quotient_complex(complex_, auto):
    """Reference: the per-slot quotient the slot-number one replaced.

    Projects every slot through ``auto.project`` and keys the quotient's
    involution by the projected slot tuples as it goes.
    """
    c = complex_
    transport = auto.face_transport
    project = auto.project

    vrep_of = {v: cycle[0]
               for cycle in symmetry._cycles(auto.vertex_map, c.vertex_order)
               for v in cycle}
    labels_q = [v for v, rep in vrep_of.items() if v == rep]

    faces_q = {f: tuple(vrep_of[v] for v in c.faces[f][:transport[f][2]])
               for f in c.face_order if transport[f][0] == f}

    involution_q = {}
    for slot in c.all_slots():
        mate, aligned = c.involution[slot]
        entry = (project(mate), aligned)
        if involution_q.setdefault(project(slot), entry) != entry:
            raise UnsupportedQuotientError(
                f"edge identifications do not descend at {format_slot(slot)}")

    def descend(p):
        source_rep, source_rot, length_q = transport[p.source]
        target_rep, target_rot, _ = transport[p.target]
        return (source_rep, target_rep,
                (p.offset + p.direction * source_rot - target_rot) % length_q,
                p.direction)

    by_name = {p.name: p for p in c.pairings}
    pairings_q = []
    for names in symmetry._cycles(auto.pairing_map, by_name):
        rep_name = min(names, key=natural_key)
        descended = descend(by_name[names[0]])
        if any(descend(by_name[name]) != descended for name in names):
            raise UnsupportedQuotientError(
                f"pairing orbit of {rep_name} does not descend")
        pairings_q.append(Pairing(rep_name, *descended))

    quotient = PairedComplex(labels_q, faces_q, involution_q, pairings_q,
                             name=f"{c.name}/Z{auto.order}")
    problems = validate(quotient)
    if problems:
        raise UnsupportedQuotientError(
            "quotient is not a valid paired complex: " + "; ".join(problems))
    return quotient


def quotient_fields(quotient, complex_, auto):
    """The fields of a quotient, or the text of its UnsupportedQuotientError."""
    try:
        q = quotient(complex_, auto)
    except UnsupportedQuotientError as exc:
        return str(exc)
    return (q.vertex_labels, dict(q.faces), dict(q.involution), q.pairings,
            q.name)


def extension_outcome(extend, complex_, vertex_map):
    """The fields the extension derives, or the text of its StructureError."""
    try:
        return extend(complex_, vertex_map)
    except StructureError as exc:
        return str(exc)


def automorphism_fields(complex_, vertex_map):
    auto = ComplexAutomorphism(complex_, vertex_map)
    assert auto.domain is complex_
    return (auto.vertex_map, auto.face_map, auto.face_rotation,
            auto.slot_map, auto.pairing_map, auto.order)


def assert_matches_reference(complex_, vertex_map):
    """The extension equals the reference's, and where it extends, so does
    the quotient."""
    outcome = extension_outcome(automorphism_fields, complex_, vertex_map)
    assert outcome == extension_outcome(reference_extend_vertex_map,
                                        complex_, vertex_map)
    if not isinstance(outcome, str):
        auto = ComplexAutomorphism(complex_, vertex_map)
        assert (quotient_fields(quotient_complex, complex_, auto)
                == quotient_fields(reference_quotient_complex, complex_, auto))
    return outcome


def merge_labels(complex_, rng):
    """The same boundary with its vertex labels merged at random into 1-4.

    Merging labels keeps every endpoint check, so the result is valid.  Many
    faces then share a vertex cycle, which gives each face several
    candidates and makes the order among them matter.
    """
    count = rng.randint(1, 4)
    merged = {v: f"v{rng.randrange(count)}" for v in complex_.vertex_labels}
    faces = {f: tuple(merged[v] for v in cycle)
             for f, cycle in complex_.faces.items()}
    return PairedComplex(sorted(set(merged.values())), faces,
                         complex_.involution, complex_.pairings)


def test_extension_matches_reference_on_every_shift():
    for family in ("m24", "m25"):
        for n in range(1, 13):
            complex_ = build_family(family, n)
            for step in range(n):
                outcome = assert_matches_reference(complex_,
                                                   shift_map(n, step))
                assert outcome[-1] == n // gcd(n, step)


def test_extension_matches_reference_on_random_permutations():
    rng = random.Random(0x5B1F7)
    members = [build_family(family, n) for family in ("m24", "m25")
               for n in range(1, 7)]
    outcomes = {}
    for _ in range(1200):
        complex_ = rng.choice(members)
        n = complex_.n
        # the reference backtracks exponentially on merged members from n = 5
        # on whose map does not extend (4.4 s for one of 32 faces)
        kind = rng.choice(("shuffle", "affine", "merged") if n <= 4
                          else ("shuffle", "affine"))
        if kind == "affine":
            # permute the letters and act on indices by i -> +-i + b
            letters = dict(zip("PQRS", rng.sample("PQRS", 4)))
            sign, b = rng.choice((1, -1)), rng.randrange(n)
            vertex_map = {f"{a}{i}": f"{letters[a]}{(sign * (i - 1) + b) % n + 1}"
                          for a in "PQRS" for i in range(1, n + 1)}
        else:
            if kind == "merged":
                complex_ = merge_labels(complex_, rng)
            labels = list(complex_.vertex_labels)
            vertex_map = dict(zip(labels, rng.sample(labels, len(labels))))
        outcome = assert_matches_reference(complex_, vertex_map)
        result = (" ".join(outcome.split()[:4]) if isinstance(outcome, str)
                  else "extends")
        outcomes[result] = outcomes.get(result, 0) + 1
    assert set(outcomes) == {"no face matches the", "vertex map does not",
                             "extends"}


def random_small_complex(rng):
    """A random complex of one to three face pairs, or None if it is invalid.

    Slots are matched at random with random alignments, each class of edge
    endpoints gets a random label among up to three, and each pairing a
    random offset and direction.  Few faces share the same cycle, so the
    least face's first candidate often fails where a later one succeeds.
    """
    lengths = {}
    for i in range(rng.randint(1, 3)):
        lengths[f"F{i}"] = lengths[f"G{i}"] = rng.randint(1, 4)
    slots = [(f, k) for f, length in lengths.items() for k in range(length)]
    rng.shuffle(slots)
    involution = [(slots[j], slots[j + 1], rng.random() < 0.5)
                  for j in range(0, len(slots), 2)]
    parent = {(f, j): (f, j) for f, length in lengths.items()
              for j in range(length)}
    for (f, k), (g, m), aligned in involution:
        mate_ends = [(g, m), (g, (m + 1) % lengths[g])]
        for end, mate_end in zip([(f, k), (f, (k + 1) % lengths[f])],
                                 mate_ends if aligned else mate_ends[::-1]):
            _join(parent, end, mate_end)
    alphabet = "abc"[:rng.randint(1, 3)]
    label = {}
    faces = {f: tuple(label.setdefault(_find(parent, (f, j)),
                                       rng.choice(alphabet))
                      for j in range(length))
             for f, length in lengths.items()}
    pairings = [Pairing(f"p{f[1:]}", f, f"G{f[1:]}",
                        rng.randrange(lengths[f]), rng.choice((1, -1)))
                for f in lengths if f[0] == "F"]
    complex_ = PairedComplex(sorted(set(label.values())), faces, involution,
                             pairings)
    return complex_ if not validate(complex_) else None


def test_extension_matches_reference_on_random_small_complexes():
    rng = random.Random(0xFACE)
    outcomes = set()
    for _ in range(1500):
        complex_ = None
        while complex_ is None:
            complex_ = random_small_complex(rng)
        labels = list(complex_.vertex_labels)
        vertex_map = dict(zip(labels, rng.sample(labels, len(labels))))
        outcome = assert_matches_reference(complex_, vertex_map)
        outcomes.add(" ".join(outcome.split()[:4])
                     if isinstance(outcome, str) else "extends")
    assert outcomes == {"no face matches the", "vertex map does not",
                        "extends"}


def test_rotation_has_no_recursion_limit():
    for family, n in (("m24", 170), ("m24", 1000), ("m25", 1000)):
        assert rotation(family, n).order == n


def test_cli_symmetry_beyond_the_old_recursion_limit(capsys):
    assert main(["symmetry", "--family", "m24", "--n", "170"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "rotation step 1 on m24(170): degree 170 cover of m24(1)",
        "singular components:",
        "  collapsed-edge-class at edge class A1.1: branching index 170",
        "  rotation-axis at axis: branching index 170",
        "strongly cyclic: yes"]
    assert lines[5].startswith("note: ") and len(lines) == 6
