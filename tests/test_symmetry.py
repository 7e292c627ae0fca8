"""Rotational symmetries, quotient complexes, branching reports."""

import copy
import pickle
import random
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
    h1,
    presentation_from_pairings,
    quotient_complex,
    rotation,
    singularity_report,
    strongly_cyclic,
    validate,
    verify_automorphism,
)
from pairglue import symmetry
from pairglue.complex_core import _find, _join, _require_valid, natural_key
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
    for family in ("m24", "m25"):
        for n in (1, 2, 5, 12, 20):
            assert rotation(family, n).order == n


def test_rotation_orders_step_two():
    for k in (1, 2, 7, 10):
        assert rotation("m25", 2 * k, step=2).order == k
        assert rotation("m24", 2 * k, step=2).order == k


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


def test_report_checks_quotient_against_base_member(monkeypatch):
    def wrong_base(family, n):
        return build_family(family, n + 1 if n <= 2 else n)

    monkeypatch.setattr(symmetry, "build_family", wrong_base)
    for family, n, step in (("m24", 5, 1), ("m25", 6, 2)):
        with pytest.raises(UnsupportedQuotientError, match="is not"):
            singularity_report(family, n, step)


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

    by_face = c.pairing_by_face()
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
    outcome = extension_outcome(automorphism_fields, complex_, vertex_map)
    assert outcome == extension_outcome(reference_extend_vertex_map,
                                        complex_, vertex_map)
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
