"""Rotational symmetries, quotient complexes, branching reports."""

import pytest

from pairglue import (
    AutomorphismCheck,
    build_family,
    build_m24,
    build_m25,
    h1,
    presentation_from_pairings,
    quotient_complex,
    rotation,
    singularity_report,
    strongly_cyclic,
    verify_automorphism,
)
from pairglue import symmetry
from pairglue.errors import (
    DomainError,
    StructureError,
    UnsupportedQuotientError,
)


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
    with pytest.raises(DomainError, match="rotation step must be 1 or 2"):
        rotation("m24", 4, step=3)
    with pytest.raises(DomainError, match="even"):
        rotation("m25", 5, step=2)


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


def test_verify_declared_order_mismatch():
    from pairglue import ComplexAutomorphism
    auto = rotation("m24", 6)
    imposter = ComplexAutomorphism(
        auto.domain, auto.vertex_map, auto.face_map, auto.face_rotation,
        auto.slot_map, auto.pairing_map, 3)
    check = verify_automorphism(auto.domain, imposter)
    assert not check
    assert check.order == 6
    assert "declared order 3" in check.reason


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
