"""The package's public names: each is listed once, by its own module."""

import subprocess
import sys
from pathlib import Path

import pytest

import pairglue
from pairglue import complex_core, errors, families, group_theory, io_cli, symmetry
from pairglue.group_theory import homcount, homology, presentations, words

MODULES = (complex_core, errors, families, group_theory, io_cli, symmetry)
GROUP_THEORY_MODULES = (homcount, homology, presentations, words)


def test_public_names_are_pinned():
    assert sorted(pairglue.__all__) == [
        "AbelianGroup", "AutomorphismCheck", "CapacityError", "CellCounts",
        "ComplexAutomorphism", "DomainError", "EdgeOrbit", "EliminationError",
        "IntegerMatrix", "M24", "M25", "PairedComplex", "PairglueError",
        "Pairing", "ParseError", "Presentation", "SingularComponent",
        "SingularityReport", "StructureError", "UnsupportedQuotientError",
        "VertexOrbit", "Word", "__version__", "abelianization_matrix",
        "auto_simplify", "build_family", "build_m24", "build_m25",
        "cell_counts", "count_homomorphisms", "cyclic_normal_form",
        "cyclic_reduce", "edge_orbits", "family_elimination_order",
        "free_reduce", "h1", "is_manifold", "parse_complex",
        "parse_presentation", "presentation_from_cw",
        "presentation_from_pairings", "preset_presentation",
        "quotient_complex", "reduced_family_presentation", "rotation",
        "scripted_reduction", "serialize_complex", "serialize_presentation",
        "singular_components", "singularity_report", "small_groups",
        "smith_normal_form", "strongly_cyclic", "tietze_eliminate",
        "validate", "validate_table", "verify_automorphism", "vertex_orbits"]


def test_each_public_name_is_its_defining_modules_object():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(pairglue.__all__) - {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            value = getattr(pairglue, name)
            assert value is getattr(module, name), name
            home = getattr(value, "__module__", None)
            if home is not None and home.startswith("pairglue."):
                assert getattr(sys.modules[home], name) is value, name


def test_each_group_theory_name_is_listed_by_one_submodule():
    for name in group_theory.__all__:
        homes = [module for module in GROUP_THEORY_MODULES
                 if name in module.__all__]
        assert len(homes) == 1, name
        assert getattr(group_theory, name) is getattr(homes[0], name), name


def public_instances():
    """One instance of each public class that is not an exception."""
    member = pairglue.build_m24(2)
    report = pairglue.singularity_report("m24", 2, 1)
    return {
        "AbelianGroup": pairglue.AbelianGroup(0, (3,)),
        "AutomorphismCheck": pairglue.verify_automorphism(
            member, pairglue.rotation("m24", 2)),
        "CellCounts": pairglue.cell_counts(member),
        "ComplexAutomorphism": pairglue.rotation("m24", 2),
        "EdgeOrbit": pairglue.edge_orbits(member)[0],
        "IntegerMatrix": pairglue.IntegerMatrix([[1]]),
        "PairedComplex": member,
        "Pairing": member.pairings[0],
        "Presentation": pairglue.presentation_from_pairings(member),
        "SingularComponent": report.components[0],
        "SingularityReport": report,
        "VertexOrbit": pairglue.vertex_orbits(member)[0],
        "Word": pairglue.Word.parse("a b"),
    }


def test_every_public_value_type_refuses_attribute_assignment():
    instances = public_instances()
    classes = {name for name in pairglue.__all__
               if isinstance(getattr(pairglue, name), type)
               and not issubclass(getattr(pairglue, name), BaseException)}
    assert set(instances) == classes
    for name, value in instances.items():
        assert type(value) is getattr(pairglue, name)
        # a slot or field the instance has, and a name it lacks
        attribute = (value._fields[0] if isinstance(value, tuple)
                     else type(value).__slots__[0])
        for target in (attribute, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, target, None)
        with pytest.raises(AttributeError):
            delattr(value, attribute)


def test_summary_reprs_name_the_object_and_its_size():
    # the value types that do not print their fields print a summary
    assert repr(pairglue.build_m24(2)) == (
        "<PairedComplex 'm24': 8 vertices, 14 faces, 7 pairings>")
    assert repr(pairglue.rotation("m25", 4, 2)) == (
        "<ComplexAutomorphism of 'm25' order 2>")
    relators = [pairglue.Word.parse("a b -a"), pairglue.Word.parse("b b")]
    assert repr(pairglue.Presentation(["a", "b"], relators)) == (
        "<Presentation <a b | a b -a, b b>>")
    assert repr(pairglue.Presentation([], [])) == "<Presentation < | >>"


def test_abelian_group_replace_runs_the_checks():
    group = pairglue.AbelianGroup(0, (3,))
    assert group._replace(rank=2) == pairglue.AbelianGroup(2, (3,))
    for change in ({"rank": -1}, {"invariant_factors": (3, 4)},
                   {"invariant_factors": (1.0,)}):
        with pytest.raises(pairglue.DomainError):
            group._replace(**change)


def test_import_pairglue_leaves_the_cli_and_traceback_imports_out():
    # argparse, traceback and heapq are imported where they are used
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import pairglue; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(Path(__file__).parent.parent / "src")],
        check=True, capture_output=True, text=True)
    new = set(done.stdout.split())
    assert "pairglue" in new
    assert new.isdisjoint({"argparse", "traceback", "heapq"}), new
