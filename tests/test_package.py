"""The package's public names: each is listed once, by its own module."""

import sys

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
        "singularity_report", "small_groups", "smith_normal_form",
        "strongly_cyclic", "tietze_eliminate", "validate", "validate_table",
        "verify_automorphism", "vertex_orbits"]


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
