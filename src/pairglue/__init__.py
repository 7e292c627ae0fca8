"""Face-pairing quotient complexes and their invariants.

The package builds two infinite families of closed orientable 3-manifolds as
face-pairing quotients of a single polyhedron, certifies manifoldness from
the cell census, derives fundamental group presentations along two
independent routes, simplifies them, computes first homology exactly, counts
homomorphisms into small finite groups, and analyses rotation symmetries
together with the singular sets of their quotients.
"""

from .complex_core import (
    CellCounts,
    EdgeOrbit,
    PairedComplex,
    Pairing,
    VertexOrbit,
    cell_counts,
    edge_orbits,
    is_manifold,
    validate,
    vertex_orbits,
)
from .errors import (
    CapacityError,
    DomainError,
    EliminationError,
    PairglueError,
    ParseError,
    StructureError,
    UnsupportedQuotientError,
)
from .families import M24, M25, build_family, build_m24, build_m25
from . import group_theory
from .group_theory import *  # noqa: F403 -- the names in group_theory.__all__
from .io_cli import (
    parse_complex,
    parse_presentation,
    serialize_complex,
    serialize_presentation,
)
from .symmetry import (
    AutomorphismCheck,
    ComplexAutomorphism,
    SingularComponent,
    SingularityReport,
    quotient_complex,
    rotation,
    singularity_report,
    strongly_cyclic,
    verify_automorphism,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CellCounts",
    "AutomorphismCheck",
    "ComplexAutomorphism",
    "DomainError",
    "EdgeOrbit",
    "EliminationError",
    "M24",
    "M25",
    "PairedComplex",
    "Pairing",
    "PairglueError",
    "ParseError",
    "SingularComponent",
    "SingularityReport",
    "StructureError",
    "UnsupportedQuotientError",
    "VertexOrbit",
    "build_family",
    "build_m24",
    "build_m25",
    "cell_counts",
    "edge_orbits",
    "is_manifold",
    "parse_complex",
    "parse_presentation",
    "quotient_complex",
    "rotation",
    "serialize_complex",
    "serialize_presentation",
    "singularity_report",
    "strongly_cyclic",
    "validate",
    "verify_automorphism",
    "vertex_orbits",
    *group_theory.__all__,
    "__version__",
]
