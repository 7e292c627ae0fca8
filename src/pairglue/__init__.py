"""Face-pairing quotient complexes and their invariants.

The package builds two infinite families of closed orientable 3-manifolds as
face-pairing quotients of a single polyhedron, certifies manifoldness from
the cell census, derives fundamental group presentations along two
independent routes, simplifies them, computes first homology exactly, counts
homomorphisms into small finite groups, and analyses rotation symmetries
together with the singular sets of their quotients.
"""

# each module lists its public names once, in its own __all__
from . import complex_core, errors, families, group_theory, io_cli, symmetry
from .complex_core import *  # noqa: F403
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .group_theory import *  # noqa: F403
from .io_cli import *  # noqa: F403
from .symmetry import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*complex_core.__all__, *errors.__all__, *families.__all__,
           *group_theory.__all__, *io_cli.__all__, *symmetry.__all__,
           "__version__"]
