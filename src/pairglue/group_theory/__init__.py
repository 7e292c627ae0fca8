"""Group-theoretic layer: words, presentations, homology, homomorphism counts."""

# each module lists its public names once, in its own __all__
from . import homcount, homology, presentations, words
from .homcount import *  # noqa: F403
from .homology import *  # noqa: F403
from .presentations import *  # noqa: F403
from .words import *  # noqa: F403

__all__ = [*words.__all__, *presentations.__all__, *homology.__all__,
           *homcount.__all__]
