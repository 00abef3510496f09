"""Dirichlet lambda/beta functions, the cosecant-moment integral J(s), and a
machine-checked suite of the identities relating them."""

from . import exact, identities, jfun, linalg, special
from .exact import *  # noqa: F403
from .identities import *  # noqa: F403
from .jfun import *  # noqa: F403
from .linalg import *  # noqa: F403
from .special import *  # noqa: F403

__all__ = [name for module in (exact, special, jfun, identities, linalg) for name in module.__all__]

__version__ = "0.1.0"
