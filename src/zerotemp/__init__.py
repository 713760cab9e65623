"""Zero-temperature asymptotics of Gibbs equilibrium states on shifts of
finite type: pressure-convergence rates via max-plus cost matrices, calibrated
subactions, and ground-state selection for Walters-type potentials.

The package re-exports the ``__all__`` of each of its computing modules."""

from . import asymptotics, aubry, maxplus, spectral, symbolic, walters
from .asymptotics import *  # noqa: F401,F403
from .aubry import *  # noqa: F401,F403
from .maxplus import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .symbolic import *  # noqa: F401,F403
from .walters import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (symbolic, maxplus, spectral, aubry, asymptotics, walters)
    for name in module.__all__
]
