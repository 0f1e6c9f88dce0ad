"""Information-geometric estimation of quantum channel capacities.

Quantum relative entropy is the Bregman divergence of the negative von
Neumann entropy, so channel capacities become radii of smallest enclosing
information balls. The package provides the numpy divergence kernels,
enclosing-ball solvers, HSW/coherent/private capacity estimators,
superactivation sweeps, zero-error rates via exact independent sets of
confusability graphs, and mu-similar k-median clustering with weak
core-sets.
"""

from .kernels import BACKEND

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "states",
    "channels",
    "infogeo",
    "capacity",
    "superact",
    "zeroerr",
    "cli",
]

from . import capacity, channels, cli, infogeo, states, superact, zeroerr  # noqa: E402
