"""Information-geometric estimation of quantum channel capacities.

Quantum relative entropy is the Bregman divergence of the negative von
Neumann entropy, so channel capacities become radii of smallest enclosing
information balls. The package provides the numpy divergence kernels,
enclosing-ball solvers, HSW/coherent/private capacity estimators,
superactivation sweeps, zero-error rates via exact independent sets of
confusability graphs, and mu-similar k-median clustering with weak
core-sets.

``import qgeomcap`` loads only ``kernels`` (for ``BACKEND``). Each
submodule in ``__all__`` is imported on first attribute access (PEP 562),
so ``qgeomcap.capacity`` and ``from qgeomcap import zeroerr`` both work,
and a ``qgeomcap`` process loads only the modules its subcommand runs.
"""

import importlib

from .kernels import BACKEND

__version__ = "0.1.0"

_SUBMODULES = ("states", "channels", "infogeo", "capacity", "superact", "zeroerr", "cli")

__all__ = ["BACKEND", "__version__", *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
