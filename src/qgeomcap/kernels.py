"""Backend selection for the Bloch divergence kernels.

Prefers the compiled Cython extension; falls back to the vectorized numpy
implementation when the extension was not built. Both expose the same
functions: bloch_relative_entropy and batch_divergence.

neg_entropy and prepared_divergence, which score a fixed point set against
many centers from its entropies computed once, and neg_entropy_scalar, the
entropy term of one radius on Python floats, exist only in the numpy
implementation and are used with either backend.
"""

from ._kernels_py import neg_entropy, neg_entropy_scalar, prepared_divergence

try:
    from . import _kernels_cy as _impl

    BACKEND = "cython"
except ImportError:  # extension not built; pure-python fallback
    from . import _kernels_py as _impl

    BACKEND = "python"

bloch_relative_entropy = _impl.bloch_relative_entropy
batch_divergence = _impl.batch_divergence

__all__ = ["BACKEND", "bloch_relative_entropy", "batch_divergence", "neg_entropy",
           "neg_entropy_scalar", "prepared_divergence"]
