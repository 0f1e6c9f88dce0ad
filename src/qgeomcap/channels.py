"""Quantum channel models: Kraus sets, affine Bloch maps, complementary
channels and parallel composition.

A channel is a ``KrausChannel`` (CPTP map given by its Kraus operators).
Qubit channels additionally admit a geometric description as an affine map
r -> A r + b on Bloch vectors (``BlochAffineMap``). Named models are built
from a ``ChannelSpec``, which also supports externally declared capacities
for channels whose Kraus form is not available.
"""

import ast
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import ResourceCapError

COMPLETENESS_TOL = 1e-10
# largest in_dim or out_dim a ChannelSpec may declare
MAX_SPEC_DIM = 1024
# bytes of the largest stack of complex states that apply, the confusability
# graph build and the command line's input reader may form
MAX_STACK_BYTES = 1 << 28
# bytes of the Kraus products that apply holds at once
_APPLY_CHUNK_BYTES = 1 << 22

_PAULI = {
    "x": states.PAULI_X,
    "y": states.PAULI_Y,
    "z": states.PAULI_Z,
}

KNOWN_KINDS = (
    "identity",
    "bit_flip",
    "phase_flip",
    "bit_phase_flip",
    "depolarizing",
    "amplitude_damping",
    "dephasing",
    "erasure",
    "declared_capacity",
    "custom_kraus",
)

@dataclass
class KrausChannel:
    """CPTP map rho -> sum_i K_i rho K_i^dag.

    kraus holds the K_i stacked as one complex array of shape
    (k, out_dim, in_dim); any sequence of (out_dim, in_dim) matrices is
    accepted.
    """

    kraus: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape}, expected "
                    f"({self.out_dim}, {self.in_dim})"
                )
        self.kraus = np.array(ops, dtype=complex).reshape(-1, self.out_dim, self.in_dim)
        # sum_k K_k^dag K_k as one matmul of the stacked Kraus rows
        flat = self.kraus.reshape(-1, self.in_dim)
        comp = flat.conj().T @ flat
        if np.abs(comp - np.eye(self.in_dim)).max() > COMPLETENESS_TOL:
            raise ValueError("Kraus completeness sum K^dag K = I violated")


@dataclass
class BlochAffineMap:
    """Qubit channel as r -> A r + b on Bloch vectors; called on a stack
    (..., 3) it maps each row."""

    A: np.ndarray
    b: np.ndarray

    def __call__(self, r):
        return np.asarray(r, dtype=float) @ self.A.T + self.b


@dataclass
class ChannelSpec:
    """Declarative channel description.

    kind names a model from the zoo; params carries its reals (usually a
    single probability p). custom_kraus supplies explicit operators;
    declared_capacity wraps externally known scalar capacities for channels
    whose map is not modeled.
    """

    kind: str
    params: dict = field(default_factory=dict)
    kraus: list = None
    in_dim: int = None
    out_dim: int = None
    private_capacity_bits: float = None
    activation_window: tuple = None

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        for key in ("in_dim", "out_dim"):
            d = getattr(self, key)
            if d is not None and (isinstance(d, bool) or not isinstance(d, numbers.Integral)
                                  or not 1 <= d <= MAX_SPEC_DIM):
                raise ValueError(f"{key} must be an integer in [1, {MAX_SPEC_DIM}], got {d!r}")
        if self.private_capacity_bits is not None:
            self.private_capacity_bits = _real("private_capacity_bits", self.private_capacity_bits)
        w = self.activation_window
        if w is not None:
            if not (isinstance(w, (list, tuple)) and len(w) == 2):
                raise ValueError(f"activation_window must be a pair [lo, hi], got {w!r}")
            self.activation_window = tuple(_real("activation_window", v) for v in w)


def _real(key, value):
    """value as a float; ValueError naming key unless it is a finite real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite real number, got {value!r}")
    return float(value)


def _p(spec, default=None):
    p = spec.params.get("p", default)
    if p is None:
        raise ValueError(f"channel kind {spec.kind!r} requires parameter p")
    p = _real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"parameter p={p} outside [0, 1]")
    return p


def _pauli_mix(p, axis):
    return [
        np.sqrt(1.0 - p) * np.eye(2, dtype=complex),
        np.sqrt(p) * _PAULI[axis],
    ]


def build_channel(spec):
    """KrausChannel for a ChannelSpec; raises ValueError on bad input."""
    kind = spec.kind
    if kind == "identity":
        d = spec.in_dim or 2
        return KrausChannel([np.eye(d, dtype=complex)], d, d)
    if kind == "bit_flip":
        return KrausChannel(_pauli_mix(_p(spec), "x"), 2, 2)
    if kind == "phase_flip":
        return KrausChannel(_pauli_mix(_p(spec), "z"), 2, 2)
    if kind == "bit_phase_flip":
        return KrausChannel(_pauli_mix(_p(spec), "y"), 2, 2)
    if kind == "depolarizing":
        p = _p(spec)
        ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)]
        ops += [np.sqrt(p / 4.0) * _PAULI[ax] for ax in ("x", "y", "z")]
        return KrausChannel(ops, 2, 2)
    if kind == "amplitude_damping":
        p = _p(spec)
        a1 = np.array([[np.sqrt(p), 0.0], [0.0, 1.0]], dtype=complex)
        a2 = np.array([[0.0, 0.0], [np.sqrt(1.0 - p), 0.0]], dtype=complex)
        return KrausChannel([a1, a2], 2, 2)
    if kind == "dephasing":
        p = _p(spec)
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(p)]], dtype=complex)
        return KrausChannel([k0, k1], 2, 2)
    if kind == "erasure":
        p = _p(spec)
        embed = np.zeros((3, 2), dtype=complex)
        embed[0, 0] = 1.0
        embed[1, 1] = 1.0
        k0 = np.sqrt(1.0 - p) * embed
        k1 = np.zeros((3, 2), dtype=complex)
        k1[2, 0] = np.sqrt(p)
        k2 = np.zeros((3, 2), dtype=complex)
        k2[2, 1] = np.sqrt(p)
        return KrausChannel([k0, k1, k2], 2, 3)
    if kind == "custom_kraus":
        if not spec.kraus:
            raise ValueError("custom_kraus requires explicit Kraus operators")
        out_dim, in_dim = np.shape(spec.kraus[0])
        return KrausChannel(spec.kraus, in_dim, out_dim)
    if kind == "declared_capacity":
        raise ValueError(
            "declared_capacity carries scalar capacities only; "
            "it has no Kraus realization to build"
        )
    raise ValueError(f"unknown channel kind {kind!r}")


def check_stack_bytes(count, dim, what):
    """Raise ResourceCapError naming what when count complex dim x dim
    states would take more than MAX_STACK_BYTES."""
    nbytes = 16 * count * dim * dim
    if nbytes > MAX_STACK_BYTES:
        raise ResourceCapError(f"{what}: {count} states of dimension {dim} take {nbytes} "
                               f"bytes, more than the cap of {MAX_STACK_BYTES}")


def apply(ch, rho):
    """N(rho) = sum_i K_i rho K_i^dag, for one state or a stack (..., d, d).

    A stack is mapped a chunk of states at a time, so that the Kraus
    products held at once take about _APPLY_CHUNK_BYTES whatever the stack
    size; each state's output is the same bit for bit. An output stack over
    MAX_STACK_BYTES raises ResourceCapError before anything is formed.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.in_dim, ch.in_dim):
        raise ValueError(
            f"state dim {rho.shape[-1]} does not match channel input {ch.in_dim}"
        )
    lead, d_in, d_out = rho.shape[:-2], ch.in_dim, ch.out_dim
    check_stack_bytes(math.prod(lead), d_out, "channel outputs")
    k = ch.kraus
    k_dag = k.conj().transpose(0, 2, 1)
    flat = rho.reshape(-1, d_in, d_in)
    out = np.empty((len(flat), d_out, d_out), dtype=complex)
    chunk = max(1, _APPLY_CHUNK_BYTES // (16 * len(k) * d_out * (d_in + d_out)))
    for start in range(0, len(flat), chunk):
        out[start:start + chunk] = (k @ flat[start:start + chunk, None] @ k_dag).sum(axis=-3)
    return out.reshape(lead + (d_out, d_out))


def complementary_channel(ch):
    """Channel from input to environment of the isometric extension.

    With Kraus operators K_i the environment state has matrix elements
    E(rho)_ij = Tr(K_i rho K_j^dag); the returned channel has one output
    dimension per Kraus operator, and its m-th Kraus operator stacks the
    m-th rows of the K_i.
    """
    return KrausChannel(ch.kraus.transpose(1, 0, 2), ch.in_dim, len(ch.kraus))


def isometric_extension(ch):
    """Isometry U = sum_i K_i (x) |i>_E, shape (out_dim * k, in_dim).

    Reference construction used for cross-checking entropies: the joint
    output U rho U^dag reduces to N(rho) on the system and to the
    complementary output on the environment.
    """
    return ch.kraus.transpose(1, 0, 2).reshape(-1, ch.in_dim)


def kraus_to_affine(ch):
    """BlochAffineMap of a qubit channel (2 -> 2 only)."""
    if ch.in_dim != 2 or ch.out_dim != 2:
        raise ValueError("affine Bloch form requires a qubit-to-qubit channel")
    # outputs of the centre and of the three axis points of the Bloch ball
    outs = states.density_to_bloch(apply(ch, states.bloch_to_density(np.eye(4, 3, -1))))
    return BlochAffineMap(np.ascontiguousarray((outs[1:] - outs[0]).T), outs[0])


def cp_check_eta(eta):
    """Complete positivity of a diagonal unital qubit map diag(eta).

    The map r -> diag(eta) r is CP iff |eta_x +- eta_y| <= |1 +- eta_z|.
    """
    ex, ey, ez = (float(v) for v in eta)
    return abs(ex + ey) <= abs(1.0 + ez) + 1e-12 and abs(ex - ey) <= abs(1.0 - ez) + 1e-12


def tensor_channels(ch1, ch2):
    """Parallel composition N1 (x) N2 with pairwise Kronecker Kraus."""
    ops = np.einsum("iac,jbd->ijabcd", ch1.kraus, ch2.kraus)
    in_dim, out_dim = ch1.in_dim * ch2.in_dim, ch1.out_dim * ch2.out_dim
    return KrausChannel(ops.reshape(-1, out_dim, in_dim), in_dim, out_dim)


def _complex_matrix(nested):
    """Matrix from nested [re, im] pairs of finite reals."""
    try:
        arr = np.asarray(nested, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not an array of reals
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2 or not np.isfinite(arr).all():
        raise ValueError("kraus: complex matrices are nested [re, im] pairs of finite reals")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def parse_channel_spec(text):
    """ChannelSpec from a flat key=value document.

    One assignment per line; values are Python literals, e.g.::

        kind = "depolarizing"
        p = 0.25

    custom_kraus supplies kraus as nested [re, im] arrays;
    declared_capacity supplies private_capacity_bits and
    activation_window = [lo, hi].
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            fields[key] = ast.literal_eval(val.strip())
        # TypeError: an unhashable set or dict key; MemoryError: nesting too deep
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            raise ValueError(f"line {lineno}: cannot parse value for {key}: "
                             f"{val.strip()!r}") from None
    if "kind" not in fields:
        raise ValueError("channel spec missing required key 'kind'")
    kind = fields.pop("kind")
    kraus = fields.pop("kraus", None)
    if kraus is not None:
        if not isinstance(kraus, (list, tuple)):
            raise ValueError(f"kraus must be a list of matrices, got {kraus!r}")
        kraus = [_complex_matrix(k) for k in kraus]
    return ChannelSpec(
        kind=kind,
        kraus=kraus,
        in_dim=fields.pop("in_dim", None),
        out_dim=fields.pop("out_dim", None),
        private_capacity_bits=fields.pop("private_capacity_bits", None),
        activation_window=fields.pop("activation_window", None),
        params=fields,
    )


def matrix_to_pairs(m):
    """Inverse of the [re, im] encoding, for report serialization."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]
