"""Density-matrix arithmetic, entropies and quantum relative entropy.

States are plain complex numpy arrays; operations assume valid states
unless noted, and ``check_bloch`` is the one rule for Bloch vectors. All
entropic quantities are in bits (base-2 logs).
"""

import numpy as np

from . import kernels

EIG_FLOOR = 1e-14
SUPPORT_TOL = 1e-12
# Bloch vectors may overshoot the unit sphere by this much
BLOCH_RADIUS_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pure_state(ket):
    """|psi><psi| from a (normalized) state vector."""
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def check_bloch(r):
    """r as a float array of Bloch vectors (..., 3).

    Raises ValueError when a vector lies outside the unit ball,
    |r| > 1 + BLOCH_RADIUS_TOL, or holds NaN (|r| = nan); for a stack the
    message names the first such row.
    """
    r = np.asarray(r, dtype=float)
    norms = np.hypot.reduce(r, axis=-1)
    bad = np.flatnonzero(~(norms <= 1.0 + BLOCH_RADIUS_TOL))
    if bad.size:
        i = int(bad[0])
        row = f"row {i}: " if r.ndim > 1 else ""
        raise ValueError(f"{row}Bloch point outside the unit ball, |r| = {norms.flat[i]:.6g}")
    return r


def bloch_to_density(r):
    """Qubit state (I + r . sigma)/2 from a Bloch vector, or a stack of
    them from a stack (..., 3), filled into one C-ordered array."""
    r = check_bloch(r)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    rho = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = 1 + z
    rho[..., 0, 1] = x - 1j * y
    rho[..., 1, 0] = x + 1j * y
    rho[..., 1, 1] = 1 - z
    return np.multiply(0.5, rho, out=rho)


def density_to_bloch(rho):
    """Bloch vector (x, y, z) of a qubit density matrix, or a stack of them
    from a stack (..., 2, 2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("density_to_bloch requires a qubit (2x2) state")
    x = np.real(rho[..., 0, 1] + rho[..., 1, 0])
    y = np.real(1j * (rho[..., 0, 1] - rho[..., 1, 0]))
    z = np.real(rho[..., 0, 0] - rho[..., 1, 1])
    return np.stack([x, y, z], axis=-1)


def _clamped_eigh(rho):
    evals, evecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return np.clip(evals, 0.0, 1.0), evecs


def von_neumann_entropy(rho):
    """S(rho) = -sum lambda_i log2 lambda_i, with 0 log 0 := 0.

    A stack (..., d, d) gives an array of entropies from one eigh call.
    """
    evals, _ = _clamped_eigh(rho)
    # eigenvalues below the floor count as 0 and contribute 1 log 1 = 0
    evals = np.where(evals > EIG_FLOOR, evals, 1.0)
    s = -(evals * np.log2(evals)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def binary_entropy(p):
    """H(p) in bits for p in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    return -kernels.neg_entropy_scalar(abs(2.0 * p - 1.0))


def relative_entropy(rho, sigma):
    """D(rho || sigma) = Tr[rho (log2 rho - log2 sigma)], bits.

    Returns +inf when the support of rho is not contained in the support of
    sigma; an eigenvalue of sigma below the floor counts as outside the
    support (the divergence is semantic, not numerical noise).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    evs, vs = _clamped_eigh(sigma)
    # support check: weight of rho on the kernel of sigma
    kernel = evs <= EIG_FLOOR
    if kernel.any():
        vk = vs[:, kernel]
        weight = float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, rho, vk)))
        if weight > SUPPORT_TOL:
            return np.inf
    log_sigma = (vs * np.log2(np.maximum(evs, EIG_FLOOR))) @ vs.conj().T
    term_cross = float(np.real(np.trace(rho @ log_sigma)))
    return -von_neumann_entropy(rho) - term_cross


def relative_entropy_bloch(r_rho, r_sigma):
    """Closed-form qubit relative entropy on Bloch vectors, bits.

    A pure sigma (|r_sigma| >= 1) gives +inf, whatever rho is: the kernels'
    one shell rule. relative_entropy applies the support rule instead, which
    gives D(rho || sigma) = 0 for rho = sigma pure.
    """
    r_rho, r_sigma = check_bloch(r_rho), check_bloch(r_sigma)
    return float(kernels.batch_divergence(np.atleast_2d(r_rho), r_sigma)[0])


def tensor(rho_a, rho_b):
    """Kronecker product of two states."""
    return np.kron(np.asarray(rho_a, dtype=complex), np.asarray(rho_b, dtype=complex))


def partial_trace(rho_ab, keep, dims):
    """Reduced state of a bipartite system.

    keep: "A" (trace out B) or "B" (trace out A); dims: (dim_A, dim_B).
    """
    da, db = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho_ab.shape} inconsistent with dims {dims}")
    t = rho_ab.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise ValueError("keep must be 'A' or 'B'")


def holevo_quantity(ensemble):
    """chi = S(sum p_i rho_i) - sum p_i S(rho_i), bits, of an ensemble
    [(p_i, rho_i), ...]; raises ValueError unless the p_i sum to 1."""
    probs, rhos = zip(*ensemble)
    probs = np.array(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    rhos = np.array(rhos, dtype=complex)
    avg = (probs[:, None, None] * rhos).sum(axis=0)
    return von_neumann_entropy(avg) - float((probs * von_neumann_entropy(rhos)).sum())
