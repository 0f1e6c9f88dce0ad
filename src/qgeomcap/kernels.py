"""The Bloch-space divergence kernels: the one implementation of each qubit
formula, in numpy.

All divergences are in bits. A qubit state with Bloch vector r has
eigenvalues (1 +- |r|)/2, so the entropy term F(r) = Tr(rho log2 rho), the
gradient coefficient |grad F(r)| / |r| and the conjugate F* are closed forms
in the Bloch coordinates. The divergence is scored in natural coordinates
theta = grad F(c), D(p || c) = F(p) + F*(theta) - <p, theta>, where the
pure-state shell lies at |theta| = infinity: the one shell rule is that a
centre with |c| >= 1 scores +inf on every row. F(p) depends on the point
alone, so a caller that scores a fixed point set against many centres
computes it once with neg_entropy and passes it to prepared_divergence,
the one implementation of the divergence; every other Bloch divergence in
the package calls it. natural_parameters gives theta and F*(theta) of many
centres at once.
"""

import math

import numpy as np

BACKEND = "python"  # the provenance name of the one kernel implementation

_EPS_CENTER = 1e-12
_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2


def _neg_entropy(r):
    """Tr(rho log2 rho) for Bloch radius r (elementwise, clamped at purity)."""
    r = np.clip(np.asarray(r, dtype=float), 0.0, 1.0)
    lam_p = (1.0 + r) / 2.0
    lam_m = (1.0 - r) / 2.0
    out = np.zeros_like(r)
    for lam in (lam_p, lam_m):
        mask = lam > 0.0  # 0 log 0 = 0
        out = out + np.where(mask, lam * np.log2(np.where(mask, lam, 1.0)), 0.0)
    return out


def neg_entropy_scalar(r):
    """_neg_entropy of one float radius, on floats (same clamps)."""
    r = min(max(r, 0.0), 1.0)
    out = 0.0
    for lam in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        if lam > 0.0:
            out += lam * math.log2(lam)
    return out


def neg_entropy(points):
    """F(p_i) = Tr(rho_i log2 rho_i) for an (n, 3) array of Bloch points."""
    return _neg_entropy(np.linalg.norm(points, axis=1))


def neg_entropy_star(m):
    """The conjugate F*(theta) = log2(2^m + 2^-m) at |theta| = m, evaluated
    as m + log1p(2^(-2m)) / ln 2 (numpy's logaddexp2), which cannot overflow."""
    return m + math.log1p(2.0 ** (-2.0 * m)) * _LOG2E


def grad_coeff(r):
    """|grad F(r)| / r = atanh(r) / (r ln 2) for a float radius r < 1,
    exact to a few ulp at every r; its limit 1/ln(2) below 1e-12.
    prepared_divergence scores a centre with it, and natural_parameters
    evaluates the same formula on arrays, the one map from centres to theta."""
    if r < _EPS_CENTER:
        return _LOG2E
    return math.atanh(r) / (r * _LN2)


def prepared_divergence(points, neg_ent, center):
    """D(p_i || center) for (n, 3) Bloch points whose F(p_i) is neg_ent.

    neg_ent is neg_entropy(points), computed once for a fixed point set.
    Each row scores F(p_i) + F*(theta) - <p_i, theta> at
    theta = grad F(center); a center with |center| >= 1 gives +inf.
    """
    center = np.asarray(center, dtype=float)
    rc = math.sqrt(float(center @ center))
    if rc >= 1.0:
        return np.full(points.shape[0], np.inf)
    b = grad_coeff(rc)
    # theta = b center, so |theta| = b rc and <p, theta> = b <p, center>
    return neg_ent + neg_entropy_star(b * rc) - b * (points @ center)


def natural_parameters(centers):
    """(theta, f_star) for each row c of an (n, 3) array of centres:
    theta = grad F(c) and F*(theta).

    These are the terms prepared_divergence scores at each centre, in one
    vectorised pass. A row with |c| >= 1 under prepared_divergence's own
    scalar norm (recomputed for the rows within 1e-9 of 1) gets
    f_star = +inf and theta = 0.
    """
    centers = np.asarray(centers, dtype=float)
    rc = np.sqrt(np.einsum("ij,ij->i", centers, centers))
    near = np.flatnonzero(rc > 1.0 - 1e-9)
    rc[near] = [math.sqrt(float(c @ c)) for c in centers[near]]
    shell = rc >= 1.0
    r = np.where(shell, 0.0, rc)
    tiny = r < _EPS_CENTER
    b = np.where(tiny, _LOG2E, np.arctanh(r) / (np.where(tiny, 1.0, r) * _LN2))
    m = b * r
    f_star = np.where(shell, np.inf, m + np.log1p(np.exp2(-2.0 * m)) * _LOG2E)
    theta = np.where(shell[:, None], 0.0, b[:, None] * centers)
    return theta, f_star


def batch_divergence(points, center):
    """D(p_i || center) for an (n, 3) array of Bloch points."""
    points = np.asarray(points, dtype=float)
    return prepared_divergence(points, neg_entropy(points), center)
