"""The Bloch-space divergence kernels: the one implementation of each qubit
formula, in numpy.

All divergences are in bits. A qubit state with Bloch vector r has
eigenvalues (1 +- |r|)/2, so the entropy term F(r) = Tr(rho log2 rho), the
gradient coefficient |grad F(r)| / |r| and the divergence are closed forms
in the Bloch coordinates. In the Bregman form
D(p || c) = F(p) - a(c) - b(c)/|c| <p, c> the term F(p) depends on the
point alone, so a caller that scores a fixed point set against many centers
computes it once with neg_entropy and passes it to prepared_divergence.
prepared_divergence is the one implementation of the divergence and of
its singular-centre rule; every other Bloch divergence in the package
calls it.
"""

import math

import numpy as np

BACKEND = "python"  # the provenance name of the one kernel implementation

_EPS_PURE = 1e-12
_EPS_CENTER = 1e-12
_SINGULAR_CENTER = 1.0 - 1e-9
_LN2 = math.log(2.0)


def _neg_entropy(r):
    """Tr(rho log2 rho) for Bloch radius r (elementwise, clamped at purity)."""
    r = np.clip(np.asarray(r, dtype=float), 0.0, 1.0)
    lam_p = (1.0 + r) / 2.0
    lam_m = (1.0 - r) / 2.0
    out = np.zeros_like(r)
    for lam in (lam_p, lam_m):
        mask = lam > _EPS_PURE
        out = out + np.where(mask, lam * np.log2(np.where(mask, lam, 1.0)), 0.0)
    return out


def neg_entropy_scalar(r):
    """_neg_entropy of one float radius, on floats (same clamps)."""
    r = min(max(r, 0.0), 1.0)
    out = 0.0
    for lam in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        if lam > _EPS_PURE:
            out += lam * math.log2(lam)
    return out


def neg_entropy(points):
    """F(p_i) = Tr(rho_i log2 rho_i) for an (n, 3) array of Bloch points."""
    return _neg_entropy(np.linalg.norm(points, axis=1))


def grad_coeff(r):
    """|grad F(r)| / r = atanh(r) / (r ln 2) for a float radius r < 1,
    exact to a few ulp at every r; its limit 1/ln(2) below 1e-12."""
    if r < _EPS_CENTER:
        return 1.0 / _LN2
    return math.atanh(r) / (r * _LN2)


def _center_coeffs(rc):
    """(a, b/rc) terms of log2(sigma) for a center of Bloch radius rc.

    a is the isotropic coefficient 0.5*log2((1-rc^2)/4); b/rc is grad_coeff.
    """
    rc = float(rc)
    return 0.5 * math.log2((1.0 - rc * rc) / 4.0), grad_coeff(rc)


def prepared_divergence(points, neg_ent, center):
    """D(p_i || center) for (n, 3) Bloch points whose F(p_i) is neg_ent.

    neg_ent is neg_entropy(points), computed once for a fixed point set.
    A center at or beyond the singular shell gives +inf, or 0 for a point
    that coincides with it.
    """
    center = np.asarray(center, dtype=float)
    rc = math.sqrt(float(center @ center))
    if rc >= _SINGULAR_CENTER:
        out = np.full(points.shape[0], np.inf)
        out[np.linalg.norm(points - center, axis=1) <= 1e-9] = 0.0
        return out
    a, b_over_r = _center_coeffs(rc)
    return neg_ent - a - b_over_r * (points @ center)


def batch_divergence(points, center):
    """D(p_i || center) for an (n, 3) array of Bloch points."""
    points = np.asarray(points, dtype=float)
    return prepared_divergence(points, neg_entropy(points), center)
