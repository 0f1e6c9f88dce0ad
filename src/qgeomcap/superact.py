"""Superactivation analysis.

Two channels with zero individual quantum capacity can have positive joint
capacity. The reference construction mixes a channel of positive private
capacity (selected with probability p_C, flagged by |0><0|) with a 50%
erasure channel (flagged by |1><1|); its joint single-use capacity is half
the first channel's private information, and the superball radius follows
r_super = p_C^2 r_HH + 2 p_C (1 - p_C) r_H2 with r_HH = 0.

The activation window (0, 0.0041) and the inside-window radius 0.01 bits
are external data of the reference model, not computed from the underlying
four-dimensional channel; the sweep engine is generic over any model
supplying these numbers, and a user with an explicit channel can plug it in
as a custom Kraus spec.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import states


@dataclass
class ReferenceModel:
    """Declared data of the reference superactivation pair."""

    P1_horodecki: float = 0.02
    activation_window: tuple = (0.0, 0.0041)

    @property
    def r_H2_inside(self):
        """Inside-window pairwise radius, the joint capacity P1/2."""
        return superactivation_value(self.P1_horodecki)


@dataclass
class SweepResult:
    """Rows of (p_C, r_H2, r_super), each a tuple of floats."""

    rows: list

    def to_csv(self):
        """A header and one line per row, values to 12 significant digits,
        with CRLF line ends."""
        lines = [f"{p:.12g},{rh:.12g},{rs:.12g}" for p, rh, rs in self.rows]
        return "\r\n".join(["p_C,r_H2,r_super", *lines, ""])


def superactivation_value(P1):
    """Joint single-use quantum capacity P1/2 of (private-capacity-P1
    channel) tensored with a 50% erasure channel.

    For a degradable first channel this lower bound is the exact asymptotic
    value.
    """
    P1 = float(P1)
    if P1 < 0:
        raise ValueError("private capacity must be nonnegative")
    return 0.5 * P1


def r_h2(p_C, model):
    """Inside-window pairwise radius: model.r_H2_inside on the open
    activation window, zero elsewhere. Elementwise on an array of p_C."""
    lo, hi = model.activation_window
    p = np.asarray(p_C, dtype=float)
    rh = np.where((lo < p) & (p < hi), model.r_H2_inside, 0.0)
    return rh if rh.ndim else float(rh)


def joint_radius(p_C, model=None):
    """(r_H2, r_super) of the joint construction that selects the first
    channel with probability p_C: floats for a number, arrays for an array.

    r_super = 2 p_C (1 - p_C) r_H2; the like-branch term p_C^2 r_HH
    vanishes because the first channel alone has zero quantum capacity.
    """
    if model is None:
        model = ReferenceModel()
    p = np.asarray(p_C, dtype=float)
    rh = r_h2(p, model)
    rs = 2.0 * p * (1.0 - p) * rh
    return (rh, rs) if p.ndim else (rh, float(rs))


def sweep(grid, model=None):
    """SweepResult over an iterable of p_C values (sorted ascending)."""
    if model is None:
        model = ReferenceModel()
    grid = np.sort(np.asarray(list(grid), dtype=float))
    if grid.size == 0:
        raise ValueError("empty sweep grid")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("sweep grid must lie in [0, 1]")
    rh, rs = joint_radius(grid, model)
    return SweepResult(rows=list(zip(grid.tolist(), rh.tolist(), rs.tolist())))


def decomposition_check(rho1, rho2, sigma1=None, sigma2=None):
    """(lhs, rhs) of the product decomposition of relative entropy.

    With four states, lhs = D(rho1 x rho2 || sigma1 x sigma2) and
    rhs = D(rho1||sigma1) + D(rho2||sigma2); these agree for any product
    inputs. Called with two states, decomposition_check(rho_12, sigma_12),
    the first is a joint state and the second its reference: lhs is the
    joint divergence and rhs the sum over the reduced (marginal) states,
    which exhibits the gap for entangled inputs.
    """
    if sigma1 is None and sigma2 is None:
        rho12 = np.asarray(rho1, dtype=complex)
        sigma12 = np.asarray(rho2, dtype=complex)
        d = int(round(np.sqrt(rho12.shape[0])))
        lhs = states.relative_entropy(rho12, sigma12)
        r1 = states.partial_trace(rho12, "A", (d, d))
        r2 = states.partial_trace(rho12, "B", (d, d))
        s1 = states.partial_trace(sigma12, "A", (d, d))
        s2 = states.partial_trace(sigma12, "B", (d, d))
        rhs = states.relative_entropy(r1, s1) + states.relative_entropy(r2, s2)
        return lhs, rhs
    lhs = states.relative_entropy(states.tensor(rho1, rho2),
                                  states.tensor(sigma1, sigma2))
    rhs = states.relative_entropy(rho1, sigma1) + states.relative_entropy(rho2, sigma2)
    return lhs, rhs


def parse_model_file(text):
    """ReferenceModel from a flat key/value document with keys
    P1_horodecki, window_lo, window_hi; a missing key keeps its default.

    Raises ValueError naming the line or the key for a line without "=",
    an unknown key, a value that is not a finite real, P1 < 0, or a window
    outside 0 <= lo < hi <= 1.
    """
    vals = {"P1_horodecki": 0.02, "window_lo": 0.0, "window_hi": 0.0041}
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, v = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"model line {num}: expected key = value, got {line!r}")
        if key not in vals:
            raise ValueError(f"model line {num}: unknown key {key!r}")
        try:
            x = float(v)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ValueError(f"model line {num}: {key} must be a finite real, got {v!r}")
        vals[key] = x
    p1, lo, hi = vals["P1_horodecki"], vals["window_lo"], vals["window_hi"]
    if p1 < 0.0:
        raise ValueError(f"P1_horodecki must be nonnegative, got {p1!r}")
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"window_lo = {lo!r}, window_hi = {hi!r}: need 0 <= lo < hi <= 1")
    return ReferenceModel(P1_horodecki=p1, activation_window=(lo, hi))
