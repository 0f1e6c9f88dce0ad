"""Reference answers and answer checks for the benchmark workloads.

Every check returns a ``Verdict``. ``fail`` names why the operation
failed (it feeds the result line's ``failed``); ``wrong`` marks a failure
whose answer is incorrect, which clears the run's ``correct`` flag.
``miss`` names an answer that is correct but short of the precision target:
HSW values miss at 1e-6 bits (the certified-gap target) and fail as wrong
beyond 1e-3 bits (the acceptance-suite tolerance). Misses count in the
report's fail_frac and failure list, not in ``failed``.

The references avoid the code under test where they can: the
Bloch divergence, channel outputs, confusability adjacency and the
independent-set size are computed here with numpy and scipy.optimize.milp.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

HSW_TARGET_TOL = 1e-6
HSW_WRONG_TOL = 1e-3
BRACKET_TOL = 1e-3
RADIUS_RTOL = 1e-7
MATCH_TOL = 1e-9
ADJACENCY_TOL = 1e-9


@dataclass
class Verdict:
    fail: str = None
    wrong: bool = False
    miss: str = None
    unconverged: bool = False
    witness_gap: float = None


def failed(reason, wrong=True, **extra):
    return Verdict(fail=reason, wrong=wrong, **extra)


# ---------------------------------------------------------------------------
# qubit geometry


def bloch_divergence(points, center):
    """D(p_i || c) in bits for Bloch points (n, 3) and an interior centre."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.asarray(center, dtype=float)
    rc = float(np.linalg.norm(c))
    if rc >= 1.0:
        return np.full(len(points), np.inf)
    r = np.minimum(np.linalg.norm(points, axis=1), 1.0)
    neg_s = np.zeros(len(points))
    for lam in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        pos = lam > 0.0
        neg_s[pos] += lam[pos] * np.log2(lam[pos])
    iso = 0.5 * np.log2((1.0 - rc * rc) / 4.0)
    if rc < 1e-12:
        return neg_s - iso - (points @ c) / math.log(2.0)
    slope = 0.5 * np.log2((1.0 + rc) / (1.0 - rc)) / rc
    return neg_s - iso - slope * (points @ c)


def kraus_outputs(kraus, rhos):
    """N(rho_i) for every input, straight from the Kraus operators."""
    k = np.asarray(kraus, dtype=complex)
    r = np.asarray(rhos, dtype=complex)
    return np.einsum("kab,ibc,kdc->iad", k, r, k.conj())


def affine_map(kraus):
    """(A, b) of a qubit channel r -> A r + b, from the Kraus operators."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

    def bloch(rho):
        return np.real(np.einsum("pab,ba->p", paulis, rho))

    inputs = [np.eye(2) / 2.0] + [(np.eye(2) + s) / 2.0 for s in paulis]
    outs = kraus_outputs(kraus, inputs)
    b = bloch(outs[0])
    return np.column_stack([bloch(o) - b for o in outs[1:]]), b


def unital_reference(kraus):
    """1 - H((1 + s_max) / 2) for a unital qubit channel."""
    a, b = affine_map(kraus)
    if np.linalg.norm(b) > 1e-9:
        raise ValueError("closed form requires a unital channel")
    s = min(float(np.linalg.svd(a, compute_uv=False)[0]), 1.0)
    q = (1.0 + s) / 2.0
    return float(1.0 + sum(x * np.log2(x) for x in (q, 1.0 - q) if x > 0.0))


def amplitude_damping_reference(kraus, relative_entropy_bloch):
    """HSW capacity of a z-symmetric channel by a 1-D minimax over centres.

    The output ellipsoid is symmetric about the z axis, so the optimal
    centre lies on it and the farthest output is the image of a pure input
    in the x-z plane. The inner maximum is a 1-degree grid refined by a
    bounded scalar search; the outer minimum over the convex map
    z -> max divergence is a bounded Brent search.
    """
    from scipy.optimize import minimize_scalar

    a, b = affine_map(kraus)
    thetas = np.linspace(0.0, np.pi, 181)

    def out(theta):
        return a @ np.array([np.sin(theta), 0.0, np.cos(theta)]) + b

    def worst(z):
        c = np.array([0.0, 0.0, z])
        vals = [relative_entropy_bloch(out(t), c) for t in thetas]
        best = max(vals)
        for i in np.argsort(vals)[-2:]:
            lo = thetas[max(i - 1, 0)]
            hi = thetas[min(i + 1, len(thetas) - 1)]
            res = minimize_scalar(lambda t: -relative_entropy_bloch(out(t), c),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            best = max(best, -float(res.fun))
        return best

    zs = [float(out(t)[2]) for t in thetas]
    lo, hi = max(min(zs), -1.0 + 1e-9), min(max(zs), 1.0 - 1e-9)
    res = minimize_scalar(worst, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-11})
    return float(res.fun)


# ---------------------------------------------------------------------------
# HSW capacity


def check_hsw(value, converged, ensemble, reference, holevo):
    """Value against the reference; witness gap against its own ensemble.

    holevo(ensemble) recomputes chi of the reported ensemble. A gap between
    value and chi is recorded, not failed: the reported ensemble is a known
    weak witness.
    """
    if not np.isfinite(value):
        return failed(f"non-finite value {value}")
    try:
        chi = float(holevo(ensemble))
    except ValueError as exc:
        return failed(f"invalid ensemble: {exc}")
    gap = float(value) - chi
    err = abs(float(value) - reference)
    verdict = Verdict(unconverged=not converged, witness_gap=gap)
    if err > HSW_WRONG_TOL:
        return failed(f"value off by {err:.3g} bits (tol {HSW_WRONG_TOL:g})",
                      unconverged=not converged, witness_gap=gap)
    if err > HSW_TARGET_TOL:
        verdict.miss = f"value off by {err:.3g} bits (target {HSW_TARGET_TOL:g})"
    return verdict


# ---------------------------------------------------------------------------
# enclosing information balls


def enclosure_radius(points, radii, center):
    return float(np.max(bloch_divergence(points, center) + radii))


def check_radius(points, radii, center, radius):
    """The reported radius must equal max_i D(p_i || c) + r_i at its centre."""
    rec = enclosure_radius(points, radii, center)
    if not np.isfinite(radius) or abs(rec - radius) > RADIUS_RTOL * max(1.0, abs(rec)):
        return f"radius {radius!r} but centre encloses at {rec!r}"
    return None


def check_basic(points, radii, eps, ball, ref=None, improved_final=None):
    """seb_basic: radius recomputes; (1 + eps) guarantee against ref, or
    for large n the improved bracket [r_lo, (1 + eps)(r_lo + delta)]."""
    why = check_radius(points, radii, ball.center, ball.radius)
    if why:
        return failed(why)
    if ref is not None and ball.radius > (1.0 + eps) * ref + MATCH_TOL:
        return failed(f"basic radius {ball.radius:.6g} > (1+eps) * oracle {ref:.6g}")
    if improved_final is not None:
        r_lo, delta = improved_final
        if not r_lo - BRACKET_TOL <= ball.radius <= (1.0 + eps) * (r_lo + delta) + BRACKET_TOL:
            return failed(f"basic radius {ball.radius:.6g} outside improved "
                          f"bracket [{r_lo:.6g}, (1+eps)*{r_lo + delta:.6g}]")
    return Verdict()


def check_improved(points, radii, ball, ref=None):
    """seb_improved: radius recomputes; every bracket holds ref within 1e-3."""
    why = check_radius(points, radii, ball.center, ball.radius)
    if why:
        return failed(why)
    if not ball.history:
        return failed("no bracket history")
    for r_lo, delta in ball.history:
        if not (np.isfinite(r_lo) and np.isfinite(delta) and delta >= 0.0):
            return failed(f"malformed bracket ({r_lo}, {delta})")
        if ref is not None and not r_lo - BRACKET_TOL <= ref <= r_lo + delta + BRACKET_TOL:
            return failed(f"bracket [{r_lo:.6g}, {r_lo + delta:.6g}] misses oracle {ref:.6g}")
    return Verdict()


def check_oracle(points, radii, center, radius, ref):
    why = check_radius(points, radii, center, radius)
    if why:
        return failed(why)
    if abs(radius - ref) > MATCH_TOL:
        return failed(f"oracle radius {radius!r} differs from reference {ref!r}")
    return Verdict()


# ---------------------------------------------------------------------------
# zero-error graphs


def overlap_table(kraus, inputs):
    outs = kraus_outputs(kraus, inputs)
    return np.real(np.einsum("iab,jba->ij", outs, outs))


def adjacency(table, n_uses, tol=ADJACENCY_TOL):
    """n-use confusability adjacency: thresholded Kronecker power."""
    prod = np.ones((1, 1))
    for _ in range(n_uses):
        prod = np.kron(prod, table)
    adj = prod > tol
    np.fill_diagonal(adj, False)
    return adj


def mis_size(adj, time_limit=60.0):
    """Independence number by an untimed MILP: max sum x, x_a + x_b <= 1."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n = adj.shape[0]
    a, b = np.nonzero(np.triu(adj, 1))
    constraints = []
    if len(a):
        rows = np.repeat(np.arange(len(a)), 2)
        cols = np.column_stack([a, b]).ravel()
        mat = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(a), n))
        constraints = [LinearConstraint(mat, -np.inf, 1.0)]
    res = milp(-np.ones(n), constraints=constraints, integrality=np.ones(n),
               bounds=Bounds(0.0, 1.0), options={"time_limit": time_limit})
    if res.status != 0:
        raise RuntimeError(f"reference MILP did not finish: {res.message}")
    return int(round(-res.fun))


def check_witness(adj, witness):
    """None when witness is a set of distinct, pairwise non-adjacent vertices."""
    w = list(witness)
    if len(set(w)) != len(w):
        return "witness repeats a vertex"
    if any(not 0 <= v < adj.shape[0] for v in w):
        return "witness vertex out of range"
    sub = adj[np.ix_(w, w)]
    if sub.any():
        i, j = np.argwhere(sub)[0]
        return f"witness vertices {w[i]} and {w[j]} are confusable"
    return None


def check_mis(adj, n_uses, k, rate, witness, k_ref):
    if k != k_ref:
        return failed(f"K = {k}, reference independence number {k_ref}")
    if len(witness) != k:
        return failed(f"witness has {len(witness)} vertices, K = {k}")
    why = check_witness(adj, witness)
    if why:
        return failed(why)
    expect = math.log2(k) / n_uses if k >= 1 else 0.0
    if not abs(rate - expect) <= 1e-12:
        return failed(f"rate {rate!r} != log2(K)/n = {expect!r}")
    return Verdict()


def check_build(adj, vertices, edges, edge_set=None):
    n_edges = int(np.triu(adj, 1).sum())
    if vertices != adj.shape[0] or edges != n_edges:
        return failed(f"graph {vertices} vertices / {edges} edges, reference "
                      f"{adj.shape[0]} / {n_edges}")
    if edge_set is not None:
        a, b = np.nonzero(np.triu(adj, 1))
        if set(zip(a.tolist(), b.tolist())) != set(edge_set):
            return failed("edge set differs from the reference adjacency")
    return Verdict()


# ---------------------------------------------------------------------------
# command-line reports


def _no_constant(name):
    raise ValueError(f"report contains {name}")


def load_report(path):
    """Parsed JSON report; raises ValueError on invalid JSON or NaN/Infinity."""
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_no_constant)


def pairs_to_matrix(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_sweep_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("p_C"):
                continue
            rows.append(tuple(float(v) for v in line.strip().split(",")))
    return rows


def check_sweep_rows(rows, ref_rows):
    if len(rows) != len(ref_rows):
        return failed(f"{len(rows)} sweep rows, expected {len(ref_rows)}")
    for got, want in zip(rows, ref_rows):
        want = tuple(float(f"{v:.12g}") for v in want)
        if got != want:
            return failed(f"sweep row {got} != {want}")
    return Verdict()
