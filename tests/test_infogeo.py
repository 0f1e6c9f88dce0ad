import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm, logm

from qgeomcap import infogeo, kernels, states, zeroerr
from qgeomcap.errors import ResourceCapError
from qgeomcap.infogeo import Generator, WeightedPointSet

from conftest import random_bloch

BLOCH = Generator("neg_von_neumann")
EUCL = Generator("squared_euclidean")
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _meets(lower, upper, res):
    """Whether [lower, upper] and minimax_ball's bracket res share a point,
    to MINIMAX_GAP_TOL * max(1, upper): both hold the optimal radius."""
    tol = infogeo.MINIMAX_GAP_TOL * max(1.0, upper)
    return max(lower, res.lower) - min(upper, res.upper) <= tol


def _farthest(g, points, radii, center):
    """(index, value) of max_i D(p_i || center) + r_i by batch_div, ties to
    the lowest index; a value below 0 from rounding reads 0, as the solvers
    report it."""
    vals = g.batch_div(points, center) + radii
    idx = int(np.argmax(vals))
    return idx, max(float(vals[idx]), 0.0)


def _grid_enclosure(g, points, radii, centers):
    """max_i D(p_i || c) + r_i for every row c of centers, from the closed
    forms written out here: the test-side reference for the solvers."""
    if g is EUCL:
        d = centers[:, None, :] - points[None, :, :]
        return ((d * d).sum(axis=2) + radii).max(axis=1)
    lam = np.clip(0.5 + 0.5 * np.outer([1.0, -1.0], np.linalg.norm(points, axis=1)), 0.0, 1.0)
    neg_s = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0).sum(axis=0)
    rc = np.linalg.norm(centers, axis=1)
    iso = 0.5 * np.log2((1.0 - rc * rc) / 4.0)
    slope = np.where(rc > 1e-12, np.arctanh(rc) / (np.log(2.0) * np.maximum(rc, 1e-12)),
                     1.0 / np.log(2.0))
    cross = centers @ points.T
    return (neg_s + radii - slope[:, None] * cross).max(axis=1) - iso


def _grid_minimax(g, pset, resolution=61, refinements=2):
    """Grid upper bound on min_c max_i D(p_i || c) + r_i: scan a cubic grid
    over the open Bloch ball (or the points' padded bounding box), then
    refine twice around the best centre. Returns (center, radius)."""
    pts, rad = pset.points, pset.radii
    dim = pts.shape[1]
    if g is BLOCH:
        lo, hi = np.full(dim, -1.0), np.full(dim, 1.0)
    else:
        span = np.maximum(pts.max(axis=0) - pts.min(axis=0), 1e-12)
        lo, hi = pts.min(axis=0) - 0.05 * span, pts.max(axis=0) + 0.05 * span
    best_c, best_v = None, np.inf
    for _ in range(refinements + 1):
        axes = [np.linspace(lo[k], hi[k], resolution) for k in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        if g is BLOCH:
            mesh = mesh[np.linalg.norm(mesh, axis=1) < 1.0 - 1e-9]
        vals = np.concatenate([_grid_enclosure(g, pts, rad, mesh[k:k + 8192])
                               for k in range(0, len(mesh), 8192)])
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_c, best_v = mesh[j].copy(), float(vals[j])
        step = (hi - lo) / (resolution - 1)
        lo, hi = best_c - step, best_c + step
        if g is BLOCH:
            lo, hi = np.clip(lo, -1.0, 1.0), np.clip(hi, -1.0, 1.0)
    return best_c, best_v


def _theta(g, x):
    """theta = grad F(x) of one point, from natural."""
    return g.natural(np.atleast_2d(x))[0][0]


def _dual_value(g, pset, w):
    """sum_i w_i (F(p_i) + r_i) - F(sum_i w_i p_i), recomputed point by point."""
    head = sum(wi * (g.F(p) + r) for wi, p, r in zip(w, pset.points, pset.radii))
    return head - g.F(w @ pset.points)


def test_generator_constructor_dispatches_on_the_name():
    assert isinstance(BLOCH, Generator) and isinstance(EUCL, Generator)
    assert type(BLOCH) is infogeo.NegVonNeumann and type(EUCL) is infogeo.SquaredEuclidean
    with pytest.raises(ValueError, match="unknown generator 'x'"):
        Generator("x")


def test_minimax_ball_evaluates_point_entropies_once(monkeypatch, rng):
    calls = []
    plain = kernels.neg_entropy

    def counted(points):
        calls.append(len(points))
        return plain(points)

    monkeypatch.setattr(kernels, "neg_entropy", counted)
    pset = _cloud(rng, "radii")
    infogeo.minimax_ball(BLOCH, pset)
    assert calls == [len(pset)]


def test_gradient_inverse(rng):
    for _ in range(50):
        r = random_bloch(rng)
        assert np.allclose(BLOCH.grad_inv(_theta(BLOCH, r)), r, atol=1e-12)
    for _ in range(10):
        x = rng.normal(size=4)
        assert np.allclose(EUCL.grad_inv(_theta(EUCL, x)), x, atol=1e-12)


def test_divergence_matches_relative_entropy(rng):
    for _ in range(50):
        r1, r2 = random_bloch(rng), random_bloch(rng)
        assert abs(BLOCH.div(r1, r2) - states.relative_entropy_bloch(r1, r2)) < 1e-12


def test_euclidean_divergence():
    assert EUCL.div([0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_geodesic_matches_matrix_exponential_path(rng):
    # the straight theta-line seb_basic walks equals matrix log/exp
    # interpolation with trace renormalization
    for _ in range(20):
        c, s = random_bloch(rng), random_bloch(rng)
        t = rng.uniform(0.0, 1.0)
        theta = BLOCH.natural(np.array([c, s]))[0]
        mid = BLOCH.grad_inv((1.0 - t) * theta[0] + t * theta[1])
        lc = logm(states.bloch_to_density(c))
        ls = logm(states.bloch_to_density(s))
        m = expm((1.0 - t) * lc + t * ls)
        m = m / np.trace(m).real
        assert np.allclose(mid, states.density_to_bloch(m), atol=1e-9)


def test_conjugate_and_its_hessian(rng):
    for g, draw in ((BLOCH, lambda: random_bloch(rng, 0.999)), (EUCL, lambda: rng.normal(size=3))):
        for _ in range(20):
            x = draw()
            theta = _theta(g, x)
            # Fenchel-Young equality at theta = grad F(x)
            assert g.F_star(theta) == pytest.approx(float(x @ theta) - g.F(x), abs=1e-12)
            h = 1e-6
            jac = np.column_stack([(g.grad_inv(theta + h * e) - g.grad_inv(theta - h * e)) / (2 * h)
                                   for e in np.eye(3)])
            np.testing.assert_allclose(g.hess_star(theta), jac, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(BLOCH.hess_star(np.zeros(3)), np.log(2.0) * np.eye(3))
    assert BLOCH.F_star(np.zeros(3)) == 1.0
    assert np.isfinite(BLOCH.F_star(np.array([2000.0, 0.0, 0.0])))


def _cloud(rng, kind, n=10):
    if kind == "near_pure":
        d = rng.normal(size=(n, 3))
        return WeightedPointSet(points=d * (rng.uniform(0.9, 0.99, n) / np.linalg.norm(d, axis=1))[:, None])
    pts = np.array([random_bloch(rng, 0.9) for _ in range(n)])
    if kind == "radii":
        return WeightedPointSet(points=pts, radii=rng.uniform(0.0, 0.05, n))
    return WeightedPointSet(points=pts)


@pytest.mark.parametrize("kind", ["uniform", "near_pure", "radii"])
def test_minimax_ball_is_certified(rng, kind):
    for _ in range(3):
        pset = _cloud(rng, kind)
        res = infogeo.minimax_ball(BLOCH, pset)
        assert 0.0 <= res.gap <= infogeo.MINIMAX_GAP_TOL
        assert res.weights.min() >= 0.0 and res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.lower == pytest.approx(_dual_value(BLOCH, pset, res.weights), abs=1e-12)
        # the radius is the enclosure its centre actually reaches
        enclosure = float((BLOCH.batch_div(pset.points, res.center) + pset.radii).max())
        assert res.upper == enclosure
        _, grid = _grid_minimax(BLOCH, pset)
        assert res.upper <= grid + 1e-12
        center, radius = infogeo.minimax_center_oracle(BLOCH, pset)
        assert np.array_equal(center, res.center) and radius == res.upper


def _two_point_minimax(g, p, q, rp, rq):
    """min over c of max(D(p||c) + rp, D(q||c) + rq), by bisection on the
    mixture segment: the minimiser of (1 - t) D(p||c) + t D(q||c) is the
    mixture (1 - t) p + t q (Banerjee et al. 2005), so by minimax duality
    the optimum lies on it, where D(p||c) rises and D(q||c) falls."""
    def terms(t):
        c = (1.0 - t) * p + t * q
        return g.div(p, c) + rp, g.div(q, c) + rq

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        a, b = terms(mid)
        lo, hi = (mid, hi) if a < b else (lo, mid)
    return max(terms(hi))


def test_minimax_ball_two_points(rng):
    for _ in range(10):
        p, q = random_bloch(rng, 0.99), random_bloch(rng, 0.99)
        rp, rq = rng.uniform(0.0, 0.05, 2)
        v = _two_point_minimax(BLOCH, p, q, rp, rq)
        res = infogeo.minimax_ball(BLOCH, WeightedPointSet(points=[p, q], radii=[rp, rq]))
        assert abs(res.upper - v) <= 1e-9
    for _ in range(5):
        p, q = rng.normal(size=3), rng.normal(size=3)
        res = infogeo.minimax_ball(EUCL, WeightedPointSet(points=[p, q]))
        np.testing.assert_allclose(res.center, 0.5 * (p + q), rtol=0.0, atol=1e-9)
        assert res.upper == pytest.approx(float((p - q) @ (p - q)) / 4.0, abs=1e-9)
        assert res.gap <= infogeo.MINIMAX_GAP_TOL


def test_minimax_ball_euclidean_cloud(rng):
    pset = WeightedPointSet(points=rng.normal(size=(12, 2)), radii=rng.uniform(0.0, 0.1, 12))
    res = infogeo.minimax_ball(EUCL, pset)
    assert res.upper > 1.0  # so the tolerance is relative
    assert res.gap <= infogeo.MINIMAX_GAP_TOL * res.upper
    assert res.lower == pytest.approx(_dual_value(EUCL, pset, res.weights), abs=1e-12)
    assert res.upper <= _grid_minimax(EUCL, pset)[1] + 1e-12


def _bloch_rows(rows):
    """Bloch points with the directions (x, y, z) and radii r of rows."""
    pts = np.array([[x, y, z] for x, y, z, _ in rows])
    norms = np.linalg.norm(pts, axis=1)
    pts = np.where(norms[:, None] > 1e-6, pts / np.maximum(norms, 1e-6)[:, None], 0.0)
    return pts * np.array([r for *_, r in rows])[:, None]


_warm_cases = st.integers(2, 14).flatmap(lambda n: st.tuples(
    st.sampled_from(["bloch", "radii", "euclidean", "ring", "bloch_ring"]),
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(0.0, 1.0)), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 0.1), min_size=n, max_size=n),
    st.integers(1, n)))


@settings(max_examples=80, deadline=None)
@given(_warm_cases)
# a one-row core on a pure point: its centre has no theta, so the warm
# finish is skipped; then a core of two interior rows, whose finish runs
@example(("bloch", [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 0.0, 0.5), (0.0, 1.0, 0.0, 0.3)],
          [0.0, 0.0, 0.0], 1))
@example(("bloch", [(0.0, 0.0, 1.0, 0.5), (1.0, 0.0, 0.0, 0.5), (0.0, 1.0, 0.0, 0.5),
                    (-1.0, -1.0, 0.0, 0.9)], [0.0, 0.0, 0.0, 0.0], 2))
def test_warm_started_minimax_ball(case):
    # a warm start from the solution on the first k rows, as column
    # generation passes it, certifies a closed bracket that overlaps the
    # cold one; the rings put many points at the same distance (6 angles)
    kind, rows, radii, k = case
    g, rad = BLOCH, None
    if kind in ("bloch", "radii"):
        pts = _bloch_rows(rows)
        rad = radii if kind == "radii" else None
    elif kind == "euclidean":
        pts = 0.5 * np.array([[x, y] for x, y, *_ in rows])
        g, rad = EUCL, radii
    else:
        angle = np.array([np.floor(3.0 * (x + 1.0)) % 6 for x, *_ in rows]) * np.pi / 3.0
        ring = (0.1 + 0.8 * rows[0][3]) * np.column_stack([np.cos(angle), np.sin(angle)])
        if kind == "ring":
            pts, g = ring, EUCL
        else:
            pts = np.column_stack([ring, np.zeros(len(ring))])
    pset = WeightedPointSet(points=pts, radii=rad)
    sub = WeightedPointSet(points=pts[:k], radii=None if rad is None else rad[:k])
    cold = infogeo.minimax_ball(g, pset)
    warm = infogeo.minimax_ball(g, pset, warm=infogeo.minimax_ball(g, sub))
    for res in (cold, warm):
        assert 0.0 <= res.gap <= infogeo.MINIMAX_GAP_TOL
        # the reported centre is the one its theta maps to
        if not (pts == pts[0]).all():
            assert np.array_equal(g.grad_inv(res.theta), res.center)
    assert warm.lower <= cold.upper + 1e-12 and cold.lower <= warm.upper + 1e-12
    assert warm.weights.min() >= 0.0 and warm.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert warm.lower <= _dual_value(g, pset, warm.weights) + 1e-12
    if not (pts == pts[0]).all():
        enclosure = float((g.batch_div(pset.points, warm.center) + pset.radii).max())
        assert warm.upper == max(enclosure, 0.0)


def test_caratheodory_keeps_mean_and_dual(rng):
    # at most d + 1 affinely independent points, the same mean, no lower
    # <w, values>; collinear points reduce to two
    collinear = np.outer(rng.uniform(-1.0, 1.0, 12), [0.3, -0.2, 0.5])
    for pts in (rng.normal(size=(30, 3)), rng.normal(size=(20, 2)), collinear):
        values = rng.normal(size=len(pts))
        w = rng.uniform(0.0, 1.0, len(pts))
        w /= w.sum()
        out = infogeo.caratheodory(pts, values, w)
        keep = np.flatnonzero(out)
        assert len(keep) <= (2 if pts is collinear else pts.shape[1] + 1)
        assert out.min() >= 0.0 and out.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out @ pts, w @ pts, rtol=0.0, atol=1e-12)
        assert out @ values >= w @ values - 1e-12


@pytest.mark.parametrize("points, radii, center, radius", [
    ([[0.1, 0.2, 0.3]], [0.25], [0.1, 0.2, 0.3], 0.25),
    ([[0.1, 0.2, 0.3]] * 3, [0.0, 0.3, 0.1], [0.1, 0.2, 0.3], 0.3),
    ([[0.0, 0.0, 1.0]] * 3, None, [0.0, 0.0, 1.0], 0.0),
], ids=["one-point-with-radius", "duplicated-rows", "duplicated-pure-rows"])
def test_minimax_ball_single_distinct_point(points, radii, center, radius):
    res = infogeo.minimax_ball(BLOCH, WeightedPointSet(points=points, radii=radii))
    assert np.array_equal(res.center, center)
    assert res.lower == res.upper == radius
    assert res.weights.sum() == 1.0


def test_minimax_ball_pure_point_in_mixed_set(rng):
    pts = np.vstack([[random_bloch(rng, 0.8) for _ in range(6)], [[0.0, 0.6, 0.8]]])
    for pset in (WeightedPointSet(points=pts),
                 WeightedPointSet(points=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])):
        res = infogeo.minimax_ball(BLOCH, pset)
        assert np.isfinite(res.upper) and res.gap <= infogeo.MINIMAX_GAP_TOL
        assert np.linalg.norm(res.center) < 1.0 - 1e-9
        assert res.upper <= _grid_minimax(BLOCH, pset)[1] + 1e-12
    # two pure rows whose mixture rounds onto the sphere
    res = infogeo.minimax_ball(BLOCH, WeightedPointSet(points=[[0.0, 0.0, 1.0], [1e-9, 0.0, 1.0]]))
    assert 0.0 < res.upper < 1e-8 and res.gap <= infogeo.MINIMAX_GAP_TOL


def _enclosure_50_digits(points, radii, center):
    """max_i D(p_i || center) + r_i at 50 digits, from the closed forms and
    the floats as given; F clamps |p| at 1, as the kernels do."""
    import mpmath

    with mpmath.workdps(50):
        c = [mpmath.mpf(float(v)) for v in center]
        rc = mpmath.sqrt(sum(v * v for v in c))
        iso = mpmath.log((1 - rc * rc) / 4, 2) / 2
        slope = mpmath.atanh(rc) / (rc * mpmath.log(2)) if rc else 1 / mpmath.log(2)
        worst = -mpmath.inf
        for p, r in zip(points, radii):
            p = [mpmath.mpf(float(v)) for v in p]
            rp = min(mpmath.sqrt(sum(v * v for v in p)), 1)
            neg_s = sum(lam * mpmath.log(lam, 2) for lam in ((1 + rp) / 2, (1 - rp) / 2) if lam)
            cross = sum(a * b for a, b in zip(p, c))
            worst = max(worst, neg_s - iso - slope * cross + mpmath.mpf(float(r)))
        return worst


def _near_shell_sets(rng):
    def unit(v):
        return np.asarray(v, dtype=float) / np.linalg.norm(v)

    sets = [[[0.0, 0.0, 1.0], [1e-9, 0.0, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
            [[0.0, 0.0, 1.0], unit([0.0, 1e-4, 1.0])],
            [unit([0.0, 1e-5, 1.0]), [0.0, 0.0, 1.0], unit([1e-5, 0.0, 1.0])]]
    for gap in (1e-3, 1e-6, 1e-9, 1e-12):
        sets.append([unit(rng.normal(size=3)) * (1.0 - gap) for _ in range(5)])
        sets.append([[0.0, 0.0, 1.0 - gap], unit([1e-7, 0.0, 1.0]) * (1.0 - gap), [0.0, 0.3, 0.2]])
    for _ in range(3):
        d, e = unit(rng.normal(size=3)), unit(rng.normal(size=3))
        sets.append([d, unit(d + 1e-8 * e), unit(d - 1e-8 * e) * (1.0 - 1e-12)])
        gaps = 10.0 ** rng.uniform(-12.0, -3.0, 4)
        sets.append([unit(rng.normal(size=3)) * (1.0 - g) for g in np.append(gaps, [0.0] * 4)])
    return sets


def test_minimax_upper_is_the_enclosure_at_its_center(rng):
    # pure, near-pure and near-coincident pure rows: the certified upper end
    # is the enclosure at the reported centre, to 1e-14 at 50 digits
    for rows in _near_shell_sets(rng):
        pset = WeightedPointSet(points=rows)
        res = infogeo.minimax_ball(BLOCH, pset)
        exact = _enclosure_50_digits(pset.points, pset.radii, res.center)
        assert abs(res.upper - float(exact)) <= 1e-14, rows


@pytest.mark.parametrize("solve", [
    lambda pset: infogeo.seb_basic(BLOCH, pset, 0.1),
    lambda pset: infogeo.seb_improved(BLOCH, pset, 0.1),
    lambda pset: infogeo.minimax_ball(BLOCH, pset),
], ids=["basic", "improved", "minimax"])
def test_solvers_reject_points_outside_the_bloch_ball(solve):
    pset = WeightedPointSet(points=[[0.1, 0.0, 0.0], [0.0, 0.0, 1.0 + 1e-9], [0.6, 0.8, 0.1]])
    with pytest.raises(ValueError, match="row 2: Bloch point outside the unit ball"):
        solve(pset)


@pytest.mark.parametrize("solve", [
    lambda pset: infogeo.seb_basic(BLOCH, pset, 0.1),
    lambda pset: infogeo.seb_improved(BLOCH, pset, 0.1),
    lambda pset: infogeo.minimax_ball(BLOCH, pset),
], ids=["basic", "improved", "minimax"])
def test_solvers_reject_nan_rows(solve):
    pset = WeightedPointSet(points=[[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1: Bloch point"):
        solve(pset)


def test_interior_nudges_rows_at_the_radius_tolerance_inside():
    # (1 - NUDGE) p alone rounds onto the shell for most rows at
    # |p| = 1 + 1e-9; rows with |p| <= 1 are nudged as before, bit for bit
    rng = np.random.default_rng(7)
    d = rng.normal(size=(20_000, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    inside = d * rng.uniform(0.0, 1.0, (len(d), 1))
    inside = inside[np.linalg.norm(inside, axis=1) <= 1.0]
    assert np.array_equal(BLOCH.interior(inside), (1.0 - infogeo.NUDGE) * inside)
    for row in (inside[0], inside[1:3]):
        assert np.array_equal(BLOCH.interior(row), (1.0 - infogeo.NUDGE) * row)
    # no row that check_rows accepts nudges onto the shell, under natural's
    # norm or prepared_div's own
    for radius in (1.0, 1.0 + 5e-10, 1.0 + 1e-9, np.nextafter(1.0 + 1e-9, 0.0)):
        over = d * radius
        over = over[np.hypot.reduce(over, axis=1) <= 1.0 + states.BLOCH_RADIUS_TOL]
        BLOCH.check_rows(over)
        assert len(over) > 5000
        centers = BLOCH.interior(over)
        assert np.isfinite(BLOCH.natural(centers)[1]).all()
        assert max(np.sqrt(float(c @ c)) for c in centers) < 1.0


def test_seb_solvers_take_rows_at_the_radius_tolerance():
    # |p| = 1 + 1e-9 is inside states.BLOCH_RADIUS_TOL; its nudged row once
    # rounded onto the shell, where the geodesic step has no theta
    pset = WeightedPointSet(points=[[0.0, 0.6000000006, 0.8000000008000001],
                                    [0.1, 0.2, 0.3], [-0.5, 0.0, 0.0]])
    res = infogeo.minimax_ball(BLOCH, pset)
    for seed in (None, 0, 1):
        basic = infogeo.seb_basic(BLOCH, pset, 0.1, seed=seed)
        improved = infogeo.seb_improved(BLOCH, pset, 0.1, seed=seed)
        assert np.isfinite(basic.history).all() and basic.radius >= res.lower
        r_lo, delta = improved.history[-1]
        assert np.isfinite(improved.radius) and _meets(r_lo, r_lo + delta, res)


def test_seb_improved_pure_seeded_start():
    pset = WeightedPointSet(points=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    res = infogeo.minimax_ball(BLOCH, pset)
    for seed in range(10):
        ball = infogeo.seb_improved(BLOCH, pset, 0.05, seed=seed)
        assert np.isfinite(ball.radius)
        r_lo, delta = ball.history[-1]
        assert _meets(r_lo, r_lo + delta, res)


def test_seb_basic_pure_start_has_finite_history():
    pset = WeightedPointSet(points=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    res = infogeo.minimax_ball(BLOCH, pset)
    for seed in (None, 0, 1, 2, 3):
        ball = infogeo.seb_basic(BLOCH, pset, 0.05, seed=seed)
        assert np.isfinite(ball.history).all()
        assert ball.radius == ball.history[-1] >= res.lower


def test_seb_basic_history_is_a_float_array():
    pset = WeightedPointSet(points=[[0.1, 0.2, 0.3], [-0.4, 0.0, 0.5], [0.0, -0.9, 0.1]],
                            radii=[0.0, 0.05, 0.0])
    for g in (BLOCH, EUCL):
        ball = infogeo.seb_basic(g, pset, 0.1)
        assert isinstance(ball.history, np.ndarray) and ball.history.dtype == np.float64
        assert ball.history.shape == (2,)  # the enclosure at the start and at the end
        assert np.isfinite(ball.history).all() and ball.history[-1] == ball.radius
        # the start centre is row 0 moved inwards by NUDGE
        assert ball.history[0] == _farthest(g, pset.points, pset.radii,
                                            g.interior(pset.points)[0])[1]


def _picks_lower(g, pset, counts, th):
    """The lower end that a round of seb_basic at th certifies: the dual
    value of the rows picked so far, each weighted by its count."""
    raw = pset.points
    p_max = np.sqrt(np.einsum("ij,ij->i", raw, raw).max())
    w = counts / counts.sum()
    return infogeo._dual_lower(g, w, g.batch_F(raw) + pset.radii, raw, th, p_max)


def _centre_space_seb_basic(g, pset, eps, seed=None, near_ties=False):
    """seb_basic as a round trip through the centre: each round maps theta
    to its centre with grad_inv and finds the farthest row there with
    prepared_div, ties to the lowest index, and stops once that enclosure
    is at most (1 + eps) times _picks_lower.
    With near_ties, the rows within 1e-14 of the farthest score tie, and
    the one with the largest b_i - <p_i, theta> among them is taken.
    (centre, radius, enclosure after each round.)"""
    raw, rad = pset.points, pset.radii
    pts = g.interior(raw)
    theta = g.natural(pts)[0]
    f = g.batch_F(raw)
    counts = np.zeros(len(pset))

    def farthest(c, th=None):
        vals = g.prepared_div(raw, f, c) + rad
        idx = int(np.argmax(vals))
        if th is not None:
            tied = np.flatnonzero(vals >= vals[idx] - 1e-14)
            idx = int(tied[np.argmax((f + rad - raw @ th)[tied])])
        return idx, max(float(vals[idx]), 0.0)

    start = 0 if seed is None else np.random.default_rng(seed).integers(len(pset))
    c, th = pts[start].copy(), theta[start]
    counts[start] += 1
    idx, val = farthest(c)
    history = [val]
    for i in range(1, int(np.ceil(1.0 / (eps * eps))) + 1):
        t = 1.0 / (i + 1.0)
        th = (1.0 - t) * th + t * theta[idx]
        counts[idx] += 1
        c = g.grad_inv(th)
        idx, val = farthest(c, th if near_ties else None)
        history.append(val)
        enclosure = (g.prepared_div(raw, f, c) + rad).max()
        if enclosure <= (1.0 + eps) * _picks_lower(g, pset, counts, th):
            break
    return c, val, history


@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_seb_basic_matches_the_centre_space_loop(g):
    # scoring b_i - <p_i, theta> picks the row that prepared_div at
    # grad_inv(theta) scores farthest, so the centre, radius and both
    # history ends are the round trip's bit for bit, and each pick is also
    # the round trip's farthest row up to a tie within 1e-14. The two
    # scorings can pick different rows where two rows' scores differ by one
    # rounding: the Euclidean duplicates cloud at n = 10 without radii keeps
    # returning to the bisector of its start row and its farthest row, 5.6e-17
    # apart at rounds 33 and 35, but the stop ends it by round 25
    rng = np.random.default_rng(23)
    for kind in ("uniform", "near_pure", "duplicates", "shell"):
        for n in (10, 100):
            pts = _seeded_cloud(rng, n, kind)
            for radii in (None, rng.uniform(0.0, 0.2, n)):
                pset = WeightedPointSet(points=pts, radii=radii)
                for eps, seed, near_ties in itertools.product((0.05, 0.1), (None, 0, 42),
                                                              (False, True)):
                    case = (kind, n, radii is None, eps, seed, near_ties)
                    ball = infogeo.seb_basic(g, pset, eps, seed=seed)
                    center, radius, history = _centre_space_seb_basic(g, pset, eps, seed,
                                                                      near_ties)
                    assert np.array_equal(ball.center, center), case
                    assert ball.radius == radius, case
                    assert ball.history[0] == history[0], case
                    assert ball.history[-1] == history[-1], case


def _natural_seb_basic(g, pset, eps, seed=None, stop=True):
    """seb_basic scoring every round afresh in natural coordinates: each
    round steps theta and takes argmax b_i - <p_i, theta>, one
    matrix-vector product; with stop, the rounds stop once the enclosure
    that prepared_div scores is at most (1 + eps) times _picks_lower.
    (centre, radius, history, rows picked, rounds run, the last round's
    _picks_lower.)"""
    raw, rad = pset.points, pset.radii
    pts = g.interior(raw)
    theta = g.natural(pts)[0]
    f = g.batch_F(raw)
    b = f + rad
    start = 0 if seed is None else np.random.default_rng(seed).integers(len(pset))
    vals = g.prepared_div(raw, f, pts[start]) + rad
    idx, th = int(np.argmax(vals)), theta[start]
    first, picked = vals[idx], {idx}
    counts = np.zeros(len(pset))
    counts[start] += 1
    for i in range(1, int(np.ceil(1.0 / (eps * eps))) + 1):
        t = 1.0 / (i + 1.0)
        th = (1.0 - t) * th + t * theta[idx]
        counts[idx] += 1
        idx = int(np.argmax(b - raw @ th))
        picked.add(idx)
        c = g.grad_inv(th)
        enclosure = (g.prepared_div(raw, f, c) + rad).max()
        lower = _picks_lower(g, pset, counts, th)
        if stop and enclosure <= (1.0 + eps) * lower:
            break
    history = np.maximum([first, enclosure], 0.0)
    return c, float(history[1]), history, picked, i, lower


def _running_score_cases():
    """(name, g, pset, eps): the balls clouds at n = 1000 and 5000, where
    more rows are picked than seb_basic caches columns for; rows drawn
    with repeats, whose exact ties seb_basic scores afresh; d = 2; and
    symmetric sets, whose centre returns to where two rows' scores differ
    by a rounding, so that the running scores alone would pick the other."""
    rng = np.random.default_rng(24)
    for n in (1000, 5000):
        for kind in ("uniform", "near_pure"):
            pts = _seeded_cloud(rng, n, kind)
            radii = rng.uniform(0.0, 0.05, n) if n == 1000 else None
            for eps in (0.05, 0.02):
                yield f"{kind} n={n} eps={eps}", BLOCH, WeightedPointSet(points=pts, radii=radii), eps
    duplicates = WeightedPointSet(points=_seeded_cloud(rng, 100, "duplicates"))
    plane = WeightedPointSet(points=rng.normal(size=(50, 2)), radii=rng.uniform(0.0, 0.5, 50))
    octahedron = WeightedPointSet(points=0.5 * np.vstack([np.eye(3), -np.eye(3)]))
    triangle = WeightedPointSet(points=[[1.0, 0.0], [-0.5, 0.75**0.5], [-0.5, -0.75**0.5]])
    # running scores of this size would overflow, so every round is scored afresh
    huge = WeightedPointSet(points=_seeded_cloud(rng, 20, "uniform"), radii=rng.uniform(0.0, 1e306, 20))
    yield "radii near the float range", BLOCH, huge, 0.1
    for eps in (0.05, 0.02):
        yield f"duplicates eps={eps}", BLOCH, duplicates, eps
        yield f"euclidean d=2 eps={eps}", EUCL, plane, eps
        yield f"octahedron eps={eps}", BLOCH, octahedron, eps
        yield f"triangle d=2 eps={eps}", EUCL, triangle, eps


def test_seb_basic_running_scores_match_the_natural_loop():
    # the running scores pick the rows that b_i - <p_i, theta> picks each
    # round, bit for bit, also where the column cache evicts and where an
    # exact duplicate row ties with the farthest one
    evicted = tied = 0
    for name, g, pset, eps in _running_score_cases():
        for seed in (None, 42):
            ball = infogeo.seb_basic(g, pset, eps, seed=seed)
            center, radius, history, picked, *_ = _natural_seb_basic(g, pset, eps, seed)
            assert np.array_equal(ball.center, center), (name, seed)
            assert ball.radius == radius, (name, seed)
            assert np.array_equal(ball.history, history), (name, seed)
            evicted += len(picked) > infogeo._BASIC_COLUMNS
            rows = pset.points[sorted(picked)]
            tied += any((pset.points == row).all(axis=1).sum() > 1 for row in rows)
    assert evicted and tied


def test_seb_basic_runs_every_round_near_the_shell():
    # no round is certified on the README's near-shell set, so the answer is
    # the full ceil(1/eps^2)-round loop's bit for bit, about 1.23 times optimal
    pset = WeightedPointSet(points=[[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    res = infogeo.minimax_ball(BLOCH, pset)
    for seed in (None, 0, 42):
        ball = infogeo.seb_basic(BLOCH, pset, 0.05, seed=seed)
        rounds = _natural_seb_basic(BLOCH, pset, 0.05, seed)[4]
        center, radius, history, *_ = _natural_seb_basic(BLOCH, pset, 0.05, seed, stop=False)
        assert rounds == 400
        assert np.array_equal(ball.center, center) and ball.radius == radius
        assert np.array_equal(ball.history, history)
        assert ball.radius > 1.2 * res.upper


@pytest.mark.parametrize("kind", ["uniform", "near_pure"])
def test_seb_basic_stops_at_a_certified_radius(kind):
    # on the clouds of the balls benchmark the picks' dual value certifies
    # (1 + eps) long before ceil(1/eps^2) rounds, and the stop is the
    # reference loop's bit for bit
    rng = np.random.default_rng(31)
    for n in (10, 100, 1000, 5000):
        pset = WeightedPointSet(points=_seeded_cloud(rng, n, kind))
        res = infogeo.minimax_ball(BLOCH, pset)
        for eps in (0.05, 0.1):
            ball = infogeo.seb_basic(BLOCH, pset, eps)
            center, radius, _, _, rounds, lower = _natural_seb_basic(BLOCH, pset, eps)
            assert np.array_equal(ball.center, center) and ball.radius == radius, (n, eps)
            assert rounds < 0.5 / (eps * eps), (n, eps)
            assert res.lower <= ball.radius <= (1.0 + eps) * lower, (n, eps)
            assert lower <= res.upper, (n, eps)


def _tight_eps(enclosure, lower):
    """The least eps with enclosure <= (1 + eps) * lower in floats."""
    eps = enclosure / lower - 1.0
    while (1.0 + eps) * lower < enclosure:
        eps = np.nextafter(eps, 1.0)
    while (1.0 + np.nextafter(eps, 0.0)) * lower >= enclosure:
        eps = np.nextafter(eps, 0.0)
    return float(eps)


@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_seb_basic_stops_at_a_tight_factor(g):
    # with eps set so that (1 + eps) times a round's lower end meets its
    # enclosure to the last bit, that round stops: the test on the running
    # scores lets through every round that the scan then stops
    rng = np.random.default_rng(41)
    for kind in ("uniform", "near_pure", "duplicates"):
        pset = WeightedPointSet(points=_seeded_cloud(rng, 30, kind))
        for loose in (0.4, 0.3, 0.2, 0.1):
            for seed in (None, 0, 42):
                _, radius, _, _, rounds, lower = _natural_seb_basic(g, pset, loose, seed)
                eps = _tight_eps(radius, lower)
                center, radius, _, _, tight_rounds, _ = _natural_seb_basic(g, pset, eps, seed)
                ball = infogeo.seb_basic(g, pset, eps, seed=seed)
                assert tight_rounds == rounds, (kind, loose, seed)
                assert np.array_equal(ball.center, center), (kind, loose, seed)
                assert ball.radius == radius, (kind, loose, seed)


def test_dual_lower_stays_below_the_rounded_enclosure():
    # a pair symmetric about c has the optimal ball at c, and weights 1/2
    # give a dual value equal to its radius; rounded, that value lands above
    # the enclosure scored at c in many draws, and the lowered one never does
    rng = np.random.default_rng(37)
    above = 0
    for _ in range(200):
        c, x = rng.normal(size=3), rng.normal(size=3)
        pts = np.array([c + x, c - x])
        b, w, theta = EUCL.batch_F(pts), np.array([0.5, 0.5]), _theta(EUCL, c)
        enclosure = EUCL.prepared_div(pts, b, EUCL.grad_inv(theta)).max()
        p_max = np.sqrt(np.einsum("ij,ij->i", pts, pts).max())
        assert infogeo._dual_lower(EUCL, w, b, pts, theta, p_max) <= enclosure
        above += float(w @ b) - EUCL.F(w @ pts) > enclosure
    assert above > 20


def test_farthest_breaks_ties_to_the_lowest_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert infogeo._farthest(EUCL, pts, EUCL.batch_F(pts), np.zeros(4), np.zeros(2)) == (1, 1.0)
    rad = np.array([0.0, 0.0, 0.5, 0.5])
    assert infogeo._farthest(EUCL, pts, EUCL.batch_F(pts), rad, np.zeros(2)) == (2, 1.5)


def test_farthest_reads_zero_where_rounding_puts_every_score_below_zero():
    # D(p || p) rounds to about -8.9e-17 bits on both copies of this row
    pts = np.array([[0.01, 0.0, 0.0]] * 2)
    f = BLOCH.batch_F(pts)
    assert (BLOCH.prepared_div(pts, f, pts[0]) < 0.0).all()
    assert infogeo._farthest(BLOCH, pts, f, np.zeros(2), pts[0]) == (0, 0.0)


def test_ball_answers_keep_few_bytes():
    """A kept InfoBall holds its centre, radius and history in slots, with
    no instance dict: on this cloud the least of three batches of 100
    keeps about 350 B per answer from seb_basic and 325 B from
    seb_improved, where an instance dict took about 385 and 370 B."""
    pset = WeightedPointSet(points=_seeded_cloud(np.random.default_rng(3), 100, "uniform"))
    for solver, most in ((infogeo.seb_basic, 370), (infogeo.seb_improved, 350)):
        assert not hasattr(solver(BLOCH, pset, 0.05), "__dict__")
        per_answer = []
        for _ in range(3):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kept = [solver(BLOCH, pset, 0.05) for _ in range(100)]
                per_answer.append((tracemalloc.get_traced_memory()[0] - base) / len(kept))
            finally:
                tracemalloc.stop()
        assert min(per_answer) <= most, (solver.__name__, per_answer)


def test_seb_basic_memory_does_not_grow_with_the_rounds():
    # one call holds the cached columns and about ten more n-vectors
    # (theta's d columns, F(p), b, the running scores), at any eps
    n = 5000
    pset = WeightedPointSet(points=_seeded_cloud(np.random.default_rng(5), n, "near_pure"))
    tracemalloc.start()
    try:
        infogeo.seb_basic(BLOCH, pset, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (infogeo._BASIC_COLUMNS + 10) * 8 * n


def _seeded_cloud(rng, n, kind):
    """n Bloch points: 'uniform' fills |r| <= 0.9, 'near_pure' has
    0.9 <= |r| <= 0.99, 'duplicates' draws n rows from n // 3 + 1 uniform
    ones, 'shell' puts half the rows on |r| = 1 or 1 + 1e-9 (where the
    nudged row is a centre on the shell)."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    if kind == "near_pure":
        r = rng.uniform(0.9, 0.99, n)
    elif kind == "shell":
        r = np.where(rng.random(n) < 0.5, rng.choice([1.0, 1.0 + 1e-9], n),
                     rng.uniform(0.0, 0.99, n))
    else:
        r = 0.9 * rng.random(n) ** (1.0 / 3.0)
    pts = d * r[:, None]
    if kind == "duplicates":
        pts = pts[rng.integers(0, n // 3 + 1, n)]
    if kind == "shell":
        # a row that rounds past check_rows' tolerance moves onto |r| = 1
        pts[np.hypot.reduce(pts, axis=1) > 1.0 + states.BLOCH_RADIUS_TOL] /= 1.0 + 1e-9
    return pts


def _check_improved(g, pset, ball):
    """seb_improved's ball on pset: its radius is the enclosure of the rows
    as given at its centre (or, on coincident rows, the largest row
    radius), and its final bracket is closed and holds minimax_ball's."""
    coincident = infogeo._coincident_ball(pset)
    enclosure = _farthest(g, pset.points, pset.radii, ball.center)[1]
    assert ball.radius == (enclosure if coincident is None else coincident[1])
    r_lo, delta = ball.history[-1]
    assert delta <= infogeo.MINIMAX_GAP_TOL * max(1.0, ball.radius)
    assert _meets(r_lo, r_lo + delta, infogeo.minimax_ball(g, pset))


@pytest.mark.parametrize("kind", ["uniform", "near_pure", "duplicates", "shell"])
@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_seb_improved_beats_the_best_row_centre(g, kind):
    # the best nudged row as centre (the 1-centre in S) encloses the set,
    # so no optimal radius lies above its enclosure
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 10, 50, 300):
        pts = _seeded_cloud(rng, n, kind)
        for radii in (None, rng.uniform(0.0, 0.2, n), rng.choice([0.0, 0.1], n)):
            pset = WeightedPointSet(points=pts, radii=radii)
            best_row = min(_farthest(g, pts, pset.radii, c)[1] for c in g.interior(pts))
            ball = infogeo.seb_improved(g, pset, 0.05)
            _check_improved(g, pset, ball)
            assert ball.radius <= best_row + infogeo.MINIMAX_GAP_TOL * max(1.0, best_row)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([BLOCH, EUCL]),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                          st.floats(0.0, 1.0),
                          st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 0.2))),
                min_size=1, max_size=8),
       st.lists(st.integers(0, 7), min_size=1, max_size=20))
def test_seb_improved_closes_on_drawn_sets(g, rows, picks):
    # rows drawn by index, so ties between duplicated rows are common
    pts = _bloch_rows([row[:4] for row in rows])
    picks = [i % len(rows) for i in picks]
    pset = WeightedPointSet(points=pts[picks], radii=[rows[i][4] for i in picks])
    _check_improved(g, pset, infogeo.seb_improved(g, pset, 0.05))


def test_seb_improved_on_symmetric_sets():
    # signed coordinate permutations of one vector tie, or nearly tie, in
    # their farthest values, so which rows carry the weight turns on rounding;
    # at |v| = 1 and 1 - 1e-12 the rows are pure or nearly so
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    perms = np.array(list(itertools.permutations(range(3))))
    for seed in range(300):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        v *= (1.0, 1.0 - 1e-12, 0.7)[seed % 3] / np.linalg.norm(v)
        n = int(rng.integers(2, 7))
        pts = v[perms[rng.integers(6, size=n)]] * signs[rng.integers(8, size=n)]
        pset = WeightedPointSet(points=pts)
        _check_improved(BLOCH, pset, infogeo.seb_improved(BLOCH, pset, 0.05))
    # rows 0 and 4 tie at the optimal centre 1.5, with radius 2.25
    pset = WeightedPointSet(points=[[3.0], [2.0], [1.0], [1.0], [0.0]])
    ball = infogeo.seb_improved(EUCL, pset, 0.05)
    _check_improved(EUCL, pset, ball)
    r_lo, delta = ball.history[-1]
    assert r_lo <= 2.25 <= r_lo + delta
    assert ball.center == pytest.approx([1.5], abs=infogeo.MINIMAX_GAP_TOL)


def test_seb_improved_with_every_row_at_the_shell():
    # every row at |p| = 1 up to 1 + 1e-9, where each nudged row is within
    # an ulp or so of the shell
    rng = np.random.default_rng(5)
    for radius in (1.0, 1.0 + 5e-10, 1.0 + 1e-9, np.nextafter(1.0 + 1e-9, 0.0)):
        pts = _seeded_cloud(rng, 200, "uniform")
        pts *= radius / np.linalg.norm(pts, axis=1)[:, None]
        pts = pts[np.hypot.reduce(pts, axis=1) <= 1.0 + states.BLOCH_RADIUS_TOL]
        pset = WeightedPointSet(points=pts)
        for seed in (None, 0, 42):
            _check_improved(BLOCH, pset, infogeo.seb_improved(BLOCH, pset, 0.05, seed=seed))


def test_seb_improved_on_two_rows_at_the_radius_tolerance():
    # rows at |p| = 1 + 1e-9 nudge to centres within an ulp of the shell,
    # where a vectorised norm and prepared_divergence's own can round to
    # opposite sides of 1
    rng = np.random.default_rng(3)
    pairs = 0
    for _ in range(500):
        pts = rng.normal(size=(2, 3))
        pts *= (1.0 + 1e-9) / np.linalg.norm(pts, axis=1)[:, None]
        if (np.hypot.reduce(pts, axis=1) > 1.0 + states.BLOCH_RADIUS_TOL).any():
            continue  # rounded past check_rows' tolerance
        pset = WeightedPointSet(points=pts)
        _check_improved(BLOCH, pset, infogeo.seb_improved(BLOCH, pset, 0.05))
        pairs += 1
    assert pairs >= 100


@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_ball_solvers_reject_a_nan_row(g):
    # a NaN row would make every enclosure NaN, so each geometry's
    # check_rows names it before any solver scores it
    pset = WeightedPointSet(points=[[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0], [0.5, 0.0, 0.0]])
    for solve in (lambda: infogeo.seb_basic(g, pset, 0.1),
                  lambda: infogeo.seb_improved(g, pset, 0.1),
                  lambda: infogeo.minimax_ball(g, pset)):
        with pytest.raises(ValueError, match="row 1: "):
            solve()


def test_seb_improved_does_not_depend_on_eps():
    # nor on seed
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for kind in ("uniform", "near_pure"):
            pset = WeightedPointSet(points=_seeded_cloud(rng, 200, kind))
            a, *rest = (infogeo.seb_improved(BLOCH, pset, eps, seed=s)
                        for eps, s in ((0.05, None), (0.5, None), (0.05, 0), (0.5, 42)))
            for b in rest:
                assert np.array_equal(a.center, b.center) and a.radius == b.radius
                assert a.history == b.history


@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_seb_improved_is_minimax_ball_on_every_row(g):
    rng = np.random.default_rng(4)
    for kind in ("uniform", "near_pure", "duplicates", "shell"):
        for n in (1, 2, 10, 300):
            pset = WeightedPointSet(points=_seeded_cloud(rng, n, kind),
                                    radii=rng.choice([0.0, 0.1], n))
            ball = infogeo.seb_improved(g, pset, 0.05)
            res = infogeo.minimax_ball(g, pset)
            assert np.array_equal(ball.center, res.center) and ball.radius == res.upper
            assert ball.history == [(res.lower, res.upper - res.lower)]


def test_seb_solvers_on_duplicated_rows():
    # D(p || p) rounds to -6e-17 here, which once made seb_improved's radius negative
    p = 0.5 * np.array([0.5, 0.0, 1.0]) / np.linalg.norm([0.5, 0.0, 1.0])
    pset = WeightedPointSet(points=[p, p])
    for solver in (infogeo.seb_basic, infogeo.seb_improved):
        assert solver(BLOCH, pset, 0.05).radius == 0.0


def test_ball_solvers_share_the_coincident_rows_rule():
    # that point, raw rather than nudged, with the largest radius
    pset = WeightedPointSet(points=[[0.0, 0.0, 1.0]] * 3, radii=[0.0, 0.3, 0.1])
    res = infogeo.minimax_ball(BLOCH, pset)
    for ball in (infogeo.seb_basic(BLOCH, pset, 0.1), infogeo.seb_improved(BLOCH, pset, 0.1)):
        assert np.array_equal(ball.center, res.center) and ball.radius == res.upper == 0.3
        assert ball.history[-1] in (0.3, (0.3, 0.0))


def _near_pure_sets():
    """12 rows with 1 - |p| log-uniform in [1e-12, 1e-3], 20 seeds."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(12, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        yield u * (1.0 - 10.0 ** rng.uniform(-12.0, -3.0, 12))[:, None]


@pytest.mark.parametrize("rows", [*_near_pure_sets(),
                                  np.loadtxt(DATA / "example_points.csv", delimiter=",")],
                         ids=[*(f"near-pure-{k}" for k in range(20)), "example-points"])
def test_seb_solvers_score_the_rows_given(rows):
    # the radius is the enclosure of the rows as given, not of rows nudged
    # inwards, and the improved bracket holds the optimal radius
    pset = WeightedPointSet(points=rows)
    res = infogeo.minimax_ball(BLOCH, pset)
    for solver in (infogeo.seb_basic, infogeo.seb_improved):
        ball = solver(BLOCH, pset, 0.05, seed=42)
        assert ball.radius == float(np.max(BLOCH.batch_div(rows, ball.center) + pset.radii))
    r_lo, delta = ball.history[-1]  # seb_improved's final bracket
    assert _meets(r_lo, r_lo + delta, res)


_clouds = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(0.0, 0.99)), min_size=n, max_size=n),
    st.one_of(st.none(), st.lists(st.floats(0.0, 0.2), min_size=n, max_size=n))))


@settings(max_examples=60, deadline=None)
@given(_clouds)
def test_seb_brackets_contain_the_certified_one(cloud):
    rows, radii = cloud
    pset = WeightedPointSet(points=_bloch_rows(rows), radii=radii)
    res = infogeo.minimax_ball(BLOCH, pset)
    assert res.gap <= infogeo.MINIMAX_GAP_TOL
    ball = infogeo.seb_improved(BLOCH, pset, 0.05)
    for r_lo, delta in ball.history:
        assert _meets(r_lo, r_lo + delta, res)
    assert infogeo.seb_basic(BLOCH, pset, 0.05).radius >= res.lower


def test_single_point_ball():
    pset = WeightedPointSet(points=np.array([[0.1, 0.2, 0.3]]))
    c, r = infogeo.minimax_center_oracle(BLOCH, pset)
    assert r == 0.0
    assert np.allclose(c, [0.1, 0.2, 0.3])


def test_seb_basic_within_guarantee(rng):
    eps = 0.05
    for trial in range(5):
        pts = np.array([random_bloch(rng, 0.9) for _ in range(10)])
        pset = WeightedPointSet(points=pts)
        ball = infogeo.seb_basic(BLOCH, pset, eps)
        _, oracle = infogeo.minimax_center_oracle(BLOCH, pset)
        assert ball.radius <= (1.0 + eps) * oracle + 1e-9


def test_seb_basic_euclidean_two_points():
    # minimax center of two points under squared distance is the midpoint
    pset = WeightedPointSet(points=np.array([[0.0, 0.0], [2.0, 0.0]]))
    ball = infogeo.seb_basic(EUCL, pset, 0.02)
    assert ball.radius <= (1.0 + 0.02) * 1.0 + 1e-9
    assert abs(ball.center[0] - 1.0) < 0.05


_TETRAHEDRON = 0.866 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)


def test_seb_improved_bracket(rng):
    eps = 0.05
    clouds = [np.array([random_bloch(rng, 0.9) for _ in range(5)]) for _ in range(5)]
    # and symmetric sets, whose optimal ball touches every point
    clouds += [np.array([[0.3, 0.1, 0.0], [-0.4, 0.2, 0.5]]), 0.5 * np.eye(3), _TETRAHEDRON]
    for pts in clouds:
        pset = WeightedPointSet(points=pts)
        ball = infogeo.seb_improved(BLOCH, pset, eps)
        res = infogeo.minimax_ball(BLOCH, pset)
        oracle = res.upper
        for r_lo, delta in ball.history:
            assert r_lo <= oracle + 1e-3
            assert oracle <= r_lo + delta + 1e-3
        assert ball.radius <= oracle + 2.0 * eps + 1e-3
        # the final bracket is closed on every set
        r_lo, delta = ball.history[-1]
        assert delta <= infogeo.MINIMAX_GAP_TOL * max(1.0, ball.radius)
        assert abs(r_lo - res.lower) <= 1e-8


def test_seb_improved_agrees_with_basic(rng):
    eps = 0.05
    pts = np.array([random_bloch(rng, 0.85) for _ in range(8)])
    pset = WeightedPointSet(points=pts)
    b1 = infogeo.seb_basic(BLOCH, pset, eps)
    b2 = infogeo.seb_improved(BLOCH, pset, eps)
    assert abs(b1.radius - b2.radius) <= 2.0 * eps


def test_seb_improved_does_not_load_scipy_optimize():
    code = (
        "import sys, numpy as np\n"
        "from qgeomcap import infogeo\n"
        "rng = np.random.default_rng(7)\n"
        "pts = rng.uniform(-0.5, 0.5, size=(20, 3))\n"
        "infogeo.seb_improved(infogeo.Generator('neg_von_neumann'),\n"
        "                     infogeo.WeightedPointSet(points=pts), 0.05)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = pathlib.Path(infogeo.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("g", [BLOCH, EUCL], ids=["bloch", "euclidean"])
def test_cached_scoring_matches_batch_div(rng, g):
    # the solvers compute F(p_i) once per solve; the enclosure they report
    # is batch_div's at their centre, bit for bit
    pts = np.vstack([[random_bloch(rng, 0.99) for _ in range(40)], np.eye(3)])
    radii = rng.uniform(0.0, 0.05, len(pts))
    pset = WeightedPointSet(points=pts, radii=radii)
    for seed in (None, 0, 42):
        ball = infogeo.seb_basic(g, pset, 0.1, seed=seed)
        assert ball.radius == _farthest(g, pts, radii, ball.center)[1]
    res = infogeo.minimax_ball(g, pset)
    assert res.upper == _farthest(g, pts, radii, res.center)[1]


def test_seb_basic_round_cap():
    pset = WeightedPointSet(points=np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.1]]))
    with pytest.raises(ResourceCapError):
        infogeo.seb_basic(BLOCH, pset, 1e-4)
    assert zeroerr.ResourceCapError is ResourceCapError


def test_seb_of_balls_offsets(rng):
    pts = np.array([random_bloch(rng, 0.7) for _ in range(5)])
    radii = np.full(5, 0.1)
    with_r = infogeo.seb_basic(BLOCH, WeightedPointSet(points=pts, radii=radii), 0.01)
    without = infogeo.seb_basic(BLOCH, WeightedPointSet(points=pts), 0.01)
    assert with_r.radius >= without.radius


def test_pointset_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(points=np.zeros((2, 3)), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(points=np.zeros((1, 3)), radii=np.array([-0.5]))
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            WeightedPointSet(points=np.zeros((2, 3)), weights=np.array([bad, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ball radii must be finite"):
            WeightedPointSet(points=np.zeros((2, 3)), radii=np.array([0.0, bad]))
