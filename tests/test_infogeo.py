import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm, logm

from qgeomcap import infogeo, states, zeroerr
from qgeomcap.errors import ResourceCapError
from qgeomcap.infogeo import Generator, WeightedPointSet

from conftest import random_bloch

BLOCH = Generator("neg_von_neumann")
EUCL = Generator("squared_euclidean")


def test_gradient_inverse(rng):
    for _ in range(50):
        r = random_bloch(rng)
        assert np.allclose(BLOCH.grad_inv(BLOCH.grad(r)), r, atol=1e-12)
    for _ in range(10):
        x = rng.normal(size=4)
        assert np.allclose(EUCL.grad_inv(EUCL.grad(x)), x, atol=1e-12)


def test_divergence_matches_relative_entropy(rng):
    for _ in range(50):
        r1, r2 = random_bloch(rng), random_bloch(rng)
        assert abs(BLOCH.div(r1, r2) - states.relative_entropy_bloch(r1, r2)) < 1e-12


def test_euclidean_divergence():
    assert EUCL.div([0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_geodesic_matches_matrix_exponential_path(rng):
    # gradient-space interpolation equals matrix log/exp interpolation with
    # trace renormalization
    for _ in range(20):
        c, s = random_bloch(rng), random_bloch(rng)
        t = rng.uniform(0.0, 1.0)
        mid = BLOCH.interpolate(c, s, t)
        lc = logm(states.bloch_to_density(c))
        ls = logm(states.bloch_to_density(s))
        m = expm((1.0 - t) * lc + t * ls)
        m = m / np.trace(m).real
        assert np.allclose(mid, states.density_to_bloch(m), atol=1e-9)


def test_symmetric_div(rng):
    r1, r2 = random_bloch(rng), random_bloch(rng)
    s = infogeo.symmetric_div(BLOCH, r1, r2)
    assert s == pytest.approx(0.5 * (BLOCH.div(r1, r2) + BLOCH.div(r2, r1)))


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


def test_seb_improved_bracket(rng):
    eps = 0.05
    for trial in range(5):
        pts = np.array([random_bloch(rng, 0.9) for _ in range(5)])
        pset = WeightedPointSet(points=pts)
        ball = infogeo.seb_improved(BLOCH, pset, eps)
        _, oracle = infogeo.minimax_center_oracle(BLOCH, pset)
        for r_lo, delta in ball.history:
            assert r_lo <= oracle + 1e-3
            assert oracle <= r_lo + delta + 1e-3
        assert ball.radius <= oracle + 2.0 * eps + 1e-3


def test_seb_improved_agrees_with_basic(rng):
    eps = 0.05
    pts = np.array([random_bloch(rng, 0.85) for _ in range(8)])
    pset = WeightedPointSet(points=pts)
    b1 = infogeo.seb_basic(BLOCH, pset, eps)
    b2 = infogeo.seb_improved(BLOCH, pset, eps)
    assert abs(b1.radius - b2.radius) <= 2.0 * eps


def test_two_point_minimax_equalizes(rng):
    for _ in range(10):
        p, q = random_bloch(rng, 0.9), random_bloch(rng, 0.9)
        c, v = infogeo.two_point_minimax(BLOCH, p, q)
        assert abs(BLOCH.div(p, c) - BLOCH.div(q, c)) < 1e-6
        pset = WeightedPointSet(points=np.vstack([p, q]))
        _, oracle = infogeo.minimax_center_oracle(BLOCH, pset)
        assert v <= oracle + 1e-6


def test_two_point_minimax_euclidean_midpoint(rng):
    for _ in range(5):
        p, q = rng.normal(size=3), rng.normal(size=3)
        c, v = infogeo.two_point_minimax(EUCL, p, q)
        np.testing.assert_allclose(c, 0.5 * (p + q), atol=1e-12)
        assert v == pytest.approx(float((p - q) @ (p - q)) / 4.0, abs=1e-12)


def _geodesic_equalizer(g, p, q, rp, rq):
    """The equalizing point on the gradient-space geodesic from p to q."""
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        c = g.interpolate(p, q, mid)
        if g.div(p, c) + rp <= g.div(q, c) + rq:
            lo = mid
        else:
            hi = mid
    return g.interpolate(p, q, 0.5 * (lo + hi))


def test_two_point_minimax_is_the_segment_minimum(rng):
    def objective(c):
        return max(BLOCH.div(p, c) + rp, BLOCH.div(q, c) + rq)

    for _ in range(20):
        p, q = random_bloch(rng, 0.99), random_bloch(rng, 0.99)
        rp, rq = rng.uniform(0.0, 0.05, 2)
        c, v = infogeo.two_point_minimax(BLOCH, p, q, rp, rq)
        assert v == pytest.approx(objective(c), abs=1e-15)
        on_segment = [objective((1.0 - t) * p + t * q) for t in np.linspace(0.0, 1.0, 201)]
        assert v <= min(on_segment) + 1e-12
        assert v <= objective(_geodesic_equalizer(BLOCH, p, q, rp, rq)) + 1e-12
        # an interior optimum lies on the segment and equalizes the two terms
        t = float((c - p) @ (q - p)) / float((q - p) @ (q - p))
        assert 0.0 < t < 1.0
        np.testing.assert_allclose(c, (1.0 - t) * p + t * q, rtol=0.0, atol=1e-12)
        assert abs((BLOCH.div(p, c) + rp) - (BLOCH.div(q, c) + rq)) < 1e-9


def test_two_point_minimax_contained_ball(rng):
    for _ in range(5):
        p, q = random_bloch(rng, 0.9), random_bloch(rng, 0.9)
        rq = 0.01
        rp = BLOCH.div(q, p) + rq + 0.02  # the ball at p contains the one at q
        c, v = infogeo.two_point_minimax(BLOCH, p, q, rp, rq)
        assert np.array_equal(c, p)
        assert v == pytest.approx(rp, abs=1e-12)
        c, v = infogeo.two_point_minimax(BLOCH, q, p, rq, rp)
        assert np.array_equal(c, p)
        assert v == pytest.approx(rp, abs=1e-12)


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
    pts = np.vstack([[random_bloch(rng, 0.99) for _ in range(40)], np.eye(3)])
    radii = rng.uniform(0.0, 0.05, len(pts))
    farthest = infogeo._farthest_of(g, pts, radii)
    for c in [np.zeros(3), *(random_bloch(rng, 0.99) for _ in range(10))]:
        vals = g.batch_div(pts, c) + radii
        idx = int(np.argmax(vals))
        assert farthest(c) == (idx, float(vals[idx]))


def test_seb_basic_round_cap():
    pset = WeightedPointSet(points=np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.1]]))
    with pytest.raises(ResourceCapError):
        infogeo.seb_basic(BLOCH, pset, 1e-4)
    assert zeroerr.ResourceCapError is ResourceCapError


def test_seb_of_balls_offsets(rng):
    pts = np.array([random_bloch(rng, 0.7) for _ in range(5)])
    radii = np.full(5, 0.1)
    with_r = infogeo.seb_of_balls(BLOCH, WeightedPointSet(points=pts, radii=radii))
    without = infogeo.seb_of_balls(BLOCH, WeightedPointSet(points=pts))
    assert with_r.radius >= without.radius


def test_pointset_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(points=np.zeros((2, 3)), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(points=np.zeros((1, 3)), radii=np.array([-0.5]))


def test_laguerre_lift_power_identity(rng):
    # power distance to the lifted sphere differs from 2 D(x||p) by a term
    # independent of p
    pts = np.array([random_bloch(rng, 0.8) for _ in range(6)])
    pset = WeightedPointSet(points=pts)
    centers, sq_radii = infogeo.laguerre_lift(BLOCH, pset)
    x = random_bloch(rng, 0.8)
    consts = []
    for p, c, r2 in zip(pts, centers, sq_radii):
        power = float((x - c) @ (x - c)) - r2
        consts.append(power - 2.0 * BLOCH.div(x, p))
    assert np.ptp(consts) < 1e-9


def test_laguerre_lift_rejects_pure():
    pset = WeightedPointSet(points=np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        infogeo.laguerre_lift(BLOCH, pset)


def test_bregman_delaunay_simplex(rng):
    pts = np.array([
        [0.2, 0.0, 0.0], [-0.2, 0.1, 0.0], [0.0, -0.25, 0.1], [0.0, 0.1, 0.3],
    ])
    simplices, degenerate = infogeo.bregman_delaunay(
        BLOCH, WeightedPointSet(points=pts))
    assert (0, 1, 2, 3) in simplices


def test_bregman_delaunay_degenerate_cocircular():
    # four points on a common circle: every triangle's circumball has the
    # fourth point on its boundary
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    simplices, degenerate = infogeo.bregman_delaunay(
        EUCL, WeightedPointSet(points=pts))
    assert degenerate
