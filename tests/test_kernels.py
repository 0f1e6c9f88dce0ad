"""The divergence kernels and the geometry protocol agree with each other.

prepared_divergence is the one implementation of the Bloch divergence.
batch_divergence is the reference, and the cached-entropy path
(prepared_divergence with neg_entropy computed once) must give the same
values to 1e-12 bits, including at pure points, at a center at the origin
and at a center on the pure-state shell. Near that shell the
natural-coordinate form scores D(p || p) and pure rows against nearby
centres to 1e-14 bits. Each geometry's derived div and batch_div match
its prepared_div bit for bit.
"""

import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qgeomcap import capacity, infogeo, kernels, states

from conftest import random_bloch

TOL = 1e-12


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _assert_paths_agree(points, center):
    ref = kernels.batch_divergence(points, center)
    cached = kernels.prepared_divergence(points, kernels.neg_entropy(points), center)
    assert np.array_equal(np.isinf(cached), np.isinf(ref))
    fin = np.isfinite(ref)
    np.testing.assert_allclose(cached[fin], ref[fin], rtol=0.0, atol=TOL)
    return ref


def _interior(rng, n=50, rmax=0.99):
    return np.array([random_bloch(rng, rmax) for _ in range(n)])


def test_random_interior_points(rng):
    points = _interior(rng)
    for _ in range(20):
        ref = _assert_paths_agree(points, random_bloch(rng, 0.99))
        assert np.all(np.isfinite(ref)) and np.all(ref >= -TOL)


def test_pure_points(rng):
    points = np.array([_unit(rng.normal(size=3)) for _ in range(20)])
    points = np.vstack([points, np.eye(3), -np.eye(3)])
    np.testing.assert_allclose(kernels.neg_entropy(points), 0.0, atol=TOL)
    for _ in range(10):
        ref = _assert_paths_agree(points, random_bloch(rng, 0.9))
        assert np.all(np.isfinite(ref))


def test_center_at_origin(rng):
    points = np.vstack([_interior(rng), np.eye(3)])
    ref = _assert_paths_agree(points, np.zeros(3))
    # D(p || I/2) = 1 - S(p) = 1 + F(p)
    np.testing.assert_allclose(ref, 1.0 + kernels.neg_entropy(points), atol=TOL)


@pytest.mark.parametrize("shrink", [0.0, 1e-10])
def test_singular_center(rng, shrink):
    # the one shell rule: |c| >= 1 has no theta, so every row scores +inf,
    # the row that coincides with c included; just inside, all are finite
    # and the coinciding row scores 0
    shell = np.array([0.0, 0.6, 0.8])
    center = (1.0 - shrink) * shell
    points = np.vstack([_interior(rng, 10), shell, -shell, [1.0, 0.0, 0.0], center])
    ref = _assert_paths_agree(points, center)
    if shrink == 0.0:
        assert np.all(np.isposinf(ref))
    else:
        assert np.all(np.isfinite(ref)) and abs(ref[-1]) <= 1e-14


def _near_shell(rng, n):
    """n unit directions and n gaps log-uniform in [1e-12, 1e-3]."""
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None], 10.0 ** rng.uniform(-12.0, -3.0, n)


def test_self_divergence_near_the_shell(rng):
    # F*(theta) and <p, theta> cancel here at |theta| <= 21, where an ulp is 3.6e-15
    dirs, gaps = _near_shell(rng, 10_000)
    points = dirs * (1.0 - gaps)[:, None]
    ent = kernels.neg_entropy(points)
    worst = max(abs(float(kernels.prepared_divergence(points[i:i + 1], ent[i:i + 1], p)[0]))
                for i, p in enumerate(points))
    assert worst <= 1e-14


def test_pure_rows_against_near_shell_centers(rng):
    # D(p || c) = -log2((1 + |c|) / 2) for a pure p and c = (1 - delta) p
    dirs, deltas = _near_shell(rng, 10_000)
    ent = kernels.neg_entropy(dirs)
    worst = 0.0
    for i, (p, delta) in enumerate(zip(dirs, deltas)):
        c = (1.0 - delta) * p
        got = float(kernels.prepared_divergence(dirs[i:i + 1], ent[i:i + 1], c)[0])
        worst = max(worst, abs(got + math.log2((1.0 + np.linalg.norm(c)) / 2.0)))
    assert worst <= 1e-14


def test_entropy_clamps_match():
    radii = [0.0, 1e-13, 0.3, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-12]
    batch = kernels._neg_entropy(np.array(radii))
    scalar = [kernels.neg_entropy_scalar(r) for r in radii]
    np.testing.assert_allclose(scalar, batch, rtol=0.0, atol=TOL)
    for values in (batch, scalar):  # maximally mixed, pure, and clamped to pure
        assert values[0] == -1.0 and values[-2] == 0.0 and values[-1] == 0.0


def test_qubit_formulas_have_one_implementation():
    # Generator.F / natural, capacity._psi_slope and states.binary_entropy
    # all evaluate the kernels' entropy term and gradient coefficient
    bloch = infogeo.Generator("neg_von_neumann")
    for r in [0.0, 1e-13, 1e-3, 0.3, 0.9, 1.0 - 1e-9]:
        exact = 1.0 / math.log(2.0) if r == 0.0 else math.atanh(r) / (r * math.log(2.0))
        assert kernels.grad_coeff(r) == pytest.approx(exact, rel=1e-12)
        assert capacity._psi_slope(r * r) == pytest.approx(0.5 * exact, rel=1e-12)
        x = np.array([0.0, 0.6, 0.8]) * r
        theta = bloch.natural(x[None])[0][0]
        scalar = kernels.grad_coeff(float(np.linalg.norm(x))) * x
        assert (np.abs(theta - scalar) <= 4 * np.spacing(np.abs(scalar))).all()
        assert bloch.F(x) == kernels.neg_entropy_scalar(float(np.linalg.norm(x)))
    for p in [0.0, 1e-6, 0.1, 0.25, 0.5, 0.9, 1.0]:
        direct = -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)
        assert states.binary_entropy(p) == pytest.approx(direct, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("r", [1e-12, 1e-10, 1e-8])
def test_grad_coeff_is_exact_at_small_radius(r):
    # a log2((1 + r) / (1 - r)) form is off by up to 8e-6 here, which
    # capacity._psi_slope's tangent on a zero-width interval inherits
    exact = math.atanh(r) / (r * math.log(2.0))
    for got in (kernels.grad_coeff(r), 2.0 * capacity._psi_slope(r * r)):
        assert abs(got - exact) <= 4 * math.ulp(exact)


def test_cached_path_is_bit_identical(rng):
    # the ball solvers score with prepared_divergence; Generator.batch_div
    # is the reference they must match exactly
    bloch = infogeo.Generator("neg_von_neumann")
    points = np.vstack([_interior(rng), np.eye(3)])
    ent = kernels.neg_entropy(points)
    for center in [np.zeros(3), *(random_bloch(rng, 0.99) for _ in range(10))]:
        assert np.array_equal(kernels.prepared_divergence(points, ent, center),
                              bloch.batch_div(points, center))


def test_natural_coordinate_form(rng):
    # minimax_ball scores centres as D(p || c) = F(p) + F*(theta) - <p, theta>
    # with theta = grad F(c); it must agree with the kernels
    bloch = infogeo.Generator("neg_von_neumann")
    points = np.vstack([_interior(rng), np.eye(3)])
    ent = kernels.neg_entropy(points)
    for center in [np.zeros(3), *(random_bloch(rng, 0.999) for _ in range(10))]:
        theta = bloch.natural(center[None])[0][0]
        natural = ent + bloch.F_star(theta) - points @ theta
        np.testing.assert_allclose(natural, kernels.batch_divergence(points, center),
                                   rtol=0.0, atol=1e-11)


_GEOMETRIES = [(infogeo.Generator("neg_von_neumann"), 0.99),
               (infogeo.Generator("squared_euclidean"), 2.0)]


@pytest.mark.parametrize("g, scale", _GEOMETRIES, ids=["bloch", "euclidean"])
def test_derived_divergences_are_prepared_div(rng, g, scale):
    # div and batch_div are derived once on the base class from prepared_div
    pts = np.array([random_bloch(rng, 0.99) for _ in range(20)]) * scale
    for y in pts[:5]:
        for x in pts:
            one = x[None, :]
            prepared = g.prepared_div(one, g.batch_F(one), y)[0]
            assert g.div(x, y) == g.batch_div([x], y)[0] == prepared


@pytest.mark.parametrize("g, scale", _GEOMETRIES, ids=["bloch", "euclidean"])
def test_divergence_falls_along_the_geodesic(rng, g, scale):
    # seb_basic steps its centre along theta(t) = (1 - t) theta_c + t theta_s;
    # D(s || grad_inv(theta)) = F(s) + F*(theta) - <s, theta> is convex in
    # theta with its minimum 0 at theta_s, so it falls from D(s || c) to 0
    ts = np.linspace(0.0, 1.0, 21)
    for _ in range(40):
        c, s = (random_bloch(rng, 0.99) * scale for _ in range(2))
        th_c, th_s = g.natural(np.array([c, s]))[0]
        d = np.array([g.div(s, g.grad_inv((1.0 - t) * th_c + t * th_s)) for t in ts])
        assert abs(d[0] - g.div(s, c)) <= 1e-12 and abs(d[-1]) <= 1e-12
        assert (np.diff(d) <= 1e-12).all()


def test_bench_kernels_script_runs():
    root = pathlib.Path(kernels.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
                           "--sizes", "10"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "prepared_divergence" in proc.stdout and "minimax_ball" in proc.stdout
    # seb_basic's radius over minimax_ball's lower end, within its (1 + eps)
    row = re.search(r"^ +10 +\S+ms +\d+ +\S+ +\S+ms +(\d\.\d{4})$", proc.stdout, re.M)
    assert row and 1.0 <= float(row.group(1)) <= 1.05
    assert "amplitude_damping p=0.9" in proc.stdout
    assert "quantum_capacity_single_use" in proc.stdout
    assert re.search(r"^qubit-input zoo, p=0\.3 +268 +8 +\d+\.\d+ms$", proc.stdout, re.M)
    assert re.search(r"^zero_error_rate +vertices +K +build +search +peak +cyclic$",
                     proc.stdout, re.M)
    assert re.search(r"^pentagon n=3 +125 +10 .* True$", proc.stdout, re.M)
