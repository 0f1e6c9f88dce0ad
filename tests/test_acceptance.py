"""Acceptance suite: twelve numbered criteria, each printing one PASS line.

Run with -s (or rely on pytest's captured stdout on failure) to see the
per-criterion lines. Each criterion enforces both the numerical tolerance
and its runtime budget.
"""

import time

import numpy as np
import pytest

from qgeomcap import capacity, channels, infogeo, states, superact, zeroerr
from qgeomcap.infogeo import Generator, WeightedPointSet

from conftest import random_bloch, random_density

BLOCH = Generator("neg_von_neumann")


def _report(num, desc, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {num:2d}: PASS ({elapsed:.2f}s) {desc}")


def _chan(kind, p=None):
    params = {} if p is None else {"p": p}
    return channels.build_channel(channels.ChannelSpec(kind, params))


def test_criterion_01_relative_entropy_identity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    half = np.eye(2) / 2.0
    for _ in range(1000):
        rho = random_density(rng)
        lhs = states.relative_entropy(rho, half)
        rhs = 1.0 - states.von_neumann_entropy(rho)
        assert abs(lhs - rhs) < 1e-9
    _report(1, "D(rho||I/2) = 1 - S(rho) on 1000 random states", time.time() - t0, 1.0)


def test_criterion_02_bloch_matches_matrix_form():
    t0 = time.time()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        r1, r2 = random_bloch(rng), random_bloch(rng)
        d_bloch = states.relative_entropy_bloch(r1, r2)
        d_mat = states.relative_entropy(states.bloch_to_density(r1),
                                        states.bloch_to_density(r2))
        assert abs(d_bloch - d_mat) < 1e-9
    _report(2, "Bloch closed form = matrix form on 1000 mixed pairs",
            time.time() - t0, 1.0)


def test_criterion_03_product_additivity_and_bell_gap():
    t0 = time.time()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        lhs, rhs = superact.decomposition_check(
            random_density(rng), random_density(rng),
            random_density(rng), random_density(rng))
        assert abs(lhs - rhs) <= 1e-9
    bell = states.pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    # D(bell || I/4) = log 4 - S(bell) = 2 exactly; the marginal sum is 0
    lhs, rhs = superact.decomposition_check(bell, np.eye(4) / 4.0)
    assert abs((lhs - rhs) - 2.0) < 1e-9
    _report(3, "product additivity on 1000 quadruples; Bell witness gap 2.0",
            time.time() - t0, 2.0)


def test_criterion_04_hsw_closed_forms():
    # untimed first solve: a warm-up, so that the one-time costs of a first
    # call in the process fall outside the timed solves
    capacity.hsw_capacity(_chan("depolarizing", 0.5))
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        t0 = time.perf_counter()
        res = capacity.hsw_capacity(_chan("depolarizing", float(p)))
        exact = 1.0 - states.binary_entropy(p / 2.0)
        assert abs(res.value - exact) <= 1e-3
        dt = time.perf_counter() - t0
        assert dt < 1.0, f"depolarizing p={p:.1f} took {dt:.2f}s"
        worst = max(worst, dt)
    for kind in ("bit_flip", "phase_flip", "bit_phase_flip"):
        for p in (0.1, 0.5, 0.9):
            t0 = time.perf_counter()
            ch = _chan(kind, p)
            res = capacity.hsw_capacity(ch)
            assert abs(res.value - capacity.unital_hsw_closed_form(ch)) <= 1e-3
            dt = time.perf_counter() - t0
            assert dt < 1.0, f"{kind} p={p} took {dt:.2f}s"
            worst = max(worst, dt)
    _report(4, "HSW matches closed forms (dep + flips), each channel", worst, 1.0)


def test_criterion_05_coreset_guarantee_and_bracket():
    t0 = time.time()
    eps = 0.05
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        pts = np.array([random_bloch(rng, 0.9) for _ in range(10)])
        pset = WeightedPointSet(points=pts)
        ball = infogeo.seb_basic(BLOCH, pset, eps)
        _, oracle = infogeo.minimax_center_oracle(BLOCH, pset)
        assert ball.radius <= (1.0 + eps) * oracle + 1e-9
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        pts = np.array([random_bloch(rng, 0.9) for _ in range(5)])
        pset = WeightedPointSet(points=pts)
        ball = infogeo.seb_improved(BLOCH, pset, eps)
        _, oracle = infogeo.minimax_center_oracle(BLOCH, pset)
        for r_lo, delta in ball.history:
            assert r_lo <= oracle + 1e-3
            assert oracle <= r_lo + delta + 1e-3
    _report(5, "seb_basic within (1+eps) of oracle; seb_improved bracket holds",
            time.time() - t0, 30.0)


def test_criterion_06_pentagon_reproduction():
    t0 = time.time()
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    r1 = zeroerr.zero_error_rate(ch, ins, 1)
    assert r1.K == 2 and abs(r1.rate_bits - 1.0) < 1e-9
    r2 = zeroerr.zero_error_rate(ch, ins, 2)
    assert r2.K == 5
    assert abs(r2.rate_bits - 0.5 * np.log2(5.0)) < 1e-9
    _report(6, "pentagon C0 = 1.0 (n=1) and 1.16096 (n=2) via exact search",
            time.time() - t0, 10.0)


def test_criterion_07_channel_zero_error_facts():
    t0 = time.time()
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = states.pure_state(np.array([1.0, -1.0]) / np.sqrt(2.0))
    rb = zeroerr.zero_error_rate(_chan("bit_flip", 0.3), [plus, minus], 1)
    assert rb.K == 2 and abs(rb.rate_bits - 1.0) < 1e-9
    grid = [states.bloch_to_density(u * 0.999)
            for u in capacity.fibonacci_sphere(50)]
    for p in (0.1, 0.5, 0.9):
        rd = zeroerr.zero_error_rate(_chan("depolarizing", p), grid, 1)
        assert rd.K == 1 and rd.rate_bits == 0.0
    _report(7, "bit flip C0 = 1 with +/- inputs; depolarizing C0 = 0 on 50-state grid",
            time.time() - t0, 10.0)


def test_criterion_08_superactivation_sweep():
    t0 = time.time()
    model = superact.ReferenceModel()
    res = superact.sweep(np.linspace(0.0, 0.1, 10_000), model)
    for p, rh, rs in res.rows:
        if 0.0 < p < 0.0041:
            assert rh == 0.01
        else:
            assert rh == 0.0
        assert abs(rs - 2.0 * p * (1.0 - p) * rh) <= 1e-12
    assert superact.superactivation_value(0.02) == pytest.approx(0.01, abs=1e-15)
    _report(8, "sweep window (0, 0.0041) with r_H2 = 0.01; row formula exact",
            time.time() - t0, 5.0)


def test_criterion_09_coherent_information_facts():
    t0 = time.time()
    assert abs(capacity.coherent_info(_chan("identity"), np.eye(2) / 2.0) - 1.0) < 1e-9
    cands = capacity.qubit_candidate_states(200, include_axis_family=False)
    res = capacity.quantum_capacity_single_use(_chan("erasure", 0.5), cands)
    assert abs(res.value) <= 1e-6
    rng = np.random.default_rng(9)
    for kind, p in (("amplitude_damping", 0.3), ("depolarizing", 0.25),
                    ("erasure", 0.5)):
        ch = _chan(kind, p)
        comp = channels.complementary_channel(ch)
        u = channels.isometric_extension(ch)
        k = len(ch.kraus)
        for _ in range(10):
            rho = random_density(rng)
            joint = u @ rho @ u.conj().T
            env = states.partial_trace(joint, "B", (ch.out_dim, k))
            assert np.abs(env - channels.apply(comp, rho)).max() < 1e-9
    _report(9, "identity I_coh = 1; erasure(0.5) Q estimate 0; complement = isometry",
            time.time() - t0, 5.0)


def test_criterion_10_mu_similarity():
    t0 = time.time()
    for lam, gam in ((0.1, 0.5), (0.2, 0.4)):
        dom = zeroerr.MuSimilarDomain(lam, gam)
        rng = np.random.default_rng(10)
        pairs = [(rng.uniform(lam, gam, 3), rng.uniform(lam, gam, 3))
                 for _ in range(10_000)]
        ok, worst = zeroerr.mu_similar_check(dom, pairs)
        assert ok, f"sandwich violated by {worst}"
    _report(10, "mu D_A <= D <= D_A on 10^4 commuting pairs per domain",
            time.time() - t0, 5.0)


def test_criterion_11_weak_coreset():
    t0 = time.time()
    dom = zeroerr.MuSimilarDomain(0.1, 0.5)
    eps = 0.2
    bad = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.uniform(0.11, 0.3, (30, 3)),
                         rng.uniform(0.3, 0.49, (30, 3))])
        opt_c, opt_e = zeroerr.kmedian_oracle(dom, pts, 2)
        med = zeroerr.bicriteria_kmedian(dom, pts, 2, seed=seed)
        cpts, w, _ = zeroerr.weak_coreset(dom, pts, 2, eps, 0.1, med,
                                          seed=seed, m=10)
        assert w.sum() == 60.0
        e_cs = zeroerr.kmedian_error(dom, cpts, opt_c, w)
        if not (1.0 - eps) * opt_e <= e_cs <= (1.0 + eps) * opt_e:
            bad += 1
    assert bad <= 5, f"{bad}/100 seeds violated the sandwich"
    _report(11, f"weight sum exact; error sandwich held on {100 - bad}/100 seeds",
            time.time() - t0, 60.0)


def test_criterion_12_documented_exclusions():
    t0 = time.time()
    import pathlib

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    for phrase in ("Gaussian", "counterexample", "asymptotic"):
        assert phrase.lower() in readme.lower(), f"exclusion {phrase!r} undocumented"
    _report(12, "desk-scale exclusions documented in README", time.time() - t0, 1.0)
