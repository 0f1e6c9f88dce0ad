import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgeomcap import capacity, channels, infogeo, kernels, states

BLOCH = infogeo.Generator("neg_von_neumann")
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _chan(kind, p=None):
    params = {} if p is None else {"p": p}
    return channels.build_channel(channels.ChannelSpec(kind, params))


def test_fibonacci_sphere_unit_norm():
    dirs = capacity.fibonacci_sphere(128)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert abs(dirs.mean(axis=0)).max() < 0.05  # roughly balanced


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_hsw_depolarizing_closed_form(p):
    ch = _chan("depolarizing", p)
    res = capacity.hsw_capacity(ch)
    exact = 1.0 - states.binary_entropy(p / 2.0)
    assert abs(res.value - exact) <= 1e-3
    assert res.converged


@pytest.mark.parametrize("kind", ["bit_flip", "phase_flip", "bit_phase_flip",
                                  "dephasing"])
@pytest.mark.parametrize("p", [0.2, 0.5])
def test_hsw_unital_closed_form(kind, p):
    ch = _chan(kind, p)
    res = capacity.hsw_capacity(ch)
    assert abs(res.value - capacity.unital_hsw_closed_form(ch)) <= 1e-3


def test_hsw_identity_channel():
    res = capacity.hsw_capacity(_chan("identity"))
    assert abs(res.value - 1.0) <= 1e-3


def test_hsw_ensemble_reproduces_center():
    res = capacity.hsw_capacity(_chan("amplitude_damping", 0.3))
    ch = _chan("amplitude_damping", 0.3)
    avg = sum(w * channels.apply(ch, s) for w, s in res.optimal_ensemble)
    assert np.abs(avg - res.center).max() < 1e-6
    weights = [w for w, _ in res.optimal_ensemble]
    assert abs(sum(weights) - 1.0) < 1e-9


def test_hsw_equals_holevo_of_reported_ensemble():
    ch = _chan("depolarizing", 0.3)
    res = capacity.hsw_capacity(ch)
    chi = capacity.channel_holevo(ch, res.optimal_ensemble)
    assert abs(chi - res.value) < 1e-4


def _random_channel(seed, n_kraus, damp=0.0):
    """Qubit channel from a random Stinespring isometry; damp mixes in the
    channel that sends every input to |0>, whose outputs crowd a pure state."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * n_kraus, 2)) + 1j * rng.normal(size=(2 * n_kraus, 2))
    iso, _ = np.linalg.qr(x)
    kraus = [math.sqrt(1.0 - damp) * iso[2 * i:2 * i + 2] for i in range(n_kraus)]
    if damp > 0.0:
        kraus += [math.sqrt(damp) * np.array([[1.0, 0.0], [0.0, 0.0]]),
                  math.sqrt(damp) * np.array([[0.0, 1.0], [0.0, 0.0]])]
    return channels.KrausChannel(kraus, 2, 2)


def _check_hsw_result(ch, res):
    lower, upper = res.bracket
    assert lower <= upper
    assert res.converged == (upper - lower <= capacity.HSW_GAP_TOL)
    assert res.value == res.radius == lower
    assert 1 <= len(res.optimal_ensemble) <= 4
    weights = [w for w, _ in res.optimal_ensemble]
    assert min(weights) > 0.0 and sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert capacity.channel_holevo(ch, res.optimal_ensemble) == pytest.approx(lower, abs=1e-9)
    mean = sum(w * channels.apply(ch, s) for w, s in res.optimal_ensemble)
    assert np.abs(mean - res.center).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_hsw_bracket_property(seed, n_kraus, damp):
    ch = _random_channel(seed, n_kraus, damp)
    _check_hsw_result(ch, capacity.hsw_capacity(ch))


@pytest.mark.parametrize("kind, p", [
    ("bit_flip", 0.1), ("bit_flip", 0.127), ("phase_flip", 0.9), ("bit_phase_flip", 0.5),
    ("depolarizing", 0.3), ("amplitude_damping", 0.1), ("amplitude_damping", 0.6),
    ("identity", None),
])
def test_hsw_brackets_close_on_the_zoo(kind, p):
    ch = _chan(kind, p)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.converged
    if kind != "amplitude_damping":
        exact = capacity.unital_hsw_closed_form(ch)
        lower, upper = res.bracket
        assert lower - 1e-9 <= exact <= upper + 1e-9


@pytest.mark.parametrize("kind, p", [
    (kind, p) for kind in ("bit_flip", "phase_flip", "bit_phase_flip", "dephasing")
    for p in (0.1, 0.127, 0.5, 0.9)
] + [("depolarizing", 0.3)])
def test_hsw_unital_channels_close_at_the_axis_columns(kind, p):
    """King's theorem: a unital qubit channel attains its capacity on the
    antipodal inputs along the longest axis of its output ellipsoid, which
    is a start column, so the first round closes the bracket."""
    ch = _chan(kind, p)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.iterations == 1
    exact = capacity.unital_hsw_closed_form(ch)
    lower, upper = res.bracket
    assert lower - 1e-12 <= exact <= upper + 1e-12
    _assert_king_pair(ch, res)
    if kind != "depolarizing":
        top = np.linalg.svd(channels.kraus_to_affine(ch).A)[2][0]
        dirs = [states.density_to_bloch(s) for _, s in res.optimal_ensemble]
        assert sorted(float(d @ top) for d in dirs) == pytest.approx([-1.0, 1.0], abs=1e-12)


def _assert_king_pair(ch, res):
    """The ensemble is an antipodal pair of pure inputs, weights 1/2, along
    a longest axis of the output ellipsoid (any axis of depolarizing)."""
    A = channels.kraus_to_affine(ch).A
    dirs = res.optimal_ensemble.rows[:, 1:]
    assert list(res.optimal_ensemble.rows[:, 0]) == [0.5, 0.5]
    assert np.abs(dirs[0] + dirs[1]).max() <= 1e-12
    assert np.linalg.norm(A @ dirs[0]) == pytest.approx(np.linalg.norm(A, 2), abs=1e-12)


def _exact_chi(pair):
    """chi of an equal-weight pair of Bloch vectors, in 50-digit arithmetic
    on the float vectors as given."""
    import mpmath

    def neg_entropy(r):
        rr = min(mpmath.sqrt(sum(v * v for v in r)), 1)
        return sum(lam * mpmath.log(lam, 2) for lam in ((1 + rr) / 2, (1 - rr) / 2) if lam)

    with mpmath.workdps(50):
        a, b = ([mpmath.mpf(float(v)) for v in r] for r in pair)
        mean = [(x + y) / 2 for x, y in zip(a, b)]
        return (neg_entropy(a) + neg_entropy(b)) / 2 - neg_entropy(mean)


@pytest.mark.parametrize("kind", ["bit_flip", "phase_flip", "bit_phase_flip", "depolarizing",
                                  "dephasing"])
def test_king_pair_lower_end_below_the_exact_chi(kind):
    """The lower end of King's round is _dual_lower's: at p = 0.01, ...,
    0.99 it lies at or below the 50-digit chi of the pair, which chi
    evaluated in floats overshoots on about a fifth of these channels."""
    n = capacity.HSW_START_COLUMNS
    for k in range(1, 100):
        aff = channels.kraus_to_affine(_chan(kind, k / 100))
        axes = capacity._OutputEllipsoid(aff).V.T
        outs = aff(np.vstack([capacity.fibonacci_sphere(n), axes, -axes]))
        res = capacity._king_pair(outs)
        chi = _exact_chi(outs[[n + 2, n + 5]])
        assert chi - 1e-12 <= res.lower <= chi, (kind, k)
        assert res.lower <= res.upper


def _no_minimax_ball(*args, **kwargs):
    raise AssertionError("minimax_ball called")


@pytest.mark.parametrize("kind", ["bit_flip", "phase_flip", "bit_phase_flip", "dephasing",
                                  "depolarizing"])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.77, 0.95])
def test_hsw_unital_channels_make_no_minimax_ball_call(monkeypatch, kind, p):
    monkeypatch.setattr(infogeo, "minimax_ball", _no_minimax_ball)
    ch = _chan(kind, p)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.converged and res.iterations == 1
    _assert_king_pair(ch, res)


def test_hsw_king_round_covers_b_orthogonal_to_the_range(monkeypatch):
    """N(r) = (0.6 x, 0, 0.8): measure along x and prepare the pure states
    (+-0.6, 0, 0.8). b is not 0 but beta is, and the capacity is
    S(b) = H(0.9), at the pair +-x."""
    kets = [np.array([math.sqrt(0.9), s * math.sqrt(0.1)]) for s in (1.0, -1.0)]
    plus_minus = [np.array([1.0, s]) / math.sqrt(2.0) for s in (1.0, -1.0)]
    ch = channels.KrausChannel([np.outer(k, e) for k, e in zip(kets, plus_minus)], 2, 2)
    aff = channels.kraus_to_affine(ch)
    assert np.abs(aff.A - np.diag([0.6, 0.0, 0.0])).max() <= 1e-15
    assert np.abs(aff.b - [0.0, 0.0, 0.8]).max() <= 1e-15
    monkeypatch.setattr(infogeo, "minimax_ball", _no_minimax_ball)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.converged and res.iterations == 1
    _assert_king_pair(ch, res)
    lower, upper = res.bracket
    assert lower - 1e-12 <= states.binary_entropy(0.9) <= upper + 1e-12


def _flip_group(aff):
    """Output reflections I - 2 sum_k U_k U_k^T over the nonempty subsets of
    the left singular vectors U_k of A with sigma_k > 0 and U_k^T b = 0."""
    U, sv, _ = np.linalg.svd(aff.A)
    axes = [k for k in range(3) if sv[k] > 1e-9 and abs(U[:, k] @ aff.b) <= 1e-12]
    subsets = [[k for i, k in enumerate(axes) if j >> i & 1] for j in range(1, 2 ** len(axes))]
    return [np.eye(3) - 2.0 * U[:, sub] @ U[:, sub].T for sub in subsets]


_MIRRORED_CHANNELS = (
    [(f"amplitude_damping p={p}", _chan("amplitude_damping", p))
     for p in np.round(np.arange(0.05, 0.951, 0.05), 2).tolist()]
    + [(f"kraus2 seed={seed}", _random_channel(seed, 2)) for seed in range(10)]
)


@pytest.mark.parametrize("name, ch", _MIRRORED_CHANNELS, ids=[n for n, _ in _MIRRORED_CHANNELS])
def test_hsw_mirror_images_close_kraus_rank_2_channels_in_few_rounds(monkeypatch, name, ch):
    """Amplitude damping and Kraus-rank-2 channels have two flippable axes;
    every column the oracle prices joins with its three images, so the
    columns after the start set are closed under the flips, and the
    bracket closes in at most 10 rounds."""
    seen = []
    solve = infogeo.minimax_ball

    def recorded(g, pset, warm=None):
        seen.append(pset.points)
        return solve(g, pset, warm=warm)

    monkeypatch.setattr(infogeo, "minimax_ball", recorded)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.converged and res.iterations <= 10
    group = _flip_group(channels.kraus_to_affine(ch))
    assert len(group) == 3
    priced = seen[-1][capacity.HSW_START_COLUMNS + 6:]
    assert len(priced) == 4 * (res.iterations - 1) > 0
    for R in group:
        images = priced @ R.T
        dist = np.linalg.norm(images[:, None, :] - priced[None, :, :], axis=-1).min(axis=1)
        assert dist.max() <= 1e-9


def test_hsw_answers_keep_few_bytes():
    """An answer holds its ensemble as one (k, 4) array of weights and Bloch
    vectors and its centre as one array: about 0.58 KB, where a list of
    (weight, state) pairs took 1.36-1.83 KB and a weight vector with a
    (k, 2, 2) stack of states about 1.08 KB."""
    for kind in ("bit_flip", "amplitude_damping", "depolarizing"):
        ch = _chan(kind, 0.3)
        capacity.hsw_capacity(ch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = [capacity.hsw_capacity(ch) for _ in range(40)]
            per_answer = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
        finally:
            tracemalloc.stop()
        assert per_answer <= 800, (kind, per_answer)


@pytest.mark.parametrize("kind, p, value", [
    ("amplitude_damping", 0.0, 0.0), ("depolarizing", 1.0, 0.0), ("dephasing", 1.0, 1.0),
])
def test_hsw_degenerate_channels(kind, p, value):
    ch = _chan(kind, p)
    res = capacity.hsw_capacity(ch)
    _check_hsw_result(ch, res)
    assert res.converged
    lower, upper = res.bracket
    assert lower - 1e-12 <= value <= upper + 1e-12


_ORACLE_CHANNELS = (
    [_chan(kind, p) for kind in ("bit_flip", "phase_flip", "bit_phase_flip")
     for p in (0.1, 0.5, 0.9)]
    + [_chan("amplitude_damping", p) for p in (0.1, 0.5, 0.9)]
    + [_random_channel(seed, 1 + seed % 4, 0.3 * (seed % 2)) for seed in range(5)]
)


@pytest.mark.parametrize("ch", _ORACLE_CHANNELS)
def test_sphere_oracle_bounds_dense_directions(ch):
    aff = channels.kraus_to_affine(ch)
    outs = capacity.fibonacci_sphere(20_000) @ aff.A.T + aff.b
    ellipsoid = capacity._OutputEllipsoid(aff)
    rng = np.random.default_rng(3)
    centers = [np.zeros(3), outs.mean(axis=0), 0.9 * outs[rng.integers(len(outs))],
               rng.uniform(-0.4, 0.4, 3)]
    for c in centers:
        dense = float(kernels.batch_divergence(outs, c).max())
        for lower in (dense - 1e-2, dense - 1e-7, 0.0):
            upper, u = ellipsoid.oracle(BLOCH.natural(c[None])[0][0], lower)
            assert upper >= dense - 1e-12
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_sphere_max_is_the_trust_region_value(rng):
    dirs = capacity.fibonacci_sphere(20_000)
    for k in range(40):
        m = rng.normal(size=3)
        g = rng.normal(size=3) * (0.0 if k % 10 == 0 else 1.0)
        if k % 4 == 1:  # hard case: no pull along the top eigenvector
            g[np.argmax(m)] = 0.0
        if k % 4 == 2:  # repeated top eigenvalue
            m[np.argsort(m)[-2]] = m.max()
        bound, u = capacity._sphere_max(list(m), list(g))
        dense = float(((dirs * dirs) @ m + dirs @ g).max())
        at_u = float(np.asarray(u) ** 2 @ m + np.asarray(u) @ g)
        assert at_u <= bound + 1e-12 and dense <= bound + 1e-12
        assert bound - at_u <= 1e-9


def test_capacity_cli_does_not_load_scipy(tmp_path):
    code = (
        "import sys\n"
        "from qgeomcap import cli\n"
        f"code = cli.main(['capacity', {str(DATA / 'depolarizing.channel')!r},\n"
        f"                 '--mode', 'holevo', '-o', {str(tmp_path / 'r.json')!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = pathlib.Path(capacity.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_hsw_rejects_non_qubit():
    with pytest.raises(ValueError):
        capacity.hsw_capacity(_chan("erasure", 0.5))


def test_unital_closed_form_rejects_nonunital():
    with pytest.raises(ValueError):
        capacity.unital_hsw_closed_form(_chan("amplitude_damping", 0.3))


def test_coherent_info_identity():
    ch = _chan("identity")
    assert abs(capacity.coherent_info(ch, np.eye(2) / 2.0) - 1.0) < 1e-9


def test_erasure_half_quantum_capacity_zero():
    ch = _chan("erasure", 0.5)
    cands = capacity.qubit_candidate_states(200, include_axis_family=False)
    res = capacity.quantum_capacity_single_use(ch, cands)
    assert abs(res.value) <= 1e-6
    assert abs(res.ball_pair.r_coh - (res.ball_pair.r_AB - res.ball_pair.r_AE)) < 1e-12


def test_erasure_quantum_capacity_monotone():
    cands = capacity.qubit_candidate_states(100, include_axis_family=False)
    vals = []
    for p in (0.1, 0.3, 0.5):
        res = capacity.quantum_capacity_single_use(_chan("erasure", p), cands)
        vals.append(res.value)
    # Q(erasure p) = max(0, 1 - 2p)
    for p, v in zip((0.1, 0.3, 0.5), vals):
        assert abs(v - max(0.0, 1.0 - 2.0 * p)) < 1e-6


def test_amplitude_damping_coherent_positive():
    cands = capacity.qubit_candidate_states()
    res = capacity.quantum_capacity_single_use(_chan("amplitude_damping", 0.9), cands)
    assert res.value > 0.3  # low damping keeps most of a qubit


def test_quantum_capacity_builds_the_complementary_channel_once(monkeypatch):
    ch = _chan("amplitude_damping", 0.8)
    cands = capacity.qubit_candidate_states()
    expected = max(capacity.coherent_info(ch, rho) for rho in cands)
    calls = []
    plain = channels.complementary_channel

    def counted(c):
        calls.append(c)
        return plain(c)

    monkeypatch.setattr(channels, "complementary_channel", counted)
    res = capacity.quantum_capacity_single_use(ch, cands)
    assert calls == [ch]
    assert res.value == expected > 0.0


def test_private_info_declared_spec():
    spec = channels.ChannelSpec("declared_capacity",
                                private_capacity_bits=0.02,
                                activation_window=(0.0, 0.0041))
    assert capacity.private_info(spec) == 0.02


def test_private_info_requires_ensemble():
    with pytest.raises(ValueError):
        capacity.private_info(_chan("bit_flip", 0.2))


def test_private_info_degradable_matches_coherent():
    # for amplitude damping (degradable at p > 1/2 in this convention) the
    # private information at the best pure-input eigen-ensemble equals the
    # coherent information
    ch = _chan("amplitude_damping", 0.8)
    cands = capacity.qubit_candidate_states()
    res = capacity.quantum_capacity_single_use(ch, cands)
    pi = capacity.private_info(ch, res.optimal_ensemble)
    assert abs(pi - res.ball_pair.r_coh) < 1e-9
