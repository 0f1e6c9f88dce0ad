import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgeomcap import states

from conftest import random_bloch, random_density


def test_pure_state_is_projector(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho = states.pure_state(v)
    assert np.allclose(rho @ rho, rho, atol=1e-12)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_bloch_round_trip(rng):
    for _ in range(50):
        r = random_bloch(rng)
        back = states.density_to_bloch(states.bloch_to_density(r))
        assert np.allclose(back, r, atol=1e-12)


def test_entropy_closed_form(rng):
    for _ in range(50):
        r = random_bloch(rng)
        rho = states.bloch_to_density(r)
        expected = states.binary_entropy((1.0 + np.linalg.norm(r)) / 2.0)
        assert abs(states.von_neumann_entropy(rho) - expected) < 1e-12


def test_relative_entropy_to_maximally_mixed(rng):
    # D(rho || I/2) = 1 - S(rho)
    for _ in range(100):
        rho = random_density(rng)
        d = states.relative_entropy(rho, np.eye(2) / 2.0)
        assert abs(d - (1.0 - states.von_neumann_entropy(rho))) < 1e-9


def test_relative_entropy_bloch_matches_matrix(rng):
    for _ in range(200):
        r1, r2 = random_bloch(rng), random_bloch(rng)
        d_bloch = states.relative_entropy_bloch(r1, r2)
        d_mat = states.relative_entropy(
            states.bloch_to_density(r1), states.bloch_to_density(r2)
        )
        assert abs(d_bloch - d_mat) < 1e-9


def test_relative_entropy_support_violation():
    pure0 = states.pure_state(np.array([1.0, 0.0]))
    pure1 = states.pure_state(np.array([0.0, 1.0]))
    assert states.relative_entropy(pure0, pure1) == np.inf
    assert states.relative_entropy(pure0, pure0) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_relative_entropy_nonnegative(vals):
    r1 = np.array(vals[:3])
    r2 = np.array(vals[3:])
    for r in (r1, r2):
        n = np.linalg.norm(r)
        if n > 0.98:
            r *= 0.98 / n
    d = states.relative_entropy_bloch(r1, r2)
    assert d >= -1e-12
    if np.allclose(r1, r2):
        assert d < 1e-9


def test_partial_trace_of_product(rng):
    rho_a, rho_b = random_density(rng), random_density(rng)
    joint = states.tensor(rho_a, rho_b)
    assert np.allclose(states.partial_trace(joint, "A", (2, 2)), rho_a, atol=1e-12)
    assert np.allclose(states.partial_trace(joint, "B", (2, 2)), rho_b, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_entropy_on_a_stack_equals_one_state_calls(dim, rng):
    rhos = [random_density(rng, dim) for _ in range(5)]
    rhos.append(states.pure_state(np.eye(dim)[0]))
    ents = states.von_neumann_entropy(np.array(rhos))
    assert ents.shape == (6,)
    for s, rho in zip(ents, rhos):
        assert s == states.von_neumann_entropy(rho)
        # the masked one-state formula
        ev = np.clip(np.linalg.eigh(rho)[0], 0.0, 1.0)
        ev = ev[ev > states.EIG_FLOOR]
        assert s == -(ev * np.log2(ev)).sum()
    assert isinstance(states.von_neumann_entropy(rhos[0]), float)


def test_bloch_maps_on_stacks(rng):
    rs = np.array([random_bloch(rng) for _ in range(4)])
    rhos = states.bloch_to_density(rs)
    assert rhos.shape == (4, 2, 2)
    for rho, r in zip(rhos, rs):
        assert np.array_equal(rho, states.bloch_to_density(r))
    assert np.array_equal(states.density_to_bloch(rhos),
                          [states.density_to_bloch(rho) for rho in rhos])


def _formula_bloch_to_density(r):
    """(I + r . sigma)/2 built as a nested array and scaled by 1/2."""
    x, y, z = np.moveaxis(states.check_bloch(r), -1, 0)
    rho = np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)
    return 0.5 * np.moveaxis(rho, (0, 1), (-2, -1))


def test_bloch_to_density_is_bit_identical_to_the_formula(rng):
    special = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -5e-324, 1.0 + 5e-10]
    rows = [[a, b, c] for a in special[:6] for b in special for c in special[:6]]
    rows = np.array([r for r in rows if np.hypot.reduce(r) <= 1.0 + 1e-9]
                    + [random_bloch(rng) for _ in range(200)])
    for r in [*rows, rows, rows.reshape(-1, 1, 3)[:60].reshape(4, 15, 3), rows[0].tolist()]:
        want = _formula_bloch_to_density(r)
        got = states.bloch_to_density(r)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_one_bloch_radius_rule():
    inside, outside = [0.0, 0.0, 1.0 + 5e-10], [0.0, 0.0, 1.0 + 2e-9]
    states.bloch_to_density(inside)
    assert states.relative_entropy_bloch(inside, [0.0, 0.0, 0.0]) > 0.0
    for check in (states.bloch_to_density,
                  lambda r: states.relative_entropy_bloch(r, [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="outside the unit ball"):
            check(outside)
    with pytest.raises(ValueError, match="row 1: Bloch point outside"):
        states.check_bloch([inside, outside])
    # NaN compares False with any bound; the check must still catch it
    nan_row = [[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0], [0.5, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"row 1: Bloch point outside .* \|r\| = nan"):
        states.check_bloch(nan_row)
    with pytest.raises(ValueError, match=r"\|r\| = nan"):
        states.check_bloch(nan_row[1])


def test_holevo_quantity_orthogonal_pure_ensemble():
    ens = [(0.5, states.pure_state(np.array([1.0, 0.0]))),
           (0.5, states.pure_state(np.array([0.0, 1.0])))]
    assert abs(states.holevo_quantity(ens) - 1.0) < 1e-12


def test_binary_entropy_endpoints():
    assert states.binary_entropy(0.0) == 0.0
    assert states.binary_entropy(1.0) == 0.0
    assert abs(states.binary_entropy(0.5) - 1.0) < 1e-15
