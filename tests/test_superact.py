import numpy as np
import pytest

from qgeomcap import states, superact

from conftest import random_density


def test_reference_model_invariant():
    m = superact.ReferenceModel()
    assert m.r_H2_inside == superact.superactivation_value(m.P1_horodecki) == 0.01
    # r_H2_inside is derived from P1, so no model can carry another value
    assert superact.ReferenceModel(P1_horodecki=0.04).r_H2_inside == 0.02
    with pytest.raises(TypeError):
        superact.ReferenceModel(P1_horodecki=0.02, r_H2_inside=0.02)


def test_superactivation_value():
    assert superact.superactivation_value(0.02) == pytest.approx(0.01)
    assert superact.superactivation_value(0.0) == 0.0
    with pytest.raises(ValueError):
        superact.superactivation_value(-0.1)


def test_r_h2_window_is_open():
    m = superact.ReferenceModel()
    assert superact.r_h2(0.0, m) == 0.0
    assert superact.r_h2(0.002, m) == 0.01
    assert superact.r_h2(0.0041, m) == 0.0
    assert superact.r_h2(0.5, m) == 0.0


def test_joint_radius_formula():
    m = superact.ReferenceModel()
    p = 0.003
    rh, rs = superact.joint_radius(p, m)
    assert rh == 0.01
    assert rs == pytest.approx(2.0 * p * (1.0 - p) * 0.01, abs=1e-15)


def test_sweep_window_detection():
    grid = np.linspace(0.0, 0.1, 1001)
    res = superact.sweep(grid)
    inside = [p for p, _, rs in res.rows if rs > 0.0]
    assert inside
    assert min(inside) > 0.0
    assert max(inside) < 0.0041
    for p, rh, rs in res.rows:
        assert abs(rs - 2.0 * p * (1.0 - p) * rh) < 1e-12


def test_sweep_outside_window_all_zero():
    res = superact.sweep(np.linspace(0.5, 0.6, 100))
    assert all(rs == 0.0 for _, _, rs in res.rows)


def test_sweep_csv_format():
    res = superact.sweep(np.linspace(0.0, 0.01, 11))
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "p_C,r_H2,r_super"
    assert len(lines) == 12


def test_sweep_validation():
    with pytest.raises(ValueError):
        superact.sweep([])
    with pytest.raises(ValueError):
        superact.sweep([0.5, 1.5])


def test_decomposition_product_additive(rng):
    for _ in range(20):
        r1, r2 = random_density(rng), random_density(rng)
        s1, s2 = random_density(rng), random_density(rng)
        lhs, rhs = superact.decomposition_check(r1, r2, s1, s2)
        assert abs(lhs - rhs) < 1e-9


def test_decomposition_bell_gap():
    bell = states.pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    # mix slightly so the joint divergence is finite
    bell = 0.999999 * bell + 1e-6 * np.eye(4) / 4.0
    lhs, rhs = superact.decomposition_check(bell, np.eye(4) / 4.0)
    assert lhs - rhs > 0.99  # entanglement makes the joint strictly larger
    prod = states.tensor(np.eye(2) / 2.0, np.diag([0.7, 0.3]).astype(complex))
    lhs2, rhs2 = superact.decomposition_check(prod, np.eye(4) / 4.0)
    assert abs(lhs2 - rhs2) < 1e-9  # product states close the gap


def test_parse_model_file():
    text = "# comment\nP1_horodecki = 0.04\nwindow_lo = 0.001\nwindow_hi = 0.005\n"
    m = superact.parse_model_file(text)
    assert m.P1_horodecki == 0.04
    assert m.activation_window == (0.001, 0.005)
    assert m.r_H2_inside == pytest.approx(0.02)
