import time

import numpy as np
import pytest

from qgeomcap import channels, states

from conftest import random_bloch, random_density

QUBIT_KINDS = [
    ("identity", {}),
    ("bit_flip", {"p": 0.3}),
    ("phase_flip", {"p": 0.25}),
    ("bit_phase_flip", {"p": 0.4}),
    ("depolarizing", {"p": 0.5}),
    ("amplitude_damping", {"p": 0.35}),
    ("dephasing", {"p": 0.6}),
]


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        channels.KrausChannel([np.eye(2) * 0.5], 2, 2)


def test_kraus_shape_enforced():
    with pytest.raises(ValueError):
        channels.KrausChannel([np.eye(3)], 2, 2)


@pytest.mark.parametrize("kind,params", QUBIT_KINDS)
def test_apply_preserves_density(kind, params, rng):
    ch = channels.build_channel(channels.ChannelSpec(kind, params))
    for _ in range(10):
        out = channels.apply(ch, random_density(rng))
        assert np.abs(out - out.conj().T).max() <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10


@pytest.mark.parametrize("kind,params", QUBIT_KINDS)
def test_affine_map_matches_kraus(kind, params, rng):
    ch = channels.build_channel(channels.ChannelSpec(kind, params))
    aff = channels.kraus_to_affine(ch)
    rs = np.array([random_bloch(rng) for _ in range(20)])
    via_kraus = states.density_to_bloch(channels.apply(ch, states.bloch_to_density(rs)))
    assert np.allclose(aff(rs), via_kraus, atol=1e-10)
    for r, want in zip(rs, via_kraus):
        assert np.allclose(aff(r), want, atol=1e-10)


def test_unital_kinds_have_zero_shift():
    for kind in ("bit_flip", "phase_flip", "bit_phase_flip", "depolarizing",
                 "dephasing"):
        ch = channels.build_channel(channels.ChannelSpec(kind, {"p": 0.3}))
        aff = channels.kraus_to_affine(ch)
        assert np.linalg.norm(aff.b) < 1e-12


def test_complementary_matches_isometry_oracle(rng):
    # the environment output of the complementary channel must equal the
    # environment reduction of U rho U^dag for the explicit isometry U
    for kind, params in QUBIT_KINDS:
        ch = channels.build_channel(channels.ChannelSpec(kind, params))
        comp = channels.complementary_channel(ch)
        u = channels.isometric_extension(ch)
        assert np.allclose(u.conj().T @ u, np.eye(ch.in_dim), atol=1e-12)
        k = len(ch.kraus)
        for _ in range(5):
            rho = random_density(rng)
            joint = u @ rho @ u.conj().T
            env = states.partial_trace(joint, "B", (ch.out_dim, k))
            sys = states.partial_trace(joint, "A", (ch.out_dim, k))
            assert np.abs(env - channels.apply(comp, rho)).max() < 1e-9
            assert np.abs(sys - channels.apply(ch, rho)).max() < 1e-9


@pytest.mark.parametrize("kind,params", QUBIT_KINDS + [("erasure", {"p": 0.3})])
def test_apply_on_a_stack_equals_one_state_calls(kind, params, rng):
    ch = channels.build_channel(channels.ChannelSpec(kind, params))
    rhos = np.array([random_density(rng) for _ in range(6)])
    outs = channels.apply(ch, rhos.reshape(2, 3, 2, 2))
    assert outs.shape == (2, 3, ch.out_dim, ch.out_dim)
    for out, rho in zip(outs.reshape(6, ch.out_dim, ch.out_dim), rhos):
        assert np.array_equal(out, channels.apply(ch, rho))
        # the per-operator loop, summed in the same order
        assert np.array_equal(out, sum(k @ rho @ k.conj().T for k in ch.kraus))
    assert ch.kraus.shape == (len(ch.kraus), ch.out_dim, ch.in_dim)


def test_kraus_array_forms_match_the_operator_loops():
    ch = channels.build_channel(channels.ChannelSpec("erasure", {"p": 0.3}))
    ch2 = channels.build_channel(channels.ChannelSpec("depolarizing", {"p": 0.2}))
    k = len(ch.kraus)
    comp = [np.array([ki[m] for ki in ch.kraus]) for m in range(ch.out_dim)]
    assert np.array_equal(channels.complementary_channel(ch).kraus, comp)
    iso = sum(np.kron(ki, np.eye(k)[:, [i]]) for i, ki in enumerate(ch.kraus))
    assert np.array_equal(channels.isometric_extension(ch), iso)
    ops = [np.kron(a, b) for a in ch.kraus for b in ch2.kraus]
    assert np.array_equal(channels.tensor_channels(ch, ch2).kraus, ops)


def test_tensor_channels_on_product_states(rng):
    ch1 = channels.build_channel(channels.ChannelSpec("amplitude_damping", {"p": 0.3}))
    ch2 = channels.build_channel(channels.ChannelSpec("erasure", {"p": 0.4}))
    joint = channels.tensor_channels(ch1, ch2)
    assert joint.kraus.shape == (6, 6, 4)
    pairs = [(random_density(rng), random_density(rng)) for _ in range(5)]
    outs = channels.apply(joint, np.array([states.tensor(a, b) for a, b in pairs]))
    for out, (a, b) in zip(outs, pairs):
        want = states.tensor(channels.apply(ch1, a), channels.apply(ch2, b))
        assert np.abs(out - want).max() < 1e-14


def test_erasure_channel_flags():
    ch = channels.build_channel(channels.ChannelSpec("erasure", {"p": 0.5}))
    rho = states.pure_state(np.array([1.0, 0.0]))
    out = channels.apply(ch, rho)
    assert out.shape == (3, 3)
    assert abs(out[2, 2] - 0.5) < 1e-12
    assert abs(out[0, 0] - 0.5) < 1e-12


def test_cp_check_eta():
    assert channels.cp_check_eta((0.5, 0.5, 0.5))
    assert channels.cp_check_eta((1.0, 1.0, 1.0))
    assert not channels.cp_check_eta((1.0, 1.0, -1.0))
    assert not channels.cp_check_eta((0.9, 0.9, 0.0))


def test_tensor_channels(rng):
    ch1 = channels.build_channel(channels.ChannelSpec("bit_flip", {"p": 0.3}))
    ch2 = channels.build_channel(channels.ChannelSpec("dephasing", {"p": 0.4}))
    joint = channels.tensor_channels(ch1, ch2)
    rho1, rho2 = random_density(rng), random_density(rng)
    lhs = channels.apply(joint, states.tensor(rho1, rho2))
    rhs = states.tensor(channels.apply(ch1, rho1), channels.apply(ch2, rho2))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_parse_channel_spec_basic():
    spec = channels.parse_channel_spec('kind = "depolarizing"\np = 0.25\n')
    assert spec.kind == "depolarizing"
    assert spec.params["p"] == 0.25
    ch = channels.build_channel(spec)
    assert ch.in_dim == 2


def test_parse_channel_spec_declared():
    text = (
        'kind = "declared_capacity"\n'
        "private_capacity_bits = 0.02\n"
        "activation_window = [0.0, 0.0041]\n"
    )
    spec = channels.parse_channel_spec(text)
    assert spec.private_capacity_bits == 0.02
    assert spec.activation_window == (0.0, 0.0041)
    with pytest.raises(ValueError):
        channels.build_channel(spec)


def test_parse_channel_spec_errors():
    with pytest.raises(ValueError):
        channels.parse_channel_spec("p = 0.5\n")  # missing kind
    with pytest.raises(ValueError):
        channels.parse_channel_spec("kind depolarizing\n")
    with pytest.raises(ValueError):
        channels.parse_channel_spec('kind = "no_such_channel"\n')


def test_custom_kraus_round_trip(rng):
    ch = channels.build_channel(channels.ChannelSpec("amplitude_damping", {"p": 0.3}))
    text = 'kind = "custom_kraus"\nkraus = ' + repr(
        [channels.matrix_to_pairs(k) for k in ch.kraus]
    )
    spec = channels.parse_channel_spec(text)
    ch2 = channels.build_channel(spec)
    rho = random_density(rng)
    assert np.abs(channels.apply(ch, rho) - channels.apply(ch2, rho)).max() < 1e-12


def test_bad_parameter_range():
    with pytest.raises(ValueError):
        channels.build_channel(channels.ChannelSpec("bit_flip", {"p": 1.5}))


def test_apply_bounds_the_kraus_products_it_holds():
    """On a 40-symbol cyclic channel (80 Kraus operators) with its 40
    diagonal inputs, the unchunked products took 159 MiB for a 0.98 MiB
    result; a chunk at a time they stay within 8 MiB, with each output
    equal bit for bit to the state's own products summed."""
    import tracemalloc

    m = 40
    ops = []
    for i in range(m):
        for o in (i, (i + 1) % m):
            op = np.zeros((m, m), dtype=complex)
            op[o, i] = np.sqrt(0.5)
            ops.append(op)
    ch = channels.KrausChannel(ops, m, m)
    inputs = np.eye(m)[:, :, None] * np.eye(m).astype(complex)
    tracemalloc.start()
    try:
        outs = channels.apply(ch, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    k_dag = ch.kraus.conj().transpose(0, 2, 1)
    for rho, out in zip(inputs, outs):
        assert out.tobytes() == (ch.kraus @ rho @ k_dag).sum(axis=0).tobytes()


def test_apply_refuses_an_output_stack_over_the_byte_cap():
    """A qubit-to-1024 isometry on the 268 default candidate inputs would
    form 4.5 GB of outputs: ResourceCapError, before any is formed."""
    from qgeomcap import capacity
    from qgeomcap.errors import ResourceCapError

    iso = np.zeros((1024, 2), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    ch = channels.KrausChannel([iso], 2, 1024)
    with pytest.raises(ResourceCapError, match="268 states of dimension 1024"):
        channels.apply(ch, capacity.qubit_candidate_states())
    # 16 such outputs take exactly the cap, which is allowed
    channels.check_stack_bytes(16, 1024, "outputs")
    with pytest.raises(ResourceCapError, match="^outputs: 17 states"):
        channels.check_stack_bytes(17, 1024, "outputs")


def test_identity_at_the_largest_dimension_builds_in_under_a_second():
    """The completeness sum at in_dim MAX_SPEC_DIM is one BLAS matmul (an
    einsum over the Kraus axes took 3.2 s), and it still sees a Kraus set
    scaled by 0.999."""
    t0 = time.perf_counter()
    ch = channels.build_channel(channels.ChannelSpec("identity", in_dim=channels.MAX_SPEC_DIM))
    assert time.perf_counter() - t0 < 1.0
    assert ch.kraus.shape == (1, channels.MAX_SPEC_DIM, channels.MAX_SPEC_DIM)
    with pytest.raises(ValueError, match="completeness"):
        channels.KrausChannel(0.999 * ch.kraus, channels.MAX_SPEC_DIM, channels.MAX_SPEC_DIM)
