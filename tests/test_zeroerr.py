import itertools
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from qgeomcap import capacity, channels, states, zeroerr
from qgeomcap.zeroerr import ConfusabilityGraph, MuSimilarDomain


def _chan(kind, p):
    return channels.build_channel(channels.ChannelSpec(kind, {"p": p}))


def _classical(prob):
    """Channel with Kraus sqrt(P(out|in)) |out><in| for a column-stochastic P."""
    n_out, n_in = prob.shape
    ops = []
    for i in range(n_in):
        for o in range(n_out):
            if prob[o, i] > 0.0:
                op = np.zeros((n_out, n_in), dtype=complex)
                op[o, i] = np.sqrt(prob[o, i])
                ops.append(op)
    return channels.KrausChannel(ops, n_in, n_out)


def _diagonal_inputs(m, scale=1.0):
    return [scale * np.diag(np.eye(m)[i]).astype(complex) for i in range(m)]


def _shared_output_channel(e):
    """Inputs 0 and 1 keep their own output w.p. 1 - e and share output 2 w.p. e."""
    return _classical(np.array([[1 - e, 0.0], [0.0, 1 - e], [e, e]]))


# ---------------------------------------------------------------------------
# graphs, independent sets, rates


def brute_force_mis(graph):
    """Oracle: maximum independent set by exhaustive subset enumeration."""
    n = graph.vertex_count
    best = 0
    for mask in range(1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if all((min(a, b), max(a, b)) not in graph.edges
               for a, b in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return best


def strong_product(g1, g2):
    """Oracle: strong graph product with vertex index u * |V2| + v."""
    n2 = g2.vertex_count
    edges = set()
    for (u1, v1), (u2, v2) in itertools.combinations(
            itertools.product(range(g1.vertex_count), range(n2)), 2):
        same_or_adj_1 = u1 == u2 or (min(u1, u2), max(u1, u2)) in g1.edges
        same_or_adj_2 = v1 == v2 or (min(v1, v2), max(v1, v2)) in g2.edges
        if same_or_adj_1 and same_or_adj_2:
            a, b = u1 * n2 + v1, u2 * n2 + v2
            edges.add((min(a, b), max(a, b)))
    return ConfusabilityGraph.from_edges(g1.vertex_count * n2, edges)


def test_pentagon_single_use():
    ch = zeroerr.pentagon_channel()
    res = zeroerr.zero_error_rate(ch, zeroerr.pentagon_inputs(), 1)
    assert res.K == 2
    assert res.rate_bits == pytest.approx(1.0)


def test_pentagon_two_uses():
    ch = zeroerr.pentagon_channel()
    res = zeroerr.zero_error_rate(ch, zeroerr.pentagon_inputs(), 2)
    assert res.K == 5
    assert res.rate_bits == pytest.approx(0.5 * np.log2(5.0), abs=1e-9)
    assert len(res.witness) == 5


def _seed_rate(k, n_uses, epr_normalized):
    """Reference: the rate expression answers were built with when they
    stored K and rate_bits."""
    rate = np.log2(k) / n_uses if k >= 1 else 0.0
    if epr_normalized:
        rate *= 0.5
    return float(rate)


def test_result_derives_k_and_rate_from_witness():
    for k in range(0, 40):
        for n_uses in range(1, 6):
            for epr in (False, True):
                res = zeroerr.ZeroErrorResult(list(range(k)), n_uses, epr)
                assert res.K == k == len(res.witness)
                assert res.rate_bits == _seed_rate(k, n_uses, epr)
                assert type(res.rate_bits) is float
    for epr in (False, True):
        res = zeroerr.zero_error_rate(zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 2,
                                      epr_normalized=epr)
        assert res.K == len(res.witness) == 5
        assert res.rate_bits == _seed_rate(5, 2, epr)


def test_zero_error_answers_keep_few_bytes():
    """A kept answer holds its witness as 2-byte codewords, n_uses and the
    EPR flag in slots: 109 B at K = 10, where a witness list took about
    180 B and an answer that also stored K and rate_bits, in an instance
    dict, about 240 B."""
    # 10 disjoint edges: K = 10
    graph = ConfusabilityGraph.from_edges(20, {(2 * i, 2 * i + 1) for i in range(10)})
    # warm numpy's small-allocation caches, which would be counted otherwise
    assert all(zeroerr.solve_zero_error(graph, 2).K == 10 for _ in range(200))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [zeroerr.solve_zero_error(graph, 2) for _ in range(100)]
        per_answer = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    assert all(res.K == 10 for res in kept)
    assert per_answer <= 128, per_answer
    assert sys.getsizeof(kept[0]) + sys.getsizeof(kept[0]._witness) == 109


def test_result_round_trips_its_witness():
    for witness in ([], [0], [3, 1, 4, 1, 5], list(range(0, zeroerr.MAX_VERTICES, 97)),
                    [zeroerr.MAX_VERTICES - 1], np.arange(7, 70, 7)):
        for n_uses in (1, 2, 3):
            for epr in (False, True):
                res = zeroerr.ZeroErrorResult(witness, n_uses, epr)
                assert res.witness == list(map(int, witness))
                assert all(type(v) is int for v in res.witness)
                assert res.K == len(witness)
                assert res.rate_bits.hex() == _seed_rate(len(witness), n_uses, epr).hex()
                assert (res.n_uses, res.epr_normalized) == (n_uses, epr)
    res = zeroerr.ZeroErrorResult([2, 7], 2)
    res.witness.append(9)  # a copy: the answer is not changed through it
    assert res.witness == [2, 7] and res.K == 2
    assert repr(res) == "ZeroErrorResult(witness=[2, 7], n_uses=2, epr_normalized=False)"


def test_two_use_graph_is_strong_product():
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    g1 = zeroerr.build_confusability_graph(ch, ins, 1)
    g2 = zeroerr.build_confusability_graph(ch, ins, 2)
    assert g2.edges == strong_product(g1, g1).edges


def seed_graph_edges(ch, inputs, n_uses, tol=zeroerr.ADJACENCY_TOL):
    """Reference: the strong power by its definition, pair by pair: codewords
    a != b are confusable when, at every use, their symbols are equal or the
    outputs of the two inputs overlap by more than tol, each overlap
    computed on its own."""
    m = len(inputs)
    joined = np.eye(m, dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            joined[i, j] = joined[j, i] = zeroerr.output_overlap(ch, inputs[i], inputs[j]) > tol
    verts = list(itertools.product(range(m), repeat=n_uses))
    return {(a, b) for a, b in itertools.combinations(range(len(verts)), 2)
            if all(joined[i, j] for i, j in zip(verts[a], verts[b]))}


def strong_power_adjacency(ch, inputs, n_uses, tol=zeroerr.ADJACENCY_TOL):
    """Reference: the n_uses-th np.kron power of the one-use adjacency with
    its diagonal set, cleared on the diagonal."""
    factor = seed_one_use_adjacency(ch, inputs, tol) | np.eye(len(inputs), dtype=bool)
    power = np.ones((1, 1), dtype=bool)
    for _ in range(n_uses):
        power = np.kron(power, factor)
    np.fill_diagonal(power, False)
    return power


def _circulant(matrix):
    """Reference: every row is the first row turned right by its index."""
    return all(np.array_equal(row, np.roll(matrix[0], i)) for i, row in enumerate(matrix))


def _assert_build_parity(ch, inputs, n_uses, tol, loops=True):
    """The build equals the Kronecker strong power bit for bit and, up to
    400 vertices, the strong product oracle and the pairwise rule; it is
    flagged cyclic exactly when the one-use adjacency is circulant. The
    pairwise rule computes each overlap on its own, which may differ in the
    last bit from the batched table, so the loops are left out at
    thresholds set to one of the overlaps."""
    g = zeroerr.build_confusability_graph(ch, inputs, n_uses, tol)
    one = seed_one_use_adjacency(ch, inputs, tol)
    assert g.vertex_count == len(inputs) ** n_uses
    assert np.array_equal(g.adjacency, strong_power_adjacency(ch, inputs, n_uses, tol))
    assert g.cyclic == _circulant(one)
    if loops and g.vertex_count <= 400:
        oracle = single = ConfusabilityGraph(one)
        for _ in range(n_uses - 1):
            oracle = strong_product(oracle, single)
        assert g.edges == oracle.edges
        assert g.edges == seed_graph_edges(ch, inputs, n_uses, tol)


def _overlap_table(ch, inputs):
    outs = channels.apply(ch, np.array(inputs))
    return np.real(np.einsum("iab,jba->ij", outs, outs))


_PARITY_TOLS = (0.0, zeroerr.ADJACENCY_TOL, 0.3)


@pytest.mark.parametrize("tol", _PARITY_TOLS)
@pytest.mark.parametrize("m", [4, 5, 7, 9, 10])
def test_build_is_the_strong_power_on_cyclic_channels(m, tol):
    for n_uses in range(1, 5):
        for spread in (2, 3):
            _assert_build_parity(_cyclic(m, spread), _diagonal_inputs(m), n_uses, tol)


def _assert_parity_at(ch, inputs, n_uses, tol):
    """Parity at one threshold, or with tol = "overlaps" at every one-use
    overlap, in both orientations where Tr(AB) and Tr(BA) differ in the
    last bit."""
    if tol != "overlaps":
        _assert_build_parity(ch, inputs, n_uses, tol)
        return
    for t in set(_overlap_table(ch, inputs).ravel()):
        _assert_build_parity(ch, inputs, n_uses, t, loops=False)


@pytest.mark.parametrize("tol", [*_PARITY_TOLS, "overlaps"])
@pytest.mark.parametrize("seed", range(1, 9))
def test_build_is_the_strong_power_on_random_classical_channels(seed, tol):
    ch = _random_classical(np.random.default_rng(seed))
    for n_uses in (1, 2, 3):
        _assert_parity_at(ch, _diagonal_inputs(ch.in_dim), n_uses, tol)


def _random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return states.pure_state(v / np.linalg.norm(v))


def test_build_is_the_strong_power_on_random_qutrit_channels():
    rng = np.random.default_rng(11)
    split = 0
    for _ in range(4):
        ch = _random_kraus(rng, 3, 3)
        inputs = [_random_pure(rng, 3) for _ in range(5)]
        table = _overlap_table(ch, inputs)
        split += np.count_nonzero(table != table.T)
        for n_uses in (1, 2, 3):
            for tol in (*_PARITY_TOLS, "overlaps"):
                _assert_parity_at(ch, inputs, n_uses, tol)
    assert split


def test_build_at_an_exact_overlap():
    # |0> and |+> through the identity: overlap 0.5 exactly. An overlap
    # equal to tol is no edge; with tol one ulp below it, it is one, and
    # the two-use graph is then complete
    ch = channels.KrausChannel([np.eye(2)], 2, 2)
    inputs = [np.diag([1.0, 0.0]).astype(complex), np.full((2, 2), 0.5, dtype=complex)]
    assert zeroerr.output_overlap(ch, inputs[0], inputs[1]) == 0.5
    below = np.nextafter(0.5, 0.0)
    for tol in (0.5, below, np.nextafter(0.5, 1.0)):
        for n_uses in (1, 2):
            _assert_build_parity(ch, inputs, n_uses, tol)
    assert zeroerr.build_confusability_graph(ch, inputs, 1, 0.5).edges == set()
    assert zeroerr.build_confusability_graph(ch, inputs, 1, below).edges == {(0, 1)}
    assert zeroerr.build_confusability_graph(ch, inputs, 2, 0.5).edges == set()
    assert len(zeroerr.build_confusability_graph(ch, inputs, 2, below).edges) == 6


def test_build_rejects_non_finite_inputs():
    # a NaN passes the trace test (|NaN - 1| > tol is False, and an entry
    # off the diagonal is not in the trace), and the NaN overlaps it gives
    # drop edges: K was 3 on the pentagon, where alpha = 2
    ch = zeroerr.pentagon_channel()
    for entry in ((1, 1), (2, 3)):
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            inputs = zeroerr.pentagon_inputs()
            inputs[1] = inputs[1].copy()
            inputs[1][entry] = bad
            with pytest.raises(ValueError, match="input 1 has a non-finite entry"):
                zeroerr.zero_error_rate(ch, inputs, 1)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
def test_build_rejects_bad_tolerances(tol):
    # tol = NaN made no edges (K = 5 on the pentagon) and tol = -1 the
    # complete graph (K = 1)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        zeroerr.zero_error_rate(zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), 2, tol=tol)


def test_strong_power_build_holds_no_float_per_pair():
    # pentagon^5, 3 125 vertices: the adjacency is 9.8 MB of bools, and a
    # float per vertex pair would be 78 MB. Beside it the build holds only
    # pentagon^4 (0.4 MB); the float product over the uses peaked at 11.2 MB
    ch, inputs = zeroerr.pentagon_channel(), zeroerr.pentagon_inputs()
    tracemalloc.start()
    try:
        g = zeroerr.build_confusability_graph(ch, inputs, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = g.vertex_count
    assert n == 3125 and len(g.edges) == (15**5 - 5**5) // 2
    assert peak < 1.1 * n * n, peak


def seed_one_use_adjacency(ch, inputs, tol=zeroerr.ADJACENCY_TOL):
    """Reference: the one-use build before it was chunked, kept verbatim:
    the whole overlap table, its upper triangle mirrored, compared with tol."""
    inputs = np.array(list(inputs), dtype=complex)
    outs = channels.apply(ch, inputs)
    table = np.triu(np.real(np.einsum("iab,jba->ij", outs, outs)))
    table += np.triu(table, 1).T
    adjacency = table > tol
    np.fill_diagonal(adjacency, False)
    return adjacency


@pytest.mark.parametrize("d", [2, 3, 5])
def test_one_use_build_matches_the_whole_table(monkeypatch, d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        ch = _random_kraus(rng, d, int(rng.integers(1, 4)))
        inputs = [_random_pure(rng, d) for _ in range(int(rng.integers(20, 40)))]
        outs = channels.apply(ch, np.array(inputs))
        table = np.real(np.einsum("iab,jba->ij", outs, outs))
        # thresholds at overlaps, in both orientations of a pair
        tols = [zeroerr.ADJACENCY_TOL, *rng.choice(table.ravel(), 12, replace=False)]
        # chunks of two rows (a one-row tail joins the chunk before it), of
        # five, and the whole table
        for chunk_bytes in (1, 16 * 5 * len(inputs), zeroerr._CHUNK_BYTES):
            monkeypatch.setattr(zeroerr, "_CHUNK_BYTES", chunk_bytes)
            for tol in tols:
                adj = zeroerr.build_confusability_graph(ch, inputs, 1, tol).adjacency
                assert np.array_equal(adj, seed_one_use_adjacency(ch, inputs, tol))
            # the upper rows of each chunk are the whole table's, bit for bit
            for start, stop, upper in zeroerr._overlap_rows(outs):
                assert stop - start >= 2
                assert upper.tobytes() == table[start:stop, start:].tobytes()


def test_one_use_build_holds_no_overlap_table():
    # 1 000 inputs: the adjacency is 1 MB of bools; the whole complex table
    # was 16 MB and the build peaked at 24 MiB
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(1000)]
    ch = _chan("amplitude_damping", 0.3)
    tracemalloc.start()
    try:
        g = zeroerr.build_confusability_graph(ch, grid, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.adjacency, seed_one_use_adjacency(ch, grid))
    assert peak < 4 * 2**20, peak


def _random_classical(rng):
    m = int(rng.integers(5, 8))
    prob = np.zeros((m, m))
    for i in range(m):
        outs = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
        prob[outs, i] = rng.dirichlet(np.ones(len(outs)))
    return _classical(prob)


def _cyclic(m, spread):
    prob = np.zeros((m, m))
    for i in range(m):
        for s in range(spread):
            prob[(i + s) % m, i] = 1.0 / spread
    return _classical(prob)


def _build_cases():
    cases = [pytest.param(zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), n,
                          id=f"pentagon-n{n}") for n in (1, 2, 3)]
    cases.append(pytest.param(_cyclic(9, 3), _diagonal_inputs(9), 2, id="C9-spread3-n2"))
    rng = np.random.default_rng(7)
    for k in range(4):
        ch = _random_classical(rng)
        cases.append(pytest.param(ch, _diagonal_inputs(ch.in_dim), 2, id=f"random{k}-n2"))
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(50)]
    cases.append(pytest.param(_chan("amplitude_damping", 0.3), grid, 1, id="qubit-grid50"))
    return cases


@pytest.mark.parametrize("ch,inputs,n_uses", _build_cases())
def test_build_matches_pairwise_reference(ch, inputs, n_uses):
    g = zeroerr.build_confusability_graph(ch, inputs, n_uses)
    assert g.vertex_count == len(inputs) ** n_uses
    assert g.edges == seed_graph_edges(ch, inputs, n_uses)


def test_build_rejects_unnormalised_inputs():
    # overlaps of unnormalised inputs scale with their traces, so tol would
    # not set the same bar for every pair
    ch = _shared_output_channel(1e-8)
    with pytest.raises(ValueError, match="input 0 has trace 1000, not 1"):
        zeroerr.build_confusability_graph(ch, _diagonal_inputs(2, scale=1e3), 3)
    # the CLI reader's rule: a trace within 1e-9 of 1 passes
    inputs = _diagonal_inputs(2)
    inputs[1] = inputs[1] * (1.0 + 5e-10)
    assert zeroerr.build_confusability_graph(ch, inputs, 1).vertex_count == 2
    inputs[1] = _diagonal_inputs(2)[1] * (1.0 + 2e-9)
    with pytest.raises(ValueError, match="input 1 has trace 1.000000002, not 1"):
        zeroerr.build_confusability_graph(ch, inputs, 1)


def test_adjacency_tol_rule():
    ch = _shared_output_channel(np.sqrt(1e-5))
    ins = _diagonal_inputs(2)
    overlap = zeroerr.output_overlap(ch, ins[0], ins[1])
    assert overlap == pytest.approx(1e-5) and overlap > zeroerr.ADJACENCY_TOL
    assert zeroerr.build_confusability_graph(ch, ins, 1).edges == {(0, 1)}
    # (0, 0) vs (1, 1): confusable at each use, so confusable, although the
    # product of the two overlaps, 1e-10, is <= tol
    g2 = zeroerr.build_confusability_graph(ch, ins, 2)
    assert (0, 3) in g2.edges
    assert (0, 1) in g2.edges
    # an overlap exactly at tol is non-adjacent, just above it is adjacent
    assert zeroerr.build_confusability_graph(ch, ins, 1, tol=overlap).edges == set()
    assert zeroerr.build_confusability_graph(
        ch, ins, 1, tol=np.nextafter(overlap, 0.0)).edges == {(0, 1)}


def test_pairs_confusable_at_every_use_stay_confusable():
    # the float product over the uses fell below tol and dropped these
    # edges: K was 2 at n = 2 and 4 at n = 3 on a channel whose zero-error
    # capacity is 0
    ch = _shared_output_channel(np.sqrt(1e-5))
    for n_uses in (1, 2, 3):
        assert zeroerr.zero_error_rate(ch, _diagonal_inputs(2), n_uses).K == 1
    # K was 11 on this channel at n = 3 (the true K is 10), with this
    # witness, which holds a pair the channel can confuse
    ch = _random_classical(np.random.default_rng(5))
    g = zeroerr.build_confusability_graph(ch, _diagonal_inputs(ch.in_dim), 3)
    witness = [48, 133, 145, 164, 200, 212, 230, 245, 278, 312, 338]
    assert g.adjacency[np.ix_(witness, witness)].any()


def milp_mis(graph):
    """Oracle: independence number by the MILP max sum x, x_a + x_b <= 1."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n = graph.vertex_count
    pairs = np.array(sorted(graph.edges)).reshape(-1, 2)
    rows = np.repeat(np.arange(len(pairs)), 2)
    mat = coo_matrix((np.ones(len(rows)), (rows, pairs.ravel())), shape=(len(pairs), n))
    res = milp(-np.ones(n), constraints=[LinearConstraint(mat, -np.inf, 1.0)],
               integrality=np.ones(n), bounds=Bounds(0.0, 1.0))
    assert res.status == 0
    return int(round(-res.fun))


def _random_graph(rng, n, density):
    edges = {(a, b) for a, b in itertools.combinations(range(n), 2)
             if rng.uniform() < density}
    return ConfusabilityGraph.from_edges(n, edges)


def _assert_independent(graph, k, witness):
    assert len(witness) == len(set(witness)) == k
    assert all(0 <= v < graph.vertex_count for v in witness)
    assert not any((a, b) in graph.edges for a, b in itertools.combinations(sorted(witness), 2))


def test_max_independent_set_matches_brute_force(rng):
    for n in range(1, 13):
        for density in (0.1, 0.3, 0.6):
            g = _random_graph(rng, n, density)
            k, witness = zeroerr.max_independent_set(g)
            assert k == brute_force_mis(g)
            _assert_independent(g, k, witness)


def test_max_independent_set_matches_milp(rng):
    for n in (20, 30, 40, 50, 60):
        for density in (0.1, 0.3, 0.5):
            g = _random_graph(rng, n, density)
            k, witness = zeroerr.max_independent_set(g)
            assert k == milp_mis(g), (n, density)
            _assert_independent(g, k, witness)


def test_max_independent_set_edgeless_complete_and_deep():
    k, witness = zeroerr.max_independent_set(ConfusabilityGraph.from_edges(1500, set()))
    assert k == 1500 and witness == list(range(1500))
    # 250 copies of a 6-vertex graph on which the greedy start finds 3 of
    # alpha = 4: the search goes 1000 levels deep
    copy = [(0, 4), (1, 3), (1, 5), (3, 4), (4, 5)]
    union = {(a + 6 * c, b + 6 * c) for c in range(250) for a, b in copy}
    g = ConfusabilityGraph.from_edges(1500, union)
    k, witness = zeroerr.max_independent_set(g)
    assert k == 1000
    _assert_independent(g, k, witness)
    complete = set(itertools.combinations(range(200), 2))
    k, witness = zeroerr.max_independent_set(ConfusabilityGraph.from_edges(200, complete))
    assert k == 1 and len(witness) == 1


def test_branch_node_cap(monkeypatch):
    # C7^2: the search from codeword 0 solves pentagon^2 in fewer than 5 nodes
    ch = _cyclic(7, 2)
    ins = _diagonal_inputs(7)
    assert zeroerr.zero_error_rate(ch, ins, 2).K == 10
    monkeypatch.setattr(zeroerr, "MAX_BRANCH_NODES", 5)
    with pytest.raises(zeroerr.ResourceCapError):
        zeroerr.zero_error_rate(ch, ins, 2)


def _unflagged(graph):
    """The same adjacency as a graph not marked cyclic: the full search."""
    return ConfusabilityGraph(graph.adjacency, graph.labels)


def _greedy_witness(graph):
    """Reference: the search's first incumbent, greedy in ascending-degree
    order (ties by index)."""
    adj = graph.adjacency
    chosen, blocked = [], np.zeros(len(adj), dtype=bool)
    for v in np.argsort(adj.sum(axis=1), kind="stable").tolist():
        if not blocked[v]:
            chosen.append(v)
            blocked |= adj[v]
    return sorted(chosen)


# (m, spread, n_uses) whose full search takes at most a few ms: C5^3 takes
# 4 s, C7^3 and C10^3 reach the node cap
_CYCLIC_CASES = [(m, spread, n) for m in (4, 5, 7, 9, 10) for spread in (2, 3)
                 for n in (1, 2, 3) if n < 3 or (m, spread) in {(4, 2), (4, 3), (5, 3), (9, 3)}]


@pytest.mark.parametrize("m,spread,n_uses", _CYCLIC_CASES)
def test_search_from_codeword_0_on_cyclic_channels(m, spread, n_uses):
    g = zeroerr.build_confusability_graph(_cyclic(m, spread), _diagonal_inputs(m), n_uses)
    assert g.cyclic
    k, witness = zeroerr.max_independent_set(g)
    k_full, witness_full = zeroerr.max_independent_set(_unflagged(g))
    assert k == k_full
    _assert_independent(g, k, witness)
    if g.vertex_count <= 16:
        assert k == brute_force_mis(g)
    # the witness is the greedy incumbent unless the search beat it, and
    # then it holds codeword 0
    greedy = _greedy_witness(g)
    assert witness == greedy or (len(greedy) < k and 0 in witness)
    if len(greedy) == k:
        assert witness == witness_full == greedy


def test_search_from_codeword_0_on_random_circulant_channels():
    # input i goes to outputs i + D (mod m) uniformly: the table depends on
    # j - i only, and the graph joins i and j when j - i is in D - D
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(5, 10))
        shifts = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
        prob = np.zeros((m, m))
        for i in range(m):
            prob[(i + shifts) % m, i] = 1.0 / len(shifts)
        for n_uses in (1, 2):
            g = zeroerr.build_confusability_graph(_classical(prob), _diagonal_inputs(m), n_uses)
            assert g.cyclic
            k, witness = zeroerr.max_independent_set(g)
            assert k == zeroerr.max_independent_set(_unflagged(g))[0], (m, shifts, n_uses)
            _assert_independent(g, k, witness)


def test_pentagon_cubed_in_under_a_second():
    # the full search took 2.7 s; from codeword 0 about 0.1 s
    ch, inputs = zeroerr.pentagon_channel(), zeroerr.pentagon_inputs()
    t0 = time.perf_counter()
    res = zeroerr.zero_error_rate(ch, inputs, 3)
    elapsed = time.perf_counter() - t0
    assert res.K == 10 and 0 in res.witness
    assert elapsed < 1.0, elapsed
    g = zeroerr.build_confusability_graph(ch, inputs, 3)
    _assert_independent(g, res.K, res.witness)


def test_flag_needs_a_circulant_table(monkeypatch):
    ch, inputs = zeroerr.pentagon_channel(), zeroerr.pentagon_inputs()
    # inputs 0 and 1 swapped: the graph is still a 5-cycle, but its
    # adjacency is not circulant in this order (an order i -> c i mod 5
    # would be)
    swapped = [inputs[1], inputs[0], *inputs[2:]]
    # one Kraus entry of input 2 one ulp larger: its overlaps with itself and
    # with input 3 move up by one ulp, so the overlap table is no longer
    # circulant, but no edge moves and the graph is flagged at every n
    kraus = ch.kraus.copy().reshape(5, 2, 5, 5)
    kraus[2, 1, 3, 2] = np.nextafter(np.sqrt(0.5), 1.0)
    skewed = channels.KrausChannel(kraus.reshape(10, 5, 5), 5, 5)
    moved = _overlap_table(skewed, inputs) != _overlap_table(ch, inputs)
    assert moved.sum() == 3 and moved[2, 2] and moved[2, 3] and moved[3, 2]
    assert (np.nextafter(_overlap_table(ch, inputs), 1.0)[moved]
            == _overlap_table(skewed, inputs)[moved]).all()
    # a path: input i goes to outputs i and i + 1 of 6, so the table depends
    # on j - i but does not wrap around
    prob = np.zeros((6, 5))
    for i in range(5):
        prob[i, i] = prob[i + 1, i] = 0.5
    path = _classical(prob)
    # witnesses of the full search before the search from codeword 0
    parent = {("swapped", 1): [0, 3], ("swapped", 2): [1, 7, 13, 15, 24],
              ("skewed", 1): [0, 2], ("skewed", 2): [1, 8, 10, 17, 24],
              ("path", 1): [0, 2, 4], ("path", 2): [0, 2, 4, 10, 12, 14, 20, 22, 24]}
    for name, ch_, ins in (("swapped", ch, swapped), ("skewed", skewed, inputs),
                           ("path", path, inputs)):
        for n_uses in (1, 2, 3):
            g = zeroerr.build_confusability_graph(ch_, ins, n_uses)
            assert g.cyclic == (name == "skewed")
            # the same when the check reads one row at a time
            with monkeypatch.context() as patch:
                patch.setattr(zeroerr, "_CHUNK_BYTES", 1)
                assert zeroerr.build_confusability_graph(ch_, ins, n_uses).cyclic == g.cyclic
            if n_uses < 3:
                k, witness = zeroerr.max_independent_set(g)
                k_full, witness_full = zeroerr.max_independent_set(_unflagged(g))
                assert k == k_full and witness_full == parent[name, n_uses]
                _assert_independent(g, k, witness)
                # a flagged witness holds codeword 0 or is the greedy incumbent
                assert witness == witness_full if not g.cyclic else (
                    0 in witness or witness == _greedy_witness(g))
    g = zeroerr.build_confusability_graph(skewed, inputs, 2)
    assert g.edges == zeroerr.build_confusability_graph(ch, inputs, 2).edges


def test_flag_is_set_by_the_build_only():
    g = zeroerr.build_confusability_graph(zeroerr.pentagon_channel(),
                                          zeroerr.pentagon_inputs(), 2)
    assert g.cyclic
    assert not _unflagged(g).cyclic
    assert not ConfusabilityGraph.from_edges(5, {(i, (i + 1) % 5) for i in range(5)}).cyclic
    with pytest.raises(TypeError):
        ConfusabilityGraph(g.adjacency, cyclic=True)
    with pytest.raises(AttributeError):
        g.cyclic = False
    # random channels have no circulant one-use adjacency
    for seed in range(1, 9):
        ch = _random_classical(np.random.default_rng(seed))
        assert not zeroerr.build_confusability_graph(ch, _diagonal_inputs(ch.in_dim), 2).cyclic


def test_search_is_entered_once_per_solve(monkeypatch):
    calls = []
    search = zeroerr.max_independent_set

    def counted(graph):
        calls.append(graph.vertex_count)
        return search(graph)

    monkeypatch.setattr(zeroerr, "max_independent_set", counted)
    for n_uses in (1, 2, 3):
        zeroerr.zero_error_rate(zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), n_uses)
    zeroerr.zero_error_rate(_cyclic(7, 2), _diagonal_inputs(7), 2)
    assert calls == [5, 25, 125, 49]


@pytest.mark.parametrize("n_uses", [0, -1])
def test_uses_below_one_rejected(n_uses):
    with pytest.raises(ValueError, match="--uses"):
        zeroerr.zero_error_rate(zeroerr.pentagon_channel(), zeroerr.pentagon_inputs(), n_uses)


def test_bit_flip_plus_minus_inputs():
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = states.pure_state(np.array([1.0, -1.0]) / np.sqrt(2.0))
    res = zeroerr.zero_error_rate(_chan("bit_flip", 0.3), [plus, minus], 1)
    assert res.K == 2
    assert res.rate_bits == pytest.approx(1.0)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_depolarizing_zero_error_is_zero(p):
    grid = [states.bloch_to_density(u * 0.999)
            for u in capacity.fibonacci_sphere(50)]
    res = zeroerr.zero_error_rate(_chan("depolarizing", p), grid, 1)
    assert res.K == 1
    assert res.rate_bits == 0.0


def test_complete_graph_is_one_matrix():
    # 1 000 codewords that are all confusable: about 500 000 edges, held as
    # one 1 MB boolean matrix rather than as a container of pairs
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(10)]
    ch = _chan("depolarizing", 0.5)
    tracemalloc.start()
    try:
        res = zeroerr.zero_error_rate(ch, grid, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.K == 1
    assert peak <= 8 * 2**20


def test_search_packs_rows_in_chunks():
    # the renumbered rows of a 4 000-vertex complete graph are packed a
    # chunk at a time: no second n x n boolean matrix (n^2 bytes) is held
    n = 4000
    graph = ConfusabilityGraph(~np.eye(n, dtype=bool))
    tracemalloc.start()
    try:
        k, witness = zeroerr.max_independent_set(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 1 and len(witness) == 1
    assert peak < n * n / 2


def test_epr_normalization_halves_rate():
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    full = zeroerr.zero_error_rate(ch, ins, 2)
    half = zeroerr.zero_error_rate(ch, ins, 2, epr_normalized=True)
    assert half.rate_bits == pytest.approx(0.5 * full.rate_bits)


def test_zero_error_never_exceeds_hsw():
    ch = _chan("bit_flip", 0.3)
    plus = states.pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = states.pure_state(np.array([1.0, -1.0]) / np.sqrt(2.0))
    rate = zeroerr.zero_error_rate(ch, [plus, minus], 1).rate_bits
    hsw = capacity.hsw_capacity(ch).value
    assert rate <= hsw + 1e-6


def test_vertex_cap_enforced():
    ch = zeroerr.pentagon_channel()
    with pytest.raises(zeroerr.ResourceCapError):
        zeroerr.build_confusability_graph(ch, zeroerr.pentagon_inputs(), 6)


def test_input_stack_cap_enforced():
    """17 one-hot states of dimension 1024 would take 272 MiB as one complex
    stack: ResourceCapError before it is formed (the list holds one array)."""
    state = np.zeros((1024, 1024))
    state[0, 0] = 1.0
    ch = channels.build_channel(channels.ChannelSpec("identity", in_dim=1024))
    with pytest.raises(zeroerr.ResourceCapError,
                       match="input states: 17 states of dimension 1024"):
        zeroerr.build_confusability_graph(ch, [state] * 17)


def test_dot_export():
    g = ConfusabilityGraph.from_edges(3, {(0, 1)}, labels=["a", "b", "c"])
    dot = g.to_dot()
    assert dot.startswith("graph")
    assert "0 -- 1;" in dot
    assert '"a"' in dot


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        ConfusabilityGraph.from_edges(2, {(1, 1)})


def test_matrix_with_a_self_loop_or_not_square_rejected():
    # only the constructor runs: the search never returned on such a matrix
    loop = np.zeros((3, 3), dtype=bool)
    loop[1, 1] = loop[2, 2] = True
    with pytest.raises(ValueError, match="vertex 1$"):
        ConfusabilityGraph(loop)
    for shape in ((2, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValueError, match="square"):
            ConfusabilityGraph(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_asymmetric_matrix_named_by_the_search(n):
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[0, 1] = True
    if n == 5:
        adjacency[2, 4] = adjacency[4, 3] = True
    with pytest.raises(ValueError, match=r"not symmetric: \[0, 1\] differs from \[1, 0\]"):
        zeroerr.max_independent_set(ConfusabilityGraph(adjacency))


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (-1, 2), (0, 3)])
def test_out_of_range_edge_rejected(edge):
    with pytest.raises(ValueError, match=str(edge).replace("(", r"\(").replace(")", r"\)")):
        ConfusabilityGraph.from_edges(3, {(0, 1), edge})


def test_edges_normalised_once():
    edges = {(0, 1), (1, 2)}
    assert ConfusabilityGraph.from_edges(3, {(1, 0), (2, 1)}).edges == edges
    assert ConfusabilityGraph.from_edges(3, [(1, 0), (0, 1)]).edges == {(0, 1)}


def test_edge_view_equals_its_set(rng):
    g = _random_graph(rng, 30, 0.3)
    a, b = np.nonzero(np.triu(g.adjacency, 1))
    pairs = set(zip(a.tolist(), b.tolist()))
    assert g.edges == pairs and pairs == g.edges
    assert not (g.edges != pairs or pairs != g.edges)
    assert g.edges != pairs - {min(pairs)} and pairs - {min(pairs)} != g.edges
    assert g.edges - {min(pairs)} == pairs - {min(pairs)}
    assert g.edges | {(0, 0)} == pairs | {(0, 0)}
    assert len(g.edges) == np.triu(g.adjacency, 1).sum() == len(pairs)
    assert list(g.edges) == sorted(pairs)
    assert g.edges & {min(pairs), (29, 29)} == {min(pairs)}


def test_edge_view_membership(rng):
    g = _random_graph(rng, 30, 0.3)
    n = g.vertex_count
    for a, b in g.edges:
        assert (a, b) in g.edges
        assert (b, a) not in g.edges
        assert (np.int64(a), np.int32(b)) in g.edges
        assert np.array([a, b]) in g.edges
    g = ConfusabilityGraph(~np.eye(n, dtype=bool))
    outside = [(-1, 2), (2, -1), (-n, 1), (0, n), (n - 1, n), (n, n + 1), (0, 10**30),
               (0, 0), (1, 0), (0.0, 1.0), (0, 1, 2), (0,), 0, None, "01", ("0", "1")]
    for edge in outside:
        assert edge not in g.edges
    assert (0, 1) in g.edges and (np.uint8(0), np.int16(n - 1)) in g.edges


def test_edge_view_holds_no_pairs():
    # 1 000 codewords that are all confusable: counting and testing the
    # 499 500 edges reads the matrix instead of building that many tuples
    grid = [states.bloch_to_density(u * 0.999) for u in capacity.fibonacci_sphere(10)]
    g = zeroerr.build_confusability_graph(_chan("depolarizing", 0.5), grid, 3)
    tracemalloc.start()
    try:
        count = len(g.edges)
        member = (0, 999) in g.edges and (998, 999) in g.edges and (999, 0) not in g.edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 499_500 and member
    assert peak < 2**20


def _random_kraus(rng, d, rank):
    """Random channel on d x d states: rank Kraus blocks of a random isometry."""
    g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
    return channels.KrausChannel(np.linalg.qr(g)[0].reshape(rank, d, d), d, d)


@pytest.mark.parametrize("n_uses", [2, 3])
def test_row_only_build_is_symmetric(rng, n_uses):
    # random qutrit overlaps: Tr(AB) and Tr(BA) differ in the last bit for
    # about one pair in ten, so both orientations of a pair must be decided
    # by the same number, from the upper triangle of the table
    for _ in range(20):
        ch = _random_kraus(rng, 3, 3)
        inputs = [random_density(rng, 3) for _ in range(5)]
        table = _overlap_table(ch, inputs)
        split = list(zip(*np.nonzero(np.triu(table != table.T, 1))))
        if split:
            break
    assert split
    i, j = split[0]
    g = zeroerr.build_confusability_graph(ch, inputs, n_uses)
    assert g.edges == seed_graph_edges(ch, inputs, n_uses)
    # a threshold between the two orientations of the pair
    tol = min(table[i, j], table[j, i])
    for tol in (zeroerr.ADJACENCY_TOL, tol):
        adj = zeroerr.build_confusability_graph(ch, inputs, n_uses, tol).adjacency
        assert (adj == adj.T).all() and not adj.diagonal().any()


def _seed_dot(graph, name="confusability"):
    """Reference: the DOT text as one string from the sorted edge set."""
    a, b = np.nonzero(np.triu(graph.adjacency, 1))
    lines = [f"graph {name} {{"]
    for v in range(graph.vertex_count):
        label = graph.labels[v] if graph.labels else str(v)
        lines.append(f'  {v} [label="{label}"];')
    lines += [f"  {a} -- {b};" for a, b in sorted(zip(a.tolist(), b.tolist()))]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_uses", [1, 2, 3])
def test_pentagon_dot_unchanged(n_uses):
    g = zeroerr.build_confusability_graph(zeroerr.pentagon_channel(),
                                          zeroerr.pentagon_inputs(), n_uses)
    assert g.to_dot() == "".join(g.dot_lines()) == _seed_dot(g)


def test_dot_labels_are_codeword_digits():
    g = zeroerr.build_confusability_graph(zeroerr.pentagon_channel(),
                                          zeroerr.pentagon_inputs(), 2)
    lines = g.to_dot().splitlines()
    assert lines[1] == '  0 [label="00"];'
    assert lines[8] == '  7 [label="12"];'
    assert lines[25] == '  24 [label="44"];'
    assert lines[26] == "  0 -- 1;"
    g = zeroerr.build_confusability_graph(_cyclic(10, 2), _diagonal_inputs(10), 2)
    lines = g.to_dot().splitlines()
    assert lines[10] == '  9 [label="09"];'
    assert lines[11] == '  10 [label="10"];'
    assert lines[100] == '  99 [label="99"];'
    g = zeroerr.build_confusability_graph(_cyclic(11, 2), _diagonal_inputs(11), 1)
    assert g.to_dot().splitlines()[11] == '  10 [label="10"];'


def test_dot_is_streamed(tmp_path):
    # 400 codewords, all confusable: 79 800 edge lines. Written as one
    # string from a sorted set of pairs the peak was 17 MB; streamed a
    # matrix row at a time it is about 50 kB
    n = 400
    g = ConfusabilityGraph(~np.eye(n, dtype=bool), [f"v{v}" for v in range(n)])
    path = tmp_path / "complete.dot"
    t0 = time.perf_counter()
    with open(path, "w") as fh:
        fh.writelines(g.dot_lines())
    elapsed = time.perf_counter() - t0
    assert path.read_text() == _seed_dot(g)
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            fh.writelines(g.dot_lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == _seed_dot(g)
    assert elapsed < 1.0
    assert peak < 2**20


# ---------------------------------------------------------------------------
# mu-similarity and k-median clustering


def test_domain_validation():
    with pytest.raises(ValueError):
        MuSimilarDomain(0.0, 0.5)
    with pytest.raises(ValueError):
        MuSimilarDomain(0.6, 0.5)
    assert MuSimilarDomain(0.1, 0.5).mu == pytest.approx(0.2)


@pytest.mark.parametrize("lam,gam", [(0.1, 0.5), (0.2, 0.4)])
def test_mu_similarity_sandwich(lam, gam, rng):
    dom = MuSimilarDomain(lam, gam)
    pairs = [(rng.uniform(lam, gam, 3), rng.uniform(lam, gam, 3))
             for _ in range(2000)]
    ok, worst = zeroerr.mu_similar_check(dom, pairs)
    assert ok
    assert worst <= 1e-12


def test_mu_similar_check_rejects_outside():
    dom = MuSimilarDomain(0.1, 0.5)
    with pytest.raises(ValueError):
        zeroerr.mu_similar_check(dom, [(np.full(3, 0.9), np.full(3, 0.2))])


def test_div_matrix_matches_scalar(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    xs = rng.uniform(0.1, 0.5, (4, 3))
    ys = rng.uniform(0.1, 0.5, (3, 3))
    m = dom.div_matrix(xs, ys)
    for i in range(4):
        for j in range(3):
            assert m[i, j] == pytest.approx(dom.div(xs[i], ys[j]), abs=1e-12)


def test_kmedian_oracle_centroid_beats_points(rng):
    # with a Bregman divergence the per-cell optimum is the centroid, so the
    # partition oracle at n <= 12 must not exceed the discrete one
    dom = MuSimilarDomain(0.1, 0.5)
    pts = np.vstack([rng.uniform(0.12, 0.2, (5, 3)),
                     rng.uniform(0.4, 0.48, (5, 3))])
    _, e_opt = zeroerr.kmedian_oracle(dom, pts, 2)
    best_discrete = min(
        zeroerr.kmedian_error(dom, pts, pts[list(c)])
        for c in itertools.combinations(range(10), 2)
    )
    assert e_opt <= best_discrete + 1e-12


def test_bicriteria_kmedian_seeded(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = rng.uniform(0.1, 0.5, (20, 3))
    m1 = zeroerr.bicriteria_kmedian(dom, pts, 3, seed=7)
    m2 = zeroerr.bicriteria_kmedian(dom, pts, 3, seed=7)
    assert np.array_equal(m1, m2)
    _, e_opt = zeroerr.kmedian_oracle(dom, pts, 3)
    assert zeroerr.kmedian_error(dom, pts, m1) >= e_opt - 1e-12


def test_weak_coreset_weight_conservation(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = rng.uniform(0.1, 0.5, (60, 3))
    med = zeroerr.bicriteria_kmedian(dom, pts, 2, seed=0)
    cpts, w, exact = zeroerr.weak_coreset(dom, pts, 2, 0.2, 0.1, med, seed=0, m=8)
    assert not exact
    assert w.sum() == 60.0
    cpts2, w2, exact2 = zeroerr.weak_coreset(dom, pts, 2, 0.2, 0.1, med, seed=0)
    assert exact2  # theoretical sample size exceeds n at desk scale
    assert w2.sum() == 60.0
    assert cpts2.shape == pts.shape


def test_weak_coreset_error_sandwich(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    eps = 0.2
    bad = 0
    for seed in range(20):
        r = np.random.default_rng(seed)
        pts = np.vstack([r.uniform(0.11, 0.3, (30, 3)),
                         r.uniform(0.3, 0.49, (30, 3))])
        opt_c, opt_e = zeroerr.kmedian_oracle(dom, pts, 2)
        med = zeroerr.bicriteria_kmedian(dom, pts, 2, seed=seed)
        cpts, w, _ = zeroerr.weak_coreset(dom, pts, 2, eps, 0.1, med,
                                          seed=seed, m=10)
        e_cs = zeroerr.kmedian_error(dom, cpts, opt_c, w)
        if not (1.0 - eps) * opt_e <= e_cs <= (1.0 + eps) * opt_e:
            bad += 1
    assert bad <= 1


def test_kmedian_error_weighted(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = rng.uniform(0.1, 0.5, (5, 3))
    med = pts[:1]
    unweighted = zeroerr.kmedian_error(dom, pts, med)
    doubled = zeroerr.kmedian_error(dom, pts, med, weights=np.full(5, 2.0))
    assert doubled == pytest.approx(2.0 * unweighted)
