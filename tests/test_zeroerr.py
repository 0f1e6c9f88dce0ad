import itertools

import numpy as np
import pytest

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
    return ConfusabilityGraph(vertex_count=g1.vertex_count * n2, edges=edges)


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


def test_two_use_graph_is_strong_product():
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    g1 = zeroerr.build_confusability_graph(ch, ins, 1)
    g2 = zeroerr.build_confusability_graph(ch, ins, 2)
    assert g2.edges == strong_product(g1, g1).edges


def seed_graph_edges(ch, inputs, n_uses, tol=zeroerr.ADJACENCY_TOL):
    """Reference: the pairwise loop that built confusability graphs before
    the Kronecker-power build, kept verbatim as the oracle for its edges."""
    m = len(inputs)
    table = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            table[i, j] = table[j, i] = zeroerr.output_overlap(ch, inputs[i], inputs[j])
    verts = list(itertools.product(range(m), repeat=n_uses))
    edges = set()
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            prod = 1.0
            for i, j in zip(verts[a], verts[b]):
                prod *= table[i, j]
                if prod <= tol:
                    break
            if prod > tol:
                edges.add((a, b))
    return edges


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
    # unnormalised inputs: overlaps far above 1 follow a partial product
    # that is already <= tol, so the left-to-right early exit matters
    cases.append(pytest.param(_shared_output_channel(1e-8), _diagonal_inputs(2, scale=1e3), 3,
                              id="unnormalised-n3"))
    return cases


@pytest.mark.parametrize("ch,inputs,n_uses", _build_cases())
def test_build_matches_pairwise_reference(ch, inputs, n_uses):
    g = zeroerr.build_confusability_graph(ch, inputs, n_uses)
    assert g.vertex_count == len(inputs) ** n_uses
    assert g.edges == seed_graph_edges(ch, inputs, n_uses)


def test_adjacency_tol_rule():
    ch = _shared_output_channel(np.sqrt(1e-5))
    ins = _diagonal_inputs(2)
    overlap = zeroerr.output_overlap(ch, ins[0], ins[1])
    assert overlap == pytest.approx(1e-5) and overlap > zeroerr.ADJACENCY_TOL
    assert zeroerr.build_confusability_graph(ch, ins, 1).edges == {(0, 1)}
    # (0, 0) vs (1, 1): each position 1e-5 > tol, the product 1e-10 <= tol
    g2 = zeroerr.build_confusability_graph(ch, ins, 2)
    assert (0, 3) not in g2.edges
    assert (0, 1) in g2.edges
    # an overlap exactly at tol is non-adjacent, just above it is adjacent
    assert zeroerr.build_confusability_graph(ch, ins, 1, tol=overlap).edges == set()
    assert zeroerr.build_confusability_graph(
        ch, ins, 1, tol=np.nextafter(overlap, 0.0)).edges == {(0, 1)}


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
    return ConfusabilityGraph(vertex_count=n, edges=edges)


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
    k, witness = zeroerr.max_independent_set(ConfusabilityGraph(vertex_count=1500, edges=set()))
    assert k == 1500 and witness == list(range(1500))
    # 250 copies of a 6-vertex graph on which the greedy start finds 3 of
    # alpha = 4: the search goes 1000 levels deep
    copy = [(0, 4), (1, 3), (1, 5), (3, 4), (4, 5)]
    union = {(a + 6 * c, b + 6 * c) for c in range(250) for a, b in copy}
    g = ConfusabilityGraph(vertex_count=1500, edges=union)
    k, witness = zeroerr.max_independent_set(g)
    assert k == 1000
    _assert_independent(g, k, witness)
    complete = set(itertools.combinations(range(200), 2))
    k, witness = zeroerr.max_independent_set(ConfusabilityGraph(vertex_count=200, edges=complete))
    assert k == 1 and len(witness) == 1


def test_branch_node_cap(monkeypatch):
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    assert zeroerr.zero_error_rate(ch, ins, 2).K == 5
    monkeypatch.setattr(zeroerr, "MAX_BRANCH_NODES", 5)
    with pytest.raises(zeroerr.ResourceCapError):
        zeroerr.zero_error_rate(ch, ins, 2)


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


def test_codewords_non_adjacent_product_rule():
    ch = zeroerr.pentagon_channel()
    ins = zeroerr.pentagon_inputs()
    # (0,0) vs (1,1): both positions confusable -> adjacent
    assert not zeroerr.codewords_non_adjacent(ch, [ins[0], ins[0]], [ins[1], ins[1]])
    # (0,0) vs (2,2): first position non-adjacent kills the product
    assert zeroerr.codewords_non_adjacent(ch, [ins[0], ins[0]], [ins[2], ins[2]])


def test_dot_export():
    g = ConfusabilityGraph(vertex_count=3, edges={(0, 1)}, labels=["a", "b", "c"])
    dot = g.to_dot()
    assert dot.startswith("graph")
    assert "0 -- 1;" in dot
    assert '"a"' in dot


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        ConfusabilityGraph(vertex_count=2, edges={(1, 1)})


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (-1, 2), (0, 3)])
def test_out_of_range_edge_rejected(edge):
    with pytest.raises(ValueError, match=str(edge).replace("(", r"\(").replace(")", r"\)")):
        ConfusabilityGraph(vertex_count=3, edges={(0, 1), edge})


def test_edges_normalised_once():
    edges = {(0, 1), (1, 2)}
    assert ConfusabilityGraph(vertex_count=3, edges=edges).edges is edges
    assert ConfusabilityGraph(vertex_count=3, edges={(1, 0), (2, 1)}).edges == edges
    assert ConfusabilityGraph(vertex_count=3, edges=[(1, 0), (0, 1)]).edges == {(0, 1)}


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


def test_cl_superball_two_clusters(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = np.vstack([rng.uniform(0.12, 0.2, (6, 3)),
                     rng.uniform(0.4, 0.48, (6, 3))])
    _, opt_e = zeroerr.kmedian_oracle(dom, pts, 2)
    sol = zeroerr.cl_superball(dom, pts, None, 2, seed=0)
    err = zeroerr.kmedian_error(dom, pts, sol)
    assert sol.shape == (2, 3)
    assert err <= 2.0 * opt_e


def test_cl_superball_deterministic(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = rng.uniform(0.1, 0.5, (15, 3))
    s1 = zeroerr.cl_superball(dom, pts, None, 2, seed=3)
    s2 = zeroerr.cl_superball(dom, pts, None, 2, seed=3)
    assert np.array_equal(s1, s2)


def test_cl_superball_rejects_outside_domain(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    with pytest.raises(ValueError):
        zeroerr.cl_superball(dom, np.full((4, 3), 0.9), None, 2)


def test_kmedian_error_weighted(rng):
    dom = MuSimilarDomain(0.1, 0.5)
    pts = rng.uniform(0.1, 0.5, (5, 3))
    med = pts[:1]
    unweighted = zeroerr.kmedian_error(dom, pts, med)
    doubled = zeroerr.kmedian_error(dom, pts, med, weights=np.full(5, 2.0))
    assert doubled == pytest.approx(2.0 * unweighted)
