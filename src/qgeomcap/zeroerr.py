"""Zero-error capacity analysis and similarity-based clustering.

Two codewords can be confused iff the trace overlap of their channel
outputs is nonzero; the confusability graph collects those collisions and
the zero-error rate is the exact maximum independent set of the graph on
n-tuples of inputs. The clustering half of the module works on a
mu-similar domain (componentwise-bounded diagonal state vectors) where the
generalized relative entropy is sandwiched between scaled Mahalanobis
forms, enabling k-median approximation with weak core-sets.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import channels

ADJACENCY_TOL = 1e-9
MAX_VERTICES = 10_000
# branch-and-bound nodes per maximum-independent-set search; pentagon^3
# (125 vertices, K = 10) needs about 0.72 million
MAX_BRANCH_NODES = 10_000_000
# bytes of one row chunk of the n-use overlap products
_CHUNK_BYTES = 1 << 20


class ResourceCapError(ValueError):
    """Raised when a problem instance exceeds a hard resource cap."""


# ---------------------------------------------------------------------------
# confusability graphs and zero-error rates


@dataclass
class ConfusabilityGraph:
    """Undirected graph of mutually confusable codewords.

    Edges are stored once each as (a, b) with a < b. Edges given in the
    other orientation are normalised into a new set; an edge that is a
    self-loop or leaves range(vertex_count) raises ValueError.
    """

    vertex_count: int
    edges: set
    labels: list = None

    def __post_init__(self):
        n = self.vertex_count
        if isinstance(self.edges, set) and all(0 <= a < b < n for a, b in self.edges):
            return
        clean = set()
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise ValueError(f"confusability graphs have no self-loops: {edge}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge {edge} leaves the vertex range 0..{n - 1}")
            clean.add((min(a, b), max(a, b)))
        self.edges = clean

    def to_dot(self, name="confusability"):
        lines = [f"graph {name} {{"]
        for v in range(self.vertex_count):
            label = self.labels[v] if self.labels else str(v)
            lines.append(f'  {v} [label="{label}"];')
        for a, b in sorted(self.edges):
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class ZeroErrorResult:
    """Exact independent-set size and the implied zero-error rate."""

    K: int
    rate_bits: float
    witness: list
    n_uses: int
    epr_normalized: bool = False


def output_overlap(ch, rho_i, rho_j):
    """Tr(N(rho_i) N(rho_j)), the distinguishability obstruction."""
    out_i = channels.apply(ch, rho_i)
    out_j = channels.apply(ch, rho_j)
    return float(np.real(np.trace(out_i @ out_j)))


def non_adjacent(ch, rho_i, rho_j, tol=ADJACENCY_TOL):
    """True iff the outputs are perfectly distinguishable (overlap <= tol)."""
    return output_overlap(ch, rho_i, rho_j) <= tol


def codewords_non_adjacent(ch, w1, w2, tol=ADJACENCY_TOL):
    """True iff the product of per-position output overlaps vanishes.

    One perfectly distinguishable position suffices for the whole pair of
    codewords (product factorization of the joint overlap).
    """
    if len(w1) != len(w2):
        raise ValueError("codewords must have equal length")
    prod = 1.0
    for a, b in zip(w1, w2):
        prod *= output_overlap(ch, a, b)
    return prod <= tol


def build_confusability_graph(ch, inputs, n_uses=1, tol=ADJACENCY_TOL):
    """Graph on all n_uses-tuples of inputs; edge = confusable pair.

    The joint overlap of two tuples is the product of single-use overlaps,
    so the adjacency is the n_uses-th Kronecker power of the |inputs| x
    |inputs| overlap table, multiplied left to right and thresholded: a
    product > tol is an edge. A partial product that falls to <= tol is set
    to zero, so later factors above 1 (unnormalised inputs) cannot revive
    it. The power is formed a chunk of about 1 MB of rows at a time.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("empty input set")
    if n_uses < 1:
        raise ValueError(f"the number of channel uses (--uses) must be >= 1, got {n_uses}")
    m = len(inputs)
    n_vertices = m ** n_uses
    if n_vertices > MAX_VERTICES:
        raise ResourceCapError(
            f"{n_vertices} codeword vertices exceed the cap of {MAX_VERTICES}"
        )
    outs = np.array([channels.apply(ch, rho) for rho in inputs])
    table = np.real(np.einsum("iab,jba->ij", outs, outs))
    place = m ** np.arange(n_uses - 1, -1, -1)
    chunk = max(1, _CHUNK_BYTES // (8 * n_vertices))
    edges = set()
    for start in range(0, n_vertices, chunk):
        rows = np.arange(start, min(start + chunk, n_vertices))
        digits = rows[:, None] // place % m
        prod = np.ones((len(rows), 1))
        for k in range(n_uses):
            prod = (prod[:, :, None] * table[digits[:, k]][:, None, :]).reshape(len(rows), -1)
            prod[prod <= tol] = 0.0
        a, b = np.nonzero(prod > tol)
        a += start
        upper = b > a
        edges.update(zip(a[upper].tolist(), b[upper].tolist()))
    labels = ["".join(str(i) for i in v)
              for v in itertools.product(range(m), repeat=n_uses)]
    return ConfusabilityGraph(vertex_count=n_vertices, edges=edges, labels=labels)


def _clique_cover(cands, adj, kmin):
    """Greedy clique cover of the bitset cands, classes in ascending order.

    Each class is a clique of the graph, so an independent set holds at
    most one vertex per class, and branching on a vertex of class k adds
    at most k vertices to the set. This is the greedy colouring bound of
    MCQ/BBMC applied to the complement graph. Only vertices in a class
    above kmin are returned: the others cannot beat the incumbent.
    """
    order, bounds = [], []
    k = 0
    while cands:
        k += 1
        q = cands
        while q:
            low = q & -q
            cands ^= low
            v = low.bit_length() - 1
            q &= adj[v]
            if k > kmin:
                order.append(v)
                bounds.append(k)
    return order, bounds


def max_independent_set(graph):
    """Exact maximum independent set: a maximum-clique search on the complement.

    Bitset branch and bound after Tomita & Seki 2003 (MCQ) and San Segundo
    et al. 2011 (BBMC). Vertices are renumbered by ascending degree, the
    greedy independent set in that order is the first incumbent, a greedy
    colouring bound is recomputed at every node, and the vertex of the
    highest class is branched on first. The search keeps an explicit
    stack, so its depth is bounded by K rather than by the recursion limit.
    More than MAX_BRANCH_NODES branches raise ResourceCapError.
    """
    n = graph.vertex_count
    if n > MAX_VERTICES:
        raise ResourceCapError("graph exceeds the vertex cap")
    degree = [0] * n
    for a, b in graph.edges:
        degree[a] += 1
        degree[b] += 1
    vertex = sorted(range(n), key=degree.__getitem__)
    rank = [0] * n
    for i, v in enumerate(vertex):
        rank[v] = i
    adj = [0] * n
    for a, b in graph.edges:
        ra, rb = rank[a], rank[b]
        adj[ra] |= 1 << rb
        adj[rb] |= 1 << ra

    # incumbent: greedy in the renumbered (ascending-degree) order
    full = (1 << n) - 1
    best_set, free = 0, full
    while free:
        low = free & -free
        best_set |= low
        free &= ~(adj[low.bit_length() - 1] | low)
    best_size = best_set.bit_count()
    nodes = 0
    # frame: [chosen bitset, its size, candidates left, branch order, bounds]
    stack = [[0, 0, full, *_clique_cover(full, adj, best_size)]]
    while stack:
        frame = stack[-1]
        chosen, size, cands, order, bounds = frame
        if not order or size + bounds[-1] <= best_size:
            stack.pop()
            continue
        v = order.pop()
        bounds.pop()
        bit = 1 << v
        frame[2] = cands = cands ^ bit
        nodes += 1
        if nodes > MAX_BRANCH_NODES:
            raise ResourceCapError(
                f"maximum independent set needs more than {MAX_BRANCH_NODES} "
                f"branch-and-bound nodes on {n} vertices"
            )
        sub = cands & ~adj[v]
        if not sub:
            if size + 1 > best_size:
                best_size, best_set = size + 1, chosen | bit
            continue
        sub_order, sub_bounds = _clique_cover(sub, adj, best_size - size - 1)
        if sub_order:
            stack.append([chosen | bit, size + 1, sub, sub_order, sub_bounds])

    witness = sorted(vertex[i] for i in range(n) if best_set >> i & 1)
    # paranoia: the witness must be pairwise non-adjacent in the input graph
    members = set(witness)
    for a, b in graph.edges:
        if a in members and b in members:
            raise AssertionError("independent-set witness touches an edge")
    return best_size, witness


def solve_zero_error(graph, n_uses, epr_normalized=False):
    """Zero-error rate (1/n) log2 K of an n_uses-use confusability graph."""
    k, witness = max_independent_set(graph)
    rate = np.log2(k) / n_uses if k >= 1 else 0.0
    if epr_normalized:
        rate *= 0.5
    return ZeroErrorResult(K=k, rate_bits=float(rate), witness=witness,
                           n_uses=n_uses, epr_normalized=epr_normalized)


def zero_error_rate(ch, inputs, n_uses=1, epr_normalized=False, tol=ADJACENCY_TOL):
    """Zero-error rate (1/n) log2 K over the supplied inputs.

    K is the exact maximum number of pairwise non-confusable codewords on
    the given input grid, so the rate is a lower bound on the true
    capacity. epr_normalized halves the rate (two channel uses per EPR
    pair).
    """
    graph = build_confusability_graph(ch, inputs, n_uses, tol)
    return solve_zero_error(graph, n_uses, epr_normalized)


def pentagon_channel():
    """Classical 5-symbol cyclic-confusion channel as a quantum channel.

    Input i maps to an equal mixture of i and i+1 (mod 5); with the
    diagonal inputs |i><i| the confusability graph is the 5-cycle. Kraus
    operators are sqrt(P(out|in)) |out><in|.
    """
    kraus = []
    for i in range(5):
        for out in (i, (i + 1) % 5):
            op = np.zeros((5, 5), dtype=complex)
            op[out, i] = np.sqrt(0.5)
            kraus.append(op)
    return channels.KrausChannel(kraus, 5, 5)


def pentagon_inputs():
    """The five diagonal inputs |i><i| of the pentagon channel."""
    return [np.diag([1.0 if j == i else 0.0 for j in range(5)]).astype(complex)
            for i in range(5)]


# ---------------------------------------------------------------------------
# mu-similar divergences and k-median clustering


@dataclass
class MuSimilarDomain:
    """Componentwise box [lam, gam]^d of diagonal state vectors.

    On this domain the generalized relative entropy (natural units)
    D(x||y) = sum x ln(x/y) - x + y is mu-similar to the Mahalanobis form
    D_A(x,y) = ||x - y||^2 / (2 lam): mu D_A <= D <= D_A with mu = lam/gam.
    """

    lam: float
    gam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= self.gam:
            raise ValueError("domain requires 0 < lam <= gam")

    @property
    def mu(self):
        return self.lam / self.gam

    def contains(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lam - tol).all() and (x <= self.gam + tol).all())

    def check_inside(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if (pts < self.lam - 1e-12).any() or (pts > self.gam + 1e-12).any():
            raise ValueError("points leave the [lam, gam] similarity box")
        return pts

    def div(self, x, y):
        """Generalized relative entropy sum x ln(x/y) - x + y, nats."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float((x * np.log(x / y) - x + y).sum())

    def div_matrix(self, xs, ys):
        """(n, m) matrix of div(xs[i] || ys[j])."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        xlogx = (xs * np.log(xs) - xs).sum(axis=1)
        cross = xs @ np.log(ys).T
        return xlogx[:, None] - cross + ys.sum(axis=1)[None, :]

    def mahalanobis(self, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(d @ d) / (2.0 * self.lam)


def mu_similar_check(dom, pairs):
    """Verify mu D_A <= D <= D_A on an iterable of (x, y) pairs.

    Returns (ok, worst_violation); worst_violation is the largest amount by
    which either inequality fails (<= 0 when all pairs satisfy it).
    """
    worst = -np.inf
    for x, y in pairs:
        if not (dom.contains(x) and dom.contains(y)):
            raise ValueError("sample pair leaves the similarity domain")
        d = dom.div(x, y)
        da = dom.mahalanobis(x, y)
        worst = max(worst, dom.mu * da - d, d - da)
    return worst <= 1e-12, worst


def kmedian_error(dom, s_in, s_out, weights=None):
    """sum over points of the divergence to their closest median."""
    s_in = np.atleast_2d(np.asarray(s_in, dtype=float))
    s_out = np.atleast_2d(np.asarray(s_out, dtype=float))
    if s_in.size == 0 or s_out.size == 0:
        raise ValueError("empty point or median set")
    mins = dom.div_matrix(s_in, s_out).min(axis=1)
    if weights is None:
        return float(mins.sum())
    return float(np.asarray(weights, dtype=float) @ mins)


def bicriteria_kmedian(dom, s_in, k, seed=0):
    """Divergence-proportional seeding of k medians from the input points.

    First median uniform; each next point is drawn with probability
    proportional to its current divergence-to-medians (the k-median
    analogue of squared-distance seeding).
    """
    s_in = np.atleast_2d(np.asarray(s_in, dtype=float))
    n = s_in.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = dom.div_matrix(s_in, s_in[chosen]).min(axis=1)
        d = np.maximum(d, 0.0)
        total = d.sum()
        if total <= 0:
            # all points already coincide with a median; fill arbitrarily
            remaining = [i for i in range(n) if i not in chosen]
            chosen.append(remaining[0])
            continue
        chosen.append(int(rng.choice(n, p=d / total)))
    return s_in[chosen]


def weak_coreset(dom, s_in, k, eps, delta, medians, alpha=4.0, seed=0, m=None):
    """Weighted subset whose k-median errors track the full set.

    Ring construction: partition by closest median, slice each cluster into
    divergence rings doubling from R = error/(alpha n), sample m points per
    ring and weight them by |ring|/m, so weights sum to n exactly. The
    theoretical m exceeds desk-scale n for the tolerances of interest; in
    that case the coreset degenerates to the full set with unit weights
    (exact, disclosed by the `exact` flag).
    """
    s_in = np.atleast_2d(np.asarray(s_in, dtype=float))
    n = s_in.shape[0]
    medians = np.atleast_2d(np.asarray(medians, dtype=float))
    err = kmedian_error(dom, s_in, medians)
    if m is None:
        # sample size with the candidate-space factor |W|^k ~ n^k
        gamma_rings = max(int(np.ceil(np.log2(max(alpha * n, 2.0)))), 1)
        m = int(np.ceil((alpha ** 2 / eps ** 2) *
                        np.log(max(k * (float(n) ** k) * gamma_rings / delta, 2.0))))
    if m >= n or err <= 0:
        return s_in.copy(), np.ones(n), True
    rng = np.random.default_rng(seed)
    gamma_rings = max(int(np.ceil(np.log2(max(alpha * n, 2.0)))), 1)
    radius0 = err / (alpha * n)
    d_all = dom.div_matrix(s_in, medians)
    owner = d_all.argmin(axis=1)
    dmin = d_all.min(axis=1)
    pts = []
    wts = []
    for i in range(medians.shape[0]):
        cluster = np.where(owner == i)[0]
        if cluster.size == 0:
            continue
        edges = [0.0] + [radius0 * 2.0 ** j for j in range(gamma_rings)] + [np.inf]
        for j in range(len(edges) - 1):
            ring = cluster[(dmin[cluster] > edges[j]) & (dmin[cluster] <= edges[j + 1])] \
                if j > 0 else cluster[dmin[cluster] <= edges[1]]
            if ring.size == 0:
                continue
            take = min(m, ring.size)
            sel = rng.choice(ring, size=take, replace=False)
            pts.append(s_in[sel])
            # integer weight split keeps the total exactly |ring| in floating
            # point (the uniform ratio |ring|/take need not round-trip)
            base, extra = divmod(ring.size, take)
            w = np.full(take, float(base))
            w[:extra] += 1.0
            wts.append(w)
    pts = np.vstack(pts)
    wts = np.concatenate(wts)
    return pts, wts, False


def kmedian_oracle(dom, s_in, k):
    """Brute-force k-median reference.

    n <= 12: exhaustive over all k-partitions with per-cell centroids (the
    divergence is a Bregman divergence, so each cell's optimal center is
    its mean), plus all point k-subsets. 12 < n <= 60: discrete k-median
    over input points only.
    """
    s_in = np.atleast_2d(np.asarray(s_in, dtype=float))
    n = s_in.shape[0]
    if n > 60:
        raise ValueError("oracle capped at 60 points")
    best = (np.inf, None)
    for combo in itertools.combinations(range(n), k):
        e = kmedian_error(dom, s_in, s_in[list(combo)])
        if e < best[0]:
            best = (e, s_in[list(combo)].copy())
    if n <= 12 and k == 2:
        for mask in range(1, 2 ** (n - 1)):
            sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
            if not sel.any() or sel.all():
                continue
            c = np.vstack([s_in[sel].mean(axis=0), s_in[~sel].mean(axis=0)])
            e = kmedian_error(dom, s_in, c)
            if e < best[0]:
                best = (e, c)
    elif n <= 12 and k == 1:
        c = s_in.mean(axis=0, keepdims=True)
        e = kmedian_error(dom, s_in, c)
        if e < best[0]:
            best = (e, c)
    return best[1], best[0]


def cl_superball(dom, s_in, weights, k, eps=0.2, delta=0.2, seed=0,
                 sample_cap=128, slice_cap=3):
    """Recursive sampled-centroid k-median solver on a mu-similar domain.

    Candidate centers are weighted centroids of contiguous slices of a
    shuffled sample multiset; each candidate branches into finding the
    remaining medians, and a parallel branch discards the half of the
    weight closest to the current centers. The best-error candidate wins.
    The theoretical sample sizes 96k^2/(eps^2 mu delta) and 3/(eps mu delta)
    are capped for desk-scale inputs (disclosed parameters); small slices
    are essential in practice, since a short run of a shuffled sample can
    land entirely inside one cluster while long slices average clusters.
    """
    s_in = np.atleast_2d(np.asarray(s_in, dtype=float))
    dom.check_inside(s_in)
    n = s_in.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    rng = np.random.default_rng(seed)
    mu = dom.mu
    m_sample = int(min(np.ceil(96.0 * k * k / (eps * eps * mu * delta)), sample_cap))
    m_slice = int(min(np.ceil(3.0 / (eps * mu * delta)), slice_cap))
    m_slice = max(m_slice, 1)

    def error_of(pts, wts, centers):
        if len(centers) == 0:
            return np.inf
        return kmedian_error(dom, pts, np.vstack(centers), wts)

    def recurse(pts, wts, m_remaining, found):
        if m_remaining == 0:
            return list(found)
        if m_remaining >= pts.shape[0]:
            return list(found) + [p for p in pts]
        total_w = wts.sum()
        probs = wts / total_w
        idx = rng.choice(pts.shape[0], size=min(m_sample, max(pts.shape[0], 1)),
                         p=probs)
        sample = pts[idx]
        perm = rng.permutation(sample.shape[0])
        sample = sample[perm]
        candidates = []
        for start in range(0, sample.shape[0] - m_slice + 1, m_slice):
            candidates.append(sample[start:start + m_slice].mean(axis=0))
        if not candidates:
            candidates.append(sample.mean(axis=0))
        best_c, best_e = None, np.inf
        for c in candidates:
            sol = recurse(pts, wts, m_remaining - 1, list(found) + [c])
            e = error_of(s_in, weights, sol)
            if e < best_e:
                best_c, best_e = sol, e
        # discard the half of the weight closest to the current centers
        if found and pts.shape[0] > 1:
            d = dom.div_matrix(pts, np.vstack(found)).min(axis=1)
            order = np.argsort(d)
            cum = np.cumsum(wts[order])
            cut = int(np.searchsorted(cum, total_w / 2.0)) + 1
            keep = order[cut:]
            if keep.size > 0:
                sol = recurse(pts[keep], wts[keep], m_remaining, list(found))
                e = error_of(s_in, weights, sol)
                if e < best_e:
                    best_c, best_e = sol, e
        return best_c

    sol = recurse(s_in, weights, k, [])
    return np.vstack(sol[:k]) if len(sol) >= k else np.vstack(sol)
