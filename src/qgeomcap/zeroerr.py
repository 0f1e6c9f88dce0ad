"""Zero-error capacity analysis and similarity-based clustering.

Two inputs can be confused iff the trace overlap of their channel outputs
is nonzero (above a tolerance); two codewords, n-tuples of inputs, iff at
every use their symbols are equal or confusable, so the n-use
confusability graph is the strong power of the one-use graph. It is held
as one boolean adjacency matrix, which the graph build writes and the
search reads, and the zero-error rate is the exact maximum independent
set of that graph. The clustering half of the module works on a
mu-similar domain (componentwise-bounded diagonal state vectors) where the
generalized relative entropy is sandwiched between scaled Mahalanobis
forms, enabling k-median approximation with weak core-sets.
"""

import itertools
import operator
from array import array
from collections.abc import Set
from dataclasses import dataclass, field

import numpy as np

from . import channels
from .errors import ResourceCapError

ADJACENCY_TOL = 1e-9
# how far the trace of an input state may differ from 1
TRACE_TOL = 1e-9
MAX_VERTICES = 10_000
# a ZeroErrorResult keeps its witness as 2-byte codewords
assert MAX_VERTICES <= 1 << 16
# branch-and-bound nodes per maximum-independent-set search; pentagon^3
# (125 vertices, K = 10) needs about 0.72 million from the empty set and
# 23 000 from codeword 0
MAX_BRANCH_NODES = 10_000_000
# bytes of one chunk of overlap rows, and of the packed adjacency
_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# confusability graphs and zero-error rates


@dataclass(eq=False)
class EdgeView(Set):
    """Read-only set of the pairs (a, b), a < b, an adjacency matrix joins."""

    adjacency: np.ndarray
    _from_iterable = set  # what &, |, - and ^ return

    def __len__(self):
        return int(np.count_nonzero(self.adjacency)) // 2

    def __contains__(self, edge):
        try:
            a, b = map(operator.index, edge)
        except (TypeError, ValueError):
            return False
        return 0 <= a < b < len(self.adjacency) and bool(self.adjacency[a, b])

    def __iter__(self):
        return ((a, b) for a, bs in self.rows() for b in bs)

    def rows(self):
        """(a, [b > a joined to a]) for each row a, in order."""
        for a, row in enumerate(self.adjacency):
            yield a, (np.flatnonzero(row[a + 1:]) + (a + 1)).tolist()


@dataclass(eq=False)
class ConfusabilityGraph:
    """Undirected graph of mutually confusable codewords, held as its
    adjacency matrix: a symmetric boolean (n, n) array, False on the diagonal.

    edges is a read-only set view of the pairs (a, b), a < b, in row-major
    order, read from the matrix. labels names the vertices in the DOT text
    (a built graph's are the codewords' digits, "12" for codeword (1, 2)),
    or is None for the vertex numbers.

    cyclic is True only on a graph from build_confusability_graph whose
    one-use adjacency is circulant, so that every shift of the codewords'
    symbols is an automorphism and max_independent_set may start from
    codeword 0. It is not a constructor argument, so a graph made any other
    way is searched from the empty set; a built graph's adjacency must not
    be changed in place.
    """

    adjacency: np.ndarray
    labels: list = None
    _cyclic: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        """Raise ValueError for a matrix that is not square or joins a
        vertex to itself, naming the first such vertex: the search never
        returns on a self-loop. Symmetry, an n^2 check, is left to
        max_independent_set's witness check."""
        shape = np.shape(self.adjacency)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"adjacency must be a square matrix, not of shape {shape}")
        loops = self.adjacency.diagonal()
        if loops.any():
            raise ValueError(f"confusability graphs have no self-loops: vertex {loops.argmax()}")

    @property
    def cyclic(self):
        return self._cyclic

    @classmethod
    def from_edges(cls, vertex_count, edges, labels=None):
        """Graph on range(vertex_count) whose edges are the given pairs, in
        either orientation; a self-loop or an edge that leaves the range
        raises ValueError naming it."""
        adjacency = np.zeros((vertex_count, vertex_count), dtype=bool)
        for edge in edges:
            a, b = edge
            if a == b:
                raise ValueError(f"confusability graphs have no self-loops: {edge}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge {edge} leaves the vertex range 0..{vertex_count - 1}")
            adjacency[a, b] = adjacency[b, a] = True
        return cls(adjacency, labels)

    @property
    def vertex_count(self):
        return len(self.adjacency)

    @property
    def edges(self):
        return EdgeView(self.adjacency)

    def dot_lines(self, name="confusability"):
        """The DOT text in pieces, the edges one matrix row at a time."""
        yield f"graph {name} {{\n"
        for v in range(self.vertex_count):
            label = self.labels[v] if self.labels else str(v)
            yield f'  {v} [label="{label}"];\n'
        for a, bs in self.edges.rows():
            yield "".join(f"  {a} -- {b};\n" for b in bs)
        yield "}\n"

    def to_dot(self, name="confusability"):
        return "".join(self.dot_lines(name))


class ZeroErrorResult:
    """Exact independent set of an n_uses-use confusability graph.

    Only the witness is held, as 2-byte codewords (MAX_VERTICES < 2^16), and
    read back as a list of ints: K is its size and rate_bits the zero-error
    rate (1/n_uses) log2 K, halved when epr_normalized (two channel uses per
    EPR pair). A kept answer at K = 10 is 109 bytes by sys.getsizeof.
    """

    __slots__ = ("_witness", "n_uses", "epr_normalized")

    def __init__(self, witness, n_uses, epr_normalized=False):
        self._witness = array("H", witness).tobytes()
        self.n_uses = n_uses
        self.epr_normalized = epr_normalized

    def __repr__(self):
        return (f"ZeroErrorResult(witness={self.witness}, n_uses={self.n_uses}, "
                f"epr_normalized={self.epr_normalized})")

    @property
    def witness(self):
        return array("H", self._witness).tolist()

    @property
    def K(self):
        return len(self._witness) // 2

    @property
    def rate_bits(self):
        k = self.K
        rate = np.log2(k) / self.n_uses if k >= 1 else 0.0
        if self.epr_normalized:
            rate *= 0.5
        return float(rate)


def output_overlap(ch, rho_i, rho_j):
    """Tr(N(rho_i) N(rho_j)), the distinguishability obstruction; two stacks
    of states give the overlaps of their rows."""
    out_i, out_j = channels.apply(ch, np.array([rho_i, rho_j], dtype=complex))
    overlap = np.real(np.einsum("...ab,...ba->...", out_i, out_j))
    return float(overlap) if overlap.ndim == 0 else overlap


def _overlap_rows(outs):
    """Chunks (start, stop, upper) of the overlap table's upper rows:
    upper[i - start, j - start] = Re Tr(outs[i] outs[j]) for start <= i <
    stop and j >= start, about _CHUNK_BYTES of complex overlaps at a time.

    Each chunk is the full table's einsum restricted to its rows and is equal
    to it bit for bit; a one-row einsum can round differently, so every chunk
    has at least two rows (the last one takes what is left).
    """
    m = len(outs)
    chunk = max(2, _CHUNK_BYTES // (16 * m))
    start = 0
    while start < m:
        stop = m if m - start < 2 * chunk else start + chunk
        yield start, stop, np.einsum("iab,jba->ij", outs[start:stop], outs[start:]).real
        start = stop


def _mirror_rows(matrix, start, stop):
    """Fill rows start..stop - 1 of a square matrix below the diagonal from
    its upper triangle, whose rows up to stop - 1 are already written."""
    matrix[start:stop, :start] = matrix[:start, start:stop].T
    square = matrix[start:stop, start:stop]
    np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))


def _is_circulant(matrix):
    """True when matrix[i, j] == matrix[0, (j - i) mod m] for every i, j, that
    is, when each row is the row above it turned right by one place.

    Compared a chunk of rows at a time, on views, so the matrix is not
    copied.
    """
    m = len(matrix)
    chunk = max(1, _CHUNK_BYTES // (m * matrix.itemsize))
    for start in range(0, m - 1, chunk):
        stop = min(start + chunk, m - 1)
        above, below = matrix[start:stop], matrix[start + 1:stop + 1]
        if not (np.array_equal(below[:, 1:], above[:, :-1])
                and np.array_equal(below[:, 0], above[:, -1])):
            return False
    return True


def build_confusability_graph(ch, inputs, n_uses=1, tol=ADJACENCY_TOL):
    """Graph on all n_uses-tuples of inputs; edge = confusable pair.

    The one-use graph G joins inputs i != j whose output overlap
    Re Tr(N(rho_i) N(rho_j)) exceeds tol. Each chunk of the overlap table's
    upper rows (_overlap_rows) is compared with tol straight into G's
    adjacency and mirrored below the diagonal, so (i, j) and (j, i) are
    decided by the same number (Tr(AB) and Tr(BA) may differ in the last
    bit) and no m x m array of overlaps is held.

    The n_uses-use graph is the strong power of G (Shannon 1956): codewords
    a != b are joined when, at every use, their symbols are equal or joined
    by G. Its adjacency is the Kronecker power of G's adjacency with the
    diagonal set, one factor at a time, cleared on the diagonal at the end.
    With k codewords of one use fewer, codeword a = j k + a' is symbol j
    followed by codeword a', so block (j, l) of the next power is the last
    one where G joins j and l or j == l, and False elsewhere.

    The graph is marked cyclic when G's adjacency is circulant (A[i, j] ==
    A[0, (j - i) mod m]): shifting any symbol position of every codeword by
    the same amount then maps G, and so its strong power, onto itself, the
    graph is vertex-transitive and some maximum independent set holds
    codeword 0. Every cyclic channel of the pentagon kind (input i confused
    with i + 1, ..., mod m) on its diagonal inputs is.

    An input whose trace differs from 1 by more than TRACE_TOL, or that holds
    a NaN or infinity, raises ValueError naming its index: the overlaps of
    unnormalised inputs scale with their traces, so tol would not set the
    same bar for every pair. A tol that is NaN, infinite or negative raises
    ValueError. An input stack over channels.MAX_STACK_BYTES raises
    ResourceCapError before it is formed. More than MAX_VERTICES codewords
    raise ResourceCapError, and so does n_uses >= MAX_VERTICES.bit_length()
    (14), checked first: with
    two inputs or more that is over the vertex cap anyway, and a huge
    n_uses then forms no m^n_uses and, with one input, builds no n_uses
    factors.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("empty input set")
    channels.check_stack_bytes(len(inputs), max(np.shape(inputs[0]), default=0), "input states")
    inputs = np.array(inputs, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(inputs).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"input {bad[0]} has a non-finite entry")
    traces = np.real(np.trace(inputs, axis1=1, axis2=2))
    bad = np.flatnonzero(np.abs(traces - 1.0) > TRACE_TOL)
    if bad.size:
        raise ValueError(f"input {bad[0]} has trace {traces[bad[0]]:.12g}, not 1")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"the adjacency tolerance must be finite and >= 0, got {tol}")
    if n_uses < 1:
        raise ValueError(f"the number of channel uses (--uses) must be >= 1, got {n_uses}")
    max_uses = MAX_VERTICES.bit_length() - 1
    if n_uses > max_uses:
        raise ResourceCapError(f"{n_uses} channel uses exceed the cap of {max_uses}")
    m = len(inputs)
    n_vertices = m ** n_uses
    if n_vertices > MAX_VERTICES:
        raise ResourceCapError(
            f"{n_vertices} codeword vertices exceed the cap of {MAX_VERTICES}"
        )
    outs = channels.apply(ch, inputs)
    single = np.empty((m, m), dtype=bool)
    for start, stop, upper in _overlap_rows(outs):
        np.greater(upper, tol, out=single[start:stop, start:])
        _mirror_rows(single, start, stop)
    # a codeword agrees with itself at every use
    np.fill_diagonal(single, True)
    cyclic = _is_circulant(single)
    adjacency = single
    for _ in range(n_uses - 1):
        k = len(adjacency)
        power = np.empty((m * k, m * k), dtype=bool)
        # the broadcast runs along whole rows of the last power, straight
        # into the new matrix, with no temporary
        np.logical_and(single[:, None, :, None], adjacency[None, :, None, :],
                       out=power.reshape(m, k, m, k))
        adjacency = power
    np.fill_diagonal(adjacency, False)
    labels = ["".join(str(i) for i in v)
              for v in itertools.product(range(m), repeat=n_uses)]
    graph = ConfusabilityGraph(adjacency, labels)
    graph._cyclic = cyclic
    return graph


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
    et al. 2011 (BBMC). Vertices are renumbered by ascending degree (row
    sums of the adjacency matrix, ties by index), each renumbered row is
    packed into one int bitset (gathered a chunk of rows at a time, so no
    second n x n matrix is held), the greedy independent set in that order
    is the first incumbent, a greedy colouring bound is recomputed at
    every node, and the vertex of the highest class is branched on first.
    The search keeps an explicit stack, so its depth is bounded by K
    rather than by the recursion limit.
    More than MAX_BRANCH_NODES branches raise ResourceCapError. A witness
    that touches an edge raises ValueError naming the first pair (a, b),
    a < b, where the adjacency is not symmetric, or AssertionError if it is.

    On a graph marked cyclic (build_confusability_graph, circulant one-use
    adjacency) the graph is vertex-transitive, so the search starts from the
    frame {codeword 0}, its candidates the vertices not joined to 0, and only
    sets that hold codeword 0 are explored; the greedy incumbent, bounds,
    node cap and witness check are those of the full search. pentagon^3
    (125 vertices, K = 10) then takes about 23 000 nodes and 0.1 s instead
    of 0.72 million and 2.7 s.
    """
    n = graph.vertex_count
    if n > MAX_VERTICES:
        raise ResourceCapError("graph exceeds the vertex cap")
    vertex = np.argsort(graph.adjacency.sum(axis=1), kind="stable")
    # row i of the renumbered matrix as an int whose bit j is its column j,
    # gathered and packed a chunk of about 1 MB of rows at a time
    chunk = max(1, _CHUNK_BYTES // max(n, 1))
    adj = []
    for start in range(0, n, chunk):
        rows = graph.adjacency[np.ix_(vertex[start:start + chunk], vertex)]
        packed = np.packbits(rows, axis=1, bitorder="little")
        width, raw = packed.shape[1], packed.tobytes()
        adj += [int.from_bytes(raw[i * width:(i + 1) * width], "little")
                for i in range(len(packed))]

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
    if graph.cyclic:
        # vertex-transitive: some maximum set holds codeword 0, so the
        # search starts from {0} with its non-neighbours as candidates
        root = int(np.flatnonzero(vertex == 0)[0])
        cands = full & ~(adj[root] | 1 << root)
        stack = [[1 << root, 1, cands, *_clique_cover(cands, adj, best_size - 1)]]
    else:
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

    witness = sorted(vertex[[i for i in range(n) if best_set >> i & 1]].tolist())
    # paranoia: the witness must be pairwise non-adjacent in the input graph;
    # the search reads row v as v's neighbours, so a matrix that is not
    # symmetric can make it fail
    if graph.adjacency[np.ix_(witness, witness)].any():
        odd = np.argwhere(np.triu(graph.adjacency != graph.adjacency.T))
        if len(odd):
            a, b = odd[0].tolist()
            raise ValueError(f"adjacency is not symmetric: [{a}, {b}] differs from [{b}, {a}]")
        raise AssertionError("independent-set witness touches an edge")
    return best_size, witness


def solve_zero_error(graph, n_uses, epr_normalized=False):
    """Zero-error rate (1/n) log2 K of an n_uses-use confusability graph."""
    _, witness = max_independent_set(graph)
    return ZeroErrorResult(witness, n_uses, epr_normalized)


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
    kraus = np.zeros((5, 2, 5, 5), dtype=complex)
    i = np.arange(5)
    kraus[i, 0, i, i] = kraus[i, 1, (i + 1) % 5, i] = np.sqrt(0.5)
    return channels.KrausChannel(kraus.reshape(10, 5, 5), 5, 5)


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
    gamma_rings = max(int(np.ceil(np.log2(max(alpha * n, 2.0)))), 1)
    if m is None:
        # sample size with the candidate-space factor |W|^k ~ n^k
        m = int(np.ceil((alpha ** 2 / eps ** 2) *
                        np.log(max(k * (float(n) ** k) * gamma_rings / delta, 2.0))))
    if m >= n or err <= 0:
        return s_in.copy(), np.ones(n), True
    rng = np.random.default_rng(seed)
    radius0 = err / (alpha * n)
    edges = [0.0] + [radius0 * 2.0 ** j for j in range(gamma_rings)] + [np.inf]
    d_all = dom.div_matrix(s_in, medians)
    owner = d_all.argmin(axis=1)
    dmin = d_all.min(axis=1)
    pts = []
    wts = []
    for i in range(medians.shape[0]):
        cluster = np.where(owner == i)[0]
        if cluster.size == 0:
            continue
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
