"""Channel capacity estimation.

HSW (classical) capacity of qubit channels as a certified minimax
information radius over the channel ellipsoid; private information and
coherent information through the complementary channel; and the single-use
quantum capacity as a difference of two information-ball radii evaluated at
the same ensemble.
"""

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import channels, infogeo, kernels, states

# width of the certified HSW bracket, in bits, at which hsw_capacity stops
HSW_GAP_TOL = 1e-7
# column-generation rounds after which hsw_capacity returns an open bracket
HSW_MAX_ROUNDS = 100
# spread input directions of the first columns, a fibonacci_sphere grid; the
# six output-ellipsoid axis directions, where King's theorem puts the optimum
# of a unital channel, are added to them
HSW_START_COLUMNS = 32
# interval splits of one sphere-oracle call
_ORACLE_MAX_SPLITS = 500
# |beta_k| and lam_k at most this count as 0 for the mirror images and the
# King round of hsw_capacity. eigh and V^T A^T b leave about 1e-15 where
# they vanish exactly (Kraus-rank-2 channels), and a wrong call costs rounds,
# never the certificate
_MIRROR_TOL = 1e-10
_BLOCH = infogeo.Generator("neg_von_neumann")


class Ensemble(Sequence):
    """Pure qubit input ensemble held as one (k, 4) array whose rows are
    (weight, Bloch vector), read as the sequence of (weight, state) pairs.
    A state is built from its Bloch vector when it is read, so a kept
    answer holds one small array."""

    __slots__ = ("rows",)

    def __init__(self, weights, bloch):
        self.rows = np.column_stack([weights, bloch])

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return float(self.rows[i, 0]), states.bloch_to_density(self.rows[i, 1:])


@dataclass(slots=True)
class CapacityResult:
    """Capacity estimate with the geometric witnesses that produced it.

    bracket, when set, is a certified [lower, upper] around the capacity.
    """

    value: float
    optimal_ensemble: Sequence = field(default_factory=list)
    center: np.ndarray = None
    radius: float = 0.0
    iterations: int = 0
    converged: bool = True
    ball_pair: "BallPair" = None
    bracket: tuple = None


@dataclass
class BallPair:
    """Radii of the output ball, environment ball, and their difference."""

    r_AB: float
    r_AE: float
    r_coh: float


def fibonacci_sphere(n):
    """n near-uniform unit directions on the sphere (golden-angle spiral)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([s * np.cos(theta), s * np.sin(theta), z])


def channel_holevo(ch, ensemble):
    """Holevo quantity of the output ensemble {p_i, N(rho_i)}."""
    probs, rhos = zip(*ensemble)
    return states.holevo_quantity(zip(probs, channels.apply(ch, np.array(rhos))))


def _psi(q):
    """psi(q) = F(sqrt(q)), the entropy term of an output with |r|^2 = q.

    Its power series in q has positive coefficients, so psi is convex and
    increasing on [0, 1].
    """
    return kernels.neg_entropy_scalar(math.sqrt(min(max(q, 0.0), 1.0)))


def _psi_slope(q):
    """psi'(q) = atanh(r) / (2 r ln 2), r = sqrt(q), kept finite at purity."""
    return 0.5 * kernels.grad_coeff(min(math.sqrt(max(q, 0.0)), 1.0 - 1e-12))


def _sphere_max(m, g):
    """(bound, u) for max over |u| = 1 of sum_i m_i u_i^2 + g_i u_i.

    For any mu > max m_i the Lagrangian dual of the trust-region problem
    gives bound = mu + sum_i g_i^2 / (4 (mu - m_i)) >= the maximum. mu
    comes from Newton's method on the secular equation |u(mu)| = 1, with
    u_i(mu) = g_i / (2 (mu - m_i)), from the left, where 1/|u(mu)| is
    concave and the iterates rise monotonically. In the hard case, where
    |u| < 1 already next to the top eigenvalue, mu stays there, the top
    term is dropped and u is filled up along that eigenvector with the sign
    of g's component on it. u is a unit near-maximiser.
    """
    k = max(range(len(m)), key=m.__getitem__)
    top = m[k]
    mu = top + 1e-14 * (1.0 + abs(top))
    terms = [(mi, gi * gi) for mi, gi in zip(m, g) if gi != 0.0]
    n2 = sum(g2 / (4.0 * (mu - mi) ** 2) for mi, g2 in terms)
    hard = n2 <= 1.0
    if not hard:
        for _ in range(100):
            dn2 = sum(g2 / (2.0 * (mu - mi) ** 3) for mi, g2 in terms)
            phi = n2 ** -0.5
            step = (1.0 - phi) / (0.5 * phi * dn2 / n2)
            if step <= 1e-15 * (1.0 + abs(mu)):
                break
            mu += step
            n2 = sum(g2 / (4.0 * (mu - mi) ** 2) for mi, g2 in terms)
    bound = mu + sum(g2 / (4.0 * (mu - mi)) for mi, g2 in terms)
    u = [gi / (2.0 * (mu - mi)) for mi, gi in zip(m, g)]
    if hard:
        u[k] = 0.0
        u[k] = math.copysign(math.sqrt(max(1.0 - sum(x * x for x in u), 0.0)), g[k])
    norm = math.sqrt(sum(x * x for x in u))
    return bound, [x / norm for x in u]


class _OutputEllipsoid:
    """Outputs N(u) = A u + b of the pure inputs |u| = 1 of a qubit channel.

    Input directions are kept in the eigenbasis V of A^T A (eigenvalues
    lam), where q(u) = |N(u)|^2 = sum_i lam_i u_i^2 + 2 <beta, u> + |b|^2
    with beta = V^T A^T b. [q_lo, q_hi] bounds q over the sphere.

    With A = U Sigma V^T, the input flip u -> V diag(s) V^T u, s in {+-1}^3
    with s_k = -1 only where beta_k = 0 and lam_k > 0, maps N(u) to
    U diag(s) U^T N(u): an orthogonal map of the Bloch ball that fixes b,
    since U^T b = Sigma^-1 beta there. mirrors, a stack (m, 3, 3), holds
    the input maps of the flips other than the identity: none for a
    Kraus-rank-3 channel with a generic b, three for amplitude damping and
    a generic Kraus-rank-2 channel, whose b lies along one axis of A
    (Ruskai, Szarek and Werner 2002). centred is beta = 0, b orthogonal to
    the range of A, as in every unital channel.
    """

    def __init__(self, aff):
        self.A, self.b = aff.A, aff.b
        lam, self.V = np.linalg.eigh(self.A.T @ self.A)
        self.lam = [float(x) for x in lam]
        self.beta = [float(x) for x in self.V.T @ (self.A.T @ self.b)]
        self.bb = float(self.b @ self.b)
        hi, _ = _sphere_max(self.lam, [2.0 * x for x in self.beta])
        lo, _ = _sphere_max([-x for x in self.lam], [-2.0 * x for x in self.beta])
        self.q_hi = min(max(self.bb + hi, 0.0), 1.0)
        self.q_lo = min(max(self.bb - lo, 0.0), self.q_hi)
        zero = [abs(x) <= _MIRROR_TOL for x in self.beta]
        self.centred = all(zero)
        axes = [k for k in range(3) if zero[k] and self.lam[k] > _MIRROR_TOL]
        signs = np.ones((2 ** len(axes) - 1, 3))
        for j, row in enumerate(signs, start=1):
            row[[k for i, k in enumerate(axes) if j >> i & 1]] = -1.0
        self.mirrors = (self.V * signs[:, None, :]) @ self.V.T

    def q(self, u):
        return (sum(l * x * x for l, x in zip(self.lam, u))
                + 2.0 * sum(b * x for b, x in zip(self.beta, u)) + self.bb)

    def oracle(self, theta, lower):
        """(upper, u): upper >= max over |u| = 1 of D(N(u) || c), with
        c = grad_inv(theta), and u the input direction of the largest
        divergence found.

        D(N(u) || c) = F*(theta) + psi(q(u)) - <theta, N(u)>. On an interval
        [a, z] of q the chord of the convex psi lies above psi, and it lies
        below psi outside, so chord(q(u)) - <theta, N(u)> is a quadratic in u
        whose maximum over the whole sphere, bounded by _sphere_max, bounds D
        over the inputs with q(u) in [a, z] and stays at most max D over the
        rest. A zero-width interval takes the tangent, which lies below psi
        everywhere. Best-first bisection over the intervals, all kept in the
        heap, stops when the largest bound is within HSW_GAP_TOL of lower,
        or when the best divergence found closes half of the gap to it.
        """
        theta = np.asarray(theta, dtype=float)
        base = _BLOCH.F_star(theta) - float(theta @ self.b)
        alpha = [float(x) for x in self.V.T @ (self.A.T @ theta)]
        best = [-math.inf, None]

        def interval(a, z, psi_a, psi_z):
            slope = (psi_z - psi_a) / (z - a) if z > a else _psi_slope(a)
            g = [2.0 * slope * be - al for be, al in zip(self.beta, alpha)]
            val, u = _sphere_max([slope * l for l in self.lam], g)
            found = base + _psi(self.q(u)) - sum(al * x for al, x in zip(alpha, u))
            if found > best[0]:
                best[:] = found, u
            bound = base + psi_a + slope * (self.bb - a) + val
            return (-bound, a, z, psi_a, psi_z)

        heap = [interval(self.q_lo, self.q_hi, _psi(self.q_lo), _psi(self.q_hi))]
        for _ in range(_ORACLE_MAX_SPLITS):
            neg, a, z, psi_a, psi_z = heap[0]
            gap = -neg - lower
            if gap <= HSW_GAP_TOL or best[0] - lower >= 0.5 * gap:
                break
            mid = 0.5 * (a + z)
            if not a < mid < z:
                break
            psi_mid = _psi(mid)
            heapq.heapreplace(heap, interval(a, mid, psi_a, psi_mid))
            heapq.heappush(heap, interval(mid, z, psi_mid, psi_z))
        return -heap[0][0], self.V @ np.array(best[1])


def hsw_capacity(ch):
    """HSW capacity of a qubit channel as a certified minimax information radius.

    The capacity is min_c max_{|u|=1} D(N(u) || c) (Schumacher and
    Westmoreland 2001), solved by column generation. The columns start as
    the outputs of HSW_START_COLUMNS fibonacci_sphere directions and of the
    six directions +-v along the axes of the output ellipsoid, v the
    eigenvectors of A^T A. Each round has a solution of the finite minimax
    on the columns, whose weights give the lower end chi(w); the sphere
    oracle bounds max_u D(N(u) || c) at its centre c, the upper end, and
    its input direction joins the columns together with its mirror images
    (_OutputEllipsoid): the images of a column are as far from the centre
    as the column once the centre is the symmetric optimum. The next round
    solves the finite minimax with infogeo.minimax_ball, warm-started from
    the previous solution.
    Round 1 solves it cold, except where beta = 0, as in every unital
    channel, whose capacity King's theorem (J. Math. Phys. 43, 4641, 2002)
    puts on the antipodal inputs +-v along the longest axis: there round 1
    takes that pair, weights 1/2 and centre b (_king_pair), and the rounds
    go on from it if the oracle does not close the bracket.
    It stops when the bracket is HSW_GAP_TOL wide or after HSW_MAX_ROUNDS
    rounds, which leaves converged False.

    infogeo.caratheodory prunes the ensemble, without lowering chi, to
    states with affinely independent outputs, so at most 4. value and
    radius are chi of the reported ensemble, the lower end; center is its
    output mean; bracket is [lower, upper]; iterations counts rounds.
    A channel whose outputs all coincide has capacity [0, 0].
    """
    if ch.in_dim != 2 or ch.out_dim != 2:
        raise ValueError("the minimax solver is implemented for qubit channels")
    aff = channels.kraus_to_affine(ch)
    ellipsoid = _OutputEllipsoid(aff)
    dirs = np.vstack([fibonacci_sphere(HSW_START_COLUMNS), ellipsoid.V.T, -ellipsoid.V.T])
    outs = aff(dirs)
    if (outs == outs[0]).all():
        return CapacityResult(
            value=0.0,
            optimal_ensemble=Ensemble(np.ones(1), dirs[:1]),
            center=states.bloch_to_density(outs[0]),
            radius=0.0,
            iterations=0,
            converged=True,
            bracket=(0.0, 0.0),
        )
    if ellipsoid.centred:
        res = _king_pair(outs)
    else:
        res = infogeo.minimax_ball(_BLOCH, infogeo.WeightedPointSet(outs))
    upper = math.inf
    rounds = 0
    while True:
        rounds += 1
        up, u = ellipsoid.oracle(res.theta, res.lower)
        upper = min(upper, up)
        if upper - res.lower <= HSW_GAP_TOL or rounds == HSW_MAX_ROUNDS:
            break
        new = np.vstack([u, ellipsoid.mirrors @ u])
        dirs = np.vstack([dirs, new])
        outs = np.vstack([outs, aff(new)])
        res = infogeo.minimax_ball(_BLOCH, infogeo.WeightedPointSet(outs), warm=res)
    ent = kernels.neg_entropy(outs)
    weights = infogeo.caratheodory(outs, ent, res.weights)
    keep = np.flatnonzero(weights)
    mean = weights @ outs
    lower = float(weights @ ent) - kernels.neg_entropy_scalar(float(np.linalg.norm(mean)))
    upper = max(upper, lower)
    return CapacityResult(
        value=lower,
        optimal_ensemble=Ensemble(weights[keep], dirs[keep]),
        center=states.bloch_to_density(mean),
        radius=lower,
        iterations=rounds,
        converged=upper - lower <= HSW_GAP_TOL,
        bracket=(lower, upper),
    )


def _king_pair(outs):
    """The finite minimax answer King's theorem gives when beta = 0: the
    outputs of the start columns +-v along the longest axis of the output
    ellipsoid (eigh orders the axes, so they are the last of each triple),
    weights 1/2 and centre their mean. The lower end is chi of the pair
    less infogeo._dual_lower's rounding allowance, and the upper end the
    farthest column from that centre (infogeo._farthest)."""
    pair = [HSW_START_COLUMNS + 2, HSW_START_COLUMNS + 5]
    weights = np.zeros(len(outs))
    weights[pair] = 0.5
    theta = _BLOCH.natural((weights @ outs)[None])[0][0]
    center = _BLOCH.grad_inv(theta)
    ent = kernels.neg_entropy(outs)
    p_max = math.sqrt(float(np.einsum("ij,ij->i", outs, outs).max()))
    lower = infogeo._dual_lower(_BLOCH, weights, ent, outs, theta, p_max)
    upper = infogeo._farthest(_BLOCH, outs, ent, 0.0, center)[1]
    return infogeo.MinimaxResult(center, theta, weights, min(lower, upper), upper, 0)


def unital_hsw_closed_form(ch):
    """1 - H((1 + r_max)/2) for a unital qubit channel.

    r_max is the largest singular value of the affine matrix; valid only
    when the shift b vanishes (the output ellipsoid is centered).
    """
    aff = channels.kraus_to_affine(ch)
    if np.linalg.norm(aff.b) > 1e-9:
        raise ValueError("closed form requires a unital channel (b = 0)")
    r_max = float(np.linalg.svd(aff.A, compute_uv=False)[0])
    return 1.0 - states.binary_entropy((1.0 + min(r_max, 1.0)) / 2.0)


def private_info(ch, ensemble=None):
    """Single-ensemble private information X_AB - X_AE.

    X_AB is the Holevo quantity of the channel outputs and X_AE that of the
    complementary (environment) outputs; the raw difference is returned and
    may be negative for poorly chosen ensembles. A ChannelSpec carrying a
    declared private capacity short-circuits to the declared value.
    """
    if isinstance(ch, channels.ChannelSpec):
        if ch.private_capacity_bits is not None:
            return float(ch.private_capacity_bits)
        ch = channels.build_channel(ch)
    if ensemble is None:
        raise ValueError("an ensemble is required for channels without declared capacity")
    x_ab = channel_holevo(ch, ensemble)
    x_ae = channel_holevo(channels.complementary_channel(ch), ensemble)
    return x_ab - x_ae


def coherent_info(ch, rho, comp=None):
    """I_coh(rho, N) = S(N(rho)) - S(E(rho)) with E the complementary channel;
    a stack of inputs (..., d, d) gives an array. comp, when given, is E,
    built once by a caller that needs it again."""
    comp = channels.complementary_channel(ch) if comp is None else comp
    return (states.von_neumann_entropy(channels.apply(ch, rho))
            - states.von_neumann_entropy(channels.apply(comp, rho)))


def _pure_decomposition(rho):
    """Eigen-ensemble of rho: [(lambda_i, |v_i><v_i|)] over nonzero weights."""
    evals, evecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    ens = []
    for lam, v in zip(evals.real, evecs.T):
        if lam > 1e-12:
            ens.append((float(lam), np.outer(v, v.conj())))
    # renormalize away eigenvalue clipping noise
    tot = sum(p for p, _ in ens)
    return [(p / tot, s) for p, s in ens]


def quantum_capacity_single_use(ch, candidates):
    """Best coherent information over candidate inputs, with ball radii.

    For the maximizing candidate, reports r_AB = X_AB and r_AE = X_AE of its
    pure eigen-ensemble (both Holevo terms at the same ensemble) so that
    r_coh = r_AB - r_AE equals the coherent information. The capacity
    estimate is max(0, best coherent information), a lower bound on Q^(1).
    """
    rhos = np.array(list(candidates), dtype=complex)
    if not len(rhos):
        raise ValueError("empty candidate set")
    comp = channels.complementary_channel(ch)
    vals = coherent_info(ch, rhos, comp)
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    ens = _pure_decomposition(rhos[best])
    r_ab = channel_holevo(ch, ens)
    r_ae = channel_holevo(comp, ens)
    pair = BallPair(r_AB=r_ab, r_AE=r_ae, r_coh=r_ab - r_ae)
    return CapacityResult(
        value=max(best_val, 0.0),
        optimal_ensemble=ens,
        center=channels.apply(ch, rhos[best]),
        radius=max(best_val, 0.0),
        iterations=len(rhos),
        converged=True,
        ball_pair=pair,
    )


def qubit_candidate_states(n=200, include_axis_family=True):
    """Default qubit candidate inputs as one stack (m, 2, 2): sphere-grid
    pure states, mixed z-axis states, and the maximally mixed state."""
    axis = np.zeros((67 if include_axis_family else 0, 3))
    axis[:, 2] = np.linspace(-0.99, 0.99, len(axis))
    return states.bloch_to_density(np.vstack([fibonacci_sphere(n) * (1.0 - 1e-12), axis,
                                              np.zeros((1, 3))]))
