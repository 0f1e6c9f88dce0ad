"""Bregman-divergence geometry: generators, smallest enclosing information
balls and a certified minimax solver.

Generator(name) returns one of two geometries behind the one protocol the
solvers use. Each geometry provides the primitives F, grad_inv, F_star,
hess_star, batch_F, prepared_div (which scores a point set against many
centres with F(p_i) computed once) and natural (theta = grad F(c) and
F*(theta) of many centres at once, which bound those scores) and the
domain rules check_rows and interior. The base class derives the rest
from them: batch_div(points, c) is prepared_div(points, batch_F(points), c)
and div(x, y) is its one row.
NegVonNeumann works on qubit Bloch vectors: F(r) = Tr(rho log2 rho) has
the kernels' closed forms, and the divergence, the quantum relative entropy
in bits, is F(p) + F*(theta) - <p, theta> at theta = grad F(c). The domain
is the unit ball, whose pure shell lies at |theta| = infinity: a centre
with |c| >= 1 scores +inf on every row, the one shell rule.
SquaredEuclidean works on real vectors, recovers ||x - y||^2 and has the
domain rules of R^d (finite rows, no nudge); it is the sanity geometry for
the solvers.

The ball solvers work in these natural coordinates and map theta back to
a centre only through grad_inv. A geodesic is a straight line there, and
seb_basic steps a centre's theta toward a row's, taken from one natural
call, theta <- (1 - t) theta + t theta_s. For qubits this path is
identical to applying matrix log/exp to the density matrices and
renormalizing the trace, so centers always remain valid states. Its
rounds stop once the enclosure is within (1 + eps) of the dual value of
their picks, the lower bound that minimax_ball certifies its brackets
with. Every solver scores an enclosure through _farthest and a dual value
through _dual_lower. seb_improved moves no centre itself: it returns
minimax_ball's on every row.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, states
from .errors import ResourceCapError

NUDGE = 1e-9
# rounds of seb_basic (ceil(1/eps^2)) beyond which it refuses to start
MAX_BASIC_ROUNDS = 1_000_000
# score columns (n-vectors) seb_basic caches, whatever its number of rounds
_BASIC_COLUMNS = 16
# width of the certified bracket at which minimax_ball stops
MINIMAX_GAP_TOL = 1e-9
# iterations of minimax_ball beyond which it returns an open bracket
MINIMAX_MAX_STEPS = 500
# Newton steps of one active-set finish of minimax_ball before it gives up
_FINISH_STEPS = 8
# the finish starts from the _FINISH_POINTS * (d + 1) largest weights
_FINISH_POINTS = 2
# points whose [p_i; 1] has a singular value this far below the largest are
# affinely dependent for caratheodory and the finish
_AFFINE_TOL = 1e-12
# _dual_lower lowers a dual value by this many times the rounding unit of
# the terms it cancels, so that it stays below the rounded enclosures
_DUAL_SLACK = 8.0 * float(np.finfo(float).eps)
_LN2 = np.log(2.0)


class Generator:
    """Convex generator F of D_F(x || y) = F(x) - F(y) - <x - y, grad F(y)>;
    Generator(name) returns the geometry of that name.

    grad_inv is the gradient of F_star; batch_F and
    prepared_div(points, batch_F(points), center) act on the rows of
    points, and natural(centers) -> (theta, f_star) on the rows of
    centers: theta_j = grad F(c_j) and f_star_j = F*(theta_j), or
    f_star_j = +inf where prepared_div scores +inf. div and batch_div are
    derived from them here.
    The domain rules check_rows and interior defined here are those of R^d.
    A centre on the domain's boundary has no theta; prepared_div scores it
    +inf on every row, which is how the solvers recognise it.
    """

    def __new__(cls, name=None):
        if cls is Generator and name not in _GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return super().__new__(_GENERATORS[name] if cls is Generator else cls)

    def check_rows(self, points):
        """Raise ValueError naming the first row outside the domain, here
        the first row that is not finite."""
        bad = np.flatnonzero(~np.isfinite(points).all(axis=-1))
        if bad.size:
            raise ValueError(f"row {int(bad[0])}: point is not finite")

    def interior(self, x, amount=NUDGE):
        """x, or x moved into the interior of the domain by at most amount."""
        return x

    def batch_div(self, points, center):
        """D(p_i || center) for each row of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.prepared_div(points, self.batch_F(points), center)

    def div(self, x, y):
        """D(x || y): the one row of batch_div([x], y)."""
        return float(self.batch_div(x, y)[0])


class NegVonNeumann(Generator):
    """F(r) = Tr(rho log2 rho) on qubit Bloch vectors; divergences in bits."""

    def F(self, x):
        x = np.asarray(x, dtype=float)
        return kernels.neg_entropy_scalar(math.sqrt(float(x @ x)))

    def grad_inv(self, y):
        y = np.asarray(y, dtype=float)
        m = math.sqrt(float(y @ y))
        if m < 1e-15:
            return np.zeros_like(y)
        return (np.tanh(m * _LN2) / m) * y

    def F_star(self, theta):
        """F*(theta) = 1 + log2 cosh(ln 2 |theta|) (kernels.neg_entropy_star)."""
        theta = np.asarray(theta, dtype=float)
        return kernels.neg_entropy_star(math.sqrt(float(theta @ theta)))

    def hess_star(self, theta):
        theta = np.asarray(theta, dtype=float)
        eye = np.eye(theta.shape[0])
        m = math.sqrt(float(theta @ theta))
        if m < 1e-15:
            return _LN2 * eye
        t = np.tanh(m * _LN2)
        u = theta / m
        radial = np.outer(u, u)
        return _LN2 * (1.0 - t * t) * radial + (t / m) * (eye - radial)

    def batch_F(self, points):
        return kernels.neg_entropy(points)

    def prepared_div(self, points, f, center):
        return kernels.prepared_divergence(points, f, center)

    def natural(self, centers):
        return kernels.natural_parameters(centers)

    def check_rows(self, points):
        """Raise ValueError naming the first row outside the unit ball
        (states.check_bloch).

        WeightedPointSet is generator-agnostic, so the solvers check this
        themselves: F clamps such a row to |r| = 1 while <p, theta> does not,
        which would make every divergence to it silently wrong.
        """
        states.check_bloch(points)

    def interior(self, x, amount=NUDGE):
        """Shrink Bloch vectors by mixing with the maximally mixed state.

        rho -> (1 - amount) rho + amount I/2 keeps eigenvalues strictly positive
        so natural coordinates stay finite; the perturbation is disclosed and
        bounded by amount. A vector with |x| > 1, which check_rows accepts
        up to states.BLOCH_RADIUS_TOL, is first scaled onto the sphere:
        (1 - amount) x alone can round back onto the shell there.
        """
        x = np.asarray(x, dtype=float)
        return (1.0 - amount) * (x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1.0))


class SquaredEuclidean(Generator):
    """F(x) = ||x||^2 on real vectors, so D_F(x || y) = ||x - y||^2."""

    def F(self, x):
        x = np.asarray(x, dtype=float)
        return float(x @ x)

    def grad_inv(self, y):
        return 0.5 * np.asarray(y, dtype=float)

    def F_star(self, theta):
        return self.F(theta) / 4.0

    def hess_star(self, theta):
        return 0.5 * np.eye(np.asarray(theta).shape[0])

    def batch_F(self, points):
        return np.einsum("ij,ij->i", points, points)

    def prepared_div(self, points, f, center):
        d = points - np.asarray(center, dtype=float)
        return (d * d).sum(axis=1)

    def natural(self, centers):
        """theta = 2c and F*(theta) = |c|^2."""
        centers = np.asarray(centers, dtype=float)
        return 2.0 * centers, self.batch_F(centers)


_GENERATORS = {"neg_von_neumann": NegVonNeumann, "squared_euclidean": SquaredEuclidean}


@dataclass(slots=True)
class InfoBall:
    """Left-sided information ball {x : D(x || center) <= radius}.

    history is seb_basic's enclosure at its start centre and at its final
    one, the float64 pair [start, radius], or seb_improved's one
    (r, delta) bracket in a list.
    """

    center: np.ndarray
    radius: float
    history: np.ndarray | list = field(default_factory=list)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")


@dataclass
class WeightedPointSet:
    """Point set with optional weights and per-point ball radii."""

    points: np.ndarray
    weights: np.ndarray = None
    radii: np.ndarray = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        n = self.points.shape[0]
        if n == 0:
            raise ValueError("empty point set")
        if self.weights is None:
            self.weights = np.ones(n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
        if self.radii is None:
            self.radii = np.zeros(n)
        else:
            self.radii = np.asarray(self.radii, dtype=float)
        if len(self.weights) != n or len(self.radii) != n:
            raise ValueError("weights/radii length mismatch with points")
        if (~(self.weights >= 0)).any():
            raise ValueError("weights must be nonnegative")
        if (self.radii < 0).any():
            raise ValueError("ball radii must be nonnegative")
        if not np.isfinite(self.radii).all():
            raise ValueError("ball radii must be finite")

    def __len__(self):
        return self.points.shape[0]


def _coincident_ball(pset):
    """(that point, max_i r_i), every ball solver's answer when all rows of
    pset coincide (raw, not nudged: F is finite on a pure state), else None."""
    pts = pset.points
    if (pts != pts[0]).any():
        return None
    return pts[0].copy(), float(pset.radii.max())


@dataclass
class MinimaxResult:
    """Certified solution of min_c max_i D(p_i || c) + r_i.

    upper = max_i D(p_i || center) + r_i is an enclosure actually reached;
    lower is the dual value of the weights, sum_i w_i b_i - F(sum_i w_i p_i)
    with b_i = F(p_i) + r_i, less an allowance for its rounding (see
    minimax_ball), and at most upper. So lower <= r* <= upper, with the
    rounding of the scores allowed for.
    theta is the natural coordinate of center, and center is grad_inv(theta):
    a warm start and hsw_capacity's sphere oracle go on from it. Where the
    rows all coincide, center is that row and theta is g.natural's theta of
    it (0 on the pure shell, where the row has none).
    """

    center: np.ndarray
    theta: np.ndarray
    weights: np.ndarray
    lower: float
    upper: float
    steps: int

    @property
    def gap(self):
        return self.upper - self.lower


def _affine_dependence(points):
    """A unit null vector v of [p_i; 1], so sum_i v_i p_i = 0 and
    sum_i v_i = 0, or None when the points are affinely independent."""
    _, sv, vt = np.linalg.svd(np.vstack([points.T, np.ones(len(points))]))
    if len(points) <= points.shape[1] + 1 and sv[-1] > _AFFINE_TOL * sv[0]:
        return None
    return vt[-1]


def _ratio_test(w, v):
    """(j, step): w_j is the first weight of w + step * v to reach 0."""
    ratios = np.full(len(v), np.inf)
    with np.errstate(over="ignore"):  # a subnormal v_i gives an infinite ratio
        ratios[v < 0.0] = w[v < 0.0] / -v[v < 0.0]
    j = int(np.argmin(ratios))
    return j, ratios[j]


def caratheodory(points, values, weights):
    """Weights on affinely independent points, so at most d + 1 of them,
    with the same mean and no lower sum_i w_i values_i.

    Each step takes a null vector v of [p_i; 1] on the d + 2 smallest
    weights, or on the whole support when that is smaller but affinely
    dependent, signs it so that <v, values> >= 0, and moves the weights
    along it until the first one reaches 0. The mean stays fixed, so with
    values_i = F(p_i) + r_i the dual value sum_i w_i values_i - F(mean)
    does not fall.
    """
    w = np.array(weights, dtype=float)
    k = points.shape[1] + 2
    while True:
        idx = np.flatnonzero(w)
        idx = idx[np.argsort(w[idx], kind="stable")[:k]]
        v = _affine_dependence(points[idx])
        if v is None:
            return w / w.sum()
        if v @ values[idx] < 0.0:
            v = -v
        j, step = _ratio_test(w[idx], v)
        w[idx] = np.maximum(w[idx] + step * v, 0.0)
        w[idx[j]] = 0.0


def _active_set_finish(g, pts, b, theta, w, enter, certify):
    """Newton's method on the KKT system of a small support; True once
    certify reports the bracket closed (or the step budget spent).

    caratheodory reduces the _FINISH_POINTS * (d + 1) largest weights of w
    to an affinely independent support S. At the minimiser every point of
    S has the same score, F*(theta) + b_i - <p_i, theta> = t, and
    grad F*(theta) = sum_i lam_i p_i with sum_i lam_i = 1. The Jacobian of
    that square system does not involve lam or t, so each step solves for
    the new theta, lam and t at once; it is nonsingular while S is affinely
    independent. The step solves the quadratic model of the largest score
    on S, so it descends on that score; backtracking damps it where the
    model overshoots. Before each step the farthest point at theta (enter,
    at the start) joins S if it is outside, and when S then is affinely
    dependent the null vector of [p_i; 1] that raises its weight from 0
    decides which point leaves (a ratio test); after a step that gives a
    point lam_i < 0, that point leaves instead. Every iterate is certified
    with the clipped lam. False after _FINISH_STEPS steps, or at a
    singular system, a non-finite step, a step that cannot descend or a
    centre on the pure-state shell.
    """
    d = pts.shape[1]
    k = _FINISH_POINTS * (d + 1)
    if len(w) > k:
        w = w.copy()
        w[np.argpartition(w, -k)[:-k]] = 0.0
    w = caratheodory(pts, b, w)
    support = list(np.flatnonzero(w))
    lam = w[support]
    for _ in range(_FINISH_STEPS):
        if enter is not None and enter not in support:
            support.append(enter)
            v = _affine_dependence(pts[support])
            if v is not None:
                del support[_ratio_test(np.append(lam, 0.0), v if v[-1] >= 0.0 else -v)[0]]
        p, bs, m = pts[support], b[support], len(support)

        def merit(th):
            return g.F_star(th) + float((bs - p @ th).max())

        c = g.grad_inv(theta)
        kkt = np.zeros((d + m + 1, d + m + 1))
        kkt[:d, :d] = g.hess_star(theta)
        kkt[:d, d:-1] = -p.T
        kkt[d:-1, :d] = c - p
        kkt[d:-1, -1] = -1.0
        kkt[-1, d:-1] = 1.0
        rhs = np.concatenate([-c, p @ theta - bs - g.F_star(theta), [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(sol).all():
            return False
        step, lam, t = sol[:d], sol[d:-1], sol[-1]
        f = merit(theta)
        slack = 1e-13 * (1.0 + abs(f))
        alpha = 1.0
        while merit(theta + alpha * step) > f - 0.25 * alpha * max(f - t, 0.0) + slack:
            alpha *= 0.5
            if alpha < 1e-12:
                return False
        theta = theta + alpha * step
        w = np.zeros(len(pts))
        w[support] = np.maximum(lam, 0.0)
        idx, up, done = certify(theta, w / w.sum())
        if done:
            return True
        if not np.isfinite(up):
            return False
        enter = idx
        if lam.min() < 0.0:
            j = int(np.argmin(lam))
            del support[j]
            lam, enter = np.delete(lam, j), None
    return False


def _dual_lower(g, w, b, pts, theta, p_max):
    """The dual value sum_i w_i b_i - F(sum_i w_i p_i) of the weights w,
    a lower bound on min_c max_i D(p_i || c) + r_i, lowered to stay below
    the rounded enclosures near theta (and at least 0).

    The dual value cancels terms of size |b_i| and |F(pbar)|, and an
    enclosure near theta terms of size |F*(theta)| and |<p_i, theta>|, with
    |p_i| <= p_max; the value is lowered by _DUAL_SLACK times their sum.
    minimax_ball certifies its lower end with it, and seb_basic its stop.
    """
    head, mix = float(w @ b), float(g.F(w @ pts))
    scale = (float(w @ np.abs(b)) + abs(mix) + abs(float(g.F_star(theta)))
             + math.sqrt(float(theta @ theta)) * p_max)
    return max(head - mix - _DUAL_SLACK * scale, 0.0)


def _farthest(g, pts, f, rad, center):
    """(i, enclosure): the row i of largest D(p_i || center) + r_i, ties to
    the lowest index, and that value, given f = g.batch_F(pts). Only
    rounding at a centre on every row puts it below 0, which reads 0."""
    vals = g.prepared_div(pts, f, center) + rad
    idx = int(np.argmax(vals))
    return idx, max(float(vals[idx]), 0.0)


def minimax_ball(g, pset, warm=None):
    """Smallest enclosing information ball of a finite set, with a bracket.

    In natural coordinates theta = grad F(c) the enclosure is
    max_i D(p_i || c) + r_i = F*(theta) + max_i (b_i - <p_i, theta>), with
    b_i = F(p_i) + r_i, a convex function of theta. Damped Newton steps
    minimise its log-sum-exp smoothing (Nesterov 2005)
        F*(theta) + tau log sum_i exp((b_i - <p_i, theta>) / tau)
    from theta = grad F(mean of the points). tau starts at 0.1 (times the
    spread of the starting scores where that exceeds 1) and falls tenfold
    whenever the smoothing, not the Newton solve, dominates the gap. Before
    each fall the active-set finish (_active_set_finish) tries to solve the
    KKT system of the at most d + 1 points the softmax weights lean on,
    which converges quadratically once that support is right; if it fails,
    the continuation goes on from where it was.
    The softmax weights w of the smoothing are a dual point, so every
    iteration certifies
        [sum_i w_i b_i - F(sum_i w_i p_i), max_i D(p_i || c) + r_i],
    whose lower end is lowered by a few rounding units of the terms that the
    dual value and the enclosure cancel (certify), so that it stays below
    the enclosure the rounded scores give at any centre near the optimum.
    The solver stops when the bracket is MINIMAX_GAP_TOL wide (relative to
    the radius above 1, where the rounding of the scores exceeds it) or
    after MINIMAX_MAX_STEPS iterations of either kind. The lower end is
    reported as at most the upper one: an exact KKT solution can put the
    dual value a rounding above the enclosure, and r* <= upper.

    warm, a MinimaxResult on the first rows of pset (as column generation
    builds them), starts with the finish from its centre and its weights
    padded with 0, unless that centre scores +inf (a pure point); the
    finish starts from warm.theta, and the continuation runs only if it
    fails. The reported centre is grad_inv of the reported theta.
    """
    pts = pset.points
    rad = pset.radii
    g.check_rows(pts)
    weights = np.zeros(len(pset))
    ball = _coincident_ball(pset)
    if ball is not None:
        weights[np.argmax(rad)] = 1.0
        theta = g.natural(ball[0][None])[0][0]
        return MinimaxResult(ball[0], theta, weights, ball[1], ball[1], 0)
    f_pts = g.batch_F(pts)
    b = f_pts + rad
    p_max = math.sqrt(float(np.einsum("ij,ij->i", pts, pts).max()))
    lower, upper, center, center_theta, steps = -np.inf, np.inf, None, None, 0

    def certify(theta, w):
        """Fold the bracket of (c = grad_inv(theta), w) into the best one;
        (farthest index, enclosure at c, whether the solver is done).
        The lower end is _dual_lower's, so that rounding does not lift it
        above an enclosure scored near the optimum."""
        nonlocal lower, upper, center, center_theta, weights, steps
        steps += 1
        c = g.grad_inv(theta)
        lo = _dual_lower(g, w, b, pts, theta, p_max)
        if lo > lower:
            lower, weights = lo, w
        idx, up = _farthest(g, pts, f_pts, rad, c)
        if up < upper:
            upper, center, center_theta = up, c, theta
        closed = upper < math.inf and upper - lower <= MINIMAX_GAP_TOL * max(1.0, upper)
        return idx, up, closed or steps >= MINIMAX_MAX_STEPS

    def result():
        return MinimaxResult(center, center_theta, weights, min(lower, upper), upper, steps)

    if warm is not None:
        # a warm centre on a pure point (the answer for one distinct row) has
        # no theta, and the shell rule scores it +inf
        idx, up = _farthest(g, pts, f_pts, rad, warm.center)
        if math.isfinite(up):
            w = np.zeros(len(pset))
            w[:len(warm.weights)] = warm.weights
            if _active_set_finish(g, pts, b, warm.theta, w, idx, certify):
                return result()

    def smoothed(theta, tau):
        s = b - pts @ theta
        top = float(s.max())
        e = np.exp((s - top) / tau)
        z = float(e.sum())
        return g.F_star(theta) + top + tau * np.log(z), s, e / z

    # the mixture of nearly coincident pure rows can round onto the sphere
    theta = g.natural(g.interior(pts.mean(axis=0, keepdims=True), 1e-6))[0][0]
    # a temperature far below the spread of the scores makes the smoothing a
    # hard max, on which Newton zigzags between the top two points
    s = b - pts @ theta
    tau = 0.1 * max(1.0, float(s.max() - s.min()))
    f, s, w = smoothed(theta, tau)
    while True:
        idx, _, done = certify(theta, w)
        if done:
            break
        c = g.grad_inv(theta)
        # gap = (max s - <w, s>) + D(pbar || c): smoothing plus Fenchel-Young
        pbar = w @ pts
        smoothing = float(s.max() - w @ s)
        fenchel = g.F_star(theta) + g.F(pbar) - float(pbar @ theta)
        if fenchel <= 0.1 * smoothing:
            if _active_set_finish(g, pts, b, theta, w, idx, certify):
                break
            tau *= 0.1
            f, s, w = smoothed(theta, tau)
            continue
        grad = c - pbar
        d = pts - pbar
        hess = g.hess_star(theta) + (d.T * w) @ d / tau
        step = -np.linalg.solve(hess, grad)
        dec = -float(grad @ step)
        # Armijo backtracking, with slack for the rounding of f: at small tau
        # a Newton step that still shrinks the gap can lower f by less than that
        slack = 1e-13 * (1.0 + abs(f))
        alpha = 1.0
        while True:
            trial = theta + alpha * step
            f_t, s_t, w_t = smoothed(trial, tau)
            if f_t <= f - 0.25 * alpha * dec + slack or alpha < 1e-12:
                break
            alpha *= 0.5
        theta, f, s, w = trial, f_t, s_t, w_t
    return result()


def minimax_center_oracle(g, pset):
    """(center, radius) of the smallest enclosing ball: minimax_ball's
    certified upper end, within MINIMAX_GAP_TOL of the optimum."""
    res = minimax_ball(g, pset)
    return res.center, res.upper


def seb_basic(g, pset, eps, seed=None):
    """Smallest enclosing information ball by iterated geodesic averaging,
    stopped by a dual certificate.

    Starts from the first point (or a seeded random point), theta[start],
    and runs rounds: round i steps the centre's natural coordinate toward
    the row idx picked last along the geodesic,
    th <- (1 - t) th + t theta[idx] with t = 1/(i + 1), and picks the
    farthest row idx = argmax_j b_j - <p_j, th>, with b_j = F(p_j) + r_j,
    ties to the lowest j: F*(th) is common to every row, so a round maps no
    centre back. The rows are scored as given; the rows moved inwards by
    NUDGE (g.interior), whose theta one g.natural call gives, serve only as
    the start centre and the geodesic targets. Per-point radii, when
    present, make this the enclosing ball of balls.

    th is S/(i + 1), with S = theta[start] plus the targets so far, so the
    pick is also the argmax of w = (i + 1) b - raw @ S: the running sum of
    the columns b - raw @ theta[k] of the start and of each target. A round
    adds one column to w in place and takes its argmax; the columns of the
    _BASIC_COLUMNS targets used last are cached, so memory does not grow
    with the rounds. The pick is bit for bit the argmax of b - raw @ th at
    the rounded th, which is carried on Python floats (elementwise numpy's
    arithmetic). With u = 2^-53 and
    scale = max|b| + max|p| max||theta_k||_1, a column rounds by
    (d + 2) u scale, the sum w_j by u scale (i + 1)(i + 2) / 2, and
    b - <p, th> by (d + 2) u scale plus |<p, e_i>|, where the recursion's
    error e_i obeys (i + 1) e_i = sum_{k <= i} (k + 1) delta_k with
    ||delta_k||_1 <= 5 u max||theta_k||_1. So w_j and (i + 1) times the
    score differ by at most 3 u scale (i + 1)(i + d + 4), and a top w that
    leads every other by more than twice that is the pick. Where it does
    not (a near tie, an exact duplicate row, or scores too large for w),
    the round scores b - raw @ th instead.

    After round i the start row and the targets, each weighted by its
    count over i + 1, are a Frank-Wolfe dual point (Badoiu and Clarkson
    2003; Clarkson 2010), whose dual value (_dual_lower) is at most the
    optimal radius. The rounds stop after the first one whose enclosure is
    at most (1 + eps) times that value, so the radius is certified within a
    factor (1 + eps) of the optimum; otherwise they stop after
    ceil(1/eps^2) rounds. Each round first tests the stop on what it holds:
    the enclosure F*(th) + max w/(i + 1), within 3 u scale (i + d + 4) of
    the scored one by the bound above, and the dual value of running sums
    of b_k and p_k. This pretest allows 8 u scale (i + d + 4) on each side
    for their rounding and for the rounding of what decides, so that it
    misses no round that would stop. Only a round that passes scores the
    enclosure at grad_inv(th) (_farthest) and _dual_lower of the counts,
    which decide, so the radius is the enclosure at the reported centre.
    The (1 + eps) bound of Badoiu and Clarkson for ceil(1/eps^2) rounds is
    Euclidean: on rows at the Bloch shell no round may be certified, and
    the radius can be 1.23 times optimal at eps = 0.05. seb_improved and
    minimax_ball give a bracket.

    history is the enclosure at the start centre and at the final one,
    which is the radius. More than MAX_BASIC_ROUNDS rounds raise
    ResourceCapError before the first one.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    # compared before dividing: eps * eps underflows to 0 below about 1.5e-162
    if eps < 1.0 / math.sqrt(MAX_BASIC_ROUNDS):
        raise ResourceCapError(f"eps = {eps:g} needs ceil(1/eps^2) rounds, "
                               f"more than the cap of {MAX_BASIC_ROUNDS}")
    n_iter = int(np.ceil(1.0 / (eps * eps)))
    g.check_rows(pset.points)
    ball = _coincident_ball(pset)
    if ball is not None:
        return InfoBall(*ball, history=np.full(2, ball[1]))
    raw, rad = pset.points, pset.radii
    n, d = raw.shape
    # the rounds keep only the nudged rows' theta, not the rows
    theta = g.natural(g.interior(raw))[0]
    f = g.batch_F(raw)
    b = f + rad
    p_max = math.sqrt(float(np.einsum("ij,ij->i", raw, raw).max()))
    start = 0 if seed is None else np.random.default_rng(seed).integers(len(pset))
    idx, first = _farthest(g, raw, f, rad, g.interior(raw[start]))
    scale = float(np.abs(b).max() + np.abs(raw).max() * np.abs(theta).sum(axis=1).max())
    # 8 u scale (i + 1)(i + d + 4) exceeds twice the bound above; where w
    # could leave the float range, every round is scored directly
    unit = 8.0 * 2.0**-53 * scale if math.isfinite(2.0 * (n_iter + 1.0) * scale) else math.inf

    @functools.lru_cache(maxsize=_BASIC_COLUMNS)
    def column(k):
        return b - raw @ theta[k], theta[k].tolist(), raw[k].tolist()

    th = theta[start].tolist()
    w = b - raw @ theta[start]
    # how often each row is picked, and running sums of count_k b_k and
    # count_k p_k
    counts = {start: 1}
    head, mix = b.item(start), raw[start].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # w past the float range
        for i in range(1, n_iter + 1):
            t = 1.0 / (i + 1.0)
            col, target, row = column(idx)
            keep = 1.0 - t
            th = [keep * a + t * v for a, v in zip(th, target)]
            w += col
            counts[idx] = counts.get(idx, 0) + 1
            head += b.item(idx)
            mix = [a + v for a, v in zip(mix, row)]
            idx = int(w.argmax())
            top = w.item(idx)
            w[idx] = -math.inf
            second = w.item(w.argmax())
            w[idx] = top
            if not top - second > unit * (i + 1) * (i + d + 4):
                idx = int(np.argmax(b - raw @ np.array(th)))
            m, slack = i + 1.0, unit * (i + d + 4)
            held = g.F_star(th) + top / m
            # not >, so that a NaN or infinite test falls through to the scan
            if not held - slack > (1.0 + eps) * (head / m - g.F([a / m for a in mix]) + slack):
                # the scan holds no more n-vectors than the rounds do; a
                # round after it rebuilds the columns it needs
                column.cache_clear()
                arr, dual = np.array(th), np.zeros(n)
                dual[list(counts)] = [count / m for count in counts.values()]
                c = g.grad_inv(arr)
                radius = _farthest(g, raw, f, rad, c)[1]
                if radius <= (1.0 + eps) * _dual_lower(g, dual, b, raw, arr, p_max):
                    break
        else:
            c = g.grad_inv(np.array(th))
            radius = _farthest(g, raw, f, rad, c)[1]
    return InfoBall(center=c, radius=radius, history=np.array([first, radius]))


def seb_improved(g, pset, eps, seed=None):
    """Enclosing-ball solver with a certified optimal-radius bracket:
    minimax_ball on every row.

    The centre and radius are minimax_ball's centre and upper end, and the
    history is its one final bracket [(lower, upper - lower)], so
    r <= r* <= r + delta. eps must lie in (0, 1), but neither eps nor seed
    changes the result; both stay for the callers that pass them.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    res = minimax_ball(g, pset)
    return InfoBall(center=res.center, radius=res.upper, history=[(res.lower, res.gap)])
