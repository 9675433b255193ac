"""Shared domain types for online convex optimization learners.

Feasible sets, learning-rate schedules, composite penalties, the negative
entropy, and the closed-form scalar solvers every learner is built from.
All functions here are pure; instances of the small classes are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance of a closed form against the numeric oracle.
TOL_ORACLE = 1e-6


class UnsupportedCombination(ValueError):
    """A learner/regularizer/feasible-set pairing with no closed-form update."""


class InvariantViolation(RuntimeError):
    """A schedule or state invariant (e.g. non-increasing learning rate) failed."""


class ConsistencyError(RuntimeError):
    """An internal cross-check (e.g. a subgradient optimality residual) failed."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and densify a coordinate vector: 1-D, finite, dim >= 1.

    Data is validated where it enters (a learner's ``step``, a stream's
    constructor, ``run_rounds``' iterate column and comparator); the
    internal hops between those call the unchecked ``_`` kernels.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a 1-D point with dim >= 1, got shape {arr.shape}")
    _require_finite(arr)
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected dim {dim}, got {arr.size}")
    return arr


def _require_finite(arr: np.ndarray) -> np.ndarray:
    """arr, or as_point's ValueError if any entry is inf or nan (any shape)."""
    if not _all(np.isfinite(arr)):
        raise ValueError("point has non-finite coordinates")
    return arr


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[t] @ b[t] for every row t, or a[t] @ b for a 1-D b.

    Equal bit for bit to the per-row ``float(a[t] @ b[t])``; einsum,
    (a * b).sum(1) and a @ b are not.
    """
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

class FeasibleSet:
    """Unconstrained space, L2 ball, coordinate box, or probability simplex.

    Supplies the minimizer of a linear objective over the set (used for
    hindsight comparators) and Euclidean projection onto every set but the
    simplex, which only ``EntropicFtrl`` runs on, through its softmax.
    """

    UNCONSTRAINED = "unconstrained"
    L2_BALL = "l2-ball"
    BOX = "box"
    SIMPLEX = "simplex"

    def __init__(self, kind: str, radius: float | None = None):
        if kind not in (self.UNCONSTRAINED, self.L2_BALL, self.BOX, self.SIMPLEX):
            raise ValueError(f"unknown feasible-set kind {kind!r}")
        if kind in (self.L2_BALL, self.BOX):
            if radius is None or not np.isfinite(radius) or radius <= 0:
                raise ValueError(f"{kind} requires a strictly positive radius")
        self.kind = kind
        self.radius = float(radius) if radius is not None else None

    @classmethod
    def unconstrained(cls) -> "FeasibleSet":
        return cls(cls.UNCONSTRAINED)

    @classmethod
    def l2_ball(cls, radius: float) -> "FeasibleSet":
        return cls(cls.L2_BALL, radius)

    @classmethod
    def box(cls, half_width: float) -> "FeasibleSet":
        return cls(cls.BOX, half_width)

    @classmethod
    def simplex(cls) -> "FeasibleSet":
        return cls(cls.SIMPLEX)

    def project(self, v) -> np.ndarray:
        """Euclidean projection of v onto the set."""
        v = as_point(v)
        if self.kind == self.UNCONSTRAINED:
            return v
        if self.kind == self.L2_BALL:
            return _project_l2_ball(v, self.radius)
        if self.kind == self.BOX:
            return _clamp_box(v, self.radius)
        raise UnsupportedCombination("no Euclidean projection onto the simplex")

    def linear_minimizer(self, g) -> np.ndarray:
        """argmin of g . x over the set (minimum-norm choice on ties)."""
        g = as_point(g)
        if self.kind == self.UNCONSTRAINED:
            raise ValueError("linear objective is unbounded below on an unconstrained set")
        if self.kind == self.L2_BALL:
            nrm, k = _scaled_norm(g)
            if nrm == 0.0:
                return np.zeros_like(g)
            return -self.radius * (np.ldexp(g, -k) if k else g) / nrm
        if self.kind == self.BOX:
            return -self.radius * np.sign(g)
        out = np.zeros_like(g)
        out[int(np.argmin(g))] = 1.0
        return out

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_point(x)
        if self.kind == self.UNCONSTRAINED:
            return True
        if self.kind == self.L2_BALL:
            nrm, k = _scaled_norm(x)
            return nrm <= math.ldexp(self.radius * (1.0 + tol), -k)
        if self.kind == self.BOX:
            return bool(np.all(np.abs(x) <= self.radius * (1.0 + tol)))
        return bool(np.all(x >= -tol)) and abs(float(x.sum()) - 1.0) <= tol

    def __repr__(self):
        if self.radius is None:
            return f"FeasibleSet({self.kind})"
        return f"FeasibleSet({self.kind}, radius={self.radius})"


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------

class LearningRateSchedule:
    """Defines eta_t through its inverse 1/eta_t (= cumulative curvature).

    ``inverse_rate(t, sq_sum)`` returns 1/eta_t; the convention 1/eta = 0
    encodes an infinite learning rate (zero accumulated curvature).  Rates
    must be non-increasing in t so every sigma_t = 1/eta_t - 1/eta_{t-1}
    is nonnegative; ``bounds.RunTrace.sigmas`` checks it on a run's trace.
    A rate or rate scale below 2^-511 is rejected: 1/eta, sqrt(t + shift)/scale
    and sqrt(offset^2 + sum_s g_s^2)/scale (a root of at most 2^1023) stay finite.
    """

    reads_sq_sum = True  # the rate reads sq_sum, which learners keep only then

    def inverse_rate(self, t: int, sq_sum=0.0):
        raise NotImplementedError


class ConstantRate(LearningRateSchedule):
    reads_sq_sum = False

    def __init__(self, eta: float):
        self.eta = _rate(eta, "constant rate requires eta")

    def inverse_rate(self, t, sq_sum=0.0):
        return 1.0 / self.eta

    def __repr__(self):
        return f"ConstantRate(eta={self.eta})"


class InverseSqrtRate(LearningRateSchedule):
    """eta_t = scale / sqrt(t + shift) with shift in {0, 1}.

    shift=0 gives an infinite rate at t=0 (no round-zero curvature).
    """

    reads_sq_sum = False

    def __init__(self, scale: float, shift: int = 0):
        self.scale = _rate(scale, "scale must be")
        if shift not in (0, 1):
            raise ValueError(f"shift must be 0 or 1, got {shift}")
        self.shift = int(shift)

    def inverse_rate(self, t, sq_sum=0.0):
        return math.sqrt(t + self.shift) / self.scale

    def __repr__(self):
        return f"InverseSqrtRate(scale={self.scale}, shift={self.shift})"


class AdaGradRate(LearningRateSchedule):
    """Per-coordinate eta_{t,i} = scale / sqrt(offset^2 + sum_s g_{s,i}^2).

    A zero denominator encodes an infinite rate (inverse_rate returns 0 for
    that coordinate); step solvers fall back to their tie-break there.
    """

    def __init__(self, scale: float, offset: float = 0.0):
        self.scale = _rate(scale, "scale must be")
        if not (np.isfinite(offset) and offset >= 0):
            raise ValueError(f"offset must be >= 0, got {offset}")
        if not offset < GRAD_LIMIT:  # offset^2 joins the squared-gradient sum
            raise ValueError(f"offset must be < 2^511 (about 6.7e153), got {offset}")
        self.offset = float(offset)

    def inverse_rate(self, t, sq_sum=0.0):
        return np.sqrt(self.offset ** 2 + np.asarray(sq_sum, dtype=float)) / self.scale

    def __repr__(self):
        return f"AdaGradRate(scale={self.scale}, offset={self.offset})"


# Running sums of squared gradients (AdaGrad's sum_s g_{s,i}^2, the entropic
# rate's sum_s ||g_s||_inf^2) stay finite: an entry below 2^511 squares to
# below 2^1022, and a sum kept at or below 2^1022 plus one such square is
# below 2^1023, under the largest double.
GRAD_LIMIT = 2.0 ** 511
SQ_SUM_LIMIT = 2.0 ** 1022
SQ_SUM_MESSAGE = ("squared-gradient sums need |g_i| < 2^511 (about 6.7e153) and a running "
                  "sum <= 2^1022 (about 4.5e307)")


def _rate(value, requirement: str) -> float:
    """float(value) for a rate or rate scale in [2^-511, inf), else "<requirement> ..." raised."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{requirement} > 0, got {value}")
    if not value >= 1.0 / GRAD_LIMIT:
        raise ValueError(f"{requirement} >= 2^-511 (about 1.5e-154), got {value}")
    return float(value)


def _add_squares(sq_sum: np.ndarray | None, g: np.ndarray) -> np.ndarray | None:
    """sq_sum + g * g (None if no sum is kept), or a ValueError naming the limits g passes."""
    if not _all(np.abs(g) < GRAD_LIMIT):
        raise ValueError(f"{SQ_SUM_MESSAGE}; got max |g_i| = {float(np.max(np.abs(g))):.3g}")
    if sq_sum is None:
        return None
    out = sq_sum + g * g
    if not _all(out <= SQ_SUM_LIMIT):
        raise ValueError(f"{SQ_SUM_MESSAGE}; the sum reached {float(np.max(out)):.3g}")
    return out


# ---------------------------------------------------------------------------
# Composite penalty
# ---------------------------------------------------------------------------

def penalty_weight(lam) -> float:
    """Validate the weight lambda of the L1 penalty lambda ||x||_1.

    Every composite learner applies the penalty once per round (alpha_t = 1),
    so round t's penalty weight is lambda and the accumulated one t lambda.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    return float(lam)


# ---------------------------------------------------------------------------
# Negative entropy
# ---------------------------------------------------------------------------

def negative_entropy(x) -> float:
    """log n + sum_i x_i log x_i with the convention 0 log 0 = 0."""
    return float(_negative_entropy_rows(as_point(x)[None, :])[0])


def _negative_entropy_rows(X: np.ndarray) -> np.ndarray:
    """``negative_entropy`` of every row of a finite (T, n) array, bit for bit.

    Rows with all x_i > 0 (every softmax iterate) are summed in one row-wise
    reduction, which adds the same terms in the same order as a 1-D sum; a
    row with zeros drops them, as the 0 log 0 = 0 convention does, by the
    same per-row sum of its positive entries.
    """
    if np.any(X < 0):
        raise ValueError("negative entropy requires nonnegative coordinates")
    log_n = math.log(X.shape[1])
    if _all(X > 0):
        return log_n + np.sum(X * np.log(X), axis=1)
    out = np.empty(X.shape[0])
    for t, x in enumerate(X):
        pos = x[x > 0]
        out[t] = log_n + np.sum(pos * np.log(pos))
    return out


# ---------------------------------------------------------------------------
# Closed-form single-step solvers
# ---------------------------------------------------------------------------

def _all(mask) -> bool:
    """mask.all(), without the fixed cost of a reduction on a tiny array."""
    return np.count_nonzero(mask) == mask.size


def soft_threshold_argmin(b, lam, a):
    """argmin_x  b*x + lam*|x| + (a/2) x^2, elementwise over broadcast arrays.

    Zero iff |b| <= lam, otherwise -(b - sign(b) lam)/a, computed as b
    shrunk toward zero by lam: (clip(b, -lam, lam) - b)/a, which is the
    same float.  Scalar arguments give a float, arrays an array.
    """
    b = np.asarray(b, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a = np.asarray(a, dtype=float)
    if not (_all(np.isfinite(b)) and _all(np.isfinite(lam)) and _all(np.isfinite(a))):
        raise ValueError("soft threshold requires finite arguments")
    if not _all(a > 0):
        raise ValueError(f"quadratic coefficient must be > 0, got {a}")
    if not _all(lam >= 0):
        raise ValueError(f"l1 weight must be >= 0, got {lam}")
    x = _soft_threshold(b, lam, a)
    return float(x) if x.ndim == 0 else x


def _soft_threshold(b, lam, a):
    """``soft_threshold_argmin`` on finite arrays with a > 0 and lam >= 0, unchecked."""
    return (np.minimum(np.maximum(b, -lam), lam) - b) / a


def _l1_step(b, lam: float, inv, box: float | None = None) -> np.ndarray:
    """argmin_x  b.x + lam ||x||_1 + sum_i inv_i x_i^2 / 2, per coordinate.

    Coordinates with inv_i > 0 soft-threshold.  A coordinate with inv_i = 0
    (an infinite rate) goes to 0 if |b_i| <= lam, else to the corner of the
    box of half-width ``box`` opposite b_i; with no box it is unbounded and
    raises UnsupportedCombination.  The result is not clamped to the box.
    """
    live = inv > 0
    if _all(live):
        return _soft_threshold(b, lam, inv)
    x = _soft_threshold(b, lam, np.where(live, inv, 1.0))
    flat = np.abs(b) <= lam
    if box is None:
        if not _all(live | flat):
            raise UnsupportedCombination(
                "coordinate with infinite rate and active linear term is unbounded")
        return np.where(live, x, 0.0)
    return np.where(live, x, np.where(flat, 0.0, -np.copysign(box, b)))


def _psi_subgradient(x_prev, x_next, g, w, alpha_lam: float) -> np.ndarray:
    """The L1-penalty subgradient a step from x_prev with g at weights w took to reach x_next.

    -alpha_lam where x_next < 0, +alpha_lam where > 0, w x_prev - g on exact
    zeros; arrays of one shape, unchecked (a (T, n) block is T steps).
    ConsistencyError unless g_psi is in [-alpha_lam, alpha_lam] to
    1e-12 max(1, alpha_lam) and each residual g_i + g_psi_i + w_i (x_next_i -
    x_prev_i) is within 1e-9 max(1, |g_i|, |g_psi_i|, |w_i x_next_i|,
    |w_i x_prev_i|), so rounding noise at large magnitudes passes.
    """
    g_psi = np.where(x_next > 0, alpha_lam,
                     np.where(x_next < 0, -alpha_lam, w * x_prev - g))
    if np.any(np.abs(g_psi) > alpha_lam + 1e-12 * max(1.0, alpha_lam)):
        raise ConsistencyError(
            f"extracted subgradient leaves [-{alpha_lam}, {alpha_lam}]: {g_psi}")
    residual = g + g_psi + w * (x_next - x_prev)
    # every tolerance is >= 1e-9, so the operands' scale matters only above it
    if not np.max(np.abs(residual)) <= 1e-9:  # a NaN row must not hide the others
        scale = np.max(np.abs([g, g_psi, w * x_next, w * x_prev]), axis=0)
        if np.any(np.abs(residual) > 1e-9 * np.maximum(scale, 1.0)):
            raise ConsistencyError(f"optimality residual too large: {residual}")
    return g_psi


def _scaled_norm(v: np.ndarray) -> tuple[float, int]:
    """(s, k) with ||v||_2 = s 2^k, for a finite nonempty v.

    k = 0 and s is ``np.linalg.norm(v)`` bit for bit unless the sum of
    squares could overflow (max |v_i| sqrt(n) >= 2^510); then the norm is
    taken of v scaled by a power of two, 2^-k, to a largest entry in [1/2, 1).
    """
    big = float(np.max(np.abs(v)))
    if big * math.sqrt(v.size) < 2.0 ** 510:
        return float(np.linalg.norm(v)), 0
    k = math.frexp(big)[1]
    return float(np.linalg.norm(np.ldexp(v, -k))), k


def project_l2_ball(v, radius: float) -> np.ndarray:
    """Radial projection onto the ball of the given radius."""
    v = as_point(v)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be > 0, got {radius}")
    return _project_l2_ball(v, radius)


def _project_l2_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """``project_l2_ball`` of a finite v with radius > 0, unchecked; a new array."""
    nrm, k = _scaled_norm(v)
    if nrm <= math.ldexp(radius, -k):
        return v.copy()
    return v * math.ldexp(radius / nrm, -k)


def project_l2_ball_weighted(u, weights, radius: float) -> np.ndarray:
    """argmin of sum_i w_i (x_i - u_i)^2 subject to ||x||_2 <= radius.

    Coordinates with w_i = 0 are pinned to 0 (minimum-norm tie-break).  When
    the ball binds, x_i(mu) = w_i u_i / (w_i + mu) at the multiplier mu > 0
    that solves the secular equation psi(mu) = 1/||x(mu)|| - 1/radius = 0
    (More & Sorensen, "Computing a Trust Region Step", 1983).  psi is
    increasing and concave in mu, so Newton's method started at mu = 0
    climbs to the root.  A step that leaves the bracket [lo, hi], which
    starts as [0, ||w u|| / radius] (valid since ||x(mu)|| <= ||w u|| / mu),
    is replaced by a bisection step.  The solve stops once a step moves every
    x_i by less than 1e-13 relative, or after 100 steps; a final radial
    rescale keeps ||x|| <= radius.

    Only the support {w_i > 0, u_i != 0} enters the solve.  The answer does
    not change when w is scaled, and scaling u and radius together by a
    power of two is exact, so w and u are first scaled by powers of two to a
    largest entry in [1/2, 1), and radius with u.  Norms are taken of
    (1 + mu) x(mu), whose entries are at most 2 |u_i| in that scale, so no
    square overflows or underflows while ||u|| / radius < 2^1000.
    """
    u = as_point(u)
    w = np.broadcast_to(np.asarray(weights, dtype=float), u.shape)
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be > 0, got {radius}")
    return _project_l2_ball_weighted(u, w, radius)


def _project_l2_ball_weighted(u: np.ndarray, w: np.ndarray, radius: float) -> np.ndarray:
    """``project_l2_ball_weighted`` of a finite u, w >= 0 of u's shape, radius > 0, unchecked."""
    x = np.where(w > 0, u, 0.0)
    support = np.flatnonzero(x != 0)
    if support.size == 0:
        return x
    us = x[support]
    shift = math.frexp(float(np.max(np.abs(us))))[1]
    us = np.ldexp(us, -shift)
    r = math.ldexp(radius, -shift)
    if math.sqrt(float(us @ us)) <= r:
        return x
    ws = w[support]
    ws = np.ldexp(ws, -math.frexp(float(np.max(ws)))[1])
    a = ws * us
    w_min = float(np.min(ws))
    mu, lo, hi = 0.0, 0.0, math.sqrt(float(a @ a)) / r
    for _ in range(100):
        # z = (1 + mu) x(mu) and e = (w + mu) / (1 + mu)
        t = 1.0 / (1.0 + mu)
        e = ws * t + mu * t
        z = a / e
        zz = float(z @ z)
        nrm = math.sqrt(zz) * t
        if nrm > r:
            lo = mu
        else:
            hi = mu
        new = mu + (1.0 + mu) * zz / float((z / e) @ z) * (nrm / r - 1.0)
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        done = abs(new - mu) <= 1e-13 * (new + w_min)
        mu = new
        if done:
            break
    t = 1.0 / (1.0 + mu)
    z = a / (ws * t + mu * t)
    nrm = math.sqrt(float(z @ z)) * t
    xs = z * t
    if nrm > r:
        xs *= r / nrm
    x[support] = np.ldexp(xs, shift)
    return x


def clamp_box(v, half_width: float) -> np.ndarray:
    """Per-coordinate clamp to [-half_width, half_width]."""
    v = as_point(v)
    if not (np.isfinite(half_width) and half_width > 0):
        raise ValueError(f"half width must be > 0, got {half_width}")
    return _clamp_box(v, half_width)


def _clamp_box(v: np.ndarray, half_width: float) -> np.ndarray:
    """``clamp_box`` of a finite v with half_width > 0, unchecked; a new array."""
    return np.minimum(np.maximum(v, -half_width), half_width)


def softmax_simplex(z) -> np.ndarray:
    """exp(z_i) / sum_j exp(z_j), computed with max subtraction."""
    return _softmax(as_point(z))


def _softmax(z: np.ndarray) -> np.ndarray:
    """``softmax_simplex`` of a finite 1-D z, unchecked."""
    e = np.exp(z - z.max())
    return e / e.sum()
