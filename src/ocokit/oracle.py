"""Brute-force verifiers, independent of every closed-form solver.

Numeric argmin by golden-section search over a coarse grid down to one
fixed width, 1e-8, separable multi-coordinate argmin, finite-difference
subgradients (step 1e-5), and executable forms of the stability inequalities
underpinning the regret analysis.  Nothing here calls the closed-form code
paths; everything works from raw objective closures or raw coefficient
descriptions.

The objective contract: a 1-D search objective takes a float or a 1-D
float array, evaluates elementwise, and returns the same bits either way.
The coarse grid is one array call and the golden-section steps are float
calls, so an objective whose two forms round differently can move the
answer.  Write squares as products (``d * d``): an array's ``d ** 2`` is a
product, while a float's is libm ``pow``, which differed from ``d * d`` on
about 0.08% of normal draws (glibc, x86-64).  Likewise ``np.log`` runs a
SIMD loop that differed from ``math.log`` on about 0.35% of uniform draws
on an AVX-512 CPU, so an array form of a logarithm applies ``math.log`` to
each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_bracket(b: float, a: float) -> float:
    """Half-width of the default golden-section bracket: 100 * max(|b|/a, 1)."""
    return 100.0 * max(abs(b) / a, 1.0)


def numeric_argmin_1d(objective, lo: float, hi: float) -> float:
    """Minimize a convex scalar function on [lo, hi].

    A coarse grid locates the minimizing cell, then golden-section search
    refines it to an interval of width 1e-8.  The 33-point grid is one call
    ``objective(array)``; each golden-section step is one ``objective(float)``
    call.  The objective must evaluate an array elementwise, bit for bit as
    it evaluates each float (see the module docstring).
    """
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    tol = 1e-8
    grid = np.linspace(lo, hi, 33)
    vals = objective(grid)
    if np.shape(vals) != grid.shape:
        raise TypeError("objective must evaluate a 1-D array elementwise")
    k = int(np.argmin(vals))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, len(grid) - 1)])
    if a == b:
        return a
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = objective(x2)
    return 0.5 * (a + b)


def numeric_argmin_separable(objectives, lo, hi) -> np.ndarray:
    """Coordinate-wise numeric_argmin_1d for a separable objective.

    ``objectives`` is a sequence of 1-D objectives (see the module
    docstring); ``lo``/``hi`` are scalars or per-coordinate arrays.  A coordinate whose objective is
    constant resolves to the midpoint of its interval.
    """
    n = len(objectives)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    out = np.empty(n)
    for i, (f, a, b) in enumerate(zip(objectives, lo.tolist(), hi.tolist())):
        mid = 0.5 * (a + b)
        out[i] = mid if f(a) == f(b) == f(mid) else numeric_argmin_1d(f, a, b)
    return out


def numeric_argmin_ball_2d(objective, radius: float) -> np.ndarray:
    """Minimize a convex f(x0, x1) over the disk of the given radius.

    Nested golden-section: the outer search over x0 minimizes the partial
    minimum over the x1 slice, which is again convex.  ``objective`` takes
    a float x0 and, like a 1-D objective, a float or an array x1.
    """
    r2 = radius * radius

    def half_width(x0: float) -> float:
        return math.sqrt(max(r2 - x0 * x0, 0.0))

    def slice_min(x0):
        if isinstance(x0, np.ndarray):  # the outer grid
            return np.array([slice_min(v) for v in x0.tolist()])
        half = half_width(x0)
        if half == 0.0:
            return objective(x0, 0.0)
        return objective(x0, numeric_argmin_1d(lambda y: objective(x0, y), -half, half))

    x0 = numeric_argmin_1d(slice_min, -radius, radius)
    half = half_width(x0)
    if half == 0.0:
        return np.array([x0, 0.0])
    x1 = numeric_argmin_1d(lambda y: objective(x0, y), -half, half)
    return np.array([x0, x1])


def finite_difference_subgradient(f, x) -> np.ndarray:
    """Central-difference gradient estimate of f at x, step 1e-5 (valid where f is smooth)."""
    h = 1e-5
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def check_lemma_sum(a) -> tuple[float, float, bool]:
    """For nonnegative a_i, check  sum_i a_i / sqrt(a_{1:i}) <= 2 sqrt(a_{1:n}).

    Terms with a zero prefix sum contribute 0.  Returns (lhs, rhs, holds).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a < 0):
        raise ValueError("entries must be >= 0")
    prefix = np.cumsum(a)
    terms = np.where(prefix > 0, a / np.sqrt(np.where(prefix > 0, prefix, 1.0)), 0.0)
    lhs = float(terms.sum())
    rhs = 2.0 * math.sqrt(float(prefix[-1])) if a.size else 0.0
    return lhs, rhs, lhs <= rhs + 1e-12


@dataclass
class QuadraticObjective:
    """phi(x) = sum_i q_i x_i^2 / 2 + c . x, optionally restricted to a box."""

    quad: np.ndarray
    lin: np.ndarray
    box: float | None = None

    def __post_init__(self):
        self.quad = np.atleast_1d(np.asarray(self.quad, dtype=float))
        self.lin = np.atleast_1d(np.asarray(self.lin, dtype=float))
        if np.any(self.quad <= 0):
            raise ValueError("quadratic weights must be > 0 (strong convexity)")
        if self.quad.shape != self.lin.shape:
            raise ValueError("quad and lin must have matching shapes")
        if self.box is not None and self.box <= 0:
            raise ValueError("box half-width must be > 0")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(0.5 * self.quad * x ** 2 + self.lin * x))


@dataclass
class LinearPlusL1:
    """psi(x) = b . x + lam ||x||_1."""

    b: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.lam < 0:
            raise ValueError("l1 weight must be >= 0")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(self.b * x) + self.lam * np.sum(np.abs(x)))

    def subgradient_at(self, x) -> np.ndarray:
        """b + lam sign(x), taking 0 on zero coordinates (a valid choice)."""
        return self.b + self.lam * np.sign(np.asarray(x, dtype=float))


def _parabolic_polish(f, x: float, spread: float) -> float:
    """Vertex of the parabola through (x - s, x, x + s); exact for quadratic f."""
    fa, fb, fc = f(x - spread), f(x), f(x + spread)
    denom = fa - 2.0 * fb + fc
    if denom <= 0.0:
        return x
    return x - 0.5 * spread * (fc - fa) / denom


def polished_argmin_1d(f, lo: float, hi: float, kink_at_zero: bool = False) -> float:
    """High-precision convex scalar argmin on [lo, hi].

    Golden section locates the minimum; a parabolic polish (restricted to
    the smooth region) recovers the precision that value-comparison search
    alone cannot.  Kink and edge candidates win only when strictly better,
    since near the optimum value comparisons are noise.
    """
    x = numeric_argmin_1d(f, lo, hi)
    spread = 1.0
    if kink_at_zero:
        spread = min(spread, abs(x) / 2.0)
    spread = min(spread, (hi - x) / 2.0, (x - lo) / 2.0)
    if spread > 1e-3:
        polished = _parabolic_polish(f, x, spread)
        if lo <= polished <= hi and abs(polished - x) <= spread:
            x = polished
    candidates = []
    if kink_at_zero and lo < 0.0 < hi:
        candidates.append(0.0)
    candidates.extend(c for c in (lo, hi) if abs(c) < 1e15)
    fx = f(x)
    for cand in candidates:
        fc = f(cand)
        if fc < fx:
            x, fx = cand, fc
    return x


@dataclass
class StabilityReport:
    """Result of check_smoothchange.

    Checks, in the norm induced by phi1's curvature, the distance statement
    ||x1 - x2|| <= ||b||* and the value statement
    phi2(x1) - phi2(x') <= ||b||*^2 / 2.  ``equality_gap`` is the larger
    deviation of the two statements from equality; for pure quadratic phi1
    with linear psi both hold with equality and the gap collapses to ~0.
    """

    x1: np.ndarray
    x2: np.ndarray
    dist_lhs: float
    dist_rhs: float
    dist_holds: bool
    value_lhs: float
    value_rhs: float
    value_holds: bool
    equality_gap: float

    @property
    def holds(self) -> bool:
        return self.dist_holds and self.value_holds


def check_smoothchange(phi1: QuadraticObjective, psi: LinearPlusL1, rng=None) -> StabilityReport:
    """Executable form of the one-step stability inequalities.

    With x1 = argmin phi1, phi2 = phi1 + psi, x2 = argmin phi2, and b a
    subgradient of psi at x1:  ||x1 - x2|| <= ||b||*  and, for x' = x2 plus
    8 points drawn from ``rng``,  phi2(x1) - phi2(x') <= ||b||*^2 / 2.  Both
    argmins are located numerically from the raw coordinate closures.
    """
    q = phi1.quad
    n = q.size
    if phi1.box is not None:
        half = np.full(n, phi1.box)
    else:
        half = np.asarray(
            [default_bracket(abs(phi1.lin[i]) + abs(psi.b[i]) + psi.lam, q[i]) for i in range(n)])
    lo, hi = -half, half

    def coord(i, extra_lin, lam):
        hq, c, l1 = 0.5 * float(q[i]), float(phi1.lin[i] + extra_lin[i]), float(lam)
        return lambda x: hq * x * x + c * x + l1 * abs(x)

    x1 = np.array([polished_argmin_1d(coord(i, np.zeros(n), 0.0), lo[i], hi[i], False)
                   for i in range(n)])
    x2 = np.array([polished_argmin_1d(coord(i, psi.b, psi.lam), lo[i], hi[i], psi.lam > 0)
                   for i in range(n)])

    b = psi.subgradient_at(x1)
    dual_b = math.sqrt(float(np.sum(b ** 2 / q)))

    def phi2(x):
        return phi1.value(x) + psi.value(x)

    dist_lhs = math.sqrt(float(np.sum(q * (x1 - x2) ** 2)))
    value_rhs = 0.5 * dual_b ** 2
    value_at_x2 = phi2(x1) - phi2(x2)
    value_lhs = value_at_x2
    rng = np.random.default_rng(0) if rng is None else rng
    span = np.where(np.isfinite(half), np.minimum(half, 1e3), 1e3)
    for _ in range(8):
        xp = rng.uniform(-span, span)
        value_lhs = max(value_lhs, phi2(x1) - phi2(xp))
    return StabilityReport(
        x1=x1,
        x2=x2,
        dist_lhs=dist_lhs,
        dist_rhs=dual_b,
        dist_holds=dist_lhs <= dual_b + 1e-6,
        value_lhs=value_lhs,
        value_rhs=value_rhs,
        value_holds=value_lhs <= value_rhs + 1e-9,
        equality_gap=max(abs(dist_lhs - dual_b), abs(value_at_x2 - value_rhs)),
    )
