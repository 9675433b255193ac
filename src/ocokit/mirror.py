"""Adaptive mirror descent and its exact FTRL reformulation.

Mirror descent here is quadratic only: diagonal quadratic regularizers with
an optional L1 penalty, unconstrained, on a box or on an L2 ball (the
simplex learner is ``learners.EntropicFtrl``).  MirrorDescent carries only
the current point plus schedule scalars; MdAsFtrl carries gradient and
penalty-subgradient accumulators and recenters its incremental
regularizers at its own iterates.  The two are deliberately independent
implementations: their round-by-round agreement is a checked property, not
a shared code path.  The lazy/greedy projection families show where the
one-step and accumulated formulations stop being equivalent.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AdaGradRate,
    ConsistencyError,
    ConstantRate,
    FeasibleSet,
    LearningRateSchedule,
    UnsupportedCombination,
    _add_squares,
    _clamp_box,
    _l1_step,
    _project_l2_ball,
    _project_l2_ball_weighted,
    as_point,
    penalty_weight,
)
from .learners import DualAveraging, _broadcast_inv, _ReadOnlyIterate


def extract_psi_subgradient(x_prev, x_next, g, cum_weights, alpha_lam: float) -> np.ndarray:
    """Recover the L1-penalty subgradient the mirror step implicitly used.

    Coordinate-wise: -alpha_lam where x_next < 0, +alpha_lam where > 0, and
    cum_weights * x_prev - g on exact zeros.  Validates membership in
    [-alpha_lam, alpha_lam] and the step's optimality residual
    g + g_psi + cum_weights (x_next - x_prev) = 0.  Both tolerances scale
    with the operands, so rounding noise at large magnitudes passes: the
    residual of coordinate i may reach 1e-9 max(1, |g_i|, |g_psi_i|,
    |w_i x_next_i|, |w_i x_prev_i|), membership 1e-12 max(1, alpha_lam).
    """
    x_prev = as_point(x_prev)
    x_next = as_point(x_next, dim=x_prev.size)
    g = as_point(g, dim=x_prev.size)
    w = np.broadcast_to(np.asarray(cum_weights, dtype=float), x_prev.shape)
    return _psi_subgradient(x_prev, x_next, g, w, penalty_weight(alpha_lam))


def _psi_subgradient(x_prev, x_next, g, w, alpha_lam: float) -> np.ndarray:
    """``extract_psi_subgradient`` on finite arrays of one shape, unchecked.

    The membership and residual checks stay: they test the step, not its
    inputs, and raise ConsistencyError.
    """
    g_psi = np.where(x_next > 0, alpha_lam,
                     np.where(x_next < 0, -alpha_lam, w * x_prev - g))
    if np.any(np.abs(g_psi) > alpha_lam + 1e-12 * max(1.0, alpha_lam)):
        raise ConsistencyError(
            f"extracted subgradient leaves [-{alpha_lam}, {alpha_lam}]: {g_psi}")
    residual = g + g_psi + w * (x_next - x_prev)
    # every tolerance is >= 1e-9, so the operands' scale matters only above it
    if np.max(np.abs(residual)) > 1e-9:
        scale = np.max(np.abs([g, g_psi, w * x_next, w * x_prev]), axis=0)
        if np.any(np.abs(residual) > 1e-9 * np.maximum(scale, 1.0)):
            raise ConsistencyError(f"optimality residual too large: {residual}")
    return g_psi


class MirrorDescent(_ReadOnlyIterate):
    """x_{t+1} = argmin g_t . x + lam ||x||_1 + B_t(x, x_t).

    B_t is the divergence of the accumulated diagonal quadratic regularizer,
    sum_i w_i (x_i - x_{t,i})^2 / 2.  Closed form: per-coordinate soft
    thresholding, clamped to a box, or (with no penalty) projected onto an
    L2 ball.  State is the current point plus the scalars needed to
    evaluate the accumulated curvature.
    """

    reg_kind = "proximal"  # the regularizer family bounds reads from the run trace

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float = 0.0,
                 feasible_set: FeasibleSet | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.lam = penalty_weight(lam)
        feasible_set = feasible_set or FeasibleSet.unconstrained()
        if feasible_set.kind == FeasibleSet.SIMPLEX:
            raise UnsupportedCombination("use EntropicFtrl on the simplex")
        if feasible_set.kind == FeasibleSet.L2_BALL and self.lam > 0:
            raise UnsupportedCombination("no closed form for ball + L1")
        self.dim = int(dim)
        self.schedule = schedule
        self.feasible_set = feasible_set
        self.t = 0
        self.sq_sum = np.zeros(dim)
        self.x = feasible_set.project(np.zeros(dim))
        self.cum_weights = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        self.sq_sum = _add_squares(self.sq_sum, g)  # may raise; no state has moved yet
        self.t += 1
        w = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
        self.cum_weights = w
        x_prev = self.x
        if self.feasible_set.kind == FeasibleSet.L2_BALL:
            u = np.where(w > 0, x_prev - g / np.where(w > 0, w, 1.0), 0.0)
            if isinstance(self.schedule, AdaGradRate):
                self.x = _project_l2_ball_weighted(u, w, self.feasible_set.radius)
            else:
                self.x = _project_l2_ball(u, self.feasible_set.radius)
            return self.x
        box = self.feasible_set.radius if self.feasible_set.kind == FeasibleSet.BOX else None
        x = _l1_step(g - w * x_prev, self.lam, w, box)
        self.x = x if box is None else _clamp_box(x, box)
        return self.x

    def extract_last_psi_subgradient(self, x_prev, g) -> np.ndarray:
        """The penalty subgradient of the last step, taken from x_prev with g.

        x_prev is the iterate the step started from and g the gradient it
        took, both already validated by ``step``; they are not checked again.
        """
        return _psi_subgradient(x_prev, self.x, g, self.cum_weights, self.lam)

    @property
    def last_inv_rate(self) -> np.ndarray:
        return self.cum_weights


class MdAsFtrl(_ReadOnlyIterate):
    """The mirror-descent update rewritten as a proximally recentered FTRL.

    Accumulates g_{1:t}, the penalty subgradients g_psi_{1:t-1} extracted at
    its own iterates, and the recentering sum of sigma_s x_s, then solves
        argmin (g_{1:t} + g_psi_{1:t-1} - sum_s sigma_s x_s) . x
               + lam ||x||_1 + sigma_{0:t} ||x||^2 / 2
    per coordinate.  Supports the unconstrained quadratic + L1 family.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float = 0.0):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.schedule = schedule
        self.lam = penalty_weight(lam)
        self.t = 0
        self.g_sum = np.zeros(dim)
        self.g_psi_sum = np.zeros(dim)
        self.last_g_psi = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.sq_sum = np.zeros(dim)
        self.x = np.zeros(dim)
        self.cum_weights = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        self.sq_sum = _add_squares(self.sq_sum, g)  # may raise; no state has moved yet
        self.t += 1
        x_prev = self.x
        prev_w = self.cum_weights
        self.g_sum = self.g_sum + g
        w = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
        sigma = np.maximum(w - prev_w, 0.0)
        self.adj_sum = self.adj_sum + sigma * x_prev
        self.cum_weights = w
        x = _l1_step(self.g_sum + self.g_psi_sum - self.adj_sum, self.lam, w)
        self.x = x
        # fold this round's penalty subgradient into the linearized history
        self.last_g_psi = _psi_subgradient(x_prev, x, g, w, self.lam)
        self.g_psi_sum = self.g_psi_sum + self.last_g_psi
        return self.x

    def global_residual(self) -> float:
        """Max-norm residual of g_{1:t} + g_psi_{1:t} + grad r^B_{0:t}(x).

        The accumulated penalty subgradients stand in for the penalty's
        subdifferential, so the full sum must vanish at the iterate.
        """
        if self.t < 1:
            return 0.0
        grad = self.g_sum + self.g_psi_sum + self.cum_weights * self.x - self.adj_sum
        return float(np.max(np.abs(grad)))


# ---------------------------------------------------------------------------
# Lazy vs greedy projection families (constant rate, quadratic regularizer)
# ---------------------------------------------------------------------------

class LazyProjection(_ReadOnlyIterate):
    """Projects the accumulated unconstrained solution once per round.

    Variants are bookkeeping styles of the same family: "projection" keeps
    g_{1:t} and projects -eta g_{1:t}; "explicit" keeps the dual point theta
    and maps it through the regularizer's conjugate gradient; "ftrl" defers
    to the gradient-sum learner with the set folded into the regularizer.
    """

    VARIANTS = ("projection", "explicit", "ftrl")

    def __init__(self, eta: float, feasible_set: FeasibleSet, variant: str = "projection"):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}, got {variant!r}")
        if feasible_set.kind not in (FeasibleSet.L2_BALL, FeasibleSet.BOX):
            raise UnsupportedCombination("projection families need a ball or box set")
        if eta <= 0:
            raise ValueError(f"rate must be > 0, got {eta}")
        self.eta = float(eta)
        self.feasible_set = feasible_set
        self.variant = variant
        self.t = 0
        self._g_sum = None
        self._theta = None
        self._inner = None
        self.x = None

    def _ensure_dim(self, g):
        if self._g_sum is None:
            dim = g.size
            self._g_sum = np.zeros(dim)
            self._theta = np.zeros(dim)
            self._inner = DualAveraging(dim, ConstantRate(self.eta), self.feasible_set)
            self.x = np.zeros(dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g)
        self._ensure_dim(g)
        self.t += 1
        if self.variant == "ftrl":
            self.x = self._inner.step(g)
            return self.x
        if self.variant == "explicit":
            self._theta = self._theta - g
            self.x = self.feasible_set.project(self.eta * self._theta)
            return self.x
        self._g_sum = self._g_sum + g
        self.x = self.feasible_set.project(-self.eta * self._g_sum)
        return self.x


class GreedyProjection(_ReadOnlyIterate):
    """Projects after every step, from the previous projected point.

    "projection" is the two-step update Proj(x_t - eta g_t); "explicit"
    keeps the dual point theta = grad r(x_t) - g_t; "implicit" solves the
    one-step divergence problem; "ftrl" runs the accumulated objective with
    the set's indicator linearized through extracted subgradients.  The
    family is not equivalent to the lazy one once projections bind.
    """

    VARIANTS = ("projection", "explicit", "implicit", "ftrl")

    def __init__(self, eta: float, feasible_set: FeasibleSet, variant: str = "projection"):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}, got {variant!r}")
        if feasible_set.kind not in (FeasibleSet.L2_BALL, FeasibleSet.BOX):
            raise UnsupportedCombination("projection families need a ball or box set")
        if eta <= 0:
            raise ValueError(f"rate must be > 0, got {eta}")
        self.eta = float(eta)
        self.feasible_set = feasible_set
        self.variant = variant
        self.t = 0
        self._accum = None  # g_{1:t} + g_psi_{1:t-1} for the ftrl variant
        self._inner = None
        self.x = None

    def _ensure_dim(self, g):
        if self.x is None:
            dim = g.size
            self.x = np.zeros(dim)
            self._accum = np.zeros(dim)
            self._inner = MirrorDescent(dim, ConstantRate(self.eta),
                                        feasible_set=self.feasible_set)

    def step(self, g) -> np.ndarray:
        g = as_point(g)
        self._ensure_dim(g)
        self.t += 1
        if self.variant == "implicit":
            self.x = self._inner.step(g)
            return self.x
        if self.variant == "ftrl":
            self._accum = self._accum + g
            x_next = self.feasible_set.project(-self.eta * self._accum)
            # indicator subgradient that keeps the accumulated optimality exact
            g_ind = -self._accum - x_next / self.eta
            self._accum = self._accum + g_ind
            self.x = x_next
            return self.x
        # projection and explicit differ only in which dual point they keep
        if self.variant == "explicit":
            theta = self.x / self.eta - g
            self.x = self.feasible_set.project(self.eta * theta)
            return self.x
        self.x = self.feasible_set.project(self.x - self.eta * g)
        return self.x
