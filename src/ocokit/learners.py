"""The FTRL family as incremental step machines.

Each learner holds O(n) state (gradient sum, per-coordinate squared-gradient
sums, proximal adjustment sums, current iterate) and exposes ``step(g)``,
which consumes the round-t subgradient and returns the next iterate.  Loss
linearization is the caller's job: learners only ever see g_t.

Instances are single-threaded state machines; distinct instances share
nothing and may run on distinct threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AdaGradRate,
    CompositePenalty,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    LearningRateSchedule,
    UnsupportedCombination,
    as_point,
    clamp_box,
    negative_entropy,
    project_l2_ball,
    project_l2_ball_weighted,
    soft_threshold_argmin,
    softmax_simplex,
)

CENTERED = "centered"
PROXIMAL = "proximal"
ENTROPIC = "entropic"
NONE = "none"


@dataclass
class BoundConfig:
    """Problem constants the regret bounds are stated in terms of."""

    R: float | None = None        # comparator / ball radius
    R_inf: float | None = None    # box half-width
    G: float | None = None        # L2 gradient bound
    G_inf: float | None = None    # per-coordinate / sup-norm gradient bound
    n: int | None = None          # dimension
    eta: float | None = None      # fixed rate of the non-adaptive learner

    def require(self, *names):
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"bound needs config field {name!r}")
            if name != "n" and value <= 0:
                raise ValueError(f"config field {name!r} must be > 0, got {value}")


class _ReadOnlyIterate:
    """Publishes the iterate ``x`` read-only.

    ``step`` hands callers the learner's own array, without a copy, and the
    next step reads it back as x_prev; freezing it on assignment means a
    caller's write raises instead of silently changing the learner's state.
    Learners always rebind ``x`` to a fresh array and never write into it.
    """

    @property
    def x(self):
        return self._x

    @x.setter
    def x(self, value):
        if value is not None:
            value.flags.writeable = False
        self._x = value


class OnlineLearner(_ReadOnlyIterate):
    """Common bookkeeping: round index, gradient sums, diagnostics hooks."""

    reg_kind = NONE

    def __init__(self, dim: int, feasible_set: FeasibleSet):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.feasible_set = feasible_set
        self.t = 0
        self.g_sum = np.zeros(dim)
        self.sq_sum = np.zeros(dim)
        self.x = np.zeros(dim)
        # diagnostics refreshed by each step
        self.last_sigma = np.zeros(dim)
        self.last_inv_rate = np.zeros(dim)

    def step(self, g) -> np.ndarray:
        raise NotImplementedError

    def _take(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        self.t += 1
        self.g_sum = self.g_sum + g
        return g

    # Diagnostics for the stability decomposition; additive constants that a
    # learner cannot know (true loss values) are dropped, which leaves every
    # h_{0:t}(x) - h_{0:t}(x') difference intact.
    def objective(self, x) -> float:
        raise NotImplementedError

    def reg_increment(self, x) -> float:
        """r_t(x) (plus alpha_t * psi(x) for composite learners) of the last step."""
        raise NotImplementedError

    def penalty_cum_weight(self) -> float:
        """alpha_{1:t} * lambda of the explicit non-smooth penalty, if any."""
        return 0.0


def _broadcast_inv(value, dim):
    return np.broadcast_to(np.asarray(value, dtype=float), (dim,)).copy()


class DualAveraging(OnlineLearner):
    """Gradient-sum learner with regularizers centered at the starting point.

    x_{t+1} = argmin g_{1:t} . x + (1/2 eta) ||x||^2 over the feasible set,
    solved lazily: the unconstrained solution -eta g_{1:t} is projected once
    per round.  Supported schedules: constant, 1/sqrt(t+1) decay, and the
    per-coordinate adaptive rate with a strictly positive offset (the offset
    stands in for the not-yet-seen current gradient; the rate applied at
    step t is the one determined by rounds 1..t-1).
    """

    reg_kind = CENTERED

    def __init__(self, dim: int, schedule: LearningRateSchedule,
                 feasible_set: FeasibleSet | None = None):
        feasible_set = feasible_set or FeasibleSet.unconstrained()
        if feasible_set.kind == FeasibleSet.SIMPLEX:
            raise UnsupportedCombination("use EntropicFtrl on the simplex")
        if isinstance(schedule, AdaGradRate):
            if schedule.offset <= 0:
                raise ValueError("centered adaptive rates need offset > 0")
        elif isinstance(schedule, InverseSqrtRate):
            if schedule.shift != 1:
                raise UnsupportedCombination("centered sqrt decay requires shift=1")
        elif not isinstance(schedule, ConstantRate):
            raise UnsupportedCombination(f"unsupported schedule {schedule!r} for dual averaging")
        super().__init__(dim, feasible_set)
        self.schedule = schedule
        self.last_inv_rate = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    def step(self, g) -> np.ndarray:
        prev_inv = self.last_inv_rate
        if isinstance(self.schedule, AdaGradRate):
            # data-driven part lags one round; the offset covers the gap
            inv = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
            g = self._take(g)
            self.sq_sum = self.sq_sum + g * g
        else:
            g = self._take(g)
            inv = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
            self.sq_sum = self.sq_sum + g * g
        self.last_sigma = np.maximum(inv - prev_inv, 0.0)
        self.last_inv_rate = inv
        u = np.where(inv > 0, -self.g_sum / np.where(inv > 0, inv, 1.0), 0.0)
        self.x = self._project(u, inv)
        return self.x

    def _project(self, u, inv):
        fs = self.feasible_set
        if fs.kind == FeasibleSet.UNCONSTRAINED:
            return u
        if fs.kind == FeasibleSet.BOX:
            return clamp_box(u, fs.radius)
        if isinstance(self.schedule, AdaGradRate):
            return project_l2_ball_weighted(u, inv, fs.radius)
        return project_l2_ball(u, fs.radius)

    def objective(self, x) -> float:
        x = as_point(x, dim=self.dim)
        return float(self.g_sum @ x + 0.5 * np.sum(self.last_inv_rate * x ** 2))

    def reg_increment(self, x) -> float:
        x = as_point(x, dim=self.dim)
        return float(0.5 * np.sum(self.last_sigma * x ** 2))


class FtrlProximal(OnlineLearner):
    """FTRL with incremental regularizers recentered at each iterate.

    Maintains g_{1:t}, per-coordinate squared sums, and the adjustment sum
    a_{1:t} with a_t = sigma_t x_t, and solves
        x_{t+1} = argmin (g_{1:t} - a_{1:t}) . x + sum_i x_i^2 / (2 eta_{t,i})
    over the feasible set (closed form per coordinate on a box; lazy
    projection otherwise).  With the per-coordinate adaptive rate a bounded
    feasible set is required.
    """

    reg_kind = PROXIMAL

    def __init__(self, dim: int, schedule: LearningRateSchedule, feasible_set: FeasibleSet):
        if feasible_set.kind == FeasibleSet.SIMPLEX:
            raise UnsupportedCombination("use EntropicFtrl on the simplex")
        if feasible_set.kind == FeasibleSet.UNCONSTRAINED and isinstance(schedule, AdaGradRate):
            raise UnsupportedCombination(
                "per-coordinate adaptive rates need a bounded feasible set")
        if isinstance(schedule, (ConstantRate, InverseSqrtRate, AdaGradRate)):
            pass
        else:
            raise UnsupportedCombination(f"unsupported schedule {schedule!r} for proximal FTRL")
        super().__init__(dim, feasible_set)
        self.schedule = schedule
        self.adj_sum = np.zeros(dim)
        self._recentering_value = 0.0  # sum_s sigma_s ||x_s||^2 contribution
        self._last_center = self.x
        self.last_inv_rate = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    def step(self, g) -> np.ndarray:
        x_prev = self.x
        prev_inv = self.last_inv_rate
        g = self._take(g)
        self.sq_sum = self.sq_sum + g * g
        inv = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
        sigma = np.maximum(inv - prev_inv, 0.0)
        self.adj_sum = self.adj_sum + sigma * x_prev
        self._recentering_value += 0.5 * float(np.sum(sigma * x_prev ** 2))
        self.last_sigma = sigma
        self.last_inv_rate = inv
        self._last_center = x_prev
        z = self.g_sum - self.adj_sum
        u = np.where(inv > 0, -z / np.where(inv > 0, inv, 1.0), 0.0)
        self.x = self._project(u, inv)
        return self.x

    def _project(self, u, inv):
        fs = self.feasible_set
        if fs.kind == FeasibleSet.UNCONSTRAINED:
            return u
        if fs.kind == FeasibleSet.BOX:
            return clamp_box(u, fs.radius)
        if isinstance(self.schedule, AdaGradRate):
            return project_l2_ball_weighted(u, inv, fs.radius)
        return project_l2_ball(u, fs.radius)

    def objective(self, x) -> float:
        x = as_point(x, dim=self.dim)
        quad = 0.5 * np.sum(self.last_inv_rate * x ** 2) - self.adj_sum @ x
        return float(self.g_sum @ x + quad + self._recentering_value)

    def reg_increment(self, x) -> float:
        x = as_point(x, dim=self.dim)
        return float(0.5 * np.sum(self.last_sigma * (x - self._last_center) ** 2))


class FtrlCompositeL1(OnlineLearner):
    """FTRL that keeps the full accumulated L1 penalty in the update.

    Solves, per coordinate,
        x_{t+1,i} = argmin b_i x + alpha_{1:t} lam |x| + x^2 / (2 eta_{t,i})
    by soft thresholding, where b is the accumulated linear coefficient
    (g_{1:t}, minus the recentering adjustment when proximal).  The penalty
    weight grows as alpha_{1:t} = t, which is what drives iterates to exact
    zero; lam = 0 reduces to the plain gradient-sum learner.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float,
                 centering: str = CENTERED, feasible_set: FeasibleSet | None = None):
        feasible_set = feasible_set or FeasibleSet.unconstrained()
        if feasible_set.kind not in (FeasibleSet.UNCONSTRAINED, FeasibleSet.BOX):
            raise UnsupportedCombination("composite L1 supports unconstrained or box sets")
        if centering not in (CENTERED, PROXIMAL):
            raise ValueError(f"centering must be centered or proximal, got {centering!r}")
        if isinstance(schedule, AdaGradRate) and centering == CENTERED and schedule.offset <= 0:
            raise ValueError("centered adaptive rates need offset > 0")
        super().__init__(dim, feasible_set)
        self.penalty = CompositePenalty(lam)
        self.schedule = schedule
        self.centering = centering
        self.adj_sum = np.zeros(dim)
        self._recentering_value = 0.0
        self._last_center = self.x
        self.last_inv_rate = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    @property
    def reg_kind(self):
        return self.centering

    def step(self, g) -> np.ndarray:
        x_prev = self.x
        prev_inv = self.last_inv_rate
        if self.centering == CENTERED and isinstance(self.schedule, AdaGradRate):
            inv = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
            g = self._take(g)
            self.sq_sum = self.sq_sum + g * g
        else:
            g = self._take(g)
            self.sq_sum = self.sq_sum + g * g
            inv = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
        sigma = np.maximum(inv - prev_inv, 0.0)
        if self.centering == PROXIMAL:
            self.adj_sum = self.adj_sum + sigma * x_prev
            self._recentering_value += 0.5 * float(np.sum(sigma * x_prev ** 2))
        self.last_sigma = sigma
        self.last_inv_rate = inv
        self._last_center = x_prev
        b = self.g_sum - self.adj_sum
        threshold = self.penalty.cum_alpha(self.t) * self.penalty.lam
        self.x = self._solve(b, threshold, inv)
        return self.x

    def _solve(self, b, threshold, inv):
        x = np.empty(self.dim)
        for i in range(self.dim):
            if inv[i] > 0:
                x[i] = soft_threshold_argmin(b[i], threshold, inv[i])
            elif abs(b[i]) <= threshold:
                x[i] = 0.0
            elif self.feasible_set.kind == FeasibleSet.BOX:
                x[i] = -math.copysign(self.feasible_set.radius, b[i])
            else:
                raise UnsupportedCombination(
                    "coordinate with infinite rate and active linear term is unbounded")
        if self.feasible_set.kind == FeasibleSet.BOX:
            x = clamp_box(x, self.feasible_set.radius)
        return x

    def penalty_cum_weight(self) -> float:
        return self.penalty.cum_alpha(self.t) * self.penalty.lam

    def objective(self, x) -> float:
        x = as_point(x, dim=self.dim)
        quad = 0.5 * np.sum(self.last_inv_rate * x ** 2) - self.adj_sum @ x
        l1 = self.penalty_cum_weight() * np.sum(np.abs(x))
        return float(self.g_sum @ x + quad + l1 + self._recentering_value)

    def reg_increment(self, x) -> float:
        x = as_point(x, dim=self.dim)
        if self.centering == PROXIMAL:
            quad = 0.5 * np.sum(self.last_sigma * (x - self._last_center) ** 2)
        else:
            quad = 0.5 * np.sum(self.last_sigma * x ** 2)
        return float(quad + self.penalty.alpha(self.t) * self.penalty.lam * np.sum(np.abs(x)))


class EntropicFtrl(OnlineLearner):
    """Simplex learner with the entropy regularizer; softmax closed form.

    eta_t = sqrt(log n) / sqrt(G_inf^2 + sum_s ||g_s||_inf^2) and
    x_{t+1} = softmax(-eta_t g_{1:t}); starts at the uniform distribution.
    """

    reg_kind = ENTROPIC

    def __init__(self, dim: int, g_inf: float, feasible_set: FeasibleSet | None = None):
        if feasible_set is not None and feasible_set.kind != FeasibleSet.SIMPLEX:
            raise UnsupportedCombination("the entropic learner runs on the simplex")
        if dim < 2:
            raise ValueError(f"simplex learner needs dimension >= 2, got {dim}")
        if not (np.isfinite(g_inf) and g_inf > 0):
            raise ValueError(f"sup-norm gradient bound must be > 0, got {g_inf}")
        super().__init__(dim, FeasibleSet.simplex())
        self.g_inf = float(g_inf)
        self.sup_sq_sum = 0.0
        self.x = np.full(dim, 1.0 / dim)
        self._log_n = math.log(dim)
        self.last_inv_rate = np.full(dim, self._inv(0.0))

    def _inv(self, sup_sq) -> float:
        return math.sqrt(self.g_inf ** 2 + sup_sq) / math.sqrt(self._log_n)

    def step(self, g) -> np.ndarray:
        prev_inv = float(self.last_inv_rate[0])
        g = self._take(g)
        self.sq_sum = self.sq_sum + g * g
        self.sup_sq_sum += float(np.max(np.abs(g))) ** 2
        inv = self._inv(self.sup_sq_sum)
        self.last_sigma = np.full(self.dim, max(inv - prev_inv, 0.0))
        self.last_inv_rate = np.full(self.dim, inv)
        self.x = softmax_simplex(-self.g_sum / inv)
        return self.x

    def objective(self, x) -> float:
        x = as_point(x, dim=self.dim)
        return float(self.g_sum @ x + self.last_inv_rate[0] * negative_entropy(x))

    def reg_increment(self, x) -> float:
        return float(self.last_sigma[0]) * negative_entropy(x)


class StronglyConvexOgd(OnlineLearner):
    """x_{t+1} = x_t - g_t / t, for losses with unit strong convexity.

    Equivalent to following the leader on the quadratic lower bounds
    f_t(x_t) + g_t . (x - x_t) + ||x - x_t||^2 / 2; no explicit regularizer.
    """

    reg_kind = NONE

    def __init__(self, dim: int):
        super().__init__(dim, FeasibleSet.unconstrained())
        self._gx_sum = 0.0
        self._center_sum = np.zeros(dim)
        self._center_sq_sum = 0.0

    def step(self, g) -> np.ndarray:
        x_prev = self.x
        g = self._take(g)
        self._gx_sum += float(g @ x_prev)
        self._center_sum = self._center_sum + x_prev
        self._center_sq_sum += float(x_prev @ x_prev)
        self.x = x_prev - g / self.t
        return self.x

    def objective(self, x) -> float:
        # sum of quadratic lower bounds, dropping the unknowable f_t(x_t) constants
        x = as_point(x, dim=self.dim)
        quad = 0.5 * (self.t * float(x @ x) - 2.0 * float(x @ self._center_sum) + self._center_sq_sum)
        return float(self.g_sum @ x) - self._gx_sum + quad

    def reg_increment(self, x) -> float:
        return 0.0
