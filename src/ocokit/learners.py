"""The FTRL family as incremental step machines.

Every learner, here and in ``mirror``, is an ``OnlineLearner``: it takes
its dimension first and rejects a gradient of any other size.  Beyond the
round index, iterate and deployed inverse rate, it keeps only the O(n) state
its step and rate read (gradient, squared-gradient and proximal adjustment sums).
``step(g)`` consumes g_t and returns the next iterate.  Loss
linearization is the caller's job: learners only ever see g_t.  Learners
keep no regret accounting: ``reg_kind`` names the family of their
accumulated objective, and ``bounds`` evaluates it, the regularizer and the
Strong FTRL stability terms from the run's trace (``bounds.RunTrace``).

Dual averaging, proximal FTRL, composite-L1 FTRL and mirror descent's FTRL
form are one solver, ``QuadraticFtrl``: they differ only in where the
incremental quadratic regularizers are centered (the origin or the
iterates) and in how the penalty enters (t lam ||x||_1, or lam ||x||_1 and
its past tangents).  ``DualAveraging``, ``FtrlProximal``,
``FtrlCompositeL1`` and ``mirror.MdAsFtrl`` are presets that fix those
choices and check their premises; each runs any ``LearningRateSchedule``.

Instances are single-threaded state machines; distinct instances share
nothing and may run on distinct threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GRAD_LIMIT,
    SQ_SUM_LIMIT,
    SQ_SUM_MESSAGE,
    AdaGradRate,
    FeasibleSet,
    InverseSqrtRate,
    LearningRateSchedule,
    UnsupportedCombination,
    _add_squares,
    _clamp_box,
    _l1_step,
    _project_l2_ball,
    _project_l2_ball_weighted,
    _psi_subgradient,
    _softmax,
    as_point,
    penalty_weight,
)

CENTERED = "centered"
PROXIMAL = "proximal"
ENTROPIC = "entropic"
STRONGLY_CONVEX = "strongly-convex"  # follow the leader on quadratic lower bounds
NONE = "none"  # accumulated objective unknown: no stability terms


@dataclass
class BoundConfig:
    """Problem constants the regret bounds are stated in terms of."""

    R: float | None = None        # comparator / ball radius
    R_inf: float | None = None    # box half-width
    G: float | None = None        # L2 gradient bound
    G_inf: float | None = None    # per-coordinate / sup-norm gradient bound
    eta: float | None = None      # fixed rate of the non-adaptive learner

    def require(self, *names):
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"bound needs config field {name!r}")
            if value <= 0:
                raise ValueError(f"config field {name!r} must be > 0, got {value}")


class OnlineLearner:
    """Common bookkeeping: dimension, feasible set, round index, iterate, inverse rate.

    A ``LearningRateSchedule`` owns the rate and declares the sums it reads.
    ``step`` hands callers the learner's own iterate ``x``, without a copy,
    and the next step reads it back as x_prev; freezing it on assignment
    means a caller's write raises instead of silently changing the learner's
    state.  Learners always rebind ``x`` to a fresh array, never write into it.
    """

    reg_kind = NONE
    lam = 0.0  # weight of the L1 penalty, applied once per round
    linearized = False  # True: the penalty enters by its past subgradients g_psi

    def __init__(self, dim: int, feasible_set: FeasibleSet):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.feasible_set = feasible_set
        self.t = 0
        self.x = np.zeros(dim)
        self.last_inv_rate = np.zeros(dim)  # refreshed by each step

    @property
    def x(self):
        return self._x

    @x.setter
    def x(self, value):
        value.flags.writeable = False
        self._x = value

    def step(self, g) -> np.ndarray:
        raise NotImplementedError


def _broadcast_inv(value, dim):
    inv = np.empty(dim)
    inv[...] = value  # a scalar rate or a per-coordinate array, copied
    return inv


def _quadratic_set(feasible_set, lam: float) -> FeasibleSet:
    """The set of a quadratic step with L1 weight lam: None is unconstrained."""
    feasible_set = feasible_set or FeasibleSet.unconstrained()
    if feasible_set.kind == FeasibleSet.SIMPLEX:
        raise UnsupportedCombination("use EntropicFtrl on the simplex")
    if feasible_set.kind == FeasibleSet.L2_BALL and lam > 0:
        raise UnsupportedCombination("no closed form for ball + L1")
    return feasible_set


def _project_quadratic(x, inv, feasible_set, schedule):
    """x on the feasible set: box clamp, or ball weighted by inv under AdaGrad, else radial."""
    kind = feasible_set.kind
    if kind == FeasibleSet.UNCONSTRAINED:
        return x
    if kind == FeasibleSet.BOX:
        return _clamp_box(x, feasible_set.radius)
    if isinstance(schedule, AdaGradRate):
        return _project_l2_ball_weighted(x, inv, feasible_set.radius)
    return _project_l2_ball(x, feasible_set.radius)


class QuadraticFtrl(OnlineLearner):
    """FTRL with diagonal quadratic regularizers and an accumulated L1 penalty.

    Solves, per coordinate, by one array soft threshold
        x_{t+1,i} = argmin b_i x + t lam |x| + x^2 / (2 eta_{t,i})
    and then projects onto the feasible set.  With centering="centered" the
    incremental regularizers sit at the origin and b = g_{1:t}; with
    "proximal" they sit at the iterates, and b = g_{1:t} - a_{1:t} with the
    adjustment sum a_t = sigma_t x_t.  The penalty weight grows as
    alpha_{1:t} = t, which is what drives iterates to exact zero.  Centered
    at the origin, an adaptive rate applied at step t is the one determined
    by rounds 1..t-1 (its offset stands in for the not-yet-seen gradient).

    With ``linearized`` set (``mirror.MdAsFtrl``) the weight is lam, b gains
    the past penalty subgradients g_psi_{1:t-1}, and each step extracts g_psi_t
    (``RunTrace.psi`` reads the same g_psi_t off the run trace).

    Ball projections are lazy: weighted by the per-coordinate rates under
    AdaGrad, radial otherwise; a ball admits no L1 term.  A coordinate with
    an infinite rate (inverse rate 0) goes to 0 inside the threshold band,
    to the box corner on a box, and raises UnsupportedCombination otherwise.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule,
                 feasible_set: FeasibleSet | None = None, centering: str = CENTERED,
                 lam: float = 0.0):
        lam = penalty_weight(lam)
        feasible_set = _quadratic_set(feasible_set, lam)
        if centering not in (CENTERED, PROXIMAL):
            raise ValueError(f"centering must be centered or proximal, got {centering!r}")
        self._lagged = centering == CENTERED and isinstance(schedule, AdaGradRate)
        if self._lagged and schedule.offset <= 0:
            raise ValueError("centered adaptive rates need offset > 0")
        super().__init__(dim, feasible_set)
        self.lam = lam
        self.schedule = schedule
        self.centering = centering
        self.g_sum = np.zeros(dim)
        self.sq_sum = np.zeros(dim) if schedule.reads_sq_sum else None
        if centering == PROXIMAL:
            self.adj_sum = np.zeros(dim)  # a_{1:t}, which only the proximal step reads
        self.last_inv_rate = self._inverse_rate()

    @property
    def reg_kind(self):
        return self.centering

    def _inverse_rate(self):
        return _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        sq_sum = _add_squares(self.sq_sum, g)  # may raise; no state has moved yet
        x_prev = self.x
        inv = self._inverse_rate() if self._lagged else None  # from rounds 1..t-1
        self.t += 1
        self.g_sum = self.g_sum + g
        self.sq_sum = sq_sum
        if inv is None:
            inv = self._inverse_rate()
        b = self.g_sum + self.g_psi_sum if self.linearized else self.g_sum
        if self.centering == PROXIMAL:
            sigma = np.maximum(inv - self.last_inv_rate, 0.0)
            self.adj_sum = self.adj_sum + sigma * x_prev
            b = b - self.adj_sum
        self.last_inv_rate = inv
        fs = self.feasible_set
        box = fs.radius if fs.kind == FeasibleSet.BOX else None
        x = _l1_step(b, self.lam if self.linearized else self.t * self.lam, inv, box)
        if self.linearized:
            self.last_g_psi = _psi_subgradient(x_prev, x, g, inv, self.lam)
            self.g_psi_sum = self.g_psi_sum + self.last_g_psi
        self.x = _project_quadratic(x, inv, fs, self.schedule)
        return self.x


class DualAveraging(QuadraticFtrl):
    """Gradient-sum learner: regularizers centered at the starting point.

    x_{t+1} = argmin g_{1:t} . x + (1/2 eta) ||x||^2 over the feasible set,
    solved lazily: the unconstrained solution -eta g_{1:t} is projected once
    per round.  Any schedule runs; 1/sqrt(t) decay needs shift=1 (the rate
    1/sqrt(t+1)) and the per-coordinate adaptive rate a strictly positive offset.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule,
                 feasible_set: FeasibleSet | None = None):
        if isinstance(schedule, InverseSqrtRate) and schedule.shift != 1:
            raise UnsupportedCombination("centered sqrt decay requires shift=1")
        super().__init__(dim, schedule, feasible_set)


class FtrlProximal(QuadraticFtrl):
    """FTRL with incremental regularizers recentered at each iterate.

    Solves x_{t+1} = argmin (g_{1:t} - a_{1:t}) . x + sum_i x_i^2 / (2 eta_{t,i})
    over the feasible set.  With the per-coordinate adaptive rate a bounded
    feasible set is required.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule, feasible_set: FeasibleSet):
        if feasible_set.kind == FeasibleSet.UNCONSTRAINED and isinstance(schedule, AdaGradRate):
            raise UnsupportedCombination(
                "per-coordinate adaptive rates need a bounded feasible set")
        super().__init__(dim, schedule, feasible_set, PROXIMAL)


class FtrlCompositeL1(QuadraticFtrl):
    """FTRL that keeps the full accumulated L1 penalty t lam ||x||_1 in the update.

    Unconstrained or on a box; lam = 0 reduces to the plain gradient-sum
    learner.
    """

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float,
                 centering: str = CENTERED, feasible_set: FeasibleSet | None = None):
        if feasible_set is not None and \
                feasible_set.kind not in (FeasibleSet.UNCONSTRAINED, FeasibleSet.BOX):
            raise UnsupportedCombination("composite L1 supports unconstrained or box sets")
        super().__init__(dim, schedule, feasible_set, centering, lam)


class EntropicFtrl(OnlineLearner):
    """Simplex learner with the entropy regularizer; softmax closed form.

    eta_t = sqrt(log n) / sqrt(G_inf^2 + sum_s ||g_s||_inf^2), AdaGrad's rate on the sup
    norm, and x_{t+1} = softmax(-eta_t g_{1:t}); starts at the uniform distribution.
    """

    reg_kind = ENTROPIC

    def __init__(self, dim: int, g_inf: float):
        if dim < 2:
            raise ValueError(f"simplex learner needs dimension >= 2, got {dim}")
        if not (np.isfinite(g_inf) and g_inf > 0):
            raise ValueError(f"sup-norm gradient bound must be > 0, got {g_inf}")
        super().__init__(dim, FeasibleSet.simplex())
        self.schedule = AdaGradRate(math.sqrt(math.log(dim)), offset=g_inf)
        self.g_sum = np.zeros(dim)
        self.sup_sq_sum = 0.0
        self.x = np.full(dim, 1.0 / dim)
        self.last_inv_rate = np.full(dim, self.schedule.inverse_rate(0, 0.0))

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        g_max = float(np.max(np.abs(g)))
        # libm pow, as the pinned runs were recorded: g_max * g_max differs in the last bit
        sup_sq_sum = self.sup_sq_sum + (g_max ** 2 if g_max < GRAD_LIMIT else math.inf)
        if not sup_sq_sum <= SQ_SUM_LIMIT:
            raise ValueError(f"{SQ_SUM_MESSAGE}; got max |g_i| = {g_max:.3g}")
        self.t += 1
        self.g_sum = self.g_sum + g
        self.sup_sq_sum = sup_sq_sum
        inv = self.schedule.inverse_rate(self.t, sup_sq_sum)
        self.last_inv_rate = np.full(self.dim, inv)
        self.x = _softmax(-self.g_sum / inv)
        return self.x


class StronglyConvexOgd(OnlineLearner):
    """x_{t+1} = x_t - g_t / t, for losses with unit strong convexity.

    Equivalent to following the leader on the quadratic lower bounds
    f_t(x_t) + g_t . (x - x_t) + ||x - x_t||^2 / 2; no explicit regularizer.
    """

    reg_kind = STRONGLY_CONVEX

    def __init__(self, dim: int):
        super().__init__(dim, FeasibleSet.unconstrained())

    def step(self, g) -> np.ndarray:
        x_prev = self.x
        g = as_point(g, dim=self.dim)
        self.t += 1
        self.x = x_prev - g / self.t
        return self.x
