"""Adaptive mirror descent and its exact FTRL reformulation.

Mirror descent here is quadratic only: diagonal quadratic regularizers with
an optional L1 penalty, unconstrained, on a box or on an L2 ball (the
simplex learner is ``learners.EntropicFtrl``).  Every learner here is a
``learners.OnlineLearner`` and takes its dimension first.  MirrorDescent
carries the current point and the squared-gradient sums its schedule reads;
MdAsFtrl, a ``QuadraticFtrl`` preset, carries gradient and
penalty-subgradient accumulators.  MirrorDescent shares no step code with
that solver, so their round-by-round agreement is a checked property, not a
shared code path.  Both declare ``linearized``: ``RunTrace.psi`` reads their
penalty subgradients off the run trace.  The lazy/greedy projection families
show where the one-step and accumulated formulations stop being equivalent;
each of their variants keeps its own bookkeeping, so that
``verify projection-families`` checks the variants against each other.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ConstantRate,
    FeasibleSet,
    LearningRateSchedule,
    UnsupportedCombination,
    _add_squares,
    _l1_step,
    _psi_subgradient,
    as_point,
    penalty_weight,
)
from .learners import (
    PROXIMAL,
    DualAveraging,
    OnlineLearner,
    QuadraticFtrl,
    _broadcast_inv,
    _project_quadratic,
    _quadratic_set,
)


class MirrorDescent(OnlineLearner):
    """x_{t+1} = argmin g_t . x + lam ||x||_1 + B_t(x, x_t).

    B_t is the divergence of the accumulated diagonal quadratic regularizer,
    sum_i w_i (x_i - x_{t,i})^2 / 2 with w = ``last_inv_rate``.  Closed form:
    per-coordinate soft thresholding, clamped to a box, or (with no penalty)
    projected onto an L2 ball.  State: the point and the squared-gradient sums.
    """

    reg_kind = PROXIMAL  # the regularizer family bounds reads from the run trace
    linearized = True  # its FTRL form takes the penalty by its subgradients g_psi

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float = 0.0,
                 feasible_set: FeasibleSet | None = None):
        lam = penalty_weight(lam)
        super().__init__(dim, _quadratic_set(feasible_set, lam))
        self.lam = lam
        self.schedule = schedule
        self.sq_sum = np.zeros(dim)
        self.last_inv_rate = _broadcast_inv(schedule.inverse_rate(0, self.sq_sum), dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        self.sq_sum = _add_squares(self.sq_sum, g)  # may raise; no state has moved yet
        self.t += 1
        w = _broadcast_inv(self.schedule.inverse_rate(self.t, self.sq_sum), self.dim)
        self.last_inv_rate = w
        x_prev = self.x
        fs = self.feasible_set
        if fs.kind == FeasibleSet.L2_BALL:
            u = np.where(w > 0, x_prev - g / np.where(w > 0, w, 1.0), 0.0)
        else:
            box = fs.radius if fs.kind == FeasibleSet.BOX else None
            u = _l1_step(g - w * x_prev, self.lam, w, box)
        self.x = _project_quadratic(u, w, fs, self.schedule)
        return self.x

    def extract_last_psi_subgradient(self, x_prev, g) -> np.ndarray:
        """The penalty subgradient of the last step, taken from x_prev with g.

        x_prev is the iterate the step started from and g the gradient it
        took, both already validated by ``step``; they are not checked again.
        """
        return _psi_subgradient(x_prev, self.x, g, self.last_inv_rate, self.lam)


class MdAsFtrl(QuadraticFtrl):
    """The mirror-descent update rewritten as a proximally recentered FTRL.

    A ``QuadraticFtrl`` preset that accumulates g_{1:t}, the penalty
    subgradients g_psi_{1:t-1} extracted at its own iterates, and the
    recentering sum of sigma_s x_s, then solves
        argmin (g_{1:t} + g_psi_{1:t-1} - sum_s sigma_s x_s) . x
               + lam ||x||_1 + sigma_{0:t} ||x||^2 / 2
    per coordinate.  Supports the unconstrained quadratic + L1 family.
    """

    linearized = True

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float = 0.0):
        super().__init__(dim, schedule, centering=PROXIMAL, lam=lam)
        self.g_psi_sum = np.zeros(dim)
        self.last_g_psi = np.zeros(dim)


# ---------------------------------------------------------------------------
# Lazy vs greedy projection families (constant rate, quadratic regularizer)
# ---------------------------------------------------------------------------

class _ProjectionFamily(OnlineLearner):
    """A constant-rate quadratic learner on a ball or box; ``variant`` names its bookkeeping."""

    def __init__(self, dim: int, eta: float, feasible_set: FeasibleSet, variant="projection"):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}, got {variant!r}")
        if feasible_set.kind not in (FeasibleSet.L2_BALL, FeasibleSet.BOX):
            raise UnsupportedCombination("projection families need a ball or box set")
        self.eta = ConstantRate(eta).eta  # ValueError unless 0 < eta < inf
        super().__init__(dim, feasible_set)
        self.variant = variant


class LazyProjection(_ProjectionFamily):
    """Projects the accumulated unconstrained solution once per round.

    Variants are bookkeeping styles of the same family: "projection" keeps
    g_{1:t} and projects -eta g_{1:t}; "explicit" keeps the dual point theta
    and maps it through the regularizer's conjugate gradient; "ftrl" defers
    to the gradient-sum learner with the set folded into the regularizer.
    """

    VARIANTS = ("projection", "explicit", "ftrl")

    def __init__(self, dim: int, eta: float, feasible_set: FeasibleSet, variant="projection"):
        super().__init__(dim, eta, feasible_set, variant)
        if variant == "ftrl":
            self._inner = DualAveraging(dim, ConstantRate(self.eta), feasible_set)
        elif variant == "explicit":
            self._theta = np.zeros(dim)
        else:
            self._g_sum = np.zeros(dim)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        if self.variant == "ftrl":
            x = self._inner.step(g)
        elif self.variant == "explicit":
            self._theta = self._theta - g
            x = self.feasible_set.project(self.eta * self._theta)
        else:
            self._g_sum = self._g_sum + g
            x = self.feasible_set.project(-self.eta * self._g_sum)
        self.t += 1
        self.x = x
        return x


class GreedyProjection(_ProjectionFamily):
    """Projects after every step, from the previous projected point.

    "projection" is the two-step update Proj(x_t - eta g_t); "explicit"
    keeps the dual point theta = grad r(x_t) - g_t; "implicit" solves the
    one-step divergence problem; "ftrl" runs the accumulated objective with
    the set's indicator linearized through extracted subgradients.  The
    family is not equivalent to the lazy one once projections bind.
    """

    VARIANTS = ("projection", "explicit", "implicit", "ftrl")

    def __init__(self, dim: int, eta: float, feasible_set: FeasibleSet, variant="projection"):
        super().__init__(dim, eta, feasible_set, variant)
        if variant == "implicit":
            self._inner = MirrorDescent(dim, ConstantRate(self.eta), feasible_set=feasible_set)
        elif variant == "ftrl":
            self._accum = np.zeros(dim)  # g_{1:t} + g_psi_{1:t-1}

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)
        if self.variant == "implicit":
            x = self._inner.step(g)
        elif self.variant == "ftrl":
            self._accum = self._accum + g
            x = self.feasible_set.project(-self.eta * self._accum)
            # indicator subgradient that keeps the accumulated optimality exact
            g_ind = -self._accum - x / self.eta
            self._accum = self._accum + g_ind
        elif self.variant == "explicit":
            # projection and explicit differ only in which dual point they keep
            theta = self.x / self.eta - g
            x = self.feasible_set.project(self.eta * theta)
        else:
            x = self.feasible_set.project(self.x - self.eta * g)
        self.t += 1
        self.x = x
        return x
