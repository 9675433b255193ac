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
penalty subgradients off the run trace.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FeasibleSet,
    LearningRateSchedule,
    _add_squares,
    _l1_step,
    as_point,
    penalty_weight,
)
from .learners import (
    PROXIMAL,
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
    projected onto an L2 ball.  State: the point and any sums its schedule reads.
    """

    reg_kind = PROXIMAL  # the regularizer family bounds reads from the run trace
    linearized = True  # its FTRL form takes the penalty by its subgradients g_psi

    def __init__(self, dim: int, schedule: LearningRateSchedule, lam: float = 0.0,
                 feasible_set: FeasibleSet | None = None):
        lam = penalty_weight(lam)
        super().__init__(dim, _quadratic_set(feasible_set, lam))
        self.lam = lam
        self.schedule = schedule
        self.sq_sum = np.zeros(dim) if schedule.reads_sq_sum else None
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
