"""Adaptive mirror descent and its exact FTRL reformulation.

Mirror descent here is quadratic only: diagonal quadratic regularizers with
an optional L1 penalty, unconstrained, on a box or on an L2 ball (the
simplex learner is ``learners.EntropicFtrl``).  Every learner here is a
``learners.OnlineLearner`` and takes its dimension first.  MirrorDescent
carries the current point and the squared-gradient sums its schedule reads;
MdAsFtrl, a ``QuadraticFtrl`` preset, carries gradient and
penalty-subgradient accumulators, and plays a block by the step loop, since
each step extracts g_psi_t at its own iterate.  MirrorDescent plays a block
by its own loop, one coordinate at a time on Python floats on a box or with
no constraint up to ``learners._SCALAR_DIM`` coordinates, else row by row.
Its rate is ``learners._inverse_rate``'s and its projection the feasible
set's (``FeasibleSet._project``), as for every quadratic learner.
MirrorDescent shares no step code with that solver, not even the scalar
loop of proximal ``QuadraticFtrl``, so their round-by-round agreement is a
checked property, not a shared code path.  Both declare ``linearized``:
``RunTrace.psi`` reads their penalty subgradients off the run trace.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AdaGradRate,
    FeasibleSet,
    LearningRateSchedule,
    _add_square_rows,
    _add_squares,
    _l1_step,
    as_point,
    penalty_weight,
)
from .learners import (
    PROXIMAL,
    OnlineLearner,
    QuadraticFtrl,
    _inverse_rate,
    _quadratic_set,
    _scalar_width,
)


class MirrorDescent(OnlineLearner):
    """x_{t+1} = argmin g_t . x + lam ||x||_1 + B_t(x, x_t).

    B_t is the divergence of the accumulated diagonal quadratic regularizer,
    sum_i w_i (x_i - x_{t,i})^2 / 2 with w = ``last_inv_rate``.  Closed form:
    per-coordinate soft thresholding, clamped to a box, or (with no penalty)
    projected onto an L2 ball.  State: the point and any sums its schedule reads.
    A block of pre-drawn gradients (``_play_block``) takes its sums and rates
    in array passes and loops only the closed-form steps, by coordinate or by row.
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
        self.last_inv_rate = _inverse_rate(self, 0, self.sq_sum)

    def step(self, g) -> np.ndarray:
        """The next point; the state moves only once the closed-form step has returned."""
        g = as_point(g, dim=self.dim)
        sq_sum = _add_squares(self.sq_sum, g)
        t = self.t + 1
        w = _inverse_rate(self, t, sq_sum)
        x = self._next(self.x, g, w)
        self.t, self.sq_sum, self.last_inv_rate, self.x = t, sq_sum, w, x
        return x

    def _next(self, x_prev, g, w) -> np.ndarray:
        """The closed-form step from x_prev with g at weights w (the ball's norm under AdaGrad)."""
        fs = self.feasible_set
        if fs.kind == FeasibleSet.L2_BALL:
            u = np.where(w > 0, x_prev - g / np.where(w > 0, w, 1.0), 0.0)
        else:
            box = fs.radius if fs.kind == FeasibleSet.BOX else None
            u = _l1_step(g - w * x_prev, self.lam, w, box)
        return fs._project(u, w if isinstance(self.schedule, AdaGradRate) else None)

    def _play_block(self, grads, next_points, inv_rates):
        """The squared sums and the schedule's rate rows in one pass; only the steps loop.

        The steps run by coordinate where ``learners._scalar_width`` allows
        (``_columns``), else by row.  Each row is bit for bit what step t
        returns.  A rejected gradient raises ``step``'s error.
        """
        T = len(grads)
        sq_sums = _add_square_rows(self.sq_sum, grads)
        ts = np.arange(self.t + 1, self.t + T + 1)
        inv_rates[...] = self.schedule.inverse_rates(ts, sq_sums).reshape(T, -1)
        width = _scalar_width(self)
        if width is None or not self._columns(grads, inv_rates, next_points, width):
            x = self.x
            for g, w, out in zip(grads, inv_rates, next_points):
                x = out[...] = self._next(x, g, w)
        self.t += T
        if sq_sums is not None:
            self.sq_sum = sq_sums[-1].copy()
        self.last_inv_rate = inv_rates[-1].copy()
        self.x = next_points[-1].copy()

    def _columns(self, grads, inv_rates, next_points, width) -> bool:
        """The steps one coordinate at a time on Python floats; False where one is not finite.

        Each step is ``_next``'s off the ball: a soft threshold, where
        np.maximum and np.minimum keep their second operand on ties (signed
        zeros included), ``_l1_step``'s cases for an infinite rate, and a clamp
        to ``width`` (inf with no constraint).  Python floats overflow
        silently, where numpy warns: so at the first point that is not finite
        before the clamp (an overflow, or an infinite rate with no constraint)
        it returns False, and the row loop raises or computes exactly as
        ``step`` does.  An infinite inverse rate makes a nan point (inf * 0 or
        inf / inf), so the rates need no check.
        """
        lam = self.lam
        for i, (x, g_col, w_col) in enumerate(zip(self.x.tolist(), grads.T.tolist(),
                                                  inv_rates.T.tolist())):
            col = []
            for g, w in zip(g_col, w_col):
                b = g - w * x
                if w > 0:
                    m = b if b > -lam else -lam
                    x = ((m if m < lam else lam) - b) / w
                else:
                    x = 0.0 if abs(b) <= lam else -math.copysign(width, b)
                if not -width < x < width:
                    if x - x != 0.0:  # inf or nan
                        return False
                    x = width if x > 0 else -width
                col.append(x)
            next_points[:, i] = col
        return True


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

    _play_block = OnlineLearner._play_block  # the step loop: each step extracts g_psi_t
