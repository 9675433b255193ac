"""The FTRL family as incremental step machines.

Every learner, here and in ``mirror``, is an ``OnlineLearner``: it takes
its dimension first and rejects a gradient of any other size.  Beyond the
round index, iterate and deployed inverse rate, it keeps only the O(n) state
its step and rate read (gradient, squared-gradient and proximal adjustment sums).
``step(g)`` consumes g_t and returns the next iterate; the private
``OnlineLearner._play_rows`` takes T pre-drawn gradients at once (the
driver's block play) and hands cache-sized slices of them to the learner's
``_play_block``.  There every prefix that does not read the iterate (squared
sums, rates, g_{1:t}) comes from array passes; the iterates follow in the
same pass where they are a row-wise map of those prefixes (centered
``QuadraticFtrl``, ``EntropicFtrl``), and by a loop of only the iterate
recurrence where x_t carries into the next step (proximal ``QuadraticFtrl``,
``mirror.MirrorDescent``).  That loop runs one coordinate at a time on
Python floats on a box or with no constraint at n up to ``_SCALAR_DIM``,
where a step is a scalar soft threshold and clamp and costs less than one
numpy call on a row, and row by row on the ball or at larger n.
``mirror.MdAsFtrl`` and ``StronglyConvexOgd`` keep the default block, the
step loop.  A step or a block that raises leaves the learner as it was.
Every learner takes a step's (n,) inverse rate from ``_inverse_rate`` and
its projection from ``FeasibleSet._project`` (in the rates' norm under AdaGrad).
Loss linearization is the caller's job: learners only ever see g_t.
Learners keep no regret accounting: ``reg_kind`` names the family of their
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
    _add_square_rows,
    _add_squares,
    _l1_step,
    _psi_subgradient,
    _require_finite,
    _running_sums,
    _softmax,
    as_point,
    penalty_weight,
)

CENTERED = "centered"
PROXIMAL = "proximal"
ENTROPIC = "entropic"
STRONGLY_CONVEX = "strongly-convex"  # follow the leader on quadratic lower bounds
NONE = "none"  # accumulated objective unknown: no stability terms

# Up to this dimension, on a box or with no constraint, proximal QuadraticFtrl and
# MirrorDescent run a block's iterate recurrence one coordinate at a time on Python
# floats, where each step is a scalar soft threshold and clamp; above it, and on the
# ball, they loop over rows of numpy calls.  A scalar step costs about 0.25-0.3 us
# per coordinate and a row step about 5-7 us whatever n, so the two cross between
# n = 22 and 24 (kernel timings in BENCH_scalar_recurrence.json).
_SCALAR_DIM = 22


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
    Block play has one entry, ``_play_rows``; a learner supplies only ``_play_block``.
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

    def _play_rows(self, grads: np.ndarray, next_points: np.ndarray,
                   inv_rates: np.ndarray) -> None:
        """Take T steps, one per row of ``grads``: x_{t+1} into ``next_points[t - 1]``.

        ``inv_rates[t - 1]`` gets the inverse rate deployed at step t.  The
        learner ends in the state of those T ``step`` calls.  ``_play_block``
        takes consecutive slices of at most 2^14 entries, so a slice's (rows, n)
        temporaries stay in cache where one (T, n) pass would stream through
        memory several times.  If a slice raises, the learner's state is put
        back as it was before the first; learners rebind their arrays and never
        write into them, so a shallow copy keeps it.
        """
        state = dict(vars(self))
        rows = max(1, 2 ** 14 // self.dim)
        try:
            for lo in range(0, len(grads), rows):
                self._play_block(grads[lo:lo + rows], next_points[lo:lo + rows],
                                 inv_rates[lo:lo + rows])
        except BaseException:
            vars(self).clear()
            vars(self).update(state)
            raise

    def _play_block(self, grads, next_points, inv_rates) -> None:
        """One slice of ``_play_rows``: by default the step loop.

        The loop reads nothing of the learner but ``step`` and ``last_inv_rate``;
        a learner overrides it to compute its prefixes (and, where they are a
        row-wise map of those, its iterates) in array passes.
        """
        for k, g in enumerate(grads):
            next_points[k] = self.step(g)
            inv_rates[k] = self.last_inv_rate


def _inverse_rate(learner, t: int, sq_sum) -> np.ndarray:
    """The inverse rate ``learner.schedule`` deploys at step t as a new (n,) array."""
    inv = np.empty(learner.dim)
    inv[...] = learner.schedule.inverse_rate(t, sq_sum)
    return inv


def _scalar_width(learner) -> float | None:
    """The half-width a block's scalar recurrence clamps to (inf: no constraint), or None.

    None (the row loop) on a ball and above ``_SCALAR_DIM`` coordinates.  An
    infinite rate needs no check: a non-finite iterate sends a block to the row loop.
    """
    fs = learner.feasible_set
    if fs.kind == FeasibleSet.L2_BALL or learner.dim > _SCALAR_DIM:
        return None
    return fs.radius if fs.kind == FeasibleSet.BOX else math.inf


def _quadratic_set(feasible_set, lam: float) -> FeasibleSet:
    """The set of a quadratic step with L1 weight lam: None is unconstrained."""
    feasible_set = feasible_set or FeasibleSet.unconstrained()
    if feasible_set.kind == FeasibleSet.SIMPLEX:
        raise UnsupportedCombination("use EntropicFtrl on the simplex")
    if feasible_set.kind == FeasibleSet.L2_BALL and lam > 0:
        raise UnsupportedCombination("no closed form for ball + L1")
    return feasible_set


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
        self.last_inv_rate = _inverse_rate(self, 0, self.sq_sum)

    @property
    def reg_kind(self):
        return self.centering

    def step(self, g) -> np.ndarray:
        """The next iterate; the state moves only once every part of the step has returned."""
        g = as_point(g, dim=self.dim)
        sq_sum = _add_squares(self.sq_sum, g)
        t = self.t + 1
        if self._lagged:  # step t deploys the rate rounds 1..t-1 determine
            inv = _inverse_rate(self, self.t, self.sq_sum)
        else:
            inv = _inverse_rate(self, t, sq_sum)
        g_sum = self.g_sum + g
        b = g_sum + self.g_psi_sum if self.linearized else g_sum
        if self.centering == PROXIMAL:
            sigma = np.maximum(inv - self.last_inv_rate, 0.0)
            adj_sum = self.adj_sum + sigma * self.x
            b = b - adj_sum
        x = self._solve(b, self.lam if self.linearized else t * self.lam, inv)
        if self.linearized:  # unconstrained (MdAsFtrl): the solve projected nothing
            self.g_psi_sum = self.g_psi_sum + _psi_subgradient(self.x, x, g, inv, self.lam)
        if self.centering == PROXIMAL:
            self.adj_sum = adj_sum
        self.t, self.g_sum, self.sq_sum, self.last_inv_rate, self.x = t, g_sum, sq_sum, inv, x
        return x

    def _solve(self, b, lam, inv) -> np.ndarray:
        """``_l1_step``, projected (in inv's norm under AdaGrad): one (n,) step, or (T, n)."""
        fs = self.feasible_set
        box = fs.radius if fs.kind == FeasibleSet.BOX else None
        weights = inv if isinstance(self.schedule, AdaGradRate) else None
        return fs._project(_l1_step(b, lam, inv, box), weights)

    def _play_block(self, grads, next_points, inv_rates):
        """Every prefix in one pass, then the iterates.

        The pass takes the squared sums, the schedule's rate rows and g_{1:t}
        (``np.cumsum`` adds in round order).  Centered, row t is x_{t+1} = the
        solve of g_{1:t}, t lam and rate row t, all rows at once.  Proximal, only
        the recurrence a_{1:t} = a_{1:t-1} + sigma_t x_t, x_{t+1} = the solve of
        g_{1:t} - a_{1:t}, with sigma_t = max(inv_t - inv_{t-1}, 0), loops: by
        coordinate where ``_scalar_width`` allows (``_proximal_columns``), else
        by row, the step's own code.  Either way each row is bit for bit what
        step t returns.  A rejected gradient raises ``step``'s error.
        """
        T = len(grads)
        sq_sums = _add_square_rows(self.sq_sum, grads)
        ts = np.arange(self.t + 1, self.t + T + 1)
        if self._lagged:  # step t deploys the rate rounds 1..t-1 determine
            prev = np.concatenate([self.sq_sum[None], sq_sums[:-1]])
            inv_rates[...] = self.schedule.inverse_rates(ts - 1, prev).reshape(T, -1)
        else:
            inv_rates[...] = self.schedule.inverse_rates(ts, sq_sums).reshape(T, -1)
        g_sums = _running_sums(self.g_sum, grads)
        if self.centering == CENTERED:
            next_points[...] = self._solve(g_sums, ts[:, None] * self.lam, inv_rates)
        else:
            width = _scalar_width(self)
            adj = None if width is None else \
                self._proximal_columns(ts, g_sums, inv_rates, next_points, width)
            if adj is None:  # the step's own code, sigma_t included
                adj, x, prev = self.adj_sum, self.x, self.last_inv_rate
                for t, g_sum, inv, out in zip(ts.tolist(), g_sums, inv_rates, next_points):
                    adj = adj + np.maximum(inv - prev, 0.0) * x
                    x = out[...] = self._solve(g_sum - adj, t * self.lam, inv)
                    prev = inv
            self.adj_sum = adj
        self.t += T
        self.g_sum = g_sums[-1].copy()
        if sq_sums is not None:
            self.sq_sum = sq_sums[-1].copy()
        self.last_inv_rate = inv_rates[-1].copy()
        self.x = next_points[-1].copy()

    def _proximal_columns(self, ts, g_sums, inv_rates, next_points, width):
        """The proximal recurrence one coordinate at a time on Python floats: a_{1:T}, or None.

        Each step is ``_solve``'s: ``_soft_threshold``, where np.maximum and
        np.minimum keep their second operand on ties (signed zeros included),
        ``_l1_step``'s cases for an infinite rate, and ``_clamp_box`` to
        ``width`` (inf with no constraint).  Python floats overflow silently,
        where numpy warns: so at the first iterate that is not finite before
        the clamp (an overflow, or an infinite rate with no constraint) it
        returns None, and the row loop raises or computes exactly as ``step``
        does.  An infinite inverse rate makes a nan iterate (inf * 0, inf / inf,
        or inf - inf in sigma_t), so the rates need no check.  a_{1:t} moves only
        where sigma_t > 0, a live coordinate, so an overflow there makes that
        round's iterate infinite too.
        """
        with np.errstate(invalid="ignore"):  # an inf - inf is handed back as a nan iterate
            sigmas = np.maximum(np.diff(inv_rates, axis=0, prepend=self.last_inv_rate[None]), 0.0)
        lams = (ts * self.lam).tolist()
        adj_end = []
        columns = zip(self.x.tolist(), self.adj_sum.tolist(), g_sums.T.tolist(),
                      sigmas.T.tolist(), inv_rates.T.tolist())
        for i, (x, adj, g_col, s_col, w_col) in enumerate(columns):
            col = []
            for lam, g_sum, s, w in zip(lams, g_col, s_col, w_col):
                adj = adj + s * x
                b = g_sum - adj
                if w > 0:
                    m = b if b > -lam else -lam
                    x = ((m if m < lam else lam) - b) / w
                else:
                    x = 0.0 if abs(b) <= lam else -math.copysign(width, b)
                if not -width < x < width:
                    if x - x != 0.0:  # inf or nan
                        return None
                    x = width if x > 0 else -width
                col.append(x)
            next_points[:, i] = col
            adj_end.append(adj)
        return np.array(adj_end)


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
        self.last_inv_rate = _inverse_rate(self, 0, 0.0)

    def step(self, g) -> np.ndarray:
        g = as_point(g, dim=self.dim)[None]
        self._play_block(g, np.empty_like(g), np.empty_like(g))
        return self.x

    def _play_block(self, grads, next_points, inv_rates):
        """All T steps in one pass: x_{t+1} = softmax(-g_{1:t} / W_t), row by row.

        A rejected gradient raises before any state moves.
        """
        T = len(grads)
        g_max = np.max(np.abs(grads), axis=1)
        with np.errstate(over="ignore"):  # the bound's squares, np.square(g_max)
            squares = np.where(g_max < GRAD_LIMIT, g_max * g_max, math.inf)
            sums = _running_sums(self.sup_sq_sum, squares)
        if not sums[-1] <= SQ_SUM_LIMIT:  # sums of squares never fall, and nan stays
            k = int(np.argmin(sums <= SQ_SUM_LIMIT))
            _require_finite(grads[k])
            raise ValueError(f"{SQ_SUM_MESSAGE}; got max |g_i| = {g_max[k]:.3g}")
        inv = self.schedule.inverse_rates(np.arange(self.t + 1, self.t + T + 1), sums)[:, None]
        inv_rates[...] = inv
        g_sums = _running_sums(self.g_sum, grads)
        next_points[...] = _softmax(-g_sums / inv)
        self.t += T
        self.g_sum = g_sums[-1].copy()
        self.sup_sq_sum = float(sums[-1])
        self.last_inv_rate = inv_rates[-1].copy()
        self.x = next_points[-1].copy()


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
