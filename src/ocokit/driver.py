"""Experiment loop: select x_t, reveal f_t, incur loss, update.

``_play`` runs a learner against a stream and returns the run's one
record, a ``bounds.RunTrace``: an oblivious stream's gradients in one
pre-drawn block, any other stream round by round.  From that record alone ``run_rounds`` adds
the hindsight comparator, the losses, and the regret accounting of
``bounds`` (the requested bound and the stability decomposition at every
prefix).  Also hosts the fixed one-dimensional L1 reproduction that
contrasts mirror descent with the accumulated-penalty learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundRule,
    RegretRecord,
    RunTrace,
    _bound_and_rhs,
    best_comparator,
)
from .core import ConstantRate, FeasibleSet, _require_finite, as_point
from .learners import BoundConfig, FtrlCompositeL1, OnlineLearner
from .mirror import MirrorDescent
from .streams import LINEAR, QUADRATIC, L1AdversaryStream, loss_column


@dataclass
class RunResult:
    record: RegretRecord
    x_star: np.ndarray
    x_final: np.ndarray
    trace: RunTrace
    bound_ok: bool
    decomposition_ok: bool


def _oblivious(stream) -> bool:
    """True when the class that defines the stream's ``event`` also defines ``gradients``.

    A subclass that overrides ``event`` alone is played through its own events.
    """
    owner = next((cls for cls in type(stream).__mro__ if "event" in vars(cls)), None)
    return owner is not None and "gradients" in vars(owner)


def _play(learner, stream, T: int) -> RunTrace:
    """Play ``T`` rounds of an ``OnlineLearner`` (else TypeError) into their ``RunTrace``.

    The stream's ``dim`` must be the learner's.  ``points`` and ``rates`` start
    at the learner's x_1 and round-zero inverse rate, and each round fills the
    next row of both.  An oblivious stream (see ``_oblivious``) has linear
    losses that do not read the iterate, so its T gradients are drawn up front
    by ``stream.gradients(T)``, which returns the trace's own (T, n)
    ``grads``, and the learner takes them all in one call of
    ``OnlineLearner._play_rows``, which hands cache-sized slices to the
    learner's ``_play_block``: array passes for the prefix sums and rates, and
    a loop only where the iterate carries into the next step (by coordinate
    on Python floats for proximal ``QuadraticFtrl`` and ``MirrorDescent`` on
    a box or unconstrained at small n, by row on the ball or at larger n, the
    step loop for ``MdAsFtrl`` and ``StronglyConvexOgd``); a block that
    raises leaves the learner as it was.  Any other stream is played round
    by round, ``event`` then ``step``; every round must share one loss
    family.  The loss rows (the gradients for linear losses, else the events'
    parameter rows) are held by reference.  Either way the trace holds the
    same bits.  Before anything reads them, x_1..x_{T+1} are checked finite,
    with ``as_point``'s ValueError.
    """
    if not isinstance(learner, OnlineLearner):
        raise TypeError(f"learner must be an OnlineLearner, got {type(learner).__name__}")
    if T < 0:
        raise ValueError(f"round count must be >= 0, got {T}")
    dim = learner.dim
    if stream.dim != dim:
        raise ValueError(f"stream has dimension {stream.dim} but the learner has dimension {dim}")
    family = None
    rows, labels = [], []
    points = np.zeros((T + 1, dim))
    rates = np.zeros((T + 1, dim))
    rates[0] = learner.last_inv_rate
    if _oblivious(stream):
        grads = stream.gradients(T)
        if grads.shape != (T, dim):
            raise ValueError(f"stream.gradients({T}) has shape {grads.shape}, not {(T, dim)}")
        family = LINEAR if T else None
        points[0] = learner.x
        learner._play_rows(grads, points[1:], rates[1:])
    else:
        grads = np.zeros((T, dim))
        for t in range(1, T + 1):
            event = stream.event(t, learner.x)  # iterates are published read-only
            if event.family != family:
                if family is not None:
                    raise ValueError(f"round {t} changes the loss family from {family} "
                                     f"to {event.family}")
                family = event.family
            if family != LINEAR:
                rows.append(event.param)
                labels.append(event.label)
            grads[t - 1] = event.g
            points[t - 1] = learner.x
            learner.step(event.g)
            rates[t] = learner.last_inv_rate
        points[T] = learner.x
    _require_finite(points)
    return RunTrace(grads=grads, points=points, rates=rates,
                    reg_kind=learner.reg_kind, penalty_lam=learner.lam,
                    linearized=learner.linearized,
                    feasible_set=learner.feasible_set, loss_family=family,
                    loss_params=grads if family == LINEAR else rows, labels=labels)


def run_rounds(learner, stream, T: int, rule: BoundRule | None = None,
               cfg: BoundConfig | None = None,
               comparator_set: FeasibleSet | None = None) -> RunResult:
    """Play ``T`` rounds (``_play``) and account for them from the trace alone.

    x* is validated once, with ``as_point``'s ValueError (``_play`` checks
    the points).  x* is the mean center for quadratic losses, else
    ``best_comparator`` over ``comparator_set`` (default: the learner's set).
    ``loss_column`` gives f_t(x_t) and f_t(x*) in one call each, and
    ``bounds._bound_and_rhs`` the bound and the stability decomposition.
    """
    trace = _play(learner, stream, T)
    dim = trace.grads.shape[1]
    if T == 0:
        x_star = np.zeros(dim)
    elif trace.loss_family == QUADRATIC:
        x_star = np.mean(trace.loss_params, axis=0)
    else:
        x_star = best_comparator(trace.grads, comparator_set or trace.feasible_set)
    x_star = as_point(x_star, dim=dim)
    losses = comp_losses = np.zeros(0)
    if T > 0:
        losses = loss_column(trace.loss_family, trace.loss_params, trace.iterates, trace.labels)
        comp_losses = loss_column(trace.loss_family, trace.loss_params, x_star, trace.labels)
    bound, rhs = _bound_and_rhs(trace, x_star, rule, cfg)

    record = RegretRecord(loss=losses, comp_loss=comp_losses, bound=bound, strong_ftrl_rhs=rhs)
    bound_ok = bool(np.all(record.cum_regret <= bound + 1e-9))
    decomposition_ok = bool(np.all(record.cum_regret <= rhs + 1e-9))
    return RunResult(record=record, x_star=x_star, x_final=trace.points[-1].copy(),
                     trace=trace, bound_ok=bound_ok, decomposition_ok=decomposition_ok)


# ---------------------------------------------------------------------------
# The fixed one-dimensional L1 reproduction
# ---------------------------------------------------------------------------

L1_EXAMPLE_G = 11.0
L1_EXAMPLE_T = 16
L1_EXAMPLE_LAM = 0.5
L1_EXAMPLE_ETA = 2.0 / math.sqrt(L1_EXAMPLE_T)


@dataclass
class L1ExampleResult:
    rows: list  # (t, x_md, x_ftrl)
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def repro_l1_example() -> L1ExampleResult:
    """Run the 1-D adversary example: G=11, T=16, lam=0.5, eta=0.5.

    The adversary reacts to the mirror-descent iterate (``_play``); the
    recorded gradients feed the accumulated-penalty learner.  Mirror descent
    oscillates between +/-(G - lam)/sqrt(T) = +/-2.625 forever, while the
    accumulated penalty drives its twin to an exact zero once
    |g_{1:t}| < t lam holds, which the alternating gradient sums reach at
    t = 12 (so x_t = 0 from t = 13 on).
    """
    G, T, lam, eta = L1_EXAMPLE_G, L1_EXAMPLE_T, L1_EXAMPLE_LAM, L1_EXAMPLE_ETA
    md = MirrorDescent(1, ConstantRate(eta), lam=lam)
    trace = _play(md, L1AdversaryStream(G, lam), T - 1)
    ftrl = FtrlCompositeL1(1, ConstantRate(eta), lam=lam)
    x_ftrl = [float(ftrl.x[0])] + [float(ftrl.step(g)[0]) for g in trace.grads]
    rows = [(t, float(trace.points[t - 1, 0]), x_ftrl[t - 1]) for t in range(1, T + 1)]

    amplitude = (G - lam) / math.sqrt(T)
    # np.cumsum adds in round order, so each prefix is the running sum's float
    zero_onset = next((t + 1 for t, g_sum in enumerate(np.cumsum(trace.grads[:, 0]), start=1)
                       if abs(g_sum) < t * lam), None)
    failures = []
    for t, x_md, x_ftrl in rows[1:]:
        if abs(abs(x_md) - amplitude) > 1e-12:
            failures.append(f"round {t}: mirror-descent point {x_md} not +/-{amplitude}")
    for (t, x_md, _), (t2, x_md2, _) in zip(rows[1:], rows[2:]):
        if x_md * x_md2 >= 0:
            failures.append(f"rounds {t}->{t2}: mirror descent failed to alternate")
    if abs(rows[1][1] - amplitude) > 1e-12 or abs(rows[1][2] - amplitude) > 1e-12:
        failures.append(f"round 2: both learners must select {amplitude}")
    if zero_onset is None:
        failures.append("accumulated penalty never satisfied |g_{1:t}| < t lam")
    else:
        for t, _, x_ftrl in rows:
            if t >= zero_onset and x_ftrl != 0.0:
                failures.append(f"round {t}: expected exact zero, got {x_ftrl}")
            if t == zero_onset - 1 and t >= 2 and x_ftrl == 0.0:
                failures.append(f"round {t}: zero region started early")
    return L1ExampleResult(rows=rows, failures=failures)
