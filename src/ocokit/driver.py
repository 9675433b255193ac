"""Experiment loop: select x_t, reveal f_t, incur loss, update.

``_play`` runs a learner against a stream and returns the run's one
record, a ``bounds.RunTrace``; from that record alone ``run_rounds`` adds
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
    cumulative_regret,
)
from .core import ConstantRate, FeasibleSet, _require_finite, as_point
from .learners import BoundConfig, FtrlCompositeL1
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


def _play(learner, stream, T: int) -> RunTrace:
    """Play ``T`` rounds into their ``RunTrace``, calling nothing on the learner but ``step``.

    The stream is used only through ``event``.  The loss rows (the gradients
    for linear losses, else the events' parameter rows) are held by
    reference.  Every round must share one loss family.
    """
    if T < 0:
        raise ValueError(f"round count must be >= 0, got {T}")
    dim = learner.dim
    family = None
    rows, labels = [], []
    grads = np.zeros((T, dim))
    points = np.zeros((T + 1, dim))
    inv_rates = np.zeros((T, dim))
    inv0 = np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (dim,)).copy()
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
        inv_rates[t - 1] = learner.last_inv_rate
    points[T] = learner.x
    return RunTrace(grads=grads, points=points, inv_rates=inv_rates, inv0=inv0,
                    reg_kind=learner.reg_kind, penalty_lam=learner.lam,
                    linearized=getattr(learner, "linearized", False),
                    feasible_set=learner.feasible_set, loss_family=family,
                    loss_params=grads if family == LINEAR else rows, labels=labels)


def run_rounds(learner, stream, T: int, rule: BoundRule | None = None,
               cfg: BoundConfig | None = None,
               comparator_set: FeasibleSet | None = None) -> RunResult:
    """Play ``T`` rounds (``_play``) and account for them from the trace alone.

    The iterate column and x* are validated once, with ``as_point``'s
    ValueError.  x* is the mean center for quadratic losses, else
    ``best_comparator`` over ``comparator_set`` (default: the learner's set).
    ``loss_column`` gives f_t(x_t) and f_t(x*) in one call each, and
    ``bounds._bound_and_rhs`` the bound and the stability decomposition.
    """
    trace = _play(learner, stream, T)
    dim = trace.grads.shape[1]
    iterates = _require_finite(trace.iterates)  # before anything derives psi from it
    if T == 0:
        x_star = np.zeros(dim)
    elif trace.loss_family == QUADRATIC:
        x_star = np.mean(trace.loss_params, axis=0)
    else:
        x_star = best_comparator(trace.grads, comparator_set or trace.feasible_set)
    x_star = as_point(x_star, dim=dim)
    losses = comp_losses = np.zeros(0)
    if T > 0:
        losses = loss_column(trace.loss_family, trace.loss_params, iterates, trace.labels)
        comp_losses = loss_column(trace.loss_family, trace.loss_params, x_star, trace.labels)
    cum = cumulative_regret(losses, comp_losses)
    bound, rhs = _bound_and_rhs(trace, x_star, rule, cfg)

    record = RegretRecord(loss=losses, comp_loss=comp_losses, cum_regret=cum,
                          bound=bound, strong_ftrl_rhs=rhs)
    bound_ok = bool(np.all(cum <= bound + 1e-9))
    decomposition_ok = bool(np.all(cum <= rhs + 1e-9))
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
    ok: bool
    failures: list


def repro_l1_example() -> L1ExampleResult:
    """Run the 1-D adversary example: G=11, T=16, lam=0.5, eta=0.5.

    The adversary reacts to the mirror-descent iterate; the identical
    gradient stream feeds the accumulated-penalty learner.  Mirror descent
    oscillates between +/-(G - lam)/sqrt(T) = +/-2.625 forever, while the
    accumulated penalty drives its twin to an exact zero once
    |g_{1:t}| < t lam holds, which the alternating gradient sums reach at
    t = 12 (so x_t = 0 from t = 13 on).
    """
    G, T, lam, eta = L1_EXAMPLE_G, L1_EXAMPLE_T, L1_EXAMPLE_LAM, L1_EXAMPLE_ETA
    adversary = L1AdversaryStream(G, lam)
    md = MirrorDescent(1, ConstantRate(eta), lam=lam)
    ftrl = FtrlCompositeL1(1, ConstantRate(eta), lam=lam)

    amplitude = (G - lam) / math.sqrt(T)
    zero_onset = None
    g_running = 0.0
    rows = [(1, 0.0, 0.0)]
    failures = []
    for t in range(1, T):
        event = adversary.event(t, md.x)
        g = float(event.g[0])
        g_running += g
        x_md = float(md.step(event.g)[0])
        x_ftrl = float(ftrl.step(event.g)[0])
        rows.append((t + 1, x_md, x_ftrl))
        if zero_onset is None and abs(g_running) < (t * lam):
            zero_onset = t + 1

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
    return L1ExampleResult(rows=rows, ok=not failures, failures=failures)
