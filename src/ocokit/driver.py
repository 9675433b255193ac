"""Experiment loop: select x_t, reveal f_t, incur loss, update.

Runs a learner against a stream, computes the hindsight comparator, and
evaluates the requested regret bound plus the stability decomposition at
every prefix.  Also hosts the fixed one-dimensional L1 reproduction that
contrasts mirror descent with the accumulated-penalty learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _GENERIC_RULES,
    BoundRule,
    RegretRecord,
    RunTrace,
    _penalty_curve,
    _reg_curve,
    _stability_terms,
    _trace_bound,
    best_comparator,
    bound_curve,
    cumulative_regret,
)
from .core import ConstantRate, FeasibleSet, _psi_subgradient, _require_finite, as_point
from .learners import BoundConfig, FtrlCompositeL1
from .mirror import MirrorDescent
from .streams import LINEAR, L1AdversaryStream, loss_column


@dataclass
class RunResult:
    record: RegretRecord
    x_star: np.ndarray
    x_final: np.ndarray
    trace: RunTrace
    bound_ok: bool
    decomposition_ok: bool


def run_rounds(learner, stream, T: int, rule: BoundRule | None = None,
               cfg: BoundConfig | None = None,
               comparator_set: FeasibleSet | None = None) -> RunResult:
    """Drive ``T`` rounds and assemble the per-round regret record.

    The loop only plays and records: x_t, g_t, the deployed inverse rates
    and each round's loss parameters; it calls nothing on the learner but
    ``step``, and all else is derived from that trace after the loop.
    Losses are data (see ``streams``): one ``loss_column`` call evaluates
    f_t(x_t) for every round and one f_t(x*), from the gradient trace
    (linear losses) or the stream's own rows, held by reference.  The
    iterate column and x* are validated once, with ``as_point``'s
    ValueError.  For a ``linearized`` learner (mirror descent and its FTRL
    form) on an unconstrained set, the penalty subgradients g_psi_t are
    read off x_t, x_{t+1}, g_t and the inverse rates, a block of rows per
    ``core._psi_subgradient`` call, bit for bit what each step took.
    ``record.strong_ftrl_rhs`` is the stability decomposition of the Strong
    FTRL Lemma at every prefix, in O(T n): r_{0:t}(x*) + penalty
    + sum_{s<=t} stability_s, where the penalty is alpha_{1:t} lam ||x*||_1
    (given g_psi, its tangents at x*) and the stability terms come from
    ``bounds._stability_terms``.  It is +inf for a linearized learner on a
    constrained set, whose accumulated objective is not known.  sigma_t and
    r_{0:t}(x*) are computed once and shared by the bound and the terms.
    """
    if T < 0:
        raise ValueError(f"round count must be >= 0, got {T}")
    dim = learner.dim
    family = None
    rows, labels = [], []  # non-linear losses: the events' parameter rows, by reference
    grads = np.zeros((T, dim))
    points = np.zeros((T + 1, dim))  # x_1..x_{T+1}; the trace keeps x_1..x_T
    inv_rates = np.zeros((T, dim))
    inv0 = np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (dim,)).copy()
    linearized = getattr(learner, "linearized", False)

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
    iterates = _require_finite(points[:T])
    psi = None
    if linearized and learner.feasible_set.kind == FeasibleSet.UNCONSTRAINED:
        # blocks of about 32768 entries: one call on the whole (T, n) array is slower at large n
        psi, block = np.empty((T, dim)), max(1, 32768 // dim)
        for s in (slice(a, a + block) for a in range(0, T, block)):
            psi[s] = _psi_subgradient(iterates[s], points[1:][s], grads[s], inv_rates[s],
                                      learner.lam)

    trace = RunTrace(
        grads=grads, iterates=iterates, inv_rates=inv_rates, inv0=inv0,
        reg_kind=learner.reg_kind, penalty_lam=learner.lam, psi=psi)

    if hasattr(stream, "best_fixed_point") and T > 0:
        x_star = stream.best_fixed_point()
    else:
        comp_set = comparator_set or learner.feasible_set
        x_star = best_comparator(grads, comp_set) if T > 0 else np.zeros(dim)
    x_star = as_point(x_star, dim=dim)

    if T > 0:
        params = grads if family == LINEAR else rows
        losses = loss_column(family, params, iterates, labels)
        comp_losses = loss_column(family, params, x_star, labels)
    else:
        losses = comp_losses = np.zeros(0)
    cum = cumulative_regret(losses, comp_losses)

    sigma = trace.sigmas()
    reg = _reg_curve(trace, x_star, sigma)
    if rule is None or T == 0:
        bound = np.full(T, np.inf)
    elif rule in _GENERIC_RULES:
        bound = _trace_bound(rule, grads, trace, x_star, reg)
    else:
        bound = bound_curve(rule, cfg or BoundConfig(), grads, x_star=x_star, trace=trace)

    stability = np.full(T, np.inf) if linearized and psi is None \
        else _stability_terms(trace, points[1:], sigma)
    if np.all(np.isfinite(stability)):
        penalty = np.cumsum(psi @ x_star) if psi is not None else _penalty_curve(trace, x_star)
        rhs = reg + penalty + np.cumsum(stability)
    else:
        rhs = np.full(T, np.inf)

    record = RegretRecord(loss=losses, comp_loss=comp_losses, cum_regret=cum,
                          bound=bound, strong_ftrl_rhs=rhs)
    bound_ok = bool(np.all(cum <= bound + 1e-9))
    decomposition_ok = bool(np.all(cum <= rhs + 1e-9))
    return RunResult(record=record, x_star=x_star, x_final=learner.x.copy(),
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
