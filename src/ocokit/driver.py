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
    BoundRule,
    RegretRecord,
    RunTrace,
    _penalty_curve,
    _reg_curve,
    best_comparator,
    bound_curve,
    cumulative_regret,
)
from .core import ConstantRate, FeasibleSet
from .learners import BoundConfig, FtrlCompositeL1, OnlineLearner
from .mirror import MirrorDescent
from .streams import L1AdversaryStream


@dataclass
class RunResult:
    record: RegretRecord
    x_star: np.ndarray
    x_final: np.ndarray
    trace: RunTrace
    bound_ok: bool
    decomposition_ok: bool


class _MirrorStability:
    """Stability accounting for mirror-descent runs.

    Rebuilds the accumulated objective of the update's recentered FTRL form,
    with past penalty terms replaced by their tangents at the points where
    they were taken, and exposes the same objective / reg_increment hooks
    the native learners provide.  Round t's tangent
    lam_t ||x_{t+1}||_1 + g_psi . (x - x_{t+1}) reduces to its slope term
    g_psi . x, since g_psi = lam_t sign(x_{t+1}) on the support and
    x_{t+1} = 0 off it; the tangent history at any comparator is then one
    matrix-vector product.
    """

    def __init__(self, learner: MirrorDescent, T: int):
        if learner.feasible_set.kind != FeasibleSet.UNCONSTRAINED:
            raise ValueError("stability accounting needs an unconstrained set")
        self.learner = learner
        dim = learner.dim
        self.g_sum = np.zeros(dim)
        self.g_psi_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.recentering = 0.0
        self.prev_weights = learner.cum_weights.copy()
        self._last = None
        self.tangent_slopes = np.zeros((T, dim))

    def after_step(self, x_prev, g):
        t = self.learner.t
        g_psi = self.learner.extract_last_psi_subgradient(x_prev, g)
        sigma = np.maximum(self.learner.cum_weights - self.prev_weights, 0.0)
        self.g_sum = self.g_sum + g
        self.adj_sum = self.adj_sum + sigma * x_prev
        self.recentering += 0.5 * float(np.sum(sigma * x_prev ** 2))
        self._last = (x_prev, sigma, g_psi)
        self.tangent_slopes[t - 1] = g_psi
        self.prev_weights = self.learner.cum_weights.copy()
        # h_{0:t} includes this round's tangent of the penalty
        self.g_psi_sum = self.g_psi_sum + g_psi

    def objective(self, x) -> float:
        w = self.learner.cum_weights
        quad = 0.5 * float(np.sum(w * x ** 2)) - float(self.adj_sum @ x) + self.recentering
        return float(self.g_sum @ x) + float(self.g_psi_sum @ x) + quad

    def reg_increment(self, x) -> float:
        x_prev, sigma, g_psi = self._last
        return 0.5 * float(np.sum(sigma * (x - x_prev) ** 2)) + float(g_psi @ x)

    def penalty_curve(self, x_star) -> np.ndarray:
        """The tangents' share of r_{0:t}(x*) for t = 1..T."""
        return np.cumsum(self.tangent_slopes @ x_star)


def run_rounds(learner, stream, T: int, rule: BoundRule | None = None,
               cfg: BoundConfig | None = None,
               comparator_set: FeasibleSet | None = None) -> RunResult:
    """Drive ``T`` rounds and assemble the per-round regret record.

    ``record.strong_ftrl_rhs`` is the stability decomposition of the
    Strong FTRL Lemma at every prefix: r_{0:t}(x*) + penalty
    + sum_{s<=t} stability_s, where the penalty is alpha_{1:t} lam ||x*||_1
    (or, for mirror descent, the penalty's tangents at x*).  The whole curve
    costs O(T n).  It is +inf for learners without stability hooks.
    """
    if T < 0:
        raise ValueError(f"round count must be >= 0, got {T}")
    dim = learner.dim
    losses = np.zeros(T)
    loss_fns = []
    grads = np.zeros((T, dim))
    iterates = np.zeros((T, dim))
    inv_rates = np.zeros((T, dim))
    stability = np.zeros(T)
    inv0 = np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (dim,)).copy()

    is_native = isinstance(learner, OnlineLearner)
    mirror_acct = None
    if isinstance(learner, MirrorDescent):
        try:
            mirror_acct = _MirrorStability(learner, T)
        except ValueError:
            mirror_acct = None

    for t in range(1, T + 1):
        x_t = learner.x.copy()
        event = stream.event(t, x_t)
        losses[t - 1] = event.loss_at(x_t)
        loss_fns.append(event.loss_at)
        grads[t - 1] = event.g
        iterates[t - 1] = x_t
        x_next = learner.step(event.g)
        inv_rates[t - 1] = learner.last_inv_rate
        if is_native:
            stability[t - 1] = (learner.objective(x_t) - learner.objective(x_next)
                                - learner.reg_increment(x_t))
        elif mirror_acct is not None:
            mirror_acct.after_step(x_t, event.g)
            stability[t - 1] = (mirror_acct.objective(x_t) - mirror_acct.objective(x_next)
                                - mirror_acct.reg_increment(x_t))
        else:
            stability[t - 1] = np.inf

    trace = RunTrace(
        grads=grads, iterates=iterates, inv_rates=inv_rates, inv0=inv0,
        reg_kind=learner.reg_kind, penalty_lam=learner.lam)

    if hasattr(stream, "best_fixed_point") and T > 0:
        x_star = stream.best_fixed_point()
    else:
        comp_set = comparator_set or learner.feasible_set
        x_star = best_comparator(grads, comp_set) if T > 0 else np.zeros(dim)

    comp_losses = np.array([loss_fns[t](x_star) for t in range(T)])
    cum = cumulative_regret(losses, comp_losses)

    if rule is not None and T > 0:
        cfg = cfg or BoundConfig()
        bound = bound_curve(rule, cfg, grads, x_star=x_star, trace=trace)
    else:
        bound = np.full(T, np.inf)

    if np.all(np.isfinite(stability)):
        if mirror_acct is not None:
            penalty = mirror_acct.penalty_curve(x_star)
        else:
            penalty = _penalty_curve(trace, x_star)
        rhs = _reg_curve(trace, x_star, shifted=False) + penalty + np.cumsum(stability)
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
