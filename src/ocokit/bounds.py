"""Regret accounting and per-round evaluation of the regret guarantees.

Bounds come in two flavors.  Closed-form rates need only the problem
constants and the gradient stream.  Generic rates reconstruct the deployed
regularizer from a RunTrace (per-round inverse rates and iterates recorded
by the driver) and evaluate it at the realized hindsight comparator, which
is the tightest checkable form of each guarantee.  ``bound_curve`` returns
the whole prefix curve.

The Strong FTRL Lemma's stability terms come from the same trace:
``_stability_terms`` evaluates h_{0:t}(x_t) - h_{0:t}(x_{t+1}) - r_t(x_t) for
every round at once, after the run, so learners only ever ``step``.

``_bound_and_rhs`` is the whole accounting of a ``run_rounds`` call.  It
builds the rate increments sigma_t (``RunTrace.sigmas``) once, only for the
kinds that read them, and r_{0:t}(x*) (``_reg_curve``) once, and hands
r_{0:t}(x*) to the bound (``_trace_bound``) and to the decomposition, sigma
to ``_reg_curve`` and ``_stability_terms``.  Column prefix sums go through ``_prefix_sums``.
Besides the trace and sigma, one (T, n) float buffer is alive at a time,
with (T, n) boolean masks (an eighth of its size) for the dual norms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FeasibleSet, InvariantViolation, _negative_entropy_rows, _row_dots, as_point
from .core import negative_entropy
from .learners import CENTERED, ENTROPIC, PROXIMAL, STRONGLY_CONVEX, BoundConfig


class BoundRule(enum.Enum):
    """Which regret guarantee to evaluate."""

    GENERAL_FTRL = "general-ftrl"
    FTRL_PROXIMAL = "ftrl-proximal"
    COMPOSITE = "composite"
    MIRROR_DESCENT = "mirror-descent"
    WEAK_PROXIMAL = "weak-proximal"
    DA_CLOSED_FORM = "da-closed-form"
    PROX_CLOSED_FORM = "prox-closed-form"
    ADAGRAD_PER_COORD = "adagrad-per-coord"
    ENTROPIC = "entropic"
    STRONGLY_CONVEX_LOG = "strongly-convex-log"
    NON_ADAPTIVE = "non-adaptive"


_GENERIC_RULES = {BoundRule.GENERAL_FTRL, BoundRule.FTRL_PROXIMAL, BoundRule.COMPOSITE,
                  BoundRule.MIRROR_DESCENT, BoundRule.WEAK_PROXIMAL}


@dataclass
class RegretRecord:
    """Per-round arrays produced by one experiment run."""

    loss: np.ndarray
    comp_loss: np.ndarray
    cum_regret: np.ndarray
    bound: np.ndarray
    strong_ftrl_rhs: np.ndarray

    def __post_init__(self):
        lengths = {len(self.loss), len(self.comp_loss), len(self.cum_regret),
                   len(self.bound), len(self.strong_ftrl_rhs)}
        if len(lengths) != 1:
            raise ValueError(f"per-round arrays must share a length, got {lengths}")
        expected = np.cumsum(self.loss - self.comp_loss)
        if len(expected) and np.max(np.abs(expected - self.cum_regret)) > 1e-9:
            raise ValueError("cum_regret is not the prefix sum of loss - comp_loss")

    def __len__(self):
        return len(self.loss)


@dataclass
class RunTrace:
    """What the driver records per round, enough to rebuild r_{0:t} and h_{0:t}.

    ``inv_rates[t-1]`` is the cumulative inverse rate (1/eta_t per
    coordinate) the learner deployed at step t; ``inv0`` is the round-zero
    value; ``iterates[t-1]`` is the point x_t that was played.  ``linearized``
    is the learner's flag (mirror descent and its FTRL form): its penalty
    enters by the past subgradients g_psi_t, which ``psi`` holds on an
    unconstrained set, derived by the driver after the loop; without them
    its accumulated objective is unknown.  The FTRL form keeps the penalty's
    tangents lam ||x_{t+1}||_1 + g_psi_t.(x - x_{t+1}), which reduce to
    their slopes g_psi_t.x: g_psi_t = lam sign(x_{t+1}) on the support and
    x_{t+1} = 0 off it.
    """

    grads: np.ndarray
    iterates: np.ndarray
    inv_rates: np.ndarray
    inv0: np.ndarray
    reg_kind: str
    penalty_lam: float = 0.0
    psi: np.ndarray | None = None
    linearized: bool = False

    def sigmas(self) -> np.ndarray:
        """sigma_t = inv_t - inv_{t-1} for t = 1..T, with inv_0 = ``inv0``.

        InvariantViolation where an inverse rate falls (a negative increment).
        """
        out = np.empty_like(self.inv_rates)
        if len(out):
            np.subtract(self.inv_rates[0], self.inv0, out=out[0])
            np.subtract(self.inv_rates[1:], self.inv_rates[:-1], out=out[1:])
        if (out < 0.0).any():
            t, i = np.argwhere(out < 0.0)[0]
            raise InvariantViolation(f"the inverse rate fell at round {t + 1}, coordinate {i}")
        return out


def cumulative_regret(losses, comparator_losses) -> np.ndarray:
    """Prefix sums of loss_t - comp_loss_t."""
    losses = np.asarray(losses, dtype=float)
    comparator_losses = np.asarray(comparator_losses, dtype=float)
    if losses.shape != comparator_losses.shape:
        raise ValueError(f"length mismatch: {losses.shape} vs {comparator_losses.shape}")
    return np.cumsum(losses - comparator_losses)


def best_comparator(g_history, feasible_set: FeasibleSet) -> np.ndarray:
    """Hindsight minimizer of the summed linear losses over the set."""
    g_history = np.atleast_2d(np.asarray(g_history, dtype=float))
    total = g_history.sum(axis=0)
    if feasible_set.kind == FeasibleSet.UNCONSTRAINED:
        raise ValueError("hindsight comparator needs a bounded set (regret is "
                         "unbounded below otherwise)")
    return feasible_set.linear_minimizer(total)


def _prefix_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.cumsum(a, axis=0, out=out)`` for a 2-D float array, bit for bit.

    Either way each column is summed top to bottom, one add per row.  A
    wide array (n > T) is summed row by row, T vectorized adds of length n,
    which is several times faster than numpy's column loop there; a tall
    one keeps ``np.cumsum``, for which the row loop would be the slow one.
    """
    T, n = a.shape
    if n <= T:
        return np.cumsum(a, axis=0, out=out)
    if out is None:
        out = np.empty_like(a)
    if T:
        out[0] = a[0]
        for t in range(1, T):
            np.add(out[t - 1], a[t], out=out[t])
    return out


def _dual_sq_rows(grads: np.ndarray, inv_rows: np.ndarray, sup: bool) -> np.ndarray:
    """Per-round squared dual norms; a zero gradient costs 0 even at rate 0.

    One buffer holds g^2 and is divided in place where g != 0 and the
    inverse rate is positive; a nonzero gradient at inverse rate 0 costs
    +inf.  ``sup`` takes max_i |g_i| over the first coordinate's rate.
    """
    if sup:
        sq, w = np.square(np.max(np.abs(grads), axis=1)), inv_rows[:, 0]
    else:
        sq, w = np.square(grads), inv_rows
    live, rate = sq != 0.0, w > 0.0
    np.divide(sq, w, out=sq, where=live & rate)
    sq[live & ~rate] = np.inf
    return sq if sup else sq.sum(axis=1)


def _entropy_at(x_star: np.ndarray) -> float:
    """The negative entropy at x*, +inf where a coordinate is negative (off its domain)."""
    return negative_entropy(x_star) if np.all(x_star >= 0) else math.inf


def _reg_curve(trace: RunTrace, x_star: np.ndarray,
               sigma: np.ndarray | None = None) -> np.ndarray:
    """r_{0:t}(x*) for t = 1..T, penalty excluded.

    ``sigma`` is ``trace.sigmas()``, when the caller has it already.
    """
    T = trace.inv_rates.shape[0]
    if trace.reg_kind == CENTERED:
        return 0.5 * trace.inv_rates @ (x_star ** 2)
    if trace.reg_kind == ENTROPIC:
        return trace.inv_rates[:, 0] * _entropy_at(x_star)
    if trace.reg_kind == PROXIMAL:
        if sigma is None:
            sigma = trace.sigmas()
        d = np.subtract(x_star, trace.iterates)
        np.square(d, out=d)
        contrib = 0.5 * np.sum(np.multiply(sigma, d, out=d), axis=1)
        return 0.5 * float(np.sum(trace.inv0 * x_star ** 2)) + np.cumsum(contrib)
    return np.zeros(T)


def _prior_reg_curve(trace: RunTrace, x_star: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """r_{0:t-1}(x*) for t = 1..T, given ``reg`` = r_{0:t}(x*)."""
    T = len(reg)
    if T == 0:
        return reg
    if trace.reg_kind == CENTERED:
        # the same matrix-vector product as r_{0:t}, on the rows shifted down one
        half = np.empty_like(trace.inv_rates)
        np.multiply(0.5, trace.inv0, out=half[0])
        np.multiply(0.5, trace.inv_rates[:-1], out=half[1:])
        return half @ (x_star ** 2)
    if trace.reg_kind == ENTROPIC:
        first = trace.inv0[0] * _entropy_at(x_star)
    elif trace.reg_kind == PROXIMAL:
        first = 0.5 * float(np.sum(trace.inv0 * x_star ** 2))
    else:
        return reg
    return np.concatenate([[first], reg[:-1]])


def _penalty_curve(trace: RunTrace, x_star: np.ndarray) -> np.ndarray:
    """alpha_{1:t} lam ||x*||_1 = t lam ||x*||_1 for t = 1..T (alpha_t = 1)."""
    ts = np.arange(1, trace.inv_rates.shape[0] + 1, dtype=float)
    return ts * trace.penalty_lam * float(np.sum(np.abs(x_star)))


def _stability_terms(trace: RunTrace, next_iterates: np.ndarray,
                     sigma: np.ndarray | None) -> np.ndarray:
    """h_{0:t}(x_t) - h_{0:t}(x_{t+1}) - r_t(x_t) for t = 1..T; +inf if unknown.

    h_{0:t} is the accumulated objective the learner minimized after round t,
    with the additive constants it cannot know (true loss values) dropped,
    and ``next_iterates[t-1]`` is x_{t+1}; ``sigma`` is ``trace.sigmas()``,
    computed once per run by the caller and only read here (None where it
    is not read).  The objective is unknown for the ``NONE`` kind and for
    a linearized trace without ``psi``.  Each family's pieces are prefix
    sums of trace columns:
    - quadratic FTRL: g_{1:t}.x + inv_t.x^2/2, minus a_{1:t}.x with
      a_s = sigma_s x_s when proximal, plus t lam ||x||_1, plus the
      recentering value sum_s sigma_s ||x_s||^2/2; r_t is
      sigma_t ||x_t||^2/2 (0 when proximal) plus lam ||x_t||_1;
    - penalty tangents (``trace.psi`` set): the proximal form with the penalty
      replaced by its tangents, linear term g_{1:t} + g_psi_{1:t}, and
      r_t(x_t) = g_psi_t.x_t;
    - entropic: g_{1:t}.x + inv_t (negative entropy of x), r_t =
      sigma_t (negative entropy of x_t), the entropies taken row-wise;
    - strongly convex: the summed quadratic lower bounds
      g_s.(x - x_s) + ||x - x_s||^2/2, and no regularizer.
    Constants such as the recentering value cancel in the difference.  They
    are kept, and every sum is taken in the order a round-by-round
    evaluation of h_{0:t} takes it, so that the terms equal that evaluation
    bit for bit (tests/test_decomposition_rhs.py keeps one as the oracle).
    Besides the trace and ``sigma``, one (T, n) buffer is alive at a time:
    it holds g_{1:t}, then g_psi_{1:t} or the summed centers, then each
    weighted square and a_{1:t} in turn.
    """
    X, Xn = trace.iterates, next_iterates
    T = X.shape[0]
    kind = trace.reg_kind
    if kind not in (CENTERED, PROXIMAL, ENTROPIC, STRONGLY_CONVEX) or \
            (trace.linearized and trace.psi is None):
        return np.full(T, np.inf)
    buf = _prefix_sums(trace.grads)  # g_{1:t}
    now, nxt = _row_dots(buf, X), _row_dots(buf, Xn)
    if kind == ENTROPIC:
        ent, ent_next = _negative_entropy_rows(X), _negative_entropy_rows(Xn)
        w = trace.inv_rates[:, 0]
        return (now + w * ent) - (nxt + w * ent_next) - sigma[:, 0] * ent
    if kind == STRONGLY_CONVEX:
        ts = np.arange(1, T + 1, dtype=float)
        gx = np.cumsum(_row_dots(trace.grads, X))
        sq = np.cumsum(_row_dots(X, X))
        centers = _prefix_sums(X, out=buf)

        def h(P, lin):
            return lin - gx + 0.5 * (ts * _row_dots(P, P) - 2.0 * _row_dots(P, centers) + sq)

        return h(X, now) - h(Xn, nxt)
    if trace.psi is not None:
        _prefix_sums(trace.psi, out=buf)  # g_psi_{1:t}
        now, nxt = now + _row_dots(buf, X), nxt + _row_dots(buf, Xn)
    tmp = buf

    def half_weighted_sq(w, P):
        return 0.5 * np.sum(np.multiply(w, np.square(P, out=tmp), out=tmp), axis=1)

    inv = trace.inv_rates
    quad_now, quad_next = half_weighted_sq(inv, X), half_weighted_sq(inv, Xn)
    inc = half_weighted_sq(sigma, X)  # sigma_t ||x_t||^2 / 2
    rec = 0.0
    if kind == PROXIMAL:
        adj = _prefix_sums(np.multiply(sigma, X, out=tmp), out=tmp)  # a_{1:t}
        quad_now, quad_next = quad_now - _row_dots(adj, X), quad_next - _row_dots(adj, Xn)
        rec = np.cumsum(inc)
    if trace.psi is not None:
        return (now + (quad_now + rec)) - (nxt + (quad_next + rec)) - _row_dots(trace.psi, X)
    h_now, h_next = now + quad_now, nxt + quad_next
    r_t = inc if kind == CENTERED else 0.0
    lam = trace.penalty_lam
    if lam:
        l1_now = np.sum(np.abs(X, out=tmp), axis=1)
        l1_next = np.sum(np.abs(Xn, out=tmp), axis=1)
        ts = np.arange(1, T + 1, dtype=float)
        h_now, h_next = h_now + ts * lam * l1_now, h_next + ts * lam * l1_next
        r_t = r_t + lam * l1_now
    return (h_now + rec) - (h_next + rec) - r_t


def bound_curve(rule: BoundRule, cfg: BoundConfig, grads, x_star=None,
                trace: RunTrace | None = None) -> np.ndarray:
    """The chosen guarantee evaluated at every prefix t = 1..T."""
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    T = grads.shape[0]
    ts = np.arange(1, T + 1, dtype=float)

    if rule is BoundRule.DA_CLOSED_FORM:
        cfg.require("R", "G")
        norm_star = float(np.linalg.norm(x_star)) if x_star is not None else cfg.R
        return (math.sqrt(2.0) / 2.0) * (cfg.R + norm_star ** 2 / cfg.R) * cfg.G * np.sqrt(ts)
    if rule is BoundRule.PROX_CLOSED_FORM:
        cfg.require("R", "G")
        return 2.0 * math.sqrt(2.0) * cfg.R * cfg.G * np.sqrt(ts)
    if rule is BoundRule.ADAGRAD_PER_COORD:
        cfg.require("R_inf")
        cum_sq = np.square(grads)
        _prefix_sums(cum_sq, out=cum_sq)
        return 2.0 * math.sqrt(2.0) * cfg.R_inf * np.sum(np.sqrt(cum_sq, out=cum_sq), axis=1)
    if rule is BoundRule.ENTROPIC:
        cfg.require("G_inf", "n")
        log_n = math.log(cfg.n)
        sup_sq = np.max(np.abs(grads), axis=1) ** 2 if T else np.zeros(0)
        prior = np.concatenate([[0.0], np.cumsum(sup_sq)[:-1]]) if T else sup_sq
        adaptive = 2.0 * np.sqrt((cfg.G_inf ** 2 + prior) * log_n)
        cap = 2.0 * cfg.G_inf * np.sqrt(ts * log_n)
        return np.minimum(adaptive, cap)
    if rule is BoundRule.STRONGLY_CONVEX_LOG:
        cfg.require("G")
        return 0.5 * cfg.G ** 2 * (1.0 + np.log(ts))
    if rule is BoundRule.NON_ADAPTIVE:
        cfg.require("eta")
        if x_star is None:
            cfg.require("R")
            reg = cfg.R ** 2 / (2.0 * cfg.eta)
        else:
            reg = float(np.linalg.norm(x_star)) ** 2 / (2.0 * cfg.eta)
        return reg + 0.5 * cfg.eta * np.cumsum(np.sum(grads ** 2, axis=1))

    if rule not in _GENERIC_RULES:
        raise ValueError(f"unknown bound rule {rule!r}")
    if trace is None or x_star is None:
        raise ValueError(f"{rule.value} needs a run trace and a comparator")
    x_star = as_point(x_star)
    return _trace_bound(rule, grads, trace, x_star, _reg_curve(trace, x_star))


def _trace_bound(rule: BoundRule, grads: np.ndarray, trace: RunTrace, x_star: np.ndarray,
                 reg: np.ndarray) -> np.ndarray:
    """A trace-based rule's curve, given ``reg`` = r_{0:t}(x*) from ``_reg_curve``.

    ``_bound_and_rhs`` shares ``reg`` with the decomposition RHS, so that a
    run builds it once.
    """
    sup = trace.reg_kind == ENTROPIC
    if rule is BoundRule.GENERAL_FTRL:
        # the dual norms at the rates of the round before: inv0, then inv_{t-1}
        duals = np.concatenate([_dual_sq_rows(grads[:1], trace.inv0[None, :], sup),
                                _dual_sq_rows(grads[1:], trace.inv_rates[:-1], sup)])
        return _prior_reg_curve(trace, x_star, reg) + 0.5 * np.cumsum(duals)
    duals = _dual_sq_rows(grads, trace.inv_rates, sup)
    factor = 1.0 if rule is BoundRule.WEAK_PROXIMAL else 0.5
    curve = reg + factor * np.cumsum(duals)
    if rule in (BoundRule.COMPOSITE, BoundRule.MIRROR_DESCENT) and trace.penalty_lam > 0:
        curve = curve + _penalty_curve(trace, x_star)
    return curve


def _bound_and_rhs(trace: RunTrace, next_iterates: np.ndarray, x_star: np.ndarray,
                   rule: BoundRule | None, cfg: BoundConfig | None):
    """One run's bound curve (+inf with no rule or rounds) and Strong FTRL decomposition.

    The decomposition is r_{0:t}(x*) + penalty + sum_{s<=t} stability_s, the
    penalty alpha_{1:t} lam ||x*||_1 or, given ``trace.psi``, its tangents at
    x*; it is +inf if any stability term is.  ``next_iterates[t-1]`` is x_{t+1}.
    """
    T = trace.grads.shape[0]
    sigma = trace.sigmas() if trace.reg_kind in (CENTERED, PROXIMAL, ENTROPIC) else None
    reg = _reg_curve(trace, x_star, sigma)
    if rule is None or T == 0:
        bound = np.full(T, np.inf)
    elif rule in _GENERIC_RULES:
        bound = _trace_bound(rule, trace.grads, trace, x_star, reg)
    else:
        bound = bound_curve(rule, cfg or BoundConfig(), trace.grads, x_star=x_star, trace=trace)
    stability = _stability_terms(trace, next_iterates, sigma)
    if not np.all(np.isfinite(stability)):
        return bound, np.full(T, np.inf)
    penalty = np.cumsum(trace.psi @ x_star) if trace.psi is not None \
        else _penalty_curve(trace, x_star)
    return bound, reg + penalty + np.cumsum(stability)
