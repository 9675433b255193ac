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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FeasibleSet, _negative_entropy_rows, _row_dots, as_point, negative_entropy
from .learners import BoundConfig


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
    value; ``iterates[t-1]`` is the point x_t that was played.  ``psi`` holds
    unconstrained mirror descent's penalty subgradients g_psi_t.  Its FTRL
    form keeps the penalty's tangents lam ||x_{t+1}||_1 + g_psi_t.(x - x_{t+1}),
    which reduce to their slopes g_psi_t.x: g_psi_t = lam sign(x_{t+1}) on
    the support and x_{t+1} = 0 off it.
    """

    grads: np.ndarray
    iterates: np.ndarray
    inv_rates: np.ndarray
    inv0: np.ndarray
    reg_kind: str
    penalty_lam: float = 0.0
    psi: np.ndarray | None = None

    def sigmas(self) -> np.ndarray:
        prev = np.vstack([self.inv0[None, :], self.inv_rates])[:-1]
        return np.maximum(np.subtract(self.inv_rates, prev, out=prev), 0.0, out=prev)


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


def _dual_sq_rows(grads: np.ndarray, inv_rows: np.ndarray, sup: bool) -> np.ndarray:
    """Per-round squared dual norms; a zero gradient costs 0 even at rate 0."""
    if sup:
        gmax = np.max(np.abs(grads), axis=1)
        w = inv_rows[:, 0]
        out = np.where(gmax == 0.0, 0.0,
                       np.where(w > 0.0, gmax ** 2 / np.where(w > 0, w, 1.0), np.inf))
        return out
    num = grads ** 2
    per = np.where(num == 0.0, 0.0,
                   np.where(inv_rows > 0.0, num / np.where(inv_rows > 0, inv_rows, 1.0), np.inf))
    return per.sum(axis=1)


def _reg_curve(trace: RunTrace, x_star: np.ndarray, shifted: bool) -> np.ndarray:
    """r_{0:t}(x*) for t = 1..T (or t-1 when ``shifted``), penalty excluded."""
    T = trace.inv_rates.shape[0]
    rows = np.vstack([trace.inv0[None, :], trace.inv_rates[:-1]]) if shifted \
        else trace.inv_rates
    if trace.reg_kind == "centered":
        return 0.5 * rows @ (x_star ** 2)
    if trace.reg_kind == "entropic":
        return rows[:, 0] * negative_entropy(x_star)
    if trace.reg_kind == "proximal":
        contrib = 0.5 * np.sum(trace.sigmas() * (x_star[None, :] - trace.iterates) ** 2, axis=1)
        base = 0.5 * float(np.sum(trace.inv0 * x_star ** 2))
        curve = base + np.cumsum(contrib)
        if shifted:
            curve = np.concatenate([[base], curve[:-1]]) if T else curve
        return curve
    return np.zeros(T)


def _penalty_curve(trace: RunTrace, x_star: np.ndarray) -> np.ndarray:
    """alpha_{1:t} lam ||x*||_1 = t lam ||x*||_1 for t = 1..T (alpha_t = 1)."""
    ts = np.arange(1, trace.inv_rates.shape[0] + 1, dtype=float)
    return ts * trace.penalty_lam * float(np.sum(np.abs(x_star)))


def _stability_terms(trace: RunTrace, next_iterates: np.ndarray) -> np.ndarray:
    """h_{0:t}(x_t) - h_{0:t}(x_{t+1}) - r_t(x_t) for t = 1..T; +inf if unknown.

    h_{0:t} is the accumulated objective the learner minimized after round t,
    with the additive constants it cannot know (true loss values) dropped,
    and ``next_iterates[t-1]`` is x_{t+1}.  Each family's pieces are prefix
    sums of trace columns:
    - quadratic FTRL: g_{1:t}.x + inv_t.x^2/2, minus a_{1:t}.x with
      a_s = sigma_s x_s when proximal, plus t lam ||x||_1, plus the
      recentering value sum_s sigma_s ||x_s||^2/2; r_t is
      sigma_t ||x_t||^2/2 (0 when proximal) plus lam ||x_t||_1;
    - mirror descent (``trace.psi`` set): the proximal form with the penalty
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
    At most two (T, n) temporaries are alive at once.
    """
    X, Xn = trace.iterates, next_iterates
    T = X.shape[0]
    kind = trace.reg_kind
    if kind not in ("centered", "proximal", "entropic", "strongly-convex"):
        return np.full(T, np.inf)
    buf = np.cumsum(trace.grads, axis=0)  # g_{1:t}
    now, nxt = _row_dots(buf, X), _row_dots(buf, Xn)
    if kind == "entropic":
        ent, ent_next = _negative_entropy_rows(X), _negative_entropy_rows(Xn)
        w = trace.inv_rates[:, 0]
        return (now + w * ent) - (nxt + w * ent_next) - trace.sigmas()[:, 0] * ent
    if kind == "strongly-convex":
        ts = np.arange(1, T + 1, dtype=float)
        gx = np.cumsum(_row_dots(trace.grads, X))
        sq = np.cumsum(_row_dots(X, X))
        centers = np.cumsum(X, axis=0, out=buf)

        def h(P, lin):
            return lin - gx + 0.5 * (ts * _row_dots(P, P) - 2.0 * _row_dots(P, centers) + sq)

        return h(X, now) - h(Xn, nxt)
    if trace.psi is not None:
        np.cumsum(trace.psi, axis=0, out=buf)  # g_psi_{1:t}
        now, nxt = now + _row_dots(buf, X), nxt + _row_dots(buf, Xn)
    del buf
    tmp = np.empty_like(X)

    def half_weighted_sq(w, P):
        return 0.5 * np.sum(np.multiply(w, np.square(P, out=tmp), out=tmp), axis=1)

    inv = trace.inv_rates
    quad_now, quad_next = half_weighted_sq(inv, X), half_weighted_sq(inv, Xn)
    sigma = trace.sigmas()
    inc = half_weighted_sq(sigma, X)  # sigma_t ||x_t||^2 / 2
    rec = 0.0
    if kind == "proximal":
        adj = np.cumsum(np.multiply(sigma, X, out=sigma), axis=0, out=sigma)  # a_{1:t}
        quad_now, quad_next = quad_now - _row_dots(adj, X), quad_next - _row_dots(adj, Xn)
        rec = np.cumsum(inc)
    if trace.psi is not None:
        return (now + (quad_now + rec)) - (nxt + (quad_next + rec)) - _row_dots(trace.psi, X)
    h_now, h_next = now + quad_now, nxt + quad_next
    r_t = inc if kind == "centered" else 0.0
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
        cum_sq = np.cumsum(grads ** 2, axis=0)
        return 2.0 * math.sqrt(2.0) * cfg.R_inf * np.sum(np.sqrt(cum_sq), axis=1)
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
    sup = trace.reg_kind == "entropic"
    if rule is BoundRule.GENERAL_FTRL:
        inv_prev = np.vstack([trace.inv0[None, :], trace.inv_rates[:-1]]) if T \
            else trace.inv_rates
        duals = _dual_sq_rows(grads, inv_prev, sup)
        return _reg_curve(trace, x_star, shifted=True) + 0.5 * np.cumsum(duals)
    duals = _dual_sq_rows(grads, trace.inv_rates, sup)
    factor = 1.0 if rule is BoundRule.WEAK_PROXIMAL else 0.5
    curve = _reg_curve(trace, x_star, shifted=False) + factor * np.cumsum(duals)
    if rule in (BoundRule.COMPOSITE, BoundRule.MIRROR_DESCENT) and trace.penalty_lam > 0:
        curve = curve + _penalty_curve(trace, x_star)
    return curve
