"""Regret accounting and per-round evaluation of the regret guarantees.

Bounds come in two flavors.  Closed-form rates need only the problem
constants and the gradient stream.  Generic rates reconstruct the deployed
regularizer from a RunTrace (per-round inverse rates and iterates recorded
by the driver) and evaluate it at the realized hindsight comparator, which
is the tightest checkable form of each guarantee.  ``bound_curve`` returns
the whole prefix curve; ``bound_value`` indexes into it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FeasibleSet, as_point, negative_entropy
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
    """What the driver records per round, enough to rebuild r_{0:t}.

    ``inv_rates[t-1]`` is the cumulative inverse rate (1/eta_t per
    coordinate) the learner deployed at step t; ``inv0`` is the round-zero
    value; ``iterates[t-1]`` is the point x_t that was played.
    """

    grads: np.ndarray
    iterates: np.ndarray
    inv_rates: np.ndarray
    inv0: np.ndarray
    reg_kind: str
    penalty_lam: float = 0.0

    def sigmas(self) -> np.ndarray:
        prev = np.vstack([self.inv0[None, :], self.inv_rates[:-1]]) \
            if len(self.inv_rates) else self.inv_rates
        return np.maximum(self.inv_rates - prev, 0.0)


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


def bound_value(rule: BoundRule, cfg: BoundConfig, grads, t: int,
                x_star=None, trace: RunTrace | None = None) -> float:
    """Evaluate the chosen regret guarantee at prefix t; non-decreasing in t."""
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    if t < 0 or t > grads.shape[0]:
        raise ValueError(f"prefix {t} outside recorded history of length {grads.shape[0]}")
    if t == 0:
        return 0.0
    return float(bound_curve(rule, cfg, grads, x_star=x_star, trace=trace)[t - 1])

