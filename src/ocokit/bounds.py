"""Regret accounting and per-round evaluation of the regret guarantees.

A run is one ``RunTrace``, the record ``driver._play`` returns, and its
accounting reads nothing else but x*.  Closed-form rates need only the
problem constants and the gradients.  Generic rates rebuild the deployed
regularizer from the trace and evaluate it at the realized hindsight
comparator, the tightest checkable form of each guarantee; ``bound_curve``
returns the whole prefix curve.

Each regularizer family (none, centered or proximal quadratic, entropic,
strongly convex lower bounds) is one object that owns its r_{0:t}(x*), the
objective h_{0:t} FTRL minimizes after round t (``h_rows``, every round at
once at any points), its increment r_t and its dual norm; ``_FAMILIES``,
which maps a trace's ``reg_kind`` name to that object, is the only reader of
the name.  ``_stability_terms`` is the Strong FTRL Lemma's h_{0:t}(x_t) -
h_{0:t}(x_{t+1}) - r_t(x_t) from those, so learners only ever ``step``.
``_bound_and_rhs`` is the whole accounting of a ``run_rounds`` call.  It
builds sigma_t (``RunTrace.sigmas``) once, only for the families that read
it, and r_{0:t}(x*) for t = 0..T once, which the bound (``_trace_bound``)
and the decomposition share.  Besides the trace and sigma, one (T, n) float
buffer is alive at a time, with (T, n) boolean masks (an eighth of its size) for
the dual norms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FeasibleSet, InvariantViolation, _negative_entropy_rows, _psi_subgradient
from .core import _row_dots, _running_sums, as_point, negative_entropy
from .learners import CENTERED, ENTROPIC, NONE, PROXIMAL, STRONGLY_CONVEX, BoundConfig


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
    """Per-round arrays of one run; ``cum_regret`` (prefix sums of loss - comp_loss) is derived."""

    loss: np.ndarray
    comp_loss: np.ndarray
    cum_regret: np.ndarray = field(init=False)
    bound: np.ndarray
    strong_ftrl_rhs: np.ndarray

    def __post_init__(self):
        lengths = {len(self.loss), len(self.comp_loss), len(self.bound), len(self.strong_ftrl_rhs)}
        if len(lengths) != 1:
            raise ValueError(f"per-round arrays must share a length, got {lengths}")
        self.cum_regret = np.cumsum(self.loss - self.comp_loss)

    def __len__(self):
        return len(self.loss)


@dataclass
class RunTrace:
    """The one record of a run, built by ``driver._play``: what the accounting reads.

    ``points`` is x_1..x_{T+1}; ``iterates`` (x_1..x_T, the points played)
    and ``next_iterates`` are views of it.  Likewise ``rates[t]`` is the
    cumulative inverse rate (1/eta_t per coordinate) deployed at step t for
    t = 0..T, row 0 the learner's before its first step; ``inv_rates``
    (t = 1..T) is a view of it.  ``loss_family``, ``loss_params`` and
    ``labels`` are ``streams.loss_column``'s inputs.  ``linearized`` is the
    learner's flag (mirror descent and its FTRL form): its penalty enters by
    the subgradients ``psi``, known only on an unconstrained ``feasible_set``.
    """

    grads: np.ndarray
    points: np.ndarray
    rates: np.ndarray
    reg_kind: str
    penalty_lam: float = 0.0
    linearized: bool = False
    feasible_set: FeasibleSet | None = None
    loss_family: str | None = None
    loss_params: np.ndarray | list | None = None
    labels: list | tuple = ()

    @property
    def iterates(self) -> np.ndarray:
        return self.points[:-1]

    @property
    def next_iterates(self) -> np.ndarray:
        return self.points[1:]

    @property
    def inv_rates(self) -> np.ndarray:
        return self.rates[1:]

    @cached_property
    def psi(self) -> np.ndarray | None:
        """g_psi_t, t = 1..T, derived on first read; None unless linearized and unconstrained.

        ``core._psi_subgradient`` reads them off x_t, x_{t+1}, g_t and the inverse
        rates, bit for bit what each step took, in blocks of about 32768 entries
        (one call on the whole (T, n) array is slower at large n).  The penalty's
        tangents lam ||x_{t+1}||_1 + g_psi_t.(x - x_{t+1}) reduce to g_psi_t.x:
        g_psi_t = lam sign(x_{t+1}) on the support and x_{t+1} = 0 off it.
        """
        if not self.linearized or self.feasible_set.kind != FeasibleSet.UNCONSTRAINED:
            return None
        X, Xn, G, W = self.iterates, self.next_iterates, self.grads, self.inv_rates
        psi, block = np.empty(G.shape), max(1, 32768 // G.shape[1])
        for s in (slice(a, a + block) for a in range(0, len(G), block)):
            psi[s] = _psi_subgradient(X[s], Xn[s], G[s], W[s], self.penalty_lam)
        return psi

    def sigmas(self) -> np.ndarray:
        """sigma_t = inv_t - inv_{t-1} for t = 1..T, the increments of ``rates``.

        InvariantViolation where an inverse rate falls (a negative increment).
        """
        out = np.diff(self.rates, axis=0)
        if (out < 0.0).any():
            t, i = np.argwhere(out < 0.0)[0]
            raise InvariantViolation(f"the inverse rate fell at round {t + 1}, coordinate {i}")
        return out


def best_comparator(g_history, feasible_set: FeasibleSet) -> np.ndarray:
    """Hindsight minimizer of the summed linear losses over the set.

    ``FeasibleSet.linear_minimizer`` rejects an unconstrained set (regret is unbounded there).
    """
    g_history = np.atleast_2d(np.asarray(g_history, dtype=float))
    total = g_history.sum(axis=0)
    return feasible_set.linear_minimizer(total)


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


def _penalty_curve(trace: RunTrace, x_star: np.ndarray) -> np.ndarray:
    """alpha_{1:t} lam ||x*||_1 = t lam ||x*||_1 for t = 1..T (alpha_t = 1)."""
    ts = np.arange(1, trace.inv_rates.shape[0] + 1, dtype=float)
    return ts * trace.penalty_lam * float(np.sum(np.abs(x_star)))


class _Family:
    """What the accounting reads of one regularizer family; this base is the ``none`` kind.

    ``reads_sigma``: it reads ``trace.sigmas()``; ``sup_dual``: its dual norm
    is the sup norm, at the first coordinate's rate.  The methods give
    r_{0:t}(x*) for t = 0..T, penalty excluded (``sigma`` is ``trace.sigmas()``
    or None), h_{0:t} at any points and r_t(x_t).  The
    ``none`` kind has no regularizer and an unknown objective: no h_{0:t}.
    """

    reads_sigma = False
    sup_dual = False

    def reg_rows(self, trace: RunTrace, x_star: np.ndarray, sigma) -> np.ndarray:
        return np.zeros(trace.rates.shape[0])

    def h_rows(self, trace: RunTrace, sigma, *points: np.ndarray) -> list | None:
        """(h_{0:t}(P[t-1]) for t = 1..T, row term of P) for each (T, n) point set P.

        h_{0:t} is the objective minimized after round t, less the constants it
        cannot know (true loss values).  The row term (or None) is what h_{0:t}
        weighs by a running weight per row; ``increment`` reads it at x_t.
        """
        return None

    def increment(self, trace: RunTrace, sigma, row_term) -> np.ndarray | float:
        """r_t(x_t) for t = 1..T, given ``h_rows``' row term at x_t."""
        return 0.0


def _half_weighted_sq(w: np.ndarray, P: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """sum_i w_i P_i^2 / 2 of every row, with ``buf`` (P's shape) as scratch."""
    return 0.5 * np.sum(np.multiply(w, np.square(P, out=buf), out=buf), axis=1)


class _Quadratic(_Family):
    """Diagonal quadratics inv_t.x^2/2, centered at the origin or (``proximal``) at the iterates."""

    reads_sigma = True

    def __init__(self, proximal: bool):
        self.proximal = proximal

    def reg_rows(self, trace, x_star, sigma):
        if not self.proximal:
            return 0.5 * _row_dots(trace.rates, x_star ** 2)
        if sigma is None:
            sigma = trace.sigmas()
        d = np.subtract(x_star, trace.iterates)
        reg = np.empty(trace.rates.shape[0])
        reg[0] = 0.5 * float(np.sum(trace.rates[0] * x_star ** 2))
        np.add(reg[0], np.cumsum(_half_weighted_sq(sigma, d, d)), out=reg[1:])
        return reg

    def h_rows(self, trace, sigma, *points):
        """h_{0:t} = ((g_{1:t}.x + inv_t.x^2/2 (- a_{1:t}.x, a_s = sigma_s x_s, when proximal))
        + t lam ||x||_1) + sum_s sigma_s ||x_s||^2/2, row term ||x||_1 (None if lam = 0).
        Given ``trace.psi`` the penalty enters by its tangents, with no row term:
        (g_{1:t}.x + g_psi_{1:t}.x) + (quadratic + recentering), summed in that order.
        One (T, n) buffer holds g_{1:t}, g_psi_{1:t}, each weighted square, a_{1:t} and |x|.
        """
        X, buf = trace.iterates, _running_sums(None, trace.grads)  # g_{1:t}
        lin = [_row_dots(buf, P) for P in points]
        if trace.psi is not None:
            _running_sums(None, trace.psi, out=buf)  # g_psi_{1:t}
            lin = [v + _row_dots(buf, P) for v, P in zip(lin, points)]
        quad = [_half_weighted_sq(trace.inv_rates, P, buf) for P in points]
        rec = 0.0
        if self.proximal:
            rec = np.cumsum(_half_weighted_sq(sigma, X, buf))
            adj = _running_sums(None, np.multiply(sigma, X, out=buf), out=buf)  # a_{1:t}
            quad = [q - _row_dots(adj, P) for q, P in zip(quad, points)]
        if trace.psi is not None:
            return [(v + (q + rec), None) for v, q in zip(lin, quad)]
        if not trace.penalty_lam:
            return [(v + q + rec, None) for v, q in zip(lin, quad)]
        t_lam = np.arange(1, X.shape[0] + 1, dtype=float) * trace.penalty_lam
        l1 = [np.sum(np.abs(P, out=buf), axis=1) for P in points]
        return [(v + q + t_lam * a + rec, a) for v, q, a in zip(lin, quad, l1)]

    def increment(self, trace, sigma, l1):
        """sigma_t ||x_t||^2/2 (0 if proximal) + lam ||x_t||_1; g_psi_t.x_t given ``trace.psi``."""
        if trace.psi is not None:
            return _row_dots(trace.psi, trace.iterates)
        r_t = 0.0 if self.proximal else _half_weighted_sq(sigma, trace.iterates, np.empty_like(sigma))
        return r_t + trace.penalty_lam * l1 if trace.penalty_lam else r_t

    def divergence(self, w, u, v) -> float:
        """The Bregman divergence of sum_i w_i x_i^2 / 2: sum_i w_i (u_i - v_i)^2 / 2."""
        u = as_point(u)
        v = as_point(v, dim=u.size)
        return float(0.5 * np.sum(np.broadcast_to(w, u.shape) * (u - v) ** 2))


class _Entropic(_Family):
    """inv_t (negative entropy of x), inv_t the first coordinate's inverse rate; sup-norm duals."""

    reads_sigma = True
    sup_dual = True

    @staticmethod
    def _at(x_star):  # +inf where a coordinate is negative, off the entropy's domain
        return negative_entropy(x_star) if np.all(x_star >= 0) else math.inf

    def reg_rows(self, trace, x_star, sigma):
        return trace.rates[:, 0] * self._at(x_star)

    def h_rows(self, trace, sigma, *points):
        """h_{0:t} = g_{1:t}.x + inv_t (negative entropy of x); the row term is the entropy."""
        g_sum, w = _running_sums(None, trace.grads), trace.inv_rates[:, 0]
        ents = [_negative_entropy_rows(P) for P in points]
        return [(_row_dots(g_sum, P) + w * ent, ent) for P, ent in zip(points, ents)]

    def increment(self, trace, sigma, ent):
        """sigma_t (negative entropy of x_t)."""
        return sigma[:, 0] * ent

    def divergence(self, w: float, u, v) -> float:
        """w sum_i [u_i log(u_i/v_i) - u_i + v_i], w KL(u || v) when both sum to one; v > 0."""
        u = as_point(u)
        v = as_point(v, dim=u.size)
        if np.any(v <= 0) or np.any(u < 0):
            raise ValueError("entropic divergence requires u >= 0 and v > 0")
        terms = np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0) / v), 0.0)
        return float(w * (np.sum(terms) - u.sum() + v.sum()))


class _LowerBounds(_Family):
    """Follow the leader on the strongly convex losses' quadratic lower bounds; no regularizer."""

    def h_rows(self, trace, sigma, *points):
        """h_{0:t} is the summed lower bounds g_s.(x - x_s) + ||x - x_s||^2/2; r_t = 0."""
        X, buf = trace.iterates, _running_sums(None, trace.grads)  # g_{1:t}
        lin = [_row_dots(buf, P) for P in points]
        ts = np.arange(1, X.shape[0] + 1, dtype=float)
        gx = np.cumsum(_row_dots(trace.grads, X))
        sq = np.cumsum(_row_dots(X, X))
        centers = _running_sums(None, X, out=buf)
        return [(v - gx + 0.5 * (ts * _row_dots(P, P) - 2.0 * _row_dots(P, centers) + sq), None)
                for v, P in zip(lin, points)]


# The one place a ``reg_kind`` name meets its accounting.
_FAMILIES = {NONE: _Family(), CENTERED: _Quadratic(proximal=False),
             PROXIMAL: _Quadratic(proximal=True), ENTROPIC: _Entropic(),
             STRONGLY_CONVEX: _LowerBounds()}


def _family(kind: str) -> _Family:
    """The family object of a ``reg_kind`` name; ValueError for an unknown name."""
    family = _FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown regularizer kind {kind!r} (known: {', '.join(_FAMILIES)})")
    return family


def _stability_terms(trace: RunTrace, sigma: np.ndarray | None) -> np.ndarray:
    """The Strong FTRL Lemma's h_{0:t}(x_t) - h_{0:t}(x_{t+1}) - r_t(x_t) for t = 1..T.

    h_{0:t} and r_t are the family's ``h_rows`` and ``increment``; ``sigma`` is
    ``trace.sigmas()`` or None.  +inf where h_{0:t} is unknown: the ``none``
    kind and a linearized trace without ``psi``.  Each sum is taken in the order
    a round-by-round evaluation of h_{0:t} takes it, so that the terms equal it
    bit for bit (tests/test_decomposition_rhs.py keeps one as the oracle).
    """
    family = _family(trace.reg_kind)
    rows = None if trace.linearized and trace.psi is None else \
        family.h_rows(trace, sigma, trace.iterates, trace.next_iterates)
    if rows is None:
        return np.full(trace.iterates.shape[0], np.inf)
    (h_now, row_term), (h_next, _) = rows
    return h_now - h_next - family.increment(trace, sigma, row_term)


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
        _running_sums(None, cum_sq, out=cum_sq)
        return 2.0 * math.sqrt(2.0) * cfg.R_inf * np.sum(np.sqrt(cum_sq, out=cum_sq), axis=1)
    if rule is BoundRule.ENTROPIC:
        cfg.require("G_inf")
        log_n = math.log(grads.shape[1])
        sup_sq = np.max(np.abs(grads), axis=1) ** 2
        prior = np.concatenate([[0.0], np.cumsum(sup_sq)])[:T]
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
    return _trace_bound(rule, grads, trace, x_star,
                        _family(trace.reg_kind).reg_rows(trace, x_star, None))


def _trace_bound(rule: BoundRule, grads: np.ndarray, trace: RunTrace, x_star: np.ndarray,
                 reg: np.ndarray) -> np.ndarray:
    """A trace-based rule's curve, given ``reg`` = r_{0:t}(x*), t = 0..T, from the family.

    The general FTRL bound reads round t - 1 (r_{0:t-1}(x*) and the dual norms at
    the rates of the round before), every other rule round t.  ``_bound_and_rhs``
    shares ``reg`` with the decomposition RHS, so that a run builds it once.
    """
    sup = _family(trace.reg_kind).sup_dual
    if rule is BoundRule.GENERAL_FTRL:
        return reg[:-1] + 0.5 * np.cumsum(_dual_sq_rows(grads, trace.rates[:-1], sup))
    duals = _dual_sq_rows(grads, trace.inv_rates, sup)
    factor = 1.0 if rule is BoundRule.WEAK_PROXIMAL else 0.5
    curve = reg[1:] + factor * np.cumsum(duals)
    if rule in (BoundRule.COMPOSITE, BoundRule.MIRROR_DESCENT) and trace.penalty_lam > 0:
        curve = curve + _penalty_curve(trace, x_star)
    return curve


def _bound_and_rhs(trace: RunTrace, x_star: np.ndarray, rule: BoundRule | None,
                   cfg: BoundConfig | None):
    """One run's bound curve (+inf with no rule or rounds) and Strong FTRL decomposition.

    The decomposition is r_{0:t}(x*) + penalty + sum_{s<=t} stability_s, the
    penalty alpha_{1:t} lam ||x*||_1 or, given ``trace.psi``, its tangents at
    x*; it is +inf if any stability term is.
    """
    T = trace.grads.shape[0]
    family = _family(trace.reg_kind)
    sigma = trace.sigmas() if family.reads_sigma else None
    reg = family.reg_rows(trace, x_star, sigma)
    if rule is None or T == 0:
        bound = np.full(T, np.inf)
    elif rule in _GENERIC_RULES:
        bound = _trace_bound(rule, trace.grads, trace, x_star, reg)
    else:
        bound = bound_curve(rule, cfg or BoundConfig(), trace.grads, x_star=x_star, trace=trace)
    stability = _stability_terms(trace, sigma)
    if not np.all(np.isfinite(stability)):
        return bound, np.full(T, np.inf)
    penalty = np.cumsum(_row_dots(trace.psi, x_star)) if trace.psi is not None \
        else _penalty_curve(trace, x_star)
    return bound, reg[1:] + penalty + np.cumsum(stability)
