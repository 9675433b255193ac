"""The linear-time decomposition RHS of ``run_rounds`` against per-round oracles.

The oracle replays a run with fresh learner and stream instances.  Beside
each learner family it keeps its own copy of the accumulated objective
h_{0:t} and the increment r_t, updated round by round (the reference form
of ``bounds._stability_terms``), and takes the stability term of every
round from them.  At every prefix t it then rebuilds r_{0:t}(x*) from
scratch and adds the prefix sum of the stability terms.  Mirror descent
keeps its full tangent history (lam_t, g_psi, x_{t+1}) and sums the
tangents at x* one by one.  None of this shares code with the driver's
vectorized curve.
"""

import math

import numpy as np
import pytest

from ocokit import suites
from ocokit.bounds import BoundRule, _family, _penalty_curve
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    _psi_subgradient,
    negative_entropy,
)
from ocokit.driver import run_rounds
from ocokit.learners import BoundConfig, EntropicFtrl, FtrlCompositeL1, FtrlProximal
from ocokit.mirror import MdAsFtrl, MirrorDescent
from ocokit.streams import RandomLinearStream


def _inv(learner):
    return np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (learner.dim,)).copy()


class _QuadraticForm:
    """Quadratic FTRL: g_{1:t}.x + inv_t.x^2/2 (- a_{1:t}.x) + t lam ||x||_1 + const."""

    def __init__(self, learner):
        dim = learner.dim
        self.learner = learner
        self.proximal = learner.reg_kind == "proximal"
        self.g_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.recentering = 0.0  # sum_s sigma_s ||x_s||^2 / 2
        self.inv = _inv(learner)
        self.sigma = np.zeros(dim)
        self.center = None

    def after_step(self, x_prev, g, x_next):
        inv = _inv(self.learner)
        self.sigma = np.maximum(inv - self.inv, 0.0)
        self.inv = inv
        self.g_sum = self.g_sum + g
        if self.proximal:
            self.adj_sum = self.adj_sum + self.sigma * x_prev
            self.recentering += 0.5 * float(np.sum(self.sigma * x_prev ** 2))
        self.center = x_prev

    def objective(self, x):
        quad = 0.5 * np.sum(self.inv * x ** 2)
        if self.proximal:
            quad = quad - self.adj_sum @ x
        value = self.g_sum @ x + quad
        if self.learner.lam:
            value = value + self.learner.t * self.learner.lam * np.sum(np.abs(x))
        return float(value + self.recentering)

    def reg_increment(self, x):
        d = x - self.center if self.proximal else x
        value = 0.5 * np.sum(self.sigma * d ** 2)
        if self.learner.lam:
            value = value + self.learner.lam * np.sum(np.abs(x))
        return float(value)


class _EntropicForm:
    """Entropic FTRL: g_{1:t}.x + inv_t (negative entropy of x)."""

    def __init__(self, learner):
        self.learner = learner
        self.g_sum = np.zeros(learner.dim)
        self.inv = float(learner.last_inv_rate[0])
        self.sigma = 0.0

    def after_step(self, x_prev, g, x_next):
        inv = float(self.learner.last_inv_rate[0])
        self.sigma = max(inv - self.inv, 0.0)
        self.inv = inv
        self.g_sum = self.g_sum + g

    def objective(self, x):
        return float(self.g_sum @ x + self.inv * negative_entropy(x))

    def reg_increment(self, x):
        return self.sigma * negative_entropy(x)


class _LowerBoundForm:
    """Strongly convex OGD: the summed lower bounds g_s.(x - x_s) + ||x - x_s||^2 / 2."""

    def __init__(self, learner):
        dim = learner.dim
        self.t = 0
        self.g_sum = np.zeros(dim)
        self.gx_sum = 0.0
        self.center_sum = np.zeros(dim)
        self.center_sq_sum = 0.0

    def after_step(self, x_prev, g, x_next):
        self.t += 1
        self.g_sum = self.g_sum + g
        self.gx_sum += float(g @ x_prev)
        self.center_sum = self.center_sum + x_prev
        self.center_sq_sum += float(x_prev @ x_prev)

    def objective(self, x):
        quad = 0.5 * (self.t * float(x @ x) - 2.0 * float(x @ self.center_sum)
                      + self.center_sq_sum)
        return float(self.g_sum @ x) - self.gx_sum + quad

    def reg_increment(self, x):
        return 0.0


_FORMS = {"centered": _QuadraticForm, "proximal": _QuadraticForm,
          "entropic": _EntropicForm, "strongly-convex": _LowerBoundForm}


class _TangentHistory:
    """Mirror descent's h_{0:t} and r_t, keeping every penalty tangent; also its FTRL form's."""

    def __init__(self, learner):
        dim = learner.dim
        self.learner = learner
        self.g_sum = np.zeros(dim)
        self.g_psi_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.recentering = 0.0
        self.psi_const = 0.0
        self.prev_weights = learner.last_inv_rate.copy()
        self.last = None
        self.tangents = []  # (lam_t, g_psi, x_next) per round

    def after_step(self, x_prev, g, x_next):
        lam_t = self.learner.lam  # alpha_t = 1
        g_psi = _psi_subgradient(x_prev, x_next, g, self.learner.last_inv_rate, lam_t)
        sigma = np.maximum(self.learner.last_inv_rate - self.prev_weights, 0.0)
        self.g_sum = self.g_sum + g
        self.adj_sum = self.adj_sum + sigma * x_prev
        self.recentering += 0.5 * float(np.sum(sigma * x_prev ** 2))
        self.last = (x_prev, sigma, lam_t, g_psi, x_next)
        self.tangents.append((lam_t, g_psi, x_next))
        self.prev_weights = self.learner.last_inv_rate.copy()
        self.g_psi_sum = self.g_psi_sum + g_psi
        self.psi_const += lam_t * float(np.sum(np.abs(x_next))) - float(g_psi @ x_next)

    def objective(self, x):
        w = self.learner.last_inv_rate
        quad = 0.5 * float(np.sum(w * x ** 2)) - float(self.adj_sum @ x) + self.recentering
        return float(self.g_sum @ x) + float(self.g_psi_sum @ x) + self.psi_const + quad

    def reg_increment(self, x):
        x_prev, sigma, lam_t, g_psi, x_next = self.last
        quad = 0.5 * float(np.sum(sigma * (x - x_prev) ** 2))
        return quad + lam_t * float(np.sum(np.abs(x_next))) + float(g_psi @ (x - x_next))

    def psi_at(self, x_star, prefix):
        total = 0.0
        for lam_t, g_psi, x_next in self.tangents[:prefix]:
            total += lam_t * float(np.sum(np.abs(x_next))) + float(g_psi @ (x_star - x_next))
        return total


def replay(learner, stream, T):
    """Step fresh instances T rounds; the per-round stability terms and what r_{0:t} needs."""
    inv0 = _inv(learner)
    form = (_TangentHistory if isinstance(learner, (MirrorDescent, MdAsFtrl))
            else _FORMS[learner.reg_kind])(learner)
    iterates, inv_rates, stability = [], [], []
    for t in range(1, T + 1):
        x_t = learner.x.copy()
        event = stream.event(t, x_t)
        x_next = learner.step(event.g)
        iterates.append(x_t)
        inv_rates.append(_inv(learner))
        form.after_step(x_t, event.g, x_next)
        stability.append(form.objective(x_t) - form.objective(x_next)
                         - form.reg_increment(x_t))
    return form, inv0, iterates, inv_rates, np.array(stability)


def quadratic_rhs(learner, stream, T, x_star):
    """r_{0:t}(x*) + penalty + sum(stability[:t]), each prefix built from scratch."""
    form, inv0, iterates, inv_rates, stability = replay(learner, stream, T)

    def reg_total(prefix):
        kind = learner.reg_kind
        inv = inv_rates[prefix - 1]
        if kind == "centered":
            base = 0.5 * float(np.sum(inv * x_star ** 2))
        elif kind == "entropic":
            base = float(inv[0]) * negative_entropy(x_star)
        elif kind == "proximal":
            base = 0.5 * float(np.sum(inv0 * x_star ** 2))
            prev = inv0
            for s in range(prefix):
                sigma = np.maximum(inv_rates[s] - prev, 0.0)
                base += 0.5 * float(np.sum(sigma * (x_star - iterates[s]) ** 2))
                prev = inv_rates[s]
        else:
            base = 0.0
        if isinstance(form, _TangentHistory):
            return base + form.psi_at(x_star, prefix)
        return base + prefix * learner.lam * float(np.sum(np.abs(x_star)))  # alpha_{1:t} = t

    return np.array([reg_total(t) + float(np.sum(stability[:t])) for t in range(1, T + 1)])


def assert_rhs_matches_oracle(make, T):
    """``make()`` returns fresh (learner, stream, rule, cfg, comparator set)."""
    learner, stream, rule, cfg, comp_set = make()
    result = run_rounds(learner, stream, T, rule, cfg, comp_set)
    learner, stream, *_ = make()
    expected = quadratic_rhs(learner, stream, T, result.x_star)
    rhs = result.record.strong_ftrl_rhs
    assert rhs.shape == (T,)
    assert np.all(np.isfinite(rhs))
    np.testing.assert_allclose(rhs, expected, rtol=1e-9, atol=1e-12)
    assert result.decomposition_ok


@pytest.mark.parametrize("pair_name", list(suites._bound_pairings(64)))
@pytest.mark.parametrize("k", range(3))
def test_every_bound_pairing_matches_the_quadratic_form(pair_name, k):
    T = 64
    make = suites._bound_pairings(T)[pair_name]
    seed = 1000 + 17 * k
    assert_rhs_matches_oracle(lambda: make(seed, np.random.default_rng(seed)), T)


def assert_stability_matches_oracle(make, T):
    """The RHS with only the stability terms swapped for the oracle's, to 1e-13."""
    learner, stream, rule, cfg, comp_set = make()
    result = run_rounds(learner, stream, T, rule, cfg, comp_set)
    learner, stream, *_ = make()
    stability = replay(learner, stream, T)[-1]
    trace, x_star = result.trace, result.x_star
    penalty = np.cumsum(trace.psi @ x_star) if trace.psi is not None \
        else _penalty_curve(trace, x_star)
    reg = _family(trace.reg_kind).reg_rows(trace, x_star, None)[1:]
    expected = reg + penalty + np.cumsum(stability)
    np.testing.assert_allclose(result.record.strong_ftrl_rhs, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("pair_name", list(suites._bound_pairings(64)))
def test_every_bound_pairing_has_the_oracle_stability_terms(pair_name):
    make = suites._bound_pairings(64)[pair_name]
    for seed in (1000, 1017, 1034):
        assert_stability_matches_oracle(lambda: make(seed, np.random.default_rng(seed)), 64)


def _md_l1(seed, schedule=ConstantRate(0.3)):
    return (MirrorDescent(4, schedule, lam=0.1), RandomLinearStream(seed, 4, 1.0),
            BoundRule.MIRROR_DESCENT, BoundConfig(), FeasibleSet.l2_ball(1.0))


def _md_as_ftrl(seed, schedule=ConstantRate(0.3)):
    return (MdAsFtrl(4, schedule, lam=0.1), RandomLinearStream(seed, 4, 1.0),
            BoundRule.MIRROR_DESCENT, BoundConfig(), FeasibleSet.l2_ball(1.0))


def _ftrl_l1(seed):
    return (FtrlCompositeL1(4, ConstantRate(0.2), 0.1), RandomLinearStream(seed, 4, 1.0),
            BoundRule.COMPOSITE, BoundConfig(), FeasibleSet.l2_ball(1.0))


def _ftrl_l1_adagrad_box(seed):
    learner = FtrlCompositeL1(3, AdaGradRate(math.sqrt(2.0)), 0.05, centering="proximal",
                              feasible_set=FeasibleSet.box(1.0))
    return (learner, RandomLinearStream(seed, 3, 1.0, "sup"), BoundRule.COMPOSITE,
            BoundConfig(), FeasibleSet.box(1.0))


def _entropic(seed):
    return (EntropicFtrl(4, 1.0), RandomLinearStream(seed, 4, 1.0, "sup"),
            BoundRule.GENERAL_FTRL, BoundConfig(), FeasibleSet.simplex())


def _proximal_box(seed):
    return (FtrlProximal(3, ConstantRate(0.4), FeasibleSet.box(0.5)),
            RandomLinearStream(seed, 3, 1.0, "sup"), BoundRule.FTRL_PROXIMAL, BoundConfig(),
            FeasibleSet.box(0.5))


CASES = {
    "md-l1": _md_l1,
    "md-l1-sqrt-decay": lambda seed: _md_l1(seed, InverseSqrtRate(0.5, shift=1)),
    "md-as-ftrl": _md_as_ftrl,
    "md-as-ftrl-adagrad": lambda seed: _md_as_ftrl(seed, AdaGradRate(1.0, offset=0.5)),
    "ftrl-l1": _ftrl_l1,
    "ftrl-l1-adagrad-box": _ftrl_l1_adagrad_box,
    "entropic": _entropic,
    "ftrl-proximal-box": _proximal_box,
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("T", [0, 1, 2, 50])
def test_penalty_tangent_and_regularizer_paths_match_the_quadratic_form(case, T):
    for seed in range(3):
        assert_rhs_matches_oracle(lambda: CASES[case](seed), T)


@pytest.mark.parametrize("case", list(CASES))
def test_every_case_has_the_oracle_stability_terms(case):
    for seed in range(3):
        assert_stability_matches_oracle(lambda: CASES[case](seed), 50)


def test_constrained_mirror_descent_records_no_tangents_and_no_decomposition():
    learner = MirrorDescent(3, ConstantRate(0.3), feasible_set=FeasibleSet.box(1.0))
    result = run_rounds(learner, RandomLinearStream(0, 3, 1.0), 20, BoundRule.MIRROR_DESCENT,
                        BoundConfig(), FeasibleSet.box(1.0))
    assert result.trace.psi is None
    assert np.all(np.isinf(result.record.strong_ftrl_rhs))
