"""The linear-time decomposition RHS of ``run_rounds`` against the O(T^2) form.

The oracle replays a run with fresh learner and stream instances and, at
every prefix t, rebuilds r_{0:t}(x*) from scratch and adds the prefix sum
of the stability terms.  Mirror descent keeps its full tangent history
(lam_t, g_psi, x_{t+1}) and sums the tangents at x* one by one.  None of
this shares code with the driver's vectorized curve.
"""

import math

import numpy as np
import pytest

from ocokit import suites
from ocokit.bounds import BoundRule
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    negative_entropy,
)
from ocokit.driver import run_rounds
from ocokit.learners import BoundConfig, EntropicFtrl, FtrlCompositeL1, FtrlProximal
from ocokit.mirror import MirrorDescent, extract_psi_subgradient
from ocokit.streams import RandomLinearStream


class _TangentHistory:
    """Mirror-descent stability hooks that keep every penalty tangent."""

    def __init__(self, learner):
        dim = learner.dim
        self.learner = learner
        self.g_sum = np.zeros(dim)
        self.g_psi_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.recentering = 0.0
        self.psi_const = 0.0
        self.prev_weights = learner.cum_weights.copy()
        self.last = None
        self.tangents = []  # (lam_t, g_psi, x_next) per round

    def after_step(self, x_prev, g, x_next):
        lam_t = self.learner.lam  # alpha_t = 1
        g_psi = extract_psi_subgradient(x_prev, x_next, g, self.learner.cum_weights, lam_t)
        sigma = np.maximum(self.learner.cum_weights - self.prev_weights, 0.0)
        self.g_sum = self.g_sum + g
        self.adj_sum = self.adj_sum + sigma * x_prev
        self.recentering += 0.5 * float(np.sum(sigma * x_prev ** 2))
        self.last = (x_prev, sigma, lam_t, g_psi, x_next)
        self.tangents.append((lam_t, g_psi, x_next))
        self.prev_weights = self.learner.cum_weights.copy()
        self.g_psi_sum = self.g_psi_sum + g_psi
        self.psi_const += lam_t * float(np.sum(np.abs(x_next))) - float(g_psi @ x_next)

    def objective(self, x):
        w = self.learner.cum_weights
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


def quadratic_rhs(learner, stream, T, x_star):
    """r_{0:t}(x*) + penalty + sum(stability[:t]), each prefix built from scratch."""
    dim = learner.dim
    inv0 = np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (dim,)).copy()
    history = _TangentHistory(learner) if isinstance(learner, MirrorDescent) else None
    hooks = history or learner
    iterates, inv_rates, penalty_cum, stability = [], [], [], []
    for t in range(1, T + 1):
        x_t = learner.x.copy()
        event = stream.event(t, x_t)
        x_next = learner.step(event.g)
        iterates.append(x_t)
        inv_rates.append(np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float), (dim,)))
        penalty_cum.append(t * learner.lam)  # alpha_{1:t} = t
        if history is not None:
            history.after_step(x_t, event.g, x_next)
        stability.append(hooks.objective(x_t) - hooks.objective(x_next)
                         - hooks.reg_increment(x_t))

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
        if history is not None:
            return base + history.psi_at(x_star, prefix)
        return base + penalty_cum[prefix - 1] * float(np.sum(np.abs(x_star)))

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


def _md_l1(seed, schedule=ConstantRate(0.3)):
    return (MirrorDescent(4, schedule, lam=0.1), RandomLinearStream(seed, 4, 1.0),
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

