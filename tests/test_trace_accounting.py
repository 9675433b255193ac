"""The post-loop trace accounting of ``bounds`` against a bitwise reference.

The reference functions below keep the plain form of that accounting:
sigma and the shifted inverse rates built with ``np.vstack``, the dual norms
with nested ``np.where``, column prefix sums with ``np.cumsum(axis=0)``, and
r_{0:t}(x*) rebuilt by every caller.  The fast path computes sigma and
r_{0:t}(x*) once per run, shares them, sums wide columns row by row and
divides the dual norms in one masked buffer.  Every output must equal the
reference bit for bit: the bound, the decomposition RHS and the stability
terms of ``run_rounds``, and ``bound_curve`` under every trace-based rule.

The file also checks that every such run re-accounts from its trace alone
(a fresh ``RunTrace`` of the same fields and x* give the same record), that
the shared buffers never write into the returned trace, and that
``bound_curve`` called twice on one trace matches two fresh evaluations.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from ocokit import suites
from ocokit.bounds import (
    _GENERIC_RULES,
    BoundRule,
    RunTrace,
    _bound_and_rhs,
    _dual_sq_rows,
    _prefix_sums,
    _stability_terms,
    bound_curve,
)
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    LearningRateSchedule,
    negative_entropy,
)
from ocokit.driver import run_rounds
from ocokit.learners import (
    PROXIMAL,
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent
from ocokit.streams import LINEAR, LogisticStream, RandomLinearStream, StreamEvent


def same_bits(a, b):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    b = np.ascontiguousarray(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# The reference accounting
# ---------------------------------------------------------------------------

def ref_sigmas(trace):
    prev = np.vstack([trace.inv0[None, :], trace.inv_rates])[:-1]
    return np.maximum(np.subtract(trace.inv_rates, prev, out=prev), 0.0, out=prev)


def ref_dual_sq_rows(grads, inv_rows, sup):
    if sup:
        gmax = np.max(np.abs(grads), axis=1)
        w = inv_rows[:, 0]
        return np.where(gmax == 0.0, 0.0,
                        np.where(w > 0.0, gmax ** 2 / np.where(w > 0, w, 1.0), np.inf))
    num = grads ** 2
    per = np.where(num == 0.0, 0.0,
                   np.where(inv_rows > 0.0, num / np.where(inv_rows > 0, inv_rows, 1.0), np.inf))
    return per.sum(axis=1)


def ref_reg_curve(trace, x_star, shifted):
    T = trace.inv_rates.shape[0]
    rows = np.vstack([trace.inv0[None, :], trace.inv_rates[:-1]]) if shifted \
        else trace.inv_rates
    if trace.reg_kind == "centered":
        return 0.5 * rows @ (x_star ** 2)
    if trace.reg_kind == "entropic":
        return rows[:, 0] * negative_entropy(x_star)
    if trace.reg_kind == "proximal":
        contrib = 0.5 * np.sum(ref_sigmas(trace) * (x_star[None, :] - trace.iterates) ** 2,
                               axis=1)
        base = 0.5 * float(np.sum(trace.inv0 * x_star ** 2))
        curve = base + np.cumsum(contrib)
        if shifted:
            curve = np.concatenate([[base], curve[:-1]]) if T else curve
        return curve
    return np.zeros(T)


def ref_penalty_curve(trace, x_star):
    ts = np.arange(1, trace.inv_rates.shape[0] + 1, dtype=float)
    return ts * trace.penalty_lam * float(np.sum(np.abs(x_star)))


def _rows(a, b):
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _entropy_rows(X):
    return np.array([negative_entropy(x) for x in X])


def ref_stability_terms(trace, next_iterates):
    X, Xn = trace.iterates, next_iterates
    T = X.shape[0]
    kind = trace.reg_kind
    if kind not in ("centered", "proximal", "entropic", "strongly-convex"):
        return np.full(T, np.inf)
    buf = np.cumsum(trace.grads, axis=0)
    now, nxt = _rows(buf, X), _rows(buf, Xn)
    if kind == "entropic":
        ent, ent_next = _entropy_rows(X), _entropy_rows(Xn)
        w = trace.inv_rates[:, 0]
        return (now + w * ent) - (nxt + w * ent_next) - ref_sigmas(trace)[:, 0] * ent
    if kind == "strongly-convex":
        ts = np.arange(1, T + 1, dtype=float)
        gx = np.cumsum(_rows(trace.grads, X))
        sq = np.cumsum(_rows(X, X))
        centers = np.cumsum(X, axis=0)

        def h(P, lin):
            return lin - gx + 0.5 * (ts * _rows(P, P) - 2.0 * _rows(P, centers) + sq)

        return h(X, now) - h(Xn, nxt)
    if trace.psi is not None:
        buf = np.cumsum(trace.psi, axis=0)
        now, nxt = now + _rows(buf, X), nxt + _rows(buf, Xn)

    def half_weighted_sq(w, P):
        return 0.5 * np.sum(w * P ** 2, axis=1)

    inv = trace.inv_rates
    quad_now, quad_next = half_weighted_sq(inv, X), half_weighted_sq(inv, Xn)
    sigma = ref_sigmas(trace)
    inc = half_weighted_sq(sigma, X)
    rec = 0.0
    if kind == "proximal":
        adj = np.cumsum(sigma * X, axis=0)
        quad_now, quad_next = quad_now - _rows(adj, X), quad_next - _rows(adj, Xn)
        rec = np.cumsum(inc)
    if trace.psi is not None:
        return (now + (quad_now + rec)) - (nxt + (quad_next + rec)) - _rows(trace.psi, X)
    h_now, h_next = now + quad_now, nxt + quad_next
    r_t = inc if kind == "centered" else 0.0
    lam = trace.penalty_lam
    if lam:
        l1_now = np.sum(np.abs(X), axis=1)
        l1_next = np.sum(np.abs(Xn), axis=1)
        ts = np.arange(1, T + 1, dtype=float)
        h_now, h_next = h_now + ts * lam * l1_now, h_next + ts * lam * l1_next
        r_t = r_t + lam * l1_now
    return (h_now + rec) - (h_next + rec) - r_t


def ref_trace_bound(rule, grads, trace, x_star):
    T = grads.shape[0]
    sup = trace.reg_kind == "entropic"
    if rule is BoundRule.GENERAL_FTRL:
        inv_prev = np.vstack([trace.inv0[None, :], trace.inv_rates[:-1]]) if T \
            else trace.inv_rates
        duals = ref_dual_sq_rows(grads, inv_prev, sup)
        return ref_reg_curve(trace, x_star, shifted=True) + 0.5 * np.cumsum(duals)
    duals = ref_dual_sq_rows(grads, trace.inv_rates, sup)
    factor = 1.0 if rule is BoundRule.WEAK_PROXIMAL else 0.5
    curve = ref_reg_curve(trace, x_star, shifted=False) + factor * np.cumsum(duals)
    if rule in (BoundRule.COMPOSITE, BoundRule.MIRROR_DESCENT) and trace.penalty_lam > 0:
        curve = curve + ref_penalty_curve(trace, x_star)
    return curve


def ref_bound(rule, cfg, trace, x_star):
    if rule in _GENERIC_RULES:
        return ref_trace_bound(rule, trace.grads, trace, x_star)
    if rule is BoundRule.ADAGRAD_PER_COORD:
        cum_sq = np.cumsum(trace.grads ** 2, axis=0)
        return 2.0 * math.sqrt(2.0) * cfg.R_inf * np.sum(np.sqrt(cum_sq), axis=1)
    return bound_curve(rule, cfg, trace.grads, x_star=x_star, trace=trace)


def ref_rhs(trace, x_star, next_iterates, no_objective):
    T = trace.iterates.shape[0]
    stability = np.full(T, np.inf) if no_objective else ref_stability_terms(trace, next_iterates)
    if not np.all(np.isfinite(stability)):
        return np.full(T, np.inf)
    penalty = np.cumsum(trace.psi @ x_star) if trace.psi is not None \
        else ref_penalty_curve(trace, x_star)
    return ref_reg_curve(trace, x_star, shifted=False) + penalty + np.cumsum(stability)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class _GivenGradients:
    """A linear stream that plays the rows of a fixed array."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.dim = self.rows.shape[1]

    def event(self, t, x_t):
        g = self.rows[t - 1].copy()
        return StreamEvent(t, g, LINEAR, g)


class _FirstCoordinateFree(LearningRateSchedule):
    """AdaGrad with offset 1, except inverse rate 0 (an infinite rate) on coordinate 0."""

    def inverse_rate(self, t, sq_sum=0.0):
        inv = np.sqrt(1.0 + np.asarray(sq_sum, dtype=float))
        inv[0] = 0.0
        return inv


BOX = FeasibleSet.box(1.0)
BALL = FeasibleSet.l2_ball(1.0)
SIMPLEX = FeasibleSet.simplex()
ZERO_GRADS = {
    "T0": np.zeros((0, 3)),
    "T1-zero": np.zeros((1, 3)),
    "T2-zero-then-one": [[0.0, 0.0, 0.0], [0.0, -0.5, 0.0]],
    "T2-one-then-zero": [[0.0, 0.5, -0.0], [0.0, 0.0, 0.0]],
    "T6-sparse": [[0.0, 0.3, 0.0], [0.0, 0.0, 0.0], [-0.2, 0.0, 0.0],
                  [0.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.4, 0.0, 0.0]],
}
ZERO_GRAD_LEARNERS = {
    "adagrad-proximal-box": lambda: (FtrlProximal(3, AdaGradRate(1.0), BOX),
                                     BoundRule.FTRL_PROXIMAL, BOX),
    "composite-proximal-box": lambda: (FtrlCompositeL1(3, AdaGradRate(1.0), 0.05,
                                                       centering="proximal", feasible_set=BOX),
                                       BoundRule.COMPOSITE, BOX),
    "dual-averaging": lambda: (DualAveraging(3, InverseSqrtRate(0.7, shift=1), BALL),
                               BoundRule.GENERAL_FTRL, BALL),
    "mirror-descent-l1": lambda: (MirrorDescent(3, AdaGradRate(1.0), lam=0.05),
                                  BoundRule.MIRROR_DESCENT, BOX),
    "mirror-descent-box": lambda: (MirrorDescent(3, ConstantRate(0.3), feasible_set=BOX),
                                   BoundRule.MIRROR_DESCENT, BOX),
    "entropic": lambda: (EntropicFtrl(3, 1.0), BoundRule.GENERAL_FTRL, SIMPLEX),
}

HIGH_N, HIGH_T = 10_000, 48


def _high_dim_pairs():
    scale = math.sqrt(2.0)
    return {
        "ftrl-composite-l1/composite": lambda: (
            FtrlCompositeL1(HIGH_N, AdaGradRate(scale), 0.01, centering="proximal",
                            feasible_set=BOX), BoundRule.COMPOSITE, BOX),
        "mirror-descent-l1/mirror-descent": lambda: (
            MirrorDescent(HIGH_N, ConstantRate(0.1), lam=0.01), BoundRule.MIRROR_DESCENT, BALL),
        "ftrl-proximal/ftrl-proximal": lambda: (
            FtrlProximal(HIGH_N, AdaGradRate(scale), BALL), BoundRule.FTRL_PROXIMAL, BALL),
    }


def _next_iterates(result):
    return np.vstack([result.trace.iterates[1:], result.x_final[None, :]])


def assert_reaccounts_from_its_trace(result, rule, cfg):
    """The record is a function of the trace's fields and x* alone: a fresh RunTrace built
    from them, with psi derived again, gives the same bound and decomposition bit for bit."""
    trace = result.trace
    fresh = RunTrace(**{f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)})
    assert "psi" not in vars(fresh)
    bound, rhs = _bound_and_rhs(fresh, result.x_star, rule, cfg)
    assert same_bits(bound, result.record.bound)
    assert same_bits(rhs, result.record.strong_ftrl_rhs)


def assert_run_matches_reference(learner, stream, T, rule, cfg, comp_set):
    no_objective = isinstance(learner, MirrorDescent) and \
        learner.feasible_set.kind != FeasibleSet.UNCONSTRAINED
    result = run_rounds(learner, stream, T, rule, cfg, comp_set)
    trace, x_star, rec = result.trace, result.x_star, result.record
    next_iterates = _next_iterates(result)
    assert same_bits(trace.sigmas(), ref_sigmas(trace))
    assert same_bits(rec.strong_ftrl_rhs, ref_rhs(trace, x_star, next_iterates, no_objective))
    if T:
        assert same_bits(rec.bound, ref_bound(rule, cfg, trace, x_star))
    if not no_objective:
        assert same_bits(_stability_terms(trace, trace.sigmas()),
                         ref_stability_terms(trace, next_iterates))
    for generic in _GENERIC_RULES:
        assert same_bits(bound_curve(generic, cfg, trace.grads, x_star=x_star, trace=trace),
                         ref_trace_bound(generic, trace.grads, trace, x_star)), generic
    assert_reaccounts_from_its_trace(result, rule, cfg)
    return result


@pytest.mark.parametrize("pair_name", list(suites._bound_pairings(64)))
def test_every_bound_pairing_matches_the_reference(pair_name):
    make = suites._bound_pairings(64)[pair_name]
    for k in range(3):
        learner, stream, rule, cfg, comp_set = make(31 + k, np.random.default_rng(31 + k))
        assert_run_matches_reference(learner, stream, 64, rule, cfg, comp_set)


@pytest.mark.parametrize("schedule", [lambda: ConstantRate(0.3), lambda: AdaGradRate(1.0)],
                         ids=["constant", "adagrad"])
@pytest.mark.parametrize("cls", [MirrorDescent, MdAsFtrl], ids=["mirror-descent", "md-as-ftrl"])
def test_penalized_mirror_descent_runs_match_the_reference(cls, schedule):
    for seed in range(3):
        result = assert_run_matches_reference(cls(3, schedule(), lam=0.1),
                                              RandomLinearStream(seed, 3, 1.0), 64,
                                              BoundRule.MIRROR_DESCENT, BoundConfig(), BALL)
        assert np.count_nonzero(result.trace.psi) and np.count_nonzero(result.x_star)


@pytest.mark.parametrize("pair_name", list(_high_dim_pairs()))
def test_high_dim_sparse_logistic_pairs_match_the_reference(pair_name):
    stream = LogisticStream.synthetic(5, HIGH_N, HIGH_T, density=0.01)
    learner, rule, comp_set = _high_dim_pairs()[pair_name]()
    result = assert_run_matches_reference(learner, stream, HIGH_T, rule, BoundConfig(),
                                          comp_set)
    # the wide inputs take the row-by-row prefix sums and the masked divide
    assert result.trace.grads.shape == (HIGH_T, HIGH_N)
    assert np.count_nonzero(result.trace.grads == 0.0) > HIGH_T * HIGH_N // 2


@pytest.mark.parametrize("n", [64, HIGH_N])
def test_centered_general_ftrl_runs_match_the_reference_where_r0_alone_would_not(n):
    # r_{0:t-1}(x*) of a centered run is one matrix-vector product over the
    # shifted rows; on these runs an r_0(x*) computed apart (a 1-D dot, a sum
    # or a one-row product) and prepended moves the last bit of row 1
    for schedule in (ConstantRate(0.3), InverseSqrtRate(0.7, shift=1)):
        if n == HIGH_N:
            stream, T = LogisticStream.synthetic(5, HIGH_N, HIGH_T, density=0.01), HIGH_T
        else:
            stream, T = RandomLinearStream(0, n, 1.0), 64
        assert_run_matches_reference(DualAveraging(n, schedule, BOX), stream, T,
                                     BoundRule.GENERAL_FTRL, BoundConfig(), BOX)


@pytest.mark.parametrize("grads", list(ZERO_GRADS))
@pytest.mark.parametrize("learner_name", list(ZERO_GRAD_LEARNERS))
def test_short_runs_and_zero_gradients_match_the_reference(learner_name, grads):
    rows = np.asarray(ZERO_GRADS[grads], dtype=float)
    learner, rule, comp_set = ZERO_GRAD_LEARNERS[learner_name]()
    assert_run_matches_reference(learner, _GivenGradients(rows), len(rows), rule,
                                 BoundConfig(), comp_set)


@pytest.mark.parametrize("make", [
    lambda: QuadraticFtrl(4, _FirstCoordinateFree(), BOX, centering=PROXIMAL),
    lambda: FtrlCompositeL1(4, _FirstCoordinateFree(), 0.05, centering="proximal",
                            feasible_set=BOX),
], ids=["proximal-box", "composite-box"])
def test_an_infinite_rate_on_one_coordinate_matches_the_reference(make):
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((12, 4))
    rows[::3, 0] = 0.0  # zero gradients at rate 0 cost 0, the others +inf
    learner = make()
    rule = BoundRule.COMPOSITE if learner.lam else BoundRule.FTRL_PROXIMAL
    result = assert_run_matches_reference(learner, _GivenGradients(rows), len(rows), rule,
                                          BoundConfig(), BOX)
    assert np.all(result.trace.inv_rates[:, 0] == 0.0)
    assert np.isinf(result.record.bound[-1])


def test_entropic_sup_norm_rows_match_the_reference():
    rng = np.random.default_rng(6)
    grads = rng.standard_normal((40, 5))
    grads[::4] = 0.0
    inv = np.abs(rng.standard_normal((40, 5)))
    inv[::5] = 0.0
    inv[::7] = -0.0
    assert same_bits(_dual_sq_rows(grads, inv, True), ref_dual_sq_rows(grads, inv, True))
    for seed in range(3):
        rows = rng.standard_normal((30, 4))
        rows[::5] = 0.0
        assert_run_matches_reference(EntropicFtrl(4, 1.0), _GivenGradients(rows), len(rows),
                                     BoundRule.GENERAL_FTRL, BoundConfig(), SIMPLEX)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 5), (40, 7), (7, 40), (200, 3)])
def test_dual_sq_rows_match_the_nested_where(shape):
    rng = np.random.default_rng(sum(shape))
    grads = rng.standard_normal(shape)
    grads[rng.random(shape) < 0.5] = 0.0
    grads[rng.random(shape) < 0.1] = -0.0
    inv = np.abs(rng.standard_normal(shape))
    inv[rng.random(shape) < 0.3] = 0.0
    for sup in (False, True):
        if sup and shape[1] == 0:
            continue
        assert same_bits(_dual_sq_rows(grads, inv, sup), ref_dual_sq_rows(grads, inv, sup))


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (48, 10_000), (4096, 5), (2, 10_000)])
def test_prefix_sums_equal_cumsum_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.3] = -0.0
    if shape[0]:
        a[0, : shape[1] // 2] = -0.0  # a column of -0.0 sums to -0.0
    keep = a.copy()
    want = np.cumsum(a, axis=0)
    assert same_bits(_prefix_sums(a), want)
    assert same_bits(a, keep)
    assert same_bits(_prefix_sums(a, out=a), want)  # in place, as the stability terms use it


# ---------------------------------------------------------------------------
# Aliasing: the shared buffers never write into the trace
# ---------------------------------------------------------------------------

def _loop_record(learner, stream, T):
    """Step a fresh learner T rounds; what ``run_rounds``'s loop records."""
    grads, iterates, inv_rates, psi = [], [], [], []
    inv0 = np.broadcast_to(np.asarray(learner.last_inv_rate, dtype=float),
                           (learner.dim,)).copy()
    for t in range(1, T + 1):
        x = learner.x.copy()
        event = stream.event(t, x)
        learner.step(event.g)
        grads.append(event.g)
        iterates.append(x)
        inv_rates.append(np.broadcast_to(learner.last_inv_rate, (learner.dim,)))
        if isinstance(learner, MirrorDescent):
            psi.append(learner.extract_last_psi_subgradient(x, event.g))
    return np.array(grads), np.array(iterates), np.array(inv_rates), inv0, \
        (np.array(psi) if psi else None)


@pytest.mark.parametrize("pair_name", list(_high_dim_pairs()))
def test_the_returned_trace_is_what_the_loop_recorded(pair_name):
    T = 20
    stream = LogisticStream.synthetic(8, HIGH_N, T, density=0.01)
    make = _high_dim_pairs()[pair_name]
    learner, rule, comp_set = make()
    result = run_rounds(learner, stream, T, rule, BoundConfig(), comp_set)
    grads, iterates, inv_rates, inv0, psi = _loop_record(make()[0], stream, T)
    tr = result.trace
    assert same_bits(tr.grads, grads)
    assert same_bits(tr.iterates, iterates)
    assert same_bits(tr.inv_rates, inv_rates)
    assert same_bits(tr.inv0, inv0)
    assert (tr.psi is None) == (psi is None)
    if psi is not None:
        assert same_bits(tr.psi, psi)


@pytest.mark.parametrize("pair_name", list(_high_dim_pairs()))
def test_bound_curve_twice_on_one_trace_matches_fresh_evaluations(pair_name):
    T = 20
    stream = LogisticStream.synthetic(9, HIGH_N, T, density=0.01)
    learner, rule, comp_set = _high_dim_pairs()[pair_name]()
    cfg = BoundConfig()
    result = run_rounds(learner, stream, T, rule, cfg, comp_set)
    trace = result.trace
    snapshot = copy.deepcopy(trace)
    x_a = result.x_star
    x_b = comp_set.project(np.random.default_rng(2).standard_normal(HIGH_N))
    assert not np.array_equal(x_a, x_b)
    for generic in _GENERIC_RULES:
        first = bound_curve(generic, cfg, trace.grads, x_star=x_a, trace=trace)
        second = bound_curve(generic, cfg, trace.grads, x_star=x_b, trace=trace)
        fresh_a = bound_curve(generic, cfg, snapshot.grads, x_star=x_a,
                              trace=copy.deepcopy(snapshot))
        fresh_b = bound_curve(generic, cfg, snapshot.grads, x_star=x_b,
                              trace=copy.deepcopy(snapshot))
        assert same_bits(first, fresh_a) and same_bits(second, fresh_b), generic
    for name in ("grads", "iterates", "inv_rates", "inv0"):
        assert same_bits(getattr(trace, name), getattr(snapshot, name)), name
