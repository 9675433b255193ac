import math

import numpy as np
import pytest

from ocokit.bounds import (
    BoundRule,
    RegretRecord,
    RunTrace,
    _bound_and_rhs,
    _stability_terms,
    best_comparator,
    bound_curve,
)
from ocokit.core import ConstantRate, FeasibleSet, InverseSqrtRate
from ocokit.driver import run_rounds
from ocokit.learners import BoundConfig, DualAveraging, FtrlProximal, StronglyConvexOgd
from ocokit.streams import RandomLinearStream


class _SidewaysOgd(StronglyConvexOgd):
    reg_kind = "sideways"  # no regularizer family has this name


def test_an_unknown_regularizer_kind_raises_instead_of_reading_as_none():
    zeros = np.zeros((3, 2))
    trace = RunTrace(grads=zeros, points=np.zeros((4, 2)), rates=np.ones((4, 2)),
                     reg_kind="sideways")
    x_star = np.zeros(2)
    calls = [
        lambda: _bound_and_rhs(trace, x_star, BoundRule.GENERAL_FTRL, BoundConfig()),
        lambda: _bound_and_rhs(trace, x_star, None, None),
        lambda: bound_curve(BoundRule.FTRL_PROXIMAL, BoundConfig(), zeros, x_star, trace),
        lambda: _stability_terms(trace, None),
        lambda: run_rounds(_SidewaysOgd(2), RandomLinearStream(0, 2, 1.0), 3,
                           comparator_set=FeasibleSet.l2_ball(1.0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown regularizer kind 'sideways'"):
            call()


@pytest.mark.parametrize("losses,comp,expected", [
    ((1.0, 1.0), (0.0, 0.0), (1.0, 2.0)),
    ((0.5, -0.5), (0.5, -0.5), (0.0, 0.0)),
    ((3.0, -1.0), (1.0, 1.0), (2.0, 0.0)),
])
def test_cumulative_regret(losses, comp, expected):
    record = RegretRecord(loss=np.array(losses), comp_loss=np.array(comp),
                          bound=np.zeros(2), strong_ftrl_rhs=np.zeros(2))
    assert np.allclose(record.cum_regret, expected)


def test_best_comparator_rules():
    grads = np.array([[2.0, -3.0, 0.0]])
    assert np.allclose(best_comparator(grads, FeasibleSet.box(1.0)), [-1, 1, 0])
    grads = np.array([[1.0, 2.0], [2.0, 2.0]])
    assert np.allclose(best_comparator(grads, FeasibleSet.l2_ball(2.0)), [-1.2, -1.6])
    grads = np.array([[5.0, 1.0, 2.0]])
    assert np.allclose(best_comparator(grads, FeasibleSet.simplex()), [0, 1, 0])
    with pytest.raises(ValueError):
        best_comparator(grads, FeasibleSet.unconstrained())


def test_closed_form_bound_values():
    cfg = BoundConfig(R=1.0, G=1.0, R_inf=1.0)
    grads = np.zeros((100, 1))
    star = np.array([1.0])
    assert bound_curve(BoundRule.DA_CLOSED_FORM, cfg, grads, x_star=star)[99] == \
        pytest.approx(math.sqrt(2) * 10, abs=1e-9)
    assert bound_curve(BoundRule.PROX_CLOSED_FORM, cfg, grads)[99] == \
        pytest.approx(2 * math.sqrt(2) * 10, abs=1e-9)
    grads2 = np.array([[3.0], [4.0]])
    assert bound_curve(BoundRule.ADAGRAD_PER_COORD, cfg, grads2)[1] == \
        pytest.approx(10 * math.sqrt(2), abs=1e-12)
    assert bound_curve(BoundRule.STRONGLY_CONVEX_LOG, cfg, grads)[0] == pytest.approx(0.5)


def test_missing_config_field_is_an_error():
    with pytest.raises(ValueError):
        bound_curve(BoundRule.DA_CLOSED_FORM, BoundConfig(), np.zeros((3, 1)))


def test_entropic_bound_cap():
    cfg = BoundConfig(G_inf=1.0)
    grads = np.ones((10, 4))
    curve = bound_curve(BoundRule.ENTROPIC, cfg, grads)
    for t in range(1, 11):
        assert curve[t - 1] <= 2.0 * math.sqrt(t * math.log(4)) + 1e-12


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_the_entropic_bound_reads_the_dimension_from_the_gradients(width):
    # min(2 sqrt((G_inf^2 + sum_{s<t} ||g_s||_inf^2) log n), 2 G_inf sqrt(t log n)), n = width
    rng = np.random.default_rng(width)
    G_inf = 1.5
    grads = rng.uniform(-G_inf, G_inf, size=(12, width))
    curve = bound_curve(BoundRule.ENTROPIC, BoundConfig(G_inf=G_inf), grads)
    log_n, prior = math.log(width), 0.0
    for t in range(1, 13):
        want = min(2.0 * math.sqrt((G_inf ** 2 + prior) * log_n),
                   2.0 * G_inf * math.sqrt(t * log_n))
        assert curve[t - 1] == pytest.approx(want, rel=1e-12)
        prior += float(np.max(np.abs(grads[t - 1]))) ** 2


def test_bound_curves_are_monotone():
    rng = np.random.default_rng(0)
    learner = FtrlProximal(2, InverseSqrtRate(math.sqrt(2), shift=0), FeasibleSet.l2_ball(1.0))
    stream = RandomLinearStream(1, 2, 1.0)
    result = run_rounds(learner, stream, 40, BoundRule.PROX_CLOSED_FORM,
                        BoundConfig(R=1.0, G=1.0), FeasibleSet.l2_ball(1.0))
    for rule in (BoundRule.FTRL_PROXIMAL, BoundRule.WEAK_PROXIMAL):
        curve = bound_curve(rule, BoundConfig(), result.trace.grads,
                            x_star=result.x_star, trace=result.trace)
        assert np.all(np.diff(curve) >= -1e-9)
    assert np.all(np.diff(result.record.bound) >= -1e-9)


def test_weak_bound_dominates_sharp_bound():
    learner = FtrlProximal(2, InverseSqrtRate(math.sqrt(2), shift=0), FeasibleSet.l2_ball(1.0))
    stream = RandomLinearStream(2, 2, 1.0)
    result = run_rounds(learner, stream, 30, BoundRule.PROX_CLOSED_FORM,
                        BoundConfig(R=1.0, G=1.0), FeasibleSet.l2_ball(1.0))
    sharp = bound_curve(BoundRule.FTRL_PROXIMAL, BoundConfig(), result.trace.grads,
                        x_star=result.x_star, trace=result.trace)
    weak = bound_curve(BoundRule.WEAK_PROXIMAL, BoundConfig(), result.trace.grads,
                       x_star=result.x_star, trace=result.trace)
    assert np.all(weak > sharp)  # strict: every round has a nonzero gradient


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_round_worked_example(seed):
    # r_0 = x^2/2 (eta = 1) and f_1(x) = g x with |g| = 1: x_1 = 0, x_2 = -g and
    # x* = -g.  r_{0:1}(x*) = 1/2 and the stability term is 1/2, so the
    # decomposition is 1; the general FTRL bound r_0(x*) + g^2/2 is also 1;
    # both equal the regret 0 - (-1).  (The stream rescales g to |g| = 1 up
    # to rounding.)
    result = run_rounds(DualAveraging(1, ConstantRate(1.0)), RandomLinearStream(seed, 1, 1.0),
                        1, BoundRule.GENERAL_FTRL, BoundConfig(), FeasibleSet.box(1.0))
    rec = result.record
    for curve in (rec.cum_regret, rec.strong_ftrl_rhs, rec.bound):
        assert curve.shape == (1,)
        assert curve[0] == pytest.approx(1.0, abs=1e-12)


def test_decomposition_dominates_regret_on_random_runs():
    for seed in range(10):
        learner = DualAveraging(3, InverseSqrtRate(1.0 / math.sqrt(2), shift=1))
        stream = RandomLinearStream(seed, 3, 1.0)
        result = run_rounds(learner, stream, 50, BoundRule.DA_CLOSED_FORM,
                            BoundConfig(R=1.0, G=1.0), FeasibleSet.l2_ball(1.0))
        assert result.decomposition_ok
        assert np.all(result.record.cum_regret <= result.record.strong_ftrl_rhs + 1e-9)


def test_regret_record_rejects_columns_of_different_lengths():
    with pytest.raises(ValueError, match="share a length"):
        RegretRecord(loss=np.array([1.0, 2.0]), comp_loss=np.array([0.0]),
                     bound=np.array([3.0]), strong_ftrl_rhs=np.array([3.0]))


def test_per_coordinate_bound_dominates_fixed_rate_under_uniform_caps():
    from ocokit import suites

    result = suites.suite_percoord_dominance()
    assert result.passed, result.failures


def test_composite_bound_holds_for_the_accumulated_penalty_learner():
    from ocokit.learners import FtrlCompositeL1

    for seed in range(8):
        learner = FtrlCompositeL1(3, ConstantRate(0.2), 0.1)
        stream = RandomLinearStream(seed, 3, 1.0)
        result = run_rounds(learner, stream, 40, BoundRule.COMPOSITE,
                            BoundConfig(R=1.0, G=1.0), FeasibleSet.l2_ball(1.0))
        assert result.bound_ok
        assert result.decomposition_ok


def test_bound_curve_rejects_an_unknown_rule_and_a_trace_rule_without_its_trace():
    grads, cfg = np.ones((3, 2)), BoundConfig(R=1.0, G=1.0)
    with pytest.raises(ValueError, match="^unknown bound rule 'no-such-rule'$"):
        bound_curve("no-such-rule", cfg, grads)
    for rule in (BoundRule.GENERAL_FTRL, BoundRule.COMPOSITE):
        with pytest.raises(ValueError, match=f"^{rule.value} needs a run trace and a comparator$"):
            bound_curve(rule, cfg, grads, x_star=np.zeros(2))


def test_the_entropic_bound_at_zero_rounds_is_empty():
    curve = bound_curve(BoundRule.ENTROPIC, BoundConfig(G_inf=1.0), np.zeros((0, 3)))
    assert curve.shape == (0,)
