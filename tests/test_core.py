import math

import numpy as np
import pytest

from ocokit import core
from ocokit.bounds import RunTrace, _family
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    InvariantViolation,
)
from ocokit.learners import CENTERED, ENTROPIC, PROXIMAL
from ocokit.oracle import default_bracket, numeric_argmin_1d


@pytest.mark.parametrize("b,lam,a,expected", [
    (2.0, 3.0, 1.0, 0.0),     # |b| <= lam collapses to zero
    (5.0, 3.0, 2.0, -1.0),    # -(b - sign(b) lam)/a
    (4.0, 0.0, 2.0, -2.0),    # plain quadratic minimum -b/a
    (-5.0, 3.0, 2.0, 1.0),
])
def test_soft_threshold_known_values(b, lam, a, expected):
    assert core.soft_threshold_argmin(b, lam, a) == pytest.approx(expected, abs=1e-15)


def test_soft_threshold_zero_iff_inside_band():
    assert core.soft_threshold_argmin(3.0, 3.0, 1.0) == 0.0
    assert core.soft_threshold_argmin(3.0000001, 3.0, 1.0) != 0.0


@pytest.mark.parametrize("bad", [
    dict(b=float("nan"), lam=1.0, a=1.0),
    dict(b=1.0, lam=-0.1, a=1.0),
    dict(b=1.0, lam=1.0, a=0.0),
    dict(b=1.0, lam=1.0, a=-2.0),
])
def test_soft_threshold_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        core.soft_threshold_argmin(**bad)


def test_soft_threshold_matches_numeric_argmin_on_random_draws():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        b = float(rng.uniform(-5, 5))
        lam = float(rng.uniform(0, 3))
        a = float(rng.uniform(0.5, 4))
        closed = core.soft_threshold_argmin(b, lam, a)
        half = default_bracket(b, a)
        num = numeric_argmin_1d(lambda x: b * x + lam * abs(x) + 0.5 * a * x * x, -half, half)
        worst = max(worst, abs(closed - num))
    assert worst <= 1e-6


def test_project_l2_ball():
    assert np.allclose(core.project_l2_ball([0.5, 0.0], 1.0), [0.5, 0.0])
    assert np.allclose(core.project_l2_ball([3.0, 4.0], 1.0), [0.6, 0.8])
    assert np.allclose(core.project_l2_ball([-2.0], 0.5), [-0.5])


def test_project_l2_ball_idempotent_and_feasible():
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = rng.normal(0, 3, size=int(rng.integers(1, 6)))
        R = float(rng.uniform(0.1, 2.0))
        p = core.project_l2_ball(v, R)
        assert np.linalg.norm(p) <= R * (1 + 1e-12)
        assert np.allclose(core.project_l2_ball(p, R), p, atol=1e-15)


def test_clamp_box():
    assert np.allclose(core.clamp_box([1.5, -0.2], 1.0), [1.0, -0.2])
    assert np.allclose(core.clamp_box([0.0, 0.0], 1.0), [0.0, 0.0])
    assert np.allclose(core.clamp_box([-3.0], 2.0), [-2.0])


def test_softmax_simplex_values():
    assert np.allclose(core.softmax_simplex([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)
    assert np.allclose(core.softmax_simplex([0.0, -math.log(2)]), [2 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(core.softmax_simplex([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_simplex_properties():
    rng = np.random.default_rng(2)
    for _ in range(500):
        z = rng.normal(0, 10, size=int(rng.integers(1, 7)))
        x = core.softmax_simplex(z)
        assert np.all(x > 0)
        assert abs(x.sum() - 1.0) <= 1e-12
        shifted = core.softmax_simplex(z + float(rng.uniform(-1e3, 1e3)))
        assert np.max(np.abs(x - shifted)) <= 1e-12
        assert np.argmax(x) == np.argmax(shifted)


def test_bregman_quadratic():
    # where the quadratics are centered does not change their divergence
    for quadratic in (_family(CENTERED), _family(PROXIMAL)):
        assert quadratic.divergence([1.0, 1.0], [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
        assert quadratic.divergence([1.0, 1.0], [0.3, -0.7], [0.3, -0.7]) == \
            pytest.approx(0.0, abs=1e-15)
        assert quadratic.divergence([2.0, 0.5], [1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.0)


def test_bregman_entropic_is_kl_on_the_simplex():
    # independent evaluation of sum_i u_i ln(u_i / v_i)
    u, v = np.array([0.5, 0.5]), np.array([0.9, 0.1])
    expected = float(np.sum(u * np.log(u / v)))
    assert expected == pytest.approx(0.5108256237659907, abs=1e-15)
    assert _family(ENTROPIC).divergence(1.0, u, v) == pytest.approx(expected, abs=1e-12)
    assert _family(ENTROPIC).divergence(3.0, u, v) == pytest.approx(3.0 * expected, abs=1e-12)


def test_bregman_entropic_rejects_boundary_reference_point():
    with pytest.raises(ValueError):
        _family(ENTROPIC).divergence(1.0, [0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        _family(ENTROPIC).divergence(1.0, [1.5, -0.5], [0.5, 0.5])


def test_bregman_nonnegative_everywhere():
    rng = np.random.default_rng(3)
    quadratic, entropic = _family(CENTERED), _family(ENTROPIC)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        w = rng.uniform(0, 3, size=n)
        assert quadratic.divergence(w, rng.normal(size=n), rng.normal(size=n)) >= -1e-12
        weight = float(rng.uniform(0.1, 2))
        p = core.softmax_simplex(rng.normal(size=n + 1))
        q = core.softmax_simplex(rng.normal(size=n + 1))
        assert entropic.divergence(weight, p, q) >= -1e-12


def schedule_trace(sched, sq_sums):
    """A one-coordinate RunTrace of the inverse rates ``sched`` deploys.

    ``sq_sums[t-1]`` is the squared-gradient sum through round t; round zero
    has sum 0.
    """
    inv = np.array([[sched.inverse_rate(t, sq)] for t, sq in enumerate(sq_sums, start=1)])
    return RunTrace(grads=np.zeros_like(inv), points=np.zeros((len(inv) + 1, 1)), inv_rates=inv,
                    inv0=np.atleast_1d(sched.inverse_rate(0, 0.0)), reg_kind=CENTERED)


def test_trace_sigmas_constant():
    trace = schedule_trace(ConstantRate(0.5), [0.0] * 4)
    assert trace.inv0 == pytest.approx([2.0])
    assert np.all(trace.sigmas() == 0.0)


def test_trace_sigmas_adagrad_per_coordinate():
    # squared sums 9 then 25 with half-width 1: increments (5 - 3)/sqrt(2)
    trace = schedule_trace(AdaGradRate(scale=math.sqrt(2) * 1.0), [9.0, 25.0])
    assert trace.sigmas()[1, 0] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_trace_sigmas_reject_a_falling_inverse_rate():
    trace = schedule_trace(AdaGradRate(scale=1.0), [4.0, 1.0])
    with pytest.raises(InvariantViolation, match="round 2, coordinate 0"):
        trace.sigmas()


def test_trace_sigma_increments_sum_to_inverse_rate():
    rng = np.random.default_rng(4)
    schedules = [ConstantRate(0.7), InverseSqrtRate(1.3, shift=1),
                 InverseSqrtRate(0.9, shift=0),
                 AdaGradRate(1.1, offset=0.4)]
    for sched in schedules:
        trace = schedule_trace(sched, np.cumsum(rng.uniform(0, 2, size=39)))
        total = trace.inv0 + np.cumsum(trace.sigmas(), axis=0)
        assert np.max(np.abs(total - trace.inv_rates)) <= 1e-9


def test_feasible_set_validation_and_membership():
    with pytest.raises(ValueError):
        FeasibleSet.l2_ball(0.0)
    with pytest.raises(ValueError):
        FeasibleSet.box(-1.0)
    simplex = FeasibleSet.simplex()
    assert simplex.contains([0.25, 0.75])
    assert not simplex.contains([0.5, 0.2])
    with pytest.raises(core.UnsupportedCombination):
        simplex.project([2.0, 0.0])


def test_linear_minimizers():
    assert np.allclose(FeasibleSet.box(1.0).linear_minimizer([2.0, -3.0, 0.0]), [-1, 1, 0])
    assert np.allclose(FeasibleSet.l2_ball(2.0).linear_minimizer([3.0, 4.0]), [-1.2, -1.6])
    assert np.allclose(FeasibleSet.simplex().linear_minimizer([5.0, 1.0, 2.0]), [0, 1, 0])
    with pytest.raises(ValueError):
        FeasibleSet.unconstrained().linear_minimizer([1.0])


def test_weighted_ball_projection_pins_zero_weight_coordinates():
    out = core.project_l2_ball_weighted([3.0, 5.0], [1.0, 0.0], 1.0)
    assert out[1] == 0.0
    assert np.linalg.norm(out) <= 1.0 + 1e-12
    inside = core.project_l2_ball_weighted([0.2, -0.1], [1.0, 2.0], 1.0)
    assert np.allclose(inside, [0.2, -0.1])
