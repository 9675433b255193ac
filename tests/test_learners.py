import math

import numpy as np
import pytest

from ocokit import oracle
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    UnsupportedCombination,
)
from ocokit.learners import (
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
    StronglyConvexOgd,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent


class TestDualAveraging:
    def test_zero_gradient_keeps_origin(self):
        learner = DualAveraging(2, ConstantRate(0.7))
        assert np.allclose(learner.step([0.0, 0.0]), [0.0, 0.0])

    def test_unconstrained_closed_form(self):
        learner = DualAveraging(2, ConstantRate(0.5))
        assert np.allclose(learner.step([1.0, -2.0]), [-0.5, 1.0])

    def test_ball_step_matches_numeric_argmin(self):
        learner = DualAveraging(2, ConstantRate(1.0), FeasibleSet.l2_ball(1.0))
        x2 = learner.step([3.0, 4.0])
        assert np.allclose(x2, [-0.6, -0.8], atol=1e-12)
        num = oracle.numeric_argmin_ball_2d(
            lambda a, b: 3 * a + 4 * b + 0.5 * (a * a + b * b), 1.0)
        assert np.allclose(x2, num, atol=1e-6)

    def test_simplex_is_rejected(self):
        with pytest.raises(UnsupportedCombination):
            DualAveraging(3, ConstantRate(1.0), FeasibleSet.simplex())

    def test_sqrt_decay_requires_shift_one(self):
        with pytest.raises(UnsupportedCombination):
            DualAveraging(2, InverseSqrtRate(1.0, shift=0))
        DualAveraging(2, InverseSqrtRate(1.0, shift=1))

    def test_adaptive_rate_requires_positive_offset(self):
        with pytest.raises(ValueError):
            DualAveraging(2, AdaGradRate(1.0, offset=0.0))
        learner = DualAveraging(2, AdaGradRate(1.0, offset=1.0))
        # first step uses the offset-only rate: x2 = -(1/offset^.. ) g
        x2 = learner.step([1.0, 0.0])
        assert np.allclose(x2, [-1.0, 0.0])


class TestFtrlProximal:
    def test_adaptive_first_step_hits_the_box_face(self):
        learner = FtrlProximal(1, AdaGradRate(math.sqrt(2)), FeasibleSet.box(1.0))
        assert np.allclose(learner.step([1.0]), [-1.0])
        # numeric argmin of g x + x^2/(2 eta) over [-1, 1] with eta = sqrt(2)
        num = oracle.numeric_argmin_1d(lambda v: v + v * v / (2 * math.sqrt(2)), -1, 1)
        assert num == pytest.approx(-1.0, abs=1e-6)

    def test_zero_gradients_keep_the_start_point(self):
        learner = FtrlProximal(3, AdaGradRate(1.0), FeasibleSet.box(2.0))
        for _ in range(5):
            x = learner.step([0.0, 0.0, 0.0])
        assert np.allclose(x, 0.0)

    def test_constant_rate_reduces_to_gradient_descent(self):
        learner = FtrlProximal(1, ConstantRate(1.0), FeasibleSet.box(10.0))
        assert np.allclose(learner.step([1.0]), [-1.0])
        assert np.allclose(learner.step([1.0]), [-2.0])
        num = oracle.numeric_argmin_1d(lambda v: 2 * v + 0.5 * v * v, -10, 10)
        assert num == pytest.approx(-2.0, abs=1e-6)

    def test_unconstrained_adaptive_rate_is_rejected(self):
        with pytest.raises(UnsupportedCombination):
            FtrlProximal(2, AdaGradRate(1.0), FeasibleSet.unconstrained())

    def test_recentering_matches_numeric_argmin_along_a_run(self):
        rng = np.random.default_rng(0)
        learner = FtrlProximal(3, AdaGradRate(math.sqrt(2.0)), FeasibleSet.box(1.0))
        for _ in range(12):
            g = rng.normal(0, 1, size=3)
            x = learner.step(g)
            z = learner.g_sum - learner.adj_sum
            inv = learner.last_inv_rate
            objs = [(lambda v, i=i: z[i] * v + 0.5 * inv[i] * v * v) for i in range(3)]
            num = oracle.numeric_argmin_separable(objs, -1, 1)
            assert np.max(np.abs(x - num)) <= 1e-6


class TestFtrlCompositeL1:
    def test_first_step_of_the_l1_example(self):
        learner = FtrlCompositeL1(1, ConstantRate(0.5), 0.5)
        assert np.allclose(learner.step([-5.75]), [2.625])

    def test_small_gradient_sums_pin_zero(self):
        learner = FtrlCompositeL1(2, ConstantRate(1.0), 0.5)
        learner.step([0.3, 0.9])
        x = learner.step([0.3, 0.9])
        # |g_{1:2,0}| = 0.6 < 2 * 0.5 -> exactly zero; |g_{1:2,1}| = 1.8 stays live
        assert x[0] == 0.0
        assert x[1] != 0.0

    def test_lambda_zero_equals_dual_averaging(self):
        rng = np.random.default_rng(1)
        comp = FtrlCompositeL1(3, ConstantRate(0.8), 0.0)
        da = DualAveraging(3, ConstantRate(0.8))
        for _ in range(25):
            g = rng.normal(0, 1, size=3)
            assert np.max(np.abs(comp.step(g) - da.step(g))) <= 1e-15

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            FtrlCompositeL1(1, ConstantRate(1.0), -0.5)


@pytest.mark.parametrize("make", [
    lambda lam: FtrlCompositeL1(2, ConstantRate(1.0), lam),
    lambda lam: QuadraticFtrl(2, ConstantRate(1.0), lam=lam),
    lambda lam: MirrorDescent(2, ConstantRate(1.0), lam=lam),
    lambda lam: MdAsFtrl(2, ConstantRate(1.0), lam=lam),
], ids=["ftrl-composite-l1", "quadratic-ftrl", "mirror-descent", "md-as-ftrl"])
@pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
def test_penalty_weight_must_be_finite_and_nonnegative(make, lam):
    with pytest.raises(ValueError, match="penalty weight must be >= 0"):
        make(lam)


class TestEntropicFtrl:
    def test_starts_uniform(self):
        learner = EntropicFtrl(4, 1.0)
        assert np.allclose(learner.x, 0.25)

    def test_softmax_closed_form_at_the_deployed_rate(self):
        from ocokit.core import softmax_simplex

        learner = EntropicFtrl(2, 1.0)
        g = np.array([0.4, -0.3])
        x = learner.step(g)
        inv = learner.last_inv_rate[0]
        assert inv == pytest.approx(math.sqrt(1.0 + 0.4 ** 2) / math.sqrt(math.log(2)))
        assert np.allclose(x, softmax_simplex(-g / inv), atol=1e-15)

    def test_identical_coordinates_stay_uniform(self):
        learner = EntropicFtrl(3, 1.0)
        for c in (0.5, -1.0, 0.25):
            x = learner.step([c, c, c])
        assert np.allclose(x, 1 / 3, atol=1e-15)

    def test_iterates_live_on_the_simplex(self):
        rng = np.random.default_rng(2)
        learner = EntropicFtrl(5, 1.0)
        for _ in range(50):
            x = learner.step(rng.uniform(-1, 1, size=5))
            assert abs(x.sum() - 1.0) <= 1e-12
            assert np.all(x >= 0)

    def test_needs_simplex_and_positive_cap(self):
        with pytest.raises(ValueError):
            EntropicFtrl(1, 1.0)
        with pytest.raises(ValueError):
            EntropicFtrl(3, 0.0)


class TestStronglyConvexOgd:
    def test_rate_is_one_over_round(self):
        learner = StronglyConvexOgd(1)
        assert np.allclose(learner.step([2.0]), [-2.0])
        assert np.allclose(learner.step([-2.0]), [-1.0])

    def test_zero_gradient_is_a_fixed_point(self):
        learner = StronglyConvexOgd(2)
        learner.step([1.0, -1.0])
        x = learner.x.copy()
        assert np.allclose(learner.step([0.0, 0.0]), x)


def test_constant_rate_learners_coincide():
    rng = np.random.default_rng(3)
    for eta in (0.25, 1.0, 1.7):
        da = DualAveraging(2, ConstantRate(eta))
        prox = FtrlProximal(2, ConstantRate(eta), FeasibleSet.unconstrained())
        comp = FtrlCompositeL1(2, ConstantRate(eta), 0.0)
        g_sum = np.zeros(2)
        for _ in range(30):
            g = rng.normal(0, 1, size=2)
            g_sum += g
            want = -eta * g_sum
            for learner in (da, prox, comp):
                assert np.max(np.abs(learner.step(g) - want)) <= 1e-12


def test_adagrad_iterates_are_permutation_equivariant():
    rng = np.random.default_rng(4)
    perm = np.array([2, 0, 3, 1])
    a = FtrlProximal(4, AdaGradRate(math.sqrt(2.0)), FeasibleSet.box(1.0))
    b = FtrlProximal(4, AdaGradRate(math.sqrt(2.0)), FeasibleSet.box(1.0))
    for _ in range(40):
        g = rng.normal(0, 1, size=4)
        xa = a.step(g)
        xb = b.step(g[perm])
        assert np.max(np.abs(xa[perm] - xb)) <= 1e-12


def test_entropic_rate_never_increases():
    rng = np.random.default_rng(5)
    learner = EntropicFtrl(4, 1.0)
    prev = learner.last_inv_rate[0]
    for _ in range(60):
        learner.step(rng.normal(0, 1, size=4))
        assert learner.last_inv_rate[0] >= prev - 1e-12
        prev = learner.last_inv_rate[0]


def test_dual_averaging_adaptive_rates_on_a_ball_stay_feasible_and_optimal():
    from ocokit import oracle

    rng = np.random.default_rng(6)
    learner = DualAveraging(2, AdaGradRate(1.0, offset=0.5), FeasibleSet.l2_ball(0.6))
    for _ in range(20):
        x = learner.step(rng.normal(size=2))
        assert np.linalg.norm(x) <= 0.6 * (1 + 1e-12)
    # the lazy step solves the weighted problem: check the last one numerically
    inv = learner.last_inv_rate
    g_sum = learner.g_sum
    num = oracle.numeric_argmin_ball_2d(
        lambda a, b: g_sum[0] * a + g_sum[1] * b + 0.5 * (inv[0] * a * a + inv[1] * b * b),
        0.6)
    assert np.max(np.abs(x - num)) <= 1e-5


def test_ftrl_proximal_adaptive_rates_on_a_ball_match_the_oracle():
    from ocokit import oracle

    rng = np.random.default_rng(7)
    learner = FtrlProximal(2, AdaGradRate(math.sqrt(2)), FeasibleSet.l2_ball(0.5))
    for _ in range(15):
        x = learner.step(rng.normal(size=2))
        assert np.linalg.norm(x) <= 0.5 * (1 + 1e-12)
    z = learner.g_sum - learner.adj_sum
    inv = learner.last_inv_rate
    num = oracle.numeric_argmin_ball_2d(
        lambda a, b: z[0] * a + z[1] * b + 0.5 * (inv[0] * a * a + inv[1] * b * b), 0.5)
    assert np.max(np.abs(x - num)) <= 1e-5
