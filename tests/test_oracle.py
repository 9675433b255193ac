import numpy as np
import pytest

from ocokit import core, oracle


def test_numeric_argmin_simple_quadratic():
    x = oracle.numeric_argmin_1d(lambda v: (v - 1.0) ** 2, -10, 10)
    assert x == pytest.approx(1.0, abs=1e-7)


def test_numeric_argmin_cross_checks_soft_threshold():
    x = oracle.numeric_argmin_1d(lambda v: 2 * v + 0.5 * abs(v) + v * v, -10, 10)
    assert x == pytest.approx(core.soft_threshold_argmin(2.0, 0.5, 2.0), abs=1e-6)
    assert x == pytest.approx(-0.75, abs=1e-6)


def test_numeric_argmin_absolute_value():
    assert oracle.numeric_argmin_1d(abs, -1, 1) == pytest.approx(0.0, abs=1e-7)


def test_numeric_argmin_rejects_bad_interval():
    with pytest.raises(ValueError):
        oracle.numeric_argmin_1d(lambda v: v * v, 2.0, -2.0)


def test_separable_argmin_independent_quadratics():
    objs = [lambda v: (v - 1) ** 2, lambda v: (v + 2) ** 2]
    out = oracle.numeric_argmin_separable(objs, -10, 10)
    assert np.allclose(out, [1.0, -2.0], atol=1e-6)


def test_separable_argmin_constant_objective_returns_midpoint():
    out = oracle.numeric_argmin_separable([lambda v: 0.0], -4.0, 10.0)
    assert out[0] == pytest.approx(3.0)


def test_finite_difference_gradient():
    g = oracle.finite_difference_subgradient(lambda x: float(x[0] ** 2), np.array([3.0]))
    assert g[0] == pytest.approx(6.0, rel=1e-6)
    flat = oracle.finite_difference_subgradient(lambda x: 7.0, np.array([1.0, 2.0]))
    assert np.allclose(flat, 0.0)


@pytest.mark.parametrize("a,lhs_expected,rhs_expected", [
    ((1.0, 1.0, 1.0, 1.0), 2.7844570503761733, 4.0),
    ((0.0, 0.0, 0.0), 0.0, 0.0),
    ((4.0,), 2.0, 4.0),
])
def test_lemma_sum_known_values(a, lhs_expected, rhs_expected):
    lhs, rhs, holds = oracle.check_lemma_sum(a)
    assert lhs == pytest.approx(lhs_expected, abs=1e-12)
    assert rhs == pytest.approx(rhs_expected, abs=1e-12)
    assert holds


def test_lemma_sum_rejects_negative_entries():
    with pytest.raises(ValueError):
        oracle.check_lemma_sum([1.0, -0.5])


def test_lemma_sum_random_sequences():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        length = int(rng.integers(1, 101))
        a = rng.uniform(0, 2, size=length) * (rng.random(length) < 0.9)
        _, _, holds = oracle.check_lemma_sum(a)
        assert holds


def test_smoothchange_hand_example_equality():
    # phi1 = x^2/2, psi = x: x1 = 0, x2 = -1, value drop 1/2 = b^2/2
    phi = oracle.QuadraticObjective([1.0], [0.0])
    psi = oracle.LinearPlusL1([1.0], 0.0)
    report = oracle.check_smoothchange(phi, psi)
    assert report.x1[0] == pytest.approx(0.0, abs=1e-9)
    assert report.x2[0] == pytest.approx(-1.0, abs=1e-9)
    assert report.value_rhs == pytest.approx(0.5, abs=1e-12)
    assert report.holds
    assert report.equality_gap <= 1e-9


def test_smoothchange_zero_psi_degenerate():
    phi = oracle.QuadraticObjective([2.0], [1.0])
    psi = oracle.LinearPlusL1([0.0], 0.0)
    report = oracle.check_smoothchange(phi, psi)
    assert report.dist_lhs == pytest.approx(0.0, abs=1e-8)
    assert report.dist_rhs == 0.0
    assert report.value_rhs == 0.0
    assert report.holds


def test_smoothchange_projection_makes_inequality_strict():
    phi = oracle.QuadraticObjective([1.0], [0.0], box=0.1)
    psi = oracle.LinearPlusL1([1.0], 0.0)
    report = oracle.check_smoothchange(phi, psi)
    assert report.holds
    assert report.dist_lhs < report.dist_rhs - 0.5
    assert report.value_lhs < report.value_rhs - 0.3


def test_smoothchange_random_instances():
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    for k in range(500):
        n = int(rng.integers(1, 4))
        q = rng.uniform(0.5, 3.0, size=n)
        c = rng.uniform(-2, 2, size=n)
        if k % 2 == 0:
            phi = oracle.QuadraticObjective(q, c)
            psi = oracle.LinearPlusL1(rng.uniform(-2, 2, size=n), 0.0)
        else:
            phi = oracle.QuadraticObjective(q, c, box=float(rng.uniform(0.2, 2.0)))
            psi = oracle.LinearPlusL1(rng.uniform(-2, 2, size=n), float(rng.uniform(0, 1.5)))
        report = oracle.check_smoothchange(phi, psi, rng=rng)
        assert report.holds
        if k % 2 == 0:
            worst_gap = max(worst_gap, report.equality_gap)
    assert worst_gap <= 1e-9


def test_ball_oracle_matches_radial_projection():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.normal(0, 2, size=2)
        R = float(rng.uniform(0.3, 1.5))
        num = oracle.numeric_argmin_ball_2d(lambda a, b: (a - v[0]) ** 2 + (b - v[1]) ** 2, R)
        assert np.allclose(num, core.project_l2_ball(v, R), atol=1e-5)


def test_ball_oracle_matches_weighted_projection():
    """project_l2_ball_weighted is within TOL_ORACLE of the numeric argmin of
    sum_i w_i (x_i - u_i)^2 over the ball, for n = 1 and n = 2 and w_i > 0."""
    rng = np.random.default_rng(31)
    worst, bound = 0.0, 0
    for k in range(40):
        R = float(rng.uniform(0.3, 2.0))
        n = 1 + k % 2
        u = rng.normal(0, 2, size=n)
        w = rng.uniform(0.05, 5.0, size=n)
        closed = core.project_l2_ball_weighted(u, w, R)
        if n == 1:
            num = np.array([oracle.numeric_argmin_1d(lambda x: w[0] * (x - u[0]) ** 2, -R, R)])
        else:
            num = oracle.numeric_argmin_ball_2d(
                lambda a, b: w[0] * (a - u[0]) ** 2 + w[1] * (b - u[1]) ** 2, R)
        worst = max(worst, float(np.max(np.abs(closed - num))))
        bound += bool(np.linalg.norm(u) > R)
    assert worst <= core.TOL_ORACLE
    assert bound >= 10  # the ball binds on a good share of the draws
