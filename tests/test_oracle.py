import math

import numpy as np
import pytest

from ocokit import core, oracle, suites


def test_numeric_argmin_simple_quadratic():
    x = oracle.numeric_argmin_1d(lambda v: (v - 1.0) * (v - 1.0), -10, 10)
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
    objs = [lambda v: (v - 1) * (v - 1), lambda v: (v + 2) * (v + 2)]
    out = oracle.numeric_argmin_separable(objs, -10, 10)
    assert np.allclose(out, [1.0, -2.0], atol=1e-6)


def test_separable_argmin_constant_objective_returns_midpoint():
    out = oracle.numeric_argmin_separable([lambda v: 0.0], -4.0, 10.0)
    assert out[0] == pytest.approx(3.0)


def test_finite_difference_gradient():
    g = oracle.finite_difference_subgradient(lambda x: float(x[0] * x[0]), np.array([3.0]))
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
        num = oracle.numeric_argmin_ball_2d(
            lambda a, b: (a - v[0]) * (a - v[0]) + (b - v[1]) * (b - v[1]), R)
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
            num = np.array([oracle.numeric_argmin_1d(
                lambda x: w[0] * ((x - u[0]) * (x - u[0])), -R, R)])
        else:
            num = oracle.numeric_argmin_ball_2d(
                lambda a, b: w[0] * ((a - u[0]) * (a - u[0])) + w[1] * ((b - u[1]) * (b - u[1])), R)
        worst = max(worst, float(np.max(np.abs(closed - num))))
        bound += bool(np.linalg.norm(u) > R)
    assert worst <= core.TOL_ORACLE
    assert bound >= 10  # the ball binds on a good share of the draws


def test_numeric_argmin_rejects_an_objective_that_is_not_elementwise():
    with pytest.raises(TypeError):
        oracle.numeric_argmin_1d(lambda v: 0.0, -1.0, 1.0)


def _pointwise_argmin_1d(objective, lo, hi):
    """numeric_argmin_1d evaluated point by point: one ``objective(float)``
    call per grid point, ``np.argmin`` of the list, and golden-section steps
    on ``np.float64``.  The one-array-call search must match it bit for bit."""
    tol = 1e-8
    grid = np.linspace(lo, hi, 33)
    vals = [objective(float(g)) for g in grid]
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    if a == b:
        return float(a)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = objective(x2)
    return 0.5 * (a + b)


def _pointwise_argmin_ball_2d(objective, radius):
    """numeric_argmin_ball_2d's nesting on the point-by-point search."""

    def half_width(x0):
        return math.sqrt(max(radius * radius - x0 * x0, 0.0))

    def slice_min(x0):
        half = half_width(x0)
        if half == 0.0:
            return objective(x0, 0.0)
        return objective(x0, _pointwise_argmin_1d(lambda y: objective(x0, y), -half, half))

    x0 = _pointwise_argmin_1d(slice_min, -radius, radius)
    half = half_width(x0)
    if half == 0.0:
        return np.array([x0, 0.0])
    return np.array([x0, _pointwise_argmin_1d(lambda y: objective(x0, y), -half, half)])


def _convex_problem(rng, k):
    """A seeded convex objective on a bracket 1e-6 to 1e4 wide, with squares as products."""
    width = float(10.0 ** rng.uniform(-6, 4))
    lo = float(rng.uniform(-1, 1) * 10.0 ** rng.uniform(-3, 3))
    hi = lo + width
    inside = lo + width * float(rng.uniform(0, 1))
    a, lam = float(10.0 ** rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-3, 3))
    kind = k % 6
    if kind == 0:  # smooth, minimum inside
        return (lambda x: a * ((x - inside) * (x - inside))), lo, hi
    if kind == 1:  # an L1 kink inside
        return (lambda x: lam * abs(x - inside)), lo, hi
    if kind == 2:  # a kink plus a quadratic centred elsewhere
        c2 = lo + width * float(rng.uniform(-1, 2))
        return (lambda x: lam * abs(x - inside) + a * ((x - c2) * (x - c2))), lo, hi
    if kind == 3:  # minimum at or beyond an end
        ends = (lo, hi, lo - width * float(rng.uniform(0, 10)),
                hi + width * float(rng.uniform(0, 10)))
        c = ends[int(rng.integers(0, 4))]
        return (lambda x: a * ((x - c) * (x - c)) + lam * abs(x - c)), lo, hi
    if kind == 4:  # flat between two kinks
        c1, c2 = sorted(lo + width * rng.uniform(-0.5, 1.5, size=2))
        return (lambda x: abs(x - c1) + abs(x - c2)), lo, hi
    return (lambda x: 0.0 * x + a), lo, hi  # constant


def test_array_grid_search_matches_the_pointwise_search_bit_for_bit():
    rng = np.random.default_rng(41)
    mismatches = []
    for k in range(500):
        f, lo, hi = _convex_problem(rng, k)
        got = oracle.numeric_argmin_1d(f, lo, hi)
        want = float(_pointwise_argmin_1d(f, lo, hi))
        if got.hex() != want.hex():
            mismatches.append((k, lo, hi, got, want))
    assert not mismatches


def test_ball_search_matches_the_pointwise_search_bit_for_bit():
    rng = np.random.default_rng(42)
    mismatches = []
    for k in range(50):
        R = float(10.0 ** rng.uniform(-2, 1))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        # the center inside, on and far outside the disk
        scale = (float(rng.uniform(0, 0.9)), 1.0, float(rng.uniform(5, 100)))[k % 3]
        v0, v1 = (R * scale * direction).tolist()
        w0, w1 = rng.uniform(0.05, 5.0, size=2).tolist()
        lam = float(rng.uniform(0, 1)) if k % 2 else 0.0

        def f(a, b):
            return w0 * ((a - v0) * (a - v0)) + w1 * ((b - v1) * (b - v1)) + lam * abs(b)

        got = oracle.numeric_argmin_ball_2d(f, R)
        want = _pointwise_argmin_ball_2d(f, R)
        if got.tobytes() != want.tobytes():
            mismatches.append((k, R, v0, v1, got, want))
    assert not mismatches


# The lines of suite_oracle_closed_form(count=40, smooth_count=20, seed0=0),
# recorded when every grid point was a separate objective call.
ORACLE_SUITE_LINES = [
    "PASS  soft threshold vs numeric argmin on 40 draws (max gap 4.46e-08)",
    "PASS  softmax vs numeric simplex argmin on 40 draws (max gap 7.44e-09)",
    "PASS  proximal step vs numeric argmin on 40 steps (max gap 2.25e-08)",
    "PASS  mirror step vs numeric argmin on 40 steps (max gap 2.79e-08)",
    "PASS  box projection vs numeric argmin on 40 draws (max gap 4.90e-09)",
    "PASS  ball projection vs numeric argmin on 40 draws (max gap 2.81e-08)",
    "PASS  prefix-sum inequality holds on 40 sequences",
    "PASS  one-step stability inequalities hold on 20 instances",
    "PASS  equality gap <= 1e-09 on the smooth subfamily (max 1.78e-15)",
]


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="gaps recorded with numpy 2; numpy 1.x float kernels may round differently")
def test_oracle_suite_prints_the_pinned_gaps():
    res = suites.suite_oracle_closed_form(count=40, smooth_count=20, seed0=0)
    assert res.lines == ORACLE_SUITE_LINES
