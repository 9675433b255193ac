import math

import numpy as np
import pytest

from ocokit import oracle, suites
from ocokit.core import (
    AdaGradRate,
    ConsistencyError,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    UnsupportedCombination,
    _psi_subgradient,
)
from ocokit.driver import repro_l1_example
from ocokit.learners import DualAveraging
from ocokit.mirror import MdAsFtrl, MirrorDescent


class TestMirrorDescent:
    def test_lambda_zero_is_gradient_descent(self):
        md = MirrorDescent(2, ConstantRate(0.3))
        x = np.zeros(2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.normal(size=2)
            x = x - 0.3 * g
            assert np.max(np.abs(md.step(g) - x)) <= 1e-12

    def test_first_step_of_the_l1_example(self):
        md = MirrorDescent(1, ConstantRate(0.5), lam=0.5)
        assert np.allclose(md.step([-5.75]), [2.625])

    def test_three_case_update_zero_branch(self):
        md = MirrorDescent(1, ConstantRate(1.0), lam=0.5)
        md.x = np.array([1.0])
        # |g - x/eta| = 0.2 <= lam pins the coordinate at zero
        assert md.step([1.2])[0] == 0.0

    def test_step_matches_numeric_argmin(self):
        rng = np.random.default_rng(1)
        md = MirrorDescent(2, AdaGradRate(1.0), lam=0.4)
        for _ in range(15):
            g = rng.normal(size=2)
            x_prev = md.x.copy()
            x = md.step(g)
            w = md.last_inv_rate
            for i in range(2):
                num = oracle.numeric_argmin_1d(
                    lambda v, i=i: g[i] * v + 0.4 * abs(v) + 0.5 * w[i] * (v - x_prev[i]) ** 2,
                    -20, 20)
                assert abs(x[i] - num) <= 1e-6

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedCombination):
            MirrorDescent(2, ConstantRate(1.0), lam=0.1, feasible_set=FeasibleSet.l2_ball(1.0))
        with pytest.raises(UnsupportedCombination):
            MirrorDescent(2, ConstantRate(1.0), feasible_set=FeasibleSet.simplex())


class TestExtractPsiSubgradient:
    def test_sign_cases(self):
        g_psi = _psi_subgradient(np.array([0.2]), np.array([-0.3]), np.array([1.0]),
                                 np.array([1.0]), 0.5)
        assert g_psi[0] == -0.5

    def test_zero_case_residual_value(self):
        # x_{t+1} = 0 with x_t/eta = 2, g = 1.7 gives 0.3 inside [-0.5, 0.5]
        g_psi = _psi_subgradient(np.array([2.0]), np.array([0.0]), np.array([1.7]),
                                 np.array([1.0]), 0.5)
        assert g_psi[0] == pytest.approx(0.3)
        assert abs(g_psi[0]) <= 0.5

    def test_lambda_zero_gives_zero_vector(self):
        md = MirrorDescent(3, ConstantRate(0.7))
        g = np.array([0.3, -0.2, 0.9])
        x_prev = md.x.copy()
        md.step(g)
        assert np.allclose(_psi_subgradient(x_prev, md.x, g, md.last_inv_rate, md.lam), 0.0)

    def test_inconsistent_points_raise(self):
        with pytest.raises(ConsistencyError):
            _psi_subgradient(np.array([0.0]), np.array([5.0]), np.array([1.0]),
                             np.array([1.0]), 0.5)

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_large_gradients_pass_the_residual_check(self, scale):
        # rounding noise grows with the operands; an absolute tolerance raised here
        rng = np.random.default_rng(11)
        md = MirrorDescent(3, ConstantRate(0.3), lam=1e5)
        twin = MdAsFtrl(3, ConstantRate(0.3), lam=1e5)
        for _ in range(200):
            g = rng.normal(size=3) * scale
            x_prev = md.x
            md.step(g)
            twin.step(g)
            _psi_subgradient(x_prev, md.x, g, md.last_inv_rate, md.lam)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_perturbed_step_still_raises(self, scale):
        rng = np.random.default_rng(12)
        md = MirrorDescent(3, ConstantRate(0.3), lam=0.1 * scale)
        for _ in range(20):
            g = rng.normal(size=3) * scale
            x_prev = md.x
            x_next = md.step(g)
            assert np.any(x_next != 0)
            with pytest.raises(ConsistencyError):
                _psi_subgradient(x_prev, x_next * (1 + 1e-6), g, md.last_inv_rate, md.lam)

    def test_memberships_on_random_runs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = float(rng.uniform(0.05, 1.0))
            md = MirrorDescent(3, ConstantRate(float(rng.uniform(0.2, 1.5))), lam=lam)
            for _ in range(30):
                g = rng.normal(size=3)
                x_prev = md.x.copy()
                md.step(g)
                g_psi = _psi_subgradient(x_prev, md.x, g, md.last_inv_rate, md.lam)
                assert np.all(np.abs(g_psi) <= lam + 1e-12)
                nonzero = md.x != 0
                assert np.all(g_psi[nonzero] == lam * np.sign(md.x[nonzero]))


class TestMdAsFtrl:
    def test_first_round_matches_mirror_descent(self):
        md = MirrorDescent(2, ConstantRate(0.5), lam=0.3)
        twin = MdAsFtrl(2, ConstantRate(0.5), lam=0.3)
        g = np.array([1.0, -2.0])
        assert np.allclose(md.step(g), twin.step(g), atol=1e-15)

    def test_l1_example_fifth_point(self):
        # g_{1:4} = g_1 + G and the accumulated penalty tangents sum to +lam,
        # so the fifth point lands on -(G - lam)/sqrt(T)
        twin = MdAsFtrl(1, ConstantRate(0.5), lam=0.5)
        for g in (-5.75, 11.0, -11.0, 11.0):
            x = twin.step([g])
        assert x[0] == pytest.approx(-2.625, abs=1e-12)

    def test_accumulated_objective_matches_numeric_argmin(self):
        rng = np.random.default_rng(4)
        lam = 0.25
        twin = MdAsFtrl(2, InverseSqrtRate(1.0, shift=0), lam=lam)
        for _ in range(12):
            g = rng.normal(size=2)
            g_psi_sum = twin.g_psi_sum  # the penalty history through the previous round
            x = twin.step(g)
            b = twin.g_sum + g_psi_sum - twin.adj_sum
            w = twin.last_inv_rate
            for i in range(2):
                num = oracle.numeric_argmin_1d(
                    lambda v, i=i: b[i] * v + lam * abs(v) + 0.5 * w[i] * v * v, -20, 20)
                assert abs(x[i] - num) <= 1e-6

    def test_lambda_zero_reduces_to_the_gradient_sum_closed_form(self):
        rng = np.random.default_rng(9)
        twin = MdAsFtrl(2, ConstantRate(0.6), lam=0.0)
        g_sum = np.zeros(2)
        for _ in range(20):
            g = rng.normal(size=2)
            g_sum += g
            assert np.max(np.abs(twin.step(g) - (-0.6 * g_sum))) <= 1e-12

    def test_global_residual_stays_tiny(self):
        # the accumulated penalty subgradients stand in for the penalty's
        # subdifferential, so g_{1:t} + g_psi_{1:t} + grad r_{0:t}(x) vanishes
        rng = np.random.default_rng(5)
        twin = MdAsFtrl(3, ConstantRate(0.4), lam=0.2)
        for _ in range(50):
            twin.step(rng.normal(size=3))
        grad = twin.g_sum + twin.g_psi_sum + twin.last_inv_rate * twin.x - twin.adj_sum
        assert float(np.max(np.abs(grad))) <= 1e-9


def test_equivalence_on_mixed_schedules():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        lam = float(rng.uniform(0, 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            sched = ConstantRate(float(rng.uniform(0.1, 2)))
        elif kind == 1:
            sched = InverseSqrtRate(float(rng.uniform(0.2, 2)), shift=int(rng.integers(0, 2)))
        else:
            sched = AdaGradRate(float(rng.uniform(0.3, 2)), offset=float(rng.uniform(0, 1)))
        md = MirrorDescent(n, sched, lam=lam)
        twin = MdAsFtrl(n, sched, lam=lam)
        for _ in range(int(rng.integers(5, 60))):
            g = rng.normal(size=n)
            assert np.max(np.abs(md.step(g) - twin.step(g))) <= 1e-8


def test_oscillation_on_the_adversary():
    out = repro_l1_example()
    for t, x_md, _ in out.rows[1:]:
        assert abs(x_md) == pytest.approx(2.625, abs=1e-12)


class TestProjectionFamilies:
    """Lazy projection is DualAveraging, greedy projection MirrorDescent, at a constant rate."""

    FAMILIES = {
        "lazy": lambda rate, fset: DualAveraging(2, rate, fset),
        "greedy": lambda rate, fset: MirrorDescent(2, rate, feasible_set=fset),
    }

    def test_interior_trajectories_coincide(self):
        rng = np.random.default_rng(7)
        fset = FeasibleSet.l2_ball(50.0)  # big enough that projection never binds
        lazy = DualAveraging(2, ConstantRate(0.1), fset)
        greedy = MirrorDescent(2, ConstantRate(0.1), feasible_set=fset)
        g_sum = np.zeros(2)
        for _ in range(20):
            g = rng.normal(size=2)
            g_sum += g
            want = -0.1 * g_sum
            assert np.allclose(lazy.step(g), want, atol=1e-12)
            assert np.allclose(greedy.step(g), want, atol=1e-12)

    def test_crafted_divergence_at_round_three(self):
        lazy = DualAveraging(1, ConstantRate(1.0), FeasibleSet.box(1.0))
        greedy = MirrorDescent(1, ConstantRate(1.0), feasible_set=FeasibleSet.box(1.0))
        assert lazy.step([2.0])[0] == -1.0 and greedy.step([2.0])[0] == -1.0
        x3_lazy = lazy.step([-2.0])[0]
        x3_greedy = greedy.step([-2.0])[0]
        assert x3_lazy == 0.0
        assert x3_greedy == 1.0
        assert abs(x3_lazy - x3_greedy) == 1.0

    def test_zero_gradients_stay_put(self):
        for make in self.FAMILIES.values():
            learner = make(ConstantRate(0.5), FeasibleSet.l2_ball(1.0))
            for _ in range(5):
                assert np.allclose(learner.step([0.0, 0.0]), 0.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_a_rate_that_is_not_positive_and_finite_is_rejected(self, family, eta):
        with pytest.raises(ValueError, match="eta > 0"):
            self.FAMILIES[family](ConstantRate(eta), FeasibleSet.box(1.0))

    @pytest.mark.parametrize("family", [suites._lazy_family, suites._greedy_family],
                             ids=["lazy", "greedy"])
    def test_restatements_agree_on_random_ball_streams(self, family):
        rng = np.random.default_rng(8)
        for _ in range(30):
            eta = float(rng.uniform(0.1, 1.0))
            fset = FeasibleSet.l2_ball(float(rng.uniform(0.2, 1.0)))
            members = family(2, eta, fset)
            for _ in range(25):
                g = rng.normal(size=2)
                xs = [step(g) for step in members]
                for x in xs[1:]:
                    assert np.max(np.abs(x - xs[0])) <= 1e-9

    # (family, index of the restatement, index of the learner) in the suite's lists
    RESTATEMENTS = {
        "lazy-projection": (suites._lazy_family, 0, 2),
        "lazy-explicit": (suites._lazy_family, 1, 2),
        "greedy-projection": (suites._greedy_family, 0, 2),
        "greedy-explicit": (suites._greedy_family, 1, 2),
        "greedy-accumulated": (suites._greedy_family, 3, 2),
    }
    SETS = {
        "unconstrained": lambda size: FeasibleSet.unconstrained(),
        "ball": FeasibleSet.l2_ball,
        "box": FeasibleSet.box,
    }

    @pytest.mark.parametrize("kind", list(SETS))
    @pytest.mark.parametrize("form", list(RESTATEMENTS))
    def test_each_restatement_tracks_its_learner_step_by_step(self, form, kind):
        family, member, learner = self.RESTATEMENTS[form]
        rng = np.random.default_rng(9)
        on_boundary = 0
        for _ in range(20):
            n = int(rng.integers(1, 4))
            eta = float(rng.uniform(0.1, 1.0))
            size = float(rng.uniform(0.2, 1.0))
            fset = self.SETS[kind](size)
            steps = family(n, eta, fset)
            for _ in range(25):
                g = rng.normal(size=n)
                x_form, x_learner = steps[member](g), steps[learner](g)
                assert np.max(np.abs(x_form - x_learner)) <= 1e-9
                reach = np.linalg.norm(x_learner) if kind == "ball" else np.max(np.abs(x_learner))
                on_boundary += reach >= size - 1e-12
        # a bounded set must bind on these streams, or the projection went untested
        assert kind == "unconstrained" or on_boundary > 0

    def test_the_accumulated_form_without_its_indicator_subgradient_fails_the_suite(
            self, monkeypatch):
        # Dropping g_ind turns the greedy accumulated form into the lazy update,
        # so the suite's restatements must catch it: they are not the learners.
        greedy_family = suites._greedy_family

        def greedy_without_indicator(n, eta, fset):
            accum = np.zeros(n)

            def accumulated(g):
                nonlocal accum
                accum = accum + g
                return fset.project(-eta * accum)

            return greedy_family(n, eta, fset)[:-1] + [accumulated]

        monkeypatch.setattr(suites, "_greedy_family", greedy_without_indicator)
        result = suites.suite_projection_families()
        assert len(result.failures) == 1
        label = result.failures[0]
        assert label.startswith("within-family formulations agree on 100 ball streams")
        assert float(label.rsplit("max gap ", 1)[1].rstrip(")")) > 1e-9
