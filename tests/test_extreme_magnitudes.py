"""Extreme magnitudes, zero gradients and n = 1: a finite, feasible answer or a typed error.

Every learner is stepped on gradients whose entries range over
+-10^[-300, 300] and 0.  Each step must either return a finite iterate
inside the learner's feasible set, or raise ``ValueError`` (which
``UnsupportedCombination`` is); the run stops at the first error.  pytest
turns numpy's ``RuntimeWarning`` (overflow, invalid, divide) into an error,
so an overflow that numpy reports fails here too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocokit import core
from ocokit.core import (
    GRAD_LIMIT,
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    project_l2_ball,
)
from ocokit.driver import _play
from ocokit.learners import (
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    StronglyConvexOgd,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent

BALL, BOX = FeasibleSet.l2_ball(1.0), FeasibleSet.box(1.0)

LEARNERS = {
    "da-constant": lambda n: DualAveraging(n, ConstantRate(0.3)),
    "da-constant-ball": lambda n: DualAveraging(n, ConstantRate(0.3), BALL),
    "da-constant-box": lambda n: DualAveraging(n, ConstantRate(0.3), BOX),
    "da-sqrt-ball": lambda n: DualAveraging(n, InverseSqrtRate(0.5, shift=1), BALL),
    "da-adagrad-box": lambda n: DualAveraging(n, AdaGradRate(1.0, offset=0.5), BOX),
    "prox-constant-ball": lambda n: FtrlProximal(n, ConstantRate(0.3), BALL),
    "prox-adagrad-box": lambda n: FtrlProximal(n, AdaGradRate(1.0), BOX),
    "prox-adagrad-ball": lambda n: FtrlProximal(n, AdaGradRate(1.0), BALL),
    "composite-l1": lambda n: FtrlCompositeL1(n, ConstantRate(0.3), 0.1),
    "composite-l1-adagrad-box": lambda n: FtrlCompositeL1(n, AdaGradRate(1.0), 0.1,
                                                          centering="proximal",
                                                          feasible_set=BOX),
    "md-l1": lambda n: MirrorDescent(n, ConstantRate(0.3), lam=0.1),
    "md-adagrad-box": lambda n: MirrorDescent(n, AdaGradRate(1.0), lam=0.1, feasible_set=BOX),
    "md-adagrad-ball": lambda n: MirrorDescent(n, AdaGradRate(1.0), feasible_set=BALL),
    "md-constant-ball": lambda n: MirrorDescent(n, ConstantRate(0.3), feasible_set=BALL),
    "md-constant-box": lambda n: MirrorDescent(n, ConstantRate(0.3), feasible_set=BOX),
    "md-as-ftrl": lambda n: MdAsFtrl(n, ConstantRate(0.3), lam=0.1),
    "md-as-ftrl-adagrad": lambda n: MdAsFtrl(n, AdaGradRate(1.0), lam=0.1),
    "entropic": lambda n: EntropicFtrl(max(n, 2), 1.0),
    "strongly-convex": lambda n: StronglyConvexOgd(n),
}

_entries = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-300.0, max_value=300.0))
    .map(lambda p: p[0] * 10.0 ** p[1]),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(LEARNERS)), n=st.integers(1, 3), data=st.data())
def test_every_learner_gives_a_finite_feasible_iterate_or_a_typed_error(name, n, data):
    learner = LEARNERS[name](n)
    dim, feasible = learner.dim, learner.feasible_set
    steps = data.draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim),
                               min_size=1, max_size=8))
    for g in steps:
        try:
            x = learner.step(np.array(g))
        except ValueError:  # UnsupportedCombination included
            return
        assert np.all(np.isfinite(x))
        assert feasible.contains(x)


@pytest.mark.parametrize("make", [
    lambda: FtrlProximal(2, AdaGradRate(1.0), FeasibleSet.l2_ball(1.0)),
    lambda: DualAveraging(2, ConstantRate(0.5)),
    lambda: MirrorDescent(2, AdaGradRate(1.0)),
    lambda: MdAsFtrl(2, AdaGradRate(1.0), lam=0.1),
    lambda: EntropicFtrl(2, 1.0),
    lambda: FtrlProximal(2, InverseSqrtRate(1.0), FeasibleSet.l2_ball(1.0)),
    lambda: MirrorDescent(2, ConstantRate(0.5)),
], ids=["ftrl-proximal", "dual-averaging", "mirror-descent", "md-as-ftrl", "entropic",
        "ftrl-proximal-sqrt-no-sum", "mirror-descent-constant-no-sum"])
def test_a_gradient_past_the_squared_sum_limit_is_rejected_before_the_state_moves(make):
    learner = make()
    learner.step([0.5, -0.25])
    before = learner.x
    for g in ([1e200, 1.0], [GRAD_LIMIT, 0.0]):
        with pytest.raises(ValueError, match=r"2\^511"):
            learner.step(g)
        assert learner.t == 1 and learner.x is before
    x = learner.step([0.5 * GRAD_LIMIT, 0.0])  # just below the limit still steps
    assert np.all(np.isfinite(x))


class _Rows:
    """An oblivious linear stream of fixed rows, which ``_play`` takes in one block."""

    def __init__(self, rows):
        self.rows, self.dim = np.array(rows, dtype=float), len(rows[0])

    def gradients(self, T):
        return self.rows[:T].copy()

    def event(self, t, x_t):
        raise AssertionError("a fixed-row stream was played round by round")


@pytest.mark.parametrize("make", [
    lambda: FtrlProximal(2, AdaGradRate(1.0), BOX),
    lambda: MirrorDescent(2, AdaGradRate(1.0), feasible_set=BOX),
    lambda: EntropicFtrl(2, 1.0),  # its sum is of the squared sup norms
], ids=["ftrl-proximal", "mirror-descent", "entropic"])
def test_a_running_squared_sum_past_its_limit_is_rejected(make):
    g = [0.6 * GRAD_LIMIT, 0.0]  # each square is 0.36 of the sum's limit
    learner = make()
    learner.step(g)
    learner.step(g)
    x = learner.x
    with pytest.raises(ValueError, match=r"2\^1022 \(about 4\.5e307\); the sum reached ") as step:
        learner.step(g)
    assert learner.t == 2 and learner.x is x
    block = make()
    x = block.x
    with pytest.raises(ValueError) as play:  # the third row of one block
        _play(block, _Rows([g] * 3), 3)
    assert str(play.value) == str(step.value)
    assert block.t == 0 and block.x is x


def test_constants_that_join_a_squared_sum_are_limited_at_construction():
    with pytest.raises(ValueError, match=r"2\^511"):
        AdaGradRate(1.0, offset=1e200)
    with pytest.raises(ValueError, match=r"2\^511"):
        EntropicFtrl(2, 1e200)
    big = 0.5 * GRAD_LIMIT
    x = DualAveraging(2, AdaGradRate(1.0, offset=big), FeasibleSet.box(1.0)).step([big, 0.0])
    assert np.all(np.isfinite(x))
    assert np.all(np.isfinite(EntropicFtrl(2, big).step([big, 0.0])))


# ---------------------------------------------------------------------------
# The L2 ball at magnitudes whose squares overflow
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_ball_projection_and_membership_past_the_square_overflow():
    x = project_l2_ball([1e200, 1.0], 1.0)
    assert x[0] == 1.0 and 0.0 < x[1] <= 1e-200 * (1 + 1e-15)
    ball = FeasibleSet.l2_ball(1.0)
    assert not ball.contains([1e200, 1.0])
    assert ball.contains(x)
    assert np.array_equal(ball.project([1e200, 1.0]), x)
    huge = project_l2_ball([1.7e308, -1.7e308], 2.0)  # the norm itself exceeds the largest double
    assert np.allclose(huge, [math.sqrt(2.0), -math.sqrt(2.0)], rtol=1e-15)
    assert FeasibleSet.l2_ball(1e300).contains([1e300 / 2, 1e300 / 2])
    assert not FeasibleSet.l2_ball(1e300).contains([1e300, 1e300])
    comparator = ball.linear_minimizer([1e200, 1.0])  # best_comparator's ball case
    assert comparator[0] == -1.0 and -1e-200 * (1 + 1e-15) <= comparator[1] < 0.0


def test_ball_projection_common_path_is_unchanged():
    rng = np.random.default_rng(0)
    for n in (1, 3, 50):
        for scale in (1e-3, 1.0, 1e100):
            v = rng.standard_normal(n) * scale
            nrm = float(np.linalg.norm(v))
            want = v.copy() if nrm <= 1.0 else v * (1.0 / nrm)
            assert np.array_equal(project_l2_ball(v, 1.0), want)
            assert core._scaled_norm(v) == (nrm, 0)


def test_box_clamp_equals_np_clip_bit_for_bit():
    v = np.array([-0.0, 0.0, 1.0, -1.0, 1.0 + 2e-16, -3.0, 0.5, -0.5, 1e300, -1e-300])
    want = np.clip(v, -1.0, 1.0)
    assert np.array_equal(core.clamp_box(v, 1.0).view(np.int64), want.view(np.int64))
