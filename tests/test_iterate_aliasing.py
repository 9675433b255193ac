"""The learner contract, and a caller's write into a returned iterate.

Every learner class the package exports is an ``OnlineLearner`` that takes
its dimension first, rejects a gradient of any other size before its state
moves, and names by ``reg_kind`` a regularizer family that ``bounds`` knows.
``step`` returns the learner's own array without a copy, and the next step
reads it back as x_prev, so every learner family publishes it read-only: a
caller's write must not change the learner's state.
"""

import inspect

import numpy as np
import pytest

import ocokit
from ocokit.bounds import _FAMILIES, _family
from ocokit.core import AdaGradRate, ConstantRate, FeasibleSet, InverseSqrtRate
from ocokit.learners import (
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    OnlineLearner,
    QuadraticFtrl,
    StronglyConvexOgd,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent

BALL = FeasibleSet.l2_ball(0.8)
BOX = FeasibleSet.box(0.5)

LEARNERS = {
    "dual-averaging-ball": lambda: DualAveraging(2, InverseSqrtRate(0.7, shift=1), BALL),
    "dual-averaging-constant-ball": lambda: DualAveraging(2, ConstantRate(0.5), BALL),
    "dual-averaging-constant-box": lambda: DualAveraging(2, ConstantRate(0.5), BOX),
    "ftrl-proximal-ball": lambda: FtrlProximal(2, ConstantRate(0.5), BALL),
    "ftrl-proximal-adagrad-box": lambda: FtrlProximal(2, AdaGradRate(0.7), BOX),
    "ftrl-composite-l1": lambda: FtrlCompositeL1(2, ConstantRate(0.5), 0.05),
    "entropic": lambda: EntropicFtrl(2, 1.0),
    "strongly-convex-ogd": lambda: StronglyConvexOgd(2),
    "mirror-descent-l1": lambda: MirrorDescent(2, ConstantRate(0.3), lam=0.1),
    "mirror-descent-ball": lambda: MirrorDescent(2, ConstantRate(0.5), feasible_set=BALL),
    "mirror-descent-constant-box": lambda: MirrorDescent(2, ConstantRate(0.5), feasible_set=BOX),
    "md-as-ftrl": lambda: MdAsFtrl(2, ConstantRate(0.3), lam=0.1),
    "quadratic-ftrl-l1-box": lambda: QuadraticFtrl(2, AdaGradRate(0.7), BOX, "proximal", 0.05),
}

EXPORTED_LEARNERS = [obj for obj in vars(ocokit).values()
                     if inspect.isclass(obj) and callable(getattr(obj, "step", None))]

GRADS = [np.array([0.9, -0.4]), np.array([0.5, 0.7]), np.array([-0.3, 0.2]),
         np.array([0.6, 0.1])]


def trajectory(make, write):
    learner = make()
    points = []
    for g in GRADS:
        x = learner.step(g)
        points.append(np.array(x))
        if write:
            with pytest.raises(ValueError):
                x[:] = 0.0
    return np.array(points), learner.x


@pytest.mark.parametrize("name", list(LEARNERS))
def test_writing_into_the_returned_iterate_raises_and_changes_nothing(name):
    clean, clean_final = trajectory(LEARNERS[name], write=False)
    written, written_final = trajectory(LEARNERS[name], write=True)
    assert np.array_equal(clean, written)
    assert np.array_equal(clean_final, written_final)


@pytest.mark.parametrize("name", ["dual-averaging-ball", "mirror-descent-l1", "md-as-ftrl"])
def test_the_starting_point_is_read_only_too(name):
    learner = LEARNERS[name]()
    with pytest.raises(ValueError):
        learner.x[0] = 1.0


def test_the_table_covers_every_exported_learner_class():
    assert len(EXPORTED_LEARNERS) == 8
    assert {type(make()) for make in LEARNERS.values()} == set(EXPORTED_LEARNERS)


@pytest.mark.parametrize("cls", EXPORTED_LEARNERS, ids=lambda cls: cls.__name__)
def test_every_exported_learner_is_an_online_learner_that_takes_dim_first(cls):
    assert issubclass(cls, OnlineLearner)
    assert list(inspect.signature(cls).parameters)[0] == "dim"


@pytest.mark.parametrize("name", list(LEARNERS))
def test_every_learner_names_a_regularizer_family(name):
    kind = LEARNERS[name]().reg_kind
    assert type(kind) is str
    assert _family(kind) is _FAMILIES[kind]


@pytest.mark.parametrize("name", list(LEARNERS))
def test_a_gradient_of_the_wrong_size_raises_and_changes_nothing(name):
    learner = LEARNERS[name]()
    assert learner.dim == 2
    for steps in range(2):
        x = learner.x
        for g in ([0.1, 0.2, 0.3], [1.0]):
            with pytest.raises(ValueError, match="expected dim 2"):
                learner.step(g)
            assert learner.t == steps and learner.x is x
        learner.step(GRADS[steps])
