"""A caller's write into a returned iterate must not change the learner's state.

``step`` returns the learner's own array without a copy, and the next step
reads it back as x_prev, so every learner family publishes it read-only.
"""

import numpy as np
import pytest

from ocokit.core import AdaGradRate, ConstantRate, FeasibleSet, InverseSqrtRate
from ocokit.learners import (
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    StronglyConvexOgd,
)
from ocokit.mirror import GreedyProjection, LazyProjection, MdAsFtrl, MirrorDescent

BALL = FeasibleSet.l2_ball(0.8)
BOX = FeasibleSet.box(0.5)

LEARNERS = {
    "dual-averaging-ball": lambda: DualAveraging(2, InverseSqrtRate(0.7, shift=1), BALL),
    "ftrl-proximal-ball": lambda: FtrlProximal(2, ConstantRate(0.5), BALL),
    "ftrl-proximal-adagrad-box": lambda: FtrlProximal(2, AdaGradRate(0.7), BOX),
    "ftrl-composite-l1": lambda: FtrlCompositeL1(2, ConstantRate(0.5), 0.05),
    "entropic": lambda: EntropicFtrl(2, 1.0),
    "strongly-convex-ogd": lambda: StronglyConvexOgd(2),
    "mirror-descent-l1": lambda: MirrorDescent(2, ConstantRate(0.3), lam=0.1),
    "mirror-descent-ball": lambda: MirrorDescent(2, ConstantRate(0.5), feasible_set=BALL),
    "md-as-ftrl": lambda: MdAsFtrl(2, ConstantRate(0.3), lam=0.1),
}
for _variant in LazyProjection.VARIANTS:
    LEARNERS[f"lazy-{_variant}"] = lambda v=_variant: LazyProjection(0.5, BALL, v)
for _variant in GreedyProjection.VARIANTS:
    LEARNERS[f"greedy-{_variant}"] = lambda v=_variant: GreedyProjection(0.5, BALL, v)

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
