"""Infinite per-coordinate rates through ``run_rounds``: finite accounting or a typed error.

Under ``AdaGradRate(scale, offset=0)`` a coordinate's inverse rate is 0, its
rate infinite, until its first nonzero gradient.  Each run below feeds
gradients whose coordinates start with runs of exact zeros and keep some
zeros after, so the trace holds inverse rates of 0 beside positive ones.
The run must end with a finite bound, a finite decomposition, and both
checks true, or raise ``ValueError`` (which ``UnsupportedCombination`` is).
Mirror descent on a box or a ball has no decomposition yet (a +inf column,
ROADMAP item 5), so only its bound is required finite there.  pytest turns
numpy's ``RuntimeWarning`` into an error, so a division by a zero rate that
numpy reports fails here too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocokit.bounds import BoundRule
from ocokit.core import AdaGradRate, FeasibleSet
from ocokit.driver import run_rounds
from ocokit.learners import PROXIMAL, BoundConfig, FtrlCompositeL1, FtrlProximal
from ocokit.mirror import MdAsFtrl, MirrorDescent
from ocokit.streams import LINEAR, StreamEvent

BALL, BOX = FeasibleSet.l2_ball(1.0), FeasibleSet.box(1.0)


def _adagrad():
    return AdaGradRate(1.0, offset=0.0)


# learner, bound rule and comparator set of each run
RUNS = {
    "prox-box": (lambda n: FtrlProximal(n, _adagrad(), BOX), BoundRule.FTRL_PROXIMAL, BOX),
    "prox-ball": (lambda n: FtrlProximal(n, _adagrad(), BALL), BoundRule.FTRL_PROXIMAL, BALL),
    "composite-box": (lambda n: FtrlCompositeL1(n, _adagrad(), 0.1, centering=PROXIMAL,
                                                feasible_set=BOX), BoundRule.COMPOSITE, BOX),
    "md": (lambda n: MirrorDescent(n, _adagrad(), lam=0.1), BoundRule.MIRROR_DESCENT, BALL),
    "md-box": (lambda n: MirrorDescent(n, _adagrad(), lam=0.1, feasible_set=BOX),
               BoundRule.MIRROR_DESCENT, BOX),
    "md-ball": (lambda n: MirrorDescent(n, _adagrad(), feasible_set=BALL),
                BoundRule.MIRROR_DESCENT, BALL),
    "md-as-ftrl": (lambda n: MdAsFtrl(n, _adagrad(), lam=0.1), BoundRule.MIRROR_DESCENT, BALL),
}
NO_DECOMPOSITION = {"md-box", "md-ball"}


class _Replay:
    """Linear losses with the given gradient rows, round by round."""

    def __init__(self, grads):
        self.grads, self.dim = grads, grads.shape[1]

    def event(self, t, x_t):
        g = self.grads[t - 1]
        return StreamEvent(g, LINEAR, g)


@st.composite
def _gradients(draw):
    """(T, n) rows: each coordinate is exactly 0 until its own first round, then sometimes."""
    n, T = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    starts = draw(st.lists(st.integers(0, T), min_size=n, max_size=n))
    entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
    grads = draw(arrays(float, (T, n), elements=entries))
    grads[np.arange(T)[:, None] < np.array(starts)] = 0.0
    return grads


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(RUNS)), grads=_gradients())
def test_a_run_with_infinite_rates_accounts_finitely_or_raises_a_typed_error(name, grads):
    make, rule, comparator_set = RUNS[name]
    try:
        result = run_rounds(make(grads.shape[1]), _Replay(grads), grads.shape[0], rule,
                            BoundConfig(), comparator_set)
    except ValueError:  # UnsupportedCombination included
        return
    rec = result.record
    unseen = np.cumsum(grads != 0, axis=0) == 0  # no nonzero gradient through that round
    assert np.all(result.trace.inv_rates[unseen] == 0.0)
    assert np.all(np.isfinite(rec.bound))
    if name in NO_DECOMPOSITION:
        assert np.all(np.isinf(rec.strong_ftrl_rhs))
    else:
        assert np.all(np.isfinite(rec.strong_ftrl_rhs))
    assert result.bound_ok and result.decomposition_ok
