"""Losses as data: the loss-column evaluator against the per-round forms.

``streams.loss_column`` evaluates a whole run's losses at once, and
``run_rounds`` calls it once for f_t(x_t) and once for f_t(x*).  Each value
must equal, bit for bit, both the event's own ``loss_at`` and the per-round
formula the closures computed before losses became data (``_REFERENCE``).
"""

import math

import numpy as np
import pytest

from ocokit.bounds import BoundRule
from ocokit.core import (
    ConstantRate,
    FeasibleSet,
    _negative_entropy_rows,
    negative_entropy,
)
from ocokit.driver import run_rounds
from ocokit.learners import BoundConfig, DualAveraging, FtrlCompositeL1, StronglyConvexOgd
from ocokit.streams import (
    LINEAR,
    LOGISTIC,
    QUADRATIC,
    L1AdversaryStream,
    LogisticStream,
    RandomLinearStream,
    StreamEvent,
    StronglyConvexQuadraticStream,
    loss_column,
)

DIMS = (1, 3, 5, 50, 1000, 10_000)

_REFERENCE = {
    LINEAR: lambda ev, x: float(ev.param @ x),
    QUADRATIC: lambda ev, x: 0.5 * float(np.sum((x - ev.param) ** 2)),
    LOGISTIC: lambda ev, x: float(np.logaddexp(0.0, -float(np.dot(ev.param, x)))
                                  + (1.0 - ev.label) * float(np.dot(ev.param, x))),
}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _stream(kind, n, T, seed):
    if kind == "linear-l2":
        return RandomLinearStream(seed, n, 1.0, "l2")
    if kind == "linear-sup":
        return RandomLinearStream(seed, n, 1.0, "sup")
    if kind == "adversary":
        return L1AdversaryStream(11.0, 0.5)
    if kind == "quadratic":
        return StronglyConvexQuadraticStream(seed, n)
    return LogisticStream.synthetic(seed, n, T, density=0.3)


CASES = [(kind, n) for kind in ("linear-l2", "linear-sup", "quadratic", "logistic")
         for n in DIMS] + [("adversary", 1)]


@pytest.mark.parametrize("kind,n", CASES, ids=[f"{k}-{n}" for k, n in CASES])
def test_column_equals_per_round_loss_at_bit_for_bit(kind, n):
    T = 12 if n >= 1000 else 40
    rng = np.random.default_rng(n)
    stream = _stream(kind, n, T, seed=n + 1)
    X = rng.standard_normal((T, n)) * 2.0
    x_star = rng.standard_normal(n)
    events = [stream.event(t, X[t - 1]) for t in range(1, T + 1)]
    family = events[0].family
    assert all(ev.family == family for ev in events)
    if family == LINEAR:
        params = np.array([ev.g for ev in events])
        assert all(ev.param is ev.g for ev in events)
    else:
        params = [ev.param for ev in events]
    labels = [ev.label for ev in events]

    column = loss_column(family, params, X, labels)
    at_star = loss_column(family, params, x_star, labels)
    reference = _REFERENCE[family]
    for values, points in ((column, X), (at_star, [x_star] * T)):
        assert values.shape == (T,)
        per_round = [ev.loss_at(x) for ev, x in zip(events, points)]
        assert np.array_equal(_bits(values), _bits(per_round))
        assert np.array_equal(_bits(values), _bits([reference(ev, x)
                                                    for ev, x in zip(events, points)]))


def test_logistic_events_hand_out_the_stream_rows():
    stream = LogisticStream.synthetic(2, 7, 5)
    events = [stream.event(t, np.zeros(7)) for t in range(1, 6)]
    assert all(ev.param is a for ev, (a, _) in zip(events, stream.examples))
    assert [ev.label for ev in events] == [float(y) for _, y in stream.examples]


@pytest.mark.parametrize("make", [
    lambda n: (DualAveraging(n, ConstantRate(0.2)), RandomLinearStream(4, n, 1.0),
               BoundRule.GENERAL_FTRL, FeasibleSet.l2_ball(1.0)),
    lambda n: (StronglyConvexOgd(n), StronglyConvexQuadraticStream(4, n),
               BoundRule.STRONGLY_CONVEX_LOG, None),
    lambda n: (FtrlCompositeL1(n, ConstantRate(0.2), 0.05), LogisticStream.synthetic(4, n, 30),
               BoundRule.COMPOSITE, FeasibleSet.l2_ball(1.0)),
], ids=["linear", "quadratic", "logistic"])
def test_run_rounds_losses_are_the_per_round_losses(make):
    n, T = 4, 30
    learner, stream, rule, comp = make(n)
    result = run_rounds(learner, stream, T, rule, BoundConfig(R=1.0, G=2.0), comp)
    _, replay, _, _ = make(n)
    events = [replay.event(t, x) for t, x in enumerate(result.trace.iterates, start=1)]
    assert np.array_equal(_bits(result.record.loss),
                          _bits([ev.loss_at(x) for ev, x in zip(events, result.trace.iterates)]))
    assert np.array_equal(_bits(result.record.comp_loss),
                          _bits([ev.loss_at(result.x_star) for ev in events]))


def test_zero_rounds_give_empty_columns():
    result = run_rounds(DualAveraging(2, ConstantRate(0.5)), RandomLinearStream(0, 2, 1.0), 0)
    assert result.record.loss.shape == result.record.comp_loss.shape == (0,)


# ---------------------------------------------------------------------------
# Validation where data enters
# ---------------------------------------------------------------------------

class _NonFiniteLearner:
    """A test-only learner whose iterate is nan for one round, finite otherwise."""

    reg_kind = "none"
    lam = 0.0

    def __init__(self, dim, bad_round):
        self.dim, self.t, self.bad_round = dim, 0, bad_round
        self.x = np.zeros(dim)
        self.feasible_set = FeasibleSet.l2_ball(1.0)
        self.last_inv_rate = np.zeros(dim)

    def step(self, g):
        self.t += 1
        self.x = np.full(self.dim, math.nan if self.t + 1 == self.bad_round else 0.1)
        return self.x


class _NonFiniteComparatorStream(StronglyConvexQuadraticStream):
    """Quadratic events with an inf center, so x*, the mean center, is inf; g stays finite."""

    def event(self, t, x_t):
        return StreamEvent(t, np.ones(self.dim), QUADRATIC, np.full(self.dim, math.inf))


def test_a_non_finite_iterate_makes_run_rounds_raise():
    with pytest.raises(ValueError, match="point has non-finite coordinates"):
        run_rounds(_NonFiniteLearner(3, bad_round=4), RandomLinearStream(1, 3, 1.0), 8)


def test_a_non_finite_comparator_makes_run_rounds_raise():
    with pytest.raises(ValueError, match="point has non-finite coordinates"):
        run_rounds(StronglyConvexOgd(2), _NonFiniteComparatorStream(1, 2), 8)


def test_a_stream_that_changes_loss_family_is_rejected():
    class Mixed(RandomLinearStream):
        def event(self, t, x_t):
            ev = super().event(t, x_t)
            return ev if t < 3 else StreamEvent(t, ev.g, QUADRATIC, ev.g)

    with pytest.raises(ValueError, match="loss family"):
        run_rounds(DualAveraging(2, ConstantRate(0.5)), Mixed(0, 2, 1.0), 5)


def test_loss_at_validates_its_point():
    ev = RandomLinearStream(0, 3, 1.0).event(1, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        ev.loss_at([0.0, math.nan, 0.0])
    with pytest.raises(ValueError, match="expected dim 3"):
        ev.loss_at([0.0, 1.0])


def test_logistic_stream_validates_examples_at_construction():
    with pytest.raises(ValueError, match="non-finite"):
        LogisticStream([(np.array([1.0, math.inf]), 1)], 2)
    with pytest.raises(ValueError, match="expected dim 2"):
        LogisticStream([(np.array([1.0, 0.0, 2.0]), 0)], 2)
    with pytest.raises(ValueError, match="label"):
        LogisticStream([(np.array([1.0, 0.0]), math.nan)], 2)


# ---------------------------------------------------------------------------
# Entropic stability terms: negative entropy row by row
# ---------------------------------------------------------------------------

def _entropy_reference(x):
    pos = x[x > 0]
    return float(math.log(x.size) + np.sum(pos * np.log(pos)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 17, 50, 1000])
def test_negative_entropy_rows_equal_the_per_row_call(n):
    rng = np.random.default_rng(n)
    X = rng.dirichlet(np.ones(n), size=20)
    X[3] = np.zeros(n)
    X[3][0] = 1.0
    X[5][rng.random(n) < 0.3] = 0.0  # zeros drop out of the sum (0 log 0 = 0)
    want = [_entropy_reference(x) for x in X]
    assert np.array_equal(_bits(_negative_entropy_rows(X)), _bits(want))
    assert np.array_equal(_bits([negative_entropy(x) for x in X]), _bits(want))


def test_negative_entropy_rows_reject_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        _negative_entropy_rows(np.array([[0.5, 0.5], [1.5, -0.5]]))
    with pytest.raises(ValueError, match="nonnegative"):
        negative_entropy([1.5, -0.5])
