"""``run_rounds`` on every learner: empty runs, penalty tangents by learner, and streams.

The run trace derives each round's penalty subgradient (``RunTrace.psi``) for any
learner whose penalty is ``linearized``, so mirror descent and its FTRL form,
the ``QuadraticFtrl`` preset ``MdAsFtrl``, must give the same run: the same
regret, bound and Strong FTRL decomposition.  The subgradients it reads must
be bit for bit the ones each step took.  A stream is used only through ``event``.
"""

import numpy as np
import pytest

from ocokit import cli
from ocokit.bounds import BoundRule, RunTrace
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    InvariantViolation,
    LearningRateSchedule,
    _psi_subgradient,
)
from ocokit.driver import run_rounds
from ocokit.learners import (
    NONE,
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
    StronglyConvexOgd,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent
from ocokit.streams import RandomLinearStream, StronglyConvexQuadraticStream

N = 3

LEARNERS = {
    "dual-averaging": lambda: DualAveraging(N, ConstantRate(0.5)),
    "ftrl-proximal": lambda: FtrlProximal(N, ConstantRate(0.5), FeasibleSet.l2_ball(1.0)),
    "ftrl-composite-l1": lambda: FtrlCompositeL1(N, ConstantRate(0.5), 0.1),
    "mirror-descent": lambda: MirrorDescent(N, ConstantRate(0.5), lam=0.1),
    "mirror-descent-box": lambda: MirrorDescent(N, ConstantRate(0.5), lam=0.1,
                                                feasible_set=FeasibleSet.box(1.0)),
    "md-as-ftrl": lambda: MdAsFtrl(N, ConstantRate(0.5), lam=0.1),
    "entropic": lambda: EntropicFtrl(N, 1.0),
    "strongly-convex-ogd": lambda: StronglyConvexOgd(N),
}
STREAMS = {
    "linear": lambda: RandomLinearStream(0, N, 1.0),
    "quadratic": lambda: StronglyConvexQuadraticStream(0, N),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_zero_rounds_give_an_empty_record_that_holds(learner, stream):
    result = run_rounds(LEARNERS[learner](), STREAMS[stream](), 0,
                        comparator_set=FeasibleSet.l2_ball(1.0))
    record = result.record
    assert len(record) == 0
    for column in (record.loss, record.comp_loss, record.cum_regret, record.bound,
                   record.strong_ftrl_rhs):
        assert column.shape == (0,)
    assert result.bound_ok and result.decomposition_ok


def test_md_as_ftrl_is_a_quadratic_ftrl_preset():
    twin = MdAsFtrl(N, ConstantRate(0.5), lam=0.1)
    assert isinstance(twin, QuadraticFtrl)
    assert "step" not in vars(MdAsFtrl)


SCHEDULES = {
    "constant": lambda: ConstantRate(0.4),
    "inverse-sqrt": lambda: InverseSqrtRate(0.8, shift=1),
    "adagrad": lambda: AdaGradRate(1.1, offset=0.5),
}


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(a))), 1e-300))


@pytest.mark.parametrize("sched", sorted(SCHEDULES))
@pytest.mark.parametrize("seed", range(4))
def test_mirror_descent_and_its_ftrl_form_give_the_same_run(sched, seed):
    T, lam = 60, 0.15
    results = []
    for cls in (MirrorDescent, MdAsFtrl):
        learner = cls(4, SCHEDULES[sched](), lam=lam)
        results.append(run_rounds(learner, RandomLinearStream(seed, 4, 1.0), T,
                                  BoundRule.MIRROR_DESCENT, BoundConfig(),
                                  FeasibleSet.l2_ball(1.0)))
    md, twin = results
    assert twin.trace.psi is not None
    for column in ("cum_regret", "bound", "strong_ftrl_rhs"):
        a, b = getattr(md.record, column), getattr(twin.record, column)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert _relative_gap(a, b) <= 1e-8, column
    assert md.decomposition_ok and twin.decomposition_ok
    assert md.bound_ok and twin.bound_ok


def _stepped_psi(learner, stream, T):
    """Each step's penalty subgradient, taken right after the step."""
    psi = np.empty((T, learner.dim))
    for t in range(1, T + 1):
        x_prev = learner.x
        event = stream.event(t, x_prev)
        learner.step(event.g)
        if isinstance(learner, MdAsFtrl):
            psi[t - 1] = learner.last_g_psi
        else:
            psi[t - 1] = _psi_subgradient(x_prev, learner.x, event.g, learner.last_inv_rate,
                                          learner.lam)
    return psi


# (5000, 13) runs the rows in blocks of 6: two full blocks and a remainder
@pytest.mark.parametrize("n, T", [(1, 0), (1, 1), (3, 60), (5, 1024), (5000, 13)])
@pytest.mark.parametrize("sched", sorted(SCHEDULES))
@pytest.mark.parametrize("cls", [MirrorDescent, MdAsFtrl], ids=["mirror-descent", "md-as-ftrl"])
def test_psi_from_the_trace_is_each_steps_own_bit_for_bit(cls, sched, n, T):
    lam = 0.3 / np.sqrt(n)  # about a coordinate's gradient: some zeros, some not
    result = run_rounds(cls(n, SCHEDULES[sched](), lam=lam), RandomLinearStream(7, n, 1.0), T,
                        comparator_set=FeasibleSet.l2_ball(1.0))
    want = _stepped_psi(cls(n, SCHEDULES[sched](), lam=lam), RandomLinearStream(7, n, 1.0), T)
    psi = result.trace.psi
    assert psi.shape == want.shape and psi.dtype == want.dtype
    assert psi.tobytes() == want.tobytes()


def test_comparator_off_the_simplex_gives_an_infinite_decomposition():
    # the strongly convex stream's x* is the mean center, here with a negative coordinate
    result = run_rounds(EntropicFtrl(3, 1.0), StronglyConvexQuadraticStream(0, 3), 40,
                        BoundRule.ENTROPIC, BoundConfig(G_inf=1.0))
    assert np.any(result.x_star < 0)
    assert np.all(result.record.strong_ftrl_rhs == np.inf)


class _UnknownObjective(DualAveraging):
    """Dual averaging that declares no known accumulated objective."""

    reg_kind = NONE


class _FallingRate(LearningRateSchedule):
    """1/eta_t = 1/(t + 1): the rate rises, so every sigma_t is negative."""

    def inverse_rate(self, t, sq_sum=0.0):
        return 1.0 / (t + 1)


def test_sigma_is_not_built_for_the_kinds_that_do_not_read_it(monkeypatch):
    def no_sigmas(self):
        raise AssertionError("sigma built for a kind that does not read it")

    monkeypatch.setattr(RunTrace, "sigmas", no_sigmas)
    stream = StronglyConvexQuadraticStream(0, N)
    result = run_rounds(StronglyConvexOgd(N), stream, 40, BoundRule.STRONGLY_CONVEX_LOG,
                        BoundConfig(G=stream.gradient_cap))
    assert result.bound_ok and result.decomposition_ok
    assert np.all(np.isfinite(result.record.strong_ftrl_rhs))
    unknown = run_rounds(_UnknownObjective(N, ConstantRate(0.5)), RandomLinearStream(0, N, 1.0),
                         20, comparator_set=FeasibleSet.l2_ball(1.0))
    assert np.all(unknown.record.strong_ftrl_rhs == np.inf)


def test_a_falling_inverse_rate_makes_run_rounds_raise():
    with pytest.raises(InvariantViolation, match="round 1, coordinate 0"):
        run_rounds(QuadraticFtrl(N, _FallingRate()), RandomLinearStream(0, N, 1.0), 5,
                   BoundRule.GENERAL_FTRL, comparator_set=FeasibleSet.l2_ball(1.0))


@pytest.mark.parametrize("stream_dim,learner_dim", [(3, 2), (1, 3)])
def test_a_stream_and_a_learner_of_different_sizes_make_run_rounds_raise(stream_dim,
                                                                        learner_dim):
    learner = DualAveraging(learner_dim, ConstantRate(0.5))
    with pytest.raises(ValueError, match=f"stream has dimension {stream_dim} but the "
                                         f"learner has dimension {learner_dim}"):
        run_rounds(learner, RandomLinearStream(0, stream_dim, 1.0), 4,
                   comparator_set=FeasibleSet.l2_ball(1.0))
    assert learner.t == 0  # raised before round 1


class _EventOnly:
    """A stream that has nothing but ``event`` and ``dim``; ``params`` gets each event's row."""

    __slots__ = ("dim", "event")

    def __init__(self, stream, dim, params):
        def event(t, x_t):
            ev = stream.event(t, x_t)
            params.append(ev.param)
            return ev

        self.dim, self.event = dim, event


@pytest.mark.parametrize("stream", cli.STREAMS)
def test_run_rounds_uses_a_stream_only_through_event(stream):
    n, T = (1 if stream == "l1-adversary" else 3), 40
    cfg = dict(cli._DEFAULTS, learner="ftrl-proximal", bound="ftrl-proximal", stream=stream,
               n=n, T=T, seed=4)
    learner, bare, rule, bc, comp_set = cli.build_run(dict(cfg))
    want = run_rounds(learner, bare, T, rule, bc, comp_set)
    learner, bare, rule, bc, comp_set = cli.build_run(dict(cfg))
    params = []
    got = run_rounds(learner, _EventOnly(bare, n, params), T, rule, bc, comp_set)
    for column in ("loss", "comp_loss", "cum_regret", "bound", "strong_ftrl_rhs"):
        assert getattr(got.record, column).tobytes() == getattr(want.record, column).tobytes()
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.x_final.tobytes() == want.x_final.tobytes()
    if stream == "strongly-convex":  # x* is the mean of the run's centers, bit for bit
        assert got.x_star.tobytes() == np.mean(params, axis=0).tobytes()
