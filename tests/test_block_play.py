"""Block play of an oblivious stream against the round loop, bit for bit.

``driver._play`` draws a ``RandomLinearStream``'s gradients up front, in one
block, and hands them to ``OnlineLearner._play_rows``, which gives the
learner's ``_play_block`` cache-sized slices, several at the WIDE sizes.
``EntropicFtrl`` and the centered ``QuadraticFtrl`` learners compute every
iterate in array passes; proximal ``QuadraticFtrl`` and ``MirrorDescent``
compute every prefix in array passes and loop only the iterate recurrence,
one coordinate at a time on Python floats on a box or unconstrained up to
``learners._SCALAR_DIM`` coordinates (the measured crossover with the row
loop), and row by row past it or on the ball; both sides of that limit are
checked, with the other loop forbidden, and so are signed zeros, exact
threshold ties, overflows and infinite inverse rates, where Python floats and
numpy part ways unless the coordinate loop hands the block back to the row loop.
``MdAsFtrl`` and ``StronglyConvexOgd`` take the default block, the step loop.
A step or a block that raises leaves the learner as it was.  A subclass that
overrides ``event`` is played round by round, so it is the reference here.
Every ``RunTrace`` field, the ``RunResult``, the learner's end state and the
stream's next event must be the same bits either way, at every T.  None of
this depends on recorded digests, so it runs on every numpy the package
supports.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ocokit import cli
from ocokit.bounds import BoundRule, _dual_sq_rows, bound_curve
from ocokit.core import (
    GRAD_LIMIT,
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    LearningRateSchedule,
    UnsupportedCombination,
)
from ocokit.driver import _oblivious, _play, run_rounds
from ocokit.learners import (
    _SCALAR_DIM,
    PROXIMAL,
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
    StronglyConvexOgd,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent
from ocokit.streams import LINEAR, RandomLinearStream, StreamEvent, StronglyConvexQuadraticStream


class _RoundByRound(RandomLinearStream):
    """The same stream, played through ``event``: it overrides ``event`` and not ``gradients``."""

    def event(self, t, x_t):
        return super().event(t, x_t)


def _forbidden_step(g):
    raise AssertionError("a row-kernel learner was stepped one round at a time")


def _forbidden_loop(*args):
    raise AssertionError("a block ran the recurrence loop its set and dimension do not choose")


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, FeasibleSet):
        return type(b) is FeasibleSet and repr(a) == repr(b)
    return type(a) is type(b) and a == b


STATE = ("t", "x", "g_sum", "sq_sum", "sup_sq_sum", "last_inv_rate", "adj_sum", "g_psi_sum")


def assert_same_state(a, b):
    for name in STATE:
        assert hasattr(a, name) == hasattr(b, name), name
        if hasattr(a, name):
            assert _same(getattr(a, name), getattr(b, name)), name


def assert_same_trace(a, b):
    for f in dataclasses.fields(a):
        assert _same(getattr(a, f.name), getattr(b, f.name)), f.name


def assert_same_result(a, b):
    for f in dataclasses.fields(a.record):
        assert _same(getattr(a.record, f.name), getattr(b.record, f.name)), f.name
    for name in ("x_star", "x_final", "bound_ok", "decomposition_ok"):
        assert _same(getattr(a, name), getattr(b, name)), name
    assert_same_trace(a.trace, b.trace)


BOUNDS = {"dual-averaging": "da-closed-form", "constant-ogd": "non-adaptive",
          "ftrl-l1": "composite", "entropic": "entropic", "ftrl-proximal": "prox-closed-form",
          "adagrad-ftrl-proximal": "adagrad-per-coord", "md-l1": "mirror-descent"}
KERNEL = {"dual-averaging", "constant-ogd", "ftrl-l1", "entropic", "ftrl-proximal",
          "adagrad-ftrl-proximal", "md-l1"}
CONFIGS = [(learner, stream) for learner in BOUNDS
           for stream in ("random-linear", "random-linear-sup")]


def _build(learner, stream, T, seed):
    cfg = dict(cli._DEFAULTS, learner=learner, bound=BOUNDS[learner], stream=stream,
               T=T, seed=seed, n=3, **{"lambda": 0.1})
    if T == 0 and learner in ("constant-ogd", "ftrl-l1", "md-l1"):
        cfg["eta"] = 0.3  # the horizon rate R / (G sqrt(T)) needs T > 0
    return cli.build_run(cfg)


@pytest.mark.parametrize("T", [0, 1, 37, 10_000])
@pytest.mark.parametrize("learner,stream", CONFIGS, ids=[f"{a}-{b}" for a, b in CONFIGS])
def test_block_play_matches_the_round_loop_bit_for_bit(learner, stream, T):
    seed = 11 + T
    learner_a, stream_a, rule, cfg, comp_set = _build(learner, stream, T, seed)
    learner_b, stream_b, *_ = _build(learner, stream, T, seed)
    reference = _RoundByRound(seed, stream_b.dim, stream_b.G, stream_b.norm)
    assert _oblivious(stream_a) and not _oblivious(reference)
    if learner in KERNEL:
        learner_a.step = _forbidden_step
    got = run_rounds(learner_a, stream_a, T, rule, cfg, comp_set)
    want = run_rounds(learner_b, reference, T, rule, cfg, comp_set)
    assert_same_result(got, want)
    if learner in KERNEL:
        del learner_a.step
    assert_same_state(learner_a, learner_b)
    x = np.zeros(3)
    assert _same(stream_a.event(T + 1, x).g, reference.event(T + 1, x).g)
    assert _same(learner_a.step(stream_a.event(T + 2, x).g),
                 learner_b.step(reference.event(T + 2, x).g))


class _FirstCoordinateFree(LearningRateSchedule):
    """AdaGrad with offset 1 and inverse rate 0 on coordinate 0, written into its own result."""

    def inverse_rate(self, t, sq_sum=0.0):
        inv = np.sqrt(1.0 + np.asarray(sq_sum, dtype=float))
        inv[0] = 0.0
        return inv


class _RisingScalar(LearningRateSchedule):
    """A scalar rate that reads neither t's type nor the sums' shape: 1/eta_t = log(t + 2)."""

    reads_sq_sum = False

    def inverse_rate(self, t, sq_sum=0.0):
        assert type(t) is int and sq_sum is None
        return math.log(t + 2)


BALL, BOX = FeasibleSet.l2_ball(0.3), FeasibleSet.box(0.2)
LIBRARY = {
    "da-sqrt-ball": lambda n: DualAveraging(n, InverseSqrtRate(0.5, shift=1), BALL),
    "da-constant-box": lambda n: DualAveraging(n, ConstantRate(0.4), BOX),
    "da-adagrad-ball": lambda n: DualAveraging(n, AdaGradRate(0.5, offset=0.3), BALL),
    "da-adagrad-box": lambda n: DualAveraging(n, AdaGradRate(0.5, offset=0.3), BOX),
    "composite-adagrad-box": lambda n: FtrlCompositeL1(n, AdaGradRate(0.5, offset=1.0), 0.2,
                                                       feasible_set=BOX),
    "centered-first-free-box": lambda n: QuadraticFtrl(n, _FirstCoordinateFree(), BOX, lam=0.1),
    "centered-rising-scalar": lambda n: QuadraticFtrl(n, _RisingScalar(), lam=0.05),
    "entropic-wide": lambda n: EntropicFtrl(n, 0.8),
    "prox-sqrt-ball": lambda n: FtrlProximal(n, InverseSqrtRate(0.5), BALL),
    "prox-adagrad-ball": lambda n: FtrlProximal(n, AdaGradRate(0.5), BALL),
    "prox-adagrad-box": lambda n: FtrlProximal(n, AdaGradRate(0.5), BOX),
    "prox-first-free-box": lambda n: QuadraticFtrl(n, _FirstCoordinateFree(), BOX, PROXIMAL,
                                                   lam=0.1),
    "prox-constant": lambda n: QuadraticFtrl(n, ConstantRate(0.4), centering=PROXIMAL, lam=0.1),
    "prox-rising-scalar": lambda n: QuadraticFtrl(n, _RisingScalar(), centering=PROXIMAL,
                                                  lam=0.05),
    "md-constant": lambda n: MirrorDescent(n, ConstantRate(0.4), lam=0.1),
    "md-adagrad-box": lambda n: MirrorDescent(n, AdaGradRate(0.5, offset=0.3), 0.1, BOX),
    "md-adagrad-ball": lambda n: MirrorDescent(n, AdaGradRate(0.5, offset=0.3),
                                               feasible_set=BALL),
}


WIDE = 1100  # 2^14 // 1100 = 14 rows per slice: a 60-row block takes 5
# the scalar recurrences' limit and one past it, on the box and unconstrained
EDGES = (_SCALAR_DIM, _SCALAR_DIM + 1)
SIZES = [(name, n) for name in LIBRARY for n in (1, 2, 17, *EDGES, WIDE)
         if (n != 1 or not name.startswith("entropic"))  # the simplex needs n >= 2
         and (n not in EDGES or not name.endswith("ball") and not name.startswith("entropic"))]
# the per-row solve and the per-coordinate loop of each recurrence that has both
LOOPS = {"prox": ("_solve", "_proximal_columns"), "md": ("_next", "_columns")}


@pytest.mark.parametrize("name,n", SIZES, ids=[f"{a}-n{b}" for a, b in SIZES])
def test_row_kernels_match_their_steps_on_every_set_and_schedule(name, n):
    a, b = LIBRARY[name](n), LIBRARY[name](n)
    a.step = _forbidden_step
    loops = LOOPS.get(name.split("-")[0])
    if loops:  # up to _SCALAR_DIM off the ball the block never calls the row loop's solve
        scalar = n <= _SCALAR_DIM and not name.endswith("ball")
        forbidden = loops[0] if scalar else loops[1]
        setattr(a, forbidden, _forbidden_loop)
    G = 1.7 if n < WIDE else 30.0  # coordinates of order 1 at WIDE too, so the sets bind
    got = _play(a, RandomLinearStream(n, n, G), 60)
    want = _play(b, _RoundByRound(n, n, G), 60)
    assert_same_trace(got, want)
    del a.step
    assert_same_state(a, b)
    if name.endswith("ball"):
        assert np.any(np.linalg.norm(got.next_iterates, axis=1) >= BALL.radius * (1 - 1e-12))
    if name.endswith("box"):
        assert np.any(np.abs(got.next_iterates) == BOX.radius)
    # a second block continues from the first one's state
    assert_same_trace(_play(a, RandomLinearStream(5, n, G), 9),
                      _play(b, _RoundByRound(5, n, G), 9))
    assert_same_state(a, b)


TIES = {  # the scalar recurrences, with an infinite rate on coordinate 0
    "proximal": lambda lam, fs: QuadraticFtrl(4, _FirstCoordinateFree(), fs, PROXIMAL, lam=lam),
    "mirror-descent": lambda lam, fs: MirrorDescent(4, _FirstCoordinateFree(), lam, fs),
}


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("fs", [FeasibleSet.unconstrained(), BOX], ids=["unconstrained", "box"])
@pytest.mark.parametrize("name", list(TIES))
def test_signed_zeros_and_exact_ties_play_as_their_steps_bit_for_bit(name, fs, lam):
    # Coordinates 0 (inverse rate 0) and 1 start at 0 and sit on the threshold every
    # round: |b| = t lam for proximal FTRL's b = g_{1:t} - a_{1:t}, and |b| = lam for
    # mirror descent's b = g_t - w x_t.  Coordinates 2 and 3 see +-0.0 among other rows.
    T = 12
    rows = np.zeros((T, 4))
    rows[:, 0], rows[:, 1] = lam, -lam  # at lam = 0: +0.0 and -0.0
    rows[:, 2] = np.copysign(0.0, np.tile([1.0, -1.0], T // 2))
    rows[:, 3] = [-0.0, 1.75, 0.0, -4.0, -0.0, 3.0, -0.3, 0.0, -0.0, 2.0, -0.0, -0.5]
    learner, reference = TIES[name](lam, fs), TIES[name](lam, fs)
    learner.step = _forbidden_step
    setattr(learner, "_solve" if name == "proximal" else "_next", _forbidden_loop)
    got = _play(learner, _Rows(rows), T)
    want = _play(reference, _RowsRoundByRound(rows), T)
    assert_same_trace(got, want)
    assert got.next_iterates[:, :2].tobytes() == np.zeros((T, 2)).tobytes()
    assert np.any(got.next_iterates[:, 3] != 0.0)
    del learner.step
    assert_same_state(learner, reference)


RECURRENCES = {  # the two recurrences that carry x_t, on a box and unconstrained
    "prox-box": lambda n, rate: FtrlProximal(n, rate, FeasibleSet.box(1.0)),
    "prox-unconstrained": lambda n, rate: FtrlProximal(n, rate, FeasibleSet.unconstrained()),
    "md-box": lambda n, rate: MirrorDescent(n, rate, feasible_set=FeasibleSet.box(1.0)),
    "md-unconstrained": lambda n, rate: MirrorDescent(n, rate),
}


@pytest.mark.parametrize("warn", ["error", "ignore"])  # numpy's RuntimeWarning
@pytest.mark.parametrize("n", [2, _SCALAR_DIM + 1])  # the scalar recurrence; the row loop
@pytest.mark.parametrize("name", list(RECURRENCES))
def test_a_step_that_overflows_ends_block_play_as_it_ends_the_round_loop(name, n, warn):
    # 1 / eta = 1e-300 against gradients near 1e10: the soft threshold's quotient overflows
    streams = (RandomLinearStream(0, n, 1e10), _RoundByRound(0, n, 1e10))
    learners = [RECURRENCES[name](n, ConstantRate(1e300)) for _ in streams]
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        if warn == "ignore" and name.endswith("box"):  # the inf quotient clamps to a corner
            got, want = [_play(learner, stream, 5) for learner, stream in zip(learners, streams)]
            assert_same_trace(got, want)
            assert np.all(np.abs(got.next_iterates) == 1.0)
        else:  # round 1 raises numpy's warning, or the inf iterate _play's ValueError
            error, message = (RuntimeWarning, "overflow encountered in divide") \
                if warn == "error" else (ValueError, "point has non-finite coordinates")
            for learner, stream in zip(learners, streams):
                with pytest.raises(error, match=f"^{message}$"):
                    _play(learner, stream, 5)
    assert_same_state(*learners)


class _FirstCoordinateInfinite(LearningRateSchedule):
    """AdaGrad with offset 1 and inverse rate +inf on coordinate 0 from round ``start`` on."""

    def __init__(self, start):
        self.start = start

    def inverse_rate(self, t, sq_sum=0.0):
        inv = np.sqrt(1.0 + np.asarray(sq_sum, dtype=float))
        if t >= self.start:
            inv[0] = math.inf
        return inv


@pytest.mark.parametrize("warn", ["error", "ignore"])  # numpy's RuntimeWarning
@pytest.mark.parametrize("start", [4, 0])  # mid-run; from the learner's first rate on
@pytest.mark.parametrize("n", [2, _SCALAR_DIM, _SCALAR_DIM + 1])  # scalar, scalar, row loop
@pytest.mark.parametrize("name", list(RECURRENCES))
def test_an_infinite_rate_ends_block_play_as_it_ends_the_round_loop(name, n, start, warn):
    # The step meets inf * 0, inf / inf or inf - inf: numpy's warning, or a nan iterate
    # that _play rejects.  The scalar recurrence hands the block back to the row loop,
    # which takes sigma_t as the step does, so the first such operation raises first.
    streams = (RandomLinearStream(3, n, 1.0), _RoundByRound(3, n, 1.0))
    learners = [RECURRENCES[name](n, _FirstCoordinateInfinite(start)) for _ in streams]
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        for learner, stream in zip(learners, streams):
            with pytest.raises((ValueError, RuntimeWarning)) as error:
                _play(learner, stream, 9)
            errors.append((type(error.value), str(error.value)))
    assert errors[0] == errors[1]
    if warn == "ignore":  # both played every round; a block that raises restores the learner
        assert_same_state(*learners)


def test_the_entropic_rate_squares_each_sup_norm_as_its_bound_does():
    # At this seed a running sum of libm pow squares, v ** 2 on Python floats, ends an
    # ulp away from the sum of the products v * v that np.square computes.
    learner = EntropicFtrl(3, 1.0)
    trace = _play(learner, RandomLinearStream(2296, 3, 1.0), 37)
    sup_sq = np.square(np.max(np.abs(trace.grads), axis=1))  # what the bounds square
    sums = np.cumsum(sup_sq)
    assert sum(float(v) ** 2 for v in np.max(np.abs(trace.grads), axis=1)) != sums[-1]
    assert learner.sup_sq_sum == sums[-1]
    rates = AdaGradRate(math.sqrt(math.log(3)), offset=1.0).inverse_rate(0, sums)
    assert _same(trace.inv_rates, np.repeat(rates[:, None], 3, axis=1))
    # bound_curve(ENTROPIC) reads the same sums of round t - 1, _dual_sq_rows the squares
    log_n = math.log(3)
    prior = np.concatenate([[0.0], sums[:-1]])
    want = np.minimum(2.0 * np.sqrt((1.0 + prior) * log_n),
                      2.0 * np.sqrt(np.arange(1.0, 38.0) * log_n))
    got = bound_curve(BoundRule.ENTROPIC, BoundConfig(G_inf=1.0), trace.grads)
    assert _same(got, want)
    assert _same(_dual_sq_rows(trace.grads, trace.inv_rates, sup=True), sup_sq / rates)


class _Rows:
    """An oblivious linear stream that plays the rows of a fixed array, one block or row at a time."""

    def __init__(self, rows):
        self.rows, self.dim, self.next = rows, rows.shape[1], 0

    def gradients(self, T):
        out = self.rows[self.next:self.next + T].copy()
        self.next += T
        return out

    def event(self, t, x_t):
        g = self.gradients(1)[0]
        return StreamEvent(g, LINEAR, g)


class _RowsRoundByRound(_Rows):
    def event(self, t, x_t):
        return super().event(t, x_t)


LEARNERS = {
    "dual-averaging": lambda: DualAveraging(2, InverseSqrtRate(0.5, shift=1)),
    "composite-l1": lambda: FtrlCompositeL1(2, ConstantRate(0.4), 0.1),
    "da-adagrad-box": lambda: DualAveraging(2, AdaGradRate(0.5, offset=0.3), BOX),
    "entropic": lambda: EntropicFtrl(2, 1.0),
    "prox-adagrad-box": lambda: FtrlProximal(2, AdaGradRate(0.5), BOX),
    "mirror-descent": lambda: MirrorDescent(2, AdaGradRate(0.5, offset=0.3), 0.1),
    "md-as-ftrl": lambda: MdAsFtrl(2, AdaGradRate(0.5, offset=0.3), 0.1),
    "strongly-convex-ogd": lambda: StronglyConvexOgd(2),
}
BAD_ROWS = {  # (row, the round that rejects it, whether only a kept squared sum rejects it)
    "nan": ([0.3, math.nan], 7, False),
    "inf": ([-math.inf, 0.1], 7, False),
    "grad-limit": ([0.2, -GRAD_LIMIT], 7, False),
    # from round 1 on: the fifth square of 2^510 takes the running sum past 2^1022
    "sum-limit": ([2.0 ** 510, 0.0], 5, True),
}
NON_FINITE_ONLY = ("strongly-convex-ogd",)  # keeps no squared sum and no gradient limit
CASES = [(name, bad) for name in LEARNERS for bad, (_, _, sums) in BAD_ROWS.items()
         if (not sums or name not in ("dual-averaging", "composite-l1"))
         and (bad in ("nan", "inf") or name not in NON_FINITE_ONLY)]


@pytest.mark.parametrize("name,bad", CASES, ids=[f"{a}-{b}" for a, b in CASES])
def test_a_rejected_row_raises_the_loop_error_before_any_state_moves(name, bad):
    row, k, sums = BAD_ROWS[bad]
    rows = np.tile([[0.5, -0.25]], (9, 1))
    if sums:
        rows[:k] = row
    else:
        rows[k - 1] = row
    looped = LEARNERS[name]()
    with pytest.raises(ValueError) as loop_error:
        _play(looped, _RowsRoundByRound(rows), len(rows))
    assert looped.t == k - 1
    learner, fresh = LEARNERS[name](), LEARNERS[name]()
    with pytest.raises(ValueError) as block_error:
        _play(learner, _Rows(rows), len(rows))
    assert type(block_error.value) is type(loop_error.value)
    assert str(block_error.value) == str(loop_error.value)
    assert_same_state(learner, fresh)


FREE_FIRST = {  # unconstrained, so an infinite rate with an active linear term is unbounded
    "proximal": lambda n: QuadraticFtrl(n, _FirstCoordinateFree(), centering=PROXIMAL, lam=0.5),
    "mirror-descent": lambda n: MirrorDescent(n, _FirstCoordinateFree(), lam=0.5),
}


@pytest.mark.parametrize("n", [2, 2 ** 13 + 1])  # one slice; one row per slice
@pytest.mark.parametrize("name", list(FREE_FIRST))
def test_a_solve_that_raises_mid_block_leaves_the_learner_as_it_was(name, n):
    rows = np.full((9, n), 0.5)
    rows[:, 0] = 0.1
    rows[5, 0] = 3.0  # round 6 makes coordinate 0's linear term exceed the penalty
    looped = FREE_FIRST[name](n)
    with pytest.raises(UnsupportedCombination) as loop_error:
        _play(looped, _RowsRoundByRound(rows), len(rows))
    assert looped.t == 5  # the step that raised moved nothing
    stepped = FREE_FIRST[name](n)
    for g in rows[:5]:
        stepped.step(g)
    assert_same_state(looped, stepped)
    learner, fresh = FREE_FIRST[name](n), FREE_FIRST[name](n)
    learner.step = _forbidden_step
    with pytest.raises(UnsupportedCombination) as block_error:
        _play(learner, _Rows(rows), len(rows))
    assert type(block_error.value) is type(loop_error.value)
    assert str(block_error.value) == str(loop_error.value)
    del learner.step
    assert_same_state(learner, fresh)


class _DuckLearner:
    """Every attribute the round loop reads, on a class that is not an ``OnlineLearner``."""

    dim, lam, reg_kind = 2, 0.0, "none"
    feasible_set = FeasibleSet.unconstrained()

    def __init__(self):
        self.x, self.last_inv_rate = np.zeros(2), np.ones(2)

    def step(self, g):
        self.x = self.x - g
        return self.x


@pytest.mark.parametrize("stream", [StronglyConvexQuadraticStream(0, 2),
                                    RandomLinearStream(0, 2, 1.0)],
                         ids=["round-by-round", "oblivious"])
def test_a_learner_that_is_not_an_online_learner_is_refused_on_every_stream(stream):
    learner = _DuckLearner()
    with pytest.raises(TypeError, match="OnlineLearner"):
        _play(learner, stream, 4)
    assert np.array_equal(learner.x, np.zeros(2))
