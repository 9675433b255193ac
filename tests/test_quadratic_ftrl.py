"""The quadratic FTRL solver against the per-coordinate scalar updates it replaced.

``_Reference`` and the two mirror references below are the earlier
implementations, kept verbatim in their arithmetic: dual averaging and
proximal FTRL divide -z by the inverse rate under a mask, the composite
learner and both mirror-descent forms call a scalar soft threshold once per
coordinate.  The new code must reproduce their iterates bit for bit.
"""

import math

import numpy as np
import pytest

from ocokit import core
from ocokit.core import (
    AdaGradRate,
    ConstantRate,
    FeasibleSet,
    InverseSqrtRate,
    LearningRateSchedule,
    UnsupportedCombination,
    _psi_subgradient,
    clamp_box,
    project_l2_ball,
    project_l2_ball_weighted,
)
from ocokit.learners import (
    CENTERED,
    PROXIMAL,
    DualAveraging,
    FtrlCompositeL1,
    FtrlProximal,
    QuadraticFtrl,
)
from ocokit.mirror import MdAsFtrl, MirrorDescent


def _scalar_soft_threshold(b, lam, a):
    if abs(b) <= lam:
        return 0.0
    return -(b - math.copysign(lam, b)) / a


def _inv(schedule, t, sq_sum, dim):
    return np.broadcast_to(np.asarray(schedule.inverse_rate(t, sq_sum), dtype=float),
                           (dim,)).copy()


class _Reference:
    """One round of DualAveraging / FtrlProximal / FtrlCompositeL1 as they were."""

    def __init__(self, kind, dim, schedule, feasible_set, lam=0.0, centering=CENTERED):
        self.kind, self.dim, self.schedule, self.fs = kind, dim, schedule, feasible_set
        self.lam = lam
        self.centering = PROXIMAL if kind == "proximal" else centering
        self.t = 0
        self.g_sum = np.zeros(dim)
        self.sq_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.x = np.zeros(dim)
        self.inv = _inv(schedule, 0, self.sq_sum, dim)

    def step(self, g):
        g = np.asarray(g, dtype=float)
        x_prev, prev_inv = self.x, self.inv
        lagged = self.centering == CENTERED and isinstance(self.schedule, AdaGradRate)
        if lagged:
            inv = _inv(self.schedule, self.t, self.sq_sum, self.dim)
        self.t += 1
        self.g_sum = self.g_sum + g
        self.sq_sum = self.sq_sum + g * g
        if not lagged:
            inv = _inv(self.schedule, self.t, self.sq_sum, self.dim)
        sigma = np.maximum(inv - prev_inv, 0.0)
        if self.centering == PROXIMAL:
            self.adj_sum = self.adj_sum + sigma * x_prev
        self.inv = inv
        if self.kind == "composite":
            self.x = self._loop(self.g_sum - self.adj_sum, self.t * self.lam, inv)
            return self.x
        z = self.g_sum if self.kind == "dual-averaging" else self.g_sum - self.adj_sum
        u = np.where(inv > 0, -z / np.where(inv > 0, inv, 1.0), 0.0)
        if self.fs.kind == FeasibleSet.BOX:
            u = clamp_box(u, self.fs.radius)
        elif self.fs.kind == FeasibleSet.L2_BALL:
            if isinstance(self.schedule, AdaGradRate):
                u = project_l2_ball_weighted(u, inv, self.fs.radius)
            else:
                u = project_l2_ball(u, self.fs.radius)
        self.x = u
        return self.x

    def _loop(self, b, threshold, inv):
        x = np.empty(self.dim)
        for i in range(self.dim):
            if inv[i] > 0:
                x[i] = _scalar_soft_threshold(b[i], threshold, inv[i])
            elif abs(b[i]) <= threshold:
                x[i] = 0.0
            elif self.fs.kind == FeasibleSet.BOX:
                x[i] = -math.copysign(self.fs.radius, b[i])
            else:
                raise UnsupportedCombination("unbounded coordinate")
        if self.fs.kind == FeasibleSet.BOX:
            x = clamp_box(x, self.fs.radius)
        return x


class _MirrorReference:
    """MirrorDescent's quadratic step, one coordinate at a time."""

    def __init__(self, dim, schedule, lam, feasible_set):
        self.dim, self.schedule, self.lam, self.fs = dim, schedule, lam, feasible_set
        self.t = 0
        self.sq_sum = np.zeros(dim)
        self.x = np.zeros(dim)

    def step(self, g):
        g = np.asarray(g, dtype=float)
        self.t += 1
        self.sq_sum = self.sq_sum + g * g
        w = _inv(self.schedule, self.t, self.sq_sum, self.dim)
        x = np.empty(self.dim)
        for i in range(self.dim):
            b = g[i] - w[i] * self.x[i]
            if w[i] > 0:
                x[i] = _scalar_soft_threshold(b, self.lam, w[i])
            elif abs(b) <= self.lam:
                x[i] = 0.0
            else:
                raise UnsupportedCombination("unbounded coordinate")
        if self.fs.kind == FeasibleSet.BOX:
            x = clamp_box(x, self.fs.radius)
        self.x = x
        return self.x


class _MdAsFtrlReference:
    """MdAsFtrl's accumulated step, one coordinate at a time."""

    def __init__(self, dim, schedule, lam):
        self.dim, self.schedule, self.lam = dim, schedule, lam
        self.t = 0
        self.g_sum = np.zeros(dim)
        self.g_psi_sum = np.zeros(dim)
        self.adj_sum = np.zeros(dim)
        self.sq_sum = np.zeros(dim)
        self.x = np.zeros(dim)
        self.w = _inv(schedule, 0, self.sq_sum, dim)

    def step(self, g):
        g = np.asarray(g, dtype=float)
        self.t += 1
        x_prev, prev_w = self.x, self.w
        self.g_sum = self.g_sum + g
        self.sq_sum = self.sq_sum + g * g
        w = _inv(self.schedule, self.t, self.sq_sum, self.dim)
        self.adj_sum = self.adj_sum + np.maximum(w - prev_w, 0.0) * x_prev
        self.w = w
        b = self.g_sum + self.g_psi_sum - self.adj_sum
        x = np.empty(self.dim)
        for i in range(self.dim):
            if w[i] > 0:
                x[i] = _scalar_soft_threshold(b[i], self.lam, w[i])
            elif abs(b[i]) <= self.lam:
                x[i] = 0.0
            else:
                raise UnsupportedCombination("unbounded coordinate")
        self.x = x
        self.g_psi_sum = self.g_psi_sum + _psi_subgradient(x_prev, x, g, w, self.lam)
        return self.x


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(learner, reference, grads):
    for t, g in enumerate(grads, start=1):
        got, want = learner.step(g), reference.step(g)
        assert _same_bits(got, want), f"round {t}: {got!r} != {want!r}"


SCHEDULES = {
    "constant": lambda: ConstantRate(0.4),
    "sqrt-shift0": lambda: InverseSqrtRate(1.3, shift=0),
    "sqrt-shift1": lambda: InverseSqrtRate(0.8, shift=1),
    "adagrad-offset0": lambda: AdaGradRate(1.1),
    "adagrad-offset": lambda: AdaGradRate(0.9, offset=0.5),
}
SETS = {
    "unconstrained": FeasibleSet.unconstrained,
    "box": lambda: FeasibleSet.box(0.6),
    "ball": lambda: FeasibleSet.l2_ball(0.7),
}


def _grads(seed, dim=4, T=40):
    return np.random.default_rng(seed).normal(0, 1, size=(T, dim))


def _preset(kind, dim, schedule, fs, centering=CENTERED):
    """The preset under test, or the error type its constructor raises."""
    try:
        if kind == "dual-averaging":
            return DualAveraging(dim, schedule, fs)
        if kind == "proximal":
            return FtrlProximal(dim, schedule, fs)
        return FtrlCompositeL1(dim, schedule, 0.05, centering=centering, feasible_set=fs)
    except (UnsupportedCombination, ValueError) as err:
        return type(err)


# The combinations each preset rejects, with the error its constructor raises.
REJECTED = {
    ("dual-averaging", "sqrt-shift0"): UnsupportedCombination,
    ("dual-averaging", "adagrad-offset0"): ValueError,
    ("proximal", "adagrad-offset0", "unconstrained"): UnsupportedCombination,
    ("proximal", "adagrad-offset", "unconstrained"): UnsupportedCombination,
    ("composite-centered", "adagrad-offset0"): ValueError,
    ("composite-centered", "ball"): UnsupportedCombination,
    ("composite-proximal", "ball"): UnsupportedCombination,
}


def _expected_rejection(name, sched, fs):
    for key in ((name, fs), (name, sched), (name, sched, fs)):  # constructor order
        if key in REJECTED:
            return REJECTED[key]
    return None


PRESETS = {
    "dual-averaging": ("dual-averaging", CENTERED),
    "proximal": ("proximal", PROXIMAL),
    "composite-centered": ("composite", CENTERED),
    "composite-proximal": ("composite", PROXIMAL),
}


@pytest.mark.parametrize("fs_name", sorted(SETS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_match_the_scalar_reference_bit_for_bit(name, sched_name, fs_name):
    kind, centering = PRESETS[name]
    learner = _preset(kind, 4, SCHEDULES[sched_name](), SETS[fs_name](), centering)
    rejected = _expected_rejection(name, sched_name, fs_name)
    if rejected is not None:
        assert learner is rejected
        return
    assert isinstance(learner, QuadraticFtrl)
    lam = 0.05 if kind == "composite" else 0.0
    reference = _Reference(kind, 4, SCHEDULES[sched_name](), SETS[fs_name](), lam, centering)
    seed = sorted(PRESETS).index(name) * 100 + sorted(SCHEDULES).index(sched_name) * 10
    _run(learner, reference, _grads(seed + sorted(SETS).index(fs_name)))


@pytest.mark.parametrize("fs_name", ["unconstrained", "box"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
def test_mirror_descent_with_l1_matches_the_scalar_loop(sched_name, fs_name):
    grads = _grads(11, dim=3, T=60)
    md = MirrorDescent(3, SCHEDULES[sched_name](), lam=0.3, feasible_set=SETS[fs_name]())
    _run(md, _MirrorReference(3, SCHEDULES[sched_name](), 0.3, SETS[fs_name]()), grads)


@pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
def test_md_as_ftrl_with_l1_matches_the_scalar_loop(sched_name):
    grads = _grads(12, dim=3, T=60)
    _run(MdAsFtrl(3, SCHEDULES[sched_name](), lam=0.3),
         _MdAsFtrlReference(3, SCHEDULES[sched_name](), 0.3), grads)


def test_ties_at_the_accumulated_threshold_give_exact_zeros():
    # g_{1:t} = (t/2, -t/2, t/4): the first two coordinates sit exactly on
    # |b| = t lam in every round, the third strictly inside the band.
    grads = np.tile([0.5, -0.5, 0.25], (12, 1))
    for centering in (CENTERED, PROXIMAL):
        learner = FtrlCompositeL1(3, ConstantRate(0.7), 0.5, centering=centering)
        reference = _Reference("composite", 3, ConstantRate(0.7), FeasibleSet.unconstrained(),
                               0.5, centering)
        _run(learner, reference, grads)
        assert _same_bits(learner.x, np.zeros(3))


def test_mirror_ties_at_the_penalty_give_exact_zeros():
    # from x = 0 every round's b is g itself, on the band's edge |g| = lam
    grads = np.tile([0.3, -0.3], (8, 1))
    _run(MirrorDescent(2, ConstantRate(0.5), lam=0.3),
         _MirrorReference(2, ConstantRate(0.5), 0.3, FeasibleSet.unconstrained()), grads)
    _run(MdAsFtrl(2, ConstantRate(0.5), lam=0.3),
         _MdAsFtrlReference(2, ConstantRate(0.5), 0.3), grads)


def test_array_soft_threshold_equals_the_scalar_form_bit_for_bit():
    rng = np.random.default_rng(5)
    lam = 0.75
    b = np.concatenate([rng.uniform(-3, 3, size=200), [lam, -lam, 0.0, -0.0],
                        np.nextafter([lam, -lam], [np.inf, -np.inf]),
                        np.nextafter([lam, -lam], [0.0, 0.0])])
    a = rng.uniform(0.1, 4.0, size=b.size)
    got = core.soft_threshold_argmin(b, lam, a)
    want = np.array([_scalar_soft_threshold(bi, lam, ai) for bi, ai in zip(b, a)])
    assert _same_bits(got, want)
    # broadcasting of every argument, and a float back for scalars
    lams = rng.uniform(0, 2, size=b.size)
    want = np.array([_scalar_soft_threshold(bi, li, 2.0) for bi, li in zip(b, lams)])
    assert _same_bits(core.soft_threshold_argmin(b, lams, 2.0), want)
    assert type(core.soft_threshold_argmin(1.5, 0.5, 2.0)) is float


@pytest.mark.parametrize("bad", [
    dict(b=[1.0, np.inf], lam=0.5, a=1.0),
    dict(b=[1.0, 2.0], lam=np.nan, a=1.0),
    dict(b=[1.0, 2.0], lam=0.5, a=[1.0, 0.0]),
    dict(b=[1.0, 2.0], lam=[0.5, -0.1], a=1.0),
])
def test_array_soft_threshold_keeps_its_validation(bad):
    with pytest.raises(ValueError):
        core.soft_threshold_argmin(**bad)


def test_presets_keep_the_attributes_suites_read():
    box = FeasibleSet.box(1.0)
    for make, kind in ((lambda rate: DualAveraging(2, rate), "centered"),
                       (lambda rate: FtrlProximal(2, rate, box), "proximal"),
                       (lambda rate: FtrlCompositeL1(2, rate, 0.1), "centered")):
        learner = make(ConstantRate(0.5))
        learner.step([0.3, -0.4])
        assert learner.reg_kind == kind
        for attr in ("g_sum", "last_inv_rate"):
            assert getattr(learner, attr).shape == (2,)
        # no suite reads sq_sum: it is kept only for a rate that reads it
        assert learner.sq_sum is None
        adaptive = make(AdaGradRate(1.0, offset=0.5))
        adaptive.step([0.3, -0.4])
        assert adaptive.sq_sum.shape == (2,)
        # the adjustment sum a_{1:t} is state only the proximal step reads
        if kind == "proximal":
            assert learner.adj_sum.shape == (2,)
        else:
            assert not hasattr(learner, "adj_sum")
        assert learner.lam in (0.0, 0.1)


def test_quadratic_ftrl_rejects_a_ball_with_l1_and_an_unknown_centering():
    with pytest.raises(UnsupportedCombination):
        QuadraticFtrl(2, ConstantRate(1.0), FeasibleSet.l2_ball(1.0), lam=0.1)
    with pytest.raises(ValueError):
        QuadraticFtrl(2, ConstantRate(1.0), centering="sideways")


# ---------------------------------------------------------------------------
# Coordinates with inverse rate 0 (an infinite learning rate)
# ---------------------------------------------------------------------------

class _InfiniteRate(LearningRateSchedule):
    """Inverse rate 0 on every coordinate in every round."""

    def inverse_rate(self, t, sq_sum=0.0):
        return 0.0


class _CustomAdaGrad(LearningRateSchedule):
    """1/eta_{t,i} = sqrt(1 + sum_s g_{s,i}^2), declaring nothing about what it reads."""

    def inverse_rate(self, t, sq_sum=0.0):
        return np.sqrt(1.0 + sq_sum)


@pytest.mark.parametrize("make", [
    lambda rate: QuadraticFtrl(2, rate, FeasibleSet.box(1.0)),
    lambda rate: QuadraticFtrl(2, rate, FeasibleSet.box(1.0), centering=PROXIMAL),
    lambda rate: MirrorDescent(2, rate, lam=0.1, feasible_set=FeasibleSet.box(1.0)),
    lambda rate: MdAsFtrl(2, rate, lam=0.1),
], ids=["centered", "proximal", "mirror-descent", "md-as-ftrl"])
def test_a_learner_keeps_squared_sums_only_for_a_schedule_that_reads_them(make):
    rows = np.array([[0.3, -0.4], [1.5, 0.0], [-0.2, 2.0]])
    for rate in (ConstantRate(0.5), InverseSqrtRate(1.0, shift=1)):
        learner = make(rate)
        for g in rows:
            learner.step(g)
        assert learner.sq_sum is None
    # AdaGrad reads the sums, and so does a custom schedule unless it declares otherwise
    for rate in (AdaGradRate(1.0, offset=0.5), _CustomAdaGrad()):
        learner = make(rate)
        for g in rows:
            learner.step(g)
        assert _same_bits(learner.sq_sum, rows[0] ** 2 + rows[1] ** 2 + rows[2] ** 2)


def test_a_coordinate_that_never_sees_a_gradient_stays_exactly_zero_on_a_box():
    rng = np.random.default_rng(9)
    box = FeasibleSet.box(0.8)
    learners = [FtrlProximal(3, AdaGradRate(1.0), box),
                FtrlCompositeL1(3, AdaGradRate(1.0), 0.02, centering=PROXIMAL, feasible_set=box),
                MirrorDescent(3, AdaGradRate(1.0), lam=0.02, feasible_set=box)]
    for learner in learners:
        for _ in range(30):
            g = rng.normal(size=3)
            g[1] = 0.0
            x = learner.step(g)
            assert x[1] == 0.0
            assert learner.last_inv_rate[1] == 0.0
            assert np.all(np.isfinite(x)) and np.all(np.abs(x) <= 0.8)


@pytest.mark.parametrize("make", [
    lambda: FtrlCompositeL1(2, _InfiniteRate(), 0.1),
    lambda: QuadraticFtrl(2, _InfiniteRate(), centering=PROXIMAL),
    lambda: QuadraticFtrl(2, _InfiniteRate(), FeasibleSet.l2_ball(1.0)),
    lambda: MirrorDescent(2, _InfiniteRate(), lam=0.1),
    lambda: MdAsFtrl(2, _InfiniteRate(), lam=0.1),
    lambda: DualAveraging(2, _InfiniteRate()),
    lambda: FtrlProximal(2, _InfiniteRate(), FeasibleSet.l2_ball(1.0)),
], ids=["composite", "proximal", "ball", "mirror-descent", "md-as-ftrl", "dual-averaging",
        "ftrl-proximal-ball"])
def test_an_infinite_rate_with_an_active_gradient_is_unbounded(make):
    learner = make()
    with pytest.raises(UnsupportedCombination):
        learner.step([1.0, 0.05])


@pytest.mark.parametrize("make", [
    lambda: FtrlCompositeL1(2, _InfiniteRate(), 0.1),
    lambda: MirrorDescent(2, _InfiniteRate(), lam=0.1),
    lambda: MdAsFtrl(2, _InfiniteRate(), lam=0.1),
], ids=["composite", "mirror-descent", "md-as-ftrl"])
def test_an_infinite_rate_inside_the_band_gives_zero(make):
    assert _same_bits(make().step([0.1, -0.05]), [0.0, 0.0])


@pytest.mark.parametrize("make,want", [
    (lambda box: FtrlCompositeL1(2, _InfiniteRate(), 0.1, feasible_set=box), [-2.0, 0.0]),
    (lambda box: QuadraticFtrl(2, _InfiniteRate(), box, centering=PROXIMAL), [-2.0, 2.0]),
    (lambda box: MirrorDescent(2, _InfiniteRate(), lam=0.1, feasible_set=box), [-2.0, 0.0]),
], ids=["composite", "proximal", "mirror-descent"])
def test_an_infinite_rate_on_a_box_goes_to_the_corner(make, want):
    # |b| = 1 leaves the band on both; |b| = 0.05 stays inside it only when lam = 0.1
    assert _same_bits(make(FeasibleSet.box(2.0)).step([1.0, -0.05]), want)
