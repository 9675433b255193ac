"""The weighted-ball projection's Newton solve against a bisection reference.

``bisection_reference`` is the plain solver the Newton iteration replaced: a
doubling search for an upper bound on the multiplier mu, then 200 bisection
steps, then the radial safeguard.  It is slow but leaves no doubt about mu.
Agreement is measured relative to the reference's norm: a coordinate with
w_i much smaller than mu is tiny, and its own relative error follows mu's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocokit import core, learners
from ocokit.bounds import BoundRule
from ocokit.core import AdaGradRate, FeasibleSet, project_l2_ball_weighted
from ocokit.driver import run_rounds
from ocokit.streams import LogisticStream

REL = 1e-12


def bisection_reference(u, w, radius):
    u = np.asarray(u, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), u.shape)
    x = np.where(w > 0, u, 0.0)
    if np.linalg.norm(x) <= radius:
        return x
    lo, hi = 0.0, float(np.max(w))
    while np.linalg.norm(np.where(w > 0, w * u / (w + hi), 0.0)) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(np.where(w > 0, w * u / (w + mid), 0.0)) > radius:
            lo = mid
        else:
            hi = mid
    x = np.where(w > 0, w * u / (w + hi), 0.0)
    nrm = np.linalg.norm(x)
    if nrm > radius:
        x *= radius / nrm
    return x


def assert_matches_reference(u, w, radius):
    got = project_l2_ball_weighted(u, w, radius)
    ref = bisection_reference(u, w, radius)
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(got) <= radius * (1 + 1e-15)
    assert np.max(np.abs(got - ref), initial=0.0) <= REL * np.linalg.norm(ref)
    assert np.all(got[np.asarray(w) == 0] == 0.0)
    return got, ref


def outside(rng, n, radius, support):
    """u with ||u|| = 3 radius and weights with the given fraction positive."""
    u = rng.normal(size=n)
    u *= 3 * radius / np.linalg.norm(u)
    w = rng.uniform(0.01, 10.0, size=n) * (rng.random(n) < support)
    w[0] = 1.0  # at least one live coordinate
    return u, w


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
    arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e3))),
    st.floats(1e-3, 1e3))))
def test_newton_agrees_with_bisection(case):
    u, w, radius = case
    got, ref = assert_matches_reference(u, w, radius)
    if np.linalg.norm(np.where(w > 0, u, 0.0)) <= radius:  # inside: unchanged, zero signs too
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("support", [1.0, 0.22])
def test_newton_agrees_with_bisection_across_sizes(n, support):
    rng = np.random.default_rng(n)
    for radius in (0.5, 1.0, 7.0):
        u, w = outside(rng, n, radius, support)
        assert_matches_reference(u, w, radius)
        assert_matches_reference(u * 1e-3, w, radius)  # just outside or inside


def test_points_inside_the_ball_return_unchanged():
    rng = np.random.default_rng(5)
    for n in (1, 4, 1000):
        u = rng.normal(size=n)
        u *= 0.9 / np.linalg.norm(u)
        u[0] = -0.0
        w = rng.uniform(0.1, 2.0, size=n)
        out = project_l2_ball_weighted(u, w, 1.0)
        assert np.array_equal(out, u) and math.copysign(1.0, out[0]) == -1.0
        assert out is not u


def test_signed_zero_and_zero_weight_coordinates():
    u = np.array([-0.0, 0.0, 3.0, -4.0, 5.0])
    w = np.array([2.0, 1.0, 0.0, 1.0, 3.0])
    got, _ = assert_matches_reference(u, w, 1.0)
    assert np.array_equal(np.signbit(got), [True, False, False, True, False])


def test_newton_agrees_with_bisection_on_recorded_high_dim_calls(monkeypatch):
    """The inputs FtrlProximal (AdaGrad, unit ball) projects on a sparse
    logistic stream at n = 10^4, the shape of the benchmark's high-dim runs."""
    calls, project = [], core._project_l2_ball_weighted

    def record(u, w, radius):
        calls.append((np.array(u), np.array(w), radius))
        return project(u, w, radius)

    monkeypatch.setattr(core, "_project_l2_ball_weighted", record)
    n, T = 10_000, 24
    stream = LogisticStream.synthetic(1, n, T, density=0.01)
    learner = learners.FtrlProximal(n, AdaGradRate(math.sqrt(2.0)), FeasibleSet.l2_ball(1.0))
    run_rounds(learner, stream, T, BoundRule.FTRL_PROXIMAL, learners.BoundConfig(),
               FeasibleSet.l2_ball(1.0))
    monkeypatch.undo()  # the checks below project through the public function
    assert len(calls) == T
    for u, w, radius in calls[::6]:
        assert np.linalg.norm(np.where(w > 0, u, 0.0)) > radius  # the ball binds
        assert_matches_reference(u, w, radius)
    # a dense u with about 22% of the weights positive
    u, w, radius = calls[-1]
    rng = np.random.default_rng(0)
    dense = rng.normal(0.0, np.abs(u).max(), size=n)
    live = np.flatnonzero(w > 0)
    assert 0.0 < live.size / n < 0.5
    assert_matches_reference(dense, w, radius)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_extreme_weight_scales_do_not_change_the_answer(scale):
    rng = np.random.default_rng(7)
    u, w = outside(rng, 50, 1.0, 0.6)
    base = project_l2_ball_weighted(u, w, 1.0)
    assert_matches_reference(u, w, 1.0)
    scaled = project_l2_ball_weighted(u, w * scale, 1.0)
    assert np.max(np.abs(scaled - base)) <= REL * np.linalg.norm(base)
    # a power-of-two scale is exact
    assert np.array_equal(project_l2_ball_weighted(u, w * 2.0 ** -600, 1.0), base)


@pytest.mark.parametrize("u_scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("w_scale", [1e-200, 1.0, 1e200])
def test_extreme_magnitudes_give_finite_feasible_answers(u_scale, w_scale):
    rng = np.random.default_rng(11)
    u, w = outside(rng, 20, 1.0, 0.7)
    x = project_l2_ball_weighted(u * u_scale, w * w_scale, 1.0)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(x) <= 1.0 + 1e-15
    unit_w = project_l2_ball_weighted(u * u_scale, w, 1.0)
    assert np.max(np.abs(x - unit_w)) <= REL * np.max(np.abs(unit_w))
    if u_scale == 1e-200:  # far inside the ball
        assert np.array_equal(x, np.where(w > 0, u * u_scale, 0.0))
    # scaling u and the radius together by a power of two is exact
    scaled = project_l2_ball_weighted(u * 2.0 ** 600, w * w_scale, 2.0 ** 600)
    assert np.array_equal(scaled, np.ldexp(project_l2_ball_weighted(u, w * w_scale, 1.0), 600))


def test_all_zero_weights_give_the_origin():
    out = project_l2_ball_weighted([3e200, -4.0, 0.0], [0.0, 0.0, 0.0], 1.0)
    assert np.array_equal(out, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("w,radius", [([1.0, -1.0], 1.0), ([1.0, 1.0], 0.0),
                                      ([1.0, 1.0], -1.0), ([1.0, 1.0], math.inf)])
def test_rejects_negative_weights_and_bad_radius(w, radius):
    with pytest.raises(ValueError):
        project_l2_ball_weighted([3.0, 4.0], w, radius)
