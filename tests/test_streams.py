import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocokit import oracle
from ocokit.core import ConstantRate, FeasibleSet
from ocokit.driver import run_rounds
from ocokit.learners import FtrlProximal
from ocokit.streams import (
    L1AdversaryStream,
    LogisticStream,
    ParseError,
    RandomLinearStream,
    StronglyConvexQuadraticStream,
    l1_adversary_next,
    load_svmlight,
    logistic_example_gradient,
    logistic_loss,
    parse_svmlight,
    serialize_svmlight,
)


class TestL1Adversary:
    def test_first_round_gradient(self):
        assert l1_adversary_next(0.0, 1, 11.0, 0.5) == -5.75

    def test_sign_tracking(self):
        assert l1_adversary_next(2.625, 3, 11.0, 0.5) == 11.0
        assert l1_adversary_next(0.0, 5, 11.0, 0.5) == -11.0
        assert l1_adversary_next(-0.1, 2, 11.0, 0.5) == -11.0

    def test_magnitude_cap(self):
        rng = np.random.default_rng(0)
        for t in range(1, 300):
            g = l1_adversary_next(float(rng.normal()), t, 11.0, 0.5)
            assert abs(g) <= 11.0

    def test_requires_lam_below_g(self):
        with pytest.raises(ValueError):
            L1AdversaryStream(1.0, 1.0)
        with pytest.raises(ValueError):
            L1AdversaryStream(1.0, -0.1)


class TestLogistic:
    def test_gradient_at_origin(self):
        g = logistic_example_gradient(np.zeros(2), np.array([1.0, 0.0]), 1)
        assert np.allclose(g, [-0.5, 0.0])

    def test_zero_feature_vector(self):
        g = logistic_example_gradient(np.array([1.0, 2.0]), np.zeros(2), 0)
        assert np.allclose(g, 0.0)

    def test_calibrated_prediction_kills_the_gradient(self):
        # y equal to the predicted probability leaves a zero residual
        x = np.array([0.3, -0.2])
        a = np.array([1.0, 2.0])
        z = float(a @ x)
        p = 1.0 / (1.0 + np.exp(-z))
        g = (p - p) * a
        assert np.allclose(g, 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.normal(size=n)
            a = rng.normal(size=n)
            y = int(rng.integers(0, 2))
            g = logistic_example_gradient(x, a, y)
            fd = oracle.finite_difference_subgradient(lambda v: logistic_loss(v, a, y), x)
            assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(g))))

    def test_loss_is_stable_at_extreme_scores(self):
        assert np.isfinite(logistic_loss(np.array([1000.0]), np.array([1.0]), 0))
        assert np.isfinite(logistic_loss(np.array([-1000.0]), np.array([1.0]), 1))

    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_a_round_outside_the_examples_is_rejected(self, t):
        stream = LogisticStream.synthetic(0, 2, 3)
        with pytest.raises(ValueError, match=f"round {t} is outside 1..3: the stream has 3 "):
            stream.event(t, np.zeros(2))

    def test_a_run_longer_than_the_examples_raises_a_value_error(self):
        stream = LogisticStream.synthetic(0, 2, 3)
        with pytest.raises(ValueError, match="round 4 is outside 1..3"):
            run_rounds(FtrlProximal(2, ConstantRate(0.5), FeasibleSet.l2_ball(1.0)), stream, 4)

    def test_synthetic_stream_is_deterministic(self):
        a = LogisticStream.synthetic(3, 5, 20)
        b = LogisticStream.synthetic(3, 5, 20)
        for (fa, ya), (fb, yb) in zip(a.examples, b.examples):
            assert np.array_equal(fa, fb) and ya == yb


class TestRandomLinear:
    def test_determinism(self):
        a = RandomLinearStream(9, 4, 1.0)
        b = RandomLinearStream(9, 4, 1.0)
        for t in range(1, 40):
            assert np.array_equal(a.event(t, np.zeros(4)).g, b.event(t, np.zeros(4)).g)

    def test_l2_cap_is_exact(self):
        s = RandomLinearStream(5, 3, 0.7)
        for t in range(1, 40):
            assert np.linalg.norm(s.event(t, np.zeros(3)).g) == pytest.approx(0.7, abs=1e-12)

    def test_l2_scale_is_numpys_norm_bit_for_bit(self):
        # the stream rescales by sqrt(g.g); it must be the float np.linalg.norm gives
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            draws = rng.standard_normal((2000, n)) * 10.0 ** rng.uniform(-100, 100, (2000, 1))
            for g in draws:
                assert math.sqrt(float(g @ g)) == np.linalg.norm(g)

    def test_l2_events_match_the_norm_rescale(self):
        for seed, n in [(0, 1), (3, 2), (5, 5), (8, 10)]:
            s, rng = RandomLinearStream(seed, n, 0.7), np.random.default_rng(seed)
            for t in range(1, 200):
                g = rng.standard_normal(n)
                assert np.array_equal(s.event(t, np.zeros(n)).g, g * (0.7 / np.linalg.norm(g)))

    def test_sup_cap_is_exact(self):
        s = RandomLinearStream(5, 3, 0.7, "sup")
        for t in range(1, 40):
            assert np.max(np.abs(s.event(t, np.zeros(3)).g)) == pytest.approx(0.7, abs=1e-12)

    def test_zero_rounds_is_fine(self):
        s = RandomLinearStream(5, 3, 0.7)
        assert s.dim == 3  # nothing consumed

    @pytest.mark.parametrize("norm", ["l2", "sup"])
    def test_a_zero_norm_draw_becomes_a_positive_zero_row(self, norm, monkeypatch):
        s = RandomLinearStream(5, 3, 0.7, norm)
        draws = np.array([[3.0, -4.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 2.0]])
        monkeypatch.setattr(s, "_rng", SimpleNamespace(standard_normal=lambda shape: draws.copy()))
        g = s.gradients(3)
        assert g[1].tolist() == [0.0] * 3 and not np.any(np.signbit(g[1]))
        first = 5.0 if norm == "l2" else 4.0  # the norm of (3, -4, 0)
        assert np.array_equal(g[0], draws[0] * (0.7 / first))
        assert np.array_equal(g[2], draws[2] * (0.7 / 2.0))


class TestStronglyConvexStream:
    def test_gradient_equals_displacement_from_center(self):
        s = StronglyConvexQuadraticStream(0, 2)
        x = np.array([0.5, -0.5])
        ev = s.event(1, x)
        assert np.allclose(ev.g, x - ev.param)
        assert ev.loss_at(x) == pytest.approx(0.5 * np.sum((x - ev.param) ** 2))

    @pytest.mark.parametrize("n, radius", [
        (2, math.nan), (2, math.inf), (2, -math.inf), (2, 0.0), (2, -1.0), (0, 1.0), (-3, 1.0),
    ])
    def test_a_radius_that_is_not_positive_and_finite_or_n_below_one_is_rejected(self, n, radius):
        with pytest.raises(ValueError):
            StronglyConvexQuadraticStream(0, n, center_radius=radius)


class TestSvmlight:
    def test_basic_line(self):
        assert parse_svmlight("1 1:0.5 3:2") == (1, {1: 0.5, 3: 2.0})

    def test_negative_label_and_comment(self):
        assert parse_svmlight("-1 2:1 # note") == (0, {2: 1.0})

    def test_non_increasing_index_is_an_error(self):
        with pytest.raises(ParseError):
            parse_svmlight("1 3:1 2:1")

    @pytest.mark.parametrize("line", [
        "", "# only a comment", "abc 1:2", "1 0:3", "1 2:x", "1 2", "2 1:1",
        # int() and float() also read these; svmlight is ASCII decimal
        "1 1_0:5", "0 3:1_0", "1 \u0661:2",
    ])
    def test_malformed_lines(self, line):
        with pytest.raises(ParseError):
            parse_svmlight(line)

    def test_error_keeps_its_bare_message_beside_the_position(self):
        with pytest.raises(ParseError) as exc:
            load_svmlight(["1 1:0.5", "1 2:1 2:3"], dim=2)
        err = exc.value
        assert (err.message, err.line, err.column) == (
            "feature indices must be strictly increasing, got 2 after 2", 2, 7)
        assert str(err) == f"{err.message} (line 2, col 7)"

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_svmlight("1 2:1 2:3")
        assert exc.value.line == 1
        assert exc.value.column is not None

    @pytest.mark.parametrize("line, column", [
        ("0 11:5 1:5", 8),  # "1:5" also appears inside "11:5", at col 4
        ("1 2:1 2:1", 7),   # the repeated token, not its first occurrence
        ("1\t2:1  \t1:5", 9),
        ("2 1:1", 1),
    ])
    def test_error_column_is_the_offending_tokens_own(self, line, column):
        with pytest.raises(ParseError) as exc:
            parse_svmlight(line)
        assert exc.value.column == column

    def test_round_trip_is_canonical(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            label = int(rng.integers(0, 2))
            idx = np.sort(rng.choice(100, size=rng.integers(1, 8), replace=False)) + 1
            feats = {int(i): float(rng.normal()) for i in idx}
            line = serialize_svmlight(label, feats)
            back_label, back = parse_svmlight(line)
            assert (back_label, back) == (label, feats)
            assert serialize_svmlight(back_label, back) == line

    def test_load_builds_dense_rows(self):
        examples = load_svmlight(["1 1:0.5 3:2", "-1 2:1"], dim=3)
        assert len(examples) == 2
        assert np.allclose(examples[0][0], [0.5, 0.0, 2.0])
        assert examples[0][1] == 1
        assert np.allclose(examples[1][0], [0.0, 1.0, 0.0])
        assert examples[1][1] == 0


# svmlight lines: well-formed ones with indices up to 10^15, and fuzzed ones
_INDICES = st.lists(st.one_of(st.integers(1, 8), st.integers(1, 10 ** 15)),
                    max_size=4, unique=True).map(sorted)
_WELL_FORMED = st.tuples(st.sampled_from(["1", "0", "-1", "+1"]), _INDICES,
                         st.floats(-10, 10)).map(
    lambda p: " ".join([p[0], *(f"{i}:{p[2]!r}" for i in p[1])]))
_FUZZED = st.text(alphabet=" \t:#+-.0123456789eEnaif", max_size=24)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(1, 6), lines=st.lists(st.one_of(_WELL_FORMED, _FUZZED), max_size=6))
def test_load_with_dim_gives_rows_of_that_size_or_a_parse_error(n, lines):
    try:
        examples = load_svmlight(lines, dim=n)
    except ParseError:
        return
    assert isinstance(examples, list)
    for a, label in examples:
        assert a.shape == (n,) and label in (0, 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 6), lines=st.lists(_WELL_FORMED, min_size=1, max_size=6))
def test_load_with_dim_rejects_exactly_the_indices_past_it(n, lines):
    parsed = [parse_svmlight(line) for line in lines]
    far = [lineno for lineno, (_, feats) in enumerate(parsed, start=1)
           if feats and max(feats) > n]
    if far:
        with pytest.raises(ParseError, match=f"exceeds dimension {n} \\(line {far[0]}\\)"):
            load_svmlight(lines, dim=n)
        return
    examples = load_svmlight(lines, dim=n)
    for (a, label), (want_label, feats) in zip(examples, parsed):
        want = np.zeros(n)
        for i, v in feats.items():
            want[i - 1] = v
        assert label == want_label and np.array_equal(a, want)
