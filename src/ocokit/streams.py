"""Loss/gradient sources that drive the learners.

Each stream yields one StreamEvent per round through ``event(t, x_t)``; the
adaptive streams inspect the point the learner just played before choosing
the loss, so the driver loop must follow select -> reveal -> incur -> update.
An oblivious stream, whose linear losses never read the point, also offers
``gradients(T)``: the next T rounds' gradients at once, which the driver
draws up front (``RandomLinearStream``).
Streams are single-consumer iterators; two instances built with the same
seed replay the same sequence.

Losses are data: every event names its loss family (linear, quadratic or
logistic) and carries that family's parameters, and ``loss_column``
evaluates a whole run's losses of one family at once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import _all, _row_dots, as_point

LINEAR = "linear"        # f_t(x) = g_t . x; the parameter row is g_t
QUADRATIC = "quadratic"  # f_t(x) = ||x - c_t||^2 / 2; the row is the center c_t
LOGISTIC = "logistic"    # f_t(x) = log(1 + e^{-z}) + (1 - y_t) z, z = a_t . x; the row is a_t


@dataclass
class StreamEvent:
    """One round's subgradient g and its loss f_t, as data; the driver keeps the round index.

    ``family`` names the loss family, ``param`` is its parameter row (g_t,
    the center c_t or the features a_t; see the family constants) and
    ``label`` the logistic label y_t.  ``loss_at(x)`` evaluates f_t at one
    point through ``loss_column``, the evaluator ``run_rounds`` calls once
    per run for the whole loss column.
    """

    g: np.ndarray
    family: str
    param: np.ndarray
    label: float = 0.0

    def loss_at(self, x) -> float:
        x = as_point(x, dim=self.param.size)
        return float(loss_column(self.family, self.param[None, :], x, [self.label])[0])


def loss_column(family: str, params, points: np.ndarray, labels=()) -> np.ndarray:
    """f_t(points[t]) for every round t of one loss family, unchecked.

    ``params`` holds the rounds' parameter rows in order: a (T, n) array for
    the linear family (the run's gradients), a (T, n) array or a sequence of
    T rows otherwise; ``labels`` are the logistic labels.  ``points`` is the
    (T, n) column of points, or one (n,) point (the comparator x*), which
    every family broadcasts to the T rows.  Callers validate the points.

    Every value equals the per-round formula bit for bit: g_t . x as a
    batched matmul (``core._row_dots``), 0.5 * sum((x - c_t)^2) as a row-wise
    sum, and the logistic loss from one ``np.dot(a_t, x_t)`` per row, so that
    the stream's example rows are read where they are, not copied.
    """
    if family == LINEAR:
        return _row_dots(params, points)
    if family == QUADRATIC:
        centers = np.asarray(params, dtype=float).reshape(-1, points.shape[-1])
        return 0.5 * np.sum((points - centers) ** 2, axis=1)
    if family == LOGISTIC:
        rows = np.broadcast_to(points, (len(params), points.shape[-1]))
        z = np.array([np.dot(a, x) for a, x in zip(params, rows)], dtype=float)
        return np.logaddexp(0.0, -z) + (1.0 - np.asarray(labels, dtype=float)) * z
    raise ValueError(f"unknown loss family {family!r}")


class ParseError(ValueError):
    """Malformed svmlight input; carries line and column context beside its bare message."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column})" if column is not None else ")")
        super().__init__(message + where)
        self.message = message
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# The one-dimensional L1 adversary
# ---------------------------------------------------------------------------

def l1_adversary_next(x_t: float, t: int, G: float, lam: float) -> float:
    """Adaptive 1-D gradient: -(G + lam)/2 on round one, then -G or +G by sign of x_t."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if t == 1:
        return -0.5 * (G + lam)
    return float(G) if x_t > 0 else -float(G)


class L1AdversaryStream:
    """Drives the 1-D oscillation example; requires lam < G."""

    def __init__(self, G: float, lam: float):
        if not (0 <= lam < G):
            raise ValueError(f"need 0 <= lam < G, got lam={lam}, G={G}")
        self.G = float(G)
        self.lam = float(lam)
        self.dim = 1

    def event(self, t: int, x_t) -> StreamEvent:
        """Reads x_t, the learner's own iterate, unchecked; step validates g."""
        g = np.array([l1_adversary_next(float(np.ravel(x_t)[0]), t, self.G, self.lam)])
        return StreamEvent(g, LINEAR, g)


# ---------------------------------------------------------------------------
# Random linear losses
# ---------------------------------------------------------------------------

class RandomLinearStream:
    """Seeded linear losses with every gradient rescaled to the declared cap.

    ``norm="l2"`` caps the Euclidean norm at G; ``norm="sup"`` caps the
    max-magnitude coordinate.  Deterministic per seed.  The losses never
    read the iterate, so ``gradients(T)`` draws the next T rounds at once;
    ``event`` is its one-row case, and the two can be mixed in any order.
    """

    def __init__(self, seed: int, n: int, G: float, norm: str = "l2"):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if not (np.isfinite(G) and G > 0):
            raise ValueError(f"gradient cap must be > 0, got {G}")
        if norm not in ("l2", "sup"):
            raise ValueError(f"norm must be 'l2' or 'sup', got {norm!r}")
        self.dim = int(n)
        self.G = float(G)
        self.norm = norm
        self._rng = np.random.default_rng(seed)

    def event(self, t: int, x_t) -> StreamEvent:
        g = self.gradients(1)[0]
        return StreamEvent(g, LINEAR, g)

    def gradients(self, T: int) -> np.ndarray:
        """The next T rounds' gradients as the rows of a new (T, n) array.

        One ``standard_normal((T, n))`` call draws the numbers of T draws of n,
        in order.  Each row is scaled by G over its norm, sqrt(g.g) (how
        np.linalg.norm computes a 1-D l2 norm) or max |g_i|; a row of norm 0
        becomes +0.0.
        """
        g = self._rng.standard_normal((T, self.dim))
        scale = np.sqrt(_row_dots(g, g)) if self.norm == "l2" else np.max(np.abs(g), axis=1)
        live = scale > 0
        g *= np.divide(self.G, scale, out=np.zeros(T), where=live)[:, None]
        if not _all(live):
            g[~live] = 0.0
        return g


# ---------------------------------------------------------------------------
# Strongly convex quadratic losses
# ---------------------------------------------------------------------------

class StronglyConvexQuadraticStream:
    """f_t(x) = ||x - c_t||^2 / 2 with random centers inside a ball.

    Unit strong convexity; with x_1 = 0 every iterate of the 1/t-rate
    gradient learner stays inside the center ball, so gradients are capped
    by 2 * center_radius.  Each event's row is its center; ``run_rounds``
    takes x*, the hindsight minimizer, as the mean of the run's centers.
    """

    def __init__(self, seed: int, n: int, center_radius: float = 1.0):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if not (np.isfinite(center_radius) and center_radius > 0):
            raise ValueError(f"center radius must be > 0, got {center_radius}")
        self.dim = int(n)
        self.center_radius = float(center_radius)
        self.gradient_cap = 2.0 * float(center_radius)
        self._rng = np.random.default_rng(seed)

    def event(self, t: int, x_t) -> StreamEvent:
        c = self._rng.standard_normal(self.dim)
        nrm = np.linalg.norm(c)
        if nrm > 0:
            c *= self._rng.uniform(0.0, self.center_radius) / nrm
        g = x_t - c  # x_t is the learner's own iterate, unchecked; step validates g
        return StreamEvent(g, QUADRATIC, c)


# ---------------------------------------------------------------------------
# Online logistic regression
# ---------------------------------------------------------------------------

def logistic_loss(x, a, y) -> float:
    """Negative log-likelihood of label y under p = sigmoid(a . x), stably."""
    x = as_point(x)
    a = as_point(a, dim=x.size)
    return float(loss_column(LOGISTIC, a[None, :], x, [_label(y)])[0])


def logistic_example_gradient(x, a, y) -> np.ndarray:
    """(sigmoid(a . x) - y) * a."""
    x = as_point(x)
    return _logistic_gradient(x, as_point(a, dim=x.size), y)


def _label(y) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"logistic label must be finite, got {y}")
    return y


def _logistic_gradient(x: np.ndarray, a: np.ndarray, y) -> np.ndarray:
    """``logistic_example_gradient`` of finite x and a of one size, unchecked."""
    z = float(np.dot(a, x))
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    return (p - float(y)) * a


class LogisticStream:
    """Streams (feature, label) examples as logistic losses.

    Each example is validated once, here: a finite feature row of size
    ``dim`` and a finite label.  Events hand out the stored rows themselves.
    """

    def __init__(self, examples, dim: int):
        self.dim = int(dim)
        self.examples = []
        for a, y in examples:
            _label(y)
            self.examples.append((as_point(a, dim=self.dim), y))

    @classmethod
    def synthetic(cls, seed: int, n: int, T: int, density: float = 0.3) -> "LogisticStream":
        """Sparse random features, labels drawn from a sparse ground-truth model."""
        rng = np.random.default_rng(seed)
        w = np.zeros(n)
        support = rng.choice(n, size=max(1, n // 5), replace=False)
        w[support] = rng.normal(0.0, 2.0, size=support.size)
        examples = []
        for _ in range(T):
            a = rng.standard_normal(n) * (rng.random(n) < density)
            p = 1.0 / (1.0 + np.exp(-float(a @ w)))
            y = int(rng.random() < p)
            examples.append((a, y))
        return cls(examples, n)

    def event(self, t: int, x_t) -> StreamEvent:
        """Reads x_t, the learner's own iterate, unchecked; step validates g."""
        count = len(self.examples)
        if not 1 <= t <= count:
            raise ValueError(f"round {t} is outside 1..{count}: the stream has {count} examples")
        a, y = self.examples[t - 1]
        return StreamEvent(_logistic_gradient(x_t, a, y), LOGISTIC, a, float(y))


# ---------------------------------------------------------------------------
# svmlight text format
# ---------------------------------------------------------------------------

# ASCII literals only: int() and float() alone also accept "1_0" and non-ASCII digits
_INDEX = re.compile(r"[+-]?[0-9]+")
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)


def parse_svmlight(line: str) -> tuple[int, dict[int, float]]:
    """Parse one svmlight line: ``label idx:val idx:val ... [# comment]``.

    Labels {0,1} or {-1,+1} (mapped to {0,1}); indices are 1-based and must
    be strictly increasing.  Indices, labels and values are ASCII numerals.
    """
    payload = line.split("#", 1)[0]
    # (token, 1-based column): each token's own place, not the first match of its text
    tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", payload)]
    if not tokens:
        raise ParseError("empty svmlight line", line=1, column=1)

    raw_label, col = tokens[0]
    if not _NUMBER.fullmatch(raw_label):
        raise ParseError(f"bad label {raw_label!r}", line=1, column=col)
    lab = float(raw_label)
    if lab in (1.0,):
        label = 1
    elif lab in (0.0, -1.0):
        label = 0
    else:
        raise ParseError(f"label must be 0/1 or -1/+1, got {raw_label}", line=1, column=col)

    features: dict[int, float] = {}
    prev_idx = 0
    for tok, col in tokens[1:]:
        if ":" not in tok:
            raise ParseError(f"malformed feature token {tok!r}", line=1, column=col)
        idx_s, val_s = tok.split(":", 1)
        try:  # int() also raises past the interpreter's digit limit
            if not (_INDEX.fullmatch(idx_s) and _NUMBER.fullmatch(val_s)):
                raise ValueError(tok)
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            raise ParseError(f"malformed feature token {tok!r}", line=1, column=col) from None
        if idx < 1:
            raise ParseError(f"feature index must be >= 1, got {idx}", line=1, column=col)
        if idx <= prev_idx:
            raise ParseError(f"feature indices must be strictly increasing, got {idx} after {prev_idx}",
                             line=1, column=col)
        if not np.isfinite(val):
            raise ParseError(f"non-finite feature value in {tok!r}", line=1, column=col)
        features[idx] = val
        prev_idx = idx
    return label, features


def serialize_svmlight(label: int, features: dict[int, float]) -> str:
    """Canonical svmlight line: 0/1 label, sorted 1-based indices, %.17g values."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    parts = [str(label)]
    for idx in sorted(features):
        parts.append(f"{idx}:{features[idx]:.17g}")
    return " ".join(parts)


def load_svmlight(lines, dim: int) -> list:
    """Parse lines into a list of (dense feature row of size ``dim``, label) pairs.

    An index past ``dim`` is a ParseError naming its line, raised before any
    row is allocated.
    """
    parsed = []
    for lineno, line in enumerate(lines, start=1):
        if not line.split("#", 1)[0].strip():
            continue
        try:
            label, feats = parse_svmlight(line)
        except ParseError as err:
            raise ParseError(err.message, line=lineno, column=err.column) from None
        if feats and max(feats) > dim:
            raise ParseError(f"feature index {max(feats)} exceeds dimension {dim}", line=lineno)
        parsed.append((label, feats))
    examples = []
    for label, feats in parsed:
        a = np.zeros(dim)
        for idx, val in feats.items():
            a[idx - 1] = val
        examples.append((a, label))
    return examples
