"""A fixed calibration load that tracks how fast the machine runs right now.

The machine the benchmark was built on changes speed by up to 2x with
nothing else running, in stretches from a second to minutes, so a raw time
says as much about the machine's state as about ocokit.  ``calibrate()``
runs the same small load (about 10 ms) and returns its seconds.  The
benchmark calibrates before and after every op, and expresses each op in
*reference seconds*: the op's seconds divided by the mean of the two
calibrations around it, times ``REFERENCE_S``, the load's nominal time.
Other work on the host takes the processor away for a few milliseconds at a
time, so one 10 ms load is a poor sample of the machine's speed during a
long op; next to a long op the load is repeated for a share of the op's
length and its mean taken.  A change to ocokit moves the op and not the
calibration, which imports nothing from ocokit.

The load mixes the kinds of work ocokit does: a per-coordinate loop of
scalar numpy arithmetic and checks (the soft-threshold pattern), numpy calls
on 5-element arrays (per-call overhead at tiny n), numpy expressions over
10^4 elements (the weighted-ball bisection) and a loop of plain Python
floats.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The calibration's seconds at the reference speed.  On the 2-vCPU Xeon guest
# the benchmark was built on, a run's median calibration went from 5.8 ms
# (fast state) to 12.8 ms (slow state), so there a reference second is a
# wall-clock second in a state a little slower than the fastest.
REFERENCE_S = 0.007

# Next to an op, calibrate for at least this share of the op's length.
SHARE = 0.05

_rng = np.random.default_rng(20140314)
_G = _rng.standard_normal(1500)
_W = _rng.random(1500) + 0.5
_X = _rng.standard_normal(1500)
_SMALL_A = _rng.standard_normal(5)
_SMALL_B = _rng.standard_normal(5)
_BIG_U = _rng.standard_normal(10_000)
_BIG_W = _rng.random(10_000)
_FLOATS = [float(v) for v in _rng.standard_normal(1000)]


def _shrink(b, lam, a):
    if not (np.isfinite(b) and np.isfinite(lam) and np.isfinite(a)):
        raise ValueError("non-finite argument")
    if abs(b) <= lam:
        return 0.0
    return -(b - math.copysign(lam, b)) / a


def calibrate(min_seconds=0.0):
    """Run the load at least once and for at least ``min_seconds``; return its mean seconds."""
    runs = 0
    start = time.perf_counter()
    while True:
        _load()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


def _load():
    x = np.empty(_G.size)
    for i in range(_G.size):
        x[i] = _shrink(_G[i] - _W[i] * _X[i], 0.1, _W[i])
    acc = float(x.sum())
    for _ in range(400):
        a = _SMALL_A * 0.5 + _SMALL_B
        acc += float(np.linalg.norm(a)) + float(a.dot(_SMALL_A))
    for _ in range(40):
        acc += float(np.linalg.norm(np.where(_BIG_W > 0.1, _BIG_W * _BIG_U / (_BIG_W + 0.3), 0.0)))
    for v in _FLOATS:
        s = abs(v) - 0.1
        acc += (s if s > 0 else 0.0) * (1.0 if v >= 0 else -1.0)
    if not math.isfinite(acc):
        raise ArithmeticError("calibration load went non-finite")
