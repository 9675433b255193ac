"""The scaling law: gradients, their bounds and the penalty scaled by 2^k change no iterate.

Every learner's rate divides by the gradient bounds G and G_inf, or by a
running root of squared gradients, so multiplying every gradient, G, G_inf and
lambda by 2^k multiplies every inverse rate and L1 threshold by 2^k and leaves
the iterates unchanged.  The losses, the comparator's losses, the regret, the
bound and the Strong FTRL decomposition are then 2^k times the unscaled ones.
A power of two multiplies exactly, so all of this holds bit for bit while
every square and sum stays normal and finite: up to k = 505 with T = 16 rounds
of at most n = 8 coordinates, and down to k = -500.  At k = -510 the squares of
the smallest entries are already subnormal and lose bits (17 of these cases
move), so the rejection or prescale that range needs is left open.  A constant
added outside the scale (a fixed 1e-12 under AdaGrad's square root, say)
breaks the law in 29 of these cases.
"""

import numpy as np
import pytest

from ocokit import cli
from ocokit.driver import run_rounds

T = 16
KS = (-500, -400, -60, 60, 400, 480, 505)
STREAMS = [("random-linear", n) for n in (1, 3, 8)] + \
    [("random-linear-sup", n) for n in (1, 3, 8)] + [("l1-adversary", 1)]
L1 = ("ftrl-l1", "md-l1")
CASES = [(learner, bound, stream, n, lam)
         for learner, bounds in cli.COMPAT.items() if learner != "ogd-strongly-convex"
         for bound in sorted(bounds)
         for stream, n in STREAMS if not (learner == "entropic" and n == 1)  # simplex: n >= 2
         for lam in ((0.0, 0.125) if learner in L1 else (0.0,))]
SCALED = ("loss", "comp_loss", "cum_regret", "bound", "strong_ftrl_rhs")


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(learner, bound, stream, n, lam, k):
    cfg = dict(cli._DEFAULTS, learner=learner, bound=bound, stream=stream, T=T, n=n, seed=3)
    for key, value in (("G", cfg["G"]), ("G_inf", cfg["G_inf"]), ("lambda", lam)):
        cfg[key] = float(np.ldexp(value, k))
    learner_, stream_, rule, bc, comp_set = cli.build_run(cfg)
    return run_rounds(learner_, stream_, T, rule, bc, comp_set)


@pytest.mark.parametrize("learner,bound,stream,n,lam", CASES,
                         ids=[f"{a}-{b}-{c}-n{d}-lam{e}" for a, b, c, d, e in CASES])
def test_scaled_gradients_play_the_same_points_and_scale_every_column(
        learner, bound, stream, n, lam):
    base = _run(learner, bound, stream, n, lam, 0)
    for k in KS:
        scaled = _run(learner, bound, stream, n, lam, k)
        assert _same(scaled.trace.points, base.trace.points), (k, "points")
        for name in SCALED:
            want = np.ldexp(getattr(base.record, name), k)
            assert _same(getattr(scaled.record, name), want), (k, name)
