"""The prefix law: a run's first t rows do not depend on how long it runs.

The learner has seen only rounds 1..t when it plays x_{t+1}, so a run cut at
t must play the first t rows of a longer run bit for bit, and accounting the
cut run's trace at the longer run's comparator x* must give the first t rows
of its bound and Strong FTRL decomposition bit for bit.  The second half
holds only if no accounting reduction groups rows by the array's length, as
a BLAS matrix-vector product does: r_{0:t}(x*) and the mirror penalty's
tangents g_psi_t.x* are per-row products (``core._row_dots``).  The horizon
rate R / (G sqrt(T)) depends on T by design, so those learners get a fixed eta.
At seeds 1 and 4 a matrix-vector product in place of either moves a bit: the
centered r_{0:t}(x*) in ten cuts, and md-l1's tangents at seed 1, n = 40 and
t = 7, where a one-ulp row difference survives the prefix sum (most do not).
"""

import itertools

import numpy as np
import pytest

from ocokit import cli
from ocokit.bounds import _bound_and_rhs
from ocokit.driver import run_rounds

T, CUTS = 120, (1, 7, 60)
RUNS = {  # learner: (stream, bound)
    "dual-averaging": ("random-linear", "da-closed-form"),
    "constant-ogd": ("random-linear", "non-adaptive"),
    "ftrl-proximal": ("random-linear", "ftrl-proximal"),
    "adagrad-ftrl-proximal": ("random-linear-sup", "adagrad-per-coord"),
    "ftrl-l1": ("random-linear", "composite"),
    "md-l1": ("random-linear", "mirror-descent"),
    "entropic": ("random-linear-sup", "entropic"),
    "ogd-strongly-convex": ("strongly-convex", "strongly-convex-log"),
}
L1 = ("ftrl-l1", "md-l1")
CASES = [(learner, lam) for learner in RUNS for lam in ((0.0, 0.1) if learner in L1 else (0.0,))]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(learner, lam, n, seed, rounds):
    stream, bound = RUNS[learner]
    cfg = dict(cli._DEFAULTS, learner=learner, stream=stream, bound=bound, T=rounds, n=n,
               seed=seed, **{"lambda": lam})
    if learner in cli._HORIZON_RATE:
        cfg["eta"] = 0.1
    learner_, stream_, rule, bc, comp_set = cli.build_run(cfg)
    return run_rounds(learner_, stream_, rounds, rule, bc, comp_set), rule, bc


@pytest.mark.parametrize("learner,lam", CASES, ids=[f"{a}-lam{b}" for a, b in CASES])
def test_a_cut_run_plays_and_accounts_the_first_rows_of_a_longer_one(learner, lam):
    for n, seed in itertools.product((1, 8, 40), (1, 4)):
        if n == 1 and learner == "entropic":  # the simplex needs n >= 2
            continue
        full, rule, bc = _run(learner, lam, n, seed, T)
        for t in CUTS:
            cut, *_ = _run(learner, lam, n, seed, t)
            trace = cut.trace
            for name, rows in (("grads", t), ("points", t + 1), ("rates", t + 1)):
                want = getattr(full.trace, name)[:rows]
                assert _same(getattr(trace, name), want), (n, seed, t, name)
            if full.trace.psi is None:
                assert trace.psi is None
            else:
                assert _same(trace.psi, full.trace.psi[:t]), (n, seed, t, "psi")
            bound, rhs = _bound_and_rhs(trace, full.x_star, rule, bc)
            assert _same(bound, full.record.bound[:t]), (n, seed, t, "bound")
            assert _same(rhs, full.record.strong_ftrl_rhs[:t]), (n, seed, t, "decomposition")
