"""Named property suites: the executable form of each module's invariants.

Each suite returns a SuiteResult; the command-line ``verify`` subcommand and
the acceptance tests both run these, so there is a single source of truth
for every randomized check.  All randomness is seeded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core, oracle
from .bounds import BoundRule, RunTrace, _family, bound_curve
from .core import AdaGradRate, ConstantRate, FeasibleSet, InverseSqrtRate
from .driver import _play, repro_l1_example, run_rounds
from .learners import (
    CENTERED,
    ENTROPIC,
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    StronglyConvexOgd,
)
from .mirror import MdAsFtrl, MirrorDescent
from .streams import (
    LogisticStream,
    RandomLinearStream,
    StronglyConvexQuadraticStream,
    l1_adversary_next,
    logistic_example_gradient,
    logistic_loss,
    parse_svmlight,
    serialize_svmlight,
)


@dataclass
class SuiteResult:
    name: str
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str):
        self.lines.append(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            self.failures.append(label)
        return ok


def _random_schedule(rng) -> core.LearningRateSchedule:
    kind = rng.integers(0, 3)
    if kind == 0:
        return ConstantRate(float(rng.uniform(0.05, 2.0)))
    if kind == 1:
        return InverseSqrtRate(float(rng.uniform(0.2, 2.0)), shift=int(rng.integers(0, 2)))
    return AdaGradRate(float(rng.uniform(0.3, 2.0)), offset=float(rng.uniform(0.0, 1.0)))


# ---------------------------------------------------------------------------
# Mirror-descent / FTRL-form equivalence
# ---------------------------------------------------------------------------

def suite_equivalence(n_streams: int = 100, max_T: int = 200, seed0: int = 0) -> SuiteResult:
    """Round-by-round agreement of MirrorDescent and MdAsFtrl iterates."""
    res = SuiteResult("equivalence")
    worst = 0.0
    for k in range(n_streams):
        rng = np.random.default_rng(seed0 + k)
        n = int(rng.integers(1, 6))
        T = int(rng.integers(10, max_T + 1))
        lam = float(rng.uniform(0.0, 1.0))
        sched = _random_schedule(rng)
        md = MirrorDescent(n, sched, lam=lam)
        twin = MdAsFtrl(n, sched, lam=lam)
        for _ in range(T):
            g = rng.normal(0.0, 1.0, size=n)
            gap = float(np.max(np.abs(md.step(g) - twin.step(g))))
            worst = max(worst, gap)
    res.check(worst <= 1e-8,
              f"mirror-descent and ftrl-form iterates agree on {n_streams} streams "
              f"(max gap {worst:.3e} <= 1e-08)")
    return res


# ---------------------------------------------------------------------------
# The fixed 1-D L1 reproduction
# ---------------------------------------------------------------------------

FTRL_L1_TRAJECTORY = [0.0, 2.625, -2.125, 2.125, -1.625, 1.625, -1.125, 1.125,
                      -0.625, 0.625, -0.125, 0.125, 0.0, 0.0, 0.0, 0.0]


def suite_l1_example() -> SuiteResult:
    res = SuiteResult("l1-example")
    out = repro_l1_example()
    res.check(out.ok, "oscillation and zero-region assertions hold")
    for msg in out.failures:
        res.check(False, msg)
    md_ok = all(abs(abs(x_md) - 2.625) <= 1e-12 for _, x_md, _ in out.rows[1:])
    res.check(md_ok, "mirror descent stays on +/-2.625 from round 2 (1e-12)")
    ftrl_traj = [row[2] for row in out.rows]
    traj_ok = max(abs(a - b) for a, b in zip(ftrl_traj, FTRL_L1_TRAJECTORY)) <= 1e-12
    res.check(traj_ok, "accumulated-penalty trajectory matches the closed-form recursion")
    res.check(all(x == 0.0 for t, _, x in out.rows if t >= 13),
              "exact zeros from round 13 on")
    return res


# ---------------------------------------------------------------------------
# Bound suites (regret <= bound at every prefix) plus the stability diagnostic
# ---------------------------------------------------------------------------

# (learner, bound, stream): the `ocokit run` configs the bound suites certify
_PAIRINGS = (
    ("dual-averaging", "da-closed-form", "random-linear"),
    ("ftrl-proximal", "prox-closed-form", "random-linear"),
    ("adagrad-ftrl-proximal", "adagrad-per-coord", "random-linear-sup"),
    ("entropic", "entropic", "random-linear-sup"),
    ("ogd-strongly-convex", "strongly-convex-log", "strongly-convex"),
    ("constant-ogd", "non-adaptive", "random-linear"),
)


def _bound_pairings(T: int):
    """Each pairing's ``make(seed, rng)``: n drawn from rng, the rest ``run``'s defaults.

    ``make`` returns ``cli.build_run`` of that config: the learner, stream,
    rule, BoundConfig and comparator set ``run_rounds`` takes after T.
    """
    from .cli import _DEFAULTS, build_run  # cli imports this module at load time

    def pairing(learner, bound, stream):
        low = 2 if learner == "entropic" else 1  # the simplex needs n >= 2

        def make(seed, rng):
            n = int(rng.integers(low, 6))
            return build_run(dict(_DEFAULTS, learner=learner, bound=bound, stream=stream,
                                  T=T, seed=seed, n=n))

        return make

    return {f"{learner}/{bound}": pairing(learner, bound, stream)
            for learner, bound, stream in _PAIRINGS}


BOUND_STREAMS = 200  # streams per pairing in the bound suites
BOUND_T = 64


@functools.cache  # the bound and diagnostic suites read the same runs
def run_bound_experiments():
    """Run every (learner, bound) pairing on ``BOUND_STREAMS`` streams of ``BOUND_T`` rounds."""
    results = {}
    for p, (pair_name, make) in enumerate(_bound_pairings(BOUND_T).items()):
        runs = []
        for k in range(BOUND_STREAMS):
            seed = 7919 * p + 104729 * k
            learner, stream, rule, cfg, comp_set = make(seed + 1, np.random.default_rng(seed))
            runs.append(run_rounds(learner, stream, BOUND_T, rule, cfg, comp_set))
        results[pair_name] = runs
    return results


def suite_bounds() -> SuiteResult:
    res = SuiteResult("bounds")
    results = run_bound_experiments()
    for pair_name, runs in results.items():
        ok = all(r.bound_ok for r in runs)
        res.check(ok, f"{pair_name}: regret <= bound at every prefix on {len(runs)} streams")
    # monotonicity of every evaluated bound curve
    mono = all(bool(np.all(np.diff(r.record.bound) >= -1e-9))
               for runs in results.values() for r in runs)
    res.check(mono, "every bound curve is non-decreasing in t")
    return res


def suite_stability_diagnostic() -> SuiteResult:
    """Stability decomposition >= regret, and the weak bound dominates the sharp one."""
    res = SuiteResult("stability-diagnostic")
    results = run_bound_experiments()
    decomp_ok = all(r.decomposition_ok for runs in results.values() for r in runs)
    res.check(decomp_ok, "decomposition RHS >= cumulative regret on every run")

    strict_ok = True
    dominance_ok = True
    cfg = BoundConfig()
    for pair_name in ("ftrl-proximal/prox-closed-form",
                      "adagrad-ftrl-proximal/adagrad-per-coord"):
        for r in results[pair_name]:
            sharp = bound_curve(BoundRule.FTRL_PROXIMAL, cfg, r.trace.grads,
                                x_star=r.x_star, trace=r.trace)
            weak = bound_curve(BoundRule.WEAK_PROXIMAL, cfg, r.trace.grads,
                               x_star=r.x_star, trace=r.trace)
            if np.any(weak < sharp - 1e-9):
                dominance_ok = False
            nonzero = np.cumsum(np.any(r.trace.grads != 0, axis=1)) > 0
            if np.any(nonzero & ~(weak > sharp)):
                strict_ok = False
    res.check(dominance_ok, "weak proximal bound >= sharp proximal bound on every prefix")
    res.check(strict_ok, "the separation is strict whenever some gradient is nonzero")
    return res


def suite_percoord_dominance() -> SuiteResult:
    """Per-coordinate adaptive bound <= fixed-horizon rate under uniform caps."""
    res = SuiteResult("percoord-dominance")
    ok = True
    for seed in range(7, 57):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        G, R_inf = 1.0, 1.0
        stream = RandomLinearStream(seed, n, G / math.sqrt(n), "sup")
        grads = stream.gradients(64)
        cfg = BoundConfig(R=R_inf * math.sqrt(n), R_inf=R_inf, G=G)
        per = bound_curve(BoundRule.ADAGRAD_PER_COORD, cfg, grads)
        fixed = bound_curve(BoundRule.PROX_CLOSED_FORM, cfg, grads)
        ok = ok and not np.any(per > fixed + 1e-9)
    res.check(ok, "per-coordinate bound <= ball-rate bound on 50 uniformly capped streams")
    return res


# ---------------------------------------------------------------------------
# Oracle certification of every closed-form solver
# ---------------------------------------------------------------------------

def suite_oracle_closed_form(count: int = 1000, smooth_count: int = 500,
                             seed0: int = 0) -> SuiteResult:
    res = SuiteResult("oracle-closed-form")
    rng = np.random.default_rng(seed0)

    # soft threshold
    worst = 0.0
    for _ in range(count):
        b = float(rng.uniform(-5, 5))
        lam = float(rng.uniform(0, 3))
        a = float(rng.uniform(0.5, 4))
        closed = core.soft_threshold_argmin(b, lam, a)
        half = oracle.default_bracket(b, a)
        num = oracle.numeric_argmin_1d(lambda x: b * x + lam * abs(x) + 0.5 * a * x * x,
                                       -half, half)
        worst = max(worst, abs(closed - num))
    res.check(worst <= core.TOL_ORACLE, f"soft threshold vs numeric argmin on {count} draws "
                                        f"(max gap {worst:.2e})")

    # softmax on the 2-simplex via a 1-D slice
    def xlogx(p):
        if isinstance(p, np.ndarray):  # math.log per point: np.log may round differently
            return np.array([xlogx(v) for v in p.tolist()])
        return p * math.log(p) if p > 0 else 0.0

    worst = 0.0
    for _ in range(count):
        g = rng.uniform(-3, 3, size=2)
        inv = float(rng.uniform(0.2, 5.0))
        closed = core.softmax_simplex(-g / inv)

        def obj(p, g0=float(g[0]), g1=float(g[1])):
            return g0 * p + g1 * (1 - p) + inv * (math.log(2) + xlogx(p) + xlogx(1 - p))

        p = oracle.numeric_argmin_1d(obj, 0.0, 1.0)
        worst = max(worst, abs(closed[0] - p), abs(closed[1] - (1 - p)))
    res.check(worst <= core.TOL_ORACLE, f"softmax vs numeric simplex argmin on {count} draws "
                                        f"(max gap {worst:.2e})")

    # proximal step against its accumulated objective, on a box
    worst = 0.0
    steps = 0
    while steps < count:
        n = int(rng.integers(1, 4))
        R = float(rng.uniform(0.5, 2.0))
        learner = FtrlProximal(n, AdaGradRate(math.sqrt(2) * R), FeasibleSet.box(R))
        for _ in range(5):
            g = rng.normal(0, 1, size=n)
            x = learner.step(g)
            z = learner.g_sum - learner.adj_sum
            inv = learner.last_inv_rate
            objs = [(lambda v, zi=zi, wi=wi: zi * v + 0.5 * wi * v * v)
                    for zi, wi in zip(z.tolist(), inv.tolist())]
            num = oracle.numeric_argmin_separable(objs, -R, R)
            worst = max(worst, float(np.max(np.abs(x - num))))
            steps += 1
    res.check(worst <= core.TOL_ORACLE, f"proximal step vs numeric argmin on {steps} steps "
                                        f"(max gap {worst:.2e})")

    # mirror step against its one-step objective
    worst = 0.0
    steps = 0
    while steps < count:
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(0, 1.5))
        md = MirrorDescent(n, ConstantRate(float(rng.uniform(0.2, 2.0))), lam=lam)
        for _ in range(5):
            g = rng.normal(0, 1, size=n)
            x_prev = md.x.copy()
            x = md.step(g)
            w = md.last_inv_rate
            objs = [(lambda v, gi=gi, wi=wi, xi=xi:
                     gi * v + lam * abs(v) + 0.5 * wi * ((v - xi) * (v - xi)))
                    for gi, wi, xi in zip(g.tolist(), w.tolist(), x_prev.tolist())]
            half = np.array([oracle.default_bracket(abs(g[i]) + w[i] * abs(x_prev[i]), w[i])
                             for i in range(n)])
            num = oracle.numeric_argmin_separable(objs, -half, half)
            worst = max(worst, float(np.max(np.abs(x - num))))
            steps += 1
    res.check(worst <= core.TOL_ORACLE, f"mirror step vs numeric argmin on {steps} steps "
                                        f"(max gap {worst:.2e})")

    # projections: box via the separable oracle, ball via interval / nested search
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 5))
        R = float(rng.uniform(0.3, 2.0))
        v = rng.normal(0, 2, size=n)
        closed = core.clamp_box(v, R)
        objs = [(lambda x, vi=vi: (x - vi) * (x - vi)) for vi in v.tolist()]
        num = oracle.numeric_argmin_separable(objs, -R, R)
        worst = max(worst, float(np.max(np.abs(closed - num))))
    res.check(worst <= core.TOL_ORACLE, f"box projection vs numeric argmin on {count} draws "
                                        f"(max gap {worst:.2e})")

    worst = 0.0
    for k in range(count):
        R = float(rng.uniform(0.3, 2.0))
        if k % 2 == 0:
            v = rng.normal(0, 2, size=1)
            closed = core.project_l2_ball(v, R)
            v0 = float(v[0])
            num = np.array([oracle.numeric_argmin_1d(lambda x: (x - v0) * (x - v0), -R, R)])
        else:
            v = rng.normal(0, 2, size=2)
            closed = core.project_l2_ball(v, R)
            v0, v1 = v.tolist()
            num = oracle.numeric_argmin_ball_2d(
                lambda a, b: (a - v0) * (a - v0) + (b - v1) * (b - v1), R)
        worst = max(worst, float(np.max(np.abs(closed - num))))
    res.check(worst <= core.TOL_ORACLE, f"ball projection vs numeric argmin on {count} draws "
                                        f"(max gap {worst:.2e})")

    # the nonnegative-sequence inequality
    ok = True
    for _ in range(count):
        length = int(rng.integers(1, 101))
        a = rng.uniform(0, 2, size=length) * (rng.random(length) < 0.9)
        lhs, rhs, holds = oracle.check_lemma_sum(a)
        ok = ok and holds
    res.check(ok, f"prefix-sum inequality holds on {count} sequences")

    # one-step stability inequalities; equality on the smooth subfamily
    ineq_ok = True
    gap_ok = True
    worst_gap = 0.0
    for k in range(smooth_count):
        n = int(rng.integers(1, 4))
        q = rng.uniform(0.5, 3.0, size=n)
        c = rng.uniform(-2, 2, size=n)
        pure = k % 2 == 0
        if pure:
            phi = oracle.QuadraticObjective(q, c)
            psi = oracle.LinearPlusL1(rng.uniform(-2, 2, size=n), 0.0)
        else:
            phi = oracle.QuadraticObjective(q, c, box=float(rng.uniform(0.2, 2.0)))
            psi = oracle.LinearPlusL1(rng.uniform(-2, 2, size=n), float(rng.uniform(0, 1.5)))
        report = oracle.check_smoothchange(phi, psi, rng=rng)
        ineq_ok = ineq_ok and report.holds
        if pure:
            worst_gap = max(worst_gap, report.equality_gap)
            gap_ok = gap_ok and report.equality_gap <= 1e-9
    res.check(ineq_ok, f"one-step stability inequalities hold on {smooth_count} instances")
    res.check(gap_ok, f"equality gap <= 1e-09 on the smooth subfamily (max {worst_gap:.2e})")
    return res


# ---------------------------------------------------------------------------
# Per-module invariants
# ---------------------------------------------------------------------------

def suite_core() -> SuiteResult:
    res = SuiteResult("core")
    rng = np.random.default_rng(0)

    ok = True
    for _ in range(500):
        z = rng.normal(0, 5, size=int(rng.integers(1, 8)))
        x = core.softmax_simplex(z)
        shift = core.softmax_simplex(z + float(rng.uniform(-100, 100)))
        ok = ok and bool(np.all(x > 0)) and abs(float(x.sum()) - 1.0) <= 1e-12
        ok = ok and float(np.max(np.abs(x - shift))) <= 1e-12
    res.check(ok, "softmax: positive, sums to one, shift invariant")

    ok = True
    quadratic, entropic = _family(CENTERED), _family(ENTROPIC)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        w = rng.uniform(0, 3, size=n)
        u, v = rng.normal(0, 2, size=n), rng.normal(0, 2, size=n)
        d = quadratic.divergence(w, u, v)
        ok = ok and d >= -1e-12 and abs(quadratic.divergence(w, u, u)) <= 1e-12
        p = core.softmax_simplex(rng.normal(0, 1, size=n + 1))
        q = core.softmax_simplex(rng.normal(0, 1, size=n + 1))
        weight = float(rng.uniform(0.1, 3))
        ok = ok and entropic.divergence(weight, p, q) >= -1e-12
    res.check(ok, "divergences are nonnegative and vanish at u = v")

    ok = True
    for _ in range(200):
        sched = _random_schedule(rng)
        sq = np.cumsum(rng.uniform(0, 2, size=29))  # the squared sums through rounds 1..29
        rates = np.array([[sched.inverse_rate(t, s)] for t, s in enumerate([0.0, *sq])])
        trace = RunTrace(grads=np.zeros((29, 1)), points=np.zeros((30, 1)), rates=rates,
                         reg_kind=CENTERED)
        total = rates[0] + np.cumsum(trace.sigmas(), axis=0)
        ok = ok and float(np.max(np.abs(total - trace.inv_rates))) <= 1e-9
    res.check(ok, "sigma increments sum back to the inverse rate (1e-09)")

    ok = True
    for _ in range(500):
        v = rng.normal(0, 3, size=int(rng.integers(1, 5)))
        R = float(rng.uniform(0.2, 2))
        p = core.project_l2_ball(v, R)
        ok = ok and float(np.linalg.norm(p)) <= R * (1 + 1e-12)
        ok = ok and float(np.max(np.abs(core.project_l2_ball(p, R) - p))) <= 1e-15
    res.check(ok, "ball projection is idempotent and feasible")
    return res


def suite_learners() -> SuiteResult:
    res = SuiteResult("learners")
    rng = np.random.default_rng(0)

    # closed-form equivalence of the three quadratic learners at a fixed rate
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 5))
        eta = float(rng.uniform(0.1, 2.0))
        da = DualAveraging(n, ConstantRate(eta))
        prox = FtrlProximal(n, ConstantRate(eta), FeasibleSet.unconstrained())
        comp = FtrlCompositeL1(n, ConstantRate(eta), 0.0)
        g_sum = np.zeros(n)
        for _ in range(20):
            g = rng.normal(0, 1, size=n)
            g_sum += g
            want = -eta * g_sum
            for learner in (da, prox, comp):
                ok = ok and float(np.max(np.abs(learner.step(g) - want))) <= 1e-12
    res.check(ok, "constant-rate learners all emit -eta * g_{1:t} (1e-12)")

    # follow-the-leader on quadratic lower bounds equals the 1/t-rate update
    ok = True
    for k in range(20):
        n = int(rng.integers(1, 4))
        learner = StronglyConvexOgd(n)
        stream = StronglyConvexQuadraticStream(k, n)
        history = []
        for t in range(1, 25):
            x_t = learner.x.copy()
            ev = stream.event(t, x_t)
            history.append((x_t, ev.g.copy()))
            x_next = learner.step(ev.g)
            objs = []
            for i in range(n):
                terms = [(float(gs[i]), float(xs[i])) for xs, gs in history]
                objs.append(lambda v, terms=terms: sum(
                    gi * (v - xi) + 0.5 * ((v - xi) * (v - xi)) for gi, xi in terms))
            # value noise near a flat minimum exceeds 1e-8 for plain
            # golden section, so use the parabolic-polished search
            num = np.array([oracle.polished_argmin_1d(f, -3, 3) for f in objs])
            ok = ok and float(np.max(np.abs(x_next - num))) <= 1e-8
    res.check(ok, "1/t-rate update matches follow-the-leader on quadratic lower bounds (1e-08)")

    # feasibility of every emitted iterate
    ok = True
    for k in range(30):
        n = int(rng.integers(2, 5))
        learners = [
            DualAveraging(n, InverseSqrtRate(1.0, shift=1), FeasibleSet.l2_ball(0.7)),
            FtrlProximal(n, AdaGradRate(1.0), FeasibleSet.box(0.5)),
            EntropicFtrl(n, 1.0),
        ]
        for learner in learners:
            for _ in range(25):
                x = learner.step(rng.normal(0, 1, size=n))
                ok = ok and learner.feasible_set.contains(x, tol=1e-12)
    res.check(ok, "every emitted iterate is feasible for its set")

    # entropic rate never increases
    ok = True
    for k in range(20):
        learner = EntropicFtrl(int(rng.integers(2, 6)), 1.0)
        prev = learner.last_inv_rate[0]
        for _ in range(40):
            learner.step(rng.normal(0, 1, size=learner.dim))
            ok = ok and learner.last_inv_rate[0] >= prev - 1e-12
            prev = learner.last_inv_rate[0]
    res.check(ok, "entropic learning rate is non-increasing")

    # per-coordinate decomposability: permuting coordinates permutes iterates
    ok = True
    for k in range(20):
        n = int(rng.integers(2, 6))
        perm = rng.permutation(n)
        a = FtrlProximal(n, AdaGradRate(math.sqrt(2.0)), FeasibleSet.box(1.0))
        b = FtrlProximal(n, AdaGradRate(math.sqrt(2.0)), FeasibleSet.box(1.0))
        for _ in range(25):
            g = rng.normal(0, 1, size=n)
            xa = a.step(g)
            xb = b.step(g[perm])
            ok = ok and float(np.max(np.abs(xa[perm] - xb))) <= 1e-12
    res.check(ok, "per-coordinate rates are permutation equivariant (1e-12)")
    return res


def suite_mirror() -> SuiteResult:
    res = SuiteResult("mirror")
    rng = np.random.default_rng(0)

    eq = suite_equivalence(n_streams=30, max_T=120)
    res.check(eq.passed, "ftrl-form twin agreement (30-stream spot check)")

    # subgradient extraction stays inside the penalty band
    ok = True
    for k in range(50):
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.1, 1.0))
        md = MirrorDescent(n, ConstantRate(float(rng.uniform(0.2, 1.5))), lam=lam)
        for _ in range(30):
            g = rng.normal(0, 1, size=n)
            x_prev = md.x.copy()
            md.step(g)
            g_psi = core._psi_subgradient(x_prev, md.x, g, md.last_inv_rate, md.lam)
            ok = ok and bool(np.all(np.abs(g_psi) <= lam + 1e-12))
            nz = md.x != 0
            ok = ok and bool(np.all(g_psi[nz] == lam * np.sign(md.x[nz])))
    res.check(ok, "extracted penalty subgradients satisfy the subdifferential membership")

    # lam = 0, constant rate, unconstrained: plain gradient descent
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.1, 1.5))
        md = MirrorDescent(n, ConstantRate(eta))
        x = np.zeros(n)
        for _ in range(30):
            g = rng.normal(0, 1, size=n)
            x = x - eta * g
            ok = ok and float(np.max(np.abs(md.step(g) - x))) <= 1e-12
    res.check(ok, "lam=0 constant-rate mirror descent is exact gradient descent (1e-12)")

    out = repro_l1_example()
    res.check(all(abs(abs(x_md) - 2.625) <= 1e-12 for _, x_md, _ in out.rows[1:]),
              "1-D adversary keeps mirror descent oscillating on +/-2.625")
    return res


def _lazy_family(n: int, eta: float, fset: FeasibleSet) -> list:
    """Lazy projection's members, each a map g_t -> x_{t+1}; dual averaging is the last.

    The restatements keep g_{1:t} and project -eta g_{1:t}, or keep the dual
    point theta and map it through the regularizer's conjugate gradient.
    """
    g_sum, theta = np.zeros(n), np.zeros(n)

    def projection(g):
        nonlocal g_sum
        g_sum = g_sum + g
        return fset.project(-eta * g_sum)

    def explicit(g):
        nonlocal theta
        theta = theta - g
        return fset.project(eta * theta)

    return [projection, explicit, DualAveraging(n, ConstantRate(eta), fset).step]


def _greedy_family(n: int, eta: float, fset: FeasibleSet) -> list:
    """Greedy projection's members, each a map g_t -> x_{t+1}; mirror descent is the third.

    The others: the two-step Proj(x_t - eta g_t), the dual point
    theta = x_t / eta - g_t, and the accumulated objective with the set's
    indicator linearized through extracted subgradients.
    """
    x_two_step, x_explicit, accum = np.zeros(n), np.zeros(n), np.zeros(n)

    def projection(g):
        nonlocal x_two_step
        x_two_step = fset.project(x_two_step - eta * g)
        return x_two_step

    def explicit(g):
        nonlocal x_explicit
        theta = x_explicit / eta - g
        x_explicit = fset.project(eta * theta)
        return x_explicit

    def accumulated(g):  # accum is g_{1:t} + g_ind_{1:t-1}
        nonlocal accum
        accum = accum + g
        x = fset.project(-eta * accum)
        g_ind = -accum - x / eta  # the indicator subgradient that keeps optimality exact
        accum = accum + g_ind
        return x

    return [projection, explicit,
            MirrorDescent(n, ConstantRate(eta), feasible_set=fset).step, accumulated]


def suite_projection_families() -> SuiteResult:
    """Lazy and greedy projection: dual averaging and mirror descent at a constant rate."""
    res = SuiteResult("projection-families")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.1, 1.0))
        fset = FeasibleSet.l2_ball(float(rng.uniform(0.2, 1.0)))
        families = (_lazy_family(n, eta, fset), _greedy_family(n, eta, fset))
        for _ in range(40):
            g = rng.normal(0, 1, size=n)
            for steps in families:
                xs = [step(g) for step in steps]
                for x in xs[1:]:
                    worst = max(worst, float(np.max(np.abs(x - xs[0]))))
    res.check(worst <= 1e-9, f"within-family formulations agree on 100 ball streams "
                             f"(max gap {worst:.2e})")

    box = FeasibleSet.box(1.0)
    lazy = DualAveraging(1, ConstantRate(1.0), box)
    greedy = MirrorDescent(1, ConstantRate(1.0), feasible_set=box)
    trajectory = []
    for g in (2.0, -2.0):
        trajectory.append((float(lazy.step([g])[0]), float(greedy.step([g])[0])))
    res.check(trajectory[0] == (-1.0, -1.0), "both families hit the -1 face after the first step")
    gap = abs(trajectory[1][0] - trajectory[1][1])
    res.check(trajectory[1] == (0.0, 1.0) and gap == 1.0,
              "families split at the third point: lazy 0, greedy 1 (gap exactly 1)")
    return res


def suite_streams() -> SuiteResult:
    res = SuiteResult("streams")
    rng = np.random.default_rng(0)

    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x = rng.normal(0, 1, size=n)
        a = rng.normal(0, 1, size=n)
        y = int(rng.integers(0, 2))
        g = logistic_example_gradient(x, a, y)
        fd = oracle.finite_difference_subgradient(lambda v: logistic_loss(v, a, y), x)
        scale = max(1.0, float(np.max(np.abs(g))))
        ok = ok and float(np.max(np.abs(g - fd))) <= 1e-5 * scale
    res.check(ok, "logistic gradients pass the finite-difference check (1e-05 relative)")

    ok = True
    for t in range(1, 200):
        g = l1_adversary_next(float(rng.normal()), t, 11.0, 0.5)
        ok = ok and abs(g) <= 11.0
    res.check(ok, "adversary gradients never exceed the declared cap")

    s1 = RandomLinearStream(42, 3, 1.0)
    s2 = RandomLinearStream(42, 3, 1.0)
    same = all(np.array_equal(s1.event(t, np.zeros(3)).g, s2.event(t, np.zeros(3)).g)
               for t in range(1, 50))
    res.check(same, "random streams are deterministic per seed")
    s3 = RandomLinearStream(7, 4, 0.9)
    caps = all(abs(np.linalg.norm(s3.event(t, np.zeros(4)).g) - 0.9) <= 1e-12
               for t in range(1, 50))
    res.check(caps, "every emitted gradient sits exactly on the declared cap")

    ok = True
    for _ in range(200):
        label = int(rng.integers(0, 2))
        feats = {int(i): float(f"{rng.normal():.6g}")
                 for i in sorted(rng.choice(50, size=rng.integers(1, 6), replace=False) + 1)}
        line = serialize_svmlight(label, feats)
        back_label, back = parse_svmlight(line)
        ok = ok and back_label == label and back == feats
        ok = ok and serialize_svmlight(back_label, back) == line
    res.check(ok, "svmlight serialize/parse round trips canonically")
    return res


# ---------------------------------------------------------------------------
# Sparsity contrast on a logistic + L1 run
# ---------------------------------------------------------------------------

def sparsity_contrast():
    """Final nonzero counts of the accumulated-penalty learner vs mirror descent.

    Both play 2000 rounds of the seed-5 synthetic logistic stream at n = 50,
    with eta = 0.1 and lam = 0.02.
    """
    n, T, lam, eta = 50, 2000, 0.02, 0.1
    ftrl, md = (_play(learner, LogisticStream.synthetic(5, n, T), T).points[-1]
                for learner in (FtrlCompositeL1(n, ConstantRate(eta), lam),
                                MirrorDescent(n, ConstantRate(eta), lam=lam)))
    return int(np.count_nonzero(ftrl)), int(np.count_nonzero(md))


def suite_sparsity() -> SuiteResult:
    res = SuiteResult("sparsity")
    ftrl_nz, md_nz = sparsity_contrast()
    res.check(ftrl_nz <= md_nz,
              f"accumulated penalty is at least as sparse: {ftrl_nz} vs {md_nz} nonzeros")
    return res


SUITES = {
    "core": suite_core,
    "learners": suite_learners,
    "mirror": suite_mirror,
    "streams": suite_streams,
    "bounds": suite_bounds,
    "stability-diagnostic": suite_stability_diagnostic,
    "percoord-dominance": suite_percoord_dominance,
    "oracle-closed-form": suite_oracle_closed_form,
    "equivalence": suite_equivalence,
    "l1-example": suite_l1_example,
    "projection-families": suite_projection_families,
    "sparsity": suite_sparsity,
}


def run_suite(name: str) -> SuiteResult:
    if name == "all":
        merged = SuiteResult("all")
        for sub in SUITES.values():
            out = sub()
            merged.lines.extend(f"[{out.name}] {line}" for line in out.lines)
            merged.failures.extend(f"[{out.name}] {msg}" for msg in out.failures)
        return merged
    return SUITES[name]()
