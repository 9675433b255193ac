"""The four benchmark workloads, built from a seed against ocokit's public API.

A workload is a list of ops.  One pass runs every op once; the benchmark
repeats passes until its time is up, so every pass does the same work on the
same inputs.  Each op has three parts:

* ``prepare()`` builds the fresh, stateful objects the op consumes (learners
  and random streams), outside the timed region;
* ``run(prepared)`` is the timed call into ocokit;
* ``check(prepared, result)`` validates the output and returns a signature,
  a list of floats that must repeat on every pass and match the stored
  reference values where the seed has them.  It raises ``OpFailure`` when
  an output check fails.

Ops are looked up on the module at call time (``ok.driver.run_rounds``), so
the traced run sees the wrapped functions and the untraced run the originals.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np


class OpFailure(Exception):
    """The op returned, but its output failed a check."""


class Op:
    def __init__(self, kind, run, check, prepare=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.prepare = prepare or (lambda: None)


class Workload:
    """Ops plus the sizes every result records."""

    def __init__(self, name, ops, rounds_per_pass, sizes):
        self.name = name
        self.ops = ops
        self.rounds_per_pass = rounds_per_pass
        self.sizes = dict(sizes, ops_per_pass=len(ops), rounds_per_pass=rounds_per_pass)


def _seeds(seed, count):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


def _run_signature(result):
    if not result.bound_ok:
        raise OpFailure("regret exceeded the bound at some prefix (bound_ok false)")
    if not result.decomposition_ok:
        raise OpFailure("regret exceeded the stability decomposition (decomposition_ok false)")
    # x_final is summarized so that n = 10^4 fits in the stored references
    x = result.x_final
    return [float(result.record.cum_regret[-1]), float(np.sum(x)), float(np.sum(np.abs(x))),
            float(np.sum(x * x)), float(np.count_nonzero(x))]


# ---------------------------------------------------------------------------
# bound-sweep: the six paper pairings at tiny n, straight into run_rounds
# ---------------------------------------------------------------------------

SWEEP_T = 64
SWEEP_STREAMS_PER_PAIRING = 10


def bound_sweep(ok, seed, workdir):
    # run_rounds directly, never run_bound_experiments: its cache would turn
    # every pass after the first into a dictionary lookup.
    T = SWEEP_T
    pairings = ok.suites._bound_pairings(T)
    stream_seeds = _seeds(seed, len(pairings) * SWEEP_STREAMS_PER_PAIRING)
    ops = []
    for p, (pair_name, make) in enumerate(pairings.items()):
        for k in range(SWEEP_STREAMS_PER_PAIRING):
            s = stream_seeds[p * SWEEP_STREAMS_PER_PAIRING + k]
            ops.append(Op(
                pair_name,
                prepare=lambda make=make, s=s: make(s, np.random.default_rng(s)),
                run=lambda a: ok.driver.run_rounds(a[0], a[1], T, a[2], a[3], a[4]),
                check=lambda a, result: _run_signature(result)))
    return Workload("bound-sweep", ops, rounds_per_pass=T * len(ops),
                    sizes={"n": "1-5 (drawn per stream)", "T": T, "density": 1.0,
                           "pairings": list(pairings)})


# ---------------------------------------------------------------------------
# long-horizon: `ocokit run` in-process, CSV to a file
# ---------------------------------------------------------------------------

# Long enough that the O(T^2) driver accounting dominates the learner step.
LONG_MD_T = 1024
LONG_ADAGRAD_T = 4096
LONG_N = 5

_LONG_RUNS = {
    "md-l1": (LONG_MD_T, "learner = md-l1\nstream = random-linear\nbound = mirror-descent\n"
                         f"T = {LONG_MD_T}\nn = {LONG_N}\nlambda = 0.1\n"),
    "adagrad-ftrl-proximal": (LONG_ADAGRAD_T,
                              "learner = adagrad-ftrl-proximal\nstream = random-linear-sup\n"
                              f"bound = ftrl-proximal\nT = {LONG_ADAGRAD_T}\nn = {LONG_N}\n"),
}
_CSV_HEADER = "round,loss,comp_loss,cum_regret,bound,decomposition"


def _csv_check(path, T):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise OpFailure(f"unexpected CSV header {lines[:1]!r}")
    if len(lines) != T + 1:
        raise OpFailure(f"expected {T} CSV rows, got {len(lines) - 1}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    cum, decomposition = rows[:, 3], rows[:, 5]
    # values are printed to 12 significant digits; allow for that rounding
    slack = 1e-9 + 1e-11 * np.maximum(np.abs(cum), np.abs(decomposition))
    if np.any(cum > decomposition + slack):
        raise OpFailure("CSV cum_regret exceeds the decomposition column")
    return [float(v) for v in rows[-1]] + [float(v) for v in rows.sum(axis=0)]


def long_horizon(ok, seed, workdir):
    out = os.path.join(workdir, "rows.csv")
    ops = []
    for (name, (T, text)), s in zip(_LONG_RUNS.items(), _seeds(seed, len(_LONG_RUNS))):
        path = os.path.join(workdir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["run", "--config", path, "--out", out, "--seed", str(s)]

        def check(_, code, T=T):
            if code != 0:
                raise OpFailure(f"ocokit run exited {code}")
            return _csv_check(out, T)

        ops.append(Op(name, run=lambda _, argv=argv: ok.cli.main(argv), check=check))
    return Workload("long-horizon", ops, rounds_per_pass=sum(T for T, _ in _LONG_RUNS.values()),
                    sizes={"n": LONG_N, "density": 1.0,
                           "T": {name: T for name, (T, _) in _LONG_RUNS.items()}})


# ---------------------------------------------------------------------------
# high-dim: sparse logistic data at n = 10^4, three learner/bound pairs
# ---------------------------------------------------------------------------

HIGH_N = 10_000
HIGH_T = 48  # the T x n trace arrays are then about 13% of the peak RSS
HIGH_DENSITY = 0.01
HIGH_LAM = 0.01
HIGH_ETA = 0.1
HIGH_R = 1.0


def high_dim(ok, seed, workdir):
    core, learners, mirror = ok.core, ok.learners, ok.mirror
    n, T, R = HIGH_N, HIGH_T, HIGH_R
    stream = ok.streams.LogisticStream.synthetic(seed, n, T, density=HIGH_DENSITY)
    rule = ok.bounds.BoundRule
    pairs = {
        "ftrl-composite-l1/composite": lambda: (
            learners.FtrlCompositeL1(n, core.AdaGradRate(math.sqrt(2.0) * R), HIGH_LAM,
                                     centering="proximal", feasible_set=core.FeasibleSet.box(R)),
            rule.COMPOSITE, core.FeasibleSet.box(R)),
        "mirror-descent-l1/mirror-descent": lambda: (
            mirror.MirrorDescent(n, core.ConstantRate(HIGH_ETA), lam=HIGH_LAM),
            rule.MIRROR_DESCENT, core.FeasibleSet.l2_ball(R)),
        "ftrl-proximal/ftrl-proximal": lambda: (
            learners.FtrlProximal(n, core.AdaGradRate(math.sqrt(2.0) * R),
                                  core.FeasibleSet.l2_ball(R)),
            rule.FTRL_PROXIMAL, core.FeasibleSet.l2_ball(R)),
    }
    cfg = learners.BoundConfig()
    ops = [Op(name, prepare=make,
              run=lambda a: ok.driver.run_rounds(a[0], stream, T, a[1], cfg, a[2]),
              check=lambda a, result: _run_signature(result))
           for name, make in pairs.items()]
    return Workload("high-dim", ops, rounds_per_pass=T * len(ops),
                    sizes={"n": n, "T": T, "density": HIGH_DENSITY,
                           "example_bytes": T * n * 8, "pairs": list(pairs)})


# ---------------------------------------------------------------------------
# certify: the oracle certification and equivalence suites
# ---------------------------------------------------------------------------

CERT_ORACLE_CALLS = 3
CERT_COUNT = 10
CERT_SMOOTH_COUNT = 5
CERT_EQ_CALLS = 4
CERT_EQ_STREAMS = 25
CERT_EQ_T = 10  # suite_equivalence draws T in [10, max_T]; max_T = 10 fixes it

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _suite_signature(result):
    fails = [line for line in result.lines if line.startswith("FAIL")]
    if fails or not result.passed:
        raise OpFailure(f"suite {result.name} failed: {fails[:1] or result.failures[:1]}")
    return [float(v) for line in result.lines for v in _NUMBER.findall(line)]


def certify(ok, seed, workdir):
    suites = ok.suites
    op_seeds = _seeds(seed, CERT_ORACLE_CALLS + CERT_EQ_CALLS)
    # Each suite runs as several small calls, each on its own seed, so that
    # every op is short (tens of ms) and a run holds many samples of each.
    ops = [Op("oracle-closed-form",
              run=lambda _, s=s: suites.suite_oracle_closed_form(
                  count=CERT_COUNT, smooth_count=CERT_SMOOTH_COUNT, seed0=s),
              check=lambda _, result: _suite_signature(result))
           for s in op_seeds[:CERT_ORACLE_CALLS]]
    ops += [Op("equivalence",
               run=lambda _, s=s: suites.suite_equivalence(
                   n_streams=CERT_EQ_STREAMS, max_T=CERT_EQ_T, seed0=s),
               check=lambda _, result: _suite_signature(result))
            for s in op_seeds[CERT_ORACLE_CALLS:]]
    return Workload("certify", ops, rounds_per_pass=_certify_rounds(ops),
                    sizes={"n": "1-5 (drawn per instance)", "T": CERT_EQ_T, "density": 1.0,
                           "oracle_calls": CERT_ORACLE_CALLS, "oracle_count": CERT_COUNT,
                           "smooth_count": CERT_SMOOTH_COUNT, "equivalence_calls": CERT_EQ_CALLS,
                           "equivalence_streams": CERT_EQ_STREAMS})


def _certify_rounds(ops):
    """Learner steps the certify suites take in one pass.

    The equivalence suite steps MirrorDescent and MdAsFtrl once each per
    round.  The oracle suite steps FtrlProximal and then MirrorDescent in
    5-step runs until each has taken at least ``count`` steps.  The traced
    run checks this count against the step calls it records.
    """
    oracle_steps = 2 * 5 * math.ceil(CERT_COUNT / 5)
    eq_steps = 2 * CERT_EQ_STREAMS * CERT_EQ_T
    return sum(eq_steps if op.kind == "equivalence" else oracle_steps for op in ops)


WORKLOADS = {
    "bound-sweep": bound_sweep,
    "long-horizon": long_horizon,
    "high-dim": high_dim,
    "certify": certify,
}
