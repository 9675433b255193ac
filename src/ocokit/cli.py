"""Experiment runner: run / compare / repro-l1 / verify subcommands.

Configuration is flat ``key = value`` text.  Output is CSV with floats
printed to 12 significant digits, so a fixed config and seed always
produces byte-identical output.  Exit codes: 0 success, 1 property or
bound violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bounds import BoundRule
from .core import GRAD_LIMIT, AdaGradRate, ConstantRate, FeasibleSet, InverseSqrtRate
from .driver import _play, repro_l1_example, run_rounds
from .learners import (
    BoundConfig,
    DualAveraging,
    EntropicFtrl,
    FtrlCompositeL1,
    FtrlProximal,
    StronglyConvexOgd,
)
from .mirror import MirrorDescent
from .streams import (
    L1AdversaryStream,
    LogisticStream,
    RandomLinearStream,
    StronglyConvexQuadraticStream,
    load_svmlight,
    loss_column,
)
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """A rejected config or command line; ``main`` prints it as one ``ocokit:`` line, exit 2."""


_INT_KEYS = {"T", "seed", "n"}
_FLOAT_KEYS = {"R", "R_inf", "G", "G_inf", "lambda", "eta"}
_STR_KEYS = {"learner", "learners", "stream", "bound", "out", "data"}

_DEFAULTS = {
    "seed": 0,
    "n": 2,
    "R": 1.0,
    "R_inf": 1.0,
    "G": 1.0,
    "G_inf": 1.0,
    "lambda": 0.0,
}

STREAMS = ("random-linear", "random-linear-sup", "l1-adversary", "logistic",
           "strongly-convex")

# which guarantees can certify which learner
COMPAT = {
    "dual-averaging": {"da-closed-form", "general-ftrl"},
    "constant-ogd": {"non-adaptive", "general-ftrl"},
    "ftrl-proximal": {"prox-closed-form", "ftrl-proximal", "weak-proximal"},
    "adagrad-ftrl-proximal": {"adagrad-per-coord", "ftrl-proximal", "weak-proximal"},
    "ftrl-l1": {"composite"},
    "md-l1": {"mirror-descent"},
    "entropic": {"entropic", "general-ftrl"},
    "ogd-strongly-convex": {"strongly-convex-log"},
}
LEARNERS = tuple(COMPAT)


def parse_config(path: str) -> dict:
    cfg = dict(_DEFAULTS)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config: {err}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _INT_KEYS:
            try:
                cfg[key] = int(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} must be an integer")
        elif key in _FLOAT_KEYS:
            try:
                cfg[key] = float(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} must be a number")
        elif key in _STR_KEYS:
            cfg[key] = value
        else:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    return cfg


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            raise UsageError(f"config is missing required key {key!r}")


def _rounds(cfg) -> int:
    """The config's round count T, which must be given and >= 0."""
    _require(cfg, "T")
    if cfg["T"] < 0:
        raise UsageError("T must be >= 0")
    return cfg["T"]


def build_stream(cfg):
    name = cfg["stream"]
    seed, n = cfg["seed"], cfg["n"]
    if name == "random-linear":
        return RandomLinearStream(seed, n, cfg["G"], "l2")
    if name == "random-linear-sup":
        return RandomLinearStream(seed, n, cfg["G_inf"], "sup")
    if name == "l1-adversary":
        if n != 1:
            raise UsageError("the l1-adversary stream is one-dimensional (set n = 1)")
        return L1AdversaryStream(cfg["G"], cfg["lambda"])
    if name == "logistic":
        T = _rounds(cfg)
        if "data" not in cfg:
            return LogisticStream.synthetic(seed, n, T)
        try:
            with open(cfg["data"], encoding="utf-8") as fh:
                examples = load_svmlight(fh, n)
        except (OSError, UnicodeDecodeError) as err:
            raise UsageError(f"cannot read data file: {err}")
        if len(examples) < T:
            raise UsageError(f"data has {len(examples)} examples but T = {T}")
        return LogisticStream(examples, n)
    if name == "strongly-convex":
        return StronglyConvexQuadraticStream(seed, n, center_radius=cfg["R"])
    raise UsageError(f"unknown stream {cfg.get('stream')!r} (choose from {', '.join(STREAMS)})")


def _nonzero_g(cfg) -> float:
    """The config's G, which the default learning rates divide by."""
    if cfg["G"] == 0:
        raise UsageError("G = 0 leaves the default learning rate undefined (set G or eta)")
    return cfg["G"]


def _horizon_rate(cfg) -> float:
    """The config's eta, else R / (G sqrt(T)), which is stored for the bound."""
    if cfg.get("eta") is None:
        _require(cfg, "T")
        if cfg["T"] == 0:
            raise UsageError("T = 0 leaves the rate R / (G sqrt(T)) undefined (set eta)")
        cfg["eta"] = cfg["R"] / (_nonzero_g(cfg) * math.sqrt(cfg["T"]))
    return cfg["eta"]


def build_learner(name, cfg):
    n = cfg["n"]
    R = cfg["R"]
    eta = cfg.get("eta")
    if name == "dual-averaging":
        sched = ConstantRate(eta) if eta is not None else InverseSqrtRate(
            R / (math.sqrt(2) * _nonzero_g(cfg)), shift=1)
        return DualAveraging(n, sched)
    if name == "constant-ogd":
        return DualAveraging(n, ConstantRate(_horizon_rate(cfg)))
    if name == "ftrl-proximal":
        sched = ConstantRate(eta) if eta is not None else InverseSqrtRate(
            math.sqrt(2) * R / _nonzero_g(cfg), shift=0)
        return FtrlProximal(n, sched, FeasibleSet.l2_ball(R))
    if name == "adagrad-ftrl-proximal":
        return FtrlProximal(n, AdaGradRate(math.sqrt(2) * cfg["R_inf"]),
                            FeasibleSet.box(cfg["R_inf"]))
    if name == "ftrl-l1":
        return FtrlCompositeL1(n, ConstantRate(_horizon_rate(cfg)), cfg["lambda"])
    if name == "md-l1":
        return MirrorDescent(n, ConstantRate(_horizon_rate(cfg)), lam=cfg["lambda"])
    if name == "entropic":
        return EntropicFtrl(n, cfg["G_inf"])
    if name == "ogd-strongly-convex":
        return StronglyConvexOgd(n)
    raise UsageError(f"unknown learner {name!r} (choose from {', '.join(LEARNERS)})")


def _bound_rule(cfg) -> BoundRule:
    name = cfg["bound"]
    try:
        rule = BoundRule(name)
    except ValueError:
        known = ", ".join(r.value for r in BoundRule)
        raise UsageError(f"unknown bound {name!r} (choose from {known})")
    learner = cfg["learner"]
    if name not in COMPAT.get(learner, set()):
        allowed = ", ".join(sorted(COMPAT.get(learner, set())))
        raise UsageError(f"bound {name!r} does not certify learner {learner!r} "
                         f"(allowed: {allowed})")
    return rule


def build_run(cfg):
    """The learner, stream, rule, BoundConfig and comparator set of a ``run`` config."""
    _require(cfg, "learner", "stream", "T", "bound")
    _rounds(cfg)
    learner = build_learner(cfg["learner"], cfg)
    rule = _bound_rule(cfg)
    stream = build_stream(cfg)
    bc = BoundConfig(R=cfg["R"], R_inf=cfg["R_inf"], G=cfg["G"], G_inf=cfg["G_inf"],
                     eta=cfg.get("eta"))
    # an unconstrained learner is compared with the points of the ball of radius R
    comparator_set = FeasibleSet.l2_ball(cfg["R"]) if \
        learner.feasible_set.kind == FeasibleSet.UNCONSTRAINED else learner.feasible_set
    if cfg["learner"] == "entropic" and isinstance(stream, StronglyConvexQuadraticStream):
        raise UsageError("learner 'entropic' cannot run on stream 'strongly-convex': "
                         "its comparator, the mean center, is not on the simplex")
    if cfg["learner"] == "ogd-strongly-convex" and isinstance(stream, StronglyConvexQuadraticStream):
        bc.G = stream.gradient_cap
    # the bounds square these, and more; a constant the run ignores is rejected too
    for key, value in [(k, cfg[k]) for k in ("R", "R_inf", "G", "G_inf")] + [("G = 2R", bc.G)]:
        if value >= GRAD_LIMIT:
            raise UsageError(f"{key} = {value:g} must be below 2^511 (about 6.7e153)")
    return learner, stream, rule, bc, comparator_set


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    learner, stream, rule, bc, comparator_set = build_run(cfg)
    result = run_rounds(learner, stream, cfg["T"], rule, bc, comparator_set)
    rec = result.record
    lines = ["round,loss,comp_loss,cum_regret,bound,decomposition"]
    for t in range(len(rec)):
        lines.append(",".join([str(t + 1), _fmt(rec.loss[t]), _fmt(rec.comp_loss[t]),
                               _fmt(rec.cum_regret[t]), _fmt(rec.bound[t]),
                               _fmt(rec.strong_ftrl_rhs[t])]))
    _emit(lines, args.out or cfg.get("out"))
    if result.bound_ok:
        return EXIT_OK
    # the first row that fails run_rounds' bound check, cum_regret <= bound + 1e-9
    t = int(np.argmax(~(rec.cum_regret <= rec.bound + 1e-9)))
    print(f"ocokit run: cum_regret exceeds the bound first at round {t + 1}, by "
          f"{_fmt(rec.cum_regret[t] - rec.bound[t])} ({_fmt(rec.cum_regret[t])} > "
          f"{_fmt(rec.bound[t])})", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_compare(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    _require(cfg, "learners", "stream", "T")
    names = [name.strip() for name in cfg["learners"].split(",") if name.strip()]
    if len(names) < 2:
        raise UsageError("compare needs at least two learners (learners = a, b)")
    T = _rounds(cfg)
    columns = {}
    for name in names:
        learner = build_learner(name, dict(cfg))
        stream = build_stream(dict(cfg))  # same seed: every learner sees the same draw
        run = _play(learner, stream, T)
        losses = loss_column(run.loss_family, run.loss_params, run.iterates,
                             run.labels) if T else np.zeros(0)
        # the nonzeros of x_2..x_{T+1}, the iterate each round's step returned
        columns[name] = (losses, np.cumsum(losses), np.count_nonzero(run.next_iterates, axis=1))
    header = ["round"]
    for name in names:
        header += [f"loss_{name}", f"cum_loss_{name}", f"nonzeros_{name}"]
    lines = [",".join(header)]
    for t in range(T):
        row = [str(t + 1)]
        for name in names:
            losses, cum, nz = columns[name]
            row += [_fmt(losses[t]), _fmt(cum[t]), str(nz[t])]
        lines.append(",".join(row))
    _emit(lines, args.out or cfg.get("out"))
    return EXIT_OK


def cmd_repro_l1(args) -> int:
    result = repro_l1_example()
    lines = ["t,x_md,x_ftrl"]
    for t, x_md, x_ftrl in result.rows:
        lines.append(f"{t},{_fmt(x_md)},{_fmt(x_ftrl)}")
    _emit(lines, args.out)
    if not result.ok:
        for msg in result.failures:
            print(f"repro-l1: {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    name = args.suite
    if name != "all" and name not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise UsageError(f"unknown suite {name!r} (choose from {known})")
    result = run_suite(name)
    for line in result.lines:
        print(line)
    if not result.passed:
        for msg in result.failures:
            print(f"verify {name}: {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocokit",
        description="Online convex optimization learners with a regret-bound "
                    "verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one learner/stream/bound experiment")
    run_p.add_argument("--config", required=True, help="key = value config file")
    run_p.add_argument("--out", help="write CSV here instead of stdout")
    run_p.add_argument("--seed", type=int, help="override the config seed")

    cmp_p = sub.add_parser("compare", help="run several learners on one stream")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", help="write CSV here instead of stdout")
    cmp_p.add_argument("--seed", type=int)

    rep_p = sub.add_parser("repro-l1", help="reproduce the 1-D L1 oscillation example")
    rep_p.add_argument("--out", help="write CSV here instead of stdout")

    ver_p = sub.add_parser("verify", help="run a named property suite")
    ver_p.add_argument("suite", help="suite name, or 'all'")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    handlers = {"run": cmd_run, "compare": cmd_compare,
                "repro-l1": cmd_repro_l1, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    # the caller's fault: a rejected value (UsageError is one), too large a size, a file
    # that cannot be read or written; a broken invariant (RuntimeError) stays a traceback
    except (ValueError, MemoryError, OSError) as err:
        print(f"ocokit: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
