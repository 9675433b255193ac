"""ocokit benchmark: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bound-sweep --seed 1 --seconds 32 --trace 0

The benchmark imports ocokit from ``src/`` and builds the workload's inputs
from the seed (set-up, timed eleven times over the run), then runs passes
of the workload's ops, one op at a time, for ``--seconds``.  Every op's
output is checked.  Every op and every set-up is timed between two runs of
a fixed calibration load and reported in reference seconds (see
``calibration.py``), so that the machine's changing speed cancels.  With
``--trace 0`` nothing is patched and the end-to-end metrics are reported; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are reported.  The full result goes to
``perfbench/out/``; the last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibration import REFERENCE_S, SHARE, calibrate  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailure  # noqa: E402

SETUP_REPEATS = 11
P90_MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile
REL_TOL = 1e-9
ABS_FLOOR = 1e-12  # for reference values that are (close to) zero
MAX_REPORTED_FAILURES = 20
# Printed, but left out of the JSON summary: fail_ratio is 0 when all is well
# (failed and attempted carry it), and the raw wall-clock figures swing with
# the machine's speed, which the reference-second figures cancel.
PRINTED_ONLY = ("op_p50_ms", "op_p90_ms", "fail_ratio", "raw_wall_s", "raw_setup_s",
                "calibration_ms")


class Modules:
    """The ocokit modules of one import, by layer name."""

    def __init__(self):
        package = importlib.import_module("ocokit")
        importlib.import_module("ocokit.cli")  # pulls in every other layer
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"ocokit was imported from {package.__file__}, not from {SRC}")
        for layer in LAYERS:
            setattr(self, layer, sys.modules[f"ocokit.{layer}"])


def use_sources():
    """Put the checkout's ``src/`` first on the import path; False if it has no ocokit."""
    if not (SRC / "ocokit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def fresh_import():
    for key in [k for k in sys.modules if k == "ocokit" or k.startswith("ocokit.")]:
        del sys.modules[key]
    return Modules()


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"l{level}"] = size

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": caches.get("l2"), "l3": caches.get("l3")}


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def load_reference(workload, seed):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Runner:
    """Runs passes of one workload and checks every op's output."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = [None] * len(workload.ops)
        self.attempted = 0
        self.failures = []
        self.op_seconds = [[] for _ in workload.ops]      # untraced passes, raw
        self.op_ratios = [[] for _ in workload.ops]       # the same, over the calibrations
        self.traced_op_ratios = [[] for _ in workload.ops]
        self.last_seconds = [0.0] * len(workload.ops)
        self.calibrations = []

    def _fail(self, index, op, message):
        self.failures.append(f"op {index} ({op.kind}): {message}")

    def _verify(self, index, signature):
        if self.first[index] is None:
            self.first[index] = signature
        elif signature != self.first[index]:
            raise OpFailure("output differs from the first pass on the same inputs")
        if self.reference is not None:
            want = self.reference[index] if index < len(self.reference) else []
            if len(want) != len(signature) or not all(map(close, signature, want)):
                raise OpFailure("output differs from the stored reference by more than 1e-9")

    def _calibrate(self, *neighbours):
        """Calibrate for SHARE of the longer neighbouring op's last run."""
        seconds = calibrate(SHARE * max(self.last_seconds[i] for i in neighbours
                                        if i < len(self.last_seconds)))
        self.calibrations.append(seconds)
        return seconds

    def run_pass(self, tracer=None):
        """Run every op once, each between two calibrations.

        Keeps each op's seconds over the mean of the calibrations just before
        and just after it, apart for untraced and traced passes.
        """
        gc.collect()
        ratios = self.op_ratios if tracer is None else self.traced_op_ratios
        before = self._calibrate(0)
        for index, op in enumerate(self.workload.ops):
            prepared = op.prepare()
            if tracer is not None:
                tracer.op_id = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run(prepared)
            except Exception as err:  # a raising op is a failed op; keep measuring
                self._fail(index, op, f"raised {type(err).__name__}: {err}")
                continue
            finally:
                seconds = time.perf_counter() - t0
                self.last_seconds[index] = seconds
                after = self._calibrate(index, index + 1)
                ratios[index].append(seconds / (0.5 * (before + after)))
                if tracer is None:
                    self.op_seconds[index].append(seconds)
                before = after
            try:
                self._verify(index, op.check(prepared, result))
            except OpFailure as err:
                self._fail(index, op, str(err))


def pass_seconds(op_samples, scale=1.0):
    """Every op once, each at its median: the sum of the per-op median samples, scaled."""
    return scale * sum(statistics.median(samples) for samples in op_samples)


def measure(runner, seconds, set_up, tracer=None):
    """Passes for ``seconds``; with a tracer, alternate plain and traced.

    A pass starts only if one more pass as long as the longest so far still
    ends within ``seconds``, so that the run does not overshoot by a pass;
    there is always at least one plain (and, traced, one traced) pass.

    Set-up runs SETUP_REPEATS times in all: once before this call and the
    rest spread evenly over the run, so that their median samples the same
    stretch of time as the passes.  Every set-up builds the same inputs from
    the same seed, so the runner moves to the newest workload and keeps the
    outputs of its first pass to check against.  Returns the number of
    plain and of traced passes.
    """
    plain = traced = 0
    setups = 1
    start = time.perf_counter()
    longest = 0.0
    while (time.perf_counter() - start + longest < seconds
           or not plain or (tracer and not traced)):
        t0 = time.perf_counter()
        if setups < SETUP_REPEATS and time.perf_counter() - start >= seconds * setups / SETUP_REPEATS:
            runner.workload = set_up()
            setups += 1
        if tracer is not None and plain > traced:
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced += 1
        else:
            runner.run_pass()
            plain += 1
        longest = max(longest, time.perf_counter() - t0)
    for _ in range(setups, SETUP_REPEATS):
        runner.workload = set_up()
    return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not use_sources():
        print(f"perfbench: no ocokit sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times = []
        setup_ratios = []

        def set_up():
            gc.collect()
            before = calibrate()
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](fresh_import(), args.seed, workdir)
            seconds = time.perf_counter() - t0
            setup_times.append(seconds)
            setup_ratios.append(seconds / (0.5 * (before + calibrate())))
            return workload

        runner = Runner(set_up(), load_reference(args.workload, args.seed))
        tracer = Tracer() if args.trace else None
        plain, traced = measure(runner, args.seconds, set_up, tracer)
        workload = runner.workload
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Reference seconds: each op's median over the run of its seconds divided
    # by the calibrations around it, so that the machine's speed cancels.
    wall_s = pass_seconds(runner.op_ratios, REFERENCE_S)
    lat_ms = np.array([r for samples in runner.op_ratios for r in samples]) * REFERENCE_S * 1e3
    failed = len(runner.failures)  # op failures; run-level problems are added below
    summary = {
        "setup_s": (REFERENCE_S * statistics.median(setup_ratios), "s"),
        "wall_s": (wall_s, "s"),
        "rounds_per_s": (workload.rounds_per_pass / wall_s, "rounds/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "fail_ratio": (failed / runner.attempted, "ratio"),
        "raw_wall_s": (pass_seconds(runner.op_seconds), "s"),
        "raw_setup_s": (statistics.median(setup_times), "s"),
        "calibration_ms": (1e3 * statistics.median(runner.calibrations), "ms"),
    }
    notes = []
    if len(lat_ms) < P90_MIN_SAMPLES:
        del summary["op_p90_ms"]
        notes.append(f"op_p90_ms left out: {len(lat_ms)} op samples, fewer than {P90_MIN_SAMPLES}")

    if tracer is not None:
        ratio = pass_seconds(runner.traced_op_ratios, REFERENCE_S) / wall_s
        reported = tracer.metrics(traced, ratio)
        counted = (reported["learners.step_calls"][0] + reported["mirror.step_calls"][0]
                   if args.workload == "certify" else reported["driver.rounds"][0])
        if counted != workload.rounds_per_pass:
            runner.failures.append(f"traced run counted {counted} rounds per pass, "
                                   f"expected {workload.rounds_per_pass}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        layer_self = {k[:-len(".self_s")]: v for k, (v, _) in reported.items()
                      if k.endswith(".self_s")}
    else:
        reported = {k: v for k, v in summary.items() if k not in PRINTED_ONLY}

    env = environment()
    sizes = dict(workload.sizes, passes=plain, traced_passes=traced,
                 op_samples=len(lat_ms), setup_repeats=SETUP_REPEATS)
    correct = not runner.failures
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "sizes": sizes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "correct": correct, "attempted": runner.attempted, "failed": failed,
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "notes": notes + ["driver.trace_bytes is computed from the T x n trace arrays, "
                          "not measured; every working set here is far below the L3 size, "
                          "so no memory-bandwidth figure is claimed"],
    }
    if tracer is not None:
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
        result["layer_self_s"] = layer_self
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans_kept"] = len(tracer.spans)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['cpu']}, L2 {env['l2']}, L3 {env['l3']} (cpu0)")
    print("  sizes " + json.dumps(sizes))
    for name, (value, unit) in summary.items():
        extra = f"  ({len(lat_ms)} samples)" if name == "op_p90_ms" else ""
        print(f"  {name:<14} {value:.6g} {unit}{extra}")
    if tracer is not None:
        total = sum(layer_self.values())
        print("  self time by layer, per pass:")
        for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<9} {seconds:.6f} s  {100 * seconds / total:5.1f}%")
        run_busy = reported["driver.run_busy_s"][0]
        if run_busy:
            steps = reported["learners.step_busy_s"][0] + reported["mirror.step_busy_s"][0]
            print(f"  learner and mirror steps, children included: "
                  f"{100 * steps / run_busy:.1f}% of run_rounds time")
    for line in notes + runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"  ! {line}")
    print(f"  full result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
