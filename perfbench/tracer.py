"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function and every public method of
the classes defined in each layer module (the layers are ocokit's modules),
and rebinds each wrapped function under every name an ocokit module holds it
by, so calls that go through ``from .core import as_point`` are seen too.
``uninstall`` puts the originals back; the untraced run never installs.

Each wrapped call records a span: name, start, end, parent span and op id.
Spans are kept in memory, up to a cap, and written out at exit.  Counts,
busy times and self times are folded in as each span ends, so they cover
every span even past the cap.  A layer's self time is its spans' time
minus the time covered by their child spans; calls are strictly nested on
one thread, so the children's intervals are disjoint and their durations add.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("driver", "streams", "learners", "mirror", "core", "bounds", "oracle", "suites", "cli")

# oracle entry points whose first argument is the objective (or a list of them)
ARGMIN = ("numeric_argmin_1d", "numeric_argmin_separable", "numeric_argmin_ball_2d",
          "polished_argmin_1d")
PROJECTIONS = ("core.clamp_box", "core.project_l2_ball", "core.project_l2_ball_weighted",
               "core.project_simplex")

SPAN_CAP = 20_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.next_id = 0
        self.op_id = -1
        self._stack = []           # [span id, seconds covered by children]
        self._depth = defaultdict(int)
        self._patches = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)       # inclusive seconds per span name
        self.layer_busy = defaultdict(float)  # outermost spans of each layer
        self.layer_self = defaultdict(float)
        self.latencies = defaultdict(list)   # per-call seconds of step methods
        self.rounds = 0
        self.trace_bytes = 0
        self.projections_bound = 0
        self.argmin_calls = 0
        self.objective_evals = 0
        self.csv_bytes = 0
        self._argmin_depth = 0

    # -- spans --------------------------------------------------------------

    def _span(self, fn, name, layer, after=None, keep_latency=False):
        perf = time.perf_counter
        stack, depth = self._stack, self._depth
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            outermost = depth[layer] == 0
            depth[layer] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.busy[name] += dur
                tracer.layer_self[layer] += dur - frame[1]
                if outermost:
                    tracer.layer_busy[layer] += dur
                if keep_latency:
                    tracer.latencies[name].append(dur)
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.op_id))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- layer-specific counts at the boundary ------------------------------

    def _after_run_rounds(self, args, kwargs, result):
        self.rounds += len(result.record)
        tr = result.trace
        self.trace_bytes = max(self.trace_bytes,
                               tr.grads.nbytes + tr.iterates.nbytes + tr.inv_rates.nbytes)

    def _after_event(self, args, kwargs, event):
        event.loss_at = self._span(event.loss_at, "streams.loss_at", "streams")

    def _after_projection(self, args, kwargs, out):
        if not np.array_equal(np.asarray(args[0], dtype=float), out):
            self.projections_bound += 1

    def _after_cli_main(self, args, kwargs, code):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                self.csv_bytes += len(fh.read())

    def _counted(self, objective):
        if isinstance(objective, (list, tuple)):
            return [self._counted(f) for f in objective]

        def counted(*args):
            self.objective_evals += 1
            return objective(*args)

        return counted

    def _argmin_entry(self, traced, first_param):
        """Count top-level argmin calls and the evaluations of their objective."""

        def argmin(*args, **kwargs):
            if self._argmin_depth == 0:
                self.argmin_calls += 1
                if args:
                    args = (self._counted(args[0]),) + args[1:]
                elif first_param in kwargs:
                    kwargs[first_param] = self._counted(kwargs[first_param])
            self._argmin_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._argmin_depth -= 1

        return argmin

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, layer, name, fn):
        full = f"{layer}.{name}"
        after = None
        if full == "driver.run_rounds":
            after = self._after_run_rounds
        elif full in PROJECTIONS:
            after = self._after_projection
        elif full == "cli.main":
            after = self._after_cli_main
        wrapped = self._span(fn, full, layer, after)
        if layer == "oracle" and name in ARGMIN:
            first = next(iter(inspect.signature(fn).parameters))
            wrapped = self._argmin_entry(wrapped, first)
        return wrapped

    def _wrap_method(self, layer, cls, name, fn):
        full = f"{layer}.{cls.__name__}.{name}"
        after = self._after_event if layer == "streams" and name == "event" else None
        return self._span(fn, full, layer, after, keep_latency=name == "step")

    def install(self):
        package = [m for key, m in sys.modules.items()
                   if key == "ocokit" or key.startswith("ocokit.")]
        for layer in LAYERS:
            module = sys.modules[f"ocokit.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap_function(layer, name, obj)
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            self._patch(obj, mname, self._wrap_method(layer, obj, mname, method))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _sum(self, table, layer, suffix=None, names=None):
        return sum(v for k, v in table.items()
                   if k.startswith(layer + ".")
                   and (suffix is None or k.endswith(suffix))
                   and (names is None or k in names))

    def _p50_us(self, layer):
        samples = [d for k, v in self.latencies.items() if k.startswith(layer + ".") for d in v]
        return float(np.median(samples)) * 1e6 if samples else 0.0

    def metrics(self, passes, overhead_ratio):
        """Per-layer metrics, per pass (one pass runs every op once)."""
        per = 1.0 / passes
        calls, busy = self.calls, self.busy
        project_calls = self._sum(calls, "core", names=PROJECTIONS)
        hooks = (".objective", ".reg_increment")
        values = {
            "driver.rounds": (self.rounds * per, "count"),
            "driver.run_busy_s": (busy["driver.run_rounds"] * per, "s"),
            "driver.trace_bytes": (float(self.trace_bytes), "B"),
            "streams.event_calls": (self._sum(calls, "streams", ".event") * per, "count"),
            "streams.event_busy_s": (self._sum(busy, "streams", ".event") * per, "s"),
            "streams.loss_calls": (calls["streams.loss_at"] * per, "count"),
            "streams.loss_busy_s": (busy["streams.loss_at"] * per, "s"),
            "learners.step_calls": (self._sum(calls, "learners", ".step") * per, "count"),
            "learners.step_busy_s": (self._sum(busy, "learners", ".step") * per, "s"),
            "learners.step_p50_us": (self._p50_us("learners"), "us"),
            "learners.hook_calls": (sum(self._sum(calls, "learners", h) for h in hooks) * per,
                                    "count"),
            "learners.hook_busy_s": (sum(self._sum(busy, "learners", h) for h in hooks) * per,
                                     "s"),
            "mirror.step_calls": (self._sum(calls, "mirror", ".step") * per, "count"),
            "mirror.step_busy_s": (self._sum(busy, "mirror", ".step") * per, "s"),
            "mirror.step_p50_us": (self._p50_us("mirror"), "us"),
            "bounds.curve_calls": (calls["bounds.bound_curve"] * per, "count"),
            "bounds.curve_busy_s": (busy["bounds.bound_curve"] * per, "s"),
            "bounds.comparator_busy_s": (busy["bounds.best_comparator"] * per, "s"),
            "core.as_point_calls": (calls["core.as_point"] * per, "count"),
            "core.as_point_busy_s": (busy["core.as_point"] * per, "s"),
            "core.soft_threshold_calls": (calls["core.soft_threshold_argmin"] * per, "count"),
            "core.soft_threshold_busy_s": (busy["core.soft_threshold_argmin"] * per, "s"),
            "core.project_calls": (project_calls * per, "count"),
            "core.project_busy_s": (self._sum(busy, "core", names=PROJECTIONS) * per, "s"),
            "core.project_bound_ratio": (self.projections_bound / project_calls
                                         if project_calls else 0.0, "ratio"),
            "oracle.argmin_calls": (self.argmin_calls * per, "count"),
            "oracle.objective_evals": (self.objective_evals * per, "count"),
            "oracle.busy_s": (self.layer_busy["oracle"] * per, "s"),
            "suites.oracle_closed_form_s": (busy["suites.suite_oracle_closed_form"] * per, "s"),
            "suites.equivalence_s": (busy["suites.suite_equivalence"] * per, "s"),
            "cli.csv_bytes": (self.csv_bytes * per, "B"),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (self.layer_self[layer] * per, "s")
        values["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        values["trace.spans"] = (self.next_id * per, "count")
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
