"""Outside-in span tracing of the osctrack package for the benchmark.

Nothing in the package is edited.  ``Tracer.install`` wraps the public
functions at each layer boundary by rebinding every module attribute of
the loaded ``osctrack`` modules that refers to them, and ``uninstall``
puts the originals back.  Vector fields are wrapped by rebuilding each
scenario's ``ControlSystem`` with traced ``eval``/``jacobian`` callables.

A span is ``(id, parent, name, start, end, rep)``.  Spans stay in memory
until the benchmark writes them out.  The hot leaf calls (field and
Jacobian evaluations, control evaluations) are too many to keep one by
one, so they are folded into per-repetition call counts and totals; the
time they take is still subtracted from the enclosing span, so self time
(a span's duration minus the part its children cover) stays exact.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# Attached to sweep rows by forked workers, stripped again before the CLI
# sees the rows (it only writes the columns it knows).
BUSY_KEY = "_bench_busy"

# The root span of a repetition.  Its own time is the benchmark's, spent
# outside every wrapped call, so it counts toward no package layer.
ROOT_SPAN = "bench.rep"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class RepSummary:
    """Per-repetition totals: inclusive time and calls per span name,
    self time per layer, and counters."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.wall = 0.0

    def package_self_time(self) -> float:
        """Self time summed over the package's layers: the root span's own,
        untraced time left out."""
        root = layer_of(ROOT_SPAN)
        return sum(v for layer, v in self.self_time.items() if layer != root)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[list] = []          # open frames: [id, name, start, child_time]
        self.rep_id = None
        self.summary = RepSummary()
        self.leaf_stats: dict[str, list] = {}  # name -> [calls, seconds], current rep
        self.leaf_log: dict[str, dict] = {}    # rep id -> {name: [calls, seconds]}
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t = perf_counter()
        if not self.stack or self.stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        self.stack.pop()
        dur = t - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        s = self.summary
        s.incl[frame[1]] += dur
        s.calls[frame[1]] += 1
        s.self_time[layer_of(frame[1])] += dur - frame[3]
        self.spans.append((frame[0], parent[0] if parent else None, frame[1],
                           frame[2], t, self.rep_id))

    def count(self, key: str, n: float) -> None:
        self.summary.counts[key] += n

    def start_rep(self, rep_id: str) -> list:
        """Open the root span of one repetition."""
        self.rep_id = rep_id
        self.summary = RepSummary()
        for stat in self.leaf_stats.values():
            stat[0] = 0
            stat[1] = 0.0
        return self.begin(ROOT_SPAN)

    def finish_rep(self, root: list) -> RepSummary:
        self.end(root)
        s = self.summary
        s.wall = self.spans[-1][4] - self.spans[-1][3]
        log = {}
        for name, (calls, secs) in self.leaf_stats.items():
            if calls:
                s.incl[name] += secs
                s.calls[name] += calls
                s.self_time[layer_of(name)] += secs
                log[name] = [calls, secs]
        self.leaf_log[self.rep_id] = log
        return s

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name, fn, after=None, on_error=None):
        """Non-leaf span around ``fn``; ``after(result, args, kwargs)`` and
        ``on_error(exc)`` record counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer.end(frame)
            if after is not None:
                return after(result, args, kwargs)
            return result
        return wrapper

    def leaf_wrapper(self, name, fn, after=None):
        """Counted leaf call: adds to the per-rep total and to the enclosing
        span's child time, records no span of its own."""
        stat = self.leaf_stats.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1][3] += dt
            if after is not None:
                return after(result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Point every osctrack module attribute that is ``original`` at
        ``replacement``; returns how many were rebound."""
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "osctrack"
                                   or mod_name.startswith("osctrack.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        return n

    def _patch(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found, not traced",
                  file=sys.stderr)
            return
        self._rebind(original, make(original))

    def install(self) -> None:
        """Wrap the package's layer boundaries.  Missing names are skipped
        with a warning, so their metrics read zero instead of failing."""
        import osctrack.certify as certify
        import osctrack.cli as cli
        import osctrack.controller as controller
        import osctrack.curves as curves
        import osctrack.expressions as expressions
        import osctrack.integrator as integrator
        import osctrack.metrics as metrics
        import osctrack.scenarios as scenarios
        import osctrack.systems as systems

        span = self.span_wrapper
        count = self.count

        def traj_counts(traj):
            if traj is not None:
                count("integrator.intervals", traj.n_intervals)
                count("integrator.rk4_steps", traj.times.size - 1)

        def after_simulate(traj, args, kwargs):
            traj_counts(traj)
            return traj

        def simulate_failed(exc):
            traj_counts(getattr(exc, "partial", None))

        def after_csv(result, args, kwargs):
            path = kwargs.get("path", args[0] if args else None)
            if path is not None and os.path.exists(path):
                count("cli.csv_bytes", os.path.getsize(path))
            return result

        def after_sup(result, args, kwargs):
            count("certify.sup_samples", kwargs.get("n_samples", 10_000))
            return result

        def after_contraction(rep, args, kwargs):
            count("certify.contraction_draws", rep.n_draws)
            count("certify.contraction_passes", rep.n_pass)
            return rep

        def after_scenario(scenario, args, kwargs):
            return self._traced_scenario(scenario)

        def after_synth(control_fn):
            return self.leaf_wrapper("controller.synth", control_fn)

        plain = [
            (cli, "main", "cli.main"),
            (cli, "cmd_sweep", "cli.sweep"),
            (cli, "write_json", "cli.json_write"),
            (curves, "get_curve", "curves.build"),
            (expressions, "curve_from_expression", "expressions.build"),
            (controller, "coefficients", "controller.solve"),
            (systems, "build_gain_matrix", "systems.gain_matrix"),
            (metrics, "stability_report", "metrics.report"),
            (certify, "bound_constants", "certify.bound_constants"),
            (certify, "volterra_scaling", "certify.volterra"),
        ]
        for module, attr, name in plain:
            self._patch(module, attr, lambda fn, name=name: span(name, fn))
        self._patch(cli, "write_trajectory_csv",
                    lambda fn: span("cli.csv_write", fn, after=after_csv))
        self._patch(scenarios, "get_scenario",
                    lambda fn: span("scenarios.build", fn, after=after_scenario))
        self._patch(integrator, "simulate",
                    lambda fn: span("integrator.simulate", fn, after=after_simulate,
                                    on_error=simulate_failed))
        self._patch(certify, "estimate_sup_bounds",
                    lambda fn: span("certify.sup_bounds", fn, after=after_sup))
        self._patch(certify, "contraction_check",
                    lambda fn: span("certify.contraction", fn, after=after_contraction))
        self._patch(controller, "make_control_function",
                    lambda fn: self.leaf_wrapper("controller.synth", fn,
                                                 after=after_synth))
        self._patch(cli, "_sweep_row", self._sweep_row_wrapper)
        self._patch(cli, "ProcessPoolExecutor", self._traced_pool)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _traced_scenario(self, scenario):
        """The same scenario with every field's eval and jacobian counted."""
        try:
            fields = tuple(
                dataclasses.replace(
                    f, eval=self.leaf_wrapper("systems.field_eval", f.eval),
                    jacobian=self.leaf_wrapper("systems.jacobian", f.jacobian))
                for f in scenario.system.fields)
            system = dataclasses.replace(scenario.system, fields=fields)
            return dataclasses.replace(scenario, system=system)
        except (AttributeError, TypeError) as exc:
            print(f"trace: cannot wrap the fields of a scenario ({exc}); "
                  "field metrics read zero", file=sys.stderr)
            return scenario

    def _sweep_row_wrapper(self, fn):
        """In this process a span; in a forked pool worker, where spans
        cannot be collected, the cell's busy time rides back on the row."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == tracer.pid:
                frame = tracer.begin("cli.sweep_row")
                try:
                    return fn(task)
                finally:
                    tracer.end(frame)
            t0 = perf_counter()
            row = fn(task)
            row[BUSY_KEY] = (os.getpid(), perf_counter() - t0)
            return row
        return wrapper

    def _traced_pool(self, base):
        """A pool whose lifetime is the span ``cli.pool``.  Its overhead is
        that span minus the busiest worker's time in cells."""
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_frame = tracer.begin("cli.pool")
                self._bench_busy = defaultdict(float)
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    frame = self._bench_frame
                    tracer.end(frame)
                    if self._bench_busy:
                        pool_s = tracer.spans[-1][4] - tracer.spans[-1][3]
                        tracer.count("cli.pool_overhead_s",
                                     pool_s - max(self._bench_busy.values()))

            def map(self, fn, *iterables, **kwargs):
                for row in super().map(fn, *iterables, **kwargs):
                    if isinstance(row, dict) and BUSY_KEY in row:
                        pid, secs = row.pop(BUSY_KEY)
                        self._bench_busy[pid] += secs
                    yield row

        TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
        return TracedPool

    def spans_payload(self) -> dict:
        return {"spans": self.spans, "leaf_calls": self.leaf_log,
                "span_fields": ["id", "parent", "name", "start", "end", "rep"]}
