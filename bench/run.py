"""osctrack benchmark: one workload per call, end to end or layer by layer.

    python3 bench/run.py --workload run_unicycle --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, the run
length the metrics' bounds were set for.  ``--workload all`` runs each
workload in a fresh interpreter, one after another, and merges their
result lines.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a separate traced run.
Human-readable tables come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (every repetition, the environment, the generated
inputs, and the spans of a traced run) go to ``.bench_out/``.

End-to-end timings are taken relative to a fixed reference loop
(``bench/reference.py``) timed around every repetition and set-up probe,
because the shared host's speed swings by more than the changes the
benchmark must detect.

The package is used as it is in ``src/``; nothing is installed.  Every
process the benchmark starts runs with one BLAS and one OpenMP thread,
so the sweep's two workers do not oversubscribe the two cores it was
sized for.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere; inherited by every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import reference  # bench/reference.py

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("run_unicycle", "sweep_car", "certify_unicycle")

# name -> unit; must match BENCHMARK.json (bench/test_bench.py checks it).
END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}
PER_LAYER = {
    "import.osctrack_s": "s",
    "scenarios.build_s": "s",
    "curves.build_s": "s",
    "expressions.build_s": "s",
    "integrator.simulate_calls": "count",
    "integrator.simulate_s": "s",
    "integrator.self_s": "s",
    "integrator.intervals": "count",
    "integrator.rk4_steps": "count",
    "systems.field_eval_calls": "count",
    "systems.field_eval_s": "s",
    "systems.jacobian_calls": "count",
    "systems.jacobian_s": "s",
    "systems.gain_matrix_calls": "count",
    "systems.gain_matrix_s": "s",
    "systems.self_s": "s",
    "controller.solve_calls": "count",
    "controller.solve_s": "s",
    "controller.synth_calls": "count",
    "controller.synth_s": "s",
    "controller.self_s": "s",
    "metrics.report_s": "s",
    "cli.self_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.json_write_s": "s",
    "cli.sweep_s": "s",
    "cli.pool_overhead_s": "s",
    "certify.sup_bounds_s": "s",
    "certify.sup_samples": "count",
    "certify.bound_constants_s": "s",
    "certify.volterra_s": "s",
    "certify.contraction_s": "s",
    "certify.contraction_draws": "count",
    "certify.contraction_pass_ratio": "ratio",
    "certify.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.untraced_cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.self_cover_ratio": "ratio",
}

SETUP_PROBES = 5          # fresh interpreters per run, after one warm-up probe
MIN_REPS = 3              # timed repetitions, even past --seconds
MIN_TRACE_REPS = 2        # untraced and traced repetitions of a traced run
TIME_LIMIT_S = 150.0      # stop starting repetitions past this, whatever --seconds says
COVER_MIN = 0.99          # package self times must cover this share of the traced wall


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of /proc/<pid>/status, 0 when the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                parents[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
    found, frontier = [], [pid]
    while frontier:
        kids = [p for p, pp in parents.items() if pp in frontier]
        found.extend(kids)
        frontier = kids
    return found


class PeakRss:
    """Peak resident memory of this process (its high-water mark, VmHWM)
    plus the peak of its descendants' summed resident memory, which a
    thread samples from /proc every ``interval`` seconds."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.self_kb = 0
        self.children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        kids = sum(_status_kb(p, "VmRSS") for p in _descendants(os.getpid()))
        self.children_kb = max(self.children_kb, kids)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.self_kb = _status_kb(os.getpid(), "VmHWM")

    @property
    def mb(self) -> float:
        return (self.self_kb + self.children_kb) * 1024 / 1e6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the processes it starts meanwhile, on one of
    its CPUs.  On a shared host the CPUs run at different speeds from
    moment to moment; a process that moves between them, or a reference
    loop that runs on another CPU than the work it is compared with, reads
    both speeds (pinned, the spread of single set-up probes halves)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def setup_probes(wl, n: int) -> tuple[list[dict], list[float]]:
    """Time set-up in ``n`` fresh interpreters, after one untimed probe that
    compiles the bytecode and warms the file cache.  Returns the probes and
    the times of the reference loop, run in this process before and after
    each timed probe."""
    cmd = [sys.executable, str(BENCH / "probe.py"), wl.scenario, wl.curve_spec,
           repr(wl.horizon)]
    out, refs = [], []
    ref = reference.Reference()
    for i in range(n + 1):
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        refs.append(ref.timed())
    return out, refs


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10, check=False)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "commit": commit,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def summarize(values: list[float]) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


class Runner:
    """One invocation: a workload, a seed, a time budget, traced or not."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        import workloads
        self.started = perf_counter()
        self.workdir = OUT / f"work-{os.getpid()}"
        self.tally = workloads.Tally()
        self.wl = workloads.make(name, seed, self.workdir)
        self.seconds = seconds
        self.trace = trace
        self.problems: list[str] = []

    def over_time(self) -> bool:
        return perf_counter() - self.started > TIME_LIMIT_S

    def one_rep(self, tracer=None, rep_id=""):
        """One repetition, timed, then checked.  Returns (wall, cpu, summary)."""
        gc.collect()
        c0 = cpu_seconds()
        t0 = perf_counter()
        root = tracer.start_rep(rep_id) if tracer else None
        outcome = self.wl.rep()
        summary = tracer.finish_rep(root) if tracer else None
        wall = perf_counter() - t0
        cpu = cpu_seconds() - c0
        self.wl.check(outcome, self.tally)
        return wall, cpu, summary

    def reps(self, seconds: float, min_reps: int) -> tuple[list[tuple], list[float]]:
        """Closed loop: repetitions back to back until ``seconds`` have passed,
        with the reference loop timed before the first and after each one.
        Returns (repetitions, reference times)."""
        with reference.Reference(self.wl.jobs) as ref:
            ref.timed()                     # warm-up
            out, refs = [], [ref.timed()]
            deadline = perf_counter() + seconds
            while (len(out) < min_reps or perf_counter() < deadline) \
                    and not self.over_time():
                out.append(self.one_rep())
                refs.append(ref.timed())
        return out, refs

    def replay(self, tracer=None):
        if tracer is None:
            self.wl.replay()
            return None
        t0 = perf_counter()
        root = tracer.start_rep("replay")
        self.wl.replay()
        summary = tracer.finish_rep(root)
        return summary, perf_counter() - t0

    def run(self) -> tuple[dict, dict]:
        """Returns (metrics, details)."""
        with one_cpu():
            probes, probe_refs = setup_probes(self.wl, SETUP_PROBES)
        details = {"workload": self.wl.name, "inputs": self.wl.inputs,
                   "trace": self.trace, "seconds": self.seconds,
                   "environment": environment(), "setup_probes": probes,
                   "setup_reference_s": probe_refs}
        # A workload that keeps one process busy runs on one CPU; the sweep
        # needs both.
        with one_cpu() if self.wl.jobs == 1 else contextlib.nullcontext():
            if self.trace:
                metrics = self._traced(probes, details)
            else:
                metrics = self._untraced(probes, probe_refs, details)
        details["operations"] = {"attempted": self.tally.attempted,
                                 "unsuccessful": self.tally.unsuccessful,
                                 "failed_check": self.tally.check_failed,
                                 "notes": self.tally.notes + self.problems}
        return metrics, details

    def _untraced(self, probes, probe_refs, details) -> dict:
        # The warm-up repetition measures memory, before the replay can
        # raise this process's high-water mark; it is checked after it.
        with PeakRss() as rss:
            outcome = self.wl.rep()
        self.replay()
        self.wl.check(outcome, self.tally)
        reps, refs = self.reps(self.seconds, MIN_REPS)
        # Set-up time at the speed of a core that runs the reference loop in
        # REFERENCE_S: a ratio of medians, as one probe is too short for its
        # neighbouring reference loops to track the machine's speed.
        raw_setup = summarize([p["import_s"] + p["scenario_s"] + p["curve_s"]
                               for p in probes])
        setup = (raw_setup["median"] / statistics.median(probe_refs)
                 * reference.REFERENCE_S)
        walls = [r[0] for r in reps]
        rel = summarize(reference.ratios(refs, walls))
        details["timings"] = {"wall_rel": rel, "setup_raw_s": raw_setup,
                              "setup_reference_s": summarize(probe_refs),
                              "wall_s": summarize(walls),
                              "cpu_s": summarize([r[1] for r in reps]),
                              "reference_s": summarize(refs)}
        return {
            "setup_s": (setup, raw_setup["n"]),
            "wall_rel": (rel["median"], rel["n"]),
            "peak_rss_mb": (rss.mb, 1),
            "success_frac": (1.0 - self.tally.fail_frac, self.tally.attempted),
        }

    def _traced(self, probes, details) -> dict:
        from tracing import Tracer
        tracer = Tracer()
        replayed = None
        if self.wl.replays:
            tracer.install()
            try:
                replayed = self.replay(tracer)
            finally:
                tracer.uninstall()
        self.one_rep()                      # the warm-up repetition
        # Untraced and traced repetitions alternate, so drift in the
        # machine's speed does not land in the tracing overhead.
        untraced, traced = [], []
        deadline = perf_counter() + self.seconds
        while (len(traced) < MIN_TRACE_REPS or perf_counter() < deadline) \
                and not self.over_time():
            untraced.append(self.one_rep())
            tracer.install()
            try:
                traced.append(self.one_rep(tracer, f"rep{len(traced)}"))
            finally:
                tracer.uninstall()
        roots = [(r[2], r[0]) for r in traced] + ([replayed] if replayed else [])
        covers = [s.package_self_time() / wall for s, wall in roots]
        worst = min(covers)
        if not COVER_MIN <= worst <= 1.0 + 1e-9:
            self.problems.append(f"package self times cover {worst:.4f} of a "
                                 f"traced wall (need [{COVER_MIN}, 1])")
        values = layer_values([r[2] for r in traced], replayed[0] if replayed else None)
        untraced_wall = statistics.median(r[0] for r in untraced)
        traced_wall = statistics.median(r[0] for r in traced)
        values.update({
            "import.osctrack_s": statistics.median(p["import_s"] for p in probes),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.untraced_cpu_s": statistics.median(r[1] for r in untraced),
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.self_cover_ratio": worst,
        })
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.wl.name}-seed{self.wl.seed}.json"
        path.write_text(json.dumps({"workload": self.wl.name, "seed": self.wl.seed,
                                    **tracer.spans_payload()}))
        details["spans_file"] = str(path.relative_to(ROOT))
        details["traced_walls"] = [r[0] for r in traced]
        details["untraced_walls"] = [r[0] for r in untraced]
        details["self_cover"] = covers
        n = {"import.osctrack_s": len(probes)}
        return {k: (v, n.get(k, len(traced))) for k, v in values.items()}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _rep_values(s) -> dict:
    """Per-layer values of one traced repetition (inclusive span times)."""
    incl, calls, own, counts = s.incl, s.calls, s.self_time, s.counts
    return {
        "scenarios.build_s": incl["scenarios.build"],
        "curves.build_s": incl["curves.build"],
        "expressions.build_s": incl["expressions.build"],
        "integrator.simulate_calls": calls["integrator.simulate"],
        "integrator.simulate_s": incl["integrator.simulate"],
        "integrator.self_s": own["integrator"],
        "integrator.intervals": counts["integrator.intervals"],
        "integrator.rk4_steps": counts["integrator.rk4_steps"],
        "systems.field_eval_calls": calls["systems.field_eval"],
        "systems.field_eval_s": incl["systems.field_eval"],
        "systems.jacobian_calls": calls["systems.jacobian"],
        "systems.jacobian_s": incl["systems.jacobian"],
        "systems.gain_matrix_calls": calls["systems.gain_matrix"],
        "systems.gain_matrix_s": incl["systems.gain_matrix"],
        "systems.self_s": own["systems"],
        "controller.solve_calls": calls["controller.solve"],
        "controller.solve_s": incl["controller.solve"],
        "controller.synth_calls": calls["controller.synth"],
        "controller.synth_s": incl["controller.synth"],
        "controller.self_s": own["controller"],
        "metrics.report_s": incl["metrics.report"],
        "cli.self_s": own["cli"],
        "cli.csv_write_s": incl["cli.csv_write"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "cli.json_write_s": incl["cli.json_write"],
        "cli.sweep_s": incl["cli.sweep"],
        "cli.pool_overhead_s": counts["cli.pool_overhead_s"],
        "certify.sup_bounds_s": incl["certify.sup_bounds"],
        "certify.sup_samples": counts["certify.sup_samples"],
        "certify.bound_constants_s": incl["certify.bound_constants"],
        "certify.volterra_s": incl["certify.volterra"],
        "certify.contraction_s": incl["certify.contraction"],
        "certify.contraction_draws": counts["certify.contraction_draws"],
        "certify.contraction_passes": counts["certify.contraction_passes"],
        "certify.self_s": own["certify"],
    }


def layer_values(summaries: list, replayed=None) -> dict:
    """Median over the traced repetitions, plus the replay's totals (the
    work a sweep's workers do, which spans cannot be collected from)."""
    reps = [_rep_values(s) for s in summaries]
    out = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    if replayed is not None:
        for k, v in _rep_values(replayed).items():
            out[k] += v
    draws = out["certify.contraction_draws"]
    passes = out.pop("certify.contraction_passes")
    out["certify.contraction_pass_ratio"] = passes / draws if draws else 0.0
    return out


def result_line(metrics: dict, units: dict, tally, problems: list[str]) -> dict:
    return {
        "correct": tally.check_failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.check_failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in units},
    }


def print_table(name: str, seed: int, trace: bool, metrics: dict, units: dict,
                details: dict, tally) -> None:
    env = details["environment"]
    print(f"osctrack benchmark: workload {name}, seed {seed}, "
          f"{details['seconds']:g} s, {'traced' if trace else 'untraced'}")
    print("inputs: " + json.dumps(details["inputs"]))
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    timings = details.get("timings", {})
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>6}")
    for key, unit in units.items():
        value, n = metrics[key]
        t = timings.get(key)
        q = f"{t['q1']:12.6g} {t['q3']:12.6g}" if t else f"{'':12} {'':12}"
        print(f"{key:32} {unit:6} {value:12.6g} {q} {n:6d}")
    for key in ("setup_raw_s", "setup_reference_s", "wall_s", "cpu_s", "reference_s"):
        t = timings.get(key)
        if t:
            print(f"{key + ' (not gated)':32} {'s':6} {t['median']:12.6g} "
                  f"{t['q1']:12.6g} {t['q3']:12.6g} {t['n']:6d}")
    print(f"{'fail_frac':32} {'ratio':6} {tally.fail_frac:12.6g} "
          f"({tally.unsuccessful} of {tally.attempted} operations unsuccessful)")
    print(f"checks: {tally.attempted} operations, {tally.check_failed} failed a check")
    for note in details["operations"]["notes"]:
        print(f"  check: {note}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed, seconds, trace)
    try:
        metrics, details = runner.run()
    finally:
        runner.cleanup()
    units = PER_LAYER if trace else END_TO_END
    line = result_line(metrics, units, runner.tally, runner.problems)
    details["result"] = line
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1))
    print_table(name, seed, trace, metrics, units, details, runner.tally)
    return line


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, so no workload's memory
    high-water mark or loaded state carries into the next."""
    lines = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S + 300, check=False)
        out = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not out:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]), flush=True)
        lines[name] = json.loads(out[-1])
    # One line for all; metric names get the workload as a prefix.
    print(json.dumps({"correct": all(v["correct"] for v in lines.values()),
                      "attempted": sum(v["attempted"] for v in lines.values()),
                      "failed": sum(v["failed"] for v in lines.values()),
                      "metrics": {f"{n}.{k}": m for n, v in lines.items()
                                  for k, m in v["metrics"].items()}}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (closed loop); default: "
                             "run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = float(spec["run_seconds"])
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"no --seconds and no run_seconds in BENCHMARK.json: {exc}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "osctrack" / "__init__.py").is_file():
        print(f"error: no osctrack package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)       # keep temporary files in the checkout
    try:
        line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
