"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

They check that the metric names the benchmark prints are the ones
BENCHMARK.json declares, that a failing operation shows in fail_frac and
in the result's ``failed``, that a repetition's wall time is taken
relative to the reference loops run around it, that the package layers' self times cover
the traced wall only when nothing runs outside the wrapped calls, and
that the benchmark refuses to run where there is no package.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run  # bench/run.py

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_names_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _result(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "run_unicycle",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line = _result(trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared(kind)


def test_failing_operation_raises_fail_frac(tmp_path):
    wl = workloads.make("run_unicycle", 0, tmp_path)
    tally = workloads.Tally()
    wl.check(wl.rep(), tally)
    assert tally.fail_frac == 0.0 and tally.check_failed == 0
    wl.argv[wl.argv.index("gamma1")] = "no_such_curve"   # the CLI exits 1
    wl.check(wl.rep(), tally)
    assert tally.unsuccessful == 1 and tally.check_failed == 1
    assert tally.fail_frac == 1 / tally.attempted
    line = run.result_line({k: (1.0, 1) for k in run.END_TO_END}, run.END_TO_END,
                           tally, [])
    assert line["correct"] is False and line["failed"] == 1


def test_wall_is_relative_to_the_neighbouring_reference_loops():
    import reference
    # The machine slows by half between the first and the second repetition:
    # the raw times differ, the ratios do not.
    assert reference.ratios([0.1, 0.1, 0.15, 0.15], [1.0, 1.25, 1.5]) == \
        pytest.approx([10.0, 10.0, 10.0])
    with pytest.raises(ValueError):
        reference.ratios([0.1], [1.0])


def test_self_times_cover_the_root():
    tracer = tracing.Tracer()
    leaf = tracer.leaf_wrapper("systems.field_eval", lambda: time.sleep(0.002))

    def inner():
        leaf()
        time.sleep(0.003)

    outer = tracer.span_wrapper("integrator.simulate",
                                lambda: (inner_span(), time.sleep(0.002)))
    inner_span = tracer.span_wrapper("controller.solve", inner)
    root = tracer.start_rep("rep0")
    outer()
    summary = tracer.finish_rep(root)
    assert abs(sum(summary.self_time.values()) - summary.wall) < 1e-9
    assert run.COVER_MIN <= summary.package_self_time() / summary.wall <= 1.0
    assert summary.calls["systems.field_eval"] == 1
    assert summary.self_time["controller"] >= 0.003
    assert summary.incl["integrator.simulate"] >= summary.incl["controller.solve"] + 0.002


def test_untraced_work_lowers_the_cover():
    tracer = tracing.Tracer()
    traced = tracer.span_wrapper("integrator.simulate", lambda: time.sleep(0.002))
    root = tracer.start_rep("rep0")
    traced()
    time.sleep(0.01)              # work outside every wrapped call
    summary = tracer.finish_rep(root)
    assert summary.package_self_time() / summary.wall < run.COVER_MIN


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run_unicycle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
