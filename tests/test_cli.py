"""Command-line interface: output files, config merging, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import osctrack
from osctrack import (
    ControllerParams,
    DomainError,
    SamplerGrid,
    SimulationError,
    Trajectory,
    get_curve,
    get_scenario,
    simulate,
)
from osctrack.cli import _CSV_BLOCK_ROWS, main, write_trajectory_csv

RUN_ARGS = ["run", "--scenario", "unicycle", "--curve", "gamma1",
            "--alpha", "15", "--epsilon", "0.1", "--horizon", "2",
            "--rho", "0.5"]
CERTIFY_ANALYTIC = ["certify", "--scenario", "unicycle", "--alpha", "15",
                    "--epsilon", "0.1", "--m1", "1", "--m2", "1",
                    "--m3", "0.16666666666666666", "--lipschitz", "1", "--mu", "1"]
CERTIFY_EMPIRICAL = ["certify", "--scenario", "unicycle", "--empirical",
                     "--bound-samples", "200"]


def run_cli(tmp_path, *extra):
    return main([*extra, "--output-dir", str(tmp_path)])


class TestRun:
    def test_writes_all_three_files(self, tmp_path):
        assert run_cli(tmp_path, *RUN_ARGS) == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "stability_report.json").exists()
        assert (tmp_path / "run_metadata.json").exists()

    def test_csv_header_and_row_count(self, tmp_path):
        run_cli(tmp_path, *RUN_ARGS, "--substeps", "50")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ("t,x_1,x_2,x_3,gamma_1,gamma_2,gamma_3,"
                            "u_1,u_2,dist")
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert len(lines) - 1 == meta["substeps"] * meta["n_intervals"] + 1

    def test_metadata_contents(self, tmp_path):
        run_cli(tmp_path, *RUN_ARGS)
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["status"] == "completed"
        assert meta["partial_output"] is False
        assert meta["semantics"] == "sampled"
        assert meta["coefficient_evals"] == meta["n_intervals"]
        assert meta["config"]["alpha"] == 15.0
        assert "osctrack" in meta["versions"]

    def test_stability_report_values(self, tmp_path):
        run_cli(tmp_path, *RUN_ARGS)
        rep = json.loads((tmp_path / "stability_report.json").read_text())
        assert rep["rho"] == 0.5
        assert rep["steady_amplitude"] < 0.5
        assert rep["entry_time"] < 2.0

    def test_never_entering_the_tube_writes_inf(self, tmp_path):
        # alpha = 1 sits below nu/rho: the error never drops under rho.
        code = run_cli(tmp_path, "run", "--scenario", "unicycle", "--curve", "gamma1",
                       "--alpha", "1", "--epsilon", "0.1", "--horizon", "1")
        assert code == 0
        rep = json.loads((tmp_path / "stability_report.json").read_text())
        assert rep["entry_time"] == "inf"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(a, *RUN_ARGS)
        run_cli(b, *RUN_ARGS)
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_expression_curve(self, tmp_path):
        code = run_cli(tmp_path, "run", "--scenario", "unicycle",
                       "--curve", "cos(t), sin(t), 0",
                       "--alpha", "15", "--epsilon", "0.1", "--horizon", "1")
        assert code == 0
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["config"]["curve"].startswith("expr:")

    def test_classic_semantics(self, tmp_path):
        code = run_cli(tmp_path, "run", "--scenario", "unicycle",
                       "--alpha", "15", "--epsilon", "0.1", "--horizon", "0.5",
                       "--semantics", "classic", "--substeps", "40")
        assert code == 0
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["semantics"] == "classic"
        assert meta["coefficient_evals"] > meta["n_intervals"]

    def test_x0_flag(self, tmp_path):
        run_cli(tmp_path, *RUN_ARGS, "--x0", "1,1,0")
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[1:4]] == [1.0, 1.0, 0.0]

    def test_simulation_failure_flags_partial_output(self, tmp_path):
        # alpha * epsilon = 2.5: the sampled error map overshoots and the
        # car leaves its steering chart by t = 1.025.
        # The output directory does not exist yet: the partial trace makes it.
        out = tmp_path / "out"
        code = run_cli(out, "run", "--scenario", "car", "--horizon", "3",
                       "--alpha", "5", "--epsilon", "0.5")
        assert code == 2
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["partial_output"] is True
        assert meta["status"].startswith("failed: domain-exit")
        assert (out / "trajectory.csv").exists()
        assert not (out / "stability_report.json").exists()


def whole_array_csv(traj):
    """The bytes of the trace formatted in one piece: every row stacked into
    one array, converted to Python floats, then formatted row by row."""
    n, m = traj.states.shape[1], traj.controls.shape[1]
    header = (["t"] + [f"x_{i + 1}" for i in range(n)] + [f"gamma_{i + 1}" for i in range(n)]
              + [f"u_{i + 1}" for i in range(m)] + ["dist"])
    block = np.column_stack([traj.times, traj.states, traj.reference,
                             traj.controls, traj.dist])
    line = ",".join(["%.17g"] * len(header)) + "\n"
    text = ",".join(header) + "\n" + "".join(line % tuple(row) for row in block.tolist())
    return text.encode("utf-8")


def built_trajectory(rows, n=3, m=2, seed=0):
    """A single-start trace of random values over many magnitudes, with NaN,
    infinities and negative zeros among them."""
    rng = np.random.default_rng(seed)

    def values(*shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        flat = out.reshape(-1)
        picks = rng.integers(0, flat.size, (4, max(1, flat.size // 50)))
        flat[picks[0]], flat[picks[1]] = np.nan, np.inf
        flat[picks[2]], flat[picks[3]] = -np.inf, -0.0
        return out

    return Trajectory(times=values(rows), states=values(rows, n), reference=values(rows, n),
                      controls=values(rows, m), dist=values(rows),
                      dense_dist=np.zeros((rows - 1, 4)), epsilon=0.1,
                      substeps=120, n_intervals=1, coefficient_evals=1, semantics="sampled")


class TestTrajectoryCsv:
    """The block writer gives the bytes of the trace formatted in one piece."""

    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 17])
    def test_bytes_equal_whole_array_formatting(self, tmp_path, rows):
        traj = built_trajectory(rows)
        write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        assert (tmp_path / "trajectory.csv").read_bytes() == whole_array_csv(traj)

    @pytest.mark.parametrize("name, alpha, epsilon, horizon, reason, nan_rows", [
        # Leaves the car's steering chart by t = 1.025.
        ("car", 5.0, 0.5, 3.0, "domain-exit", 0),
        # Overflows at the start of the second interval; the control of its
        # last row comes out NaN.
        ("unicycle", 1e160, 0.1, 4.0, "non-finite-state", 1)])
    def test_partial_trace_bytes_equal_whole_array_formatting(
            self, tmp_path, name, alpha, epsilon, horizon, reason, nan_rows):
        scenario = get_scenario(name)
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as exc:
            simulate(scenario.system, scenario.scheme, ControllerParams(alpha, epsilon),
                     get_curve(scenario.default_curve, horizon=horizon),
                     scenario.default_x0, SamplerGrid(epsilon, horizon))
        assert exc.value.reason == reason
        partial = exc.value.partial
        assert np.isnan(partial.controls).any(axis=1).sum() == nan_rows
        write_trajectory_csv(tmp_path / "trajectory.csv", partial)
        assert (tmp_path / "trajectory.csv").read_bytes() == whole_array_csv(partial)

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        """50,000 rows of 10 columns: formatting the whole array at once
        peaks at about 23 MB traced; the block writer stays below 4 MB."""
        traj = built_trajectory(50_000)
        tracemalloc.start()
        try:
            write_trajectory_csv(tmp_path / "trajectory.csv", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"writer peaked at {peak / 1e6:.1f} MB"


class TestConfigMerging:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "unicycle", "alpha": 15.0,
                                   "epsilon": 0.1, "horizon": 2.0}))
        assert run_cli(tmp_path, "run", "--config", str(cfg)) == 0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "unicycle", "alpha": 15.0,
                                   "epsilon": 0.1, "horizon": 2.0}))
        run_cli(tmp_path, "run", "--config", str(cfg), "--alpha", "12")
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["config"]["alpha"] == 12.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "unicycle", "alpa": 15.0}))
        assert run_cli(tmp_path, "run", "--config", str(cfg)) == 1
        assert "alpa" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OSCTRACK_OUTPUT_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path.parent)
        assert main([*RUN_ARGS]) == 0
        assert (tmp_path / "trajectory.csv").exists()


class TestValidationErrors:
    @pytest.mark.parametrize("args", [
        ["run", "--scenario", "hovercraft"],
        ["run", "--scenario", "unicycle", "--alpha", "-1"],
        ["run", "--scenario", "unicycle", "--epsilon", "0"],
        ["run", "--scenario", "unicycle", "--rho", "-0.5"],
        ["run", "--scenario", "unicycle", "--curve", "florble(t), 0, 0"],
        ["run", "--scenario", "unicycle", "--curve", "gamma4_car"],
        ["run", "--scenario", "unicycle", "--x0", "1,2"],
        ["run", "--scenario", "unicycle", "--semantics", "averaged"],
        ["run"],
        ["run", "--scenario", "unicycle", "--horizon", "inf"],
        ["run", "--scenario", "unicycle", "--epsilon", "inf"],
        ["run", "--scenario", "unicycle", "--curve", "gamma3", "--horizon", "inf"],
        ["certify", "--scenario", "unicycle", "--empirical", "--horizon", "inf"],
        ["run", "--scenario", "unicycle", "--alpha", "inf"],
        ["run", "--scenario", "unicycle", "--rho", "nan"],
        # Flags the subcommand does not read: certify never simulates, and
        # run and sweep draw nothing at random.
        [*CERTIFY_EMPIRICAL, "--x0", "0,0,1"],
        [*CERTIFY_EMPIRICAL, "--substeps", "300"],
        [*CERTIFY_EMPIRICAL, "--semantics", "classic"],
        ["run", "--scenario", "unicycle", "--horizon", "0.5", "--seed", "7"],
        ["sweep", "--scenario", "unicycle", "--alphas", "15", "--epsilons", "0.1",
         "--horizon", "0.5", "--jobs", "1", "--seed", "7"],
        # Non-finite certificate inputs.
        [*CERTIFY_ANALYTIC, "--m1", "nan"],
        [*CERTIFY_ANALYTIC, "--m3", "inf"],
        [*CERTIFY_ANALYTIC, "--lipschitz", "nan"],
        [*CERTIFY_ANALYTIC, "--lam", "nan"],
        [*CERTIFY_ANALYTIC, "--nu", "nan"],
        # --empirical estimates every field bound, and without it nothing
        # is sampled.
        [*CERTIFY_EMPIRICAL, "--m1", "1000", "--mu", "7"],
        [*CERTIFY_EMPIRICAL, "--m2", "1", "--m3", "1", "--lipschitz", "1"],
        [*CERTIFY_ANALYTIC, "--seed", "3"],
        [*CERTIFY_ANALYTIC, "--bound-samples", "500"],
        ["certify", "--scenario", "unicycle", "--seed", "3"],
        [*CERTIFY_EMPIRICAL, "--bound-samples", "0"],
        [*CERTIFY_EMPIRICAL, "--seed", "-1"],
        ["run", "--scenario", "unicycle", "--x0", "a,b,c"],
        ["run", "--scenario", "unicycle", "--x0", ","],
        ["run", "--config", "no-such-config.json"],
        # Steps too short for float64 to tell the step times apart.
        ["run", "--scenario", "unicycle", "--epsilon", "1e-300", "--horizon", "1"],
        ["sweep", "--scenario", "unicycle", "--alphas", "15", "--epsilons", "1e-300",
         "--horizon", "1", "--jobs", "1"],
        # Step times beyond the largest float64.
        ["run", "--scenario", "unicycle", "--epsilon", "1e308", "--horizon", "1e308"],
    ])
    def test_exit_code_one(self, tmp_path, capsys, args):
        assert run_cli(tmp_path, *args) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry", [
        {"alpha": "15"},
        {"x0": "0,0,1"},
        {"substeps": 200.5},
        {"rho": None},
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "unicycle", **entry}))
        assert run_cli(tmp_path, "run", "--config", str(cfg)) == 1
        (key,) = entry
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("text", [
        "scenario = unicycle",
        '["unicycle"]',
        '{"scenario": "unicycle", "semantics": "averaged"}',
    ])
    def test_config_document_refused(self, tmp_path, capsys, text):
        """A config file that is not JSON, not a JSON object, or names an
        unknown semantics."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli(out, "run", "--config", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("args, entry", [
        (CERTIFY_ANALYTIC, {"x0": [1.0, 2.0]}),
        (CERTIFY_ANALYTIC, {"substeps": 3}),
        (CERTIFY_ANALYTIC, {"semantics": "classic", "substeps": 3}),
        (RUN_ARGS, {"seed": 7}),
        (["sweep", "--scenario", "unicycle", "--alphas", "15", "--epsilons", "0.1",
          "--horizon", "0.5", "--jobs", "1"], {"seed": 7}),
        # Without --empirical nothing is sampled.
        (CERTIFY_ANALYTIC, {"seed": 7}),
    ])
    def test_config_key_the_subcommand_does_not_read(self, tmp_path, capsys,
                                                     args, entry):
        """A config key is refused where its flag would be."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out"
        assert run_cli(out, *args, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not read" in err
        assert all(key in err for key in entry)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--scenario", "unicycle", "--substeps", "10"], "10 substeps cannot resolve"),
        (["--scenario", "car", "--x0", "0,0,1.6,0"], "outside the system domain"),
    ])
    def test_run_and_sweep_refuse_bad_input_alike(self, tmp_path, capsys, flags,
                                                  message):
        """Input no run can start from exits 1 from either subcommand with
        the same error line, and sweep writes no summary."""
        errors = []
        for command in (["run", "--epsilon", "0.1"],
                        ["sweep", "--alphas", "1,15", "--epsilons", "0.1", "--jobs", "1"]):
            out = tmp_path / command[0]
            assert run_cli(out, *command, *flags, "--horizon", "0.2") == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error:") and message in errors[0]
        assert errors[1] == errors[0]
        assert not (tmp_path / "sweep" / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("args, code", [
        (["run", "--scenario", "car", "--x0", "0,0,1.6,0"], 1),
        (["run", "--scenario", "unicycle", "--substeps", "3"], 1),
        (["sweep", "--scenario", "unicycle", "--alphas", "1", "--epsilons", "0.1",
          "--jobs", "0"], 1),
        (["sweep", "--scenario", "unicycle", "--alphas", "1,nan", "--epsilons", "0.1"], 1),
        (["certify", "--scenario", "unicycle", "--m1", "nan", "--m2", "1", "--m3", "1",
          "--lipschitz", "1", "--mu", "1"], 1),
        # A tube sample leaves the car's steering chart: no certificate.
        (["certify", "--scenario", "car", "--empirical"], 3),
    ])
    def test_refused_command_creates_no_directory(self, tmp_path, args, code):
        out = tmp_path / "out"
        assert run_cli(out, *args) == code
        assert not out.exists()

    def test_singular_expression_curve(self, tmp_path, capsys):
        """The input curve is at fault, so the run is refused before it starts."""
        code = run_cli(tmp_path, "run", "--scenario", "unicycle",
                       "--curve", "sqrt(t-5),0,0", "--horizon", "10")
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()


class TestCertify:
    def test_analytic_certificate(self, tmp_path):
        assert run_cli(tmp_path, *CERTIFY_ANALYTIC) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["ok"] is True
        assert cert["certificate"]["provenance"] == "analytic"
        assert np.isclose(cert["certificate"]["eps_hat"], 1.0616988865233208e-06,
                          rtol=1e-9)
        assert cert["inputs"]["nu"] == pytest.approx(2.0222826182945615)

    def test_empirical_certificate(self, tmp_path):
        code = run_cli(tmp_path, "certify", "--scenario", "unicycle",
                       "--empirical", "--bound-samples", "500", "--seed", "3")
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["certificate"]["provenance"] == "empirical"
        assert 0 < cert["certificate"]["eps_hat"] < 1e-4

    def test_bound_samples_default(self, tmp_path):
        """Without --bound-samples the estimate draws 10,000 samples."""
        files = []
        for extra in ([], ["--bound-samples", "10000"]):
            out = tmp_path / str(len(extra))
            assert run_cli(out, "certify", "--scenario", "unicycle", "--empirical",
                           *extra) == 0
            files.append((out / "certificate.json").read_bytes())
        assert files[0] == files[1]

    def test_missing_bounds_rejected(self, tmp_path, capsys):
        code = run_cli(tmp_path, "certify", "--scenario", "unicycle")
        assert code == 1
        assert "--empirical" in capsys.readouterr().err

    def test_ordering_chain_violation(self, tmp_path):
        assert run_cli(tmp_path, *CERTIFY_ANALYTIC, "--rho-prime", "0.6") == 1

    def test_degree_two_scheme_rejected(self, tmp_path):
        code = run_cli(tmp_path, "certify", "--scenario", "car",
                       "--m1", "1", "--m2", "1", "--m3", "1",
                       "--lipschitz", "1", "--mu", "1")
        assert code == 3

    def test_nu_zero_first_branch(self, tmp_path):
        code = run_cli(tmp_path, *CERTIFY_ANALYTIC, "--nu", "0")
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["certificate"]["eps_hat"] > 0


def serial_pool(monkeypatch, cli, on_start=None):
    """Put a pool in place of ProcessPoolExecutor that runs each submitted
    call at once, in this process.  Returns the lists it fills: per pool
    started, its max_workers (or ``on_start()`` when given), and per
    submitted bin, its batches as (alpha, epsilon) lists."""
    from concurrent.futures import Future

    pools, submitted = [], []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(on_start() if on_start else max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, work):
            submitted.append([[(c.alpha, c.epsilon) for c in cells] for cells in work])
            future = Future()
            future.set_result(fn(work))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return pools, submitted


def record_batches(monkeypatch, cli, batches):
    """Append each batch _sweep_bin runs to ``batches``, as (alpha, epsilon) pairs."""
    run = cli._sweep_batch

    def recorded(cells):
        batches.append([(c.alpha, c.epsilon) for c in cells])
        return run(cells)

    monkeypatch.setattr(cli, "_sweep_batch", recorded)


def assert_rows_equal_serial_calls(tmp_path, alphas, epsilons, **config):
    """sweep_summary.csv lists the grid in order, each row equal to a
    _sweep_row call made with a fresh scenario and curve."""
    from osctrack import cli

    base = cli.RunConfig(scenario="unicycle", horizon=0.5, **config)
    columns = ["alpha", "epsilon", "status", "steady_amplitude",
               "entry_time", "fitted_lambda", "flag"]
    lines = []
    for a in alphas:
        for e in epsilons:
            cli._SWEEP_BUILDS.clear()
            row = cli._sweep_row(replace(base, alpha=a, epsilon=e))
            assert row["status"] == "ok"
            lines.append(",".join(cli._sweep_cell(row[c]) for c in columns))
    cli._SWEEP_BUILDS.clear()
    assert (tmp_path / "sweep_summary.csv").read_text().splitlines()[1:] == lines


class TestSweep:
    def test_grid_order_and_metrics(self, tmp_path):
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15", "--epsilons", "0.1,0.05",
                       "--horizon", "2")
        assert code == 0
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == ("alpha,epsilon,status,steady_amplitude,"
                            "entry_time,fitted_lambda,flag")
        cells = [line.split(",") for line in lines[1:]]
        assert [(c[0], c[1]) for c in cells] == [
            ("1", "0.10000000000000001"), ("1", "0.050000000000000003"),
            ("15", "0.10000000000000001"), ("15", "0.050000000000000003")]
        # alpha = 1 sits below nu/rho for gamma1 and gets flagged.
        assert cells[0][6] == "alpha<=nu/rho"
        assert cells[2][6] == ""
        assert float(cells[2][3]) < float(cells[0][3])

    def test_row_failure_recorded_and_sweep_continues(self, tmp_path):
        code = run_cli(tmp_path, "sweep", "--scenario", "car",
                       "--alphas", "5", "--epsilons", "0.5,0.1",
                       "--horizon", "3")
        assert code == 0
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "error" in lines[1] and "left the domain" in lines[1]
        assert ",ok," in lines[2]

    def test_cells_share_one_scenario_and_curve_build(self, monkeypatch):
        """A worker builds the scenario and curve once for all its cells of
        one (scenario, curve spec, horizon); the rows are unchanged."""
        from osctrack import cli

        config = cli.RunConfig(scenario="car", curve="5*sin(t/4), 0, 0, 0",
                               horizon=0.5, rho=1.0)
        cells = [replace(config, alpha=a, epsilon=e)
                 for a, e in ((4.2, 0.1), (9.1, 0.1), (4.2, 0.05))]
        fresh = []
        for cell in cells:
            cli._SWEEP_BUILDS.clear()
            fresh.append(cli._sweep_row(cell))
        calls = {"scenario": 0, "curve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "get_scenario", counted("scenario", cli.get_scenario))
        monkeypatch.setattr(cli, "get_curve", counted("curve", cli.get_curve))
        cli._SWEEP_BUILDS.clear()
        assert [cli._sweep_row(cell) for cell in cells] == fresh
        assert calls == {"scenario": 1, "curve": 1}
        assert all(row["status"] == "ok" for row in fresh)
        cli._SWEEP_BUILDS.clear()

    def test_batches_fill_bins_longest_first_and_rows_keep_grid_order(
            self, tmp_path, monkeypatch):
        """The gains of one period form a batch.  Batches go longest first
        (ceil(H / eps) intervals, ties in grid order) into the least loaded
        of --jobs bins; this process runs bin 0 and a pool of --jobs - 1
        workers the others.  The CSV lists the cells in grid order, each row
        equal to a serial _sweep_row call."""
        from osctrack import cli

        pools, submitted = serial_pool(monkeypatch, cli)
        batches = []
        record_batches(monkeypatch, cli, batches)
        # ceil(0.5 / eps) = 2, 10 and 2 intervals: bin 0 takes eps=0.05;
        # 0.3 and 0.25 tie, keep grid order, and share bin 1.
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15", "--epsilons", "0.3,0.05,0.25",
                       "--horizon", "0.5", "--jobs", "2")
        assert code == 0
        assert pools == [1]
        assert submitted == [[[(1.0, 0.3), (15.0, 0.3)], [(1.0, 0.25), (15.0, 0.25)]]]
        assert batches[-1] == [(1.0, 0.05), (15.0, 0.05)]  # run here, after the pool's
        assert_rows_equal_serial_calls(tmp_path, (1.0, 15.0), (0.3, 0.05, 0.25))

    def test_jobs_1_starts_no_pool_and_caps_the_batch(self, tmp_path, monkeypatch):
        """--jobs 1 runs every batch in this process.  A column whose record
        rows times gains exceed _BATCH_ROWS is split; under classic
        semantics each cell runs alone."""
        from osctrack import cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        batches = []
        record_batches(monkeypatch, cli, batches)
        # 121 rows at eps=0.05 and 25 at eps=0.3: two and ten gains a batch.
        monkeypatch.setattr(cli, "_BATCH_ROWS", 250)
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15,7", "--epsilons", "0.3,0.05",
                       "--horizon", "0.5", "--jobs", "1")
        assert code == 0
        assert batches == [[(1.0, 0.05), (15.0, 0.05)], [(7.0, 0.05)],
                           [(1.0, 0.3), (15.0, 0.3), (7.0, 0.3)]]
        assert_rows_equal_serial_calls(tmp_path, (1.0, 15.0, 7.0), (0.3, 0.05))

        batches.clear()
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15", "--epsilons", "0.25", "--horizon", "0.5",
                       "--jobs", "1", "--semantics", "classic", "--substeps", "40")
        assert code == 0
        assert batches == [[(1.0, 0.25)], [(15.0, 0.25)]]
        assert_rows_equal_serial_calls(tmp_path, (1.0, 15.0), (0.25,),
                                       semantics="classic", substeps=40)

    def test_fewer_columns_than_jobs_cut_each_column(self, tmp_path, monkeypatch):
        """With fewer columns than processes, each column is cut into
        ceil(jobs / columns) batches, so every process gets work: four gains
        of one period at --jobs 4 run one cell a process, and three gains of
        two periods at --jobs 3 make batches of two gains and of one."""
        from osctrack import cli

        pools, submitted = serial_pool(monkeypatch, cli)
        batches = []
        record_batches(monkeypatch, cli, batches)
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15,7,3", "--epsilons", "0.1", "--horizon", "0.5",
                       "--jobs", "4")
        assert code == 0
        assert pools == [3]
        assert submitted == [[[(15.0, 0.1)]], [[(7.0, 0.1)]], [[(3.0, 0.1)]]]
        assert batches[-1] == [(1.0, 0.1)]
        assert_rows_equal_serial_calls(tmp_path, (1.0, 15.0, 7.0, 3.0), (0.1,))

        pools.clear()
        submitted.clear()
        batches.clear()
        # 10 intervals at eps=0.05, 5 at eps=0.1: bin 0 takes the first
        # eps=0.05 batch, bin 1 the second, bin 2 both eps=0.1 batches.
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15,7", "--epsilons", "0.1,0.05", "--horizon", "0.5",
                       "--jobs", "3")
        assert code == 0
        assert pools == [2]
        assert submitted == [[[(7.0, 0.05)]], [[(1.0, 0.1), (15.0, 0.1)], [(7.0, 0.1)]]]
        assert batches[-1] == [(1.0, 0.05), (15.0, 0.05)]
        assert_rows_equal_serial_calls(tmp_path, (1.0, 15.0, 7.0), (0.1, 0.05))

    def test_an_extra_key_in_a_row_leaves_the_csv_unchanged(self, tmp_path, monkeypatch):
        """The CSV picks its columns by name, so a key that a wrapper adds
        to a row dict (a tracer timing a worker, say) writes the same bytes."""
        from osctrack import cli

        argv = ("sweep", "--scenario", "unicycle", "--alphas", "1,15",
                "--epsilons", "0.1,0.05", "--horizon", "0.5", "--jobs", "1")
        assert run_cli(tmp_path / "plain", *argv) == 0
        row = cli._row

        def with_extra_key(*args):
            return {**row(*args), "_extra": (1, 0.5)}

        monkeypatch.setattr(cli, "_row", with_extra_key)
        assert run_cli(tmp_path / "extra", *argv) == 0
        cli._SWEEP_BUILDS.clear()
        assert ((tmp_path / "extra" / "sweep_summary.csv").read_bytes()
                == (tmp_path / "plain" / "sweep_summary.csv").read_bytes())

    def test_a_cell_with_a_comma_or_quote_is_quoted(self, tmp_path, monkeypatch):
        """A summary cell holding the delimiter or a quote is quoted, and
        its quotes doubled."""
        from osctrack import cli

        row = cli._row

        def odd_status(*args):
            return {**row(*args), "status": 'error: at x=[1, 2], "f"'}

        monkeypatch.setattr(cli, "_row", odd_status)
        assert run_cli(tmp_path, "sweep", "--scenario", "unicycle", "--alphas", "15",
                       "--epsilons", "0.1", "--horizon", "0.5", "--jobs", "1") == 0
        cli._SWEEP_BUILDS.clear()
        line = (tmp_path / "sweep_summary.csv").read_text().splitlines()[1]
        assert line.startswith('15,0.10000000000000001,"error: at x=[1, 2], ""f""",')

    def test_a_batch_refused_whole_gives_each_cell_its_own_error(self, tmp_path, capsys):
        """A start outside the steering chart makes simulate refuse the
        column's batch.  The input is at fault, so the sweep exits 1 with
        the error of a cell run alone and writes no summary."""
        from osctrack import cli

        code = run_cli(tmp_path, "sweep", "--scenario", "car", "--x0", "0,0,1.6,0",
                       "--alphas", "1,2", "--epsilons", "0.1", "--horizon", "0.2",
                       "--jobs", "1")
        assert code == 1
        config = cli.RunConfig(scenario="car", x0=(0.0, 0.0, 1.6, 0.0), horizon=0.2)
        with pytest.raises(DomainError, match="outside the system domain") as alone:
            cli._sweep_row(replace(config, alpha=1.0, epsilon=0.1))
        cli._SWEEP_BUILDS.clear()
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_nu_computed_once_before_the_pool_starts(self, tmp_path, monkeypatch):
        """The registry curve's nu is computed in the parent, so forked
        workers inherit it instead of each sampling the bound again."""
        from osctrack import cli, curves

        calls = []
        original = curves.velocity_bound

        def counted(deriv, horizon):
            calls.append(horizon)
            return original(deriv, horizon)

        monkeypatch.setattr(curves, "velocity_bound", counted)
        pools, _ = serial_pool(monkeypatch, cli, on_start=lambda: len(calls))
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "1,15", "--epsilons", "0.25,0.1", "--horizon", "0.5",
                       "--jobs", "2")
        cli._SWEEP_BUILDS.clear()
        assert code == 0
        assert pools == [1]  # nu had been computed once when the pool started
        assert calls == [0.5]
        assert ",alpha<=nu/rho" in (tmp_path / "sweep_summary.csv").read_text()

    @pytest.mark.parametrize("jobs", ["-1", "0"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch, jobs):
        """Refused with a validation error before any worker starts."""
        from osctrack import cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "15", "--epsilons", "0.1", "--horizon", "0.5",
                       "--jobs", jobs)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --jobs")
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_empty_grid_rejected(self, tmp_path):
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "", "--epsilons", "0.1")
        assert code == 1

    def test_nonpositive_grid_value_rejected(self, tmp_path):
        """Every cell's gain is checked before any run."""
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas=-1,15", "--epsilons", "0.1", "--horizon", "0.5")
        assert code == 1
        assert not (tmp_path / "sweep_summary.csv").exists()

    def test_non_finite_grid_value_rejected(self, tmp_path):
        code = run_cli(tmp_path, "sweep", "--scenario", "unicycle",
                       "--alphas", "nan,15", "--epsilons", "0.1", "--horizon", "0.5")
        assert code == 1
        assert not (tmp_path / "sweep_summary.csv").exists()


class TestListings:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("unicycle", "underwater", "car"):
            assert name in out

    def test_list_curves(self, capsys):
        assert main(["list-curves"]) == 0
        out = capsys.readouterr().out
        for name in ("gamma1", "gamma2", "gamma3", "gamma4_underwater",
                     "gamma4_car"):
            assert name in out
        # The horizon nu was sampled over, not infinity for a closed-form curve.
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.endswith(" horizon=40") for line in lines)


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only; the runtime never imports it."""
    env = dict(os.environ, PYTHONPATH=str(Path(osctrack.__file__).parents[1]))
    probe = ("import sys, osctrack.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_defers_the_process_pool():
    """Only sweep uses the pool, so start-up does not import
    concurrent.futures; the module attribute still names the real class."""
    env = dict(os.environ, PYTHONPATH=str(Path(osctrack.__file__).parents[1]))
    probe = ("import sys, osctrack.cli as cli; "
             "print('concurrent.futures' in sys.modules); "
             "from concurrent.futures import ProcessPoolExecutor; "
             "print(cli.ProcessPoolExecutor is ProcessPoolExecutor)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]
