"""Command-line front end for tracking runs, certification, and parameter sweeps.

Subcommands
-----------
run             simulate one scenario and write trajectory.csv plus JSON reports
certify         evaluate the sampling-period certificate and write certificate.json
sweep           Cartesian (alpha, epsilon) grid of runs, one summary row per run
list-scenarios  print the scenario registry
list-curves     print the reference-curve registry

Configuration is a JSON document mirroring ``RunConfig``; command-line flags
override file values.  All numeric CSV output uses 17 significant digits so
identical configurations reproduce byte-identical files.  The default output
directory comes from ``OSCTRACK_OUTPUT_DIR`` when set, else the working
directory.

Exit codes: 0 success, 1 validation error, 2 simulation failure,
3 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .certify import CertificateInputs, bound_constants, estimate_sup_bounds
from .controller import ControllerParams
from .curves import CURVE_REGISTRY, ReferenceCurve, get_curve
from .errors import (
    CertificationError,
    DimensionMismatchError,
    DomainError,
    RankConditionError,
    SimulationError,
    UnsupportedSchemeError,
    UsageError,
    in_range,
)
from .integrator import (
    SamplerGrid,
    Trajectory,
    classic_solution_simulate,
    simulate,
)
from .metrics import stability_report
from .scenarios import SCENARIO_REGISTRY, Scenario, get_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SIMULATION = 2
EXIT_CERTIFICATION = 3

_SEMANTICS = ("sampled", "classic")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for one tracking run.

    ``curve`` is either a registry name or a comma-separated component
    expression in the variable ``t``.  ``x0``, ``horizon``, ``alpha``,
    ``epsilon``, and ``substeps`` fall back to the scenario defaults when
    left unset; ``ControllerParams`` and ``SamplerGrid`` check their ranges.
    """

    scenario: str
    curve: str | None = None
    alpha: float | None = None
    epsilon: float | None = None
    x0: tuple[float, ...] | None = None
    horizon: float | None = None
    substeps: int | None = None
    rho: float = 0.5
    seed: int = 0
    output_dir: str | None = None
    semantics: str = "sampled"

    def __post_init__(self) -> None:
        in_range("rho", self.rho)
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        if self.semantics not in _SEMANTICS:
            raise UsageError(
                f"unknown semantics {self.semantics!r}; choose from {_SEMANTICS}")


def _is_number(value) -> bool:
    return type(value) in (int, float)  # JSON true and false are not numbers


# The JSON values each RunConfig annotation accepts.
_CONFIG_TYPES = {
    "str": lambda v: type(v) is str,
    "float": _is_number,
    "int": lambda v: type(v) is int,
    "tuple[float, ...]": lambda v: type(v) is list and all(map(_is_number, v)),
    "None": lambda v: v is None,
}


def load_config_file(path: str) -> dict:
    """Read a JSON config document; reject keys RunConfig does not have and
    values of the wrong JSON type."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must contain a JSON object")
    annotations = {f.name: f.type for f in fields(RunConfig)}
    unknown = sorted(set(data) - annotations.keys())
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        if not any(_CONFIG_TYPES[t](value) for t in annotations[key].split(" | ")):
            raise UsageError(f"config key {key!r} has the wrong type: {value!r}")
    return data


# What certify reads in one mode only, by flag destination: the field bounds
# without --empirical, which estimates them, and its seed and sample count.
_FIELD_BOUNDS = ("m1", "m2", "m3", "lipschitz", "mu")
_SAMPLING = ("seed", "bound_samples")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file values with command-line flags; flags win.

    A subcommand reads a config key only where it has the matching flag,
    so the file is refused on a key the subcommand would not read, as the
    flag is: certify's ``x0``, ``substeps`` and ``semantics``, and run's and
    sweep's ``seed``.  So are the flags and keys certify's mode does not read:
    ``_FIELD_BOUNDS`` with ``--empirical``, ``_SAMPLING`` without it."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    if args.command == "certify":
        skip = _FIELD_BOUNDS if args.empirical else _SAMPLING
        unread = ([f"config key {key}" for key in skip if key in values]
                  + [f"--{key.replace('_', '-')}" for key in skip
                     if getattr(args, key) is not None])
        if unread:
            raise UsageError(f"certify {'with' if args.empirical else 'without'} "
                             f"--empirical does not read {', '.join(unread)}")
    unread = sorted(key for key in values if not hasattr(args, key))
    if unread:
        raise UsageError(f"{args.command} does not read config keys: "
                         f"{', '.join(unread)}")
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _parse_floats(flag, "x0") if f.name == "x0" else flag
    if values.get("scenario") is None:
        raise UsageError("a scenario name is required (flag --scenario or config file)")
    return RunConfig(**values)


def _parse_floats(text: str, label: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise UsageError(f"{label} must be a comma-separated list of numbers") from exc
    if not parts:
        raise UsageError(f"{label} must contain at least one number")
    return parts


# The scenario and curve of the current sweep, by (scenario, curve spec,
# horizon).  ``cmd_sweep`` fills it afresh before its pool starts; a
# worker shares the filled copy (forked) or builds each at most once.
_SWEEP_BUILDS: dict[tuple, tuple[Scenario, ReferenceCurve]] = {}


def resolve_run(config: RunConfig, builds: dict | None = None
                ) -> tuple[Scenario, ReferenceCurve, ControllerParams, np.ndarray,
                           SamplerGrid]:
    """The scenario, curve, gain, start and grid of a run config.

    With ``builds``, the scenario and curve are taken from it when it
    holds the config's (scenario, curve spec, horizon), and put in it
    when it does not.
    """
    builds = {} if builds is None else builds
    key = (config.scenario, config.curve, config.horizon)
    scenario = builds[key][0] if key in builds else get_scenario(config.scenario)
    alpha = config.alpha if config.alpha is not None else scenario.default_params.alpha
    epsilon = (config.epsilon if config.epsilon is not None
               else scenario.default_params.epsilon)
    params = ControllerParams(alpha=alpha, epsilon=epsilon)
    horizon = config.horizon if config.horizon is not None else scenario.horizon
    grid = SamplerGrid(epsilon=epsilon, horizon=horizon, substeps=config.substeps)
    if key not in builds:
        curve_spec = config.curve if config.curve is not None else scenario.default_curve
        curve = get_curve(curve_spec, horizon=horizon)
        if curve.dim != scenario.system.n:
            raise DimensionMismatchError(
                f"curve {curve.name!r} has dimension {curve.dim}, "
                f"scenario {scenario.name!r} needs {scenario.system.n}")
        builds[key] = scenario, curve
    curve = builds[key][1]
    x0 = (np.asarray(config.x0, dtype=float) if config.x0 is not None
          else np.asarray(scenario.default_x0, dtype=float))
    if x0.shape != (scenario.system.n,):
        raise DimensionMismatchError(
            f"x0 has {x0.size} components, scenario {scenario.name!r} "
            f"needs {scenario.system.n}")
    return scenario, curve, params, x0, grid


def output_directory(config: RunConfig) -> Path:
    """Where a command writes; ``_create`` makes it on the first write."""
    if config.output_dir is not None:
        return Path(config.output_dir)
    if os.environ.get("OSCTRACK_OUTPUT_DIR"):
        return Path(os.environ["OSCTRACK_OUTPUT_DIR"])
    return Path.cwd()


def _create(path: Path):
    """Open an output file for writing, making its directory first, so
    that a command refused before it writes leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


# Rows formatted and written at a time by ``write_trajectory_csv``.
_CSV_BLOCK_ROWS = 1024

# Member-rows (record rows times members) of one batched sweep run: some
# 46 MB of car record, 2.5 default car runs of 144,001 rows.
_BATCH_ROWS = 360_000


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Write a single start's trace, full or partial, with 17 significant
    digits per value, ``_CSV_BLOCK_ROWS`` rows at a time: the memory this
    takes beyond ``traj`` does not grow with the trace."""
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    header = (["t"]
              + [f"x_{i + 1}" for i in range(n)]
              + [f"gamma_{i + 1}" for i in range(n)]
              + [f"u_{i + 1}" for i in range(m)]
              + ["dist"])
    line = ",".join(["%.17g"] * len(header)) + "\n"
    columns = (traj.times, traj.states, traj.reference, traj.controls, traj.dist)
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, traj.times.size, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def write_json(path: Path, payload: dict) -> None:
    cleaned = {k: _json_value(v) for k, v in payload.items()}
    with _create(path) as fh:
        json.dump(cleaned, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metadata(resolved: dict, traj: Trajectory | None, status: str,
              partial: bool) -> dict:
    out = {
        "config": resolved,
        "status": status,
        "partial_output": partial,
        "versions": {
            "osctrack": __version__,
            "numpy": np.__version__,
        },
    }
    if traj is not None:
        out["n_intervals"] = traj.n_intervals
        out["coefficient_evals"] = traj.coefficient_evals
        out["substeps"] = traj.substeps
        out["semantics"] = traj.semantics
    return out


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    scenario, curve, params, x0, grid = resolve_run(config)
    out_dir = output_directory(config)
    resolved = asdict(replace(config, curve=curve.name, alpha=params.alpha,
                              epsilon=params.epsilon, x0=[float(v) for v in x0],
                              horizon=grid.horizon))
    integrate = simulate if config.semantics == "sampled" else classic_solution_simulate
    try:
        traj = integrate(scenario.system, scenario.scheme, params, curve, x0, grid)
    except SimulationError as exc:
        if exc.partial is not None:
            write_trajectory_csv(out_dir / "trajectory.csv", exc.partial)
        meta = _metadata(resolved, exc.partial, f"failed: {exc.reason} at t={exc.time}",
                         partial=exc.partial is not None)
        write_json(out_dir / "run_metadata.json", meta)
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    report = stability_report(traj, config.rho)
    write_json(out_dir / "stability_report.json", asdict(report))
    write_json(out_dir / "run_metadata.json",
               _metadata(resolved, traj, "completed", partial=False))
    print(f"wrote {out_dir / 'trajectory.csv'} ({traj.times.size} rows), "
          f"stability_report.json, run_metadata.json")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    scenario, curve, params, *_ = resolve_run(config)
    out_dir = output_directory(config)

    nu = args.nu if args.nu is not None else curve.nu
    if args.empirical:
        samples = {} if args.bound_samples is None else {"n_samples": args.bound_samples}
        sup = estimate_sup_bounds(scenario.system, scenario.scheme, curve,
                                  delta_prime=args.delta_prime, seed=config.seed,
                                  **samples)
        m1, m2, m3, lip, mu = sup.M1, sup.M2, sup.M3, sup.L, sup.mu
        provenance = "empirical"
    else:
        bounds = [getattr(args, key) for key in _FIELD_BOUNDS]
        if None in bounds:
            raise UsageError(
                "supply all of --m1 --m2 --m3 --lipschitz --mu, or pass --empirical "
                "to estimate them by sampling the tracking tube")
        m1, m2, m3, lip, mu = bounds
        provenance = "analytic"

    inputs = CertificateInputs(
        r=args.r, rho=config.rho, rho_prime=args.rho_prime,
        delta=args.delta, delta_prime=args.delta_prime,
        mu=mu, nu=nu, M1=m1, M2=m2, M3=m3, L=lip, lam=args.lam,
        provenance=provenance)
    report = bound_constants(scenario.scheme, params.alpha, inputs)

    payload = {
        "ok": report.ok,
        "detail": report.detail,
        "scenario": scenario.name,
        "curve": curve.name,
        "alpha": params.alpha,
        "epsilon": params.epsilon,
        "inputs": asdict(inputs),
        "certificate": report.certificate.as_dict() if report.certificate else None,
    }
    write_json(out_dir / "certificate.json", payload)
    if not report.ok:
        print(f"certification failed: {report.detail}", file=sys.stderr)
        return EXIT_CERTIFICATION
    print(f"wrote {out_dir / 'certificate.json'} "
          f"(eps_hat={report.certificate.eps_hat:.6g})")
    return EXIT_OK


def _row(config: RunConfig, curve: ReferenceCurve,
         outcome: Trajectory | SimulationError) -> dict:
    """The summary row of one sweep cell: its run's report, or how it failed."""
    row = {"alpha": config.alpha, "epsilon": config.epsilon, "status": "ok",
           "steady_amplitude": None, "entry_time": None, "fitted_lambda": None,
           "flag": None}
    if isinstance(outcome, SimulationError):
        row["status"] = f"error: {outcome}"
        return row
    rep = stability_report(outcome, config.rho)
    row["steady_amplitude"] = rep.steady_amplitude
    row["entry_time"] = rep.entry_time if math.isfinite(rep.entry_time) else None
    row["fitted_lambda"] = rep.fitted_lambda
    if config.alpha <= curve.nu / config.rho:
        row["flag"] = "alpha<=nu/rho"
    return row


def _sweep_row(config: RunConfig) -> dict:
    """Worker for one sweep cell: the sweep's config at the cell's alpha and epsilon."""
    scenario, curve, params, x0, grid = resolve_run(config, _SWEEP_BUILDS)
    integrate = simulate if config.semantics == "sampled" else classic_solution_simulate
    try:
        traj = integrate(scenario.system, scenario.scheme, params, curve, x0, grid)
    except SimulationError as exc:
        return _row(config, curve, exc)
    return _row(config, curve, traj)


def _sweep_batch(cells: list[RunConfig]) -> list[dict]:
    """The rows of cells that differ only in their gain, from one batched
    ``simulate`` with a member per gain; a single cell is run alone.  Each
    row equals the cell's ``_sweep_row``: member b is the run of its gain
    alone to the last bit, and a member that stops keeps the error it
    raises alone."""
    if len(cells) == 1:
        return [_sweep_row(cells[0])]
    scenario, curve, params, x0, grid = resolve_run(cells[0], _SWEEP_BUILDS)
    gains = replace(params, alpha=[cell.alpha for cell in cells])
    traj = simulate(scenario.system, scenario.scheme, gains, curve,
                    np.tile(x0, (len(cells), 1)), grid)
    return [_row(cell, curve, traj.failures[b] if b in traj.failures else
                 replace(traj, states=traj.states[:, b], controls=traj.controls[:, b],
                         dist=traj.dist[:, b], dense_dist=traj.dense_dist[:, b],
                         failures={}))
            for b, cell in enumerate(cells)]


def _sweep_bin(batches: list[list[RunConfig]]) -> list[list[dict]]:
    """Worker for one bin of a sweep: the rows of each of its batches."""
    return [_sweep_batch(cells) for cells in batches]


def cmd_sweep(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    _SWEEP_BUILDS.clear()
    # Rejects a bad scenario, curve or x0 before any run starts, and
    # computes the curve's nu here once instead of in every worker.
    scenario, curve, *_ = resolve_run(config, _SWEEP_BUILDS)
    curve.nu
    out_dir = output_directory(config)
    alphas = _parse_floats(args.alphas, "alphas") if args.alphas else ()
    epsilons = _parse_floats(args.epsilons, "epsilons") if args.epsilons else ()
    if not alphas or not epsilons:
        raise UsageError("sweep needs nonempty --alphas and --epsilons lists")

    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {args.jobs}")
    tasks = [replace(config, alpha=a, epsilon=e)
             for a, e in itertools.product(alphas, epsilons)]
    # A bad gain or period fails before any run starts.
    runs = [resolve_run(task, _SWEEP_BUILDS) for task in tasks]
    jobs = args.jobs or os.cpu_count() or 1
    # The cells of one period form a column, run as batches of at most
    # _BATCH_ROWS member-rows; under classic semantics each cell runs alone.
    # With fewer columns than processes, each column is cut into
    # ceil(jobs / columns) batches, so that no process is left without
    # work: a batch of k gains costs more than one start (about 1.4 times
    # for k = 2 or 3 on the car), while k starts in k processes cost one.
    columns: dict = {}
    for c, task in enumerate(tasks):
        columns.setdefault(task.epsilon if config.semantics == "sampled" else c,
                           []).append(c)
    parts = -(-jobs // len(columns))
    batches = []
    for cells in columns.values():
        _, _, params, _, grid = runs[cells[0]]
        # Too few substeps or too fine a period fail here, before any run
        # starts and before n_intervals can overflow, as in ``run``.
        length = grid.resolve(scenario.system, scenario.scheme,
                              params) * grid.n_intervals + 1
        size = max(1, min(_BATCH_ROWS // length, -(-len(cells) // parts)))
        batches += [cells[i:i + size] for i in range(0, len(cells), size)]
    # Every batch shares the scheme and horizon, so its cost goes with its
    # number of sampling intervals.  Longest first, each into the least
    # loaded bin (Graham's LPT list scheduling), keeps the longest batch
    # from running alone at the end; ties keep grid order.
    def cost(cells):
        return runs[cells[0]][4].n_intervals

    bins = [[] for _ in range(min(jobs, len(batches)))]
    for cells in sorted(batches, key=lambda cells: -cost(cells)):
        min(bins, key=lambda b: sum(map(cost, b))).append(cells)
    # This process runs bin 0 while the pool's workers run the others.
    work = [[[tasks[c] for c in cells] for cells in b] for b in bins]
    if len(bins) == 1:
        done = [_sweep_bin(work[0])]
    else:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=len(bins) - 1) as pool:
            futures = [pool.submit(_sweep_bin, w) for w in work[1:]]
            done = [_sweep_bin(work[0])] + [f.result() for f in futures]
    rows = [None] * len(tasks)
    for cells, batch_rows in zip(itertools.chain(*bins), itertools.chain(*done)):
        for c, row in zip(cells, batch_rows):
            rows[c] = row

    path = out_dir / "sweep_summary.csv"
    names = ["alpha", "epsilon", "status", "steady_amplitude",
             "entry_time", "fitted_lambda", "flag"]
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_sweep_cell(row[c]) for c in names] for row in rows)
    n_failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"wrote {path} ({len(rows)} rows, {n_failed} failed)")
    return EXIT_OK


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: importing
    ``concurrent.futures.process`` adds about 24 ms to every start-up, and
    only ``sweep`` needs it.  It stays a module attribute, which a test or
    tracer may replace."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _sweep_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def cmd_list_scenarios(_: argparse.Namespace) -> int:
    for name in SCENARIO_REGISTRY:
        sc = get_scenario(name)
        print(f"{name}: n={sc.system.n} m={len(sc.system.fields)} "
              f"curve={sc.default_curve} alpha={sc.default_params.alpha:g} "
              f"epsilon={sc.default_params.epsilon:g} horizon={sc.horizon:g}")
    return EXIT_OK


def cmd_list_curves(_: argparse.Namespace) -> int:
    for name in CURVE_REGISTRY:
        curve = get_curve(name)
        print(f"{name}: dim={curve.dim} nu={curve.nu:.6g} horizon={curve.horizon:g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to a validation error."""

    def error(self, message: str):
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--scenario", help="scenario registry name")
    parser.add_argument("--curve",
                        help="curve registry name or component expression in t")
    parser.add_argument("--alpha", type=float, help="feedback gain")
    parser.add_argument("--epsilon", type=float, help="sampling period")
    parser.add_argument("--horizon", type=float, help="simulation end time")
    parser.add_argument("--rho", type=float, help="tube radius for reports")
    parser.add_argument("--output-dir", dest="output_dir",
                        help="directory for output files "
                             "(default: $OSCTRACK_OUTPUT_DIR or the working directory)")


def _add_simulation(parser: argparse.ArgumentParser) -> None:
    """The flags only subcommands that simulate read."""
    parser.add_argument("--x0", help="initial state, comma separated")
    parser.add_argument("--substeps", type=int,
                        help="Runge-Kutta steps per sampling interval; the default "
                             "is also the least: 16 per period of the fastest "
                             "harmonic per oscillating control on a state-dependent "
                             "field, at least 24: 24 for the unicycle, 48 for the "
                             "car, 96 for the underwater vehicle")
    parser.add_argument("--semantics", choices=_SEMANTICS,
                        help="sampled (coefficients frozen per interval) or classic")


def build_parser() -> _Parser:
    parser = _Parser(prog="osctrack",
                     description="Oscillating-feedback tracking for driftless systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    _add_common(p_run)
    _add_simulation(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="evaluate the sampling-period certificate")
    _add_common(p_cert)
    p_cert.add_argument("--seed", type=int, help="seed for --empirical sampling")
    p_cert.add_argument("--r", type=float, default=3.0, help="outer working radius")
    p_cert.add_argument("--rho-prime", dest="rho_prime", type=float, default=0.25)
    p_cert.add_argument("--delta", type=float, default=2.0)
    p_cert.add_argument("--delta-prime", dest="delta_prime", type=float, default=2.5)
    p_cert.add_argument("--lam", type=float, default=1.0,
                        help="decay rate the certificate must support")
    p_cert.add_argument("--nu", type=float,
                        help="curve velocity bound (default: from the curve)")
    p_cert.add_argument("--m1", type=float, help="sup of the field norms")
    p_cert.add_argument("--m2", type=float, help="sup over first-order field products")
    p_cert.add_argument("--m3", type=float, help="sup over second-order field products")
    p_cert.add_argument("--lipschitz", type=float, help="field Jacobian bound")
    p_cert.add_argument("--mu", type=float, help="gain-matrix inverse singular bound")
    p_cert.add_argument("--empirical", action="store_true",
                        help="estimate bounds by sampling the tube instead")
    p_cert.add_argument("--bound-samples", dest="bound_samples", type=int,
                        help="samples for --empirical (default 10000)")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="grid of runs over alpha and epsilon")
    _add_common(p_sweep)
    _add_simulation(p_sweep)
    p_sweep.add_argument("--alphas", help="comma-separated gain list")
    p_sweep.add_argument("--epsilons", help="comma-separated sampling-period list")
    p_sweep.add_argument("--jobs", type=int,
                         help="processes, this one included (default: one per CPU)")
    p_sweep.set_defaults(func=cmd_sweep)

    sub.add_parser("list-scenarios").set_defaults(func=cmd_list_scenarios)
    sub.add_parser("list-curves").set_defaults(func=cmd_list_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DomainError, RankConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (CertificationError, UnsupportedSchemeError) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
