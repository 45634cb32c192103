"""The three benchmark workloads: inputs from a seed, one repetition, checks.

All three are closed loops driven from this process: each repetition
starts when the previous one has returned.  The CLI is called in-process
through ``osctrack.cli.main`` and the certification checks through the
public library, always as module attribute lookups so the tracer's
wrappers see them.  Only ``sweep_car`` starts processes: the CLI's own
pool, with ``--jobs 2``.

Why these three: they use the integrator in three different ways (one
long run, several medium runs in parallel, many one-interval runs), so a
change that helps one use and costs another shows up.

Every repetition is checked after its timer has stopped.  An operation
(a CLI call, a sweep cell, a contraction draw, the Volterra fit or a
reference run) is *unsuccessful* when the program reports a failure or
a check on it fails; it *fails a check* when the program's output is
wrong.  ``fail_frac`` counts the first, the result's ``failed`` the
second.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

import osctrack.certify as certify
import osctrack.cli as cli
import osctrack.curves as curves
import osctrack.integrator as integrator
import osctrack.metrics as metrics
import osctrack.scenarios as scenarios
from osctrack.controller import ControllerParams
from osctrack.errors import OscTrackError

# run_unicycle: the paper's headline case.  Horizon sized so one
# repetition takes about 1.3 s on a 2-CPU Intel Xeon machine.
RUN_HORIZON = 10.0
RUN_ALPHA = 15.0
RUN_EPSILON = 0.1
INITIAL_ERROR = 2.0          # the initial error radius of criterion 1
ENDPOINT_RTOL = 1e-6         # criterion 9

# sweep_car: the ε=0.5 column leaves the steering chart (criterion 5) and
# stays in on purpose.  Gains stop at 10 because α=12 at ε=0.1 also fails.
SWEEP_CURVE = "5*sin(t/4), 5*sin(t/4)*cos(t/4), 0, 0"
SWEEP_EPSILONS = (0.5, 0.1, 0.05)
SWEEP_ALPHA_RANGE = (3.0, 10.0)
SWEEP_HORIZON = 6.0
SWEEP_JOBS = 2
SWEEP_RHO = 0.5

# certify_unicycle: criterion 6 and 7 at the empirical certificate.
CONTRACTION_DRAWS = 100
CONTRACTION_MIN_PASS = 99
CONTRACTION_HORIZON = 1.0
VOLTERRA_EPSILONS = (0.04, 0.02, 0.01, 0.005)
VOLTERRA_SLOPE = (1.3, 1.8)


class Tally:
    """Operation counts behind ``fail_frac`` and the result's ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.unsuccessful = 0
        self.check_failed = 0
        self.notes: list[str] = []

    def add(self, n: int = 1, *, ok: bool, checked: bool, note: str = "") -> None:
        """Record ``n`` operations; ``checked`` False means their output was
        wrong, which also makes them unsuccessful."""
        self.attempted += n
        if not (ok and checked):
            self.unsuccessful += n
        if not checked:
            self.check_failed += n
            if note and len(self.notes) < 20:
                self.notes.append(note)

    @property
    def fail_frac(self) -> float:
        return self.unsuccessful / self.attempted if self.attempted else 1.0


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``osctrack.cli.main`` in-process with its output captured.

    An exception escaping ``main`` is a crash; it reads as exit code -1.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc(file=buf)
            rc = -1
    return rc, buf.getvalue()


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Workload:
    """One workload.  ``rep`` is the timed part; ``check`` runs after the
    timer stops.  ``replay`` runs once per invocation, before the first
    repetition."""

    name = ""
    scenario = ""
    curve_spec = ""
    horizon = 0.0
    replays = False
    jobs = 1                   # processes busy at once during a repetition

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.inputs: dict = {"seed": seed}

    def replay(self) -> None:
        """In-process serial recomputation; traced runs trace it."""

    def rep(self):
        raise NotImplementedError

    def check(self, outcome, tally: Tally) -> None:
        raise NotImplementedError


class RunUnicycle(Workload):
    """``osctrack run`` on the unicycle, gamma1, α=15, ε=0.1."""

    name = "run_unicycle"
    scenario = "unicycle"
    curve_spec = "gamma1"
    horizon = RUN_HORIZON

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        direction = self.rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        gamma0 = np.asarray(curves.get_curve("gamma1", horizon=self.horizon).eval(0.0))
        self.x0 = gamma0 + INITIAL_ERROR * direction
        self.inputs["x0"] = [float(v) for v in self.x0]
        self.out = workdir / "run"
        self.argv = ["run", "--scenario", self.scenario, "--curve", self.curve_spec,
                     "--alpha", repr(RUN_ALPHA), "--epsilon", repr(RUN_EPSILON),
                     "--horizon", repr(self.horizon),
                     "--x0", ",".join(repr(float(v)) for v in self.x0),
                     "--output-dir", str(self.out)]
        self.csv_hash = None
        self.reference_made = False
        self.reference_end = None

    def _reference(self, substeps: int, tally: Tally) -> None:
        """Criterion 9's reference: the same run at twice the substeps the
        program chose, made once per invocation."""
        ref_dir = self.workdir / "run_doubled"
        argv = self.argv[:-1] + [str(ref_dir), "--substeps", str(2 * substeps)]
        rc, log = call_cli(argv)
        end = _last_state(ref_dir / "trajectory.csv", 3) if rc == 0 else None
        tally.add(ok=rc == 0, checked=end is not None,
                  note=f"doubled-substep reference run: exit {rc}: {log[-300:]}")
        self.reference_made = True
        self.reference_end = end

    def rep(self):
        return call_cli(self.argv)

    def check(self, outcome, tally: Tally) -> None:
        rc, log = outcome
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {log[-300:]}")
        else:
            problems = self._check_files(tally)
        tally.add(ok=rc == 0, checked=not problems, note="; ".join(problems))

    def _check_files(self, tally: Tally) -> list[str]:
        try:
            meta = json.loads((self.out / "run_metadata.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"run_metadata.json unreadable: {exc}"]
        problems = []
        if meta.get("coefficient_evals") != meta.get("n_intervals"):
            problems.append(f"coefficient_evals {meta.get('coefficient_evals')} "
                            f"!= n_intervals {meta.get('n_intervals')}")
        digest = sha256(self.out / "trajectory.csv")
        if self.csv_hash is None:
            self.csv_hash = digest
        if digest is None or digest != self.csv_hash:
            problems.append("trajectory.csv missing or different from the first "
                            "repetition")
        if not self.reference_made:
            self._reference(int(meta.get("substeps", 0)), tally)
        end = _last_state(self.out / "trajectory.csv", 3)
        ref = self.reference_end
        if end is None or ref is None:
            problems.append("no endpoint to compare with the reference run")
        else:
            shift = float(np.linalg.norm(end - ref) / max(1.0, np.linalg.norm(ref)))
            if not shift < ENDPOINT_RTOL:
                problems.append(f"endpoint moves {shift:.2e} relative at doubled "
                                f"substeps (need < {ENDPOINT_RTOL:g})")
        return problems


def _last_state(path: Path, n: int) -> np.ndarray | None:
    """State columns x_1..x_n of the last row of a trajectory CSV."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            last = None
            for line in fh:
                last = line
    except OSError:
        return None
    if last is None:
        return None
    row = dict(zip(header, last.strip().split(",")))
    try:
        return np.array([float(row[f"x_{i + 1}"]) for i in range(n)])
    except (KeyError, ValueError):
        return None


class SweepCar(Workload):
    """``osctrack sweep`` on the car with an expression curve, 2 gains × 3 periods."""

    name = "sweep_car"
    scenario = "car"
    curve_spec = "expr:" + SWEEP_CURVE
    horizon = SWEEP_HORIZON
    replays = True
    jobs = SWEEP_JOBS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.alphas = [round(float(a), 3) for a in self.rng.uniform(*SWEEP_ALPHA_RANGE, 2)]
        self.inputs["alphas"] = self.alphas
        self.out = workdir / "sweep"
        self.argv = ["sweep", "--scenario", self.scenario, "--curve", SWEEP_CURVE,
                     "--epsilons", ",".join(repr(e) for e in SWEEP_EPSILONS),
                     "--alphas", ",".join(repr(a) for a in self.alphas),
                     "--jobs", str(SWEEP_JOBS), "--horizon", repr(self.horizon),
                     "--rho", repr(SWEEP_RHO), "--output-dir", str(self.out)]
        self.cells = [(a, e) for a in self.alphas for e in SWEEP_EPSILONS]
        self.expected: list[dict] | None = None
        self.csv_hash = None

    def replay(self) -> None:
        """Recompute every cell serially through the public library calls a
        worker makes; the sweep's rows must equal these."""
        self.expected = [self._cell(a, e) for a, e in self.cells]

    def _cell(self, alpha: float, epsilon: float) -> dict:
        scenario = scenarios.get_scenario(self.scenario)
        curve = curves.get_curve(self.curve_spec, horizon=self.horizon)
        params = ControllerParams(alpha=alpha, epsilon=epsilon)
        grid = integrator.SamplerGrid(epsilon=epsilon, horizon=self.horizon)
        cell = {"alpha": alpha, "epsilon": epsilon, "status": "ok",
                "steady_amplitude": None, "entry_time": None,
                "fitted_lambda": None, "flag": ""}
        try:
            traj = integrator.simulate(scenario.system, scenario.scheme, params,
                                       curve, scenario.default_x0, grid)
            report = metrics.stability_report(traj, SWEEP_RHO)
        except OscTrackError:
            cell["status"] = "error"
            return cell
        cell["steady_amplitude"] = report.steady_amplitude
        if report.entry_time is not None and math.isfinite(report.entry_time):
            cell["entry_time"] = report.entry_time
        cell["fitted_lambda"] = report.fitted_lambda
        if alpha <= curve.nu / SWEEP_RHO:
            cell["flag"] = "alpha<=nu/rho"
        return cell

    def rep(self):
        return call_cli(self.argv)

    def check(self, outcome, tally: Tally) -> None:
        rc, log = outcome
        n = len(self.cells)
        if rc != 0:
            tally.add(n, ok=False, checked=False, note=f"exit code {rc}: {log[-300:]}")
            return
        path = self.out / "sweep_summary.csv"
        digest = sha256(path)
        if self.csv_hash is None:
            self.csv_hash = digest
        if digest is None or digest != self.csv_hash:
            tally.add(n, ok=False, checked=False,
                      note="sweep_summary.csv missing or different from the first repetition")
            return
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n or self.expected is None:
            tally.add(n, ok=False, checked=False,
                      note=f"sweep_summary.csv has {len(rows)} rows, expected {n}")
            return
        for row, want in zip(rows, self.expected):
            problem = _row_mismatch(row, want)
            tally.add(ok=want["status"] == "ok", checked=problem is None,
                      note=problem or "")


def _row_mismatch(row: dict, want: dict) -> str | None:
    """Compare one sweep row with its recomputation, values exactly."""
    def num(text):
        return None if text in ("", None) else float(text)
    cell = f"cell alpha={want['alpha']} epsilon={want['epsilon']}"
    try:
        got = {k: num(row.get(k)) for k in ("alpha", "epsilon", "steady_amplitude",
                                             "entry_time", "fitted_lambda")}
    except ValueError:
        return f"{cell}: unparsable row {row}"
    status = "ok" if row.get("status") == "ok" else "error"
    if status != want["status"]:
        return f"{cell}: status {row.get('status')!r}, recomputed {want['status']!r}"
    for key, value in got.items():
        if value != want[key]:
            return f"{cell}: {key} {value!r}, recomputed {want[key]!r}"
    if (row.get("flag") or "") != want["flag"]:
        return f"{cell}: flag {row.get('flag')!r}, recomputed {want['flag']!r}"
    return None


class CertifyUnicycle(Workload):
    """``osctrack certify --empirical`` on the unicycle, then the certificate's
    one-step contraction (criterion 6) and Volterra scaling (criterion 7)."""

    name = "certify_unicycle"
    scenario = "unicycle"
    curve_spec = "gamma1"
    horizon = 40.0             # the unicycle scenario's default, which certify uses

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "certify"
        self.argv = ["certify", "--scenario", self.scenario, "--curve", self.curve_spec,
                     "--empirical", "--seed", str(seed), "--output-dir", str(self.out)]

    def rep(self):
        rc, log = call_cli(self.argv)
        if rc != 0:
            return rc, log, None, None, None
        payload = json.loads((self.out / "certificate.json").read_text())
        cert, inputs = payload["certificate"], payload["inputs"]
        scenario = scenarios.get_scenario(self.scenario)
        curve = curves.get_curve(self.curve_spec, horizon=CONTRACTION_HORIZON)
        contraction = certify.contraction_check(
            scenario.system, scenario.scheme,
            ControllerParams(alpha=payload["alpha"], epsilon=cert["eps_hat"]), curve,
            lam=inputs["lam"], nu=inputs["nu"], rho_prime=inputs["rho_prime"],
            delta=inputs["delta"], n_draws=CONTRACTION_DRAWS, seed=self.seed)
        scaling = certify.volterra_scaling(
            scenario.system, scenario.scheme, payload["alpha"], VOLTERRA_EPSILONS,
            curve, scenario.default_x0, sigma=cert["sigma"])
        return rc, log, payload, contraction, scaling

    def check(self, outcome, tally: Tally) -> None:
        rc, log, payload, contraction, scaling = outcome
        if payload is None:
            tally.add(ok=False, checked=False, note=f"exit code {rc}: {log[-300:]}")
            tally.add(CONTRACTION_DRAWS + 1, ok=False, checked=False,
                      note="no certificate to check against")
            return
        cert = payload.get("certificate") or {}
        cert_ok = payload.get("ok") is True and cert.get("provenance") == "empirical"
        tally.add(ok=True, checked=cert_ok,
                  note=f"certificate ok={payload.get('ok')} "
                       f"provenance={cert.get('provenance')}")
        enough = contraction.n_pass >= CONTRACTION_MIN_PASS
        note = (f"{contraction.n_pass}/{contraction.n_draws} starts contract "
                f"(need >= {CONTRACTION_MIN_PASS})")
        tally.add(contraction.n_pass, ok=True, checked=enough, note=note)
        tally.add(contraction.n_draws - contraction.n_pass, ok=False, checked=enough,
                  note=note)
        lo, hi = VOLTERRA_SLOPE
        bounded = all(r.ok for r in scaling.reports)
        slope_ok = lo <= scaling.exponent <= hi
        tally.add(ok=True, checked=bounded and slope_ok,
                  note=f"Volterra slope {scaling.exponent:.3f} (need [{lo}, {hi}]), "
                       f"all bounds hold: {bounded}")


WORKLOADS = {cls.name: cls for cls in (RunUnicycle, SweepCar, CertifyUnicycle)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)

