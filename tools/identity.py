"""Check that two source trees of osctrack give byte-identical outputs.

    python3 tools/identity.py --parent ../osctrack-old --change .

Each tree is a checkout with the package under ``src/``.  Every command in
``COMMANDS`` runs once per tree, each in a fresh interpreter with only that
tree's ``src`` on the path and the same output directory on both sides
(``run_metadata.json`` records that directory; ``list-curves`` takes
none).  Compared per command: every output file, byte for byte (by
sha256); stdout, with the output directory stripped; stderr, with the
output directory and the tree's root stripped and each warning's line
number and source line dropped (a RuntimeWarning prints where it was
raised, which moves with any edit to that file); and the exit code.  A probe, also run fresh per tree,
prints the ``repr`` of ``contraction_check`` and ``volterra_scaling``
reports, of ``estimate_sup_bounds`` results, of each registry curve's
``nu`` and of the sweeps' expression curve's, and for batched ``simulate`` runs whose members stop, each
member's failure and a sha256 of the arrays; these are compared line by
line.  Next to each differing output file, stdout and probe line it
prints how large the difference is: the largest absolute and relative
difference of the numbers in it (CSV cells, relative to their column's
largest magnitude; JSON leaves; the numbers of a text line), and how
many other items differ (text cells or leaves, lines whose words
differ, a changed shape), so a change in the last digits can be told
from a real one.  The parent's output files are kept aside for this
before the change runs.  Last, a table gives each command's and each
probe's peak resident memory (``ru_maxrss`` of its process) on both trees,
for information only: it never counts as a difference.  So are the two
code-size counts printed after it for each tree: non-blank lines under
``src/osctrack/`` and names imported by its ``__init__``.

Exits 0 when nothing differs, 1 naming every differing item otherwise.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# "file:line: SomeWarning: message" and the indented source line after it.
WARNING_AT = re.compile(r"^(.*):\d+: (\w*Warning: .*)\n  .*$", re.MULTILINE)

# A number as the outputs print it: decimal, scientific, inf or nan.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")

SWEEP_CURVE = "5*sin(t/4), 5*sin(t/4)*cos(t/4), 0, 0"

COMMANDS = [
    # The defaults: the car records 144,001 rows.
    ["run", "--scenario", "car"],
    ["run", "--scenario", "underwater"],
    ["run", "--scenario", "unicycle", "--curve", "gamma1", "--alpha", "15",
     "--epsilon", "0.1", "--horizon", "10", "--x0", "0.5,1.2,0.3"],
    ["run", "--scenario", "unicycle", "--alpha", "15", "--epsilon", "0.1",
     "--horizon", "0.5", "--semantics", "classic", "--substeps", "40"],
    ["run", "--scenario", "underwater", "--epsilon", "0.1", "--horizon", "5"],
    ["run", "--scenario", "car", "--alpha", "10", "--epsilon", "0.05", "--horizon", "5"],
    # Leaves the steering chart: exit 2 with a partial trace.
    ["run", "--scenario", "car", "--alpha", "5", "--epsilon", "0.5", "--horizon", "3"],
    ["run", "--scenario", "unicycle", "--curve", "gamma1", "--alpha", "1",
     "--epsilon", "0.1", "--horizon", "1"],
    ["sweep", "--scenario", "car", "--curve", SWEEP_CURVE, "--epsilons", "0.5,0.1,0.05",
     "--alphas", "4.2,9.1", "--jobs", "2", "--horizon", "6", "--rho", "1.0"],
    ["sweep", "--scenario", "unicycle", "--epsilons", "0.1,0.05", "--alphas", "1,15",
     "--jobs", "2", "--horizon", "2"],
    ["certify", "--scenario", "unicycle", "--curve", "gamma1", "--empirical",
     "--bound-samples", "2000"],
    ["certify", "--scenario", "underwater", "--empirical", "--bound-samples", "500",
     "--delta-prime", "0.5", "--delta", "0.4", "--rho-prime", "0.2", "--rho", "0.3"],
    # Three blocks of tube samples.
    ["certify", "--scenario", "underwater", "--empirical", "--bound-samples", "3000",
     "--delta-prime", "0.5", "--delta", "0.4", "--rho-prime", "0.2", "--rho", "0.3"],
    # A tube sample leaves the steering chart: exit 3 naming the first one.
    ["certify", "--scenario", "car", "--empirical"],
    ["list-curves"],
    ["certify", "--scenario", "unicycle", "--m1", "1", "--m2", "1",
     "--m3", "0.1666666666666667", "--lipschitz", "1", "--mu", "1"],
    # The sweep of the benchmark's sweep_car workload, at two fixed gains.
    ["sweep", "--scenario", "car", "--curve", SWEEP_CURVE, "--epsilons", "0.5,0.1,0.05",
     "--alphas", "3.7,8.8", "--jobs", "2", "--horizon", "6", "--rho", "0.5"],
    ["run", "--scenario", "car", "--alpha", "5", "--epsilon", "0.5", "--horizon", "3",
     "--semantics", "classic"],
    ["run", "--scenario", "underwater", "--epsilon", "0.1", "--horizon", "2",
     "--semantics", "classic"],
    # Overflows to a non-finite state: exit 2, with RuntimeWarnings on stderr.
    ["run", "--scenario", "unicycle", "--alpha", "1e160", "--horizon", "4"],
    # Four gains a column, every eps=0.5 member leaving the chart at its own
    # time: all in this process, then over three bins.
    ["sweep", "--scenario", "car", "--curve", SWEEP_CURVE, "--epsilons", "0.5,0.1,0.05",
     "--alphas", "3.2,4.4,6.1,9.9", "--jobs", "1", "--horizon", "6", "--rho", "0.5"],
    ["sweep", "--scenario", "car", "--curve", SWEEP_CURVE, "--epsilons", "0.5,0.1,0.05",
     "--alphas", "3.2,4.4,6.1,9.9", "--jobs", "3", "--horizon", "6", "--rho", "0.5"],
    # One column and two processes: the column is cut into a cell a process.
    ["sweep", "--scenario", "car", "--curve", SWEEP_CURVE, "--epsilons", "0.05",
     "--alphas", "3.7,8.8", "--jobs", "2", "--horizon", "6", "--rho", "0.5"],
    # Classic semantics: cell by cell.
    ["sweep", "--scenario", "unicycle", "--epsilons", "0.1,0.05", "--alphas", "1,15",
     "--jobs", "2", "--horizon", "1", "--semantics", "classic", "--substeps", "40"],
    # Refused: exit 1 and an error line on stderr.  Flags the subcommand or
    # certify's mode does not read, then values out of range.
    ["run", "--scenario", "unicycle", "--seed", "7"],
    ["certify", "--scenario", "unicycle", "--seed", "3"],
    ["certify", "--scenario", "unicycle", "--empirical", "--m1", "1", "--mu", "7"],
    ["certify", "--scenario", "unicycle", "--m1", "nan", "--m2", "1", "--m3", "1",
     "--lipschitz", "1", "--mu", "1"],
    ["run", "--scenario", "unicycle", "--rho", "nan"],
    # Both separators, and a comma inside a call.
    ["run", "--scenario", "unicycle", "--horizon", "1",
     "--curve", "cos(t/2); sin(t/2), pow(t, 2)/100"],
    # A malformed spec: exit 1.
    ["run", "--scenario", "unicycle", "--curve", "cos(t,; 1"],
    # The admissible curve gamma3: acceptance criterion 2's run, and its
    # certificate.
    ["run", "--scenario", "unicycle", "--curve", "gamma3", "--alpha", "40",
     "--epsilon", "0.025", "--horizon", "20"],
    ["certify", "--scenario", "unicycle", "--curve", "gamma3", "--empirical",
     "--bound-samples", "2000"],
]

MAIN = "import sys; from osctrack.cli import main; sys.exit(main(sys.argv[1:]))"

# Per seed: the certificate of `certify --empirical --seed s`, then
# contraction_check at its eps_hat and at two larger periods, then
# volterra_scaling with its sigma.  Then estimate_sup_bounds at seed 0 on
# each scenario's tube over its default horizon (certify's default
# delta_prime for the unicycle, 0.5 for the others), passing the horizon
# only to a tree whose estimate_sup_bounds still takes it (later trees read
# curve.horizon), nu of every registry curve at horizon 40, and nu of the
# sweeps' expression curve SWEEP_CURVE (the probe's second argument) at
# horizon 6, the sweep's.  Last,
# batches whose members stop: the car's domain-exit starts at alpha=5,
# eps=0.5, the first of them as a batch of one, and unicycle starts at
# alpha=1e160, which overflow.  Per batch, a sha256 of states, controls and
# dist (NaN bytes included), then per stopped member its reason, time,
# message and a sha256 of its partial trace.
PROBE = """
import hashlib, inspect, json, sys
import numpy as np
from osctrack import (CURVE_REGISTRY, ControllerParams, SamplerGrid, contraction_check,
                      estimate_sup_bounds, get_curve, get_scenario, simulate,
                      volterra_scaling)
from osctrack.cli import main

out = sys.argv[1]
scenario = get_scenario("unicycle")
curve = get_curve("gamma1", horizon=1.0)
for seed in (1000, 1001, 1002):
    argv = ["certify", "--scenario", "unicycle", "--curve", "gamma1", "--empirical",
            "--seed", str(seed), "--output-dir", out]
    if main(argv) != 0:
        print(f"seed {seed}: certify failed")
        continue
    with open(out + "/certificate.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    cert, inputs = payload["certificate"], payload["inputs"]
    for eps in (cert["eps_hat"], 0.05, 0.08):
        rep = contraction_check(
            scenario.system, scenario.scheme, ControllerParams(alpha=15.0, epsilon=eps),
            curve, lam=inputs["lam"], nu=inputs["nu"], rho_prime=inputs["rho_prime"],
            delta=inputs["delta"], seed=seed)
        print(f"contraction seed={seed} eps={eps!r}: {rep!r}")
    rep = volterra_scaling(scenario.system, scenario.scheme, 15.0,
                           (0.04, 0.02, 0.01, 0.005), curve, scenario.default_x0,
                           sigma=cert["sigma"])
    print(f"volterra seed={seed}: {rep!r}")
takes_horizon = "horizon" in inspect.signature(estimate_sup_bounds).parameters
for name, delta_prime in (("unicycle", 2.5), ("underwater", 0.5), ("car", 0.5)):
    scenario = get_scenario(name)
    tube_curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    horizon = {"horizon": scenario.horizon} if takes_horizon else {}
    sup = estimate_sup_bounds(scenario.system, scenario.scheme, tube_curve,
                              delta_prime=delta_prime, **horizon)
    print(f"sup bounds {name} delta_prime={delta_prime}: {sup!r}")
for name in CURVE_REGISTRY:
    print(f"nu {name}: {get_curve(name).nu!r}")
print(f"nu sweep curve: {get_curve(sys.argv[2], horizon=6.0).nu!r}")


def sha(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def batch(label, name, alpha, eps, horizon, starts):
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=horizon)
    traj = simulate(scenario.system, scenario.scheme, ControllerParams(alpha, eps), curve,
                    np.array(starts, dtype=float), SamplerGrid(eps, horizon))
    print(f"batch {label}: states {sha(traj.states)} controls {sha(traj.controls)} "
          f"dist {sha(traj.dist)} evals {traj.coefficient_evals}")
    for b, error in sorted(traj.failures.items()):
        part = error.partial
        print(f"batch {label} member {b}: {error.reason} t={error.time!r} {error} "
              f"partial {sha(part.times, part.states, part.controls, part.dist)} "
              f"intervals {part.n_intervals} evals {part.coefficient_evals}")


car_starts = [[1.0, 1.0, 0.0, 0.0], [8.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]
batch("car exits", "car", 5.0, 0.5, 1.0, car_starts)
batch("car exits, batch of one", "car", 5.0, 0.5, 1.0, car_starts[:1])
with np.errstate(all="ignore"):
    batch("unicycle overflow", "unicycle", 1e160, 0.1, 4.0,
          [[0.5, 1.2, 0.3], [2.0, 0.0, 1.0], [-1.0, 0.5, 0.0]])
"""


def digest(path: Path) -> str:
    """The sha256 of a file, read in chunks: this process stays small, and a
    child's ``ru_maxrss``, which counts this process's size when it was
    started, measures the child itself."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run(tree: Path, code: str, args: list[str], out: Path) -> dict:
    """Run ``python -c code *args`` on ``tree`` with a fresh, empty ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "OSCTRACK_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=out.parent,
                                env=env, stdout=stdout, stderr=stderr)
        # wait4 reaps the child and returns the child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        printed, errors = stdout.read().decode(), stderr.read().decode()
    files = {p.relative_to(out).as_posix(): digest(p)
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode,
            "stdout": printed.replace(str(out), "<out>"),
            "stderr": WARNING_AT.sub(r"\1: \2", errors.replace(str(out), "<out>")
                                     .replace(str(tree), "<root>")),
            "files": files,
            "peak rss mb": usage.ru_maxrss / 1024}  # ru_maxrss is in KiB on Linux


class Gap:
    """How far apart two outputs are: the largest absolute and relative
    difference of their differing numbers, and the count of other
    differing items."""

    def __init__(self):
        self.abs = self.rel = 0.0
        self.numbers = self.other = 0

    def number(self, a: float, b: float, scale: float = 0.0) -> None:
        """Two numbers; the relative difference is to ``scale``, or to the
        larger of the two when it is larger."""
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.numbers += 1
        if not (math.isfinite(a) and math.isfinite(b)):
            self.abs = self.rel = math.inf
            return
        gap = abs(a - b)
        self.abs = max(self.abs, gap)
        self.rel = max(self.rel, gap / max(abs(a), abs(b), scale))

    def text(self, a: str, b: str) -> None:
        """Two lines: their numbers, if their words agree, else one item."""
        if a == b:
            return
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            self.other += 1
            return
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            self.number(float(x), float(y))

    def lines(self, a: str, b: str) -> None:
        """Two texts, line by line; a line only one has is one item."""
        a, b = a.splitlines(), b.splitlines()
        self.other += abs(len(a) - len(b))
        for x, y in zip(a, b):
            self.text(x, y)

    def cells(self, a: Path, b: Path) -> None:
        """Two CSV files, cell by cell, each relative to the largest finite
        magnitude in its column, so that a value crossing zero in a column
        of large ones does not read as a relative change of 2.  Both are
        read row by row, keeping this process small (see ``digest``)."""
        scale = {}
        for path in (a, b):
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    for col, cell in enumerate(row):
                        try:
                            value = abs(float(cell))
                        except ValueError:
                            continue
                        if math.isfinite(value):
                            scale[col] = max(scale.get(col, 0.0), value)
        with open(a, newline="") as fa, open(b, newline="") as fb:
            for row_a, row_b in itertools.zip_longest(csv.reader(fa), csv.reader(fb)):
                if row_a is None or row_b is None:
                    self.other += 1
                    continue
                self.other += abs(len(row_a) - len(row_b))
                for col, (x, y) in enumerate(zip(row_a, row_b)):
                    try:
                        self.number(float(x), float(y), scale.get(col, 0.0))
                    except ValueError:
                        self.other += x != y

    def leaves(self, a, b) -> None:
        """JSON values, leaf by leaf."""
        if isinstance(a, dict) and isinstance(b, dict):
            self.other += len(a.keys() ^ b.keys())
            for key in a.keys() & b.keys():
                self.leaves(a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            self.other += abs(len(a) - len(b))
            for x, y in zip(a, b):
                self.leaves(x, y)
        elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
              and not isinstance(a, bool) and not isinstance(b, bool)):
            self.number(float(a), float(b))
        else:
            self.other += a != b

    def file(self, a: Path, b: Path) -> None:
        """Two output files of the same name: CSV and JSON by their
        numbers; a missing file, or one of another kind, is one item."""
        if a.is_file() and b.is_file() and a.suffix == ".csv":
            self.cells(a, b)
        elif a.is_file() and b.is_file() and a.suffix == ".json":
            with open(a) as fa, open(b) as fb:
                self.leaves(json.load(fa), json.load(fb))
        else:
            self.other += 1

    def __str__(self) -> str:
        parts = []
        if self.numbers:
            parts.append(f"{self.numbers} numbers, largest abs {self.abs:.2g}, "
                         f"rel {self.rel:.2g}")
        if self.other:
            parts.append(f"{self.other} other")
        return "; ".join(parts) or "no number differs"


def differences(parent: dict, change: dict, parent_out: Path, change_out: Path) -> list[str]:
    """The items of one command that differ between the two runs, each
    with how large its difference is (see ``Gap``) where it has one."""
    found = ["exit code"] if parent["exit code"] != change["exit code"] else []
    for key in ("stdout", "stderr"):
        if parent[key] != change[key]:
            gap = Gap()
            gap.lines(parent[key], change[key])
            found.append(f"{key} ({gap})")
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if parent["files"].get(name) != change["files"].get(name):
            gap = Gap()
            gap.file(parent_out / name, change_out / name)
            found.append(f"{name} ({gap})")
    return found


def code_size(tree: Path) -> tuple[int, int]:
    """Non-blank lines of the package's sources and names its ``__init__``
    imports."""
    package = tree / "src" / "osctrack"
    lines = sum(bool(line.strip()) for path in package.rglob("*.py")
                for line in path.read_text(encoding="utf-8").splitlines())
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    names = sum(len(node.names) for node in ast.walk(init)
                if isinstance(node, (ast.Import, ast.ImportFrom)))
    return lines, names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="reference tree")
    parser.add_argument("--change", required=True, type=Path, help="tree under test")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "src" / "osctrack").is_dir():
            parser.error(f"{tree} has no src/osctrack")

    failed = 0
    peaks = []  # (label, parent MB, change MB)
    with tempfile.TemporaryDirectory(prefix="osctrack-identity-") as tmp:
        out, aside = Path(tmp) / "out", Path(tmp) / "parent-out"
        for cmd in COMMANDS:
            label = " ".join(cmd)
            argv = cmd if cmd == ["list-curves"] else [*cmd, "--output-dir", str(out)]
            parent = run(trees[0], MAIN, argv, out)
            shutil.rmtree(aside, ignore_errors=True)
            shutil.copytree(out, aside)  # the change's run empties out
            change = run(trees[1], MAIN, argv, out)
            found = differences(parent, change, aside, out)
            peaks.append((label, parent["peak rss mb"], change["peak rss mb"]))
            failed += bool(found)
            status = "DIFFERS: " + ", ".join(found) if found else "identical"
            print(f"{label}\n    exit {parent['exit code']}, "
                  f"{len(parent['files'])} files: {status}")
        probes = [run(tree, PROBE, [str(out), SWEEP_CURVE], out) for tree in trees]
        peaks.append(("probe", *(probe["peak rss mb"] for probe in probes)))
        for tree, probe in zip(trees, probes):
            if probe["exit code"] != 0:
                failed += 1
                print(f"probe on {tree}: exit {probe['exit code']}\n{probe['stderr']}")
        parent, change = (probe["stdout"].splitlines() for probe in probes)
        if len(parent) != len(change):
            failed += 1
            print(f"probe: {len(parent)} report lines against {len(change)}: DIFFERS")
        for want, got in zip(parent, change):
            name = want.split(":")[0]
            failed += want != got
            if want == got:
                print(f"{name}: identical")
            else:
                gap = Gap()
                gap.text(want, got)
                print(f"{name}: DIFFERS ({gap})")
    print("\npeak RSS in MB (ru_maxrss; for information, never a difference)\n"
          "  parent  change  command")
    for label, parent_mb, change_mb in peaks:
        print(f"{parent_mb:8.1f}{change_mb:8.1f}  {label}")
    (parent_lines, parent_names), (change_lines, change_names) = map(code_size, trees)
    print("\ncode size (for information, never a difference)\n  parent  change")
    print(f"{parent_lines:8d}{change_lines:8d}  non-blank lines under src/osctrack/")
    print(f"{parent_names:8d}{change_names:8d}  names imported by __init__")
    print(f"{failed} differing item(s)" if failed else "no differences")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
