"""Compare a parent commit and a change on the benchmark.

    python3 bench/compare.py run --parent ../parent --change . --out pairs.jsonl
    python3 bench/compare.py report pairs.jsonl

``run`` makes ten alternating pairs of untraced runs of every workload in
BENCHMARK.json, each run ``run_seconds`` long, the length the bounds were
set for.  Pair i runs both checkouts with seed ``FIRST_SEED + i``, the
parent first in even pairs and the change first in odd ones.  Each
checkout runs its own ``bench/run.py``; they must be identical, which
``run`` checks.  Every run's result line is appended to the JSONL file,
which ``report`` reads.

``report`` prints one row per workload.  For each end-to-end metric it
gives the verdict of the rule for a change on one layer:

- gain: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile spread;
- regression: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
- unresolved: the parent's own spread is wider than the bound, and not
  every run of the change reads better than every run of the parent;
- same: none of these.

It also compares the share of operations that failed a check, and says
when fewer than ten pairs were run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1000         # above the seeds the benchmark was tuned on


def bench_digest(checkout: Path) -> str:
    """Hash of BENCHMARK.json and every file under bench/ in a checkout."""
    h = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted(
        p for p in (checkout / "bench").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(checkout)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
        print("error: the two checkouts have different benchmark files; measure "
              "both with identical benchmark code", file=sys.stderr)
        return 2
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(MIN_PAIRS):
                seed = FIRST_SEED + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    cmd = [sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                                          text=True, timeout=600, check=False)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"error: {side} {workload} seed {seed} exited "
                              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
                        return 1
                    record = {"workload": workload, "pair": pair, "seed": seed,
                              "side": side, "result": json.loads(lines[-1])}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side} done", file=sys.stderr)
    return report(args.out)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Apply the pairwise rule to one metric on one workload."""
    lower = better == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (pm, pm, pm)
    iqr = q3 - q1
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    spread = iqr / pm if pm else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    gain = beats(cm, pm) and wins >= WIN_SHARE * len(parent) and abs(cm - pm) > iqr
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    elif gain:
        label = "gain"
    else:
        label = "same"
    return {"verdict": label, "parent": pm, "change": cm, "delta": (cm - pm) / pm
            if pm else 0.0, "wins": wins, "pairs": len(parent), "spread": spread}


def report(path: str) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = defaultdict(dict)            # (workload, pair) -> side -> result
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[(rec["workload"], rec["pair"])][rec["side"]] = rec["result"]
    by_workload = defaultdict(list)
    for (workload, pair), sides in sorted(runs.items()):
        if {"parent", "change"} <= sides.keys():
            by_workload[workload].append((sides["parent"], sides["change"]))

    worst = 0
    header = ["workload", "pairs"] + list(metrics) + ["failed checks"]
    print(" | ".join(header))
    for workload, pairs in by_workload.items():
        cells = [workload, str(len(pairs)) + (" (too few)" if len(pairs) < MIN_PAIRS else "")]
        for name, m in metrics.items():
            v = verdict([p["metrics"][name]["value"] for p, _ in pairs],
                        [c["metrics"][name]["value"] for _, c in pairs],
                        m["better"], m["bound"])
            cells.append(f"{v['verdict']} {v['delta']:+.1%} "
                         f"({v['wins']}/{v['pairs']} won, spread {v['spread']:.1%})")
            if v["verdict"] in ("regression", "unresolved"):
                worst = 1
        failed = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                  for side in zip(*pairs)]
        cells.append(f"{failed[0]:.2%} -> {failed[1]:.2%}")
        if failed[1] > failed[0]:
            worst = 1
        print(" | ".join(cells))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run alternating pairs, then report")
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--out", required=True, help="JSONL file to append results to")
    p_rep = sub.add_parser("report", help="report on a results file")
    p_rep.add_argument("results")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return report(args.results)


if __name__ == "__main__":
    sys.exit(main())
