#!/usr/bin/env python3
"""Drive the command-line interface from a script: a period sweep.

The sweep subcommand runs a Cartesian grid of (gain, period) cells and
writes one summary row per cell.  The gains of each period run as one
batch, and the batches are shared between this process and a pool of
worker processes.  Gains below the curve-velocity threshold nu/rho get
flagged; shrinking the period shrinks the steady tube.
"""

import tempfile
from pathlib import Path

from osctrack.cli import main as osctrack_main


def main():
    with tempfile.TemporaryDirectory() as tmp:
        code = osctrack_main([
            "sweep", "--scenario", "unicycle", "--curve", "gamma1",
            "--alphas", "2,15", "--epsilons", "0.1,0.05,0.025",
            "--horizon", "10", "--rho", "0.5", "--output-dir", tmp,
        ])
        assert code == 0
        print()
        for line in (Path(tmp) / "sweep_summary.csv").read_text().splitlines():
            cells = line.split(",")
            print(f"{cells[0]:>18} {cells[1]:>22} {cells[2]:>8} "
                  f"{cells[3][:10]:>12} {cells[6]:>14}")


if __name__ == "__main__":
    main()
