"""Set-up time in a fresh interpreter, as every CLI call pays it.

    python3 bench/probe.py SCENARIO CURVE HORIZON

Imports ``osctrack.cli``, then builds the scenario and the curve, and
prints one JSON object with ``import_s``, ``scenario_s`` and ``curve_s``.
``bench/run.py`` starts it with ``src/`` on ``PYTHONPATH``.
"""

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    scenario_name, curve_spec, horizon = argv[0], argv[1], float(argv[2])
    t0 = perf_counter()
    import osctrack.cli  # noqa: F401  (the import is what is timed)
    t1 = perf_counter()
    from osctrack.curves import get_curve
    from osctrack.scenarios import get_scenario
    get_scenario(scenario_name)
    t2 = perf_counter()
    get_curve(curve_spec, horizon=horizon)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "scenario_s": t2 - t1, "curve_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
