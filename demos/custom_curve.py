#!/usr/bin/env python3
"""Track a curve written as a plain expression string.

Reference curves do not have to come from the registry: any trajectory
whose components are expressions in t can be compiled into a curve
object, with derivatives taken by central differences underneath.  Here
the unicycle chases a figure-eight whose demanded heading is deliberately
held at zero, another non-admissible reference.
"""

from osctrack import ControllerParams, SamplerGrid, get_scenario, simulate
from osctrack.expressions import curve_from_expression

EXPR = "2*sin(t), sin(2*t), 0"


def main():
    scenario = get_scenario("unicycle")
    curve = curve_from_expression(EXPR, horizon=30.0)
    print(f"curve: {EXPR}")
    print(f"sampled velocity bound nu = {curve.nu:.3f}")
    params = ControllerParams(alpha=15.0, epsilon=0.05)
    traj = simulate(scenario.system, scenario.scheme, params, curve,
                    scenario.default_x0, SamplerGrid(0.05, 30.0))
    tail = traj.dist[traj.times >= 20.0]
    print(f"steady distance to the figure-eight: "
          f"min {tail.min():.4f}, max {tail.max():.4f}")


if __name__ == "__main__":
    main()
