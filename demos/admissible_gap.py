#!/usr/bin/env python3
"""Compare tracking of an admissible curve against a non-admissible one.

gamma3 traces the same circle as gamma1 but with the heading tangent to
the path, so a unicycle can follow it exactly; gamma1 demands a fixed
heading and is not realizable.  Run both at the same gain and sampling
period: the residual tube around the non-admissible curve is several
times wider.  Sharpening the gain makes the contrast stark.
"""

from osctrack import (
    ControllerParams,
    SamplerGrid,
    admissible_vs_nonadmissible_gap,
    get_curve,
    get_scenario,
    simulate,
)

ALPHA = 40.0
EPSILON = 0.025
HORIZON = 20.0


def run(curve_name):
    scenario = get_scenario("unicycle")
    curve = get_curve(curve_name, horizon=HORIZON)
    params = ControllerParams(alpha=ALPHA, epsilon=EPSILON)
    grid = SamplerGrid(epsilon=EPSILON, horizon=HORIZON)
    return simulate(scenario.system, scenario.scheme, params, curve,
                    scenario.default_x0, grid)


def main():
    print(f"alpha={ALPHA:g}, epsilon={EPSILON:g}, horizon={HORIZON:g}")
    traj_non = run("gamma1")
    traj_adm = run("gamma3")
    gap = admissible_vs_nonadmissible_gap(traj_adm, traj_non)
    print(f"steady tail, non-admissible gamma1: {gap.tail_nonadmissible:.4f}")
    print(f"steady tail, admissible gamma3:     {gap.tail_admissible:.4f}")
    print(f"ratio: {gap.ratio:.2f}")
    print("the non-admissible reference costs a persistent, wider tube")


if __name__ == "__main__":
    main()
