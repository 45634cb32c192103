#!/usr/bin/env python3
"""How much does freezing the feedback at sampling instants cost?

The sampled loop reads the state once per interval and plays a
precomputed oscillation; the continuous baseline re-evaluates the
feedback at every substep.  Their gap is the price of sampling, and it
shrinks as the period does.  Horizon is kept short because the
continuous baseline is the same fixed-step Runge-Kutta loop re-solving the coefficient
system at every stage, and is far slower than the sampled loop.
"""

import numpy as np

from osctrack import (
    ControllerParams,
    SamplerGrid,
    classic_solution_simulate,
    get_curve,
    get_scenario,
    simulate,
)

HORIZON = 5.0


def main():
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=HORIZON)
    print(f"unicycle vs gamma1 over horizon {HORIZON:g}, alpha=15")
    print(f"{'epsilon':>8} {'sup-norm gap':>14} {'evals sampled':>14} "
          f"{'evals continuous':>17}")
    for eps in (0.1, 0.05, 0.025):
        params = ControllerParams(alpha=15.0, epsilon=eps)
        grid = SamplerGrid(eps, HORIZON)
        frozen = simulate(scenario.system, scenario.scheme, params, curve,
                          scenario.default_x0, grid)
        continuous = classic_solution_simulate(
            scenario.system, scenario.scheme, params, curve,
            scenario.default_x0, grid)
        gap = np.abs(frozen.states - continuous.states).max()
        print(f"{eps:>8g} {gap:>14.4e} {frozen.coefficient_evals:>14} "
              f"{continuous.coefficient_evals:>17}")
    print("the sampled loop converges to the continuous one as eps -> 0,")
    print("with one coefficient solve per interval instead of thousands")


if __name__ == "__main__":
    main()
