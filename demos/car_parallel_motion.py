#!/usr/bin/env python3
"""Slide a rear-wheel-drive car sideways with second-order brackets.

The reference gamma4_car translates the car parallel to its own axle, a
motion two bracket layers away from the drive and steering controls.
The scheme adds a two-frequency oscillation whose net effect points
along the nested bracket.  The sampling period matters here, twice over:

- Along a directly driven direction the sampled error map is
  e -> (1 - alpha eps) e.  At alpha=5 and period 0.5 every sample
  overshoots the curve by 1.5 times the error, x1 jumps from 8 to -12
  in the first interval, and the error grows until the steering angle
  leaves its chart.  The oscillators play no part in this.
- At period 0.1 the run completes and the distance at sampling instants
  settles near 0.37, but between samples the nested oscillation, whose
  amplitude grows like the cube root of 1/epsilon^2, still moves drive
  and steering by about 1.2, and the distance peaks near 1.6.

Both outcomes are shown.  A gain and period with alpha eps < 1 and a
smaller nested excursion, such as alpha=10 and period 0.02, keep the
car inside a 1.0 tube.
"""

import numpy as np

from osctrack import (
    ControllerParams,
    SamplerGrid,
    SimulationError,
    get_curve,
    get_scenario,
    simulate,
    steady_amplitude,
)

ALPHA = 5.0


def attempt(epsilon, horizon):
    scenario = get_scenario("car")
    curve = get_curve("gamma4_car", horizon=horizon)
    params = ControllerParams(alpha=ALPHA, epsilon=epsilon)
    grid = SamplerGrid(epsilon, horizon)
    print(f"\nepsilon = {epsilon:g}:")
    try:
        traj = simulate(scenario.system, scenario.scheme, params, curve,
                        scenario.default_x0, grid)
    except SimulationError as exc:
        print(f"  aborted ({exc.reason}): {exc}")
        if ALPHA * epsilon >= 1.0:
            print(f"  alpha*eps = {ALPHA * epsilon:g} >= 1: each sample "
                  f"overshoots the curve, e -> {1.0 - ALPHA * epsilon:g} e")
        return
    steering = np.abs(traj.states[:, 2]).max()
    print(f"  completed horizon {horizon:g}: "
          f"peak |steering| = {steering:.3f} < pi/2")
    print(f"  steady amplitude: {steady_amplitude(traj):.4f}")
    print(f"  final distance to curve: {traj.dist[-1]:.4f}")


def main():
    print(f"rear-wheel car vs gamma4_car, alpha={ALPHA:g}, "
          f"x0 = (8, 0, 0, 0)")
    attempt(epsilon=0.5, horizon=60.0)
    attempt(epsilon=0.1, horizon=60.0)


if __name__ == "__main__":
    main()
