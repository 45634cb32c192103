#!/usr/bin/env python3
"""Track a flower-shaped path with a unicycle that cannot move sideways.

The reference curve gamma1 drags the robot along the planar path
2 cos(t/2) (cos t, sin t) while demanding the slowly rocking heading
cos(t/10), which no unicycle can follow exactly.  The oscillating
feedback still pins the state to a narrow tube around the curve:
position error collapses fast, and what remains is the high-frequency
heading dither that does the steering work.  That dither swings the
heading by up to 2 sqrt(nu eps / pi), where nu bounds the curve's speed:
about 0.5 at the period 0.1 used here, 0.36 at period 0.05.
"""

import numpy as np

from osctrack import (
    ControllerParams,
    SamplerGrid,
    entry_time,
    get_curve,
    get_scenario,
    simulate,
    steady_amplitude,
    stability_report,
)

ALPHA = 15.0
EPSILON = 0.1
HORIZON = 40.0

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=HORIZON)
    params = ControllerParams(alpha=ALPHA, epsilon=EPSILON)
    grid = SamplerGrid(epsilon=EPSILON, horizon=HORIZON)

    print(f"unicycle vs gamma1, alpha={ALPHA:g}, epsilon={EPSILON:g}")
    print(f"start {scenario.default_x0}, reference start {curve.eval(0.0)}")
    traj = simulate(scenario.system, scenario.scheme, params, curve,
                    scenario.default_x0, grid)

    rep = stability_report(traj, rho=0.5)
    print(f"first crossing into the 0.5-tube: "
          f"t = {traj.times[np.argmax(traj.dist <= 0.5)]:.2f}")
    print(f"inside for good from t = {entry_time(traj, 0.5):.2f}")
    print(f"steady amplitude (last quarter): {steady_amplitude(traj):.4f}")
    if rep.fitted_lambda is not None:
        print(f"fitted transient decay rate: {rep.fitted_lambda:.2f}")

    # Split the residual into position and heading to see where it lives.
    pos = np.linalg.norm(traj.states[:, :2] - traj.reference[:, :2], axis=1)
    head = np.abs(traj.states[:, 2] - traj.reference[:, 2])
    half = traj.times >= HORIZON / 2
    print(f"steady position error: {pos[half].max():.4f}")
    print(f"steady heading swing:  {head[half].max():.4f} "
          f"(the dither that replaces the missing sideways control)")

    if plt is not None:
        fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
        ax1.plot(traj.reference[:, 0], traj.reference[:, 1], "k--", lw=1,
                 label="reference")
        ax1.plot(traj.states[:, 0], traj.states[:, 1], lw=0.6, label="state")
        ax1.set_aspect("equal")
        ax1.legend()
        ax1.set_title("plane motion")
        ax2.plot(traj.times, traj.dist, lw=0.6)
        ax2.axhline(0.5, color="k", ls=":")
        ax2.set_xlabel("t")
        ax2.set_title("distance to the curve")
        fig.tight_layout()
        fig.savefig("track_unicycle.png", dpi=120)
        print("wrote track_unicycle.png")


if __name__ == "__main__":
    main()
