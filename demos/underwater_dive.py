#!/usr/bin/env python3
"""Steer a 6-state underwater vehicle with four controls.

The vehicle has surge, roll, pitch, and yaw actuation but no direct
sway or heave, so two bracket pairs (surge with pitch, surge with yaw)
fill in the missing directions at distinct frequencies.  The pitch
angle must stay inside |pitch| < pi/2 where the attitude chart is
valid; the run shows the closed loop holding that constraint while it
descends onto the reference helix.
"""

import numpy as np

from osctrack import (
    ControllerParams,
    SamplerGrid,
    entry_time,
    get_curve,
    get_scenario,
    simulate,
)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    scenario = get_scenario("underwater")
    curve = get_curve("gamma4_underwater", horizon=40.0)
    params = scenario.default_params
    grid = SamplerGrid(params.epsilon, 40.0)

    print(f"underwater vehicle, alpha={params.alpha:g}, "
          f"epsilon={params.epsilon:g}")
    traj = simulate(scenario.system, scenario.scheme, params, curve,
                    scenario.default_x0, grid)

    pitch = traj.states[:, 4]
    print(f"completed horizon 40 inside the chart: "
          f"peak |pitch| = {np.abs(pitch).max():.4f} < pi/2 = {np.pi / 2:.4f}")
    print(f"inside the 0.5-tube from t = {entry_time(traj, 0.5):.2f}")
    print(f"final position error: "
          f"{np.linalg.norm(traj.states[-1, :3] - traj.reference[-1, :3]):.4f}")

    # Channel 2 (roll) carries no oscillation in this scheme: both bracket
    # pairs lean on channel 1, so u2 stays at its feedback value.
    swing = np.ptp(traj.controls, axis=0)
    print("control swings per channel:",
          " ".join(f"{s:.1f}" for s in swing))

    if plt is not None:
        fig = plt.figure(figsize=(6, 5))
        ax = fig.add_subplot(projection="3d")
        ax.plot(*traj.reference[:, :3].T, "k--", lw=1, label="reference")
        ax.plot(*traj.states[:, :3].T, lw=0.5, label="state")
        ax.legend()
        fig.tight_layout()
        fig.savefig("underwater_dive.png", dpi=120)
        print("wrote underwater_dive.png")


if __name__ == "__main__":
    main()
