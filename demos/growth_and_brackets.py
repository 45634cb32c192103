#!/usr/bin/env python3
"""Inspect the machinery under the controller: brackets and growth bounds.

Two checks that the rest of the package relies on, shown directly.
First, the analytic Lie brackets that the gain matrix is built from are
compared with raw finite differences at random states.  Second, a
completed tracking run is audited interval by interval against the
a-priori growth bound: with field bounds M1 and L, the state cannot
drift further than (M1/L)(exp(U L tau) - 1) from its sampling point.
"""

import numpy as np

from osctrack import (
    ControllerParams,
    SamplerGrid,
    get_curve,
    get_scenario,
    lemma1_growth_check,
    lie_bracket,
    simulate,
)


def fd_bracket(f, g, x, h=1e-6):
    n = x.size
    jf = np.empty((n, n))
    jg = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        jf[:, k] = (f(x + e) - f(x - e)) / (2 * h)
        jg[:, k] = (g(x + e) - g(x - e)) / (2 * h)
    return jg @ f(x) - jf @ g(x)


def main():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("unicycle", "underwater", "car"):
        scenario = get_scenario(name)
        fields = scenario.system.fields
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, scenario.system.n)
            for i, j in scenario.scheme.s2:
                got = lie_bracket(fields[i - 1], fields[j - 1], x)
                want = fd_bracket(fields[i - 1].eval, fields[j - 1].eval, x)
                worst = max(worst, float(np.abs(got - want).max()))
    print(f"analytic vs finite-difference brackets, worst deviation: "
          f"{worst:.2e}")

    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=10.0)
    traj = simulate(scenario.system, scenario.scheme,
                    ControllerParams(15.0, 0.1), curve,
                    scenario.default_x0, SamplerGrid(0.1, 10.0))
    rep = lemma1_growth_check(traj, M1=1.0, L=1.0)
    print(f"growth bound over {rep.interval_margins.size} intervals: "
          f"ok = {rep.ok}, tightest margin = {rep.min_margin:.2e}")
    print(f"largest per-interval control sum U = {rep.u_sups.max():.1f}")


if __name__ == "__main__":
    main()
