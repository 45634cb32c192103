"""End-to-end acceptance runs for the oscillating-feedback tracking scheme.

Each test checks one externally stated behavior at its stated tolerance
and records a PASS/FAIL line that the terminal summary prints as a block.
The heavy closed-loop runs are shared through module-scoped fixtures so
every trajectory is integrated once (plus once more at doubled substeps
for the fidelity check, and three times in all where a criterion bounds
the runtime).

Criteria 1 and 5 run at periods inside the controller's own regime: the
oscillators realize the bracket directions only on average, and their
swing between sampling instants shrinks with the period.  Each of them
asserts the condition its period was derived from, using the curve's
velocity bound nu.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from osctrack import (
    CertificateInputs,
    ControllerParams,
    SamplerGrid,
    SimulationError,
    Trajectory,
    admissible_vs_nonadmissible_gap,
    bound_constants,
    coefficients,
    contraction_check,
    entry_time,
    get_curve,
    get_scenario,
    lemma1_growth_check,
    lie_bracket,
    make_control_function,
    simulate,
    steady_amplitude,
    tail_error,
    volterra_scaling,
)
from tests.test_systems import fd_bracket
from tests.test_scenarios import random_states

# The least grid that both scenarios of the shared runs admit: the
# underwater vehicle's (the unicycle's is 12).
SUBSTEPS = 56
TIMING_REPEATS = 3

# Criterion 1: eps=0.05 on the unicycle's least grid, 12 substeps (9,600
# Runge-Kutta steps over the horizon).
FINE_EPSILON = 0.05
FINE_SUBSTEPS = 12

# Criterion 5: alpha * eps < 1 keeps the sampled error map along the
# directly actuated directions contracting, and 16 substeps is the
# least grid the car admits.
CAR_ALPHA = 10.0
CAR_EPSILON = 0.02
CAR_SUBSTEPS = 16


class TimedRun(NamedTuple):
    traj: Trajectory
    runtimes: tuple[float, ...]
    reproducible: bool


def timed_run(scenario_name, curve_name, alpha, epsilon, horizon,
              substeps=SUBSTEPS, x0=None, repeats=1):
    """Closed-loop run, integrated ``repeats`` times on the same inputs.

    Returns the first trajectory, the wall time of every repetition, and
    whether every repetition reproduced the first one's states and
    controls bit for bit.  One wall time on a shared host moves with the
    host's speed, so the runtime criteria compare the fastest of three
    repetitions with their bound.
    """
    scenario = get_scenario(scenario_name)
    curve = get_curve(curve_name, horizon=horizon)
    params = ControllerParams(alpha=alpha, epsilon=epsilon)
    start = scenario.default_x0 if x0 is None else np.asarray(x0, dtype=float)
    grid = SamplerGrid(epsilon=epsilon, horizon=horizon, substeps=substeps)
    trajs, runtimes = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        trajs.append(simulate(scenario.system, scenario.scheme, params, curve,
                              start, grid))
        runtimes.append(time.perf_counter() - t0)
    first = trajs[0]
    reproducible = all(np.array_equal(t.states, first.states)
                       and np.array_equal(t.controls, first.controls)
                       for t in trajs[1:])
    return TimedRun(first, tuple(runtimes), reproducible)


def runtime_verdict(run, bound=5.0):
    """Fastest repetition under ``bound``, with every wall time spelled out."""
    best = min(run.runtimes)
    times = ", ".join(f"{r:.1f}" for r in run.runtimes)
    ok = run.reproducible and best < bound
    return ok, (f"fastest of runtimes [{times}] s is {best:.1f} s (need < "
                f"{bound:g}), repeats identical: {run.reproducible}")


def pair_excursion(a, epsilon):
    """Peak swing of a first-order pair oscillator at harmonic 1.

    The pair plays A cos(wt) on one channel and A sin(wt) on the other,
    with A = sqrt(4 pi |a| / eps) and w = 2 pi / eps, so the second
    channel's state moves by A (1 - cos wt) / w, which peaks at
    2 A / w = 2 sqrt(|a| eps / pi).
    """
    return 2.0 * np.sqrt(abs(a) * epsilon / np.pi)


def nested_excursion(a, epsilon):
    """Peak (drive, steer) displacement of the car's nested oscillator.

    The term with harmonics (1, 2) plays A cos(wt) (1 + sin 2wt) on drive
    and A sin 2wt on steer, with A = cbrt(48 pi^2 |a| / eps^2) and
    w = 2 pi / eps.  From the start of a period, at phase th = wt, the two
    channels have moved by (A / w) (sin th + 2/3 (1 - cos^3 th), sin^2 th),
    whose norm peaks at 1.94 A / w near th = pi/2.
    """
    th = np.linspace(0.0, 2.0 * np.pi, 4001)
    shape = np.hypot(np.sin(th) + 2.0 / 3.0 * (1.0 - np.cos(th) ** 3),
                     np.sin(th) ** 2)
    return float(shape.max()) * np.cbrt(48.0 * np.pi ** 2 * abs(a) * epsilon) \
        / (2.0 * np.pi)


def endpoint_shift(traj, traj_doubled):
    a, b = traj.states[-1], traj_doubled.states[-1]
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def visited_sup_bounds(traj, system, stride=50, inflate=1.1):
    """Field-norm and Jacobian bounds over the states a run actually visited."""
    m1 = lip = 0.0
    for x in traj.states[::stride]:
        vals = np.stack([f.eval(x) for f in system.fields])
        jacs = np.stack([f.jacobian(x) for f in system.fields])
        m1 = max(m1, float(np.max(np.linalg.norm(vals, axis=1))))
        lip = max(lip, float(np.max(np.linalg.svd(jacs, compute_uv=False)[:, 0])))
    return inflate * m1, inflate * lip


# ---------------------------------------------------------------------------
# Shared closed-loop runs.


@pytest.fixture(scope="module")
def gamma1_run():
    return timed_run("unicycle", "gamma1", 15.0, 0.1, 40.0)


@pytest.fixture(scope="module")
def gamma1_run_doubled():
    return timed_run("unicycle", "gamma1", 15.0, 0.1, 40.0, substeps=2 * SUBSTEPS)


@pytest.fixture(scope="module")
def gamma1_fine_run():
    """Criterion 1's run, repeated for its runtime bound."""
    return timed_run("unicycle", "gamma1", 15.0, FINE_EPSILON, 40.0,
                     substeps=FINE_SUBSTEPS, repeats=TIMING_REPEATS)


@pytest.fixture(scope="module")
def gamma1_fine_run_doubled():
    """Criterion 10's middle period, and criterion 1's doubled partner."""
    return timed_run("unicycle", "gamma1", 15.0, FINE_EPSILON, 40.0,
                     substeps=2 * FINE_SUBSTEPS)


@pytest.fixture(scope="module")
def gamma2_run():
    return timed_run("unicycle", "gamma2", 15.0, 0.1, 40.0,
                     repeats=TIMING_REPEATS)


@pytest.fixture(scope="module")
def gamma2_run_doubled():
    return timed_run("unicycle", "gamma2", 15.0, 0.1, 40.0, substeps=2 * SUBSTEPS)


@pytest.fixture(scope="module")
def gamma1_sharp_run():
    """Non-admissible curve at the gain/period pair used for the gap ratio."""
    return timed_run("unicycle", "gamma1", 40.0, 0.025, 20.0)


@pytest.fixture(scope="module")
def gamma1_sharp_run_doubled():
    return timed_run("unicycle", "gamma1", 40.0, 0.025, 20.0, substeps=2 * SUBSTEPS)


@pytest.fixture(scope="module")
def gamma3_sharp_run():
    """Admissible counterpart on the same grid as gamma1_sharp_run."""
    return timed_run("unicycle", "gamma3", 40.0, 0.025, 20.0)


@pytest.fixture(scope="module")
def gamma3_sharp_run_doubled():
    return timed_run("unicycle", "gamma3", 40.0, 0.025, 20.0, substeps=2 * SUBSTEPS)


@pytest.fixture(scope="module")
def underwater_run():
    return timed_run("underwater", "gamma4_underwater", 15.0, 0.1, 40.0)


@pytest.fixture(scope="module")
def underwater_run_doubled():
    return timed_run("underwater", "gamma4_underwater", 15.0, 0.1, 40.0,
                     substeps=2 * SUBSTEPS)


@pytest.fixture(scope="module")
def unicycle_certificate():
    """Analytic unicycle certificate: field bounds are global and exact."""
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=40.0)
    inputs = CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=curve.nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)
    rep = bound_constants(scenario.scheme, 15.0, inputs)
    assert rep.ok, rep.detail
    return rep.certificate, inputs


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_01_unicycle_enters_and_stays(criterion_report, gamma1_fine_run):
    # In steady tracking alpha times the error is about the reference
    # speed, so the pair coefficient approaches nu whatever alpha is; the
    # heading swing it drives must fit in the tube beside the lag nu/alpha.
    nu = get_curve("gamma1", horizon=40.0).nu
    regime = nu / 15.0 + pair_excursion(nu, FINE_EPSILON)
    traj = gamma1_fine_run.traj
    assert np.linalg.norm(traj.states[0] - traj.reference[0]) <= 2.0 + 1e-12
    entry = entry_time(traj, 0.5)
    first = float(traj.times[np.argmax(traj.dist <= 0.5)])
    peak = tail_error(traj, 5.0)
    timed_ok, timing = runtime_verdict(gamma1_fine_run)
    ok = regime < 0.5 and entry <= 5.0 and timed_ok
    criterion_report(1, ok,
           f"unicycle gamma1 (alpha=15, eps={FINE_EPSILON:g}, regime "
           f"nu/alpha + 2 sqrt(nu eps/pi) = {regime:.3f} < 0.5): stays inside "
           f"0.5-tube from t={entry:.2f} (need <= 5; first crossing "
           f"t={first:.2f}, peak distance after t=5 is {peak:.4f}); {timing}")


def test_criterion_02_asymptotic_curve_tail_vanishes(criterion_report, gamma2_run):
    tail = tail_error(gamma2_run.traj, 30.0)
    timed_ok, timing = runtime_verdict(gamma2_run)
    ok = tail < 1e-2 and timed_ok
    criterion_report(2, ok,
           f"unicycle gamma2: tail amplitude over [30, 40] is {tail:.2e} "
           f"(need < 1e-2); {timing}")


def test_criterion_03_nonadmissible_gap(criterion_report, gamma1_sharp_run,
                                         gamma3_sharp_run):
    gap = admissible_vs_nonadmissible_gap(gamma3_sharp_run.traj,
                                          gamma1_sharp_run.traj)
    ok = gap.ratio > 3.0
    criterion_report(3, ok,
           f"tail-amplitude ratio gamma1/gamma3 at (alpha=40, eps=0.025) is "
           f"{gap.ratio:.2f} ({gap.tail_nonadmissible:.4f} vs "
           f"{gap.tail_admissible:.4f}, need > 3)")


def first_interval_peak_pitch(traj):
    """Peak |pitch| over the first sampling interval, where the default
    start's pitch comes nearest pi/2, from an adaptive re-integration of
    that interval (rtol 1e-11) read on a grid 1000 times finer than the
    run's; the nodes alone miss the peak by 2.6e-3."""
    scenario = get_scenario("underwater")
    params = ControllerParams(alpha=15.0, epsilon=traj.epsilon)
    x0 = traj.states[0]
    coeffs = coefficients(scenario.system, scenario.scheme, params, x0,
                          traj.reference[0])
    u = make_control_function(scenario.scheme, params, coeffs)

    def rhs(t, x):
        ut = u(t)
        return sum(ut[i] * f.eval(x) for i, f in enumerate(scenario.system.fields))

    sol = solve_ivp(rhs, (0.0, traj.epsilon), x0, rtol=1e-11, atol=1e-13,
                    dense_output=True)
    t = np.linspace(0.0, traj.epsilon, 1000 * traj.substeps + 1)
    return float(np.abs(sol.sol(t)[4]).max())


def test_criterion_04_underwater_completes_and_enters(criterion_report,
                                                      underwater_run):
    traj = underwater_run.traj
    later = float(np.abs(traj.states[traj.substeps:, 4]).max())
    peak_pitch = max(first_interval_peak_pitch(traj), later)
    entry = entry_time(traj, 0.5)
    ok = peak_pitch < np.pi / 2 and entry <= 10.0
    criterion_report(4, ok,
           f"underwater vehicle: completes horizon 40 with peak |pitch| "
           f"{peak_pitch:.5f} < pi/2 (first interval re-integrated "
           f"adaptively, {later:.4f} at the later nodes), inside 0.5-tube "
           f"from t={entry:.2f} (need <= 10)")


def test_criterion_05_car_enters_and_stays(criterion_report):
    # The sampled error map along a directly actuated direction is
    # e -> (1 - alpha eps) e, and between samples the nested oscillator,
    # whose coefficient approaches the reference speed, moves drive and
    # steer away from the curve; both must fit in the 1.0 tube.
    nu = get_curve("gamma4_car", horizon=60.0).nu
    step = CAR_ALPHA * CAR_EPSILON
    regime = nu / CAR_ALPHA + nested_excursion(nu, CAR_EPSILON)
    label = (f"car (alpha={CAR_ALPHA:g}, eps={CAR_EPSILON:g}, alpha eps = "
             f"{step:g} < 1, nu/alpha + nested excursion = {regime:.3f} < 1)")
    try:
        traj = timed_run("car", "gamma4_car", CAR_ALPHA, CAR_EPSILON, 60.0,
                         substeps=CAR_SUBSTEPS, x0=[8.0, 0.0, 0.0, 0.0]).traj
    except SimulationError as exc:
        criterion_report(5, False,
               f"{label}: sampled run stopped at t={exc.time:.2f} "
               f"({exc.reason}), before the t<=20 tube deadline")
        return
    entry = entry_time(traj, 1.0)
    peak = tail_error(traj, 20.0)
    ok = step < 1.0 and regime < 1.0 and entry <= 20.0
    criterion_report(5, ok,
           f"{label}: inside 1.0-tube from t={entry:.2f} (need <= 20, "
           f"staying through 60; peak distance after t=20 is {peak:.4f})")


def test_criterion_06_one_step_contraction(criterion_report, unicycle_certificate):
    cert, inputs = unicycle_certificate
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=1.0)
    rep = contraction_check(
        scenario.system, scenario.scheme,
        ControllerParams(alpha=15.0, epsilon=cert.eps_hat), curve,
        lam=inputs.lam, nu=inputs.nu, rho_prime=inputs.rho_prime,
        delta=inputs.delta, n_draws=100, seed=0)
    ok = rep.n_pass >= 99
    criterion_report(6, ok,
           f"one-step contraction at certified eps_hat={cert.eps_hat:.3e}: "
           f"{rep.n_pass}/100 random starts in the annulus contract "
           f"(need >= 99)")


def test_criterion_07_volterra_remainder_scaling(criterion_report,
                                                 unicycle_certificate):
    cert, _ = unicycle_certificate
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=1.0)
    scaling = volterra_scaling(
        scenario.system, scenario.scheme, 15.0, (0.04, 0.02, 0.01, 0.005),
        curve, scenario.default_x0, sigma=cert.sigma)
    bounded = all(r.ok for r in scaling.reports)
    ok = 1.3 <= scaling.exponent <= 1.8 and bounded
    criterion_report(7, ok,
           f"first-interval remainder scales as eps^{scaling.exponent:.3f} "
           f"(need within [1.3, 1.8], theory 1.5); certified-sigma bound "
           f"holds at all four periods: {bounded}")


def test_criterion_08_interval_growth_bound(criterion_report, gamma1_run,
                                            gamma2_run, gamma1_sharp_run,
                                            gamma3_sharp_run, underwater_run):
    margins = {}
    ok = True
    for label, run in (("gamma1", gamma1_run), ("gamma2", gamma2_run),
                       ("gamma1@40", gamma1_sharp_run),
                       ("gamma3@40", gamma3_sharp_run)):
        rep = lemma1_growth_check(run.traj, M1=1.0, L=1.0)
        margins[label] = rep.min_margin
        ok = ok and rep.ok
    uw_traj = underwater_run.traj
    uw_sys = get_scenario("underwater").system
    m1, lip = visited_sup_bounds(uw_traj, uw_sys)
    rep = lemma1_growth_check(uw_traj, M1=m1, L=lip)
    margins["underwater"] = rep.min_margin
    ok = ok and rep.ok
    worst = min(margins.values())
    criterion_report(8, ok,
           f"per-interval growth bound holds on all five completed runs; "
           f"worst margin {worst:.2e} (need >= -1e-8); "
           + ", ".join(f"{k}={v:.1e}" for k, v in margins.items()))


def test_criterion_09_sampled_semantics_fidelity(
        criterion_report, gamma1_run, gamma1_run_doubled,
        gamma1_fine_run, gamma1_fine_run_doubled, gamma2_run, gamma2_run_doubled,
        gamma1_sharp_run, gamma1_sharp_run_doubled,
        gamma3_sharp_run, gamma3_sharp_run_doubled,
        underwater_run, underwater_run_doubled):
    pairs = {
        "gamma1": (gamma1_run, gamma1_run_doubled),
        "gamma1@0.05": (gamma1_fine_run, gamma1_fine_run_doubled),
        "gamma2": (gamma2_run, gamma2_run_doubled),
        "gamma1@40": (gamma1_sharp_run, gamma1_sharp_run_doubled),
        "gamma3@40": (gamma3_sharp_run, gamma3_sharp_run_doubled),
        "underwater": (underwater_run, underwater_run_doubled),
    }
    shifts = {}
    evals_exact = True
    for label, (run, run2) in pairs.items():
        traj, traj2 = run.traj, run2.traj
        shifts[label] = endpoint_shift(traj, traj2)
        evals_exact = evals_exact and (traj.coefficient_evals == traj.n_intervals
                                       and traj2.coefficient_evals == traj2.n_intervals)
    worst = max(shifts.values())
    ok = worst < 1e-6 and evals_exact
    criterion_report(9, ok,
           f"doubling substeps moves every completed-run endpoint by at most "
           f"{worst:.2e} relative (need < 1e-6); coefficients evaluated "
           f"exactly once per interval: {evals_exact}")


def test_criterion_10_amplitude_decreases_with_period(criterion_report, gamma1_run,
                                                     gamma1_fine_run_doubled):
    traj_025 = timed_run("unicycle", "gamma1", 15.0, 0.025, 40.0).traj
    bands = [steady_amplitude(gamma1_run.traj),
             steady_amplitude(gamma1_fine_run_doubled.traj),
             steady_amplitude(traj_025)]
    ok = bands[0] > bands[1] > bands[2]
    criterion_report(10, ok,
           f"steady amplitude strictly decreases across eps 0.1, 0.05, 0.025: "
           + " > ".join(f"{b:.4f}" for b in bands))


def test_criterion_11_bracket_oracle(criterion_report):
    rng = np.random.default_rng(101)
    checked = 0
    for name in ("unicycle", "underwater", "car"):
        scenario = get_scenario(name)
        fields = scenario.system.fields
        for x in random_states(name, rng, 1000):
            for i, j in scenario.scheme.s2:
                got = lie_bracket(fields[i - 1], fields[j - 1], x)
                want = fd_bracket(fields[i - 1].eval, fields[j - 1].eval, x)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
                checked += 1
    criterion_report(11, True,
           f"analytic Lie brackets match the central-difference oracle to "
           f"1e-6 on {checked} (state, pair) samples across all scenarios")
