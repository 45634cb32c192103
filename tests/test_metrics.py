"""Tests for tube metrics on handmade trajectory records."""

from dataclasses import replace

import numpy as np
import pytest

from osctrack import (
    ControllerParams,
    GapReport,
    SamplerGrid,
    Trajectory,
    UsageError,
    admissible_vs_nonadmissible_gap,
    default_substeps,
    entry_time,
    get_curve,
    get_scenario,
    simulate,
    stability_report,
    steady_amplitude,
    tail_error,
)
from osctrack.integrator import DENSE_POINTS, _point_offsets
from osctrack.metrics import TUBE_EDGE_RTOL, StabilityReport


def synthetic_trajectory(times, dist, substeps=1, dense=None):
    """Trajectory whose geometry is irrelevant; only times/dist matter.

    ``dense`` (rows - 1, points) holds the distances inside the steps at
    the integrator's ``DENSE_POINTS``; by default the steps have none.
    """
    times = np.asarray(times, dtype=float)
    dist = np.asarray(dist, dtype=float)
    n = times.size
    states = np.zeros((n, 2))
    states[:, 0] = dist
    return Trajectory(
        times=times,
        states=states,
        reference=np.zeros((n, 2)),
        controls=np.zeros((n, 2)),
        dist=dist,
        dense_dist=np.empty((n - 1, 0)) if dense is None else dense,
        epsilon=float(times[substeps] - times[0]) if n > substeps else 1.0,
        substeps=substeps,
        n_intervals=max(1, (n - 1) // substeps),
        coefficient_evals=max(1, (n - 1) // substeps),
        semantics="sampled",
    )


def test_tube_distance_rejects_negative_radius():
    traj = synthetic_trajectory([0.0, 1.0], [1.0, 1.0])
    for rho in (-0.1, np.nan, np.inf):
        with pytest.raises(UsageError, match="tube radius must be nonnegative"):
            stability_report(traj, rho)
        with pytest.raises(UsageError, match="tube radius must be nonnegative"):
            entry_time(traj, rho)


def test_entry_time_crossing():
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    dist = [2.0, 1.0, 0.4, 0.3, 0.2]
    traj = synthetic_trajectory(times, dist)
    assert entry_time(traj, 0.5) == 2.0


def test_entry_time_never_outside():
    traj = synthetic_trajectory([0.0, 1.0, 2.0], [0.3, 0.2, 0.4])
    assert entry_time(traj, 0.5) == 0.0


def test_entry_time_still_outside():
    traj = synthetic_trajectory([0.0, 1.0, 2.0], [2.0, 1.5, 0.9])
    assert entry_time(traj, 0.5) == np.inf


def test_entry_time_reentry_uses_last_excursion():
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    dist = [2.0, 0.3, 0.9, 0.3, 0.2, 0.1]
    traj = synthetic_trajectory(times, dist)
    assert entry_time(traj, 0.5) == 3.0


def test_entry_time_boundary_grazing_counts_as_inside():
    # Exactly rho, and rho plus a sliver below the relative slack.
    rho = 0.5
    traj = synthetic_trajectory([0.0, 1.0], [rho, rho * (1.0 + 1e-12)])
    assert entry_time(traj, rho) == 0.0


def test_steady_amplitude_last_quarter():
    times = np.linspace(0.0, 8.0, 9)
    dist = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.22, 0.19, 0.21])
    traj = synthetic_trajectory(times, dist)
    # Times >= 6.0 are the last quarter.
    assert steady_amplitude(traj) == 0.22


def test_tail_error_window():
    times = np.linspace(0.0, 10.0, 11)
    dist = np.linspace(1.0, 0.0, 11)
    traj = synthetic_trajectory(times, dist)
    assert tail_error(traj, 7.5) == pytest.approx(0.2)
    with pytest.raises(UsageError):
        tail_error(traj, 10.5)


def test_stability_report_recovers_exponential_transient():
    # dist = rho + exp(-lam * t) before entry, then well inside the tube.
    rho, lam = 0.5, 0.7
    times = np.linspace(0.0, 12.0, 121)
    dist = np.where(times < 6.0, rho + np.exp(-lam * times), 0.1)
    traj = synthetic_trajectory(times, dist)
    rep = stability_report(traj, rho)
    assert rep.entered
    assert rep.entry_time == pytest.approx(6.0)
    assert rep.fitted_lambda == pytest.approx(lam, abs=1e-10)
    assert rep.fitted_C == pytest.approx(1.0, abs=1e-10)
    assert rep.steady_amplitude == pytest.approx(0.1)
    assert rep.rho == rho


def test_stability_report_fit_uses_sampling_instants_only():
    # Substeps of 2: odd rows are mid-interval and must not enter the fit.
    rho, lam = 0.5, 0.7
    times = np.linspace(0.0, 12.0, 121)
    dist = np.where(times < 6.0, rho + np.exp(-lam * times), 0.1)
    dist = dist.copy()
    dist[1:120:2] += 50.0  # garbage on non-sample rows
    dist[1:120:2][times[1:120:2] >= 6.0] = 0.1  # keep the entry row intact
    traj = synthetic_trajectory(times, dist, substeps=2)
    rep = stability_report(traj, rho)
    assert rep.fitted_lambda == pytest.approx(lam, abs=1e-10)


def test_stability_report_no_transient_points():
    traj = synthetic_trajectory([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])
    rep = stability_report(traj, 0.5)
    assert rep.entry_time == 0.0
    assert rep.fitted_lambda is None
    assert rep.fitted_C is None


def test_stability_report_not_entered():
    traj = synthetic_trajectory([0.0, 1.0, 2.0], [3.0, 2.5, 2.0])
    rep = stability_report(traj, 0.5)
    assert not rep.entered
    assert rep.entry_time == np.inf


def test_gap_report_ratio():
    times = np.linspace(0.0, 8.0, 9)
    adm = synthetic_trajectory(times, np.full(9, 0.01))
    nonadm = synthetic_trajectory(times, np.full(9, 0.05))
    gap = admissible_vs_nonadmissible_gap(adm, nonadm)
    assert isinstance(gap, GapReport)
    assert gap.tail_admissible == pytest.approx(0.01)
    assert gap.tail_nonadmissible == pytest.approx(0.05)
    assert gap.ratio == pytest.approx(5.0)


def test_gap_report_zero_denominator():
    times = np.linspace(0.0, 8.0, 9)
    adm = synthetic_trajectory(times, np.zeros(9))
    nonadm = synthetic_trajectory(times, np.full(9, 0.05))
    assert admissible_vs_nonadmissible_gap(adm, nonadm).ratio == np.inf


def test_gap_report_rejects_mismatched_grids():
    a = synthetic_trajectory(np.linspace(0.0, 8.0, 9), np.zeros(9))
    b = synthetic_trajectory(np.linspace(0.0, 8.0, 17), np.zeros(17))
    with pytest.raises(UsageError):
        admissible_vs_nonadmissible_gap(a, b)
    c = synthetic_trajectory(np.linspace(0.0, 8.1, 9), np.zeros(9))
    with pytest.raises(UsageError):
        admissible_vs_nonadmissible_gap(a, c)


def whole_row_report(traj, rho):
    """stability_report with the tube distance formed over every row."""
    t_enter = entry_time(traj, rho)
    tube = np.maximum(0.0, traj.dist - rho)
    idx = traj.sample_indices()
    transient = idx[(traj.times[idx] < t_enter) & (tube[idx] > 0)]
    slope, intercept = np.polyfit(traj.times[transient], np.log(tube[transient]), 1)
    return StabilityReport(rho=rho, entry_time=t_enter,
                           steady_amplitude=steady_amplitude(traj),
                           fitted_lambda=float(-slope), fitted_C=float(np.exp(intercept)))


@pytest.mark.parametrize("rho", [0.05, 0.3])
def test_stability_report_equals_the_whole_row_formula(rho):
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=4.0)
    traj = simulate(scenario.system, scenario.scheme, ControllerParams(15.0, 0.1), curve,
                    curve(0.0) + [1.5, -1.0, 0.5], SamplerGrid(0.1, 4.0))
    rep = stability_report(traj, rho)
    assert rep.fitted_lambda is not None
    assert rep == whole_row_report(traj, rho)


def all_points(traj):
    """Times and distances of the nodes and the points inside the steps,
    in time order, as whole-record arrays."""
    offsets = np.append(0.0, traj.dense_offsets())
    times = np.append((traj.times[:-1, None] + offsets).ravel(), traj.times[-1])
    dist = np.append(np.column_stack((traj.dist[:-1], traj.dense_dist)).ravel(),
                     traj.dist[-1])
    return times, dist


def mask_entry_time(traj, rho):
    """entry_time as one mask over every point of the record."""
    times, dist = all_points(traj)
    outside = dist > rho * (1.0 + TUBE_EDGE_RTOL)
    if not np.any(outside):
        return 0.0
    last_out = int(np.max(np.nonzero(outside)[0]))
    if last_out == dist.size - 1:
        return np.inf
    return float(times[last_out + 1])


def mask_tail_error(traj, t_start):
    """tail_error as a mask over the times and a copy of the points it keeps."""
    times, dist = all_points(traj)
    return float(np.max(dist[times >= t_start]))


def built_traces():
    """Records of 1 to 10,001 rows, up to five 2,048-step blocks, without
    and with points inside the steps: some enter the tube, some never leave it,
    some end outside; some hold NaN."""
    rng = np.random.default_rng(3)
    for rows in (1, 2, 7, 4095, 4096, 4097, 8193, 10001):
        times = np.linspace(0.0, 10.0, rows)
        decay = 2.0 * np.exp(-times) + 0.3 * rng.uniform(size=rows)
        inside = 2.0 * np.exp(-times[:-1, None]) + 0.3 * rng.uniform(
            size=(rows - 1, len(DENSE_POINTS)))
        for dist, points in ((decay, inside), (decay + 0.5, inside + 0.5),
                             (0.2 * decay, 0.2 * inside)):
            for dense in (None, points):
                yield synthetic_trajectory(times, dist, dense=dense)
                with_nan = dist.copy()
                with_nan[rng.integers(rows, size=max(1, rows // 100))] = np.nan
                yield synthetic_trajectory(times, with_nan, dense=dense)
                if dense is not None and rows > 1:
                    dense_nan = dense.copy()
                    dense_nan[rng.integers(rows - 1, size=max(1, rows // 100)), 1] = np.nan
                    yield synthetic_trajectory(times, dist, dense=dense_nan)
                last_out = dist.copy()
                last_out[-1] = 3.0
                yield synthetic_trajectory(times, last_out, dense=dense)
            if rows > 1:  # the last point outside is inside a step
                late = points.copy()
                late[-1, 2] = 3.0
                yield synthetic_trajectory(times, dist, dense=late)


def test_entry_time_and_tail_error_equal_the_mask_formulas():
    for traj in built_traces():
        for rho in (0.3, 0.5, 1.0):
            assert entry_time(traj, rho) == mask_entry_time(traj, rho)
        for t_start in (0.0, traj.times[-1] / 3, 0.75 * traj.times[-1], traj.times[-1]):
            got, want = tail_error(traj, t_start), mask_tail_error(traj, t_start)
            assert got == want or (np.isnan(got) and np.isnan(want))


def test_entry_time_and_tail_error_form_no_rows_sized_arrays():
    """On 200,001 rows the mask formulas peak above 200 kB (a bool per row,
    and a quarter of the distances copied); the block search and the slice
    stay under 50 kB."""
    import tracemalloc

    times = np.linspace(0.0, 100.0, 200_001)
    inside = times[:-1, None] + _point_offsets(times[1] - times[0])
    traj = synthetic_trajectory(times, 2.0 * np.exp(-times / 10.0),
                                dense=2.0 * np.exp(-inside / 10.0))
    tracemalloc.start()
    try:
        for measure in (lambda: entry_time(traj, 0.5),
                        lambda: steady_amplitude(traj)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            measure()
            assert tracemalloc.get_traced_memory()[1] - base < 50_000
    finally:
        tracemalloc.stop()


SWEEP_CAR_CURVE = "5*sin(t/4), 5*sin(t/4)*cos(t/4), 0, 0"


@pytest.mark.parametrize("name, curve, alpha, epsilon, horizon", [
    ("car", SWEEP_CAR_CURVE, 7.3, 0.05, 6.0),
    ("car", SWEEP_CAR_CURVE, 7.3, 0.1, 6.0),
    ("unicycle", "gamma1", 15.0, 0.1, 10.0),
    ("underwater", "gamma4_underwater", 15.0, 0.1, 5.0),
], ids=["car-0.05", "car-0.1", "unicycle", "underwater"])
def test_metrics_on_the_default_grid_hold_at_four_times_its_substeps(name, curve, alpha,
                                                                    epsilon, horizon):
    """The tracking metrics resolve the trajectory, not the grid: from the
    default grid to four times its substeps the steady amplitude moves by
    at most 3e-4 relative and the entry time by at most 1e-3 s.  Read at
    the nodes alone, the unicycle's entry time moves by 0.1 s."""
    scenario = get_scenario(name)
    params = ControllerParams(alpha=alpha, epsilon=epsilon)
    ref = get_curve(curve, horizon=horizon)
    runs = [simulate(scenario.system, scenario.scheme, params, ref, scenario.default_x0,
                     SamplerGrid(epsilon, horizon, substeps=substeps))
            for substeps in (None, 4 * default_substeps(scenario.system, scenario.scheme))]
    coarse, fine = (stability_report(traj, 0.5) for traj in runs)
    assert abs(coarse.steady_amplitude - fine.steady_amplitude) <= \
        3e-4 * fine.steady_amplitude
    assert abs(coarse.entry_time - fine.entry_time) <= 1e-3
    if name == "unicycle":
        nodes = [replace(traj, dense_dist=traj.dense_dist[:, :0]) for traj in runs]
        assert abs(entry_time(nodes[0], 0.5) - entry_time(nodes[1], 0.5)) > 0.05
