"""Certified sampling-period bounds and the quantitative checks behind them.

Given sup bounds on the fields and their first two derivatives over a
tube around the reference, this module produces explicit thresholds
eps1, eps2, eps3 such that for any sampling period below their minimum
the sampled feedback contracts the tracking error into the target tube.
It also provides the empirical counterparts: Monte-Carlo estimation of
the sup bounds, a Volterra-remainder residual check, the interval growth
bound, and a one-step contraction test.

All threshold formulas are evaluated in algebraically equivalent forms
that stay stable when C2 dominates or L is tiny (quadratic roots are
rationalized, exp(x) - 1 goes through expm1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .controller import ControllerParams
from .curves import ReferenceCurve, vector_norms
from .errors import (
    CertificationError,
    UnsupportedSchemeError,
    UsageError,
    in_range,
)
from .integrator import SamplerGrid, Trajectory, simulate
from .systems import BracketScheme, ControlSystem, gain_matrices

# Lipschitz constants below this are treated as the zero-derivative
# limit (constant fields), where the growth bound degenerates smoothly.
L_FLOOR = 1e-12

# Safety factor on every sampled sup bound, for what a finite sample misses.
SUP_INFLATION = 1.1

# Tube samples per block of estimate_sup_bounds: the fields, Jacobians and
# Lie tables of one block are held at a time.
_SUP_BLOCK_SAMPLES = 1024


def _one_gain(alpha):
    """``alpha`` when it is one finite positive gain, else UsageError: the
    certificate and its checks are stated for one gain."""
    if np.ndim(alpha):
        raise UsageError(f"certification takes one gain alpha, got {np.size(alpha)}")
    return in_range("alpha", alpha)


@dataclass(frozen=True)
class CertificateInputs:
    """Geometry and sup bounds feeding the threshold formulas.

    Every field is finite; the radii, mu, M1 and lam are positive, and
    nu, M2, M3 and L nonnegative.  Radii must satisfy the strict chain
    rho_prime < rho < delta < delta_prime < r (with nu/alpha < rho_prime
    checked against the gain later, by ``bound_constants``).
    ``lam`` is the targeted decay rate of the sampled error sequence.
    ``provenance`` records whether the sup bounds are closed-form
    ("analytic") or sampled with a safety factor ("empirical").
    """

    r: float
    rho: float
    rho_prime: float
    delta: float
    delta_prime: float
    mu: float
    nu: float
    M1: float
    M2: float
    M3: float
    L: float
    lam: float
    provenance: str = "analytic"

    def __post_init__(self):
        for name in ("rho_prime", "rho", "delta", "delta_prime", "r", "mu", "M1", "lam"):
            in_range(name, getattr(self, name))
        for name in ("nu", "M2", "M3", "L"):
            in_range(name, getattr(self, name), zero_ok=True)
        chain = (self.rho_prime, self.rho, self.delta, self.delta_prime, self.r)
        if not (chain[0] < chain[1] < chain[2] < chain[3] < chain[4]):
            raise UsageError(
                "radii must satisfy rho_prime < rho < delta < delta_prime < r, "
                f"got {chain}")


@dataclass(frozen=True)
class Certificate:
    """Successful certification: constants, thresholds, and their minimum.

    The guarantee applies to sampling periods strictly below
    ``eps_hat``.  ``lam`` is the decay rate of the sampled error
    sequence; between samples the continuous-time envelope decays at
    ``lam_continuous`` = lam / 2.
    """

    C1: float
    C2: float
    sigma: float
    eps1: float
    eps2: float
    eps3: float
    eps_hat: float
    lam: float
    lam_continuous: float
    provenance: str

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a certification attempt; ``certificate`` is None on failure."""

    ok: bool
    certificate: Certificate | None
    detail: str


def control_magnitude_constants(scheme: BracketScheme, alpha: float,
                                mu: float) -> tuple[float, float]:
    """Constants (C1, C2) bounding the control: sum_i |u_i(t)| is at most
    C1 ||x - gamma|| + (C2 / sqrt(eps)) sqrt(||x - gamma||)."""
    in_range("mu", mu)
    alpha = _one_gain(alpha)
    c1 = alpha * mu * np.sqrt(len(scheme.s1))
    kappa_sum = sum(k ** (2.0 / 3.0) for k in scheme.kappa)
    c2 = 4.0 * np.sqrt(np.pi * mu * alpha) * kappa_sum ** 0.75
    return float(c1), float(c2)


def sigma_value(scheme: BracketScheme, alpha: float,
                inputs: CertificateInputs, eps: float) -> float:
    """Remainder constant sigma at a given sampling period.

    sigma bounds the Volterra remainder via
    ||R|| <= sigma * eps^(3/2) * ||x0 - gamma0||^(3/2)
    and grows with eps through the sqrt(eps * delta_prime) terms.
    """
    in_range("eps", eps)
    c1, c2 = control_magnitude_constants(scheme, alpha, inputs.mu)
    am = alpha * inputs.mu
    inv_sum = 0.0
    for j in range(1, scheme.m + 1):
        inner = sum(k ** (-2.0 / 3.0)
                    for (p, q), k in zip(scheme.s2, scheme.kappa) if q == j)
        inv_sum += inner ** 0.75
    root = np.sqrt(eps * inputs.delta_prime)
    return float(
        inputs.M2 * (2.0 * am ** 1.5 * np.sqrt(len(scheme.s1)) * inv_sum
                     + 0.5 * root * am ** 2)
        + inputs.M3 * (c2 + c1 * root) ** 3)


def bound_constants(scheme: BracketScheme, alpha: float,
                    inputs: CertificateInputs) -> CertificationReport:
    """Compute the certificate for a first-order bracket scheme.

    The thresholds eps1 and eps3 come out of closed forms; eps2 depends
    on sigma, which itself depends on eps, so the pair is iterated to a
    fixed point starting from eps1 (at most 20 rounds).  Failure to
    converge, or a non-positive fixed point, yields an unsuccessful
    report rather than an exception.
    """
    if scheme.degree2:
        raise UnsupportedSchemeError(
            "certification covers direct fields and first-order brackets only")
    if not scheme.s1:
        raise UnsupportedSchemeError(
            "certification needs at least one directly actuated direction")
    alpha = _one_gain(alpha)
    if inputs.nu / alpha >= inputs.rho_prime:
        raise UsageError(
            f"need nu/alpha < rho_prime, got {inputs.nu / alpha:.6g} >= "
            f"{inputs.rho_prime:.6g}; increase alpha or widen the inner tube")
    lam_max = alpha - inputs.nu / inputs.rho_prime
    if inputs.lam >= lam_max:
        raise UsageError(
            f"lam must lie in (0, alpha - nu/rho_prime) = (0, {lam_max:.6g}), "
            f"got {inputs.lam}")

    c1, c2 = control_magnitude_constants(scheme, alpha, inputs.mu)
    L = max(inputs.L, L_FLOOR)
    d = min(inputs.delta_prime - inputs.delta,
            (inputs.rho - inputs.rho_prime) / 2.0)
    big_k = np.log1p(d * L / inputs.M1) / L
    # Positive root of C1 z^2 + C2 z = K, rationalized.
    z1 = 2.0 * big_k / (c2 + np.sqrt(c2 ** 2 + 4.0 * c1 * big_k))
    eps1_drift = (inputs.rho - inputs.rho_prime) / (2.0 * inputs.nu) \
        if inputs.nu > 0 else np.inf
    eps1 = min(eps1_drift, z1 ** 2 / inputs.delta_prime)
    # Positive root of z^2 + (C2/C1) z = 1/L.
    z3 = np.sqrt(c2 ** 2 / (4.0 * c1 ** 2) + 1.0 / L) - c2 / (2.0 * c1)
    eps3 = z3 ** 2 / inputs.delta_prime

    rate = inputs.lam + inputs.nu / inputs.rho_prime

    def eps2_of(sig: float) -> float:
        cap = 1.0 / rate
        if sig <= 0:
            return cap
        gap = (alpha - inputs.lam) / sig - inputs.nu / (sig * inputs.rho_prime)
        return min(gap ** 2 / inputs.delta_prime, cap)

    eps = eps1
    converged = False
    for _ in range(20):
        sig = sigma_value(scheme, alpha, inputs, eps)
        eps_new = min(eps1, eps3, eps2_of(sig))
        if not np.isfinite(eps_new) or eps_new <= 0:
            return CertificationReport(
                ok=False, certificate=None,
                detail=f"threshold recursion left the positive range (eps={eps_new})")
        if abs(eps_new - eps) <= 1e-12 * eps_new:
            eps = eps_new
            converged = True
            break
        eps = eps_new
    if not converged:
        return CertificationReport(
            ok=False, certificate=None,
            detail="sigma-eps recursion did not reach a fixed point in 20 rounds")

    sig = sigma_value(scheme, alpha, inputs, eps)
    eps2 = eps2_of(sig)
    slack = 1.0 + 1e-9
    if not (eps <= eps1 * slack and eps <= eps2 * slack and eps <= eps3 * slack):
        return CertificationReport(
            ok=False, certificate=None,
            detail=f"fixed point eps={eps:.6g} fails validation against "
                   f"(eps1, eps2, eps3)=({eps1:.6g}, {eps2:.6g}, {eps3:.6g})")
    cert = Certificate(
        C1=c1, C2=c2, sigma=sig, eps1=float(eps1), eps2=float(eps2),
        eps3=float(eps3), eps_hat=float(eps), lam=inputs.lam,
        lam_continuous=inputs.lam / 2.0, provenance=inputs.provenance)
    return CertificationReport(ok=True, certificate=cert, detail="certified")


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Row norms via the dot product, as np.linalg.norm takes them of one row."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _lipschitz(jacs: np.ndarray) -> float:
    """Largest spectral norm of the Jacobians, the root of the largest
    eigenvalue of J^T J; NaN when any J^T J is not finite, on which
    ``eigvalsh`` would raise."""
    jtj = jacs.swapaxes(-1, -2) @ jacs
    finite = np.isfinite(jtj).all(axis=(-2, -1))
    jtj[~finite] = 0.0
    return np.sqrt(np.max(np.where(finite, np.linalg.eigvalsh(jtj)[..., -1], np.nan)))


class SupBounds(NamedTuple):
    """Sampled sup bounds over the delta_prime tube, safety-inflated."""

    M1: float
    M2: float
    M3: float
    L: float
    mu: float


def estimate_sup_bounds(sys: ControlSystem, scheme: BracketScheme,
                        curve: ReferenceCurve, *, delta_prime: float,
                        n_samples: int = 10_000, seed: int = 0) -> SupBounds:
    """Monte-Carlo sup bounds over the tube of radius delta_prime.

    Samples x = gamma(t) + radius * direction with t uniform on
    [0, curve.horizon] and radius distributed so points fill the ball
    uniformly.  Second Lie derivatives are taken by central differences
    along the field directions.  All five outputs carry the factor
    SUP_INFLATION; the certificate they feed should be labeled
    "empirical".  The samples are
    drawn at once and evaluated in blocks of ``_SUP_BLOCK_SAMPLES``, so
    the fields, Jacobians and Lie tables held at a time do not grow with
    ``n_samples``; every sup is an exact maximum, so the result does not
    depend on the block size, and a NaN in any sample makes the sup NaN.
    A sample outside the domain or with a singular gain matrix aborts the
    estimate, and the first such sample is the one reported.
    """
    in_range("delta_prime", delta_prime)
    if n_samples < 1:
        raise UsageError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = sys.n
    ts = rng.uniform(0.0, curve.horizon, n_samples)
    dirs = rng.normal(size=(n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = delta_prime * rng.uniform(0.0, 1.0, n_samples) ** (1.0 / n)
    xs = np.asarray(curve.eval(ts), dtype=float) + radii[:, None] * dirs

    inside = np.broadcast_to(sys.in_domain(xs), (n_samples,))
    n_inside = n_samples if inside.all() else int(np.argmin(inside))

    # A constant field has a zero Jacobian, so its Lipschitz term and its
    # rows i of L_{f_j} f_i are exactly zero: only the state-dependent
    # fields are differentiated.  Their rows go into a zero table of the
    # full shape, so the norms and sums below add in the same order.
    varying = [i for i, f in enumerate(sys.fields) if f.value is None]

    def lie_table(x):
        """Field values (B, m, n), Jacobians (B, k, n, n) of the k
        state-dependent fields, and L_{f_j} f_i = Jf_i @ f_j (B, m, m, n)
        for each ordered pair."""
        vals = np.stack([f.eval(x) for f in sys.fields], axis=1)
        first = np.zeros((len(x), sys.m, sys.m, n))
        if not varying:
            return vals, None, first
        jacs = np.stack([sys.fields[i].jacobian(x) for i in varying], axis=1)
        first[:, varying] = (jacs[:, :, None] @ vals[:, None, :, :, None])[..., 0]
        return vals, jacs, first

    # Every block of in-domain samples gets its gain matrices, as when the
    # whole prefix was evaluated at once: a non-finite state in a later
    # block still raises DomainError ahead of an earlier singular sample.
    # The sups are formed only while no sample has failed.
    sups, singular = [], None
    for lo in range(0, n_inside, _SUP_BLOCK_SAMPLES):
        x = xs[lo:min(lo + _SUP_BLOCK_SAMPLES, n_inside)]
        gains = gain_matrices(sys, scheme, x)
        bad = gains.singular
        if singular is None and bad.any():
            singular = lo + int(np.argmax(bad))
        if singular is not None or n_inside < n_samples:
            continue
        vals, jacs, first = lie_table(x)
        # Directional derivative of x -> (L_{f_j2} f_j1)(x) along f_j3; a
        # vanishing f_j3 gets a zero offset and so contributes nothing.
        step = 1e-5 * np.maximum(1.0, _row_norms(x))
        total = np.zeros(len(x))
        for j3 in range(sys.m):
            w = vals[:, j3]
            wn = _row_norms(w)
            scale = np.divide(step, wn, out=np.zeros(len(x)), where=wn != 0.0)
            offset = scale[:, None] * w
            gap = lie_table(x + offset)[2] - lie_table(x - offset)[2]
            deriv = gap * (wn / (2.0 * step))[:, None, None, None]
            total += np.sum(vector_norms(deriv), axis=(1, 2))
        sups.append((
            np.max(vector_norms(vals)), np.max(vector_norms(first)), np.max(total / 6.0),
            _lipschitz(jacs) if varying else 0.0,
            np.max(1.0 / gains.singular_values[:, -1])))
    if singular is not None:
        raise CertificationError(
            f"gain matrix singular inside the tube at {xs[singular]}; "
            "certification impossible for this curve and radius")
    if n_inside < n_samples:
        raise CertificationError(
            f"tube sample {xs[n_inside]} leaves the system domain; "
            "shrink delta_prime or the horizon")

    # np.max, not max(): a NaN in any block must reach the result.
    m1, m2, m3, lip, mu = np.max(sups, axis=0)
    return SupBounds(M1=SUP_INFLATION * float(m1), M2=SUP_INFLATION * float(m2),
                     M3=SUP_INFLATION * float(m3), L=SUP_INFLATION * float(lip),
                     mu=SUP_INFLATION * float(mu))


@dataclass(frozen=True)
class VolterraReport:
    """One-interval remainder against the certified bound."""

    residual_norm: float
    bound: float
    margin: float
    ok: bool
    epsilon: float
    initial_error_norm: float


def volterra_residual(traj: Trajectory, alpha: float, *,
                      sigma: float) -> VolterraReport:
    """Check ||x(eps) - x0 + eps*alpha*(x0 - gamma0)|| against the sigma bound.

    x0, gamma0 and eps are the start, the reference start and the
    sampling period of the trajectory, which must contain at least one
    full sampling interval; ``sigma`` must be finite and nonnegative.
    """
    _one_gain(alpha)
    in_range("sigma", sigma, zero_ok=True)
    marks = traj.sample_indices()
    if marks.size < 2:
        raise UsageError("trajectory does not contain a full sampling interval")
    x0, gamma0, eps = traj.states[0], traj.reference[0], traj.epsilon
    residual = traj.states[marks[1]] - x0 + eps * alpha * (x0 - gamma0)
    err0 = float(np.linalg.norm(x0 - gamma0))
    r_norm = float(np.linalg.norm(residual))
    bound = float(sigma * eps ** 1.5 * err0 ** 1.5)
    return VolterraReport(
        residual_norm=r_norm, bound=bound, margin=bound - r_norm,
        ok=r_norm <= bound * (1.0 + 1e-12) + 1e-15,
        epsilon=eps, initial_error_norm=err0)


@dataclass(frozen=True)
class VolterraScalingReport:
    """Residual norms across a grid of sampling periods, with fitted slope."""

    epsilons: tuple[float, ...]
    residual_norms: tuple[float, ...]
    exponent: float
    reports: tuple[VolterraReport, ...]


def volterra_scaling(sys: ControlSystem, scheme: BracketScheme, alpha: float,
                     epsilons: Sequence[float], curve: ReferenceCurve,
                     x0: np.ndarray, *, sigma: float) -> VolterraScalingReport:
    """One-interval residuals over several eps values and their log-log slope,
    each on the default integration grid."""
    if len(epsilons) < 2:
        raise UsageError("need at least two epsilon values to fit a slope")
    reports = []
    for eps in epsilons:
        params = ControllerParams(alpha=alpha, epsilon=eps)
        traj = simulate(sys, scheme, params, curve, x0, SamplerGrid(eps, eps))
        reports.append(volterra_residual(traj, alpha, sigma=sigma))
    norms = [rep.residual_norm for rep in reports]
    slope = float(np.polyfit(np.log(list(epsilons)), np.log(norms), 1)[0])
    return VolterraScalingReport(
        epsilons=tuple(float(e) for e in epsilons),
        residual_norms=tuple(norms), exponent=slope, reports=tuple(reports))


@dataclass(frozen=True)
class GrowthReport:
    """Interval growth bound ||x(t) - x(t_j)|| <= (M1/L)(e^(U L tau) - 1)."""

    ok: bool
    min_margin: float
    interval_margins: np.ndarray
    u_sups: np.ndarray


def lemma1_growth_check(traj: Trajectory, M1: float, L: float) -> GrowthReport:
    """Verify the growth bound pointwise on every interval of a trajectory.

    U is the largest l1 control norm recorded on the interval; since the
    oscillating components complete whole periods, the grid maxima cover
    the continuous sup up to grid resolution.  The bound is evaluated in
    the expm1 form M1*U*tau*(expm1(z)/z), which passes smoothly through
    the constant-field limit L -> 0.  ``M1`` must be finite and positive,
    and ``L`` finite and nonnegative.  ``ok`` allows a margin down to -1e-8.
    """
    in_range("M1", M1)
    L = max(in_range("L", L, zero_ok=True), L_FLOOR)
    # The sampling instants and the last row bound the intervals; a
    # partial trace ends inside its last one.
    bounds = np.union1d(traj.sample_indices(), [traj.times.size - 1])
    margins = []
    u_sups = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        u_sup = float(np.max(np.sum(np.abs(traj.controls[start:end]), axis=1)))
        tau = traj.times[start + 1:end + 1] - traj.times[start]
        disp = np.linalg.norm(traj.states[start + 1:end + 1] - traj.states[start],
                              axis=1)
        z = L * u_sup * tau
        # An overflowing exponential makes the bound vacuously true; the
        # margin comes out +inf for those rows, which is correct.
        with np.errstate(over="ignore"):
            phi = np.where(z > 0, np.expm1(z) / np.where(z > 0, z, 1.0), 1.0)
            bound = M1 * u_sup * tau * phi
        margins.append(float(np.min(bound - disp)))
        u_sups.append(u_sup)
    interval_margins = np.asarray(margins)
    min_margin = float(np.min(interval_margins)) if margins else 0.0
    return GrowthReport(ok=bool(min_margin >= -1e-8), min_margin=min_margin,
                        interval_margins=interval_margins,
                        u_sups=np.asarray(u_sups))


@dataclass(frozen=True)
class ContractionReport:
    """One-step contraction statistics over random annulus draws."""

    n_draws: int
    n_pass: int
    failed_indices: tuple[int, ...]
    epsilon: float
    worst_violation: float


def contraction_check(sys: ControlSystem, scheme: BracketScheme,
                      params: ControllerParams, curve: ReferenceCurve,
                      *, lam: float, nu: float, rho_prime: float, delta: float,
                      n_draws: int = 100, seed: int = 0) -> ContractionReport:
    """Test ||x(eps)-gamma(eps)|| <= ||e0||(1 - eps(lam + nu/rho')) + eps*nu.

    Draws x0 = gamma(0) + radius * direction with radius uniform on
    (rho_prime, delta) and direction uniform on the sphere, then runs a
    single sampling interval, on the default integration grid, for all
    draws as one batch.  A draw that stops early raises the
    ``SimulationError`` of the first such draw; a draw that starts
    outside the system domain makes ``simulate`` refuse the whole batch
    with ``DomainError``.  ``lam`` and ``delta`` must be finite and
    positive, and ``nu`` finite and nonnegative.
    """
    _one_gain(params.alpha)
    in_range("lam", lam)
    in_range("nu", nu, zero_ok=True)
    in_range("delta", delta)
    if not 0 < rho_prime < delta:
        raise UsageError("need 0 < rho_prime < delta")
    if n_draws < 1:
        raise UsageError(f"need at least one draw, got n_draws={n_draws}")
    rng = np.random.default_rng(seed)
    gamma0 = np.asarray(curve.eval(0.0), dtype=float)
    eps = params.epsilon
    factor = 1.0 - eps * (lam + nu / rho_prime)
    radii = np.empty(n_draws)
    starts = np.empty((n_draws, sys.n))
    for i in range(n_draws):  # per draw a direction, then a radius
        direction = rng.normal(size=sys.n)
        direction /= np.linalg.norm(direction)
        radii[i] = rng.uniform(rho_prime, delta)
        starts[i] = gamma0 + radii[i] * direction
    traj = simulate(sys, scheme, params, curve, starts, SamplerGrid(eps, eps))
    if traj.failures:
        raise traj.failures[min(traj.failures)]
    lhs = _row_norms(traj.states[-1] - np.asarray(curve.eval(eps), dtype=float))
    rhs = radii * factor + eps * nu
    failed = lhs > rhs + 1e-12
    return ContractionReport(
        n_draws=n_draws, n_pass=n_draws - int(failed.sum()),
        failed_indices=tuple(np.flatnonzero(failed).tolist()), epsilon=eps,
        worst_violation=float(np.max(lhs[failed] - rhs[failed], initial=0.0)))
