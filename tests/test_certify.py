"""Tests for the certification module.

The threshold chain is cross-checked against an independent oracle that
uses the printed quadratic-root formulas via np.roots and resolves the
sigma-eps fixed point with scipy's brentq instead of the module's own
rationalized forms and fixed-point iteration.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from osctrack import (
    BracketScheme,
    CertificateInputs,
    CertificationError,
    ControllerParams,
    ControlSystem,
    NestedBracketTerm,
    ReferenceCurve,
    SamplerGrid,
    SimulationError,
    Trajectory,
    UnsupportedSchemeError,
    UsageError,
    VectorField,
    bound_constants,
    build_gain_matrix,
    contraction_check,
    control_magnitude_constants,
    coefficients,
    estimate_sup_bounds,
    get_curve,
    get_scenario,
    lemma1_growth_check,
    make_control_function,
    sigma_value,
    simulate,
    volterra_residual,
    volterra_scaling,
)
from osctrack import certify
from osctrack.certify import SupBounds, _row_norms
from osctrack.curves import curve_gamma1, vector_norms
from osctrack.systems import gain_matrices
from conftest import fixed_target
from tests.test_systems import components, constant, unicycle_fields, zero_jacobian

UNICYCLE_SCHEME = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))


@pytest.fixture(scope="module")
def unicycle():
    return ControlSystem(n=3, m=2, fields=unicycle_fields(), name="unicycle")


@pytest.fixture(scope="module")
def gamma1():
    return curve_gamma1()


@pytest.fixture(scope="module")
def unicycle_inputs(gamma1):
    return CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=gamma1.nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)


def translation_system():
    one = VectorField(dim=2, eval=constant(1.0, 0.0), jacobian=zero_jacobian, name="e1")
    two = VectorField(dim=2, eval=constant(0.0, 1.0), jacobian=zero_jacobian, name="e2")
    return ControlSystem(n=2, m=2, fields=(one, two), name="translation")


def oracle_sigma(scheme, alpha, inputs, eps):
    """sigma recomputed from the printed formula, term by term."""
    c1, c2 = oracle_constants(scheme, alpha, inputs.mu)
    am = alpha * inputs.mu
    per_channel = 0.0
    for j in range(1, scheme.m + 1):
        inner = sum(k ** (-2.0 / 3.0)
                    for (_, second), k in zip(scheme.s2, scheme.kappa)
                    if second == j)
        per_channel += inner ** 0.75
    root = math.sqrt(eps * inputs.delta_prime)
    term_osc = 2.0 * am ** 1.5 * math.sqrt(len(scheme.s1)) * per_channel
    return (inputs.M2 * (term_osc + 0.5 * root * am ** 2)
            + inputs.M3 * (c2 + c1 * root) ** 3)


def oracle_constants(scheme, alpha, mu):
    c1 = alpha * mu * math.sqrt(len(scheme.s1))
    c2 = (4.0 * math.sqrt(math.pi * mu * alpha)
          * sum(k ** (2.0 / 3.0) for k in scheme.kappa) ** 0.75)
    return c1, c2


def oracle_thresholds(scheme, alpha, inputs):
    """(eps1, eps3, eps_hat) via np.roots and brentq."""
    c1, c2 = oracle_constants(scheme, alpha, inputs.mu)
    lip = max(inputs.L, 1e-12)
    d = min(inputs.delta_prime - inputs.delta,
            (inputs.rho - inputs.rho_prime) / 2.0)
    big_k = math.log(d * lip / inputs.M1 + 1.0) / lip
    z1 = float(np.max(np.roots([c1, c2, -big_k])))
    drift = (inputs.rho - inputs.rho_prime) / (2.0 * inputs.nu) \
        if inputs.nu > 0 else math.inf
    eps1 = min(drift, z1 ** 2 / inputs.delta_prime)
    z3 = float(np.max(np.roots([1.0, c2 / c1, -1.0 / lip])))
    eps3 = z3 ** 2 / inputs.delta_prime
    rate = inputs.lam + inputs.nu / inputs.rho_prime

    def shrink(eps):
        sig = oracle_sigma(scheme, alpha, inputs, eps)
        cap = 1.0 / rate
        if sig <= 0:
            eps2 = cap
        else:
            gap = (alpha - inputs.lam - inputs.nu / inputs.rho_prime) / sig
            eps2 = min(gap ** 2 / inputs.delta_prime, cap)
        return min(eps1, eps3, eps2)

    if shrink(eps1) >= eps1:
        eps_hat = eps1
    else:
        eps_hat = scipy.optimize.brentq(
            lambda e: shrink(e) - e, 1e-15, eps1, xtol=1e-30, rtol=1e-14)
    return eps1, eps3, eps_hat


def test_control_magnitude_constants_frozen():
    c1, c2 = control_magnitude_constants(UNICYCLE_SCHEME, 15.0, 1.0)
    assert c1 == pytest.approx(15.0 * math.sqrt(2.0), rel=1e-12)
    assert c2 == pytest.approx(4.0 * math.sqrt(15.0 * math.pi), rel=1e-12)


def test_control_magnitude_constants_rejects_bad_mu():
    for mu in (0.0, np.nan, np.inf):
        with pytest.raises(UsageError):
            control_magnitude_constants(UNICYCLE_SCHEME, 15.0, mu)


@pytest.mark.parametrize("eps", [0.04, 1e-6])
def test_sigma_value_matches_hand_formula(unicycle_inputs, eps):
    got = sigma_value(UNICYCLE_SCHEME, 15.0, unicycle_inputs, eps)
    want = oracle_sigma(UNICYCLE_SCHEME, 15.0, unicycle_inputs, eps)
    assert got == pytest.approx(want, rel=1e-12)


def test_sigma_value_rejects_nonpositive_eps(unicycle_inputs):
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(UsageError):
            sigma_value(UNICYCLE_SCHEME, 15.0, unicycle_inputs, eps)


@pytest.mark.parametrize("overrides", [
    {"rho": 0.2},                 # rho below rho_prime
    {"delta": 0.4},               # delta below rho
    {"delta_prime": 1.5},         # delta_prime below delta
    {"r": 2.0},                   # r below delta_prime
    {"rho_prime": -0.1},          # nonpositive inner radius
    {"mu": 0.0},
    {"nu": -1.0},
    {"M1": 0.0},
    {"M2": -1.0},
    {"L": -0.5},
    {"lam": 0.0},
    # NaN passes every sign check and +inf the lower bounds; a certificate
    # built from either would be written out as invalid JSON.
    *[{name: value} for name in ("M1", "M2", "M3", "L", "mu", "nu", "lam")
      for value in (np.nan, np.inf)],
])
def test_certificate_inputs_validation(overrides):
    base = dict(r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
                mu=1.0, nu=2.0, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)
    base.update(overrides)
    with pytest.raises(UsageError):
        CertificateInputs(**base)


def test_unicycle_certificate_matches_oracle(unicycle_inputs):
    rep = bound_constants(UNICYCLE_SCHEME, 15.0, unicycle_inputs)
    assert rep.ok and rep.detail == "certified"
    cert = rep.certificate
    c1, c2 = oracle_constants(UNICYCLE_SCHEME, 15.0, 1.0)
    assert cert.C1 == pytest.approx(c1, rel=1e-12)
    assert cert.C2 == pytest.approx(c2, rel=1e-12)
    eps1, eps3, eps_hat = oracle_thresholds(UNICYCLE_SCHEME, 15.0, unicycle_inputs)
    assert cert.eps1 == pytest.approx(eps1, rel=1e-9)
    assert cert.eps3 == pytest.approx(eps3, rel=1e-9)
    assert cert.eps_hat == pytest.approx(eps_hat, rel=1e-9)
    assert cert.sigma == pytest.approx(
        oracle_sigma(UNICYCLE_SCHEME, 15.0, unicycle_inputs, cert.eps_hat),
        rel=1e-12)


def test_unicycle_certificate_frozen_values(unicycle_inputs):
    cert = bound_constants(UNICYCLE_SCHEME, 15.0, unicycle_inputs).certificate
    # The sampling-period guarantee lands in the microsecond range for
    # these tube radii; the quadratic arm of eps2 is the binding one.
    assert 5e-7 < cert.eps_hat < 5e-6
    assert cert.eps_hat == pytest.approx(cert.eps2, rel=1e-9)
    assert cert.eps1 == pytest.approx(7.3114e-6, rel=1e-3)
    assert cert.eps3 == pytest.approx(0.118356, rel=1e-3)
    assert cert.lam == 1.0
    assert cert.lam_continuous == 0.5
    assert cert.provenance == "analytic"
    for value in (cert.C1, cert.C2, cert.sigma, cert.eps1, cert.eps2,
                  cert.eps3, cert.eps_hat):
        assert np.isfinite(value) and value > 0


def test_certificate_as_dict(unicycle_inputs):
    cert = bound_constants(UNICYCLE_SCHEME, 15.0, unicycle_inputs).certificate
    payload = cert.as_dict()
    assert payload["eps_hat"] == cert.eps_hat
    assert set(payload) == {"C1", "C2", "sigma", "eps1", "eps2", "eps3",
                            "eps_hat", "lam", "lam_continuous", "provenance"}


def test_degree2_scheme_rejected(unicycle_inputs):
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
                           degree2=(NestedBracketTerm((1, 2, 1), 1, 2),))
    with pytest.raises(UnsupportedSchemeError):
        bound_constants(scheme, 5.0, unicycle_inputs)


def test_empty_s1_rejected(unicycle_inputs):
    scheme = BracketScheme(m=2, s1=(), s2=((1, 2),), kappa=(1,))
    with pytest.raises(UnsupportedSchemeError):
        bound_constants(scheme, 15.0, unicycle_inputs)


def test_drift_too_fast_for_gain(unicycle_inputs):
    # nu/alpha must stay below rho_prime.
    with pytest.raises(UsageError, match="nu/alpha"):
        bound_constants(UNICYCLE_SCHEME, 1.0, unicycle_inputs)


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
def test_certificate_refuses_a_bad_gain(unicycle_inputs, alpha):
    """The certificate functions take the gain itself, so they check it
    as ControllerParams does."""
    with pytest.raises(UsageError, match="alpha must be finite and positive"):
        bound_constants(UNICYCLE_SCHEME, alpha, unicycle_inputs)
    with pytest.raises(UsageError, match="alpha must be finite and positive"):
        sigma_value(UNICYCLE_SCHEME, alpha, unicycle_inputs, 0.01)


def test_lam_outside_admissible_range(gamma1):
    inputs = CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=gamma1.nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=7.0)
    with pytest.raises(UsageError):
        bound_constants(UNICYCLE_SCHEME, 15.0, inputs)


def test_static_reference_uses_quadratic_arm():
    inputs = CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=0.0, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)
    cert = bound_constants(UNICYCLE_SCHEME, 15.0, inputs).certificate
    c1, c2 = oracle_constants(UNICYCLE_SCHEME, 15.0, 1.0)
    big_k = math.log(0.125 * 1.0 / 1.0 + 1.0) / 1.0
    z1 = float(np.max(np.roots([c1, c2, -big_k])))
    assert np.isfinite(cert.eps1)
    assert cert.eps1 == pytest.approx(z1 ** 2 / 2.5, rel=1e-9)


def test_constant_fields_certificate():
    scheme = BracketScheme(m=2, s1=(1, 2))
    inputs = CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=0.0, M1=1.0, M2=0.0, M3=0.0, L=0.0, lam=1.0)
    rep = bound_constants(scheme, 2.0, inputs)
    assert rep.ok
    cert = rep.certificate
    assert cert.C2 == 0.0
    assert cert.sigma == 0.0
    # sigma = 0 leaves only the hard cap on eps2.
    assert cert.eps2 == pytest.approx(1.0, rel=1e-12)
    # L -> 0 limit: K = log1p(d*L/M1)/L tends to d = 0.125.
    c1 = 2.0 * math.sqrt(2.0)
    assert cert.eps1 == pytest.approx(0.125 / (c1 * 2.5), rel=1e-6)
    assert cert.eps3 > 1e10
    assert cert.eps_hat == pytest.approx(cert.eps1, rel=1e-12)


def test_control_magnitude_bound_random_states(unicycle, gamma1):
    """The closed-loop control obeys sum_i |u_i| <= C1 ||e|| + C2 sqrt(||e||/eps)."""
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    c1, c2 = control_magnitude_constants(UNICYCLE_SCHEME, params.alpha, 1.0)
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, params.epsilon, 4001)
    for _ in range(40):
        t_ref = rng.uniform(0.0, 30.0)
        gamma = np.asarray(gamma1.eval(t_ref))
        err = rng.normal(size=3)
        err *= rng.uniform(0.05, 2.5) / np.linalg.norm(err)
        coeff = coefficients(unicycle, UNICYCLE_SCHEME, params,
                             gamma + err, gamma)
        profile = make_control_function(UNICYCLE_SCHEME, params, coeff)(ts)
        worst = float(np.max(np.sum(np.abs(profile), axis=1)))
        e_norm = float(np.linalg.norm(err))
        bound = c1 * e_norm + c2 / math.sqrt(params.epsilon) * math.sqrt(e_norm)
        assert worst <= bound * (1.0 + 1e-12)


def test_eps_hat_monotone_in_nu():
    values = []
    for nu in (0.0, 0.5, 1.0, 2.0, 3.0):
        inputs = CertificateInputs(
            r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
            mu=1.0, nu=nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=0.5)
        rep = bound_constants(UNICYCLE_SCHEME, 15.0, inputs)
        assert rep.ok
        values.append(rep.certificate.eps_hat)
    assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_eps_hat_monotone_in_tube_gap(gamma1):
    values = []
    for rho in (0.3, 0.35, 0.4, 0.45, 0.5):
        inputs = CertificateInputs(
            r=3.0, rho=rho, rho_prime=0.25, delta=2.0, delta_prime=2.5,
            mu=1.0, nu=gamma1.nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)
        rep = bound_constants(UNICYCLE_SCHEME, 15.0, inputs)
        assert rep.ok
        values.append(rep.certificate.eps_hat)
    assert all(b >= a - 1e-18 for a, b in zip(values, values[1:]))


def test_estimate_sup_bounds_unicycle(unicycle, gamma1):
    # Unit fields everywhere: every sup equals 1 (M3's sum equals 1, so
    # M3 = 1/6) and the sampler returns exactly the 10%-inflated values.
    got = estimate_sup_bounds(unicycle, UNICYCLE_SCHEME, gamma1,
                              delta_prime=2.5, n_samples=1200, seed=3)
    np.testing.assert_allclose(
        [got.M1, got.M2, got.M3, got.L, got.mu],
        [1.1, 1.1, 1.1 / 6.0, 1.1, 1.1], rtol=1e-5)


def test_estimate_sup_bounds_samples_the_curve_on_its_horizon(unicycle):
    """The tube is drawn around gamma(t) at times t in [0, curve.horizon]
    only, and they spread over all of it."""
    called = []

    def ev(t):
        called.append(np.array(t, dtype=float, ndmin=1))
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)

    def dv(t):
        return np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)

    curve = ReferenceCurve(3, ev, dv, 2.5)
    estimate_sup_bounds(unicycle, UNICYCLE_SCHEME, curve, delta_prime=2.5,
                        n_samples=2000, seed=1)
    times = np.concatenate(called)
    assert times.size == 2000
    assert 0.0 <= times.min() < 0.01 and 2.49 < times.max() <= 2.5


def tube_samples(n, curve, *, delta_prime, n_samples, seed):
    """The tube states estimate_sup_bounds draws: same generator, same order."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, curve.horizon, n_samples)
    dirs = rng.normal(size=(n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = delta_prime * rng.uniform(0.0, 1.0, n_samples) ** (1.0 / n)
    return np.asarray(curve.eval(ts), dtype=float) + radii[:, None] * dirs


def reference_sup_bounds(sys, scheme, curve, *, delta_prime, n_samples, seed,
                         inflation=1.1):
    """Oracle: the sup bounds taken one tube sample at a time."""
    xs = tube_samples(sys.n, curve, delta_prime=delta_prime, n_samples=n_samples,
                      seed=seed)

    def lie_table(x):
        vals = np.stack([f.eval(x) for f in sys.fields])
        jacs = np.stack([f.jacobian(x) for f in sys.fields])
        return vals, jacs, np.einsum("ikl,jl->ijk", jacs, vals)

    m1 = m2 = m3 = lip = mu = 0.0
    for x in xs:
        assert sys.in_domain(x)
        vals, jacs, first = lie_table(x)
        m1 = max(m1, float(np.max(np.linalg.norm(vals, axis=1))))
        lip = max(lip, float(np.max(np.linalg.svd(jacs, compute_uv=False)[:, 0])))
        m2 = max(m2, float(np.max(np.linalg.norm(first, axis=2))))
        total = 0.0
        for j3 in range(sys.m):
            w = vals[j3]
            wn = np.linalg.norm(w)
            if wn == 0.0:
                continue
            step = 1e-5 * max(1.0, float(np.linalg.norm(x)))
            offset = (step / wn) * w
            gap = lie_table(x + offset)[2] - lie_table(x - offset)[2]
            total += float(np.sum(np.linalg.norm(gap * (wn / (2.0 * step)), axis=2)))
        m3 = max(m3, total / 6.0)
        gain = build_gain_matrix(sys, scheme, x)
        mu = max(mu, 1.0 / float(np.linalg.svd(gain, compute_uv=False)[-1]))
    return np.array([m1, m2, m3, lip, mu]) * inflation


@pytest.mark.parametrize("name, delta_prime", [
    ("unicycle", 2.5), ("underwater", 0.5), ("car", 0.5)])
def test_estimate_sup_bounds_matches_per_sample_oracle(name, delta_prime):
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=20.0)
    kwargs = dict(delta_prime=delta_prime, n_samples=300, seed=5)
    got = estimate_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs)
    want = reference_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs)
    np.testing.assert_allclose(list(got), want, rtol=1e-12, atol=0.0)


def lie_table_matmul(jacs, vals):
    return (jacs[:, :, None] @ vals[:, None, :, :, None])[..., 0]


def lipschitz_eigvalsh(jacs):
    return np.sqrt(np.max(np.linalg.eigvalsh(jacs.swapaxes(-1, -2) @ jacs)[..., -1]))


def lie_table_einsum(jacs, vals):
    return np.einsum("bikl,bjl->bijk", jacs, vals)


def lipschitz_svd(jacs):
    return np.max(np.linalg.svd(jacs, compute_uv=False)[..., 0])


def all_fields_sup_bounds(sys, scheme, curve, *, delta_prime, seed,
                          n_samples=10_000, inflation=1.1, lie_product=lie_table_matmul,
                          norms=vector_norms, lipschitz=lipschitz_eigvalsh):
    """The batched estimate with every field differentiated, constant ones
    included: the formula before constant fields were skipped.  By default
    it takes the package's kernels, so it agrees with the estimate to the
    last bit; the einsum, SVD and np.linalg.norm kernels it took before
    give the same numbers up to rounding."""
    xs = tube_samples(sys.n, curve, delta_prime=delta_prime, n_samples=n_samples,
                      seed=seed)
    gains = gain_matrices(sys, scheme, xs)

    def lie_table(x):
        vals = np.stack([f.eval(x) for f in sys.fields], axis=1)
        jacs = np.stack([f.jacobian(x) for f in sys.fields], axis=1)
        return vals, jacs, lie_product(jacs, vals)

    vals, jacs, first = lie_table(xs)
    m1 = np.max(norms(vals))
    lip = lipschitz(jacs)
    m2 = np.max(norms(first))
    step = 1e-5 * np.maximum(1.0, _row_norms(xs))
    total = np.zeros(n_samples)
    for j3 in range(sys.m):
        w = vals[:, j3]
        wn = _row_norms(w)
        scale = np.divide(step, wn, out=np.zeros(n_samples), where=wn != 0.0)
        offset = scale[:, None] * w
        gap = lie_table(xs + offset)[2] - lie_table(xs - offset)[2]
        deriv = gap * (wn / (2.0 * step))[:, None, None, None]
        total += np.sum(norms(deriv), axis=(1, 2))
    m3 = np.max(total / 6.0)
    mu = np.max(1.0 / gains.singular_values[:, -1])
    return SupBounds(M1=inflation * float(m1), M2=inflation * float(m2),
                     M3=inflation * float(m3), L=inflation * float(lip),
                     mu=inflation * float(mu))


@pytest.mark.parametrize("seed", [0, 1001, 7])
@pytest.mark.parametrize("name, delta_prime", [
    ("unicycle", 2.5), ("underwater", 0.5), ("car", 0.5)])
def test_estimate_sup_bounds_equals_all_fields_formula(name, delta_prime, seed):
    """Skipping the constant fields' zero Jacobians changes no bit.  Seed 0
    on the underwater vehicle moves M3 by one ulp if the zero rows of the
    Lie table are dropped instead of kept."""
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    kwargs = dict(delta_prime=delta_prime, seed=seed)
    assert (estimate_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs)
            == all_fields_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs))


@pytest.mark.parametrize("seed", [0, 1001, 7])
@pytest.mark.parametrize("name, delta_prime", [
    ("unicycle", 2.5), ("underwater", 0.5), ("car", 0.5)])
def test_estimate_sup_bounds_matches_the_einsum_and_svd_formula(name, delta_prime,
                                                                 seed):
    """The matmul Lie tables, the eigenvalues of J^T J and the summed
    squares give the sups of the einsum, the Jacobian SVD and
    np.linalg.norm up to rounding: L moves by an ulp (1.1000000000000003
    to 1.1 on the unicycle) and the underwater M3 by 2.3e-14 at most."""
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    kwargs = dict(delta_prime=delta_prime, seed=seed)
    got = estimate_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs)
    want = all_fields_sup_bounds(
        scenario.system, scenario.scheme, curve, lie_product=lie_table_einsum,
        norms=lambda v: np.linalg.norm(v, axis=-1), lipschitz=lipschitz_svd, **kwargs)
    np.testing.assert_allclose(list(got), list(want), rtol=1e-13, atol=0.0)


def test_estimate_sup_bounds_all_constant_fields():
    """With no state-dependent field, L, M2 and M3 are exactly zero, as the
    all-fields formula gives, and no Jacobian is called: a constant field's
    Jacobian is zero by construction, whatever callable it carries."""
    def never(x):
        raise AssertionError("a constant field's Jacobian was called")

    fields = (VectorField(dim=2, value=[1.0, 0.0], name="e1"),
              VectorField(dim=2, value=[0.0, 1.0], name="e2"))
    sys_c = ControlSystem(n=2, m=2, fields=fields)
    sys_never = ControlSystem(n=2, m=2, fields=tuple(
        replace(f, jacobian=never) for f in fields))
    scheme = BracketScheme(m=2, s1=(1, 2))
    curve = fixed_target(np.array([0.5, -0.5]))
    kwargs = dict(delta_prime=0.5, n_samples=500, seed=2)
    want = all_fields_sup_bounds(sys_c, scheme, curve, **kwargs)
    assert want.M2 == want.M3 == want.L == 0.0
    assert estimate_sup_bounds(sys_never, scheme, curve, **kwargs) == want


def test_estimate_sup_bounds_validation(unicycle, gamma1):
    for overrides in ({"delta_prime": 0.0}, {"delta_prime": -1.0},
                      {"delta_prime": np.inf}, {"delta_prime": np.nan},
                      {"n_samples": 0}):
        kwargs = {"delta_prime": 2.5, **overrides}
        with pytest.raises(UsageError):
            estimate_sup_bounds(unicycle, UNICYCLE_SCHEME, gamma1, **kwargs)


def test_estimate_sup_bounds_singular_gain():
    # Second column is x1 times the first: the gain matrix is singular
    # everywhere, which certification must refuse at the first sample.
    f1 = VectorField(dim=2, eval=constant(1.0, 0.0), jacobian=zero_jacobian)
    f2 = VectorField(dim=2, eval=lambda x: components(x[..., 0], 0.0),
                     jacobian=lambda x: np.broadcast_to([[1.0, 0.0], [0.0, 0.0]],
                                                        x.shape + (2,)))
    sys_bad = ControlSystem(n=2, m=2, fields=(f1, f2))
    scheme = BracketScheme(m=2, s1=(1, 2))
    curve = fixed_target(np.zeros(2))
    with pytest.raises(CertificationError, match="gain matrix singular") as exc:
        estimate_sup_bounds(sys_bad, scheme, curve, delta_prime=0.5, n_samples=50)
    xs = tube_samples(2, curve, delta_prime=0.5, n_samples=50, seed=0)
    assert str(xs[0]) in str(exc.value)


def test_estimate_sup_bounds_domain_exit(gamma1):
    fields = unicycle_fields()
    sys_small = ControlSystem(n=3, m=2, fields=fields,
                              domain=lambda x: np.linalg.norm(x, axis=-1) < 1.0)
    with pytest.raises(CertificationError, match="leaves the system domain") as exc:
        estimate_sup_bounds(sys_small, UNICYCLE_SCHEME, gamma1,
                            delta_prime=2.5, n_samples=50)
    xs = tube_samples(3, gamma1, delta_prime=2.5, n_samples=50, seed=0)
    first = int(np.argmax(np.linalg.norm(xs, axis=1) >= 1.0))
    assert str(xs[first]) in str(exc.value)


def test_estimate_sup_bounds_reports_the_first_offending_sample():
    """Singular where x1 <= 0, outside the domain where x2 >= 0.3: the
    sample reported is the first of either kind, in sample order."""
    f1 = VectorField(dim=2, eval=constant(1.0, 0.0))
    f2 = VectorField(dim=2, eval=lambda x: components(0.0, np.maximum(x[..., 0], 0.0)))
    sys_mixed = ControlSystem(n=2, m=2, fields=(f1, f2),
                              domain=lambda x: x[..., 1] < 0.3)
    scheme = BracketScheme(m=2, s1=(1, 2))
    curve = fixed_target(np.zeros(2))
    kinds = set()
    for seed in range(8):
        xs = tube_samples(2, curve, delta_prime=0.5, n_samples=20, seed=seed)
        outside = xs[:, 1] >= 0.3
        first = int(np.argmax(outside | (xs[:, 0] <= 0.0)))
        kind = "leaves the system domain" if outside[first] else "gain matrix singular"
        kinds.add(kind)
        with pytest.raises(CertificationError, match=kind) as exc:
            estimate_sup_bounds(sys_mixed, scheme, curve, delta_prime=0.5,
                                n_samples=20, seed=seed)
        assert str(xs[first]) in str(exc.value)
    assert len(kinds) == 2


@pytest.mark.parametrize("n_samples", [1, 6, 7, 8, 50])
@pytest.mark.parametrize("name, delta_prime", [
    ("unicycle", 2.5), ("underwater", 0.5), ("car", 0.5)])
def test_estimate_sup_bounds_blocks_equal_the_whole_batch(monkeypatch, name,
                                                           delta_prime, n_samples):
    """Blocks of 7 samples, around and across block edges, give the
    whole-batch result to the last bit."""
    monkeypatch.setattr(certify, "_SUP_BLOCK_SAMPLES", 7)
    scenario = get_scenario(name)
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    kwargs = dict(delta_prime=delta_prime, seed=1001, n_samples=n_samples)
    assert (estimate_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs)
            == all_fields_sup_bounds(scenario.system, scenario.scheme, curve, **kwargs))


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("check", [
    test_estimate_sup_bounds_singular_gain,
    test_estimate_sup_bounds_reports_the_first_offending_sample],
    ids=["singular_gain", "first_offending_sample"])
def test_estimate_sup_bounds_offending_sample_in_blocks(monkeypatch, block, check):
    """With blocks of one sample, seeds 1 and 2 of the mixed system find
    their first singular sample (index 2) past the first block."""
    monkeypatch.setattr(certify, "_SUP_BLOCK_SAMPLES", block)
    check()


@pytest.mark.parametrize("block", [7, 10_000])
def test_estimate_sup_bounds_nan_in_a_late_block(monkeypatch, block):
    """A field that is NaN at one tube sample, in the seventh block of 7,
    makes exactly the sups the whole-batch formula makes NaN: M1, M2 and
    M3 (its offset along that field is NaN), not L or mu."""
    monkeypatch.setattr(certify, "_SUP_BLOCK_SAMPLES", block)
    curve = fixed_target(np.zeros(2))
    kwargs = dict(delta_prime=0.5, n_samples=50, seed=4)
    xs = tube_samples(2, curve, **kwargs)
    target = xs[45]
    assert np.sort(np.linalg.norm(xs - target, axis=1))[1] > 1e-3

    def spike(x):
        hit = np.linalg.norm(x - target, axis=-1) < 1e-3
        return components(np.where(hit, np.nan, 0.0), 0.0)

    fields = (VectorField(dim=2, eval=constant(1.0, 0.0), jacobian=zero_jacobian),
              VectorField(dim=2, eval=constant(0.0, 1.0), jacobian=zero_jacobian),
              VectorField(dim=2, eval=spike, jacobian=zero_jacobian))
    sys_nan = ControlSystem(n=2, m=3, fields=fields)
    scheme = BracketScheme(m=3, s1=(1, 2))
    with np.errstate(invalid="ignore"):
        got = estimate_sup_bounds(sys_nan, scheme, curve, **kwargs)
        want = all_fields_sup_bounds(sys_nan, scheme, curve, **kwargs)
    assert list(np.isnan(want)) == [True, True, True, False, False]
    np.testing.assert_array_equal(got, want)


def test_estimate_sup_bounds_nan_jacobian_gives_nan_lipschitz():
    """A Jacobian that holds NaN, here where x1 > 0.3, makes L NaN, as
    the docstring promises, instead of an eigensolver error; its Lie
    table rows make M2 and M3 NaN too, while M1 and mu stay finite."""
    def jacobian(x):  # of (0, 1 + x1^2), NaN in place of 2 x1 where x1 > 0.3
        d = np.where(x[..., 0] > 0.3, np.nan, 2.0 * x[..., 0])
        zero = np.zeros_like(d)
        return np.stack([components(zero, zero), components(d, zero)], axis=-2)

    fields = (VectorField(dim=2, eval=constant(1.0, 0.0), jacobian=zero_jacobian),
              VectorField(dim=2, eval=lambda x: components(0.0, 1.0 + x[..., 0] ** 2),
                          jacobian=jacobian))
    sys_nan = ControlSystem(n=2, m=2, fields=fields)
    scheme = BracketScheme(m=2, s1=(1, 2))
    curve = fixed_target(np.zeros(2))
    kwargs = dict(delta_prime=0.5, n_samples=200, seed=0)
    assert (tube_samples(2, curve, **kwargs)[:, 0] > 0.3).any()
    with np.errstate(invalid="ignore"):
        got = estimate_sup_bounds(sys_nan, scheme, curve, **kwargs)
    assert list(np.isnan(got)) == [False, True, True, True, False]


def test_estimate_sup_bounds_memory_does_not_grow_with_samples():
    """The underwater estimate at 20,000 samples peaks below 16 MB under
    tracemalloc; evaluated whole, its Lie tables alone took about 150 MB."""
    scenario = get_scenario("underwater")
    curve = get_curve(scenario.default_curve, horizon=scenario.horizon)
    tracemalloc.start()
    try:
        estimate_sup_bounds(scenario.system, scenario.scheme, curve, delta_prime=0.5,
                            n_samples=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_volterra_residual_zero_at_reference(unicycle):
    curve = fixed_target(np.array([0.3, -0.2, 0.4]))
    params = ControllerParams(alpha=15.0, epsilon=0.05)
    x0 = np.array([0.3, -0.2, 0.4])
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, curve, x0,
                    SamplerGrid(0.05, 0.05))
    rep = volterra_residual(traj, 15.0, sigma=100.0)
    assert rep.ok
    assert rep.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert rep.bound == 0.0
    assert rep.initial_error_norm == 0.0


def test_volterra_residual_matches_manual_arithmetic(unicycle, gamma1):
    params = ControllerParams(alpha=15.0, epsilon=0.02)
    x0 = np.array([0.0, 0.0, 1.0])
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, gamma1, x0,
                    SamplerGrid(0.02, 0.02))
    gamma0 = np.asarray(gamma1.eval(0.0))
    rep = volterra_residual(traj, 15.0, sigma=3628.0)
    manual = traj.states[traj.substeps] - x0 + 0.02 * 15.0 * (x0 - gamma0)
    assert rep.residual_norm == pytest.approx(
        float(np.linalg.norm(manual)), rel=1e-12)
    assert rep.bound == pytest.approx(
        3628.0 * 0.02 ** 1.5 * np.linalg.norm(x0 - gamma0) ** 1.5, rel=1e-12)
    assert rep.margin == pytest.approx(rep.bound - rep.residual_norm, rel=1e-12)
    assert rep.ok


def test_volterra_residual_validations(unicycle, gamma1):
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    x0 = np.array([0.0, 0.0, 1.0])
    short = simulate(unicycle, UNICYCLE_SCHEME, params, gamma1, x0,
                     SamplerGrid(0.1, 0.04))
    with pytest.raises(UsageError):
        volterra_residual(short, 15.0, sigma=1.0)


def test_volterra_scaling_slope(unicycle, gamma1, unicycle_inputs):
    cert = bound_constants(UNICYCLE_SCHEME, 15.0, unicycle_inputs).certificate
    rep = volterra_scaling(unicycle, UNICYCLE_SCHEME, 15.0,
                           [0.04, 0.02, 0.01, 0.005], gamma1,
                           np.array([0.0, 0.0, 1.0]), sigma=cert.sigma)
    assert 1.3 <= rep.exponent <= 1.8
    assert all(a > b for a, b in zip(rep.residual_norms,
                                     rep.residual_norms[1:]))
    assert all(r.ok for r in rep.reports)


def test_volterra_scaling_needs_two_points(unicycle, gamma1):
    with pytest.raises(UsageError):
        volterra_scaling(unicycle, UNICYCLE_SCHEME, 15.0, [0.04], gamma1,
                         np.array([0.0, 0.0, 1.0]), sigma=1.0)


def test_lemma1_zero_control_degenerate(unicycle):
    point = np.array([0.3, -0.2, 0.4])
    params = ControllerParams(alpha=15.0, epsilon=0.05)
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, fixed_target(point),
                    point, SamplerGrid(0.05, 0.2))
    rep = lemma1_growth_check(traj, M1=1.0, L=1.0)
    assert rep.ok
    assert rep.min_margin == 0.0
    assert np.all(rep.u_sups == 0.0)


def test_lemma1_margins_on_tracking_run(unicycle, gamma1):
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, gamma1,
                    np.array([0.0, 0.0, 1.0]), SamplerGrid(0.1, 2.0))
    rep = lemma1_growth_check(traj, M1=1.0, L=1.0)
    assert rep.ok
    assert rep.interval_margins.size == 20
    assert rep.u_sups.size == 20
    assert rep.min_margin > 0.0
    assert np.all(rep.u_sups > 0.0)


def test_lemma1_flags_violation():
    # A fabricated record that jumps far beyond what its tiny recorded
    # controls could produce must fail the growth bound.
    times = np.array([0.0, 0.05, 0.1])
    states = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    controls = np.full((3, 2), 0.5)
    traj = Trajectory(times=times, states=states,
                      reference=np.zeros((3, 2)), controls=controls,
                      dist=np.zeros(3), dense_dist=np.zeros((2, 4)), epsilon=0.1,
                      substeps=2, n_intervals=1, coefficient_evals=1, semantics="sampled")
    rep = lemma1_growth_check(traj, M1=1.0, L=1.0)
    assert not rep.ok
    assert rep.min_margin < -1.0


def test_lemma1_rejects_bad_m1(unicycle, gamma1):
    params = ControllerParams(alpha=15.0, epsilon=0.1)
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, gamma1,
                    np.array([0.0, 0.0, 1.0]), SamplerGrid(0.1, 0.1))
    for M1, L in [(0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan)]:
        with pytest.raises(UsageError):
            lemma1_growth_check(traj, M1=M1, L=L)


def test_contraction_translation_system_exact():
    # Constant fields obey x_{j+1} - target = (1 - eps*alpha)(x_j - target)
    # exactly, so every draw satisfies the contraction inequality when
    # lam < alpha and none does when the required rate is impossible.
    sys_t = translation_system()
    scheme = BracketScheme(m=2, s1=(1, 2))
    params = ControllerParams(alpha=5.0, epsilon=0.01)
    curve = fixed_target(np.zeros(2))
    rep = contraction_check(sys_t, scheme, params, curve, lam=1.0, nu=0.0,
                            rho_prime=0.25, delta=2.0, n_draws=50, seed=1)
    assert rep.n_pass == rep.n_draws == 50
    assert rep.failed_indices == ()
    assert rep.worst_violation == 0.0
    assert rep.epsilon == 0.01
    # |1 - eps*alpha| = 0.95 > 1 - eps*lam_impossible requires pass rate 0.
    impossible = contraction_check(sys_t, scheme, params, curve, lam=400.0,
                                   nu=0.0, rho_prime=0.25, delta=2.0,
                                   n_draws=20, seed=1)
    assert impossible.n_pass == 0
    assert len(impossible.failed_indices) == 20
    assert impossible.worst_violation > 0.0


def test_contraction_check_validation(unicycle, gamma1):
    params = ControllerParams(alpha=15.0, epsilon=0.01)
    with pytest.raises(UsageError):
        contraction_check(unicycle, UNICYCLE_SCHEME, params, gamma1,
                          lam=1.0, nu=gamma1.nu, rho_prime=1.0, delta=0.5)


def test_contraction_and_volterra_refuse_bad_constants(unicycle, gamma1):
    """NaN passes every sign test, so each constant's range is checked: a
    NaN rate would pass every draw, and a NaN sigma would give a NaN bound."""
    params = ControllerParams(alpha=15.0, epsilon=0.01)
    kwargs = dict(lam=1.0, nu=gamma1.nu, rho_prime=0.25, delta=2.0, n_draws=20)
    for name, value in [("lam", np.nan), ("lam", 0.0), ("lam", -50.0),
                        ("nu", np.nan), ("nu", -5.0)]:
        with pytest.raises(UsageError, match=f"{name} must be"):
            contraction_check(unicycle, UNICYCLE_SCHEME, params, gamma1,
                              **{**kwargs, name: value})
    traj = simulate(unicycle, UNICYCLE_SCHEME, params, gamma1,
                    np.array([0.0, 0.0, 1.0]), SamplerGrid(0.01, 0.01))
    with pytest.raises(UsageError, match="sigma must be"):
        volterra_residual(traj, 15.0, sigma=np.nan)


def reference_contraction_check(sys, scheme, params, curve, *, lam, nu, rho_prime,
                                delta, n_draws=100, seed=0):
    """Oracle: the one-step contraction check run one draw at a time."""
    rng = np.random.default_rng(seed)
    gamma0 = np.asarray(curve.eval(0.0), dtype=float)
    eps = params.epsilon
    factor = 1.0 - eps * (lam + nu / rho_prime)
    failed = []
    worst = 0.0
    for i in range(n_draws):
        direction = rng.normal(size=sys.n)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(rho_prime, delta)
        x0 = gamma0 + radius * direction
        traj = simulate(sys, scheme, params, curve, x0, SamplerGrid(eps, eps))
        lhs = float(np.linalg.norm(traj.states[-1]
                                   - np.asarray(curve.eval(eps), dtype=float)))
        rhs = radius * factor + eps * nu
        if lhs > rhs + 1e-12:
            failed.append(i)
            worst = max(worst, lhs - rhs)
    return n_draws - len(failed), tuple(failed), worst


@pytest.mark.parametrize("eps", ["eps_hat", 0.05, 0.08])
def test_contraction_check_matches_per_draw_oracle(unicycle, gamma1, unicycle_inputs,
                                                   eps):
    """The batched draws give the per-draw loop's verdicts exactly; at 0.05
    and 0.08 some draws fail, so the failure bookkeeping is exercised."""
    if eps == "eps_hat":
        eps = bound_constants(UNICYCLE_SCHEME, 15.0, unicycle_inputs).certificate.eps_hat
    params = ControllerParams(alpha=15.0, epsilon=eps)
    kwargs = dict(lam=unicycle_inputs.lam, nu=unicycle_inputs.nu,
                  rho_prime=unicycle_inputs.rho_prime, delta=unicycle_inputs.delta,
                  n_draws=100, seed=1)
    rep = contraction_check(unicycle, UNICYCLE_SCHEME, params, gamma1, **kwargs)
    want = reference_contraction_check(unicycle, UNICYCLE_SCHEME, params, gamma1,
                                       **kwargs)
    assert (rep.n_pass, rep.failed_indices, rep.worst_violation) == want
    assert rep.n_draws == 100 and rep.epsilon == eps
    assert (rep.n_pass < 100) == (eps > 0.01)


def test_contraction_check_raises_the_first_stopped_draw():
    """With alpha * eps = 2.5 each start x0 overshoots to -1.5 x0, so the
    draws with radius above 2.2 / 1.5 leave the disc |x| < 2.2 during the
    interval; the batch raises the loop's error, that of the first one."""
    one, two = translation_system().fields
    sys_t = ControlSystem(n=2, m=2, fields=(one, two), name="translation-disc",
                          domain=lambda x: np.linalg.norm(x, axis=-1) < 2.2)
    scheme = BracketScheme(m=2, s1=(1, 2))
    params = ControllerParams(alpha=250.0, epsilon=0.01)
    curve = fixed_target(np.zeros(2))
    kwargs = dict(lam=1.0, nu=0.0, rho_prime=0.25, delta=2.0, n_draws=30, seed=3)
    with pytest.raises(SimulationError) as batched:
        contraction_check(sys_t, scheme, params, curve, **kwargs)
    with pytest.raises(SimulationError) as looped:
        reference_contraction_check(sys_t, scheme, params, curve, **kwargs)
    got, want = batched.value, looped.value
    assert got.reason == want.reason == "domain-exit"
    assert (got.time, str(got)) == (want.time, str(want))
    assert np.array_equal(got.partial.states, want.partial.states)


def empirical_period(scenario, curve, alpha, inputs, *, n_draws=100, seed=0):
    """eps*: the largest eps on the grid 2^-1, 2^-2, ..., 2^-40 at which
    every contraction draw passes; a draw that stops early fails the eps.
    Scanned from the top, so the first eps that passes is eps*."""
    for eps in 2.0 ** -np.arange(1.0, 41.0):
        try:
            rep = contraction_check(
                scenario.system, scenario.scheme, ControllerParams(alpha, eps), curve,
                lam=inputs.lam, nu=inputs.nu, rho_prime=inputs.rho_prime,
                delta=inputs.delta, n_draws=n_draws, seed=seed)
        except SimulationError:
            continue
        if rep.n_pass == rep.n_draws:
            return float(eps)
    return 0.0


def test_certified_period_within_the_empirical_one(unicycle_inputs):
    """eps_hat <= eps*: the certificate never promises contraction at a
    period where the draws show none.  The unicycle uses the analytic
    inputs, the underwater vehicle the sampled tube bounds of
    ``osctrack certify --scenario underwater --empirical --bound-samples 500
    --delta-prime 0.5 --delta 0.4 --rho-prime 0.2 --rho 0.3``."""
    unicycle = get_scenario("unicycle")
    cert = bound_constants(unicycle.scheme, 15.0, unicycle_inputs).certificate
    eps_star = empirical_period(unicycle, get_curve("gamma1", horizon=1.0), 15.0,
                                unicycle_inputs)
    assert cert.eps_hat <= eps_star

    vehicle = get_scenario("underwater")
    curve = get_curve(vehicle.default_curve, horizon=vehicle.horizon)
    sup = estimate_sup_bounds(vehicle.system, vehicle.scheme, curve, delta_prime=0.5,
                              n_samples=500, seed=0)
    inputs = CertificateInputs(
        r=3.0, rho=0.3, rho_prime=0.2, delta=0.4, delta_prime=0.5, mu=sup.mu,
        nu=curve.nu, M1=sup.M1, M2=sup.M2, M3=sup.M3, L=sup.L, lam=1.0,
        provenance="empirical")
    rep = bound_constants(vehicle.scheme, vehicle.default_params.alpha, inputs)
    assert rep.ok, rep.detail
    eps_star = empirical_period(vehicle, curve, vehicle.default_params.alpha, inputs)
    assert rep.certificate.eps_hat <= eps_star
