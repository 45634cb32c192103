#!/usr/bin/env python3
"""Compute a certified sampling period and verify it empirically.

The closed-form certificate takes bounds on the fields (norm, Lipschitz,
curvature), the curve velocity, and the gain geometry, and returns a
period eps_hat below which every sampling interval provably contracts
the tracking error.  The numbers are conservative; the point of this
demo is that they are checkable: at eps_hat, 100 random starts in the
annulus all contract in one step, and the first-interval remainder
scales with the 3/2 power the expansion predicts, under the certified
prefactor.
"""

from osctrack import (
    CertificateInputs,
    ControllerParams,
    bound_constants,
    contraction_check,
    get_curve,
    get_scenario,
    volterra_scaling,
)


def main():
    scenario = get_scenario("unicycle")
    curve = get_curve("gamma1", horizon=1.0)

    # Unicycle fields have unit norm and unit Jacobian bound everywhere,
    # so the analytic inputs are exact, not estimates.
    inputs = CertificateInputs(
        r=3.0, rho=0.5, rho_prime=0.25, delta=2.0, delta_prime=2.5,
        mu=1.0, nu=curve.nu, M1=1.0, M2=1.0, M3=1.0 / 6.0, L=1.0, lam=1.0)
    report = bound_constants(scenario.scheme, 15.0, inputs)
    cert = report.certificate
    print("certificate:", report.detail)
    for key, value in cert.as_dict().items():
        print(f"  {key:>15}: {value}")

    rep = contraction_check(
        scenario.system, scenario.scheme,
        ControllerParams(alpha=15.0, epsilon=cert.eps_hat), curve,
        lam=inputs.lam, nu=inputs.nu, rho_prime=inputs.rho_prime,
        delta=inputs.delta, n_draws=100, seed=0)
    print(f"\none-step contraction at eps_hat: {rep.n_pass}/100 starts")

    scaling = volterra_scaling(
        scenario.system, scenario.scheme, 15.0, (0.04, 0.02, 0.01, 0.005),
        curve, scenario.default_x0, sigma=cert.sigma)
    print(f"remainder exponent vs epsilon: {scaling.exponent:.3f} "
          f"(theory 3/2)")
    for eps, r in zip(scaling.epsilons, scaling.reports):
        print(f"  eps={eps:<6g} |R| = {r.residual_norm:.3e}  "
              f"bound = {r.bound:.3e}  ok = {r.ok}")


if __name__ == "__main__":
    main()
