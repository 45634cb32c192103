"""Three benchmark systems with analytic fields and ready-to-run defaults.

Each scenario bundles a control system (with hand-written Jacobians; the
fields, Jacobians and domain predicates all take batches of states; one
field of each is constant, built from its value), the
bracket scheme that makes its gain matrix square, default controller
parameters, a default reference curve name, a default initial state, and
a simulation horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ControllerParams
from .errors import UsageError
from .systems import BracketScheme, ControlSystem, NestedBracketTerm, VectorField


@dataclass(frozen=True)
class Scenario:
    name: str
    system: ControlSystem
    scheme: BracketScheme
    default_params: ControllerParams
    default_curve: str
    default_x0: np.ndarray
    horizon: float


# The fields below take states of shape (..., n).  They read coordinate k
# as x.T[k] and fill component i of a result through its transposed view:
# out.T[i] for a value, jac.T[k, i] for the derivative of component i
# along x_k.  For a single state these are plain scalars, which keeps the
# integrator's one-state calls cheap.

def unicycle() -> Scenario:
    """Kinematic unicycle: planar position plus heading, m = 2.

    u1 drives forward speed, u2 the heading rate.  Sideways motion is
    unlocked through the bracket of the two fields, so the scheme pairs
    (1, 2) at unit frequency.  The gain matrix is orthogonal everywhere,
    which makes this the cleanest system for certification studies.
    """
    def f1_eval(x):
        th = x.T[2]
        out = np.zeros(x.shape)
        o = out.T
        o[0], o[1] = np.cos(th), np.sin(th)
        return out

    def f1_jac(x):
        th = x.T[2]
        jac = np.zeros(x.shape + (3,))
        d = jac.T
        d[2, 0], d[2, 1] = -np.sin(th), np.cos(th)
        return jac

    f1 = VectorField(dim=3, eval=f1_eval, jacobian=f1_jac, name="forward")
    turn = VectorField(dim=3, value=np.eye(3)[2], name="turn")
    system = ControlSystem(n=3, m=2, fields=(f1, turn), name="unicycle")
    scheme = BracketScheme(m=2, s1=(1, 2), s2=((1, 2),), kappa=(1,))
    return Scenario(
        name="unicycle",
        system=system,
        scheme=scheme,
        default_params=ControllerParams(alpha=15.0, epsilon=0.1),
        default_curve="gamma1",
        default_x0=np.array([0.0, 0.0, 1.0]),
        horizon=40.0,
    )


def underwater_vehicle() -> Scenario:
    """Six-state kinematic underwater vehicle.

    States are the center of mass (x1, x2, x3) and Euler angles
    (x4, x5, x6); u1 is the translational speed along the body axis and
    u2..u4 are angular rates.  The pitch singularity keeps the domain at
    |x5| < pi/2.  Lateral and vertical translation come from the
    brackets [f1, f3] and [f1, f4] at frequencies 1 and 2; u2 stays
    unoscillated because channel 2 sits in no bracket pair.
    """
    def f1_eval(x):
        c5, s5 = np.cos(x.T[4]), np.sin(x.T[4])
        c6, s6 = np.cos(x.T[5]), np.sin(x.T[5])
        out = np.zeros(x.shape)
        o = out.T
        o[0], o[1], o[2] = c5 * c6, c5 * s6, -s5
        return out

    def f1_jac(x):
        c5, s5 = np.cos(x.T[4]), np.sin(x.T[4])
        c6, s6 = np.cos(x.T[5]), np.sin(x.T[5])
        jac = np.zeros(x.shape + (6,))
        d = jac.T
        d[4, 0], d[5, 0] = -s5 * c6, -c5 * s6
        d[4, 1], d[5, 1] = -s5 * s6, c5 * c6
        d[4, 2] = -c5
        return jac

    def angular_field(name, rotated):
        """(0, 0, 0, a tan x5, b, a sec x5) with (a, b) = (sin x4, cos x4),
        or (cos x4, -sin x4) when rotated; either way da/dx4 = b and
        db/dx4 = -a."""
        def ab(x):
            c4, s4 = np.cos(x.T[3]), np.sin(x.T[3])
            return (c4, -s4) if rotated else (s4, c4)

        def f_eval(x):
            a, b = ab(x)
            out = np.zeros(x.shape)
            o = out.T
            o[3], o[4], o[5] = a * np.tan(x.T[4]), b, a / np.cos(x.T[4])
            return out

        def f_jac(x):
            a, b = ab(x)
            t5 = np.tan(x.T[4])
            sec5 = 1.0 / np.cos(x.T[4])
            jac = np.zeros(x.shape + (6,))
            d = jac.T
            # np.square, not ** 2: on a numpy scalar ** 2 calls pow, which
            # can differ in the last bit from an array's square, and one
            # state must give the same Jacobian alone as in a batch.
            d[3, 3], d[4, 3] = b * t5, a * np.square(sec5)
            d[3, 4] = -a
            d[3, 5], d[4, 5] = b * sec5, a * sec5 * t5
            return jac

        return VectorField(dim=6, eval=f_eval, jacobian=f_jac, name=name)

    fields = (
        VectorField(dim=6, eval=f1_eval, jacobian=f1_jac, name="surge"),
        VectorField(dim=6, value=np.eye(6)[3], name="roll"),
        angular_field("pitch", rotated=False),
        angular_field("yaw", rotated=True),
    )
    system = ControlSystem(
        n=6, m=4, fields=fields,
        domain=lambda x: abs(x.T[4]) < np.pi / 2,
        name="underwater",
    )
    scheme = BracketScheme(m=4, s1=(1, 2, 3, 4), s2=((1, 3), (1, 4)),
                           kappa=(1, 2))
    return Scenario(
        name="underwater",
        system=system,
        scheme=scheme,
        default_params=ControllerParams(alpha=15.0, epsilon=0.1),
        default_curve="gamma4_underwater",
        default_x0=np.array([0.0, 0.0, -1.0, np.pi / 4, np.pi / 4, np.pi / 4]),
        horizon=40.0,
    )


def rear_wheel_car() -> Scenario:
    """Rear-wheel driving car, a degree-two system.

    States: rear-axle position (x1, x2), steering angle x3, heading x4.
    Sideways translation needs the nested bracket [[f1, f2], f1], so the
    scheme carries a degree-two term for the triple (1, 2, 1) on top of
    the first-order pair.  The three oscillators run at pairwise
    distinct frequencies (3 for the pair, 1 and 2 for the triple).  The
    default gain and period keep alpha * epsilon well below 1, the
    regime in which the sampled error map contracts.
    """
    def f1_eval(x):
        th = x.T[3]
        out = np.zeros(x.shape)
        o = out.T
        o[0], o[1], o[3] = np.cos(th), np.sin(th), np.tan(x.T[2])
        return out

    def f1_jac(x):
        th = x.T[3]
        jac = np.zeros(x.shape + (4,))
        d = jac.T
        d[3, 0], d[3, 1] = -np.sin(th), np.cos(th)
        d[2, 3] = 1.0 / np.square(np.cos(x.T[2]))  # not ** 2: see underwater_vehicle
        return jac

    system = ControlSystem(
        n=4, m=2,
        fields=(VectorField(dim=4, eval=f1_eval, jacobian=f1_jac, name="drive"),
                VectorField(dim=4, value=np.eye(4)[2], name="steer")),
        domain=lambda x: abs(x.T[2]) < np.pi / 2,
        name="car",
    )
    scheme = BracketScheme(
        m=2, s1=(1, 2), s2=((1, 2),), kappa=(3,),
        degree2=(NestedBracketTerm(triple=(1, 2, 1), k1=1, k2=2),),
    )
    return Scenario(
        name="car",
        system=system,
        scheme=scheme,
        default_params=ControllerParams(alpha=10.0, epsilon=0.02),
        default_curve="gamma4_car",
        default_x0=np.array([8.0, 0.0, 0.0, 0.0]),
        horizon=60.0,
    )


SCENARIO_REGISTRY = {
    "unicycle": unicycle,
    "underwater": underwater_vehicle,
    "car": rear_wheel_car,
}


def get_scenario(name: str) -> Scenario:
    try:
        factory = SCENARIO_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_REGISTRY))
        raise UsageError(f"unknown scenario {name!r}; known scenarios: {known}") \
            from None
    return factory()
