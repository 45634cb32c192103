"""Oscillating feedback for tracking non-admissible curves.

Library for driftless control-affine systems: sampled-feedback control
synthesis using Lie-bracket directions, reference-curve utilities,
fixed-step simulation under both sampled and classical semantics,
stability metrics, and certified sampling-period bounds.
"""

from .errors import (
    CertificationError,
    DimensionMismatchError,
    DomainError,
    OscTrackError,
    RankConditionError,
    SimulationError,
    UnsupportedSchemeError,
    UsageError,
)
from .systems import (
    BracketScheme,
    ControlSystem,
    NestedBracketTerm,
    VectorField,
    bracket_field,
    build_gain_matrix,
    finite_difference_jacobian,
    lie_bracket,
)
from .controller import (
    ControllerParams,
    coefficients,
    make_control_function,
)
from .curves import (
    CURVE_REGISTRY,
    ReferenceCurve,
    get_curve,
)
from .expressions import curve_from_expression
from .integrator import (
    SamplerGrid,
    Trajectory,
    classic_solution_simulate,
    default_substeps,
    simulate,
)
from .metrics import (
    GapReport,
    admissible_vs_nonadmissible_gap,
    entry_time,
    stability_report,
    steady_amplitude,
    tail_error,
)
from .scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    get_scenario,
)
from .certify import (
    CertificateInputs,
    bound_constants,
    contraction_check,
    control_magnitude_constants,
    estimate_sup_bounds,
    lemma1_growth_check,
    sigma_value,
    volterra_residual,
    volterra_scaling,
)

__version__ = "0.1.0"
