"""Exact self-similar solutions of the two-component Camassa-Holm system.

The package constructs the four admissible solution families driven by an
Emden-type scale-factor ODE, detects finite-time collapse of the scale
factor (density blowup), and verifies the constructions numerically:
PDE residuals under grid refinement, mass values and conservation,
blowup rates, and long-time decay.
"""

from .emden import (
    DEFAULT_TOL,
    REL_STOP,
    S_AGREEMENT_TOL,
    BlowupReport,
    Classification,
    CollapseSingularity,
    EmdenParams,
    EmdenState,
    IntegrationFailure,
    InvalidEnergy,
    Trajectory,
    analyze,
    analyze_many,
    classify,
    collapse_time_quadrature,
    detect_collapse,
    energy,
    growth_asymptote,
    integrate,
    integrate_many,
    node_energies,
    orbit_time_integral,
    rhs,
)
from .selfsim import (
    FieldSample,
    SolutionCase,
    SupportBoundaryError,
    TimeOutOfRange,
    density,
    profile,
    profile_derivative,
    sample,
    support,
    velocity,
)
from .verify import (
    COLLAPSE_TIME_MARGIN,
    DEFAULT_SUPPORT_MARGIN,
    ConservationReport,
    GridError,
    ResidualReport,
    SpaceTimeGrid,
    Tolerances,
    blowup_rate,
    mass,
    mass_conservation,
    mass_residual_field,
    momentum_residual_field,
    origin_decay,
    residual_mass_eq,
    residual_momentum_eq,
    run_battery,
)

__version__ = "0.1.0"
