"""Exact self-similar solutions of the two-component Camassa-Holm system.

The package constructs the four admissible solution families driven by an
Emden-type scale-factor ODE, detects finite-time collapse of the scale
factor (density blowup), and verifies the constructions numerically:
PDE residuals under grid refinement, mass values and conservation,
blowup rates, and long-time decay.

The public names below are resolved from their submodules on first use
(PEP 562), so ``import ch2exact`` itself loads no numpy.  That lets
``ch2exact.cli`` set up the process before numpy starts.
"""

import importlib

_EXPORTS = {
    "emden": (
        "DEFAULT_TOL",
        "REL_STOP",
        "S_AGREEMENT_TOL",
        "BlowupReport",
        "Classification",
        "CollapseSingularity",
        "EmdenParams",
        "IntegrationFailure",
        "InvalidEnergy",
        "Trajectory",
        "analyze",
        "analyze_many",
        "classify",
        "collapse_time_quadrature",
        "detect_collapse",
        "energy",
        "integrate_many",
        "node_energies",
    ),
    "selfsim": (
        "SolutionCase",
        "profile",
    ),
    "verify": (
        "COLLAPSE_TIME_MARGIN",
        "DEFAULT_SUPPORT_MARGIN",
        "GridError",
        "SpaceTimeGrid",
        "Tolerances",
        "mass",
        "mass_residual_field",
        "momentum_residual_field",
        "run_battery",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
