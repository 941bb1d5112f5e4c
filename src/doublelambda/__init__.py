"""Probe-to-signal conversion in double-lambda media under spatial control.

Simulates the steady-state propagation of a weak probe/signal pair through a
coherently prepared four-level medium, builds the optimal, constant-slope and
adiabatic control protocols, and evaluates conversion efficiencies both in
closed form and numerically, with independent cross-checks at every layer.
"""

from .bloch_steady import (
    CoherenceSolution,
    DriveFields,
    Rates,
    projector_matrix,
    steady_coherences,
)
from .efficiency import (
    closed_efficiency,
    constant_efficiency_closed,
    numerical_efficiency,
    optimal_efficiency_closed,
)
from .errors import (
    DoubleLambdaError,
    InvalidAlpha,
    InvalidSearchSettings,
    InvalidZbar,
    NonFinite,
    ProfileDomainMismatch,
    SingularSystem,
)
from .pmp_search import (
    AdjointState,
    SearchResult,
    optimize_piecewise,
    piecewise_efficiency,
    piecewise_efficiency_and_grad,
    sampled_profile_efficiencies,
    singular_arc_checks,
    verify_singular_arc,
)
from .propagation import (
    AdiabaticState,
    AdiabaticTrajectory,
    ControlSchedule,
    FieldState,
    IntegratorOptions,
    Trajectory,
    adiabatic_initial,
    dissipation_order,
    dissipation_residual,
    from_adiabatic,
    propagate_adiabatic,
    propagate_exact,
    propagate_piecewise_exact,
    propagate_reduced,
    propagate_reduced_chunks,
    schedule_from_profile,
    segment_step,
    to_adiabatic,
)
from .protocols import (
    ThetaProfile,
    adiabatic_protocol,
    build_profile,
    constant_protocol,
    load_profile_table,
    optimal_protocol,
    solve_theta0,
    theta0_complement,
    tabulated_protocol,
    theta_to_controls,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticState",
    "AdiabaticTrajectory",
    "AdjointState",
    "CoherenceSolution",
    "ControlSchedule",
    "DoubleLambdaError",
    "DriveFields",
    "FieldState",
    "IntegratorOptions",
    "InvalidAlpha",
    "InvalidSearchSettings",
    "InvalidZbar",
    "NonFinite",
    "ProfileDomainMismatch",
    "Rates",
    "SearchResult",
    "SingularSystem",
    "ThetaProfile",
    "Trajectory",
    "adiabatic_initial",
    "adiabatic_protocol",
    "build_profile",
    "closed_efficiency",
    "constant_efficiency_closed",
    "constant_protocol",
    "dissipation_order",
    "dissipation_residual",
    "from_adiabatic",
    "load_profile_table",
    "numerical_efficiency",
    "optimal_efficiency_closed",
    "optimal_protocol",
    "optimize_piecewise",
    "piecewise_efficiency",
    "piecewise_efficiency_and_grad",
    "projector_matrix",
    "propagate_adiabatic",
    "propagate_exact",
    "propagate_piecewise_exact",
    "propagate_reduced",
    "propagate_reduced_chunks",
    "sampled_profile_efficiencies",
    "schedule_from_profile",
    "segment_step",
    "singular_arc_checks",
    "solve_theta0",
    "steady_coherences",
    "tabulated_protocol",
    "theta0_complement",
    "theta_to_controls",
    "to_adiabatic",
    "verify_singular_arc",
]
