"""Predissociation resonances of crossing 1-D potential curves.

Two analytic potentials cross transversally at the origin: one carries a
well (closed channel), the other is open to the right.  A first-order
coupling turns the well's Bohr-Sommerfeld levels into resonances whose
exponentially small widths this package computes twice — from the
semiclassical formula built on action integrals and the Agmon distance,
and from a complex-scaled matrix discretization of the full two-channel
operator — and then reconciles.
"""

from .actions import (
    PhaseIntegrals,
    action,
    action_and_derivative,
    agmon_distance,
    integrate_endpoint_singular,
    phase_integrals,
)
from .errors import (
    BarrierViolation,
    BracketFailure,
    ConfigError,
    ContourEvaluationError,
    CrossingMismatch,
    DegenerateEnergy,
    EigensolveFailure,
    EmptyInterval,
    EvalDomainError,
    ExpressionError,
    InsufficientData,
    InvalidAngle,
    NewtonDivergence,
    NoExit,
    NoWell,
    PredissocError,
)
from .expressions import AnalyticExpr, differentiate, parse_expression
from .potentials import (
    CrossingData,
    EnergyWindow,
    PotentialSystem,
    ValidationReport,
    crossing_data,
    validate_assumptions,
)
from .runner import (
    RunConfig,
    ScanResult,
    fit_width_slope,
    parse_config,
    pin_level_h,
    run_command,
    run_scan,
)
from .solver import (
    ComparisonRecords,
    DiscretizationConfig,
    HamiltonianMatrix,
    ResonanceRecord,
    build_hamiltonian,
    compare_with_direct,
    compute_resonances,
    match_resonances,
    theta_stability,
)
from .spectrum import (
    QuantizationResidual,
    RefinedResonance,
    ResonanceEstimate,
    TransitionElements,
    bohr_sommerfeld_levels,
    quantization_residual,
    resonance_estimates,
    solve_quantization,
    transition_elements,
    width_from_parts,
    width_leading,
)
from .turning_points import barrier_points, find_exit_point, find_well_endpoints

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "AnalyticExpr", "parse_expression", "differentiate",
    # potentials
    "PotentialSystem", "EnergyWindow", "CrossingData", "ValidationReport",
    "crossing_data", "validate_assumptions",
    # turning points
    "find_well_endpoints", "find_exit_point", "barrier_points",
    # actions
    "PhaseIntegrals", "action", "action_and_derivative", "agmon_distance",
    "phase_integrals", "integrate_endpoint_singular",
    # spectrum
    "ResonanceEstimate", "TransitionElements", "QuantizationResidual",
    "RefinedResonance", "bohr_sommerfeld_levels", "width_from_parts",
    "width_leading", "resonance_estimates", "transition_elements",
    "quantization_residual", "solve_quantization",
    # solver
    "DiscretizationConfig", "HamiltonianMatrix", "ResonanceRecord",
    "ComparisonRecords", "build_hamiltonian", "compute_resonances",
    "theta_stability", "match_resonances", "compare_with_direct",
    # runner
    "RunConfig", "ScanResult", "parse_config", "pin_level_h",
    "fit_width_slope", "run_scan", "run_command",
    # errors
    "PredissocError", "ExpressionError", "EvalDomainError",
    "CrossingMismatch", "NoWell", "NoExit", "BracketFailure",
    "NewtonDivergence", "DegenerateEnergy", "BarrierViolation", "EmptyInterval",
    "InvalidAngle", "InsufficientData", "EigensolveFailure",
    "ContourEvaluationError", "ConfigError",
]
