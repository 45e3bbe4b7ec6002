"""Continuous qubit measurement: stochastic trajectories, output-signal
correlators via collapse-recipe and closed-form routes, and detector
calibration from synthetic raw records."""

from .core import (
    ConfigError,
    CorrelatorResult,
    DetectorModel,
    DiagnosticError,
    EnsembleGenerator,
    TimeGrid,
    as_bloch,
    check_segments,
    rabi_mhz,
    rabi_rad_per_us,
    require_physical,
)
from .ensemble import (
    Propagator,
    dephasing_matrix,
    evolve,
    propagator,
    rabi_dephasing_generator,
    rotation_matrix,
)
from .gcr import (
    CorrelatorSpec,
    ZxDemoSetup,
    collapsed_state,
    correlator_enumerate,
    correlator_recursive,
    correlator_time_averaged,
    cross_correlator_zx_demo,
    outcome_probability,
)
from .analytic import (
    PhaseFit,
    RabiCaseParams,
    c_factor,
    delta_k,
    fit_phase_angle,
    k_analytic_averaged,
    k_analytic_pointwise,
    k_qrf_baseline,
)
from .trajectory import (
    EnsembleArchive,
    NoisePlan,
    run_ensemble,
    simulate_states,
    step_ito,
    synthesize_raw,
)
from .calibration import (
    CalibrationRun,
    estimate_correlator,
    estimate_response,
    estimate_tau_m,
    integrate_traces,
)

__all__ = [
    "ConfigError",
    "DiagnosticError",
    "DetectorModel",
    "EnsembleGenerator",
    "TimeGrid",
    "CorrelatorResult",
    "as_bloch",
    "require_physical",
    "check_segments",
    "rabi_rad_per_us",
    "rabi_mhz",
    "Propagator",
    "propagator",
    "evolve",
    "rabi_dephasing_generator",
    "dephasing_matrix",
    "rotation_matrix",
    "CorrelatorSpec",
    "collapsed_state",
    "outcome_probability",
    "correlator_enumerate",
    "correlator_recursive",
    "correlator_time_averaged",
    "cross_correlator_zx_demo",
    "ZxDemoSetup",
    "RabiCaseParams",
    "c_factor",
    "k_analytic_pointwise",
    "k_analytic_averaged",
    "delta_k",
    "k_qrf_baseline",
    "fit_phase_angle",
    "PhaseFit",
    "NoisePlan",
    "step_ito",
    "simulate_states",
    "synthesize_raw",
    "run_ensemble",
    "EnsembleArchive",
    "CalibrationRun",
    "integrate_traces",
    "estimate_response",
    "estimate_tau_m",
    "estimate_correlator",
]

__version__ = "0.1.0"
