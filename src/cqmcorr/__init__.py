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
    rabi_rad_per_us,
    require_physical,
)
from .ensemble import (
    dephasing_matrix,
    propagator,
    propagators,
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
    NoisePlan,
    RecordStream,
    run_ensemble,
    simulate_states,
    stream_ensemble,
    write_archive,
)
from .calibration import (
    CalibrationRun,
    TraceMoments,
    estimate_correlator,
    estimate_response,
    estimate_tau_m,
    integrate_traces,
    trace_moments,
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
    "propagator",
    "propagators",
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
    "simulate_states",
    "run_ensemble",
    "stream_ensemble",
    "RecordStream",
    "write_archive",
    "CalibrationRun",
    "TraceMoments",
    "trace_moments",
    "integrate_traces",
    "estimate_response",
    "estimate_tau_m",
    "estimate_correlator",
]

__version__ = "0.1.0"
