"""Shared types, unit conventions, and the value rules of the models.

Conventions used throughout the package:

* time in microseconds, rates in 1/us, angular frequencies in rad/us;
* a Rabi frequency quoted in MHz maps to ``omega_r = 2*pi*f`` rad/us;
* angles are degrees at user-facing interfaces and radians internally;
* Bloch vectors are plain float64 numpy arrays ``(x, y, z)``. Physical states
  satisfy ``|r| <= 1`` (up to a small tolerance); intermediate states produced
  by the correlator recipe may lie far outside the unit ball and carry no norm
  bound.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# |r| <= 1 + PHYSICAL_NORM_TOL for states tagged physical (covers round-off in
# user-supplied states, nothing more).
PHYSICAL_NORM_TOL = 1e-9

# unit-axis tolerance for detector axes
AXIS_NORM_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class DiagnosticError(RuntimeError):
    """Numerical diagnostic: the computation is untrustworthy as configured
    (CLI exit code 3). Examples: trajectory norm overshoot, overdamped
    closed-form regime, degenerate fit design."""


def _bloch(r) -> tuple[np.ndarray, list]:
    """A finite float64 3-vector copied from ``r``, and its components as
    Python floats, which the checks read without further numpy calls."""
    arr = np.array(r, dtype=np.float64)
    if arr.shape != (3,):
        raise ConfigError(f"Bloch vector must have shape (3,), got {arr.shape}")
    components = arr.tolist()
    if not all(map(math.isfinite, components)):
        raise ConfigError(f"Bloch vector has non-finite components: {arr}")
    return arr, components


def as_bloch(r) -> np.ndarray:
    """Coerce to a finite float64 3-vector (always a fresh copy)."""
    return _bloch(r)[0]


def require_physical(r, tol: float = PHYSICAL_NORM_TOL) -> np.ndarray:
    """Coerce to a Bloch vector and enforce |r| <= 1 + tol."""
    arr, components = _bloch(r)
    norm = math.hypot(*components)
    if norm > 1.0 + tol:
        raise ConfigError(f"state norm {norm:.12g} exceeds 1 + {tol:g}")
    return arr


def _frozen_array(obj, name, value):
    value = np.array(value, dtype=np.float64)
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


def _cross_matrix(n: np.ndarray) -> np.ndarray:
    """[n]x, the matrix of r -> n x r."""
    return np.array([
        [0.0, -n[2], n[1]],
        [n[2], 0.0, -n[0]],
        [-n[1], n[0], 0.0],
    ])


def rabi_rad_per_us(f_mhz: float) -> float:
    """Angular Rabi frequency (rad/us) for a Rabi frequency quoted in MHz."""
    return TWO_PI * f_mhz


@dataclasses.dataclass(frozen=True)
class DetectorModel:
    """One continuous detector: measurement axis, strength, and raw-units map.

    Parameters
    ----------
    axis : unit 3-vector
        Measurement axis n (the monitored observable is n . sigma).
    tau_m : float
        Measurement time in us (time to reach unit signal-to-noise).
    k_phase : float
        Phase-backaction strength K = tan(phi_a), phi_a the amplified
        quadrature angle.
    eta : float
        Quantum efficiency in (0, 1].
    response, offset : float
        Raw-record synthesis map: raw = offset + response * I_normalized.
        ``response`` is the half-separation: the two qubit poles sit at
        offset +- response, so a calibration that fits the separation of the
        two mean integrated signals measures 2*response.

    ``collapse`` (derived, read-only) is the linear map of one measurement on
    the sign-weighted pair (Kvec, K) of the collapse recipe,
    (Kvec, K) -> (K n + K_phase (n x Kvec), n . Kvec), as the 4x4 matrix
    [[K_phase [n]x, n], [n^T, 0]]; the recipe and the trajectory stepper
    both apply it.
    """

    axis: np.ndarray
    tau_m: float
    k_phase: float = 0.0
    eta: float = 1.0
    response: float = 1.0
    offset: float = 0.0
    collapse: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)):
            raise ConfigError(f"detector axis must be a finite 3-vector, got {self.axis!r}")
        norm = math.hypot(*axis)
        if abs(norm - 1.0) > AXIS_NORM_TOL:
            raise ConfigError(f"detector axis norm {norm!r} differs from 1 by more than {AXIS_NORM_TOL:g}")
        _frozen_array(self, "axis", axis)
        if not (self.tau_m > 0 and math.isfinite(self.tau_m)):
            raise ConfigError(f"tau_m must be positive, got {self.tau_m!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError(f"eta out of range (0, 1], got {self.eta!r}")
        for name in ("k_phase", "response", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        collapse = np.zeros((4, 4))
        collapse[:3, :3] = self.k_phase * _cross_matrix(self.axis)
        collapse[:3, 3] = self.axis
        collapse[3, :3] = self.axis
        collapse.setflags(write=False)
        object.__setattr__(self, "collapse", collapse)

    @property
    def gamma_m(self) -> float:
        """Measurement-induced ensemble dephasing rate (1 + K^2)/(2 eta tau_m)."""
        return (1.0 + self.k_phase**2) / (2.0 * self.eta * self.tau_m)

    @classmethod
    def from_quadrature_angle(cls, axis, tau_min: float, phi_a_deg: float,
                              eta: float = 1.0, response: float = 1.0,
                              offset: float = 0.0, tau_m: float | None = None):
        """Build a detector from (tau_min, phi_a), phi_a in (-90, 90) degrees,
        with tau_m = tau_min/cos^2(phi_a) and K = tan(phi_a). ``tau_m`` may be
        given explicitly to override the cos^2 law (e.g. an independently
        measured value)."""
        if not -90.0 < phi_a_deg < 90.0:
            raise ConfigError(f"phi_a_deg must lie in (-90, 90), got {phi_a_deg!r}")
        phi = math.radians(phi_a_deg)
        c = math.cos(phi)
        if abs(c) < 1e-6:
            raise ConfigError(f"phi_a_deg {phi_a_deg} too close to 90: K and tau_m diverge")
        if tau_m is None:
            if not tau_min > 0:
                raise ConfigError(f"tau_min must be positive, got {tau_min!r}")
            tau_m = tau_min / c**2
        return cls(axis=axis, tau_m=tau_m, k_phase=math.tan(phi), eta=eta,
                   response=response, offset=offset)


@dataclasses.dataclass(frozen=True)
class EnsembleGenerator:
    """One piecewise-constant segment of the ensemble-averaged evolution
    dr/dt = matrix @ (r - r_st), valid on [t_start, t_end)."""

    matrix: np.ndarray
    r_st: np.ndarray
    t_start: float = -math.inf
    t_end: float = math.inf

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.shape != (3, 3) or not np.all(np.isfinite(mat)):
            raise ConfigError("generator matrix must be a finite 3x3 array")
        _frozen_array(self, "matrix", mat)
        _frozen_array(self, "r_st", as_bloch(self.r_st))
        if not self.t_start < self.t_end:
            raise ConfigError(f"empty interval: t_start {self.t_start} is not below t_end {self.t_end}")


def check_segments(segments, t_from: float, t_to: float) -> None:
    """Require an ordered, non-overlapping, gap-free segment list covering
    [t_from, t_to]. Raises ConfigError otherwise."""
    if not segments:
        raise ConfigError("no evolution segments given")
    prev_end = None
    for seg in segments:
        if prev_end is not None:
            if seg.t_start < prev_end:
                raise ConfigError(f"overlapping segments at t = {seg.t_start}")
            if seg.t_start > prev_end:
                # a gap matters only if it intersects the queried window
                if seg.t_start > t_from and prev_end < t_to:
                    raise ConfigError(f"segment gap on [{prev_end}, {seg.t_start})")
        prev_end = seg.t_end
    if segments[0].t_start > t_from or segments[-1].t_end < t_to:
        raise ConfigError(f"segments do not cover [{t_from}, {t_to}]")


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform grid from the state preparation at t = 0: samples t_k = k*dt,
    k < n_steps, computed multiplicatively. Sample k represents the step
    [t_k, t_k + dt); the state history additionally includes the endpoint."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        """Sample times t_k, k = 0 .. n_steps-1."""
        return self.dt * np.arange(self.n_steps)

    def decimated(self, factor: int) -> TimeGrid:
        """The grid of means over ``factor`` consecutive samples."""
        if not (factor >= 1 and self.n_steps % factor == 0):
            raise ConfigError(f"decimate must divide n_steps, got {factor!r} for {self.n_steps} steps")
        return TimeGrid(dt=self.dt * factor, n_steps=self.n_steps // factor)


@dataclasses.dataclass(frozen=True)
class CorrelatorResult:
    """Correlator values of one prepared state on a lag grid, with standard
    errors for Monte Carlo estimates. ``t1_values`` holds the first times a
    Monte Carlo estimate averaged over."""

    lags: np.ndarray
    values: np.ndarray
    errors: np.ndarray | None = None
    t1_values: np.ndarray | None = None
