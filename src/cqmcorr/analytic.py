"""Closed-form correlators for the driven, monitored qubit.

Setup covered here: z-axis measurement, resonant Rabi drive about x at
angular rate omega_r, transverse ensemble decay at total rate gamma
(measurement-induced plus intrinsic dephasing). In the underdamped regime
the oscillation frequency is omega_tilde = sqrt(omega_r^2 - gamma^2/4) and
the two-time output correlator splits into a preparation-independent
baseline plus a phase-backaction term proportional to tan(phi_a) and the
prepared x component:

    K(t1, t1+tau) = exp(-gamma tau/2) [cos(wt tau) + (gamma/2wt) sin(wt tau)]
                  + x0 exp(-gamma t1) tan(phi_a) (omega_r/wt)
                    * sin(wt tau) exp(-gamma tau/2)

Averaging t1 over a window [t_skip, t_skip + t_avg] replaces
x0 exp(-gamma t1) by c * x0 with the window factor c computed exactly.
The paired difference between +x and -x preparations isolates the phase
term; fitting its amplitude recovers phi_a.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import ConfigError, DiagnosticError


def c_factor(gamma: float, t_skip: float, t_avg: float) -> float:
    """Window-average of exp(-gamma t1) for t1 in [t_skip, t_skip + t_avg]:
    exp(-gamma t_skip) (1 - exp(-gamma t_avg)) / (gamma t_avg). Continuous at
    gamma = 0 where it equals 1."""
    if not t_avg > 0:
        raise ConfigError(f"t_avg must be positive, got {t_avg!r}")
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma!r}")
    x = gamma * t_avg
    if x == 0.0:
        window = 1.0
    else:
        window = -math.expm1(-x) / x
    return math.exp(-gamma * t_skip) * window


def _omega_tilde(gamma: float, omega_r: float) -> float:
    """Damped oscillation frequency sqrt(omega_r^2 - gamma^2/4)."""
    try:
        s = omega_r**2 - 0.25 * gamma**2
    except OverflowError:
        raise DiagnosticError(f"omega_tilde overflows at omega_r = {omega_r}, gamma = {gamma}") from None
    if s <= 0:
        raise DiagnosticError(
            f"overdamped: |omega_r| = {abs(omega_r)} <= gamma/2 = {gamma / 2};"
            " the closed forms here cover only the underdamped regime")
    return math.sqrt(s)


@dataclasses.dataclass(frozen=True)
class RabiCaseParams:
    """Parameters of the driven-qubit closed forms.

    gamma : transverse ensemble decay rate (1/us)
    omega_r : Rabi angular frequency (rad/us)
    k_phase : tan(phi_a), the phase-backaction strength
    x0 : prepared x component (the pointwise and averaged forms scale with it)
    t_skip, t_avg : first-time averaging window for the averaged forms
    """

    gamma: float
    omega_r: float
    k_phase: float = 0.0
    x0: float = 1.0
    t_skip: float = 0.0
    t_avg: float | None = None

    def __post_init__(self):
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be >= 0, got {self.gamma!r}")
        if not math.isfinite(self.omega_r):
            raise ConfigError("omega_r must be finite")
        if not self.t_skip >= 0:
            raise ConfigError(f"t_skip must be >= 0, got {self.t_skip!r}")
        if not -1.0 <= self.x0 <= 1.0:
            raise ConfigError(f"x0 must lie in [-1, 1], got {self.x0!r}")
        if self.t_avg is not None and not self.t_avg > 0:
            raise ConfigError(f"t_avg must be positive, got {self.t_avg!r}")

    @classmethod
    def from_quadrature_angle(cls, gamma: float, omega_r: float, phi_a_deg: float,
                              **kwargs) -> "RabiCaseParams":
        return cls(gamma=gamma, omega_r=omega_r,
                   k_phase=math.tan(math.radians(phi_a_deg)), **kwargs)

    @property
    def omega_tilde(self) -> float:
        """Damped oscillation frequency sqrt(omega_r^2 - gamma^2/4)."""
        return _omega_tilde(self.gamma, self.omega_r)

    @property
    def c(self) -> float:
        if self.t_avg is None:
            raise ConfigError("t_avg not set: averaged forms need the averaging window")
        return c_factor(self.gamma, self.t_skip, self.t_avg)


def k_qrf_baseline(params: RabiCaseParams, tau) -> np.ndarray:
    """Preparation-independent part of the correlator (what the quantum
    regression formula alone predicts): exp(-gamma tau/2) * [cos(wt tau) +
    (gamma/2wt) sin(wt tau)]."""
    tau = np.asarray(tau, dtype=np.float64)
    wt = params.omega_tilde
    envelope = np.exp(-0.5 * params.gamma * tau)
    return envelope * (np.cos(wt * tau) + (0.5 * params.gamma / wt) * np.sin(wt * tau))


def _phase_term(amplitude, gamma: float, omega_r: float, tau) -> np.ndarray:
    """The phase-backaction term amplitude (omega_r/wt) sin(wt tau)
    exp(-gamma tau/2), multiplied left to right."""
    tau = np.asarray(tau, dtype=np.float64)
    wt = _omega_tilde(gamma, omega_r)
    return amplitude * (omega_r / wt) * np.sin(wt * tau) * np.exp(-0.5 * gamma * tau)


def _phase_design(gamma: float, omega_r: float, c: float, tau) -> np.ndarray:
    """Paired-difference template per unit tan(phi_a):
    2 c (omega_r/wt) sin(wt tau) exp(-gamma tau/2)."""
    return _phase_term(2.0 * c, gamma, omega_r, tau)


def k_analytic_pointwise(params: RabiCaseParams, t1, tau) -> np.ndarray:
    """K(t1, t1 + tau): baseline plus the phase-backaction term with its
    exp(-gamma t1) preparation memory."""
    t1 = np.asarray(t1, dtype=np.float64)
    amplitude = params.x0 * np.exp(-params.gamma * t1) * params.k_phase
    return k_qrf_baseline(params, tau) + _phase_term(amplitude, params.gamma, params.omega_r, tau)


def k_analytic_averaged(params: RabiCaseParams, tau) -> np.ndarray:
    """First-time average of the pointwise form over [t_skip, t_skip + t_avg]:
    the exp(-gamma t1) factor becomes the window constant c."""
    amplitude = params.c * params.x0 * params.k_phase
    return k_qrf_baseline(params, tau) + _phase_term(amplitude, params.gamma, params.omega_r, tau)


def delta_k(params: RabiCaseParams, tau) -> np.ndarray:
    """Averaged correlator difference between +x and -x preparations
    (x0 = +1 minus x0 = -1, whatever params.x0 says):
    2 c tan(phi_a) (omega_r/wt) sin(wt tau) exp(-gamma tau/2). The baseline
    cancels, leaving the pure phase-backaction signature."""
    return params.k_phase * _phase_design(params.gamma, params.omega_r, params.c, tau)


@dataclasses.dataclass(frozen=True)
class PhaseFit:
    """Result of fitting tan(phi_a) to paired-difference samples."""

    phi_a: float           # radians
    ci: tuple              # 95 percent interval for phi_a, radians
    tan_phi: float
    tan_sigma: float

    @property
    def phi_a_deg(self) -> float:
        return math.degrees(self.phi_a)


def fit_phase_angle(lags, dk, dk_err=None, *, gamma: float, omega_r: float,
                    c: float) -> PhaseFit:
    """Recover the quadrature angle from paired-difference correlator samples.

    The model is linear in the single parameter tan(phi_a):
    dk(tau) = tan(phi_a) * g(tau) with g the known template (see
    _phase_design), so the weighted least-squares solution is closed-form:
    tan_hat = sum(w g dk) / sum(w g^2), var(tan_hat) = 1 / sum(w g^2) for
    w = 1/err^2. Without errors, unit weights are used and the variance is
    scaled by the residual mean square. The interval for phi_a comes from
    the delta method, sigma_phi = sigma_tan / (1 + tan_hat^2), computed as
    sigma_tan cos^2(phi_hat) so that a huge tan_hat does not overflow.

    Requires at least 3 samples spanning at least half a Rabi period
    pi/|omega_r| so the template amplitude is actually constrained.
    """
    lags = np.asarray(lags, dtype=np.float64)
    dk = np.asarray(dk, dtype=np.float64)
    if lags.ndim != 1 or lags.shape != dk.shape:
        raise ConfigError("lags and dk must be 1-D arrays of equal length")
    if lags.size < 3:
        raise ConfigError(f"need at least 3 samples to fit, got {lags.size}")
    if omega_r == 0:
        raise ConfigError("omega_r must be nonzero")
    span = float(lags.max() - lags.min())
    if span < math.pi / abs(omega_r):
        raise ConfigError(
            f"lag span {span:.6g} us is below half a Rabi period {math.pi / abs(omega_r):.6g} us")

    g = _phase_design(gamma, omega_r, c, lags)
    if np.max(np.abs(g)) < 1e-9:
        raise DiagnosticError("degenerate fit design: template vanishes at every lag")

    if dk_err is not None:
        err = np.asarray(dk_err, dtype=np.float64)
        if err.shape != lags.shape:
            raise ConfigError("dk_err must match lags in shape")
        if np.any(err <= 0):
            raise ConfigError("dk_err entries must be positive")
        w = 1.0 / err**2
        denom = float(np.sum(w * g * g))
        tan_hat = float(np.sum(w * g * dk)) / denom
        var_tan = 1.0 / denom
    else:
        denom = float(np.sum(g * g))
        tan_hat = float(np.sum(g * dk)) / denom
        resid = dk - tan_hat * g
        var_tan = float(np.sum(resid**2)) / (lags.size - 1) / denom

    sigma_tan = math.sqrt(var_tan)
    phi_hat = math.atan(tan_hat)
    sigma_phi = sigma_tan * math.cos(phi_hat) ** 2
    half = 1.959963984540054 * sigma_phi
    return PhaseFit(phi_a=phi_hat, ci=(phi_hat - half, phi_hat + half),
                    tan_phi=tan_hat, tan_sigma=sigma_tan)
