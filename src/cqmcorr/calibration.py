"""Detector calibration and correlator estimation from raw records.

The calibration protocol uses two ensembles of raw records taken with the
qubit prepared in the two measurement-axis eigenstates (no drive, so each
trajectory sits at its pole for the whole trace):

* the response is the slope of the difference of the mean integrated
  records, which is the full pole separation Delta_I (twice the per-pole
  response of the raw map);
* the measurement time is tau_m = (2/Delta_I)^2 d(sigma^2)/dt with sigma^2(t)
  the across-trajectory variance of the integrated record, which grows
  linearly for white output noise;
* with the independently known ensemble dephasing rate gamma, the quantum
  efficiency is eta = 1/(2 gamma tau_min), tau_min the minimal (phi_a = 0)
  measurement time.

The correlator estimator works on raw records directly: it removes a
per-block offset, normalizes by Delta_I/2 so pole means sit at +-1, averages
the two-sample product over a window of first times, and quotes delete-one-
block jackknife standard errors.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import ConfigError, CorrelatorResult, DiagnosticError, TimeGrid
from .trajectory import EnsembleArchive

DEFAULT_RESPONSE_FIT_WINDOW = 0.6
DEFAULT_BLOCK_SIZE = 3000

# tolerated mismatch between the variance slopes of the two prepared states;
# beyond this the two ensembles disagree about the noise floor
VARIANCE_MATCH_TOL = 0.25


@dataclasses.dataclass
class CalibrationRun:
    """Paired one-detector raw-record ensembles, +axis and -axis preparations."""

    plus: EnsembleArchive
    minus: EnsembleArchive

    def __post_init__(self):
        if self.plus.grid != self.minus.grid:
            raise ConfigError("calibration ensembles must share one grid")
        for archive in (self.plus, self.minus):
            _records(archive)


def _records(archive: EnsembleArchive) -> np.ndarray:
    if archive.n_detectors != 1:
        raise ConfigError(f"calibration needs one-detector archives, got {archive.n_detectors}")
    return archive.signals[:, 0, :]


def integrate_traces(archive: EnsembleArchive) -> np.ndarray:
    """Cumulative time integral of each raw record of a one-detector archive
    (trapezoid rule, zero at the first sample). Shape (n_traj, n_samples)."""
    x = _records(archive)
    out = np.zeros(x.shape)
    out[:, 1:] = np.cumsum(archive.grid.dt * (x[:, 1:] + x[:, :-1]) / 2.0, axis=1)
    return out


def _line_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y(t) with a free intercept."""
    return float(np.polyfit(t, y, 1)[0])


def estimate_response(run: CalibrationRun,
                      fit_window: float = DEFAULT_RESPONSE_FIT_WINDOW) -> float:
    """Pole separation Delta_I in raw units per unit normalized signal: the
    fitted slope of <integral_plus>(t) - <integral_minus>(t) over the first
    ``fit_window`` of the trace. The per-pole response is Delta_I / 2."""
    ip = integrate_traces(run.plus).mean(axis=0)
    im = integrate_traces(run.minus).mean(axis=0)
    t = run.plus.grid.times()
    mask = t <= fit_window + 1e-9
    if mask.sum() < 3:
        raise ConfigError(f"fit window {fit_window} covers fewer than 3 samples")
    return _line_slope(t[mask], (ip - im)[mask])


def estimate_tau_m(run: CalibrationRun, delta_i: float,
                   gamma: float | None = None) -> tuple[float, float | None]:
    """Measurement time from the integrated-record variance growth,
    tau_m = (2/Delta_I)^2 d(sigma^2)/dt, fitted over the full trace.

    If ``gamma`` (the ensemble dephasing rate, known independently) is given,
    also returns eta = 1/(2 gamma tau_m). That formula assumes this run's
    tau_m is the minimal one, i.e. the run was taken at phi_a = 0; for other
    quadrature angles convert with the cos^2 law first.
    """
    if delta_i == 0:
        raise ConfigError("delta_i must be nonzero")
    t = run.plus.grid.times()
    ip = integrate_traces(run.plus)
    im = integrate_traces(run.minus)
    vp = ip.var(axis=0, ddof=1)
    vm = im.var(axis=0, ddof=1)
    sp = _line_slope(t, vp)
    sm = _line_slope(t, vm)
    # identical records leave only mean-rounding dust in the variance, so the
    # growth check is relative to the integrated-signal scale
    floor = 1e-16 * (1.0 + max(np.abs(ip).max(), np.abs(im).max()) ** 2)
    if not (sp > 0 and sm > 0 and vp[-1] > floor and vm[-1] > floor):
        raise DiagnosticError("integrated-record variance does not grow; record too short?")
    if abs(sp / sm - 1.0) > VARIANCE_MATCH_TOL:
        raise DiagnosticError(
            f"variance slopes of the two preparations disagree ({sp:.4g} vs {sm:.4g}); "
            "the ensembles do not share a noise floor")
    slope = 0.5 * (sp + sm)
    tau_m = (2.0 / delta_i) ** 2 * slope
    eta = None
    if gamma is not None:
        if not gamma > 0:
            raise ConfigError(f"gamma must be positive, got {gamma!r}")
        eta = 1.0 / (2.0 * gamma * tau_m)
    return tau_m, eta


def first_time_window(grid: TimeGrid, t_skip: float, t_avg: float,
                      max_lag: float | None = None) -> tuple[np.ndarray, int]:
    """First-time sample indices on ``grid`` and the count of lags after the
    last, cut to ``max_lag`` rounded to whole samples. The errors name the
    ``correlator`` keys that set the window and the lags."""
    times = grid.times()
    idx = np.where((times >= t_skip - 1e-9) & (times < t_skip + t_avg - 1e-9))[0]
    if idx.size == 0:
        raise ConfigError("correlator.t_skip_us / correlator.t_avg_us: no samples in the "
                          f"first-time window [{t_skip}, {t_skip + t_avg})")
    n_lags = grid.n_steps - 1 - int(idx[-1])
    if n_lags < 1:
        raise ConfigError("correlator.t_skip_us / correlator.t_avg_us: record too short for "
                          "any positive lag after the first-time window")
    if max_lag is not None:
        n_lags = round(min(max(max_lag / grid.dt, 0.0), n_lags))
        if n_lags < 1:
            raise ConfigError(f"correlator.max_lag_us: {max_lag} rounds to no lag at the "
                              f"sample step {grid.dt}")
    return idx, n_lags


def _block_bounds(n_traj: int, block_size: int) -> list[tuple[int, int]]:
    if block_size < 2:
        raise ConfigError(f"block_size must be >= 2, got {block_size!r}")
    n_blocks = max(n_traj // block_size, 1)
    bounds = [(b * block_size, (b + 1) * block_size) for b in range(n_blocks)]
    # the remainder joins the last block
    bounds[-1] = (bounds[-1][0], n_traj)
    return bounds


def _estimate_one(archive: EnsembleArchive, detector_index: int, delta_i: float,
                  t_skip: float, t_avg: float, block_size: int, max_lag: float | None):
    sig = archive.signals[:, detector_index, :]
    times = archive.grid.times()
    dt = archive.grid.dt
    i1, n_lags = first_time_window(archive.grid, t_skip, t_avg, max_lag)

    offset_mask = times >= t_skip - 1e-9
    bounds = _block_bounds(sig.shape[0], block_size)
    scale = 2.0 / delta_i
    block_sums = np.empty((len(bounds), n_lags))
    block_sizes = np.empty(len(bounds))
    for b, (lo, hi) in enumerate(bounds):
        block = sig[lo:hi]
        j = (block - block[:, offset_mask].mean()) * scale
        acc = np.zeros((hi - lo, n_lags))
        for i in i1:
            acc += j[:, i, None] * j[:, i + 1:i + 1 + n_lags]
        acc /= i1.size
        block_sums[b] = acc.sum(axis=0)
        block_sizes[b] = hi - lo

    n = block_sizes.sum()
    total = block_sums.sum(axis=0)
    values = total / n
    if len(bounds) >= 2:
        loo = (total[None, :] - block_sums) / (n - block_sizes)[:, None]
        g = len(bounds)
        errors = np.sqrt((g - 1) / g * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    else:
        errors = None
    lags = dt * np.arange(1, n_lags + 1)
    return lags, values, errors, times[i1]


def estimate_correlator(archive_plus: EnsembleArchive, delta_i: float,
                        t_avg: float, t_skip: float,
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        archive_minus: EnsembleArchive | None = None,
                        detector_index: int = 0,
                        max_lag: float | None = None) -> CorrelatorResult:
    """First-time-averaged output correlator from raw records.

    Khat(m dt) = mean over trajectories and first times t1 of J(t1) J(t1 + m dt),
    J = (raw - block offset) / (Delta_I / 2), for lags m >= 1 (the equal-time
    product is noise-variance dominated and excluded). The block offset is the
    record mean over each block of trajectories at t >= t_skip. Standard
    errors are delete-one-block jackknife over the same blocks; a second
    archive makes a paired result (``delta`` and ``delta_error`` give the
    preparation difference).
    """
    if delta_i == 0:
        raise ConfigError("delta_i must be nonzero")
    if not t_avg > 0:
        raise ConfigError(f"t_avg must be positive, got {t_avg!r}")
    if not 0 <= detector_index < archive_plus.n_detectors:
        raise ConfigError(f"detector index {detector_index} out of range")
    lags, values, errors, t1s = _estimate_one(
        archive_plus, detector_index, delta_i, t_skip, t_avg, block_size, max_lag)
    values_minus = errors_minus = None
    if archive_minus is not None:
        if archive_plus.grid != archive_minus.grid:
            raise ConfigError("paired archives must share one grid")
        _, values_minus, errors_minus, _ = _estimate_one(
            archive_minus, detector_index, delta_i, t_skip, t_avg, block_size, max_lag)
    return CorrelatorResult(lags=lags, values=values, errors=errors,
                            values_minus=values_minus, errors_minus=errors_minus,
                            t1_values=t1s)
