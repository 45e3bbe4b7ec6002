"""Detector calibration and correlator estimation from raw records.

The calibration protocol uses two ensembles of raw records taken with the
qubit prepared in the two measurement-axis eigenstates (no drive, so each
trajectory sits at its pole for the whole trace). ``run_ensemble`` finds
such a start stationary and does not step it, so a pole's record is its
noise alone, offset + response (+-1 + sqrt(tau_m/dt) w), bit for bit what
the stepper would give; it builds the records one slice of RECORD_SLICE
trajectories at a time from that slice's noise tiles, which a helper thread
draws a slice ahead, and ``--threads`` changes nothing in such a run:

* the response is the slope of the difference of the mean integrated
  records, which is the full pole separation Delta_I (twice the per-pole
  response of the raw map);
* the measurement time is tau_m = (2/Delta_I)^2 d(sigma^2)/dt with sigma^2(t)
  the across-trajectory variance of the integrated record, which grows
  linearly for white output noise;
* with the independently known ensemble dephasing rate gamma, the quantum
  efficiency is eta = 1/(2 gamma tau_min), tau_min = tau_m cos^2(phi_a) the
  minimal (phi_a = 0) measurement time; ``estimate_tau_m`` returns
  1/(2 gamma tau_m), and ``calibrate`` converts it with the configured
  angle.

The correlator estimator works on the raw records of one prepared state
directly: it removes a per-block offset, normalizes by Delta_I/2 so pole
means sit at +-1, averages the two-sample product over a window of first
times, and quotes delete-one-block jackknife standard errors.

Both estimators are block reducers: they take a ``RecordStream`` and fold
its records as they are fed, in fixed groups of trajectories (jackknife
blocks, or MOMENT_UNIT records for the calibration moments), so the ensemble
is never held and no batch size or thread count moves a bit. A stream of
``stream_ensemble`` feeds slices of at most ``trajectory.RECORD_SLICE``
records, cut at its multiples, each an (n, n_det, n_samples) view of
step-major memory, and MOMENT_UNIT equals it, so each calibration unit
arrives whole, as a view of one slice. Every reduction runs on a fresh step-major array of
one fixed layout, a row per sample (or lag) across the group's
trajectories, whatever the layout fed: numpy sums each row pairwise, the
moments are summed within a unit and merged in unit order, and so what an
estimator returns depends on its groups alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import ConfigError, CorrelatorResult, DiagnosticError, TimeGrid
from .trajectory import RecordStream

DEFAULT_RESPONSE_FIT_WINDOW = 0.6
DEFAULT_BLOCK_SIZE = 3000

# tolerated mismatch between the variance slopes of the two prepared states;
# beyond this the two ensembles disagree about the noise floor
VARIANCE_MATCH_TOL = 0.25
# Small ensembles widen that tolerance by their sampling error. Each slope is
# a fixed combination of per-time sample variances of n records, a scaled
# chi-square with nu = 5 (n - 1) / 6 degrees of freedom by Satterthwaite's
# match of two moments (5/6 is the long-record limit of
# (tr W S)^2 / tr (W S)^2, S the covariance of the integrated white noise
# and W the least-squares slope weights; shorter records have more). So the
# ratio of two correct slopes is near F(nu_p, nu_m), whose log is near normal
# with standard deviation sqrt(2 / nu_p + 2 / nu_m), 0.155 at n = 200 (0.153
# measured over 3000 seeds). A |log ratio| beyond Z such deviations, in
# either direction, has probability 2 Phi(-Z) = 5.7e-7 at Z = 5; the exact
# two-tailed F probability is 8.1e-7 at n = 200 and stays below 1e-6 from
# about 125 records up. A mismatch trips only past both bounds, so from about
# 2400 records up the fixed tolerance alone decides.
VARIANCE_MATCH_Z = 5.0

# records per unit of the integrated-record moments: each unit's moments are
# taken on their own and merged in unit order, so, like the noise tile, this
# is part of the estimators' definition, and batches and threads shape no bit
MOMENT_UNIT = 1024


def _fold(records: RecordStream, bounds, reduce, column=slice(None)) -> None:
    """Feed ``records`` and call ``reduce(g, group)`` for group g = [lo, hi)
    of ``bounds``, in order, as soon as its last record arrives; ``column``
    picks from each record. A group inside one fed slice is a view of the
    slice; one that straddles slices is gathered into an array of its own,
    step-major like the slices of ``stream_ensemble``: the transposed view
    of a C-contiguous array with the trajectory axis last. The reducers compute on fresh arrays of one
    layout of their own, so what they compute depends on ``bounds`` alone."""
    seen, g, gathered = 0, 0, None

    def take(batch) -> None:
        nonlocal seen, g, gathered
        batch = batch[:, column]
        start = 0
        while start < len(batch):
            if g == len(bounds):
                raise ConfigError(f"records: more than the {seen} trajectories declared")
            lo, hi = bounds[g]
            n = min(hi - seen, len(batch) - start)
            piece = batch[start:start + n]
            if gathered is None and n == hi - lo:
                reduce(g, piece)
            else:
                if gathered is None:
                    gathered = np.empty(piece.shape[:0:-1] + (hi - lo,)).T
                gathered[seen - lo:seen - lo + n] = piece
                if seen + n == hi:
                    reduce(g, gathered)
                    gathered = None
            seen, start = seen + n, start + n
            if seen == hi:
                g += 1

    records.feed(take)
    if g != len(bounds):
        raise ConfigError(f"records: fed {seen} of the {bounds[-1][1]} trajectories declared")


@dataclasses.dataclass(frozen=True)
class TraceMoments:
    """Moments over one ensemble of its records' time integrals
    (``integrate_traces``): the count, the per-time mean and centred sum of
    squares, and the largest |integral|."""

    grid: TimeGrid
    n_traj: int
    mean: np.ndarray
    m2: np.ndarray
    peak: float

    @property
    def var(self) -> np.ndarray:
        """Per-time sample variance, ddof = 1."""
        return self.m2 / (self.n_traj - 1)


def trace_moments(records: RecordStream) -> TraceMoments:
    """The ``TraceMoments`` of a one-detector ensemble, reduced as it is fed.

    The records are cut into units of MOMENT_UNIT trajectories, the last one
    shorter, and each unit's integrals (step-major, from
    ``integrate_traces``) are summed within the unit, along each sample's
    row of trajectories, which numpy sums pairwise. The unit sums are merged
    in unit order: the totals added, the centred sums of squares by Chan's
    formula, a unit of k records with mean u and centred sum of squares q
    adding q + d^2 n k / (n + k), d = u - (the mean of the n records before
    it). The centred sums are taken on the integrals less the first unit's
    mean, so d keeps its digits however large the detector offset. Memory
    is one unit's integrals, whatever n_traj."""
    if records.n_detectors != 1:
        raise ConfigError(f"calibration needs one-detector records, got {records.n_detectors}")
    n_traj, dt = records.n_traj, records.grid.dt
    n, peak = 0, 0.0
    total = shift = shifted_total = m2 = None

    def reduce(g: int, unit) -> None:
        nonlocal n, peak, total, shift, shifted_total, m2
        # the unit's integrals, step-major: every sum runs along a row of
        # the unit's trajectories, and the rows are centred and squared in
        # place
        x = integrate_traces(unit, dt).T
        k = x.shape[1]
        peak = max(peak, float(max(x.max(), -x.min())))
        unit_sum = x.sum(axis=1)
        if n == 0:
            shift, total = unit_sum / k, unit_sum
        else:
            total = total + unit_sum
        x -= shift[:, None]
        unit_total = x.sum(axis=1)
        x -= (unit_total / k)[:, None]
        unit_m2 = np.square(x, out=x).sum(axis=1)
        if n == 0:
            shifted_total, m2 = unit_total, unit_m2
        else:
            d = unit_total / k - shifted_total / n
            m2 = m2 + unit_m2 + d * d * (n * k / (n + k))
            shifted_total = shifted_total + unit_total
        n += k

    _fold(records, [(lo, min(lo + MOMENT_UNIT, n_traj)) for lo in range(0, n_traj, MOMENT_UNIT)],
          reduce)
    return TraceMoments(grid=records.grid, n_traj=n, mean=total / n, m2=m2, peak=peak)


@dataclasses.dataclass
class CalibrationRun:
    """Paired one-detector raw-record ensembles, +axis and -axis preparations,
    each a ``RecordStream``, and the moments of their records' time
    integrals (``trace_moments``), reduced once for both estimators. Each
    stream is fed once, one preparation after the other, and neither
    ensemble is held."""

    plus: RecordStream
    minus: RecordStream
    plus_moments: TraceMoments = dataclasses.field(init=False, repr=False)
    minus_moments: TraceMoments = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.plus.grid != self.minus.grid:
            raise ConfigError("calibration ensembles must share one grid")
        self.plus_moments = trace_moments(self.plus)
        self.minus_moments = trace_moments(self.minus)


def integrate_traces(records: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative time integral of each raw record of a one-detector
    ensemble, (n_traj, 1, n_samples) records on samples ``dt`` apart
    (trapezoid rule, zero at the first sample). Shape (n_traj, n_samples):
    the transposed view of a fresh C-contiguous step-major
    (n_samples, n_traj) array, whatever the layout of ``records``."""
    if records.shape[1] != 1:
        raise ConfigError(f"calibration needs one-detector records, got {records.shape[1]}")
    x = records[:, 0, :].T
    out = np.empty(x.shape)
    out[0] = 0.0
    # dt (x_{i+1} + x_i) / 2, in place: no temporary
    steps = np.add(x[1:], x[:-1], out=out[1:])
    steps *= dt
    steps /= 2.0
    # the running sum, one contiguous row at a time: the bits of cumsum
    for i in range(2, len(out)):
        out[i] += out[i - 1]
    return out.T


def _line_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y(t) with a free intercept."""
    return float(np.polyfit(t, y, 1)[0])


def estimate_response(run: CalibrationRun,
                      fit_window: float = DEFAULT_RESPONSE_FIT_WINDOW) -> float:
    """Pole separation Delta_I in raw units per unit normalized signal: the
    fitted slope of <integral_plus>(t) - <integral_minus>(t) over the first
    ``fit_window`` of the trace. The per-pole response is Delta_I / 2."""
    ip, im = run.plus_moments.mean, run.minus_moments.mean
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
    plus, minus = run.plus_moments, run.minus_moments
    vp, vm = plus.var, minus.var
    sp = _line_slope(t, vp)
    sm = _line_slope(t, vm)
    # identical records leave only mean-rounding dust in the variance, so the
    # growth check is relative to the integrated-signal scale
    floor = 1e-16 * (1.0 + max(plus.peak, minus.peak) ** 2)
    if not (sp > 0 and sm > 0 and vp[-1] > floor and vm[-1] > floor):
        raise DiagnosticError("integrated-record variance does not grow; record too short?")
    spread = math.sqrt(sum(12.0 / (5.0 * (m.n_traj - 1)) for m in (plus, minus)))
    if abs(sp / sm - 1.0) > VARIANCE_MATCH_TOL \
            and abs(math.log(sp / sm)) > VARIANCE_MATCH_Z * spread:
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


def estimate_correlator(records: RecordStream, delta_i: float,
                        t_avg: float, t_skip: float,
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        detector_index: int = 0,
                        max_lag: float | None = None) -> CorrelatorResult:
    """First-time-averaged output correlator of one prepared state, from raw
    records.

    Khat(m dt) = mean over trajectories and first times t1 of J(t1) J(t1 + m dt),
    J = (raw - block offset) / (Delta_I / 2), for lags m >= 1 (the equal-time
    product is noise-variance dominated and excluded). The block offset is the
    record mean over each block of trajectories at t >= t_skip. Standard
    errors are delete-one-block jackknife over the same blocks.

    ``records`` is a ``RecordStream``, fed once through one jackknife-block
    reducer: each block's records are gathered across fed slices until the
    block is complete, copied step-major, and reduced to its row of lag
    sums; the lag products accumulate as (n_lags, n) rows across the
    block's n trajectories, each summed pairwise. Memory is one block and
    one slice, whatever n_traj.
    """
    if delta_i == 0:
        raise ConfigError("delta_i must be nonzero")
    if not t_avg > 0:
        raise ConfigError(f"t_avg must be positive, got {t_avg!r}")
    if not 0 <= detector_index < records.n_detectors:
        raise ConfigError(f"detector index {detector_index} out of range")
    times = records.grid.times()
    i1, n_lags = first_time_window(records.grid, t_skip, t_avg, max_lag)

    offset_mask = times >= t_skip - 1e-9
    bounds = _block_bounds(records.n_traj, block_size)
    scale = 2.0 / delta_i
    block_sums = np.empty((len(bounds), n_lags))
    block_sizes = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)

    def reduce(b: int, block) -> None:
        # step-major: a row per sample, and one per lag in ``acc``
        j = block.T.copy()
        j -= j[offset_mask].mean()
        j *= scale
        acc, product = np.zeros((n_lags, len(block))), np.empty((n_lags, len(block)))
        for i in i1:
            acc += np.multiply(j[i], j[i + 1:i + 1 + n_lags], out=product)
        acc /= i1.size
        block_sums[b] = acc.sum(axis=1)

    _fold(records, bounds, reduce, column=detector_index)

    n = block_sizes.sum()
    total = block_sums.sum(axis=0)
    values = total / n
    if len(bounds) >= 2:
        loo = (total[None, :] - block_sums) / (n - block_sizes)[:, None]
        g = len(bounds)
        errors = np.sqrt((g - 1) / g * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    else:
        errors = None
    return CorrelatorResult(lags=records.grid.dt * np.arange(1, n_lags + 1), values=values,
                            errors=errors, t1_values=times[i1])
