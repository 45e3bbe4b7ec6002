"""Multi-time output-signal correlators by the collapse recipe.

The N-time correlator of the normalized detector outputs equals the average
of the product of N fictitious projective outcomes s_i = +-1, generated by:

* evolve the ensemble-average state to the next measurement time,
* draw s with probability p(s) = (1 + s n.r)/2,
* replace the state by the collapse image s (n + K (n x r)),

where n is the detector axis and K = tan(phi_a) the phase-backaction
strength. The collapse image is not a physical state (its norm is
unbounded) and intermediate "probabilities" may leave [0, 1]; both are
features of the bookkeeping, so nothing here clamps or renormalizes.

Two evaluation routes are provided: brute-force enumeration of the 2^N
outcome paths, and an O(N) recursion over a sign-weighted running vector.
They agree to rounding and the tests hold them to that. The recursion and
the time-averaged form chain 4x4 matrices: the augmented propagators of
``ensemble.propagator`` (stacked by ``ensemble.propagators`` in the time
average) and each detector's ``DetectorModel.collapse``, which the trajectory
stepper applies too.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator

import numpy as np

from .core import (
    ConfigError,
    CorrelatorResult,
    DetectorModel,
    EnsembleGenerator,
    as_bloch,
    require_int,
    require_physical,
)
from .ensemble import dephasing_matrix, propagator, propagators

# enumeration walks 2^N paths; beyond this it is pointless (use the recursion)
MAX_ENUMERATION_TIMES = 20

GAUSS_LEGENDRE_NODES = 64

# most (lag, start) pairs the time average stacks in one propagators call
MAX_STACKED_PAIRS = 1024


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The time average's rule on [-1, 1], read-only: computed on the first
    call only, so a command that never averages pays neither its time nor
    the memory of the eigenvalue solve behind it."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def collapsed_state(r_pre, axis, k_phase: float, outcome: int) -> np.ndarray:
    """Post-measurement bookkeeping state outcome * (n + K (n x r_pre)).

    ``outcome`` must be +1 or -1. The result is generally outside the unit
    ball; it is meaningful only inside correlator sums.
    """
    if outcome not in (1, -1):
        raise ConfigError(f"outcome must be +1 or -1, got {outcome!r}")
    n = as_bloch(axis)
    r = as_bloch(r_pre)
    return outcome * (n + k_phase * np.cross(n, r))


def outcome_probability(r, axis, outcome: int) -> float:
    """(1 + outcome * n.r)/2, unclamped. The two outcomes sum to 1 exactly,
    also for bookkeeping states where individual values leave [0, 1]."""
    if outcome not in (1, -1):
        raise ConfigError(f"outcome must be +1 or -1, got {outcome!r}")
    n = as_bloch(axis)
    return 0.5 * (1.0 + outcome * float(n @ np.asarray(r, dtype=np.float64)))


@dataclasses.dataclass(frozen=True)
class CorrelatorSpec:
    """N measurement times (finite, strictly increasing), the detector index
    acting at each (an ``int`` or ``numpy.integer``, never a float, string
    or bool), and the state prepared at t = 0, held as a read-only float64
    copy. The checks run on Python floats and ints."""

    times: tuple
    detector_indices: tuple
    initial_state: np.ndarray

    def __post_init__(self):
        times = tuple(map(float, self.times))
        object.__setattr__(self, "times", times)
        if not times:
            raise ConfigError("correlator needs at least one measurement time")
        if not all(map(math.isfinite, times)):
            raise ConfigError(f"measurement times must be finite: {times}")
        if not all(map(operator.lt, times, times[1:])):
            raise ConfigError(f"measurement times must increase strictly: {times}")
        if times[0] < 0:
            raise ConfigError(f"first measurement time {times[0]} precedes the preparation at t = 0")
        indices = tuple([require_int("detector_indices", i) for i in self.detector_indices])
        object.__setattr__(self, "detector_indices", indices)
        if len(indices) != len(times):
            raise ConfigError("need one detector index per measurement time")
        state = require_physical(self.initial_state)
        state.setflags(write=False)
        object.__setattr__(self, "initial_state", state)


def _resolve_detectors(spec: CorrelatorSpec, detectors) -> list[DetectorModel]:
    detectors = tuple(detectors)
    n = len(detectors)
    for idx in spec.detector_indices:
        if not 0 <= idx < n:
            raise ConfigError(f"detector index {idx} out of range for {n} detectors")
    return [detectors[idx] for idx in spec.detector_indices]


def correlator_enumerate(spec: CorrelatorSpec, detectors, segments) -> float:
    """E[s_1 ... s_N] by summing all 2^N outcome paths.

    Depth-first so the evolution and collapse work of a shared outcome prefix
    is done once. Exponential in N by construction; refuses N beyond
    MAX_ENUMERATION_TIMES.
    """
    n_times = len(spec.times)
    if n_times > MAX_ENUMERATION_TIMES:
        raise ConfigError(
            f"enumeration over {n_times} times needs 2^{n_times} paths; use correlator_recursive")
    dets = _resolve_detectors(spec, detectors)
    cache: dict = {}
    hops = [0.0] + list(spec.times)
    props = [propagator(hops[i], hops[i + 1], segments, cache) for i in range(n_times)]

    def walk(depth: int, r: np.ndarray, weight: float) -> float:
        if depth == n_times:
            return weight
        r_pre = props[depth][:3, :3] @ r + props[depth][:3, 3]
        det = dets[depth]
        total = 0.0
        for s in (1, -1):
            p = outcome_probability(r_pre, det.axis, s)
            r_post = collapsed_state(r_pre, det.axis, det.k_phase, s)
            total += walk(depth + 1, r_post, weight * s * p)
        return total

    return walk(0, spec.initial_state, 1.0)


def correlator_recursive(spec: CorrelatorSpec, detectors, segments,
                         cache: dict | None = None) -> float:
    """E[s_1 ... s_N] in O(N) by propagating the sign-weighted pair

        K_j   = sum over paths of (s_1 .. s_j) P(path),
        Kvec_j = same sum weighting the post-collapse state,

    as the 4-vector v = (Kvec, K) from (r0, 1): each hop applies the
    augmented propagator A_j and each measurement the collapse matrix M_j,
    v_j = M_j A_j v_{j-1}, M_j the detector's ``collapse``. Exactly equal to
    the enumeration because every step of the recipe is affine in the state.
    ``ndarray.dot`` makes the same BLAS matrix-vector call as ``@`` with
    less overhead per call."""
    dets = _resolve_detectors(spec, detectors)
    if cache is None:
        cache = {}
    v = np.empty(4)
    v[:3] = spec.initial_state
    v[3] = 1.0
    t_prev = 0.0
    for t, det in zip(spec.times, dets):
        v = det.collapse.dot(propagator(t_prev, t, segments, cache).dot(v))
        t_prev = t
    return v.item(3)


def correlator_time_averaged(lags, detector: DetectorModel, segments, initial_state,
                             t_skip: float, t_avg: float) -> CorrelatorResult:
    """Two-time correlator averaged over the first time,

        Kbar(tau) = (1/t_avg) * integral of K(t1, t1 + tau) dt1
                    over t1 in [t_skip, t_skip + t_avg],

    for the state ``initial_state`` prepared at t = 0, by one Gauss-Legendre
    rule of GAUSS_LEGENDRE_NODES = 64 nodes over the window. The integrand is
    entire in t1 only within one generator segment: a segment boundary b, or
    b - tau, inside the window puts a kink in it that the rule spans (about
    1e-4 off for a Rabi drive switched inside a 0.28 us window).

    When one generator segment spans the whole averaging window plus the
    longest lag, the t1-average commutes with the lag propagation (everything
    is affine in the state), so the quadrature reduces to averaging the state
    once and sweeping lags from that one start. Equal-time lag 0 is fine and
    evaluates to exactly 1 for an auto-correlator.

    The propagators come stacked from ``ensemble.propagators``: one call for
    the node states, then one per chunk of lags holding at most
    MAX_STACKED_PAIRS (lag, start) pairs. Each matrix acts on (4, 1) columns
    and the starts are summed per lag in node order, so the values equal a
    loop of scalar ``propagator`` calls bit for bit.

    ``initial_state`` may also be a (k, 3) stack of states. Then ``values``
    has one row per state, each equal bit for bit to that state's own call,
    and every propagator stack is built once and applied to each state's
    columns in turn.
    """
    lags = np.asarray(lags, dtype=np.float64)
    if lags.ndim != 1 or lags.size == 0:
        raise ConfigError("lags must be a non-empty 1-D array")
    if not np.all(np.isfinite(lags)):
        raise ConfigError("lags must be finite")
    if np.any(lags < 0):
        raise ConfigError("lags must be >= 0")
    if not math.isfinite(t_avg):
        raise ConfigError(f"t_avg must be finite, got {t_avg!r}")
    if not t_avg > 0:
        raise ConfigError(f"t_avg must be positive, got {t_avg!r}")
    if not math.isfinite(t_skip):
        raise ConfigError(f"t_skip must be finite, got {t_skip!r}")
    if t_skip < 0:
        raise ConfigError(f"t_skip {t_skip} precedes the preparation at t = 0")
    stacked = np.ndim(initial_state) == 2
    r0s = [require_physical(r) for r in (initial_state if stacked else (initial_state,))]

    nodes, weights = _gauss_legendre()
    t1_nodes = t_skip + 0.5 * t_avg * (nodes + 1.0)
    avg_weights = 0.5 * weights  # sum to 1: quadrature of the mean

    segments = list(segments)
    t_max = t_skip + t_avg + float(lags.max())
    collapse = detector.collapse
    to_nodes = propagators(np.zeros_like(t1_nodes), t1_nodes, segments)

    homogeneous = any(
        seg.t_start <= t_skip and seg.t_end >= t_max for seg in segments)
    if homogeneous:
        start_weights, start_times = np.ones(1), np.array([t_skip])
    else:
        start_weights, start_times = avg_weights, t1_nodes

    # per state, the collapsed (4, 1) columns at the start times
    firsts = []
    for r0 in r0s:
        # states (r, 1) at the quadrature nodes, as (64, 4, 1) columns
        v_nodes = np.matmul(to_nodes, np.append(r0, 1.0)[:, None])
        if homogeneous:
            # one start at t_skip from the averaged state; average the states,
            # not the 4-vectors: the weights sum to 1 only to rounding, and
            # lag 0 must stay exactly 1
            r_mean = np.zeros(3)
            for w, v in zip(avg_weights, v_nodes):
                r_mean += w * v[:3, 0]
            firsts.append(np.matmul(collapse, np.append(r_mean, 1.0)[:, None])[None])
        else:
            firsts.append(np.matmul(collapse, v_nodes))

    # every (lag, start) pair of a chunk of lags in one stack
    chunk = MAX_STACKED_PAIRS // start_times.size
    values = np.zeros((len(r0s), lags.size))
    for lo in range(0, lags.size, chunk):
        taus = lags[lo:lo + chunk]
        t_to = (start_times + taus[:, None]).ravel()
        lag_props = propagators(np.tile(start_times, taus.size), t_to, segments)
        for row, first in zip(values, firsts):
            lagged = np.matmul(lag_props, np.tile(first, (taus.size, 1, 1)))
            outs = np.matmul(collapse, lagged)[:, 3, 0].reshape(taus.size, start_times.size)
            for k, w in enumerate(start_weights):
                row[lo:lo + chunk] += w * outs[:, k]

    return CorrelatorResult(lags=lags, values=values if stacked else values[0])


@dataclasses.dataclass(frozen=True)
class ZxDemoSetup:
    """Canned two-detector cross-correlator configuration plus its collapse
    recipe values on a small (t1, tau) grid."""

    detectors: tuple
    segments: tuple
    initial_state: np.ndarray
    t1_grid: np.ndarray
    lag_grid: np.ndarray
    values: np.ndarray  # shape (t1, lag)


def cross_correlator_zx_demo() -> ZxDemoSetup:
    """Cross-correlator between a z detector with strong phase backaction and
    an x detector, from the state -y, with no drive.

    The z measurement's phase backaction rotates state information into x, so
    the z-then-x cross-correlator starts near K_z = tan(phi_a^z) = 2 and beats
    the classical bound |K| <= 1 for two-level outputs. Setting k_phase = 0 on
    the z detector kills the effect (the correlator vanishes identically),
    which is the control worth plotting alongside.
    """
    det_z = DetectorModel(axis=(0.0, 0.0, 1.0), tau_m=1.0, k_phase=2.0, eta=1.0)
    det_x = DetectorModel(axis=(1.0, 0.0, 0.0), tau_m=1.0, k_phase=0.0, eta=1.0)
    matrix = (dephasing_matrix(det_z.axis, det_z.gamma_m)
              + dephasing_matrix(det_x.axis, det_x.gamma_m))
    segments = (EnsembleGenerator(matrix=matrix, r_st=np.zeros(3)),)
    r0 = np.array([0.0, -1.0, 0.0])

    t1_grid = np.array([0.02, 0.06, 0.10, 0.20])
    lag_grid = np.array([0.02, 0.05, 0.10, 0.20, 0.40])
    values = np.empty((t1_grid.size, lag_grid.size))
    cache: dict = {}
    for i, t1 in enumerate(t1_grid):
        for j, tau in enumerate(lag_grid):
            spec = CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 1),
                                  initial_state=r0)
            values[i, j] = correlator_recursive(spec, (det_z, det_x), segments, cache)
    return ZxDemoSetup(detectors=(det_z, det_x), segments=segments, initial_state=r0,
                       t1_grid=t1_grid, lag_grid=lag_grid, values=values)
