"""Deterministic ensemble-averaged qubit evolution.

The ensemble state obeys dr/dt = L (r - r_st) with a piecewise-constant
generator L (3x3 real matrix) and fixed point r_st. Each piece is an
EnsembleGenerator segment; propagation across a time window multiplies the
per-segment affine propagators in order.

An affine map r -> P r + s is held as the augmented 4x4 matrix
[[P, s], [0, 1]] acting on (r, 1), so chaining maps is a matrix product. The
step over one segment is the matrix exponential of the augmented generator
[[L, -L r_st], [0, 0]], which handles singular L (pure rotations, partial
dephasing) with no special cases. ``propagator`` builds one interval's map;
``propagators`` builds a stack of them with one batched ``expm`` per segment.
A detector's measurement is the 4x4 ``_collapse_matrix`` on the same columns;
the collapse recipe and the trajectory stepper both build on these maps.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .core import ConfigError, DetectorModel, EnsembleGenerator, as_bloch, check_segments


def dephasing_matrix(axis, rate: float) -> np.ndarray:
    """Generator contribution of measurement-induced dephasing at ``rate``
    about ``axis``: damps the Bloch components transverse to the axis,
    rate * (n n^T - 1)."""
    n = as_bloch(axis)
    if rate < 0:
        raise ConfigError(f"dephasing rate must be >= 0, got {rate!r}")
    return rate * (np.outer(n, n) - np.eye(3))


def rotation_matrix(axis, omega: float) -> np.ndarray:
    """Generator of coherent rotation about ``axis`` at angular rate ``omega``
    (rad/us): r -> omega (n x r)."""
    n = as_bloch(axis)
    return omega * np.array([
        [0.0, -n[2], n[1]],
        [n[2], 0.0, -n[0]],
        [-n[1], n[0], 0.0],
    ])


def rabi_dephasing_generator(gamma: float, omega_r: float) -> EnsembleGenerator:
    """Rabi drive about x at angular rate ``omega_r`` plus dephasing of the
    x and y components at rate ``gamma`` (z-axis measurement plus any intrinsic
    dephasing lumped together). Unital: the fixed point is the origin."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma!r}")
    mat = np.array([
        [-gamma, 0.0, 0.0],
        [0.0, -gamma, -omega_r],
        [0.0, omega_r, 0.0],
    ])
    return EnsembleGenerator(matrix=mat, r_st=np.zeros(3))


def _augmented_generator(segment: EnsembleGenerator) -> np.ndarray:
    """The segment's generator acting on (r, 1): [[L, -L r_st], [0, 0]]."""
    aug = np.zeros((4, 4))
    aug[:3, :3] = segment.matrix
    aug[:3, 3] = -segment.matrix @ segment.r_st
    return aug


def _collapse_matrix(det: DetectorModel) -> np.ndarray:
    """Linear map of one measurement by the detector ``det`` on the
    sign-weighted pair (Kvec, K) of the collapse recipe:
    (Kvec, K) -> (K n + K_phase (n x Kvec), n . Kvec), as the 4x4 matrix
    [[K_phase [n]x, n], [n^T, 0]]."""
    mat = np.zeros((4, 4))
    mat[:3, :3] = rotation_matrix(det.axis, det.k_phase)
    mat[:3, 3] = det.axis
    mat[3, :3] = det.axis
    return mat


def _segment_step(segment: EnsembleGenerator, dt: float) -> np.ndarray:
    """Augmented propagator for evolving dt under one segment's generator."""
    return expm(_augmented_generator(segment) * dt)


def propagator(t_from: float, t_to: float, segments, cache: dict | None = None) -> np.ndarray:
    """Affine propagator over [t_from, t_to] for a piecewise-constant generator,
    as the augmented 4x4 matrix [[P, s], [0, 1]] that maps (r, 1) to
    (P r + s, 1).

    ``segments`` is an ordered gap-free list of EnsembleGenerator. ``cache``,
    if given, memoizes per-segment matrix exponentials keyed on (segment index,
    duration); repeated sweeps over a uniform grid then pay for each distinct
    duration once.
    """
    if t_to < t_from:
        raise ConfigError(f"t_to {t_to} precedes t_from {t_from}")
    if t_to == t_from:
        return np.eye(4)
    segments = list(segments)
    check_segments(segments, t_from, t_to)
    cache = {} if cache is None else cache

    prop = np.eye(4)
    for index, seg in enumerate(segments):
        lo = max(t_from, seg.t_start)
        hi = min(t_to, seg.t_end)
        if hi <= lo:
            continue
        key = (index, hi - lo)
        step = cache.get(key)
        if step is None:
            step = cache[key] = _segment_step(seg, hi - lo)
        prop = step @ prop
    return prop


def propagators(t_from, t_to, segments) -> np.ndarray:
    """Stacked affine propagators over the intervals [t_from[i], t_to[i]], as
    an (n, 4, 4) array whose i-th matrix equals ``propagator(t_from[i],
    t_to[i], segments)`` bit for bit.

    Per segment, the distinct durations the intervals spend in it are
    exponentiated in one batched ``expm`` call and chained onto the stack in
    one batched matmul, in segment order as ``propagator`` chains them.
    Zero-length intervals give the identity exactly. ``check_segments`` runs
    once, on the hull [min t_from, max t_to] of the nonempty intervals: a
    segment gap inside the hull raises even if no interval meets it. The
    time average's intervals cover their hull without holes, so there it
    equals checking each interval.
    """
    t_from = np.asarray(t_from, dtype=np.float64)
    t_to = np.asarray(t_to, dtype=np.float64)
    if t_from.ndim != 1 or t_from.shape != t_to.shape:
        raise ConfigError("t_from and t_to must be 1-D arrays of equal length")
    backward = t_to < t_from
    if np.any(backward):
        i = int(np.argmax(backward))
        raise ConfigError(f"t_to {t_to[i]} precedes t_from {t_from[i]}")
    props = np.broadcast_to(np.eye(4), (t_from.size, 4, 4)).copy()
    moving = t_to > t_from
    if not np.any(moving):
        return props
    segments = list(segments)
    check_segments(segments, float(t_from[moving].min()), float(t_to[moving].max()))

    for seg in segments:
        duration = np.minimum(t_to, seg.t_end) - np.maximum(t_from, seg.t_start)
        inside = duration > 0
        if not np.any(inside):
            continue
        distinct, which = np.unique(duration[inside], return_inverse=True)
        steps = expm(_augmented_generator(seg) * distinct[:, None, None])
        props[inside] = np.matmul(steps[which], props[inside])
    return props
