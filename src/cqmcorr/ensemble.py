"""Deterministic ensemble-averaged qubit evolution.

The ensemble state obeys dr/dt = L (r - r_st) with a piecewise-constant
generator L (3x3 real matrix) and fixed point r_st. Each piece is an
EnsembleGenerator segment; propagation across a time window multiplies the
per-segment affine propagators in order.

An affine map r -> P r + s is held as the augmented 4x4 matrix
[[P, s], [0, 1]] acting on (r, 1), so chaining maps is a matrix product. The
step over a duration t of one segment is [[E, (I - E) r_st], [0, 1]] with
E = e^{L t}, which holds for singular L (pure rotations, partial dephasing)
with no special cases and keeps the last row exactly (0, 0, 0, 1). ``_expm``
exponentiates a stack of 3x3 generators in numpy; ``propagator`` builds one
interval's map, and ``propagators`` a stack of them with one ``_expm`` call
per segment. A detector's measurement is its 4x4 ``DetectorModel.collapse``
on the same columns; the collapse recipe and the trajectory stepper both
build on these maps.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, EnsembleGenerator, _cross_matrix, as_bloch, check_segments


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
    return omega * _cross_matrix(as_bloch(axis))


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


# Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005: the largest 1-norm at which
# the degree-13 Pade approximant of e^A has a backward error below the unit
# roundoff of double precision, and the coefficients b_0 .. b_13 of its
# numerator
THETA_13 = 5.371920351148152
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


def _expm(gens: np.ndarray) -> np.ndarray:
    """e^A for each A of the (n, 3, 3) stack ``gens``, by Pade-13 scaling and
    squaring (Higham 2005).

    Each matrix is scaled by its own power of two 2^-s into the Pade region,
    and its approximant I + 2 (V - U)^-1 U is squared s times; a zero matrix
    gives the identity exactly. Squarings that all matrices need run on the
    whole stack and the rest only on the matrices that need them, so no
    product is discarded. Every result depends on its own matrix alone: a
    stack equals its matrices taken one at a time, bit for bit.
    """
    mant, exp = np.frexp(np.abs(gens).sum(axis=1).max(axis=1) / THETA_13)
    s = np.maximum(exp - (mant == 0.5), 0)  # ceil(log2(norm / THETA_13)), at least 0
    a = np.ldexp(gens, -s[:, None, None])
    b = PADE_13
    eye = _EYE3
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = eye + np.linalg.solve(v - u, 2.0 * u)
    s_min, s_max = s.min(), s.max()
    for _ in range(s_min):
        out = out @ out
    for k in range(s_min, s_max):
        more = s > k
        out[more] = out[more] @ out[more]
    return out


def _segment_steps(segment: EnsembleGenerator, durations: np.ndarray) -> np.ndarray:
    """Augmented propagators [[E, (I - E) r_st], [0, 1]], E = e^{L t}, of one
    segment over each of the 1-D array ``durations``, as an (n, 4, 4) stack."""
    e = _expm(segment.matrix * durations[:, None, None])
    steps = np.zeros((durations.size, 4, 4))
    steps[:, :3, :3] = e
    steps[:, :3, 3] = segment.r_st - e @ segment.r_st
    steps[:, 3, 3] = 1.0
    return steps


def _step_pair(segment: EnsembleGenerator, duration: float) -> np.ndarray:
    """``_segment_steps`` of one duration, then that step times the identity,
    which is how ``propagators`` takes a first step (the two agree in the
    signs of zeros too), as a read-only (2, 4, 4) stack. The same ops as
    ``_segment_steps`` on a stack of one, bit for bit, built in place."""
    e = _expm((segment.matrix * duration)[None])[0]
    steps = np.zeros((2, 4, 4))
    step = steps[0]
    step[:3, :3] = e
    step[:3, 3] = segment.r_st - e.dot(segment.r_st)
    step[3, 3] = 1.0
    np.matmul(step, _EYE4, out=steps[1])
    steps.setflags(write=False)
    return steps


def _require_finite(**times) -> None:
    """Raise naming the first argument that holds a NaN or an infinity."""
    for name, t in times.items():
        finite = np.isfinite(t)
        if not np.all(finite):
            raise ConfigError(f"{name} must be finite, got {np.asarray(t)[~finite][0]}")


def propagator(t_from: float, t_to: float, segments, cache: dict | None = None) -> np.ndarray:
    """Affine propagator over [t_from, t_to] for a piecewise-constant generator,
    as the augmented 4x4 matrix [[P, s], [0, 1]] that maps (r, 1) to
    (P r + s, 1).

    ``segments`` is an ordered gap-free list of EnsembleGenerator. ``cache``,
    if given, memoizes per-segment matrix exponentials keyed on (segment index,
    duration); repeated sweeps over a uniform grid then pay for each distinct
    duration once. The cache holds each step read-only, beside its product
    with the identity, which an interval inside one segment returns: the
    result may be a read-only view of the cache. An interval across segments
    chains the steps onto that of its first segment. Non-finite times raise.
    """
    if not (math.isfinite(t_from) and math.isfinite(t_to)):
        _require_finite(t_from=t_from, t_to=t_to)
    if t_to < t_from:
        raise ConfigError(f"t_to {t_to} precedes t_from {t_from}")
    if t_to == t_from:
        return np.eye(4)
    segments = list(segments)
    check_segments(segments, t_from, t_to)
    cache = {} if cache is None else cache

    prop = None
    for index, seg in enumerate(segments):
        lo = max(t_from, seg.t_start)
        hi = min(t_to, seg.t_end)
        if hi <= lo:
            continue
        key = (index, hi - lo)
        steps = cache.get(key)
        if steps is None:
            steps = cache[key] = _step_pair(seg, hi - lo)
        prop = steps[1] if prop is None else steps[0] @ prop
    return prop


def propagators(t_from, t_to, segments) -> np.ndarray:
    """Stacked affine propagators over the intervals [t_from[i], t_to[i]], as
    an (n, 4, 4) array whose i-th matrix equals ``propagator(t_from[i],
    t_to[i], segments)`` bit for bit.

    Per segment, the distinct durations the intervals spend in it are
    exponentiated in one ``_expm`` call and chained onto the stack in
    one batched matmul, in segment order as ``propagator`` chains them.
    Zero-length intervals give the identity exactly. ``check_segments`` runs
    once, on the hull [min t_from, max t_to] of the nonempty intervals: a
    segment gap inside the hull raises even if no interval meets it. The
    time average's intervals cover their hull without holes, so there it
    equals checking each interval. Non-finite times raise, as in
    ``propagator``.
    """
    t_from = np.asarray(t_from, dtype=np.float64)
    t_to = np.asarray(t_to, dtype=np.float64)
    if t_from.ndim != 1 or t_from.shape != t_to.shape:
        raise ConfigError("t_from and t_to must be 1-D arrays of equal length")
    _require_finite(t_from=t_from, t_to=t_to)
    backward = t_to < t_from
    if np.any(backward):
        i = int(np.argmax(backward))
        raise ConfigError(f"t_to {t_to[i]} precedes t_from {t_from[i]}")
    props = np.broadcast_to(_EYE4, (t_from.size, 4, 4)).copy()
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
        steps = _segment_steps(seg, distinct)
        props[inside] = np.matmul(steps[which], props[inside])
    return props
