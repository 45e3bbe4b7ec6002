"""Stochastic simulation of continuously monitored qubits.

Ito stochastic differential equation for the conditioned Bloch vector r under
simultaneous monitoring by detectors ell, each with axis n, measurement time
tau_m, and phase-backaction strength K = tan(phi_a):

    dr = L (r - r_st) dt
       + sum_ell [ (n - (n.r) r) + K (n x r) ] / sqrt(tau_m_ell) dW_ell

with L the full ensemble generator (it already contains the measurement
dephasing of every detector, so the noise terms average to zero and the
ensemble mean follows L exactly). Integration is Euler-Maruyama on a uniform
grid, dW -> sqrt(dt) w with w a standard normal.

The normalized output sample for step k is

    I_k = n . r_k + sqrt(tau_m/dt) w_k

with r_k the state at the start of the step and w_k THE SAME draw that kicks
the state. That correlation is the entire mechanism behind the correlator
physics; drawing the signal noise separately would be a different (wrong)
model, so the draw is made once and reused.

Reproducibility: noise is counter-based. The normal for (trajectory, step,
detector) is a pure function of (seed, trajectory, step, detector), so
results never depend on thread count, batch size, or evaluation order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
from scipy.special import ndtri

from .core import (
    ConfigError,
    DiagnosticError,
    TimeGrid,
    check_segments,
    require_physical,
)

DEFAULT_BATCH_SIZE = 8192

# trajectories may overshoot the unit sphere by Euler error; beyond this the
# step size is unusable and the run aborts
NORM_OVERSHOOT_TOL = 0.05

ARCHIVE_MAGIC = b"CQMARCH1"
ARCHIVE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class NoisePlan:
    """Counter-based standard normals keyed on (seed, trajectory).

    The raw 64-bit words of trajectory j are those of Philox4x64-10 with key
    [seed, j] from counter 0 (noise stream v1). Each batch call builds one
    generator and re-keys it to [seed, j], counter 0, for every trajectory,
    so the words are those of a fresh ``np.random.Philox(key=[seed, j])``.
    The word at flat index step * n_detectors + detector is mapped to an
    open-interval uniform ((raw >> 11) * 2^-53 + 2^-54) and through the
    inverse normal CDF. No state is carried between calls, so any
    trajectory's noise can be regenerated in isolation.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must fit in uint64, got {self.seed!r}")

    def normals(self, traj_index: int, n_steps: int, n_detectors: int = 1) -> np.ndarray:
        """Standard normals for one trajectory, shape (n_steps, n_detectors)."""
        return _batch_normals(self, traj_index, traj_index + 1, n_steps, n_detectors)[0]


def _batch_normals(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int) -> np.ndarray:
    """Normals for trajectories lo..hi-1, shape (hi-lo, n_steps, n_det)."""
    count = n_steps * n_det
    raw = np.empty((hi - lo, count), dtype=np.uint64)
    key = np.array([plan.seed, lo], dtype=np.uint64)
    gen = np.random.Philox(key=key)
    # the setter copies the arrays, so this dict stays at counter 0
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for j in range(lo, hi):
        key[1] = j
        gen.state = state
        raw[j - lo] = gen.random_raw(count)
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    ndtri(u, out=u)
    return u.reshape(hi - lo, n_steps, n_det)


def _detector_constants(detectors, dt: float):
    """Per-detector scalars used by the stepper: axis components, k_phase,
    kick scale sqrt(dt/tau_m), output noise scale sqrt(tau_m/dt)."""
    consts = []
    for det in detectors:
        n0, n1, n2 = (float(c) for c in det.axis)
        consts.append((n0, n1, n2, float(det.k_phase),
                       math.sqrt(dt / det.tau_m), math.sqrt(det.tau_m / dt)))
    return consts


def _segment_constants(segment):
    """Generator scalars (row-major matrix entries and the constant drift
    piece b = L r_st, so the drift is L r - b)."""
    m = segment.matrix
    b = segment.matrix @ segment.r_st
    return (float(m[0, 0]), float(m[0, 1]), float(m[0, 2]),
            float(m[1, 0]), float(m[1, 1]), float(m[1, 2]),
            float(m[2, 0]), float(m[2, 1]), float(m[2, 2]),
            float(b[0]), float(b[1]), float(b[2]))


def _segment_table(segments, grid: TimeGrid):
    """Per-step segment lookup. Each step uses the segment containing its
    start time; a segment boundary strictly inside a step is an Euler-level
    approximation, same order as the stepping error."""
    segments = list(segments)
    check_segments(segments, grid.t0, grid.t_end)
    consts = [_segment_constants(seg) for seg in segments]
    starts = np.array([seg.t_start for seg in segments])
    idx = np.searchsorted(starts, grid.times(), side="right") - 1
    idx = np.clip(idx, 0, len(segments) - 1)
    return consts, idx.astype(np.intp)


def _ito_update(x, y, z, noise_step, det_consts, seg, dt):
    """One Euler-Maruyama step on equal-shape component arrays; returns the
    new components and the per-detector signals from the pre-step state."""
    signals = []
    nrs = []
    for (n0, n1, n2, kk, kick, scale), w in zip(det_consts, noise_step):
        nr = n0 * x + n1 * y + n2 * z
        signals.append(nr + scale * w)
        nrs.append(nr)
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = seg
    dx = (m00 * x + m01 * y + m02 * z - b0) * dt
    dy = (m10 * x + m11 * y + m12 * z - b1) * dt
    dz = (m20 * x + m21 * y + m22 * z - b2) * dt
    for (n0, n1, n2, kk, kick, scale), w, nr in zip(det_consts, noise_step, nrs):
        g = w * kick
        dx = dx + (n0 - nr * x + kk * (n1 * z - n2 * y)) * g
        dy = dy + (n1 - nr * y + kk * (n2 * x - n0 * z)) * g
        dz = dz + (n2 - nr * z + kk * (n0 * y - n1 * x)) * g
    return x + dx, y + dy, z + dz, signals


def _prepare(initial_state, grid: TimeGrid, detectors, segments):
    """Checked preparation and the stepper's per-detector and per-step
    segment constants."""
    r0 = require_physical(initial_state)
    detectors = tuple(detectors)
    if not detectors:
        raise ConfigError("need at least one detector")
    seg_consts, seg_idx = _segment_table(segments, grid)
    return r0, detectors, _detector_constants(detectors, grid.dt), seg_consts, seg_idx


def _simulate_batch(r0s, grid: TimeGrid, det_consts, seg_consts, seg_idx, noise,
                    record_states: bool, traj_lo: int):
    """Simulate a batch. Returns (signals (B, n_det, n_steps) normalized,
    states (B, n_steps+1, 3) or None)."""
    n_steps = grid.n_steps
    n_det = noise.shape[2]
    batch = r0s.shape[0]
    dt = grid.dt
    max_norm2 = (1.0 + NORM_OVERSHOOT_TOL) ** 2

    x = r0s[:, 0].copy()
    y = r0s[:, 1].copy()
    z = r0s[:, 2].copy()
    signals = np.empty((batch, n_det, n_steps))
    states = np.empty((batch, n_steps + 1, 3)) if record_states else None

    def record(k):
        if record_states:
            states[:, k, 0] = x
            states[:, k, 1] = y
            states[:, k, 2] = z

    record(0)
    for k in range(n_steps):
        noise_step = [noise[:, k, ell] for ell in range(n_det)]
        x, y, z, sigs = _ito_update(x, y, z, noise_step, det_consts,
                                    seg_consts[seg_idx[k]], dt)
        for ell in range(n_det):
            signals[:, ell, k] = sigs[ell]
        norm2 = x * x + y * y + z * z
        if np.any(norm2 > max_norm2):
            worst = int(np.argmax(norm2))
            raise DiagnosticError(
                f"trajectory {traj_lo + worst} norm {math.sqrt(float(norm2[worst])):.6g} "
                f"at t = {grid.t0 + (k + 1) * dt:.6g} overshoots the Bloch sphere "
                f"by more than {NORM_OVERSHOOT_TOL}; reduce dt")
        record(k + 1)
    return signals, states


def simulate_states(initial_state, grid: TimeGrid, detectors, segments, plan: NoisePlan,
                    traj_lo: int, traj_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories traj_lo..traj_hi-1 with their full state history.

    Returns (states (B, n_steps+1, 3) on the step endpoints, signals
    (B, n_detectors, n_steps) in normalized units). Trajectory j uses noise
    stream (plan.seed, j), so its signals equal record j of ``run_ensemble``
    on the same arguments, before the raw-units map."""
    if not 0 <= traj_lo < traj_hi:
        raise ConfigError(f"need 0 <= traj_lo < traj_hi, got {traj_lo!r}, {traj_hi!r}")
    r0, detectors, det_consts, seg_consts, seg_idx = _prepare(
        initial_state, grid, detectors, segments)
    noise = _batch_normals(plan, traj_lo, traj_hi, grid.n_steps, len(detectors))
    r0s = np.broadcast_to(r0, (traj_hi - traj_lo, 3))
    signals, states = _simulate_batch(r0s, grid, det_consts, seg_consts, seg_idx, noise,
                                      record_states=True, traj_lo=traj_lo)
    return states, signals


@dataclasses.dataclass
class EnsembleArchive:
    """Ensemble of output records on a common grid, in raw detector units.

    Serialized format (little-endian): magic ``CQMARCH1``, uint32 header
    length, JSON header with sorted keys (config_digest, dt, kind = "raw",
    n_detectors, n_samples, n_traj, seed, t0, version), then the signal
    array as consecutive per-trajectory blocks of n_detectors * n_samples
    float64 values, C order. The package writes archives and reads none
    back.
    """

    grid: TimeGrid
    seed: int
    signals: np.ndarray  # (n_traj, n_detectors, n_samples)
    config_digest: str = ""

    @property
    def n_traj(self) -> int:
        return self.signals.shape[0]

    @property
    def n_detectors(self) -> int:
        return self.signals.shape[1]

    @property
    def n_samples(self) -> int:
        return self.signals.shape[2]

    def header(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "dt": self.grid.dt,
            "kind": "raw",
            "n_detectors": self.n_detectors,
            "n_samples": self.n_samples,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "t0": self.grid.t0,
            "version": ARCHIVE_VERSION,
        }

    def _serial_chunks(self):
        header = json.dumps(self.header(), sort_keys=True).encode()
        yield ARCHIVE_MAGIC
        yield struct.pack("<I", len(header))
        yield header
        data = np.ascontiguousarray(self.signals, dtype="<f8")
        yield data.data

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            for chunk in self._serial_chunks():
                fh.write(chunk)

    def digest(self) -> str:
        """sha256 of the serialized byte stream (identical to hashing the
        saved file)."""
        h = hashlib.sha256()
        for chunk in self._serial_chunks():
            h.update(chunk)
        return h.hexdigest()


def run_ensemble(n_traj: int, plan: NoisePlan, initial_state, grid: TimeGrid,
                 detectors, segments, *, threads: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE, decimate: int = 1,
                 config_digest: str = "") -> EnsembleArchive:
    """Simulate n_traj trajectories and return their raw output records.

    Trajectory j uses noise stream (plan.seed, j), so the ensemble content is
    a pure function of the arguments. ``decimate`` averages each group of
    that many consecutive samples into one (dt grows accordingly), which is
    how a fine integration grid turns into a coarse acquisition grid.
    ``threads`` distributes whole batches (fixed size ``batch_size``) over a
    thread pool; each batch writes its own slice of the records, so every
    output bit is independent of ``threads``. States are not kept; use
    ``simulate_states`` for a state history.
    """
    if n_traj < 1:
        raise ConfigError(f"n_traj must be >= 1, got {n_traj!r}")
    if threads < 1 or batch_size < 1:
        raise ConfigError("threads and batch_size must be >= 1")
    if decimate < 1 or grid.n_steps % decimate != 0:
        raise ConfigError(
            f"decimate must divide n_steps, got {decimate!r} for {grid.n_steps} steps")
    r0, detectors, det_consts, seg_consts, seg_idx = _prepare(
        initial_state, grid, detectors, segments)
    n_det = len(detectors)

    n_dec = grid.n_steps // decimate
    out = np.empty((n_traj, n_det, n_dec))
    n_batches = (n_traj + batch_size - 1) // batch_size
    offsets = np.array([det.offset for det in detectors])
    responses = np.array([det.response for det in detectors])

    def run_batch(b: int) -> None:
        lo = b * batch_size
        hi = min(lo + batch_size, n_traj)
        noise = _batch_normals(plan, lo, hi, grid.n_steps, n_det)
        r0s = np.broadcast_to(r0, (hi - lo, 3))
        signals, _ = _simulate_batch(r0s, grid, det_consts, seg_consts, seg_idx, noise,
                                     record_states=False, traj_lo=lo)
        if decimate > 1:
            signals = signals.reshape(hi - lo, n_det, n_dec, decimate).mean(axis=3)
        out[lo:hi] = offsets[:, None] + responses[:, None] * signals

    if threads == 1:
        for b in range(n_batches):
            run_batch(b)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_batch, range(n_batches)))

    dec_grid = TimeGrid(t0=grid.t0, dt=grid.dt * decimate, n_steps=n_dec)
    return EnsembleArchive(grid=dec_grid, seed=plan.seed, signals=out,
                           config_digest=config_digest)
