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

from .core import (
    ConfigError,
    DiagnosticError,
    TimeGrid,
    check_segments,
    require_physical,
)
from .ensemble import rotation_matrix

DEFAULT_BATCH_SIZE = 8192
# trajectories per Philox key in noise stream v2; part of the stream's
# definition, not a tuning knob
NOISE_TILE = 64

# trajectories may overshoot the unit sphere by Euler error; beyond this the
# step size is unusable and the run aborts
NORM_OVERSHOOT_TOL = 0.05

ARCHIVE_MAGIC = b"CQMARCH1"
ARCHIVE_VERSION = 2


@dataclasses.dataclass(frozen=True)
class NoisePlan:
    """Counter-based standard normals keyed on (seed, trajectory).

    Noise stream v2: trajectories are grouped in tiles of NOISE_TILE = 64,
    and the normals of trajectory j are lane j % 64 of
    ``np.random.Generator(np.random.Philox(key=[seed, j // 64]))
    .standard_normal((n_steps, n_detectors, 64))``, drawn from counter 0 by
    numpy's ziggurat. The draws of a tile run step-major, so a longer record
    extends the stream without changing its start. No state is carried
    between calls, so any trajectory's noise can be regenerated in
    isolation, by drawing its whole tile.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must fit in uint64, got {self.seed!r}")

    def normals(self, traj_index: int, n_steps: int, n_detectors: int = 1) -> np.ndarray:
        """Standard normals for one trajectory, shape (n_steps, n_detectors)."""
        return _batch_normals(self, traj_index, traj_index + 1, n_steps, n_detectors)[0]


def _batch_normals(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int) -> np.ndarray:
    """Normals for trajectories lo..hi-1, shape (hi-lo, n_steps, n_det).

    The memory is step-major: the result is a transposed view of a
    C-contiguous (n_steps, n_det, hi-lo) array, so ``.transpose(1, 2, 0)``
    gives the stepper each step's draws for the whole batch as one
    contiguous (n_det, hi-lo) block. One Philox is re-keyed to [seed, tile],
    counter 0, for each tile that meets [lo, hi); the tile's normals go into
    one reused (n_steps, n_det, NOISE_TILE) buffer, and its lanes inside
    [lo, hi) are copied into the result in runs of at most 64 values."""
    out = np.empty((n_steps, n_det, hi - lo))
    buf = np.empty((n_steps, n_det, NOISE_TILE))
    key = np.array([plan.seed, lo // NOISE_TILE], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    # the setter copies the arrays, so this dict stays at counter 0
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for tile in range(lo // NOISE_TILE, (hi - 1) // NOISE_TILE + 1):
        key[1] = tile
        bits.state = state
        gen.standard_normal(out=buf)
        first = tile * NOISE_TILE
        a, b = max(lo, first), min(hi, first + NOISE_TILE)
        out[:, :, a - lo:b - lo] = buf[:, :, a - first:b - first]
    return out.transpose(2, 0, 1)


def _segment_table(segments, grid: TimeGrid):
    """Per-step segment lookup. Each step uses the segment containing its
    start time; a segment boundary strictly inside a step is an Euler-level
    approximation, same order as the stepping error."""
    segments = list(segments)
    check_segments(segments, 0.0, grid.t_end)
    starts = np.array([seg.t_start for seg in segments])
    idx = np.searchsorted(starts, grid.times(), side="right") - 1
    idx = np.clip(idx, 0, len(segments) - 1)
    return segments, idx.astype(np.intp)


def _prepare(initial_state, grid: TimeGrid, detectors, segments):
    """Checked preparation: the initial state, the detector and segment
    models, and each step's segment index."""
    r0 = require_physical(initial_state)
    detectors = tuple(detectors)
    if not detectors:
        raise ConfigError("need at least one detector")
    segments, seg_idx = _segment_table(segments, grid)
    return r0, detectors, segments, seg_idx


def _simulate_batch(r0, grid: TimeGrid, detectors, segments, seg_idx, noise,
                    record_states: bool, traj_lo: int, decimate: int = 1):
    """Euler-Maruyama on a batch, for the noise ``noise`` of ``_batch_normals``.
    Returns step-major (signals (n_steps // decimate, n_det, B) normalized,
    states (n_steps+1, 3, B) or None).

    The batch state is the C-contiguous (4, B) block of columns (r, 1), and
    one matmul per step applies every affine map of it. For the step's
    segment s the stacked matrix has the rows [D_s | c_s], [0 | 1], [N | 0]
    and [A_ell | n_ell] for each detector, with D_s = I + L_s dt,
    c_s = -L_s r_st dt, N the detector axes and A_ell = K_ell [n_ell]x. Its
    product holds the drifted state, the ones row, n.r and A r + n, so the
    signals are n.r + sqrt(tau_m/dt) w and the kicks add
    sqrt(dt/tau_m) w (A r + n - (n.r) r) to the drifted state in place. Two
    such blocks alternate as input and output.

    Step k adds its signals into row k // D of a zeroed
    (n_steps // D, n_det, B) array, for ``decimate`` D, and the array is
    divided by D after the last step: a sample is its D fine samples summed
    in step order, divided by D. With D = 1 both are exact, so the signals
    are the fine samples themselves.
    """
    noise = noise.transpose(1, 2, 0)
    n_steps, n_det, batch = noise.shape
    if batch == 1:
        # numpy sends a one-column matmul to gemv, which rounds differently
        # from gemm; stepping the lone trajectory twice keeps it on gemm, so
        # its bits match the same trajectory inside any larger batch
        noise = np.repeat(noise, 2, axis=2)
    width = noise.shape[2]
    dt = grid.dt
    max_norm2 = (1.0 + NORM_OVERSHOOT_TOL) ** 2

    kick = np.array([[math.sqrt(dt / det.tau_m)] for det in detectors])
    scale = np.array([[math.sqrt(det.tau_m / dt)] for det in detectors])
    readout = np.hstack([np.array([det.axis for det in detectors]), np.zeros((n_det, 1))])
    kicks = [np.hstack([rotation_matrix(det.axis, det.k_phase), det.axis[:, None]])
             for det in detectors]
    linear = [np.vstack([np.hstack([np.eye(3) + seg.matrix * dt,
                                    -(seg.matrix @ seg.r_st)[:, None] * dt]),
                         [0.0, 0.0, 0.0, 1.0], readout, *kicks]) for seg in segments]

    blocks = np.empty((2, 4 + 4 * n_det, width))
    blocks[0, :3] = r0[:, None]
    blocks[0, 3] = 1.0
    states = np.empty((n_steps + 1, 3, width)) if record_states else None
    if record_states:
        states[0] = blocks[0, :3]
    # filled now, not left as calloc's untouched pages: the first add to a
    # row would fault each page in twice, a read and then a copy-on-write
    signals = np.full((n_steps // decimate, n_det, width), 0.0)
    sig = np.empty((n_det, width))
    quad = np.empty((3, width))
    gain = np.empty((n_det, width))
    norm2 = np.empty(width)

    for k in range(n_steps):
        cur, nxt = blocks[k % 2], blocks[(k + 1) % 2]
        r, r_new, nr = cur[:3], nxt[:3], nxt[4:4 + n_det]
        w = noise[k]
        np.matmul(linear[seg_idx[k]], cur[:4], out=nxt)
        np.multiply(scale, w, out=sig)
        sig += nr
        signals[k // decimate] += sig
        np.multiply(kick, w, out=gain)
        for ell in range(n_det):
            term = nxt[4 + n_det + 3 * ell:7 + n_det + 3 * ell]
            np.multiply(nr[ell], r, out=quad)
            term -= quad
            term *= gain[ell]
            r_new += term
        np.einsum("ib,ib->b", r_new, r_new, out=norm2)
        if norm2.max() > max_norm2:
            worst = int(np.argmax(norm2))
            raise DiagnosticError(
                f"trajectory {traj_lo + worst} norm {math.sqrt(float(norm2[worst])):.6g} "
                f"at t = {(k + 1) * dt:.6g} overshoots the Bloch sphere "
                f"by more than {NORM_OVERSHOOT_TOL}; reduce dt")
        if record_states:
            states[k + 1] = r_new
    signals /= decimate
    return (signals[:, :, :batch],
            states[:, :, :batch] if record_states else None)


def simulate_states(initial_state, grid: TimeGrid, detectors, segments, plan: NoisePlan,
                    traj_lo: int, traj_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories traj_lo..traj_hi-1 with their full state history.

    Returns (states (B, n_steps+1, 3) on the step endpoints, signals
    (B, n_detectors, n_steps) in normalized units). Trajectory j uses noise
    stream (plan.seed, j), so its signals equal record j of ``run_ensemble``
    on the same arguments, before the raw-units map."""
    if not 0 <= traj_lo < traj_hi:
        raise ConfigError(f"need 0 <= traj_lo < traj_hi, got {traj_lo!r}, {traj_hi!r}")
    r0, detectors, segments, seg_idx = _prepare(initial_state, grid, detectors, segments)
    noise = _batch_normals(plan, traj_lo, traj_hi, grid.n_steps, len(detectors))
    signals, states = _simulate_batch(r0, grid, detectors, segments, seg_idx, noise,
                                      record_states=True, traj_lo=traj_lo)
    return (np.ascontiguousarray(states.transpose(2, 0, 1)),
            np.ascontiguousarray(signals.transpose(2, 1, 0)))


@dataclasses.dataclass
class EnsembleArchive:
    """Ensemble of output records on a common grid, in raw detector units.

    Serialized format (little-endian): magic ``CQMARCH1``, uint32 header
    length, JSON header with sorted keys (config_digest, dt, kind = "raw",
    n_detectors, n_samples, n_traj, seed, t0 = 0.0, version), then the signal
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
            "t0": 0.0,
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
    dec_grid = grid.decimated(decimate)
    r0, detectors, segments, seg_idx = _prepare(initial_state, grid, detectors, segments)
    n_det = len(detectors)

    out = np.empty((n_traj, n_det, dec_grid.n_steps))
    n_batches = (n_traj + batch_size - 1) // batch_size
    offsets = np.array([det.offset for det in detectors])
    responses = np.array([det.response for det in detectors])

    def run_batch(b: int) -> None:
        lo = b * batch_size
        hi = min(lo + batch_size, n_traj)
        noise = _batch_normals(plan, lo, hi, grid.n_steps, n_det)
        signals, _ = _simulate_batch(r0, grid, detectors, segments, seg_idx, noise,
                                     record_states=False, traj_lo=lo, decimate=decimate)
        del noise
        records = out[lo:hi]
        # a huge response or offset overflows to inf here, which the caller
        # reports; numpy's error state is per thread, so it is set in the worker
        with np.errstate(over="ignore"):
            np.multiply(responses[:, None], signals.transpose(2, 1, 0), out=records)
            records += offsets[:, None]

    if threads == 1:
        for b in range(n_batches):
            run_batch(b)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_batch, range(n_batches)))

    return EnsembleArchive(grid=dec_grid, seed=plan.seed, signals=out,
                           config_digest=config_digest)
