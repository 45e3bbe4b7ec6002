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

Stationary starts: the measurement leaves its eigenstates r0 = +-n in
place, and so does the step when no drive moves them: the drift returns r0
and its kick direction K (n x r0) + n - (n.r0) r0 is zero, so every sample is
n.r0 + sqrt(tau_m/dt) w. ``run_ensemble`` tests its start once per run, on
the step's own matrices and in its own floating-point ops
(``_pole_signals``), and a start that passes is not stepped: each span's
signals come straight from its noise (``_pole_batch``), bit for bit those
of the stepper and in the stepper's layout, and are handed over as a
stepped span's are. Any other start, and every ``simulate_states`` call,
is stepped.

Reproducibility: noise is keyed per tile. The normal for (trajectory, step,
detector) is a pure function of (seed, trajectory, step, detector), so
results never depend on thread count, batch size, or evaluation order.

Threads: a noise feed (``_NoiseFeed``) draws its spans' noise on one helper
thread, ahead of its consumer, and holds the buffer their signals are
written into, mapped to raw units and handed over from. Every span is
drawn by one routine (``_tile_blocks``) as whole tiles, tile-major, and
read in place. ``run_ensemble`` runs one loop over spans for every start:
a stepped run's spans are batches of ``batch_size`` on W = min(``threads``,
batches) feeds, one per worker, and batch i steps from feed i % W; a
stationary run's spans are RECORD_SLICE trajectories on one feed, filled
on the calling thread whatever ``threads``. Either way each feed's next
span is drawn while its last is handed over, and at W = 1 the spans are
filled on the calling thread.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import queue
import struct
import threading
from collections.abc import Callable

import numpy as np

from .core import (
    ConfigError,
    DiagnosticError,
    TimeGrid,
    check_segments,
    require_int,
    require_physical,
)
from .ensemble import _augmented_generator

DEFAULT_BATCH_SIZE = 8192
# trajectories per generator in noise stream v3; part of the stream's
# definition, not a tuning knob
NOISE_TILE = 256

# trajectories may overshoot the unit sphere by Euler error; beyond this the
# step size is unusable and the run aborts
NORM_OVERSHOOT_TOL = 0.05

ARCHIVE_MAGIC = b"CQMARCH1"
ARCHIVE_VERSION = 3


def _tile_generator(seed: int, tile: int) -> np.random.Generator:
    """The generator of noise tile ``tile``, trajectories
    tile * NOISE_TILE .. (tile + 1) * NOISE_TILE - 1: the one place noise
    stream v3 is defined."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, tile])))


@dataclasses.dataclass(frozen=True)
class NoisePlan:
    """Standard normals keyed per tile on (seed, trajectory).

    Noise stream v3: trajectories are grouped in tiles of NOISE_TILE = 256,
    and the normals of trajectory j are lane j % 256 of
    ``np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed,
    j // 256]))).standard_normal((n_steps, n_detectors, 256))``, drawn by
    numpy's ziggurat. The draws of a tile run step-major, so a longer record
    extends the stream without changing its start. No state is carried
    between calls, so any trajectory's noise can be regenerated in
    isolation, by drawing its whole 256-lane tile on the calling thread
    with the routine that draws every run's noise (``_tile_blocks``).
    """

    seed: int

    def __post_init__(self):
        seed = require_int("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must fit in uint64, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)

    def normals(self, traj_index: int, n_steps: int, n_detectors: int = 1) -> np.ndarray:
        """Standard normals for one trajectory, shape (n_steps, n_detectors)."""
        require_int("traj_index", traj_index, 0)
        require_int("n_steps", n_steps, 1)
        require_int("n_detectors", n_detectors, 1)
        if traj_index >= 2**64:
            raise ConfigError(f"traj_index must fit in uint64, got {traj_index!r}")
        return _batch_normals(self, traj_index, traj_index + 1, n_steps, n_detectors)[0]


# steps per block of streamed noise at DEFAULT_BATCH_SIZE trajectories: a
# block holds at most NOISE_CHUNK x DEFAULT_BATCH_SIZE values
# (``_block_shape``). A tile drawn in pieces equals the tile drawn at once,
# so this sets only the memory of a run's noise, never a bit
NOISE_CHUNK = 20
# trajectories per hand-over of raw records: a span's signals are mapped to
# raw units in place and handed to the consumer in slices cut at multiples
# of this, and a stationary run's spans are this wide. Like NOISE_CHUNK it
# shapes no bit; it equals calibration.MOMENT_UNIT, so moment units arrive
# whole
RECORD_SLICE = 1024


def _tiles(lo: int, hi: int) -> range:
    """The noise tiles that trajectories lo..hi-1 meet."""
    return range(lo // NOISE_TILE, (hi - 1) // NOISE_TILE + 1)


def _block_shape(lo: int, hi: int, n_steps: int, n_det: int) -> tuple[int, int, int, int]:
    """The shape of a full block of ``_tile_blocks`` for [lo, hi): (tiles,
    m, n_det, NOISE_TILE), m the most steps that keep it within
    NOISE_CHUNK x DEFAULT_BATCH_SIZE values, and at least one: at one
    detector, 20 for a batch of 32 tiles and 160 for a slice of 4."""
    tiles = len(_tiles(lo, hi))
    steps = NOISE_CHUNK * DEFAULT_BATCH_SIZE // (tiles * n_det * NOISE_TILE)
    return tiles, min(n_steps, max(1, steps)), n_det, NOISE_TILE


def _tile_blocks(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int, slots):
    """Normals for trajectories lo..hi-1, in step order: tile-major
    (tiles, m, n_det, NOISE_TILE) blocks of the steps of ``_block_shape``,
    each holding the next m steps of every tile that meets [lo, hi), whole,
    so trajectory j sits in lane j % NOISE_TILE of tile
    j // NOISE_TILE - lo // NOISE_TILE and the lanes outside [lo, hi) are
    drawn and not used. Each block is carved from the next flat buffer of
    the iterator ``slots`` and drawn into it with one ``standard_normal``
    call per tile, the next m steps of the tile's (n_steps, n_det,
    NOISE_TILE) array; the ziggurat keeps no state outside the bit
    generator, so the pieces are the tile drawn at once. The blocks stop
    early if ``slots`` ends."""
    gens = [_tile_generator(plan.seed, tile) for tile in _tiles(lo, hi)]
    steps = _block_shape(lo, hi, n_steps, n_det)[1]
    # steps first, so that no buffer is taken after the last block
    for start, slot in zip(range(0, n_steps, steps), slots):
        m = min(steps, n_steps - start)
        block = slot[:len(gens) * m * n_det * NOISE_TILE].reshape(len(gens), m, n_det,
                                                                  NOISE_TILE)
        for gen, out in zip(gens, block):
            gen.standard_normal(out=out)
        yield block


class _NoiseFeed:
    """The noise of the spans [lo, hi) of ``spans``, in that order, drawn
    ahead on one helper thread: each span's ``_tile_blocks``, the batches
    of the stepper or the RECORD_SLICE spans of a stationary run, in two
    buffers that alternate, each as large as the largest block of any
    span. A buffer is drawn into as soon as the caller releases it, so
    while the caller hands over span s the helper is already up to two
    blocks into span s + 1. numpy's draws, like the stepper's matmul and
    ufuncs, release the GIL, so the two share the host's cores. One draw
    runs at a time, in trajectory order, so the helper shapes no bit.

    The buffers are allocated on the thread that makes the feed: allocated
    on the helper, most likely in a malloc arena of its own, they raised
    ``calibrate``'s peak RSS. ``n_samples`` > 0 adds to the same allocation
    a flat buffer of n_samples x n_det values for every lane of the widest
    span's tiles, as ``feed.signals``, which the caller writes each span's
    signals into, maps to raw units in place and hands over as records, so
    a run allocates no records buffer. With it inside, the allocation is a
    run's largest, so glibc's heap-trim threshold, twice the largest
    mmapped chunk freed, sits above the free space a run leaves at the top
    of the heap. With the signals buffer apart the margin was 0.13 MB (7.74 MB
    free against 7.87 MB), and a process on the wrong side of it had about
    7.3 MB trimmed and faulted in again per run: 3750 minor faults per
    calibrate op instead of 3. An error on the helper reaches the caller
    when it asks for the block that failed. ``close`` stops and joins the
    helper on every exit."""

    def __init__(self, plan: NoisePlan, n_steps: int, n_det: int, spans, n_samples: int):
        self._spans = collections.deque(spans)
        size = max(math.prod(_block_shape(lo, hi, n_steps, n_det)) for lo, hi in spans)
        lanes = max(len(_tiles(lo, hi)) for lo, hi in spans) * NOISE_TILE
        flat = np.empty(2 * size + n_samples * n_det * lanes)
        self._buffers, self.signals = flat[:2 * size].reshape(2, size), flat[2 * size:]
        # a token per released buffer, None once closed; blocks, None at the
        # end of each span, or an error
        self._free, self._ready = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in self._buffers:
            self._free.put(True)
        self._closed = False
        self._helper = threading.Thread(target=self._draw, name="cqmcorr-noise", daemon=True,
                                        args=(plan, n_steps, n_det, list(self._spans)))
        self._helper.start()

    def _draw(self, plan: NoisePlan, n_steps: int, n_det: int, spans) -> None:
        # the caller releases blocks in order, so the two buffers alternate
        slots = (self._buffers[i % 2] for i, _ in enumerate(iter(self._free.get, None)))
        try:
            for lo, hi in spans:
                if self._closed:
                    return
                for block in _tile_blocks(plan, lo, hi, n_steps, n_det, slots):
                    self._ready.put(block)
                self._ready.put(None)
        except BaseException as exc:
            self._ready.put(exc)

    def blocks(self, lo: int, hi: int):
        """The blocks of span [lo, hi), the feed's next span. A block stays
        valid until the block after it is asked for."""
        if self._spans.popleft() != (lo, hi):
            raise ValueError(f"span [{lo}, {hi}) is not the noise feed's next")
        while (block := self._ready.get()) is not None:
            if isinstance(block, BaseException):
                raise block
            yield block
            self._free.put(True)

    def close(self) -> None:
        self._closed = True
        self._free.put(None)
        self._helper.join()


def _batch_normals(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int) -> np.ndarray:
    """Normals for trajectories lo..hi-1, shape (hi-lo, n_steps, n_det): the
    blocks of ``_tile_blocks``, drawn on the calling thread and joined into
    their tiles' (tiles, n_steps, n_det, NOISE_TILE) draws, cut to the
    lanes of [lo, hi)."""
    slot = np.empty(math.prod(_block_shape(lo, hi, n_steps, n_det)))
    tiles = np.concatenate([block.copy() for block in
                            _tile_blocks(plan, lo, hi, n_steps, n_det, itertools.repeat(slot))],
                           axis=1)
    lanes = np.moveaxis(tiles, 3, 1).reshape(-1, n_steps, n_det)
    return lanes[lo % NOISE_TILE:lo % NOISE_TILE + hi - lo]


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
    """Checked preparation: the initial state, the detector models, the
    segments' step matrices (``_step_matrices``) and each step's segment
    index."""
    r0 = require_physical(initial_state)
    detectors = tuple(detectors)
    if not detectors:
        raise ConfigError("need at least one detector")
    segments, seg_idx = _segment_table(segments, grid)
    return r0, detectors, _step_matrices(detectors, segments, grid.dt), seg_idx


def _step_matrices(detectors, segments, dt: float):
    """Each segment's stacked step matrix: I + G_s dt, G_s the segment's
    augmented generator, on top of row 3 of every detector's ``collapse``
    [[K [n]x, n], [n^T, 0]], then rows 0-2 of each. On the columns (r, 1)
    its product holds the drifted state, the ones row, n.r and
    K (n x r) + n."""
    measured = ([det.collapse[3] for det in detectors]
                + [det.collapse[:3] for det in detectors])
    return [np.vstack([np.eye(4) + _augmented_generator(seg) * dt, *measured])
            for seg in segments]


def _pole_signals(r0, linear, n_det: int):
    """n.r0 of each detector as an (n_det, 1, 1) array, to broadcast over
    a span's (n_det, tiles, NOISE_TILE) lanes, if the start r0 is a fixed
    point of every step, else None.

    A probe of two (r0, 1) columns, two so that the product runs on gemm as
    the stepper's does, is multiplied by each step matrix of ``linear``
    (``_step_matrices``). r0 is fixed when the drift rows return (r0, 1)
    exactly, every kick direction K (n x r0) + n - (n.r0) r0, formed as the
    stepper forms it, is exactly zero, and every segment gives the same
    n.r0. Then each step leaves each trajectory at r0, bit for bit, so its
    signal is n.r0 + sqrt(tau_m/dt) w; its norm, at most 1 + 1e-9 by
    ``require_physical``, can never trip the norm guard. Only a measured
    eigenstate that the drift leaves in place passes, such as the poles
    +-n of ``calibrate``."""
    probe = np.empty((4, 2))
    probe[:3] = r0[:, None]
    probe[3] = 1.0
    nr = None
    for matrix in linear:
        out = matrix @ probe
        kicks = out[4 + n_det:].reshape(n_det, 3, 2) - out[4:4 + n_det, None] * probe[:3]
        if not (np.array_equal(out[:4], probe) and not kicks.any()
                and (nr is None or np.array_equal(out[4:4 + n_det], nr))):
            return None
        nr = out[4:4 + n_det]
    return nr[:, :1, None]


def _state_update(r0, dt: float, detectors, linear, seg_idx, tiles: int, traj_lo: int,
                  traj_hi: int, states=None):
    """The state half of the Euler-Maruyama step, on the lanes of ``tiles``
    whole noise tiles, all starting at r0, of which lanes
    traj_lo % NOISE_TILE.. are trajectories traj_lo..traj_hi-1:
    ``update(k, w)`` applies step k with the (n_det, tiles, NOISE_TILE)
    draws w and returns the (n_det, tiles, NOISE_TILE) n.r of the state
    before it.

    The state is the C-contiguous (4, width) block of columns (r, 1), width
    tiles x NOISE_TILE, and one matmul per step with the step matrix of its
    segment (``_step_matrices``) applies every affine map of it. The kicks
    add sqrt(dt/tau_m) w (K (n x r) + n - (n.r) r) to the drifted state in
    place, and the norm guard checks trajectories traj_lo..traj_hi-1: the
    other lanes, stepped only because tiles are drawn whole, belong to
    other batches or to no run, and are never read. Two such blocks
    alternate as input and output. ``states``, if given, an
    (n_steps + 1, 3, width) array, gets the state at every step's end."""
    n_det, width = len(detectors), tiles * NOISE_TILE
    own = slice(traj_lo % NOISE_TILE, traj_lo % NOISE_TILE + traj_hi - traj_lo)
    max_norm2 = (1.0 + NORM_OVERSHOOT_TOL) ** 2
    kick = np.array([[[math.sqrt(dt / det.tau_m)]] for det in detectors])
    blocks = np.empty((2, 4 + 4 * n_det, width))
    blocks[0, :3] = r0[:, None]
    blocks[0, 3] = 1.0
    if states is not None:
        states[0] = blocks[0, :3]
    quad = np.empty((3, width))
    gain = np.empty((n_det, width))
    norm2 = np.empty(traj_hi - traj_lo)
    tiled = (n_det, tiles, NOISE_TILE)
    # each block's batch columns and its n.r rows as tiles, made once
    views = [(block[:3, own], block[4:4 + n_det].reshape(tiled)) for block in blocks]

    def update(k: int, w):
        cur, nxt = blocks[k % 2], blocks[(k + 1) % 2]
        r, r_new = cur[:3], nxt[:3]
        r_own, nr_tiles = views[(k + 1) % 2]
        np.matmul(linear[seg_idx[k]], cur[:4], out=nxt)
        nr = nxt[4:4 + n_det]
        np.multiply(kick, w, out=gain.reshape(tiled))
        for ell in range(n_det):
            term = nxt[4 + n_det + 3 * ell:7 + n_det + 3 * ell]
            np.multiply(nr[ell], r, out=quad)
            term -= quad
            term *= gain[ell]
            r_new += term
        np.einsum("ib,ib->b", r_own, r_own, out=norm2)
        if norm2.max() > max_norm2:
            worst = int(np.argmax(norm2))
            raise DiagnosticError(
                f"trajectory {traj_lo + worst} norm {math.sqrt(float(norm2[worst])):.6g} "
                f"at t = {(k + 1) * dt:.6g} overshoots the Bloch sphere "
                f"by more than {NORM_OVERSHOOT_TOL}; reduce dt")
        if states is not None:
            states[k + 1] = r_new
        return nr_tiles

    return update


def _simulate_batch(r0, grid: TimeGrid, detectors, linear, seg_idx, noise: _NoiseFeed,
                    record_states: bool, traj_lo: int, traj_hi: int, decimate: int = 1):
    """Euler-Maruyama on trajectories traj_lo..traj_hi-1, the next batch of
    the feed ``noise``, for its blocks, each used as it arrives while the
    feed's helper draws ahead; the caller closes the feed. ``linear`` holds
    the segments' step matrices (``_step_matrices``). Returns step-major
    (signals (n_steps // decimate, n_det, B) normalized, states
    (n_steps+1, 3, B) or None). The signals are a view of
    ``noise.signals``, so the feed's batches reuse one buffer.

    Every whole tile that the batch meets is stepped, so the draws are read
    in place: step j of a (tiles, m, n_det, NOISE_TILE) block is its
    (n_det, tiles, NOISE_TILE) view ``block[:, j].transpose(1, 0, 2)``, and
    trajectory i sits at column i - traj_lo + traj_lo % NOISE_TILE of the
    batch's tiles x NOISE_TILE columns. A batch is thus at least NOISE_TILE
    columns wide, and its matmul runs on gemm, whose bits do not depend on
    the width, where numpy sends a one-column matmul to gemv. Only the
    batch's own columns are guarded (``_state_update``) and returned; the
    others may overflow unseen.

    One loop runs over the steps. Step k's signals are n.r + sqrt(tau_m/dt) w,
    r the state before the step, whose n.r ``_state_update`` returns as it
    steps the batch. Step k writes its signals into row k // D of the
    (n_steps // D, n_det, tiles, NOISE_TILE) array, for ``decimate`` D, if
    it is the first step of its group of D, and adds them into the row if
    not; for D > 1 the array is divided by D after the last step. A sample
    is its D fine samples summed in step order, divided by D, and with
    D = 1 the signals are the fine samples themselves.
    """
    n_steps, n_det = grid.n_steps, len(detectors)
    tiles = len(_tiles(traj_lo, traj_hi))
    own = slice(traj_lo % NOISE_TILE, traj_lo % NOISE_TILE + traj_hi - traj_lo)
    scale = _noise_scale(grid, detectors)[:, :, None]
    states = np.empty((n_steps + 1, 3, tiles * NOISE_TILE)) if record_states else None
    update = _state_update(r0, grid.dt, detectors, linear, seg_idx, tiles, traj_lo, traj_hi,
                           states)
    shape = (n_steps // decimate, n_det, tiles, NOISE_TILE)
    signals = noise.signals[:math.prod(shape)].reshape(shape)
    sig = np.empty(shape[1:]) if decimate > 1 else None
    steps = (block[:, j].transpose(1, 0, 2)
             for block in noise.blocks(traj_lo, traj_hi) for j in range(block.shape[1]))

    with np.errstate(over="ignore", invalid="ignore"):
        for k, w in enumerate(steps):
            nr = update(k, w)
            row = signals[k // decimate]
            if k % decimate:
                np.multiply(scale, w, out=sig)
                sig += nr
                row += sig
            else:
                np.multiply(scale, w, out=row)
                row += nr
        if decimate > 1:
            signals /= decimate
    return (signals.reshape(len(signals), n_det, -1)[:, :, own],
            states[:, :, own] if record_states else None)


def _noise_scale(grid: TimeGrid, detectors) -> np.ndarray:
    """sqrt(tau_m/dt) of each detector, the weight of its draw in its
    signal, as an (n_det, 1) column."""
    return np.array([[math.sqrt(det.tau_m / grid.dt)] for det in detectors])


def _pole_batch(noise: _NoiseFeed, traj_lo: int, traj_hi: int, n_samples: int, scale, nr,
                decimate: int):
    """``_simulate_batch`` of a stationary start, whose signals are n.r0 +
    sqrt(tau_m/dt) w, ``nr`` the n.r0 of ``_pole_signals`` and ``scale``
    the sqrt(tau_m/dt) of each detector, both (n_det, 1, 1): the same
    step-major signals in the same buffer, built from the feed's blocks
    alone, with no state. Step j of a (tiles, m, n_det, NOISE_TILE) block
    is row j of its (m, n_det, tiles, NOISE_TILE) view
    ``block.transpose(1, 2, 0, 3)``, and each fine sample is scale w + n.r0,
    the stepper's signal in the stepper's ops and order. With D =
    ``decimate`` = 1 a block's rows are written in one multiply and one
    add; otherwise its fine samples are formed in place in the block and
    summed into row k // D in step order, a phase at a time, written at a
    group's first step and added at the others (a group may span blocks),
    and the rows are divided by D after the last block."""
    n_det = len(nr)
    shape = (n_samples, n_det, len(_tiles(traj_lo, traj_hi)), NOISE_TILE)
    signals = noise.signals[:math.prod(shape)].reshape(shape)
    k = 0
    for block in noise.blocks(traj_lo, traj_hi):
        steps = block.transpose(1, 2, 0, 3)
        m = len(steps)
        if decimate == 1:
            np.multiply(scale, steps, out=signals[k:k + m])
            signals[k:k + m] += nr
        else:
            np.multiply(scale, steps, out=steps)
            steps += nr
            # phase p holds the steps j of this block with j % D == p; taking
            # the phases in order adds each row's steps in step order
            for p in sorted({(k + i) % decimate for i in range(min(m, decimate))}):
                first = k + (p - k) % decimate
                fine = steps[first - k::decimate]
                rows = signals[first // decimate:first // decimate + len(fine)]
                if p:
                    rows += fine
                else:
                    rows[...] = fine
        k += m
    if decimate > 1:
        signals /= decimate
    own = traj_lo % NOISE_TILE
    return signals.reshape(n_samples, n_det, -1)[:, :, own:own + traj_hi - traj_lo]


def simulate_states(initial_state, grid: TimeGrid, detectors, segments, plan: NoisePlan,
                    traj_lo: int, traj_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories traj_lo..traj_hi-1 with their full state history.

    Returns (states (B, n_steps+1, 3) on the step endpoints, signals
    (B, n_detectors, n_steps) in normalized units). Trajectory j uses noise
    stream (plan.seed, j), so its signals equal record j of ``run_ensemble``
    on the same arguments, before the raw-units map."""
    if not 0 <= traj_lo < traj_hi:
        raise ConfigError(f"need 0 <= traj_lo < traj_hi, got {traj_lo!r}, {traj_hi!r}")
    r0, detectors, linear, seg_idx = _prepare(initial_state, grid, detectors, segments)
    # closed now, not when a traceback is freed
    with contextlib.closing(_NoiseFeed(plan, grid.n_steps, len(detectors),
                                       [(traj_lo, traj_hi)], grid.n_steps)) as noise:
        signals, states = _simulate_batch(r0, grid, detectors, linear, seg_idx, noise,
                                          record_states=True, traj_lo=traj_lo, traj_hi=traj_hi)
    return (np.ascontiguousarray(states.transpose(2, 0, 1)),
            np.ascontiguousarray(signals.transpose(2, 1, 0)))


def _archive_head(records: RecordStream) -> bytes:
    """What precedes the records in the archive of ``records``: the magic,
    the header length and the JSON header."""
    header = json.dumps({
        "config_digest": records.config_digest,
        "dt": records.grid.dt,
        "kind": "raw",
        "n_detectors": records.n_detectors,
        "n_samples": records.n_samples,
        "n_traj": records.n_traj,
        "seed": records.seed,
        "t0": 0.0,
        "version": ARCHIVE_VERSION,
    }, sort_keys=True).encode()
    return ARCHIVE_MAGIC + struct.pack("<I", len(header)) + header


def write_archive(records: RecordStream, fh=None) -> str:
    """Write the archive of ``records`` to the binary file ``fh``, or only
    hash it when ``fh`` is None, and return the sha256 of its bytes. The
    records are fed slice by slice, so the ensemble is never held.

    Format (little-endian): magic ``CQMARCH1``, uint32 header length, JSON
    header with sorted keys (config_digest, dt, kind = "raw", n_detectors,
    n_samples, n_traj, seed, t0 = 0.0, version), then the records as
    consecutive per-trajectory blocks of n_detectors * n_samples float64
    values, C order. The package writes archives and reads none back."""
    digest = hashlib.sha256()

    def put(data) -> None:
        digest.update(data)
        if fh is not None:
            fh.write(data)

    put(_archive_head(records))
    records.feed(lambda batch: put(np.ascontiguousarray(batch, dtype="<f8").data))
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class RecordStream:
    """The raw records of an ensemble that runs only when fed:
    ``feed(consumer)`` runs it and hands its records to ``consumer`` in
    slices, each an (n, n_detectors, n_samples) array of n <= RECORD_SLICE
    trajectories, in trajectory order; the consumer must copy what it keeps
    before it returns. A slice may be a view of any layout: those of
    ``run_ensemble`` are transposed views of a span's step-major signals,
    whose rows run across the span's tile lanes, cut at multiples of
    RECORD_SLICE and at span ends. Each feed runs the ensemble again, with
    the same bits. ``grid`` is the acquisition grid."""

    grid: TimeGrid
    seed: int
    n_traj: int
    n_detectors: int
    feed: Callable[[Callable[[np.ndarray], None]], None]
    config_digest: str = ""

    @property
    def n_samples(self) -> int:
        return self.grid.n_steps


def stream_ensemble(n_traj: int, plan: NoisePlan, initial_state, grid: TimeGrid,
                    detectors, segments, *, decimate: int = 1, config_digest: str = "",
                    **options) -> RecordStream:
    """The records of ``run_ensemble`` on these arguments as a
    ``RecordStream``: each feed calls ``run_ensemble`` with the consumer,
    which gets slices of at most RECORD_SLICE records, so the ensemble is
    never held and no batch of records is either. ``n_traj`` and
    ``decimate`` are checked here, ``options``, ``run_ensemble``'s
    ``threads`` and ``batch_size``, when fed; they shape no bit, and a
    stationary start ignores them."""
    n_traj, decimate = require_int("n_traj", n_traj, 1), require_int("decimate", decimate, 1)
    detectors = tuple(detectors)
    return RecordStream(
        grid=grid.decimated(decimate), seed=plan.seed, n_traj=n_traj,
        n_detectors=len(detectors), config_digest=config_digest,
        feed=lambda consumer: run_ensemble(n_traj, plan, initial_state, grid, detectors,
                                           segments, decimate=decimate, consumer=consumer,
                                           **options))


def _inline(fn, *args) -> concurrent.futures.Future:
    """``fn(*args)``, run now on the calling thread, as a done future."""
    done = concurrent.futures.Future()
    done.set_result(fn(*args))
    return done


def run_ensemble(n_traj: int, plan: NoisePlan, initial_state, grid: TimeGrid,
                 detectors, segments, *, threads: int = 1,
                 batch_size: int = DEFAULT_BATCH_SIZE, decimate: int = 1,
                 consumer: Callable[[np.ndarray], None]) -> None:
    """Simulate n_traj trajectories and hand their raw output records to
    ``consumer`` in slices, each an (n, n_detectors, n_samples) array of
    n <= RECORD_SLICE trajectories, in trajectory order and on the calling
    thread. A slice is a transposed view of its span's step-major
    (n_samples, n_detectors, L) signals, L the lanes of the span's whole
    noise tiles, and its memory is reused for a later span once
    ``consumer`` returns, so the consumer copies what it keeps.
    ``stream_ensemble`` wraps the run as a ``RecordStream``. ``n_traj``,
    ``threads``, ``batch_size`` and ``decimate`` are each an integer >= 1.

    Trajectory j uses noise stream (plan.seed, j), so the records are a pure
    function of the arguments. ``decimate`` averages each group of that many
    consecutive samples into one (dt grows accordingly), which is how a fine
    integration grid turns into a coarse acquisition grid. Every output bit
    is independent of ``threads`` and ``batch_size``.

    One loop serves every start. Before anything is allocated, a two-column
    probe (``_pole_signals``) decides whether the start is stationary, and
    its answer chooses only the span width and the fill. A stepped start
    has spans of ``batch_size``, filled by the stepper (``_simulate_batch``)
    on W = min(``threads``, spans) workers; a stationary one has spans of
    RECORD_SLICE, filled from the noise alone (``_pole_batch``) on W = 1,
    whatever ``threads`` and ``batch_size``. The calling thread makes W
    noise feeds (``_NoiseFeed``), and span i fills the signals buffer of
    feed i % W, whose helper draws the feed's spans ahead as whole tiles,
    read in place; every lane of the tiles a span meets is filled, and only
    the span's own are handed over. At W = 1 the spans fill on the calling
    thread. At W > 1 a pool of W workers fills them, and span i + W is
    submitted once span i is handed over, when its feed is free: at most W
    spans are in flight, beside W helpers. The calling thread maps a span's
    own lanes to raw units in place, one slice at a time, and hands over
    each slice; slices are cut at multiples of RECORD_SLICE and at span
    ends. States are not kept; use ``simulate_states`` for a state history.
    """
    n_traj, threads, batch_size, decimate = (
        require_int(name, value, 1) for name, value in (
            ("n_traj", n_traj), ("threads", threads), ("batch_size", batch_size),
            ("decimate", decimate)))
    n_samples = grid.decimated(decimate).n_steps
    r0, detectors, linear, seg_idx = _prepare(initial_state, grid, detectors, segments)
    pole = _pole_signals(r0, linear, len(detectors))
    scale = _noise_scale(grid, detectors)[:, :, None]
    responses = np.array([[det.response] for det in detectors])
    offsets = np.array([[det.offset] for det in detectors])

    def fill(i: int):
        lo, hi = spans[i]
        noise = feeds[i % workers]
        if pole is not None:
            return lo, _pole_batch(noise, lo, hi, n_samples, scale, pole, decimate)
        return lo, _simulate_batch(r0, grid, detectors, linear, seg_idx, noise,
                                   record_states=False, traj_lo=lo, traj_hi=hi,
                                   decimate=decimate)[0]

    def hand_over(lo: int, signals) -> None:
        """Map the step-major signals of trajectories lo.. to raw units in
        place, one slice at a time, and hand each slice to the consumer as
        its (n, n_det, n_samples) transposed view."""
        hi = lo + signals.shape[2]
        cuts = [lo, *range((lo // RECORD_SLICE + 1) * RECORD_SLICE, hi, RECORD_SLICE), hi]
        for a, b in zip(cuts, cuts[1:]):
            part = signals[:, :, a - lo:b - lo]
            # a huge response or offset overflows to inf here, which the
            # consumer reports; numpy's error state is per thread, so it is
            # set on the thread that maps
            with np.errstate(over="ignore"):
                part *= responses
                part += offsets
            consumer(part.transpose(2, 1, 0))

    width, workers = (batch_size, threads) if pole is None else (RECORD_SLICE, 1)
    spans = [(lo, min(lo + width, n_traj)) for lo in range(0, n_traj, width)]
    workers = min(workers, len(spans))
    # the pool is closed, its spans done, before the feeds it fills from
    with contextlib.ExitStack() as stack:
        feeds = [stack.enter_context(contextlib.closing(_NoiseFeed(
            plan, grid.n_steps, len(detectors), spans[w::workers], n_samples)))
            for w in range(workers)]
        if workers == 1:
            submit = _inline
        else:
            submit = stack.enter_context(
                concurrent.futures.ThreadPoolExecutor(max_workers=workers)).submit
        in_flight = collections.deque()
        for i in range(len(spans)):
            if len(in_flight) == workers:
                hand_over(*in_flight.popleft().result())
            in_flight.append(submit(fill, i))
        while in_flight:
            hand_over(*in_flight.popleft().result())
