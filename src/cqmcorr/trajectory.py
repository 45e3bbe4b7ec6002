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
(``_pole_signals``), and a start that passes is not stepped: its records
come straight from the noise, slice by slice, bit for bit those of the
stepper (``_run_poles``). Any other start, and every ``simulate_states``
call, is stepped.

Reproducibility: noise is keyed per tile. The normal for (trajectory, step,
detector) is a pure function of (seed, trajectory, step, detector), so
results never depend on thread count, batch size, or evaluation order.

Threads: a noise feed (``_NoiseFeed``) draws its spans' noise on one helper
thread, ahead of its consumer, and holds the buffer their signals are
written into. A stepped run makes W = min(``threads``, batches) feeds, one
per worker, and batch i steps from feed i % W, so each feed's next batch is
drawn while its last is handed over; at W = 1 the batches step on the
calling thread. A stationary run makes one feed, whatever ``threads``: its
spans are record slices of RECORD_SLICE trajectories, cut at multiples of
RECORD_SLICE only, and the helper draws slice i + 1's tiles while the
calling thread builds and hands over slice i.
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
    isolation, by drawing its whole 256-lane tile on the calling thread.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must fit in uint64, got {self.seed!r}")

    def normals(self, traj_index: int, n_steps: int, n_detectors: int = 1) -> np.ndarray:
        """Standard normals for one trajectory, shape (n_steps, n_detectors)."""
        for name, value, least in (("traj_index", traj_index, 0), ("n_steps", n_steps, 1),
                                   ("n_detectors", n_detectors, 1)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                    or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if traj_index >= 2**64:
            raise ConfigError(f"traj_index must fit in uint64, got {traj_index!r}")
        return _batch_normals(self, traj_index, traj_index + 1, n_steps, n_detectors)[0]


# steps per block of streamed noise: a tile drawn in pieces equals the tile
# drawn at once, so this sets only the memory of a batch's noise, never a bit
NOISE_CHUNK = 20
# tiles drawn into a block between two copies: one numpy call moves all of
# their lanes, so the drawing thread takes the GIL less often (a copy per
# tile made mc_correlate 4% slower); like NOISE_CHUNK it shapes no bit
TILES_PER_COPY = 4
# trajectories per hand-over of raw records: a batch is mapped to raw units
# and handed to the consumer in slices cut at multiples of this, so a run
# keeps one slice of records, not a batch of them. Like NOISE_CHUNK it shapes
# no bit; it equals calibration.MOMENT_UNIT, so moment units arrive whole
RECORD_SLICE = 1024


def _noise_chunks(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int, slots, tiles):
    """Normals for trajectories lo..hi-1, in step order: C-contiguous
    (m, n_det, hi-lo) blocks of m <= NOISE_CHUNK steps, each the next m
    steps' draws for the whole batch. Each block is carved from the next
    flat buffer of the iterator ``slots`` and drawn into it once that buffer
    is taken; the blocks stop early if ``slots`` ends. ``tiles`` is a
    reused (k, NOISE_CHUNK, n_det, NOISE_TILE) buffer of
    k >= min(TILES_PER_COPY, tiles met) tiles (``_noise_buffers``).

    Each tile that meets [lo, hi) gets its own ``_tile_generator`` and draws
    NOISE_CHUNK steps of its (n_steps, n_det, NOISE_TILE) array per block.
    Runs of tiles are drawn into ``tiles`` and their lanes inside [lo, hi)
    copied into the block in one call: a tile that lo or hi cuts on its own,
    whole tiles TILES_PER_COPY at a time. The ziggurat keeps no state
    outside the bit generator, so the pieces are the tile drawn at once."""
    first_tile = lo // NOISE_TILE
    met = range(first_tile, (hi - 1) // NOISE_TILE + 1)
    # runs [t0, t1) of tiles that reach a block in one copy
    whole = range(-(-lo // NOISE_TILE), hi // NOISE_TILE)
    edges = sorted({met.start, met.stop, whole.start, whole.stop,
                    *range(whole.start, whole.stop, TILES_PER_COPY)})
    runs = list(zip(edges, edges[1:]))
    gens = [_tile_generator(plan.seed, tile) for tile in met]
    chunk = min(NOISE_CHUNK, n_steps)
    # steps first, so that no buffer is taken after the last block
    for start, slot in zip(range(0, n_steps, chunk), slots):
        m = min(chunk, n_steps - start)
        block = slot[:m * n_det * (hi - lo)].reshape(m, n_det, hi - lo)
        for t0, t1 in runs:
            drawn = tiles[:t1 - t0, :m]
            for gen, out in zip(gens[t0 - first_tile:t1 - first_tile], drawn):
                gen.standard_normal(out=out)
            a, b = max(lo, t0 * NOISE_TILE), min(hi, t1 * NOISE_TILE)
            lane = a - t0 * NOISE_TILE
            lanes = drawn[..., lane:lane + (b - a) // (t1 - t0)]
            # the block's lane axis is contiguous, so the reshape is a view
            block[:, :, a - lo:b - lo].reshape(m, n_det, t1 - t0, -1)[...] = \
                lanes.transpose(1, 2, 0, 3)
        yield block


def _noise_buffers(n_steps: int, n_det: int, spans):
    """The buffers of ``_noise_chunks`` for the batches [lo, hi) of
    ``spans``: the size of a block at the widest batch's width, and the
    tile buffer."""
    chunk = min(NOISE_CHUNK, n_steps)
    width = max(hi - lo for lo, hi in spans)
    tiles = min(TILES_PER_COPY,
                max((hi - 1) // NOISE_TILE - lo // NOISE_TILE + 1 for lo, hi in spans))
    return chunk * n_det * width, np.empty((tiles, chunk, n_det, NOISE_TILE))


def _slice_steps(n_steps: int, n_det: int) -> int:
    """Steps per block of ``_slice_tiles``: as many as keep the block of a
    whole slice within one block of ``_noise_chunks`` at DEFAULT_BATCH_SIZE,
    NOISE_CHUNK x DEFAULT_BATCH_SIZE values; 160 at one detector."""
    return min(n_steps, max(1, NOISE_CHUNK * DEFAULT_BATCH_SIZE // (RECORD_SLICE * n_det)))


def _slice_tiles(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int, slots):
    """Normals for the record slice lo..hi-1, lo a multiple of NOISE_TILE,
    in step order: tile-major (tiles, m, n_det, NOISE_TILE) blocks of
    m <= ``_slice_steps`` steps, one per tile that meets the slice. Each
    block is carved from the next flat buffer of the iterator ``slots`` and
    drawn into it with one ``standard_normal`` call per tile, the next m
    steps of the tile's (n_steps, n_det, NOISE_TILE) array; the blocks stop
    early if ``slots`` ends. A tile is drawn whole, so the lanes of the last
    tile past hi are drawn and not used."""
    gens = [_tile_generator(plan.seed, tile)
            for tile in range(lo // NOISE_TILE, (hi - 1) // NOISE_TILE + 1)]
    steps = _slice_steps(n_steps, n_det)
    for start, slot in zip(range(0, n_steps, steps), slots):
        m = min(steps, n_steps - start)
        block = slot[:len(gens) * m * n_det * NOISE_TILE].reshape(len(gens), m, n_det,
                                                                  NOISE_TILE)
        for gen, out in zip(gens, block):
            gen.standard_normal(out=out)
        yield block


class _NoiseFeed:
    """The noise of the spans [lo, hi) of ``spans``, in that order, drawn
    ahead on one helper thread. ``draw(lo, hi, slots)`` yields a span's
    blocks, each carved from the next flat buffer of the iterator ``slots``
    (``_noise_chunks`` for the batches of the stepper, ``_batch_feed``;
    ``_slice_tiles`` for the record slices of a stationary run), and the
    feed gives it two buffers of ``size`` values that alternate. A buffer
    is drawn into as soon as the caller releases it, so while the caller
    hands over span s the helper is already up to two blocks into span
    s + 1. numpy's draws, like the stepper's matmul and ufuncs, release the
    GIL, so the two share the host's cores. One draw runs at a time, in
    trajectory order, so the helper shapes no bit.

    The buffers are allocated on the thread that makes the feed: allocated
    on the helper, most likely in a malloc arena of its own, they raised
    ``calibrate``'s peak RSS. ``signals`` > 0 adds a flat buffer of that
    many values to the same allocation, as ``feed.signals``, which the
    caller writes each span's signals or records into. With it inside, the
    allocation is a run's largest, so glibc's heap-trim threshold, twice the
    largest mmapped chunk freed, sits above the free space a run leaves at
    the top of the heap. With the signals buffer apart the margin was
    0.13 MB (7.74 MB free against 7.87 MB), and a process on the wrong side
    of it had about 7.3 MB trimmed and faulted in again per run: 3750 minor
    faults per calibrate op instead of 3. An error on the helper reaches
    the caller when it asks for the block that failed. ``close`` stops and
    joins the helper on every exit."""

    def __init__(self, draw, size: int, spans, signals: int = 0):
        self._spans = collections.deque(spans)
        flat = np.empty(2 * size + signals)
        self._buffers, self.signals = flat[:2 * size].reshape(2, size), flat[2 * size:]
        # a token per released buffer, None once closed; blocks, None at the
        # end of each span, or an error
        self._free, self._ready = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in self._buffers:
            self._free.put(True)
        self._closed = False
        self._helper = threading.Thread(target=self._draw, name="cqmcorr-noise", daemon=True,
                                        args=(draw, list(self._spans)))
        self._helper.start()

    def _draw(self, draw, spans) -> None:
        # the caller releases blocks in order, so the two buffers alternate
        slots = (self._buffers[i % 2] for i, _ in enumerate(iter(self._free.get, None)))
        try:
            for lo, hi in spans:
                if self._closed:
                    return
                for block in draw(lo, hi, slots):
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


def _batch_feed(plan: NoisePlan, n_steps: int, n_det: int, spans, signals: int = 0) -> _NoiseFeed:
    """The noise feed of the stepper's batches [lo, hi) of ``spans``: their
    ``_noise_chunks`` blocks, in two buffers at the widest batch's width."""
    size, tiles = _noise_buffers(n_steps, n_det, spans)
    return _NoiseFeed(lambda lo, hi, slots: _noise_chunks(plan, lo, hi, n_steps, n_det, slots,
                                                          tiles),
                      size, spans, signals)


def _batch_normals(plan: NoisePlan, lo: int, hi: int, n_steps: int, n_det: int) -> np.ndarray:
    """Normals for trajectories lo..hi-1, shape (hi-lo, n_steps, n_det): the
    blocks of ``_noise_chunks``, drawn on the calling thread and joined, as a
    transposed view of a C-contiguous (n_steps, n_det, hi-lo) array."""
    size, tiles = _noise_buffers(n_steps, n_det, [(lo, hi)])
    slots = np.empty((2, size))
    blocks = [block.copy() for block in
              _noise_chunks(plan, lo, hi, n_steps, n_det, itertools.cycle(slots), tiles)]
    return np.concatenate(blocks).transpose(2, 0, 1)


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
    """n.r0 of each detector as an (n_det, 1) column if the start r0 is a
    fixed point of every step, else None.

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
    return nr[:, :1]


def _state_update(r0, dt: float, detectors, linear, seg_idx, width: int, traj_lo: int,
                  states=None):
    """The state half of the Euler-Maruyama step, on ``width`` columns that
    start at r0: ``update(k, w)`` applies step k with the (n_det, width)
    draws w and returns the (n_det, width) n.r of the state before it.

    The batch state is the C-contiguous (4, width) block of columns (r, 1),
    and one matmul per step with the step matrix of its segment
    (``_step_matrices``) applies every affine map of it. The kicks add
    sqrt(dt/tau_m) w (K (n x r) + n - (n.r) r) to the drifted state in
    place, and the norm guard checks it. Two such blocks alternate as input
    and output. ``states``, if given, an (n_steps + 1, 3, width) array,
    gets the state at every step's end."""
    n_det = len(detectors)
    max_norm2 = (1.0 + NORM_OVERSHOOT_TOL) ** 2
    kick = np.array([[math.sqrt(dt / det.tau_m)] for det in detectors])
    blocks = np.empty((2, 4 + 4 * n_det, width))
    blocks[0, :3] = r0[:, None]
    blocks[0, 3] = 1.0
    if states is not None:
        states[0] = blocks[0, :3]
    quad = np.empty((3, width))
    gain = np.empty((n_det, width))
    norm2 = np.empty(width)

    def update(k: int, w):
        cur, nxt = blocks[k % 2], blocks[(k + 1) % 2]
        r, r_new = cur[:3], nxt[:3]
        np.matmul(linear[seg_idx[k]], cur[:4], out=nxt)
        nr = nxt[4:4 + n_det]
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
        if states is not None:
            states[k + 1] = r_new
        return nr

    return update


def _simulate_batch(r0, grid: TimeGrid, detectors, linear, seg_idx, noise: _NoiseFeed,
                    record_states: bool, traj_lo: int, traj_hi: int, decimate: int = 1):
    """Euler-Maruyama on trajectories traj_lo..traj_hi-1, the next batch of
    the feed ``noise`` (``_batch_feed``), for its blocks, each used as it
    arrives while the feed's helper draws ahead; the caller closes the feed.
    ``linear`` holds the segments' step matrices (``_step_matrices``).
    Returns step-major (signals (n_steps // decimate, n_det, B) normalized,
    states (n_steps+1, 3, B) or None). The signals are a view of
    ``noise.signals``, which holds at least n_steps // decimate * n_det *
    max(B, 2) values, so the feed's batches reuse one buffer.

    One loop runs over the steps. Step k's signals are n.r + sqrt(tau_m/dt) w,
    r the state before the step, whose n.r ``_state_update`` returns as it
    steps the batch. Step k writes its signals into row k // D of the
    (n_steps // D, n_det, B) array, for ``decimate`` D, if it is the first
    step of its group of D, and adds them into the row if not; for D > 1 the
    array is divided by D after the last step. A sample is its D fine
    samples summed in step order, divided by D, and with D = 1 the signals
    are the fine samples themselves.
    """
    n_steps, n_det, batch = grid.n_steps, len(detectors), traj_hi - traj_lo
    # numpy sends a one-column matmul to gemv, which rounds differently from
    # gemm; stepping a lone trajectory as two equal columns keeps it on gemm,
    # so its bits match the same trajectory inside any larger batch. Its
    # (n_det, 1) draws broadcast over both columns.
    width = max(batch, 2)
    scale = _noise_scale(grid, detectors)
    states = np.empty((n_steps + 1, 3, width)) if record_states else None
    update = _state_update(r0, grid.dt, detectors, linear, seg_idx, width, traj_lo, states)
    shape = (n_steps // decimate, n_det, width)
    signals = noise.signals[:math.prod(shape)].reshape(shape)
    sig = np.empty((n_det, width)) if decimate > 1 else None

    for k, w in enumerate(itertools.chain.from_iterable(noise.blocks(traj_lo, traj_hi))):
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
    return (signals[:, :, :batch],
            states[:, :, :batch] if record_states else None)


def _noise_scale(grid: TimeGrid, detectors) -> np.ndarray:
    """sqrt(tau_m/dt) of each detector, the weight of its draw in its
    signal, as an (n_det, 1) column."""
    return np.array([[math.sqrt(det.tau_m / grid.dt)] for det in detectors])


def _pole_rows(records, block, k: int, scale, nr, decimate: int) -> None:
    """Fold the tile-major ``block`` of ``_slice_tiles``, the draws w of
    fine steps k.., into the step-major (n_samples, n_det, n) ``records`` of
    a stationary slice, whose trajectories sit at r0 with n.r0 the column
    ``nr``. Each fine sample is scale w + n.r0, the stepper's signal in the
    stepper's ops and order (``_simulate_batch``). With D = ``decimate`` = 1
    the records are written straight from the tiles; otherwise the fine
    samples are formed in place in ``block`` and summed into row k // D in
    step order, written at a group's first step and added at the others
    (a group may span blocks), and the caller divides by D."""
    m, n = block.shape[1], records.shape[2]
    if decimate == 1:
        rows = records[k:k + m]
        for t, tile in enumerate(block):
            a = t * NOISE_TILE
            np.multiply(scale, tile[..., :n - a], out=rows[..., a:a + NOISE_TILE])
        rows += nr
        return
    np.multiply(scale, block, out=block)
    block += nr
    # phase p holds the steps j of this block with j % D == p; taking the
    # phases in order adds each row's steps in step order
    for p in sorted({(k + i) % decimate for i in range(min(m, decimate))}):
        first = k + (p - k) % decimate
        for t, tile in enumerate(block):
            a = t * NOISE_TILE
            fine = tile[first - k::decimate, :, :n - a]
            rows = records[first // decimate:first // decimate + len(fine), :,
                           a:a + NOISE_TILE]
            if p:
                rows += fine
            else:
                rows[...] = fine


def _run_poles(n_traj: int, plan: NoisePlan, grid: TimeGrid, detectors, nr, decimate: int,
               consumer) -> None:
    """``run_ensemble`` of a stationary start, whose signals are n.r0 +
    sqrt(tau_m/dt) w, ``nr`` the n.r0 column of ``_pole_signals``: no batch,
    no pool and no batch of signals, only record slices of RECORD_SLICE
    trajectories, cut at its multiples. One noise feed (``_NoiseFeed``)
    draws each slice's tiles (``_slice_tiles``) on its helper, so slice
    i + 1 is drawn while slice i is built and handed over. The calling
    thread builds a slice's step-major (n_samples, n_det, n) records in
    place (``_pole_rows``) in the feed's ``signals``, one slice wide,
    divides them by D, maps them to raw units and hands over their
    (n, n_det, n_samples) transposed view."""
    n_steps, n_det = grid.n_steps, len(detectors)
    n_samples = n_steps // decimate
    scale = _noise_scale(grid, detectors)
    responses = np.array([[det.response] for det in detectors])
    offsets = np.array([[det.offset] for det in detectors])
    spans = [(lo, min(lo + RECORD_SLICE, n_traj)) for lo in range(0, n_traj, RECORD_SLICE)]
    width = spans[0][1]
    size = -(-width // NOISE_TILE) * _slice_steps(n_steps, n_det) * n_det * NOISE_TILE
    feed = _NoiseFeed(lambda lo, hi, slots: _slice_tiles(plan, lo, hi, n_steps, n_det, slots),
                      size, spans, signals=n_samples * n_det * width)
    with contextlib.closing(feed) as noise:
        for lo, hi in spans:
            records = noise.signals[:n_samples * n_det * (hi - lo)].reshape(
                n_samples, n_det, hi - lo)
            k = 0
            for block in noise.blocks(lo, hi):
                _pole_rows(records, block, k, scale, nr, decimate)
                k += block.shape[1]
            if decimate > 1:
                records /= decimate
            # as in run_ensemble's hand-over, a huge response or offset
            # overflows to inf, which the consumer reports
            with np.errstate(over="ignore"):
                records *= responses
                records += offsets
            consumer(records.transpose(2, 1, 0))


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
    n_signals = grid.n_steps * len(detectors) * max(traj_hi - traj_lo, 2)
    # closed now, not when a traceback is freed
    with contextlib.closing(_batch_feed(plan, grid.n_steps, len(detectors),
                                        [(traj_lo, traj_hi)], signals=n_signals)) as noise:
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
    ``run_ensemble`` are transposed views of step-major memory, cut at
    multiples of RECORD_SLICE and, for a stepped start, at batch ends. Each
    feed runs the ensemble again, with the same bits. ``grid`` is the
    acquisition grid."""

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
    never held and no batch of records is either. ``options`` are
    ``run_ensemble``'s ``threads`` and ``batch_size``, which shape no bit;
    a stationary start ignores them, and its slices are cut at multiples of
    RECORD_SLICE only."""
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
    thread. A slice is the transposed view of a C-contiguous step-major
    (n_samples, n_detectors, n) array, the stepper's order, and its memory
    is reused for the next slice once ``consumer`` returns, so the consumer
    copies what it keeps. ``stream_ensemble`` wraps the run as a
    ``RecordStream``.

    Trajectory j uses noise stream (plan.seed, j), so the records are a pure
    function of the arguments. ``decimate`` averages each group of that many
    consecutive samples into one (dt grows accordingly), which is how a fine
    integration grid turns into a coarse acquisition grid. Every output bit
    is independent of ``threads`` and ``batch_size``.

    Before anything is allocated, a two-column probe (``_pole_signals``)
    decides whether the start is stationary. A stationary run
    (``_run_poles``) has no batches, no pool and no signals buffer: its
    slices are cut at multiples of RECORD_SLICE only, whatever ``threads``
    and ``batch_size``, and one noise feed draws each slice's tiles while
    the calling thread builds the slice before it from the noise alone.

    Any other start is stepped in batches of ``batch_size``, and its slices
    are cut at multiples of RECORD_SLICE and at batch ends. The calling
    thread makes W = min(``threads``, batches) noise feeds (``_batch_feed``),
    and batch i steps into the signals buffer of feed i % W, whose helper
    draws the feed's batches ahead. At W = 1 the batches step on the calling
    thread. At W > 1 a pool of W workers steps them, and batch i + W is
    submitted once batch i is handed over, when its feed is free: at most W
    batches are in flight, beside W helpers. The calling thread maps a
    batch's step-major signals to raw units, one slice at a time and row by
    step-major row, into one slice buffer per batch. States are not kept;
    use ``simulate_states`` for a state history.
    """
    if n_traj < 1:
        raise ConfigError(f"n_traj must be >= 1, got {n_traj!r}")
    if threads < 1 or batch_size < 1:
        raise ConfigError("threads and batch_size must be >= 1")
    n_samples = grid.decimated(decimate).n_steps
    r0, detectors, linear, seg_idx = _prepare(initial_state, grid, detectors, segments)
    n_det = len(detectors)
    pole = _pole_signals(r0, linear, n_det)
    if pole is not None:
        _run_poles(n_traj, plan, grid, detectors, pole, decimate, consumer)
        return
    offsets = np.array([det.offset for det in detectors])
    responses = np.array([det.response for det in detectors])
    n_signals = n_samples * n_det * max(min(batch_size, n_traj), 2)

    def run_batch(i: int):
        lo, hi = spans[i]
        signals, _ = _simulate_batch(r0, grid, detectors, linear, seg_idx,
                                     feeds[i % workers], record_states=False, traj_lo=lo,
                                     traj_hi=hi, decimate=decimate)
        return lo, signals

    def hand_over(lo: int, signals) -> None:
        """Map the step-major signals of trajectories lo.. to raw units, one
        slice at a time, into a slice buffer, and hand each slice to the
        consumer. A slice of n records is mapped into the first
        n_samples * n_det * n values of the flat slice buffer as a
        C-contiguous step-major (n_samples, n_det, n) array, row by
        contiguous row, and handed over as its (n, n_det, n_samples)
        transposed view: no transposing copy. The slice buffer is allocated
        once the batch is stepped, when the stepper's state blocks are
        freed, so it adds nothing to the peak; one kept for the whole call
        stays alive while the next batch steps, and read 0.5-1.2 MB more
        peak RSS per process."""
        hi = lo + signals.shape[2]
        records = np.empty(n_samples * n_det * min(RECORD_SLICE, hi - lo))
        cuts = [lo, *range((lo // RECORD_SLICE + 1) * RECORD_SLICE, hi, RECORD_SLICE), hi]
        for a, b in zip(cuts, cuts[1:]):
            part = signals[:, :, a - lo:b - lo]
            out = records[:part.size].reshape(part.shape)
            # a huge response or offset overflows to inf here, which the
            # consumer reports; numpy's error state is per thread, so it is
            # set on the thread that maps
            with np.errstate(over="ignore"):
                np.multiply(responses[:, None], part, out=out)
                out += offsets[:, None]
            consumer(out.transpose(2, 1, 0))

    spans = [(lo, min(lo + batch_size, n_traj)) for lo in range(0, n_traj, batch_size)]
    workers = min(threads, len(spans))
    # the pool is closed, its batches done, before the feeds it steps from
    with contextlib.ExitStack() as stack:
        feeds = [stack.enter_context(contextlib.closing(_batch_feed(
            plan, grid.n_steps, n_det, spans[w::workers], signals=n_signals)))
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
            in_flight.append(submit(run_batch, i))
        while in_flight:
            hand_over(*in_flight.popleft().result())
