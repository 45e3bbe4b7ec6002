"""Stochastic trajectory engine: noise plan, stepper, ensembles, archives."""

import concurrent.futures
import contextlib
import functools
import hashlib
import json
import math
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cqmcorr import (
    CalibrationRun,
    ConfigError,
    DetectorModel,
    DiagnosticError,
    NoisePlan,
    TimeGrid,
    dephasing_matrix,
    EnsembleGenerator,
    estimate_correlator,
    rabi_dephasing_generator,
    run_ensemble,
    simulate_states,
    stream_ensemble,
    write_archive,
)
from cqmcorr import calibration, trajectory
from cqmcorr.calibration import MOMENT_UNIT
from cqmcorr.trajectory import NOISE_TILE, RECORD_SLICE, _NoiseFeed, _batch_normals
from conftest import fed_whole, gather

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi


def reference_detector(phi_a_deg=0.0, **kwargs):
    return DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04,
                                               phi_a_deg=phi_a_deg, eta=0.44, **kwargs)


def drive_segments():
    return (rabi_dephasing_generator(GAMMA, OMEGA),)


class TestNoisePlan:
    def test_pure_function_of_seed_and_trajectory(self):
        plan = NoisePlan(seed=42)
        a = plan.normals(7, 100, 2)
        b = plan.normals(7, 100, 2)
        np.testing.assert_array_equal(a, b)
        c = NoisePlan(seed=42).normals(7, 100, 2)
        np.testing.assert_array_equal(a, c)

    def test_distinct_streams(self):
        plan = NoisePlan(seed=42)
        assert not np.array_equal(plan.normals(0, 50, 1), plan.normals(1, 50, 1))
        assert not np.array_equal(plan.normals(0, 50, 1), NoisePlan(43).normals(0, 50, 1))

    def test_shape_and_moments(self):
        draws = NoisePlan(seed=3).normals(0, 4000, 2)
        assert draws.shape == (4000, 2)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_prefix_stability(self):
        """A longer record extends the stream without changing its start."""
        plan = NoisePlan(seed=9)
        short = plan.normals(0, 60, 2)
        long = plan.normals(0, 100, 2)
        np.testing.assert_array_equal(long[:60], short)

    @pytest.mark.parametrize("args, name", [((-1, 5), "traj_index"), ((2**64, 5), "traj_index"),
                                            ((0, -1), "n_steps"), ((0, 0), "n_steps"),
                                            ((3, 5, 0), "n_detectors"),
                                            ((0, 5.0), "n_steps"), ((True, 5), "traj_index")])
    def test_bad_arguments_name_the_argument(self, args, name):
        with pytest.raises(ConfigError, match=f"^{name} must"):
            NoisePlan(7).normals(*args)


@functools.lru_cache(maxsize=64)
def stream_v3_tile(seed, tile, n_steps, n_det):
    """Noise tile ``tile`` of stream v3 from its definition: an SFC64 seeded
    by SeedSequence([seed, tile]) drives a Generator whose standard normals
    of shape (n_steps, n_det, 256) hold trajectory 256 * tile + i in lane i."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, tile])))
    draws = gen.standard_normal((n_steps, n_det, 256))
    draws.flags.writeable = False
    return draws


def stream_v3_oracle(seed, j, n_steps, n_det):
    """The normals of trajectory j, shape (n_steps, n_det)."""
    return stream_v3_tile(seed, j // 256, n_steps, n_det)[:, :, j % 256]


class TestNoiseStreamV1:
    """The batch contract that noise stream v1 set and every later stream
    keeps: a batch holds, bit for bit, each trajectory's stream drawn alone."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("lo", [0, 3, 2**40])
    @pytest.mark.parametrize("n_det", [1, 3])
    def test_batch_matches_fresh_stream_per_trajectory(self, seed, lo, n_det):
        plan = NoisePlan(seed)
        got = _batch_normals(plan, lo, lo + 4, 61, n_det)
        want = np.stack([plan.normals(j, 61, n_det) for j in range(lo, lo + 4)])
        assert got.shape == (4, 61, n_det)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNoiseStreamV2:
    """The tiled keying that noise stream v2 set and v3 keeps with SFC64 on
    tiles of 256: one generator per tile, trajectory j in lane j % 256,
    checked against stream v3's definition."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("j", [0, 3, 63, 64, 255, 256, 2**40])
    @pytest.mark.parametrize("n_det", [1, 3])
    def test_normals_match_definition(self, seed, j, n_det):
        # 61 steps: an odd draw count per lane
        got = NoisePlan(seed).normals(j, 61, n_det)
        want = stream_v3_oracle(seed, j, 61, n_det)
        assert got.shape == (61, n_det)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("lo, width", [(3, 1), (3, 63), (3, 64), (3, 65), (3, 130),
                                           (0, 255), (0, 256), (0, 257), (255, 2),
                                           (3, 1290), (2**40 - 1, 66), (2**40 - 1, 258)])
    def test_batch_across_tiles_matches_fresh_streams(self, lo, width):
        """Batches that start inside a tile and end inside, at and past
        later ones; 2**40 - 1 is the last lane of a tile."""
        got = _batch_normals(NoisePlan(7), lo, lo + width, 61, 2)
        want = np.stack([stream_v3_oracle(7, j, 61, 2) for j in range(lo, lo + width)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_pinned_digest(self):
        """Fails if numpy changes SeedSequence, SFC64 or the ziggurat of
        ``Generator.standard_normal``: NEP 19 keeps a bit generator's raw
        stream across numpy releases but not the streams of Generator
        methods, so this pin is the alarm for the latter."""
        draws = NoisePlan(7).normals(5, 61, 3)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "aa7e8886dd76a580a03d2f5a9c98d3f82e8288621356553f9461ccc57dd9bf07")


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestNoiseChunks:
    """Each batch's noise streams through the stepper in blocks of at most
    ``trajectory.NOISE_CHUNK`` x ``DEFAULT_BATCH_SIZE`` values; the block
    length shapes no bit."""

    N_STEPS = 40
    DETECTORS = (DetectorModel(axis=(0, 0, 1), tau_m=1.2, k_phase=0.9),
                 DetectorModel(axis=(1, 0, 0), tau_m=1.6, k_phase=-0.6))
    SEGMENTS = (EnsembleGenerator(
        matrix=dephasing_matrix((0, 0, 1), 1 / 2.4) + dephasing_matrix((1, 0, 0), 1 / 3.2)
        + rabi_dephasing_generator(0.0, OMEGA).matrix, r_st=np.zeros(3)),)

    def outputs(self):
        """Two-detector outputs that cover a batch of one, a batch that starts
        mid-tile, batches that cut tiles, normals over six tiles and two
        threads."""
        plan, grid = NoisePlan(31), TimeGrid(0.004, self.N_STEPS)
        ensemble = dict(plan=plan, initial_state=[0.3, -0.2, 0.4], grid=grid,
                        detectors=self.DETECTORS, segments=self.SEGMENTS)
        return {
            "threads 2, batches of 33": write_archive(stream_ensemble(
                70, **ensemble, threads=2, batch_size=33, decimate=4)),
            "batches of 1": write_archive(stream_ensemble(5, **ensemble, batch_size=1)),
            "states 3..4": _sha256(*simulate_states([0.3, -0.2, 0.4], grid, self.DETECTORS,
                                                    self.SEGMENTS, plan, 3, 4)),
            "states 3..70": _sha256(*simulate_states([0.3, -0.2, 0.4], grid, self.DETECTORS,
                                                     self.SEGMENTS, plan, 3, 70)),
            "normals 3..1290": _sha256(_batch_normals(plan, 3, 1290, self.N_STEPS, 2)),
        }

    @pytest.mark.parametrize("chunk", [1, 7, N_STEPS, N_STEPS + 5])
    def test_chunk_length_shapes_no_bit(self, monkeypatch, chunk):
        assert trajectory.NOISE_CHUNK < self.N_STEPS  # the default splits the record
        want = self.outputs()
        monkeypatch.setattr(trajectory, "NOISE_CHUNK", chunk)
        assert self.outputs() == want

    @pytest.mark.parametrize("lo, hi", [(0, 1), (3, 70), (64, 200), (250, 1100)])
    def test_blocks_are_c_contiguous_and_step_ordered(self, lo, hi):
        """The feed yields the whole tiles that [lo, hi) meets, tile-major
        (tiles, m, n_det, 256), in blocks of the most steps that hold at
        most NOISE_CHUNK x DEFAULT_BATCH_SIZE values: 64 for the five tiles
        of (250, 1100) at two detectors, the whole record for one tile."""
        tiles = range(lo // NOISE_TILE, (hi - 1) // NOISE_TILE + 1)
        steps = min(70, trajectory.NOISE_CHUNK * trajectory.DEFAULT_BATCH_SIZE
                    // (len(tiles) * 2 * NOISE_TILE))
        with contextlib.closing(_NoiseFeed(NoisePlan(5), 70, 2, [(lo, hi)], 0)) as feed:
            blocks = [b.copy() for b in feed.blocks(lo, hi)]
        assert [b.shape[1] for b in blocks] == [min(steps, 70 - s) for s in range(0, 70, steps)]
        assert all(b.flags.c_contiguous and b.shape[0] == len(tiles)
                   and b.shape[2:] == (2, NOISE_TILE) for b in blocks)
        want = np.stack([stream_v3_tile(5, tile, 70, 2) for tile in tiles])
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), want)


class TestNoiseHelper:
    """Each run of the stepper draws its noise on one helper thread per batch
    worker, each helper the batches of its worker, a stationary run on one
    helper for all its slices, and every exit joins them."""

    # write_archive(stream_ensemble(**args())) under noise stream v3, taken with
    # NOISE_CHUNK = 70, so that the helper draws the whole record as one block
    FROZEN = "11a09c2436ebce0447c567345648fb5d13827468adf639040489aab0b300b1cf"

    @staticmethod
    def args(**over):
        args = dict(n_traj=64, plan=NoisePlan(seed=11), initial_state=[1, 0, 0],
                    grid=TimeGrid(0.004, 70), detectors=(reference_detector(40.0),),
                    segments=drive_segments())
        args.update(over)
        return args

    def assert_clean(self, threads_before):
        assert threading.active_count() == threads_before
        assert write_archive(stream_ensemble(**self.args())) == self.FROZEN

    @staticmethod
    def hook_batch_2(monkeypatch, hook):
        """Call ``hook()`` on the drawing thread before the first draw of the
        second tile generator made from now on: batch 2's first draw in a
        run of 50-trajectory batches, which all lie in tile 0."""
        tile_generator, made = trajectory._tile_generator, []

        class Hooked:
            def __init__(self, seed, tile):
                self.gen, self.hooked = tile_generator(seed, tile), len(made) == 1
                made.append(self)

            def standard_normal(self, out):
                if self.hooked:
                    self.hooked = False
                    hook()
                return self.gen.standard_normal(out=out)

        monkeypatch.setattr(trajectory, "_tile_generator", Hooked)

    def test_tripped_guard_joins_the_helper(self):
        """The setup of ``TestTrajectory.test_norm_guard_trips_on_coarse_step``;
        the helper is joined while the traceback still holds the batch's frame."""
        before = threading.active_count()
        with pytest.raises(DiagnosticError) as caught:
            simulate_states([0, 0, 1], TimeGrid(0.02, 400), [reference_detector(70.0)],
                            drive_segments(), NoisePlan(2), 3, 9)
        self.assert_clean(before)
        assert caught.traceback

    def test_failed_draw_on_the_helper_reaches_the_caller(self, monkeypatch):
        # one-tile blocks of 8192 // 256 = 32 steps: the second block of the
        # 70 is drawn ahead
        monkeypatch.setattr(trajectory, "NOISE_CHUNK", 1)
        tile_generator, drawers = trajectory._tile_generator, []

        class FailsOnce:
            """A tile generator whose draw fails if it is the second draw
            since the test began."""

            def __init__(self, seed, tile):
                self.gen = tile_generator(seed, tile)

            def standard_normal(self, out):
                drawers.append(threading.current_thread())
                if len(drawers) == 2:
                    raise RuntimeError("draw failed")
                return self.gen.standard_normal(out=out)

        monkeypatch.setattr(trajectory, "_tile_generator", FailsOnce)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_ensemble(**self.args(), consumer=lambda records: None)
        assert drawers[1] is not threading.current_thread()
        # every later draw succeeds, so the next run gives the frozen bits
        self.assert_clean(before)

    def test_one_block_draw_starts_no_thread(self, monkeypatch):
        """``_batch_normals`` draws on its caller at any length; a batch of
        ``run_ensemble`` draws on a helper."""
        def refuse(thread):
            raise RuntimeError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        plan, chunk = NoisePlan(7), trajectory.NOISE_CHUNK
        np.testing.assert_array_equal(plan.normals(5, 1), stream_v3_oracle(7, 5, 1, 1))
        np.testing.assert_array_equal(plan.normals(5, 610), stream_v3_oracle(7, 5, 610, 1))
        for n_steps in (chunk, chunk + 1, 3 * chunk + 1):
            np.testing.assert_array_equal(
                _batch_normals(plan, 3, 70, n_steps, 2),
                np.stack([stream_v3_oracle(7, j, n_steps, 2) for j in range(3, 70)]))
        with pytest.raises(RuntimeError, match="thread started"):
            run_ensemble(**self.args(grid=TimeGrid(0.004, 3 * chunk + 1)),
                         consumer=lambda records: None)

    @pytest.mark.parametrize("run", ["run_ensemble threads 1", "run_ensemble threads 2",
                                     "simulate_states", "stationary, consumer raises",
                                     "stationary, draw raises"])
    def test_no_thread_outlives_a_run(self, monkeypatch, run):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        if run.startswith("stationary"):
            # three slices; the error comes in the second, while the helper
            # draws ahead
            det, handed = reference_detector(40.0), []
            error = (DiagnosticError, "stop") if run.endswith("consumer raises") else (
                RuntimeError, "draw failed")
            if error[0] is RuntimeError:
                tile_generator = trajectory._tile_generator

                class FailsInSlice1:
                    """A tile generator whose draws fail in the second slice."""

                    def __init__(self, seed, tile):
                        self.gen, self.tile = tile_generator(seed, tile), tile

                    def standard_normal(self, out):
                        if self.tile == RECORD_SLICE // NOISE_TILE:
                            raise RuntimeError("draw failed")
                        return self.gen.standard_normal(out=out)

                monkeypatch.setattr(trajectory, "_tile_generator", FailsInSlice1)

            def consumer(records):
                handed.append(len(records))
                if error[0] is DiagnosticError and len(handed) == 2:
                    raise DiagnosticError("stop")

            with pytest.raises(error[0], match=error[1]):
                run_ensemble(2 * RECORD_SLICE + 5, NoisePlan(3), det.axis, TimeGrid(0.004, 70),
                             (det,), undriven(det), threads=2, consumer=consumer)
            assert handed == [RECORD_SLICE] * (2 if error[0] is DiagnosticError else 1)
            assert [thread.name for thread in started] == ["cqmcorr-noise"]
        elif run == "simulate_states":
            simulate_states([1, 0, 0], TimeGrid(0.004, 70), [reference_detector(40.0)],
                            drive_segments(), NoisePlan(3), 3, 70)
            assert len(started) == 1
        elif run == "run_ensemble threads 1":
            # one helper draws all three batches
            run_ensemble(**self.args(n_traj=150), batch_size=50, consumer=lambda records: None)
            assert len(started) == 1
        else:
            # two workers, and a helper for each: batches 1 and 3, and batch 2
            run_ensemble(**self.args(n_traj=150), threads=2, batch_size=50,
                         consumer=lambda records: None)
            helpers = [thread for thread in started if thread.name == "cqmcorr-noise"]
            assert len(helpers) == 2
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)

    def test_next_batch_draws_during_the_hand_over(self, monkeypatch):
        """The consumer of batch 1 returns only once batch 2's first draw has
        begun, which the helper makes while batch 1 is handed over."""
        drawing, waited = threading.Event(), []
        self.hook_batch_2(monkeypatch, drawing.set)

        def consumer(records):
            if not waited:
                waited.append(drawing.wait(timeout=10))

        run_ensemble(**self.args(n_traj=150), batch_size=50, consumer=consumer)
        assert waited == [True]

    def test_failed_consumer_joins_the_drawing_helper(self, monkeypatch):
        """The consumer raises on batch 1 of 3 while the helper is inside
        batch 2's first draw."""
        drawing, raised = threading.Event(), threading.Event()

        def hold():
            drawing.set()
            raised.wait(timeout=10)

        self.hook_batch_2(monkeypatch, hold)
        calls = []

        def consumer(records):
            calls.append(len(records))
            assert drawing.wait(timeout=10)
            raised.set()
            raise DiagnosticError("stop")

        before = threading.active_count()
        with pytest.raises(DiagnosticError, match="stop"):
            run_ensemble(**self.args(n_traj=150), batch_size=50, consumer=consumer)
        assert calls == [50]
        self.assert_clean(before)

    def test_failed_draw_in_the_next_batch_reaches_the_caller(self, monkeypatch):
        drawers = []

        def fail():
            drawers.append(threading.current_thread())
            raise RuntimeError("draw failed")

        self.hook_batch_2(monkeypatch, fail)
        handed = []
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_ensemble(**self.args(n_traj=150), batch_size=50,
                         consumer=lambda records: handed.append(len(records)))
        # batch 1 is handed over whole; batch 2 asks for the failed block
        assert handed == [50]
        assert drawers[0] is not threading.current_thread()
        self.assert_clean(before)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batches_with_a_tail_shape_no_bit(self, threads):
        """Batches of 50, 50 and 40 give the bits of one batch."""
        args = self.args(n_traj=140)
        assert (write_archive(stream_ensemble(**args, threads=threads, batch_size=50))
                == write_archive(stream_ensemble(**args, threads=threads)))


def one_step(r, detectors, generator, dt):
    """simulate_states over one step of dt: the state after the step, the
    signals, and the draws that made them."""
    plan = NoisePlan(seed=23)
    states, signals = simulate_states(r, TimeGrid(dt, 1), detectors, (generator,),
                                      plan, 0, 1)
    return states[0, 1], signals[0, :, 0], plan.normals(0, 1, len(detectors))[0]


class TestStepIto:
    """One Ito step: simulate_states over a one-step grid."""

    def test_matches_hand_formula(self):
        det = reference_detector(70.0)
        gen = drive_segments()[0]
        r = np.array([0.3, -0.2, 0.4])
        dt = 0.001
        state, signals, (w,) = one_step(r, [det], gen, dt)

        n = det.axis
        drift = gen.matrix @ (r - gen.r_st) * dt
        kick = ((n - (n @ r) * r) + det.k_phase * np.cross(n, r)) * w * math.sqrt(dt / det.tau_m)
        np.testing.assert_allclose(state, r + drift + kick, atol=1e-15)
        assert signals[0] == pytest.approx((n @ r) + math.sqrt(det.tau_m / dt) * w,
                                           abs=1e-12)

    def test_two_detector_step(self):
        det_z = DetectorModel(axis=(0, 0, 1), tau_m=1.0, k_phase=2.0)
        det_x = DetectorModel(axis=(1, 0, 0), tau_m=1.0)
        matrix = (dephasing_matrix(det_z.axis, det_z.gamma_m)
                  + dephasing_matrix(det_x.axis, det_x.gamma_m))
        gen = EnsembleGenerator(matrix=matrix, r_st=np.zeros(3))
        r = np.array([0.0, -1.0, 0.0])
        dt = 4e-4
        state, signals, w = one_step(r, [det_z, det_x], gen, dt)

        drift = matrix @ r * dt
        kick = np.zeros(3)
        for det, wi in zip((det_z, det_x), w):
            n = det.axis
            kick += ((n - (n @ r) * r) + det.k_phase * np.cross(n, r)) * wi * math.sqrt(dt / det.tau_m)
        np.testing.assert_allclose(state, r + drift + kick, atol=1e-15)
        assert signals.shape == (2,)

    def test_signal_uses_pre_step_state(self):
        det = reference_detector(0.0)
        dt = 0.01
        state, signals, (w,) = one_step([0.0, 0.6, 0.8], [det], drive_segments()[0], dt)
        assert signals[0] == 0.8 + math.sqrt(det.tau_m / dt) * w
        assert state[2] != 0.8

    def test_validation(self):
        det = reference_detector()
        gen = drive_segments()[0]
        with pytest.raises(ConfigError, match="dt"):
            one_step([0, 0, 1], [det], gen, 0.0)
        with pytest.raises(ConfigError, match="detector"):
            one_step([0, 0, 1], [], gen, 0.01)
        with pytest.raises(ConfigError):
            one_step([0, 0, 1.2], [det], gen, 0.01)


def euler_maruyama_oracle(r0, grid, detectors, segments, draws):
    """One trajectory by the module docstring's SDE, step by step: each step
    uses the segment that contains its start time, the signal reads the
    pre-step state, and the same draw w kicks the state. Returns (states
    (n_steps+1, 3), signals (n_det, n_steps))."""
    r = np.array(r0, dtype=float)
    states, signals = [r], []
    for k in range(grid.n_steps):
        t = grid.dt * k
        seg = next(s for s in segments if s.t_start <= t < s.t_end)
        step = seg.matrix @ (r - seg.r_st) * grid.dt
        outputs = []
        for det, w in zip(detectors, draws[k]):
            n = det.axis
            outputs.append(n @ r + math.sqrt(det.tau_m / grid.dt) * w)
            step = step + ((n - (n @ r) * r) + det.k_phase * np.cross(n, r)) * (
                math.sqrt(grid.dt / det.tau_m) * w)
        r = r + step
        states.append(r)
        signals.append(outputs)
    return np.array(states), np.array(signals).T


class TestOracle:
    """simulate_states against the per-trajectory oracle over many steps."""

    def test_two_axes_three_segments(self):
        det_z = DetectorModel(axis=(0, 0, 1), tau_m=1.2, k_phase=0.9)
        det_x = DetectorModel(axis=(1, 0, 0), tau_m=1.6, k_phase=-0.6)
        base = dephasing_matrix(det_z.axis, det_z.gamma_m) + dephasing_matrix(det_x.axis,
                                                                               det_x.gamma_m)
        drive = rabi_dephasing_generator(0.0, OMEGA).matrix
        grid = TimeGrid(0.004, 50)
        # the first boundary falls strictly inside step 15, the second inside step 35
        segments = (
            EnsembleGenerator(matrix=base - 0.3 * np.eye(3), r_st=np.array([0.0, 0.0, 0.2]),
                              t_start=0.0, t_end=0.0613),
            EnsembleGenerator(matrix=base + drive - 0.2 * np.eye(3),
                              r_st=np.array([0.1, 0.0, -0.3]), t_start=0.0613, t_end=0.1415),
            EnsembleGenerator(matrix=base + 0.5 * drive - 0.4 * np.eye(3),
                              r_st=np.array([-0.2, 0.1, 0.0]), t_start=0.1415, t_end=1.0),
        )
        plan = NoisePlan(seed=31)
        r0 = [0.3, -0.2, 0.4]
        states, signals = simulate_states(r0, grid, (det_z, det_x), segments, plan, 5, 9)
        assert states.shape == (4, 51, 3) and signals.shape == (4, 2, 50)
        for i, j in enumerate(range(5, 9)):
            want_states, want_signals = euler_maruyama_oracle(
                r0, grid, (det_z, det_x), segments, plan.normals(j, 50, 2))
            np.testing.assert_allclose(states[i], want_states, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_states).max())
            np.testing.assert_allclose(signals[i], want_signals, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_signals).max())


class TestTrajectory:
    def test_states_start_at_preparation(self):
        det = reference_detector()
        grid = TimeGrid(0.004, 10)
        states, signals = simulate_states([0, 1, 0], grid, [det], drive_segments(),
                                          NoisePlan(1), 0, 3)
        np.testing.assert_array_equal(states[:, 0], [[0, 1, 0]] * 3)
        assert states.shape == (3, 11, 3)
        assert signals.shape == (3, 1, 10)

    def test_rejects_empty_trajectory_range(self):
        grid = TimeGrid(0.004, 10)
        for lo, hi in ((3, 3), (-1, 2)):
            with pytest.raises(ConfigError, match="traj_lo"):
                simulate_states([0, 1, 0], grid, [reference_detector()], drive_segments(),
                                NoisePlan(1), lo, hi)

    def test_norm_guard_trips_on_coarse_step(self):
        """The guard names the trajectory and time where the oracle first
        leaves the tolerance, the worst trajectory of that step."""
        det = reference_detector(70.0)
        grid = TimeGrid(0.02, 400)  # kick std ~ 0.1 per step: must trip
        plan, lo, hi = NoisePlan(2), 3, 9
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.array([np.linalg.norm(euler_maruyama_oracle(
                [0, 0, 1], grid, [det], drive_segments(), plan.normals(j, 400))[0], axis=1)
                for j in range(lo, hi)])
        over = norms > 1.05
        step = int(np.argmax(over.any(axis=0)))
        assert over[:, step].any() and step > 0
        worst = lo + int(np.argmax(norms[:, step]))
        message = f"trajectory {worst} norm .* at t = {step * grid.dt:.6g} "
        with pytest.raises(DiagnosticError, match=message):
            simulate_states([0, 0, 1], grid, [det], drive_segments(), plan, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 256), (110, 113), (0, 1)])
    def test_guard_checks_only_the_batch(self, lo, hi):
        """Trajectory 112 is the first to overshoot in tile 0. A batch is
        stepped on the whole tiles it meets, and only its own trajectories
        trip the guard: a batch of trajectory 0 alone passes."""
        args = ([0, 0, 1], TimeGrid(0.008, 300), [reference_detector(70.0)], drive_segments(),
                NoisePlan(2), lo, hi)
        if lo <= 112 < hi:
            with pytest.raises(DiagnosticError, match="^trajectory 112 norm"):
                simulate_states(*args)
        else:
            states, _ = simulate_states(*args)
            assert states.shape == (1, 301, 3)


class TestRunEnsemble:
    def small_args(self, **over):
        args = dict(n_traj=64, plan=NoisePlan(seed=11), initial_state=[1, 0, 0],
                    grid=TimeGrid(0.004, 40), detectors=(reference_detector(40.0),),
                    segments=drive_segments())
        args.update(over)
        return args

    def test_matches_single_trajectory_engine(self):
        args = self.small_args()
        records = gather(stream_ensemble(**args))
        for j in (0, 13, 63):
            _, signals = simulate_states(args["initial_state"], args["grid"],
                                         args["detectors"], args["segments"],
                                         args["plan"], j, j + 1)
            np.testing.assert_array_equal(records[j], signals[0])

    def test_batch_size_invariance(self):
        a = gather(stream_ensemble(**self.small_args(), batch_size=7))
        b = gather(stream_ensemble(**self.small_args(), batch_size=64))
        np.testing.assert_array_equal(a, b)

    def test_batch_size_invariance_across_tiles(self):
        """Batches that cut the 256-trajectory noise tiles anywhere give the
        records of one batch."""
        args = self.small_args(n_traj=600)
        whole = gather(stream_ensemble(**args))
        for batch_size in (1, 7, 255, 257):
            np.testing.assert_array_equal(gather(stream_ensemble(**args, batch_size=batch_size)),
                                          whole)

    def test_thread_invariance_bitwise(self):
        a = write_archive(stream_ensemble(**self.small_args(), threads=1, batch_size=16))
        b = write_archive(stream_ensemble(**self.small_args(), threads=4, batch_size=16))
        assert a == b

    def test_efficiency_never_touches_trajectories(self):
        """eta enters the ensemble generator, not the stepper: with the
        generator held fixed, records are bit-identical across eta."""
        base = self.small_args()
        lo = gather(stream_ensemble(**{**base, "detectors": (reference_detector(40.0),)}))
        det_hi = DetectorModel(axis=(0, 0, 1), tau_m=reference_detector(40.0).tau_m,
                               k_phase=reference_detector(40.0).k_phase, eta=1.0)
        hi = gather(stream_ensemble(**{**base, "detectors": (det_hi,)}))
        np.testing.assert_array_equal(lo, hi)

    @pytest.mark.parametrize("n_steps, decimate", [(40, 1), (40, 4), (40, 8), (40, 10),
                                                   (40, 20), (40, 40), (260, 130)])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_decimation_averages_fine_samples(self, n_steps, decimate, batch_size):
        """A sample is its fine samples summed in step order, divided by D."""
        args = self.small_args(grid=TimeGrid(0.004, n_steps))
        fine = gather(stream_ensemble(**args))
        stream = stream_ensemble(**args, decimate=decimate, batch_size=batch_size)
        coarse = gather(stream)
        n_dec = n_steps // decimate
        groups = fine.reshape(64, 1, n_dec, decimate)
        total = np.zeros((64, 1, n_dec))
        for i in range(decimate):
            total += groups[..., i]
        np.testing.assert_array_equal(coarse, total / decimate)
        np.testing.assert_allclose(coarse, groups.mean(axis=3), rtol=0, atol=1e-12)
        assert stream.grid.dt == pytest.approx(0.004 * decimate)
        assert stream.grid.n_steps == n_dec

    def test_batch_memory_stays_near_its_noise(self):
        """A batch handed to a consumer that keeps nothing holds no raw-word
        array and no full-size signal copy: its peak (3.6 MB traced, mostly
        two 1.3 MB noise blocks of 160 steps of 4 tiles) stays below 1.5
        times the noise of the whole batch (5 MB)."""
        noise_bytes = 1024 * 610 * 8
        tracemalloc.start()
        try:
            run_ensemble(**self.small_args(n_traj=1024, grid=TimeGrid(0.004, 610)),
                         decimate=10, consumer=lambda records: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * noise_bytes

    def test_full_batch_peak_memory(self):
        """One full 8192 x 610 batch, decimated by 10 and handed to a
        consumer that keeps nothing, peaks at 8.2 MB traced: 4 MB of
        step-major signals, two 1.3 MB noise blocks, one stepped while the
        other is drawn, the stepper's two 0.5 MB state blocks and one
        0.5 MB slice of records. Its whole noise,
        40 MB, is never held at once."""
        tracemalloc.start()
        try:
            run_ensemble(**self.small_args(n_traj=8192, grid=TimeGrid(0.004, 610)),
                         decimate=10, consumer=lambda records: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_many_threads_match_one(self):
        """Batches on more threads than cores, each worker with its own noise
        helper and the interpreter switching threads every microsecond, give
        the bits of one thread; so do the 67 batches of one run's noise
        feed."""
        args = self.small_args(n_traj=2000, grid=TimeGrid(0.004, 10))
        want = write_archive(stream_ensemble(**args, batch_size=50))
        pooled = stream_ensemble(**args, threads=8, batch_size=50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [write_archive(pooled) for _ in range(3)]
            fed = [write_archive(stream_ensemble(**args, batch_size=30)) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 3
        assert fed == [want] * 3

    @pytest.mark.parametrize("threads", [1, 3])
    def test_consumer_gets_batches_in_order_on_the_caller(self, threads):
        args = self.small_args(n_traj=150)
        got, callers = [], []

        def consumer(records):
            got.append(records.copy())
            callers.append(threading.current_thread())

        assert run_ensemble(**args, threads=threads, batch_size=20, consumer=consumer) is None
        assert [len(records) for records in got] == [20] * 7 + [10]
        np.testing.assert_array_equal(np.concatenate(got), gather(stream_ensemble(**args)))
        assert set(callers) == {threading.current_thread()}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_buffers_are_reused_and_batches_in_flight_bounded(self, monkeypatch, threads):
        """At most ``threads`` batches are in flight, and the run's
        ``threads`` noise feeds each reuse their signals buffer for the
        batches they serve."""
        signal_buffers, handed, in_flight = [], [], []
        simulate = trajectory._simulate_batch

        def counted(*args, **kwargs):
            signal_buffers.append(args[5].signals)
            return simulate(*args, **kwargs)

        def consumer(records):
            handed.append(records.ctypes.data)
            # started and not yet handed over, this batch included
            in_flight.append(len(signal_buffers) - len(handed) + 1)

        monkeypatch.setattr(trajectory, "_simulate_batch", counted)
        run_ensemble(**self.small_args(n_traj=200), threads=threads, batch_size=20,
                     consumer=consumer)
        assert len(handed) == 10
        assert max(in_flight) <= threads
        assert len({id(buf) for buf in signal_buffers}) == min(threads, 10)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_signals_share_the_noise_allocation(self, monkeypatch, threads):
        """Every batch steps into its feed's signals buffer, which lies in
        the allocation of the feed's two noise blocks and makes it the
        run's largest (``_NoiseFeed``); batch i steps from feed
        i % threads."""
        calls, simulate = [], trajectory._simulate_batch

        def recorded(*args, **kwargs):
            signals, states = simulate(*args, **kwargs)
            calls.append((kwargs["traj_lo"], signals, args[5]))
            return signals, states

        monkeypatch.setattr(trajectory, "_simulate_batch", recorded)
        run_ensemble(**self.small_args(n_traj=100), threads=threads, batch_size=40,
                     consumer=lambda records: None)
        assert len(calls) == 3
        for _, signals, noise in calls:
            assert np.shares_memory(signals, noise.signals)
            assert noise.signals.base is noise._buffers.base
        feeds = [id(noise) for _, _, noise in sorted(calls, key=lambda call: call[0])]
        assert feeds == [feeds[i % threads] for i in range(3)]
        assert len(set(feeds)) == min(threads, 3)

    def test_failed_consumer_stops_the_pool(self):
        before = threading.active_count()
        calls = []

        def consumer(records):
            calls.append(len(records))
            raise DiagnosticError("stop")

        with pytest.raises(DiagnosticError, match="stop"):
            run_ensemble(**self.small_args(n_traj=400), threads=2, batch_size=20,
                         consumer=consumer)
        assert calls == [20]
        assert threading.active_count() == before

    def test_decimate_must_divide(self):
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(), decimate=7, consumer=lambda records: None)

    def test_raw_units_applied_after_decimation(self):
        det = reference_detector(40.0, response=0.33, offset=-0.4)
        raw = gather(stream_ensemble(**self.small_args(detectors=(det,)), decimate=4))
        norm = gather(stream_ensemble(**self.small_args(), decimate=4))
        np.testing.assert_array_equal(raw, -0.4 + 0.33 * norm)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(n_traj=0), consumer=lambda records: None)
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(detectors=()), consumer=lambda records: None)
        # the records go to a consumer and only there
        with pytest.raises(TypeError, match="consumer"):
            run_ensemble(**self.small_args())
        with pytest.raises(TypeError, match="config_digest"):
            run_ensemble(**self.small_args(), config_digest="abc123",
                         consumer=lambda records: None)


def undriven(*detectors):
    """The one segment of an undriven qubit under ``detectors``: their
    measurement dephasing and nothing else."""
    matrix = sum(dephasing_matrix(det.axis, det.gamma_m) for det in detectors)
    return (EnsembleGenerator(matrix=matrix, r_st=np.zeros(3)),)


@pytest.fixture
def stepped(monkeypatch):
    """The batches that entered the state update, by their first trajectory."""
    calls, update = [], trajectory._state_update

    def spy(*args, **kwargs):
        calls.append(args[6])
        return update(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_state_update", spy)
    return calls


class TestStationaryStart:
    """A start that every step leaves in place, a measured pole under no
    drive, is not stepped: its records come straight from the noise."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("decimate", [1, 3])
    @pytest.mark.parametrize("phi_a_deg", [0.0, 70.0], ids=["K0", "tan70"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_pole_records_are_the_noise(self, stepped, sign, phi_a_deg, decimate, threads):
        """offset + response (n.r0 + sqrt(tau_m/dt) w), the D fine samples
        summed in step order and divided by D, bit for bit, from
        ``NoisePlan.normals``; batches of 16, 16 and a lone trajectory."""
        det = reference_detector(phi_a_deg, response=0.7, offset=-0.3)
        grid, plan, n_traj = TimeGrid(0.04, 30), NoisePlan(seed=17), 33
        r0 = sign * det.axis
        got = gather(stream_ensemble(n_traj, plan, r0, grid, (det,), undriven(det),
                                     decimate=decimate, threads=threads, batch_size=16))
        fine = float(det.axis @ r0) + math.sqrt(det.tau_m / grid.dt) * np.stack(
            [plan.normals(j, grid.n_steps)[:, 0] for j in range(n_traj)])
        total = fine[:, ::decimate]
        for i in range(1, decimate):
            total = total + fine[:, i::decimate]
        if decimate > 1:
            total = total / decimate
        np.testing.assert_array_equal(got[:, 0], det.offset + det.response * total)
        assert stepped == []

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_pole_records_equal_the_stepped_ones(self, stepped, sign):
        det = reference_detector(70.0)
        grid, plan = TimeGrid(0.04, 60), NoisePlan(seed=5)
        got = gather(stream_ensemble(300, plan, sign * det.axis, grid, (det,), undriven(det),
                                     batch_size=128))
        _, want = simulate_states(sign * det.axis, grid, (det,), undriven(det), plan, 0, 300)
        np.testing.assert_array_equal(got, want)
        assert stepped == [0]  # simulate_states' one batch

    @staticmethod
    def moving_starts():
        det_z, det_x = reference_detector(70.0), DetectorModel(axis=(1, 0, 0), tau_m=2.0)
        still = (EnsembleGenerator(matrix=np.zeros((3, 3)), r_st=np.zeros(3)),)
        later = (EnsembleGenerator(matrix=undriven(det_z)[0].matrix, r_st=np.zeros(3),
                                   t_start=0.0, t_end=0.08),
                 EnsembleGenerator(matrix=drive_segments()[0].matrix, r_st=np.zeros(3),
                                   t_start=0.08, t_end=1.0))
        return {
            # no drift at all, so only the kick direction tells it from the pole
            "1e-9 off the pole": ([0.0, 0.0, 1.0 - 1e-9], (det_z,), still),
            "driven pole": ([0.0, 0.0, 1.0], (det_z,), drive_segments()),
            "pole driven later": ([0.0, 0.0, -1.0], (det_z,), later),
            "z/x pole": ([0.0, 0.0, 1.0], (det_z, det_x), undriven(det_z, det_x)),
        }

    @pytest.mark.parametrize("start", ["1e-9 off the pole", "driven pole", "pole driven later",
                                       "z/x pole"])
    def test_moving_starts_step(self, stepped, start):
        """Each batch of a moving start enters the state update, and its
        records are simulate_states' signals, bit for bit."""
        r0, detectors, segments = self.moving_starts()[start]
        grid, plan = TimeGrid(0.004, 40), NoisePlan(seed=9)
        got = gather(stream_ensemble(100, plan, r0, grid, detectors, segments, batch_size=64))
        assert stepped == [0, 64]
        _, want = simulate_states(r0, grid, detectors, segments, plan, 0, 100)
        np.testing.assert_array_equal(got, want)


    @staticmethod
    def pole_oracle(plan, grid, detectors, r0, n_traj, decimate):
        """offset + response (n.r0 + sqrt(tau_m/dt) w) per detector, the D
        fine samples summed in step order and divided by D, from
        ``NoisePlan.normals``: shape (n_traj, n_det, n_samples)."""
        n_det = len(detectors)
        w = np.stack([plan.normals(j, grid.n_steps, n_det) for j in range(n_traj)])
        fine = np.stack([float(det.axis @ r0) + math.sqrt(det.tau_m / grid.dt) * w[:, :, i]
                         for i, det in enumerate(detectors)], axis=1)
        total = fine[..., ::decimate]
        for i in range(1, decimate):
            total = total + fine[..., i::decimate]
        if decimate > 1:
            total = total / decimate
        return (np.array([det.offset for det in detectors])[:, None]
                + np.array([det.response for det in detectors])[:, None] * total)

    @pytest.mark.parametrize("chunk", [None, 1], ids=["default-blocks", "8-step-blocks"])
    @pytest.mark.parametrize("decimate", [1, 3])
    def test_partial_last_tile(self, monkeypatch, stepped, decimate, chunk):
        """2 RECORD_SLICE + 300 trajectories: two whole slices and one of a
        whole tile and a cut one. At NOISE_CHUNK = 1 a slice's tiles are
        drawn 8 steps at a time, so groups of 3 fine samples span blocks."""
        if chunk is not None:
            monkeypatch.setattr(trajectory, "NOISE_CHUNK", chunk)
        det = reference_detector(70.0, response=0.7, offset=-0.3)
        grid, plan, n_traj = TimeGrid(0.04, 30), NoisePlan(seed=23), 2 * RECORD_SLICE + 300
        r0 = -det.axis
        got = gather(stream_ensemble(n_traj, plan, r0, grid, (det,), undriven(det),
                                     decimate=decimate))
        np.testing.assert_array_equal(
            got, self.pole_oracle(plan, grid, (det,), r0, n_traj, decimate))
        assert stepped == []
        if decimate == 1:
            _, want = simulate_states(r0, grid, (det,), undriven(det), plan, 0, n_traj)
            np.testing.assert_array_equal(got, det.offset + det.response * want)

    @pytest.mark.parametrize("decimate", [1, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_two_detector_pole(self, stepped, sign, decimate):
        """Two z-axis detectors with different tau_m and K share the poles
        +-z, so the start is stationary and each detector's records are its
        own noise."""
        dets = (DetectorModel(axis=(0, 0, 1), tau_m=1.2, k_phase=0.9),
                DetectorModel(axis=(0, 0, 1), tau_m=3.1, k_phase=-2.7, response=1.3,
                              offset=0.2))
        grid, plan, n_traj = TimeGrid(0.04, 30), NoisePlan(seed=8), 300
        r0 = np.array([0.0, 0.0, sign])
        got = gather(stream_ensemble(n_traj, plan, r0, grid, dets, undriven(*dets),
                                     decimate=decimate))
        np.testing.assert_array_equal(got, self.pole_oracle(plan, grid, dets, r0, n_traj,
                                                            decimate))
        assert stepped == []
        if decimate == 1:
            _, want = simulate_states(r0, grid, dets, undriven(*dets), plan, 0, n_traj)
            np.testing.assert_array_equal(got, np.array([0.0, 0.2])[:, None]
                                          + np.array([1.0, 1.3])[:, None] * want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_helper_and_no_batches(self, monkeypatch, threads):
        """A stationary run neither steps a batch nor makes a pool, whatever
        ``threads`` and ``batch_size``: one noise helper feeds its slices,
        which are cut at multiples of RECORD_SLICE only."""
        def refuse(*args, **kwargs):
            raise AssertionError("entered")

        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(trajectory, "_simulate_batch", refuse)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", counted)
        det = reference_detector(0.0)
        lengths = []
        run_ensemble(2 * RECORD_SLICE + 300, NoisePlan(seed=4), det.axis, TimeGrid(0.04, 12),
                     (det,), undriven(det), threads=threads, batch_size=100,
                     consumer=lambda records: lengths.append(len(records)))
        assert lengths == [RECORD_SLICE, RECORD_SLICE, 300]
        assert started == ["cqmcorr-noise"]

    def test_memory_stays_within_a_slice(self):
        """2048 trajectories of 2000 fine steps, decimated by 10, peak below
        one 200-sample slice of records (1.64 MB) and two tile buffers of at
        most one stepped noise block each (1.31 MB), plus 10%: 4.69 MB.
        Traced peak: 4.39 MB. Drawing each tile's whole record at once would
        take 16.4 MB per buffer."""
        det = reference_detector(0.0)
        grid = TimeGrid(0.004, 2000)
        block = trajectory.NOISE_CHUNK * trajectory.DEFAULT_BATCH_SIZE
        bound = 8 * (RECORD_SLICE * grid.n_steps // 10 + 2 * block) * 1.1

        def run(n_traj):
            run_ensemble(n_traj, NoisePlan(seed=3), det.axis, grid, (det,), undriven(det),
                         decimate=10, consumer=lambda records: None)

        # the first run imports numpy.random, which is not the run's memory
        run(2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(2 * RECORD_SLICE)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestRecordSlices:
    """The calling thread maps each batch to raw units and hands it over in
    slices of at most RECORD_SLICE records, cut at multiples of RECORD_SLICE
    and at batch ends, so a run holds one slice of records, not a batch."""

    N_TRAJ = 2 * RECORD_SLICE + 37
    # (batch_size, slice lengths of each batch): one batch wider than a
    # slice, batches that slice boundaries cut, and batches narrower than a
    # slice, so that every calibration unit is gathered across batches
    LAYOUTS = [(trajectory.DEFAULT_BATCH_SIZE, [[RECORD_SLICE, RECORD_SLICE, 37]]),
               (RECORD_SLICE + 5, [[RECORD_SLICE, 5], [RECORD_SLICE - 5, 10], [27]]),
               (300, [[300], [300], [300], [124, 176], [300], [300], [248, 37]])]
    LAYOUT_IDS = ["wide-batch", "cut-batches", "narrow-batches"]

    @staticmethod
    def args():
        det = reference_detector(40.0, response=1.005, offset=-0.4)
        return dict(n_traj=TestRecordSlices.N_TRAJ, plan=NoisePlan(seed=17),
                    initial_state=[1, 0, 0], grid=TimeGrid(0.004, 12), detectors=(det,),
                    segments=drive_segments())

    def test_slice_matches_the_calibration_unit(self):
        """A slice is whole noise tiles and one calibration moment unit, so
        ``calibrate``'s units arrive whole, as views of a slice."""
        assert RECORD_SLICE == MOMENT_UNIT == 4 * NOISE_TILE

    @pytest.mark.parametrize("batch_size, batches", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_consumer_gets_ordered_slices_on_the_caller(self, batch_size, batches, threads):
        """Each batch's slices are mapped into one buffer of its own."""
        got, callers, buffers = [], [], []

        def consumer(records):
            got.append(records.copy())
            callers.append(threading.current_thread())
            buffers.append(records.ctypes.data)

        assert run_ensemble(**self.args(), threads=threads, batch_size=batch_size,
                            consumer=consumer) is None
        assert max(len(records) for records in got) <= RECORD_SLICE
        assert [len(records) for records in got] == sum(batches, [])
        firsts = np.cumsum([0] + [len(lengths) for lengths in batches])
        assert all(len(set(buffers[i:j])) == 1 for i, j in zip(firsts, firsts[1:]))
        assert set(callers) == {threading.current_thread()}
        np.testing.assert_array_equal(np.concatenate(got), gather(stream_ensemble(**self.args())))

    @pytest.mark.parametrize("batch_size, batches", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimators_on_slices_equal_the_archive(self, monkeypatch, batch_size, batches,
                                                    threads):
        """Jackknife blocks of 700 records straddle the slices, and so do the
        calibration units where batch ends cut them; the reducers gather
        such a group step-major, like a slice, and both estimators give the
        bits of the whole ensemble fed as one slice."""
        archive = fed_whole(stream_ensemble(**self.args()))
        stream = stream_ensemble(**self.args(), threads=threads, batch_size=batch_size)
        estimate = dict(delta_i=2.0, t_avg=0.02, t_skip=0.0, block_size=700)
        want, got = (estimate_correlator(records, **estimate) for records in (archive, stream))
        for field in ("lags", "values", "errors", "t1_values"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        want = CalibrationRun(plus=archive, minus=archive)
        units, integrate = [], calibration.integrate_traces

        def watched(records, dt):
            units.append(records)
            return integrate(records, dt)

        monkeypatch.setattr(calibration, "integrate_traces", watched)
        got = CalibrationRun(plus=stream, minus=stream)
        assert [len(unit) for unit in units] == 2 * [RECORD_SLICE, RECORD_SLICE, 37]
        assert all(unit.T.flags.c_contiguous for unit in units)
        for side in ("plus_moments", "minus_moments"):
            a, b = getattr(got, side), getattr(want, side)
            assert (a.n_traj, a.peak) == (b.n_traj, b.peak)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.m2, b.m2)

    @pytest.mark.parametrize("batch_size, batches", LAYOUTS, ids=LAYOUT_IDS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_slices_are_views_of_step_major_memory(self, batch_size, batches, threads):
        """A slice of n records is the (n, n_det, n_samples) transposed view
        of a C-contiguous step-major array, carved from the one flat buffer
        that all slices of its batch share: the hand-over makes no
        transposing copy."""
        slices = []
        run_ensemble(**self.args(), threads=threads, batch_size=batch_size,
                     consumer=slices.append)
        n_samples = self.args()["grid"].n_steps
        for records in slices:
            n, n_det = records.shape[:2]
            assert records.shape == (n, n_det, n_samples)
            assert records.strides == (8, 8 * n, 8 * n * n_det)
            assert records.base.ndim == 1 and records.base.flags.c_contiguous
        firsts = np.cumsum([0] + [len(lengths) for lengths in batches])
        bases = [{id(records.base) for records in slices[i:j]}
                 for i, j in zip(firsts, firsts[1:])]
        assert all(len(ids) == 1 for ids in bases)
        assert len(set.union(*bases)) == len(batches)

    def test_consumer_run_holds_one_batch_of_signals(self):
        """A full 8192 x 60 batch handed to a consumer peaks below one
        signals buffer (3.93 MB), one slice (0.49 MB), the two noise blocks
        (2.62 MB) and the stepper's two (8, 8192) state blocks (1.05 MB),
        plus 10%: 8.90 MB. Traced peak: 12.14 MB when each batch also kept a
        records buffer as large as its signals; 8.20 MB with slices, whose
        buffer is allocated once the noise blocks are freed; 8.04 MB since
        the stepper reads the noise blocks in place. The start sits
        1e-9 below the pole, so the batch is stepped; the pole itself streams
        slices (``TestStationaryStart.test_memory_stays_within_a_slice``)."""
        det = reference_detector(0.0, response=1.005, offset=-0.4)
        segments = (EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), GAMMA),
                                      r_st=np.zeros(3)),)
        batch, n_samples = trajectory.DEFAULT_BATCH_SIZE, 60
        bound = 8 * (n_samples * batch + RECORD_SLICE * n_samples
                     + 2 * trajectory.NOISE_CHUNK * batch + 2 * 8 * batch) * 1.1

        def run(n_traj):
            run_ensemble(n_traj, NoisePlan(seed=3), [0, 0, 1 - 1e-9], TimeGrid(0.04, n_samples),
                         (det,), segments, consumer=lambda records: None)

        # the first run imports numpy.random, which is not the run's memory
        run(2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(batch)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestArchiveSerialization:
    @staticmethod
    def write(tmp_path, batch_size):
        """Write the archive of a stream run in batches of ``batch_size``;
        return the stream, the file and the digest ``write_archive`` gave."""
        stream = stream_ensemble(9, NoisePlan(seed=5), [0, 0, 1], TimeGrid(0.01, 12),
                                 (reference_detector(0.0, response=1.005, offset=-0.4),),
                                 (EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), GAMMA),
                                                    r_st=np.zeros(3)),),
                                 decimate=3, config_digest="abc123", batch_size=batch_size)
        path = tmp_path / f"run-{batch_size}.cqm"
        with open(path, "wb") as fh:
            digest = write_archive(stream, fh)
        return stream, path, digest

    def test_round_trip(self, tmp_path):
        """The file holds the documented header, then the records, whatever
        the batches that wrote it."""
        for batch_size in (2, 9):
            stream, path, _ = self.write(tmp_path, batch_size)
            blob = path.read_bytes()
            assert blob[:8] == b"CQMARCH1"
            (hlen,) = struct.unpack_from("<I", blob, 8)
            text = blob[12:12 + hlen].decode()
            header = json.loads(text)
            assert text == json.dumps(header, sort_keys=True)
            assert header == {"config_digest": "abc123", "dt": pytest.approx(0.03),
                              "kind": "raw", "n_detectors": 1, "n_samples": 4, "n_traj": 9,
                              "seed": 5, "t0": 0.0, "version": 3}
            assert len(blob) == 12 + hlen + 8 * 9 * 1 * 4
            signals = np.frombuffer(blob, dtype="<f8", offset=12 + hlen).reshape(9, 1, 4)
            np.testing.assert_array_equal(signals, gather(stream))

    def test_digest_matches_file_hash(self, tmp_path):
        """The digest returned with the file, and without one, is the sha256
        of the file."""
        for batch_size in (2, 9):
            stream, path, digest = self.write(tmp_path, batch_size)
            assert digest == write_archive(stream) == hashlib.sha256(path.read_bytes()).hexdigest()
