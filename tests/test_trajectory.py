"""Stochastic trajectory engine: noise plan, stepper, ensembles, archives."""

import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from cqmcorr import (
    ConfigError,
    DetectorModel,
    DiagnosticError,
    NoisePlan,
    TimeGrid,
    dephasing_matrix,
    EnsembleGenerator,
    rabi_dephasing_generator,
    run_ensemble,
    simulate_states,
)
from cqmcorr.trajectory import _batch_normals

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


def stream_v2_oracle(seed, j, n_steps, n_det):
    """Noise stream v2 from its definition: a fresh Philox keyed
    [seed, j // 64] drives a Generator whose standard normals of shape
    (n_steps, n_det, 64) hold trajectory j in lane j % 64."""
    key = np.array([seed, j // 64], dtype=np.uint64)
    tile = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, n_det, 64))
    return tile[:, :, j % 64]


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
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("j", [0, 3, 63, 64, 2**40])
    @pytest.mark.parametrize("n_det", [1, 3])
    def test_normals_match_definition(self, seed, j, n_det):
        # 61 steps: an odd draw count per lane
        got = NoisePlan(seed).normals(j, 61, n_det)
        want = stream_v2_oracle(seed, j, 61, n_det)
        assert got.shape == (61, n_det)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("lo, width", [(3, 1), (3, 63), (3, 64), (3, 65), (3, 130),
                                           (2**40 - 1, 66)])
    def test_batch_across_tiles_matches_fresh_streams(self, lo, width):
        """Batches that start inside a tile and end inside, at and past
        later ones."""
        got = _batch_normals(NoisePlan(7), lo, lo + width, 61, 2)
        want = np.stack([stream_v2_oracle(7, j, 61, 2) for j in range(lo, lo + width)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_pinned_digest(self):
        """Fails if numpy changes Philox, its state dict, or the ziggurat of
        ``Generator.standard_normal``: NEP 19 keeps a bit generator's raw
        stream across numpy releases but not the streams of Generator
        methods, so this pin is the alarm for the latter."""
        draws = NoisePlan(7).normals(5, 61, 3)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "6efabd162fd0cd0b1b173abfc82eae9735df3fac5e57fdad98a042a78f873094")


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


class TestRunEnsemble:
    def small_args(self, **over):
        args = dict(n_traj=64, plan=NoisePlan(seed=11), initial_state=[1, 0, 0],
                    grid=TimeGrid(0.004, 40), detectors=(reference_detector(40.0),),
                    segments=drive_segments())
        args.update(over)
        return args

    def test_matches_single_trajectory_engine(self):
        args = self.small_args()
        arch = run_ensemble(**args)
        for j in (0, 13, 63):
            _, signals = simulate_states(args["initial_state"], args["grid"],
                                         args["detectors"], args["segments"],
                                         args["plan"], j, j + 1)
            np.testing.assert_array_equal(arch.signals[j], signals[0])

    def test_batch_size_invariance(self):
        a = run_ensemble(**self.small_args(), batch_size=7)
        b = run_ensemble(**self.small_args(), batch_size=64)
        np.testing.assert_array_equal(a.signals, b.signals)

    def test_batch_size_invariance_across_tiles(self):
        """Batches that cut the 64-trajectory noise tiles anywhere give the
        records of one batch."""
        args = self.small_args(n_traj=150)
        whole = run_ensemble(**args)
        for batch_size in (1, 7, 63, 100):
            np.testing.assert_array_equal(run_ensemble(**args, batch_size=batch_size).signals,
                                          whole.signals)

    def test_thread_invariance_bitwise(self):
        a = run_ensemble(**self.small_args(), threads=1, batch_size=16)
        b = run_ensemble(**self.small_args(), threads=4, batch_size=16)
        assert a.digest() == b.digest()

    def test_efficiency_never_touches_trajectories(self):
        """eta enters the ensemble generator, not the stepper: with the
        generator held fixed, records are bit-identical across eta."""
        base = self.small_args()
        lo = run_ensemble(**{**base, "detectors": (reference_detector(40.0),)})
        det_hi = DetectorModel(axis=(0, 0, 1), tau_m=reference_detector(40.0).tau_m,
                               k_phase=reference_detector(40.0).k_phase, eta=1.0)
        hi = run_ensemble(**{**base, "detectors": (det_hi,)})
        np.testing.assert_array_equal(lo.signals, hi.signals)

    @pytest.mark.parametrize("n_steps, decimate", [(40, 1), (40, 4), (40, 8), (40, 10),
                                                   (40, 20), (40, 40), (260, 130)])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_decimation_averages_fine_samples(self, n_steps, decimate, batch_size):
        """A sample is its fine samples summed in step order, divided by D."""
        args = self.small_args(grid=TimeGrid(0.004, n_steps))
        fine = run_ensemble(**args)
        coarse = run_ensemble(**args, decimate=decimate, batch_size=batch_size)
        n_dec = n_steps // decimate
        groups = fine.signals.reshape(64, 1, n_dec, decimate)
        total = np.zeros((64, 1, n_dec))
        for i in range(decimate):
            total += groups[..., i]
        np.testing.assert_array_equal(coarse.signals, total / decimate)
        np.testing.assert_allclose(coarse.signals, groups.mean(axis=3), rtol=0, atol=1e-12)
        assert coarse.grid.dt == pytest.approx(0.004 * decimate)
        assert coarse.grid.n_steps == n_dec

    def test_batch_memory_stays_near_its_noise(self):
        """A batch holds its step-major noise and little else: no raw-word
        array and no full-size signal copy."""
        noise_bytes = 1024 * 610 * 8
        tracemalloc.start()
        try:
            run_ensemble(**self.small_args(n_traj=1024, grid=TimeGrid(0.004, 610)),
                         decimate=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * noise_bytes

    def test_decimate_must_divide(self):
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(), decimate=7)

    def test_raw_units_applied_after_decimation(self):
        det = reference_detector(40.0, response=0.33, offset=-0.4)
        raw = run_ensemble(**self.small_args(detectors=(det,)), decimate=4)
        norm = run_ensemble(**self.small_args(), decimate=4)
        np.testing.assert_array_equal(raw.signals, -0.4 + 0.33 * norm.signals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(n_traj=0))
        with pytest.raises(ConfigError):
            run_ensemble(**self.small_args(detectors=()))


class TestArchiveSerialization:
    def build(self, tmp_path):
        arch = run_ensemble(n_traj=9, plan=NoisePlan(seed=5), initial_state=[0, 0, 1],
                            grid=TimeGrid(0.01, 12),
                            detectors=(reference_detector(0.0, response=1.005, offset=-0.4),),
                            segments=(EnsembleGenerator(
                                matrix=dephasing_matrix((0, 0, 1), GAMMA), r_st=np.zeros(3)),),
                            decimate=3, config_digest="abc123")
        path = tmp_path / "run.cqm"
        arch.save(path)
        return arch, path

    def test_round_trip(self, tmp_path):
        """The file holds the documented header, then the records."""
        arch, path = self.build(tmp_path)
        blob = path.read_bytes()
        assert blob[:8] == b"CQMARCH1"
        (hlen,) = struct.unpack_from("<I", blob, 8)
        text = blob[12:12 + hlen].decode()
        header = json.loads(text)
        assert text == json.dumps(header, sort_keys=True)
        assert header == {"config_digest": "abc123", "dt": pytest.approx(0.03), "kind": "raw",
                          "n_detectors": 1, "n_samples": 4, "n_traj": 9, "seed": 5,
                          "t0": 0.0, "version": 2}
        assert len(blob) == 12 + hlen + 8 * 9 * 1 * 4
        signals = np.frombuffer(blob, dtype="<f8", offset=12 + hlen).reshape(9, 1, 4)
        np.testing.assert_array_equal(signals, arch.signals)

    def test_digest_matches_file_hash(self, tmp_path):
        import hashlib

        arch, path = self.build(tmp_path)
        assert arch.digest() == hashlib.sha256(path.read_bytes()).hexdigest()
