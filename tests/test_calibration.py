"""Detector calibration and the raw-record correlator estimator."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from cqmcorr import (
    CalibrationRun,
    ConfigError,
    DetectorModel,
    DiagnosticError,
    EnsembleGenerator,
    NoisePlan,
    RabiCaseParams,
    RecordStream,
    TimeGrid,
    dephasing_matrix,
    estimate_correlator,
    estimate_response,
    estimate_tau_m,
    integrate_traces,
    k_qrf_baseline,
    rabi_dephasing_generator,
    stream_ensemble,
    trace_moments,
)
from cqmcorr.calibration import MOMENT_UNIT, VARIANCE_MATCH_TOL
from conftest import fed_whole

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi


def archive_from_signals(signals, dt=0.04, seed=0):
    """A stream that feeds the (n_traj, n_det, n_samples) ``signals`` whole,
    as one slice."""
    signals = np.asarray(signals, dtype=np.float64)
    return RecordStream(grid=TimeGrid(dt, signals.shape[2]), seed=seed, n_traj=len(signals),
                        n_detectors=signals.shape[1], feed=lambda consumer: consumer(signals))


def synthetic_pair(n_traj, n_samples, response, offset, tau_m, dt, seed,
                   noise_scale=1.0):
    """Pinned-pole records: offset +- response plus white output noise."""
    gen = np.random.default_rng(seed)
    sigma = math.sqrt(tau_m / dt) * noise_scale
    plus = offset + response * (1.0 + sigma * gen.normal(size=(n_traj, 1, n_samples)))
    minus = offset + response * (-1.0 + sigma * gen.normal(size=(n_traj, 1, n_samples)))
    return CalibrationRun(plus=archive_from_signals(plus, dt),
                          minus=archive_from_signals(minus, dt))


def test_integrate_traces_matches_cumulative_trapezoid():
    gen = np.random.default_rng(2)
    sig = gen.normal(size=(5, 1, 30))
    got = integrate_traces(sig, 0.05)
    want = cumulative_trapezoid(sig[:, 0, :], dx=0.05, axis=1, initial=0.0)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (5, 30)


class TestCalibrationRun:
    def test_rejects_mismatched_grids(self):
        a = archive_from_signals(np.zeros((3, 1, 10)), dt=0.04)
        b = archive_from_signals(np.zeros((3, 1, 12)), dt=0.04)
        with pytest.raises(ConfigError):
            CalibrationRun(plus=a, minus=b)

    def test_rejects_multi_detector_archives(self):
        one = archive_from_signals(np.zeros((3, 1, 10)))
        two = archive_from_signals(np.zeros((3, 2, 10)))
        for plus, minus in ((two, two), (one, two), (two, one)):
            with pytest.raises(ConfigError, match="one-detector records, got 2"):
                CalibrationRun(plus=plus, minus=minus)
        with pytest.raises(ConfigError, match="one-detector records"):
            integrate_traces(np.zeros((3, 2, 10)), 0.04)


class TestEstimateResponse:
    def test_noiseless_recovers_pole_separation(self):
        run = synthetic_pair(4, 40, response=0.33, offset=-0.4, tau_m=17.4,
                             dt=0.04, seed=0, noise_scale=0.0)
        assert estimate_response(run) == pytest.approx(0.66, rel=1e-12)

    def test_offset_invariance(self):
        run_a = synthetic_pair(500, 40, response=1.005, offset=0.0, tau_m=2.04,
                               dt=0.04, seed=3)
        run_b = synthetic_pair(500, 40, response=1.005, offset=-0.4, tau_m=2.04,
                               dt=0.04, seed=3)
        assert estimate_response(run_a) == pytest.approx(estimate_response(run_b),
                                                         rel=1e-9)

    def test_noisy_recovery(self):
        run = synthetic_pair(8000, 60, response=1.005, offset=-0.4, tau_m=2.04,
                             dt=0.04, seed=7)
        assert estimate_response(run) == pytest.approx(2.01, rel=0.05)

    def test_window_needs_samples(self):
        run = synthetic_pair(4, 40, response=1.0, offset=0.0, tau_m=2.0,
                             dt=0.04, seed=0, noise_scale=0.0)
        with pytest.raises(ConfigError):
            estimate_response(run, fit_window=0.05)


class TestEstimateTauM:
    def test_recovers_measurement_time_and_efficiency(self):
        tau_m, response = 2.04, 1.005
        run = synthetic_pair(6000, 100, response=response, offset=-0.4,
                             tau_m=tau_m, dt=0.04, seed=11)
        tau_hat, eta_hat = estimate_tau_m(run, delta_i=2 * response, gamma=GAMMA)
        assert tau_hat == pytest.approx(tau_m, rel=0.08)
        assert eta_hat == pytest.approx(1.0 / (2.0 * GAMMA * tau_m), rel=0.08)

    def test_eta_omitted_without_gamma(self):
        run = synthetic_pair(2000, 60, response=1.0, offset=0.0, tau_m=1.0,
                             dt=0.04, seed=4)
        tau_hat, eta_hat = estimate_tau_m(run, delta_i=2.0)
        assert eta_hat is None and tau_hat > 0

    def test_mismatched_noise_floors_flagged(self):
        gen = np.random.default_rng(5)
        sigma = math.sqrt(1.0 / 0.04)
        plus = 1.0 + sigma * gen.normal(size=(2000, 1, 60))
        minus = -1.0 + 1.4 * sigma * gen.normal(size=(2000, 1, 60))
        run = CalibrationRun(plus=archive_from_signals(plus),
                             minus=archive_from_signals(minus))
        with pytest.raises(DiagnosticError, match="noise floor"):
            estimate_tau_m(run, delta_i=2.0)

    @pytest.mark.parametrize("plus_var, minus_var", [(1.0, 3.0), (3.0, 1.0), (1.0, 10.0)])
    def test_small_mismatched_noise_floors_flagged(self, plus_var, minus_var):
        """At 200 records the widened tolerance bounds the log of the slope
        ratio, so a threefold noise variance trips it on either preparation;
        a bound on |ratio - 1| above one could never trip on a noisier minus
        ensemble."""
        gen = np.random.default_rng(5)
        sigma = math.sqrt(1.0 / 0.04)
        plus = 1.0 + math.sqrt(plus_var) * sigma * gen.normal(size=(200, 1, 60))
        minus = -1.0 + math.sqrt(minus_var) * sigma * gen.normal(size=(200, 1, 60))
        run = CalibrationRun(plus=archive_from_signals(plus),
                             minus=archive_from_signals(minus))
        with pytest.raises(DiagnosticError, match="noise floor"):
            estimate_tau_m(run, delta_i=2.0)

    def test_small_correct_ensembles_share_a_noise_floor(self):
        """At 200 records the slope ratio of two correct ensembles scatters
        by about 0.15, so the fixed tolerance alone refused about one seed in
        ten; the tolerance widens with the sampling error instead."""
        refused_by_fixed = 0
        for seed in range(200):
            run = synthetic_pair(200, 60, response=1.005, offset=-0.4, tau_m=2.04,
                                 dt=0.04, seed=seed)
            estimate_tau_m(run, delta_i=2.01)
            t = run.plus.grid.times()
            sp, sm = (np.polyfit(t, m.var, 1)[0] for m in (run.plus_moments, run.minus_moments))
            refused_by_fixed += abs(sp / sm - 1.0) > VARIANCE_MATCH_TOL
        assert refused_by_fixed >= 5

    def test_requires_growing_variance(self):
        run = synthetic_pair(50, 40, response=1.0, offset=0.0, tau_m=1.0,
                             dt=0.04, seed=0, noise_scale=0.0)
        with pytest.raises(DiagnosticError, match="variance"):
            estimate_tau_m(run, delta_i=2.0)


class TestEstimateCorrelator:
    def cosine_archive(self, n_traj=8, n_samples=40, dt=0.04):
        t = dt * np.arange(n_samples)
        sig = np.broadcast_to(np.cos(2.0 * t), (n_traj, 1, n_samples)).copy()
        return archive_from_signals(sig[:, :, :], dt=dt), t

    def test_deterministic_records_match_direct_average(self):
        arch, t = self.cosine_archive()
        t_skip, t_avg = 0.195, 0.28
        res = estimate_correlator(arch, delta_i=2.0, t_avg=t_avg, t_skip=t_skip,
                                  block_size=4, max_lag=0.4)
        x = np.cos(2.0 * t)
        j = x - x[t >= t_skip - 1e-9].mean()
        i1 = np.where((t >= t_skip - 1e-9) & (t < t_skip + t_avg - 1e-9))[0]
        for m, (lag, val) in enumerate(zip(res.lags, res.values), start=1):
            want = np.mean([j[i] * j[i + m] for i in i1])
            assert val == pytest.approx(want, abs=1e-12)
            assert lag == pytest.approx(m * 0.04)
        # identical blocks: jackknife spread is exactly zero
        np.testing.assert_array_equal(res.errors, np.zeros_like(res.errors))

    def test_offset_shift_cancels(self):
        gen = np.random.default_rng(9)
        sig = gen.normal(size=(600, 1, 50))
        a = estimate_correlator(archive_from_signals(sig), delta_i=2.0,
                                t_avg=0.28, t_skip=0.28, block_size=200)
        b = estimate_correlator(archive_from_signals(sig + 5.0), delta_i=2.0,
                                t_avg=0.28, t_skip=0.28, block_size=200)
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_pure_noise_is_consistent_with_zero(self):
        gen = np.random.default_rng(13)
        sig = gen.normal(size=(3000, 1, 50))
        res = estimate_correlator(archive_from_signals(sig), delta_i=2.0,
                                  t_avg=0.28, t_skip=0.28, block_size=500)
        assert np.all(np.abs(res.values) <= 4.5 * res.errors + 1e-12)
        assert np.all(res.errors > 0)

    def test_validation(self):
        arch = archive_from_signals(np.zeros((10, 1, 50)))
        with pytest.raises(ConfigError):
            estimate_correlator(arch, delta_i=0.0, t_avg=0.28, t_skip=0.28)
        with pytest.raises(ConfigError):
            estimate_correlator(arch, delta_i=2.0, t_avg=0.0, t_skip=0.28)
        with pytest.raises(ConfigError):
            estimate_correlator(arch, delta_i=2.0, t_avg=0.28, t_skip=5.0)
        with pytest.raises(ConfigError):
            estimate_correlator(arch, delta_i=2.0, t_avg=0.28, t_skip=0.28,
                                block_size=1)

    def test_monte_carlo_round_trip_smoke(self):
        """End-to-end: simulate raw records at zero quadrature angle, estimate,
        compare against the collapse-recipe values on the same discrete grid."""
        det = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.0454545454545454,
                                                  phi_a_deg=0.0, eta=0.44,
                                                  response=1.005, offset=-0.4)
        segments = (rabi_dephasing_generator(GAMMA, OMEGA),)
        grid = TimeGrid(0.004, 300)
        stream = stream_ensemble(6000, NoisePlan(seed=101), [1, 0, 0], grid, (det,),
                                 segments, decimate=10)
        res = estimate_correlator(stream, delta_i=2 * det.response, t_avg=0.28,
                                  t_skip=0.28, block_size=300, max_lag=0.48)
        # at zero angle the correlator is the preparation-independent baseline
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA)
        want = k_qrf_baseline(p, res.lags)
        assert np.all(np.abs(res.values - want) <= 4.0 * res.errors)


# (batch_size, threads) of the streamed runs: batches of one record, batches
# that cut the groups anywhere, and one batch per preparation
BATCHES = [(1, 1), (7, 1), (255, 1), (257, 1), (8192, 1), (7, 2), (257, 2), (8192, 2)]


class TestBlockReducers:
    """Both estimators fold fed records in groups fixed by the estimator
    (jackknife blocks, units of MOMENT_UNIT records), so a stream fed in
    slices gives the bits of its whole ensemble fed as one slice, at any
    batch size and thread count."""

    @staticmethod
    def correlate_args():
        det = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.0454545454545454,
                                                  phi_a_deg=70.0, eta=0.44)
        return det, (rabi_dephasing_generator(GAMMA, OMEGA),)

    @staticmethod
    def assert_same_curve(got, want):
        for field in ("lags", "values", "errors", "t1_values"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("batch_size, threads", BATCHES)
    def test_streamed_correlator_equals_the_archive(self, batch_size, threads):
        """Blocks of 200 over 450 records: batches cut them anywhere, and the
        last block takes the 50-record remainder."""
        det, segments = self.correlate_args()
        args = (450, NoisePlan(7), [1, 0, 0], TimeGrid(0.004, 300), (det,), segments)
        estimate = dict(delta_i=2.0, t_avg=0.28, t_skip=0.28, block_size=200, max_lag=0.6)
        want = estimate_correlator(fed_whole(stream_ensemble(*args, decimate=10)), **estimate)
        got = estimate_correlator(stream_ensemble(*args, decimate=10, batch_size=batch_size,
                                                  threads=threads), **estimate)
        self.assert_same_curve(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sample_blocks_straddle_batches(self, threads):
        """The sample correlate config: blocks of 2000 records against
        batches of 8192, so the blocks from 8000 and from 16000 records on
        are gathered across two batches."""
        det, segments = self.correlate_args()
        args = (20_000, NoisePlan(7), [1, 0, 0], TimeGrid(0.004, 610), (det,), segments)
        estimate = dict(delta_i=2.0, t_avg=0.28, t_skip=0.28, block_size=2000, max_lag=1.0)
        want = estimate_correlator(fed_whole(stream_ensemble(*args, decimate=10)), **estimate)
        got = estimate_correlator(stream_ensemble(*args, decimate=10, threads=threads),
                                  **estimate)
        self.assert_same_curve(got, want)

    @pytest.mark.parametrize("batch_size, threads", BATCHES)
    def test_streamed_calibration_equals_the_archive(self, batch_size, threads):
        """1100 records per preparation: one full unit and a remainder."""
        assert MOMENT_UNIT < 1100 < 2 * MOMENT_UNIT
        det = DetectorModel.from_quadrature_angle((0, 0, 1), 2.04, 0.0, eta=0.44,
                                                  response=1.005, offset=-0.4)
        segments = (EnsembleGenerator(matrix=dephasing_matrix(det.axis, 1.0 / (2 * 0.44 * 2.04)),
                                      r_st=np.zeros(3)),)

        def streams(**options):
            return [stream_ensemble(1100, NoisePlan(seed), r0, TimeGrid(0.04, 60), (det,),
                                    segments, **options)
                    for seed, r0 in ((11, det.axis), (12, -det.axis))]

        want = CalibrationRun(*map(fed_whole, streams()))
        got = CalibrationRun(*streams(batch_size=batch_size, threads=threads))
        for side in ("plus_moments", "minus_moments"):
            a, b = getattr(got, side), getattr(want, side)
            assert (a.n_traj, a.peak) == (b.n_traj, b.peak) == (1100, b.peak)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.m2, b.m2)
        delta_i = estimate_response(want)
        assert estimate_response(got) == delta_i
        assert estimate_tau_m(got, delta_i, GAMMA) == estimate_tau_m(want, delta_i, GAMMA)

    def test_moments_match_two_pass_statistics(self):
        """Chan's merge of units against the whole ensemble: the mean within
        2 ulp of the exactly rounded ``math.fsum`` mean, the variance at
        round-off against numpy, over records whose offset of 1e4 dwarfs
        the white noise of a 2 us measurement time."""
        gen = np.random.default_rng(3)
        signals = 1e4 + math.sqrt(2.0 / 0.04) * gen.normal(size=(2 * MOMENT_UNIT + 37, 1, 50))
        arch = archive_from_signals(signals)
        x = integrate_traces(signals, arch.grid.dt)
        run = CalibrationRun(plus=arch, minus=arch)
        exact = np.array([math.fsum(column) / len(column) for column in x.T])
        assert np.all(np.abs(run.plus_moments.mean - exact) <= 2 * np.spacing(exact))
        np.testing.assert_allclose(run.plus_moments.var[1:], x.var(axis=0, ddof=1)[1:],
                                   rtol=1e-12, atol=0)
        assert run.plus_moments.peak == np.abs(x).max()

    @pytest.mark.parametrize("fed, message", [(9, "fed 9 of the 10"), (11, "more than the 10")])
    def test_feed_must_match_the_declared_count(self, fed, message):
        signals = np.zeros((fed, 1, 50))
        stream = RecordStream(grid=TimeGrid(0.04, 50), seed=0, n_traj=10, n_detectors=1,
                              feed=lambda consumer: consumer(signals))
        with pytest.raises(ConfigError, match=message):
            trace_moments(stream)
