"""Collapse-recipe correlators: enumeration, recursion, time averaging."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from cqmcorr import (
    ConfigError,
    CorrelatorSpec,
    DetectorModel,
    EnsembleGenerator,
    collapsed_state,
    correlator_enumerate,
    correlator_recursive,
    correlator_time_averaged,
    cross_correlator_zx_demo,
    dephasing_matrix,
    outcome_probability,
    propagator,
    rabi_dephasing_generator,
    rotation_matrix,
)
from cqmcorr import cli
from cqmcorr.cli import main
from cqmcorr.gcr import MAX_STACKED_PAIRS
from conftest import random_bloch_vector, random_unit_vector

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi
SAMPLE_CONFIG = (pathlib.Path(__file__).resolve().parent.parent
                 / "configs" / "rabi_70deg_analytic.json")


def z_detector(k_phase=0.0):
    return DetectorModel(axis=(0, 0, 1), tau_m=1.0, k_phase=k_phase)


def scalar_time_average(lags, detector, segments, r0, t_skip, t_avg):
    """Oracle for correlator_time_averaged: the same quadrature with one
    scalar propagator call per node and per (lag, start) pair, the starts
    summed per lag in node order."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t1_nodes = t_skip + 0.5 * t_avg * (nodes + 1.0)
    collapse = detector.collapse
    v_nodes = [propagator(0.0, t1, segments) @ np.append(r0, 1.0) for t1 in t1_nodes]
    t_max = t_skip + t_avg + float(np.max(lags))
    if any(seg.t_start <= t_skip and seg.t_end >= t_max for seg in segments):
        r_mean = np.zeros(3)
        for w, v in zip(0.5 * weights, v_nodes):
            r_mean += w * v[:3]
        starts = [(1.0, t_skip, collapse @ np.append(r_mean, 1.0))]
    else:
        starts = [(w, t1, collapse @ v) for w, t1, v in zip(0.5 * weights, t1_nodes, v_nodes)]
    values = np.zeros(len(lags))
    for j, tau in enumerate(lags):
        for w, t1, first in starts:
            values[j] += w * (collapse @ (propagator(t1, t1 + tau, segments) @ first))[3]
    return values


class TestCollapseStep:
    def test_collapsed_state_hand_value(self):
        r = collapsed_state([0.3, 0.0, 0.5], (0, 0, 1), 2.0, 1)
        # z x r = (-r_y, r_x, 0) = (0, 0.3, 0), so image = z_hat + 2*(0, 0.3, 0)
        np.testing.assert_allclose(r, [0.0, 0.6, 1.0], atol=1e-15)
        r = collapsed_state([0.3, 0.0, 0.5], (0, 0, 1), 2.0, -1)
        np.testing.assert_allclose(r, [0.0, -0.6, -1.0], atol=1e-15)

    def test_collapsed_state_no_backaction_pins_to_axis(self):
        r = collapsed_state([0.3, -0.2, 0.5], (0, 0, 1), 0.0, 1)
        np.testing.assert_array_equal(r, [0.0, 0.0, 1.0])

    def test_outcome_probability_hand_value(self):
        assert outcome_probability([0.2, 0.0, 0.6], (0, 0, 1), 1) == pytest.approx(0.8)
        assert outcome_probability([0.2, 0.0, 0.6], (0, 0, 1), -1) == pytest.approx(0.2)

    def test_outcome_validation(self):
        with pytest.raises(ConfigError):
            collapsed_state([0, 0, 0], (0, 0, 1), 0.0, 2)
        with pytest.raises(ConfigError):
            outcome_probability([0, 0, 0], (0, 0, 1), 0)

    def test_probabilities_sum_to_one_exactly_on_physical_states(self, rng):
        for _ in range(500):
            r = random_bloch_vector(rng, r_max=1.0)
            n = random_unit_vector(rng)
            assert outcome_probability(r, n, 1) + outcome_probability(r, n, -1) == 1.0

    def test_collapse_matrix_is_the_signed_outcome_sum(self, rng):
        """M (r, 1) = sum over s of s p(s) (collapsed_state(r, s), 1), also for
        bookkeeping states outside the unit ball, to 1e-15 of the larger of 1
        and the vector's largest entry (entries reach about 12 here, where one
        rounding step is 1.8e-15)."""
        for _ in range(500):
            n = random_unit_vector(rng)
            det = DetectorModel(axis=n, tau_m=1.0, k_phase=rng.uniform(-3.0, 3.0))
            r = random_bloch_vector(rng, r_max=1.0) * rng.uniform(0.0, 4.0)
            want = sum(s * outcome_probability(r, det.axis, s)
                       * np.append(collapsed_state(r, det.axis, det.k_phase, s), 1.0)
                       for s in (1, -1))
            np.testing.assert_allclose(det.collapse @ np.append(r, 1.0), want,
                                       rtol=0.0, atol=1e-15 * max(1.0, np.abs(want).max()))


class TestCorrelatorSpec:
    def test_rejects_unordered_times(self):
        with pytest.raises(ConfigError):
            CorrelatorSpec(times=(0.2, 0.2), detector_indices=(0, 0),
                           initial_state=[0, 0, 1])
        with pytest.raises(ConfigError):
            CorrelatorSpec(times=(0.3, 0.2), detector_indices=(0, 0),
                           initial_state=[0, 0, 1])

    def test_rejects_mismatched_indices_and_early_times(self):
        with pytest.raises(ConfigError):
            CorrelatorSpec(times=(0.1, 0.2), detector_indices=(0,),
                           initial_state=[0, 0, 1])
        with pytest.raises(ConfigError):
            CorrelatorSpec(times=(-0.1, 0.2), detector_indices=(0, 0),
                           initial_state=[0, 0, 1])

    def test_rejects_nonphysical_initial_state(self):
        with pytest.raises(ConfigError):
            CorrelatorSpec(times=(0.1,), detector_indices=(0,),
                           initial_state=[1.2, 0, 0])

    def test_detector_index_out_of_range(self):
        spec = CorrelatorSpec(times=(0.1,), detector_indices=(1,),
                              initial_state=[0, 0, 1])
        with pytest.raises(ConfigError):
            correlator_recursive(spec, [z_detector()], [rabi_dephasing_generator(GAMMA, OMEGA)])

    @pytest.mark.parametrize("times, indices, state, message", [
        ((0.2, 0.2), (0, 0), [0, 0, 1], "measurement times must increase strictly: (0.2, 0.2)"),
        ((0.3, 0.2), (0, 0), [0, 0, 1], "measurement times must increase strictly: (0.3, 0.2)"),
        ((-0.1, 0.2), (0, 0), [0, 0, 1],
         "first measurement time -0.1 precedes the preparation at t = 0"),
        ((0.1, 0.2), (0,), [0, 0, 1], "need one detector index per measurement time"),
        ((), (), [0, 0, 1], "correlator needs at least one measurement time"),
        ((math.nan, 0.2), (0, 0), [0, 0, 1], "measurement times must be finite: (nan, 0.2)"),
        ((0.1, math.inf), (0, 0), [0, 0, 1], "measurement times must be finite: (0.1, inf)"),
        ((-math.inf, 0.2), (0, 0), [0, 0, 1], "measurement times must be finite: (-inf, 0.2)"),
        ((0.1,), (0,), [np.nan, 0, 0], "Bloch vector has non-finite components: [nan  0.  0.]"),
        ((0.1,), (0,), [0, -np.inf, 0], "Bloch vector has non-finite components: [  0. -inf   0.]"),
        ((0.1,), (0,), [1, 0], "Bloch vector must have shape (3,), got (2,)"),
        ((0.1,), (0,), [1.2, 0, 0], "state norm 1.2 exceeds 1 + 1e-09"),
    ], ids=["equal", "decreasing", "negative", "index-count", "empty", "nan-time",
            "inf-time", "-inf-time", "nan-state", "-inf-state", "state-shape", "state-norm"])
    def test_messages(self, times, indices, state, message):
        """The checks run on Python floats and ints; the exception and text
        are those of the numpy-based checks, and non-finite times raise
        instead of reaching the recursion as NaN."""
        with pytest.raises(ConfigError) as err:
            CorrelatorSpec(times=times, detector_indices=indices, initial_state=state)
        assert str(err.value) == message

    @pytest.mark.parametrize("index", [1, -1])
    def test_detector_index_message(self, index):
        spec = CorrelatorSpec(times=(0.1,), detector_indices=(index,), initial_state=[0, 0, 1])
        with pytest.raises(ConfigError) as err:
            correlator_recursive(spec, (z_detector(),), [rabi_dephasing_generator(GAMMA, OMEGA)])
        assert str(err.value) == f"detector index {index} out of range for 1 detectors"

    def test_initial_state_is_a_read_only_copy(self):
        state = np.array([0.6, 0.0, 0.8])
        spec = CorrelatorSpec(times=(0.1, 0.2), detector_indices=(0, 0), initial_state=state)
        state[0] = -0.6
        assert spec.initial_state.dtype == np.float64
        assert spec.initial_state.tolist() == [0.6, 0.0, 0.8]
        assert not spec.initial_state.flags.writeable
        spec = CorrelatorSpec(times=[np.float32(0.5)], detector_indices=[np.int64(0)],
                              initial_state=(0, 0, 1))
        assert spec.times == (0.5,) and type(spec.times[0]) is float
        assert spec.detector_indices == (0,) and type(spec.detector_indices[0]) is int
        assert spec.initial_state.dtype == np.float64


class TestEnumerationVsRecursion:
    def test_single_time_equals_mean_axis_projection(self):
        segments = [rabi_dephasing_generator(GAMMA, OMEGA)]
        det = z_detector(k_phase=1.3)
        r0 = [0.3, -0.4, 0.5]
        t = 0.37
        spec = CorrelatorSpec(times=(t,), detector_indices=(0,), initial_state=r0)
        want = float(np.array([0, 0, 1.0]) @ (propagator(0.0, t, segments) @ np.append(r0, 1.0))[:3])
        assert correlator_recursive(spec, [det], segments) == pytest.approx(want, abs=1e-14)
        assert correlator_enumerate(spec, [det], segments) == pytest.approx(want, abs=1e-14)

    def test_random_specs_agree(self, rng):
        for _ in range(60):
            segments = [rabi_dephasing_generator(rng.uniform(0.2, 1.5),
                                                 rng.uniform(2.0, 9.0))]
            detectors = [
                DetectorModel(axis=random_unit_vector(rng), tau_m=rng.uniform(0.3, 3.0),
                              k_phase=rng.uniform(-2.5, 2.5), eta=rng.uniform(0.1, 1.0))
                for _ in range(2)
            ]
            n_times = int(rng.integers(1, 7))
            times = tuple(np.sort(rng.uniform(0.02, 1.2, size=n_times)))
            if len(set(times)) < n_times:
                continue
            spec = CorrelatorSpec(times=times,
                                  detector_indices=tuple(rng.integers(0, 2, size=n_times)),
                                  initial_state=random_bloch_vector(rng))
            a = correlator_enumerate(spec, detectors, segments)
            b = correlator_recursive(spec, detectors, segments)
            assert a == pytest.approx(b, abs=1e-12)

    def test_multi_segment_agreement(self, rng):
        segments = [
            EnsembleGenerator(matrix=rabi_dephasing_generator(GAMMA, OMEGA).matrix,
                              r_st=np.zeros(3), t_start=0.0, t_end=0.3),
            EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 1.7),
                              r_st=np.array([0.0, 0.0, 0.2]), t_start=0.3, t_end=math.inf),
        ]
        detectors = [z_detector(0.8), DetectorModel(axis=(1, 0, 0), tau_m=2.0)]
        spec = CorrelatorSpec(times=(0.1, 0.25, 0.4, 0.9),
                              detector_indices=(0, 1, 0, 1),
                              initial_state=[0.1, 0.6, -0.3])
        a = correlator_enumerate(spec, detectors, segments)
        b = correlator_recursive(spec, detectors, segments)
        assert a == pytest.approx(b, abs=1e-13)

    def test_enumeration_refuses_deep_products(self):
        times = tuple(0.01 * (i + 1) for i in range(21))
        spec = CorrelatorSpec(times=times, detector_indices=(0,) * 21,
                              initial_state=[0, 0, 1])
        with pytest.raises(ConfigError):
            correlator_enumerate(spec, [z_detector()], [rabi_dephasing_generator(GAMMA, OMEGA)])

    def test_initial_state_affinity(self):
        """The recipe is affine in the prepared state, so convex mixtures map
        to the same mixtures of correlator values."""
        segments = [rabi_dephasing_generator(GAMMA, OMEGA)]
        detectors = [z_detector(1.1)]
        times = (0.15, 0.4, 0.62)
        idx = (0, 0, 0)
        ra = np.array([0.7, 0.1, -0.3])
        rb = np.array([-0.2, 0.5, 0.6])

        def k_of(r0):
            return correlator_recursive(
                CorrelatorSpec(times=times, detector_indices=idx, initial_state=r0),
                detectors, segments)

        ka, kb = k_of(ra), k_of(rb)
        for lam in (0.0, 0.25, 0.5, 0.8, 1.0):
            mixed = k_of(lam * ra + (1 - lam) * rb)
            assert mixed == pytest.approx(lam * ka + (1 - lam) * kb, abs=1e-12)


class TestTimeAveraged:
    def setup_method(self):
        self.det = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04,
                                                       phi_a_deg=70.0, eta=0.44)
        self.segments = [rabi_dephasing_generator(GAMMA, OMEGA)]
        self.r0 = [1.0, 0.0, 0.0]

    def test_equal_time_lag_is_exactly_one(self):
        res = correlator_time_averaged(np.array([0.0]), self.det, self.segments,
                                       self.r0, t_skip=0.28, t_avg=0.28)
        assert res.values[0] == 1.0

    def test_matches_quadrature_oracle(self):
        """Independent route: adaptive quadrature of the two-time recursion."""
        lags = np.array([0.07, 0.19, 0.55])
        got = correlator_time_averaged(lags, self.det, self.segments, self.r0,
                                       t_skip=0.28, t_avg=0.28).values

        def k_two_time(t1, tau):
            spec = CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 0),
                                  initial_state=self.r0)
            return correlator_recursive(spec, [self.det], self.segments)

        for tau, val in zip(lags, got):
            oracle, err = quad(k_two_time, 0.28, 0.56, args=(tau,), epsabs=1e-12,
                               limit=200)
            assert val == pytest.approx(oracle / 0.28, abs=1e-9)

    def test_general_path_equals_homogeneous_fast_path(self):
        """Splitting the segment at 0.4 with the same generator forces the
        node-by-node path; values must not move."""
        lags = np.array([0.0, 0.1, 0.3, 0.8])
        fast = correlator_time_averaged(lags, self.det, self.segments, self.r0,
                                        t_skip=0.28, t_avg=0.28).values
        mat = self.segments[0].matrix
        split = [
            EnsembleGenerator(matrix=mat, r_st=np.zeros(3), t_start=0.0, t_end=0.4),
            EnsembleGenerator(matrix=mat, r_st=np.zeros(3), t_start=0.4, t_end=math.inf),
        ]
        slow = correlator_time_averaged(lags, self.det, split, self.r0,
                                        t_skip=0.28, t_avg=0.28).values
        np.testing.assert_allclose(slow, fast, atol=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the 64-node rule spans the kinks of the integrand at a segment boundary b "
        "and at b - tau (off by about 1e-4); the benchmark's piecewise reference "
        "repeats that rule, so the reference moves before the recipe splits"))
    def test_piecewise_matches_kink_split_oracle(self):
        """Independent route: Gauss-Legendre quadrature of the two-time
        recursion, split at every boundary b and b - tau inside the window,
        over the benchmark's three-segment drive (off, on, half rate)."""
        b1, b2 = 0.437, 1.321
        segments = [EnsembleGenerator(rabi_dephasing_generator(GAMMA, w).matrix, np.zeros(3),
                                      lo, hi)
                    for lo, hi, w in ((0.0, b1, 0.0), (b1, b2, OMEGA), (b2, 10.0, 0.5 * OMEGA))]
        lags = np.array([0.04, 0.5, 2.0])
        got = correlator_time_averaged(lags, self.det, segments, self.r0,
                                       t_skip=0.28, t_avg=0.28).values
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for tau, val in zip(lags, got):
            kinks = {c for b in (b1, b2) for c in (b, b - tau) if 0.28 < c < 0.56}
            cuts = sorted({0.28, 0.56} | kinks)
            oracle = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                for x, w in zip(nodes, weights):
                    t1 = lo + 0.5 * (hi - lo) * (x + 1.0)
                    spec = CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 0),
                                          initial_state=self.r0)
                    oracle += 0.5 * (hi - lo) * w * correlator_recursive(
                        spec, [self.det], segments)
            assert val == pytest.approx(oracle / 0.28, abs=1e-10)

    @pytest.mark.parametrize("n_segments, n_lags", [
        (1, 2 * MAX_STACKED_PAIRS + 3),            # one averaged start per lag
        (3, 2 * (MAX_STACKED_PAIRS // 64) + 3),    # 64 starts per lag
    ], ids=["homogeneous", "piecewise"])
    def test_equals_scalar_loop_across_stack_seams(self, rng, n_segments, n_lags):
        """Bit for bit, over lag counts that span three stacks of (lag, start)
        pairs, with nonzero fixed points and boundaries inside the window and
        the lag range."""
        det = DetectorModel(axis=random_unit_vector(rng), tau_m=rng.uniform(0.5, 3.0),
                            k_phase=rng.uniform(-3.0, 3.0))
        edges = [0.0, 0.37, 0.91][:n_segments] + [math.inf]
        segments = [EnsembleGenerator(
            matrix=(dephasing_matrix(det.axis, det.gamma_m)
                    + rotation_matrix(random_unit_vector(rng), rng.uniform(0.0, 8.0))),
            r_st=rng.uniform(-0.3, 0.3, 3), t_start=lo, t_end=hi)
            for lo, hi in zip(edges[:-1], edges[1:])]
        lags = np.append(0.0, rng.uniform(0.0, 1.5, n_lags - 1))
        r0 = random_bloch_vector(rng)
        got = correlator_time_averaged(lags, det, segments, r0, t_skip=0.28, t_avg=0.28).values
        np.testing.assert_array_equal(
            got, scalar_time_average(lags, det, segments, r0, t_skip=0.28, t_avg=0.28))

    @pytest.mark.parametrize("lags, t_skip, t_avg, message", [
        ([math.nan, 0.1], 0.28, 0.28, "lags must be finite"),
        ([0.1, math.inf], 0.28, 0.28, "lags must be finite"),
        ([0.1], math.nan, 0.28, "t_skip must be finite, got nan"),
        ([0.1], math.inf, 0.28, "t_skip must be finite, got inf"),
        ([0.1], 0.28, math.inf, "t_avg must be finite, got inf"),
        ([0.1], 0.28, math.nan, "t_avg must be finite, got nan"),
    ], ids=["nan-lag", "inf-lag", "nan-skip", "inf-skip", "inf-avg", "nan-avg"])
    def test_rejects_non_finite_arguments(self, lags, t_skip, t_avg, message):
        """These used to return 1.0 (a NaN lag or t_skip) or NaN with
        RuntimeWarnings (an infinite lag or t_avg)."""
        with pytest.raises(ConfigError) as err:
            correlator_time_averaged(np.array(lags), self.det, self.segments, self.r0,
                                     t_skip=t_skip, t_avg=t_avg)
        assert str(err.value) == message

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            correlator_time_averaged(np.array([-0.1]), self.det, self.segments,
                                     self.r0, t_skip=0.28, t_avg=0.28)
        with pytest.raises(ConfigError):
            correlator_time_averaged(np.array([0.1]), self.det, self.segments,
                                     self.r0, t_skip=0.28, t_avg=0.0)
        with pytest.raises(ConfigError):
            correlator_time_averaged(np.array([[0.1]]), self.det, self.segments,
                                     self.r0, t_skip=0.28, t_avg=0.28)


def three_segment_config():
    """The sample config on a drive switched on at 0.437 us, inside the
    averaging window, and to half rate at 1.321 us; the full-rate segment
    has a displaced fixed point."""
    config = json.loads(SAMPLE_CONFIG.read_text())
    config["evolution"] = {"segments": [
        {"matrix": rabi_dephasing_generator(GAMMA, w).matrix.tolist(), "r_st": r_st,
         "t_start_us": lo, "t_end_us": hi}
        for lo, hi, w, r_st in ((0.0, 0.437, 0.0, [0.0, 0.0, 0.0]),
                                (0.437, 1.321, OMEGA, [0.1, 0.0, 0.2]),
                                (1.321, 1e9, 0.5 * OMEGA, [0.0, 0.0, 0.0]))]}
    return config


@pytest.mark.parametrize("config, digest", [
    (lambda: json.loads(SAMPLE_CONFIG.read_text()),
     "1d1a1f7c9d66b504262e7610d81971dd6970375382f2df073bd0d9330aa634c1"),
    (three_segment_config,
     "888e2110a6f87926d3acca9c12d5220db26200c42c1b1d80b1114904f1879249"),
], ids=["sample", "three-segments"])
def test_gcr_correlate_output_is_frozen(tmp_path, config, digest):
    """sha256 of the ``correlate`` CSV in gcr mode."""
    cfg = config()
    cfg["correlator"]["mode"] = "gcr"
    path, out = tmp_path / "cfg.json", tmp_path / "k.csv"
    path.write_text(json.dumps(cfg))
    assert main(["correlate", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    lambda: json.loads(SAMPLE_CONFIG.read_text()), three_segment_config,
], ids=["sample", "three-segments"])
def test_stacked_states_equal_one_state_calls(tmp_path, config):
    """A (2, 3) stack of states, as ``correlate`` passes its two
    preparations, gives each state's one-state values bit for bit, over a lag
    grid spanning three stacks of (lag, start) pairs: one averaged start per
    lag on the sample config, 64 starts per lag on three segments with a
    displaced fixed point. Lag 0 stays exactly 1 on the averaged start."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config()))
    cfg = cli.load_config(str(path))
    det = cli.build_detector(cfg.detectors[cfg.correlator.detector_index])
    segments = cli.build_segments(cfg)
    t_skip, t_avg = cfg.correlator.t_skip_us, cfg.correlator.t_avg_us
    r0 = np.asarray(cfg.initial_state, dtype=np.float64)
    homogeneous = len(segments) == 1
    starts = 1 if homogeneous else 64
    lags = np.linspace(0.0, 2.0, 2 * (MAX_STACKED_PAIRS // starts) + 3)
    stacked = correlator_time_averaged(lags, det, segments, np.stack((r0, -r0)), t_skip, t_avg)
    assert stacked.values.shape == (2, lags.size)
    for row, r in zip(stacked.values, (r0, -r0)):
        one = correlator_time_averaged(lags, det, segments, r, t_skip, t_avg).values
        np.testing.assert_array_equal(row.view(np.int64), one.view(np.int64))
        # the averaged start keeps lag 0 exact; 64 weighted starts sum to 1
        # only to rounding
        assert row[0] == 1.0 if homogeneous else row[0] == pytest.approx(1.0, abs=1e-15)


def test_analytic_and_fit_phase_outputs_are_frozen(tmp_path):
    """sha256 of ``correlate --mode analytic``'s CSV and of ``fit-phase``'s
    JSON on the sample config; with the gcr pins above, every recipe output
    of the benchmark's recipe workload is pinned."""
    csv, fit = tmp_path / "k.csv", tmp_path / "fit.json"
    assert main(["correlate", "--config", str(SAMPLE_CONFIG), "--out", str(csv)]) == 0
    assert main(["fit-phase", "--config", str(SAMPLE_CONFIG), "--dk", str(csv),
                 "--out", str(fit)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "d755c492856db067dc41012b53fef5a489018ff025bb91a6678555a48666106a")
    assert hashlib.sha256(fit.read_bytes()).hexdigest() == (
        "58d98dca5ca85f0af010c0bcbf272a0853d883f28549d6d00cdd83ee24a9eb82")


def test_criterion_1_sweep_is_frozen():
    """sha256 of the recursion's values over criterion 1's sweep: both drive
    signs, each quadrature angle, x0 = +-1, lags 0.04 .. 4.0 us after
    t1 = 0.28 us, one propagator cache per angle."""
    values = []
    for omega in (OMEGA, -OMEGA):
        segments = (rabi_dephasing_generator(GAMMA, omega),)
        for phi in (0.0, 40.0, 70.0, 80.0):
            det = DetectorModel.from_quadrature_angle((0.0, 0.0, 1.0), 1.0, phi)
            cache = {}
            for x0 in (1.0, -1.0):
                for tau in 0.04 * np.arange(1, 101):
                    spec = CorrelatorSpec(times=(0.28, 0.28 + tau), detector_indices=(0, 0),
                                          initial_state=(x0, 0.0, 0.0))
                    values.append(correlator_recursive(spec, (det,), segments, cache))
    assert hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest() == (
        "e07fedd25c713c8f4f0b9a6cb07dff8dc48d9e1a68840a320175c04806685f0b")


class TestZxDemo:
    def test_values_match_closed_form(self):
        """k_z exp(-(gamma_z + gamma_x) t1) exp(-gamma_z tau): the z
        detector's phase backaction feeding the x output."""
        demo = cross_correlator_zx_demo()
        det_z, det_x = demo.detectors
        for i, t1 in enumerate(demo.t1_grid):
            for j, tau in enumerate(demo.lag_grid):
                want = det_z.k_phase * math.exp(-(det_z.gamma_m + det_x.gamma_m) * t1
                                                - det_z.gamma_m * tau)
                assert demo.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_peak_value_frozen(self):
        """Smallest (t1, tau) grid point, worked out by hand:
        2 exp(-3 * 0.02) exp(-2.5 * 0.02) = 2 exp(-0.11)."""
        demo = cross_correlator_zx_demo()
        assert demo.values.max() == pytest.approx(1.7916682705930564, abs=1e-12)
        assert demo.values.max() == demo.values[0, 0]

    def test_no_phase_backaction_kills_cross_correlator(self):
        demo = cross_correlator_zx_demo()
        det_z0 = DetectorModel(axis=(0, 0, 1), tau_m=1.0, k_phase=0.0, eta=1.0)
        dets = (det_z0, demo.detectors[1])
        for t1 in demo.t1_grid:
            for tau in demo.lag_grid:
                spec = CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 1),
                                      initial_state=demo.initial_state)
                assert correlator_recursive(spec, dets, demo.segments) == pytest.approx(
                    0.0, abs=1e-15)
