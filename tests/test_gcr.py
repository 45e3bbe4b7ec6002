"""Collapse-recipe correlators: enumeration, recursion, time averaging."""

import math

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
)
from cqmcorr.gcr import _collapse_matrix
from conftest import random_bloch_vector, random_unit_vector

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi


def z_detector(k_phase=0.0):
    return DetectorModel(axis=(0, 0, 1), tau_m=1.0, k_phase=k_phase)


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
            np.testing.assert_allclose(_collapse_matrix(det) @ np.append(r, 1.0), want,
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


class TestZxDemo:
    def test_values_match_closed_form(self):
        demo = cross_correlator_zx_demo()
        for i, t1 in enumerate(demo.t1_grid):
            for j, tau in enumerate(demo.lag_grid):
                assert demo.values[i, j] == pytest.approx(
                    demo.closed_form(t1, tau), abs=1e-12)

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
