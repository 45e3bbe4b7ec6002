"""Closed-form correlators and the quadrature-angle fit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from cqmcorr import (
    ConfigError,
    CorrelatorSpec,
    DetectorModel,
    DiagnosticError,
    RabiCaseParams,
    c_factor,
    correlator_recursive,
    delta_k,
    fit_phase_angle,
    k_analytic_averaged,
    k_analytic_pointwise,
    k_qrf_baseline,
    rabi_dephasing_generator,
)

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi


class TestCFactor:
    def test_matches_quadrature(self):
        for gamma, t_skip, t_avg in [(0.5, 0.3, 0.4), (2.0, 0.0, 1.0), (0.1, 1.0, 0.2)]:
            oracle = quad(lambda t: math.exp(-gamma * t), t_skip, t_skip + t_avg)[0] / t_avg
            assert c_factor(gamma, t_skip, t_avg) == pytest.approx(oracle, rel=1e-12)

    def test_zero_gamma_is_one(self):
        assert c_factor(0.0, 0.5, 0.3) == 1.0

    def test_production_window_value(self):
        # frozen: c_factor(1/1.8, 0.28, 0.28)
        assert c_factor(GAMMA, 0.28, 0.28) == pytest.approx(0.7926882150410323, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            c_factor(0.5, 0.1, 0.0)
        with pytest.raises(ConfigError):
            c_factor(-0.5, 0.1, 0.1)


class TestRabiCaseParams:
    def test_omega_tilde(self):
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA)
        assert p.omega_tilde == pytest.approx(math.sqrt(OMEGA**2 - GAMMA**2 / 4), rel=1e-15)

    def test_overdamped_raises(self):
        p = RabiCaseParams(gamma=4.0, omega_r=1.0)
        with pytest.raises(DiagnosticError):
            p.omega_tilde
        with pytest.raises(DiagnosticError):
            k_qrf_baseline(p, np.array([0.1]))

    def test_overflow_is_diagnostic(self):
        # gamma^2 overflows a float: omega_tilde and the fit template say so
        with pytest.raises(DiagnosticError, match="overflows"):
            RabiCaseParams(gamma=1e308, omega_r=OMEGA).omega_tilde
        with pytest.raises(DiagnosticError, match="overflows"):
            fit_phase_angle([0.1, 0.3, 0.6], [0.0, 0.0, 0.0], gamma=1e308, omega_r=OMEGA, c=1.0)

    def test_rejects_negative_t_skip(self):
        with pytest.raises(ConfigError, match="t_skip"):
            RabiCaseParams(gamma=GAMMA, omega_r=OMEGA, t_skip=-1.0, t_avg=0.28)

    def test_from_quadrature_angle(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0)
        assert p.k_phase == pytest.approx(math.tan(math.radians(70.0)), rel=1e-15)

    def test_c_requires_window(self):
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA)
        with pytest.raises(ConfigError):
            p.c
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA, t_skip=0.28, t_avg=0.28)
        assert p.c == pytest.approx(c_factor(GAMMA, 0.28, 0.28), rel=1e-15)

    def test_x0_bounds(self):
        with pytest.raises(ConfigError):
            RabiCaseParams(gamma=GAMMA, omega_r=OMEGA, x0=1.5)


class TestBaseline:
    def test_equals_matrix_exponential_entry(self):
        """The baseline is the axis-axis entry of the ensemble propagator."""
        gen = rabi_dephasing_generator(GAMMA, OMEGA)
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA)
        for tau in (0.0, 0.07, 0.31, 1.4):
            want = expm(gen.matrix * tau)[2, 2]
            assert k_qrf_baseline(p, tau) == pytest.approx(want, abs=1e-12)

    def test_unit_at_zero_lag(self):
        p = RabiCaseParams(gamma=GAMMA, omega_r=OMEGA)
        assert float(k_qrf_baseline(p, 0.0)) == 1.0


class TestPointwiseAndAveraged:
    def test_pointwise_matches_collapse_recipe(self):
        det = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04,
                                                  phi_a_deg=40.0, eta=0.44)
        segments = [rabi_dephasing_generator(GAMMA, OMEGA)]
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 40.0, x0=-1.0)
        t1 = 0.33
        for tau in (0.05, 0.2, 0.9):
            spec = CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 0),
                                  initial_state=[-1.0, 0.0, 0.0])
            want = correlator_recursive(spec, [det], segments)
            assert float(k_analytic_pointwise(p, t1, tau)) == pytest.approx(want, abs=1e-12)

    def test_averaged_is_window_mean_of_pointwise(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=1.0,
                                                 t_skip=0.28, t_avg=0.28)
        for tau in (0.1, 0.45):
            oracle = quad(lambda t1: float(k_analytic_pointwise(p, t1, tau)),
                          0.28, 0.56, epsabs=1e-13)[0] / 0.28
            assert float(k_analytic_averaged(p, tau)) == pytest.approx(oracle, abs=1e-12)

    def test_averaged_at_zero_lag_is_one(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0,
                                                 t_skip=0.28, t_avg=0.28)
        assert float(k_analytic_averaged(p, 0.0)) == 1.0

    def test_delta_k_is_preparation_difference(self):
        taus = np.linspace(0.0, 2.0, 41)
        plus = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=1.0,
                                                    t_skip=0.28, t_avg=0.28)
        minus = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=-1.0,
                                                     t_skip=0.28, t_avg=0.28)
        want = k_analytic_averaged(plus, taus) - k_analytic_averaged(minus, taus)
        np.testing.assert_allclose(delta_k(plus, taus), want, atol=1e-13)
        # x0 does not enter the paired difference
        np.testing.assert_allclose(delta_k(minus, taus), want, atol=1e-13)

    def test_delta_k_peak_frozen(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0,
                                                 t_skip=0.28, t_avg=0.28)
        taus = np.linspace(0.0, 1.0, 100001)
        peak = float(delta_k(p, taus).max())
        assert peak == pytest.approx(4.0712484763300205, abs=1e-10)


class TestPhaseFit:
    def lag_grid(self):
        return np.arange(1, 26) * 0.04

    def test_noiseless_round_trip_is_exact(self):
        for phi_true in (10.0, 40.0, 70.0, -55.0):
            p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, phi_true,
                                                     t_skip=0.28, t_avg=0.28)
            taus = self.lag_grid()
            fit = fit_phase_angle(taus, delta_k(p, taus), gamma=GAMMA,
                                  omega_r=OMEGA, c=p.c)
            assert fit.phi_a == pytest.approx(math.radians(phi_true), abs=1e-12)

    def test_weighted_noisy_recovery_within_interval(self):
        gen = np.random.default_rng(5)
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0,
                                                 t_skip=0.28, t_avg=0.28)
        taus = self.lag_grid()
        err = np.full(taus.size, 0.05)
        miss = 0
        for _ in range(200):
            noisy = delta_k(p, taus) + gen.normal(scale=err)
            fit = fit_phase_angle(taus, noisy, err, gamma=GAMMA, omega_r=OMEGA, c=p.c)
            if not fit.ci[0] <= math.radians(70.0) <= fit.ci[1]:
                miss += 1
        # 95 percent interval: expect ~10 misses out of 200
        assert miss <= 25

    def test_unweighted_variance_from_residuals(self):
        gen = np.random.default_rng(11)
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 40.0,
                                                 t_skip=0.28, t_avg=0.28)
        taus = self.lag_grid()
        noisy = delta_k(p, taus) + gen.normal(scale=0.05, size=taus.size)
        fit = fit_phase_angle(taus, noisy, gamma=GAMMA, omega_r=OMEGA, c=p.c)
        assert abs(fit.phi_a_deg - 40.0) < 5.0
        assert 0.0 < fit.tan_sigma < 0.5

    def test_requires_enough_samples_and_span(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0,
                                                 t_skip=0.28, t_avg=0.28)
        taus = np.array([0.1, 0.2])
        with pytest.raises(ConfigError):
            fit_phase_angle(taus, delta_k(p, taus), gamma=GAMMA, omega_r=OMEGA, c=p.c)
        taus = np.array([0.10, 0.12, 0.14])  # span far below half a Rabi period
        with pytest.raises(ConfigError):
            fit_phase_angle(taus, delta_k(p, taus), gamma=GAMMA, omega_r=OMEGA, c=p.c)

    def test_degenerate_template_raises(self):
        # lags pinned to the template zeros: amplitude unconstrained
        wt = RabiCaseParams(gamma=0.0, omega_r=OMEGA).omega_tilde
        taus = np.array([0.0, 1.0, 2.0]) * (math.pi / wt)
        with pytest.raises(DiagnosticError):
            fit_phase_angle(taus, np.zeros(3), gamma=0.0, omega_r=OMEGA, c=0.79)

    def test_rejects_bad_errors(self):
        p = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0,
                                                 t_skip=0.28, t_avg=0.28)
        taus = self.lag_grid()
        dk = delta_k(p, taus)
        with pytest.raises(ConfigError):
            fit_phase_angle(taus, dk, np.zeros(taus.size), gamma=GAMMA,
                            omega_r=OMEGA, c=p.c)
