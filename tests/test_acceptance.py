"""Acceptance suite: nine numbered criteria, each asserted at its stated
tolerance and logged as a PASS/FAIL line in the terminal summary.

The statistical criteria run fixed-seed Monte Carlo at sizes chosen so the
expected significance clears the threshold with margin; the two expensive
record ensembles (the 70-degree production pair and the 0-degree null pair)
are shared between criteria through session fixtures. All tolerances and
sample counts here are frozen; loosening any of them is a behavior change,
not a test fix.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from cqmcorr import (
    CalibrationRun,
    CorrelatorSpec,
    DetectorModel,
    EnsembleGenerator,
    NoisePlan,
    RabiCaseParams,
    TimeGrid,
    c_factor,
    correlator_enumerate,
    correlator_recursive,
    correlator_time_averaged,
    cross_correlator_zx_demo,
    delta_k,
    dephasing_matrix,
    estimate_correlator,
    estimate_response,
    estimate_tau_m,
    fit_phase_angle,
    k_analytic_averaged,
    k_analytic_pointwise,
    outcome_probability,
    rabi_dephasing_generator,
    rotation_matrix,
    run_ensemble,
    simulate_states,
    stream_ensemble,
    write_archive,
)
from conftest import gather

GAMMA = 1.0 / 1.8            # ensemble dephasing rate, 1/us
OMEGA = 2.0 * math.pi        # Rabi rate, rad/us
ETA = 0.44
TAU_MIN = 1.0 / (2.0 * ETA * GAMMA)   # 2.0454545... us, consistent with GAMMA
T_SKIP = T_AVG = 0.28
DT = 0.004
DECIMATE = 10
DT_ACQ = DT * DECIMATE

Z_AXIS = (0.0, 0.0, 1.0)
X_PLUS = (1.0, 0.0, 0.0)
X_MINUS = (-1.0, 0.0, 0.0)


def production_detector(phi_deg: float) -> DetectorModel:
    return DetectorModel.from_quadrature_angle(Z_AXIS, TAU_MIN, phi_deg, eta=ETA)


def production_segments():
    return (rabi_dephasing_generator(GAMMA, OMEGA),)


def sampling_centroids(result):
    """True mean sampling times of the decimated first-time samples: each
    acquisition sample averages DECIMATE pre-step instants starting at its
    nominal time, so its centroid sits (DECIMATE - 1)/2 fine steps later."""
    return result.t1_values + 0.5 * (DECIMATE - 1) * DT


def recipe_reference(lags, centroids, detector, segments, x0):
    """Collapse-recipe correlator averaged over the discrete first-time
    centroids actually sampled by the estimator (lag spacing is exact)."""
    cache = {}
    ref = np.empty(lags.size)
    for j, tau in enumerate(lags):
        acc = 0.0
        for c in centroids:
            spec = CorrelatorSpec(times=(c, c + tau), detector_indices=(0, 0),
                                  initial_state=(x0, 0.0, 0.0))
            acc += correlator_recursive(spec, (detector,), segments, cache)
        ref[j] = acc / centroids.size
    return ref


def preparation_pair(det, n_steps, seed, max_lag):
    """Correlator estimates of the +x and -x preparations, 2e5 trajectories
    each on noise seeds ``seed`` and ``seed + 1``, each streamed through the
    estimator batch by batch."""
    return tuple(
        estimate_correlator(stream_ensemble(200_000, NoisePlan(s), r0, TimeGrid(DT, n_steps),
                                            (det,), production_segments(), decimate=DECIMATE),
                            2.0, T_AVG, T_SKIP, block_size=10_000, max_lag=max_lag)
        for r0, s in ((X_PLUS, seed), (X_MINUS, seed + 1)))


def preparation_difference(plus, minus):
    """Delta K = K_plus - K_minus and its standard error."""
    return plus.values - minus.values, np.sqrt(plus.errors**2 + minus.errors**2)


@pytest.fixture(scope="session")
def production_pair():
    """Production estimates at 70 degrees: 4.88 us traces at dt = 4 ns,
    decimated to 40 ns samples."""
    return preparation_pair(production_detector(70.0), 1220, 202, max_lag=2.0)


@pytest.fixture(scope="session")
def null_pair():
    """Estimates at 0 degrees (no phase backaction), 2.0 us traces."""
    return preparation_pair(production_detector(0.0), 500, 314, max_lag=1.0)


def test_criterion_1_recipe_equals_closed_form(criteria):
    """Two-time collapse-recipe values match the pointwise closed form to
    1e-9 across drive sign, quadrature angle, and preparation, in under 1 s."""
    t1 = 0.28
    taus = 0.04 * np.arange(101)      # 0 .. 4.0 us
    start = time.perf_counter()
    worst = 0.0
    slowest = (0.0, "")
    for omega in (OMEGA, -OMEGA):
        for phi in (0.0, 40.0, 70.0, 80.0):
            det = DetectorModel.from_quadrature_angle(Z_AXIS, 1.0, phi)
            segments = (rabi_dephasing_generator(GAMMA, omega),)
            cache = {}
            for x0 in (1.0, -1.0):
                combo_start = time.perf_counter()
                params = RabiCaseParams(gamma=GAMMA, omega_r=omega,
                                        k_phase=det.k_phase, x0=x0)
                ref = k_analytic_pointwise(params, t1, taus)
                got = np.empty_like(ref)
                for j, tau in enumerate(taus):
                    if tau == 0.0:
                        # the recipe's equal-time value is the squared outcome
                        got[j] = 1.0
                        continue
                    spec = CorrelatorSpec(times=(t1, t1 + tau),
                                          detector_indices=(0, 0),
                                          initial_state=(x0, 0.0, 0.0))
                    got[j] = correlator_recursive(spec, (det,), segments, cache)
                worst = max(worst, float(np.abs(got - ref).max()))
                # the slowest combo shows where a wall-time spike sat
                slowest = max(slowest, (time.perf_counter() - combo_start,
                                        f"omega {omega:+.2f}, phi {phi:g}, x0 {x0:+g}"))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    criteria.record(1, "", ok,
                    f"max |recipe - closed form| {worst:.2e} over 16 combos, "
                    f"{elapsed:.2f} s (slowest combo {slowest[0]:.2f} s at {slowest[1]})")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_recipe_matches_monte_carlo(criteria, production_pair):
    """The trajectory-estimated correlator lies within 3 jackknife SE of the
    recipe curve at >= 95% of lag points, for both preparations."""
    det = production_detector(70.0)
    plus, minus = production_pair
    centroids = sampling_centroids(plus)
    ref_p = recipe_reference(plus.lags, centroids, det, production_segments(), +1.0)
    ref_m = recipe_reference(plus.lags, centroids, det, production_segments(), -1.0)
    zp = (plus.values - ref_p) / plus.errors
    zm = (minus.values - ref_m) / minus.errors
    frac_p = float(np.mean(np.abs(zp) <= 3.0))
    frac_m = float(np.mean(np.abs(zm) <= 3.0))
    n = plus.lags.size
    ok = frac_p >= 0.95 and frac_m >= 0.95
    criteria.record(2, "", ok,
                    f"plus {int(frac_p * n)}/{n}, minus {int(frac_m * n)}/{n} "
                    f"lags within 3 jackknife SE (max |z| "
                    f"{max(np.abs(zp).max(), np.abs(zm).max()):.2f})")
    assert frac_p >= 0.95
    assert frac_m >= 0.95


def test_criterion_3a_averaged_maximum_band(criteria):
    """The maximum of the averaged closed-form curve at 70 degrees sits at its
    first stationary point. With wt = sqrt(Omega^2 - Gamma^2/4) and
    B = Gamma/(2 wt) + c x0 tan(phi_a) Omega/wt, the curve is
    Kbar(tau) = exp(-Gamma tau/2) [cos(wt tau) + B sin(wt tau)], and
    dKbar/dtau = 0 gives tan(wt tau*) = (B wt - Gamma/2)/(wt + B Gamma/2).
    Kbar rises from 1 at tau = 0 and the envelope decays, so the first root
    is the global maximum: 2.3202 at 0.176 us. The grid maximum of
    k_analytic_averaged must match it to 1e-9 in value and one grid step in
    lag, and the collapse recipe must give the same value at tau*.

    An earlier band [1.9, 2.1] held the value at a quarter Rabi period,
    tau = pi/(2 wt), where Kbar = 2.075; the peak comes earlier because
    cos(wt tau) still adds there, so the band was dropped."""
    phi = math.radians(70.0)
    x0 = 1.0
    c = c_factor(GAMMA, T_SKIP, T_AVG)
    wt = math.sqrt(OMEGA**2 - 0.25 * GAMMA**2)
    b = 0.5 * GAMMA / wt + c * x0 * math.tan(phi) * OMEGA / wt
    tau_star = math.atan2(b * wt - 0.5 * GAMMA, wt + 0.5 * b * GAMMA) / wt
    k_star = math.exp(-0.5 * GAMMA * tau_star) * (math.cos(wt * tau_star)
                                                  + b * math.sin(wt * tau_star))

    params = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=x0,
                                                  t_skip=T_SKIP, t_avg=T_AVG)
    taus = np.linspace(0.0, 1.0, 100001)
    step = float(taus[1] - taus[0])
    curve = k_analytic_averaged(params, taus)
    imax = int(np.argmax(curve))
    kmax, tau_max = float(curve[imax]), float(taus[imax])
    k_recipe = float(correlator_time_averaged(
        np.array([tau_star]), production_detector(70.0), production_segments(),
        (x0, 0.0, 0.0), T_SKIP, T_AVG).values[0])

    dk, dtau, drecipe = abs(kmax - k_star), abs(tau_max - tau_star), abs(k_recipe - k_star)
    ok = dk <= 1e-9 and dtau <= step and drecipe <= 1e-9
    criteria.record(3, "a", ok,
                    f"grid maximum {kmax:.6f} at {tau_max:.5f} us vs derived "
                    f"{k_star:.6f} at {tau_star:.5f} us (|dK| {dk:.1e}, "
                    f"|dtau| {dtau:.1e} us, |recipe - derived| {drecipe:.1e})")
    assert dk <= 1e-9
    assert dtau <= step
    assert drecipe <= 1e-9


def test_criterion_3b_peak_significance(criteria):
    """The Monte Carlo peak at 70 degrees exceeds 1.5 with >= 5 sigma."""
    det = production_detector(70.0)
    records = stream_ensemble(4_000_000, NoisePlan(303), X_PLUS,
                              TimeGrid(DT, 300), (det,), production_segments(),
                              decimate=DECIMATE)
    res = estimate_correlator(records, 2.0, T_AVG, T_SKIP, block_size=200_000,
                              max_lag=0.4)
    ipk = int(np.argmax(res.values))
    z = (res.values[ipk] - 1.5) / res.errors[ipk]
    criteria.record(3, "b", z >= 5.0,
                    f"peak {res.values[ipk]:.3f} +- {res.errors[ipk]:.3f} at "
                    f"lag {res.lags[ipk]:.2f}, (peak - 1.5)/SE = {z:.1f}")
    assert z >= 5.0


def test_criterion_3c_zero_angle_null(criteria, null_pair):
    """At 0 degrees |Khat| stays below 1 + 3 SE everywhere and the two
    preparations agree within errors."""
    plus, minus = null_pair
    over_p = float(((np.abs(plus.values) - 1.0) / plus.errors).max())
    over_m = float(((np.abs(minus.values) - 1.0) / minus.errors).max())
    dk, dk_err = preparation_difference(plus, minus)
    zd = np.abs(dk / dk_err)
    frac = float(np.mean(zd <= 3.0))
    ok = over_p <= 3.0 and over_m <= 3.0 and frac >= 0.92 and zd.max() <= 5.0
    criteria.record(3, "c", ok,
                    f"max (|K|-1)/SE {max(over_p, over_m):+.2f}; preparation "
                    f"difference max |z| {zd.max():.2f}, within 3: {frac:.2f}")
    assert over_p <= 3.0 and over_m <= 3.0
    assert frac >= 0.92 and zd.max() <= 5.0


def test_criterion_4_averaging_attenuation(criteria):
    """The first-time averaging factor evaluates to 0.79 within 0.005."""
    c = c_factor(GAMMA, T_SKIP, T_AVG)
    ok = abs(c - 0.79) <= 0.005
    criteria.record(4, "", ok, f"c = {c:.6f}, |c - 0.79| = {abs(c - 0.79):.4f}")
    assert ok


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_detector(rng, k_max=2.0, tau_lo=0.3, tau_hi=1.0):
    return DetectorModel(axis=_unit(rng), tau_m=rng.uniform(tau_lo, tau_hi),
                         eta=rng.uniform(0.3, 1.0),
                         k_phase=rng.uniform(-k_max, k_max))


def _matched_generator(rng, detectors):
    """Unital generator consistent with the detectors: their measurement
    dephasing plus a coherent drive about a random axis."""
    mat = rotation_matrix(_unit(rng), rng.uniform(-OMEGA, OMEGA))
    for det in detectors:
        mat = mat + dephasing_matrix(det.axis, det.gamma_m)
    return (EnsembleGenerator(matrix=mat, r_st=np.zeros(3)),)


def test_criterion_5_multi_time_oracle(criteria):
    """200 random multi-time instances: enumeration and recursion agree to
    1e-10; for 10 of them, 1e5-trajectory patch-product estimates agree
    within 3 sigma."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(200):
        n_times = 1 + i % 4
        dets = tuple(_random_detector(rng) for _ in range(rng.integers(1, 3)))
        segments = _matched_generator(rng, dets)
        while True:
            times = np.sort(rng.uniform(0.05, 1.2, size=n_times))
            if n_times == 1 or np.diff(times).min() > 1e-3:
                break
        r0 = _unit(rng) * rng.uniform(0.0, 0.95)
        spec = CorrelatorSpec(
            times=tuple(times),
            detector_indices=tuple(rng.integers(0, len(dets), n_times)),
            initial_state=r0)
        a = correlator_enumerate(spec, dets, segments)
        b = correlator_recursive(spec, dets, segments)
        worst = max(worst, abs(a - b))

    # Monte Carlo confirmation on three- and four-point products: each time
    # argument is widened to a 0.1 us patch (10 acquisition samples), the
    # recipe reference is the same patch average via a tensor Gauss-Legendre
    # rule, and the product of patch means is averaged over trajectories.
    dt, dec = 5e-4, 20
    dt_acq = dt * dec
    patch = 10
    nodes6, weights6 = np.polynomial.legendre.leggauss(6)
    w6 = 0.5 * weights6
    rng = np.random.default_rng(515)
    base3 = np.array([0.03, 0.18, 0.33])
    base4 = np.array([0.02, 0.14, 0.26, 0.38])
    worst_z = 0.0
    for i in range(10):
        n_times = 3 if i % 2 == 0 else 4
        n_det = 1 if i < 6 else 2
        dets = tuple(_random_detector(rng, k_max=1.0, tau_lo=0.4, tau_hi=0.6)
                     for _ in range(n_det))
        segments = _matched_generator(rng, dets)
        base = base3 if n_times == 3 else base4
        times = base + dt_acq * rng.integers(0, 2, size=n_times)
        det_idx = tuple(rng.integers(0, n_det, n_times))
        r0 = _unit(rng) * rng.uniform(0.3, 0.9)

        n_steps = int(round((times[-1] + patch * dt_acq) / dt))
        patches = [(d, int(round(t / dt_acq))) for t, d in zip(times, det_idx)]
        # each trajectory's product of patch means, taken as its slice is
        # handed over; the records themselves are never held
        prods = []

        def keep(records):
            prod = np.ones(len(records))
            for d, k0 in patches:
                prod = prod * records[:, d, k0:k0 + patch].mean(axis=1)
            prods.append(prod)

        run_ensemble(100_000, NoisePlan(5050 + i), r0, TimeGrid(dt, n_steps), dets, segments,
                     decimate=dec, consumer=keep)
        prod = np.concatenate(prods)
        assert len(prod) == 100_000
        mc = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(len(prod))

        width = patch * dt_acq
        node_sets = [t + 0.5 * width * (nodes6 + 1.0) for t in times]
        cache = {}
        ref = 0.0
        for combo in np.ndindex(*(6,) * n_times):
            ts = tuple(node_sets[d][j] for d, j in enumerate(combo))
            wt = float(np.prod([w6[j] for j in combo]))
            ref += wt * correlator_recursive(
                CorrelatorSpec(times=ts, detector_indices=det_idx,
                               initial_state=r0), dets, segments, cache)
        worst_z = max(worst_z, abs((mc - ref) / se))

    ok = worst <= 1e-10 and worst_z <= 3.0
    criteria.record(5, "", ok,
                    f"enumeration vs recursion worst {worst:.1e}; "
                    f"MC patch products worst |z| {worst_z:.2f} over 10")
    assert worst <= 1e-10
    assert worst_z <= 3.0


def test_criterion_6_cross_correlator(criteria):
    """The z/x cross-correlator without a drive beats 1 (recipe), the Monte
    Carlo confirms it within 3 sigma, and the no-phase-backaction control
    vanishes."""
    setup = cross_correlator_zx_demo()
    peak = float(setup.values.max())

    det_z0 = dataclasses.replace(setup.detectors[0], k_phase=0.0)
    control = max(abs(correlator_recursive(
        CorrelatorSpec(times=(t1, t1 + tau), detector_indices=(0, 1),
                       initial_state=setup.initial_state),
        (det_z0, setup.detectors[1]), setup.segments))
        for t1 in setup.t1_grid for tau in setup.lag_grid)

    # Unit-efficiency trajectories stay pinned to the Bloch sphere (the kick
    # power exactly balances the drift contraction there) and Euler boundary
    # excursions trip the norm guard at this trajectory count. gamma_m, and
    # with it every reference value, depends on eta only through the product
    # eta * tau_m, so the simulation runs at eta = 0.5 with tau_m doubled.
    dets_mc = tuple(dataclasses.replace(d, tau_m=2.0, eta=0.5)
                    for d in setup.detectors)
    assert [d.gamma_m for d in dets_mc] == [d.gamma_m for d in setup.detectors]
    dt, dec = 4e-4, 25
    dt_acq = dt * dec
    n_traj, first_times, lags = 600_000, (0.02, 0.06, 0.10), (0.02, 0.05, 0.10, 0.20)

    def first_sample(t_center):
        return int(round((t_center - dt_acq) / dt_acq))

    # each trajectory's patch means, kept as its slice is handed over; the
    # records themselves are never held
    means = {patch: np.empty(n_traj) for patch in
             {(0, first_sample(t1)) for t1 in first_times}
             | {(1, first_sample(t1 + tau)) for t1 in first_times for tau in lags}}
    filled = 0

    def keep(records):
        nonlocal filled
        for (det, k0), out in means.items():
            out[filled:filled + len(records)] = records[:, det, k0:k0 + 2].mean(axis=1)
        filled += len(records)

    run_ensemble(n_traj, NoisePlan(606), setup.initial_state, TimeGrid(dt, 775), dets_mc,
                 setup.segments, decimate=dec, consumer=keep)
    assert filled == n_traj

    nodes6, weights6 = np.polynomial.legendre.leggauss(6)
    w6 = 0.5 * weights6

    def patch_mean(det, t_center):
        return means[det, first_sample(t_center)]

    def patch_ref(t1, t2):
        cache = {}
        total = 0.0
        for i, a in enumerate(t1 - dt_acq + dt_acq * (nodes6 + 1.0)):
            for j, b in enumerate(t2 - dt_acq + dt_acq * (nodes6 + 1.0)):
                total += w6[i] * w6[j] * correlator_recursive(
                    CorrelatorSpec(times=(a, b), detector_indices=(0, 1),
                                   initial_state=setup.initial_state),
                    setup.detectors, setup.segments, cache)
        return total

    rows = []
    for t1 in first_times:
        pz = patch_mean(0, t1)
        for tau in lags:
            prod = pz * patch_mean(1, t1 + tau)
            mc = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(n_traj)
            rows.append((mc, se, patch_ref(t1, t1 + tau)))
    zs = np.array([(mc - ref) / se for mc, se, ref in rows])
    imax = int(np.argmax([ref for _, _, ref in rows]))
    mc_pk, se_pk, ref_pk = rows[imax]
    margin = mc_pk - 3.0 * se_pk

    ok_gcr = peak > 1.0
    ok_mc = bool(np.all(np.abs(zs) <= 3.0) and margin > 1.0)
    ok_ctl = control <= 1.0
    criteria.record(6, " recipe", ok_gcr, f"max K_zx = {peak:.4f} (> 1)")
    criteria.record(6, " mc", ok_mc,
                    f"12 grid points max |z| {np.abs(zs).max():.2f}; at the "
                    f"maximum {mc_pk:.3f} - 3 SE = {margin:.3f} (> 1)")
    criteria.record(6, " control", ok_ctl,
                    f"k_phase = 0 max |K| = {control:.1e} (<= 1)")
    assert ok_gcr and ok_mc and ok_ctl


def test_criterion_7_calibration_round_trip(criteria):
    """Synthetic raw records (17000 traces per prepared state) return the
    injected response, measurement time, and efficiency at 0 and 70 degrees,
    and the measurement times obey the quadrature cosine law."""
    tau_min = 2.04
    gamma = 1.0 / (2.0 * ETA * tau_min)
    results = {}
    details = []
    all_ok = True
    for phi, response, n_steps, seed in ((0.0, 1.005, 60, 707),
                                         (70.0, 0.33, 300, 709)):
        det = DetectorModel.from_quadrature_angle(Z_AXIS, tau_min, phi,
                                                  eta=ETA, response=response,
                                                  offset=-0.4)
        segments = (EnsembleGenerator(matrix=dephasing_matrix(det.axis, gamma),
                                      r_st=np.zeros(3)),)
        grid = TimeGrid(0.04, n_steps)
        plus = stream_ensemble(17_000, NoisePlan(seed), det.axis, grid, (det,),
                               segments)
        minus = stream_ensemble(17_000, NoisePlan(seed + 1), -det.axis, grid,
                                (det,), segments)
        run = CalibrationRun(plus=plus, minus=minus)
        di_hat = estimate_response(run, fit_window=0.04 * n_steps)
        tau_hat, eta_raw = estimate_tau_m(run, di_hat, gamma=gamma)
        eta_hat = eta_raw / math.cos(math.radians(phi)) ** 2
        e_di = abs(di_hat / (2.0 * response) - 1.0)
        e_tau = abs(tau_hat / det.tau_m - 1.0)
        e_eta = abs(eta_hat / ETA - 1.0)
        results[phi] = tau_hat
        all_ok &= e_di <= 0.03 and e_tau <= 0.05 and e_eta <= 0.05
        details.append(f"{phi:.0f} deg: dI {e_di * 100:.1f}%, "
                       f"tau_m {e_tau * 100:.1f}%, eta {e_eta * 100:.1f}%")
        assert e_di <= 0.03, f"delta_i off by {e_di:.3f} at {phi} deg"
        assert e_tau <= 0.05, f"tau_m off by {e_tau:.3f} at {phi} deg"
        assert e_eta <= 0.05, f"eta off by {e_eta:.3f} at {phi} deg"
    ratio = results[70.0] / results[0.0]
    want = 1.0 / math.cos(math.radians(70.0)) ** 2
    e_ratio = abs(ratio / want - 1.0)
    all_ok &= e_ratio <= 0.05
    criteria.record(7, "", all_ok,
                    "; ".join(details) + f"; cos-law ratio {e_ratio * 100:.1f}%")
    assert e_ratio <= 0.05


def test_criterion_8_noiseless_round_trip(criteria):
    """The quadrature-angle fit inverts its own noiseless template to 1e-10
    radians."""
    lags = 0.04 * np.arange(1, 51)
    worst = 0.0
    for phi in (10.0, 40.0, 70.0, -55.0):
        params = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, phi, x0=1.0,
                                                      t_skip=T_SKIP, t_avg=T_AVG)
        fit = fit_phase_angle(lags, delta_k(params, lags), gamma=GAMMA,
                              omega_r=OMEGA, c=params.c)
        worst = max(worst, abs(fit.phi_a - math.radians(phi)))
    ok = worst <= 1e-10
    criteria.record(8, " noiseless", ok, f"worst round-trip error {worst:.1e} rad")
    assert ok


def test_criterion_8_monte_carlo_recovery(criteria, production_pair):
    """The full record pipeline at a true angle of 70 degrees recovers it
    within 2 degrees."""
    params = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=1.0,
                                                  t_skip=T_SKIP, t_avg=T_AVG)
    dk, dk_err = preparation_difference(*production_pair)
    fit = fit_phase_angle(production_pair[0].lags, dk, dk_err, gamma=GAMMA, omega_r=OMEGA,
                          c=params.c)
    err = abs(fit.phi_a_deg - 70.0)
    criteria.record(8, " recovery", err <= 2.0,
                    f"phi_hat = {fit.phi_a_deg:.2f} deg, error {err:.2f} deg")
    assert err <= 2.0


def test_criterion_8_null_angle(criteria, null_pair):
    """At a true angle of zero the fitted 95% interval covers zero."""
    params = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 0.0, x0=1.0,
                                                  t_skip=T_SKIP, t_avg=T_AVG)
    dk, dk_err = preparation_difference(*null_pair)
    fit = fit_phase_angle(null_pair[0].lags, dk, dk_err, gamma=GAMMA, omega_r=OMEGA,
                          c=params.c)
    covers = fit.ci[0] <= 0.0 <= fit.ci[1]
    lo, hi = (math.degrees(v) for v in fit.ci)
    criteria.record(8, " null", covers,
                    f"phi_hat = {fit.phi_a_deg:+.2f} deg, "
                    f"ci [{lo:+.2f}, {hi:+.2f}] deg")
    assert covers


def test_criterion_9a_ito_mean(criteria):
    """The ensemble mean of the trajectories follows the ensemble evolution
    equation: exactly the discrete Euler orbit in distribution (3 sigma), and
    the continuous solution within 3 sigma plus a first-weak-order allowance.
    """
    det = production_detector(70.0)
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    dt, n_steps = 0.002, 250
    n_traj, chunk = 20_000, 4096
    grid = TimeGrid(dt, n_steps)
    total = np.zeros((n_steps + 1, 3))
    total_sq = np.zeros((n_steps + 1, 3))
    for lo in range(0, n_traj, chunk):
        states, _ = simulate_states(X_PLUS, grid, (det,), (gen,), NoisePlan(99),
                                    lo, min(lo + chunk, n_traj))
        total += states.sum(axis=0)
        total_sq += (states * states).sum(axis=0)
    mean = total / n_traj
    var = (total_sq - n_traj * mean**2) / (n_traj - 1)
    sem = np.sqrt(np.maximum(var, 0.0) / n_traj)

    # the scheme's exact mean: kicks are zero-mean and independent of the
    # pre-step state, so E[r_{k+1}] = (I + dt L) E[r_k]
    m_step = np.eye(3) + gen.matrix * dt
    orbit = np.empty((n_steps + 1, 3))
    orbit[0] = X_PLUS
    for k in range(n_steps):
        orbit[k + 1] = m_step @ orbit[k]
    z = np.where(sem > 0, np.abs(mean - orbit) / np.where(sem > 0, sem, 1.0), 0.0)
    frac3 = float(np.mean(z <= 3.0))

    # continuous-time solution: the Euler mean differs from it by the
    # integrated local truncation error, |d^2r/dt^2| dt / 2 per unit time
    prop_dt = expm(gen.matrix * dt)
    exact = np.empty_like(orbit)
    exact[0] = orbit[0]
    for k in range(n_steps):
        exact[k + 1] = prop_dt @ exact[k]
    speed = np.linalg.norm(exact @ (gen.matrix @ gen.matrix).T, axis=1)
    budget = 0.5 * dt * np.concatenate(
        ([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)))
    gap = np.linalg.norm(mean - exact, axis=1)
    allow = 3.0 * np.linalg.norm(sem, axis=1) + budget
    excess = float((gap - allow).max())

    ok = float(z.max()) <= 4.0 and frac3 >= 0.99 and excess <= 0.0
    criteria.record(9, "a ito-mean", ok,
                    f"discrete orbit max |z| {z.max():.2f}, within 3: "
                    f"{frac3:.3f}; continuous max excess {excess:+.1e}")
    assert z.max() <= 4.0 and frac3 >= 0.99
    assert excess <= 0.0


def test_criterion_9b_probability_normalization(criteria):
    """Collapse outcome pseudo-probabilities sum to one exactly."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(500):
        r = _unit(rng) * rng.uniform(0.0, 1.0)
        axis = _unit(rng)
        s = outcome_probability(r, axis, 1) + outcome_probability(r, axis, -1)
        worst = max(worst, abs(s - 1.0))
    criteria.record(9, "b normalization", worst == 0.0,
                    f"max |p+ + p- - 1| = {worst:.1e}")
    assert worst == 0.0


def test_criterion_9c_equal_time(criteria):
    """The averaged auto-correlator at zero lag is 1 to 1e-9 on both the
    homogeneous fast path and the general quadrature path."""
    det = production_detector(70.0)
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    lags = np.array([0.0, 0.2])
    r_h = correlator_time_averaged(lags, det, (gen,), X_PLUS, T_SKIP, T_AVG)
    split = (dataclasses.replace(gen, t_end=0.4),
             dataclasses.replace(gen, t_start=0.4))
    r_g = correlator_time_averaged(lags, det, split, X_PLUS, T_SKIP, T_AVG)
    err = max(abs(r_h.values[0] - 1.0), abs(r_g.values[0] - 1.0))
    criteria.record(9, "c equal-time", err <= 1e-9, f"|K(0) - 1| <= {err:.1e}")
    assert err <= 1e-9


def test_criterion_9d_initial_state_linearity(criteria):
    """Recipe correlators are affine in the initial state to 1e-10."""
    det = production_detector(70.0)
    det_b = DetectorModel(axis=X_PLUS, tau_m=1.0, eta=1.0, k_phase=-0.7)
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    ra = np.array([0.6, -0.3, 0.4])
    rb = np.array([-0.2, 0.5, -0.6])
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 0.8, 1.0):
        vals = [correlator_recursive(
            CorrelatorSpec(times=(0.15, 0.4, 0.75), detector_indices=(0, 1, 0),
                           initial_state=r), (det, det_b), (gen,))
            for r in (ra, rb, lam * ra + (1 - lam) * rb)]
        worst = max(worst, abs(vals[2] - (lam * vals[0] + (1 - lam) * vals[1])))
    criteria.record(9, "d linearity", worst <= 1e-10,
                    f"worst affine defect {worst:.1e}")
    assert worst <= 1e-10


def test_criterion_9e_efficiency_independence(criteria):
    """Changing the quantum efficiency at fixed ensemble generator leaves
    recipe values and simulated records bit-identical; eta enters physics
    only through the generator."""
    det = production_detector(70.0)
    det_hi = dataclasses.replace(det, eta=0.9)
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    taus = 0.04 * np.arange(1, 26)
    va = correlator_time_averaged(taus, det, (gen,), X_PLUS, T_SKIP, T_AVG).values
    vb = correlator_time_averaged(taus, det_hi, (gen,), X_PLUS, T_SKIP, T_AVG).values
    grid = TimeGrid(DT, 200)
    sa = gather(stream_ensemble(500, NoisePlan(17), X_PLUS, grid, (det,), (gen,)))
    sb = gather(stream_ensemble(500, NoisePlan(17), X_PLUS, grid, (det_hi,), (gen,)))
    ok = np.array_equal(va, vb) and np.array_equal(sa, sb)
    criteria.record(9, "e eta-independence", ok,
                    "recipe values and trajectory records bit-identical")
    assert np.array_equal(va, vb)
    assert np.array_equal(sa, sb)


def test_criterion_9f_thread_determinism(criteria):
    """The archive digest is independent of the worker thread count."""
    det = production_detector(70.0)
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    grid = TimeGrid(DT, 300)
    d1 = write_archive(stream_ensemble(2000, NoisePlan(23), Z_AXIS, grid, (det,), (gen,),
                                       threads=1, batch_size=256))
    d3 = write_archive(stream_ensemble(2000, NoisePlan(23), Z_AXIS, grid, (det,), (gen,),
                                       threads=3, batch_size=256))
    criteria.record(9, "f thread-determinism", d1 == d3,
                    f"sha256 {d1[:16]}... equal across 1 and 3 threads")
    assert d1 == d3
