"""Deterministic ensemble evolution: generators, propagators, segment logic.

The reference oracle for the propagators is direct ODE integration with
scipy.integrate.solve_ivp at tight tolerance, which exercises none of the
matrix-exponential code under test; the exponential itself is held to
scipy.linalg.expm.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cqmcorr import (
    ConfigError,
    EnsembleGenerator,
    dephasing_matrix,
    propagator,
    propagators,
    rabi_dephasing_generator,
    rotation_matrix,
)
from cqmcorr.ensemble import _expm
from conftest import random_unit_vector

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi


def state_at(r0, t_out, segments):
    """State at t_out from r0 at t = 0, through the augmented propagator."""
    return (propagator(0.0, t_out, segments) @ np.append(r0, 1.0))[:3]


def solve_reference(segments, r0, t_out):
    """Integrate dr/dt = L(t) (r - r_st(t)) with solve_ivp."""

    def rhs(t, r):
        for seg in segments:
            if seg.t_start <= t < seg.t_end:
                return seg.matrix @ (r - seg.r_st)
        # right endpoint of the last segment
        seg = segments[-1]
        return seg.matrix @ (r - seg.r_st)

    sol = solve_ivp(rhs, (0.0, t_out), np.asarray(r0, dtype=float),
                    rtol=1e-11, atol=1e-13, dense_output=True, max_step=0.01)
    return sol.y[:, -1]


def test_dephasing_matrix_damps_transverse_only():
    mat = dephasing_matrix((0, 0, 1), 2.5)
    np.testing.assert_allclose(mat, np.diag([-2.5, -2.5, 0.0]), atol=1e-15)
    # generic axis: the axis itself is a null direction
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    mat = dephasing_matrix(n, 0.7)
    np.testing.assert_allclose(mat @ n, 0.0, atol=1e-15)
    v = np.array([2.0, -1.0, 0.0]) / math.sqrt(5.0)
    np.testing.assert_allclose(mat @ v, -0.7 * v, atol=1e-14)


def test_rotation_matrix_rotates_with_given_rate():
    omega = 3.0
    gen = EnsembleGenerator(matrix=rotation_matrix((1, 0, 0), omega), r_st=np.zeros(3),
                            t_start=0.0, t_end=math.inf)
    t = 0.37
    out = state_at([0.0, 1.0, 0.0], t, [gen])
    np.testing.assert_allclose(out, [0.0, math.cos(omega * t), math.sin(omega * t)],
                               atol=1e-12)


def test_rabi_dephasing_generator_matches_ode():
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    r0 = [1.0, 0.0, 0.0]
    t = 0.9
    out = state_at(r0, t, [gen])
    # x decouples and decays at the dephasing rate
    assert out[0] == pytest.approx(math.exp(-GAMMA * t), rel=1e-12)
    np.testing.assert_allclose(out, solve_reference([gen], r0, t), atol=1e-9)


def test_rabi_dephasing_generator_damped_precession():
    gen = rabi_dephasing_generator(GAMMA, OMEGA)
    r0 = [0.0, 0.0, 1.0]
    t = 1.3
    np.testing.assert_allclose(state_at(r0, t, [gen]),
                               solve_reference([gen], r0, t), atol=1e-9)


def test_multi_segment_evolution_matches_ode():
    # drive on, then free dephasing toward a displaced steady state
    seg1 = EnsembleGenerator(matrix=rabi_dephasing_generator(GAMMA, OMEGA).matrix,
                             r_st=np.zeros(3), t_start=0.0, t_end=0.4)
    seg2 = EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 2.0),
                             r_st=np.array([0.0, 0.0, 0.3]),
                             t_start=0.4, t_end=math.inf)
    r0 = [0.2, -0.5, 0.6]
    for t in (0.25, 0.4, 0.55, 1.7):
        np.testing.assert_allclose(state_at(r0, t, [seg1, seg2]),
                                   solve_reference([seg1, seg2], r0, t),
                                   atol=1e-9)


def test_affine_steady_state_is_fixed_point():
    r_st = np.array([0.0, 0.0, 0.3])
    seg = EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 2.0), r_st=r_st,
                            t_start=0.0, t_end=math.inf)
    np.testing.assert_allclose(state_at(r_st, 3.0, [seg]), r_st, atol=1e-14)


class TestPropagator:
    def setup_method(self):
        self.segments = [rabi_dephasing_generator(GAMMA, OMEGA)]

    def test_identity_at_zero_duration(self):
        np.testing.assert_array_equal(propagator(0.3, 0.3, self.segments), np.eye(4))

    def test_last_row_stays_affine_across_segments(self):
        segments = [
            EnsembleGenerator(matrix=rabi_dephasing_generator(GAMMA, OMEGA).matrix,
                              r_st=np.array([0.1, -0.2, 0.3]), t_start=0.0, t_end=0.3),
            EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 2.0),
                              r_st=np.array([0.0, 0.0, 0.3]), t_start=0.3, t_end=0.7),
            EnsembleGenerator(matrix=dephasing_matrix((1, 0, 0), 1.1) + rotation_matrix((0, 1, 0), 4.0),
                              r_st=np.array([0.2, 0.0, -0.1]), t_start=0.7, t_end=math.inf),
        ]
        prop = propagator(0.1, 1.6, segments)
        np.testing.assert_array_equal(prop[3], [0.0, 0.0, 0.0, 1.0])
        assert np.any(prop[:3, 3] != 0.0)

    def test_rejects_backward_interval(self):
        with pytest.raises(ConfigError):
            propagator(1.0, 0.5, self.segments)

    def test_cache_reuses_equal_durations(self):
        cache = {}
        p1 = propagator(0.0, 0.25, self.segments, cache)
        n1 = len(cache)
        p2 = propagator(0.5, 0.75, self.segments, cache)
        assert len(cache) == n1  # same segment, same duration
        np.testing.assert_array_equal(p1, p2)

    def test_cached_matrix_is_read_only(self):
        cache = {}
        prop = propagator(0.0, 0.25, self.segments, cache)
        assert np.shares_memory(propagator(0.5, 0.75, self.segments, cache), prop)
        with pytest.raises(ValueError):
            prop[0, 0] = 1.0

    def test_keeps_the_signs_of_zeros_of_the_stacked_chains(self, rng):
        """Bit for bit, signs of zeros included, the scalar propagator equals
        the stacked one, whose chains start from the identity."""
        segments = [rabi_dephasing_generator(GAMMA, OMEGA),
                    EnsembleGenerator(matrix=rotation_matrix((1, 0, 0), -3.0),
                                      r_st=np.array([-0.0, 0.0, -0.0]), t_end=0.6),
                    EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 0.5),
                                      r_st=np.array([-0.0, 0.1, -0.0]), t_start=0.6)]
        for segs in (segments[:1], segments[1:]):
            t_from = rng.uniform(0.0, 1.0, 30)
            t_to = t_from + rng.uniform(0.01, 1.0, 30)
            cache = {}
            for a, b, prop in zip(t_from, t_to, propagators(t_from, t_to, segs)):
                assert propagator(a, b, segs, cache).tobytes() == prop.tobytes()

    def test_apply_affine_form(self):
        seg = EnsembleGenerator(matrix=dephasing_matrix((0, 0, 1), 2.0),
                                r_st=np.array([0.0, 0.0, 0.3]),
                                t_start=0.0, t_end=math.inf)
        prop = propagator(0.0, 0.8, [seg])
        r0 = np.array([0.4, 0.1, -0.2])
        np.testing.assert_allclose((prop @ np.append(r0, 1.0))[:3],
                                   prop[:3, :3] @ r0 + prop[:3, 3], atol=1e-15)


def test_evolve_requires_segment_cover():
    seg = EnsembleGenerator(matrix=np.zeros((3, 3)), r_st=np.zeros(3),
                            t_start=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        propagator(0.0, 2.0, [seg])


def random_segments(rng, n_segments):
    """``n_segments`` random generators with nonzero fixed points, abutting
    at sorted random boundaries in (0.1, 2) and running from 0 to infinity."""
    edges = [0.0, *np.sort(rng.uniform(0.1, 2.0, n_segments - 1)), math.inf]
    return [EnsembleGenerator(
        matrix=(dephasing_matrix(random_unit_vector(rng), rng.uniform(0.2, 2.0))
                + rotation_matrix(random_unit_vector(rng), rng.uniform(0.0, 8.0))),
        r_st=rng.uniform(-0.3, 0.3, 3), t_start=lo, t_end=hi)
        for lo, hi in zip(edges[:-1], edges[1:])]


class TestPropagators:
    """The stacked propagators equal the scalar propagator bit for bit."""

    @pytest.mark.parametrize("n_segments", [1, 2, 3, 4])
    def test_equals_scalar_propagator(self, rng, n_segments):
        for _ in range(10):
            segments = random_segments(rng, n_segments)
            inner = [seg.t_end for seg in segments[:-1]]
            t_from = rng.uniform(0.0, 2.5, 40)
            t_to = t_from + rng.uniform(0.0, 1.5, 40)
            t_to[:3] = t_from[:3]                       # zero length
            t_from[3] = t_to[3] = 1.0                   # zero length, alone
            for i, b in enumerate(inner):
                t_to[4 + i] = max(b, t_from[4 + i])     # ends on a boundary
                t_from[8 + i] = min(b, t_to[8 + i])     # starts on a boundary
                t_from[12 + i] = t_to[12 + i] = b       # zero length on a boundary
                t_from[18 + i], t_to[18 + i] = 0.5 * b, b + 1e-13  # a sliver past one
            if len(inner) >= 2:
                t_from[16], t_to[16] = 0.5 * inner[0], inner[1] + 0.3  # crosses two
                t_from[17], t_to[17] = inner[0], inner[-1]              # boundary to boundary
            got = propagators(t_from, t_to, segments)
            assert got.shape == (40, 4, 4)
            for a, b, prop in zip(t_from, t_to, got):
                np.testing.assert_array_equal(prop, propagator(a, b, segments))
            for prop in got[:4]:
                np.testing.assert_array_equal(prop, np.eye(4))

    @pytest.mark.parametrize("t_from, t_to, segments", [
        (1.0, 0.5, [rabi_dephasing_generator(GAMMA, OMEGA)]),
        (0.0, 2.0, [EnsembleGenerator(np.zeros((3, 3)), np.zeros(3), 0.0, 1.0)]),
        (0.5, 2.5, [EnsembleGenerator(np.zeros((3, 3)), np.zeros(3), 0.0, 1.0),
                    EnsembleGenerator(np.zeros((3, 3)), np.zeros(3), 2.0, math.inf)]),
        (0.0, 1.0, []),
    ], ids=["backward", "uncovered", "gap", "no-segments"])
    def test_same_errors_as_scalar_propagator(self, t_from, t_to, segments):
        with pytest.raises(ConfigError) as scalar:
            propagator(t_from, t_to, segments)
        with pytest.raises(ConfigError) as stacked:
            propagators(np.array([0.2, t_from]), np.array([0.2, t_to]), segments)
        assert str(stacked.value) == str(scalar.value)

    @pytest.mark.parametrize("t_from, t_to, message", [
        (0.0, math.nan, "t_to must be finite, got nan"),
        (0.0, math.inf, "t_to must be finite, got inf"),
        (math.nan, 1.0, "t_from must be finite, got nan"),
        (-math.inf, 1.0, "t_from must be finite, got -inf"),
    ], ids=["nan-end", "inf-end", "nan-start", "-inf-start"])
    def test_rejects_non_finite_times(self, t_from, t_to, message):
        """A NaN end used to give the identity here and NaN rows in the
        scalar propagator; both raise now, with the same message."""
        segments = [rabi_dephasing_generator(GAMMA, OMEGA)]
        with pytest.raises(ConfigError) as scalar:
            propagator(t_from, t_to, segments)
        with pytest.raises(ConfigError) as stacked:
            propagators(np.array([0.2, t_from]), np.array([0.3, t_to]), segments)
        assert str(scalar.value) == str(stacked.value) == message

    def test_cold_step_equals_stacked_step(self, rng):
        """The scalar propagator's cached step and identity product, built in
        place, equal the stacked route's bit for bit, signs of zeros too."""
        for _ in range(50):
            matrix = rng.normal(size=(3, 3)) * rng.uniform(0.0, 5.0)
            matrix[rng.integers(3)] = 0.0
            matrix[:, rng.integers(3)] = -0.0
            r_st = np.where(rng.random(3) < 0.3, -0.0, rng.uniform(-0.3, 0.3, 3))
            segments = [EnsembleGenerator(matrix, r_st)]
            t_to = rng.uniform(0.0, 3.0)
            scalar = propagator(0.0, t_to, segments)
            stacked = propagators(np.zeros(1), np.array([t_to]), segments)[0]
            np.testing.assert_array_equal(scalar.view(np.int64), stacked.view(np.int64))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigError):
            propagators(np.zeros(2), np.ones(3), [rabi_dephasing_generator(GAMMA, OMEGA)])


class TestExpm:
    """The package's Pade-13 exponential against scipy.linalg.expm. Both
    round in the squarings, so the gap is held to 1e-13 of the result's norm
    per unit of ||Lt||_1 beyond 1."""

    @staticmethod
    def assert_matches_scipy(gens):
        got = _expm(gens)
        for gen, mat in zip(gens, got):
            want = expm(gen)
            tol = 1e-13 * max(1.0, np.abs(gen).sum(axis=0).max()) * np.abs(want).sum(axis=0).max()
            np.testing.assert_allclose(mat, want, rtol=0.0, atol=tol)

    def test_random_dissipative_generators(self, rng):
        for _ in range(5):
            gen = (dephasing_matrix(random_unit_vector(rng), rng.uniform(0.1, 3.0))
                   + rotation_matrix(random_unit_vector(rng), rng.uniform(0.0, 10.0)))
            self.assert_matches_scipy(gen * rng.uniform(0.0, 2.0, 30)[:, None, None])

    def test_large_norms_need_many_squarings(self, rng):
        """Dephasing and rotation about one axis keep that axis, so e^{Lt}
        tends to n n^T instead of vanishing; ||Lt||_1 runs from about 9 to
        5e3, which takes 1 to 10 squarings."""
        n = random_unit_vector(rng)
        gen = dephasing_matrix(n, 0.8) + rotation_matrix(n, 2.0 * math.pi)
        times = np.geomspace(1.0, 500.0, 12)
        self.assert_matches_scipy(gen * times[:, None, None])
        np.testing.assert_allclose(_expm(gen * times[-1:, None, None])[0], np.outer(n, n),
                                   atol=1e-12)

    def test_critically_damped_rabi(self):
        """At omega_r = gamma / 2 the (y, z) block of L has the double
        eigenvalue -gamma / 2 with one eigenvector, and e^{Lt} is
        e^{-gamma t / 2} (I + (B + gamma / 2) t) on that block."""
        gamma = 1.3
        gen = rabi_dephasing_generator(gamma, gamma / 2.0).matrix
        times = np.linspace(0.0, 40.0, 41)
        self.assert_matches_scipy(gen * times[:, None, None])
        got = _expm(gen * times[:, None, None])
        block = gen[1:, 1:] + 0.5 * gamma * np.eye(2)
        for t, mat in zip(times, got):
            want = math.exp(-0.5 * gamma * t) * (np.eye(2) + block * t)
            np.testing.assert_allclose(mat[1:, 1:], want, rtol=0.0, atol=1e-14)
            assert mat[0, 0] == pytest.approx(math.exp(-gamma * t), rel=1e-13, abs=1e-300)

    def test_zero_gives_identity_exactly(self):
        gen = rabi_dephasing_generator(GAMMA, OMEGA).matrix
        for gens in (np.zeros((3, 3, 3)), gen * np.zeros((2, 1, 1))):
            np.testing.assert_array_equal(_expm(gens), np.broadcast_to(np.eye(3), gens.shape))

    def test_stack_equals_one_at_a_time(self, rng):
        """Norms from 0 to about 1e3 give each matrix its own squaring count."""
        gens = np.stack([
            (dephasing_matrix(random_unit_vector(rng), rng.uniform(0.1, 3.0))
             + rotation_matrix(random_unit_vector(rng), rng.uniform(0.0, 10.0))) * t
            for t in np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 39)])])
        rng.shuffle(gens)
        got = _expm(gens)
        for gen, mat in zip(gens, got):
            np.testing.assert_array_equal(mat, _expm(gen[None])[0])

    def test_no_runtime_warning(self):
        """A growing map squared once more than it needs would overflow: e^700
        is near the largest double. Stacked with maps that need many more
        squarings, it still comes out finite and warns of nothing."""
        grow = np.diag([700.0, -3.0, 0.0])
        decay = rabi_dephasing_generator(GAMMA, OMEGA).matrix * 1e5
        gens = np.stack([grow, decay, np.zeros((3, 3)), grow * 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expm(gens)
        assert np.all(np.isfinite(got))
        assert got[0, 0, 0] == pytest.approx(math.exp(700.0), rel=1e-13)
        np.testing.assert_array_equal(got[1], np.zeros((3, 3)))
