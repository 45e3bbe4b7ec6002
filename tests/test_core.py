"""Validation and bookkeeping types: detectors, grids, unit helpers."""

import dataclasses
import math

import numpy as np
import pytest

from cqmcorr import (
    ConfigError,
    DetectorModel,
    EnsembleGenerator,
    TimeGrid,
    as_bloch,
    check_segments,
    rabi_rad_per_us,
    require_physical,
)
from conftest import random_unit_vector


def test_as_bloch_accepts_lists_and_copies():
    r = as_bloch([0.1, -0.2, 0.3])
    assert r.dtype == np.float64 and r.shape == (3,)
    src = np.array([1.0, 0.0, 0.0])
    out = as_bloch(src)
    out[0] = 5.0
    assert src[0] == 1.0


@pytest.mark.parametrize("bad", [[1, 2], [[1, 2, 3]], [np.nan, 0, 0], [np.inf, 0, 0]])
def test_as_bloch_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        as_bloch(bad)


@pytest.mark.parametrize("bad, message", [
    ([np.nan, 0, 0], "Bloch vector has non-finite components: [nan  0.  0.]"),
    ((0, np.inf, 0), "Bloch vector has non-finite components: [ 0. inf  0.]"),
    (np.array([0.0, 0.0, -np.inf]), "Bloch vector has non-finite components: [  0.   0. -inf]"),
    ([1, 0], "Bloch vector must have shape (3,), got (2,)"),
    ([[1, 0, 0]], "Bloch vector must have shape (3,), got (1, 3)"),
    (0.5, "Bloch vector must have shape (3,), got ()"),
], ids=["nan", "inf", "-inf", "short", "2-d", "scalar"])
def test_bloch_checks_keep_their_messages(bad, message):
    """The checks run on Python floats; type and text are those of the
    numpy-based checks they replaced."""
    for check in (as_bloch, require_physical):
        with pytest.raises(ConfigError) as err:
            check(bad)
        assert str(err.value) == message


def test_require_physical_message_and_copy():
    with pytest.raises(ConfigError) as err:
        require_physical([0.6, 0.8, 1e-3])
    assert str(err.value) == "state norm 1.0000005 exceeds 1 + 1e-09"
    with pytest.raises(ConfigError) as err:
        require_physical((1.2, 0, 0))
    assert str(err.value) == "state norm 1.2 exceeds 1 + 1e-09"
    src = np.array([0.6, 0.8, 0.0])
    out = require_physical(src)
    assert out.dtype == np.float64 and out is not src
    src[0] = 0.0
    assert out[0] == 0.6


def test_require_physical_norm_window():
    require_physical([0.6, 0.0, 0.8])
    require_physical([1.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        require_physical([1.1, 0.0, 0.0])
    # the tolerance argument loosens the cap
    require_physical([1.04, 0.0, 0.0], tol=0.05)


def test_rabi_unit_conversion():
    for f in (0.25, 1.0, 3.7):
        assert rabi_rad_per_us(f) == pytest.approx(2.0 * math.pi * f, rel=1e-15)


class TestDetectorModel:
    def test_basic_fields_and_gamma(self):
        det = DetectorModel(axis=(0, 0, 1), tau_m=2.0, k_phase=0.5, eta=0.8)
        assert det.gamma_m == pytest.approx((1 + 0.25) / (2 * 0.8 * 2.0), rel=1e-15)
        # axis is stored normalized and read-only
        with pytest.raises(ValueError):
            det.axis[0] = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(axis=(0, 0, 2), tau_m=1.0),
            dict(axis=(0, 0, 1), tau_m=0.0),
            dict(axis=(0, 0, 1), tau_m=-1.0),
            dict(axis=(0, 0, 1), tau_m=1.0, eta=0.0),
            dict(axis=(0, 0, 1), tau_m=1.0, eta=1.2),
            dict(axis=(0, 0, 1), tau_m=1.0, k_phase=math.inf),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorModel(**kwargs)

    def test_quadrature_angle_construction(self):
        det = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04, phi_a_deg=70.0, eta=0.44)
        phi = math.radians(70.0)
        assert det.tau_m == pytest.approx(2.04 / math.cos(phi) ** 2, rel=1e-15)
        assert det.k_phase == pytest.approx(math.tan(phi), rel=1e-15)
        # informational-only detector at 0 degrees
        det0 = DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04, phi_a_deg=0.0)
        assert det0.tau_m == 2.04 and det0.k_phase == 0.0

    def test_quadrature_angle_tau_m_override(self):
        det = DetectorModel.from_quadrature_angle(
            (0, 0, 1), tau_min=2.04, phi_a_deg=70.0, tau_m=17.0
        )
        assert det.tau_m == 17.0
        assert det.k_phase == pytest.approx(math.tan(math.radians(70.0)), rel=1e-15)

    def test_quadrature_angle_rejects_near_90(self):
        with pytest.raises(ConfigError):
            DetectorModel.from_quadrature_angle((0, 0, 1), tau_min=2.04, phi_a_deg=90.0)


    def test_collapse_is_the_recipe_measurement_map(self, rng):
        """``collapse`` is [[K [n]x, n], [n^T, 0]], bit for bit, signs of
        zeros too, as K times the written-out [n]x beside n."""
        cases = [(random_unit_vector(rng), k_phase)
                 for k_phase in (0.0, -0.0, 2.0, -2.0, *rng.uniform(-3.0, 3.0, 20))]
        cases += [(axis, -0.5) for axis in ((0, 0, 1), (1, 0, 0), (0, -1, 0))]
        for axis, k_phase in cases:
            det = DetectorModel(axis=axis, tau_m=1.0, k_phase=k_phase)
            want = np.zeros((4, 4))
            n = det.axis
            want[:3, :3] = k_phase * np.array([[0.0, -n[2], n[1]],
                                               [n[2], 0.0, -n[0]],
                                               [-n[1], n[0], 0.0]])
            want[:3, 3] = n
            want[3, :3] = n
            assert det.collapse.tobytes() == want.tobytes()

    def test_collapse_is_derived_and_read_only(self):
        det = DetectorModel(axis=(0, 0, 1), tau_m=1.0, k_phase=2.0)
        with pytest.raises(ValueError):
            det.collapse[0, 0] = 1.0
        with pytest.raises(TypeError):
            DetectorModel(axis=(0, 0, 1), tau_m=1.0, collapse=np.eye(4))
        assert "collapse" not in repr(det)
        assert [f.name for f in dataclasses.fields(det) if f.compare] == [
            "axis", "tau_m", "k_phase", "eta", "response", "offset"]


class TestTimeGrid:
    def test_times_are_multiplicative(self):
        grid = TimeGrid(dt=0.1, n_steps=5)
        np.testing.assert_array_equal(grid.times(), 0.1 * np.arange(5))
        assert grid.t_end == pytest.approx(0.5, abs=0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            TimeGrid(dt=0.0, n_steps=5)
        with pytest.raises(ConfigError):
            TimeGrid(dt=0.1, n_steps=0)


class TestSegments:
    def mk(self, t_start, t_end):
        return EnsembleGenerator(matrix=np.zeros((3, 3)), r_st=np.zeros(3),
                                 t_start=t_start, t_end=t_end)

    def test_accepts_cover(self):
        check_segments([self.mk(0.0, 1.0), self.mk(1.0, math.inf)], 0.0, 5.0)

    def test_rejects_gap_overlap_and_short_cover(self):
        with pytest.raises(ConfigError):
            check_segments([self.mk(0.0, 1.0), self.mk(1.5, 3.0)], 0.0, 2.0)
        with pytest.raises(ConfigError):
            check_segments([self.mk(0.0, 2.0), self.mk(1.0, 3.0)], 0.0, 2.5)
        with pytest.raises(ConfigError):
            check_segments([self.mk(0.0, 1.0)], 0.0, 2.0)
        with pytest.raises(ConfigError):
            check_segments([], 0.0, 1.0)

    def test_rejects_window_starting_before_first_segment(self):
        with pytest.raises(ConfigError):
            check_segments([self.mk(0.5, math.inf)], 0.0, 1.0)

