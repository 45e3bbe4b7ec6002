"""Command line interface: config handling, outputs, exit codes."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cqmcorr import (
    ConfigError,
    DiagnosticError,
    NoisePlan,
    RabiCaseParams,
    TimeGrid,
    k_analytic_averaged,
    rabi_dephasing_generator,
    run_ensemble,
)
from cqmcorr.cli import (
    CSV_HEADER,
    MAX_RECORD_VALUES,
    build_detector,
    build_grid,
    build_segments,
    load_config,
    main,
)

GAMMA = 1.0 / 1.8
OMEGA = 2.0 * math.pi

DELETE = object()  # a config case that removes the field
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def base_config(**over):
    cfg = {
        "detectors": [
            {"axis": [0.0, 0.0, 1.0], "phi_a_deg": 70.0,
             "tau_min_us": 2.0454545454545454, "eta": 0.44}
        ],
        "evolution": {"gamma_per_us": GAMMA, "rabi_mhz": 1.0},
        "grid": {"duration_us": 1.2, "dt_us": 0.004, "decimate": 10},
        "ensemble": {"n_traj": 300, "seed": 5},
        "correlator": {"mode": "analytic", "t_skip_us": 0.28, "t_avg_us": 0.28,
                       "max_lag_us": 0.6, "lag_step_us": 0.04},
        "initial_state": [1.0, 0.0, 0.0],
    }
    cfg.update(over)
    return cfg


def calibrate_config():
    return {
        "detectors": [{"axis": [0, 0, 1], "phi_a_deg": 0.0, "tau_min_us": 2.04,
                       "eta": 0.44, "response": 1.005, "offset": -0.4}],
        "evolution": {"gamma_per_us": 0.5570409982174688},
        "grid": {"duration_us": 2.4, "dt_us": 0.04},
        "ensemble": {"n_traj": 3000, "seed": 19},
    }


def segment(**over):
    # damps x and y at 1/us, above the base detector's measurement dephasing
    # of 0.556/us, so the default segment passes the dephasing check
    seg = {"matrix": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
           "t_start_us": 0.0, "t_end_us": 1e9}
    seg.update(over)
    return seg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# config sha256 ")
    assert lines[1] == CSV_HEADER
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return rows


class TestConfigLoading:
    def test_round_trip_and_digest_stability(self, tmp_path):
        path = write_config(tmp_path, base_config())
        a = load_config(path)
        b = load_config(path)
        assert a.digest == b.digest
        assert len(a.digest) == 64
        assert a.ensemble.n_traj == 300
        assert a.evolution.omega_r == pytest.approx(OMEGA)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["step_us"] = 0.001
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["typo_section"] = {}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, cfg))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_validation_problems_reported(self, tmp_path):
        cfg = base_config()
        cfg["detectors"][0]["axis"] = [0.0, 0.0, 2.0]
        cfg["ensemble"]["n_traj"] = 0
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, cfg))
        assert "axis" in str(err.value) and "n_traj" in str(err.value)

    def test_detector_needs_a_measurement_time(self, tmp_path):
        cfg = base_config()
        del cfg["detectors"][0]["tau_min_us"]
        with pytest.raises(ConfigError, match="tau_min_us or tau_m_us"):
            load_config(write_config(tmp_path, cfg))


class TestBuilders:
    def test_build_detector_quadrature_law(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        det = build_detector(cfg.detectors[0])
        assert det.tau_m == pytest.approx(2.0454545454545454 / math.cos(math.radians(70)) ** 2)
        assert det.k_phase == pytest.approx(math.tan(math.radians(70)))

    def test_build_detector_explicit_tau_m_override(self, tmp_path):
        base = base_config()
        base["detectors"][0]["tau_m_us"] = 11.0
        # gamma_m = (1 + tan^2 70deg) / (2 * 0.44 * 11 us) = 0.883/us, which the
        # generator must hold
        base["evolution"]["gamma_per_us"] = 0.9
        cfg = load_config(write_config(tmp_path, base))
        assert build_detector(cfg.detectors[0]).tau_m == 11.0

    def test_build_segments_default_is_rabi_dephasing(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        segs = build_segments(cfg)
        want = rabi_dephasing_generator(GAMMA, OMEGA)
        np.testing.assert_allclose(segs[0].matrix, want.matrix, atol=1e-12)

    def test_build_segments_explicit(self, tmp_path):
        cfg_raw = base_config()
        cfg_raw["evolution"] = {
            "segments": [
                {"matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, 0]],
                 "r_st": [0, 0, 0], "t_start_us": 0.0, "t_end_us": 0.5},
                {"matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, 0]],
                 "r_st": [0, 0, 0], "t_start_us": 0.5, "t_end_us": 1e9},
            ]
        }
        cfg = load_config(write_config(tmp_path, cfg_raw))
        segs = build_segments(cfg)
        assert len(segs) == 2 and segs[1].t_start == 0.5

    def test_build_grid_divisibility(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        grid = build_grid(cfg, ())
        assert grid.n_steps == 300
        bad = base_config()
        bad["grid"]["duration_us"] = 1.2342
        with pytest.raises(ConfigError, match="grid: .* whole number of steps"):
            load_config(write_config(tmp_path, bad))


class TestCorrelateCommand:
    def test_analytic_csv_matches_library(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "an.csv"
        assert main(["correlate", "--config", path, "--out", str(out)]) == 0
        rows = read_csv(out)
        lags = rows[:, 0]
        np.testing.assert_allclose(lags, 0.04 * np.arange(1, 16), atol=1e-12)
        params = RabiCaseParams.from_quadrature_angle(GAMMA, OMEGA, 70.0, x0=1.0,
                                                      t_skip=0.28, t_avg=0.28)
        np.testing.assert_allclose(rows[:, 1], k_analytic_averaged(params, lags),
                                   rtol=1e-10)
        np.testing.assert_array_equal(rows[:, 2], 0.0)
        np.testing.assert_allclose(rows[:, 5], rows[:, 1] - rows[:, 3], atol=1e-12)

    def test_output_is_byte_stable(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["correlate", "--config", path, "--out", str(out1)])
        main(["correlate", "--config", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_gcr_mode_agrees_with_analytic(self, tmp_path):
        an = tmp_path / "an.csv"
        gc = tmp_path / "gc.csv"
        main(["correlate", "--config", write_config(tmp_path, base_config()), "--out", str(an)])
        cfg = base_config()
        cfg["correlator"]["mode"] = "gcr"
        main(["correlate", "--config", write_config(tmp_path, cfg, "g.json"), "--out", str(gc)])
        np.testing.assert_allclose(read_csv(gc)[:, [1, 3]], read_csv(an)[:, [1, 3]],
                                   atol=1e-9)

    def test_mc_mode_produces_errors_and_pairs(self, tmp_path):
        cfg = base_config()
        cfg["correlator"] = {"mode": "mc", "t_skip_us": 0.28, "t_avg_us": 0.28,
                             "block_size": 100, "max_lag_us": 0.4}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "mc.csv"
        assert main(["correlate", "--config", path, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows.shape == (10, 7)
        assert np.all(rows[:, 2] > 0) and np.all(rows[:, 4] > 0)
        np.testing.assert_allclose(rows[:, 6], np.hypot(rows[:, 2], rows[:, 4]),
                                   atol=1e-12)

    def test_mc_mode_needs_two_jackknife_blocks(self, tmp_path, capsys):
        cfg = base_config()
        cfg["correlator"] = {"mode": "mc", "t_skip_us": 0.28, "t_avg_us": 0.28,
                             "block_size": 200, "max_lag_us": 0.4}
        out = tmp_path / "mc.csv"
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "correlator.block_size" in err and "ensemble.n_traj" in err
        assert not out.exists()

    def test_config_seed_changes_mc_output(self, tmp_path):
        outs = []
        for name, seed in (("a", 5), ("b", 9), ("c", 5)):
            cfg = base_config(ensemble={"n_traj": 300, "seed": seed})
            cfg["correlator"] = {"mode": "mc", "t_skip_us": 0.28, "t_avg_us": 0.28,
                                 "block_size": 100, "max_lag_us": 0.4}
            out = tmp_path / f"{name}.csv"
            assert main(["correlate", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            outs.append(out.read_text().split("\n"))
        a, b, c = outs
        assert a[0].endswith(" seed 5") and b[0].endswith(" seed 9")
        assert a[2:] != b[2:]
        assert a == c


class TestSimulateCommand:
    def test_archive_round_trip(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ensemble"]["n_traj"] = 40
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run.cqm"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        # same engine, same seed: the file is the in-process archive, byte for byte
        cfg_obj = load_config(path)
        want = run_ensemble(40, NoisePlan(5), [1, 0, 0],
                            TimeGrid(0.004, 300),
                            (build_detector(cfg_obj.detectors[0]),),
                            build_segments(cfg_obj), decimate=10,
                            config_digest=cfg_obj.digest)
        assert want.n_traj == 40 and want.n_samples == 30
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want.digest()
        assert f"sha256 {want.digest()}" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_report_recovers_detector_scale(self, tmp_path):
        path = write_config(tmp_path, calibrate_config())
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["delta_i"] == pytest.approx(2.01, rel=0.08)
        assert report["tau_m_us"] == pytest.approx(2.04, rel=0.15)
        assert report["eta"] == pytest.approx(0.44, rel=0.15)

    @pytest.mark.parametrize("gamma", [0.0, DELETE], ids=["zero", "absent"])
    def test_needs_the_dephasing_rate(self, tmp_path, capsys, gamma):
        cfg = calibrate_config()
        if gamma is DELETE:
            del cfg["evolution"]["gamma_per_us"]
        else:
            cfg["evolution"]["gamma_per_us"] = gamma
        assert main(["calibrate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "evolution" in err and "measurement dephasing" in err

    def test_requires_zero_drive_and_one_detector(self, tmp_path):
        cfg = base_config()  # has a drive
        assert main(["calibrate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "x.json")]) == 2


class TestFitPhaseCommand:
    def test_recovers_angle_from_analytic_csv(self, tmp_path):
        cfg = base_config()
        cfg["correlator"]["max_lag_us"] = 2.0
        path = write_config(tmp_path, cfg)
        csv_path = tmp_path / "dk.csv"
        main(["correlate", "--config", path, "--out", str(csv_path)])
        out = tmp_path / "fit.json"
        assert main(["fit-phase", "--config", path, "--dk", str(csv_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["phi_a_deg"] == pytest.approx(70.0, abs=1e-8)
        assert report["tan_phi"] == pytest.approx(math.tan(math.radians(70.0)), abs=1e-8)
        lo, hi = report["ci_deg"]
        assert lo <= report["phi_a_deg"] <= hi

    def test_rejects_foreign_csv(self, tmp_path):
        path = write_config(tmp_path, base_config())
        bad = tmp_path / "bad.csv"
        bad.write_text("tau,K\n0.1,0.5\n")
        assert main(["fit-phase", "--config", path, "--dk", str(bad)]) == 2

    def test_rejects_non_finite_row(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        csv_path = tmp_path / "dk.csv"
        main(["correlate", "--config", path, "--out", str(csv_path)])
        lines = csv_path.read_text().split("\n")
        parts = lines[4].split(",")
        parts[5] = "nan"
        lines[4] = ",".join(parts)
        csv_path.write_text("\n".join(lines))
        out = tmp_path / "fit.json"
        assert main(["fit-phase", "--config", path, "--dk", str(csv_path),
                     "--out", str(out)]) == 2
        assert "non-finite value in row" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_report_is_diagnostic(self, tmp_path):
        from cqmcorr.cli import _write_json

        out = tmp_path / "r.json"
        with pytest.raises(DiagnosticError, match="non-finite"):
            _write_json(str(out), {"tau_m_us": float("nan")})
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["correlate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 4

    @pytest.mark.parametrize("field, value, names", [
        (None, None, "invalid JSON"),
        (("ensemble", "n_traj"), 2.7, "ensemble.n_traj"),
        (("ensemble", "n_traj"), True, "ensemble.n_traj"),
        (("ensemble", "seed"), "5", "ensemble.seed"),
        (("grid", "decimate"), 2.7, "grid.decimate"),
        (("detectors", 0, "eta"), "high", "detectors[0].eta"),
        (("detectors", 0, "axis"), "zz", "detectors[0].axis"),
        (("correlator", "t_skip_us"), True, "correlator.t_skip_us"),
        (("initial_state",), "up", "config.initial_state"),
        (("grid",), 5, "grid must be a JSON object"),
        (("detectors", 0, "eta"), [0.5], "detectors[0].eta"),
        (("detectors",), 5, "detectors must be a list"),
        (("evolution", "segments"), 5, "evolution.segments must be a list"),
        (("correlator", "max_lag_us"), float("nan"), "correlator.max_lag_us"),
        (("correlator", "detector_index"), 3, "detector index 3 out of range"),
        (("correlator", "lag_step_us"), 0.0, "correlator.lag_step_us"),
        (("correlator", "max_lag_us"), 1e12, "correlator.max_lag_us"),
        (("correlator", "max_lag_us"), -1e308, "correlator.max_lag_us"),
        (("grid", "duration_us"), 1e308, "grid.duration_us"),
        (("correlator", "t_skip_us"), -1.0, "t_skip"),
        (("evolution", "segments"), [segment(matrix=[[0.0] * 3, [0.0] * 2, [0.0] * 3])],
         "evolution.segments[0].matrix"),
        (("correlator", "detector_index"), [0, 0, 0], "correlator.detector_index"),
        (("grid", "dt_us"), DELETE, "missing grid.dt_us"),
        (("grid", "t0_us"), 0.0, "grid: unknown keys ['t0_us']"),
        (("evolution",), {"gamma_per_us": GAMMA, "omega_r_rad_per_us": OMEGA},
         "evolution: unknown keys ['omega_r_rad_per_us']"),
        (("ensemble", "threads"), 1, "ensemble: unknown keys ['threads']"),
        (("ensemble", "batch_size"), 8192, "ensemble: unknown keys ['batch_size']"),
        (("grid", "dt_us"), 0.0, "grid.dt_us: dt must be positive"),
    ], ids=["invalid-json", "n_traj-2.7", "n_traj-bool", "seed-string", "decimate-2.7",
            "eta-high", "axis-zz", "t_skip-bool", "initial_state-string", "grid-number",
            "eta-list", "detectors-number", "segments-number", "max_lag-nan", "index-range",
            "lag_step-zero", "max_lag-huge", "max_lag-minus-huge", "duration-huge",
            "t_skip-negative", "matrix-ragged", "index-nested", "dt-missing", "t0-removed",
            "omega_r-removed", "threads-removed", "batch_size-removed", "dt-zero"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, field, value, names):
        if field is None:
            path = tmp_path / "bad.json"
            path.write_text("{]")
        else:
            cfg = base_config()
            target = cfg
            for key in field[:-1]:
                target = target[key]
            if value is DELETE:
                del target[field[-1]]
            else:
                target[field[-1]] = value
            path = write_config(tmp_path, cfg)
        assert main(["correlate", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("command, mutate, names", [
        ("correlate", lambda c: c.update(detectors=[]), ("detectors", "none configured")),
        ("correlate", lambda c: c["detectors"][0].update(axis=[0.0, 1.0]),
         ("detectors[0]", "axis")),
        ("correlate", lambda c: c["detectors"][0].update(axis=[0.0, 0.0, 2.0]),
         ("detectors[0]", "axis norm")),
        ("correlate", lambda c: c["detectors"][0].update(tau_m_us=-1.0),
         ("detectors[0]", "tau_m")),
        ("correlate", lambda c: c["detectors"][0].pop("tau_min_us"),
         ("detectors[0]", "tau_min_us or tau_m_us")),
        ("correlate", lambda c: c["detectors"][0].update(tau_min_us=0.0),
         ("detectors[0]", "tau_min")),
        ("correlate", lambda c: c["detectors"][0].update(eta=1.5), ("detectors[0]", "eta")),
        ("correlate", lambda c: c["detectors"][0].update(phi_a_deg=90.0),
         ("detectors[0]", "phi_a_deg")),
        ("correlate", lambda c: c["grid"].update(dt_us=-0.004), ("grid.dt_us",)),
        ("correlate", lambda c: c["grid"].update(duration_us=0.0), ("grid.duration_us",)),
        ("correlate", lambda c: c["grid"].update(decimate=0), ("grid.decimate",)),
        ("correlate", lambda c: c["ensemble"].update(n_traj=0), ("ensemble.n_traj",)),
        ("correlate", lambda c: c["evolution"].update(gamma_per_us=-0.1),
         ("evolution.gamma_per_us",)),
        ("correlate", lambda c: c["evolution"].update(gamma_per_us=0.5),
         ("evolution", "measurement dephasing")),
        ("correlate",
         lambda c: c.update(evolution={"segments": [segment(matrix=[[0.0, 0.0], [0.0, 0.0]])]}),
         ("evolution.segments[0]", "matrix")),
        ("correlate",
         lambda c: c.update(evolution={"segments": [segment(t_start_us=1.0, t_end_us=1.0)]}),
         ("evolution.segments[0]", "t_start")),
        ("correlate", lambda c: c.update(evolution={"segments": [segment(t_end_us=1.0),
                                                                 segment(t_start_us=2.0)]}),
         ("evolution.segments", "gap")),
        ("correlate", lambda c: c["correlator"].update(detector_index=2),
         ("correlator.detector_index", "index 2")),
        ("correlate", lambda c: c["correlator"].update(mode="exact"), ("correlator.mode",)),
        ("correlate", lambda c: c["correlator"].update(t_avg_us=0.0), ("correlator.t_avg_us",)),
        ("correlate", lambda c: c.update(initial_state=[1.0, 0.0]), ("initial_state", "shape")),
        ("correlate", lambda c: c.update(initial_state=[1.0, 1.0, 0.0]),
         ("initial_state", "norm")),
        ("correlate", lambda c: c["evolution"].update(segments=[segment()]),
         ("evolution.segments", "gamma_per_us", "not both")),
        ("correlate", lambda c: c["detectors"][0].update(axis=[1.0, 0.0, 0.0]),
         ("detectors[0].axis", "+z")),
        ("correlate", lambda c: c.update(evolution={"segments": [segment()]}),
         ("evolution.segments", "closed form")),
        ("calibrate", lambda c: c.update(evolution={"segments": [segment()]}),
         ("evolution.segments", "calibrate")),
        ("correlate", lambda c: c["ensemble"].update(seed=2**64), ("ensemble.seed", "uint64")),
        ("correlate", lambda c: c["ensemble"].update(seed=-1), ("ensemble.seed", "uint64")),
        ("correlate", lambda c: c["ensemble"].update(threads=0),
         ("ensemble: unknown keys ['threads']",)),
        ("correlate", lambda c: c["ensemble"].update(batch_size=0),
         ("ensemble: unknown keys ['batch_size']",)),
        ("correlate", lambda c: c["correlator"].update(block_size=1),
         ("correlator.block_size",)),
        ("correlate --threads 0", lambda c: None, ("--threads",)),
        ("correlate", lambda c: (c["ensemble"].update(seed=2**64 - 1),
                                 c["correlator"].update(mode="mc", block_size=100)),
         ("seed 18446744073709551615", "seed + 1")),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100,
                                                       max_lag_us=1e308),
         ("correlator.max_lag_us must be positive and a finite number",)),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100,
                                                       max_lag_us=-1e308),
         ("correlator.max_lag_us must be positive and a finite number",)),
        ("correlate", lambda c: c["correlator"].update(t_skip_us=-1.0),
         ("correlator.t_skip_us must be >= 0",)),
        ("simulate", lambda c: c["correlator"].update(t_skip_us=-1.0),
         ("correlator.t_skip_us must be >= 0",)),
        ("correlate", lambda c: c["detectors"][0].update(phi_a_deg=95.0),
         ("detectors[0]", "phi_a_deg must lie in (-90, 90)")),
        ("correlate", lambda c: c["detectors"][0].update(phi_a_deg=1e308),
         ("detectors[0]", "phi_a_deg must lie in (-90, 90)")),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100,
                                                       lag_step_us=0.5),
         ("correlator.lag_step_us 0.5 must equal grid.dt_us x grid.decimate",)),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100,
                                                       max_lag_us=0.01),
         ("correlator.max_lag_us: 0.01 rounds to no lag",)),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100, t_skip_us=2.5),
         ("correlator.t_skip_us / correlator.t_avg_us: no samples in the first-time window",)),
        ("correlate", lambda c: c["correlator"].update(mode="mc", block_size=100, t_avg_us=1.0),
         ("correlator.t_skip_us / correlator.t_avg_us: record too short",)),
        ("calibrate", lambda c: c["ensemble"].update(n_traj=1),
         ("ensemble.n_traj", "two or more trajectories")),
    ], ids=["no-detectors", "axis-shape", "axis-unit", "tau_m", "no-tau", "tau_min", "eta",
            "phi_a-90", "dt", "duration", "decimate", "n_traj", "gamma", "gamma-below-gamma_m",
            "segment-matrix",
            "segment-interval", "segment-abut", "index-range", "mode", "t_avg",
            "initial_state-shape", "initial_state-norm", "segments-beside-rabi", "analytic-axis",
            "analytic-segments", "calibrate-segments", "seed-huge", "seed-negative",
            "threads-zero", "batch_size-zero", "block_size-one", "threads-flag-zero",
            "pair-seed-last", "max_lag-mc-huge", "max_lag-mc-minus-huge",
            "t_skip-negative-correlate", "t_skip-negative-simulate", "phi_a-95", "phi_a-huge",
            "lag_step-mc", "max_lag-mc-below-step", "t_skip-mc-past-record",
            "t_avg-mc-to-record-end", "calibrate-one-traj"])
    def test_validation_rule_names_section_and_field(self, tmp_path, capsys, command, mutate,
                                                     names):
        cfg = base_config()
        mutate(cfg)
        assert main([*command.split(), "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("command", ["correlate", "simulate", "calibrate"])
    @pytest.mark.parametrize("n_traj", [1e308, MAX_RECORD_VALUES // 30 + 1])
    def test_record_bound_names_n_traj(self, tmp_path, capsys, command, n_traj):
        """Records past MAX_RECORD_VALUES are refused at load; both configs
        hold 1 detector x 30 samples per trajectory."""
        if command == "calibrate":
            cfg = calibrate_config()
            cfg["grid"].update(duration_us=1.2)
        else:
            cfg = base_config()
            cfg["correlator"].update(mode="mc", block_size=100)
        cfg["ensemble"]["n_traj"] = n_traj
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.out")]) == 2
        err = capsys.readouterr().err
        assert f"ensemble.n_traj: records of 30 values each allow at most " \
               f"{MAX_RECORD_VALUES // 30} trajectories" in err, err

    def test_record_bound_comes_before_the_mc_window_rules(self, tmp_path, capsys):
        """A 1e9 us grid (2.5e11 steps) fails the record bound; the window
        rules, which build the acquisition times, are not run on it."""
        cfg = json.loads((CONFIGS / "rabi_70deg_mc.json").read_text())
        cfg["grid"]["duration_us"] = 1e9
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "ensemble.n_traj: records of 25000000000 values each allow at most 0" in err, err

    def test_record_bound_admits_criterion_3b(self, tmp_path):
        cfg = base_config()
        cfg["ensemble"]["n_traj"] = 4_000_000
        assert load_config(write_config(tmp_path, cfg)).ensemble.n_traj == 4_000_000

    def test_simulate_refuses_non_finite_records(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ensemble"]["n_traj"] = 20
        cfg["detectors"][0]["response"] = 1e308
        out = tmp_path / "run.cqm"
        with np.errstate(over="ignore"):
            assert main(["simulate", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 3
        assert "non-finite value in the records" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "correlate", "calibrate"])
    def test_non_finite_records_end_every_mc_command(self, tmp_path, command):
        """A response that overflows the raw-units map exits 3 with the
        records diagnostic before any estimator runs, and without a numpy
        warning, also from a worker thread."""
        cfg = calibrate_config() if command == "calibrate" else base_config()
        if command == "correlate":
            cfg["correlator"].update(mode="mc", block_size=100)
        cfg["detectors"][0]["response"] = 1e308
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "cqmcorr.cli", command, "--config",
             write_config(tmp_path, cfg), "--threads", "2", "--out", str(tmp_path / "o.out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == ("diagnostic: non-finite value in the records; "
                               "check detectors[].response and offset\n")
        assert not (tmp_path / "o.out").exists()

    @pytest.mark.parametrize("command", ["simulate", "correlate", "calibrate"])
    def test_huge_records_end_every_mc_command(self, tmp_path, capsys, command):
        """Finite records whose sums overflow exit 3 before any estimator runs."""
        cfg = calibrate_config() if command == "calibrate" else base_config()
        if command == "correlate":
            cfg["correlator"].update(mode="mc", block_size=100)
        cfg["detectors"][0]["offset"] = 1e308
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.out")]) == 3
        assert ("raw record value 1e+308 is so large that a sum of the records' squares can "
                "overflow") in capsys.readouterr().err
        assert not (tmp_path / "o.out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_records_that_overflow_give_a_non_finite_csv(self, tmp_path, capsys):
        """A tiny response leaves the raw records small but scales their
        offset-removed values past float range; the products overflow and the
        CSV check exits 3 without a numpy warning."""
        cfg = base_config()
        cfg["correlator"].update(mode="mc", block_size=100)
        cfg["detectors"][0].update(response=1e-300, offset=0.3)
        out = tmp_path / "o.csv"
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "diagnostic: non-finite value in the correlator output\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--seed"), ("correlate", "--seed"), ("calibrate", "--seed"),
        ("fit-phase", "--seed"), ("fit-phase", "--threads"),
    ])
    def test_dropped_flag_is_rejected(self, tmp_path, capsys, command, flag):
        """The seed lives only in ensemble.seed; fit-phase runs no trajectories."""
        cfg = calibrate_config() if command == "calibrate" else base_config()
        path = write_config(tmp_path, cfg)
        argv = [command, "--config", path, flag, "2", "--out", str(tmp_path / "o")]
        if command == "fit-phase":
            dk = tmp_path / "dk.csv"
            assert main(["correlate", "--config", path, "--out", str(dk)]) == 0
            argv += ["--dk", str(dk)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_grid_steps_checked_at_load(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        dk = tmp_path / "dk.csv"
        assert main(["correlate", "--config", path, "--out", str(dk)]) == 0
        bad = base_config()
        bad["grid"]["duration_us"] = 1.2342
        assert main(["fit-phase", "--config", write_config(tmp_path, bad, "bad.json"),
                     "--dk", str(dk), "--out", str(tmp_path / "fit.json")]) == 2
        err = capsys.readouterr().err
        assert "grid: grid.duration_us 1.2342 is not a whole number of steps" in err

    def test_decimate_checked_at_load(self, tmp_path, capsys):
        """610 steps of the sample config in blocks of 7."""
        cfg = json.loads((CONFIGS / "rabi_70deg_analytic.json").read_text())
        cfg["grid"]["decimate"] = 7
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "grid.decimate 7 does not divide the 610 steps" in capsys.readouterr().err

    def test_non_finite_csv_is_diagnostic(self, tmp_path, capsys):
        # the collapse recipe's propagators over a 1e300 us window come out NaN
        cfg = base_config()
        cfg["correlator"].update(mode="gcr", t_avg_us=1e300)
        out = tmp_path / "o.csv"
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_closed_form_is_diagnostic(self, tmp_path):
        cfg = base_config()
        cfg["evolution"]["gamma_per_us"] = 1e308
        assert main(["correlate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_overdamped_closed_form_is_diagnostic(self, tmp_path):
        cfg = base_config()
        cfg["evolution"] = {"gamma_per_us": 8.0, "rabi_mhz": 1.0 / (2.0 * math.pi)}
        path = write_config(tmp_path, cfg)
        assert main(["correlate", "--config", path,
                     "--out", str(tmp_path / "o.csv")]) == 3

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_console_entry_point(self, tmp_path):
        """The installed script wires to main()."""
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from cqmcorr.cli import main; sys.exit(main())",
                               ], input="", capture_output=True, text=True)
        assert proc.returncode == 2  # argparse: no command given
