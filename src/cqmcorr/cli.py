"""Command line interface.

Subcommands (all take --config JSON; --seed/--threads override the config):

* ``simulate``: run a trajectory ensemble, write the raw-record archive.
* ``correlate``: paired first-time-averaged correlator (the configured
  initial state and its antipode) to CSV, by Monte Carlo records, the
  collapse recipe, or the closed form, per ``correlator.mode``.
* ``calibrate``: eigenstate-preparation ensembles, then the response,
  measurement time, and efficiency estimates as JSON.
* ``fit-phase``: recover the quadrature angle from a correlate CSV.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
diagnostic failure, 4 file I/O failure.

CSV output is byte-stable for a fixed config and seed: a comment line with
the canonical config digest, a fixed header, then %.12g-formatted rows
``tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK`` (error columns are 0
for the deterministic modes).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from .analytic import RabiCaseParams, c_factor, fit_phase_angle, k_analytic_averaged
from .calibration import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_RESPONSE_FIT_WINDOW,
    CalibrationRun,
    estimate_correlator,
    estimate_response,
    estimate_tau_m,
)
from .core import (
    ConfigError,
    DetectorModel,
    DiagnosticError,
    EnsembleGenerator,
    TimeGrid,
    rabi_rad_per_us,
    validate_experiment,
)
from .ensemble import dephasing_matrix, rabi_dephasing_generator
from .gcr import correlator_time_averaged
from .trajectory import DEFAULT_BATCH_SIZE, EnsembleArchive, NoisePlan, run_ensemble

CSV_HEADER = "tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK"

# default integration step: the fastest of the dephasing, Rabi, and collapse
# timescales, divided by this
DT_RESOLUTION = 250.0


def _no_extras(d: dict, allowed, ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    extras = sorted(set(d) - set(allowed))
    if extras:
        raise ConfigError(f"{ctx}: unknown keys {extras}")


_REQUIRED = object()


def _number(d: dict, key: str, ctx: str, default=_REQUIRED, *, integer: bool = False,
            vector: bool = False):
    """Numeric field ``key`` of section ``ctx``: a JSON number or, with
    ``vector``, a list (nested for matrices) of numbers, as float or, with
    ``integer``, int. Bools, strings, non-finite values, a list where a
    number belongs and the reverse, and non-integral values of integer
    fields raise ConfigError naming ``ctx.key``. An absent key, or null
    where the default is None, gives the default."""
    name = f"{ctx}.{key}"
    if key not in d or (d[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"{ctx}: missing {key}")
        return default
    if isinstance(d[key], list) != vector:
        raise ConfigError(f"{name} must be {'a list' if vector else 'a single number'}, "
                          f"got {d[key]!r}")

    def convert(v):
        if isinstance(v, list):
            return [convert(x) for x in v]
        finite = not isinstance(v, float) or math.isfinite(v)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not finite:
            raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}, "
                              f"got {v!r}")
        if not integer:
            return float(v)
        if isinstance(v, float) and not v.is_integer():
            raise ConfigError(f"{name} must be an integer, got {v!r}")
        return int(v)

    return convert(d[key])


@dataclasses.dataclass
class DetectorConfig:
    axis: list
    phi_a_deg: float = 0.0
    tau_min_us: float | None = None
    tau_m_us: float | None = None
    eta: float = 1.0
    response: float = 1.0
    offset: float = 0.0

    @classmethod
    def from_dict(cls, d: dict, ctx: str) -> "DetectorConfig":
        _no_extras(d, ("axis", "phi_a_deg", "tau_min_us", "tau_m_us", "eta",
                       "response", "offset"), ctx)
        axis = _number(d, "axis", ctx, vector=True)
        if "tau_min_us" not in d and "tau_m_us" not in d:
            raise ConfigError(f"{ctx}: need tau_min_us or tau_m_us")
        return cls(axis=axis, phi_a_deg=_number(d, "phi_a_deg", ctx, 0.0),
                   tau_min_us=_number(d, "tau_min_us", ctx, None),
                   tau_m_us=_number(d, "tau_m_us", ctx, None),
                   eta=_number(d, "eta", ctx, 1.0), response=_number(d, "response", ctx, 1.0),
                   offset=_number(d, "offset", ctx, 0.0))


@dataclasses.dataclass
class SegmentConfig:
    matrix: list
    r_st: list
    t_start_us: float
    t_end_us: float

    @classmethod
    def from_dict(cls, d: dict, ctx: str) -> "SegmentConfig":
        _no_extras(d, ("matrix", "r_st", "t_start_us", "t_end_us"), ctx)
        return cls(matrix=_number(d, "matrix", ctx, vector=True),
                   r_st=_number(d, "r_st", ctx, [0.0, 0.0, 0.0], vector=True),
                   t_start_us=_number(d, "t_start_us", ctx),
                   t_end_us=_number(d, "t_end_us", ctx))


@dataclasses.dataclass
class EvolutionConfig:
    gamma_per_us: float = 0.0
    omega_r_rad_per_us: float | None = None
    rabi_mhz: float | None = None
    segments: list | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "EvolutionConfig":
        _no_extras(d, ("gamma_per_us", "omega_r_rad_per_us", "rabi_mhz", "segments"),
                   "evolution")
        if d.get("omega_r_rad_per_us") is not None and d.get("rabi_mhz") is not None:
            raise ConfigError("evolution: give omega_r_rad_per_us or rabi_mhz, not both")
        segments = None
        if d.get("segments") is not None:
            if not isinstance(d["segments"], list):
                raise ConfigError("evolution.segments must be a list")
            segments = [SegmentConfig.from_dict(s, f"evolution.segments[{i}]")
                        for i, s in enumerate(d["segments"])]
        return cls(gamma_per_us=_number(d, "gamma_per_us", "evolution", 0.0),
                   omega_r_rad_per_us=_number(d, "omega_r_rad_per_us", "evolution", None),
                   rabi_mhz=_number(d, "rabi_mhz", "evolution", None), segments=segments)

    @property
    def omega_r(self) -> float:
        if self.omega_r_rad_per_us is not None:
            return float(self.omega_r_rad_per_us)
        if self.rabi_mhz is not None:
            return rabi_rad_per_us(float(self.rabi_mhz))
        return 0.0


@dataclasses.dataclass
class GridConfig:
    duration_us: float
    dt_us: float | None = None
    t0_us: float = 0.0
    decimate: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        _no_extras(d, ("duration_us", "dt_us", "t0_us", "decimate"), "grid")
        return cls(duration_us=_number(d, "duration_us", "grid"),
                   dt_us=_number(d, "dt_us", "grid", None),
                   t0_us=_number(d, "t0_us", "grid", 0.0),
                   decimate=_number(d, "decimate", "grid", 1, integer=True))


@dataclasses.dataclass
class EnsembleConfig:
    n_traj: int = 1
    seed: int = 0
    batch_size: int = DEFAULT_BATCH_SIZE
    threads: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleConfig":
        _no_extras(d, ("n_traj", "seed", "batch_size", "threads"), "ensemble")
        return cls(n_traj=_number(d, "n_traj", "ensemble", 1, integer=True),
                   seed=_number(d, "seed", "ensemble", 0, integer=True),
                   batch_size=_number(d, "batch_size", "ensemble", DEFAULT_BATCH_SIZE,
                                      integer=True),
                   threads=_number(d, "threads", "ensemble", 1, integer=True))


@dataclasses.dataclass
class CorrelatorConfig:
    mode: str = "mc"
    t_skip_us: float = 0.0
    t_avg_us: float | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    max_lag_us: float | None = None
    lag_step_us: float | None = None
    times: list | None = None
    detector_indices: list | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "CorrelatorConfig":
        _no_extras(d, ("mode", "t_skip_us", "t_avg_us", "block_size", "max_lag_us",
                       "lag_step_us", "times", "detector_indices"), "correlator")
        ctx = "correlator"
        return cls(mode=d.get("mode", "mc"), t_skip_us=_number(d, "t_skip_us", ctx, 0.0),
                   t_avg_us=_number(d, "t_avg_us", ctx, None),
                   block_size=_number(d, "block_size", ctx, DEFAULT_BLOCK_SIZE, integer=True),
                   max_lag_us=_number(d, "max_lag_us", ctx, None),
                   lag_step_us=_number(d, "lag_step_us", ctx, None),
                   times=_number(d, "times", ctx, None, vector=True),
                   detector_indices=_number(d, "detector_indices", ctx, None, integer=True,
                                            vector=True))


@dataclasses.dataclass
class CalibrateConfig:
    fit_window_us: float = DEFAULT_RESPONSE_FIT_WINDOW

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrateConfig":
        _no_extras(d, ("fit_window_us",), "calibrate")
        return cls(fit_window_us=_number(d, "fit_window_us", "calibrate",
                                         DEFAULT_RESPONSE_FIT_WINDOW))


@dataclasses.dataclass
class ExperimentConfig:
    detectors: list
    evolution: EvolutionConfig
    grid: GridConfig | None
    ensemble: EnsembleConfig
    correlator: CorrelatorConfig
    calibrate: CalibrateConfig
    initial_state: list
    digest: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _no_extras(raw, ("detectors", "evolution", "grid", "ensemble", "correlator",
                         "calibrate", "initial_state"), "config")
        if not isinstance(raw.get("detectors", []), list):
            raise ConfigError("detectors must be a list")
        detectors = [DetectorConfig.from_dict(d, f"detectors[{i}]")
                     for i, d in enumerate(raw.get("detectors", []))]
        digest = hashlib.sha256(
            json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        return cls(
            detectors=detectors,
            evolution=EvolutionConfig.from_dict(raw.get("evolution", {})),
            grid=GridConfig.from_dict(raw["grid"]) if "grid" in raw else None,
            ensemble=EnsembleConfig.from_dict(raw.get("ensemble", {})),
            correlator=CorrelatorConfig.from_dict(raw.get("correlator", {})),
            calibrate=CalibrateConfig.from_dict(raw.get("calibrate", {})),
            initial_state=_number(raw, "initial_state", "config", [0.0, 0.0, 1.0],
                                  vector=True),
            digest=digest,
        )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    config = ExperimentConfig.from_dict(raw)
    problems = validate_experiment(config)
    if problems:
        raise ConfigError(f"{path}: invalid config:\n  " + "\n  ".join(problems))
    return config


def build_detector(dc: DetectorConfig) -> DetectorModel:
    if dc.tau_min_us is not None:
        return DetectorModel.from_quadrature_angle(
            axis=dc.axis, tau_min=float(dc.tau_min_us), phi_a_deg=dc.phi_a_deg,
            eta=dc.eta, response=dc.response, offset=dc.offset,
            tau_m=None if dc.tau_m_us is None else float(dc.tau_m_us))
    return DetectorModel(axis=dc.axis, tau_m=float(dc.tau_m_us),
                         k_phase=math.tan(math.radians(dc.phi_a_deg)),
                         eta=dc.eta, response=dc.response, offset=dc.offset)


def build_segments(config: ExperimentConfig):
    evo = config.evolution
    if evo.segments:
        return tuple(
            EnsembleGenerator(matrix=np.asarray(s.matrix, dtype=np.float64),
                              r_st=np.asarray(s.r_st, dtype=np.float64),
                              t_start=s.t_start_us, t_end=s.t_end_us)
            for s in evo.segments)
    return (rabi_dephasing_generator(evo.gamma_per_us, evo.omega_r),)


def default_dt(config: ExperimentConfig, detectors) -> float:
    scales = []
    if config.evolution.gamma_per_us > 0:
        scales.append(1.0 / config.evolution.gamma_per_us)
    if config.evolution.omega_r != 0:
        scales.append(2.0 * math.pi / abs(config.evolution.omega_r))
    for det in detectors:
        scales.append(det.tau_m / (1.0 + det.k_phase**2))
    if not scales:
        raise ConfigError("grid.dt_us required: no timescale to derive it from")
    return min(scales) / DT_RESOLUTION


def build_grid(config: ExperimentConfig, detectors) -> TimeGrid:
    gc = config.grid
    if gc is None:
        raise ConfigError("config needs a grid section for this command")
    dt = gc.dt_us if gc.dt_us is not None else default_dt(config, detectors)
    n_steps = int(round(gc.duration_us / dt))
    if n_steps < 1 or abs(n_steps * dt - gc.duration_us) > 1e-6 * gc.duration_us:
        raise ConfigError(
            f"grid duration {gc.duration_us} is not a whole number of steps of dt {dt}")
    return TimeGrid(t0=gc.t0_us, dt=dt, n_steps=n_steps)


def _run_pair(config: ExperimentConfig, detectors, segments, grid, seed: int,
              threads: int) -> tuple[EnsembleArchive, EnsembleArchive]:
    """Two ensembles: the configured initial state and its antipode, on
    disjoint noise streams (seed and seed + 1)."""
    r0 = np.asarray(config.initial_state, dtype=np.float64)
    ens = config.ensemble
    common = dict(grid=grid, detectors=detectors, segments=segments,
                  threads=threads, batch_size=ens.batch_size,
                  decimate=config.grid.decimate, config_digest=config.digest)
    plus = run_ensemble(ens.n_traj, NoisePlan(seed), r0, **common)
    minus = run_ensemble(ens.n_traj, NoisePlan(seed + 1), -r0, **common)
    return plus, minus


def _write_csv(out, config: ExperimentConfig, seed, lags, kp, ep, km, em) -> None:
    dk = kp - km
    edk = np.sqrt(ep**2 + em**2)
    lines = [f"# config sha256 {config.digest} seed {seed}", CSV_HEADER]
    for row in zip(lags, kp, ep, km, em, dk, edk):
        lines.append(",".join(f"{v:.12g}" for v in row))
    _emit(out, "\n".join(lines) + "\n")


def _write_json(out, report: dict) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise DiagnosticError(f"non-finite value in the report: {err}") from None
    _emit(out, text)


def _emit(out, text: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _lag_grid(config: ExperimentConfig, grid: TimeGrid) -> np.ndarray:
    corr = config.correlator
    step = corr.lag_step_us if corr.lag_step_us is not None else grid.dt * config.grid.decimate
    if corr.max_lag_us is None:
        raise ConfigError("correlator.max_lag_us required for deterministic modes")
    n = int(round(corr.max_lag_us / step))
    if n < 1:
        raise ConfigError("correlator.max_lag_us below one lag step")
    return step * np.arange(1, n + 1)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    detectors = tuple(build_detector(d) for d in config.detectors)
    segments = build_segments(config)
    grid = build_grid(config, detectors)
    seed = args.seed if args.seed is not None else config.ensemble.seed
    threads = args.threads if args.threads is not None else config.ensemble.threads
    archive = run_ensemble(config.ensemble.n_traj, NoisePlan(seed),
                           np.asarray(config.initial_state, dtype=np.float64),
                           grid, detectors, segments, threads=threads,
                           batch_size=config.ensemble.batch_size,
                           decimate=config.grid.decimate, config_digest=config.digest)
    archive.save(args.out)
    print(f"wrote {args.out}: {archive.n_traj} trajectories x {archive.n_detectors} "
          f"detectors x {archive.n_samples} samples, sha256 {archive.digest()}")
    return 0


def cmd_correlate(args) -> int:
    config = load_config(args.config)
    detectors = tuple(build_detector(d) for d in config.detectors)
    segments = build_segments(config)
    corr = config.correlator
    det_idx = (corr.detector_indices or [0])[0]
    if corr.t_avg_us is None:
        raise ConfigError("correlator.t_avg_us required")
    seed = args.seed if args.seed is not None else config.ensemble.seed
    threads = args.threads if args.threads is not None else config.ensemble.threads

    if corr.mode == "mc":
        if config.ensemble.n_traj < 2 * corr.block_size:
            raise ConfigError(
                f"correlator.block_size {corr.block_size} leaves fewer than two jackknife "
                f"blocks for ensemble.n_traj {config.ensemble.n_traj}; "
                "need n_traj >= 2 * block_size")
        grid = build_grid(config, detectors)
        plus, minus = _run_pair(config, detectors, segments, grid, seed, threads)
        delta_i = 2.0 * detectors[det_idx].response
        result = estimate_correlator(plus, delta_i, corr.t_avg_us, corr.t_skip_us,
                                     block_size=corr.block_size, archive_minus=minus,
                                     detector_index=det_idx, max_lag=corr.max_lag_us)
        _write_csv(args.out, config, seed, result.lags, result.values, result.errors,
                   result.values_minus, result.errors_minus)
        return 0

    grid = build_grid(config, detectors)
    lags = _lag_grid(config, grid)
    zeros = np.zeros_like(lags)
    r0 = np.asarray(config.initial_state, dtype=np.float64)
    if corr.mode == "gcr":
        kp = correlator_time_averaged(lags, detectors[det_idx], segments, r0,
                                      corr.t_skip_us, corr.t_avg_us).values
        km = correlator_time_averaged(lags, detectors[det_idx], segments, -r0,
                                      corr.t_skip_us, corr.t_avg_us).values
    elif corr.mode == "analytic":
        params = RabiCaseParams(gamma=config.evolution.gamma_per_us,
                                omega_r=config.evolution.omega_r,
                                k_phase=detectors[det_idx].k_phase,
                                x0=float(r0[0]), t_skip=corr.t_skip_us,
                                t_avg=corr.t_avg_us)
        kp = k_analytic_averaged(params, lags)
        km = k_analytic_averaged(dataclasses.replace(params, x0=-params.x0), lags)
    else:
        raise ConfigError(f"correlator.mode must be mc|gcr|analytic, got {corr.mode!r}")
    _write_csv(args.out, config, seed, lags, kp, zeros, km, zeros)
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    if len(config.detectors) != 1:
        raise ConfigError("calibrate expects exactly one detector")
    det = build_detector(config.detectors[0])
    gamma = config.evolution.gamma_per_us
    if config.evolution.omega_r != 0:
        raise ConfigError("calibrate runs without a drive; set the Rabi rate to 0")
    segments = (EnsembleGenerator(matrix=dephasing_matrix(det.axis, gamma),
                                  r_st=np.zeros(3)),)
    grid = build_grid(config, (det,))
    seed = args.seed if args.seed is not None else config.ensemble.seed
    threads = args.threads if args.threads is not None else config.ensemble.threads
    ens = config.ensemble
    common = dict(grid=grid, detectors=(det,), segments=segments, threads=threads,
                  batch_size=ens.batch_size, decimate=config.grid.decimate,
                  config_digest=config.digest)
    plus = run_ensemble(ens.n_traj, NoisePlan(seed), det.axis, **common)
    minus = run_ensemble(ens.n_traj, NoisePlan(seed + 1), -det.axis, **common)
    run = CalibrationRun(plus=plus, minus=minus)
    delta_i = estimate_response(run, fit_window=config.calibrate.fit_window_us)
    tau_m, eta = estimate_tau_m(run, delta_i, gamma=gamma if gamma > 0 else None)
    report = {
        "config_digest": config.digest,
        "delta_i": delta_i,
        "eta": eta,
        "gamma_per_us": gamma,
        "n_traj": ens.n_traj,
        "response": delta_i / 2.0,
        "seed": seed,
        "tau_m_us": tau_m,
    }
    _write_json(args.out, report)
    return 0


def cmd_fit_phase(args) -> int:
    config = load_config(args.config)
    corr = config.correlator
    if corr.t_avg_us is None:
        raise ConfigError("correlator.t_avg_us required to compute the window factor")
    rows = []
    with open(args.dk, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{args.dk}: expected header {CSV_HEADER!r}")
    for ln in lines[1:]:
        try:
            values = [float(v) for v in ln.split(",")]
        except ValueError:
            values = []
        if len(values) != 7:
            raise ConfigError(f"{args.dk}: malformed row {ln!r}")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{args.dk}: non-finite value in row {ln!r}")
        rows.append((values[0], values[5], values[6]))
    lags = np.array([r[0] for r in rows])
    dk = np.array([r[1] for r in rows])
    err = np.array([r[2] for r in rows])
    gamma = config.evolution.gamma_per_us
    omega_r = config.evolution.omega_r
    c = c_factor(gamma, corr.t_skip_us, corr.t_avg_us)
    fit = fit_phase_angle(lags, dk, err if np.all(err > 0) else None,
                          gamma=gamma, omega_r=omega_r, c=c)
    report = {
        "c_factor": c,
        "ci_deg": [math.degrees(fit.ci[0]), math.degrees(fit.ci[1])],
        "phi_a_deg": fit.phi_a_deg,
        "phi_a_rad": fit.phi_a,
        "tan_phi": fit.tan_phi,
        "tan_sigma": fit.tan_sigma,
    }
    _write_json(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqmcorr",
        description="Continuous qubit measurement: trajectories, correlators, calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out: bool):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override ensemble.seed")
        p.add_argument("--threads", type=int, default=None, help="override ensemble.threads")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("simulate", help="run an ensemble, write the record archive")
    common(p, needs_out=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="paired averaged correlator to CSV")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("calibrate", help="detector calibration from eigenstate records")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit-phase", help="fit the quadrature angle to a correlate CSV")
    common(p, needs_out=False)
    p.add_argument("--dk", required=True, help="CSV written by correlate")
    p.set_defaults(func=cmd_fit_phase)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DiagnosticError as err:
        print(f"diagnostic: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
