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
    check_segments,
    rabi_rad_per_us,
    require_physical,
)
from .ensemble import dephasing_matrix, rabi_dephasing_generator
from .gcr import correlator_time_averaged
from .trajectory import DEFAULT_BATCH_SIZE, EnsembleArchive, NoisePlan, run_ensemble

CSV_HEADER = "tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK"

# default integration step: the fastest of the dephasing, Rabi, and collapse
# timescales, divided by this
DT_RESOLUTION = 250.0

# most lags a deterministic route evaluates: far finer than any lag grid in
# use, far smaller than an array that exhausts memory
MAX_LAGS = 100_000


def _no_extras(d: dict, allowed, ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    extras = sorted(set(d) - set(allowed))
    if extras:
        raise ConfigError(f"{ctx}: unknown keys {extras}")


def _number(v, name: str, integer: bool, depth: int):
    """Value ``v`` of the numeric field ``name``: a JSON number or, at
    ``depth`` > 0, lists nested that deep (rows of equal length) around
    numbers, as float or, with ``integer``, int. Bools, strings, non-finite
    values, wrong nesting and non-integral values of integer fields raise
    ConfigError naming the field."""
    if depth:
        if not isinstance(v, list):
            raise ConfigError(f"{name} must be a list, got {v!r}")
        rows = [_number(x, name, integer, depth - 1) for x in v]
        if depth > 1 and len({len(row) for row in rows}) > 1:
            raise ConfigError(f"{name} has rows of unequal length")
        return rows
    finite = not isinstance(v, float) or math.isfinite(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not finite:
        raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}, got {v!r}")
    if not integer:
        return float(v)
    if isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _parse(cls, d, ctx: str):
    """The config dataclass ``cls`` read from the JSON object ``d`` of
    section ``ctx``. A field's annotation gives its kind: ``str``, ``int``,
    ``float``, a config class (a nested section), or ``list[...]`` of any of
    these but ``str``. An absent key, or null where the default is None,
    gives the dataclass default; a field without one is required."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    _no_extras(d, [f.name for f in fields], ctx)
    values = {}
    for f in fields:
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        name, value = f"{ctx}.{f.name}", d.get(f.name)
        if value is None and (f.name not in d or default is None):
            if default is dataclasses.MISSING:
                raise ConfigError(f"{ctx}: missing {f.name}")
            values[f.name] = default
            continue
        kind = f.type.removesuffix(" | None")
        base, depth = kind.replace("list[", "").rstrip("]"), kind.count("list[")
        section = globals().get(base)
        path = f.name if ctx == "config" else name
        if base == "str" and not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        if depth and section is not None and not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        if section is None:
            values[f.name] = value if base == "str" else _number(value, name, base == "int", depth)
        elif depth:
            values[f.name] = [_parse(section, v, f"{path}[{i}]") for i, v in enumerate(value)]
        else:
            values[f.name] = _parse(section, value, path)
    return cls(**values)


@dataclasses.dataclass
class DetectorConfig:
    axis: list[float]
    phi_a_deg: float = 0.0
    tau_min_us: float | None = None
    tau_m_us: float | None = None
    eta: float = 1.0
    response: float = 1.0
    offset: float = 0.0


@dataclasses.dataclass
class SegmentConfig:
    matrix: list[list[float]]
    t_start_us: float
    t_end_us: float
    r_st: list[float] = (0.0, 0.0, 0.0)


@dataclasses.dataclass
class EvolutionConfig:
    gamma_per_us: float = 0.0
    omega_r_rad_per_us: float | None = None
    rabi_mhz: float | None = None
    segments: list[SegmentConfig] | None = None

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


@dataclasses.dataclass
class EnsembleConfig:
    n_traj: int = 1
    seed: int = 0
    batch_size: int = DEFAULT_BATCH_SIZE
    threads: int = 1


@dataclasses.dataclass
class CorrelatorConfig:
    mode: str = "mc"
    t_skip_us: float = 0.0
    t_avg_us: float | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    max_lag_us: float | None = None
    lag_step_us: float | None = None
    times: list[float] | None = None
    detector_indices: list[int] | None = None


@dataclasses.dataclass
class CalibrateConfig:
    fit_window_us: float = DEFAULT_RESPONSE_FIT_WINDOW


@dataclasses.dataclass
class ExperimentConfig:
    detectors: list[DetectorConfig] = dataclasses.field(default_factory=list)
    evolution: EvolutionConfig = dataclasses.field(default_factory=EvolutionConfig)
    grid: GridConfig | None = None
    ensemble: EnsembleConfig = dataclasses.field(default_factory=EnsembleConfig)
    correlator: CorrelatorConfig = dataclasses.field(default_factory=CorrelatorConfig)
    calibrate: CalibrateConfig = dataclasses.field(default_factory=CalibrateConfig)
    initial_state: list[float] = (0.0, 0.0, 1.0)
    # sha256 of the canonical JSON, set by load_config
    digest: str = dataclasses.field(default="", init=False)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    config = _parse(ExperimentConfig, raw, "config")
    config.digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    problems = validate_experiment(config)
    if problems:
        raise ConfigError(f"{path}: invalid config:\n  " + "\n  ".join(problems))
    return config


def validate_experiment(config: ExperimentConfig) -> list[str]:
    """Every problem in a parsed config, each led by its JSON path; empty
    means valid. The value rules live in the model constructors: this
    builds each model and reports the ConfigError it raises. It checks
    directly only the rules that no model holds."""
    problems = []

    def need(ok, problem: str) -> None:
        if not ok:
            problems.append(problem)

    def build(path: str, make):
        try:
            return make()
        except ConfigError as err:
            problems.append(f"{path}: {err}")

    need(config.detectors, "detectors: none configured")
    for i, dc in enumerate(config.detectors):
        if dc.tau_min_us is None and dc.tau_m_us is None:
            problems.append(f"detectors[{i}]: need tau_min_us or tau_m_us")
        else:
            build(f"detectors[{i}]", lambda: build_detector(dc))

    evo = config.evolution
    need(evo.omega_r_rad_per_us is None or evo.rabi_mhz is None,
         "evolution: give omega_r_rad_per_us or rabi_mhz, not both")
    if evo.gamma_per_us < 0:
        problems.append(f"evolution.gamma_per_us must be >= 0, got {evo.gamma_per_us!r}")
    elif not evo.segments:
        build("evolution", lambda: build_segments(config))
    segments = [build(f"evolution.segments[{j}]", lambda: _build_segment(s))
                for j, s in enumerate(evo.segments or ())]
    if segments and None not in segments:
        build("evolution.segments",
              lambda: check_segments(segments, segments[0].t_start, segments[-1].t_end))

    gc = config.grid
    if gc is not None:
        need(gc.duration_us > 0, f"grid.duration_us must be positive, got {gc.duration_us!r}")
        need(gc.decimate >= 1, f"grid.decimate must be >= 1, got {gc.decimate!r}")
        # build_grid also wants a whole number of steps, which only the
        # commands that run on the grid require
        if gc.dt_us is not None:
            build("grid.dt_us", lambda: TimeGrid(t0=gc.t0_us, dt=gc.dt_us, n_steps=1))
    need(config.ensemble.n_traj >= 1, f"ensemble.n_traj must be >= 1, got {config.ensemble.n_traj!r}")

    corr = config.correlator
    need(corr.mode in ("mc", "gcr", "analytic"),
         f"correlator.mode must be mc|gcr|analytic, got {corr.mode!r}")
    need(corr.t_avg_us is None or corr.t_avg_us > 0,
         f"correlator.t_avg_us must be positive, got {corr.t_avg_us!r}")
    times = corr.times or []
    need(all(t1 < t2 for t1, t2 in zip(times, times[1:])), "correlator.times not strictly ordered")
    for idx in corr.detector_indices or []:
        need(0 <= idx < max(len(config.detectors), 1),
             f"correlator.detector_indices: detector index {idx} out of range")
    build("initial_state", lambda: require_physical(config.initial_state))
    return problems


def build_detector(dc: DetectorConfig) -> DetectorModel:
    return DetectorModel.from_quadrature_angle(
        axis=dc.axis, tau_min=dc.tau_min_us, phi_a_deg=dc.phi_a_deg, eta=dc.eta,
        response=dc.response, offset=dc.offset, tau_m=dc.tau_m_us)


def _build_segment(s: SegmentConfig) -> EnsembleGenerator:
    return EnsembleGenerator(matrix=s.matrix, r_st=s.r_st, t_start=s.t_start_us, t_end=s.t_end_us)


def build_segments(config: ExperimentConfig):
    evo = config.evolution
    if evo.segments:
        return tuple(_build_segment(s) for s in evo.segments)
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
    if not math.isfinite(gc.duration_us / dt):
        raise ConfigError(f"grid.duration_us {gc.duration_us} over dt {dt} is no finite step count")
    n_steps = int(round(gc.duration_us / dt))
    if n_steps < 1 or abs(n_steps * dt - gc.duration_us) > 1e-6 * gc.duration_us:
        raise ConfigError(
            f"grid.duration_us {gc.duration_us} is not a whole number of steps of dt {dt}")
    return TimeGrid(t0=gc.t0_us, dt=dt, n_steps=n_steps)


def _seed_threads(args, config: ExperimentConfig) -> tuple[int, int]:
    """The --seed and --threads overrides, else the ensemble section's values."""
    ens = config.ensemble
    return (ens.seed if args.seed is None else args.seed,
            ens.threads if args.threads is None else args.threads)


def _run_pair(config: ExperimentConfig, detectors, segments, grid, seed: int, threads: int,
              r0) -> tuple[EnsembleArchive, EnsembleArchive]:
    """Two ensembles: initial state ``r0`` and its antipode, on disjoint
    noise streams (seed and seed + 1)."""
    ens = config.ensemble
    common = dict(grid=grid, detectors=detectors, segments=segments,
                  threads=threads, batch_size=ens.batch_size,
                  decimate=config.grid.decimate, config_digest=config.digest)
    plus = run_ensemble(ens.n_traj, NoisePlan(seed), r0, **common)
    minus = run_ensemble(ens.n_traj, NoisePlan(seed + 1), -r0, **common)
    return plus, minus


def _write_csv(out, config: ExperimentConfig, seed, lags, kp, ep, km, em) -> None:
    columns = (lags, kp, ep, km, em, kp - km, np.sqrt(ep**2 + em**2))
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise DiagnosticError("non-finite value in the correlator output")
    lines = [f"# config sha256 {config.digest} seed {seed}", CSV_HEADER]
    for row in zip(*columns):
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
    if not step > 0:
        raise ConfigError(f"correlator.lag_step_us must be positive, got {step!r}")
    n = corr.max_lag_us / step
    if not n <= MAX_LAGS:
        raise ConfigError(f"correlator.max_lag_us {corr.max_lag_us} over lag_step_us {step} "
                          f"gives more than {MAX_LAGS} lags")
    n = round(max(n, 0.0))
    if n < 1:
        raise ConfigError("correlator.max_lag_us below one lag step")
    return step * np.arange(1, n + 1)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    detectors = tuple(build_detector(d) for d in config.detectors)
    segments = build_segments(config)
    grid = build_grid(config, detectors)
    seed, threads = _seed_threads(args, config)
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
    seed, threads = _seed_threads(args, config)
    r0 = np.asarray(config.initial_state, dtype=np.float64)

    if corr.mode == "mc":
        if config.ensemble.n_traj < 2 * corr.block_size:
            raise ConfigError(
                f"correlator.block_size {corr.block_size} leaves fewer than two jackknife "
                f"blocks for ensemble.n_traj {config.ensemble.n_traj}; "
                "need n_traj >= 2 * block_size")
        grid = build_grid(config, detectors)
        plus, minus = _run_pair(config, detectors, segments, grid, seed, threads, r0)
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
    if corr.mode == "gcr":
        kp = correlator_time_averaged(lags, detectors[det_idx], segments, r0,
                                      corr.t_skip_us, corr.t_avg_us).values
        km = correlator_time_averaged(lags, detectors[det_idx], segments, -r0,
                                      corr.t_skip_us, corr.t_avg_us).values
    else:
        params = RabiCaseParams(gamma=config.evolution.gamma_per_us,
                                omega_r=config.evolution.omega_r,
                                k_phase=detectors[det_idx].k_phase,
                                x0=float(r0[0]), t_skip=corr.t_skip_us,
                                t_avg=corr.t_avg_us)
        kp = k_analytic_averaged(params, lags)
        km = k_analytic_averaged(dataclasses.replace(params, x0=-params.x0), lags)
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
    seed, threads = _seed_threads(args, config)
    plus, minus = _run_pair(config, (det,), segments, grid, seed, threads, det.axis)
    run = CalibrationRun(plus=plus, minus=minus)
    delta_i = estimate_response(run, fit_window=config.calibrate.fit_window_us)
    tau_m, eta = estimate_tau_m(run, delta_i, gamma=gamma if gamma > 0 else None)
    report = {
        "config_digest": config.digest,
        "delta_i": delta_i,
        "eta": eta,
        "gamma_per_us": gamma,
        "n_traj": config.ensemble.n_traj,
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
