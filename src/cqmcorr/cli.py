"""Command line interface.

Subcommands (all take --config JSON; the noise seed is ``ensemble.seed``, and
the three that run trajectories take --threads, default 1):

* ``simulate``: run a trajectory ensemble, write the raw-record archive.
* ``correlate``: paired first-time-averaged correlator (the configured
  initial state and its antipode) to CSV, by Monte Carlo records, the
  collapse recipe, or the closed form, per ``correlator.mode``.
* ``calibrate``: eigenstate-preparation ensembles, then the response,
  measurement time, and efficiency estimates as JSON.
* ``fit-phase``: recover the quadrature angle from a correlate CSV.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
diagnostic failure, 4 file I/O failure. Every config rule, the subcommand's
and the ``--threads`` bound included, runs at load and all problems are
reported together; the commands only compute.

CSV output is byte-stable for a fixed config, whatever the thread count: a
comment line with the canonical config digest and seed, a fixed header, then
%.12g-formatted rows ``tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK``
(error columns are 0 for the deterministic modes).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
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
    first_time_window,
)
from .core import (
    AXIS_NORM_TOL,
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
from .trajectory import NoisePlan, RecordStream, run_ensemble, write_archive

CSV_HEADER = "tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK"

# most lags a deterministic route evaluates: far finer than any lag grid in
# use, far smaller than an array that exhausts memory
MAX_LAGS = 100_000
# most float64 values one ensemble's records may hold (2 GB): twice criterion
# 3b's 4e6 trajectories x 30 samples, far below an array numpy refuses
MAX_RECORD_VALUES = 250_000_000


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
                raise ConfigError(f"missing {name}")
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
    gamma_per_us: float | None = None
    rabi_mhz: float | None = None
    segments: list[SegmentConfig] | None = None

    @property
    def gamma(self) -> float:
        return 0.0 if self.gamma_per_us is None else self.gamma_per_us

    @property
    def omega_r(self) -> float:
        return 0.0 if self.rabi_mhz is None else rabi_rad_per_us(self.rabi_mhz)


@dataclasses.dataclass
class GridConfig:
    duration_us: float
    dt_us: float
    decimate: int = 1


@dataclasses.dataclass
class EnsembleConfig:
    n_traj: int = 1
    seed: int = 0


@dataclasses.dataclass
class CorrelatorConfig:
    mode: str = "mc"
    t_skip_us: float = 0.0
    t_avg_us: float | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    max_lag_us: float | None = None
    lag_step_us: float | None = None
    detector_index: int = 0


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


def load_config(path: str, command: str | None = None, threads: int = 1) -> ExperimentConfig:
    """The config at ``path``, checked against the rules of every command
    and, when given, those of the subcommand ``command``; a ``threads``
    below 1, the subcommand's ``--threads``, is reported with them."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}")
    config = _parse(ExperimentConfig, raw, "config")
    config.digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    problems = validate_experiment(config, command)
    if threads < 1:
        problems.append(f"--threads must be >= 1, got {threads}")
    if problems:
        raise ConfigError(f"{path}: invalid config:\n  " + "\n  ".join(problems))
    return config


def validate_experiment(config: ExperimentConfig, command: str | None = None) -> list[str]:
    """Every problem in a parsed config, each led by its JSON path; empty
    means valid. The value rules live in the model constructors: this
    builds each model and reports the ConfigError it raises. It checks
    directly the rules that no model holds, and those of the subcommand
    ``command`` when given."""
    problems = []

    def need(ok, problem: str) -> None:
        if not ok:
            problems.append(problem)

    def build(path: str, make):
        try:
            return make()
        except ConfigError as err:
            problems.append(f"{path}: {err}" if path else str(err))

    need(config.detectors, "detectors: none configured")
    detectors = []
    for i, dc in enumerate(config.detectors):
        if dc.tau_min_us is None and dc.tau_m_us is None:
            problems.append(f"detectors[{i}]: need tau_min_us or tau_m_us")
            detectors.append(None)
        else:
            detectors.append(build(f"detectors[{i}]", lambda: build_detector(dc)))

    evo = config.evolution
    generators = []
    need(not evo.segments or evo.gamma_per_us is None and evo.rabi_mhz is None,
         "evolution.segments: give segments or gamma_per_us and rabi_mhz, not both")
    if evo.gamma < 0:
        problems.append(f"evolution.gamma_per_us must be >= 0, got {evo.gamma_per_us!r}")
    elif not evo.segments:
        rabi = build("evolution", lambda: build_segments(config))
        generators.extend(("evolution", seg) for seg in rabi or ())
    segments = [build(f"evolution.segments[{j}]", lambda: _build_segment(s))
                for j, s in enumerate(evo.segments or ())]
    if segments and None not in segments:
        build("evolution.segments",
              lambda: check_segments(segments, segments[0].t_start, segments[-1].t_end))
    generators.extend((f"evolution.segments[{j}]", seg) for j, seg in enumerate(segments)
                      if seg is not None)
    if detectors and None not in detectors:
        for path, seg in generators:
            build(path, lambda: _check_measurement_dephasing(seg, detectors))

    gc = config.grid
    acquisition = None
    if gc is not None:
        positive = gc.duration_us > 0
        need(positive, f"grid.duration_us must be positive, got {gc.duration_us!r}")
        need(gc.decimate >= 1, f"grid.decimate must be >= 1, got {gc.decimate!r}")
        # build_grid divides by dt, so it runs only on a valid dt and duration
        if build("grid.dt_us", lambda: TimeGrid(dt=gc.dt_us, n_steps=1)) and positive:
            grid = build("grid", lambda: build_grid(config, ()))
            if grid is not None and gc.decimate >= 1:
                need(grid.n_steps % gc.decimate == 0,
                     f"grid.decimate {gc.decimate} does not divide the {grid.n_steps} steps")
                per_traj = max(len(config.detectors), 1) * max(grid.n_steps // gc.decimate, 1)
                fits = max(config.ensemble.n_traj, 1) * per_traj <= MAX_RECORD_VALUES
                need(fits, f"ensemble.n_traj: records of {per_traj} values each allow at most "
                     f"{MAX_RECORD_VALUES // per_traj} trajectories ({MAX_RECORD_VALUES} values)")
                if fits and grid.n_steps % gc.decimate == 0:
                    acquisition = grid.decimated(gc.decimate)
    ens = config.ensemble
    need(ens.n_traj >= 1, f"ensemble.n_traj must be >= 1, got {ens.n_traj!r}")
    plan = build("ensemble.seed", lambda: NoisePlan(ens.seed))

    corr = config.correlator
    need(corr.mode in ("mc", "gcr", "analytic"),
         f"correlator.mode must be mc|gcr|analytic, got {corr.mode!r}")
    need(corr.t_avg_us is None or corr.t_avg_us > 0,
         f"correlator.t_avg_us must be positive, got {corr.t_avg_us!r}")
    need(corr.t_skip_us >= 0, f"correlator.t_skip_us must be >= 0, got {corr.t_skip_us!r}")
    max_lag_ok = corr.max_lag_us is None
    if not max_lag_ok:
        dt = gc.dt_us if gc is not None and gc.dt_us > 0 else 1.0
        max_lag_ok = corr.max_lag_us > 0 and math.isfinite(corr.max_lag_us / dt)
        need(max_lag_ok, "correlator.max_lag_us must be positive and a finite number of "
             f"grid.dt_us steps, got {corr.max_lag_us!r}")
    if corr.mode == "mc" and acquisition is not None:
        # the Monte Carlo estimator's lags are the acquisition samples
        step = acquisition.dt
        need(corr.lag_step_us is None or abs(corr.lag_step_us - step) <= 1e-9 * step,
             f"correlator.lag_step_us {corr.lag_step_us!r} must equal grid.dt_us x "
             f"grid.decimate = {step!r} in mode mc")
        if (max_lag_ok and corr.t_avg_us is not None and corr.t_avg_us > 0
                and corr.t_skip_us >= 0):
            build(None, lambda: first_time_window(acquisition, corr.t_skip_us, corr.t_avg_us,
                                                  corr.max_lag_us))
    need(corr.block_size >= 2, f"correlator.block_size must be >= 2, got {corr.block_size!r}")
    need(0 <= corr.detector_index < max(len(config.detectors), 1),
         f"correlator.detector_index: detector index {corr.detector_index} out of range")
    if corr.mode == "analytic" and not evo.segments:
        # the closed form needs a +z detector; under the Rabi keys any other
        # axis also fails the dephasing check, so both are reported together
        det = detectors[corr.detector_index] if 0 <= corr.detector_index < len(detectors) else None
        need(det is None
             or np.allclose(det.axis, (0.0, 0.0, 1.0), rtol=0.0, atol=AXIS_NORM_TOL),
             f"detectors[{corr.detector_index}].axis: the closed form needs the +z axis; "
             "use mode gcr")
    build("initial_state", lambda: require_physical(config.initial_state))

    if command in ("simulate", "correlate", "calibrate"):
        need(gc is not None, f"grid: {command} needs a grid section")
    if command in ("correlate", "fit-phase"):
        need(corr.t_avg_us is not None, "correlator.t_avg_us required")
    if command == "calibrate" or command == "correlate" and corr.mode == "mc":
        need(plan is None or ens.seed + 1 < 2**64, f"ensemble.seed: seed {ens.seed}: the pair "
             "also uses seed + 1, which must fit in uint64")
    if command == "correlate" and corr.mode == "mc":
        need(corr.block_size < 2 or ens.n_traj >= 2 * corr.block_size,
             f"correlator.block_size {corr.block_size} leaves fewer than two jackknife blocks "
             f"for ensemble.n_traj {ens.n_traj}; need n_traj >= 2 * block_size")
    if command == "correlate" and corr.mode in ("gcr", "analytic"):
        need(corr.mode == "gcr" or not evo.segments,
             "evolution.segments: the closed form needs the Rabi model; use mode gcr")
        need(corr.max_lag_us is not None, "correlator.max_lag_us required for deterministic modes")
        # _lag_grid's step: lag_step_us, or else the acquisition step
        step = acquisition.dt if corr.lag_step_us is None and acquisition else corr.lag_step_us
        need(step is None or step > 0, f"correlator.lag_step_us must be positive, got {step!r}")
        if corr.max_lag_us is not None and max_lag_ok and step is not None and step > 0:
            n = corr.max_lag_us / step
            need(n <= MAX_LAGS, f"correlator.max_lag_us {corr.max_lag_us} over lag_step_us "
                 f"{step} gives more than {MAX_LAGS} lags")
            need(n > 0.5, "correlator.max_lag_us below one lag step")  # round(n) >= 1
    if command == "calibrate":
        need(len(config.detectors) == 1, "detectors: calibrate expects exactly one detector, "
             f"got {len(config.detectors)}")
        need(not evo.segments,
             "evolution.segments: calibrate builds its own generator from gamma_per_us")
        need(ens.n_traj >= 2, "ensemble.n_traj: calibrate needs two or more trajectories per "
             f"preparation for a variance, got {ens.n_traj}")
        need(evo.omega_r == 0, "evolution.rabi_mhz: calibrate runs without a drive; set it to 0 "
             f"or leave it out, got {evo.rabi_mhz!r}")
        # estimate_response fits the acquisition samples t_k = k dt <= fit_window_us
        w = config.calibrate.fit_window_us
        need(acquisition is None or acquisition.n_steps >= 3 and 2 * acquisition.dt <= w + 1e-9,
             f"calibrate.fit_window_us {w!r} covers fewer than 3 acquisition samples")
    return problems


def _check_measurement_dephasing(segment: EnsembleGenerator, detectors) -> None:
    """The trajectory SDE takes the generator to already hold every
    detector's measurement dephasing gamma_m (n n^T - 1). What is left,
    L - sum_ell gamma_m (n n^T - 1), must not grow any Bloch direction: its
    symmetric part may have no eigenvalue above round-off."""
    rest = segment.matrix - sum(dephasing_matrix(det.axis, det.gamma_m) for det in detectors)
    sym = 0.5 * rest + 0.5 * rest.T
    bound = 1e-12 * max(1.0, max(det.gamma_m for det in detectors))
    top = float(np.linalg.eigvalsh(sym)[-1]) if np.all(np.isfinite(sym)) else math.inf
    if not top <= bound:
        raise ConfigError(
            f"the generator lacks the detectors' measurement dephasing: L - sum gamma_m "
            f"(n n^T - 1) has a symmetric-part eigenvalue of {top:.3g}, above {bound:.3g}")


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
    return (rabi_dephasing_generator(evo.gamma, evo.omega_r),)


def build_grid(config: ExperimentConfig, detectors) -> TimeGrid:
    gc = config.grid
    if gc is None:
        raise ConfigError("config needs a grid section for this command")
    dt = gc.dt_us
    if not math.isfinite(gc.duration_us / dt):
        raise ConfigError(f"grid.duration_us {gc.duration_us} over dt {dt} is no finite step count")
    n_steps = int(round(gc.duration_us / dt))
    if n_steps < 1 or abs(n_steps * dt - gc.duration_us) > 1e-6 * gc.duration_us:
        raise ConfigError(
            f"grid.duration_us {gc.duration_us} is not a whole number of steps of dt {dt}")
    return TimeGrid(dt=dt, n_steps=n_steps)


def _run(config: ExperimentConfig, detectors, segments, grid, seed: int, threads: int,
         r0) -> RecordStream:
    """The configured ensemble from initial state ``r0`` on noise stream
    ``seed``, as a stream that runs when fed. Each slice of records is
    checked as it arrives: raw records that overflow the raw-units map, or
    pass sqrt(float max / record count of the whole run) so that a sum of
    their squares can overflow, end the run before any estimator sees
    them."""
    n_traj, decimate = config.ensemble.n_traj, config.grid.decimate
    acquisition = grid.decimated(decimate)
    bound = math.sqrt(sys.float_info.max / (n_traj * len(detectors) * acquisition.n_steps))

    def feed(consumer) -> None:
        def checked(records) -> None:
            peak = max(float(records.max()), -float(records.min()))
            if not math.isfinite(peak):
                raise DiagnosticError(
                    "non-finite value in the records; check detectors[].response and offset")
            if peak > bound:
                raise DiagnosticError(
                    f"raw record value {peak:.3g} is so large that a sum of the records' "
                    "squares can overflow; check detectors[].response and offset")
            consumer(records)

        run_ensemble(n_traj, NoisePlan(seed), r0, grid, detectors, segments, threads=threads,
                     decimate=decimate, consumer=checked)

    return RecordStream(grid=acquisition, seed=seed, n_traj=n_traj, n_detectors=len(detectors),
                        feed=feed, config_digest=config.digest)


def _write_csv(out, config: ExperimentConfig, lags, kp, ep, km, em) -> None:
    columns = (lags, kp, ep, km, em, kp - km, np.sqrt(ep**2 + em**2))
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise DiagnosticError("non-finite value in the correlator output")
    lines = [f"# config sha256 {config.digest} seed {config.ensemble.seed}", CSV_HEADER]
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
    return step * np.arange(1, round(corr.max_lag_us / step) + 1)


def cmd_simulate(args) -> int:
    config = load_config(args.config, "simulate", args.threads)
    detectors = tuple(build_detector(d) for d in config.detectors)
    segments = build_segments(config)
    grid = build_grid(config, detectors)
    records = _run(config, detectors, segments, grid, config.ensemble.seed, args.threads,
                   np.asarray(config.initial_state, dtype=np.float64))
    # written slice by slice to a side file that replaces the output only
    # once every record is in, so a failed run leaves no partial archive
    partial = f"{args.out}.partial"
    try:
        with open(partial, "wb") as fh:
            digest = write_archive(records, fh)
        os.replace(partial, args.out)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    print(f"wrote {args.out}: {records.n_traj} trajectories x {records.n_detectors} "
          f"detectors x {records.n_samples} samples, sha256 {digest}")
    return 0


def cmd_correlate(args) -> int:
    config = load_config(args.config, "correlate", args.threads)
    detectors = tuple(build_detector(d) for d in config.detectors)
    segments = build_segments(config)
    grid = build_grid(config, detectors)
    corr = config.correlator
    det = detectors[corr.detector_index]
    threads, seed = args.threads, config.ensemble.seed
    r0 = np.asarray(config.initial_state, dtype=np.float64)

    # the preparations r0 and -r0, the latter on noise seed + 1
    if corr.mode == "mc":
        def curve(r, seed):
            records = _run(config, detectors, segments, grid, seed, threads, r)
            result = estimate_correlator(records, 2.0 * det.response, corr.t_avg_us,
                                         corr.t_skip_us, block_size=corr.block_size,
                                         detector_index=corr.detector_index,
                                         max_lag=corr.max_lag_us)
            return result.lags, result.values, result.errors

        lags, kp, ep = curve(r0, seed)
        _, km, em = curve(-r0, seed + 1)
    else:
        lags = _lag_grid(config, grid)
        ep = em = np.zeros_like(lags)
        if corr.mode == "gcr":
            # both curves from one set of propagator stacks
            kp, km = correlator_time_averaged(lags, det, segments, np.stack((r0, -r0)),
                                              corr.t_skip_us, corr.t_avg_us).values
        else:
            kp, km = (k_analytic_averaged(RabiCaseParams(
                gamma=config.evolution.gamma, omega_r=config.evolution.omega_r,
                k_phase=det.k_phase, x0=float(r[0]), t_skip=corr.t_skip_us,
                t_avg=corr.t_avg_us), lags) for r in (r0, -r0))
    _write_csv(args.out, config, lags, kp, ep, km, em)
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config, "calibrate", args.threads)
    det = build_detector(config.detectors[0])
    gamma = config.evolution.gamma
    segments = build_segments(config)
    grid = build_grid(config, (det,))
    threads, seed = args.threads, config.ensemble.seed
    run = CalibrationRun(plus=_run(config, (det,), segments, grid, seed, threads, det.axis),
                         minus=_run(config, (det,), segments, grid, seed + 1, threads, -det.axis))
    delta_i = estimate_response(run, fit_window=config.calibrate.fit_window_us)
    if delta_i == 0 or not math.isfinite(delta_i):
        raise DiagnosticError(f"fitted pole separation delta_i {delta_i!r} is zero or "
                              "non-finite; check detectors[0].response")
    tau_m, eta = estimate_tau_m(run, delta_i, gamma=gamma)
    # the efficiency is 1/(2 gamma tau_min), tau_min = tau_m cos^2(phi_a):
    # estimate_tau_m's 1/(2 gamma tau_m) holds at phi_a = 0 only
    eta /= math.cos(math.radians(config.detectors[0].phi_a_deg)) ** 2
    report = {
        "config_digest": config.digest,
        "delta_i": delta_i,
        "eta": eta,
        "gamma_per_us": gamma,
        "n_traj": config.ensemble.n_traj,
        "response": delta_i / 2.0,
        "seed": config.ensemble.seed,
        "tau_m_us": tau_m,
    }
    _write_json(args.out, report)
    return 0


def _read_dk(path: str):
    """The tau_us, dK and err_dK columns of a correlate CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        try:
            values = [float(v) for v in ln.split(",")]
        except ValueError:
            values = []
        if len(values) != 7:
            raise ConfigError(f"{path}: malformed row {ln!r}")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{path}: non-finite value in row {ln!r}")
        rows.append((values[0], values[5], values[6]))
    return np.array(rows, dtype=np.float64).reshape(-1, 3).T.copy()


def _weights(path: str, lags: np.ndarray, err: np.ndarray) -> np.ndarray | None:
    """The err_dK column as the fit's error bars: None, an unweighted fit,
    if every error is zero, as the gcr and analytic modes write them. A
    negative error, or a zero among positive errors, is an error."""
    if not err.any():
        return None
    for rows, what in ((np.flatnonzero(err < 0), "negative"),
                       (np.flatnonzero(err == 0), "zero among positive errors")):
        if rows.size:
            i = int(rows[0])
            raise ConfigError(f"{path}: err_dK {float(err[i])!r} in data row {i + 1} "
                              f"(tau_us {float(lags[i])!r}) is {what}; the error bars "
                              "must be all positive or all zero")
    return err


def cmd_fit_phase(args) -> int:
    config = load_config(args.config, "fit-phase")
    corr = config.correlator
    lags, dk, err = _read_dk(args.dk)
    gamma, omega_r = config.evolution.gamma, config.evolution.omega_r
    c = c_factor(gamma, corr.t_skip_us, corr.t_avg_us)
    fit = fit_phase_angle(lags, dk, _weights(args.dk, lags, err),
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

    def common(p, needs_out: bool, threads: bool = True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="batch workers for the trajectories (default 1); each "
                                "draws its batches' noise on one helper thread")
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
    common(p, needs_out=False, threads=False)
    p.add_argument("--dk", required=True, help="CSV written by correlate")
    p.set_defaults(func=cmd_fit_phase)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each output is checked for non-finite values (exit 3), so numpy's
        # floating-point warnings would only repeat that on stderr
        with np.errstate(all="ignore"):
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
