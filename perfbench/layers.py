"""Which public calls the traced run wraps, and the per-layer metrics taken
from their spans.

The layers are the package's modules. The wrapped names are the ones the
CLI path and the recipe sweep look up at call time, so a span sits at each
call into a layer. Per-call times are medians over the calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cqmcorr import NoisePlan, calibration, cli, ensemble, gcr, trajectory

from tracing import Tracer, coverage, layer_self_ns

def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _describe_run_ensemble(args, kwargs):
    grid = _arg(args, kwargs, 3, "grid")
    return {"n_traj": _arg(args, kwargs, 0, "n_traj"), "n_steps": grid.n_steps,
            "seed": _arg(args, kwargs, 1, "plan").seed,
            "n_det": len(_arg(args, kwargs, 4, "detectors")),
            "threads": kwargs.get("threads", 1),
            "batch_size": kwargs.get("batch_size", trajectory.DEFAULT_BATCH_SIZE),
            "decimate": kwargs.get("decimate", 1)}


def _describe_time_averaged(args, kwargs):
    # the library's own test for its one-segment shortcut
    lags, segments = np.asarray(args[0]), list(args[2])
    t_skip, t_avg = args[4], args[5]
    t_max = t_skip + t_avg + float(lags.max())
    return {"homogeneous": any(s.t_start <= t_skip and s.t_end >= t_max for s in segments)}


def _describe_propagator(args, kwargs):
    cache = _arg(args, kwargs, 3, "cache")
    before = None if cache is None else len(cache)
    # a call that adds to the expm cache computed at least one exponential
    return lambda: {"cold": cache is None or len(cache) > before}


PATCHES = (
    (cli, "load_config", "cli", None),
    (cli, "validate_experiment", "core", None),
    (cli, "build_detector", "cli", None),
    (cli, "build_segments", "cli", None),
    (cli, "build_grid", "cli", None),
    (cli, "run_ensemble", "trajectory", _describe_run_ensemble),
    (trajectory, "check_segments", "core", None),
    (cli, "estimate_correlator", "calibration", None),
    (cli, "estimate_response", "calibration", None),
    (cli, "estimate_tau_m", "calibration", None),
    (calibration, "integrate_traces", "calibration", None),
    (cli, "correlator_time_averaged", "gcr", _describe_time_averaged),
    (gcr, "correlator_recursive", "gcr", None),
    (gcr, "propagator", "ensemble", _describe_propagator),
    (ensemble, "check_segments", "core", None),
    (cli, "k_analytic_averaged", "analytic", None),
    (cli, "fit_phase_angle", "analytic", None),
)


def instrument(tracer: Tracer) -> None:
    for module, attr, layer, describe in PATCHES:
        tracer.patch(module, attr, layer, describe)


def replay_noise(seed: int, n_traj: int, n_steps: int, samples: int = 256):
    """Regenerate the noise of ``samples`` trajectories spread over the op's
    range: (median us per NoisePlan.normals(i, 1), which is one stream's
    set-up, and ns per further draw of NoisePlan.normals(i, n_steps))."""
    plan = NoisePlan(seed)
    one, full = [], []
    for i in np.linspace(0, n_traj - 1, samples).astype(int):
        t0 = time.perf_counter_ns()
        plan.normals(int(i), 1)
        t1 = time.perf_counter_ns()
        plan.normals(int(i), n_steps)
        t2 = time.perf_counter_ns()
        one.append(t1 - t0)
        full.append(t2 - t1)
    stream_ns = statistics.median(one)
    return stream_ns / 1e3, (statistics.median(full) - stream_ns) / max(n_steps - 1, 1)


class SpanSet:
    """Spans of one traced run, with the op each belongs to.

    A metric is taken from the run's own workload's traced ops when they
    reach the function; otherwise from the probe op of the metric's home
    workload, so every metric is present in every traced run. ``sources``
    records which."""

    def __init__(self, spans, ops: dict, workload: str):
        self.spans = spans
        self.ops = ops            # op id -> (workload, phase)
        self.workload = workload
        self.sources: dict = {}

    def own(self):
        return [s for s in self.spans if self.ops.get(s.op) == (self.workload, "traced")]

    def pick(self, metric: str, name: str, home: str, phases=("traced", "probe"), **attrs):
        """Spans called ``name`` with ``attrs``: from the run's own traced ops
        if any match, else from the ops of workload ``home`` in the later
        phases."""
        for phase in phases:
            workload = self.workload if phase == "traced" else home
            found = [s for s in self.spans
                     if s.name == name and self.ops.get(s.op) == (workload, phase)
                     and all(s.attrs.get(k) == v for k, v in attrs.items())]
            if found:
                self.sources[metric] = f"{workload} {phase}"
                return found
        raise LookupError(f"no {name} spans {attrs or ''} in the traced run")


NS_PER = {"ms": 1e6, "us": 1e3}

# per-call median time: metric -> (span name, home workload, span attrs, unit)
PER_CALL = {
    "calibration.estimate_correlator.ms": (
        "calibration.estimate_correlator", "mc_correlate", {}, "ms"),
    "calibration.integrate_traces.ms": ("calibration.integrate_traces", "calibrate", {}, "ms"),
    "calibration.estimate_response.ms": ("calibration.estimate_response", "calibrate", {}, "ms"),
    "calibration.estimate_tau_m.ms": ("calibration.estimate_tau_m", "calibrate", {}, "ms"),
    "gcr.correlator_time_averaged.ms.homogeneous": (
        "gcr.correlator_time_averaged", "recipe_fit", {"homogeneous": True}, "ms"),
    "gcr.correlator_time_averaged.ms.piecewise": (
        "gcr.correlator_time_averaged", "recipe_fit", {"homogeneous": False}, "ms"),
    "gcr.correlator_recursive.us": ("gcr.correlator_recursive", "recipe_fit", {}, "us"),
    "ensemble.propagator.us_cold": ("ensemble.propagator", "recipe_fit", {"cold": True}, "us"),
    "ensemble.propagator.us_warm": ("ensemble.propagator", "recipe_fit", {"cold": False}, "us"),
    "analytic.k_analytic_averaged.us": ("analytic.k_analytic_averaged", "recipe_fit", {}, "us"),
    "analytic.fit_phase_angle.us": ("analytic.fit_phase_angle", "recipe_fit", {}, "us"),
    "cli.load_config.ms": ("cli.load_config", "recipe_fit", {}, "ms"),
}


def per_layer_metrics(spanset: SpanSet, import_s: float, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    m = {}
    runs = spanset.pick("trajectory", "trajectory.run_ensemble", "mc_correlate", threads=1)
    steps = sum(s.attrs["n_traj"] * s.attrs["n_steps"] for s in runs)
    run_ns = sum(s.ns for s in runs) / steps
    first = runs[0].attrs
    stream_us, draw_ns = replay_noise(first["seed"], first["n_traj"], first["n_steps"])
    n_ops = len({s.op for s in runs})
    batch = min(first["batch_size"], first["n_traj"])
    m["trajectory.run_ensemble.ns_per_traj_step"] = (run_ns, "ns")
    m["trajectory.noise.stream_us"] = (stream_us, "us")
    m["trajectory.noise.ns_per_draw"] = (draw_ns, "ns")
    # derived: what the replayed noise does not account for
    m["trajectory.stepper.ns_per_traj_step"] = (
        run_ns - stream_us * 1e3 / first["n_steps"] - draw_ns, "ns")
    m["trajectory.traj_steps"] = (steps / n_ops, "count")
    # computed from array sizes: the raw Philox words and the normals of one batch
    m["trajectory.noise_batch_mb"] = (
        2 * batch * first["n_steps"] * first["n_det"] * 8 / 1e6, "MB")
    # computed: the decimated records an op keeps, both preparations
    m["trajectory.records_mb"] = (
        sum(s.attrs["n_traj"] * s.attrs["n_det"] * (s.attrs["n_steps"] // s.attrs["decimate"])
            for s in runs) * 8 / 1e6 / n_ops, "MB")
    by_threads = {t: sum(s.ns for s in spanset.pick(
        f"speedup_{t}t", "trajectory.run_ensemble", "mc_correlate", ("speedup",), threads=t))
        for t in (1, 2)}
    m["trajectory.speedup_2t"] = (by_threads[1] / by_threads[2], "x")

    for metric, (name, home, attrs, unit) in PER_CALL.items():
        spans = spanset.pick(metric, name, home, **attrs)
        m[metric] = (statistics.median(s.ns for s in spans) / NS_PER[unit], unit)
    m["cli.import_s"] = (import_s, "s")
    m["trace.span_coverage"] = (coverage(spanset.own()), "share")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def self_time_summary(spanset: SpanSet) -> dict:
    """Self time per layer in ms per op, over the run's own traced ops. Layer
    "op" is op time that no traced call covers."""
    own = spanset.own()
    n_ops = len({s.op for s in own}) or 1
    return {layer: ns / 1e6 / n_ops for layer, ns in sorted(layer_self_ns(own).items())}
