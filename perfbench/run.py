#!/usr/bin/env python3
"""cqmcorr benchmark: one workload per process, a closed loop of one client.

    python3 perfbench/run.py --workload mc_correlate --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it uses the checkout's
``src/`` and ``configs/``. Inputs are generated from the sample configs and
``--seed`` into ``.perfbench_out/``, which also receives a result file per
run and, with ``--trace 1``, a spans file. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the workload untraced and then traced for equal shares of the time,
adds one traced probe op of each other workload and a one-versus-two-thread
pair, and reports the per-layer metrics (see NOTES.md).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 3
TRACE_SETUP_REPS = 3
# shares of --seconds for the untraced and the traced phase of a traced run;
# the probes take the rest
TRACE_PHASE_SHARE = 0.3
TRACED_PHASES = ("traced", "probe", "speedup")
# thread counts of the speedup ops, in an order that balances drift
SPEEDUP_ORDER = (1, 2, 2, 1)
# err_dK that time_to_se_s asks for
TARGET_SE = 0.1

# A fresh interpreter imports the package and builds the first config the op
# loads, then prints the monotonic clock, which on Linux is shared between
# processes. Run with: python -c SETUP_CODE <src dir> <config>.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cqmcorr
from cqmcorr import cli
import_s = time.perf_counter() - t0
config = cli.load_config(sys.argv[2])
detectors = tuple(cli.build_detector(d) for d in config.detectors)
cli.build_segments(config)
cli.build_grid(config, detectors)
print(json.dumps({"done": time.monotonic(), "import_s": import_s}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_correlate", "calibrate", "recipe_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclasses.dataclass
class OpRecord:
    inputs: object
    phase: str
    op_id: int
    seconds: float
    codes: list
    output: object = None
    error: str | None = None
    problems: list = dataclasses.field(default_factory=list)


class Runner:
    """Runs ops one after another and keeps every record."""

    def __init__(self, workloads, tracer=None):
        self.workloads = workloads
        self.tracer = tracer
        self.records: list[OpRecord] = []

    def op(self, inputs, phase: str, threads: int | None = None) -> OpRecord:
        op_id = len(self.records)
        record = OpRecord(inputs, phase, op_id, 0.0, [])
        self.records.append(record)
        start = time.perf_counter()
        try:
            if self.tracer is not None and phase in TRACED_PHASES:
                record.codes, sweep = self.tracer.run_op(
                    op_id, self.workloads.run_op, inputs, threads)
            else:
                record.codes, sweep = self.workloads.run_op(inputs, threads)
            record.seconds = time.perf_counter() - start
            record.output = self.workloads.collect(inputs, sweep)
        except Exception:
            record.seconds = time.perf_counter() - start
            record.error = traceback.format_exc()
            print(record.error, file=sys.stderr)
        return record

    def loop(self, inputs, phase: str, seconds: float) -> list[float]:
        """Ops until ``seconds`` have passed; returns their op times."""
        deadline = time.perf_counter() + seconds
        times = []
        while True:
            times.append(self.op(inputs, phase).seconds)
            if time.perf_counter() >= deadline:
                return times

    def verify(self) -> int:
        """Check every output and the determinism of equal inputs; returns
        the number of failed ops. Ops on the same inputs must give the same
        output bytes whatever their thread count."""
        checked: dict = {}
        by_inputs = collections.defaultdict(list)
        for r in self.records:
            if r.output is not None:
                by_inputs[id(r.inputs)].append(r.output.digest)
        for r in self.records:
            if r.error is not None:
                continue
            if any(code != 0 for code in r.codes):
                r.problems.append(f"exit codes {r.codes}")
            key = (id(r.inputs), r.output.digest)
            if key not in checked:
                checked[key] = self.workloads.check(r.inputs, r.output)
            r.problems += checked[key]
            majority = collections.Counter(by_inputs[id(r.inputs)]).most_common(1)[0][0]
            if r.output.digest != majority:
                r.problems.append(f"output sha256 {r.output.digest[:12]} differs from "
                                  f"{majority[:12]} of the other ops on the same inputs")
        failed = [r for r in self.records if r.error is not None or r.problems]
        for r in failed:
            if r.problems:
                print(f"op {r.op_id} ({r.inputs.workload}, {r.phase}) failed: "
                      + "; ".join(r.problems), file=sys.stderr)
        return len(failed)


def measure_setup(config: Path, reps: int) -> tuple[list, list]:
    """Seconds from starting a fresh interpreter to the first config built,
    and the import time inside it, ``reps`` times."""
    setup, imports = [], []
    for _ in range(reps):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(result["done"] - start)
        imports.append(result["import_s"])
    return setup, imports


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "cqmcorr").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "git_commit": commit, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, runner, inputs, setup) -> tuple[dict, dict]:
    """(metrics for the result line, further figures for the report)."""
    times = [r.seconds for r in runner.records if r.phase == "timed"]
    p50 = statistics.median(times)
    tail, pct = stats.tail(times)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "op_s_p50": (p50, "s"),
               "op_s_tail": (tail, "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    extra = {"timed_ops": len(times), "tail_percentile": pct, "setup_reps": len(setup)}
    if inputs.traj_steps:
        extra["traj_steps_per_s"] = inputs.traj_steps * len(times) / sum(times)
    if args.workload == "mc_correlate":
        err = [statistics.median(checks.parse_csv(r.output.texts["mc.csv"])["err_dK"])
               for r in runner.records if r.output is not None and not r.problems]
        if err:
            extra["median_err_dK"] = statistics.median(err)
            extra["time_to_se_s"] = p50 * (extra["median_err_dK"] / TARGET_SE) ** 2
    return metrics, extra


def traced(args, workloads, runner, tracer, inputs, workdir) -> tuple[dict, dict]:
    import layers

    _, imports = measure_setup(inputs.setup_config, TRACE_SETUP_REPS)
    runner.op(inputs, "warmup")
    untraced = runner.loop(inputs, "untraced", TRACE_PHASE_SHARE * args.seconds)
    layers.instrument(tracer)
    try:
        traced_times = runner.loop(inputs, "traced", TRACE_PHASE_SHARE * args.seconds)
        for other in workloads.WORKLOADS:
            if other != args.workload:
                probe = workloads.make_inputs(other, ROOT, args.seed, workdir / other)
                # the first call of a layer in a process pays lazy imports
                runner.op(probe, "warmup")
                runner.op(probe, "probe")
        pair = workloads.make_inputs("mc_correlate", ROOT, args.seed, workdir / "speedup",
                                     n_traj=workloads.SPEEDUP_N_TRAJ)
        for threads in SPEEDUP_ORDER:
            runner.op(pair, "speedup", threads)
    finally:
        tracer.unpatch()

    ops = {r.op_id: (r.inputs.workload, r.phase) for r in runner.records}
    spanset = layers.SpanSet(tracer.spans, ops, args.workload)
    overhead = statistics.median(traced_times) - statistics.median(untraced)
    metrics = layers.per_layer_metrics(spanset, statistics.median(imports), overhead)
    extra = {"untraced_op_s_p50": statistics.median(untraced),
             "traced_op_s_p50": statistics.median(traced_times),
             "traced_ops": len(traced_times), "spans": len(tracer.spans),
             "self_ms_per_op": layers.self_time_summary(spanset),
             "metric_sources": spanset.sources}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": {str(k): v for k, v in ops.items()},
                   "summary": extra,
                   "fields": ["id", "name", "layer", "start_ns", "end_ns", "parent", "op",
                              "attrs"],
                   "spans": [dataclasses.astuple(s) for s in tracer.spans]}, fh)
    extra["spans_file"] = str(spans_path)
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqmcorr" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no cqmcorr source tree (src/cqmcorr and configs/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cqmcorr

    if not Path(cqmcorr.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cqmcorr from {cqmcorr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        inputs = workloads.make_inputs(args.workload, ROOT, args.seed, workdir)
        env = environment(args.seed)
        if args.trace:
            tracer = Tracer()
            runner = Runner(workloads, tracer)
            metrics, extra = traced(args, workloads, runner, tracer, inputs, workdir)
            failed = runner.verify()
        else:
            setup, _ = measure_setup(inputs.setup_config, SETUP_REPS)
            runner = Runner(workloads)
            runner.op(inputs, "warmup")
            runner.loop(inputs, "timed", args.seconds)
            failed = runner.verify()
            metrics, extra = end_to_end(args, runner, inputs, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.records)
    extra["fail_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "trace": args.trace,
                   "seconds": args.seconds, **result, "details": extra}, fh, indent=2)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"ops: {attempted} attempted, {failed} failed, fail_frac {extra['fail_frac']:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    for name, value in extra.items():
        if name != "fail_frac":
            print(f"  {name}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
