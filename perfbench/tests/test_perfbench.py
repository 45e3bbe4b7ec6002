"""Tests of the benchmark itself, at toy sizes: the metrics it emits, its
output checks on corrupted outputs, and its span arithmetic."""

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, coverage, layer_self_ns, self_times  # noqa: E402


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Workloads shrunk to toy sizes; outputs go to a temporary directory."""
    monkeypatch.setattr(workloads, "MC_N_TRAJ", 256)
    monkeypatch.setattr(workloads, "SPEEDUP_N_TRAJ", 512)
    monkeypatch.setattr(workloads, "CALIBRATE_N_TRAJ", 400)
    monkeypatch.setattr(workloads, "SWEEP_LAGS_US", 0.04 * np.arange(1, 11))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "TRACE_SETUP_REPS", 1)
    monkeypatch.setattr(run, "SPEEDUP_ORDER", (1, 2))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def _bench_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                         "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(toy, workload):
    result = _bench_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    details = json.loads(
        (toy / f"result-{workload}-seed5-trace0.json").read_text())["details"]
    assert "fail_frac" in details
    if workload != "recipe_fit":
        assert details["traj_steps_per_s"] > 0
    if workload == "mc_correlate" and result["failed"] == 0:
        assert details["time_to_se_s"] > 0


def test_per_layer_metrics_emitted_with_units(toy):
    result = _bench_run("recipe_fit", 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    spans = json.loads((toy / "spans-recipe_fit-seed5.json").read_text())
    assert spans["spans"] and set(spans["summary"]["self_ms_per_op"]) >= {"gcr", "ensemble"}


def test_bare_directory_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "calibrate", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _csv_text(columns: dict) -> str:
    rows = zip(*(columns[c] for c in checks.CSV_COLUMNS))
    return "\n".join(["# test", checks.CSV_HEADER]
                     + [",".join(f"{v:.12g}" for v in row) for row in rows]) + "\n"


def test_mc_check_passes_on_reference_and_fails_on_corruption(toy):
    inputs = workloads.make_inputs("mc_correlate", ROOT, 1, toy)
    det, segs = workloads._model(inputs.configs["mc"])
    lags, ref_p, ref_m = workloads.mc_reference(inputs.raw["mc"], det, segs)
    ones = np.ones_like(lags)
    good = {"tau_us": lags, "K_plus": ref_p, "err_plus": ones, "K_minus": ref_m,
            "err_minus": ones, "dK": ref_p - ref_m, "err_dK": np.sqrt(2) * ones}

    def problems(columns=None, text=None):
        text = text if text is not None else _csv_text(columns)
        return workloads.check(inputs, workloads.Output("x", {"mc.csv": text}))

    assert problems(good) == []
    nan_row = _csv_text(good).splitlines()
    nan_row[5] = ",".join(["nan"] * 7)
    assert problems(text="\n".join(nan_row))
    off = dict(good, K_plus=ref_p + 3.5 * ones)
    assert problems(off)
    assert problems(dict(good, tau_us=lags + 0.01))
    assert problems(text="tau_us,K\n1,2\n")


def test_centroid_shift_matters(toy):
    """The reference is the recipe at the shifted centroids: an unshifted
    window gives other values."""
    inputs = workloads.make_inputs("mc_correlate", ROOT, 1, toy)
    det, segs = workloads._model(inputs.configs["mc"])
    lags, ref_p, _ = workloads.mc_reference(inputs.raw["mc"], det, segs)
    corr = inputs.raw["mc"]["correlator"]
    unshifted = workloads.correlator_time_averaged(
        lags, det, segs, (1.0, 0.0, 0.0), corr["t_skip_us"], corr["t_avg_us"]).values
    assert np.max(np.abs(unshifted - ref_p)) > 1e-3


def test_calibrate_check_fails_on_corruption(toy):
    inputs = workloads.make_inputs("calibrate", ROOT, 1, toy)
    det = inputs.raw["calibrate"]["detectors"][0]
    good = {"delta_i": 2.0 * det["response"], "tau_m_us": det["tau_min_us"], "eta": det["eta"]}

    def problems(report):
        return workloads.check(
            inputs, workloads.Output("x", {"calibrate.json": json.dumps(report)}))

    assert problems(good) == []
    assert problems(dict(good, tau_m_us=1.1 * good["tau_m_us"]))
    assert problems(dict(good, delta_i=1.04 * good["delta_i"]))
    assert problems(dict(good, eta=0.9 * good["eta"]))
    assert problems(dict(good, eta=float("nan")))
    assert problems({"delta_i": good["delta_i"]})
    assert workloads.check(inputs, workloads.Output("x", {"calibrate.json": "{"}))


def test_recipe_checks_pass_on_real_output_and_fail_on_corruption(toy):
    inputs = workloads.make_inputs("recipe_fit", ROOT, 1, toy)
    codes, sweep = workloads.run_op(inputs)
    assert codes == [0, 0, 0, 0]
    output = workloads.collect(inputs, sweep)
    assert workloads.check(inputs, output) == []

    def corrupted(name, edit):
        texts = dict(output.texts)
        texts[name] = edit(texts[name])
        return workloads.check(inputs, dataclasses.replace(output, texts=texts))

    def bump_first_value(text):
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    assert corrupted("gcr_rabi.csv", bump_first_value)
    assert corrupted("gcr_piecewise.csv", bump_first_value)
    assert corrupted("analytic.csv", lambda t: t.replace(t.splitlines()[3], "0.12,nan,0,1,0,1,0"))
    fit = json.loads(output.texts["fit.json"])
    assert corrupted("fit.json", lambda t: json.dumps(dict(fit, phi_a_deg=70.00001)))
    bad_sweep = sweep.copy()
    bad_sweep[1, 2, 0, 3] += 1e-7
    assert workloads.check(inputs, dataclasses.replace(output, sweep=bad_sweep))


class _FakeWorkloads:
    @staticmethod
    def check(inputs, output):
        return []


def test_determinism_mismatch_counts_as_failure():
    inputs = workloads.Inputs("mc_correlate", Path("."), {}, {}, 0)
    runner = run.Runner(_FakeWorkloads)
    for i, digest in enumerate(("a", "a", "b", "a")):
        runner.records.append(run.OpRecord(inputs, "timed", i, 1.0, [0],
                                           workloads.Output(digest, {})))
    assert runner.verify() == 1
    assert runner.records[2].problems


def _span(i, start, end, parent=None, layer="x", name="op"):
    return Span(i, name, layer, start, end, parent, 0, {})


def test_self_time_and_coverage_on_synthetic_tree():
    spans = [
        _span(0, 0, 100, layer="op"),
        _span(1, 10, 40, parent=0, layer="gcr", name="gcr.f"),
        _span(2, 20, 30, parent=1, layer="ensemble", name="ensemble.g"),
        _span(3, 25, 35, parent=1, layer="ensemble", name="ensemble.g"),
        _span(4, 50, 60, parent=0, layer="ensemble", name="ensemble.g"),
    ]
    assert self_times(spans) == {0: 60, 1: 15, 2: 10, 3: 10, 4: 10}
    assert layer_self_ns(spans) == {"op": 60, "gcr": 15, "ensemble": 30}
    assert coverage(spans) == pytest.approx(0.4)


def test_tracer_nests_spans_and_unpatches():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    tracer.patch(mod, "inner", "core")
    tracer.patch(mod, "outer", "cli", lambda a, k: {"arg": a[0]})
    assert tracer.run_op(7, mod.outer, 1) == 4
    tracer.unpatch()
    assert mod.inner is original
    root, outer, inner = tracer.spans
    assert (root.parent, outer.parent, inner.parent) == (None, root.id, outer.id)
    assert {s.op for s in tracer.spans} == {7}
    assert outer.attrs == {"arg": 1} and inner.name == "core.inner"


def test_tail_and_spread():
    values = list(range(1, 21))
    assert stats.tail(values) == (10, 50.0)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.iqr_share([1.0, 1.0, 1.0, 1.0]) == 0.0
