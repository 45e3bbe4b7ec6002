"""Output checks. Each returns a list of problems; an empty list passes.

The tolerances are the acceptance suite's: criterion 2's 95% of points
within 3 jackknife standard errors, criterion 7's 3% on the pole separation
and 5% on tau_m and eta, and 1e-9 between the deterministic routes.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_HEADER = "tau_us,K_plus,err_plus,K_minus,err_minus,dK,err_dK"
CSV_COLUMNS = CSV_HEADER.split(",")

Z_MAX = 3.0
MIN_WITHIN = 0.95
DELTA_I_TOL = 0.03
TAU_M_TOL = 0.05
ETA_TOL = 0.05
ROUTE_TOL = 1e-9
PHASE_TOL_DEG = 1e-6


class CheckError(ValueError):
    """An output that cannot be read at all."""


def parse_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of a correlate CSV. Raises CheckError if the text does not
    parse or holds a value that is not finite."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError("missing or wrong CSV header")
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as err:
        raise CheckError(f"unparsable CSV row: {err}") from None
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != len(CSV_COLUMNS):
        raise CheckError(f"CSV has shape {rows.shape}, expected (n, {len(CSV_COLUMNS)})")
    if not np.all(np.isfinite(rows)):
        raise CheckError("CSV holds a value that is not finite")
    return dict(zip(CSV_COLUMNS, rows.T))


def parse_json(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        raise CheckError(f"unparsable JSON report: {err}") from None
    if not isinstance(report, dict):
        raise CheckError("JSON report is not an object")
    return report


def check_mc(csv: dict, lags, ref_plus, ref_minus) -> list[str]:
    """At least MIN_WITHIN of the (lag, preparation) points lie within Z_MAX
    jackknife standard errors of the recipe reference."""
    problems = []
    if csv["tau_us"].shape != np.shape(lags) or not np.allclose(csv["tau_us"], lags):
        return [f"lag column differs from the expected {len(lags)} lags"]
    errors = np.concatenate([csv["err_plus"], csv["err_minus"]])
    if not np.all(errors > 0):
        return ["a jackknife standard error is not positive"]
    z = np.concatenate([csv["K_plus"] - ref_plus, csv["K_minus"] - ref_minus]) / errors
    within = float(np.mean(np.abs(z) <= Z_MAX))
    if within < MIN_WITHIN:
        problems.append(f"only {within:.1%} of points within {Z_MAX} SE of the recipe "
                        f"(max |z| {np.abs(z).max():.2f})")
    return problems


def _rel_err(got, want) -> float:
    return abs(got / want - 1.0)


def check_calibrate(report: dict, response: float, tau_m: float, eta: float) -> list[str]:
    """Recovered pole separation, measurement time and efficiency against the
    values the config injects."""
    problems = []
    for key in ("delta_i", "tau_m_us", "eta"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return [f"report field {key} is {value!r}"]
    if _rel_err(report["delta_i"], 2.0 * response) > DELTA_I_TOL:
        problems.append(f"delta_i {report['delta_i']:.6g} is not within "
                        f"{DELTA_I_TOL:.0%} of 2 * response = {2.0 * response:.6g}")
    if _rel_err(report["tau_m_us"], tau_m) > TAU_M_TOL:
        problems.append(f"tau_m {report['tau_m_us']:.6g} is not within "
                        f"{TAU_M_TOL:.0%} of {tau_m:.6g}")
    if _rel_err(report["eta"], eta) > ETA_TOL:
        problems.append(f"eta {report['eta']:.6g} is not within {ETA_TOL:.0%} of {eta:.6g}")
    return problems


def check_close(label: str, got, want, tol: float = ROUTE_TOL) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} differs from {want.shape}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        return [f"{label}: max difference {worst:.3g} exceeds {tol:g}"]
    return []


def check_routes(label: str, csv: dict, ref: dict) -> list[str]:
    """Two correlate CSVs (or a CSV and reference columns) agree to
    ROUTE_TOL on the lags and both preparations."""
    problems = []
    for column in ("tau_us", "K_plus", "K_minus"):
        problems += check_close(f"{label} {column}", csv[column], ref[column])
    return problems


def check_phase(report: dict, phi_deg: float) -> list[str]:
    value = report.get("phi_a_deg")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"fit-phase phi_a_deg is {value!r}"]
    if not abs(value - phi_deg) <= PHASE_TOL_DEG:
        return [f"fit-phase gives {value!r} deg, expected {phi_deg} to {PHASE_TOL_DEG} deg"]
    return []
