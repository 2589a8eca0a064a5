"""Output checks. A check returns a list of problems; an empty list passes.

References under ``ref/`` were recorded from ``qfchub reproduce-paper
--workers 1`` (see ``record_refs.py``). Numeric columns are compared by
header name, within 2.5 units of the last decimal the reference prints, so
an added column or a last-digit change from reordered arithmetic is not a
failure while a changed result is. Every sweep-batch and tuning-range input
is a point of the two 400-1000 nm paper sweeps, so those two files are the
reference for every seed.
"""
from __future__ import annotations

import cmath
import gzip
import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
SWEEP_REFS = {1540.0: "sweep_cband.csv", 1310.0: "sweep_oband.csv"}
SWEEP_FIELDS = ("lo_nm", "hi_nm", "width_nm", "width_THz", "channels")
FIT_TOLERANCE = 0.10  # criterion 10, noisy data
TOMOGRAPHY_TOLERANCE = 1e-9


def ref_names() -> list[str]:
    return sorted(p.name[:-3] for p in REF_DIR.glob("*.gz"))


def ref_text(name: str) -> str:
    with gzip.open(REF_DIR / f"{name}.gz", "rt", newline="") as fh:
        return fh.read()


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _tolerance(ref: str, min_decimals: int = 0) -> float:
    if "." not in ref:
        return 0.0
    decimals = max(len(ref.split(".")[1]), min_decimals)
    return 2.5 * 10.0 ** -decimals


def compare_value(got, ref: str, where: str, min_decimals: int = 0) -> list[str]:
    expected = _number(ref)
    if expected is None:
        return []
    value = _number(got)
    if value is None or abs(value - expected) > _tolerance(ref, min_decimals):
        return [f"{where}: got {got}, reference {ref}"]
    return []


def compare_csv(text: str, ref: str, name: str) -> list[str]:
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref)
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference {len(ref_rows)}"]
    problems = []
    for column, ref_col in enumerate(ref_header):
        if not ref_rows or _number(ref_rows[0][column]) is None:
            continue
        if ref_col not in header:
            return [f"{name}: column {ref_col} missing"]
        col = header.index(ref_col)
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            got = row[col] if col < len(row) else None
            problems += compare_value(got, ref_row[column], f"{name}[{i}].{ref_col}")
            if len(problems) > 5:
                return problems
    return problems


def compare_json(got, ref, where: str) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: not an object"]
        return [p for k, v in ref.items()
                for p in compare_json(got.get(k), v, f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare_json(g, r, f"{where}[{i}]")]
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return []
    return compare_value(got, repr(ref), where, min_decimals=4)


class PaperReference:
    """Reference files of reproduce-paper, held in memory for fast compares."""

    def __init__(self) -> None:
        self.texts = {name: ref_text(name) for name in ref_names()}

    def check_dir(self, out_dir: Path) -> list[str]:
        problems = []
        for name, ref in self.texts.items():
            found = sorted(out_dir.rglob(name))
            if len(found) != 1:
                problems.append(f"{name}: found {len(found)} files")
                continue
            text = found[0].read_text()
            if text == ref:
                continue
            if name.endswith(".json"):
                problems += compare_json(json.loads(text), json.loads(ref), name)
            else:
                problems += compare_csv(text, ref, name)
        return problems


def sweep_reference() -> dict[float, dict[float, dict[str, str]]]:
    """target_nm -> signal_nm -> reference row of the paper sweep."""
    table = {}
    for target, name in SWEEP_REFS.items():
        header, rows = parse_csv(ref_text(name))
        table[target] = {float(r[0]): dict(zip(header, r)) for r in rows}
    return table


def check_tuning(ref_row: dict[str, str], lo: float, hi: float, width_nm: float,
                 width_thz: float, channels: int, where: str) -> list[str]:
    got = {"lo_nm": lo, "hi_nm": hi, "width_nm": width_nm,
           "width_THz": width_thz, "channels": channels}
    return [p for f in SWEEP_FIELDS
            for p in compare_value(got[f], ref_row[f], f"{where}.{f}")]


def fit_problems(curve: dict, eta_max: float, eta_nor: float, where: str) -> list[str]:
    err = max(abs(eta_max - curve["eta_max"]) / curve["eta_max"],
              abs(eta_nor - curve["eta_nor"]) / curve["eta_nor"])
    if not err <= FIT_TOLERANCE:
        return [f"{where}: fit relative error {err:.3g} > {FIT_TOLERANCE}"]
    return []


def closed_form_fidelity(eta_cw: float, eta_ccw: float, phase: float, mix: float) -> float:
    """F = ((1-mix)|a|^2 + mix*tr/4) / tr with K = aX + ibY."""
    root_ccw = math.sqrt(eta_ccw) * cmath.exp(1j * phase)
    a2 = abs(0.5 * (math.sqrt(eta_cw) + root_ccw)) ** 2
    b2 = abs(0.5 * (math.sqrt(eta_cw) - root_ccw)) ** 2
    trace = a2 + b2
    return ((1.0 - mix) * a2 + mix * trace / 4.0) / trace


_AMPLITUDES = {"H": (1, 0), "V": (0, 1), "D": (1, 1), "A": (1, -1),
               "R": (1, 1j), "L": (1, -1j)}


def success_probability(eta_cw: float, eta_ccw: float, label: str) -> float:
    """tr(K rho K^dag) = eta_cw |beta|^2 + eta_ccw |alpha|^2 for a pure input."""
    alpha, beta = _AMPLITUDES[label]
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    return (eta_cw * abs(beta) ** 2 + eta_ccw * abs(alpha) ** 2) / norm


def cli_problems(op: dict, summary: dict, stdout: str, work_dir: Path,
                 paper: PaperReference, sweeps: dict) -> list[str]:
    """Expected key values of one CLI summary."""
    kind = op["kind"]
    if summary.get("command") != kind:
        return [f"{kind}: command {summary.get('command')!r}"]
    if kind == "index":
        wl = op["wavelengths_nm"]
        _, rows = parse_csv("\n".join(stdout.splitlines()[:-1]))
        n = [_number(r[1]) for r in rows]
        if summary.get("rows") != len(wl) or len(rows) != len(wl):
            return [f"{kind}: {summary.get('rows')} rows for {len(wl)} wavelengths"]
        if not all(v is not None and 1.5 < v < 3.0 for v in n) \
                or any(x < y for x, y in zip(n, n[1:])):
            return [f"{kind}: index not in (1.5, 3) or rising with wavelength: {n}"]
        return []
    if kind == "pm-scan":
        problems = []
        if summary.get("points") != 6001:
            problems.append(f"{kind}: {summary.get('points')} points, expected 6001")
        if not abs(summary.get("peak_lambda_c_nm", 0.0) - op["target"]) <= 0.05:
            problems.append(f"{kind}: peak at {summary.get('peak_lambda_c_nm')} nm")
        rows = parse_csv((work_dir / "pm_scan.csv").read_text())[1]
        if len(rows) != summary.get("points"):
            problems.append(f"{kind}: file has {len(rows)} rows")
        return problems
    if kind == "tuning-range":
        ref = sweeps[op["target"]][op["signal"]]
        lo, hi = summary["converted_interval_nm"]
        return check_tuning(ref, lo, hi, summary["width_nm"], summary["width_THz"],
                            summary["channels"], kind)
    if kind == "sweet-spot":
        s, t = op["signal"], op["target"]
        pump = 1.0 / (1.0 / s - 1.0 / t)
        problems = compare_value(summary.get("pump_nm"), f"{pump:.4f}", f"{kind}.pump_nm")
        if summary.get("second_harmonic_nm") != 2.0 * s:
            problems.append(f"{kind}: second harmonic {summary.get('second_harmonic_nm')}")
        return problems
    if kind == "plan":
        _, rows = parse_csv(paper.texts["pump_plan.csv"])
        pumps = [r[4] for r in rows]
        problems = compare_csv((work_dir / "pump_plan.csv").read_text(),
                               paper.texts["pump_plan.csv"], "pump_plan.csv")
        problems += compare_csv((work_dir / "pump_plan_curve.csv").read_text(),
                                paper.texts["pump_plan_curve.csv"], "pump_plan_curve.csv")
        problems += compare_value(summary.get("pump_min_nm"), min(pumps, key=float),
                                  f"{kind}.pump_min_nm")
        problems += compare_value(summary.get("pump_max_nm"), max(pumps, key=float),
                                  f"{kind}.pump_max_nm")
        if summary.get("ports") != len(rows) or "band_90_THz" not in summary:
            problems.append(f"{kind}: ports {summary.get('ports')} / no band")
        return problems
    if kind == "simulate":
        expected = success_probability(op["eta_cw"], op["eta_ccw"], op["input"])
        bloch = summary.get("output_bloch", [2.0])
        problems = []
        if not abs(summary.get("success_probability", -1.0) - expected) <= 1e-12:
            problems.append(f"{kind}: success probability {summary.get('success_probability')}"
                            f", expected {expected}")
        if not sum(v * v for v in bloch) <= 1.0 + 1e-9:
            problems.append(f"{kind}: Bloch vector {bloch} outside the sphere")
        return problems
    if kind == "tomography":
        expected = closed_form_fidelity(op["eta_cw"], op["eta_ccw"], op["phase"], op["mix"])
        if not abs(summary.get("process_fidelity", -1.0) - expected) <= 2e-9:
            return [f"{kind}: fidelity {summary.get('process_fidelity')}, "
                    f"expected {expected}"]
        return []
    if kind == "fit":
        if summary.get("points") != len(op["curve"]["powers"]):
            return [f"{kind}: {summary.get('points')} points"]
        return fit_problems(op["curve"], summary["eta_max"], summary["eta_nor_per_mW"], kind)
    if kind == "reproduce-paper":
        return paper.check_dir(work_dir)
    return [f"{kind}: no check"]
