"""Command-line interface wiring all toolkit modules to reproducible files.

Every subcommand prints a one-line JSON summary on stdout (command, key
results, elapsed time) and takes only the flags its handler reads. Exit codes:
0 success (an empty tuning range is still success), 1 stdout closed by its
reader, 2 usage or validation failure, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ENV_CONFIG_PATH, RunConfig, apply_overrides, load_config
from .dispersion import group_index, index_derivative, refractive_index
from .dwdm import PumpPlan, efficiency_curve_columns, plan_pumps, pump_band
from .emit import csv_chunks, read_two_column_csv, write_csv, write_json, write_records
from .errors import (ConfigError, ConvergenceError, DegenerateError, DomainError,
                     RangeError, SingularityError, ValidityError)
from .qpm import _peak_index, make_device
from .tuning import (_LIMITS, Sweep, TuningResult, hub_sweep_columns, pm_spectrum_columns,
                     sweet_spot_report, tuning_range)

# the polarization layer is imported by the handlers that model the channel,
# so no other command loads it
if TYPE_CHECKING:
    from .polarization import ProcessMatrix

USAGE_EXIT = 2
NUMERIC_EXIT = 3

_USAGE_ERRORS = (ValidityError, DomainError, RangeError, ConfigError)
_NUMERIC_ERRORS = (DegenerateError, SingularityError, ConvergenceError,
                   FloatingPointError, ZeroDivisionError)


# The CSV layouts, one (column name, places) pair per column as emit.write_csv
# takes them. The JSON records read the same pairs; round() is correctly rounded,
# so a value rounded to 8 places holds what 8 places print.
INDEX_CSV = (("wavelength_nm", 4), ("n", 8), ("dn_dlambda_per_um", 8), ("group_index", 8))
SPECTRUM_CSV = (("nu_c_THz", 6), ("lambda_c_nm", 4), ("lambda_p_nm", 4), ("efficiency", 8),
                ("extrapolated", None))
SWEEP_CSV = (("signal_nm", 4), ("lo_nm", 4), ("hi_nm", 4), ("width_nm", 4),
             ("width_THz", 6), ("channels", None), ("limiting_constraint", None))
PLAN_CSV = (("port", None), ("nu_c_THz", 3), ("lambda_c_nm", 2), ("nu_p_THz", 3),
            ("lambda_p_nm", 2), ("in_laser_range", None), ("rel_eff", 6))
CURVE_CSV = (("nu_p_THz", 6), ("rel_eff", 8), ("extrapolated", None))


def _rounded(layout, **places: int):
    """A row keyed by the layout's names, rounded to ``places[name]`` or the layout's places."""
    fields = [(name, places.get(name, digits)) for name, digits in layout]
    return lambda *row: {name: value if digits is None else round(value, digits)
                         for (name, digits), value in zip(fields, row)}


def _spectrum_record(nu_c, lambda_c, lambda_p, efficiency, extrapolated) -> dict:
    # JSON has no NaN: null is an efficiency undefined where n^2 < 0
    efficiency = None if math.isnan(efficiency) else efficiency
    return {name: value for (name, _), value in zip(
        SPECTRUM_CSV, (nu_c, lambda_c, lambda_p, efficiency, extrapolated))}


INDEX_JSON = _rounded(INDEX_CSV)
SPECTRUM_JSON = _spectrum_record
PLAN_JSON = _rounded(PLAN_CSV, nu_c_THz=6, nu_p_THz=6)


def _tuning_record(threshold: float, lo, hi, width_nm, width_thz, channels, limit) -> dict:
    """A tuning interval's row, rounded as ``SWEEP_CSV`` is, with the threshold
    convention noted."""
    places = dict(SWEEP_CSV)
    return {"converted_interval_nm": [round(lo, places["lo_nm"]), round(hi, places["hi_nm"])],
            "width_nm": round(width_nm, places["width_nm"]),
            "width_THz": round(width_thz, places["width_THz"]),
            "channels": channels,
            "limiting_constraint": limit,
            "threshold": threshold,
            "threshold_reference": "fraction of peak efficiency within the scan window"}


def tuning_result_payload(result: TuningResult, threshold: float) -> dict:
    """A tuning result, rounded as ``SWEEP_CSV`` is, with the threshold convention noted."""
    return _tuning_record(threshold, *result.converted_interval_nm, result.width_nm,
                          result.width_thz, result.channel_count, result.limiting_constraint)


def _sweep_table(sweep: Sweep) -> tuple:
    """The columns of ``SWEEP_CSV``: the sweep's, its limit codes as their names' bytes."""
    return (*sweep[:-1], np.array(_LIMITS, "S")[sweep.limit])


def chi_payload(process: ProcessMatrix) -> dict:
    """A process matrix as row-major [real, imag] pairs, basis documented."""
    from .polarization import PAULI_LABELS
    return {"basis": list(PAULI_LABELS), "layout": "row-major",
            "chi": np.stack((process.chi.real, process.chi.imag), axis=-1).tolist()}


# Each destination is the RunConfig field the flag sets (_resolve_config reads
# them by field name); argparse derives it from the flag where "dest" is absent.
_RUN_OPTIONS = {
    "material": {"help": "material model name"},
    "material-file": {"help": "extra material definitions (JSON)"},
    "temperature": {"dest": "temperature_c", "type": float,
                    "help": "crystal temperature in deg C"},
    "length": {"dest": "length_mm", "type": float, "help": "crystal length in mm"},
    "format": {"dest": "output_format", "help": "output file format: csv or json"},
    "output": {"help": "output file path"},
    "workers": {"type": int, "help": "ignored; kept for compatibility"},
    "allow-extrapolation": {"action": "store_const", "const": True,
                            "help": "evaluate dispersion outside stated validity (flagged)"},
}
_MATERIAL = ("material", "material-file", "temperature")
# Commands that write JSON only to a file: without --output, index prints its
# CSV table and tuning-range only its summary line.
_JSON_NEEDS_OUTPUT = ("index", "tuning-range")


def _run_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """--config plus the named flags of ``_RUN_OPTIONS``, in that order."""
    g = parser.add_argument_group("run configuration")
    g.add_argument("--config", help="JSON config file (default: $%s)" % ENV_CONFIG_PATH)
    for name in names:
        g.add_argument("--" + name, **_RUN_OPTIONS[name])


def _constraint_options(parser: argparse.ArgumentParser, mode: bool = True) -> None:
    g = parser.add_argument_group("tuning constraints")
    if mode:
        modes = g.add_mutually_exclusive_group()
        modes.add_argument("--cutoff", type=float, metavar="NM",
                           help="max converted wavelength in nm")
        modes.add_argument("--separation", type=float, metavar="NM",
                           help="min pump/converted separation in nm")
    g.add_argument("--threshold", dest="efficiency_threshold", type=float,
                   help="efficiency threshold, fraction of the scan peak")
    g.add_argument("--scan-halfwidth-thz", dest="scan_halfwidth_thz", type=float)
    g.add_argument("--coarse-step-ghz", dest="coarse_step_ghz", type=float)
    g.add_argument("--channel-spacing-ghz", dest="channel_spacing_ghz", type=float)


class _Parser(argparse.ArgumentParser):
    """argparse that reads -5e1, -inf and -nan as values, as it reads -5 and -.5."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfchub",
        description="Quasi-phase-matched frequency-conversion design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="refractive index table")
    p.add_argument("wavelengths_nm", nargs="+", type=float, metavar="NM")
    _run_options(p, *_MATERIAL, "format", "output", "allow-extrapolation")

    p = sub.add_parser("pm-scan", help="phase-matching spectrum around a target")
    p.add_argument("--signal", type=float, required=True, metavar="NM")
    p.add_argument("--target", type=float, required=True, metavar="NM")
    p.add_argument("--window-thz", type=float, default=6.0)
    p.add_argument("--step-ghz", type=float, default=2.0)
    _run_options(p, *_MATERIAL, "length", "format", "output", "allow-extrapolation")

    p = sub.add_parser("tuning-range", help="90%%-threshold tuning interval")
    p.add_argument("--signal", type=float, required=True, metavar="NM")
    p.add_argument("--target", type=float, required=True, metavar="NM")
    _constraint_options(p)
    _run_options(p, *_MATERIAL, "length", "format", "output")

    p = sub.add_parser("sweet-spot", help="group-index mismatch report")
    p.add_argument("--signal", type=float, required=True, metavar="NM")
    p.add_argument("--target", type=float, required=True, metavar="NM")
    _run_options(p, *_MATERIAL)

    p = sub.add_parser("hub-sweep", help="tuning range vs signal wavelength")
    p.add_argument("--start", type=float, required=True, metavar="NM")
    p.add_argument("--stop", type=float, required=True, metavar="NM")
    p.add_argument("--step", type=float, default=1.0, metavar="NM")
    p.add_argument("--target", type=float, required=True, metavar="NM")
    _constraint_options(p)
    _run_options(p, *_MATERIAL, "length", "format", "output", "workers")

    p = sub.add_parser("plan", help="per-port DWDM pump plan")
    p.add_argument("--signal-freq", dest="signal_frequency_thz", type=float,
                   metavar="THZ", help="signal frequency in THz")
    p.add_argument("--center-freq", dest="center_frequency_thz", type=float,
                   metavar="THZ", help="plan center (default: middle of the grid)")
    p.add_argument("--grid-anchor-thz", dest="grid_anchor_thz", type=float)
    p.add_argument("--grid-spacing-ghz", dest="grid_spacing_ghz", type=float)
    p.add_argument("--grid-ports", dest="grid_ports", type=int)
    p.add_argument("--laser-min-nm", dest="laser_min_nm", type=float)
    p.add_argument("--laser-max-nm", dest="laser_max_nm", type=float)
    p.add_argument("--curve", action="store_true",
                   help="also emit the efficiency-vs-pump-frequency curve")
    p.add_argument("--curve-step-ghz", type=float, default=1.0)
    _run_options(p, *_MATERIAL, "length", "format", "output")

    p = sub.add_parser("simulate", help="apply the polarization channel to a state")
    p.add_argument("--eta-cw", type=float, required=True)
    p.add_argument("--eta-ccw", type=float, required=True)
    p.add_argument("--phase", type=float, default=0.0, metavar="RAD")
    p.add_argument("--mix", type=float, default=0.0, metavar="EPS")
    p.add_argument("--input", default="D", metavar="LABEL",
                   help="input state label (H/V/D/A/R/L)")
    _run_options(p, "output")

    p = sub.add_parser("tomography", help="simulated process tomography")
    p.add_argument("--eta-cw", type=float, required=True)
    p.add_argument("--eta-ccw", type=float, required=True)
    p.add_argument("--phase", type=float, default=0.0, metavar="RAD")
    p.add_argument("--mix", type=float, default=0.0, metavar="EPS")
    _run_options(p, "output")

    p = sub.add_parser("fit", help="fit the pump-power efficiency curve")
    p.add_argument("--input", required=True, metavar="CSV",
                   help="two-column CSV: P_mW, eta")
    _run_options(p, "output")

    p = sub.add_parser("reproduce-paper",
                       help="run the bundled figure-data reproduction set")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--sweep-step", type=float, default=1.0, metavar="NM")
    _constraint_options(p, mode=False)
    _run_options(p, *_MATERIAL, "length", "workers")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(ENV_CONFIG_PATH)
    config = load_config(path) if path else RunConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if getattr(args, "cutoff", None) is not None:
        overrides["constraint_mode"] = "max_converted_wavelength"
        overrides["constraint_value_nm"] = args.cutoff
    elif getattr(args, "separation", None) is not None:
        overrides["constraint_mode"] = "min_pump_converted_separation"
        overrides["constraint_value_nm"] = args.separation
    config = apply_overrides(config, **overrides)
    config.model()  # every command checks the material of its final configuration
    return config


def cmd_index(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    um = np.array(args.wavelengths_nm) / 1000.0
    columns = [args.wavelengths_nm,
               *(f(model, um, config.temperature_c, config.allow_extrapolation)
                 for f in (refractive_index, index_derivative, group_index))]
    summary = {"rows": len(columns[0])}
    if not config.output:
        if sys.stdout:  # None in a process started with stdout closed
            names, places = zip(*INDEX_CSV)
            sys.stdout.write(",".join(names) + "\n")
            sys.stdout.writelines(chunk.decode() for chunk in csv_chunks(places, *columns))
    elif config.output_format == "json":
        summary["output"] = str(write_records(config.output, INDEX_JSON, *columns))
    else:
        summary["output"] = str(write_csv(config.output, INDEX_CSV, *columns))
    return summary


def cmd_pm_scan(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    device = make_device(args.signal, args.target, config.length_mm,
                         config.temperature_c, model, config.allow_extrapolation)
    spectrum = pm_spectrum_columns(args.signal, args.target, device,
                                   args.window_thz, args.step_ghz)
    peak = _peak_index(spectrum.efficiency)
    out = Path(config.output or f"pm_scan.{config.output_format}")
    if config.output_format == "json":
        write_records(out, SPECTRUM_JSON, *spectrum)
    else:
        write_csv(out, SPECTRUM_CSV, *spectrum)
    return {"signal_nm": args.signal, "target_nm": args.target,
            "points": spectrum.efficiency.size,
            "extrapolated_points": int(np.count_nonzero(spectrum.extrapolated)),
            "peak_lambda_c_nm": round(float(spectrum.lambda_c_nm[peak]), 4),
            "poling_period_um": round(device.poling_period_um, 6),
            "output": str(out)}


def cmd_tuning_range(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    constraints = config.tuning_constraints()
    result = tuning_range(args.signal, args.target, config.length_mm,
                          config.temperature_c, model, constraints)
    summary = {"signal_nm": args.signal, "target_nm": args.target,
               "length_mm": config.length_mm,
               "constraint_mode": constraints.constraint_mode,
               "constraint_value_nm": constraints.constraint_value_nm}
    summary.update(tuning_result_payload(result, constraints.efficiency_threshold))
    if config.output:
        if config.output_format == "json":
            write_json(config.output, summary)
        else:
            lo, hi = result.converted_interval_nm
            write_csv(config.output, SWEEP_CSV, *([value] for value in (
                args.signal, lo, hi, result.width_nm, result.width_thz,
                result.channel_count, result.limiting_constraint.encode())))
        summary["output"] = config.output
    return summary


def cmd_sweet_spot(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    report = sweet_spot_report(args.signal, args.target, config.temperature_c, model)
    return {**asdict(report), "pump_nm": round(report.pump_nm, 4),
            "midpoint_nm": round(report.midpoint_nm, 4)}


def cmd_hub_sweep(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    constraints = config.tuning_constraints()
    sweep = hub_sweep_columns((args.start, args.stop), args.step, args.target,
                              config.length_mm, config.temperature_c, model, constraints)
    out = Path(config.output or f"hub_sweep.{config.output_format}")
    threshold = constraints.efficiency_threshold
    if config.output_format == "json":
        write_records(out, lambda signal, *row: {"signal_nm": signal, **_tuning_record(
            threshold, *row[:-1], _LIMITS[row[-1]])}, *sweep)
    else:
        write_csv(out, SWEEP_CSV, *_sweep_table(sweep))
    widest = int(np.argmax(sweep.width_nm))  # the first widest row, as max() picks
    counts = np.bincount(sweep.limit, minlength=len(_LIMITS)).tolist()
    return {"target_nm": args.target, "points": sweep.signal_nm.size,
            "max_width_nm": round(float(sweep.width_nm[widest]), 4),
            "max_width_signal_nm": float(sweep.signal_nm[widest]),
            "limit_counts": {name: n for name, n in zip(_LIMITS, counts) if n},
            "output": str(out)}


def _pump_plan(config: RunConfig, model, center_frequency_thz: float | None) -> PumpPlan:
    """The configured pump plan."""
    return plan_pumps(config.grid(), config.signal_frequency_thz, config.laser(),
                      config.length_mm, config.temperature_c, model, center_frequency_thz)


def cmd_plan(config: RunConfig, args: argparse.Namespace) -> dict:
    model = config.model()
    plan = _pump_plan(config, model, args.center_frequency_thz)
    # the curve and band are computed before the first file is written
    if args.curve:
        curve = efficiency_curve_columns(plan, args.curve_step_ghz)
        lo, hi, limits = pump_band(plan)
    out = Path(config.output or f"pump_plan.{config.output_format}")
    ports = range(1, plan.nu_c_thz.size + 1)
    if config.output_format == "json":
        write_json(out, {
            "signal_frequency_THz": plan.signal_frequency_thz,
            "poling_period_um": plan.device.poling_period_um,
            "center_frequency_THz": plan.center_frequency_thz,
            "ports": list(map(PLAN_JSON, ports, *(c.tolist() for c in plan[4:]))),
        })
    else:
        write_csv(out, PLAN_CSV, ports, *plan[4:])
    pumps = plan.lambda_p_nm.tolist()
    summary = {"ports": len(pumps),
               "poling_period_um": round(plan.device.poling_period_um, 6),
               "pump_min_nm": round(min(pumps), 2),
               "pump_max_nm": round(max(pumps), 2),
               "all_in_laser_range": all(plan.in_laser_range.tolist()),
               "output": str(out)}
    if args.curve:
        curve_out = write_csv(out.with_name(out.stem + "_curve.csv"), CURVE_CSV, *curve)
        summary["curve_output"] = str(curve_out)
        summary["band_90_THz"] = [round(lo, 4), round(hi, 4)]
        summary["band_limits"] = list(limits)
        summary["extrapolated_points"] = int(np.count_nonzero(curve.extrapolated))
    return summary


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> dict:
    from .polarization import PolarizationState, QfcChannelModel, apply_channel
    model = QfcChannelModel(args.eta_cw, args.eta_ccw, args.phase, args.mix)
    out_state, probability = apply_channel(PolarizationState.from_label(args.input), model)
    payload = {"input": args.input.upper(),
               "success_probability": probability,
               "output_bloch": [round(v, 12) for v in out_state.bloch_vector()],
               "output_matrix": [[[round(z.real, 12), round(z.imag, 12)]
                                  for z in row] for row in out_state.matrix]}
    if config.output:
        write_json(config.output, payload)
        payload["output"] = config.output
    return payload


def cmd_tomography(config: RunConfig, args: argparse.Namespace) -> dict:
    from .polarization import (PolarizationState, QfcChannelModel, kraus_to_chi,
                               process_fidelity, reconstruct_chi, simulate_tomography)
    model = QfcChannelModel(args.eta_cw, args.eta_ccw, args.phase, args.mix)
    outputs = simulate_tomography(model)
    inputs = {label: PolarizationState.from_label(label) for label in outputs}
    chi = reconstruct_chi(inputs, outputs)
    fidelity = process_fidelity(chi)
    out = write_json(config.output or "tomography.json", {
        "process_fidelity": fidelity,
        "success_probabilities": {k: outputs[k][1] for k in sorted(outputs)},
        "chi_reconstructed": chi_payload(chi),
        "chi_closed_form": chi_payload(kraus_to_chi(model)),
    })
    return {"process_fidelity": round(fidelity, 9), "output": str(out)}


def cmd_fit(config: RunConfig, args: argparse.Namespace) -> dict:
    from .polarization import fit_efficiency
    powers, etas = read_two_column_csv(args.input)
    if not powers:
        raise DomainError(f"no (P, eta) rows found in {args.input}")
    fit = fit_efficiency(powers, etas)
    summary = {"eta_max": round(fit.params.eta_max, 6),
               "eta_nor_per_mW": round(fit.params.eta_nor_per_mw, 6),
               "residual_norm": round(fit.residual_norm, 9),
               "points": len(powers)}
    if config.output:
        write_json(config.output, summary)
        summary["output"] = config.output
    return summary


def cmd_reproduce_paper(config: RunConfig, args: argparse.Namespace) -> dict:
    """Every result is computed before the first file is written, so a run that
    fails leaves no file; the spectra are then computed and written one by one."""
    run_dir = Path(args.out_dir) / "paper-run"
    model = config.model()

    # phase-matching spectra for the three representative signals, both lengths
    scans = [(make_device(signal, 1540.0, length, config.temperature_c, model),
              signal, window, step, name)
             for signal, length, window, step, name in (
                 (780.0, 40.0, 6.0, 2.0, "pm_scan_780_L40.csv"),
                 (780.0, 20.0, 6.0, 2.0, "pm_scan_780_L20.csv"),
                 (493.0, 40.0, 1.0, 0.5, "pm_scan_493_L40.csv"),
                 (934.0, 40.0, 20.0, 5.0, "pm_scan_934_L40.csv"))]

    sweep_constraints = replace(config.tuning_constraints(), constraint_value_nm=20.0,
                                constraint_mode="min_pump_converted_separation")
    sweeps = [(name, _sweep_table(hub_sweep_columns((400.0, 1000.0), args.sweep_step, target,
                                                    config.length_mm, config.temperature_c,
                                                    model, sweep_constraints)))
              for target, name in ((1540.0, "sweep_cband.csv"),
                                   (1310.0, "sweep_oband.csv"))]

    cutoff_constraints = replace(sweep_constraints, constraint_value_nm=1550.0,
                                 constraint_mode="max_converted_wavelength")
    ranges = [(name, tuning_range(780.0, 1540.0, length, config.temperature_c,
                                  model, cutoff_constraints))
              for length, name in ((40.0, "tuning_range_L40.json"),
                                   (20.0, "tuning_range_L20.json"))]

    plan = _pump_plan(config, model, None)
    curve = efficiency_curve_columns(plan)

    produced = []
    for device, signal, window, step, name in scans:
        spectrum = pm_spectrum_columns(signal, 1540.0, device, window, step)
        produced.append(write_csv(run_dir / name, SPECTRUM_CSV, *spectrum))
    for name, columns in sweeps:
        produced.append(write_csv(run_dir / name, SWEEP_CSV, *columns))
    for name, result in ranges:
        produced.append(write_json(run_dir / name, tuning_result_payload(
            result, cutoff_constraints.efficiency_threshold)))
    produced.append(write_csv(run_dir / "pump_plan.csv", PLAN_CSV,
                              range(1, plan.nu_c_thz.size + 1), *plan[4:]))
    produced.append(write_csv(run_dir / "pump_plan_curve.csv", CURVE_CSV, *curve))

    return {"directory": str(run_dir), "files": sorted(map(str, produced))}


_HANDLERS = {
    "index": cmd_index,
    "pm-scan": cmd_pm_scan,
    "tuning-range": cmd_tuning_range,
    "sweet-spot": cmd_sweet_spot,
    "hub-sweep": cmd_hub_sweep,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "tomography": cmd_tomography,
    "fit": cmd_fit,
    "reproduce-paper": cmd_reproduce_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = _resolve_config(args)
        if (args.command in _JSON_NEEDS_OUTPUT and config.output_format == "json"
                and not config.output):
            raise ConfigError(f"{args.command} --format json writes a file: give --output")
        summary = _HANDLERS[args.command](config, args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    summary_line = {"command": args.command, **summary,
                    "elapsed_s": round(time.perf_counter() - started, 3)}
    print(json.dumps(summary_line))
    return 0


def run(argv: list[str] | None = None) -> int:
    """``main`` for a process that ends when it returns: the ``qfchub`` script,
    ``python -m qfchub`` and this module run as a script.

    What ``main`` leaves is frozen out of the collector, so the interpreter's
    collections at exit do not scan objects that are about to be freed. A closed
    stdout gives 1: it is pointed at the null device, so the exit flush cannot raise.
    """
    try:
        code = main(argv)
        if sys.stdout:  # None in a process started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
