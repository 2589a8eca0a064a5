import argparse
import csv
import gc
import gzip
import hashlib
import json
import os
import subprocess
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qfchub
from qfchub import (ConfigError, DwdmGrid, EfficiencyCurveParams, LaserSpec,
                    QfcChannelModel, TuningConstraints, efficiency_model, emit,
                    kraus_to_chi)
from qfchub import tuning
from qfchub.cli import (SWEEP_CSV, _resolve_config, _sweep_table, build_parser, chi_payload,
                        main, run)
from qfchub.config import ENV_CONFIG_PATH, RunConfig, apply_overrides, load_config


def read_schema_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    rows = list(csv.DictReader(lines[1:]))
    return rows


def _reject_constant(name):
    raise ValueError(f"output holds {name}, which is not JSON")


def strict_json(text):
    """``text`` parsed as JSON, failing on the NaN and Infinity tokens json.dumps
    writes for non-finite floats."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path):
    return strict_json(path.read_text())


def summary_of(proc):
    # a successful command writes nothing to stderr, not even a numpy warning
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return strict_json(proc.stdout.strip().splitlines()[-1])


def test_index_table(tmp_path, run_cli):
    proc = run_cli(["index", "780", "1540", "1580"], tmp_path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("wavelength_nm,")
    assert len(lines) == 5  # header + 3 rows + summary
    n_780 = float(lines[1].split(",")[1])
    n_1540 = float(lines[2].split(",")[1])
    assert n_780 > n_1540 > 2.0


def test_index_stdout_is_the_pinned_file_without_its_schema_line(tmp_path, run_cli):
    # the table is the bytes of the pinned idx.csv after its schema line, then
    # the summary line
    argv = ["index", "780", "1540", "1580"]
    digest = next(d for a, d in PINNED_OUTPUTS if a == [*argv, "--output", "idx.csv"])
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG_PATH}
    proc = run_cli(argv, tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    *table, summary = proc.stdout.splitlines(keepends=True)
    text = "# schema=1\n" + "".join(table)
    assert hashlib.sha256(text.encode()).hexdigest() == digest["idx.csv"], text
    assert json.loads(summary)["rows"] == 3


def test_index_out_of_validity_exits_2(tmp_path, run_cli):
    proc = run_cli(["index", "300"], tmp_path)
    assert proc.returncode == 2
    assert "outside" in proc.stderr and "0.400" in proc.stderr
    # the table is one column per kernel: of several wavelengths outside the
    # window the error names the lowest if it is below, else the highest
    for argv, named in ((["6000", "300"], "0.3000"), (["780", "6000", "5500"], "6.0000")):
        proc = run_cli(["index", *argv], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: wavelength {named} um outside jundt1997 validity "
                               "[0.400, 5.000] um\n")


def test_index_without_arguments_exits_2(tmp_path, run_cli):
    proc = run_cli(["index"], tmp_path)
    assert proc.returncode == 2
    assert "the following arguments are required" in proc.stderr


def test_index_json_without_output_exits_2(tmp_path, run_cli):
    # JSON goes to a file; stdout carries the CSV table only for --format csv
    proc = run_cli(["index", "780", "--format", "json"], tmp_path)
    assert proc.returncode == 2
    assert "--output" in proc.stderr
    assert proc.stdout == ""
    summary = summary_of(run_cli(["index", "780", "--format", "json",
                                  "--output", "i.json"], tmp_path))
    assert summary["rows"] == 1
    assert list(read_json(tmp_path / "i.json")[0]) == [
        "wavelength_nm", "n", "dn_dlambda_per_um", "group_index"]


def test_startup_does_not_load_scipy(tmp_path, run_python, run_cli):
    # no qfchub code imports scipy: not at start-up, not in the fit command,
    # not in fit_efficiency
    for module in ("qfchub", "qfchub.cli"):
        proc = run_python(["-c", f"import sys, {module}; "
                                 "print(sorted(m for m in sys.modules if m == 'scipy' "
                                 "or m.startswith('scipy.')))"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    powers = np.linspace(0.0, 250.0, 26)
    params = EfficiencyCurveParams(0.44, 0.013)
    (tmp_path / "fit.csv").write_text("".join(
        f"{p:.3f},{efficiency_model(p, params):.9f}\n" for p in powers))
    summary = summary_of(run_cli(["fit", "--input", "fit.csv"], tmp_path))
    assert summary["eta_max"] == pytest.approx(0.44, rel=1e-6)
    # nor does running the fit itself
    proc = run_python(["-c", "import sys, numpy as np; "
                             "from qfchub import fit_efficiency; "
                             "p = np.linspace(0.0, 250.0, 26); "
                             "fit = fit_efficiency(p, 0.44 * np.sin(np.sqrt(0.013 * p)) ** 2); "
                             "assert abs(fit.params.eta_max - 0.44) < 1e-9; "
                             "print(sorted(m for m in sys.modules if m == 'scipy' "
                             "or m.startswith('scipy.')))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", "fit_efficiency"


_RUN_COMMANDS = """
import sys
from qfchub.cli import main

def loaded():
    return sorted(m for m in sys.modules if m in ("qfchub.polarization", "numpy.char"))

assert loaded() == [], loaded()
assert main(["reproduce-paper", "--workers", "2"]) == 0
assert loaded() == [], loaded()
assert main(["simulate", "--eta-cw", "0.4", "--eta-ccw", "0.44"]) == 0
assert main(["tomography", "--eta-cw", "0.4", "--eta-ccw", "0.44"]) == 0
assert main(["fit", "--input", "fit.csv"]) == 0
assert loaded() == ["qfchub.polarization"], loaded()
"""


def test_commands_load_only_the_layers_they_run(tmp_path, run_python):
    # the package and its CLI (which imports it) and the paper's whole run load
    # neither the polarization layer nor numpy.char (np.char imports it at its
    # first use); the commands that model the channel import the layer and still run
    powers = np.linspace(0.0, 250.0, 26)
    (tmp_path / "fit.csv").write_text("".join(
        f"{p:.3f},{efficiency_model(p, EfficiencyCurveParams(0.44, 0.013)):.9f}\n"
        for p in powers))
    proc = run_python(["-c", _RUN_COMMANDS], tmp_path)
    assert proc.returncode == 0, proc.stderr
    summaries = [strict_json(line) for line in proc.stdout.splitlines()]
    assert [s["command"] for s in summaries] == ["reproduce-paper", "simulate",
                                                 "tomography", "fit"]
    assert len(summaries[0]["files"]) == 10
    assert summaries[3]["eta_max"] == pytest.approx(0.44, rel=1e-6)


def test_polarization_names_are_bound_at_first_use(tmp_path, run_python):
    # the first lookup of any of them binds the submodule and all 14 names, so a
    # later lookup is a plain attribute of the package
    proc = run_python(["-c", "import qfchub; names = qfchub._POLARIZATION; "
                             "assert not {'polarization', *names} & set(vars(qfchub)); "
                             "f = qfchub.pump_balance; "
                             "assert {'polarization', *names} <= set(vars(qfchub)); "
                             "assert f is qfchub.polarization.pump_balance; "
                             "assert all(vars(qfchub)[n] is getattr(qfchub.polarization, n) "
                             "for n in names)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(qfchub._POLARIZATION) == 14
    assert set(qfchub._POLARIZATION) <= set(qfchub.__all__)
    assert {"polarization", *qfchub._POLARIZATION} <= set(vars(qfchub))
    assert qfchub.pump_balance is qfchub.polarization.pump_balance
    assert set(qfchub.__all__) <= set(dir(qfchub))
    for name in ("no_such_name", "PAULI_LABELS", "pump_balanc"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(qfchub, name)
    with pytest.raises(ImportError):
        exec("from qfchub import no_such_name", {})


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qfchub import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qfchub.__all__)
    assert len(set(qfchub.__all__)) == len(qfchub.__all__)


def test_pm_scan_peak_at_target(tmp_path, run_cli):
    proc = run_cli(["pm-scan", "--signal", "780", "--target", "1540",
                    "--length", "40"], tmp_path)
    summary = summary_of(proc)
    rows = read_schema_csv(tmp_path / summary["output"])
    best = max(rows, key=lambda r: float(r["efficiency"]))
    assert float(best["lambda_c_nm"]) == pytest.approx(1540.0, abs=1e-3)


def test_pm_scan_peak_skips_nan_points(tmp_path, run_cli):
    # extrapolated far enough that n^2 < 0 makes some efficiencies NaN
    proc = run_cli(["pm-scan", "--signal", "780", "--target", "1540", "--window-thz",
                    "190", "--step-ghz", "1000", "--allow-extrapolation"], tmp_path)
    summary = summary_of(proc)
    rows = read_schema_csv(tmp_path / summary["output"])
    assert any(r["efficiency"] == "nan" for r in rows)
    assert summary["peak_lambda_c_nm"] == 1540.0


def test_pm_scan_json_writes_null_for_nan(tmp_path, run_cli):
    # strict JSON has no NaN token; the CSV of the same scan keeps "nan"
    argv = ["pm-scan", "--signal", "780", "--target", "1540", "--window-thz", "190",
            "--step-ghz", "1000", "--allow-extrapolation"]
    summary = summary_of(run_cli([*argv, "--format", "json"], tmp_path))
    records = read_json(tmp_path / summary["output"])
    rows = read_schema_csv(tmp_path / summary_of(run_cli(argv, tmp_path))["output"])
    assert ([r["efficiency"] is None for r in records]
            == [r["efficiency"] == "nan" for r in rows])
    assert sum(r["efficiency"] is None for r in records) == 32


def test_pm_scan_narrow_peak_493(tmp_path, run_cli):
    proc = run_cli(["pm-scan", "--signal", "493", "--target", "1540",
                    "--window-thz", "1", "--step-ghz", "0.5"], tmp_path)
    summary = summary_of(proc)
    rows = read_schema_csv(tmp_path / summary["output"])
    above = [float(r["lambda_c_nm"]) for r in rows if float(r["efficiency"]) >= 0.9]
    assert 0.05 < max(above) - min(above) < 0.5


def test_pm_scan_length_scaling(tmp_path, run_cli):
    counts = {}
    for length in ("20", "40"):
        proc = run_cli(["pm-scan", "--signal", "780", "--target", "1540",
                        "--length", length, "--output", f"scan_{length}.csv"],
                       tmp_path)
        summary_of(proc)
        rows = read_schema_csv(tmp_path / f"scan_{length}.csv")
        counts[length] = sum(1 for r in rows if float(r["efficiency"]) >= 0.9)
    assert counts["20"] > counts["40"]


def test_tuning_range_summary(tmp_path, run_cli):
    proc = run_cli(["tuning-range", "--signal", "780", "--target", "1540",
                    "--length", "40", "--cutoff", "1550"], tmp_path)
    summary = summary_of(proc)
    assert summary["command"] == "tuning-range"
    assert summary["width_nm"] == pytest.approx(19.5, abs=1.5)
    assert summary["limiting_constraint"] == "cutoff"
    assert summary["threshold"] == 0.9


_TUNING = ["tuning-range", "--signal", "780", "--target", "1540"]
_SWEEP = ["hub-sweep", "--start", "700", "--stop", "710", "--target", "1540"]
_SCAN = ["pm-scan", "--signal", "780", "--target", "1540"]


@pytest.mark.parametrize("argv, named", [
    pytest.param([*_TUNING, "--length", "nan"], None, id="length-nan"),
    pytest.param([*_TUNING, "--cutoff", "nan"], None, id="cutoff-nan"),
    pytest.param([*_TUNING, "--scan-halfwidth-thz", "nan"], None, id="scan-halfwidth-nan"),
    pytest.param([*_TUNING, "--coarse-step-ghz", "inf"], None, id="coarse-step-inf"),
    pytest.param([*_SWEEP, "--temperature", "nan"], None, id="temperature-nan"),
    pytest.param(["hub-sweep", "--start", "nan", "--stop", "710", "--target", "1540"],
                 None, id="sweep-start-nan"),
    pytest.param(["hub-sweep", "--start", "700", "--stop", "inf", "--target", "1540"],
                 None, id="sweep-stop-inf"),
    pytest.param(["hub-sweep", "--start", "700", "--stop", "710", "--target", "nan"],
                 None, id="sweep-target-nan"),
    pytest.param(["reproduce-paper", "--sweep-step", "nan"], "signal_step_nm: ",
                 id="sweep-step-nan"),
    pytest.param([*_SCAN, "--window-thz", "nan"], None, id="window-nan"),
    pytest.param([*_SCAN, "--step-ghz", "inf"], "step_ghz: ", id="scan-step-inf"),
    pytest.param(["plan", "--curve", "--curve-step-ghz", "nan"], "step_ghz: ",
                 id="curve-step-nan"),
    pytest.param([*_SWEEP, "--step", "1e-300"], "signal_step_nm: ", id="sweep-step-tiny"),
    pytest.param(["reproduce-paper", "--sweep-step", "1e-300"], "signal_step_nm: ",
                 id="paper-sweep-step-tiny"),
    pytest.param([*_SCAN, "--step-ghz", "1e-12"], "step_ghz: ", id="scan-step-tiny"),
    pytest.param(["plan", "--curve", "--curve-step-ghz", "1e-12"], "step_ghz: ",
                 id="curve-step-tiny"),
    pytest.param([*_TUNING, "--coarse-step-ghz", "1e-300"], "coarse_step_ghz: ",
                 id="coarse-step-tiny"),
    pytest.param([*_SWEEP, "--coarse-step-ghz", "0.01"], "coarse_step_ghz: ",
                 id="coarse-step-past-grid-bound"),
    pytest.param([*_TUNING, "--channel-spacing-ghz", "1e-300"], "channel_spacing_ghz: ",
                 id="channel-spacing-tiny"),
    pytest.param([*_TUNING, "--format", "json"], None, id="tuning-range-json-without-output"),
    pytest.param(["index", "-780", "--allow-extrapolation"], None, id="index-negative"),
    pytest.param(["index", "0", "--allow-extrapolation"], None, id="index-zero"),
    pytest.param(["index", "nan", "--allow-extrapolation"], None, id="index-nan"),
    pytest.param(["pm-scan", "--signal", "nan", "--target", "1540", "--allow-extrapolation"],
                 None, id="scan-signal-nan"),
    pytest.param(["tuning-range", "--signal", "inf", "--target", "1540"], None,
                 id="tuning-signal-inf"),
    # a fault every signal of a sweep shares fails the sweep, as in tuning-range
    pytest.param([*_SWEEP, "--temperature", "300"], None, id="sweep-temperature-300"),
    pytest.param(["hub-sweep", "--start", "780", "--stop", "782", "--target", "6000"],
                 None, id="sweep-target-6000"),
    pytest.param(["plan", "--grid-ports", "8000"], None, id="grid-ports-8000"),
    pytest.param(["plan", "--grid-ports", "1000000000"], None, id="grid-ports-1e9"),
    # every port must lie in the fit; 5397 ports reach 5.0007 um
    pytest.param(["plan", "--grid-ports", "5500"], None, id="grid-ports-past-fit"),
    pytest.param(["plan", "--grid-ports", "7000", "--format", "json"], None,
                 id="grid-ports-past-fit-json"),
    # ports that would coincide
    pytest.param(["plan", "--grid-spacing-ghz", "1e-300"], None, id="grid-spacing-tiny"),
    # sinc^2 is 0 at every point, the center too: a spectrum with no peak
    pytest.param([*_SCAN, "--length", "1e308"], None, id="scan-efficiency-zero"),
    pytest.param([*_SCAN, "--length", "1e308", "--format", "json"], None,
                 id="scan-efficiency-zero-json"),
    # no point of the curve is defined: its error is the only line, with no warning
    pytest.param(["plan", "--curve", "--laser-min-nm", "1e5", "--laser-max-nm", "1e9"],
                 "efficiency is zero or undefined over the whole range\n",
                 id="curve-undefined"),
    # the curve checks its range before it sizes its grid, so a range that reaches
    # the signal frequency is what the error names, not the step
    pytest.param(["plan", "--curve", "--laser-min-nm", "1e-9"],
                 "pump range reaches the signal frequency\n", id="curve-laser-min-1e-9"),
    # an anchor whose wavelength overflows is named, with no warning before it
    pytest.param(["plan", "--grid-anchor-thz", "5e-324", "--grid-ports", "1"],
                 "wavelength inf um must be finite and > 0\n", id="grid-anchor-5e-324"),
    # a value outside the fit never reads as the bound, inside the window, or at length
    pytest.param(["index", "399.99999"], "wavelength 0.39999999 um outside jundt1997 "
                 "validity [0.400, 5.000] um\n", id="index-just-below-fit"),
    pytest.param(["sweet-spot", "--signal", "780", "--target", "1540", "--temperature",
                  "21.4999"], "temperature 21.4999 C outside jundt1997 validity "
                 "[21.5, 250.0] C\n", id="temperature-just-below-fit"),
    pytest.param(["sweet-spot", "--signal", "780", "--target", "1540", "--temperature",
                  "1e308"], "temperature 1e+308 C outside jundt1997 validity "
                 "[21.5, 250.0] C\n", id="temperature-1e308"),
    # a negative number in exponent form is a value, as -50 is, not a flag
    pytest.param(["sweet-spot", "--signal", "780", "--target", "1540", "--temperature",
                  "-5e1"], "temperature -50.00 C outside jundt1997 validity "
                 "[21.5, 250.0] C\n", id="temperature-negative-exponent"),
    pytest.param(["index", "-5e2", "--allow-extrapolation"],
                 "wavelength -0.5 um must be finite and > 0\n", id="index-negative-exponent"),
    pytest.param(["index", "0.001"], "wavelength 1e-06 um outside jundt1997 validity "
                 "[0.400, 5.000] um\n", id="index-reads-as-zero"),
    pytest.param(["sweet-spot", "--signal", "780", "--target", "1e-300"],
                 "signal frequency 384.349 THz must exceed converted frequency "
                 "2.99792458e+305 THz\n", id="converted-frequency-1e305"),
    # the grid's count as it is, not rounded onto the bound
    pytest.param(["tuning-range", "--signal", "780", "--target", "1540",
                  "--channel-spacing-ghz", "0.1199"], "channel_spacing_ghz: grid of 1000834 "
                 "steps of 0.0001199 THz over 120 THz exceeds 1000000 steps\n",
                 id="channel-spacing-past-bound"),
    pytest.param(["tuning-range", "--signal", "780", "--target", "1540",
                  "--coarse-step-ghz", "0.0599"], "coarse_step_ghz: grid of 1001669 ",
                 id="coarse-step-past-bound"),
    # so far out that the fit's terms would overflow: an error that says so, with
    # no warning; zelmon1997's n at 1e100 um is 3.679, so it is not the n^2 error
    *(pytest.param([*argv, f"--temperature={t}", "--allow-extrapolation"],
                   "jundt1997: fit terms overflow at requested point; fit is unusable here\n",
                   id=f"{argv[0]}-temperature-{t}")
      for argv in (["index", "780"], _SCAN) for t in ("1e100", "1e200")),
    pytest.param(["index", "1e300", "--allow-extrapolation"],
                 "jundt1997: fit terms overflow at requested point; fit is unusable here\n",
                 id="index-1e300"),
    pytest.param(["index", "1e100", "--material", "zelmon1997", "--temperature", "21",
                  "--allow-extrapolation"], "zelmon1997: fit terms overflow at requested "
                 "point; fit is unusable here\n", id="index-zelmon-1e100"),
])
def test_non_finite_values_exit_2(argv, named, tmp_path, run_cli):
    # a bad grid step names its step parameter (the coarse step's non-finite
    # values are rejected before the grid rule, by TuningConstraints); ``named``
    # is what follows "error: "
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {named or ''}")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("signal, tag", [("1e160", "no_pump"), ("5e-324", "outside_fit"),
                                         ("1e-310", "outside_fit")])
def test_sweep_signal_whose_terms_overflow_is_a_quiet_row(signal, tag, tmp_path, run_cli):
    # its frequency, wavelength or wavenumber overflows; the row is tagged, with no warning
    summary = summary_of(run_cli(["hub-sweep", "--start", signal, "--stop", signal,
                                  "--target", "1540"], tmp_path))
    rows = read_schema_csv(tmp_path / summary["output"])
    assert [row["limiting_constraint"] for row in rows] == [tag]


def test_plan_up_to_the_fit(tmp_path, run_cli):
    # 5396 ports end at 5.0000 um, inside the fit; one more does not
    summary = summary_of(run_cli(["plan", "--grid-ports", "5396"], tmp_path))
    assert summary["ports"] == 5396
    assert len(read_schema_csv(tmp_path / "pump_plan.csv")) == 5396


def test_huge_length_is_quiet(tmp_path, run_cli):
    # a far point of the sinc^2 kernel no longer overflows its series branch
    summary = summary_of(run_cli(["tuning-range", "--signal", "780", "--target", "1540",
                                  "--length", "1e300"], tmp_path))
    assert summary["width_nm"] == 0.0


def test_tuning_range_empty_is_exit_zero(tmp_path, run_cli):
    proc = run_cli(["tuning-range", "--signal", "770", "--target", "1540",
                    "--separation", "20"], tmp_path)
    summary = summary_of(proc)
    assert summary["width_nm"] == 0.0
    assert summary["limiting_constraint"] == "separation"


def test_plan_outputs(tmp_path, run_cli):
    proc = run_cli(["plan", "--curve"], tmp_path)
    summary = summary_of(proc)
    assert summary["ports"] == 16
    assert summary["all_in_laser_range"] is True
    rows = read_schema_csv(tmp_path / "pump_plan.csv")
    assert len(rows) == 16
    port7 = rows[6]
    assert port7["nu_p_THz"] == "189.500"
    assert port7["lambda_p_nm"] == "1582.02"
    band = summary["band_90_THz"]
    assert band[0] < 188.9 and band[1] > 190.5
    # the threshold ends the low pump side, the laser's 1572.063 nm the high one
    assert summary["band_limits"] == ["threshold", "laser_range"]
    assert (tmp_path / "pump_plan_curve.csv").exists()


def test_plan_band_does_not_depend_on_the_curve_step(tmp_path, run_cli):
    # the band is the tuning walk's, not a reading of the display curve's grid
    bands = [summary_of(run_cli(["plan", "--curve", "--curve-step-ghz", step], tmp_path))
             for step in ("1", "500")]
    assert [b["band_90_THz"] for b in bands] == [[188.3901, 190.7]] * 2
    assert bands[0]["band_limits"] == bands[1]["band_limits"]


def test_plan_band_empty_outside_the_laser_range(tmp_path, run_cli):
    # a center at 191.0 THz puts its pump at 193.2 THz, past the laser range:
    # no band, and both sides say why
    summary = summary_of(run_cli(["plan", "--curve", "--center-freq", "191.0"], tmp_path))
    assert summary["band_90_THz"] == [193.2, 193.2]
    assert summary["band_limits"] == ["laser_range", "laser_range"]


def test_plan_json_format(tmp_path, run_cli):
    proc = run_cli(["plan", "--format", "json", "--output", "plan.json"], tmp_path)
    summary_of(proc)
    payload = read_json(tmp_path / "plan.json")
    assert len(payload["ports"]) == 16
    assert payload["ports"][0]["nu_c_THz"] == pytest.approx(194.850)


def test_simulate_balanced_bit_flip(tmp_path, run_cli):
    proc = run_cli(["simulate", "--eta-cw", "0.5", "--eta-ccw", "0.5",
                    "--input", "H"], tmp_path)
    summary = summary_of(proc)
    assert summary["output_bloch"] == pytest.approx([0.0, 0.0, -1.0], abs=1e-9)
    assert summary["success_probability"] == pytest.approx(0.5, rel=1e-9)


def test_simulate_degenerate_exits_3(tmp_path, run_cli):
    proc = run_cli(["simulate", "--eta-cw", "0", "--eta-ccw", "0.5",
                    "--input", "V"], tmp_path)
    assert proc.returncode == 3
    assert "numeric error" in proc.stderr


_EXIT_CASES = [(["index", "780", "1540"], 0), (["index", "300"], 2),
               (["simulate", "--eta-cw", "0", "--eta-ccw", "0.5", "--input", "V"], 3)]


@pytest.mark.parametrize("argv, code", _EXIT_CASES)
def test_run_returns_the_code_of_main_and_freezes_the_heap(argv, code, monkeypatch, capsys):
    # run() is main() for a process about to end: the collector's objects are
    # frozen, so the interpreter's exit collections have nothing to scan
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    before = gc.get_freeze_count()
    try:
        assert run(argv) == code
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("argv, code", _EXIT_CASES)
def test_main_never_freezes(argv, code, monkeypatch, capsys):
    # tests and library callers keep a normal collector
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    before = gc.get_freeze_count()
    assert main(argv) == code
    assert gc.get_freeze_count() == before


def test_console_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"qfchub": "qfchub.cli:run"}


def test_index_reader_leaving_early_exits_1_without_traceback(tmp_path, start_cli):
    # 9,000 rows overflow the pipe; its reader closes it after the header
    wavelengths = [f"{400 + 0.1 * i:.1f}" for i in range(9000)]
    proc = start_cli(["index", *wavelengths], tmp_path, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"wavelength_nm,n,dn_dlambda_per_um,group_index\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr


def test_summary_line_to_a_closed_pipe_exits_1_without_traceback(tmp_path, start_cli):
    # as `qfchub sweet-spot ... | true`: no reader is left when the line is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = start_cli(["sweet-spot", "--signal", "780", "--target", "1540"], tmp_path,
                         stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    stderr = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in stderr


def test_stdout_closed_from_the_start_still_exits_0(tmp_path, start_cli):
    # python sets sys.stdout to None: print() then writes nothing, and index skips its table
    for argv in (["sweet-spot", "--signal", "780", "--target", "1540"], ["index", "780"]):
        proc = start_cli(argv, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=lambda: os.close(1))
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout, stderr) == (0, b"", b""), argv


def test_sweet_spot_checks_the_working_point_as_tuning_range_does(tmp_path, run_cli):
    argv = ["--signal", "390", "--target", "1540"]
    sweet, tuning = (run_cli([command, *argv], tmp_path)
                     for command in ("sweet-spot", "tuning-range"))
    assert sweet.returncode == tuning.returncode == 2
    assert sweet.stderr == tuning.stderr == (
        "error: wavelength 0.3900 um outside jundt1997 validity [0.400, 5.000] um\n")


def test_tomography_output(tmp_path, run_cli):
    proc = run_cli(["tomography", "--eta-cw", "0.40", "--eta-ccw", "0.44"],
                   tmp_path)
    summary = summary_of(proc)
    assert summary["process_fidelity"] == pytest.approx(0.9994, abs=1e-3)
    payload = read_json(tmp_path / "tomography.json")
    assert payload["chi_reconstructed"]["basis"] == ["I", "X", "Y", "Z"]
    rec = payload["chi_reconstructed"]["chi"]
    closed = payload["chi_closed_form"]["chi"]
    flat = lambda chi: np.array(chi, dtype=float).ravel()
    assert np.max(np.abs(flat(rec) - flat(closed))) < 1e-9


def test_fit_round_trip(tmp_path, run_cli):
    powers = np.linspace(0.0, 250.0, 26)
    params = EfficiencyCurveParams(0.44, 0.013)
    lines = ["P_mW,eta"] + [f"{p:.3f},{efficiency_model(p, params):.9f}"
                            for p in powers]
    (tmp_path / "synthetic.csv").write_text("\n".join(lines) + "\n")
    proc = run_cli(["fit", "--input", "synthetic.csv"], tmp_path)
    summary = summary_of(proc)
    assert summary["eta_max"] == pytest.approx(0.44, rel=0.01)
    assert summary["eta_nor_per_mW"] == pytest.approx(0.013, rel=0.01)


def test_fit_ignores_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    # a spreadsheet's "CSV UTF-8" starts with U+FEFF: with or without a header
    # row, the file fits the same points as the file without the mark
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    rows = "10,0.12\n40,0.31\n80,0.41\n120,0.43\n200,0.35\n"
    fits = []
    for text in (rows, "\ufeff" + rows, "P_mW,eta\n" + rows, "\ufeffP_mW,eta\n" + rows):
        (tmp_path / "fit.csv").write_text(text, encoding="utf-8")
        assert main(["fit", "--input", str(tmp_path / "fit.csv")]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        fits.append({k: v for k, v in summary.items() if k != "elapsed_s"})
    assert fits[0]["points"] == 5
    assert fits == [fits[0]] * 4


def test_fit_empty_input_exits_2(tmp_path, run_cli):
    (tmp_path / "empty.csv").write_text("# nothing here\n")
    proc = run_cli(["fit", "--input", "empty.csv"], tmp_path)
    assert proc.returncode == 2
    assert "no (P, eta) rows found" in proc.stderr


def test_fit_bad_middle_row_exits_2(tmp_path, run_cli):
    lines = ["P_mW,eta", "10,0.10", "20,oops", "30,0.30", "40"]
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    proc = run_cli(["fit", "--input", "bad.csv"], tmp_path)
    assert proc.returncode == 2
    assert "line 3" in proc.stderr and "20,oops" in proc.stderr
    (tmp_path / "short.csv").write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    proc = run_cli(["fit", "--input", "short.csv"], tmp_path)
    assert proc.returncode == 2
    assert "line 4" in proc.stderr


def test_fit_non_finite_or_negative_input_exits_2(tmp_path, run_cli):
    rows = [f"{p},{0.44 * np.sin(np.sqrt(0.013 * p)) ** 2:.9f}" for p in range(0, 260, 25)]
    for name, row, message in (("nan.csv", "130,nan", "finite"),
                               ("inf.csv", "130,inf", "finite"),
                               ("nan_power.csv", "nan,0.2", "finite"),
                               ("negative.csv", "-5,0.01", "non-negative"),
                               ("huge_eta.csv", "130,1e160", "largest power must lie in"),
                               ("huge_power.csv", "1e300,0.2", "largest power must lie in")):
        (tmp_path / name).write_text("\n".join(["P_mW,eta", *rows, row]) + "\n")
        proc = run_cli(["fit", "--input", name], tmp_path)
        assert proc.returncode == 2, (name, proc.stderr)
        assert message in proc.stderr and len(proc.stderr.splitlines()) == 1, name
        assert proc.stdout == ""


def test_fit_ends_in_a_fit_or_one_error_line(tmp_path, run_cli):
    # a peak so near 0 mW that (pi/2)^2 / P overflows starts as a peak at 0 mW
    (tmp_path / "near_zero.csv").write_text("P_mW,eta\n5e-324,0.9\n10,0.1\n20,0.2\n")
    assert summary_of(run_cli(["fit", "--input", "near_zero.csv"], tmp_path))["eta_max"] == 1.0
    # a Gauss-Newton step whose square overflows is a numeric error
    (tmp_path / "steep.csv").write_text("P_mW,eta\n1e-300,1e10\n1e-10,0.52\n1e-10,0.99\n")
    proc = run_cli(["fit", "--input", "steep.csv"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: efficiency fit: Gauss-Newton step is not finite\n"
    assert proc.stdout == ""
    # a step to eta_max = 0 is degenerate data, not a bad parameter of the caller's
    (tmp_path / "zero.csv").write_text("P_mW,eta\n0,0\n5,1\n200,0.3\n500,-1e18\n")
    proc = run_cli(["fit", "--input", "zero.csv"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == ("numeric error: efficiencies do not follow the saturation curve: "
                           "the best eta_max at eta_nor 265.296 /mW is 0; nothing to fit\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["fit", "--input", "missing.csv"], id="fit-missing-input"),
    pytest.param(["fit", "--input", "latin1.csv"], id="fit-non-utf8-input"),
    pytest.param(["index", "780", "--output", "a_directory"], id="index-output-is-directory"),
    pytest.param(["tuning-range", "--signal", "780", "--target", "1540", "--format", "json",
                  "--output", "a_file/x.json"], id="json-output-under-a-file"),
])
def test_unreadable_or_unwritable_file_exits_2(argv, tmp_path, run_cli):
    (tmp_path / "latin1.csv").write_bytes("P_\u00b5W,eta\n10,0.1\n".encode("latin-1"))
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("")
    proc = run_cli(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    path = argv[argv.index("--output") + 1] if "--output" in argv else argv[-1]
    assert path in proc.stderr
    assert proc.stdout == ""


# sha256 of files the paper run does not write, recorded from the code before
# the CSV writer was chunked; each command writes the files listed with it. The
# 300-1100 nm sweeps (degenerate, cutoff-empty, separation-empty and failed
# working points) were recorded from the solver that still checked the cutoff
# and the separation at the center, and re-recorded when a failed working point
# got its own code: only the limiting_constraint of those rows changed, from
# scan_edge to outside_fit (300-399 nm in all three, and 1039-1100 nm in s1310.csv,
# whose pump passes 5 um there).
_WIDE_SWEEP = ["hub-sweep", "--start", "300", "--stop", "1100"]
PINNED_OUTPUTS = [
    (["plan", "--output", "plan.csv"],
     {"plan.csv": "879c998f60345a2b6c6fc724f3cc9916e93506b3c3c4f2d2407fd69b84d0f53b"}),
    (["plan", "--format", "json", "--output", "plan.json"],
     {"plan.json": "3b7614443cc85502da47c3265f12d87c5ef66f1c4e7b8c215ac28ee60c33487a"}),
    (["plan", "--curve", "--output", "planc.csv"],
     {"planc.csv": "879c998f60345a2b6c6fc724f3cc9916e93506b3c3c4f2d2407fd69b84d0f53b",
      "planc_curve.csv": "015cabff81cfea92380dbeb40f912a60d5e5f1f7627f52c5fdf260572bee5046"}),
    (["hub-sweep", "--start", "780", "--stop", "800", "--target", "1540",
      "--output", "hs.csv"],
     {"hs.csv": "467a5ff079b73854d0b939fb0061f24f7f7f525ea12374bc6d262a5a8549b639"}),
    (["hub-sweep", "--start", "780", "--stop", "800", "--target", "1540",
      "--format", "json", "--output", "hs.json"],
     {"hs.json": "57de73137d34cc1dedb4b200e856333e4edc7dc0a92e444169d12899dc3c7dfc"}),
    ([*_WIDE_SWEEP, "--target", "1560", "--cutoff", "1550", "--output", "c1560.csv"],
     {"c1560.csv": "88c0e80635138b11e1b34eb95522936d9356d51421bbc1c92c3acdfa6cb69746"}),
    ([*_WIDE_SWEEP, "--target", "1310", "--separation", "5", "--output", "s1310.csv"],
     {"s1310.csv": "718ba5e8e5dc7d8a660a1dd7acc727384fa86e73e900a533a776f4903f7e155a"}),
    ([*_WIDE_SWEEP, "--target", "1540", "--separation", "20", "--output", "s1540.csv"],
     {"s1540.csv": "156fcac2b5cc35785c4beb82afcf69b70cacaaeb6cd1189929556214e9c2937c"}),
    (["tuning-range", "--signal", "780", "--target", "1540", "--output", "x.csv"],
     {"x.csv": "72baf5b3c178da8d773ab2fa08769517daf3c9e220c395ca476b898e6c58298c"}),
    (["pm-scan", "--signal", "780", "--target", "1540", "--output", "pm.csv"],
     {"pm.csv": "edc5dbd285d3082cc0ed088bcd096208872ee6f54aa0837929d9e182bc96593a"}),
    (["pm-scan", "--signal", "780", "--target", "1540", "--format", "json",
      "--output", "pm.json"],
     {"pm.json": "b189ee705dc69b5f1edba5db64b19f313c8a9789507f3d9fd3ed4d118f8ff3af"}),
    (["index", "780", "1540", "1580", "--output", "idx.csv"],
     {"idx.csv": "bb4b45f5d647a4a230c387f56f51794de7d0d863ab38a8aafba7eec360eda71d"}),
    (["index", "780", "1540", "1580", "--format", "json", "--output", "idx.json"],
     {"idx.json": "701bbcb3544d2dbe3e91e8e1bda42054956d3ed09caf882a71b380b2bd8d0764"}),
]


@pytest.mark.parametrize("argv, digests", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS])
def test_cli_files_match_pinned_digests(argv, digests, tmp_path, run_cli):
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG_PATH}
    summary_of(run_cli(argv, tmp_path, env=env))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _pinned_cases(kind):
    cases = [(argv, digests) for argv, digests in PINNED_OUTPUTS
             if ("json" in argv) == (kind == "json")]
    return pytest.mark.parametrize("argv, digests", cases, ids=[a[-1] for a, _ in cases])


def _main_in_chunks(argv, digests, chunk, text, tmp_path, monkeypatch, capsys):
    # a command in process, its CSV kernels working ``chunk`` rows at a time and
    # its writers handing over ``text`` rows at a time
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(emit, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(emit, "_TEXT_ROWS", text)
    assert main(argv) == 0, capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("text", [1, 7])
@_pinned_cases("json")
def test_json_files_match_pinned_digests_in_any_chunk(argv, digests, text, tmp_path,
                                                      monkeypatch, capsys):
    # the records writer dumping 1 and 7 records at a time: the same bytes
    _main_in_chunks(argv, digests, emit._CHUNK_ROWS, text, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("chunk, text", [pytest.param(1, 1, id="1"), pytest.param(7, 7, id="7"),
                                         pytest.param(7, 1, id="7-1"),
                                         pytest.param(7, 3, id="7-3")])
@_pinned_cases("csv")
def test_csv_files_match_pinned_digests_in_any_chunk(argv, digests, chunk, text, tmp_path,
                                                     monkeypatch, capsys):
    # the column kernel in chunks of 1 and 7 rows, where the width of every
    # field changes from chunk to chunk, its text in slices of 1, 3 and 7 rows
    # inside them: the same bytes
    _main_in_chunks(argv, digests, chunk, text, tmp_path, monkeypatch, capsys)


def test_chi_payload_layout():
    chi = kraus_to_chi(QfcChannelModel(0.40, 0.44, 0.3, 0.05))
    payload = chi_payload(chi)
    assert payload["basis"] == ["I", "X", "Y", "Z"]
    assert payload["layout"] == "row-major"
    pairs = np.array(payload["chi"])
    assert pairs.shape == (4, 4, 2)
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], chi.chi)


def test_hub_sweep_file_and_repeatability(tmp_path, run_cli):
    args = ["hub-sweep", "--start", "770", "--stop", "790", "--step", "1",
            "--target", "1540", "--separation", "20", "--output", "sweep.csv"]
    summary_of(run_cli(args, tmp_path))
    first = (tmp_path / "sweep.csv").read_bytes()
    summary_of(run_cli(args, tmp_path))
    assert (tmp_path / "sweep.csv").read_bytes() == first
    rows = read_schema_csv(tmp_path / "sweep.csv")
    assert len(rows) == 21
    assert [r["limiting_constraint"] for r in rows].count("separation") >= 5


def test_hub_sweep_json_format(tmp_path, run_cli):
    args = ["hub-sweep", "--start", "780", "--stop", "784", "--step", "2",
            "--target", "1540", "--separation", "20", "--format", "json",
            "--output", "sweep.json"]
    summary_of(run_cli(args, tmp_path))
    payload = read_json(tmp_path / "sweep.json")
    assert [p["signal_nm"] for p in payload] == [780.0, 782.0, 784.0]
    assert all(p["threshold"] == 0.9 for p in payload)


def test_hub_sweep_counts_its_limits(tmp_path, run_cli):
    # from 300 nm the sweep leaves jundt1997's 400 nm edge: every row is counted
    # once, under its own limiting_constraint, and no absent code is listed
    summary = summary_of(run_cli(["hub-sweep", "--start", "300", "--stop", "1000",
                                  "--step", "5", "--target", "1310"], tmp_path))
    rows = read_schema_csv(tmp_path / summary["output"])
    counts = summary["limit_counts"]
    assert sum(counts.values()) == summary["points"] == len(rows) == 141
    assert counts == {name: n for name in tuning._LIMITS
                      if (n := [r["limiting_constraint"] for r in rows].count(name))}
    assert counts["outside_fit"] == 20
    # max_width_nm and max_width_signal_nm name the first of the widest rows
    widths = [float(r["width_nm"]) for r in rows]
    first = widths.index(max(widths))
    assert (summary["max_width_nm"], summary["max_width_signal_nm"]) == (
        widths[first], float(rows[first]["signal_nm"]))


def test_extrapolated_points_are_counted(tmp_path, run_cli):
    # a 380 nm signal lies below jundt1997's 400 nm edge: every point of its scan
    # is extrapolated; the default plan's curve stays inside the fit
    summary = summary_of(run_cli(["pm-scan", "--signal", "380", "--target", "1540",
                                  "--allow-extrapolation"], tmp_path))
    rows = read_schema_csv(tmp_path / summary["output"])
    assert summary["extrapolated_points"] == summary["points"] == len(rows) == 6001
    assert {r["extrapolated"] for r in rows} == {"true"}
    summary = summary_of(run_cli(["plan", "--curve"], tmp_path))
    rows = read_schema_csv(tmp_path / summary["curve_output"])
    assert summary["extrapolated_points"] == 0
    assert {r["extrapolated"] for r in rows} == {"false"}


def test_hub_sweep_command_holds_its_columns_once(tmp_path, monkeypatch, capsys):
    # The command's peak is the larger of its two stages, so it stays under the sum of:
    # - the sweep's 7 columns of 8-byte entries, held from the solve to the file;
    # - the solver's bound of test_hub_sweep_memory_is_bounded, whose arrays are
    #   freed before the file is written and which covers the limit names (11 B a row);
    # - the writer's transient for this table, measured here.
    # Points of the sweep (about 300 B each) held beside the columns would pass it.
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.chdir(tmp_path)
    argv = ["hub-sweep", "--start", "400", "--stop", "1000", "--step", "0.1",
            "--target", "1540", "--output", "sweep.csv"]
    assert main([*argv[:5], "--step", "100", *argv[7:]]) == 0  # warm the caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = json.loads(capsys.readouterr().out.splitlines()[-1])["points"]
    assert points == 6001
    config = RunConfig()
    sweep = tuning.hub_sweep_columns((400.0, 1000.0), 0.1, 1540.0, config.length_mm,
                                     config.temperature_c, config.model(),
                                     config.tuning_constraints())
    table = _sweep_table(sweep)
    tracemalloc.start()
    try:
        emit.write_csv(tmp_path / "again.csv", SWEEP_CSV, *table)
        kept, writer = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()
    solver = 8 * (16 * 2 * tuning._SIGNAL_BATCH + 12 * tuning._KERNEL_POINTS)
    assert peak <= 7 * 8 * points + solver + (writer - kept)


def test_config_file_with_flag_override(tmp_path, run_cli):
    config = {"length_mm": 20.0, "temperature_c": 48.0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    base = ["tuning-range", "--signal", "780", "--target", "1540",
            "--cutoff", "1550", "--config", "config.json"]
    with_config = summary_of(run_cli(base, tmp_path))
    assert with_config["length_mm"] == 20.0
    overridden = summary_of(run_cli(base + ["--length", "40"], tmp_path))
    assert overridden["length_mm"] == 40.0
    assert overridden["width_nm"] < with_config["width_nm"]


def test_config_via_environment(tmp_path, run_cli):
    (tmp_path / "env_config.json").write_text(json.dumps({"length_mm": 20.0}))
    env = dict(os.environ, QFCHUB_CONFIG=str(tmp_path / "env_config.json"))
    summary = summary_of(run_cli(
        ["tuning-range", "--signal", "780", "--target", "1540",
         "--cutoff", "1550"], tmp_path, env=env))
    assert summary["length_mm"] == 20.0


@pytest.mark.parametrize("argv, config", [
    pytest.param(["plan"], {"grid_ports": 8000}, id="grid-ports-8000"),
    pytest.param(["index", "780"], {"length_mm": "40"}, id="length-str"),
    pytest.param(["tuning-range", "--signal", "780", "--target", "1540"],
                 {"efficiency_threshold": "0.9"}, id="threshold-str"),
    pytest.param(["plan"], {"grid_ports": True}, id="grid-ports-bool"),
    pytest.param(["index", "6000"], {"allow_extrapolation": "no"}, id="extrapolation-str"),
])
def test_bad_config_value_exits_2(argv, config, tmp_path, run_cli):
    # a bad value or a value of the wrong type is one error line, and no file
    (tmp_path / "c.json").write_text(json.dumps(config))
    proc = run_cli([*argv, "--config", "c.json"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_config_int_for_a_float_key_runs(tmp_path, run_cli):
    argv = ["tuning-range", "--signal", "780", "--target", "1540"]
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG_PATH}
    (tmp_path / "c.json").write_text(json.dumps({"length_mm": 40}))
    with_int = summary_of(run_cli([*argv, "--config", "c.json"], tmp_path, env=env))
    without = summary_of(run_cli(argv, tmp_path, env=env))
    del with_int["elapsed_s"], without["elapsed_s"]
    assert with_int == without
    assert load_config(tmp_path / "c.json").length_mm == 40


def test_run_config_defaults_are_the_builders_defaults():
    config = RunConfig()
    assert config.grid() == DwdmGrid()
    assert config.laser() == LaserSpec()
    constraints = config.tuning_constraints()
    # the CLI's own cutoff of 1550 nm is the one difference
    assert (constraints.constraint_mode, constraints.constraint_value_nm) == (
        "max_converted_wavelength", 1550.0)
    assert replace(constraints, constraint_mode=TuningConstraints.constraint_mode,
                   constraint_value_nm=TuningConstraints.constraint_value_nm
                   ) == TuningConstraints()


def test_bad_config_exits_2(tmp_path, run_cli):
    (tmp_path / "bad.json").write_text(json.dumps({"not_a_key": 1}))
    proc = run_cli(["plan", "--config", "bad.json"], tmp_path)
    assert proc.returncode == 2
    assert "unknown config keys" in proc.stderr


_BUILTIN_RECORDS = {r["name"]: r for r in json.loads(
    (Path(qfchub.__file__).parent / "data" / "materials.json").read_text())["materials"]}


def _material_file(base, **changes):
    """A one-record material file: built-in record ``base`` named "custom",
    with ``changes`` applied (a value of None drops that field)."""
    record = {**_BUILTIN_RECORDS[base], "name": "custom", **changes}
    return json.dumps({"materials": [{k: v for k, v in record.items() if v is not None}]})


# 22 C lies inside the validity window of both base records
_CUSTOM_INDEX = ["index", "1540", "--material-file", "mats.json", "--material", "custom",
                 "--temperature", "22"]
_JUNDT_COEFFICIENTS = _BUILTIN_RECORDS["jundt1997"]["coefficients"]
_ZELMON_COEFFICIENTS = _BUILTIN_RECORDS["zelmon1997"]["coefficients"]


def test_good_material_file_runs(tmp_path, run_cli):
    # the controls of the bad files below; lambda_sq_poles may omit thermal fields
    for text in (_material_file("jundt1997"),
                 _material_file("zelmon1997", thermal_coefficients=None,
                                thermal_reference=None)):
        (tmp_path / "mats.json").write_text(text)
        assert summary_of(run_cli(_CUSTOM_INDEX, tmp_path))["rows"] == 1


@pytest.mark.parametrize("text", [
    pytest.param(None, id="missing-file"),
    pytest.param("{not json", id="unparsable"),
    pytest.param(json.dumps({"models": []}), id="no-materials-key"),
    pytest.param(json.dumps(json.loads(_material_file("jundt1997"))["materials"]),
                 id="bare-list"),
    pytest.param(json.dumps({"materials": [1.5]}), id="record-not-object"),
    pytest.param(_material_file("jundt1997", coefficients=_JUNDT_COEFFICIENTS[:5]),
                 id="thermal-5-coefficients"),
    pytest.param(_material_file("jundt1997", thermal_coefficients=[0.0] * 3),
                 id="thermal-3-thermal-coefficients"),
    pytest.param(_material_file("jundt1997", thermal_reference=None),
                 id="thermal-no-reference"),
    pytest.param(_material_file("zelmon1997", coefficients=_ZELMON_COEFFICIENTS[:3]),
                 id="poles-odd-count"),
    pytest.param(_material_file("zelmon1997", coefficients=[]), id="poles-empty"),
    pytest.param(_material_file("jundt1997",
                                coefficients=[*_JUNDT_COEFFICIENTS[:5], "0.015334"]),
                 id="string-coefficient"),
    pytest.param(_material_file("jundt1997", coefficients=[*_JUNDT_COEFFICIENTS[:5], True]),
                 id="bool-coefficient"),
    pytest.param(_material_file("zelmon1997", coefficients=[float("nan"), 0.02]),
                 id="nan-coefficient"),
    pytest.param(_material_file("jundt1997", temperature_c=[21.5, float("inf")]),
                 id="inf-window"),
    pytest.param(_material_file("jundt1997", wavelength_um=[5.0, 0.4]),
                 id="descending-wavelengths"),
    pytest.param(_material_file("zelmon1997", temperature_c=[25.0, 25.0]),
                 id="empty-temperatures"),
    pytest.param(_material_file("jundt1997", wavelength_um=[0.4, 3.0, 5.0]),
                 id="three-bound-window"),
])
def test_bad_material_file_exits_2(text, tmp_path, run_cli):
    if text is not None:
        (tmp_path / "mats.json").write_text(text)
    proc = run_cli(_CUSTOM_INDEX, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "material" in proc.stderr  # the file's fault, not a validity window
    assert proc.stdout == ""


def test_reproduce_paper_fast(tmp_path, run_cli):
    proc = run_cli(["reproduce-paper", "--sweep-step", "25"], tmp_path)
    summary = summary_of(proc)
    assert summary["directory"] == "paper-run"
    directory = tmp_path / summary["directory"]
    names = {p.name for p in directory.iterdir()}
    assert {"pm_scan_780_L40.csv", "pm_scan_780_L20.csv", "pm_scan_493_L40.csv",
            "pm_scan_934_L40.csv", "sweep_cband.csv", "sweep_oband.csv",
            "tuning_range_L40.json", "tuning_range_L20.json",
            "pump_plan.csv", "pump_plan_curve.csv"} <= names


REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "ref"
PAPER_FILES = ("pm_scan_780_L40.csv", "pm_scan_780_L20.csv", "pm_scan_493_L40.csv",
               "pm_scan_934_L40.csv", "sweep_cband.csv", "sweep_oband.csv",
               "tuning_range_L40.json", "tuning_range_L20.json", "pump_plan.csv",
               "pump_plan_curve.csv")


def test_reproduce_paper_matches_reference_bytes(tmp_path, run_cli):
    # the byte-identity oracle: every default output equals its recorded reference
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG_PATH}
    summary = summary_of(run_cli(["reproduce-paper"], tmp_path, env=env))
    directory = tmp_path / summary["directory"]
    assert sorted(p.name for p in directory.iterdir()) == sorted(PAPER_FILES)
    for name in PAPER_FILES:
        reference = gzip.decompress((REFERENCE_DIR / f"{name}.gz").read_bytes())
        output = (directory / name).read_bytes()
        assert output == reference, _first_difference(name, output, reference)


def _first_difference(name, output, reference):
    """Where two files first differ: the file, the line number and both lines, a
    missing line read as the end of the file; line ends count, as they do for the bytes."""
    lines = [text.splitlines(keepends=True) for text in (output, reference)]
    at = next((i for i, pair in enumerate(zip(*lines)) if pair[0] != pair[1]),
              min(map(len, lines)))
    got, want = (side[at] if at < len(side) else "end of file" for side in lines)
    return f"{name}: line {at + 1} is {got!r}, reference has {want!r}"


def test_first_difference_names_the_line():
    # what the byte oracle reports when a file drifts from its reference
    assert _first_difference("f.csv", b"a\nb\nc\n", b"a\nb\nd\n") == (
        "f.csv: line 3 is b'c\\n', reference has b'd\\n'")
    assert _first_difference("f.csv", b"a\n", b"a\nb\n") == (
        "f.csv: line 2 is 'end of file', reference has b'b\\n'")
    assert _first_difference("f.csv", b"a\r\n", b"a\n") == (
        "f.csv: line 1 is b'a\\r\\n', reference has b'a\\n'")


# In-process checks of the parser and the config rules: no child processes.

# The smallest valid command line of each subcommand.
BASE_ARGV = {
    "index": ["index", "780"],
    "pm-scan": ["pm-scan", "--signal", "780", "--target", "1540"],
    "tuning-range": ["tuning-range", "--signal", "780", "--target", "1540"],
    "sweet-spot": ["sweet-spot", "--signal", "780", "--target", "1540"],
    "hub-sweep": ["hub-sweep", "--start", "770", "--stop", "790", "--target", "1540"],
    "plan": ["plan"],
    "simulate": ["simulate", "--eta-cw", "0.5", "--eta-ccw", "0.5"],
    "tomography": ["tomography", "--eta-cw", "0.5", "--eta-ccw", "0.5"],
    "fit": ["fit", "--input", "data.csv"],
    "reproduce-paper": ["reproduce-paper"],
}

_CONFIG_MATERIAL = ["--config", "--material", "--material-file", "--temperature"]
_CONSTRAINTS = ["--threshold", "--scan-halfwidth-thz", "--coarse-step-ghz",
                "--channel-spacing-ghz"]
_OUTPUT = ["--format", "--output"]

# Every flag of each subcommand; each one is read by its handler, except
# --workers, which is accepted for compatibility and ignored.
FLAGS = {
    "index": [*_CONFIG_MATERIAL, *_OUTPUT, "--allow-extrapolation"],
    "pm-scan": ["--signal", "--target", "--window-thz", "--step-ghz", *_CONFIG_MATERIAL,
                "--length", *_OUTPUT, "--allow-extrapolation"],
    "tuning-range": ["--signal", "--target", "--cutoff", "--separation", *_CONSTRAINTS,
                     *_CONFIG_MATERIAL, "--length", *_OUTPUT],
    "sweet-spot": ["--signal", "--target", *_CONFIG_MATERIAL],
    "hub-sweep": ["--start", "--stop", "--step", "--target", "--cutoff", "--separation",
                  *_CONSTRAINTS, *_CONFIG_MATERIAL, "--length", *_OUTPUT, "--workers"],
    "plan": ["--signal-freq", "--center-freq", "--grid-anchor-thz", "--grid-spacing-ghz",
             "--grid-ports", "--laser-min-nm", "--laser-max-nm", "--curve",
             "--curve-step-ghz", *_CONFIG_MATERIAL, "--length", *_OUTPUT],
    "simulate": ["--eta-cw", "--eta-ccw", "--phase", "--mix", "--input", "--config",
                 "--output"],
    "tomography": ["--eta-cw", "--eta-ccw", "--phase", "--mix", "--config", "--output"],
    "fit": ["--input", "--config", "--output"],
    "reproduce-paper": ["--out-dir", "--sweep-step", *_CONSTRAINTS, *_CONFIG_MATERIAL,
                        "--length", "--workers"],
}

REMOVED = {
    "index": ["--length", "--workers"],
    "pm-scan": ["--workers"],
    "tuning-range": ["--workers", "--allow-extrapolation"],
    "sweet-spot": ["--length", "--format", "--output", "--workers",
                   "--allow-extrapolation"],
    "hub-sweep": ["--allow-extrapolation"],
    "plan": ["--workers", "--allow-extrapolation"],
    **{cmd: ["--material", "--material-file", "--temperature", "--length", "--format",
             "--workers", "--allow-extrapolation"]
       for cmd in ("simulate", "tomography", "fit")},
    "reproduce-paper": ["--cutoff", "--separation", "--format", "--output",
                        "--allow-extrapolation"],
}

SWITCHES = {"--allow-extrapolation", "--curve"}
VALUES = {"--format": "json", "--material": "zelmon1997", "--input": "H",
          "--grid-ports": "8", "--workers": "2", "--threshold": "0.85"}


def _flag_argv(flag):
    return [flag] if flag in SWITCHES else [flag, VALUES.get(flag, "1.5")]


def test_each_command_has_exactly_its_flags():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(FLAGS)
    total = 0
    for name, sub in commands.items():
        flags = [o for a in sub._actions for o in a.option_strings
                 if o not in ("-h", "--help")]
        assert sorted(flags) == sorted(FLAGS[name]), name
        total += len(flags)
    assert total == 102


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_read_flag_parses(command):
    parser = build_parser()
    for flag in FLAGS[command]:
        parser.parse_args(BASE_ARGV[command] + _flag_argv(flag))


@pytest.mark.parametrize("command", sorted(REMOVED))
def test_removed_flags_exit_2(command, capsys):
    parser = build_parser()
    for flag in REMOVED[command]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(BASE_ARGV[command] + _flag_argv(flag))
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_config_material_is_checked_for_every_command(command, tmp_path, run_cli):
    # the material of the final configuration is resolved, whether a handler reads it or not
    (tmp_path / "data.csv").write_text("1,0.1\n2,0.3\n3,0.5\n4,0.6\n")
    for config in ({"material": "nope"}, {"material_file": "missing.json"}):
        (tmp_path / "c.json").write_text(json.dumps(config))
        proc = run_cli([*BASE_ARGV[command], "--config", "c.json"], tmp_path)
        assert proc.returncode == 2, (config, proc.stderr)
        assert proc.stderr.startswith("error: ") and "material" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""


def test_config_material_from_a_flag_file_runs(tmp_path, run_cli):
    # a material the config names and a --material-file flag defines, after the flags
    (tmp_path / "mats.json").write_text(_material_file("jundt1997"))
    (tmp_path / "c.json").write_text(json.dumps({"material": "custom"}))
    argv = ["index", "1540", "--temperature", "22", "--config", "c.json"]
    assert run_cli(argv, tmp_path).returncode == 2
    assert summary_of(run_cli([*argv, "--material-file", "mats.json"], tmp_path))["rows"] == 1
    # and a command without material flags takes both from its config
    (tmp_path / "c.json").write_text(json.dumps({"material": "custom",
                                                 "material_file": "mats.json"}))
    proc = run_cli(["simulate", "--eta-cw", "0.5", "--eta-ccw", "0.5", "--config", "c.json"],
                   tmp_path)
    assert summary_of(proc)["input"] == "D"


@pytest.mark.parametrize("value", ["-50", "-5e1", "-5E+1", "-0.5e2", "-.5e2", "-5.e1",
                                   "-500e-1", "-inf", "-Infinity", "-nan"])
def test_negative_float_literals_are_values(value):
    # argparse alone takes only -5 and -.5 as numbers and reads "-5e1" as a flag
    parser = build_parser()
    args = parser.parse_args(BASE_ARGV["sweet-spot"] + ["--temperature", value])
    assert repr(args.temperature_c) == repr(float(value))
    args = parser.parse_args(["index", value, "780"])
    assert repr(args.wavelengths_nm) == repr([float(value), 780.0])


@pytest.mark.parametrize("value", ["-e5", "-5e", "-infx", "-1_0"])
def test_other_dashed_words_stay_flags(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(BASE_ARGV["sweet-spot"] + ["--temperature", value])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_flags_reach_the_run_config(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    parser = build_parser()
    args = parser.parse_args(
        BASE_ARGV["hub-sweep"] + ["--material", "zelmon1997", "--temperature", "22",
                                  "--length", "20", "--format", "json", "--output",
                                  "x.json", "--separation", "15", "--threshold", "0.8",
                                  "--scan-halfwidth-thz", "30", "--coarse-step-ghz", "2",
                                  "--channel-spacing-ghz", "50"])
    config = _resolve_config(args)
    assert (config.material, config.temperature_c, config.length_mm) == (
        "zelmon1997", 22.0, 20.0)
    assert (config.output_format, config.output) == ("json", "x.json")
    assert config.tuning_constraints() == TuningConstraints(
        0.8, "min_pump_converted_separation", 15.0, 30.0, 2.0, 50.0)
    args = parser.parse_args(["plan", "--signal-freq", "385", "--grid-anchor-thz", "195",
                              "--grid-spacing-ghz", "50", "--grid-ports", "8",
                              "--laser-min-nm", "1570", "--laser-max-nm", "1610"])
    config = _resolve_config(args)
    assert config.signal_frequency_thz == 385.0
    assert config.grid() == DwdmGrid(195.0, 50.0, 8)
    assert config.laser() == LaserSpec(1570.0, 1610.0)
    args = parser.parse_args(["index", "780", "--allow-extrapolation"])
    assert _resolve_config(args).allow_extrapolation is True
    assert _resolve_config(parser.parse_args(["fit", "--input", "a.csv"])) == RunConfig()


@pytest.mark.parametrize("overrides", [
    {"efficiency_threshold": 1.0}, {"efficiency_threshold": 0.0},
    {"constraint_mode": "nearest"}, {"constraint_value_nm": 0.0},
    {"constraint_value_nm": -5.0}, {"scan_halfwidth_thz": 0.0},
    {"coarse_step_ghz": -1.0}, {"channel_spacing_ghz": 0.0},
    {"grid_ports": 0}, {"grid_anchor_thz": 0.0}, {"grid_spacing_ghz": -25.0},
    {"laser_min_nm": 1610.0}, {"laser_min_nm": 0.0},
    {"temperature_c": -300.0}, {"length_mm": 0.0}, {"signal_frequency_thz": 0.0},
    {"output_format": "xml"}, {"workers": 2}, {"grid_ports": 2.5},
    {"coarse_step_ghz": 0.01}, {"coarse_step_ghz": 1e-300},
    {"length_mm": "40"}, {"efficiency_threshold": "0.9"}, {"grid_ports": True},
    {"allow_extrapolation": "no"}, {"grid_ports": 8000}, {"channel_spacing_ghz": 1e-300},
])
def test_bad_config_values_raise_config_error(overrides, tmp_path):
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    with pytest.raises(ConfigError):
        load_config(path)


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands, current = [], ""
    for line in block.splitlines():
        current += " " + line.split("#", 1)[0].strip()
        if current.endswith("\\"):
            current = current[:-1]
            continue
        if current.split()[:1] == ["qfchub"]:
            commands.append(current.split()[1:])
        current = ""
    return commands


def test_readme_cli_lines_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(FLAGS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
