"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see the
lines for passing criteria as well). Criterion 2's L = 20 mm reference width
is not reachable from the dispersion model under the constrained-interval
definition of the tuning range; that sub-criterion is asserted as written
and is expected to fail (see its docstring for the reason).
"""
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from qfchub import (DwdmGrid, EfficiencyCurveParams, LaserSpec, PolarizationState,
                    QfcChannelModel, SpectralPoint, TuningConstraints, efficiency_model,
                    fit_efficiency, group_index_mismatch, hub_sweep,
                    kraus_to_chi, make_device, phase_mismatch_vs_converted,
                    plan_pumps, port_frequency, process_fidelity, pump_band, pump_for,
                    reconstruct_chi, simulate_tomography, tuning_range)

TEMPERATURE_C = 48.0
CUTOFF = TuningConstraints(constraint_mode="max_converted_wavelength",
                           constraint_value_nm=1550.0)
SEPARATION = TuningConstraints(constraint_mode="min_pump_converted_separation",
                               constraint_value_nm=20.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _pump_nm(signal_nm: float, converted_nm: float) -> float:
    return pump_for(SpectralPoint.from_wavelength_nm(signal_nm),
                    SpectralPoint.from_wavelength_nm(converted_nm)).wavelength_nm


def _sweep_peaks(material, target_nm: float, step_nm: float = 1.0):
    started = time.perf_counter()
    points = hub_sweep((400.0, 1000.0), step_nm, target_nm, 40.0, TEMPERATURE_C,
                       material, SEPARATION)
    elapsed = time.perf_counter() - started
    widths = np.array([p.tuning.width_nm for p in points])
    signals = np.array([p.signal_nm for p in points])
    # Peaks separated only by the excluded low-separation notch belong to one
    # physical maximum; a 30 nm minimum peak distance merges those flanks
    # while keeping the two genuine maxima (>150 nm apart) distinct.
    idx, _ = find_peaks(widths, prominence=2.0,
                        distance=max(1, int(round(30.0 / step_nm))))
    return signals[idx], widths[idx], elapsed


def test_criterion_1_energy_conservation(jundt):
    value = _pump_nm(780.0, 1540.0)
    report("criterion 1 (pump wavelength algebra)",
           abs(value - 1580.53) <= 0.01, f"pump_for(780, 1540) = {value:.4f} nm")


def test_criterion_2_tuning_range_L40(jundt):
    started = time.perf_counter()
    result = tuning_range(780.0, 1540.0, 40.0, TEMPERATURE_C, jundt, CUTOFF)
    elapsed = time.perf_counter() - started
    ok = (abs(result.width_nm - 19.5) <= 1.5
          and 90 <= result.channel_count <= 110 and elapsed < 5.0)
    report("criterion 2 (tuning range, L=40 mm)", ok,
           f"width = {result.width_nm:.2f} nm, channels = {result.channel_count}, "
           f"elapsed = {elapsed:.2f} s")


def test_criterion_2_tuning_range_L20(jundt):
    """Asserted exactly as stated; not reachable from the dispersion model.

    The mismatch curve must return to zero at the mirror peak, which pins its
    curvature; with that curvature the constrained interval for L = 20 mm is
    ~26 nm (131-133 channels) for each bundled coefficient set that is valid
    at the temperature: at 48 C, 26.00 nm (jundt1997) and 26.13 nm
    (edwards_lawrence1984), while zelmon1997 is valid only from 19 to 25 C
    and raises ValidityError; at 22 C, 26.11 nm (jundt1997), 26.21 nm
    (zelmon1997) and 26.30 nm (edwards_lawrence1984). The 32.2 nm
    reference value matches twice the one-sided threshold detuning (the
    symmetrized phase-matching bandwidth) instead, a definition the cutoff
    constraint rules out here, so this check is expected to fail.
    """
    started = time.perf_counter()
    result = tuning_range(780.0, 1540.0, 20.0, TEMPERATURE_C, jundt, CUTOFF)
    elapsed = time.perf_counter() - started
    ok = (abs(result.width_nm - 32.2) <= 2.5
          and 150 <= result.channel_count <= 175 and elapsed < 5.0)
    report("criterion 2 (tuning range, L=20 mm)", ok,
           f"width = {result.width_nm:.2f} nm, channels = {result.channel_count}, "
           f"elapsed = {elapsed:.2f} s")


def test_criterion_3_narrowband_contrast(jundt):
    started = time.perf_counter()
    result = tuning_range(493.0, 1540.0, 40.0, TEMPERATURE_C, jundt, SEPARATION)
    elapsed = time.perf_counter() - started
    ok = abs(result.width_nm - 0.2) <= 0.1 and elapsed < 5.0
    report("criterion 3 (narrowband 493 nm)", ok,
           f"width = {result.width_nm:.3f} nm, elapsed = {elapsed:.2f} s")


def test_criterion_4_cband_hub_sweep(jundt):
    peaks, widths, elapsed = _sweep_peaks(jundt, 1540.0)
    pump_at_934 = _pump_nm(934.0, 1540.0)
    ok = (len(peaks) == 2
          and abs(peaks[0] - 780.0) <= 15.0
          and abs(peaks[1] - 934.0) <= 15.0
          and abs(pump_at_934 - 2350.0) <= 50.0
          and elapsed < 60.0)
    report("criterion 4 (C-band hub sweep)", ok,
           f"peaks at {peaks.tolist()} nm, pump(934 nm) = {pump_at_934:.1f} nm, "
           f"elapsed = {elapsed:.1f} s")


def test_criterion_5_oband_hub_sweep(jundt):
    peaks, widths, elapsed = _sweep_peaks(jundt, 1310.0)
    ok = (len(peaks) == 2
          and abs(peaks[0] - 655.0) <= 15.0
          and abs(peaks[1] - 900.0) <= 25.0
          and elapsed < 60.0)
    pump_second = _pump_nm(float(peaks[1]), 1310.0) if len(peaks) == 2 else float("nan")
    ok = ok and abs(pump_second - 2875.0) <= 75.0
    report("criterion 5 (O-band hub sweep)", ok,
           f"peaks at {peaks.tolist()} nm, pump(second peak) = {pump_second:.1f} nm, "
           f"elapsed = {elapsed:.1f} s")


def test_criterion_6_sweet_spot_property(jundt):
    exact_zero = group_index_mismatch(1.560, 1.560, TEMPERATURE_C, jundt)

    signal = SpectralPoint.from_wavelength_nm(780.0)
    detunings = np.linspace(-1.0, 1.0, 41)
    degenerate = make_device(780.0, 1560.0, 40.0, TEMPERATURE_C, jundt)
    dk_deg = phase_mismatch_vs_converted(signal.frequency_thz / 2.0 + detunings,
                                         signal, degenerate)
    working = make_device(780.0, 1540.0, 40.0, TEMPERATURE_C, jundt)
    nu_c0 = SpectralPoint.from_wavelength_nm(1540.0).frequency_thz
    dk_work = phase_mismatch_vs_converted(nu_c0 + detunings, signal, working)
    lin_deg = np.polyfit(detunings, dk_deg, 2)[1]
    lin_work = np.polyfit(detunings, dk_work, 2)[1]
    ratio = abs(lin_deg) / abs(lin_work)
    ok = exact_zero == 0.0 and ratio < 1e-3
    report("criterion 6 (sweet-spot linearity)", ok,
           f"mismatch(x, x) = {exact_zero}, linear-coefficient ratio = {ratio:.2e}")


def test_criterion_7_relative_efficiency_band(jundt):
    plan = plan_pumps(DwdmGrid(), 384.200, LaserSpec(), 40.0, TEMPERATURE_C, jundt)
    lo, hi, limits = pump_band(plan, threshold=0.9)
    width = hi - lo
    ok = abs(width - 2.0) <= 0.5 and lo <= 188.9 and hi >= 190.5
    report("criterion 7 (0.9 pump band)", ok,
           f"band = [{lo:.3f}, {hi:.3f}] THz, width = {width:.3f} THz, "
           f"ended by {limits[0]} / {limits[1]}")


def test_criterion_8_dwdm_plan(jundt):
    grid = DwdmGrid()
    plan = plan_pumps(grid, 384.200, LaserSpec(), 40.0, TEMPERATURE_C, jundt)
    lam_first = plan.lambda_c_nm[0]
    lam_last = plan.lambda_c_nm[-1]
    span = lam_last - lam_first
    port7_pump = plan.lambda_p_nm[6]  # port n is row n - 1
    checks = {
        "port1": abs(port_frequency(grid, 1) - 194.850) < 1e-12,
        "port16": abs(port_frequency(grid, 16) - 194.475) < 1e-12,
        # span width per the reference endpoints (1541.63 - 1538.66); the
        # endpoints themselves are held to 0.1 nm because that pair is
        # offset from the stated port frequencies by ~10 GHz.
        "span_width": abs(span - (1541.63 - 1538.66)) <= 0.01,
        "span_endpoints": (abs(lam_first - 1538.66) <= 0.1
                           and abs(lam_last - 1541.63) <= 0.1),
        "port7_pump": abs(port7_pump - 1582.02) <= 0.01,
        "pumps_in_laser": bool(plan.in_laser_range.all()),
    }
    ok = all(checks.values())
    report("criterion 8 (DWDM plan)", ok,
           f"span = [{lam_first:.4f}, {lam_last:.4f}] nm, "
           f"port-7 pump = {port7_pump:.4f} nm, "
           + ", ".join(f"{k}={v}" for k, v in checks.items()))


def test_criterion_9_polarization_channel():
    f_ideal = process_fidelity(kraus_to_chi(QfcChannelModel(0.5, 0.5)))
    f_quarter = process_fidelity(kraus_to_chi(QfcChannelModel(0.5, 0.5, np.pi / 2)))
    f_measured = process_fidelity(kraus_to_chi(QfcChannelModel(0.40, 0.44)))

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        model = QfcChannelModel(float(rng.uniform(0.05, 1.0)),
                                float(rng.uniform(0.05, 1.0)),
                                float(rng.uniform(-np.pi, np.pi)))
        outputs = simulate_tomography(model)
        inputs = {k: PolarizationState.from_label(k) for k in outputs}
        rebuilt = reconstruct_chi(inputs, outputs)
        worst = max(worst, float(np.max(np.abs(
            rebuilt.chi - kraus_to_chi(model).chi))))

    ok = (abs(f_ideal - 1.0) <= 1e-9 and abs(f_quarter - 0.5) <= 1e-9
          and abs(f_measured - 0.9994) <= 0.0005 and worst < 1e-9)
    report("criterion 9 (polarization channel)", ok,
           f"F_ideal = {f_ideal:.12f}, F_quarter = {f_quarter:.12f}, "
           f"F(0.40, 0.44) = {f_measured:.6f}, round-trip max error = {worst:.2e}")


def test_criterion_10_efficiency_fit():
    powers = np.linspace(0.0, 250.0, 26)
    ok = True
    details = []
    for eta_max, eta_nor in ((0.44, 0.013), (0.40, 0.018)):
        fit = fit_efficiency(powers, efficiency_model(
            powers, EfficiencyCurveParams(eta_max, eta_nor)))
        rel_max = abs(fit.params.eta_max - eta_max) / eta_max
        rel_nor = abs(fit.params.eta_nor_per_mw - eta_nor) / eta_nor
        ok = ok and rel_max <= 0.01 and rel_nor <= 0.01
        details.append(f"clean({eta_max}, {eta_nor}): "
                       f"rel err = ({rel_max:.2e}, {rel_nor:.2e})")

    rng = np.random.default_rng(12)
    clean = efficiency_model(np.linspace(5.0, 250.0, 25),
                             EfficiencyCurveParams(0.44, 0.013))
    grid = np.linspace(5.0, 250.0, 25)
    worst = 0.0
    for _ in range(100):
        noisy = clean * (1.0 + 0.02 * rng.standard_normal(clean.shape))
        fit = fit_efficiency(grid, np.clip(noisy, 0.0, None))
        worst = max(worst,
                    abs(fit.params.eta_max - 0.44) / 0.44,
                    abs(fit.params.eta_nor_per_mw - 0.013) / 0.013)
    ok = ok and worst <= 0.10
    details.append(f"noisy worst rel err over 100 trials = {worst:.3f}")
    report("criterion 10 (efficiency fit)", ok, "; ".join(details))


def test_criterion_11_worker_determinism(tmp_path, run_cli):
    args = ["hub-sweep", "--start", "740", "--stop", "840", "--step", "1",
            "--target", "1540", "--separation", "20", "--output", "sweep.csv"]
    digests = []
    for workers in ("1", "4", "8"):
        proc = run_cli([*args, "--workers", workers], tmp_path)
        assert proc.returncode == 0, proc.stderr
        digests.append((tmp_path / "sweep.csv").read_bytes())
    ok = digests[0] == digests[1] == digests[2]
    report("criterion 11 (worker determinism)", ok,
           f"{len(digests[0])} output bytes identical across workers 1/4/8: {ok}")
