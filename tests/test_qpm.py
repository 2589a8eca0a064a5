import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfchub import (DeviceConfig, DomainError, SpectralPoint, ValidityError, group_index,
                    group_index_mismatch, make_device, phase_mismatch_vs_converted,
                    pm_efficiency, pump_for, refractive_index, solve_poling_period,
                    wavenumber_mismatch)
from qfchub import qpm
from qfchub.constants import C_NM_THZ, C_UM_THZ
from qfchub.qpm import (_MAX_GRID_POINTS, _grid_steps, _in_fit, _triple_um,
                        _validity_bounds_nu_c, grating_mismatch, grid_efficiency)

# Frozen from a standalone evaluation of 2*pi/(k_s - k_p - k_c) with the
# default material at 48 C; regression constants, not external references.
PERIOD_780_1540_48C_UM = 19.17364940565507
PERIOD_493_1540_48C_UM = 5.935077859071032


def _point(nm):
    return SpectralPoint.from_wavelength_nm(nm)


def test_pump_for_examples():
    pump = pump_for(_point(780.0), _point(1540.0))
    # exact algebra: lam_p = lam_s*lam_c/(lam_c - lam_s)
    assert pump.wavelength_nm == pytest.approx(780.0 * 1540.0 / 760.0, rel=1e-12)
    assert pump.wavelength_nm == pytest.approx(1580.526, abs=5e-4)

    degenerate = pump_for(_point(780.0), _point(1560.0))
    assert degenerate.wavelength_nm == pytest.approx(1560.0, rel=1e-12)

    port7 = pump_for(SpectralPoint.from_frequency_thz(384.200),
                     SpectralPoint.from_frequency_thz(194.700))
    assert port7.frequency_thz == pytest.approx(189.500, abs=1e-9)
    assert port7.wavelength_nm == pytest.approx(1582.02, abs=0.005)


def test_pump_for_rejects_nonpositive_pump():
    with pytest.raises(DomainError):
        pump_for(_point(1540.0), _point(780.0))
    with pytest.raises(DomainError):
        pump_for(_point(780.0), _point(780.0))


def test_pump_for_energy_conservation():
    for signal_nm, converted_nm in ((780.0, 1540.0), (493.0, 1540.0), (934.0, 1310.0)):
        signal, converted = _point(signal_nm), _point(converted_nm)
        nu = pump_for(signal, converted).frequency_thz + converted.frequency_thz
        assert nu == pytest.approx(signal.frequency_thz, rel=1e-12)


def test_device_validation(jundt):
    with pytest.raises(DomainError):
        DeviceConfig(-1.0, 40.0, 48.0, jundt)
    with pytest.raises(DomainError):
        DeviceConfig(19.0, 0.0, 48.0, jundt)
    with pytest.raises(DomainError, match="temperature must be finite"):
        DeviceConfig(19.0, 40.0, float("nan"), jundt)


def test_make_device_rejects_non_finite_inputs(jundt):
    # checked before the QPM solve, so a bad input is not reported as physics
    for signal_nm, temperature in ((float("nan"), 48.0), (780.0, float("nan")),
                                   (780.0, float("inf"))):
        with pytest.raises(DomainError, match="must be finite"):
            make_device(signal_nm, 1540.0, 40.0, temperature, jundt, allow_extrapolation=True)


def test_grid_steps_rule_and_bound():
    assert _grid_steps(0.3, 0.1, "step") == 3  # 0.3 / 0.1 is 2.9999999999999996
    assert _grid_steps(0.0, 1.0, "step") == 0
    assert _grid_steps(1.0, 1.0 / _MAX_GRID_POINTS, "step") == _MAX_GRID_POINTS
    for span, step in ((1.0, 0.99 / _MAX_GRID_POINTS), (600.0, 1e-300), (1e10, 1e-310),
                       (1.0, 0.0), (1.0, -1.0), (1.0, float("nan")), (1.0, float("inf")),
                       (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(DomainError, match="^step_ghz: "):
            _grid_steps(span, step, "step_ghz")
    # the error names the step parameter, the step and the span, in the grid's unit
    with pytest.raises(DomainError, match=r"^signal_step_nm: grid of 60000000000 steps of "
                                          r"1e-08 nm over 600 nm exceeds 1000000 steps$"):
        _grid_steps(600.0, 1e-8, "signal_step_nm", "nm")
    # the count as it is, never rounded onto the bound, however large
    for span, step, count in ((120.0, 0.0001199, "1000834"), (60.0, 5.99e-05, "1001669"),
                              (600.0, 1e-300, r"5.9999999999999997e\+302"), (1e10, 1e-310, "inf")):
        with pytest.raises(DomainError, match=f"^step_ghz: grid of {count} steps "):
            _grid_steps(span, step, "step_ghz")


def test_grid_efficiency_slices_stitch_to_one_call(jundt, monkeypatch):
    # slices of 7 points (the last one short) give the same bits as one
    # unsliced kernel call, efficiency and flag, for a run, a scalar and a 2-D
    # grid; the run crosses the 5 um edge of jundt1997, so some points are flagged
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    signal = _point(780.0)
    nu_c = 194.0 + 0.01 * np.arange(-150, 151)
    nu_c[-40:] = np.linspace(58.0, 62.0, 40)

    def one_call(nu):
        return pm_efficiency(grating_mismatch(
            jundt, 48.0, device.poling_period_um, signal.frequency_thz, nu,
            signal.wavelength_um), 40.0)

    monkeypatch.setattr(qpm, "_KERNEL_POINTS", 7)
    for nu in (nu_c, nu_c[:7], nu_c[:1], nu_c.reshape(7, 43), nu_c[0], nu_c[-1]):
        eff, extrapolated = grid_efficiency(device, signal.frequency_thz, nu,
                                            signal.wavelength_um)
        assert eff.shape == extrapolated.shape == np.shape(nu)
        assert np.array_equal(eff, one_call(nu))
        assert np.array_equal(extrapolated, ~(jundt.in_validity(C_UM_THZ / nu, 48.0)
                                              & jundt.in_validity(C_UM_THZ / (
                                                  signal.frequency_thz - nu), 48.0)))
    assert 0 < np.count_nonzero(grid_efficiency(device, signal.frequency_thz, nu_c)[1]) < 40


def _edge_frequency(edge_um, from_nm, ulps):
    """Frequency (THz) of a wavelength on a window edge, nudged by ``ulps``: of
    the wavelength when it is given in nm, else of the frequency c/edge."""
    if from_nm:
        nm = edge_um * 1000.0
        return C_NM_THZ / (nm + ulps * np.spacing(nm)), (nm + ulps * np.spacing(nm)) / 1000.0
    nu = C_UM_THZ / edge_um
    return nu + ulps * np.spacing(nu), None


@settings(max_examples=300, deadline=None)
@given(wave=st.sampled_from(["signal", "pump", "converted"]), edge=st.sampled_from([0.4, 5.0]),
       from_nm=st.booleans(), ulps=st.integers(-3, 3), signal_nm=st.floats(400.0, 2400.0),
       others=st.lists(st.floats(0.01, 0.99), max_size=20))
def test_flag_is_the_rule_at_window_edges(jundt, wave, edge, from_nm, ulps, signal_nm,
                                          others):
    # one wave sits on (or a few ulp beside) a 0.4/5.0 um edge of jundt1997;
    # the flag is per-wave in_validity of the wavelengths the mismatch uses:
    # the signal's exact nm value when it was given in nm, else c/nu
    nu_s, lam_s = C_NM_THZ / signal_nm, signal_nm / 1000.0
    nu_e, lam_e = _edge_frequency(edge, from_nm, ulps)
    if wave == "signal":
        nu_s, lam_s = nu_e, lam_e
    nu_c = nu_s * np.array(others)
    nu_c = np.append(nu_c, {"signal": 0.5 * nu_s, "pump": nu_s - nu_e, "converted": nu_e}[wave])
    device = DeviceConfig(PERIOD_780_1540_48C_UM, 40.0, 48.0, jundt)
    eff, extrapolated = grid_efficiency(device, nu_s, nu_c, lam_s)

    with np.errstate(divide="ignore"):  # a pump edge can land on nu_c = 0
        waves = (C_UM_THZ / nu_s if lam_s is None else lam_s, C_UM_THZ / (nu_s - nu_c),
                 C_UM_THZ / nu_c)
    assert all(np.array_equal(got, want) for got, want in zip(
        _triple_um(nu_s, nu_c, lam_s), waves))
    inside = [jundt.in_validity(lam, 48.0) for lam in waves]
    assert np.array_equal(extrapolated, ~(inside[0] & inside[1] & inside[2]))
    if wave == "signal" and from_nm and ulps == 0:
        assert jundt.in_validity(lam_s, 48.0)  # an edge given in nm is inside


@settings(max_examples=300, deadline=None)
@given(signal_nm=st.floats(400.0, 2400.0), upper=st.booleans(), ulps=st.integers(4, 64))
def test_walk_bounds_are_the_rule_for_pump_and_converted(jundt, signal_nm, upper, ulps):
    # a few ulp inside either end of _validity_bounds_nu_c both waves are in
    # the fit, and a few ulp outside one of them is not
    nu_s = C_NM_THZ / signal_nm
    lo, hi = _validity_bounds_nu_c(nu_s, jundt)
    edge, inward = (hi, -1.0) if upper else (lo, 1.0)
    nudge = inward * ulps * np.spacing(nu_s)
    nu_c = np.array([edge + nudge, edge - nudge])
    assert _in_fit(jundt, 48.0, _triple_um(nu_s, nu_c, signal_nm / 1000.0)).tolist() == [
        True, False]


def test_poling_period_regression(jundt):
    period = solve_poling_period(_point(780.0), _point(1540.0), 48.0, jundt)
    assert period == pytest.approx(PERIOD_780_1540_48C_UM, rel=1e-9)
    assert 10.0 < period < 40.0


def test_poling_period_inverse_relation(jundt):
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    nu_c = _point(1540.0).frequency_thz
    assert abs(float(phase_mismatch_vs_converted(nu_c, _point(780.0), device))) < 1e-6


def test_poling_period_depends_on_signal(jundt):
    p1 = solve_poling_period(_point(780.0), _point(1540.0), 48.0, jundt)
    p2 = solve_poling_period(_point(493.0), _point(1540.0), 48.0, jundt)
    assert p2 == pytest.approx(PERIOD_493_1540_48C_UM, rel=1e-9)
    assert p1 > 0 and p2 > 0 and p1 != p2


def test_phase_mismatch_sign_flips_with_detuning(jundt):
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    signal = _point(780.0)
    nu_c0 = _point(1540.0).frequency_thz
    up = float(phase_mismatch_vs_converted(nu_c0 + 0.5, signal, device))
    down = float(phase_mismatch_vs_converted(nu_c0 - 0.5, signal, device))
    assert up != 0 and down != 0
    assert up * down < 0


def test_swap_symmetry_pump_converted(jundt):
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    signal = _point(780.0)
    nu_c = _point(1540.0).frequency_thz
    # the pump of one process is the converted wave of the other
    direct = float(phase_mismatch_vs_converted(nu_c, signal, device))
    swapped = float(phase_mismatch_vs_converted(signal.frequency_thz - nu_c, signal,
                                                device))
    assert direct == pytest.approx(swapped, abs=1e-9)


def test_degenerate_sweet_spot_quadratic_bound(jundt):
    # pump and converted both at twice the signal wavelength
    signal = _point(780.0)
    device = make_device(780.0, 1560.0, 40.0, 48.0, jundt)
    nu_c0 = signal.frequency_thz / 2.0
    detunings = np.linspace(-1.0, 1.0, 41)
    dk = phase_mismatch_vs_converted(nu_c0 + detunings, signal, device)
    quad, lin, const = np.polyfit(detunings, dk, 2)
    assert np.all(np.abs(dk) <= abs(quad) * detunings ** 2 + 1e-3)

    work = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    dk_w = phase_mismatch_vs_converted(
        _point(1540.0).frequency_thz + detunings, signal, work)
    _, lin_w, _ = np.polyfit(detunings, dk_w, 2)
    assert abs(lin) < 1e-3 * abs(lin_w)


def test_pm_efficiency_values():
    assert pm_efficiency(0.0, 40.0) == 1.0
    length_mm = 40.0
    dk_first_zero = 2.0 * np.pi / (length_mm * 1e-3)
    assert pm_efficiency(dk_first_zero, length_mm) == pytest.approx(0.0, abs=1e-12)
    dk_90 = 2.0 * 0.559 / (length_mm * 1e-3)
    assert pm_efficiency(dk_90, length_mm) == pytest.approx(0.90, abs=0.005)
    assert pm_efficiency(-dk_90, length_mm) == pytest.approx(0.90, abs=0.005)


def test_pm_efficiency_even_and_bounded(rng):
    dk = rng.uniform(-5000, 5000, size=500)
    eff = pm_efficiency(dk, 40.0)
    assert np.all((eff >= 0.0) & (eff <= 1.0))
    assert np.allclose(eff, pm_efficiency(-dk, 40.0), atol=1e-15)


def test_pm_efficiency_series_branch_continuity():
    # L = 2 mm, so x = dk * L / 2 = dk * 1e-3
    assert pm_efficiency(0.0, 2.0) == 1.0
    for x in (1e-9, 1e-6, 9.9e-5):
        assert pm_efficiency(x * 1e3, 2.0) == pytest.approx((1.0 - x * x / 6.0) ** 2,
                                                            abs=1e-15)
    # across the branch boundary sinc^2(x) ~ 1 - x^2/3 falls with slope 2x/3, so
    # two points differ by at most that slope times their distance, plus a few
    # roundings of values near 1: no step where the series hands over
    dk = 0.1 + np.spacing(0.1) * np.arange(-64, 65)
    x = dk * (2.0 * 1e-3) / 2.0
    assert (x < 1e-4).any() and (x >= 1e-4).any()
    eff = pm_efficiency(dk, 2.0)
    slope = 2.0 * x.max() / 3.0
    assert np.all(np.abs(np.diff(eff)) <= slope * np.diff(x) + 4 * np.finfo(float).eps)
    assert pm_efficiency(0.09999, 2.0) == pytest.approx(pm_efficiency(0.10001, 2.0),
                                                        abs=slope * 2e-8 + 1e-15)


def _sinc_then_square(dk, length_mm):
    """The efficiency as a separate sinc and a square, written out: sinc with its
    series branch computed at every point, a float for a 0-d input, then ** 2."""
    x = np.asarray(dk, dtype=float) * (length_mm * 1e-3) / 2.0
    with np.errstate(all="ignore"):
        small = np.abs(x) < 1e-4
        safe = np.where(small, 1.0, x)
        out = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
    sinc = float(out) if out.ndim == 0 else out
    out = sinc ** 2
    return float(out) if np.ndim(out) == 0 else out


def _near(value):
    """``value`` and up to 4 ulps either side of it."""
    return st.integers(-4, 4).map(lambda k: float(value + k * np.spacing(value)))


_DK = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, float("nan"), 5e-324, -5e-324]),
    _near(0.1), _near(-0.1),  # x = dk * 1e-3 near the series boundary
    st.floats(-2.2e-308, 2.2e-308),  # subnormals and the smallest normals
    st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_DK, min_size=1, max_size=12), shape=st.sampled_from(
    ["scalar", "0-d", "1-d", "2-d"]))
def test_pm_efficiency_is_bitwise_sinc_then_square(values, shape):
    # with L = 2 mm; a far point or NaN must not warn (the series once overflowed)
    dk = {"scalar": values[0], "0-d": np.array(values[0]), "1-d": np.array(values),
          "2-d": np.array(values * 2).reshape(2, -1)}[shape]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pm_efficiency(dk, 2.0)
    want = _sinc_then_square(dk, 2.0)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_group_index_mismatch_identity(jundt):
    # equals the group-index difference by construction, checked to 1e-12
    lam_c, lam_p = 1.540, 1.5805263157894738
    expected = group_index(jundt, lam_c, 48.0) - group_index(jundt, lam_p, 48.0)
    assert group_index_mismatch(lam_c, lam_p, 48.0, jundt) == pytest.approx(
        expected, abs=1e-12)


def test_group_index_mismatch_zero_at_degeneracy(jundt):
    assert group_index_mismatch(1.560, 1.560, 48.0, jundt) == 0.0


def test_group_index_mismatch_matches_numeric_slope(jundt):
    # slope of the mismatch w.r.t. antisymmetric pump-side detuning
    signal = _point(780.0)
    converted = _point(1540.0)
    pump = pump_for(signal, converted)
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    h = 0.01  # THz of pump detuning; converted compensates
    nu_c0 = converted.frequency_thz
    dk = phase_mismatch_vs_converted(np.array([nu_c0 - h, nu_c0 + h]), signal, device)
    slope_rad_per_m_per_thz = float(dk[0] - dk[1]) / (2.0 * h)
    bracket = slope_rad_per_m_per_thz * C_UM_THZ / (2.0 * np.pi * 1e6)
    coefficient = group_index_mismatch(
        converted.wavelength_um, pump.wavelength_um, 48.0, jundt)
    assert coefficient == pytest.approx(bracket, rel=1e-3)


def test_group_index_mismatch_2350_smaller_than_working_point(jundt):
    pump0_um = pump_for(_point(780.0), _point(1540.0)).wavelength_um
    near_zero = group_index_mismatch(1.540, 2.350, 48.0, jundt)
    working = group_index_mismatch(1.540, pump0_um, 48.0, jundt)
    assert abs(near_zero) < abs(working)


def test_cross_module_group_slope_consistency(jundt):
    # analytic group-index difference vs numeric mismatch slope at 1.54/1.58 um
    lam_c, lam_p = 1.540, 1.580
    nu_c = C_UM_THZ / lam_c
    nu_p = C_UM_THZ / lam_p
    signal = SpectralPoint.from_frequency_thz(nu_c + nu_p)
    period = solve_poling_period(signal, SpectralPoint(lam_c, nu_c),
                                 48.0, jundt)
    device = DeviceConfig(period, 40.0, 48.0, jundt)
    h = 0.005
    dk = phase_mismatch_vs_converted(np.array([nu_c - h, nu_c + h]), signal, device)
    slope = float(dk[0] - dk[1]) / (2.0 * h) * C_UM_THZ / (2.0 * np.pi * 1e6)
    diff = group_index(jundt, lam_c, 48.0) - group_index(jundt, lam_p, 48.0)
    assert diff == pytest.approx(slope, rel=1e-4)


@pytest.mark.parametrize("case, error, message", [
    ("in-window", None, None),
    ("converted-past-5um", ValidityError,
     "wavelength 5.5000 um outside jundt1997 validity [0.400, 5.000] um"),
    ("pump-past-5um", ValidityError,
     "wavelength 5.9958 um outside jundt1997 validity [0.400, 5.000] um"),
    ("empty", None, None),
    ("converted-above-signal", DomainError, "converted frequency exceeds the signal frequency"),
])
def test_mismatch_vs_converted_checks_through_the_rule(jundt, case, error, message):
    # every wave of the triple is checked, as _triple_um lays it out, by the one rule
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    signal = _point(780.0)
    nu_c = {"in-window": 194.0 + 0.5 * np.arange(-3, 4),
            "converted-past-5um": np.array([194.0, C_UM_THZ / 5.5]),
            "pump-past-5um": np.array([194.0, signal.frequency_thz - 50.0]),
            "empty": np.array([]),
            "converted-above-signal": np.array([194.0, 400.0])}[case]
    if error is not None:
        with pytest.raises(error) as info:
            phase_mismatch_vs_converted(nu_c, signal, device)
        assert type(info.value) is error and str(info.value) == message
        return
    dk = phase_mismatch_vs_converted(nu_c, signal, device)
    assert np.array_equal(dk, grating_mismatch(jundt, 48.0, device.poling_period_um,
                                               signal.frequency_thz, nu_c,
                                               signal.wavelength_um))
    assert dk.shape == nu_c.shape


@settings(max_examples=60, deadline=None)
@given(temperature_c=st.floats(21.5, 250.0),
       pairs=st.lists(st.tuples(st.floats(0.4, 1.2), st.floats(0.0, 1.0)),
                      min_size=1, max_size=12))
def test_kernel_equals_scalar_refractive_index(jundt, temperature_c, pairs):
    # converted wavelength drawn between 0.4 um and the longest one that keeps
    # the pump inside the 5 um validity edge
    lam_s = np.array([s for s, _ in pairs])
    lam_c_max = 1.0 / (1.0 / lam_s - 1.0 / 5.0)
    lam_c = np.maximum(0.4, lam_s + 1e-3) + np.array([f for _, f in pairs]) * (
        lam_c_max - np.maximum(0.4, lam_s + 1e-3))
    lam_p = 1.0 / (1.0 / lam_s - 1.0 / lam_c)
    ok = (lam_c >= 0.4) & (lam_c <= 5.0) & (lam_p >= 0.4) & (lam_p <= 5.0)
    lam_s, lam_c, lam_p = lam_s[ok], lam_c[ok], lam_p[ok]
    got = wavenumber_mismatch(jundt, temperature_c, C_UM_THZ / lam_s, C_UM_THZ / lam_c,
                              lam_s, lam_c)
    expected = [2.0 * np.pi * (refractive_index(jundt, s, temperature_c) / s
                               - refractive_index(jundt, p, temperature_c) / p
                               - refractive_index(jundt, c, temperature_c) / c)
                for s, p, c in zip(lam_s, lam_p, lam_c)]
    assert got.shape == lam_s.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)
    # frequencies alone give the same values to rounding
    np.testing.assert_allclose(
        wavenumber_mismatch(jundt, temperature_c, C_UM_THZ / lam_s, C_UM_THZ / lam_c),
        expected, rtol=0, atol=1e-11)
