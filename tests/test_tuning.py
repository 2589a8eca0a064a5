import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfchub import (DomainError, TuningConstraints, group_index_mismatch, hub_sweep,
                    make_device, pm_efficiency, pm_spectrum_columns,
                    sweet_spot_report, tuning_range, wavenumber_mismatch)
from qfchub.qpm import grid_efficiency
from qfchub import qpm, tuning
from qfchub.dwdm import DwdmGrid, LaserSpec, plan_pumps, pump_band
from qfchub.dispersion import SellmeierModel, SpectralPoint
from qfchub.errors import QfcHubError, ValidityError
from qfchub.cli import SWEEP_CSV, _sweep_columns
from qfchub.emit import write_csv
from qfchub.tuning import TuningResult, _separation_bound, _solve, _walk
from qfchub.constants import C_NM_THZ


def test_tuning_range_working_point_regression(jundt, cutoff_1550):
    result = tuning_range(780.0, 1540.0, 40.0, 48.0, jundt, cutoff_1550)
    assert result.width_nm == pytest.approx(19.175, abs=0.02)
    assert result.converted_interval_nm[1] == pytest.approx(1550.0, abs=1e-9)
    assert result.limiting_constraint == "cutoff"
    assert result.channel_count == 96


def test_tuning_range_narrowband_contrast(jundt, separation_20):
    result = tuning_range(493.0, 1540.0, 40.0, 48.0, jundt, separation_20)
    assert result.width_nm == pytest.approx(0.188, abs=0.02)
    assert result.limiting_constraint == "threshold"


def test_length_scaling(jundt, cutoff_1550, separation_20):
    for constraints in (cutoff_1550, separation_20):
        w20 = tuning_range(780.0, 1540.0, 20.0, 48.0, jundt, constraints).width_nm
        w40 = tuning_range(780.0, 1540.0, 40.0, 48.0, jundt, constraints).width_nm
        assert w20 >= w40


def test_threshold_monotonicity(jundt):
    configs = [(780.0, 1540.0, "max_converted_wavelength", 1550.0),
               (780.0, 1540.0, "min_pump_converted_separation", 20.0),
               (900.0, 1540.0, "min_pump_converted_separation", 20.0)]
    for signal, target, mode, value in configs:
        widths = []
        for threshold in (0.85, 0.90, 0.95):
            c = TuningConstraints(efficiency_threshold=threshold,
                                  constraint_mode=mode, constraint_value_nm=value)
            widths.append(tuning_range(signal, target, 40.0, 48.0, jundt, c).width_nm)
        assert widths[0] >= widths[1] >= widths[2]


def test_constraint_dominance(jundt, cutoff_1550, separation_20):
    # the unconstrained 90% interval runs past 1550, so the cutoff must bind
    unconstrained = tuning_range(780.0, 1540.0, 40.0, 48.0, jundt, separation_20)
    assert unconstrained.converted_interval_nm[1] > 1550.0
    bound = tuning_range(780.0, 1540.0, 40.0, 48.0, jundt, cutoff_1550)
    assert bound.limiting_constraint == "cutoff"


def test_empty_when_center_violates_constraints(jundt, separation_20):
    # center separation below the minimum
    result = tuning_range(770.0, 1540.0, 40.0, 48.0, jundt, separation_20)
    assert result.is_empty and result.limiting_constraint == "separation"
    # center beyond the cutoff
    c = TuningConstraints(constraint_mode="max_converted_wavelength",
                          constraint_value_nm=1550.0)
    result = tuning_range(780.0, 1555.0, 40.0, 48.0, jundt, c)
    assert result.is_empty and result.limiting_constraint == "cutoff"
    # exactly degenerate center
    result = tuning_range(780.0, 1560.0, 40.0, 48.0, jundt, c)
    assert result.is_empty and result.limiting_constraint == "separation"


def test_result_width_consistency(jundt, cutoff_1550, separation_20):
    for signal, constraints in ((780.0, cutoff_1550), (810.0, separation_20),
                                (493.0, separation_20)):
        r = tuning_range(signal, 1540.0, 40.0, 48.0, jundt, constraints)
        lo, hi = r.converted_interval_nm
        assert r.width_thz == pytest.approx(C_NM_THZ * r.width_nm / (lo * hi),
                                            rel=1e-6)
        assert r.channel_count == int(np.floor(
            r.width_thz * 1000.0 / constraints.channel_spacing_ghz))


def test_bisection_agrees_with_brute_force_grid(jundt, rng):
    # threshold-limited configurations; oracle is a dense 0.1 GHz scan
    fine = 0.1 / 1000.0
    for signal in rng.uniform(820.0, 905.0, size=5):
        constraints = TuningConstraints(
            constraint_mode="min_pump_converted_separation",
            constraint_value_nm=20.0)
        result = tuning_range(float(signal), 1540.0, 40.0, 48.0, jundt, constraints)
        assert result.limiting_constraint == "threshold"

        device = make_device(float(signal), 1540.0, 40.0, 48.0, jundt)
        point = SpectralPoint.from_wavelength_nm(float(signal))
        nu_c0 = SpectralPoint.from_wavelength_nm(1540.0).frequency_thz
        grid = nu_c0 + fine * np.arange(-40000, 40001)
        dk = wavenumber_mismatch(jundt, 48.0, point.frequency_thz, grid,
                                 point.wavelength_um) - 2.0 * np.pi / device.poling_period_um
        eff = pm_efficiency(dk * 1.0e6, 40.0)
        center = 40000
        above = eff >= 0.9
        lo = center
        while above[lo - 1]:
            lo -= 1
        hi = center
        while above[hi + 1]:
            hi += 1
        nu_lo_expect, nu_hi_expect = grid[lo], grid[hi]
        nu_lo_got = C_NM_THZ / 1000.0 / (result.converted_interval_nm[1] / 1000.0)
        nu_hi_got = C_NM_THZ / 1000.0 / (result.converted_interval_nm[0] / 1000.0)
        assert abs(nu_lo_got - nu_lo_expect) <= fine * 1.01
        assert abs(nu_hi_got - nu_hi_expect) <= fine * 1.01


def test_pm_spectrum_center_and_ordering(jundt):
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(780.0, 1540.0, device, window_thz=6.0, step_ghz=2.0)
    assert np.all(np.diff(spectrum.nu_c_thz) > 0)
    center = int(np.argmax(spectrum.efficiency))
    assert spectrum.lambda_c_nm[center] == pytest.approx(1540.0, abs=1e-6)
    assert spectrum.efficiency[center] == pytest.approx(1.0, abs=1e-12)
    assert np.all((spectrum.efficiency >= 0.0) & (spectrum.efficiency <= 1.0))
    nu_s = SpectralPoint.from_wavelength_nm(780.0).frequency_thz
    stride = spectrum.nu_c_thz.size // 7
    for nu_c, lam_p in zip(spectrum.nu_c_thz[::stride], spectrum.lambda_p_nm[::stride]):
        assert nu_s - nu_c == pytest.approx(C_NM_THZ / lam_p, rel=1e-9)


def test_pm_spectrum_twin_peaks_at_mirror(jundt):
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(780.0, 1540.0, device, window_thz=6.0, step_ghz=2.0)
    mirror = (spectrum.lambda_c_nm >= 1575.0) & (spectrum.lambda_c_nm <= 1585.0)
    assert spectrum.efficiency[mirror].max() > 0.99


def test_pm_spectrum_narrow_peak_493(jundt):
    device = make_device(493.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(493.0, 1540.0, device, window_thz=0.5, step_ghz=0.5)
    flags = spectrum.efficiency >= 0.9
    above = spectrum.lambda_c_nm[flags]
    assert 0.05 < above.max() - above.min() < 0.5
    # single contiguous high-efficiency run
    runs = np.count_nonzero(flags & ~np.concatenate(([False], flags[:-1])))
    assert runs == 1


def test_pm_spectrum_flags_extrapolated_points(jundt):
    # converted side wanders past the long-wavelength validity edge
    device = make_device(500.0, 4800.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(500.0, 4800.0, device, window_thz=5.0, step_ghz=50.0)
    assert spectrum.extrapolated.any()
    assert not spectrum.extrapolated.all()


def test_hub_sweep_deterministic_across_workers(jundt, separation_20):
    kwargs = dict(signal_range_nm=(760.0, 800.0), signal_step_nm=2.0,
                  target_center_nm=1540.0, length_mm=40.0, temperature_c=48.0,
                  material=jundt, constraints=separation_20)
    serial = hub_sweep(workers=1, **kwargs)
    parallel = hub_sweep(workers=4, **kwargs)
    assert serial == parallel
    again = hub_sweep(workers=1, **kwargs)
    assert serial == again


def test_hub_sweep_ordering_and_empty_points(jundt, separation_20):
    points = hub_sweep((760.0, 790.0), 1.0, 1540.0, 40.0, 48.0, jundt,
                       separation_20)
    signals = [p.signal_nm for p in points]
    assert signals == sorted(signals)
    assert signals[0] == 760.0 and signals[-1] == 790.0
    empties = [p for p in points if p.tuning.is_empty]
    assert empties and all(p.tuning.limiting_constraint == "separation"
                           for p in empties)
    assert all(765.0 <= p.signal_nm <= 774.0 for p in empties)


def test_hub_sweep_rejects_bad_range(jundt, separation_20):
    with pytest.raises(DomainError):
        hub_sweep((800.0, 700.0), 1.0, 1540.0, 40.0, 48.0, jundt, separation_20)
    with pytest.raises(DomainError):
        hub_sweep((700.0, 800.0), -1.0, 1540.0, 40.0, 48.0, jundt, separation_20)


@pytest.mark.parametrize("length_mm", [0.0, -40.0, float("nan"), float("inf")])
def test_bad_length_raises_in_tuning_range_and_hub_sweep(length_mm, jundt):
    # not a separation interval at L = 0, the +40 mm result at -40, or an empty result
    constraints = TuningConstraints()
    with pytest.raises(DomainError, match="length must be finite and > 0"):
        tuning_range(780.0, 1540.0, length_mm, 48.0, jundt, constraints)
    with pytest.raises(DomainError, match="length must be finite and > 0"):
        hub_sweep((780.0, 780.0), 1.0, 1540.0, length_mm, 48.0, jundt, constraints)


@pytest.mark.parametrize("target, temperature", [
    (1540.0, float("nan")), (1540.0, 300.0), (1540.0, 10.0),
    (6000.0, 48.0), (float("nan"), 48.0)])
def test_hub_sweep_shared_faults_raise_as_tuning_range(target, temperature, jundt,
                                                       separation_20):
    # a fault every signal shares fails the whole sweep, never a column of
    # empty scan_edge rows; 780 nm is a valid signal
    with pytest.raises(QfcHubError) as alone:
        tuning_range(780.0, target, 40.0, temperature, jundt, separation_20)
    with pytest.raises(QfcHubError) as swept:
        hub_sweep((780.0, 782.0), 1.0, target, 40.0, temperature, jundt, separation_20)
    assert type(swept.value) is type(alone.value)
    assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize("lo, hi, step", [(780, 800, 1), (400.3, 401.9, 0.1),
                                          (700.0, 709.5, 0.5)])
def test_hub_sweep_signals_are_the_grid_points(lo, hi, step, jundt, separation_20):
    # the signals are float(lo + i * step), across batches of 3 signals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuning, "_SIGNAL_BATCH", 3)
        points = hub_sweep((lo, hi), step, 1540.0, 40.0, 48.0, jundt, separation_20)
    count = round((hi - lo) / step) + 1
    assert len(points) == count > 6
    assert [p.signal_nm for p in points] == [float(lo + i * step) for i in range(count)]
    assert all(type(p.signal_nm) is float for p in points)


def test_sweet_spot_report_examples(jundt):
    report = sweet_spot_report(780.0, 1540.0, 48.0, jundt)
    assert report.is_second_harmonic_midpoint
    assert report.second_harmonic_nm == pytest.approx(1560.0)
    assert report.midpoint_nm == pytest.approx(1560.26, abs=0.01)

    off = sweet_spot_report(700.0, 1540.0, 48.0, jundt)
    assert not off.is_second_harmonic_midpoint

    # mismatch magnitude grows away from the balanced configuration
    near = group_index_mismatch(1.540, 1.580, 48.0, jundt)
    far = group_index_mismatch(1.540, 1.700, 48.0, jundt)
    assert abs(near) < abs(far)


def test_sweep_csv_rows_format(jundt, separation_20, tmp_path):
    points = hub_sweep((780.0, 782.0), 1.0, 1540.0, 40.0, 48.0, jundt,
                       separation_20)
    path = write_csv(tmp_path / "sweep.csv", SWEEP_CSV, *_sweep_columns(points))
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# schema=1", ",".join(name for name, _ in SWEEP_CSV)]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    assert all(len(row) == 7 for row in rows)
    assert rows[0][0] == "780.0000"
    assert rows[0][6] in ("threshold", "cutoff", "separation", "scan_edge")


def test_sweet_spot_report_checks_the_working_point(jundt):
    # the 390 nm signal is below jundt1997's 400 nm edge, as in tuning_range
    with pytest.raises(ValidityError, match="wavelength 0.3900 um outside jundt1997"):
        sweet_spot_report(390.0, 1540.0, 48.0, jundt)


def test_separation_bound_closed_form(rng):
    # the root of |lambda_p - lambda_c| = d on the center's side of nu_s/2
    nu_s = C_NM_THZ / rng.uniform(400.0, 1000.0, size=200)
    for side in (1.0, -1.0):
        nu_c0 = nu_s / 2.0 + side * rng.uniform(5.0, 60.0, size=nu_s.size)
        for d in (5.0, 20.0):
            root = _separation_bound(nu_s, nu_c0, d)
            separation = np.abs(C_NM_THZ / (nu_s - root) - C_NM_THZ / root)
            np.testing.assert_allclose(separation, d, rtol=1e-9)
            assert np.all(side * (root - nu_s / 2.0) > 0)


@pytest.mark.parametrize("separation", [1e150, 1e200, 1e300, 1e308])
def test_huge_separation_is_empty(separation, jundt):
    # no pump/converted pair lies that far apart: the root of the bound neither
    # overflows in (d*nu_s)^2 nor cancels to 0 in 2c - d*nu_s + sqrt(...)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = tuning_range(780.0, 1540.0, 40.0, 48.0, jundt,
                              TuningConstraints(constraint_value_nm=separation))
    assert result.converted_interval_nm == (1540.0, 1540.0)
    assert (result.channel_count, result.limiting_constraint) == (0, "separation")


def test_walk_nan_fails_at_coarse_step():
    # NaN on [3, 4) THz: the walk up from 0 must stop at the coarse step 3,
    # well inside its bound, not treat the NaN as in band
    def eff(rows, nu_c):
        return np.where((nu_c >= 3.0) & (nu_c < 4.0), np.nan, 1.0)

    edge, hit = _walk(eff, 0.0, np.array([10.0]), np.array([1.0]), 1.0, 0.9)
    assert hit[0]
    assert 3.0 - 1e-4 <= edge[0] < 3.0


def _whole_blocks(call):
    """``call()`` with every walk block evaluated in one piece, a single prefix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuning, "_PREFIXES", (tuning._BLOCK,))
        return call()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.booleans(), st.integers(1, 700), st.integers(1, 700),
                               st.sampled_from([0.0, 0.5]),
                               st.sampled_from([0.0, float("nan")])),
                     min_size=1, max_size=16))
def test_walk_prefixes_change_nothing_at_block_edges(rows):
    # first failing step and bound at any step index, on both sides of the prefix
    # and block edges; a failing value of 0 or NaN
    up, fail_at, bound_at, offset, low = map(np.array, zip(*rows))
    direction = np.where(up, 1.0, -1.0)
    bound = direction * (bound_at + offset)
    evaluated = []

    def eff(r, nu):
        evaluated.append(nu.size)
        return np.where(np.abs(nu) >= fail_at[r, None], low[r, None], 1.0)

    def walk():
        evaluated.clear()
        edge, hit = _walk(eff, 0.0, bound, direction, 1.0, 0.9)
        return edge, hit, sum(evaluated)

    edge, hit, cost = walk()
    whole_edge, whole_hit, whole_cost = _whole_blocks(walk)
    np.testing.assert_array_equal(edge, whole_edge)
    np.testing.assert_array_equal(hit, whole_hit)
    assert cost <= whole_cost


@settings(max_examples=20, deadline=None)
@given(signals=st.lists(st.floats(300.0, 1100.0), min_size=1, max_size=40),
       target=st.floats(1200.0, 2400.0),
       length=st.floats(10.0, 60.0),
       temperature=st.floats(25.0, 100.0),
       threshold=st.floats(0.3, 0.99),
       cutoff=st.booleans(),
       value=st.floats(1.0, 80.0),
       coarse=st.floats(2.0, 20.0),
       halfwidth=st.floats(0.5, 60.0))
def test_walk_prefixes_change_nothing(jundt, signals, target, length, temperature,
                                      threshold, cutoff, value, coarse, halfwidth):
    constraints = TuningConstraints(
        efficiency_threshold=threshold,
        constraint_mode="max_converted_wavelength" if cutoff
        else "min_pump_converted_separation",
        constraint_value_nm=target - 5.0 + value if cutoff else value,
        scan_halfwidth_thz=halfwidth, coarse_step_ghz=coarse)

    def solve():
        return _solve(signals, target, length, temperature, jundt, constraints)

    assert solve() == _whole_blocks(solve)


def test_constraint_value_must_be_positive():
    for value in (0.0, -20.0):
        with pytest.raises(DomainError):
            TuningConstraints(constraint_value_nm=value)


def _failure_code(error):
    """The sweep's code for a working point ``tuning_range`` rejects with ``error``."""
    if isinstance(error, ValidityError) or "must be finite and positive" in str(error):
        return "outside_fit"
    if "must exceed converted frequency" in str(error):
        return "no_pump"
    if "no first-order QPM solution" in str(error):
        return "no_qpm"
    raise error


def _alone(signal_nm, target_nm, material, constraints):
    """tuning_range on one signal; a rejected working point is the sweep's empty row
    tagged with the code of the error."""
    try:
        return tuning_range(signal_nm, target_nm, 40.0, 48.0, material, constraints)
    except QfcHubError as error:
        return TuningResult((float(target_nm), float(target_nm)), 0.0, 0.0, 0,
                            _failure_code(error))


@settings(max_examples=25, deadline=None)
@given(signals=st.lists(st.integers(0, 400).map(lambda i: 300.0 + 2.0 * i),
                        min_size=1, max_size=90, unique=True),
       target=st.sampled_from([1540.0, 1310.0]),
       cutoff=st.booleans())
def test_batched_solver_matches_single_signal(jundt, signals, target, cutoff):
    # any subset of 300-1100 nm in any order
    constraints = (TuningConstraints(constraint_mode="max_converted_wavelength",
                                     constraint_value_nm=target + 10.0) if cutoff
                   else TuningConstraints(constraint_mode="min_pump_converted_separation",
                                          constraint_value_nm=20.0))
    batched = _solve(signals, target, 40.0, 48.0, jundt, constraints)
    assert batched == [_alone(s, target, jundt, constraints) for s in signals]


_SWEEPS = dict(
    start=st.floats(300.0, 1100.0), count=st.integers(1, 24), step=st.floats(0.05, 40.0),
    target=st.sampled_from([1310.0, 1540.0, 1700.0]), cutoff=st.booleans(),
    threshold=st.sampled_from([0.5, 0.8, 0.9, 0.97]),
    coarse=st.sampled_from([1.0, 5.0, 12.5]), halfwidth=st.sampled_from([2.0, 60.0]))


def _sweep_args(start, count, step, target, cutoff, threshold, coarse, halfwidth):
    constraints = TuningConstraints(
        efficiency_threshold=threshold,
        constraint_mode="max_converted_wavelength" if cutoff
        else "min_pump_converted_separation",
        constraint_value_nm=target + 10.0 if cutoff else 20.0,
        scan_halfwidth_thz=halfwidth, coarse_step_ghz=coarse)
    return ((start, start + (count - 1) * step), step, target, 40.0, 48.0), constraints


@settings(max_examples=25, deadline=None)
@given(**_SWEEPS)
def test_hub_sweep_chunking_changes_nothing(jundt, start, count, step, target, cutoff,
                                            threshold, coarse, halfwidth):
    # one signal per solve and one walk row per kernel call give the same points
    args, constraints = _sweep_args(start, count, step, target, cutoff, threshold,
                                    coarse, halfwidth)
    points = hub_sweep(*args, jundt, constraints)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tuning, "_KERNEL_POINTS", 1)
        mp.setattr(tuning, "_SIGNAL_BATCH", 1)
        assert hub_sweep(*args, jundt, constraints) == points


@settings(max_examples=25, deadline=None)
@given(**_SWEEPS)
def test_hub_sweep_rows_match_tuning_range(jundt, start, count, step, target, cutoff,
                                           threshold, coarse, halfwidth):
    # signals from 300 nm leave the 400 nm validity edge of jundt1997
    args, constraints = _sweep_args(start, count, step, target, cutoff, threshold,
                                    coarse, halfwidth)
    points = hub_sweep(*args, jundt, constraints)
    assert len(points) == count
    for p in points:
        assert p.tuning == _alone(p.signal_nm, target, jundt, constraints)


def test_hub_sweep_memory_is_bounded(jundt, separation_20):
    # A sweep holds one batch of signals at a time, so its peak above what the
    # returned points keep does not grow with the sweep. Counted from the code:
    # - _solve and _walk hold at most 16 arrays of one 8-byte entry per walk row
    #   (signal and pump columns, period, direction, bound, tags, the walk's
    #   edges, the result columns), and a batch has 2 * _SIGNAL_BATCH rows;
    # - one kernel call sees at most _KERNEL_POINTS steps, with at most 12 live
    #   8-byte arrays of that size: the walk's steps and masks and the
    #   temporaries of the Sellmeier, mismatch and sinc^2 expressions.
    bound = 8 * (16 * 2 * tuning._SIGNAL_BATCH + 12 * tuning._KERNEL_POINTS)
    for step in (1.0, 0.1):  # 601 and 6,001 signals
        tracemalloc.start()
        try:
            points = hub_sweep((400.0, 1000.0), step, 1540.0, 40.0, 48.0, jundt,
                               separation_20)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == round(600.0 / step) + 1
        assert peak - kept <= bound


def test_spectrum_kernel_runs_in_bounded_slices(jundt):
    # grid_efficiency evaluates one slice of _KERNEL_POINTS at a time, with at
    # most 12 live 8-byte arrays of that size (as in the walk), however long the
    # run. A spectrum whose points all lie inside (0, nu_s) holds at most one
    # kernel slice beyond its five columns: laying its grid out takes less than
    # the columns, and the pump wavelengths are divided in place. Unsliced,
    # both grew with the run.
    device = make_device(493.0, 1540.0, 40.0, 48.0, jundt)
    signal = SpectralPoint.from_wavelength_nm(493.0)
    slice_bound = 8 * 12 * tuning._KERNEL_POINTS
    nu_c = 194.0 + 1e-5 * np.arange(300_001)
    tracemalloc.start()
    try:
        eff, extrapolated = grid_efficiency(device, signal.frequency_thz, nu_c,
                                            signal.wavelength_um)
        kept, peak = tracemalloc.get_traced_memory()
        kernel = peak - kept
        tracemalloc.reset_peak()
        spectrum = pm_spectrum_columns(493.0, 1540.0, device, 4.5, 0.03)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrum.efficiency.size == eff.size == extrapolated.size == nu_c.size
    assert kernel <= slice_bound
    assert peak - kept <= slice_bound


def _center_rule(signal_nm, target_nm, constraints):
    """The tag of an empty interval by the checks the solver once made at the
    center, in their order, or None where the walk decides the interval."""
    nu_s, nu_c0 = C_NM_THZ / signal_nm, C_NM_THZ / target_nm
    value = constraints.constraint_value_nm
    if nu_c0 == nu_s / 2.0:
        return "separation"
    if constraints.constraint_mode == "max_converted_wavelength":
        return "cutoff" if target_nm > value else None
    separation = abs(C_NM_THZ / (nu_s - nu_c0) - C_NM_THZ / nu_c0)
    return "separation" if separation < value else None


@settings(max_examples=40, deadline=None)
@given(signals=st.lists(st.one_of(st.floats(300.0, 1100.0), st.none()),
                        min_size=1, max_size=30),
       target=st.floats(1200.0, 2400.0), cutoff=st.booleans(),
       offset=st.one_of(st.just(0), st.integers(-80, 80)),
       separation=st.floats(0.5, 80.0))
def test_empty_results_match_the_center_rule(jundt, signals, target, cutoff, offset,
                                             separation):
    # the bounds decide empty intervals as the center checks did; None stands
    # for the degenerate signal, half the target, and a cutoff lies on a
    # 0.5 nm grid around the target, often at the target itself
    signals = [target / 2.0 if s is None else s for s in signals]
    constraints = TuningConstraints(
        constraint_mode="max_converted_wavelength" if cutoff
        else "min_pump_converted_separation",
        constraint_value_nm=target + offset / 2.0 if cutoff else separation)
    results = _solve(signals, target, 40.0, 48.0, jundt, constraints)
    for signal, result in zip(signals, results):
        try:
            make_device(signal, target, 40.0, 48.0, jundt)
        except QfcHubError as error:
            expected = _failure_code(error)
        else:
            expected = _center_rule(signal, target, constraints)
        assert result.is_empty == (expected is not None)
        if expected is not None:
            assert result.limiting_constraint == expected
            assert result.converted_interval_nm == (target, target)
            assert result.width_thz == 0.0 and result.channel_count == 0


def test_coarse_step_follows_the_grid_rule():
    # the walk takes at most 1,000,000 coarse steps across the scan halfwidth:
    # 0.06 GHz over the default 60 THz is exactly that many, a finer step is not
    assert TuningConstraints(coarse_step_ghz=0.06).coarse_step_ghz == 0.06
    with pytest.raises(DomainError, match="exceeds 1000000 steps"):
        TuningConstraints(coarse_step_ghz=0.0599)
    TuningConstraints(coarse_step_ghz=0.0599, scan_halfwidth_thz=59.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="coarse step must be finite and positive"):
            TuningConstraints(coarse_step_ghz=bad)


def test_channel_spacing_follows_the_grid_rule():
    # at most 1,000,000 channels across the widest interval, twice the halfwidth:
    # 0.12 GHz over the default 120 THz is exactly that many, a finer spacing is not
    assert TuningConstraints(channel_spacing_ghz=0.12).channel_spacing_ghz == 0.12
    for bad in (0.1199, 1e-300):
        with pytest.raises(DomainError, match="channel_spacing_ghz: .* exceeds 1000000 steps"):
            TuningConstraints(channel_spacing_ghz=bad)
    TuningConstraints(channel_spacing_ghz=0.1199, scan_halfwidth_thz=59.0)
    for bad in (0.0, -1.0, float("nan"), float("inf"), 5e-324):
        with pytest.raises(DomainError, match="channel_spacing_ghz: "):
            TuningConstraints(channel_spacing_ghz=bad)


def test_extrapolated_counts_the_signal(jundt):
    # 380 nm lies below the 400 nm validity edge of jundt1997, while every pump
    # (near 504 nm) and converted wave of the scan lies inside it
    device = make_device(380.0, 1540.0, 40.0, 48.0, jundt, allow_extrapolation=True)
    spectrum = pm_spectrum_columns(380.0, 1540.0, device, 6.0, 2.0)
    assert spectrum.efficiency.size == 6001
    assert jundt.in_validity(spectrum.lambda_p_nm / 1000.0, 48.0).all()
    assert jundt.in_validity(spectrum.lambda_c_nm / 1000.0, 48.0).all()
    assert spectrum.extrapolated.all()


def test_hub_sweep_points_match_single_signal(jundt, separation_20):
    points = hub_sweep((300.0, 1000.0), 7.0, 1310.0, 40.0, 48.0, jundt, separation_20)
    assert {p.tuning.limiting_constraint for p in points} == {
        "outside_fit", "separation", "threshold"}
    for p in points:
        assert p.tuning == _alone(p.signal_nm, 1310.0, jundt, separation_20)


def _assert_plain_types(result):
    lo, hi = result.converted_interval_nm
    assert type(result.converted_interval_nm) is tuple
    for value in (lo, hi, result.width_nm, result.width_thz):
        assert type(value) is float
    assert type(result.channel_count) is int
    assert type(result.limiting_constraint) is str
    assert type(result.is_empty) is bool


def test_results_are_plain_python_types(jundt, cutoff_1550, separation_20):
    narrow = TuningConstraints(scan_halfwidth_thz=0.5)
    cases = [(780.0, cutoff_1550, "cutoff"), (493.0, separation_20, "threshold"),
             (780.0, narrow, "scan_edge"), (770.0, separation_20, "separation")]
    for signal, constraints, tag in cases:
        result = tuning_range(signal, 1540, 40.0, 48.0, jundt, constraints)
        assert result.limiting_constraint == tag
        _assert_plain_types(result)
    assert tuning_range(770.0, 1540, 40.0, 48.0, jundt, separation_20).is_empty

    points = hub_sweep((300, 1000), 50, 1310, 40.0, 48.0, jundt, separation_20)
    assert any(p.tuning.is_empty and p.tuning.limiting_constraint == "outside_fit"
               for p in points)
    assert any(not p.tuning.is_empty for p in points)
    for p in points:
        assert type(p.signal_nm) is float
        _assert_plain_types(p.tuning)


def test_failed_signals_carry_the_code_of_their_error(jundt, separation_20):
    # one signal per code: below the fit's 400 nm edge, at or past the target's
    # wavelength, not a wavelength, and in a drawn material whose index rises with
    # the wavelength, so that k_s - k_p - k_c < 0
    anomalous = SellmeierModel("anomalous", "lambda_sq_poles", (-1.0, 25.0), (), (), "",
                               (0.3, 4.0), (20.0, 100.0))
    for material, signals, codes in (
            (jundt, [350.0, 1600.0, 1540.0, 3080.0, 0.0, -5.0],
             ["outside_fit", "no_pump", "no_pump", "no_pump", "outside_fit", "outside_fit"]),
            (anomalous, [780.0], ["no_qpm"])):
        results = _solve(signals, 1540.0, 40.0, 48.0, material, separation_20)
        assert [r.limiting_constraint for r in results] == codes
        assert results == [_alone(s, 1540.0, material, separation_20) for s in signals]


def test_band_solver_work_is_pinned(jundt, separation_20, monkeypatch):
    # the work of the two 400-1000 nm paper sweeps, and of the default plan's pump
    # band, which walks the bare kernel: it computes no validity flag to drop
    plan = plan_pumps(DwdmGrid(), 384.2, LaserSpec(), 40.0, 48.0, jundt)
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            out = original(*args)
            calls.append((name, np.size(out)))
            return out
        monkeypatch.setattr(module, name, counted)

    for module in (qpm, tuning):
        count(module, "pm_efficiency")
        count(module, "_in_fit")
    for target in (1540.0, 1310.0):
        hub_sweep((400.0, 1000.0), 1.0, target, 40.0, 48.0, jundt, separation_20)
    kernel = [size for name, size in calls if name == "pm_efficiency"]
    assert (len(kernel), sum(kernel)) == (92, 205_028)
    calls.clear()
    pump_band(plan)
    assert [name for name, _ in calls] == ["pm_efficiency"] * 10
