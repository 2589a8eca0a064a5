import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfchub import (DomainError, DwdmGrid, LaserSpec, RangeError, ValidityError,
                    efficiency_curve_columns, plan_pumps, port_frequency, pump_band)
from qfchub.constants import C_NM_THZ, C_UM_THZ, REFINE_GHZ
from qfchub import qpm
from qfchub.qpm import grid_efficiency

SIGNAL_THZ = 384.200


def test_port_frequencies_default_grid():
    grid = DwdmGrid()
    assert port_frequency(grid, 1) == pytest.approx(194.850, abs=1e-12)
    assert port_frequency(grid, 16) == pytest.approx(194.475, abs=1e-12)
    assert port_frequency(grid, 9) == pytest.approx(194.650, abs=1e-12)


def test_port_frequency_range_errors():
    # a port is a whole number, as a grid's port count is
    grid = DwdmGrid()
    for bad in (0, 17, -3, 1.5, 2.0, np.float64(3.0), True, "3"):
        with pytest.raises(RangeError):
            port_frequency(grid, bad)
    assert port_frequency(grid, np.int64(9)) == port_frequency(grid, 9)


def test_grid_affine_arithmetic():
    grid = DwdmGrid()
    freqs = [port_frequency(grid, p) for p in range(1, 17)]
    steps = np.diff(freqs)
    assert np.allclose(steps, -0.025, atol=1e-12)
    assert sum(-s for s in steps) == pytest.approx(freqs[0] - freqs[-1], abs=1e-12)
    assert freqs[0] - freqs[-1] == pytest.approx(0.375, abs=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        DwdmGrid(anchor_frequency_thz=-1.0)
    with pytest.raises(DomainError):
        DwdmGrid(port_count=0)
    with pytest.raises(DomainError):
        DwdmGrid(port_count=2.5)
    with pytest.raises(DomainError):
        DwdmGrid(port_count=True)
    with pytest.raises(DomainError):
        LaserSpec(1600.0, 1500.0)


def test_grid_accepts_up_to_the_grid_bound():
    # port 17 of a 0.4 THz anchor at 25 GHz would sit exactly at 0 THz
    assert port_frequency(DwdmGrid(math.nextafter(0.4, 1.0), 25.0, 17), 17) > 0.0
    # at 0.1 GHz the last port of the longest grid stays near 95 THz
    grid = DwdmGrid(spacing_ghz=0.1, port_count=qpm._MAX_GRID_POINTS + 1)
    assert port_frequency(grid, grid.port_count) > 94.0


@pytest.mark.parametrize("anchor_thz, spacing_ghz, ports, message", [
    (0.4, 25.0, 17, "grid of 17 ports ends at 0.000 THz, not above 0 THz"),
    (194.85, 25.0, 8000, "grid of 8000 ports ends at -5.125 THz"),
    (194.85, 0.1, qpm._MAX_GRID_POINTS + 2, "grid of 1000002 ports exceeds 1000001 ports"),
    # checked before any port is laid out, also for a count no float can hold
    (194.85, 25.0, 10 ** 400, "exceeds 1000001 ports"),
], ids=["last-at-zero", "8000-ports", "bound-plus-two", "past-float-range"])
def test_grid_rejects_past_the_grid_bound(anchor_thz, spacing_ghz, ports, message):
    with pytest.raises(DomainError, match=message):
        DwdmGrid(anchor_thz, spacing_ghz, ports)


@settings(max_examples=300, deadline=None)
@given(anchor_thz=st.one_of(st.floats(1e-3, 1e4), st.floats(100.0, 300.0),
                            st.sampled_from([128.0, 256.0])),
       ulps=st.one_of(st.floats(0.25, 4.0), st.sampled_from([0.5, 1.0, 2.0])),
       nudge=st.integers(-2, 2), ports=st.integers(2, 64))
def test_accepted_grids_have_distinct_ports(jundt, anchor_thz, ulps, nudge, ports):
    # steps near one ulp of the anchor: every grid the rule accepts descends
    # strictly, port by port and in the plan's columns; the rest are refused
    spacing_ghz = ulps * math.ulp(anchor_thz) * 1000.0
    spacing_ghz += nudge * math.ulp(spacing_ghz)
    try:
        grid = DwdmGrid(anchor_thz, spacing_ghz, ports)
    except DomainError as exc:
        assert str(exc).startswith(f"grid spacing of {spacing_ghz:g} GHz is below")
        assert spacing_ghz / 1000.0 < math.ulp(anchor_thz)
        return
    nu_c = [port_frequency(grid, p) for p in range(1, ports + 1)]
    assert all(a > b for a, b in zip(nu_c, nu_c[1:]))
    if 100.0 <= anchor_thz <= 300.0:
        plan = plan_pumps(grid, SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
        assert plan.nu_c_thz.tolist() == nu_c


def test_grid_spacing_below_the_anchor_resolution_is_refused():
    # at half an ulp of the anchor the second port rounds onto the first or the third
    half = math.ulp(194.85) / 2.0
    assert len({194.85 - k * half for k in range(3)}) < 3
    for spacing_ghz in (half * 1000.0, 1e-300):
        with pytest.raises(DomainError, match=f"grid spacing of {spacing_ghz:g} GHz"):
            DwdmGrid(194.85, spacing_ghz, 16)
    assert DwdmGrid(194.85, 1e-300, 1).port_count == 1  # one port has no neighbour


def test_plan_port7_reference_operating_point(jundt):
    grid = DwdmGrid()
    plan = plan_pumps(grid, SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    port7 = 6  # port n is row n - 1
    assert plan.nu_c_thz[port7] == port_frequency(grid, 7)
    assert plan.nu_c_thz[port7] == pytest.approx(194.700, abs=1e-12)
    assert plan.nu_p_thz[port7] == pytest.approx(189.500, abs=1e-12)
    assert plan.lambda_p_nm[port7] == pytest.approx(1582.02, abs=0.005)
    assert plan.in_laser_range[port7]


def test_plan_all_pumps_inside_default_laser(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    assert [column.shape for column in plan[4:]] == [(16,)] * 6
    assert plan.in_laser_range.all()
    pumps = plan.lambda_p_nm
    assert max(pumps) - min(pumps) < 36.0  # pump span well inside the laser span


def test_plan_energy_conservation_and_determinism(jundt):
    plan_a = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    plan_b = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    assert all(np.array_equal(a, b) for a, b in zip(plan_a, plan_b))
    assert plan_a.nu_p_thz + plan_a.nu_c_thz == pytest.approx(
        np.full(16, SIGNAL_THZ), rel=1e-9)
    assert np.all((0.0 <= plan_a.relative_efficiency) & (plan_a.relative_efficiency <= 1.0))


def test_plan_relative_efficiency_peaks_at_center(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    # the period is solved between ports 8 and 9; efficiency dips at the edges
    rel = plan.relative_efficiency
    mid = 0.5 * (rel[7] + rel[8])
    assert mid > rel[0]
    assert mid > rel[-1]
    assert mid > 0.9999


def test_plan_flags_out_of_laser_pump(jundt):
    # a hypothetical port at 191.0 THz needs an out-of-range pump near 1551.6 nm
    grid = DwdmGrid(anchor_frequency_thz=191.0, spacing_ghz=25.0, port_count=1)
    plan = plan_pumps(grid, SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    assert plan.nu_p_thz[0] == pytest.approx(193.200, abs=1e-12)
    assert plan.lambda_p_nm[0] == pytest.approx(1551.7, abs=0.1)
    assert not plan.in_laser_range[0]


@settings(max_examples=150, deadline=None)
@given(ports=st.integers(1, 64), spacing_ghz=st.floats(12.5, 100.0),
       anchor_thz=st.floats(190.0, 200.0), signal_thz=st.floats(300.0, 700.0),
       pick=st.integers(0, 63), bound=st.sampled_from(["min", "max", "none"]),
       width_nm=st.floats(0.01, 100.0), offset_nm=st.floats(-50.0, 50.0))
def test_plan_columns_match_per_port_reference(jundt, ports, spacing_ghz, anchor_thz,
                                               signal_thz, pick, bound, width_nm,
                                               offset_nm):
    grid = DwdmGrid(anchor_thz, spacing_ghz, ports)
    nu_c = [port_frequency(grid, p) for p in range(1, ports + 1)]
    lam_p = [C_NM_THZ / (signal_thz - f) for f in nu_c]
    at = lam_p[pick % ports]  # a laser bound may sit exactly on this pump
    laser = {"min": LaserSpec(at, at + width_nm),
             "max": LaserSpec(at - width_nm, at),
             "none": LaserSpec(at + offset_nm, at + offset_nm + width_nm)}[bound]
    plan = plan_pumps(grid, signal_thz, laser, 40.0, 48.0, jundt)
    device = plan.device
    assert plan.nu_c_thz.tolist() == nu_c
    assert plan.lambda_c_nm.tolist() == [C_NM_THZ / f for f in nu_c]
    assert plan.nu_p_thz.tolist() == [signal_thz - f for f in nu_c]
    assert plan.lambda_p_nm.tolist() == lam_p
    assert plan.in_laser_range.tolist() == [
        laser.min_wavelength_nm <= x <= laser.max_wavelength_nm for x in lam_p]
    # numpy's vectorized sin and its scalar path may differ in the last bit
    assert plan.relative_efficiency.tolist() == pytest.approx(
        [float(grid_efficiency(device, signal_thz, f)[0]) for f in nu_c],
        rel=1e-12, abs=1e-15)
    if bound != "none":
        assert plan.in_laser_range[pick % ports]


def test_plan_rejects_low_signal(jundt):
    with pytest.raises(DomainError):
        plan_pumps(DwdmGrid(), 194.800, LaserSpec(), 40.0, 48.0, jundt)


def test_plan_rejects_ports_past_the_fit(jundt):
    # the window is an interval, so the first and last ports decide for all
    assert plan_pumps(DwdmGrid(port_count=5396), SIGNAL_THZ, LaserSpec(), 40.0, 48.0,
                      jundt).lambda_c_nm.max() < 5000.0
    with pytest.raises(ValidityError, match=r"^wavelength 5\.0007 um outside jundt1997 "
                                            r"validity \[0\.400, 5\.000\] um$"):
        plan_pumps(DwdmGrid(port_count=5397), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    # a pump past the fit at the first port fails the same way
    with pytest.raises(ValidityError, match="outside jundt1997 validity"):
        plan_pumps(DwdmGrid(), 250.0, LaserSpec(), 40.0, 48.0, jundt)


def _plan_spanning(half_thz, jundt):
    """The default plan with a laser spanning the center's pump +- ``half_thz``."""
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    center_pump = SIGNAL_THZ - plan.center_frequency_thz
    laser = LaserSpec(C_NM_THZ / (center_pump + half_thz), C_NM_THZ / (center_pump - half_thz))
    return plan_pumps(DwdmGrid(), SIGNAL_THZ, laser, 40.0, 48.0, jundt)


def test_relative_efficiency_curve_normalization_and_symmetry(jundt):
    plan = _plan_spanning(1.0, jundt)
    center_pump = SIGNAL_THZ - plan.center_frequency_thz
    nus, rel, _ = efficiency_curve_columns(plan, step_ghz=1.0)
    assert rel.max() == pytest.approx(1.0, abs=1e-12)
    at = lambda nu: rel[int(np.argmin(np.abs(nus - nu)))]
    assert at(center_pump) == pytest.approx(1.0, abs=1e-6)
    assert abs(at(center_pump + 0.5) - at(center_pump - 0.5)) < 0.02


def test_high_efficiency_band_over_laser_range(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    band = pump_band(plan, 0.9)
    assert band[0] < 188.9 and band[1] > 190.5
    assert 1.5 <= band[1] - band[0] <= 2.5


def _scanned_band(plan):
    """The 90 % band as a 0.1 GHz curve over the laser range reads it: the
    outermost grid points of the passing run around the center's pump."""
    nus, rel, _ = efficiency_curve_columns(plan, step_ghz=0.1)
    center = int(np.argmin(np.abs(nus - (SIGNAL_THZ - plan.center_frequency_thz))))
    failing = np.flatnonzero(~(rel >= 0.9))
    below, above = failing[failing < center], failing[failing > center]
    lo = below[-1] + 1 if below.size else 0
    hi = above[0] - 1 if above.size else nus.size - 1
    return nus[lo], nus[hi]


@pytest.mark.parametrize("center_thz, length_mm, limits", [
    (None, 40.0, ("threshold", "laser_range")),
    (None, 80.0, ("threshold", "threshold")),
    (196.0, 40.0, ("threshold", "threshold")),
    (195.5, 60.0, ("threshold", "threshold")),
    (197.0, 20.0, ("laser_range", "threshold")),
])
def test_pump_band_equals_a_fine_scan(center_thz, length_mm, limits, jundt):
    # each edge of the walk lies within its refinement of the fine scan's edge
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), length_mm, 48.0, jundt,
                      center_frequency_thz=center_thz)
    lo, hi, got = pump_band(plan)
    assert got == limits
    scan_lo, scan_hi = _scanned_band(plan)
    assert abs(lo - scan_lo) <= REFINE_GHZ / 1000.0
    assert abs(hi - scan_hi) <= REFINE_GHZ / 1000.0


def test_pump_band_bounded_by_the_fit(jundt):
    # a laser reaching past the fit is bounded by the fit's 5 um pump
    wide = LaserSpec(1000.0, 6000.0)
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, wide, 0.01, 48.0, jundt)
    lo, hi, limits = pump_band(plan)
    assert limits == ("scan_edge", "laser_range")
    assert lo == pytest.approx(C_UM_THZ / 5.0) and hi == pytest.approx(C_NM_THZ / 1000.0)
    with pytest.raises(DomainError, match="threshold"):
        pump_band(plan, threshold=1.0)


def test_curve_flags_an_extrapolated_pump(jundt):
    # a 1000-6000 nm laser reaches past the 5 um validity edge of jundt1997,
    # while the signal and every converted wave of the curve lie inside it
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(1000.0, 6000.0), 40.0, 48.0, jundt)
    curve = efficiency_curve_columns(plan)
    lam_p = C_UM_THZ / curve.nu_p_thz
    assert jundt.in_validity(C_UM_THZ / (SIGNAL_THZ - curve.nu_p_thz), 48.0).all()
    assert curve.extrapolated.any() and not curve.extrapolated.all()
    assert np.array_equal(curve.extrapolated, lam_p > 5.0)


def test_curve_runs_in_bounded_slices(jundt):
    # beyond its three columns a curve holds at most two 8-byte arrays of its
    # grid (laying the grid out, then the converted frequencies) and one kernel
    # slice (at most 12 live 8-byte arrays of _KERNEL_POINTS, as in the walk);
    # with the flag computed beside the efficiency it needs no wavelength
    # arrays of its own
    plan = _plan_spanning(4.5, jundt)
    slice_bound = 8 * 12 * qpm._KERNEL_POINTS
    tracemalloc.start()
    try:
        curve = efficiency_curve_columns(plan, 0.01)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.nu_p_thz.size == 900_001
    assert peak - kept <= 2 * 8 * curve.nu_p_thz.size + slice_bound


def test_curve_input_validation(jundt):
    # a descending laser range is LaserSpec's own check (test_grid_validation)
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(700.0, 1600.0), 40.0, 48.0, jundt)
    with pytest.raises(DomainError, match="step_ghz"):
        efficiency_curve_columns(plan, step_ghz=0.0)
    # a pump below 780 nm lies above the signal frequency
    with pytest.raises(DomainError, match="reaches the signal frequency"):
        efficiency_curve_columns(plan)


def test_plan_laser_and_temperature_reach_band_and_curve(jundt):
    # the band and the curve read the laser and the device the plan was made with
    wide = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(1500.0, 1700.0), 40.0, 48.0, jundt)
    lo, hi, limits = pump_band(wide)
    assert (lo, hi) == pytest.approx((188.3901, 195.8099), abs=1e-4)
    assert limits == ("threshold", "threshold")
    curve = efficiency_curve_columns(wide)
    assert curve.nu_p_thz[0] == C_NM_THZ / 1700.0
    assert C_NM_THZ / 1500.0 - 1e-3 < curve.nu_p_thz[-1] <= C_NM_THZ / 1500.0
    at_48, at_60 = (pump_band(plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, t, jundt))
                    for t in (48.0, 60.0))
    assert at_60[:2] != at_48[:2]
