import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfchub import (DeviceConfig, DomainError, DwdmGrid, EfficiencyCurve, LaserSpec,
                    RangeError, efficiency_curve_columns, plan_pumps, port_frequency)
from qfchub.constants import C_NM_THZ

SIGNAL_THZ = 384.200


def test_port_frequencies_default_grid():
    grid = DwdmGrid()
    assert port_frequency(grid, 1) == pytest.approx(194.850, abs=1e-12)
    assert port_frequency(grid, 16) == pytest.approx(194.475, abs=1e-12)
    assert port_frequency(grid, 9) == pytest.approx(194.650, abs=1e-12)


def test_port_frequency_range_errors():
    grid = DwdmGrid()
    for bad in (0, 17, -3):
        with pytest.raises(RangeError):
            port_frequency(grid, bad)


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
        LaserSpec(1600.0, 1500.0)


def test_plan_port7_reference_operating_point(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    entry = plan.entries[6]
    assert entry.port == 7
    assert entry.nu_c_thz == pytest.approx(194.700, abs=1e-12)
    assert entry.nu_p_thz == pytest.approx(189.500, abs=1e-12)
    assert entry.lambda_p_nm == pytest.approx(1582.02, abs=0.005)
    assert entry.in_laser_range


def test_plan_all_pumps_inside_default_laser(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    assert len(plan.entries) == 16
    assert all(e.in_laser_range for e in plan.entries)
    pumps = [e.lambda_p_nm for e in plan.entries]
    assert max(pumps) - min(pumps) < 36.0  # pump span well inside the laser span


def test_plan_energy_conservation_and_determinism(jundt):
    plan_a = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    plan_b = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    assert plan_a == plan_b
    for e in plan_a.entries:
        assert e.nu_p_thz + e.nu_c_thz == pytest.approx(SIGNAL_THZ, rel=1e-9)
        assert 0.0 <= e.relative_efficiency <= 1.0


def test_plan_relative_efficiency_peaks_at_center(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    # the period is solved between ports 8 and 9; efficiency dips at the edges
    mid = 0.5 * (plan.entries[7].relative_efficiency
                 + plan.entries[8].relative_efficiency)
    assert mid > plan.entries[0].relative_efficiency
    assert mid > plan.entries[-1].relative_efficiency
    assert mid > 0.9999


def test_plan_flags_out_of_laser_pump(jundt):
    # a hypothetical port at 191.0 THz needs an out-of-range pump near 1551.6 nm
    grid = DwdmGrid(anchor_frequency_thz=191.0, spacing_ghz=25.0, port_count=1)
    plan = plan_pumps(grid, SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    entry = plan.entries[0]
    assert entry.nu_p_thz == pytest.approx(193.200, abs=1e-12)
    assert entry.lambda_p_nm == pytest.approx(1551.7, abs=0.1)
    assert not entry.in_laser_range


def test_plan_rejects_low_signal(jundt):
    with pytest.raises(DomainError):
        plan_pumps(DwdmGrid(), 194.800, LaserSpec(), 40.0, 48.0, jundt)


def test_relative_efficiency_curve_normalization_and_symmetry(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    device = DeviceConfig(plan.poling_period_um, 40.0, 48.0, jundt)
    center_pump = SIGNAL_THZ - plan.center_frequency_thz
    nus, rel, _ = efficiency_curve_columns(device, SIGNAL_THZ,
                                           (center_pump - 1.0, center_pump + 1.0),
                                           step_ghz=1.0)
    assert rel.max() == pytest.approx(1.0, abs=1e-12)
    at = lambda nu: rel[int(np.argmin(np.abs(nus - nu)))]
    assert at(center_pump) == pytest.approx(1.0, abs=1e-6)
    assert abs(at(center_pump + 0.5) - at(center_pump - 0.5)) < 0.02


def test_high_efficiency_band_over_laser_range(jundt):
    plan = plan_pumps(DwdmGrid(), SIGNAL_THZ, LaserSpec(), 40.0, 48.0, jundt)
    device = DeviceConfig(plan.poling_period_um, 40.0, 48.0, jundt)
    laser = LaserSpec()
    lo = C_NM_THZ / laser.max_wavelength_nm
    hi = C_NM_THZ / laser.min_wavelength_nm
    band = efficiency_curve_columns(device, SIGNAL_THZ, (lo, hi), step_ghz=1.0).band(0.9)
    assert band[0] < 188.9 and band[1] > 190.5
    assert 1.5 <= band[1] - band[0] <= 2.5


def _band_by_walking(nus, rel, threshold):
    """The band as two loops stepping outward from the peak while rel >= threshold."""
    peak = int(np.nanargmax(rel))
    lo = peak
    while lo > 0 and rel[lo - 1] >= threshold:
        lo -= 1
    hi = peak
    while hi < len(rel) - 1 and rel[hi + 1] >= threshold:
        hi += 1
    return float(nus[lo]), float(nus[hi])


_REL = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.9, 1.0, float("nan")]))


@settings(max_examples=300, deadline=None)
@given(rel=st.lists(_REL, min_size=1, max_size=60).filter(
           lambda r: not np.all(np.isnan(r))),
       threshold=st.one_of(st.floats(0.0, 1.0), st.just(0.9)))
def test_high_efficiency_band_equals_walking_loops(rel, threshold):
    nus = 188.0 + 0.001 * np.arange(len(rel))
    rel = np.array(rel)
    expected = _band_by_walking(nus, rel, threshold)
    assert EfficiencyCurve(nus, rel, np.zeros(rel.size, bool)).band(threshold) == expected


def test_curve_input_validation(jundt):
    device = DeviceConfig(19.19, 40.0, 48.0, jundt)
    with pytest.raises(DomainError):
        efficiency_curve_columns(device, SIGNAL_THZ, (190.0, 188.0))
    with pytest.raises(DomainError):
        efficiency_curve_columns(device, SIGNAL_THZ, (188.0, 190.0), step_ghz=0.0)
    with pytest.raises(DomainError):
        efficiency_curve_columns(device, 100.0, (99.0, 101.0))
