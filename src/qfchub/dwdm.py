"""ITU-T DWDM grid arithmetic and per-channel pump planning.

Port frequencies descend with ascending port index from an anchor frequency.
For a fixed signal frequency the planner assigns one pump per port via
energy conservation, checks it against the tunable-laser range, and predicts
the relative conversion efficiency with the poling period solved once at the
plan's center channel. The plan's pump band is the tuning walk of
``tuning_range`` on that device, bounded by the laser range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import C_NM_THZ, C_UM_THZ
from .dispersion import SellmeierModel, SpectralPoint
from .errors import DomainError, RangeError
from .qpm import (_MAX_GRID_POINTS, DeviceConfig, _grid_steps, _peak_index, _require_fit,
                  _triple_um, grid_efficiency, solve_poling_period)
from .tuning import _LIMITS, LimitTag, TuningConstraints, _band


def _whole(n) -> bool:
    """A port number or count is an int or numpy integer, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class DwdmGrid:
    """Descending-frequency DWDM grid: port n sits at anchor - (n-1)*spacing, with at most
    ``_MAX_GRID_POINTS`` steps, as every grid, ports a step of at least one ulp of the
    anchor apart, so that none coincide, and the last port above 0 THz."""

    anchor_frequency_thz: float = 194.850
    spacing_ghz: float = 25.0
    port_count: int = 16

    def __post_init__(self) -> None:
        if not (0 < self.anchor_frequency_thz < math.inf
                and 0 < self.spacing_ghz < math.inf):
            raise DomainError("grid anchor and spacing must be finite and positive")
        if not (_whole(self.port_count) and self.port_count >= 1):
            raise DomainError("grid needs a whole number of ports, at least one")
        # the count first: a count past the bound may not even convert to float
        if self.port_count - 1 > _MAX_GRID_POINTS:
            raise DomainError(f"grid of {self.port_count} ports exceeds "
                              f"{_MAX_GRID_POINTS + 1} ports")
        anchor = self.anchor_frequency_thz
        if self.port_count > 1 and self.spacing_ghz / 1000.0 < math.ulp(anchor):
            raise DomainError(f"grid spacing of {self.spacing_ghz:g} GHz is below the "
                              f"resolution of its {anchor:g} THz anchor; ports coincide")
        last = port_frequency(self, self.port_count)
        if not last > 0:
            raise DomainError(f"grid of {self.port_count} ports ends at {last:.3f} THz, "
                              "not above 0 THz")


@dataclass(frozen=True)
class LaserSpec:
    """Tunable pump laser wavelength range in nm."""

    min_wavelength_nm: float = 1572.063
    max_wavelength_nm: float = 1607.760

    def __post_init__(self) -> None:
        if not 0 < self.min_wavelength_nm < self.max_wavelength_nm < math.inf:
            raise DomainError("laser range must satisfy 0 < min < max < inf")


class PumpPlan(NamedTuple):
    """A pump plan: its device, solved at the center, its laser, and from ``nu_c_thz``
    on columns, one array entry per port: port n is row n - 1."""

    signal_frequency_thz: float
    device: DeviceConfig
    laser: LaserSpec
    center_frequency_thz: float
    nu_c_thz: np.ndarray
    lambda_c_nm: np.ndarray
    nu_p_thz: np.ndarray
    lambda_p_nm: np.ndarray
    in_laser_range: np.ndarray
    relative_efficiency: np.ndarray


def port_frequency(grid: DwdmGrid, port: int) -> float:
    """Center frequency (THz) of a 1-based port index, a whole number."""
    if not (_whole(port) and 1 <= port <= grid.port_count):
        raise RangeError(
            f"port {port} outside grid range [1, {grid.port_count}]")
    return grid.anchor_frequency_thz - (port - 1) * grid.spacing_ghz / 1000.0


def plan_pumps(grid: DwdmGrid, signal_frequency_thz: float, laser: LaserSpec,
               length_mm: float, temperature_c: float, material: SellmeierModel,
               center_frequency_thz: float | None = None) -> PumpPlan:
    """One pump per DeMux port for a fixed signal frequency.

    The poling period is solved once at the plan center, by default the
    middle port or the midpoint of the two middle ports; every port's
    relative efficiency is the phase-matching function evaluated at that
    port's detuning (1.0 at the center by construction). A pump is in the
    laser range when its wavelength lies within the closed interval.
    """
    n = grid.port_count
    nu_c = grid.anchor_frequency_thz - np.arange(n, dtype=float) * grid.spacing_ghz / 1000.0
    if signal_frequency_thz <= nu_c.max():
        raise DomainError(
            f"signal frequency {signal_frequency_thz:.3f} THz must exceed every "
            f"port frequency (max {nu_c.max():.3f} THz)")
    # every port must lie in the fit; the window is an interval, so the end ports decide
    _require_fit(material, temperature_c, _triple_um(signal_frequency_thz, nu_c[[0, -1]]))
    center = center_frequency_thz
    if center is None:  # for odd n both name the middle port, and 0.5 * (x + x) == x
        center = float(0.5 * (nu_c[(n - 1) // 2] + nu_c[n // 2]))
    signal = SpectralPoint.from_frequency_thz(signal_frequency_thz)
    period = solve_poling_period(
        signal, SpectralPoint.from_frequency_thz(center), temperature_c, material)
    device = DeviceConfig(period, length_mm, temperature_c, material)
    nu_p = signal_frequency_thz - nu_c
    lam_p = C_NM_THZ / nu_p
    in_range = (laser.min_wavelength_nm <= lam_p) & (lam_p <= laser.max_wavelength_nm)
    return PumpPlan(signal_frequency_thz, device, laser, center, nu_c, C_NM_THZ / nu_c, nu_p,
                    lam_p, in_range, grid_efficiency(device, signal_frequency_thz, nu_c)[0])


def pump_band(plan: PumpPlan, threshold: float = 0.9
              ) -> tuple[float, float, tuple[LimitTag, LimitTag]]:
    """Contiguous pump-frequency band around the plan's center where the efficiency
    stays at or above the threshold, and what ended each side, low pump side first.

    The plan's period is solved at its center, so the threshold is a fraction of
    the phase-matching maximum. The band is ``tuning_range``'s walk on the plan's
    device, at its default coarse step, bounded by the plan's laser range
    (``laser_range``) and the fit's window (``scan_edge``); a side the threshold
    ends is ``threshold``. A center whose pump lies outside the laser range gives
    an empty band at that pump.
    """
    nu_s = plan.signal_frequency_thz
    # row 0 walks down in converted frequency, row 1 up: up and down in pump
    # on Python floats, as the curve does: a bound that overflows is inf, with no warning
    laser = np.array([[nu_s - C_NM_THZ / plan.laser.min_wavelength_nm],
                      [nu_s - C_NM_THZ / plan.laser.max_wavelength_nm]])
    device = plan.device
    edge, tag, _ = _band(device.material, device.temperature_c, device.length_mm,
                         device.poling_period_um, nu_s, C_UM_THZ / nu_s,
                         plan.center_frequency_thz, [("laser_range", laser, True)],
                         TuningConstraints(efficiency_threshold=threshold))
    return (float(nu_s - edge[1, 0]), float(nu_s - edge[0, 0]),
            (_LIMITS[tag[1, 0]], _LIMITS[tag[0, 0]]))


class EfficiencyCurve(NamedTuple):
    """A relative efficiency curve as columns, one array entry per pump frequency."""

    nu_p_thz: np.ndarray
    relative_efficiency: np.ndarray
    extrapolated: np.ndarray


def efficiency_curve_columns(plan: PumpPlan, step_ghz: float = 1.0) -> EfficiencyCurve:
    """Model conversion efficiency of the plan's device vs pump frequency over its
    laser range, divided by the curve's peak in that range, which the plan's
    ``relative_efficiency`` and ``pump_band`` are not: they are relative to the
    phase-matching maximum at the center, inside the range or not. Points whose
    signal, pump or converted wavelength lies outside the material validity
    window are flagged, not dropped.
    """
    nu_s = plan.signal_frequency_thz
    lo, hi = C_NM_THZ / plan.laser.max_wavelength_nm, C_NM_THZ / plan.laser.min_wavelength_nm
    # the range before its grid is sized; the last point, which may lie up to 1e-9 of
    # a step past hi, is checked again
    if not nu_s - hi > 0:
        raise DomainError("pump range reaches the signal frequency")
    step = step_ghz / 1000.0
    nu_p = lo + step * np.arange(_grid_steps(hi - lo, step, "step_ghz") + 1)
    nu_c = nu_s - nu_p
    if not nu_c[-1] > 0:
        raise DomainError("pump range reaches the signal frequency")
    rel, extrapolated = grid_efficiency(plan.device, nu_s, nu_c)
    rel /= rel[_peak_index(rel)]
    return EfficiencyCurve(nu_p, rel, extrapolated)
