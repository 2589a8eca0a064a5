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

from .constants import C_NM_THZ
from .dispersion import SellmeierModel, SpectralPoint
from .errors import DomainError, RangeError
from .qpm import (_MAX_GRID_POINTS, DeviceConfig, _grid_steps, _require_fit, _triple_um,
                  _validity_bounds_nu_c, grating_mismatch, grid_efficiency, pm_efficiency,
                  solve_poling_period)
from .tuning import _LIMITS, LimitTag, TuningConstraints, _band


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
        if not (isinstance(self.port_count, (int, np.integer)) and self.port_count >= 1):
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
    """A pump plan as columns, one array entry per port: port n is row n - 1."""

    signal_frequency_thz: float
    poling_period_um: float
    center_frequency_thz: float
    nu_c_thz: np.ndarray
    lambda_c_nm: np.ndarray
    nu_p_thz: np.ndarray
    lambda_p_nm: np.ndarray
    in_laser_range: np.ndarray
    relative_efficiency: np.ndarray


def port_frequency(grid: DwdmGrid, port: int) -> float:
    """Center frequency (THz) of a 1-based port index."""
    if not 1 <= port <= grid.port_count:
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
    return PumpPlan(signal_frequency_thz, period, center, nu_c, C_NM_THZ / nu_c, nu_p,
                    lam_p, in_range, grid_efficiency(device, signal_frequency_thz, nu_c)[0])


def pump_band(plan: PumpPlan, laser: LaserSpec, length_mm: float, temperature_c: float,
              material: SellmeierModel, threshold: float = 0.9
              ) -> tuple[float, float, tuple[LimitTag, LimitTag]]:
    """Contiguous pump-frequency band around the plan's center where the efficiency
    stays at or above the threshold, and what ended each side, low pump side first.

    The length, temperature and material are the plan's. Its period is solved at
    the center, so the threshold is a fraction of the phase-matching maximum.
    The band is ``tuning_range``'s walk on the plan's device, at its default
    coarse step, bounded by the laser range (``laser_range``) and the fit's
    window (``scan_edge``); a side the threshold ends is ``threshold``. A center
    whose pump lies outside the laser range gives an empty band at that pump.
    """
    device = DeviceConfig(plan.poling_period_um, length_mm, temperature_c, material)
    constraints = TuningConstraints(efficiency_threshold=threshold)
    nu_s = plan.signal_frequency_thz
    # rows 0 and 1 walk down and up in converted frequency, so up and down in pump
    laser_bound = nu_s - C_NM_THZ / np.array([laser.min_wavelength_nm,
                                              laser.max_wavelength_nm])
    fit_bound = np.array(_validity_bounds_nu_c(nu_s, material))
    tighter = np.array([-1.0, 1.0]) * (laser_bound - fit_bound) < 0
    bound = np.where(tighter, laser_bound, fit_bound)
    tag = np.where(tighter, _LIMITS.index("laser_range"), _LIMITS.index("scan_edge"))

    def eff(rows, nu_c):
        return pm_efficiency(grating_mismatch(material, temperature_c,
                                              device.poling_period_um, nu_s, nu_c),
                             device.length_mm)

    edge, tag, _ = _band(eff, plan.center_frequency_thz, bound, tag,
                         constraints.coarse_step_ghz, constraints.efficiency_threshold)
    return (float(nu_s - edge[1]), float(nu_s - edge[0]),
            (_LIMITS[tag[1]], _LIMITS[tag[0]]))


class EfficiencyCurve(NamedTuple):
    """A relative efficiency curve as columns, one array entry per pump frequency."""

    nu_p_thz: np.ndarray
    relative_efficiency: np.ndarray
    extrapolated: np.ndarray


def efficiency_curve_columns(device: DeviceConfig, signal_frequency_thz: float,
                             pump_range_thz: tuple[float, float],
                             step_ghz: float = 1.0) -> EfficiencyCurve:
    """Model conversion efficiency vs pump frequency, normalized to its peak.

    The device period should already be solved for a working point inside the
    range. Points whose signal, pump or converted wavelength lies outside the
    material validity window are flagged, not dropped.
    """
    lo, hi = pump_range_thz
    if not 0 < lo < hi < math.inf:
        raise DomainError("pump range must be finite, ascending and positive")
    step = step_ghz / 1000.0
    count = _grid_steps(hi - lo, step, "step_ghz") + 1
    nu_p = lo + step * np.arange(count)
    nu_c = signal_frequency_thz - nu_p
    if np.any(nu_c <= 0):
        raise DomainError("pump range reaches the signal frequency")
    rel, extrapolated = grid_efficiency(device, signal_frequency_thz, nu_c)
    peak = np.nanmax(rel)
    if not np.isfinite(peak) or peak <= 0:
        raise DomainError("efficiency is zero or undefined over the whole range")
    rel /= peak
    return EfficiencyCurve(nu_p, rel, extrapolated)
