"""Quasi-phase-matching core: phase mismatch, poling period, sinc^2 efficiency.

Difference-frequency generation with first-order QPM only: the grating
contributes a single 2*pi/period term to the phase mismatch. All functions
are pure; wavevectors are handled in rad/um internally and reported in rad/m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_UM_THZ, RAD_PER_UM_TO_RAD_PER_M
from .dispersion import (SellmeierModel, SpectralPoint, _fixed, _n_squared,
                         _require_validity, group_index)
from .errors import DomainError

# Most steps across one grid span: a sweep or curve has one more point, a
# spectrum lays a span on each side of its center.
_MAX_GRID_POINTS = 1_000_000
# Most points in one kernel call: bounds the temporaries of the Sellmeier,
# mismatch and sinc^2 expressions, however long the scan or walk.
_KERNEL_POINTS = 8192


def _grid_steps(span: float, step: float, label: str, unit: str = "THz") -> int:
    """Whole steps of ``step`` in ``span``, a step short by 1e-9 counting as whole.

    The one step/count rule of every frequency or wavelength grid; the caller checks
    the shape of its range, lays out its own points and names its step in ``label``.
    """
    if not (0 < step < math.inf and -math.inf < span < math.inf):
        raise DomainError(f"{label}: grid span must be finite and its step finite and positive")
    steps = np.floor(span / step + 1e-9)
    if not steps <= _MAX_GRID_POINTS:
        raise DomainError(f"{label}: grid of {steps:.17g} steps of {step:g} {unit} over "
                          f"{span:g} {unit} exceeds {_MAX_GRID_POINTS} steps")
    return int(steps)


@dataclass(frozen=True)
class DeviceConfig:
    """Poled-waveguide configuration: period (um), length (mm), temperature (C)."""

    poling_period_um: float
    length_mm: float
    temperature_c: float
    material: SellmeierModel

    def __post_init__(self) -> None:
        if not 0 < self.poling_period_um < math.inf:
            raise DomainError(
                f"poling period must be finite and > 0, got {self.poling_period_um}")
        if not 0 < self.length_mm < math.inf:
            raise DomainError(f"length must be finite and > 0, got {self.length_mm}")
        if not -math.inf < self.temperature_c < math.inf:
            raise DomainError(f"temperature must be finite, got {self.temperature_c}")


def pump_for(signal: SpectralPoint, converted: SpectralPoint) -> SpectralPoint:
    """Pump implied by energy conservation, nu_p = nu_s - nu_c."""
    nu_p = signal.frequency_thz - converted.frequency_thz
    if nu_p <= 0:
        raise DomainError(
            f"signal frequency {_fixed(signal.frequency_thz, '.3f')} THz must exceed "
            f"converted frequency {_fixed(converted.frequency_thz, '.3f')} THz")
    return SpectralPoint.from_frequency_thz(nu_p)


def _triple_um(nu_s, nu_c, lam_s_um=None, lam_c_um=None):
    """Signal, pump and converted wavelengths (um), nu_p = nu_s - nu_c; an exact wavelength
    the caller holds (one given in nm) is used as given, as c/(c/lambda) may differ."""
    nu_s, nu_c = np.asarray(nu_s, dtype=float), np.asarray(nu_c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (C_UM_THZ / nu_s if lam_s_um is None else lam_s_um, C_UM_THZ / (nu_s - nu_c),
                C_UM_THZ / nu_c if lam_c_um is None else lam_c_um)


def _in_fit(model: SellmeierModel, temperature_c, lams):
    """The one validity rule: True where all three waves of ``_triple_um`` are in the fit."""
    s, p, c = (model.in_validity(lam, temperature_c) for lam in lams)
    return s & p & c


def _require_fit(model: SellmeierModel, temperature_c, lams, allow_extrapolation=False):
    """The rule's raising form: ``_require_validity`` over every wavelength of ``lams``,
    a ``_triple_um`` triple whose waves may differ in shape."""
    _require_validity(model, np.concatenate([np.ravel(w) for w in lams]), temperature_c,
                      allow_extrapolation)


def _validity_bounds_nu_c(nu_s, model: SellmeierModel):
    """``_in_fit``'s rule for pump and converted as an interval of converted
    frequency per signal frequency, for the tuning walk (temperature aside)."""
    lam_lo, lam_hi = model.wavelength_um
    lo = np.maximum(C_UM_THZ / lam_hi, nu_s - C_UM_THZ / lam_lo)
    hi = np.minimum(C_UM_THZ / lam_lo, nu_s - C_UM_THZ / lam_hi)
    return lo, hi


def wavenumber_mismatch(model: SellmeierModel, temperature_c, nu_s_thz, nu_c_thz,
                        lam_s_um=None, lam_c_um=None):
    """k_s - k_p - k_c in rad/um at ``_triple_um``'s wavelengths, broadcasting.
    Unchecked, so a scan can touch its window's edges; n^2 < 0 gives NaN."""
    def k(lam):
        return 2.0 * np.pi * np.sqrt(_n_squared(model, lam, temperature_c)) / lam

    with np.errstate(divide="ignore", invalid="ignore"):
        s, p, c = _triple_um(nu_s_thz, nu_c_thz, lam_s_um, lam_c_um)
        return k(s) - k(p) - k(c)


def grating_mismatch(material: SellmeierModel, temperature_c, period_um,
                     nu_s_thz, nu_c_thz, lam_s_um=None):
    """Phase mismatch k_s - k_p - k_c - 2*pi/period in rad/m, broadcasting (unchecked)."""
    d = (wavenumber_mismatch(material, temperature_c, nu_s_thz, nu_c_thz, lam_s_um)
         - 2.0 * np.pi / period_um)
    return d * RAD_PER_UM_TO_RAD_PER_M


def grid_efficiency(device: DeviceConfig, nu_s_thz, nu_c_thz, lam_s_um=None):
    """sinc^2 efficiency of a device (unchecked), in [0, 1], and ``~_in_fit`` at the
    wavelengths its mismatch uses, in slices of at most ``_KERNEL_POINTS``
    converted frequencies of one signal; both have the shape of ``nu_c_thz``."""
    material, t = device.material, device.temperature_c
    flat = np.ravel(nu_c_thz)
    eff, extrapolated = np.empty(flat.size), np.empty(flat.size, dtype=bool)
    for i in range(0, flat.size, _KERNEL_POINTS):
        nu_c = flat[i:i + _KERNEL_POINTS]
        eff[i:i + _KERNEL_POINTS] = pm_efficiency(grating_mismatch(
            material, t, device.poling_period_um, nu_s_thz, nu_c, lam_s_um), device.length_mm)
        extrapolated[i:i + _KERNEL_POINTS] = ~_in_fit(material, t,
                                                      _triple_um(nu_s_thz, nu_c, lam_s_um))
    return eff.reshape(np.shape(nu_c_thz)), extrapolated.reshape(np.shape(nu_c_thz))


def solve_poling_period(signal: SpectralPoint, converted: SpectralPoint,
                        temperature_c: float, material: SellmeierModel,
                        allow_extrapolation: bool = False) -> float:
    """Period (um) nulling the phase mismatch for this triple.

    Closed form: the period enters the mismatch linearly, so
    period = 2*pi / (k_s - k_p - k_c).
    """
    pump_for(signal, converted)  # raises unless nu_s > nu_c
    lams = _triple_um(signal.frequency_thz, converted.frequency_thz,
                      signal.wavelength_um, converted.wavelength_um)
    _require_fit(material, temperature_c, lams, allow_extrapolation)
    d = float(wavenumber_mismatch(material, temperature_c, signal.frequency_thz,
                                  converted.frequency_thz, lams[0], lams[2]))
    if not d > 0:
        raise DomainError(
            "no first-order QPM solution: k_s - k_p - k_c = "
            f"{d:.6e} rad/um is not positive")
    return 2.0 * np.pi / d


def make_device(signal_nm: float, target_nm: float, length_mm: float,
                temperature_c: float, material: SellmeierModel,
                allow_extrapolation: bool = False) -> DeviceConfig:
    """Device with the period solved for (signal, target) at temperature."""
    period = solve_poling_period(
        SpectralPoint.from_wavelength_nm(signal_nm),
        SpectralPoint.from_wavelength_nm(target_nm),
        temperature_c, material, allow_extrapolation)
    return DeviceConfig(period, length_mm, temperature_c, material)


def pm_efficiency(dk_rad_per_m, length_mm: float):
    """The one sinc^2 expression: efficiency sinc^2(dk * L / 2), in [0, 1]. The series
    1 - x^2/6 where |x| < 1e-4 covers x -> 0, the peak, where sin(x)/x is 0/0; it is
    taken from ``where(small, x, 0)``, so a far point cannot overflow it."""
    x = np.asarray(dk_rad_per_m, dtype=float) * (length_mm * 1e-3) / 2.0
    small = np.abs(x) < 1e-4
    s = np.where(small, x, 0.0)
    np.subtract(1.0, s * s / 6.0, out=s)  # in place: s stays an array for a 0-d x
    np.divide(np.sin(x), x, out=s, where=~small)
    np.square(s, out=s)  # not float ** 2, which is pow() and can be an ulp off
    return float(s) if s.ndim == 0 else s


def group_index_mismatch(converted_um: float, pump_um: float,
                         temperature_c: float, material: SellmeierModel) -> float:
    """Group-index difference N_g(converted) - N_g(pump), dimensionless.

    This is the coefficient of the linear term of the phase mismatch under
    antisymmetric pump/converted frequency detuning (times 2*pi*dnu/c); it
    vanishes when the pump and converted wavelengths share a group index,
    which is what makes a hub wavelength broadband.
    """
    return (group_index(material, converted_um, temperature_c)
            - group_index(material, pump_um, temperature_c))


def phase_mismatch_vs_converted(nu_c_thz, signal: SpectralPoint, device: DeviceConfig):
    """Vectorized mismatch (rad/m) as a function of converted frequency (THz).

    The pump follows from energy conservation at each point.
    """
    nu_c = np.asarray(nu_c_thz, dtype=float)
    if np.any(signal.frequency_thz - nu_c <= 0):
        raise DomainError("converted frequency exceeds the signal frequency")
    _require_fit(device.material, device.temperature_c,
                 _triple_um(signal.frequency_thz, nu_c, signal.wavelength_um))
    return grating_mismatch(device.material, device.temperature_c,
                            device.poling_period_um, signal.frequency_thz, nu_c,
                            signal.wavelength_um)
