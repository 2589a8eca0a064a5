"""Phase-matching spectra, 90%-threshold tuning ranges, and hub-wavelength sweeps.

The tuning range of a conversion process is the maximal contiguous
converted-wavelength interval around the design center where the
phase-matching efficiency stays at or above the threshold, intersected with
the Raman-noise constraints. Boundaries are located with a coarse scan plus
bisection refinement to 0.1 GHz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, get_args

import numpy as np

from .constants import C_NM_THZ, REFINE_GHZ
from .dispersion import SellmeierModel, SpectralPoint, _require_validity
from .errors import DomainError
from .qpm import (_KERNEL_POINTS, DeviceConfig, _grid_steps, _in_fit, _require_fit,
                  _triple_um, _validity_bounds_nu_c, grating_mismatch, grid_efficiency,
                  group_index_mismatch, make_device, pm_efficiency, pump_for,
                  wavenumber_mismatch)

ConstraintMode = Literal["max_converted_wavelength", "min_pump_converted_separation"]

# What ends an interval, in rising priority: a signal reports the later of
# its two sides' tags. A plan's pump band (``dwdm.pump_band``) reports both
# sides, and only it meets the laser range. The last three name the check of
# ``make_device`` a failed signal's working point fails; its interval is empty.
LimitTag = Literal["threshold", "scan_edge", "separation", "cutoff", "laser_range",
                   "no_pump", "outside_fit", "no_qpm"]
_LIMITS: tuple[LimitTag, ...] = get_args(LimitTag)

_BLOCK = 256  # coarse steps per block of the outward walk
_PREFIXES = (8, 32, 128, _BLOCK)  # a block is evaluated in these growing prefixes
# Signals solved together: a paper sweep of 601 signals is one solve, and a
# longer sweep keeps its per-signal arrays bounded. A bisection step evaluates
# 2 * _SIGNAL_BATCH points, within _KERNEL_POINTS.
_SIGNAL_BATCH = 1024
_SECOND_HARMONIC_TOL_NM = 0.5  # slack of sweet_spot_report's second-harmonic test


@dataclass(frozen=True)
class TuningConstraints:
    """Threshold and practical constraints applied to a tuning scan.

    The threshold is a fraction of the peak efficiency within the scan
    window; with the period solved at the scan center that peak is exactly 1,
    so the default means "90% of the phase-matching maximum". The constraint
    mode is either a hard upper converted wavelength (nm) or a minimum
    pump/converted wavelength separation (nm). Crossing the pump/converted
    degeneracy point is never allowed (Raman noise floods the converted band
    there), in either mode.
    """

    efficiency_threshold: float = 0.9
    constraint_mode: ConstraintMode = "min_pump_converted_separation"
    constraint_value_nm: float = 20.0
    scan_halfwidth_thz: float = 60.0
    coarse_step_ghz: float = 5.0
    channel_spacing_ghz: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency_threshold < 1.0:
            raise DomainError("efficiency threshold must be in (0, 1)")
        if self.constraint_mode not in (
                "max_converted_wavelength", "min_pump_converted_separation"):
            raise DomainError(f"unknown constraint mode {self.constraint_mode!r}")
        if not 0 < self.constraint_value_nm < math.inf:
            raise DomainError("constraint value must be finite and positive")
        if not (0 < self.scan_halfwidth_thz < math.inf
                and 0 < self.coarse_step_ghz < math.inf):
            raise DomainError("scan halfwidth and coarse step must be finite and positive")
        # the walk's coarse steps across the halfwidth, and the channels across
        # the widest interval, follow the one grid rule
        _grid_steps(self.scan_halfwidth_thz, self.coarse_step_ghz / 1000.0, "coarse_step_ghz")
        _grid_steps(2.0 * self.scan_halfwidth_thz, self.channel_spacing_ghz / 1000.0,
                    "channel_spacing_ghz")


@dataclass(frozen=True)
class TuningResult:
    """A converted-wavelength tuning interval and its DWDM capacity."""

    converted_interval_nm: tuple[float, float]
    width_nm: float
    width_thz: float
    channel_count: int
    limiting_constraint: LimitTag

    @property
    def is_empty(self) -> bool:
        return self.width_nm == 0.0


@dataclass(frozen=True)
class HubSweepPoint:
    signal_nm: float
    tuning: TuningResult


class Spectrum(NamedTuple):
    """A phase-matching spectrum as columns, one array entry per converted frequency."""

    nu_c_thz: np.ndarray
    lambda_c_nm: np.ndarray
    lambda_p_nm: np.ndarray
    efficiency: np.ndarray
    extrapolated: np.ndarray


@dataclass(frozen=True)
class SweetSpotReport:
    """First-order behaviour of a conversion working point."""

    signal_nm: float
    converted_nm: float
    pump_nm: float
    group_index_mismatch: float
    midpoint_nm: float
    second_harmonic_nm: float
    is_second_harmonic_midpoint: bool


def _separation_bound(nu_s, nu_c0, min_sep_nm: float):
    """Root on the center's side of nu_s/2 of |lambda_p - lambda_c| = d, that is of
    d*nu^2 + (2cs - d*nu_s)*nu - s*c*nu_s = 0 with s = +1 when the pump is the
    longer wavelength and -1 otherwise, in its cancellation-free form. With
    x = d*nu_s / 2c, taken as d / (2c / nu_s) so that no d overflows it, the root is
    nu_s / (1 - s*x + h) for h = hypot(1, x), and for s = +1 h - x is 1 / (h + x)."""
    x = min_sep_nm / (2.0 * C_NM_THZ / nu_s)
    h = np.hypot(1.0, x)
    return nu_s / (1.0 + np.where(nu_c0 > nu_s / 2.0, 1.0 / (h + x), h + x))


def _walk(eff, start: float, bound, direction, coarse_thz: float, threshold: float):
    """Walk every row outward from the center in blocks of ``_BLOCK`` coarse steps,
    steps past the row's bound clipped to it, and bisect the first failing step
    to REFINE_GHZ. Returns each row's edge and whether the threshold ended it.

    A block's steps are evaluated in the growing prefixes of ``_PREFIXES``, and
    only for the rows still walking: a row leaves at the first prefix that fails
    or reaches its bound, so most rows never evaluate the steps past their edge.
    Each ``eff`` call gets at most ``_KERNEL_POINTS`` steps of one prefix, and a
    step's position depends only on its row and index, never on the chunking.
    """
    n = bound.size
    prev = np.full(n, start)  # each walking row's block base
    good = np.full(n, start)  # each row's last step known to pass
    bad = np.empty(n)
    hit = np.zeros(n, dtype=bool)
    k = np.arange(1, _BLOCK + 1)
    todo = np.arange(n)
    while todo.size:
        lo = 0
        for hi in _PREFIXES:
            keep = np.zeros(todo.size, dtype=bool)
            per_call = max(1, _KERNEL_POINTS // (hi - lo))
            for c in range(0, todo.size, per_call):
                rows = todo[c:c + per_call]
                b = bound[rows, None]
                steps = prev[rows, None] + direction[rows, None] * coarse_thz * k[lo:hi]
                inside = np.where(direction[rows, None] > 0, steps < b, steps > b)
                steps = np.where(inside, steps, b)
                # NaN fails, as in the bisection
                failing = ~(eff(rows, steps) >= threshold)
                crossed = failing.any(axis=1)
                first = failing.argmax(axis=1)[crossed]
                ended = rows[crossed]
                good[ended] = np.where(first > 0, steps[crossed, first - 1], good[ended])
                bad[ended] = steps[crossed, first]
                hit[ended] = True
                walking = ~crossed & inside[:, -1]
                good[rows[walking]] = steps[walking, -1]
                keep[c:c + per_call] = walking
            todo = todo[keep]
            if not todo.size:
                break
            lo = hi
        prev[todo] = good[todo]
    active = hit & (np.abs(bad - good) > REFINE_GHZ / 1000.0)
    while active.any():
        i = np.nonzero(active)[0]
        mid = 0.5 * (good[i] + bad[i])
        passing = eff(i, mid[:, None])[:, 0] >= threshold
        good[i[passing]] = mid[passing]
        bad[i[~passing]] = mid[~passing]
        active[i] = np.abs(bad[i] - good[i]) > REFINE_GHZ / 1000.0
    return np.where(hit, good, bound), hit


def _band(material: SellmeierModel, temperature_c: float, length_mm: float, period,
          nu_s, lam_s, center: float, sides, constraints: TuningConstraints):
    """Contiguous bands at or above the threshold around one center, one per working
    point (period, signal frequency and wavelength, broadcast to one shape), walked down
    and up in frequency from the center: row 0 of every (2, n) array goes down, row 1 up.

    Every row is bounded by the fit's window, tagged ``scan_edge``. Each side
    ``(name, bound, rows)`` then moves the bound of the rows it marks where it is
    strictly tighter, so a tie keeps the earlier tag; ``bound`` and ``rows`` broadcast
    to (2, n). A bound past the center on either side leaves the pair no interval: both
    its bounds move to the center. Returns each row's edge, the ``_LIMITS`` codes with
    the threshold's on every side the threshold ended, and which pairs are empty.
    """
    period, nu_s, lam_s = np.broadcast_arrays(*np.atleast_1d(period, nu_s, lam_s))
    direction = np.array([[-1.0], [1.0]])
    bound = np.array(_validity_bounds_nu_c(nu_s, material))
    tag = np.full(bound.shape, _LIMITS.index("scan_edge"))
    for name, candidate, rows in sides:
        m = rows & (direction * candidate < direction * bound)
        bound[m] = np.broadcast_to(candidate, bound.shape)[m]
        tag[m] = _LIMITS.index(name)
    empty = (direction * (bound - center) < 0).any(axis=0)
    bound[:, empty] = center
    period, nu_s, lam_s = (np.tile(x, 2) for x in (period, nu_s, lam_s))

    def eff(rows, nu_c):
        return pm_efficiency(grating_mismatch(material, temperature_c, period[rows, None],
                                              nu_s[rows, None], nu_c, lam_s[rows, None]),
                             length_mm)

    edge, hit = _walk(eff, center, bound.ravel(), np.repeat(direction, bound.shape[1]),
                      constraints.coarse_step_ghz / 1000.0, constraints.efficiency_threshold)
    tag[hit.reshape(bound.shape)] = _LIMITS.index("threshold")
    return edge.reshape(bound.shape), tag, empty


def _solve(signal_nm, target_nm: float, length_mm: float, temperature_c: float,
           material: SellmeierModel, constraints: TuningConstraints) -> list[TuningResult]:
    """Tuning intervals of many signals around one target, all solved together.

    What every signal shares is checked once, and a fault raises for the whole
    call: the target, the length, and the target and temperature against the
    fit's validity window. A signal failing its own working-point checks of
    ``make_device`` gets an empty result tagged with the first check it fails, in
    ``make_device``'s order: ``outside_fit`` for a signal that is not a finite,
    positive wavelength, ``no_pump`` (nu_s <= nu_c0), ``outside_fit`` for a wave
    outside the fit, ``no_qpm`` (k_s - k_p - k_c <= 0). A degenerate center gets an
    empty ``separation`` one. ``_band`` walks the rest, bounded by the scan
    halfwidth, the degeneracy and the constraint.
    """
    signal_nm = np.asarray(signal_nm, dtype=float)
    center = SpectralPoint.from_wavelength_nm(target_nm)
    if not 0 < length_mm < math.inf:
        raise DomainError(f"length must be finite and > 0, got {length_mm}")
    _require_validity(material, center.wavelength_um, temperature_c)
    nu_c0 = center.frequency_thz
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_s = C_NM_THZ / signal_nm
        lams = _triple_um(nu_s, nu_c0, signal_nm / 1000.0, center.wavelength_um)
        d0 = wavenumber_mismatch(material, temperature_c, nu_s, nu_c0, lams[0], lams[2])
        checks = [((0 < signal_nm) & (signal_nm < math.inf), "outside_fit"),
                  (nu_s > nu_c0, "no_pump"),
                  (_in_fit(material, temperature_c, lams), "outside_fit"),
                  (d0 > 0, "no_qpm"), (nu_c0 != nu_s / 2.0, "separation")]
    # each signal that cannot be walked gets the code of the first check it fails
    limit = np.select([~ok for ok, _ in checks], [_LIMITS.index(n) for _, n in checks], -1)
    live = np.flatnonzero(limit < 0)

    nu_s, lam_s = nu_s[live], lams[0][live]
    hw = constraints.scan_halfwidth_thz
    # Raman rule: the interval must stay on the center's side of the
    # pump/converted degeneracy.
    toward_degeneracy = np.array([nu_c0 > nu_s / 2.0, nu_c0 < nu_s / 2.0])
    value = constraints.constraint_value_nm
    if constraints.constraint_mode == "max_converted_wavelength":
        constraint = ("cutoff", C_NM_THZ / value, np.array([[True], [False]]))
    else:
        constraint = ("separation", _separation_bound(nu_s, nu_c0, value), toward_degeneracy)
    edge, tag, empty = _band(
        material, temperature_c, length_mm, 2.0 * np.pi / d0[live], nu_s, lam_s, nu_c0,
        [("scan_edge", nu_c0 + np.array([[-hw], [hw]]), True),
         ("separation", nu_s / 2.0, toward_degeneracy), constraint], constraints)

    # An empty signal keeps the target as both ends and zero widths; a live one
    # reports the higher-priority limit of its two sides. The low converted
    # wavelength comes from the upper frequency edge.
    lam_lo = np.full(signal_nm.size, float(target_nm))
    lam_hi = lam_lo.copy()
    width_thz = np.zeros(signal_nm.size)
    lam_lo[live] = np.where(empty, target_nm, C_NM_THZ / edge[1])
    lam_hi[live] = np.where(empty, target_nm, C_NM_THZ / edge[0])
    width_thz[live] = edge[1] - edge[0]
    channels = np.floor(width_thz * 1000.0 / constraints.channel_spacing_ghz)
    limit[live] = tag.max(axis=0)
    return [TuningResult((lo, hi), width_nm, width, count, _LIMITS[code])
            for lo, hi, width_nm, width, count, code in zip(
                lam_lo.tolist(), lam_hi.tolist(), (lam_hi - lam_lo).tolist(),
                width_thz.tolist(), channels.astype(int).tolist(), limit.tolist())]


def tuning_range(signal_nm: float, target_center_nm: float, length_mm: float,
                 temperature_c: float, material: SellmeierModel,
                 constraints: TuningConstraints) -> TuningResult:
    """Tuning interval around the design center for one signal wavelength.

    The poling period is solved at (signal, target_center), so the center
    sits at unit efficiency. A working point outside the material validity
    or without a first-order QPM solution raises as ``make_device`` does; a
    constraint violated at the center itself gives an empty result tagged
    with the violated constraint, never an exception.
    """
    make_device(signal_nm, target_center_nm, length_mm, temperature_c, material)
    return _solve([signal_nm], target_center_nm, length_mm, temperature_c,
                  material, constraints)[0]


def pm_spectrum_columns(signal_nm: float, target_center_nm: float, device: DeviceConfig,
                        window_thz: float, step_ghz: float) -> Spectrum:
    """Efficiency vs converted frequency around the target, ascending in frequency.

    Points whose signal, pump or converted wave lies outside the material
    validity window are evaluated by extrapolation and flagged rather than dropped.
    """
    if not 0 < window_thz < math.inf:
        raise DomainError("window must be finite and positive")
    step = step_ghz / 1000.0
    n_side = _grid_steps(window_thz, step, "step_ghz")
    signal = SpectralPoint.from_wavelength_nm(signal_nm)
    center = SpectralPoint.from_wavelength_nm(target_center_nm)
    nu_s, nu_c0 = signal.frequency_thz, center.frequency_thz
    nu_c = nu_c0 + step * np.arange(-n_side, n_side + 1)
    nu_c = nu_c[(nu_c > 0.0) & (nu_c < nu_s)]

    eff, extrapolated = grid_efficiency(device, nu_s, nu_c, signal.wavelength_um)
    lam_p = nu_s - nu_c
    np.divide(C_NM_THZ, lam_p, out=lam_p)  # in place: the spectrum holds only its columns
    return Spectrum(nu_c, C_NM_THZ / nu_c, lam_p, eff, extrapolated)


def hub_sweep(signal_range_nm: tuple[float, float], signal_step_nm: float,
              target_center_nm: float, length_mm: float, temperature_c: float,
              material: SellmeierModel, constraints: TuningConstraints,
              workers: int = 1) -> list[HubSweepPoint]:
    """One tuning range per signal wavelength, ordered by signal wavelength.

    A target, length or temperature that ``tuning_range`` would reject raises
    as it does there, for the whole sweep; a signal whose own working point
    it would reject is an empty point tagged ``no_pump``, ``outside_fit`` or
    ``no_qpm``, after what ``tuning_range`` would raise for it (see ``_solve``).
    ``workers`` is accepted for compatibility and ignored.
    """
    lo, hi = signal_range_nm
    if not -math.inf < lo <= hi < math.inf:
        raise DomainError("signal range must be finite and ascending")
    count = _grid_steps(hi - lo, signal_step_nm, "signal_step_nm", "nm") + 1
    points: list[HubSweepPoint] = []
    for first in range(0, count, _SIGNAL_BATCH):
        signals = lo + signal_step_nm * np.arange(first, min(first + _SIGNAL_BATCH, count),
                                                  dtype=float)
        points += map(HubSweepPoint, signals.tolist(), _solve(
            signals, target_center_nm, length_mm, temperature_c, material, constraints))
    return points


def sweet_spot_report(signal_nm: float, target_center_nm: float,
                      temperature_c: float, material: SellmeierModel) -> SweetSpotReport:
    """Group-index mismatch at the working point and the second-harmonic test.

    The flag is set when twice the signal wavelength falls inside
    [converted, pump] (within ``_SECOND_HARMONIC_TOL_NM``) with the converted
    side shorter, which is the geometry that keeps the linear mismatch term small.
    """
    signal = SpectralPoint.from_wavelength_nm(signal_nm)
    center = SpectralPoint.from_wavelength_nm(target_center_nm)
    pump0 = pump_for(signal, center)
    _require_fit(material, temperature_c, _triple_um(signal.frequency_thz, center.frequency_thz,
                                                     signal.wavelength_um, center.wavelength_um))
    coefficient = group_index_mismatch(center.wavelength_um, pump0.wavelength_um,
                                       temperature_c, material)
    second_harmonic = 2.0 * signal_nm
    pump_nm = pump0.wavelength_nm
    midpoint = 0.5 * (target_center_nm + pump_nm)
    flag = (target_center_nm < pump_nm
            and target_center_nm - _SECOND_HARMONIC_TOL_NM <= second_harmonic
            <= pump_nm + _SECOND_HARMONIC_TOL_NM)
    return SweetSpotReport(
        signal_nm=signal_nm,
        converted_nm=target_center_nm,
        pump_nm=pump_nm,
        group_index_mismatch=coefficient,
        midpoint_nm=midpoint,
        second_harmonic_nm=second_harmonic,
        is_second_harmonic_midpoint=flag,
    )
