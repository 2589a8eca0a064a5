"""Temperature-dependent extraordinary refractive index of the nonlinear medium.

Sellmeier-type dispersion models with pluggable coefficient sets. Units are
um for vacuum wavelength, THz for frequency and deg C for temperature. All
evaluation functions accept a float or a numpy array of wavelengths and are
pure.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import C_NM_THZ, C_UM_THZ
from .errors import DomainError, ValidityError

_FORMS = {"thermal_poles": "6 coefficients, 4 thermal coefficients, 2 thermal references",
          "lambda_sq_poles": "a non-empty even number of coefficients"}


@dataclass(frozen=True)
class SellmeierModel:
    """One named dispersion coefficient set.

    ``thermal_poles``:
        n^2 = a1 + b1*f + (a2 + b2*f)/(L^2 - (a3 + b3*f)^2)
              + (a4 + b4*f)/(L^2 - a5^2) - a6*L^2
        with L the wavelength in um and f = (T - t0)(T + t1).
    ``lambda_sq_poles``:
        n^2 = 1 + sum_i  b_i * L^2 / (L^2 - c_i)   (no thermal term)

    ``wavelength_um`` and ``temperature_c`` bound the domain where the fit is
    trusted; outside it evaluation raises ValidityError unless extrapolation
    is explicitly requested.
    """

    name: str
    form: str
    coefficients: tuple[float, ...]
    thermal_coefficients: tuple[float, ...]
    thermal_reference: tuple[float, ...]
    temperature_form: str
    wavelength_um: tuple[float, float]
    temperature_c: tuple[float, float]
    comment: str = ""

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise DomainError(f"unknown dispersion form {self.form!r}")
        k = len(self.coefficients)
        if not (k == 6 and len(self.thermal_coefficients) == 4
                and len(self.thermal_reference) == 2 if self.form == "thermal_poles"
                else k > 0 and k % 2 == 0):
            raise DomainError(
                f"material {self.name!r}: {self.form} needs {_FORMS[self.form]}")
        if not all(len(w) == 2 and w[0] < w[1]
                   for w in (self.wavelength_um, self.temperature_c)):
            raise DomainError(
                f"material {self.name!r}: validity windows must be ascending pairs")

    def in_validity(self, wavelength_um, temperature_c):
        """Elementwise: True where (wavelength, temperature) is inside the fit's domain."""
        lo, hi = self.wavelength_um
        tlo, thi = self.temperature_c
        w = np.asarray(wavelength_um, dtype=float)
        return (w >= lo) & (w <= hi) & ((temperature_c >= tlo) & (temperature_c <= thi))


def _require_validity(model: SellmeierModel, wavelength_um, temperature_c: float,
                      allow_extrapolation: bool = False) -> None:
    """Wavelengths finite and > 0 um and the temperature finite, a rule extrapolation
    does not lift; then inside the fit's window or, with ``allow_extrapolation``,
    where the fit's terms do not overflow."""
    w = np.asarray(wavelength_um, dtype=float)
    # the window is an interval, so the two extremes decide for every point; NaN is both
    w = np.array([w.min(), w.max()] if w.size else [])
    for x in w:
        if not 0 < x < math.inf:
            raise DomainError(f"wavelength {x} um must be finite and > 0")
    if not -math.inf < temperature_c < math.inf:
        raise DomainError(f"temperature {temperature_c} C must be finite")
    if np.all(model.in_validity(w, temperature_c)):
        return
    if allow_extrapolation:
        # the extremes bound L^2 and (L^2 - c_k)^2 over the call, so where the fit's
        # terms do not overflow there, they overflow at no point between
        try:
            with np.errstate(over="raise", invalid="raise"):
                _n_squared(model, w, temperature_c)
                _dn2_dlam(model, w, temperature_c)
        except (OverflowError, FloatingPointError):
            raise DomainError(f"{model.name}: fit terms overflow at requested point; "
                              "fit is unusable here") from None
        return
    (lo, hi), (tlo, thi) = model.wavelength_um, model.temperature_c
    if np.all(model.in_validity(w, tlo)):
        raise ValidityError(
            f"temperature {_outside(temperature_c, '.2f', tlo, thi)} C outside {model.name} "
            f"validity [{tlo:.1f}, {thi:.1f}] C")
    raise ValidityError(
        f"wavelength {_outside(w[0] if w[0] < lo else w[1], '.4f', lo, hi)} um outside "
        f"{model.name} validity [{lo:.3f}, {hi:.3f}] um")


def _fixed(x: float, spec: str) -> str:
    """``x`` in the fixed format ``spec``, or as its shortest round-trip repr where
    that format reads 0 for a non-zero value or shows more digits than a double holds."""
    text = format(x, spec)
    if float(text) == 0 != x or sum(c.isdigit() for c in text) > 17:
        return repr(float(x))
    return text


def _outside(x: float, spec: str, lo: float, hi: float) -> str:
    """A value outside [lo, hi] as ``_fixed`` gives it, or as its repr where the
    fixed format would show a value in the window, a bound included."""
    text = _fixed(x, spec)
    return repr(float(x)) if lo <= float(text) <= hi else text


def _unusable(model: SellmeierModel) -> DomainError:
    return DomainError(f"{model.name}: n^2 <= 1 at requested point; fit is unusable here")


def _poles(model: SellmeierModel, temperature_c: float):
    """``(a, ((b_k, c_k), ...), d)`` with n^2 = a + sum_k b_k/(L^2 - c_k) - d*L^2: both
    forms as one pole list, and the only evaluation code that reads ``model.form``."""
    if model.form == "thermal_poles":
        a1, a2, a3, a4, a5, a6 = model.coefficients
        (b1, b2, b3, b4), (t0, t1) = model.thermal_coefficients, model.thermal_reference
        f = (temperature_c - t0) * (temperature_c + t1)
        return a1 + b1 * f, ((a2 + b2 * f, (a3 + b3 * f) ** 2), (a4 + b4 * f, a5 ** 2)), a6
    # b*L^2/(L^2 - c) = b + b*c/(L^2 - c)
    b, c = model.coefficients[0::2], model.coefficients[1::2]
    return sum(b, 1.0), tuple((b_k * c_k, c_k) for b_k, c_k in zip(b, c)), 0.0


def _n_squared(model: SellmeierModel, lam, temperature_c: float):
    lam2 = np.asarray(lam, dtype=float) ** 2
    a, poles, d = _poles(model, temperature_c)
    return reduce(np.add, (b / (lam2 - c) for b, c in poles), a) - d * lam2


def _dn2_dlam(model: SellmeierModel, lam, temperature_c: float):
    lam = np.asarray(lam, dtype=float)
    lam2 = lam ** 2
    _, poles, d = _poles(model, temperature_c)
    # np.square: a numpy scalar's ** 2 is pow(), which can miss an array's square by an ulp
    return -2.0 * lam * (reduce(np.add, (b / np.square(lam2 - c) for b, c in poles)) + d)


def _index(model: SellmeierModel, wavelength_um, temperature_c: float,
           allow_extrapolation: bool):
    """n(lambda, T) as numpy values, after the validity and n^2 > 1 checks."""
    _require_validity(model, wavelength_um, temperature_c, allow_extrapolation)
    n2 = _n_squared(model, wavelength_um, temperature_c)
    if not (n2 > 1.0).all():
        raise _unusable(model)
    return np.sqrt(n2)


def refractive_index(model: SellmeierModel, wavelength_um, temperature_c: float,
                     allow_extrapolation: bool = False):
    """Extraordinary refractive index n(lambda, T), dimensionless.

    Raises ValidityError outside the model domain unless
    ``allow_extrapolation`` is set (extrapolated values must be flagged by
    the caller in any emitted output), and DomainError where n^2 <= 1 or the
    fit's terms overflow, or for a wavelength not finite and > 0 or a
    temperature not finite, extrapolating or not; so do ``index_derivative``
    and ``group_index``.
    """
    n = _index(model, wavelength_um, temperature_c, allow_extrapolation)
    return float(n) if np.ndim(wavelength_um) == 0 else n


def index_derivative(model: SellmeierModel, wavelength_um, temperature_c: float,
                     allow_extrapolation: bool = False):
    """Analytic dn/dlambda in 1/um."""
    n = _index(model, wavelength_um, temperature_c, allow_extrapolation)
    d = _dn2_dlam(model, wavelength_um, temperature_c) / (2.0 * n)
    return float(d) if np.ndim(wavelength_um) == 0 else d


def group_index(model: SellmeierModel, wavelength_um, temperature_c: float,
                allow_extrapolation: bool = False):
    """Group index n - lambda * dn/dlambda, dimensionless."""
    lam = np.asarray(wavelength_um, dtype=float)
    n = _index(model, lam, temperature_c, allow_extrapolation)
    g = n - lam * _dn2_dlam(model, lam, temperature_c) / (2.0 * n)
    return float(g) if np.ndim(wavelength_um) == 0 else g


@dataclass(frozen=True)
class SpectralPoint:
    """A vacuum wavelength (um) paired with its frequency (THz).

    lambda_um * nu_THz = c holds by construction.
    """

    wavelength_um: float
    frequency_thz: float

    @property
    def wavelength_nm(self) -> float:
        return self.wavelength_um * 1000.0

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float) -> "SpectralPoint":
        if not 0 < wavelength_nm < math.inf:
            raise DomainError(f"wavelength must be finite and positive, got {wavelength_nm}")
        return cls(wavelength_nm / 1000.0, C_NM_THZ / wavelength_nm)

    @classmethod
    def from_frequency_thz(cls, frequency_thz: float) -> "SpectralPoint":
        if not 0 < frequency_thz < math.inf:
            raise DomainError(f"frequency must be finite and positive, got {frequency_thz}")
        return cls(C_UM_THZ / frequency_thz, frequency_thz)


def _model_from_record(rec: dict) -> SellmeierModel:
    try:
        numbers = {key: tuple(rec.get(key, ()) if key.startswith("thermal_") else rec[key])
                   for key in ("coefficients", "thermal_coefficients", "thermal_reference",
                               "wavelength_um", "temperature_c")}
        name, form = rec["name"], rec["form"]
    except KeyError as exc:
        raise DomainError(f"material record missing field {exc}") from exc
    if not all(type(v) is float and math.isfinite(v)
               for values in numbers.values() for v in values):
        raise DomainError(f"material {name!r}: numeric fields must be finite numbers")
    return SellmeierModel(name=name, form=form, comment=rec.get("comment", ""),
                          temperature_form=rec.get("temperature_form", ""), **numbers)


def _read_materials(source) -> dict[str, SellmeierModel]:
    """The models of a ``{"materials": [record, ...]}`` JSON file, by name; every
    JSON number parses as a float, so one type test finds each non-number."""
    try:
        records = json.loads(source.read_text(), parse_int=float)["materials"]
        return {m.name: m for m in map(_model_from_record, records)}
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise DomainError(
            f"bad material file {source}: {type(exc).__name__}: {exc}") from None


def load_material_file(path: str | Path) -> dict[str, SellmeierModel]:
    """Load user-supplied material models from a JSON file laid out like the
    package's ``data/materials.json``; any fault in it raises DomainError."""
    return _read_materials(Path(path))


def builtin_materials() -> dict[str, SellmeierModel]:
    """The coefficient sets shipped with the package."""
    return _read_materials(resources.files("qfchub").joinpath("data/materials.json"))


_BUILTIN_CACHE: dict[str, SellmeierModel] | None = None

DEFAULT_MATERIAL = "jundt1997"


def get_material(name: str, extra_file: str | Path | None = None) -> SellmeierModel:
    """Look up a model by name among built-ins plus an optional user file."""
    global _BUILTIN_CACHE
    if _BUILTIN_CACHE is None:
        _BUILTIN_CACHE = builtin_materials()
    table = dict(_BUILTIN_CACHE)
    if extra_file is not None:
        table.update(load_material_file(extra_file))
    try:
        return table[name]
    except KeyError:
        raise DomainError(
            f"unknown material {name!r}; available: {', '.join(sorted(table))}"
        ) from None
