"""Temperature-dependent extraordinary refractive index of the nonlinear medium.

Sellmeier-type dispersion models with pluggable coefficient sets. Units are
um for vacuum wavelength, THz for frequency and deg C for temperature. All
evaluation functions accept a float or a numpy array of wavelengths and are
pure, so they are safe under any amount of concurrency.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import C_NM_THZ, C_UM_THZ
from .errors import DomainError, ValidityError

_FORMS = ("thermal_poles", "lambda_sq_poles")


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

    def in_validity(self, wavelength_um, temperature_c):
        """Elementwise: True where (wavelength, temperature) is inside the fit's domain."""
        lo, hi = self.wavelength_um
        tlo, thi = self.temperature_c
        w = np.asarray(wavelength_um, dtype=float)
        return (w >= lo) & (w <= hi) & ((temperature_c >= tlo) & (temperature_c <= thi))


def _require_validity(model: SellmeierModel, wavelength_um, temperature_c: float) -> None:
    w = np.asarray(wavelength_um, dtype=float)
    if w.size == 0:
        return
    # the window is an interval, so the two extremes decide for every point
    w = np.array([w.min(), w.max()])
    if np.all(model.in_validity(w, temperature_c)):
        return
    (lo, hi), (tlo, thi) = model.wavelength_um, model.temperature_c
    if np.all(model.in_validity(w, tlo)):
        raise ValidityError(
            f"temperature {temperature_c:.2f} C outside {model.name} validity "
            f"[{tlo:.1f}, {thi:.1f}] C")
    raise ValidityError(
        f"wavelength {w[0] if w[0] < lo else w[1]:.4f} um outside {model.name} "
        f"validity [{lo:.3f}, {hi:.3f}] um")


def _thermal_f(model: SellmeierModel, temperature_c: float) -> float:
    t0, t1 = model.thermal_reference
    return (temperature_c - t0) * (temperature_c + t1)


def _n_squared(model: SellmeierModel, lam, temperature_c: float):
    lam2 = np.asarray(lam, dtype=float) ** 2
    if model.form == "thermal_poles":
        a1, a2, a3, a4, a5, a6 = model.coefficients
        b1, b2, b3, b4 = model.thermal_coefficients
        f = _thermal_f(model, temperature_c)
        return (a1 + b1 * f
                + (a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2)
                + (a4 + b4 * f) / (lam2 - a5 ** 2)
                - a6 * lam2)
    c = model.coefficients
    n2 = np.ones_like(lam2)
    for b_i, c_i in zip(c[0::2], c[1::2]):
        n2 = n2 + b_i * lam2 / (lam2 - c_i)
    return n2


def _dn2_dlam(model: SellmeierModel, lam, temperature_c: float):
    lam = np.asarray(lam, dtype=float)
    lam2 = lam ** 2
    if model.form == "thermal_poles":
        a1, a2, a3, a4, a5, a6 = model.coefficients
        b1, b2, b3, b4 = model.thermal_coefficients
        f = _thermal_f(model, temperature_c)
        return -2.0 * lam * ((a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2) ** 2
                             + (a4 + b4 * f) / (lam2 - a5 ** 2) ** 2
                             + a6)
    c = model.coefficients
    d = np.zeros_like(lam)
    for b_i, c_i in zip(c[0::2], c[1::2]):
        d = d - 2.0 * lam * b_i * c_i / (lam2 - c_i) ** 2
    return d


def refractive_index(model: SellmeierModel, wavelength_um, temperature_c: float,
                     allow_extrapolation: bool = False):
    """Extraordinary refractive index n(lambda, T), dimensionless.

    Raises ValidityError outside the model domain unless
    ``allow_extrapolation`` is set (extrapolated values must be flagged by
    the caller in any emitted output).
    """
    if not allow_extrapolation:
        _require_validity(model, wavelength_um, temperature_c)
    n2 = _n_squared(model, wavelength_um, temperature_c)
    if np.any(np.asarray(n2) <= 1.0):
        raise DomainError(
            f"{model.name}: n^2 <= 1 at requested point; fit is unusable here")
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength_um) else n


def index_derivative(model: SellmeierModel, wavelength_um, temperature_c: float,
                     allow_extrapolation: bool = False):
    """Analytic dn/dlambda in 1/um."""
    if not allow_extrapolation:
        _require_validity(model, wavelength_um, temperature_c)
    n = np.sqrt(_n_squared(model, wavelength_um, temperature_c))
    d = _dn2_dlam(model, wavelength_um, temperature_c) / (2.0 * n)
    return float(d) if np.isscalar(wavelength_um) else d


def group_index(model: SellmeierModel, wavelength_um, temperature_c: float,
                allow_extrapolation: bool = False):
    """Group index n - lambda * dn/dlambda, dimensionless."""
    if not allow_extrapolation:
        _require_validity(model, wavelength_um, temperature_c)
    lam = np.asarray(wavelength_um, dtype=float)
    n = np.sqrt(_n_squared(model, lam, temperature_c))
    g = n - lam * _dn2_dlam(model, lam, temperature_c) / (2.0 * n)
    return float(g) if np.isscalar(wavelength_um) else g


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
        if wavelength_nm <= 0:
            raise DomainError(f"wavelength must be positive, got {wavelength_nm}")
        return cls(wavelength_nm / 1000.0, C_NM_THZ / wavelength_nm)

    @classmethod
    def from_wavelength_um(cls, wavelength_um: float) -> "SpectralPoint":
        if wavelength_um <= 0:
            raise DomainError(f"wavelength must be positive, got {wavelength_um}")
        return cls(wavelength_um, C_UM_THZ / wavelength_um)

    @classmethod
    def from_frequency_thz(cls, frequency_thz: float) -> "SpectralPoint":
        if frequency_thz <= 0:
            raise DomainError(f"frequency must be positive, got {frequency_thz}")
        return cls(C_UM_THZ / frequency_thz, frequency_thz)


def _model_from_record(rec: dict) -> SellmeierModel:
    try:
        return SellmeierModel(
            name=rec["name"],
            form=rec["form"],
            coefficients=tuple(rec["coefficients"]),
            thermal_coefficients=tuple(rec.get("thermal_coefficients", ())),
            thermal_reference=tuple(rec.get("thermal_reference", ())),
            temperature_form=rec.get("temperature_form", ""),
            wavelength_um=tuple(rec["wavelength_um"]),
            temperature_c=tuple(rec["temperature_c"]),
            comment=rec.get("comment", ""),
        )
    except KeyError as exc:
        raise DomainError(f"material record missing field {exc}") from exc


def load_material_file(path: str | Path) -> dict[str, SellmeierModel]:
    """Load user-supplied material models from a JSON key-value file."""
    payload = json.loads(Path(path).read_text())
    records = payload["materials"] if isinstance(payload, dict) else payload
    models = [_model_from_record(rec) for rec in records]
    return {m.name: m for m in models}


def builtin_materials() -> dict[str, SellmeierModel]:
    """The coefficient sets shipped with the package."""
    text = resources.files("qfchub").joinpath("data/materials.json").read_text()
    records = json.loads(text)["materials"]
    return {m.name: m for m in map(_model_from_record, records)}


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
