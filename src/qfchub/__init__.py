"""Design toolkit for quasi-phase-matched frequency conversion in PPLN.

Computes temperature-dependent dispersion, phase-matching spectra and
90%-threshold pump-tuning ranges, DWDM per-channel pump plans, and the
polarization-preserving conversion channel with process tomography.

``polarization`` and its names are imported at their first use, so a command
that does not model the channel does not load it (``__getattr__``).
"""

from importlib import import_module

from . import emit
from .constants import C_NM_THZ, C_UM_THZ
from .dispersion import (DEFAULT_MATERIAL, SellmeierModel, SpectralPoint,
                         builtin_materials, get_material, group_index,
                         index_derivative, load_material_file, refractive_index)
from .dwdm import (DwdmGrid, EfficiencyCurve, LaserSpec, PumpPlan,
                   efficiency_curve_columns, plan_pumps, port_frequency, pump_band)
from .errors import (ConfigError, ConvergenceError, DegenerateError, DomainError,
                     QfcHubError, RangeError, SingularityError, ValidityError)
from .qpm import (DeviceConfig, group_index_mismatch, make_device,
                  phase_mismatch_vs_converted, pm_efficiency, pump_for,
                  solve_poling_period, wavenumber_mismatch)
from .tuning import (HubSweepPoint, Spectrum, Sweep, SweetSpotReport, TuningConstraints,
                     TuningResult, hub_sweep, hub_sweep_columns, pm_spectrum_columns,
                     sweet_spot_report, tuning_range)

__version__ = "0.1.0"

_POLARIZATION = (
    "EfficiencyCurveParams", "EfficiencyFit", "PolarizationState", "ProcessMatrix",
    "PumpSplit", "QfcChannelModel", "apply_channel", "efficiency_model",
    "fit_efficiency", "kraus_to_chi", "process_fidelity", "pump_balance",
    "reconstruct_chi", "simulate_tomography",
)

__all__ = [
    # submodules
    "constants", "dispersion", "dwdm", "emit", "errors", "polarization", "qpm",
    "tuning",
    # constants
    "C_NM_THZ", "C_UM_THZ",
    # dispersion
    "DEFAULT_MATERIAL", "SellmeierModel", "SpectralPoint", "builtin_materials",
    "get_material", "group_index", "index_derivative", "load_material_file",
    "refractive_index",
    # dwdm
    "DwdmGrid", "EfficiencyCurve", "LaserSpec", "PumpPlan",
    "efficiency_curve_columns", "plan_pumps", "port_frequency", "pump_band",
    # errors
    "ConfigError", "ConvergenceError", "DegenerateError", "DomainError", "QfcHubError",
    "RangeError", "SingularityError", "ValidityError",
    # polarization
    *_POLARIZATION,
    # qpm
    "DeviceConfig", "group_index_mismatch", "make_device",
    "phase_mismatch_vs_converted", "pm_efficiency", "pump_for",
    "solve_poling_period", "wavenumber_mismatch",
    # tuning
    "HubSweepPoint", "Spectrum", "Sweep", "SweetSpotReport", "TuningConstraints",
    "TuningResult", "hub_sweep", "hub_sweep_columns", "pm_spectrum_columns",
    "sweet_spot_report", "tuning_range",
]


def __getattr__(name: str):
    """``polarization`` or one of its names: the submodule is imported once and it
    and all its names are bound here, so every later lookup is a plain attribute."""
    if name != "polarization" and name not in _POLARIZATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    polarization = import_module(f"{__name__}.polarization")
    globals().update({n: getattr(polarization, n) for n in _POLARIZATION})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
