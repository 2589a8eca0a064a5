"""Run configuration: defaults, JSON config file, and flag overrides.

Precedence is defaults < config file < command-line flags. The default
config path may be supplied via the QFCHUB_CONFIG environment variable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dispersion import DEFAULT_MATERIAL
from .dwdm import DwdmGrid, LaserSpec
from .errors import ConfigError, DomainError
from .tuning import TuningConstraints

ENV_CONFIG_PATH = "QFCHUB_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    material: str = DEFAULT_MATERIAL
    material_file: str | None = None
    temperature_c: float = 48.0
    length_mm: float = 40.0
    # the CLI's own cutoff default; the other defaults are those of the builders
    constraint_mode: str = "max_converted_wavelength"
    constraint_value_nm: float = 1550.0
    efficiency_threshold: float = TuningConstraints.efficiency_threshold
    scan_halfwidth_thz: float = TuningConstraints.scan_halfwidth_thz
    coarse_step_ghz: float = TuningConstraints.coarse_step_ghz
    channel_spacing_ghz: float = TuningConstraints.channel_spacing_ghz
    grid_anchor_thz: float = DwdmGrid.anchor_frequency_thz
    grid_spacing_ghz: float = DwdmGrid.spacing_ghz
    grid_ports: int = DwdmGrid.port_count
    laser_min_nm: float = LaserSpec.min_wavelength_nm
    laser_max_nm: float = LaserSpec.max_wavelength_nm
    # Signal frequency reproducing the printed per-port pump values
    # (384.200 THz ~ 780.30 nm, not exactly 780 nm).
    signal_frequency_thz: float = 384.200
    output_format: str = "csv"
    output: str | None = None
    allow_extrapolation: bool = False

    def tuning_constraints(self) -> TuningConstraints:
        return TuningConstraints(self.efficiency_threshold, self.constraint_mode,
                                 self.constraint_value_nm, self.scan_halfwidth_thz,
                                 self.coarse_step_ghz, self.channel_spacing_ghz)

    def grid(self) -> DwdmGrid:
        return DwdmGrid(self.grid_anchor_thz, self.grid_spacing_ghz, self.grid_ports)

    def laser(self) -> LaserSpec:
        return LaserSpec(self.laser_min_nm, self.laser_max_nm)

    def validate(self) -> "RunConfig":
        """Check each field's type and the fields no builder checks, then build what
        the commands use."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, _FIELD_TYPES[f.type])
                    and (f.type == "bool" or not isinstance(value, bool))):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not -273.15 < self.temperature_c < math.inf:
            raise ConfigError("temperature must be finite and above absolute zero")
        for name in ("length_mm", "signal_frequency_thz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be csv or json")
        try:
            for build in (self.tuning_constraints, self.grid, self.laser):
                build()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        return self


_FIELD_NAMES = {f.name for f in fields(RunConfig)}
# What each annotation accepts: a float field takes an int too, and only a bool field a bool
_FIELD_TYPES = {"str": str, "str | None": (str, type(None)), "float": (int, float),
                "int": int, "bool": bool}


def load_config(path: str | Path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return apply_overrides(RunConfig(), **payload)


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None keyword overrides (flags win over file values)."""
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **updates).validate()
