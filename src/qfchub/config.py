"""Run configuration: defaults, JSON config file, and flag overrides.

Precedence is defaults < config file < command-line flags. The default
config path may be supplied via the QFCHUB_CONFIG environment variable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError

ENV_CONFIG_PATH = "QFCHUB_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    material: str = "jundt1997"
    material_file: str | None = None
    temperature_c: float = 48.0
    length_mm: float = 40.0
    constraint_mode: str = "max_converted_wavelength"
    constraint_value_nm: float = 1550.0
    efficiency_threshold: float = 0.9
    scan_halfwidth_thz: float = 60.0
    coarse_step_ghz: float = 5.0
    channel_spacing_ghz: float = 25.0
    grid_anchor_thz: float = 194.850
    grid_spacing_ghz: float = 25.0
    grid_ports: int = 16
    laser_min_nm: float = 1572.063
    laser_max_nm: float = 1607.760
    # Signal frequency reproducing the printed per-port pump values
    # (384.200 THz ~ 780.30 nm, not exactly 780 nm).
    signal_frequency_thz: float = 384.200
    output_format: str = "csv"
    output: str | None = None
    workers: int = 1  # accepted for compatibility; sweeps run in one process
    allow_extrapolation: bool = False

    def validate(self) -> "RunConfig":
        if self.temperature_c <= -273.15:
            raise ConfigError("temperature below absolute zero")
        for name in ("length_mm", "constraint_value_nm", "scan_halfwidth_thz",
                     "coarse_step_ghz", "channel_spacing_ghz", "grid_anchor_thz",
                     "grid_spacing_ghz", "laser_min_nm", "laser_max_nm",
                     "signal_frequency_thz"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.efficiency_threshold < 1:
            raise ConfigError("efficiency_threshold must be in (0, 1)")
        if self.constraint_mode not in ("max_converted_wavelength",
                                        "min_pump_converted_separation"):
            raise ConfigError(f"unknown constraint_mode {self.constraint_mode!r}")
        if self.grid_ports < 1:
            raise ConfigError("grid_ports must be >= 1")
        if self.laser_min_nm >= self.laser_max_nm:
            raise ConfigError("laser_min_nm must be below laser_max_nm")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be csv or json")
        return self


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(payload) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return replace(RunConfig(), **payload).validate()


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None keyword overrides (flags win over file values)."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(updates) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config overrides: {', '.join(sorted(unknown))}")
    return replace(config, **updates).validate()
