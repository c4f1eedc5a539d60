"""Run configuration: defaults, JSON manifest loading, and validation.

Every physical input is dimensionless or expressed relative to the decay
rate gamma: the sampling interval and horizon are gamma*dt and gamma*t, so
the predictions depend only on (gamma*dt, gamma*t, n_thermal).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .core import BathParams, bath_from_gamma, build_generator, thermal_tail_mass
from .dynamics import squarings
from .protocol import ENGINES

MODES = ("paper", "exact")
HORIZON_RTOL = 1e-9  # horizon/gdt may miss an integer by this much (float rounding)
# Thermal mass above the truncation: warned about past TAIL_WARN, rejected
# past TAIL_MAX.  trunc = 1 is the two-level model, not a truncation.
TAIL_WARN = 1e-6
TAIL_MAX = 1e-2


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    gamma: float = 1.0
    n_thermal: float = 0.1
    trunc: int = 40
    gdt: float = 0.01       # gamma * dt between measurements
    horizon: float = 1.0    # gamma * t total
    traj: int = 100_000     # ensemble size (step count for the dwell command)
    seed: int = 0
    engine: str = "luders"
    mode: str = "exact"
    out: str | None = None

    @property
    def dt(self) -> float:
        return self.gdt / self.gamma

    @property
    def steps(self) -> int:
        return max(1, round(self.horizon / self.gdt))

    def bath(self) -> BathParams:
        return bath_from_gamma(self.gamma, self.n_thermal)

    def validate(self) -> list[str]:
        """Raise :class:`ConfigError` on hard violations; return warnings."""
        for name in ("gamma", "n_thermal", "gdt", "horizon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.dt == math.inf:
            raise ConfigError(f"gdt = {self.gdt} over gamma = {self.gamma} overflows")
        if self.trunc < 1:
            raise ConfigError(f"trunc must be at least 1, got {self.trunc}")
        if self.traj < 1:
            raise ConfigError(f"traj must be at least 1, got {self.traj}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.gdt > self.horizon:
            raise ConfigError(f"gdt = {self.gdt} exceeds horizon = {self.horizon}")
        intervals = self.horizon / self.gdt
        if intervals == math.inf:
            raise ConfigError(f"horizon = {self.horizon} over gdt = {self.gdt} overflows")
        if abs(intervals - round(intervals)) > HORIZON_RTOL * intervals:
            raise ConfigError(
                f"horizon = {self.horizon} is not a whole number of gdt = {self.gdt} steps"
            )
        try:
            bath = self.bath()
        except ValueError as exc:  # a rate overflows, e.g. B_a = gamma * (1 + n_thermal)
            raise ConfigError(
                f"gamma = {self.gamma} and n_thermal = {self.n_thermal}: {exc}"
            ) from None
        tail = thermal_tail_mass(bath, self.trunc) if self.trunc > 1 else 0.0
        dropped = (
            f"trunc = {self.trunc} drops {tail:.2g} of the thermal mass at "
            f"n_thermal = {self.n_thermal:g}"
        )
        if tail > TAIL_MAX:
            raise ConfigError(f"{dropped} (limit {TAIL_MAX:g}): raise trunc")
        try:
            squarings(build_generator(bath, self.trunc), self.dt)
        except ValueError as exc:
            raise ConfigError(f"gdt = {self.gdt} at trunc = {self.trunc}: {exc}") from None
        warnings = []
        if self.n_thermal >= 1.0:
            warnings.append(
                f"n_thermal = {self.n_thermal:g} >= 1: persistence-time ordering degenerates"
            )
        elif self.n_thermal >= 0.5:
            warnings.append(
                f"n_thermal = {self.n_thermal:g}: ground-state slowdown is only "
                f"{1.0 / self.n_thermal:.3g}x and the two-level analytics are first order "
                "in n_thermal"
            )
        if tail > TAIL_WARN:
            warnings.append(dropped)
        return warnings


# Annotations are strings here (postponed evaluation): "int", "float", "str"
# or "str | None".
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, value):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {name!r}")
    try:
        if _FIELD_TYPES[name] == "int":
            coerced = int(value)
            if coerced != float(value):
                raise ValueError
            return coerced
        if _FIELD_TYPES[name] == "float":
            return float(value)
        return value if value is None else str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {name!r}: {value!r}") from None


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then JSON manifest values, then explicit overrides (flags win)."""
    config = RunConfig()
    if path is not None:
        try:
            with open(path) as fp:
                data = json.load(fp)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        config = replace(config, **{k: _coerce(k, v) for k, v in data.items()})
    if overrides:
        config = replace(
            config, **{k: _coerce(k, v) for k, v in overrides.items() if v is not None}
        )
    return config
