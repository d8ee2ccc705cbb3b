"""Experiment configuration: a flat key = value text format.

Every key has a default; unknown keys are rejected rather than ignored
so a typo cannot silently fall back to a default. `dt = auto` defers
the step size to the CFL logic and `delta = auto` lets the run's own
first records choose delta, the weight of the macroscopic corrector in
the modified entropy E = H + delta * pairing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "format_config"]

KERNELS = ("constant", "gaussian_bump", "custom_table")
TRANSPORTS = ("upwind1", "muscl2")
SPLITTINGS = ("lie", "strang")

DELTA_CANDIDATES = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters (see README for the file schema)."""

    d_v: int = 1
    half_width: float = 8.0
    nodes_per_axis: int = 64
    spatial_cells: int = 64
    kernel: str = "constant"
    sigma0: float = 1.0
    kernel_file: str = ""
    kappa_bar: float = 1.0
    amplitude: float = 0.5
    perturbation: float = 0.0
    seed: int = 0
    dt: float | None = None          # None means auto (CFL)
    cfl_safety: float = 0.9
    transport: str = "upwind1"
    splitting: str = "strang"
    t_final: float = 20.0
    record_every: int = 25
    delta: float | None = 0.01       # None means auto (scan)

    def validate(self) -> "ExperimentConfig":
        # a non-finite value fails here, and every comparison below is
        # written so that NaN fails it too
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            if field.type in _FLOATS and value is not None and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be a finite number, got {value!r}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.kernel == "custom_table" and not self.kernel_file:
            raise ConfigError("kernel = custom_table requires kernel_file")
        if self.kernel == "constant" and not self.sigma0 > 0.0:
            raise ConfigError("sigma0 must be positive")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}")
        if self.splitting not in SPLITTINGS:
            raise ConfigError(f"splitting must be one of {SPLITTINGS}")
        if not self.kappa_bar > 0.0:
            raise ConfigError("kappa_bar must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError("amplitude must lie in [0, 1)")
        if not self.perturbation >= 0.0:
            raise ConfigError("perturbation must be nonnegative")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ConfigError("cfl_safety must lie in (0, 1)")
        if not self.t_final > 0.0:
            raise ConfigError("t_final must be positive")
        if self.record_every < 1:
            raise ConfigError("record_every must be a positive integer")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError("dt must be positive or auto")
        if self.delta is not None and not self.delta > 0.0:
            raise ConfigError("delta must be positive or auto")
        return self


# A key's kind is its field's annotation, a string under the `annotations`
# future import; `float | None` also takes `auto`, held as None.
_READERS = {
    "int": int,
    "float": float,
    "float | None": lambda text: None if text == "auto" else float(text),
    "str": str,
}
_FLOATS = ("float", "float | None")


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines; '#' starts a comment, blank lines skipped."""
    kinds = {field.name: field.type for field in dataclass_fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _READERS[kinds[key]](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key!r} must be a finite number, got {value!r}")
    return ExperimentConfig(**values).validate()


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(config: ExperimentConfig) -> str:
    """Round-trippable text form of a (possibly resolved) configuration."""
    lines = []
    for field in dataclass_fields(config):
        value = getattr(config, field.name)
        if value is None:
            text = "auto"
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"
