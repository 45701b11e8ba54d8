"""Experiment configuration: flat key=value text files.

One file fully determines a run.  Unknown keys are rejected so typos fail
loudly; parse errors carry the line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .network import ActivationType, NetworkSpec, tau_schedule
from .so3 import MAX_DEGREE

REGIMES = ("NR/NR", "NR/R", "R/R")


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    bandlimit: int = 5
    grid_bandwidth: int = 8
    layers: int = 3
    # either an explicit per-degree vector ("4,4,4,4,4,4"), a single count
    # ("4"), or the rule "rule:<width>" for tau_l = ceil(width/sqrt(2l+1))
    tau: str = "4"
    hidden: int = 64
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-5
    batch_size: int = 32
    steps: int = 2000
    seed: int = 0
    classes: int = 4
    train_per_class: int = 50
    test_per_class: int = 25
    noise_sigma: float = 0.3
    regime: str = "R/R"

    def __post_init__(self):
        if not 0 <= self.bandlimit <= MAX_DEGREE:
            raise ConfigError(f"bandlimit must lie in 0..{MAX_DEGREE}, "
                              f"got {self.bandlimit}")
        if self.bandlimit >= self.grid_bandwidth:
            raise ConfigError("bandlimit must be below grid_bandwidth")
        if self.layers < 1:
            raise ConfigError("need at least one layer")
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        for name, value in (("hidden", self.hidden),
                            ("batch_size", self.batch_size),
                            ("train_per_class", self.train_per_class),
                            ("test_per_class", self.test_per_class)):
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name, value in (("steps", self.steps), ("seed", self.seed),
                            ("lr", self.lr),
                            ("weight_decay", self.weight_decay),
                            ("noise_sigma", self.noise_sigma)):
            if value < 0:
                raise ConfigError(f"{name} must be at least 0, got {value}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be above 0, got {self.adam_eps}")
        if self.regime not in REGIMES:
            raise ConfigError(
                f"regime must be one of {REGIMES}, got {self.regime!r}")
        try:
            self.tau_vector()
        except ValueError as exc:
            raise ConfigError(f"bad value for tau {self.tau!r}: {exc}")

    def tau_vector(self) -> ActivationType:
        """Resolve the tau field into a per-degree fragment-count vector."""
        L = self.bandlimit
        text = self.tau.strip()
        if text.startswith("rule"):
            width = int(text.split(":", 1)[1]) if ":" in text else 12
            return tau_schedule(L, width)
        parts = [int(p) for p in text.split(",")]
        if len(parts) == 1:
            parts = parts * (L + 1)
        if len(parts) != L + 1:
            raise ConfigError(
                f"tau vector has {len(parts)} entries, need {L + 1}")
        return ActivationType(tuple(parts))

    def network_spec(self) -> NetworkSpec:
        tau = self.tau_vector()
        last = ActivationType((tau.tau[0],) + (0,) * self.bandlimit)
        types = tuple([tau] * (self.layers - 1) + [last])
        # the CLI's datasets have one channel per example
        return NetworkSpec(self.bandlimit, 1, types)

    def train_rotated(self) -> bool:
        return self.regime == "R/R"

    def test_rotated(self) -> bool:
        return self.regime in ("NR/R", "R/R")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            lines.append(f"{f.name} = {value!r}")
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    values, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is already set "
                              f"on line {set_on[key]}")
        set_on[key] = lineno
        kind = _FIELD_TYPES[key]
        try:
            if kind == "int":
                values[key] = int(raw)
            elif kind == "float":
                values[key] = float(raw)
            else:
                values[key] = raw
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc))


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``; every ``ConfigError`` names it."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
