"""Run configuration: one self-describing file driving every subcommand.

YAML (or JSON) files map onto the dataclass tree below; unknown keys are
rejected so typos fail loudly. The effective config is always dumped next
to the outputs, and every CSV carries a short hash of it for provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

import yaml

from .dqn import Schedules
from .execenv import ExecConfig
from .kernel import MarketConfig
from .strategies import POLICY_NAMES


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass
class DqnConfig:
    episodes: int = 500
    hidden: list = field(default_factory=lambda: [50, 20])
    schedules: Schedules = field(default_factory=Schedules)


@dataclass
class EvalConfig:
    episodes: int = 50
    bins: int = 20
    policies: list = field(default_factory=lambda: list(POLICY_NAMES))
    # (n_noise, n_momentum) cells; defaults follow the benchmark grid:
    # noise in {10, 1000, 2000} at 12 momentum, momentum in {6, 24} at 1000 noise
    grid: list = field(default_factory=lambda: [
        [10, 12], [1000, 12], [2000, 12], [1000, 6], [1000, 24]])


@dataclass
class RunConfig:
    market: MarketConfig = field(default_factory=MarketConfig)
    exec: ExecConfig = field(default_factory=ExecConfig)
    dqn: DqnConfig = field(default_factory=DqnConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    out_dir: str = "results"

    def validate(self) -> None:
        try:
            self.market.validate()
            self.exec.validate()
            self.dqn.schedules.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.dqn.episodes < 1:
            raise ConfigError("dqn.episodes must be >= 1")
        if len(self.dqn.hidden) != 2 or not all(type(n) is int and n >= 1
                                                for n in self.dqn.hidden):
            raise ConfigError("dqn.hidden must be two positive layer sizes")
        if self.eval.episodes < 2:
            raise ConfigError("eval.episodes must be >= 2")
        if self.eval.bins < 1:
            raise ConfigError("eval.bins must be >= 1")
        for name in self.eval.policies:
            if name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy in eval.policies: {name!r}")
        for cell in self.eval.grid:
            if not (isinstance(cell, list) and len(cell) == 2
                    and all(type(n) is int for n in cell)):
                raise ConfigError(f"eval.grid cell {cell!r} must be "
                                  "[n_noise, n_momentum]")


def _check_type(key: str, value, default) -> None:
    """Reject a value whose type does not fit the field's default.

    bool fields take only bools, int fields ints but not bools, float fields
    ints or floats (not bools), and str and list fields their own type.
    """
    allowed = (int, float) if isinstance(default, float) else type(default)
    if (isinstance(value, bool) != isinstance(default, bool)
            or not isinstance(value, allowed)):
        raise ConfigError(f"config key {key!r} expects {type(default).__name__}, "
                          f"got {type(value).__name__} {value!r}")


def _from_dict(cls, data: dict, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or cls.__name__!r} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config key(s) under '{path}': {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        default = fields[name].default_factory() if fields[name].default_factory \
            is not dataclasses.MISSING else fields[name].default
        if is_dataclass(default):
            kwargs[name] = _from_dict(type(default), value, f"{path}{name}.")
        else:
            _check_type(f"{path}{name}", value, default)
            kwargs[name] = value
    return cls(**kwargs)


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus CLI overrides (flags win)."""
    data: dict = {}
    if path is not None:
        raw = Path(path).read_text()
        loaded = yaml.safe_load(raw)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a mapping")
        data = loaded
    config = _from_dict(RunConfig, data)
    for dotted, value in (overrides or {}).items():
        _apply_override(config, dotted, value)
    config.validate()
    return config


def _apply_override(config, dotted: str, value) -> None:
    obj = config
    parts = dotted.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    if not hasattr(obj, parts[-1]):
        raise ConfigError(f"unknown override target {dotted!r}")
    setattr(obj, parts[-1], value)


def to_dict(config) -> dict:
    return dataclasses.asdict(config)


def config_hash(config) -> str:
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def dump_config(config, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(to_dict(config), sort_keys=True))


def hash_comment(config) -> str:
    return f"# config_hash={config_hash(config)}"
