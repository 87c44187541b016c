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

from ._bounds import bounded, check_bounds, check_items
from ._io import write_text_atomic
from .dqn import Schedules
from .execenv import ExecConfig
from .kernel import MarketConfig
from .strategies import POLICY_NAMES


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass
class DqnConfig:
    episodes: int = bounded(500, ge=1)
    hidden: list = field(default_factory=lambda: [50, 20])
    schedules: Schedules = field(default_factory=Schedules)


@dataclass
class EvalConfig:
    episodes: int = bounded(50, ge=2)
    bins: int = bounded(20, ge=1)
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
    seed: int = bounded(0, ge=0)
    out_dir: str = "results"

    def cross_check(self) -> None:
        grid = self.eval.grid
        for i, cell in enumerate(grid):  # checked as the market it makes
            if not (isinstance(cell, list) and len(cell) == 2):
                raise ValueError(f"eval.grid cell {cell!r} must be [n_noise, n_momentum]")
            check_bounds(dataclasses.replace(self.market, n_noise=cell[0],
                                             n_momentum=cell[1]), f"eval.grid[{i}].")
            if cell in grid[:i]:
                raise ValueError(f"duplicate cell in eval.grid: {cell!r}")
        if not grid:
            raise ValueError("eval.grid must hold at least one cell")
        hidden = self.dqn.hidden
        if len(hidden) != 2:
            raise ValueError(f"dqn.hidden must hold two layer sizes, got {len(hidden)}")
        check_items("dqn.hidden", hidden, bounded(50, ge=1))
        policies = self.eval.policies
        if not policies:
            raise ValueError("eval.policies must name at least one policy")
        for i, name in enumerate(policies):
            if name not in POLICY_NAMES:
                raise ValueError(f"unknown policy in eval.policies: {name!r}")
            if name in policies[:i]:
                raise ValueError(f"duplicate policy in eval.policies: {name!r}")


def _from_dict(cls, data: dict, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or cls.__name__!r} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config key(s) under '{path}': {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        factory = fields[name].default_factory
        if is_dataclass(factory):
            value = _from_dict(factory, value, f"{path}{name}.")
        kwargs[name] = value
    return cls(**kwargs)


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus CLI overrides (flags win),
    each ``{"a.b": v}`` written into the file's data as ``a: {b: v}``."""
    data: dict = {}
    if path is not None:
        try:
            data = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a mapping")
    for dotted, value in (overrides or {}).items():
        *sections, name = dotted.split(".")
        section = data
        for part in sections:
            section = section.setdefault(part, {})
            if not isinstance(section, dict):
                raise ConfigError(f"section {part!r} must be a mapping")
        section[name] = value
    config = _from_dict(RunConfig, data)
    try:
        check_bounds(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def to_dict(config) -> dict:
    return dataclasses.asdict(config)


def config_hash(config) -> str:
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def dump_config(config, path: str | Path) -> None:
    write_text_atomic(path, yaml.safe_dump(to_dict(config), sort_keys=True))


def hash_comment(config) -> str:
    return f"# config_hash={config_hash(config)}"
