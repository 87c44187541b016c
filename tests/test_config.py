import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from lobexec import _bounds
from lobexec.agents import (
    MarketMakerParams,
    MomentumAgentParams,
    NoiseAgentParams,
    ValueAgentParams,
)
from lobexec._bounds import check_bounds
from lobexec.config import (
    ConfigError,
    DqnConfig,
    EvalConfig,
    RunConfig,
    config_hash,
    dump_config,
    hash_comment,
    load_config,
    to_dict,
)
from lobexec.dqn import Schedules
from lobexec.execenv import ExecConfig
from lobexec.fundamental import FundamentalParams
from lobexec.kernel import MarketConfig, MarketSession


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("")
    cfg = load_config(p)
    assert cfg.seed == 0
    assert cfg.market.n_noise == 1000
    assert cfg.exec.parent_size == 20000
    assert cfg.dqn.episodes == 500


def test_no_file_gives_defaults():
    assert to_dict(load_config(None)) == to_dict(RunConfig())


def test_nested_values_loaded(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(
        "seed: 7\n"
        "market:\n"
        "  n_noise: 100\n"
        "  market_maker:\n"
        "    pov: 0.02\n"
        "exec:\n"
        "  parent_size: 2000\n"
        "  time_window_s: 300\n"
        "dqn:\n"
        "  schedules:\n"
        "    lr_start: 0.0005\n"
    )
    cfg = load_config(p)
    assert cfg.seed == 7
    assert cfg.market.n_noise == 100
    assert cfg.market.market_maker.pov == 0.02
    assert cfg.market.n_value == 102          # untouched default
    assert cfg.exec.parent_size == 2000
    assert cfg.dqn.schedules.lr_start == 0.0005


def test_unknown_top_level_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("sede: 7\n")
    with pytest.raises(ConfigError, match="sede"):
        load_config(p)


def test_unknown_nested_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("market:\n  n_nois: 3\n")
    with pytest.raises(ConfigError, match="n_nois"):
        load_config(p)


def test_non_mapping_file_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_invalid_values_fail_validation(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("exec:\n  parent_size: 20000\n  time_window_s: 10\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("body", [
    "seed: true\n",                          # bool for an int field
    "seed: 1.0\n",                           # float for an int field
    "market:\n  session_seconds: '60'\n",    # str for a float field
    "market:\n  session_seconds: false\n",   # bool for a float field
    "exec:\n  direction: 1\n",               # int for a str field
    "eval:\n  policies: twap\n",             # str for a list field
])
def test_wrongly_typed_values_rejected(tmp_path, body):
    p = tmp_path / "c.yaml"
    p.write_text(body)
    with pytest.raises(ConfigError, match="expects"):
        load_config(p)


def test_bool_field_takes_only_bools():
    """No config field is a bool today; the walker's rule still covers one."""
    @dataclass
    class Flags:
        on: bool = False

    check_bounds(Flags(on=True))
    with pytest.raises(ValueError, match="^on expects bool, got int 1$"):
        check_bounds(Flags(on=1))


def test_overrides_win_over_file(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("seed: 7\n")
    cfg = load_config(p, overrides={"seed": 9, "dqn.episodes": 3})
    assert cfg.seed == 9
    assert cfg.dqn.episodes == 3


def test_bad_override_target(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, overrides={"dqn.episode": 3})


def test_hash_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    b.seed = 1
    assert config_hash(a) != config_hash(b)
    assert hash_comment(a) == f"# config_hash={config_hash(a)}"


def test_dump_roundtrip(tmp_path):
    cfg = load_config(None, overrides={"seed": 3})
    out = tmp_path / "dump.yaml"
    dump_config(cfg, out)
    again = load_config(out)
    assert to_dict(again) == to_dict(cfg)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.yaml"
    p.write_text(block)
    cfg = load_config(p)
    assert cfg.seed == 7 and cfg.dqn.episodes == 300


def leaf_fields(cls=RunConfig, prefix=""):
    """(dotted key, field) for every field in the tree under ``cls`` that
    does not hold a dataclass."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            yield from leaf_fields(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f


def numeric(f) -> bool:
    return type(f.default) in (int, float)


def test_every_numeric_field_declares_its_range():
    fields = [(key, f) for key, f in leaf_fields() if numeric(f)]
    assert [key for key, f in fields if "bounds" not in f.metadata] == []
    assert len(fields) == 53


def _step(kind, x, toward):
    """The next int or float from ``x`` toward ``toward``."""
    if kind is int:
        return x + 1 if toward > x else x - 1
    return math.nextafter(x, toward)


def _past_and_inside(kind, symbol, bound):
    """The values just past and just inside one declared bound."""
    bound = kind(bound)
    below, above = _step(kind, bound, -math.inf), _step(kind, bound, math.inf)
    return {">=": (below, bound), ">": (bound, above),
            "<=": (above, bound), "<": (bound, below)}[symbol]


BOUNDS = [(key, type(f.default), symbol, bound)
          for key, f in leaf_fields() if numeric(f)
          for _, symbol, bound in f.metadata["bounds"]]
# every just-inside value also meets the cross-field checks on top of these:
# min_size <= max_size, batch_size <= replay_capacity, and a parent order that
# one step can fill
SWEEP_BASE = {"market.noise.min_size": 1, "dqn.schedules.batch_size": 1,
              "exec.parent_size": 1}


@pytest.mark.parametrize("key, kind, symbol, bound", BOUNDS,
                         ids=[f"{key}{symbol}{bound}" for key, _, symbol, bound in BOUNDS])
def test_declared_bound_is_enforced(key, kind, symbol, bound):
    past, inside = _past_and_inside(kind, symbol, bound)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be {symbol} "):
        load_config(None, {**SWEEP_BASE, key: past})
    cfg = load_config(None, {**SWEEP_BASE, key: inside})
    section = cfg
    for part in key.split("."):
        section = getattr(section, part)
    assert section == inside


def code_built(key, value):
    """The sweep's base config built in code, with ``value`` set at ``key``."""
    cfg = load_config(None, SWEEP_BASE)
    *parents, leaf = key.split(".")
    section = cfg
    for part in parents:
        section = getattr(section, part)
    setattr(section, leaf, value)
    return cfg


def both_paths_reject(key, value) -> str:
    """The walker's message for ``value`` at ``key`` in a config built in
    code, after checking that load_config refuses it with the same text."""
    with pytest.raises(ValueError) as built:
        check_bounds(code_built(key, value))
    with pytest.raises(ConfigError) as loaded:
        load_config(None, {**SWEEP_BASE, key: value})
    assert str(loaded.value) == str(built.value)
    return str(built.value)


FLOAT_KEYS = [key for key, f in leaf_fields() if type(f.default) is float]


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_infinite_float_is_rejected(key, value):
    """An infinite float fails in every float field, also in one that
    declares no range (fundamental.mu, jump_mu1), with one message on both
    paths: the declared range it breaks, or else ``must be finite``."""
    assert re.match(f"{re.escape(key)} must be ", both_paths_reject(key, value))


# one value of each wrong type per leaf field: a bool or a float for an int,
# a bool or a str for a float, an int for a str or a list
WRONG = {int: [True, 1.5], float: [False, "1.0"], str: [1], list: [1]}


def default_type(f):
    return type(f.default_factory() if f.default is dataclasses.MISSING else f.default)


WRONG_TYPES = [(key, default_type(f), value) for key, f in leaf_fields()
               for value in WRONG[default_type(f)]]


@pytest.mark.parametrize("key, kind, value", WRONG_TYPES,
                         ids=[f"{key}={value!r}" for key, _, value in WRONG_TYPES])
def test_wrongly_typed_value_is_rejected(key, kind, value):
    assert both_paths_reject(key, value) == (
        f"{key} expects {kind.__name__}, got {type(value).__name__} {value!r}")


@pytest.mark.parametrize("market, message", [
    (MarketConfig(noise=NoiseAgentParams(mean_wake_s=0)), "noise.mean_wake_s must be > 0"),
    (MarketConfig(value=ValueAgentParams(lambda_va=0)), "value.lambda_va must be > 0"),
    (MarketConfig(momentum=MomentumAgentParams(mean_wake_s=math.nan)),
     "momentum.mean_wake_s must be > 0"),
    (MarketConfig(market_maker=MarketMakerParams(n_ticks=0)),
     "market_maker.n_ticks must be >= 1"),
    # int(x * NS_PER_SEC) of an infinite time raised OverflowError
    (MarketConfig(session_seconds=math.inf), "session_seconds must be finite"),
    (MarketConfig(snapshot_interval_s=math.inf), "snapshot_interval_s must be finite"),
    (MarketConfig(fundamental=FundamentalParams(mu=math.inf)),
     "fundamental.mu must be finite"),
], ids=["noise", "value", "momentum-nan", "market_maker", "session_seconds-inf",
        "snapshot_interval_s-inf", "mu-inf"])
def test_session_checks_nested_params(market, message):
    """A session built without load_config still checks every agent's
    declared ranges, NaN included, named from the market config down."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MarketSession(market, 0)


@pytest.mark.parametrize("hidden, message", [
    ([50, True], "dqn.hidden[1] expects int, got bool True"),
    ([50, 2.0], "dqn.hidden[1] expects int, got float 2.0"),
    ([0, 20], "dqn.hidden[0] must be >= 1"),
    ([50], "dqn.hidden must hold two layer sizes, got 1"),
], ids=["bool", "float", "zero", "one-layer"])
def test_hidden_size_faults_name_the_item(hidden, message):
    assert both_paths_reject("dqn.hidden", hidden) == message


@pytest.mark.parametrize("config, message", [
    (MarketConfig(noise=NoiseAgentParams(min_size=50, max_size=10)),
     "noise sizes need min_size <= max_size"),
    (MarketConfig(fundamental=FundamentalParams(mu=0.0)), "fundamental mu must be positive"),
    (MarketConfig(fundamental=FundamentalParams(mu=-5.0)), "fundamental mu must be positive"),
    (Schedules(replay_capacity=10), "replay_capacity must be >= batch_size"),
    (ExecConfig(direction="hold"), "direction must be 'buy' or 'sell'"),
    (ExecConfig(time_window_s=100, step_s=3), "time_window_s must be a multiple of step_s"),
    (ExecConfig(time_window_s=100),
     "infeasible config: max executable 8000 < parent size 20000"),
    (RunConfig(eval=EvalConfig(policies=[])), "eval.policies must name at least one policy"),
    (RunConfig(eval=EvalConfig(policies=["twap", "hold"])),
     "unknown policy in eval.policies: 'hold'"),
    (RunConfig(eval=EvalConfig(policies=["twap", "random", "twap"])),
     "duplicate policy in eval.policies: 'twap'"),
    (RunConfig(eval=EvalConfig(grid=[[10, 12], [10]])),
     "eval.grid cell [10] must be [n_noise, n_momentum]"),
    (RunConfig(eval=EvalConfig(grid=[[10, 12], [20, 1], [10, 12]])),
     "duplicate cell in eval.grid: [10, 12]"),
    (RunConfig(eval=EvalConfig(grid=[])), "eval.grid must hold at least one cell"),
    # a section's rules also run when it is walked inside a RunConfig
    (RunConfig(dqn=DqnConfig(schedules=Schedules(batch_size=200, replay_capacity=100))),
     "replay_capacity must be >= batch_size"),
], ids=["noise-sizes", "mu-zero", "mu-negative", "replay", "direction", "window",
        "infeasible", "no-policy", "unknown-policy", "duplicate-policy", "cell-shape",
        "duplicate-cell", "empty-grid", "nested-replay"])
def test_walker_alone_refuses_cross_field_faults(config, message):
    """A config built in code meets every cross-field rule through
    check_bounds alone, with the message a loaded config gets."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_bounds(config)


def test_a_load_walks_each_section_once(monkeypatch):
    """load_config walks the tree once, and each grid cell once more as the
    market it makes; a class's rules run once per walk of that class."""
    walks, rule_runs = {}, {}
    table = _bounds._table

    def counted_table(cls):
        walks[cls.__name__] = walks.get(cls.__name__, 0) + 1
        return table(cls)

    def counted_rules(cls):
        cross_check = cls.cross_check

        def run(self):
            rule_runs[cls.__name__] = rule_runs.get(cls.__name__, 0) + 1
            return cross_check(self)
        return run

    monkeypatch.setattr(_bounds, "_table", counted_table)
    for cls in (MarketConfig, ExecConfig, Schedules, RunConfig):
        monkeypatch.setattr(cls, "cross_check", counted_rules(cls))
    load_config(None)
    market = 1 + len(EvalConfig().grid)
    assert walks == {"RunConfig": 1, "ExecConfig": 1, "DqnConfig": 1, "Schedules": 1,
                     "EvalConfig": 1, "MarketConfig": market, "FundamentalParams": market,
                     "NoiseAgentParams": market, "ValueAgentParams": market,
                     "MomentumAgentParams": market, "MarketMakerParams": market}
    assert rule_runs == {"RunConfig": 1, "ExecConfig": 1, "Schedules": 1,
                         "MarketConfig": market}
