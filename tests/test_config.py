from dataclasses import dataclass
from pathlib import Path

import pytest

from lobexec.config import (
    ConfigError,
    RunConfig,
    _from_dict,
    config_hash,
    dump_config,
    hash_comment,
    load_config,
    to_dict,
)


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
    @dataclass
    class Flags:
        on: bool = False

    assert _from_dict(Flags, {"on": True}).on is True
    with pytest.raises(ConfigError, match="expects bool"):
        _from_dict(Flags, {"on": 1})


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
