import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lobexec import agents, cli, evaluation
from lobexec._io import write_text_atomic
from lobexec.cli import main
from lobexec.config import dump_config, hash_comment, load_config
from lobexec.dqn import QNetwork
from lobexec.evaluation import aggregate, metrics_csv, run_experiment
from lobexec.fundamental import NS_PER_SEC
from lobexec.kernel import SessionLog, kernel_run

LITE_YAML = """\
seed: 0
market:
  n_noise: 20
  n_value: 5
  n_momentum: 1
  session_seconds: 90
  market_maker:
    pov: 0.02
    min_size: 50
exec:
  parent_size: 400
  time_window_s: 60
  warmup_s: 10
dqn:
  episodes: 2
  schedules:
    learn_start: 32
    batch_size: 16
    lr_steps: 500
    eps_steps: 100
    replay_capacity: 1000
eval:
  episodes: 3
  bins: 5
  policies: [twap, random]
  grid: [[20, 1]]
"""


@pytest.fixture
def lite_cfg(tmp_path):
    p = tmp_path / "lite.yaml"
    p.write_text(LITE_YAML)
    return p


def read_tree(root):
    """Map of relative path -> bytes for every file under root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--bogus"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["evaluate"]) == 1

    def test_invalid_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("exec:\n  parent_size: 20000\n  time_window_s: 10\n")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    # the last four are removed settings that older configs may still set
    @pytest.mark.parametrize("body, key", [
        ("seeed: 1\n", "seeed"),
        ("exec: {quote_mode: raw}\n", "quote_mode"),
        ("exec: {depth_metric: ticks}\n", "depth_metric"),
        ("dqn: {schedules: {optimizer: sgd}}\n", "optimizer"),
        ("market: {history: 500}\n", "history"),
    ], ids=["seeed", "exec.quote_mode", "exec.depth_metric", "dqn.schedules.optimizer",
            "market.history"])
    def test_unknown_config_key(self, tmp_path, capsys, body, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(body)
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "market: {n_noise: abc}\n",
        "exec: {parent_size: 2000.5}\n",
    ])
    def test_wrongly_typed_config_value(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.yaml"
        bad.write_text(body)
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("market.snapshot_interval_s", 0),       # hung at t = 0
        ("market.snapshot_interval_s", 1e-10),   # truncates to 0 ns
        ("market.market_maker.wake_interval_s", 0),
        ("exec.step_s", 0),                      # ZeroDivisionError, exit 3
        ("market.noise.max_size", 5),            # below min_size 10
        ("market.noise.mean_wake_s", -1),
        ("market.market_maker.min_size", 0),
        ("eval.bins", 0),
        ("market.value.lambda_va", 0),           # ZeroDivisionError, exit 3
        ("market.value.size", 0),
        ("market.momentum.mean_wake_s", 0),      # wakes every 1 ns
        ("market.momentum.size", 0),
        ("market.momentum.short_window", 0),
        ("dqn.schedules.lr_start", -1),          # exit 3 at the first grad step
        ("dqn.schedules.lr_end", -1),            # exit 3 once the anneal ends
        ("dqn.schedules.eps_start", 1.5),        # exit 3 at the first action
        ("dqn.schedules.eps_end", -0.5),
        ("dqn.schedules.target_sync", -3),       # exit 0, target never synced
        ("dqn.hidden", [50]),                    # exit 3 when the net is built
        ("dqn.hidden", [0, 20]),                 # OverflowError, exit 3
        ("dqn.episodes", 0),
        ("eval.grid", [[10]]),                   # raw unpack error in benchmark
        ("exec.warmup_s", -5),                   # one-sided book, exit 3
        ("seed", -1),                            # exit 0 at --duration 0
        ("market.noise.max_size", 2**32),        # 2**63 exited 3 in integers()
        ("market.session_seconds", float("nan")),     # ValueError, exit 3
        ("market.noise.mean_wake_s", float("nan")),   # ValueError, exit 3
        ("market.snapshot_interval_s", float("inf")),  # OverflowError, exit 3
        # two factors below 1 made a positive max executable: evaluate and
        # train exited 3 on an empty action grid
        ("exec", {"q_min": -20, "n_size_actions": -4}),
        ("exec", {"q_min": 20, "n_size_actions": 0}),
        ("market.fundamental.mu", -5),          # exit 3 at the first quote
        ("market.fundamental.mu", 0),           # exit 3 too
        ("market.market_maker.n_ticks", 0),     # exit 0 with an empty ladder
        ("market.market_maker.pov", -0.5),      # exit 0
        ("market.market_maker.window_s", 0),    # exit 0
        ("market.market_maker.max_window_s", -60),  # exit 0
        ("market.value.obs_noise_std", -1),     # exit 0 without any noise
        ("exec.alpha", -2),                     # exit 0, depth rewarded
        ("exec.beta", -1),                      # exit 0
        ("exec.over_exec_penalty", -5),         # exit 0
        # pooled the duplicate's episodes into the top-level metrics.csv
        ("eval.policies", ["twap", "random", "random"]),
        ("eval.policies", []),                  # exit 0, header-only CSVs
        ("eval.grid", []),                      # benchmark exit 0, no CSV
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, key, value):
        import yaml
        data = yaml.safe_load(LITE_YAML)
        section = data
        *parents, leaf = key.split(".")
        for name in parents:
            section = section.setdefault(name, {})
        section[leaf] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(data))
        # --duration 0 runs no session, so a value that is let through
        # fails this test instead of hanging it
        assert main(["simulate", "--config", str(bad), "--duration", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_yaml_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 0\n  market: [")
        assert main(["simulate", "--config", str(bad), "--duration", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_flag_is_config_error(self, lite_cfg, tmp_path, capsys,
                                                value):
        out = tmp_path / "o"
        assert main(["train", "--lr", value, "--config", str(lite_cfg),
                     "--out", str(out)]) == 2
        assert "lr_start" in capsys.readouterr().err
        assert not out.exists()

    # a flag's value goes into its section, which must be a mapping
    @pytest.mark.parametrize("body, argv", [
        ("market: 5\n", ["simulate", "--duration", "1"]),
        ("dqn: {schedules: [1]}\n", ["train", "--lr", "0.1"]),
        ("eval:\n", ["evaluate", "--policy", "twap", "--episodes", "2"]),
    ], ids=["market", "dqn.schedules", "eval-null"])
    def test_flag_into_non_mapping_section(self, tmp_path, capsys, body, argv):
        bad = tmp_path / "bad.yaml"
        bad.write_text(body)
        assert main([*argv, "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "must be a mapping" in capsys.readouterr().err

    def test_int_for_float_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(LITE_YAML.replace("session_seconds: 90",
                                         "session_seconds: 60"))
        assert main(["simulate", "--config", str(cfg), "--duration", "0",
                     "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_episode_names_its_seed_and_policy(self, tmp_path, capsys,
                                                       workers):
        # no maker and no value agent: the book is empty at the episode start
        cfg = tmp_path / "c.yaml"
        cfg.write_text(LITE_YAML.replace("n_value: 5", "n_value: 0")
                       .replace("market_maker:", "n_market_maker: 0\n  market_maker:"))
        assert main(["evaluate", "--policy", "all", "--config", str(cfg),
                     "--parallel", workers, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: seed 0, policy twap: RuntimeError: book one-sided at episode "
            "start; no arrival price\n")

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_earliest_failing_episode_is_reported(self, lite_cfg, tmp_path, capsys,
                                                  monkeypatch, workers):
        """Seed 1's twap episode fails at once, seed 0's random one (earlier
        in seed order) only after a sleep; the error is seed 0's, whichever
        result comes back first."""
        run_episode = evaluation.run_episode

        def failing(policy, exec_config, market, seed):
            if (seed, policy.name) == (0, "random"):
                time.sleep(0.3)
                raise RuntimeError("earlier")
            if (seed, policy.name) == (1, "twap"):
                raise RuntimeError("later")
            return run_episode(policy, exec_config, market, seed)

        monkeypatch.setattr(evaluation, "run_episode", failing)
        assert main(["evaluate", "--policy", "all", "--config", str(lite_cfg),
                     "--parallel", workers, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: seed 0, policy random: RuntimeError: earlier\n")

    def test_rl_without_checkpoint_is_usage_error(self, lite_cfg, tmp_path, capsys):
        assert main(["evaluate", "--policy", "rl", "--config", str(lite_cfg),
                     "--out", str(tmp_path / "o")]) == 1

    # a checkpoint the config cannot use: another action count, other hidden
    # sizes, a NaN weight, and stored layer sizes that are not four ints
    @pytest.mark.parametrize("sizes, nan, message", [
        ((36, 50, 20, 3), False, "config expects [36, 50, 20, 5]"),
        ((36, 7, 9, 5), False, "config expects [36, 50, 20, 5]"),
        ((36, 50, 20, 5), True, "non-finite"),
        ([36.7, 50, 20, 5], False, "are not four positive ints"),
        (["36", 50, 20, 5], False, "are not four positive ints"),
        (36, False, "are not four positive ints")],
        ids=["n_actions", "hidden", "nan", "float_sizes", "str_sizes", "int_sizes"])
    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "rl"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_bad_checkpoint_fails_before_any_output(self, tmp_path, capsys, argv,
                                                    sizes, nan, message):
        ckpt = tmp_path / "net.json"
        net = QNetwork(sizes if isinstance(sizes, tuple) else (36, 50, 20, 5),
                       np.random.default_rng(0))
        if nan:
            net.params["w1"][0, 0] = np.nan
        net.save(ckpt)
        if not isinstance(sizes, tuple):  # the weights fit (36, 50, 20, 5)
            payload = json.loads(ckpt.read_text())
            payload["sizes"] = sizes
            ckpt.write_text(json.dumps(payload))
        cfg = grid_cfg(tmp_path, "[[20, 1]]", policies="[rl, twap]")
        out = tmp_path / "o"
        assert main([*argv, "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not (out / argv[0]).exists()

    # a payload that is no object, or that lacks or mistypes a key, is
    # named in the error, not left to an AttributeError or a KeyError
    @pytest.mark.parametrize("edit, message", [
        (lambda payload: [], "checkpoint must be an object, not list"),
        (lambda payload: {k: v for k, v in payload.items() if k != "params"},
         "checkpoint has no 'params'"),
        (lambda payload: {k: v for k, v in payload.items() if k != "sizes"},
         "checkpoint has no 'sizes'"),
        (lambda payload: {**payload, "params": list(payload["params"].values())},
         "checkpoint 'params' must be an object, not list"),
    ], ids=["list_payload", "no_params", "no_sizes", "list_params"])
    def test_malformed_checkpoint_names_the_key(self, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "net.json"
        QNetwork((36, 50, 20, 5), np.random.default_rng(0)).save(ckpt)
        ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
        out = tmp_path / "o"
        assert main(["evaluate", "--policy", "rl", "--checkpoint", str(ckpt),
                     "--config", str(grid_cfg(tmp_path, "[[20, 1]]", policies="[rl, twap]")),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (out / "evaluate").exists()

    # only worker counts that start no process
    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "twap"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_parallel_below_one_is_usage_error(self, lite_cfg, tmp_path, capsys,
                                               argv, workers):
        assert main([*argv, "--parallel", workers, "--config", str(lite_cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "--parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--n-seeds", "0"),       # exit 0, only config_used.yaml written
        ("--n-seeds", "-1"),
        ("--duration", "-5"),     # exit 0 after the config's full session
        ("--duration", "nan"),
        ("--duration", "inf"),    # OverflowError, exit 3
    ])
    def test_bad_simulate_flag_is_usage_error(self, lite_cfg, tmp_path, capsys,
                                              flag, value):
        out = tmp_path / "o"
        assert main(["simulate", flag, value, "--config", str(lite_cfg),
                     "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "--duration", "1"],
                                      ["evaluate", "--policy", "twap"]],
                             ids=["simulate", "evaluate"])
    def test_negative_seed_is_config_error(self, lite_cfg, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--seed", "-1", "--config", str(lite_cfg),
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(out.rglob("config_used.yaml"))


class TestSimulate:
    def test_writes_expected_files(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "30",
                     "--out", str(out)]) == 0
        files = read_tree(out / "simulate")
        assert set(files) == {"config_used.yaml", "snapshots_0.csv",
                              "fills_0.csv", "fundamental_0.csv"}
        assert files["snapshots_0.csv"].startswith(b"# config_hash=")

    def test_n_seeds_and_seed_offset(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "30",
                     "--seed", "5", "--n-seeds", "2", "--out", str(out)]) == 0
        names = set(read_tree(out / "simulate"))
        assert {"snapshots_5.csv", "snapshots_6.csv"} <= names

    def test_two_seeds_match_two_single_seed_runs(self, lite_cfg, tmp_path, capsys):
        """Each seed's session writes its own log: a two-seed run writes the
        bytes of two single-seed runs. The hash line covers the config's seed,
        so seed 1's files are compared below it."""
        both, single = tmp_path / "both", tmp_path / "single"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "30",
                     "--n-seeds", "2", "--out", str(both)]) == 0
        for seed in (0, 1):
            assert main(["simulate", "--config", str(lite_cfg), "--duration", "30",
                         "--seed", str(seed), "--out", str(single / str(seed))]) == 0
        for name in ("snapshots", "fills", "fundamental"):
            assert (both / "simulate" / f"{name}_0.csv").read_bytes() == \
                (single / "0" / "simulate" / f"{name}_0.csv").read_bytes()
            one, other = ((root / "simulate" / f"{name}_1.csv").read_bytes()
                          for root in (both, single / "1"))
            assert one.split(b"\n", 1)[1] == other.split(b"\n", 1)[1]
            assert one.count(b"\n") > 2

    def test_zero_duration_writes_the_headers_of_a_run(self, lite_cfg, tmp_path,
                                                       capsys):
        empty, run = tmp_path / "empty", tmp_path / "run"
        for out, duration in ((empty, "0"), (run, "30")):
            assert main(["simulate", "--config", str(lite_cfg), "--duration", duration,
                         "--out", str(out)]) == 0
        for name in ("snapshots_0.csv", "fills_0.csv", "fundamental_0.csv"):
            head = (run / "simulate" / name).read_text().splitlines()[1]
            assert (empty / "simulate" / name).read_text().splitlines()[1:] == [head]
        assert capsys.readouterr().out.startswith(
            "simulate: seed 0 -> 0 snapshots, 0 fills\n")

    def test_zero_duration_header_only(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "0",
                     "--out", str(out)]) == 0
        for name in ("snapshots_0.csv", "fills_0.csv", "fundamental_0.csv"):
            lines = (out / "simulate" / name).read_text().strip().splitlines()
            assert len(lines) == 2  # hash comment + column header only

    def test_files_hold_the_hash_line_and_the_log_text(self, lite_cfg, tmp_path,
                                                       capsys):
        """The rows the session streams into each file are exactly the text
        of a log of the same run into ``io.StringIO`` sinks, under the one
        hash line; with --duration 0 the files hold the headers of an empty
        log."""
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "30",
                     "--n-seeds", "2", "--out", str(out)]) == 0
        config = load_config(lite_cfg, {"market.session_seconds": 30.0})
        comment = hash_comment(config) + "\n"
        names = ("snapshots", "fills", "fundamental")
        for seed in (0, 1):
            sinks = [io.StringIO() for _ in names]
            kernel_run(config.market, seed, sinks)
            for name, sink in zip(names, sinks):
                text = (out / "simulate" / f"{name}_{seed}.csv").read_text()
                assert text == comment + sink.getvalue()
        empty = tmp_path / "empty"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "0",
                     "--out", str(empty)]) == 0
        sinks = [io.StringIO() for _ in names]
        SessionLog(config.market.depth, sinks)
        for name, sink in zip(names, sinks):
            text = (empty / "simulate" / f"{name}_0.csv").read_text()
            assert text == hash_comment(load_config(lite_cfg)) + "\n" + sink.getvalue()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_session_keeps_previous_files(self, lite_cfg, tmp_path, capsys,
                                                 monkeypatch, error):
        """A session that fails mid-run, by an error or an interrupt, leaves
        no .tmp file, and the files of an earlier complete run stay whole."""
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(lite_cfg), "--duration", "30",
                "--out", str(out)]
        assert main(argv) == 0
        good = read_tree(out)
        wakeup = agents.NoiseAgent.wakeup

        def crash(agent, ts, session):
            if ts > 15 * NS_PER_SEC:
                # the session writes into the .tmp files as it runs
                assert (out / "simulate" / "snapshots_0.csv.tmp").exists()
                raise error("simulated crash mid-session")
            return wakeup(agent, ts, session)

        monkeypatch.setattr(agents.NoiseAgent, "wakeup", crash)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 3
            assert "simulated crash mid-session" in capsys.readouterr().err
        assert read_tree(out) == good
        assert not list(out.rglob("*.tmp"))

    def test_rerun_byte_identical(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--config", str(lite_cfg),
                         "--duration", "30", "--out", str(out)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_different_seed_different_output(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(lite_cfg), "--duration", "30",
              "--out", str(a)])
        main(["simulate", "--config", str(lite_cfg), "--duration", "30",
              "--seed", "1", "--out", str(b)])
        assert (a / "simulate" / "fills_0.csv").read_bytes() \
            != (b / "simulate" / "fills_1.csv").read_bytes()

    def test_out_env_var_default(self, lite_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LOBEXEC_OUT", str(tmp_path / "envroot"))
        assert main(["simulate", "--config", str(lite_cfg),
                     "--duration", "30"]) == 0
        assert (tmp_path / "envroot" / "simulate" / "snapshots_0.csv").exists()


class TestEvaluate:
    def test_baselines_and_outputs(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evaluate", "--policy", "all", "--config", str(lite_cfg),
                     "--out", str(out)]) == 0
        files = read_tree(out / "evaluate")
        assert "twap/episodes.csv" in files
        assert "twap/metrics.csv" in files
        assert "twap/hist_is.csv" in files
        assert "random/episodes.csv" in files
        assert "metrics.csv" in files
        assert "ttests.csv" not in files  # no rl policy in the lite config

    def test_single_policy(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evaluate", "--policy", "twap", "--config", str(lite_cfg),
                     "--episodes", "2", "--out", str(out)]) == 0
        body = (out / "evaluate" / "twap" / "episodes.csv").read_text()
        assert len(body.strip().splitlines()) == 4  # comment + header + 2 rows

    def test_rerun_with_fewer_policies_gives_a_fresh_tree(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        QNetwork((36, 50, 20, 5), np.random.default_rng(0)).save(ckpt)
        cfg = grid_cfg(tmp_path, "[[20, 1]]", policies="[rl, twap]")
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        argv = ["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]
        assert main([*argv, "--policy", "all", "--out", str(rerun)]) == 0
        assert {"rl/episodes.csv", "ttests.csv"} <= set(read_tree(rerun / "evaluate"))
        assert main([*argv, "--policy", "twap", "--out", str(rerun)]) == 0
        assert main([*argv, "--policy", "twap", "--out", str(fresh)]) == 0
        assert read_tree(rerun) == read_tree(fresh)

    # ten episodes (five seeds of two policies) over two and three workers,
    # and over seven: more workers than seeds, so some seeds are warmed twice
    @pytest.mark.parametrize("workers", ["2", "3", "7"])
    def test_parallel_matches_serial(self, lite_cfg, tmp_path, capsys, workers):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["evaluate", "--policy", "all", "--config", str(lite_cfg),
                "--episodes", "5"]
        assert main([*argv, "--parallel", "1", "--out", str(a)]) == 0
        assert main([*argv, "--parallel", workers, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not os.path.exists(
                            f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs CPU affinity and /proc/<pid>/task/<tid>/children")
    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "all"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_interrupt_stops_every_worker(self, lite_cfg, tmp_path, argv):
        """SIGINT to a default command's process group, as a terminal's Ctrl-C
        sends it, ends the command and its workers and writes no results."""
        cpus = sorted(os.sched_getaffinity(0))[:2]  # at most two workers
        if len(cpus) < 2:
            pytest.skip("one usable CPU: the default runs in-process")
        out = tmp_path / "o"
        proc = subprocess.Popen(
            [sys.executable, "-m", "lobexec.cli", *argv, "--config", str(lite_cfg),
             "--episodes", "5000", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
                with contextlib.suppress(OSError):
                    workers = [int(pid) for pid in children.read_text().split()]
            assert len(workers) == 2, "the pool never started two workers"
            os.killpg(proc.pid, signal.SIGINT)
            start = time.monotonic()
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            left = [pid for pid in workers if running(pid)]
            for pid in left:  # a worker that outlived the command
                os.kill(pid, signal.SIGKILL)
        assert time.monotonic() - start < 10
        assert proc.returncode == -signal.SIGINT  # KeyboardInterrupt, not exit 3
        assert left == []
        assert not list(out.rglob("*.csv")) and not list(out.rglob("error.txt"))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not os.path.exists(
                            f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs CPU affinity and /proc/<pid>/task/<tid>/children")
    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "all"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_killed_parent_leaves_no_worker(self, lite_cfg, tmp_path, argv):
        """SIGKILL to a default command alone, as a timeout sends it, leaves
        no worker running: each dies at its next write, within one seed."""
        cpus = sorted(os.sched_getaffinity(0))[:2]  # at most two workers
        if len(cpus) < 2:
            pytest.skip("one usable CPU: the default runs in-process")
        proc = subprocess.Popen(
            [sys.executable, "-m", "lobexec.cli", *argv, "--config", str(lite_cfg),
             "--episodes", "5000", "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
                with contextlib.suppress(OSError):
                    workers = [int(pid) for pid in children.read_text().split()]
            assert len(workers) == 2, "the command never started two workers"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            left = [pid for pid in workers if running(pid)]
            for pid in left:  # a worker that outlived its parent
                os.kill(pid, signal.SIGKILL)
        assert left == []


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestTrain:
    def test_writes_checkpoint_and_curve(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--out", str(out)]) == 0
        tdir = out / "train"
        assert (tdir / "checkpoint.json").exists()
        curve = (tdir / "learning_curve.csv").read_text().strip().splitlines()
        assert curve[0].startswith("# config_hash=")
        assert curve[1] == "episode,total_reward,rolling_mean"
        assert len(curve) == 4  # 2 episodes

    def test_lr_flag_changes_config_hash(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(lite_cfg), "--episodes", "1",
              "--out", str(a)])
        main(["train", "--config", str(lite_cfg), "--episodes", "1",
              "--lr", "0.0002", "--out", str(b)])
        first = (a / "train" / "learning_curve.csv").read_text().splitlines()[0]
        second = (b / "train" / "learning_curve.csv").read_text().splitlines()[0]
        assert first != second

    def test_prints_the_episode_where_lr_reaches_zero(self, lite_cfg, tmp_path, capsys):
        # lr_steps 500: the first step at lr 0 falls in episode 12 (counted
        # from 0, as in learning_curve.csv); the line goes to stdout only
        def train(episodes, out, *flags):
            assert main(["train", "--config", str(lite_cfg), "--episodes", str(episodes),
                         "--out", str(tmp_path / out), *flags]) == 0
            return capsys.readouterr().out

        assert "lr reached" not in train(12, "short")
        assert "train: lr reached 0 at episode 12\n" in train(13, "run")
        assert "lr reached" not in train(1, "run", "--resume")  # already at lr 0
        assert not any(b"lr reached" in data for data in read_tree(tmp_path / "run").values())

    def test_resume_appends_curve(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--episodes", "2",
                     "--out", str(out)]) == 0
        assert main(["train", "--config", str(lite_cfg), "--episodes", "2",
                     "--resume", "--out", str(out)]) == 0
        curve = (out / "train" / "learning_curve.csv").read_text()
        rows = curve.strip().splitlines()[2:]
        assert len(rows) == 4
        episodes = [int(r.split(",")[0]) for r in rows]
        assert episodes == [0, 1, 2, 3]

    def test_resume_without_checkpoint_starts_a_fresh_curve(self, lite_cfg, tmp_path,
                                                            capsys):
        # the old curve was spliced in whenever it existed: episodes 0, 1, 0, 1
        out = tmp_path / "run"
        argv = ["train", "--config", str(lite_cfg), "--episodes", "2", "--out", str(out)]
        assert main(argv) == 0
        fresh = (out / "train" / "learning_curve.csv").read_bytes()
        (out / "train" / "checkpoint.json").unlink()
        assert main([*argv, "--resume"]) == 0
        assert (out / "train" / "learning_curve.csv").read_bytes() == fresh

    def test_resume_stamps_the_resumed_config_hash(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--episodes", "1",
                     "--out", str(out)]) == 0
        assert main(["train", "--config", str(lite_cfg), "--episodes", "2",
                     "--resume", "--out", str(out)]) == 0
        tdir = out / "train"
        curve = (tdir / "learning_curve.csv").read_text().splitlines()
        assert curve[0] == hash_comment(load_config(tdir / "config_used.yaml"))
        assert [int(r.split(",")[0]) for r in curve[2:]] == [0, 1, 2]

    def test_resume_rejects_checkpoint_of_another_shape(self, lite_cfg, tmp_path,
                                                        capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--episodes", "1",
                     "--out", str(out)]) == 0
        tdir = out / "train"
        before = {name: (tdir / name).read_bytes()
                  for name in ("checkpoint.json", "learning_curve.csv",
                               "config_used.yaml")}
        capsys.readouterr()
        other = tmp_path / "other.yaml"
        other.write_text(lite_cfg.read_text().replace(
            "dqn:\n", "dqn:\n  hidden: [30, 10]\n"))
        assert main(["train", "--config", str(other), "--resume",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "[36, 50, 20, 5]" in err and "[36, 30, 10, 5]" in err
        for name, data in before.items():
            assert (tdir / name).read_bytes() == data

    def test_resume_rejects_checkpoint_of_another_seed(self, lite_cfg, tmp_path,
                                                       capsys):
        # seed 7's episode streams on seed 0's weights are neither run's
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--episodes", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        tdir = out / "train"
        before = read_tree(tdir)
        capsys.readouterr()
        assert main(["train", "--config", str(lite_cfg), "--seed", "7", "--resume",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: ValueError: checkpoint was trained with seed 0, "
            "config has seed 7\n")
        assert read_tree(tdir) == before

    def test_resume_rejects_a_meta_that_is_no_object(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(lite_cfg), "--episodes", "1",
                     "--out", str(out)]) == 0
        tdir = out / "train"
        ckpt = tdir / "checkpoint.json"
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "meta": [1]}))
        before = read_tree(tdir)
        capsys.readouterr()
        assert main(["train", "--config", str(lite_cfg), "--resume",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: ValueError: checkpoint 'meta' must be an object, not list\n")
        assert read_tree(tdir) == before

    def test_reproducible(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", str(lite_cfg),
                         "--out", str(out)]) == 0
        assert read_tree(a) == read_tree(b)


class TestAtomicWrites:
    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.csv"
        write_text_atomic(path, "# config_hash=a\n", "x\n1\n")
        good = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            write_text_atomic(path, "# config_hash=b\n", "x\n2\n")
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]

    def test_failed_config_dump_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config_used.yaml"
        dump_config(load_config(None), path)
        good = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            dump_config(load_config(None, {"seed": 5}), path)
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config_used.yaml"]

    def test_no_temporary_files_left(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        for argv in (["train"], ["train", "--resume"], ["evaluate", "--policy", "twap"],
                     ["simulate", "--n-seeds", "2", "--duration", "30"]):
            assert main([*argv, "--config", str(lite_cfg), "--out", str(out)]) == 0
        assert (out / "train" / "checkpoint.json").exists()
        assert (out / "simulate" / "fills_1.csv").exists()
        assert not list(out.rglob("*.tmp"))


class TestHashLine:
    @pytest.mark.parametrize("commands", [
        [["simulate", "--duration", "30"]],
        [["train"]],
        [["train"], ["train", "--resume"]],
        [["evaluate", "--policy", "all"]],
        [["benchmark", "--episodes", "2"]],
    ], ids=["simulate", "train", "train_resume", "evaluate", "benchmark"])
    def test_every_csv_starts_with_one_hash_line(self, lite_cfg, tmp_path, capsys,
                                                 commands):
        out = tmp_path / "run"
        for argv in commands:
            assert main([*argv, "--config", str(lite_cfg), "--out", str(out)]) == 0
        paths = sorted(out.rglob("*.csv"))
        assert paths
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config_hash="), path
            assert sum(line.startswith("#") for line in lines) == 1, path


class TestBenchmark:
    def test_grid_cells_written(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["benchmark", "--config", str(lite_cfg), "--episodes", "2",
                     "--out", str(out)]) == 0
        cell = out / "benchmark" / "cell_20N_1M"
        assert (cell / "metrics.csv").exists()
        header = (cell / "metrics.csv").read_text().splitlines()[1]
        assert header.startswith("n_noise,n_momentum,policy")

    def test_failing_cell_gives_exit_3_and_error_file(self, tmp_path, capsys,
                                                      monkeypatch):
        fail_cell_sessions(monkeypatch, n_noise=10)
        cfg = grid_cfg(tmp_path, "[[10, 1], [20, 1]]")
        out = tmp_path / "run"
        assert main(["benchmark", "--config", str(cfg), "--episodes", "2",
                     "--out", str(out)]) == 3
        assert (out / "benchmark" / "cell_10N_1M" / "error.txt").exists()
        assert (out / "benchmark" / "cell_20N_1M" / "metrics.csv").exists()

    @pytest.mark.parametrize("grid, message", [
        ("[[-1, 1], [20, 1]]", "eval.grid[0].n_noise must be >= 0"),
        ("[[20, 1], [20, -2]]", "eval.grid[1].n_momentum must be >= 0"),
        ("[[20, 1], [20.5, 1]]", "eval.grid[1].n_noise expects int, got float 20.5"),
        ("[[20, 1], [30, 1], [20, 1]]", "duplicate cell in eval.grid: [20, 1]"),
    ], ids=["negative-noise", "negative-momentum", "float", "repeated"])
    def test_bad_cell_is_config_error(self, tmp_path, capsys, grid, message):
        # a negative cell exited 3 with an error.txt; a repeated one ran twice
        # into one directory and exited 0
        out = tmp_path / "run"
        assert main(["benchmark", "--config", str(grid_cfg(tmp_path, grid)),
                     "--episodes", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_cells_run_in_grid_order(self, tmp_path, capsys):
        cfg = grid_cfg(tmp_path, "[[30, 1], [10, 1], [20, 1]]")
        assert main(["benchmark", "--config", str(cfg), "--episodes", "2",
                     "--out", str(tmp_path / "run")]) == 0
        done = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert done == ["cell_30N_1M", "cell_10N_1M", "cell_20N_1M"]

    def test_failing_cell_leaves_the_shared_pool_to_later_cells(self, tmp_path,
                                                                capsys, monkeypatch):
        # the 10-noise cell raises inside a worker; the next cell still runs
        fail_cell_sessions(monkeypatch, n_noise=10)
        cfg = grid_cfg(tmp_path, "[[10, 1], [20, 1]]")
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["benchmark", "--config", str(cfg), "--episodes", "2",
                         "--parallel", workers, "--out", str(out)]) == 3
            trees.append(read_tree(out))
        assert trees[1]["benchmark/cell_10N_1M/error.txt"] == (
            b"seed 0, policy twap: RuntimeError: no market for 10 noise agents\n")
        assert "benchmark/cell_20N_1M/metrics.csv" in trees[1]
        assert trees[0] == trees[1]

    def test_one_cell_metrics_equal_aggregate(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["benchmark", "--config", str(lite_cfg), "--episodes", "2",
                     "--out", str(out)]) == 0
        config = load_config(lite_cfg)
        by_policy = run_experiment(config.eval.policies, config.exec, config.market,
                                   [0, 1])
        cell = {"n_noise": 20, "n_momentum": 1}
        written = (out / "benchmark" / "cell_20N_1M" / "metrics.csv").read_text()
        assert written.split("\n", 1)[1] == metrics_csv(aggregate(by_policy),
                                                         extra_cols=cell)

    @pytest.mark.parametrize("fail_first", [True, False],
                             ids=["fail-then-pass", "pass-then-fail"])
    def test_rerun_cell_holds_only_its_latest_outcome(self, lite_cfg, tmp_path, capsys,
                                                      monkeypatch, fail_first):
        """A rerun into the same --out leaves the tree a fresh run of its
        outcome leaves: no old error.txt beside new CSVs, no old CSVs beside
        a new error.txt."""
        def run(out, failing):
            with monkeypatch.context() as patch:
                if failing:
                    fail_cell_sessions(patch, n_noise=20)
                assert main(["benchmark", "--config", str(lite_cfg), "--episodes", "2",
                             "--out", str(out)]) == (3 if failing else 0)
            return read_tree(out)

        run(tmp_path / "rerun", fail_first)
        rerun = run(tmp_path / "rerun", not fail_first)
        assert rerun == run(tmp_path / "fresh", not fail_first)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rerun_with_another_grid_leaves_only_its_cells(self, tmp_path, capsys,
                                                           workers):
        """A rerun into the same --out with another grid leaves the tree a
        fresh run of that grid leaves: no cell of the earlier grid stays."""
        def run(out, grid):
            assert main(["benchmark", "--config", str(grid_cfg(tmp_path, grid)),
                         "--episodes", "2", "--parallel", workers,
                         "--out", str(out)]) == 0
            return read_tree(out)

        run(tmp_path / "rerun", "[[20, 1]]")
        rerun = run(tmp_path / "rerun", "[[10, 1]]")
        assert rerun == run(tmp_path / "fresh", "[[10, 1]]")
        assert sorted(p.name for p in (tmp_path / "rerun" / "benchmark").iterdir()) == [
            "cell_10N_1M", "config_used.yaml"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_cell_policy_files_equal_evaluate(self, lite_cfg, tmp_path, capsys,
                                                  workers):
        # lite's one grid cell is its market, and both commands stamp the same
        # hash line, so whole files match
        for argv in (["evaluate", "--policy", "all"], ["benchmark"]):
            assert main([*argv, "--config", str(lite_cfg), "--parallel", workers,
                         "--out", str(tmp_path)]) == 0

        def episodes_and_histograms(tree):
            return {name: body for name, body in tree.items()
                    if "/" in name and not name.endswith("/metrics.csv")}

        cell = episodes_and_histograms(read_tree(tmp_path / "benchmark" / "cell_20N_1M"))
        assert {"twap/episodes.csv", "random/hist_is.csv"} <= cell.keys()
        assert cell == episodes_and_histograms(read_tree(tmp_path / "evaluate"))

    def test_unreadable_checkpoint_fails_before_any_cell(self, tmp_path, capsys):
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]", policies="[rl, twap]")
        out = tmp_path / "run"
        assert main(["benchmark", "--checkpoint", str(tmp_path / "missing.json"),
                     "--config", str(cfg), "--out", str(out)]) == 3
        assert not list((out / "benchmark").glob("cell_*"))


def fail_cell_sessions(monkeypatch, n_noise: int):
    """Make every market session with ``n_noise`` noise agents fail to build,
    here and in the workers that fork from this process."""
    build = evaluation.MarketSession

    def session(config, seed):
        if config.n_noise == n_noise:
            raise RuntimeError(f"no market for {n_noise} noise agents")
        return build(config, seed)

    monkeypatch.setattr(evaluation, "MarketSession", session)


def grid_cfg(tmp_path, grid: str, policies: str = "[twap, random]"):
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(LITE_YAML.replace("grid: [[20, 1]]", f"grid: {grid}")
                   .replace("policies: [twap, random]", f"policies: {policies}"))
    return cfg


def count_forks(monkeypatch) -> list:
    """The pid of every worker forked from now on, as the parent sees it."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    """Every worker was reaped: this process has no child at all."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestOneRunnerPerCommand:
    # an experiment forks its own workers: evaluate runs one, benchmark one
    # per grid cell, here two cells
    @pytest.mark.parametrize("argv, experiments", [
        (["evaluate", "--policy", "all"], 1), (["benchmark"], 2)],
        ids=["evaluate", "benchmark"])
    def test_one_process_pool(self, tmp_path, capsys, monkeypatch, argv, experiments):
        forks = count_forks(monkeypatch)
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]")
        assert main([*argv, "--parallel", "2", "--episodes", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert len(forks) == 2 * experiments
        assert_no_child_left()

    @pytest.mark.parametrize("argv, experiments", [
        (["evaluate", "--policy", "all"], 1), (["benchmark"], 2)],
        ids=["evaluate", "benchmark"])
    def test_no_more_workers_than_episodes(self, tmp_path, capsys, monkeypatch, argv,
                                           experiments):
        # two seeds of three policies: six episodes, so six of the eight workers
        forks = count_forks(monkeypatch)
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]", policies="[twap, passive, random]")
        assert main([*argv, "--parallel", "8", "--episodes", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert len(forks) == 6 * experiments
        assert_no_child_left()

    @pytest.mark.parametrize("argv, experiments", [
        (["evaluate", "--policy", "all"], 1), (["benchmark"], 2)],
        ids=["evaluate", "benchmark"])
    def test_default_pool_has_a_worker_per_cpu_up_to_the_seeds(self, tmp_path, capsys,
                                                                monkeypatch, argv,
                                                                experiments):
        # one policy: an episode per seed, so two seeds cap three CPUs at two
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]", policies="[twap]")
        assert main([*argv, "--episodes", "2", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        assert len(forks) == 2 * experiments
        assert_no_child_left()

    @pytest.mark.parametrize("argv, experiments", [
        (["evaluate", "--policy", "all"], 1), (["benchmark"], 2)],
        ids=["evaluate", "benchmark"])
    @pytest.mark.parametrize("cpus, workers", [(3, 3), (5, 4)], ids=["3cpus", "5cpus"])
    def test_default_pool_has_a_worker_per_cpu_up_to_the_episodes(
            self, tmp_path, capsys, monkeypatch, argv, experiments, cpus, workers):
        # two seeds of two policies: four episodes
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]")
        assert main([*argv, "--episodes", "2", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        assert len(forks) == workers * experiments
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", ["affinity", "cpu_count", "unknown"])
    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "all"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_one_usable_cpu_runs_in_process(self, tmp_path, capsys, monkeypatch,
                                            argv, cpus):
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]")
        pooled = tmp_path / "pooled"
        assert main([*argv, "--parallel", "2", "--episodes", "2", "--config", str(cfg),
                     "--out", str(pooled)]) == 0
        forks = count_forks(monkeypatch)
        if cpus == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:  # where the OS has no affinity mask, os.cpu_count(), which may be None
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1 if cpus == "cpu_count" else None)
        default = tmp_path / "default"
        assert main([*argv, "--episodes", "2", "--config", str(cfg),
                     "--out", str(default)]) == 0
        assert forks == []
        assert read_tree(default) == read_tree(pooled)

    @pytest.mark.parametrize("argv", [["evaluate", "--policy", "all"], ["benchmark"]],
                             ids=["evaluate", "benchmark"])
    def test_worker_dying_mid_seed_ends_the_command(self, tmp_path, capsys,
                                                    monkeypatch, argv):
        """A worker that dies without a result, here by ``os._exit`` on seed
        1 of the 20-noise market, which the second worker takes first, fails
        its experiment at once: evaluate exits 3 and writes no CSV, benchmark
        writes the cell's error.txt and runs the next cell. No worker is left
        behind either way."""
        play = evaluation.play_episode

        def dying(exec_config, market_config, warm, seed, policy, last):
            if seed == 1 and market_config.n_noise == 20:
                os._exit(1)
            return play(exec_config, market_config, warm, seed, policy, last)

        monkeypatch.setattr(evaluation, "play_episode", dying)
        forks = count_forks(monkeypatch)
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]")
        out = tmp_path / "run"
        assert main([*argv, "--parallel", "2", "--episodes", "3",
                     "--config", str(cfg), "--out", str(out)]) == 3
        assert_no_child_left()
        error = f"RuntimeError: worker {forks[1]} ended without a result"
        if argv[0] == "evaluate":
            assert capsys.readouterr().err == f"error: {error}\n"
            assert not list(out.rglob("*.csv"))
        else:
            cells = out / "benchmark"
            assert (cells / "cell_20N_1M" / "error.txt").read_text() == error + "\n"
            assert not (cells / "cell_20N_1M" / "metrics.csv").exists()
            assert (cells / "cell_30N_1M" / "metrics.csv").exists()
            assert len(forks) == 4

    def test_pool_runs_outside_the_main_thread(self, lite_cfg, tmp_path, capsys):
        # the workers fork from, and report to, whichever thread runs main()
        codes = []
        argv = ["evaluate", "--policy", "all", "--config", str(lite_cfg)]
        thread = threading.Thread(target=lambda: codes.append(
            main([*argv, "--parallel", "2", "--out", str(tmp_path / "thread")])))
        thread.start()
        thread.join()
        assert codes == [0]
        assert main([*argv, "--parallel", "1", "--out", str(tmp_path / "main")]) == 0
        assert read_tree(tmp_path / "thread") == read_tree(tmp_path / "main")

    def test_ignored_sigint_stays_ignored(self, lite_cfg, tmp_path, capsys, monkeypatch):
        # as a shell leaves SIGINT for a background job
        monkeypatch.setattr(signal, "getsignal", lambda signum: signal.SIG_IGN)
        installed = []
        monkeypatch.setattr(signal, "signal", lambda *args: installed.append(args))
        assert main(["evaluate", "--policy", "all", "--config", str(lite_cfg),
                     "--parallel", "2", "--out", str(tmp_path / "o")]) == 0
        assert installed == []

    def test_benchmark_loads_checkpoint_once(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "net.json"
        QNetwork((36, 50, 20, 5), np.random.default_rng(0)).save(ckpt)
        loads = []
        load = QNetwork.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(QNetwork, "load", classmethod(counting_load))
        cfg = grid_cfg(tmp_path, "[[20, 1], [30, 1]]", policies="[rl, twap]")
        assert main(["benchmark", "--checkpoint", str(ckpt), "--episodes", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert len(loads) == 1


# The criterion-9 lite config with all four policies, so the rl readout and
# the t-tests are covered too. Digests were computed before the env,
# evaluation and DQN code was last refactored; "# config_hash=" lines are
# stripped because the hash follows the config schema, not the behaviour.
GOLDEN_YAML = (
    "market:\n"
    "  n_noise: 20\n  n_value: 5\n  n_momentum: 1\n  session_seconds: 90\n"
    "  market_maker: {pov: 0.02, min_size: 50}\n"
    "exec: {parent_size: 400, time_window_s: 60, warmup_s: 10}\n"
    "dqn:\n  episodes: 2\n"
    "  schedules: {learn_start: 32, batch_size: 16, lr_steps: 500,\n"
    "              eps_steps: 100, replay_capacity: 1000}\n"
    "eval:\n  episodes: 4\n  bins: 5\n  policies: [rl, twap, passive, random]\n"
    "  grid: [[20, 1]]\n")

GOLDEN_TRAIN_SHA256 = {
    "checkpoint.json":
        "6fbc2b02349747820d6dc679c017f62eeb7317d2571d1d8742d746dc227a4d08",
    "learning_curve.csv":
        "e742bfff45a1fefd44a077295e28696286166c89b8d41ce8b94896deef63d84e",
}

GOLDEN_EVALUATE_SHA256 = {
    "metrics.csv":
        "daf0e92b9b64d1512cf904fcb621e3ae6a280e03672ccb052a6fc552ccc4788c",
    "passive/episodes.csv":
        "bedc7a8278c83946ccdef98c0a8134aca7d119ed712945c52f39141b5a67fa8b",
    "passive/hist_imbalance.csv":
        "b12c9241cf6c99b3a43cceff3c87d04c345ed31fced24d8871436ce1ddb993bd",
    "passive/hist_is.csv":
        "480f88e6068f4a789792f874121da8913ec38a23eea1641d7714dffab11e43e3",
    "passive/hist_spread.csv":
        "c580fc03bfde23fbbae24f9649f7cc166895e293834a594bbc7cf2f646500e1d",
    "passive/metrics.csv":
        "087a93d1f9e3f78c0a9c7894293e3298fb20942d9223be37c30201c881362044",
    "random/episodes.csv":
        "8e240cab602d0cd7225ad9989cfc917926a080c7f90e06ba65064d27cb20037b",
    "random/hist_imbalance.csv":
        "8ba44c20bceaae1a393a1322afdfdbcc598c327a855eaf48a9f070166a042dc5",
    "random/hist_is.csv":
        "d4781f5613bc3a8c23a947cc2de74655da6f8ee4286410ce298e360e97959c64",
    "random/hist_spread.csv":
        "e8df64dddcaa0263b87ee7eb4a144b6e7d9faf6c94d1b6ae6d76e7b56c8703d9",
    "random/metrics.csv":
        "469d1dfde993975deaa596c3f8159234b1f7e4874964f0ce79bae7fdfd597da6",
    "rl/episodes.csv":
        "13d8a4a23b76d839c73c0d769012caec4f7e2fdec37d183765510fe3c6c73932",
    "rl/hist_imbalance.csv":
        "3a3e4830466399949444ff699647fec8e84188ac11912a2c6f830991d64698c4",
    "rl/hist_is.csv":
        "766ed089781170e1938b0b44dc5673a95f1b3d710ed7036b522e9209c9e8866c",
    "rl/hist_spread.csv":
        "a2cbff15f206345f6536e2a500cdd51fe45ffecca1a13e4f36e86e78957712a5",
    "rl/metrics.csv":
        "7b3a8b7b9e2d2ffb15121550501447ed7e5598f0dd9c728b699b0b9943b7cbda",
    "ttests.csv":
        "0cc718b7d6e5efa8418a267761eaee620e4dab60b866175c4161c86ce01fb87a",
    "twap/episodes.csv":
        "b8a6b2402cfbd6e86c9433d4fc1e1d7516407825344c7b9c04c65d6c5967165d",
    "twap/hist_imbalance.csv":
        "36aa2490bc8ce0e966731a578d775b3cea4509bfab91f1ce9b96dce35a0dc56b",
    "twap/hist_is.csv":
        "6fc1b72992cc4196aca520db96ce4b200bf2b9130c41d5ef0b52257c8b9f4560",
    "twap/hist_spread.csv":
        "e84f29fa62b5b4518b52ebb10391579fa54cb47a8e3f07e69d7c7a08d78421fa",
    "twap/metrics.csv":
        "f36fa77cd905e7e3512fac3e3e60c8497b29f65881e638e40cd6411cbcde0495",
}


# A cell's per-policy episodes.csv and hist_*.csv carry the evaluate digests
# of the same names: the golden grid's one cell is the golden market.
GOLDEN_BENCHMARK_SHA256 = {
    "cell_20N_1M/metrics.csv":
        "5c7ba7da5141bf74a1f9dd6ad0e82ccf6e50d21c0f11240753824ef0436fcf0a",
    "cell_20N_1M/passive/episodes.csv":
        "bedc7a8278c83946ccdef98c0a8134aca7d119ed712945c52f39141b5a67fa8b",
    "cell_20N_1M/passive/hist_imbalance.csv":
        "b12c9241cf6c99b3a43cceff3c87d04c345ed31fced24d8871436ce1ddb993bd",
    "cell_20N_1M/passive/hist_is.csv":
        "480f88e6068f4a789792f874121da8913ec38a23eea1641d7714dffab11e43e3",
    "cell_20N_1M/passive/hist_spread.csv":
        "c580fc03bfde23fbbae24f9649f7cc166895e293834a594bbc7cf2f646500e1d",
    "cell_20N_1M/passive/metrics.csv":
        "47d061e85d75571fa59693bb1f15a072e05b97d1f0e3a17e8e03e292472c5d82",
    "cell_20N_1M/random/episodes.csv":
        "8e240cab602d0cd7225ad9989cfc917926a080c7f90e06ba65064d27cb20037b",
    "cell_20N_1M/random/hist_imbalance.csv":
        "8ba44c20bceaae1a393a1322afdfdbcc598c327a855eaf48a9f070166a042dc5",
    "cell_20N_1M/random/hist_is.csv":
        "d4781f5613bc3a8c23a947cc2de74655da6f8ee4286410ce298e360e97959c64",
    "cell_20N_1M/random/hist_spread.csv":
        "e8df64dddcaa0263b87ee7eb4a144b6e7d9faf6c94d1b6ae6d76e7b56c8703d9",
    "cell_20N_1M/random/metrics.csv":
        "4eb0bde62a925053cf2b3b8ebc525312b9932caaa66f28f002a2c599573140fc",
    "cell_20N_1M/rl/episodes.csv":
        "13d8a4a23b76d839c73c0d769012caec4f7e2fdec37d183765510fe3c6c73932",
    "cell_20N_1M/rl/hist_imbalance.csv":
        "3a3e4830466399949444ff699647fec8e84188ac11912a2c6f830991d64698c4",
    "cell_20N_1M/rl/hist_is.csv":
        "766ed089781170e1938b0b44dc5673a95f1b3d710ed7036b522e9209c9e8866c",
    "cell_20N_1M/rl/hist_spread.csv":
        "a2cbff15f206345f6536e2a500cdd51fe45ffecca1a13e4f36e86e78957712a5",
    "cell_20N_1M/rl/metrics.csv":
        "14c69b121591a38b4ee492c2902fd5775d996bc3e7d6cd7044468a9cbb3c7881",
    "cell_20N_1M/ttests.csv":
        "dfa4e4143e5381b045d6a900643ed315ae0ce30d10c4dcbf2f012e2c7a7f7daa",
    "cell_20N_1M/twap/episodes.csv":
        "b8a6b2402cfbd6e86c9433d4fc1e1d7516407825344c7b9c04c65d6c5967165d",
    "cell_20N_1M/twap/hist_imbalance.csv":
        "36aa2490bc8ce0e966731a578d775b3cea4509bfab91f1ce9b96dce35a0dc56b",
    "cell_20N_1M/twap/hist_is.csv":
        "6fc1b72992cc4196aca520db96ce4b200bf2b9130c41d5ef0b52257c8b9f4560",
    "cell_20N_1M/twap/hist_spread.csv":
        "e84f29fa62b5b4518b52ebb10391579fa54cb47a8e3f07e69d7c7a08d78421fa",
    "cell_20N_1M/twap/metrics.csv":
        "fd28c8f7eea66b07b35939869e7aa404d2c30f95634bbe9afe47dc13c5c62058",
}


def output_digest(path):
    lines = path.read_text().splitlines(keepends=True)
    body = "".join(l for l in lines if not l.startswith("# config_hash="))
    return hashlib.sha256(body.encode()).hexdigest()


class TestGoldenDigests:
    @pytest.fixture
    def golden_cfg(self, tmp_path):
        p = tmp_path / "golden.yaml"
        p.write_text(GOLDEN_YAML)
        return p

    def test_train_outputs(self, golden_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(golden_cfg), "--out", str(out)]) == 0
        digests = {name: output_digest(out / "train" / name)
                   for name in GOLDEN_TRAIN_SHA256}
        assert digests == GOLDEN_TRAIN_SHA256

    def test_evaluate_outputs(self, golden_cfg, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        QNetwork((36, 50, 20, 5), np.random.default_rng(0)).save(ckpt)
        out = tmp_path / "run"
        assert main(["evaluate", "--policy", "all", "--checkpoint", str(ckpt),
                     "--config", str(golden_cfg), "--out", str(out)]) == 0
        root = out / "evaluate"
        digests = {str(p.relative_to(root)): output_digest(p)
                   for p in sorted(root.rglob("*.csv"))}
        assert digests == GOLDEN_EVALUATE_SHA256

    def test_benchmark_outputs(self, golden_cfg, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        QNetwork((36, 50, 20, 5), np.random.default_rng(0)).save(ckpt)
        out = tmp_path / "run"
        assert main(["benchmark", "--checkpoint", str(ckpt),
                     "--config", str(golden_cfg), "--out", str(out)]) == 0
        root = out / "benchmark"
        digests = {str(p.relative_to(root)): output_digest(p)
                   for p in sorted(root.rglob("*.csv"))}
        assert digests == GOLDEN_BENCHMARK_SHA256
