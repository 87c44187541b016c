import hashlib
import os

import numpy as np
import pytest

from lobexec.cli import main
from lobexec.dqn import QNetwork

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

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seeed: 1\n")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

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

    def test_int_for_float_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(LITE_YAML.replace("session_seconds: 90",
                                         "session_seconds: 60"))
        assert main(["simulate", "--config", str(cfg), "--duration", "0",
                     "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_rl_without_checkpoint_is_usage_error(self, lite_cfg, tmp_path, capsys):
        assert main(["evaluate", "--policy", "rl", "--config", str(lite_cfg),
                     "--out", str(tmp_path / "o")]) == 1


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

    def test_zero_duration_header_only(self, lite_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(lite_cfg), "--duration", "0",
                     "--out", str(out)]) == 0
        for name in ("snapshots_0.csv", "fills_0.csv", "fundamental_0.csv"):
            lines = (out / "simulate" / name).read_text().strip().splitlines()
            assert len(lines) == 2  # hash comment + column header only

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

    def test_parallel_matches_serial(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", "--policy", "random", "--config", str(lite_cfg),
                     "--out", str(a)]) == 0
        assert main(["evaluate", "--policy", "random", "--config", str(lite_cfg),
                     "--parallel", "2", "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)


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

    def test_reproducible(self, lite_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", str(lite_cfg),
                         "--out", str(out)]) == 0
        assert read_tree(a) == read_tree(b)


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

    def test_failing_cell_gives_exit_3_and_error_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(LITE_YAML.replace("grid: [[20, 1]]",
                                         "grid: [[-5, 1], [20, 1]]"))
        out = tmp_path / "run"
        assert main(["benchmark", "--config", str(cfg), "--episodes", "2",
                     "--out", str(out)]) == 3
        assert (out / "benchmark" / "cell_-5N_1M" / "error.txt").exists()
        assert (out / "benchmark" / "cell_20N_1M" / "metrics.csv").exists()


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


GOLDEN_BENCHMARK_SHA256 = {
    "cell_20N_1M/metrics.csv":
        "5c7ba7da5141bf74a1f9dd6ad0e82ccf6e50d21c0f11240753824ef0436fcf0a",
    "cell_20N_1M/ttests.csv":
        "dfa4e4143e5381b045d6a900643ed315ae0ce30d10c4dcbf2f012e2c7a7f7daa",
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
