"""Command line entry point: simulate | train | evaluate | benchmark.

Every run validates the whole config up front, dumps the effective config
next to its outputs and embeds a config hash in every CSV. Exit codes:
0 success, 1 usage error, 2 config validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys
from pathlib import Path

from ._io import open_atomic, write_text_atomic
from .config import ConfigError, RunConfig, dump_config, hash_comment, load_config
from .dqn import (
    QNetwork,
    TrainingDivergedError,
    check_sizes,
    learning_curve_csv,
    train,
)
from .evaluation import EpisodeError, experiment_csvs, run_experiment
from .execenv import ExecutionEnv
from .kernel import MarketSession, SessionLog, kernel_run
from .strategies import POLICY_NAMES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; spec wants 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="lobexec",
                     description="Multi-agent LOB market simulator with an "
                                 "RL optimal-execution workflow")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default $LOBEXEC_OUT or ./results)")

    def experiment(p):  # evaluate and benchmark
        common(p)
        p.add_argument("--checkpoint", type=Path, default=None)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--parallel", type=int, default=None,
                       help="worker processes, forked per experiment (benchmark: "
                            "per grid cell), at most one per episode (>= 1; default: "
                            "one per usable CPU; 1 runs in-process). A worker dies "
                            "within one episode of this process, whose peak RSS "
                            "does not count the workers'")

    p = sub.add_parser("simulate", help="run background-only market sessions")
    common(p)
    p.add_argument("--n-seeds", type=int, default=1,
                   help="number of consecutive seeds to simulate (>= 1)")
    p.add_argument("--duration", type=float, default=None,
                   help="session length in seconds, >= 0 (0 = header-only CSVs)")

    p = sub.add_parser("train", help="train the DQN execution agent")
    common(p)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="initial learning rate")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the output directory")

    p = sub.add_parser("evaluate", help="evaluate a policy over seeded episodes")
    experiment(p)
    p.add_argument("--policy", required=True,
                   choices=[*POLICY_NAMES, "all"])

    experiment(sub.add_parser("benchmark", help="sweep agent-population grid cells"))
    return parser


def _load(args) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "episodes", None) is not None:
        if args.command == "train":
            overrides["dqn.episodes"] = args.episodes
        else:
            overrides["eval.episodes"] = args.episodes
    if getattr(args, "lr", None) is not None:
        overrides["dqn.schedules.lr_start"] = args.lr
    if getattr(args, "duration", None) is not None and args.duration > 0:
        overrides["market.session_seconds"] = args.duration
    return load_config(args.config, overrides)


def _out_dir(args, config: RunConfig, sub: str) -> Path:
    root = args.out or Path(os.environ.get("LOBEXEC_OUT", config.out_dir))
    out = Path(root) / sub
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    if args.n_seeds < 1:
        raise UsageError(f"--n-seeds must be >= 1, got {args.n_seeds}")
    if args.duration is not None and not 0 <= args.duration < math.inf:  # and nan
        raise UsageError(f"--duration must be finite and >= 0, got {args.duration}")
    config = _load(args)
    out = _out_dir(args, config, "simulate")
    dump_config(config, out / "config_used.yaml")
    comment = hash_comment(config) + "\n"
    for seed in range(config.seed, config.seed + args.n_seeds):
        # the session writes its rows into the .tmp files as it runs; all
        # three are renamed only once the seed has ended
        with open_atomic(*(out / f"{name}_{seed}.csv"
                           for name in ("snapshots", "fills", "fundamental"))) as sinks:
            for sink in sinks:
                sink.write(comment)
            if args.duration is not None and args.duration == 0:
                log = SessionLog(config.market.depth, sinks)
            else:
                log = kernel_run(config.market, seed, sinks)
        print(f"simulate: seed {seed} -> {log.n_snapshots} snapshots, "
              f"{log.n_fills} fills")
    return 0


def _env_factory(config: RunConfig):
    exec_cfg, market_cfg = config.exec, config.market

    def factory():
        return ExecutionEnv(exec_cfg, lambda s: MarketSession(market_cfg, s))
    return factory


def cmd_train(args) -> int:
    config = _load(args)
    out = _out_dir(args, config, "train")
    checkpoint = out / "checkpoint.json"
    curve_path = out / "learning_curve.csv"
    hidden = tuple(config.dqn.hidden)

    net = None
    start_episode = 0
    env_steps = grad_steps = 0
    if args.resume and checkpoint.exists():
        net, meta = QNetwork.load(checkpoint)
        # before dump_config, so a rejected resume leaves the run's files as they were
        check_sizes(net, (config.exec.obs_dim, *hidden, config.exec.n_actions))
        if meta.get("seed") != config.seed:
            raise ValueError(f"checkpoint was trained with seed {meta.get('seed')}, "
                             f"config has seed {config.seed}")
        start_episode = int(meta.get("episode", 0))
        env_steps = int(meta.get("env_steps", 0))
        grad_steps = int(meta.get("grad_steps", 0))
        print(f"train: resuming from episode {start_episode}")
    dump_config(config, out / "config_used.yaml")

    try:
        result = train(_env_factory(config), config.dqn.schedules,
                       config.dqn.episodes, config.seed, net=net,
                       obs_dim=config.exec.obs_dim,
                       n_actions=config.exec.n_actions,
                       hidden=hidden,
                       start_episode=start_episode,
                       checkpoint_path=checkpoint,
                       env_steps=env_steps, grad_steps=grad_steps)
    except TrainingDivergedError as exc:
        print(f"train: aborted, {exc}; last good checkpoint kept at {checkpoint}",
              file=sys.stderr)
        return 3
    body = learning_curve_csv(result.curve)
    if net is not None and curve_path.exists():  # a resumed run extends its curve
        header, rows = body.split("\n", 1)
        old_rows = curve_path.read_text().split("\n", 2)[2]  # after hash, header
        body = f"{header}\n{old_rows}{rows}"
    write_text_atomic(curve_path, hash_comment(config) + "\n", body)
    if result.lr_zero_episode is not None:
        print(f"train: lr reached 0 at episode {result.lr_zero_episode}")
    print(f"train: {config.dqn.episodes} episodes, checkpoint -> {checkpoint}")
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_experiment(args) -> int:
    """``evaluate``: one experiment on the config's market, into the output
    dir. ``benchmark``: one per ``eval.grid`` cell, each into its own cell
    dir, after removing all but ``config_used.yaml`` and those cells. Each
    empties its dir but ``config_used.yaml`` before it writes; a failed cell
    holds only its ``error.txt``, and later cells still run."""
    config = _load(args)
    bench = args.command == "benchmark"
    policy = getattr(args, "policy", "all")  # benchmark plays every policy
    policies = list(config.eval.policies) if policy == "all" else [policy]
    if "rl" in policies and args.checkpoint is None:
        raise UsageError("--checkpoint is required for the rl policy")
    if args.parallel is not None and args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")
    net = None
    if "rl" in policies:
        # loaded once, before the output dir, so a rejected checkpoint leaves no files
        net = QNetwork.load(args.checkpoint)[0]
        check_sizes(net, (config.exec.obs_dim, *config.dqn.hidden, config.exec.n_actions))
    out = _out_dir(args, config, args.command)
    dump_config(config, out / "config_used.yaml")
    comment = hash_comment(config) + "\n"
    seeds = list(range(config.seed, config.seed + config.eval.episodes))
    workers = args.parallel or _usable_cpus()
    cells = [(out / f"cell_{n}N_{m}M", {"n_noise": n, "n_momentum": m})
             for n, m in config.eval.grid] if bench else [(out, {})]
    keep = {out / "config_used.yaml"}
    if bench:  # an earlier grid's cells
        _clear(out, keep.union(cdir for cdir, _ in cells))
    failures = 0
    for cdir, cell in cells:
        try:
            market = dataclasses.replace(config.market, **cell)
            by_policy = run_experiment(policies, config.exec, market, seeds, net,
                                       workers)
            files = {name: comment + text for name, text in
                     experiment_csvs(by_policy, config.eval.bins, cell).items()}
        except Exception as exc:
            if not bench:
                raise
            error = _describe(exc)
            print(f"benchmark: {cdir.name} FAILED: {error}", file=sys.stderr)
            failures += 1
            files = {"error.txt": error + "\n"}
        else:
            print(f"{args.command}: {cdir.name if bench else ', '.join(policies)} "
                  f"done over {len(seeds)} seeds")
        _clear(cdir, keep)  # the previous run's files
        for name, text in files.items():
            (cdir / name).parent.mkdir(parents=True, exist_ok=True)
            write_text_atomic(cdir / name, text)
    return 3 if failures else 0


def _clear(path: Path, keep: set) -> None:
    """Remove every entry of ``path`` but those in ``keep``."""
    for old in set(path.glob("*")) - keep:
        (shutil.rmtree if old.is_dir() else Path.unlink)(old)


def _describe(exc: Exception) -> str:
    """An error as the CLI reports it: ``Type: message``, or for a failed
    episode its own message, which names the seed, the policy and the cause."""
    if isinstance(exc, EpisodeError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"simulate": cmd_simulate, "train": cmd_train,
                   "evaluate": cmd_experiment, "benchmark": cmd_experiment}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
