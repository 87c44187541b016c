"""Command line entry point: simulate | train | evaluate | benchmark.

Every run validates the whole config up front, dumps the effective config
next to its outputs and embeds a config hash in every CSV. Exit codes:
0 success, 1 usage error, 2 config validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, dump_config, hash_comment, load_config
from .dqn import QNetwork, TrainingDivergedError, learning_curve_csv, train
from .evaluation import (
    aggregate,
    episodes_csv,
    export_distributions,
    metrics_csv,
    rl_vs_baselines,
    run_experiment,
    sweep,
    ttests_csv,
)
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

    p = sub.add_parser("simulate", help="run background-only market sessions")
    common(p)
    p.add_argument("--n-seeds", type=int, default=1,
                   help="number of consecutive seeds to simulate")
    p.add_argument("--duration", type=float, default=None,
                   help="session length in seconds (0 = header-only CSVs)")

    p = sub.add_parser("train", help="train the DQN execution agent")
    common(p)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="initial learning rate")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the output directory")

    p = sub.add_parser("evaluate", help="evaluate a policy over seeded episodes")
    common(p)
    p.add_argument("--policy", required=True,
                   choices=[*POLICY_NAMES, "all"])
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--parallel", type=int, default=1)

    p = sub.add_parser("benchmark", help="sweep agent-population grid cells")
    common(p)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--parallel", type=int, default=1)
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


def _write_csv(path: Path, comment: str, text: str) -> None:
    """Write CSV text under its ``# config_hash=`` comment line."""
    path.write_text(comment + "\n" + text)


def cmd_simulate(args) -> int:
    config = _load(args)
    out = _out_dir(args, config, "simulate")
    dump_config(config, out / "config_used.yaml")
    comment = hash_comment(config)
    for seed in range(config.seed, config.seed + args.n_seeds):
        if args.duration is not None and args.duration == 0:
            log = SessionLog()
        else:
            log = kernel_run(config.market, seed)
        _write_csv(out / f"snapshots_{seed}.csv", comment,
                   log.snapshots_csv(config.market.depth))
        _write_csv(out / f"fills_{seed}.csv", comment, log.fills_csv())
        _write_csv(out / f"fundamental_{seed}.csv", comment, log.fundamental_csv())
        print(f"simulate: seed {seed} -> {len(log.snapshots)} snapshots, "
              f"{len(log.fills)} fills")
    return 0


def _env_factory(config: RunConfig):
    exec_cfg, market_cfg = config.exec, config.market

    def factory():
        return ExecutionEnv(exec_cfg, lambda s: MarketSession(market_cfg, s))
    return factory


def cmd_train(args) -> int:
    config = _load(args)
    out = _out_dir(args, config, "train")
    dump_config(config, out / "config_used.yaml")
    checkpoint = out / "checkpoint.json"
    curve_path = out / "learning_curve.csv"

    net = None
    start_episode = 0
    env_steps = grad_steps = 0
    if args.resume and checkpoint.exists():
        net, meta = QNetwork.load(checkpoint)
        start_episode = int(meta.get("episode", 0))
        env_steps = int(meta.get("env_steps", 0))
        grad_steps = int(meta.get("grad_steps", 0))
        print(f"train: resuming from episode {start_episode}")

    try:
        result = train(_env_factory(config), config.dqn.schedules,
                       config.dqn.episodes, config.seed, net=net,
                       obs_dim=config.exec.obs_dim,
                       n_actions=config.exec.n_actions,
                       hidden=tuple(config.dqn.hidden),
                       start_episode=start_episode,
                       checkpoint_path=checkpoint,
                       env_steps=env_steps, grad_steps=grad_steps)
    except TrainingDivergedError as exc:
        print(f"train: aborted, {exc}; last good checkpoint kept at {checkpoint}",
              file=sys.stderr)
        return 3
    body = learning_curve_csv(result.curve)
    if args.resume and curve_path.exists():
        curve_path.write_text(curve_path.read_text() + body.split("\n", 1)[1])
    else:
        _write_csv(curve_path, hash_comment(config), body)
    print(f"train: {config.dqn.episodes} episodes, checkpoint -> {checkpoint}")
    return 0


def _eval_policies(args, config: RunConfig) -> list[str]:
    if args.policy == "all":
        return list(config.eval.policies)
    return [args.policy]


def cmd_evaluate(args) -> int:
    config = _load(args)
    policies = _eval_policies(args, config)
    if "rl" in policies and args.checkpoint is None:
        raise UsageError("--checkpoint is required for the rl policy")
    out = _out_dir(args, config, "evaluate")
    dump_config(config, out / "config_used.yaml")
    comment = hash_comment(config)
    seeds = list(range(config.seed, config.seed + config.eval.episodes))
    checkpoint = str(args.checkpoint) if args.checkpoint else None

    all_results = []
    for policy in policies:
        results = run_experiment(policy, config.exec, config.market, seeds,
                                 checkpoint if policy == "rl" else None,
                                 parallel=args.parallel)
        all_results.extend(results)
        pdir = out / policy
        pdir.mkdir(exist_ok=True)
        _write_csv(pdir / "episodes.csv", comment, episodes_csv(results))
        _write_csv(pdir / "metrics.csv", comment, metrics_csv(aggregate(results)))
        for name, text in export_distributions(results, config.eval.bins).items():
            _write_csv(pdir / name, comment, text)
        print(f"evaluate: {policy} done over {len(seeds)} seeds")
    tests = rl_vs_baselines(all_results)
    if tests:
        _write_csv(out / "ttests.csv", comment, ttests_csv(tests))
    _write_csv(out / "metrics.csv", comment, metrics_csv(aggregate(all_results)))
    return 0


def cmd_benchmark(args) -> int:
    config = _load(args)
    policies = list(config.eval.policies)
    checkpoint = str(args.checkpoint) if args.checkpoint else None
    if "rl" in policies and checkpoint is None:
        raise UsageError("--checkpoint is required while 'rl' is in eval.policies")
    out = _out_dir(args, config, "benchmark")
    dump_config(config, out / "config_used.yaml")
    comment = hash_comment(config)
    seeds = list(range(config.seed, config.seed + config.eval.episodes))

    failures = 0
    for cell, rows, tests, error in sweep(config.eval.grid, policies, config.exec,
                                          config.market, seeds, checkpoint,
                                          parallel=args.parallel):
        name = f"cell_{cell['n_noise']}N_{cell['n_momentum']}M"
        cdir = out / name
        cdir.mkdir(exist_ok=True)
        if error is not None:
            (cdir / "error.txt").write_text(error + "\n")
            print(f"benchmark: {name} FAILED: {error}", file=sys.stderr)
            failures += 1
            continue
        _write_csv(cdir / "metrics.csv", comment, metrics_csv(rows, extra_cols=cell))
        _write_csv(cdir / "ttests.csv", comment, ttests_csv(tests, extra_cols=cell))
        print(f"benchmark: {name} done")
    return 3 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"simulate": cmd_simulate, "train": cmd_train,
                   "evaluate": cmd_evaluate, "benchmark": cmd_benchmark}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
