"""Command line entry point: simulate | train | evaluate | benchmark.

Every run validates the whole config up front, dumps the effective config
next to its outputs and embeds a config hash in every CSV. Exit codes:
0 success, 1 usage error, 2 config validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
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
from .evaluation import (
    EpisodeError,
    aggregate,
    episodes_csv,
    export_distributions,
    metrics_csv,
    rl_vs_baselines,
    run_experiment,
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

    def experiment(p):  # evaluate and benchmark
        common(p)
        p.add_argument("--checkpoint", type=Path, default=None)
        p.add_argument("--episodes", type=int, default=None)
        p.add_argument("--parallel", type=int, default=None,
                       help="forked worker processes, at most one per seed "
                            "(>= 1; default: one per usable CPU; 1 runs in-process). "
                            "This process's peak RSS does not count the workers'")

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


def _write_csv(path: Path, comment: str, text: str) -> None:
    """Write CSV text under its ``# config_hash=`` comment line."""
    write_text_atomic(path, comment + "\n", text)


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
    if args.resume and curve_path.exists():
        header, rows = body.split("\n", 1)
        old_rows = curve_path.read_text().split("\n", 2)[2]  # after hash, header
        body = f"{header}\n{old_rows}{rows}"
    _write_csv(curve_path, hash_comment(config), body)
    print(f"train: {config.dqn.episodes} episodes, checkpoint -> {checkpoint}")
    return 0


@contextlib.contextmanager
def _episode_map(workers: int):
    """The ``map`` that runs a command's episodes: the builtin one, or that
    of one process pool shared by every policy and cell of the command.

    A pooled command never raises KeyboardInterrupt inside the pool's code,
    where it can leave a lock held and the pool's exit waiting for good. The
    workers are forked with SIGINT blocked and keep it so. Here a SIGINT
    stops the workers, whose loss fails every pending seed, and is raised
    as KeyboardInterrupt from the ``map`` or once the pool has shut."""
    if workers == 1:
        yield map
        return
    # imported here so that serial commands never load multiprocessing
    import signal
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import active_children

    interrupted = []

    def stop_workers(signum, frame):
        interrupted.append(signum)
        for worker in active_children():  # the pool's: the CLI starts no other
            worker.terminate()

    def pooled_map(fn, *iterables):
        try:
            yield from pool.map(fn, *iterables)
        except BrokenProcessPool:
            if not interrupted:
                raise
        if interrupted:
            raise KeyboardInterrupt

    # Python runs signal handlers, and raises KeyboardInterrupt, in the main
    # thread only, and a SIGINT that this process ignores (as a shell leaves
    # it for a background job) stays ignored: then the pool needs no handler
    handle = (threading.current_thread() is threading.main_thread()
              and signal.getsignal(signal.SIGINT) is not signal.SIG_IGN)
    unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    previous = signal.signal(signal.SIGINT, stop_workers) if handle else None
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pool.submit(int).result()  # forks every worker
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
            yield pooled_map
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        if handle:
            signal.signal(signal.SIGINT, previous)
    if interrupted:
        raise KeyboardInterrupt


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _experiment_setup(args, config: RunConfig, policies, sub: str):
    """Checks, output dir, dumped config, hash line, seeds, the rl net,
    loaded once for the whole command, and the worker count: ``--parallel``,
    else the usable CPUs, and never more than the seeds."""
    if "rl" in policies and args.checkpoint is None:
        raise UsageError("--checkpoint is required for the rl policy")
    if args.parallel is not None and args.parallel < 1:
        raise UsageError(f"--parallel must be >= 1, got {args.parallel}")
    net = None
    if "rl" in policies:
        # before the output dir, so a rejected checkpoint leaves no files
        net = QNetwork.load(args.checkpoint)[0]
        check_sizes(net, (config.exec.obs_dim, *config.dqn.hidden, config.exec.n_actions))
    out = _out_dir(args, config, sub)
    dump_config(config, out / "config_used.yaml")
    seeds = list(range(config.seed, config.seed + config.eval.episodes))
    workers = min(args.parallel or _usable_cpus(), len(seeds))
    return out, hash_comment(config), seeds, net, workers


def cmd_evaluate(args) -> int:
    config = _load(args)
    policies = list(config.eval.policies) if args.policy == "all" else [args.policy]
    out, comment, seeds, net, workers = _experiment_setup(args, config, policies,
                                                          "evaluate")
    with _episode_map(workers) as map_fn:
        by_policy = run_experiment(policies, config.exec, config.market, seeds,
                                   net, map_fn)
    for policy, results in by_policy.items():
        pdir = out / policy
        pdir.mkdir(exist_ok=True)
        _write_csv(pdir / "episodes.csv", comment, episodes_csv(results))
        _write_csv(pdir / "metrics.csv", comment,
                   metrics_csv(aggregate({policy: results})))
        for name, text in export_distributions(results, config.eval.bins).items():
            _write_csv(pdir / name, comment, text)
        print(f"evaluate: {policy} done over {len(seeds)} seeds")
    tests = rl_vs_baselines(by_policy)
    if tests:
        _write_csv(out / "ttests.csv", comment, ttests_csv(tests))
    _write_csv(out / "metrics.csv", comment, metrics_csv(aggregate(by_policy)))
    return 0


def cmd_benchmark(args) -> int:
    config = _load(args)
    policies = list(config.eval.policies)
    out, comment, seeds, net, workers = _experiment_setup(args, config, policies,
                                                          "benchmark")
    failures = 0
    with _episode_map(workers) as map_fn:
        for n_noise, n_momentum in config.eval.grid:
            cell = {"n_noise": n_noise, "n_momentum": n_momentum}
            cdir = out / f"cell_{n_noise}N_{n_momentum}M"
            cdir.mkdir(exist_ok=True)
            try:
                market = dataclasses.replace(config.market, **cell)
                by_policy = run_experiment(policies, config.exec, market, seeds,
                                           net, map_fn)
                rows, tests = aggregate(by_policy), rl_vs_baselines(by_policy)
            except Exception as exc:  # keep running the remaining cells
                error = _describe(exc)
                write_text_atomic(cdir / "error.txt", error + "\n")
                print(f"benchmark: {cdir.name} FAILED: {error}", file=sys.stderr)
                failures += 1
                continue
            _write_csv(cdir / "metrics.csv", comment, metrics_csv(rows, extra_cols=cell))
            _write_csv(cdir / "ttests.csv", comment, ttests_csv(tests, extra_cols=cell))
            print(f"benchmark: {cdir.name} done")
    return 3 if failures else 0


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
                   "evaluate": cmd_evaluate, "benchmark": cmd_benchmark}[args.command]
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
