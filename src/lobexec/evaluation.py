"""Experiment runner and statistics: per-episode execution metrics,
aggregate tables, histogram exports and one-sided pooled-variance t-tests.

One (seed, policy) episode is the unit of work. Every policy plays the
same seeded market, so a process builds a seed's session and runs its
warm-up once, to the instant `ExecutionEnv` itself warms to, and plays the
seed's episodes from ``MarketSession.fork``s of it; the seed's last policy
takes the original. An episode on a fork is the episode on a fresh
session, byte for byte. Episodes are independent and deterministic, so
``run_experiment`` may hand them out to forked worker processes as each
one frees up; results are always ordered by seed, making parallel and
serial runs byte-identical downstream.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
from dataclasses import dataclass, field
from functools import cache, partial

from ._csv import csv_text
from .dqn import QNetwork
from .execenv import ExecConfig, ExecutionEnv
from .kernel import MarketConfig, MarketSession
from .strategies import Policy, make_policy


@dataclass
class EpisodeResult:
    policy: str
    seed: int
    is_norm: float        # normalized IS, cents/share; positive = beat arrival
    pen_norm: float       # all penalties, normalized by parent size (<= 0)
    t_frac: float         # completion time fraction of the window
    spreads: list = field(default_factory=list)       # at execution instants
    imbalances: list = field(default_factory=list)    # side imbalance, k=1


@dataclass
class MetricsRow:
    policy: str
    n: int
    mean_is: float
    mean_pen: float
    mean_t: float
    var_is: float


@dataclass
class TTestResult:
    t: float
    df: int
    critical: float   # one-sided critical value at ALPHA
    reject: bool


# -- Student-t quantiles (embedded, no external statistics dependency) ------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: int) -> float:
    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    tail = 0.5 * _betainc(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


@cache
def t_ppf(p: float, df: int) -> float:
    """Student-t quantile via bisection on the CDF; |error| < 1e-9.

    The bisection stops once the midpoint equals ``lo`` or ``hi``: from
    there on no step moves either end, so the result is that of all 200
    steps. Results are cached by (p, df)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_ppf(1.0 - p, df)
    lo, hi = 0.0, 1e3
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ALPHA = 0.05  # the one-sided significance level of every test


def pooled_t_test(sample_a, sample_b) -> TTestResult:
    """One-sided two-sample test of mean(a) > mean(b), pooled variance."""
    na, nb = len(sample_a), len(sample_b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least 2 observations")
    ma = sum(sample_a) / na
    mb = sum(sample_b) / nb
    va = sum((x - ma) ** 2 for x in sample_a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in sample_b) / (nb - 1)
    df = na + nb - 2
    sp2 = ((na - 1) * va + (nb - 1) * vb) / df
    critical = t_ppf(1.0 - ALPHA, df)
    if sp2 == 0.0:
        t = 0.0 if ma == mb else math.copysign(math.inf, ma - mb)
    else:
        t = (ma - mb) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    return TTestResult(t=t, df=df, critical=critical, reject=t > critical)


# -- episode running ---------------------------------------------------------

class EpisodeError(RuntimeError):
    """An episode raised; the message names its seed and policy, then the
    error, as in ``seed 3, policy twap: RuntimeError: ...``."""


def run_episode(policy: Policy, exec_config: ExecConfig, market: MarketSession,
                seed: int) -> EpisodeResult:
    """Play one full execution window of ``policy`` on ``market``, the
    session of ``seed``, built fresh or already run through the warm-up."""
    policy.reset(seed)
    env = ExecutionEnv(exec_config, lambda s: market)
    obs = env.reset(seed)
    spreads: list[int] = []
    imbalances: list[float] = []
    while not env.done:
        action = policy.act(env.t, obs)
        pre_spread = market.book.spread()
        pre_imb = market.book.imbalances(env.side, 1)[0]
        out = env.step(action)
        if out.info["filled"] > 0:
            if pre_spread is not None:
                spreads.append(pre_spread)
            imbalances.append(pre_imb)
        obs = out.observation
    return EpisodeResult(policy=policy.name, seed=seed,
                         is_norm=env.episode_shortfall(),
                         pen_norm=env.episode_penalty(),
                         t_frac=env.completion_fraction(),
                         spreads=spreads, imbalances=imbalances)


def play_episode(exec_config: ExecConfig, market_config: MarketConfig, warm: dict,
                 seed: int, policy: Policy, last: bool) -> EpisodeResult:
    """``policy``'s episode on ``seed``'s market. ``warm`` holds this
    process's last warmed session, ``{seed: session}``; the episode plays a
    fork of it, or with ``last`` the session itself. An error in the warm-up
    or the episode raises ``EpisodeError``, charged to ``policy``."""
    try:
        if seed not in warm:
            warm.clear()
            session = MarketSession(market_config, seed)
            session.run_until(exec_config.start_ns)
            warm[seed] = session
        market = warm.pop(seed) if last else warm[seed].fork()
        return run_episode(policy, exec_config, market, seed)
    except Exception as exc:
        raise EpisodeError(f"seed {seed}, policy {policy.name}: "
                           f"{type(exc).__name__}: {exc}") from exc


def _pull(play, episodes: list, per_seed: int, workers: int) -> list:
    """``[play(*e) for e in episodes]`` over ``workers`` forked processes;
    ``episodes`` run seed by seed, ``per_seed`` to a seed.

    A worker reads an episode's index from its own task pipe, plays it and
    pickles ``(index, result or exception)`` into its own result pipe. A
    free worker gets the next pending episode of the seed it last warmed,
    else the first of a seed no worker holds, else the first pending one.
    The earliest failing episode's error is raised once every earlier one
    has a result. A worker ends in ``os._exit``, on end-of-file of its task
    pipe, or at its next write once the parent is gone. The parent kills
    and reaps every worker on every exit.
    """
    n = len(episodes)
    nxt = list(range(0, n, per_seed))  # each seed's next episode to hand out
    holder = [-1] * workers            # the seed each worker last warmed
    fresh, limit = 0, n                # the first untouched seed; the first failure
    results = [None] * n

    def hand(w):
        nonlocal fresh
        for k in (holder[w], fresh, *sorted(holder)):
            if 0 <= k < len(nxt) and nxt[k] < min(limit, (k + 1) * per_seed):
                tasks[w].write(b"%d\n" % nxt[k])
                nxt[k] += 1
                holder[w] = k if nxt[k] < (k + 1) * per_seed else -1
                fresh = max(fresh, k + 1)
                busy[inboxes[w]] = w
                return

    parent = os.getpid()
    pids, tasks, inboxes, busy = [], [], [], {}
    try:
        for w in range(workers):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            tasks.append(open(task_write, "wb", buffering=0))
            inboxes.append(open(result_read, "rb"))
            pid = os.fork()
            if pid == 0:
                for end in (*tasks, *inboxes):  # so its reads and writes can fail
                    end.close()
                with open(task_read, "rb") as todo, open(result_write, "wb") as out:
                    for line in todo:
                        try:
                            result = play(*episodes[int(line)])
                        except Exception as exc:
                            result = exc
                        pickle.dump((int(line), result), out)
                        out.flush()
                os._exit(0)
            pids.append(pid)
            os.close(task_read)
            os.close(result_write)
            hand(w)
        while None in results[:limit]:
            for inbox in select.select(list(busy), [], [])[0]:
                w = busy.pop(inbox)
                try:
                    i, results[i] = pickle.load(inbox)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"worker {pids[w]} ended without "
                                       "a result") from None
                if isinstance(results[i], Exception):
                    limit = min(limit, i)
                hand(w)
        if limit < n:
            raise results[limit]
        return results
    finally:
        if os.getpid() != parent:  # a worker that raised: Ctrl-C or a lost pipe
            os._exit(1)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for end in (*tasks, *inboxes):
            end.close()


def run_experiment(policy_names, exec_config: ExecConfig,
                   market_config: MarketConfig, seeds,
                   net: QNetwork | None = None,
                   workers: int = 1) -> dict[str, list[EpisodeResult]]:
    """Each policy's EpisodeResults, one per seed and ordered by seed,
    keyed by policy in ``policy_names`` order. The policies are built before
    any market; the episodes run in-process with one worker, else on
    ``min(workers, episodes)`` forked ones."""
    names = list(policy_names)
    if not names or len(set(names)) < len(names):
        raise ValueError(f"policy names must be nonempty and distinct, got {names}")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    policies = [make_policy(name, exec_config, net) for name in names]
    play = partial(play_episode, exec_config, market_config, {})
    episodes = [(seed, policy, policy is policies[-1])
                for seed in sorted(seeds) for policy in policies]
    workers = min(workers, len(episodes))
    results = ([play(*episode) for episode in episodes] if workers == 1
               else _pull(play, episodes, len(policies), workers))
    return {name: results[i::len(names)] for i, name in enumerate(names)}


def aggregate(by_policy: dict[str, list[EpisodeResult]]) -> list[MetricsRow]:
    """Table-style aggregates per policy of ``{policy: results}`` (as
    ``run_experiment`` returns): E(IS), E(Pen), E(T), var(IS)."""
    rows = []
    for policy, group in by_policy.items():
        n = len(group)
        if n < 2:
            raise ValueError(f"policy {policy!r} needs >= 2 episodes, got {n}")
        mean_is = sum(r.is_norm for r in group) / n
        var_is = sum((r.is_norm - mean_is) ** 2 for r in group) / (n - 1)
        rows.append(MetricsRow(
            policy=policy, n=n, mean_is=mean_is,
            mean_pen=sum(r.pen_norm for r in group) / n,
            mean_t=sum(r.t_frac for r in group) / n,
            var_is=var_is))
    return rows


def histogram(values, bins: int):
    """Equal-width bins over [min, max]; returns (edges, counts)."""
    if not values:
        raise ValueError("no observations to histogram")
    lo, hi = min(values), max(values)
    if lo == hi:
        hi = lo + 1.0
    width = (hi - lo) / bins
    edges = [lo + i * width for i in range(bins + 1)]
    counts = [0] * bins
    for v in values:
        i = min(int((v - lo) / width), bins - 1)
        counts[i] += 1
    return edges, counts


def histogram_csv(values, bins: int) -> str:
    edges, counts = histogram(values, bins)
    return csv_text(["bin_lo", "bin_hi", "count"],
                    ((repr(edges[i]), repr(edges[i + 1]), count)
                     for i, count in enumerate(counts)))


def export_distributions(results: list[EpisodeResult], bins: int) -> dict[str, str]:
    """Histogram CSV text per metric: IS plus spread/imbalance at fills."""
    out = {}
    out["hist_is.csv"] = histogram_csv([r.is_norm for r in results], bins)
    spreads = [s for r in results for s in r.spreads]
    if spreads:
        out["hist_spread.csv"] = histogram_csv(spreads, bins)
    imbalances = [v for r in results for v in r.imbalances]
    if imbalances:
        out["hist_imbalance.csv"] = histogram_csv(imbalances, bins)
    return out


def episodes_csv(results: list[EpisodeResult]) -> str:
    return csv_text(["policy", "seed", "is_norm", "pen_norm", "t_frac"],
                    ((r.policy, r.seed, repr(r.is_norm), repr(r.pen_norm),
                      repr(r.t_frac)) for r in results))


def metrics_csv(rows: list[MetricsRow], extra_cols: dict | None = None) -> str:
    extra = extra_cols or {}
    return csv_text([*extra.keys(), "policy", "n", "mean_is", "mean_pen",
                     "mean_t", "var_is"],
                    ((*extra.values(), r.policy, r.n, repr(r.mean_is),
                      repr(r.mean_pen), repr(r.mean_t), repr(r.var_is))
                     for r in rows))


def ttests_csv(tests: dict[str, TTestResult], extra_cols: dict | None = None) -> str:
    extra = extra_cols or {}
    return csv_text([*extra.keys(), "comparison", "t", "df", "critical", "reject"],
                    ((*extra.values(), name, repr(res.t), res.df,
                      repr(res.critical), res.reject)
                     for name, res in tests.items()))


def rl_vs_baselines(by_policy: dict[str, list[EpisodeResult]]) -> dict[str, TTestResult]:
    """One-sided tests over ``{policy: results}``: is RL's mean IS greater
    than each baseline's?"""
    if "rl" not in by_policy:
        return {}
    rl = [r.is_norm for r in by_policy["rl"]]
    return {f"rl_vs_{name}": pooled_t_test(rl, [r.is_norm for r in group])
            for name, group in by_policy.items() if name != "rl"}


def experiment_csvs(by_policy: dict[str, list[EpisodeResult]], bins: int,
                    extra_cols: dict) -> dict[str, str]:
    """Every CSV body of one experiment, keyed by its path relative to the
    experiment's directory: each policy's episodes, metrics and histograms,
    then ``ttests.csv`` when rl played, then the metrics of every policy.
    ``extra_cols`` lead each metrics and t-test row."""
    files = {}
    for policy, results in by_policy.items():
        files[f"{policy}/episodes.csv"] = episodes_csv(results)
        files[f"{policy}/metrics.csv"] = metrics_csv(aggregate({policy: results}),
                                                     extra_cols)
        for name, text in export_distributions(results, bins).items():
            files[f"{policy}/{name}"] = text
    tests = rl_vs_baselines(by_policy)
    if tests:
        files["ttests.csv"] = ttests_csv(tests, extra_cols)
    files["metrics.csv"] = metrics_csv(aggregate(by_policy), extra_cols)
    return files
