"""Experiment runner and statistics: per-episode execution metrics,
aggregate tables, histogram exports and one-sided pooled-variance t-tests.

Episodes are independent and seed-deterministic, so they may run in a
process pool; results are always ordered by seed, making parallel and
serial runs byte-identical downstream.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ._csv import csv_text
from .dqn import QNetwork
from .execenv import ExecConfig, ExecutionEnv
from .kernel import MarketConfig, MarketSession
from .strategies import make_policy


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
    critical: float   # one-sided 5% critical value
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


def t_ppf(p: float, df: int) -> float:
    """Student-t quantile via bisection on the CDF; |error| < 1e-9."""
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
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pooled_t_test(sample_a, sample_b, alpha: float = 0.05) -> TTestResult:
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
    critical = t_ppf(1.0 - alpha, df)
    if sp2 == 0.0:
        t = 0.0 if ma == mb else math.copysign(math.inf, ma - mb)
    else:
        t = (ma - mb) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    return TTestResult(t=t, df=df, critical=critical, reject=t > critical)


# -- episode running ---------------------------------------------------------

def run_episode(policy_name: str, exec_config: ExecConfig,
                market_config: MarketConfig, seed: int,
                net: QNetwork | None = None) -> EpisodeResult:
    """Play one full execution window with the given policy."""
    policy = make_policy(policy_name, exec_config, net)
    policy.reset(seed)
    env = ExecutionEnv(exec_config, lambda s: MarketSession(market_config, s))
    obs = env.reset(seed)
    spreads: list[int] = []
    imbalances: list[float] = []
    while not env.done:
        action = policy.act(env.t, obs, env)
        pre_spread = env.book.spread()
        pre_imb = env.book.imbalances(env.side, 1)[0]
        out = env.step(action)
        if out.info["filled"] > 0:
            if pre_spread is not None:
                spreads.append(pre_spread)
            imbalances.append(pre_imb)
        obs = out.observation
    return EpisodeResult(policy=policy_name, seed=seed,
                         is_norm=env.episode_shortfall(),
                         pen_norm=env.episode_penalty(),
                         t_frac=env.completion_fraction(),
                         spreads=spreads, imbalances=imbalances)


def _run_episode_task(args) -> EpisodeResult:
    return run_episode(*args)


def run_experiment(policy_name: str, exec_config: ExecConfig,
                   market_config: MarketConfig, seeds,
                   checkpoint: str | None = None,
                   parallel: int = 1) -> list[EpisodeResult]:
    """One EpisodeResult per seed, ordered by seed regardless of parallelism."""
    if not seeds:
        raise ValueError("seeds must be nonempty")
    net = None
    if policy_name == "rl":
        if checkpoint is None:
            raise ValueError("rl policy requires a checkpoint")
        net, _ = QNetwork.load(checkpoint)
    tasks = [(policy_name, exec_config, market_config, s, net) for s in sorted(seeds)]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_episode_task, tasks))
    else:
        results = [_run_episode_task(t) for t in tasks]
    return results


def aggregate(results: list[EpisodeResult]) -> list[MetricsRow]:
    """Table-style aggregates per policy: E(IS), E(Pen), E(T), var(IS)."""
    by_policy: dict[str, list[EpisodeResult]] = {}
    for r in results:
        by_policy.setdefault(r.policy, []).append(r)
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


def rl_vs_baselines(results: list[EpisodeResult]) -> dict[str, TTestResult]:
    """One-sided tests: is RL's mean IS greater than each baseline's?"""
    by_policy: dict[str, list[float]] = {}
    for r in results:
        by_policy.setdefault(r.policy, []).append(r.is_norm)
    if "rl" not in by_policy:
        return {}
    rl = by_policy["rl"]
    return {f"rl_vs_{name}": pooled_t_test(rl, sample)
            for name, sample in by_policy.items() if name != "rl"}


def sweep(grid, policies, exec_config: ExecConfig, market_config: MarketConfig,
          seeds, checkpoint: str | None = None, parallel: int = 1):
    """Run every (n_noise, n_momentum) grid cell for every policy.

    Returns a list of (cell, metrics rows, t-test dict, error-or-None);
    a failing cell is reported and the remaining cells continue.
    """
    out = []
    for n_noise, n_momentum in grid:
        cell = {"n_noise": n_noise, "n_momentum": n_momentum}
        try:
            cfg = MarketConfig(**{**market_config.__dict__,
                                  "n_noise": n_noise, "n_momentum": n_momentum})
            results: list[EpisodeResult] = []
            for policy in policies:
                results.extend(run_experiment(policy, exec_config, cfg, seeds,
                                              checkpoint, parallel))
            out.append((cell, aggregate(results), rl_vs_baselines(results), None))
        except Exception as exc:  # keep sweeping the remaining cells
            out.append((cell, [], {}, f"{type(exc).__name__}: {exc}"))
    return out
