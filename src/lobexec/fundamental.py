"""Fundamental value process: mean-reverting diffusion with news jumps.

The latent price follows dX = theta (mu - X) dt + sigma dW + J dN where J
is drawn from a 50/50 mixture of N(jump_mu1, jump_sigma1^2) and
N(-jump_mu1, jump_sigma1^2), so jumps have zero mean. Time is in integer
nanoseconds; theta, sigma and lambda are per-ns quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import ou_step

NS_PER_SEC = 1_000_000_000  # the simulation clock counts nanoseconds


@dataclass
class FundamentalParams:
    theta: float = 1.67e-16          # mean reversion per ns
    mu: float = 100_000.0            # long-term mean, cents
    sigma: float = 1e-4              # volatility, cents per sqrt(ns)
    jump_lambda: float = 5.7e-13     # jump intensity per ns (~1 per 30 min)
    jump_mu1: float = 50.0           # cents; mixture uses +/- this mean
    jump_sigma1: float = 10.0        # cents

    def validate(self) -> None:
        if self.theta < 0 or self.sigma < 0 or self.jump_lambda < 0 or self.jump_sigma1 < 0:
            raise ValueError("fundamental parameters must be nonnegative")


def fundamental_step(x: float, dt: int, params: FundamentalParams,
                     rng: np.random.Generator) -> float:
    """Advance the fundamental by dt nanoseconds (exact OU step + jumps)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = ou_step(x, params.mu, params.theta, params.sigma, float(dt),
                float(rng.standard_normal()))
    n_jumps = rng.poisson(params.jump_lambda * dt)
    for _ in range(n_jumps):
        mean = params.jump_mu1 if rng.random() < 0.5 else -params.jump_mu1
        x += mean + params.jump_sigma1 * rng.standard_normal()
    return x


class FundamentalPath:
    """Lazily generated, cached fundamental path shared by all agents.

    Values are cached at every queried timestamp so repeated queries are
    consistent within a seed. Fresh timestamps must be nondecreasing
    (the event kernel queries in event order).
    """

    def __init__(self, params: FundamentalParams, rng: np.random.Generator,
                 x0: float | None = None):
        params.validate()
        self.params = params
        self._rng = rng
        self._cache: dict[int, float] = {0: params.mu if x0 is None else x0}
        self._last_ts = 0

    def value(self, ts: int) -> float:
        if ts in self._cache:
            return self._cache[ts]
        if ts < self._last_ts:
            raise ValueError(
                f"fundamental queried out of order: {ts} < {self._last_ts}")
        x = fundamental_step(self._cache[self._last_ts], ts - self._last_ts,
                             self.params, self._rng)
        self._cache[ts] = x
        self._last_ts = ts
        return x


class Oracle:
    """Noisy per-agent view of the fundamental.

    Each (agent, timestamp) pair draws its observation noise once and
    caches it, so repeated queries return the same value.
    """

    def __init__(self, path: FundamentalPath, seed_seq: np.random.SeedSequence):
        self.path = path
        self._seed_seq = seed_seq
        self._rngs: dict[int, np.random.Generator] = {}
        self._cache: dict[tuple[int, int], float] = {}

    def observe(self, agent_id: int, ts: int, noise_std: float = 0.0) -> float:
        key = (agent_id, ts)
        if key in self._cache:
            return self._cache[key]
        value = self.path.value(ts)
        if noise_std > 0.0:
            rng = self._rngs.get(agent_id)
            if rng is None:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=self._seed_seq.entropy,
                        spawn_key=(7, agent_id)))
                self._rngs[agent_id] = rng
            value += noise_std * rng.standard_normal()
        self._cache[key] = value
        return value
