"""Fundamental value process: mean-reverting diffusion with news jumps.

The latent price follows dX = theta (mu - X) dt + sigma dW + J dN where J
is drawn from a 50/50 mixture of N(jump_mu1, jump_sigma1^2) and
N(-jump_mu1, jump_sigma1^2), so jumps have zero mean. The diffusion part
advances by ``ou_step``, the exact discretization of the OU process. Time
is in integer nanoseconds; theta, sigma and lambda are per-ns quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bounds import bounded, check_bounds
from ._seeding import copy_generator, generator

NS_PER_SEC = 1_000_000_000  # the simulation clock counts nanoseconds


@dataclass
class FundamentalParams:
    theta: float = bounded(1.67e-16, ge=0)        # mean reversion per ns
    mu: float = bounded(100_000.0)                # long-term mean, cents
    sigma: float = bounded(1e-4, ge=0)            # volatility, cents per sqrt(ns)
    jump_lambda: float = bounded(5.7e-13, ge=0)   # jump intensity per ns (~1 per 30 min)
    jump_mu1: float = bounded(50.0)               # cents; mixture uses +/- this mean
    jump_sigma1: float = bounded(10.0, ge=0)      # cents


def ou_step(x: float, mu: float, theta: float, sigma: float, dt: float,
            normal: float) -> float:
    """One exact-discretization OU step of size dt.

    x' = mu + (x - mu) e^{-theta dt} + eps, with
    eps ~ N(0, sigma^2 (1 - e^{-2 theta dt}) / (2 theta)); the theta -> 0
    limit sigma^2 dt is used when theta == 0. ``normal`` is a standard
    normal draw supplied by the caller (keeps the RNG outside the step).
    """
    if theta > 0.0:
        decay = math.exp(-theta * dt)
        std = sigma * math.sqrt((1.0 - decay * decay) / (2.0 * theta))
    else:
        decay = 1.0
        std = sigma * math.sqrt(dt)
    return mu + (x - mu) * decay + std * normal


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
    """Lazily generated fundamental path shared by all agents.

    Only the last queried ``(ts, value)`` is kept: a repeated query returns
    it, a later one steps the path from it, and an earlier one raises (the
    event kernel queries in event order).
    """

    def __init__(self, params: FundamentalParams, rng: np.random.Generator):
        check_bounds(params)
        self._start(params, rng)

    @classmethod
    def from_checked(cls, params: FundamentalParams,
                     rng: np.random.Generator) -> "FundamentalPath":
        """``cls(params, rng)`` for a caller that has checked ``params``
        already, as a market session checks its whole config."""
        path = cls.__new__(cls)
        path._start(params, rng)
        return path

    def _start(self, params: FundamentalParams, rng: np.random.Generator) -> None:
        self.params = params
        self._rng = rng
        self._last_ts = 0
        self._last_value = params.mu

    def value(self, ts: int) -> float:
        if ts == self._last_ts:
            return self._last_value
        if ts < self._last_ts:
            raise ValueError(
                f"fundamental queried out of order: {ts} < {self._last_ts}")
        self._last_value = fundamental_step(self._last_value, ts - self._last_ts,
                                            self.params, self._rng)
        self._last_ts = ts
        return self._last_value

    def fork(self) -> "FundamentalPath":
        """An independent copy that continues the same path."""
        clone = FundamentalPath.from_checked(self.params, copy_generator(self._rng))
        clone._last_ts = self._last_ts
        clone._last_value = self._last_value
        return clone


class Oracle:
    """Noisy per-agent view of the fundamental.

    Each agent draws its observation noise from its own generator, spawn
    key ``(7, agent_id)`` of the run's seed, made on its first noisy query.
    """

    def __init__(self, path: FundamentalPath, seed: int):
        self.path = path
        self._seed = seed
        self._rngs: dict[int, np.random.Generator] = {}

    def observe(self, agent_id: int, ts: int, noise_std: float = 0.0) -> float:
        value = self.path.value(ts)
        if noise_std > 0.0:
            if agent_id not in self._rngs:
                self._rngs[agent_id] = generator(self._seed, 7, agent_id)
            value += noise_std * self._rngs[agent_id].standard_normal()
        return value

    def fork(self, path: FundamentalPath) -> "Oracle":
        """An independent copy that reads ``path``, a fork of this one's."""
        clone = Oracle.__new__(Oracle)
        clone.path = path
        clone._seed = self._seed
        clone._rngs = {aid: copy_generator(rng) for aid, rng in self._rngs.items()}
        return clone
