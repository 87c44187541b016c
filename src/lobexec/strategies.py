"""Baseline execution policies sharing the environment's action interface.

Actions are indices 0..4: 0 = do nothing, k = market order of q_min * k.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import numpy as np

from ._seeding import generator
from .dqn import QNetwork
from .execenv import ExecConfig

POLICY_NAMES = ("rl", "twap", "passive", "random")


class Policy:
    name = "base"

    def reset(self, seed: int) -> None:  # noqa: ARG002 - deterministic policies
        pass

    def act(self, t: int, obs: np.ndarray) -> int:
        raise NotImplementedError


def twap_schedule(parent_size: int, q_min: int, n_steps: int,
                  max_units: int) -> dict[int, int]:
    """Child steps for an even schedule: q_min-units to send per step index.

    The j-th of U children (U = parent_size // q_min, residue rounded down)
    lands on step floor(j * n_steps / U), spreading children evenly across
    the window with the first child at step 0.
    """
    units = parent_size // q_min
    if units == 0:
        return {}
    schedule = Counter(j * n_steps // units for j in range(units))
    if max(schedule.values()) > max_units:
        raise ValueError("TWAP schedule needs more than the largest action per step")
    return dict(schedule)


class TwapPolicy(Policy):
    """Equal slices at evenly spaced steps; deterministic."""

    name = "twap"

    def __init__(self, config: ExecConfig):
        self.schedule = twap_schedule(config.parent_size, config.q_min,
                                      config.n_steps, config.n_size_actions)

    def act(self, t, obs) -> int:
        return self.schedule.get(t, 0)


def _choice_cdf(probs) -> list[float]:
    """numpy's cumulative table for ``rng.choice(len(probs), p=probs)``.

    ``bisect_right(cdf, rng.random())`` draws exactly what that call draws,
    without its per-call overhead.
    """
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf.tolist()


class PassivePolicy(Policy):
    """Does nothing 60% of the time, else one of the four sizes uniformly."""

    name = "passive"
    probs = (0.6, 0.1, 0.1, 0.1, 0.1)
    _cdf = _choice_cdf(probs)

    def reset(self, seed: int) -> None:
        self.rng = generator(seed, 11)

    def act(self, t, obs) -> int:
        return bisect_right(self._cdf, self.rng.random())


class RandomPolicy(Policy):
    """Coin flip to act at all, then uniform over {nothing, size 1..3}.

    Net branch probabilities: P(0) = 0.5 + 0.5/4 = 0.625, P(1..3) = 0.125
    each; the largest size is never sent.
    """

    name = "random"
    probs = (0.625, 0.125, 0.125, 0.125, 0.0)
    _cdf = _choice_cdf(probs)

    def reset(self, seed: int) -> None:
        self.rng = generator(seed, 12)

    def act(self, t, obs) -> int:
        return bisect_right(self._cdf, self.rng.random())


class GreedyQPolicy(Policy):
    """Greedy readout of a trained Q-network (evaluation mode)."""

    name = "rl"

    def __init__(self, net: QNetwork):
        self.net = net

    def act(self, t, obs) -> int:
        return self.net.greedy(obs)


def make_policy(name: str, config: ExecConfig,
                net: QNetwork | None = None) -> Policy:
    if name == "twap":
        return TwapPolicy(config)
    if name == "passive":
        return PassivePolicy()
    if name == "random":
        return RandomPolicy()
    if name == "rl":
        if net is None:
            raise ValueError("rl policy requires a Q-network")
        return GreedyQPolicy(net)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
