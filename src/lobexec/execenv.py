"""Optimal-execution MDP on top of a live market session.

The agent slices a parent order of X0 shares into market-order children
over a fixed window, observing book features at a 1-second cadence. The
per-step reward is

    reward = filled * (P0 - P_t)  -  alpha * d_t  -  beta * I_T * 1{t=T}

for a buy (shortfall sign flipped for a sell), with d_t the depth consumed
by the child order and an additional per-share penalty for executing past
the parent size. Once the parent is filled, remaining steps are forced to
"do nothing" and earn zero reward.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .fundamental import NS_PER_SEC
from .lob import OrderBook, Side

FRAME_FEATURES = 9
HISTORY = 4
EXEC_AGENT_ID = -1


class EpisodeOverError(RuntimeError):
    """step() called after the episode ended."""


@dataclass
class ExecConfig:
    parent_size: int = 20000
    direction: str = "buy"            # buy | sell
    time_window_s: int = 1800
    step_s: int = 1
    q_min: int = 20
    n_size_actions: int = 4
    alpha: float = 2.0                # depth penalty weight
    beta: float = 5.0                 # terminal per-share penalty
    over_exec_penalty: float = 5.0    # per share beyond parent size
    depth_metric: str = "levels"      # levels | ticks
    quote_mode: str = "relative"      # relative | raw observation quotes
    warmup_s: int = 60                # market run-in before the episode starts

    @property
    def n_steps(self) -> int:
        return self.time_window_s // self.step_s

    @property
    def n_actions(self) -> int:
        return self.n_size_actions + 1

    @property
    def obs_dim(self) -> int:
        return FRAME_FEATURES * HISTORY

    def validate(self) -> None:
        if self.parent_size <= 0:
            raise ValueError("parent_size must be positive")
        if self.direction not in ("buy", "sell"):
            raise ValueError("direction must be 'buy' or 'sell'")
        if self.step_s < 1:
            raise ValueError("step_s must be >= 1")
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be >= 0")
        if self.time_window_s % self.step_s != 0:
            raise ValueError("time_window_s must be a multiple of step_s")
        if self.depth_metric not in ("levels", "ticks"):
            raise ValueError("depth_metric must be 'levels' or 'ticks'")
        if self.quote_mode not in ("relative", "raw"):
            raise ValueError("quote_mode must be 'relative' or 'raw'")
        if self.q_min * self.n_size_actions * self.n_steps < self.parent_size:
            raise ValueError(
                "infeasible config: max executable "
                f"{self.q_min * self.n_size_actions * self.n_steps} "
                f"< parent size {self.parent_size}")


@dataclass
class StepOutcome:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class ExecutionEnv:
    """One execution episode per reset; owns its market session."""

    def __init__(self, config: ExecConfig,
                 market_factory: Callable[[int], object]):
        config.validate()
        self.config = config
        self._market_factory = market_factory
        self._market = None

    @property
    def side(self) -> Side:
        return Side.BID if self.config.direction == "buy" else Side.ASK

    @property
    def book(self) -> OrderBook:
        """The market's order book, for reading pre-step features."""
        return self._market.book

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        cfg = self.config
        self._market = self._market_factory(seed)
        self._start_ns = cfg.warmup_s * NS_PER_SEC
        self._market.run_until(self._start_ns)
        mid = self._market.book.mid_price()
        if mid is None:
            raise RuntimeError("book one-sided at episode start; no arrival price")
        self.arrival_price: Fraction = mid
        self.t = 0
        self.executed = 0
        self.completion_step: Optional[int] = None
        self._over_charged = 0
        self._cost = 0  # sum of fill price * qty
        self._depth_total = 0
        self._last_bid = self._market.book.best_bid()
        self._last_ask = self._market.book.best_ask()
        self._frames: deque = deque(maxlen=HISTORY)
        frame = self._frame()
        for _ in range(HISTORY):
            self._frames.append(frame)
        return self._stack()

    # -- observation -------------------------------------------------------

    def _quote_feature(self, price: Optional[int]) -> float:
        if price is None:
            return float(self.arrival_price)  # only before any quote exists
        if self.config.quote_mode == "raw":
            return float(price)
        return (price - float(self.arrival_price)) / float(self.arrival_price)

    def _frame(self) -> np.ndarray:
        book = self._market.book
        bb, ba = book.best_bid(), book.best_ask()
        if bb is not None:
            self._last_bid = bb
        if ba is not None:
            self._last_ask = ba
        holdings = min(1.0, max(0.0, 1.0 - self.executed / self.config.parent_size))
        time_rem = 1.0 - self.t / self.config.n_steps
        imb = book.imbalances(self.side, 5)
        return np.array(
            [holdings, time_rem, *imb,
             self._quote_feature(self._last_bid),
             self._quote_feature(self._last_ask)],
            dtype=np.float64)

    def _stack(self) -> np.ndarray:
        return np.concatenate(list(self._frames))

    def observe(self) -> np.ndarray:
        """Current stacked observation (oldest frame first)."""
        return self._stack()

    @property
    def done(self) -> bool:
        return self.t >= self.config.n_steps or self.completed

    @property
    def completed(self) -> bool:
        return self.executed >= self.config.parent_size

    @property
    def inventory(self) -> int:
        return max(self.config.parent_size - self.executed, 0)

    # -- stepping ----------------------------------------------------------

    def step(self, action: int) -> StepOutcome:
        """Apply an action, advance the market one step, pay the reward.

        Stepping is allowed until t reaches the window end even after the
        parent completes (forced no-op, zero reward); stepping past the
        window raises.
        """
        cfg = self.config
        if self.t >= cfg.n_steps:
            raise EpisodeOverError("execution window already over")
        if not 0 <= action <= cfg.n_size_actions:
            raise ValueError(f"action must be in [0, {cfg.n_size_actions}]")
        if self.completed:
            action = 0  # execution finished: forced no-op

        filled = notional = d_t = 0
        shortfall_term = 0.0
        now = self._market.now
        if action > 0:
            result = self._market.submit_market(
                EXEC_AGENT_ID, self.side, cfg.q_min * action, now)
            filled = result.filled
            if filled > 0:
                notional = result.notional
                d_t = self._depth(result)
                self._cost += notional
                self.executed += filled
                self._depth_total += d_t
                diff = filled * self.arrival_price - notional
                if self.side is Side.ASK:
                    diff = -diff
                shortfall_term = float(diff)

        depth_term = -cfg.alpha * d_t
        over_term = 0.0
        excess = max(self.executed - cfg.parent_size, 0)
        if excess > self._over_charged:
            over_term = -cfg.over_exec_penalty * (excess - self._over_charged)
            self._over_charged = excess
        if self.completed and self.completion_step is None:
            self.completion_step = self.t + 1

        self.t += 1
        self._market.run_until(self._start_ns + self.t * cfg.step_s * NS_PER_SEC)

        terminal_term = 0.0
        if self.t == cfg.n_steps:
            terminal_term = -cfg.beta * self.inventory
        reward = shortfall_term + depth_term + over_term + terminal_term

        frame = self._frame()
        self._frames.append(frame)
        obs = self._stack()
        info = {
            "t": self.t,
            "filled": filled,
            "avg_price": notional / filled if filled else None,
            "depth_consumed": d_t,
            "inventory": self.inventory,
            "executed": self.executed,
            "shortfall_term": shortfall_term,
            "depth_term": depth_term,
            "over_term": over_term,
            "terminal_term": terminal_term,
        }
        return StepOutcome(observation=obs, reward=reward, done=self.done, info=info)

    def _depth(self, result) -> int:
        if self.config.depth_metric == "levels":
            return result.depth_consumed
        prices = [f.price for f in result.fills]
        return max(prices) - min(prices)  # ticks traversed past the touch

    # -- episode accounting --------------------------------------------------

    def episode_shortfall(self) -> float:
        """Normalized IS, cents per share; positive = beat the arrival price."""
        if not self.done:
            raise RuntimeError("episode not finished")
        benefit = self.executed * self.arrival_price - self._cost
        if self.side is Side.ASK:
            benefit = -benefit
        return float(benefit) / self.config.parent_size

    def episode_penalty(self) -> float:
        """All penalty terms, normalized by parent size (<= 0)."""
        cfg = self.config
        total = (cfg.alpha * self._depth_total
                 + cfg.beta * (self.inventory if self.t >= cfg.n_steps else 0)
                 + cfg.over_exec_penalty * self._over_charged)
        return -total / cfg.parent_size

    def completion_fraction(self) -> float:
        if self.completion_step is None:
            return 1.0
        return self.completion_step / self.config.n_steps
