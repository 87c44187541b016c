"""Background agent population: noise, value, momentum and market maker.

Each agent is woken by the event kernel, reads the exchange state and
submits orders through it, then returns the delay (ns) until its next
wake-up, or None to go silent. All randomness comes from the per-agent
generator handed in at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fundamental import NS_PER_SEC
from .lob import Side


@dataclass
class NoiseAgentParams:
    min_size: int = 10
    max_size: int = 100
    mean_wake_s: float = 60.0

    def validate(self) -> None:
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError("noise sizes need 1 <= min_size <= max_size")
        if self.mean_wake_s <= 0:
            raise ValueError("noise mean_wake_s must be positive")


@dataclass
class ValueAgentParams:
    lambda_va: float = 5.7e-12    # arrival rate per ns
    size: int = 100
    obs_noise_std: float = 10.0   # cents

    def validate(self) -> None:
        if self.lambda_va <= 0:
            raise ValueError("value lambda_va must be positive")
        if self.size < 1:
            raise ValueError("value size must be >= 1")


@dataclass
class MomentumAgentParams:
    short_window: int = 20
    long_window: int = 50
    size: int = 50
    mean_wake_s: float = 60.0

    def validate(self) -> None:
        if self.short_window < 1 or self.long_window < 1:
            raise ValueError("momentum windows must be >= 1")
        if self.size < 1:
            raise ValueError("momentum size must be >= 1")
        if self.mean_wake_s <= 0:
            raise ValueError("momentum mean_wake_s must be positive")


@dataclass
class MarketMakerParams:
    pov: float = 0.00025          # fraction of window volume per level
    n_ticks: int = 10             # ladder half-width
    wake_interval_s: float = 1.0
    window_s: float = 60.0        # initial adaptive volume window
    max_window_s: float = 600.0
    min_size: int = 1

    def validate(self) -> None:
        if int(self.wake_interval_s * NS_PER_SEC) < 1:
            raise ValueError("market_maker wake_interval_s must be at least 1 ns")
        if self.min_size < 1:
            raise ValueError("market_maker min_size must be >= 1")


class Agent:
    def __init__(self, agent_id: int, rng: np.random.Generator):
        self.agent_id = agent_id
        self.rng = rng

    def first_wakeup(self) -> int:
        raise NotImplementedError

    def wakeup(self, now: int, exchange) -> int | None:
        raise NotImplementedError


class NoiseAgent(Agent):
    """Submits an equally likely buy/sell market order of uniform size."""

    def __init__(self, agent_id, rng, params: NoiseAgentParams):
        super().__init__(agent_id, rng)
        self.params = params

    def _delay(self) -> int:
        return max(1, int(self.rng.exponential(self.params.mean_wake_s) * NS_PER_SEC))

    def first_wakeup(self) -> int:
        return self._delay()

    def wakeup(self, now, exchange):
        side = Side.BID if self.rng.random() < 0.5 else Side.ASK
        qty = int(self.rng.integers(self.params.min_size, self.params.max_size + 1))
        exchange.submit_market(self.agent_id, side, qty, now)
        return self._delay()


class ValueAgent(Agent):
    """Trades against perceived mispricing of the fundamental."""

    def __init__(self, agent_id, rng, params: ValueAgentParams):
        super().__init__(agent_id, rng)
        self.params = params

    def _delay(self) -> int:
        mean_ns = 1.0 / self.params.lambda_va
        return max(1, int(self.rng.exponential(mean_ns)))

    def first_wakeup(self) -> int:
        return self._delay()

    def wakeup(self, now, exchange):
        obs = exchange.oracle_observe(self.agent_id, now, self.params.obs_noise_std)
        best_bid = exchange.book.best_bid()
        best_ask = exchange.book.best_ask()
        size = self.params.size
        if best_bid is None or best_ask is None:
            # no two-sided market: quote the missing side at the observed value
            price = max(1, round(obs))
            side = Side.ASK if best_ask is None else Side.BID
            exchange.submit_limit(self.agent_id, side, price, size, now)
            return self._delay()
        if obs > best_ask:
            exchange.submit_limit(self.agent_id, Side.BID, best_ask, size, now)
        elif obs < best_bid:
            exchange.submit_limit(self.agent_id, Side.ASK, best_bid, size, now)
        else:
            mid = (best_bid + best_ask) / 2
            if obs > mid and best_ask - best_bid > 1:
                exchange.submit_limit(self.agent_id, Side.BID, best_bid + 1, size, now)
            elif obs < mid and best_ask - best_bid > 1:
                exchange.submit_limit(self.agent_id, Side.ASK, best_ask - 1, size, now)
            # obs == mid: no opinion, no order
        return self._delay()


class MomentumAgent(Agent):
    """Buys (sells) when the short mid-price moving average is above (below)
    the long one. Needs at least long_window mid samples to act."""

    def __init__(self, agent_id, rng, params: MomentumAgentParams):
        super().__init__(agent_id, rng)
        self.params = params

    def _delay(self) -> int:
        return max(1, int(self.rng.exponential(self.params.mean_wake_s) * NS_PER_SEC))

    def first_wakeup(self) -> int:
        return self._delay()

    def wakeup(self, now, exchange):
        mids = exchange.mid_history()
        if len(mids) < self.params.long_window:
            return self._delay()
        short = sum(mids[-self.params.short_window:]) / self.params.short_window
        long = sum(mids[-self.params.long_window:]) / self.params.long_window
        if short > long:
            exchange.submit_market(self.agent_id, Side.BID, self.params.size, now)
        elif short < long:
            exchange.submit_market(self.agent_id, Side.ASK, self.params.size, now)
        return self._delay()


class MarketMakerAgent(Agent):
    """Cancel-replace quoter: a ladder of n_ticks levels per side around a
    reference price, sized as a fraction of recently transacted volume.

    The volume-estimation window adapts: it doubles (up to a cap) when the
    window saw no volume, halves (down to 1 s) otherwise.
    """

    def __init__(self, agent_id, rng, params: MarketMakerParams):
        super().__init__(agent_id, rng)
        self.params = params
        self._window_ns = int(params.window_s * NS_PER_SEC)
        self._live_orders: list[int] = []

    def first_wakeup(self) -> int:
        return 0  # seeds the book at session open

    def _reference(self, exchange, now) -> int | None:
        mid = exchange.book.mid_price()
        if mid is not None:
            return int(mid)
        last = exchange.last_trade_price()
        if last is not None:
            return last
        return round(exchange.oracle_observe(self.agent_id, now, 0.0))

    def wakeup(self, now, exchange):
        exchange.cancel_orders(self._live_orders)
        self._live_orders = []

        volume = exchange.transacted_volume(now, self._window_ns)
        if volume == 0:
            self._window_ns = min(self._window_ns * 2,
                                  int(self.params.max_window_s * NS_PER_SEC))
        else:
            self._window_ns = max(self._window_ns // 2, NS_PER_SEC)
        size = max(self.params.min_size, round(self.params.pov * volume))

        ref = self._reference(exchange, now)
        if ref is not None:
            quotes = []
            for i in range(1, self.params.n_ticks + 1):
                if ref - i > 0:
                    quotes.append((Side.BID, ref - i, size))
                quotes.append((Side.ASK, ref + i, size))
            self._live_orders = exchange.submit_limits(self.agent_id, quotes, now)
        return int(self.params.wake_interval_s * NS_PER_SEC)
