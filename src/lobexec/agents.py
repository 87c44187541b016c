"""Background agent population: noise, value, momentum and market maker.

Each agent is woken by the event kernel, reads what the exchange reports
(never its book) and posts orders through it, then returns the delay (ns)
until its next wake-up, or None to go silent. All randomness comes from
the per-agent generator handed in at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bounds import bounded
from ._seeding import copy_generator
from .fundamental import NS_PER_SEC
from .lob import Side

# Side.BID is a slow lookup (EnumType has a __getattr__); wakeups read these.
_BID, _ASK = Side.BID, Side.ASK
_HALF = 2**63  # random() < 0.5 exactly when the raw 64-bit output is below this


@dataclass
class NoiseAgentParams:
    min_size: int = bounded(10, ge=1)
    max_size: int = bounded(100, ge=1, lt=2**32)
    mean_wake_s: float = bounded(60.0, gt=0)


@dataclass
class ValueAgentParams:
    lambda_va: float = bounded(5.7e-12, gt=0)    # arrival rate per ns
    size: int = bounded(100, ge=1)
    obs_noise_std: float = bounded(10.0, ge=0)   # cents


@dataclass
class MomentumAgentParams:
    short_window: int = bounded(20, ge=1)
    long_window: int = bounded(50, ge=1)
    size: int = bounded(50, ge=1)
    mean_wake_s: float = bounded(60.0, gt=0)


@dataclass
class MarketMakerParams:
    pov: float = bounded(0.00025, ge=0)              # fraction of window volume per level
    n_ticks: int = bounded(10, ge=1)                 # ladder half-width
    wake_interval_s: float = bounded(1.0, ge=1e-9)   # the clock counts whole ns
    window_s: float = bounded(60.0, gt=0)            # initial adaptive volume window
    max_window_s: float = bounded(600.0, gt=0)
    min_size: int = bounded(1, ge=1)


class Agent:
    """Base agent; by default it sleeps Exp(params.mean_wake_s) seconds between wakeups."""

    def __init__(self, agent_id: int, rng: np.random.Generator, params):
        self.agent_id = agent_id
        self.rng = rng
        self.params = params

    def _delay(self) -> int:
        return max(1, int(self.rng.exponential(self.params.mean_wake_s) * NS_PER_SEC))

    def first_wakeup(self) -> int:
        return self._delay()

    def wakeup(self, now: int, exchange) -> int | None:
        raise NotImplementedError

    def fork(self) -> "Agent":
        """An independent copy: the same params and a copy of the generator.
        Subclasses copy their own fields after these, in ``__init__``'s order."""
        clone = self.__class__.__new__(self.__class__)
        clone.agent_id = self.agent_id
        clone.rng = copy_generator(self.rng)
        clone.params = self.params
        return clone


class NoiseAgent(Agent):
    """Submits an equally likely buy/sell market order of uniform size.

    Every draw is the one a ``Generator`` call would make, taken straight
    from the bit generator. The side is ``rng.random() < 0.5``: ``random``
    is ``(raw >> 11) * 2**-53`` of a 64-bit raw output, which is below 0.5
    exactly when ``raw < 2**63``. The size is ``rng.integers(min_size,
    max_size + 1)``: numpy's Lemire bounded draw (arXiv:1805.10941) over
    32-bit outputs, where each 64-bit raw output yields its low half and
    buffers its high half. The side draw, like ``standard_exponential``,
    reads a 64-bit output and leaves that buffer alone; ``exponential(s)``
    is ``s * standard_exponential()`` bit for bit.
    """

    def __init__(self, agent_id, rng, params: NoiseAgentParams):
        super().__init__(agent_id, rng, params)
        self._raw = rng.bit_generator.random_raw
        self._high: int | None = None  # buffered upper half of the last raw output
        self._exp = rng.standard_exponential

    def fork(self):
        clone = super().fork()
        clone._raw = clone.rng.bit_generator.random_raw
        clone._high = self._high
        clone._exp = clone.rng.standard_exponential
        return clone

    def _next_uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        raw = self._raw()
        self._high = raw >> 32
        return raw & 0xFFFFFFFF

    def _size(self) -> int:
        lo = self.params.min_size
        n = self.params.max_size - lo + 1  # < 2**32 by NoiseAgentParams' bounds
        if n == 1:
            return lo
        m = self._next_uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32() * n
        return lo + (m >> 32)

    def wakeup(self, now, exchange):
        side = _BID if self._raw() < _HALF else _ASK
        exchange.submit_market(self.agent_id, side, self._size(), now)
        delay = int(self._exp() * self.params.mean_wake_s * NS_PER_SEC)
        return delay if delay > 1 else 1


class ValueAgent(Agent):
    """Trades against perceived mispricing of the fundamental."""

    def _delay(self) -> int:
        # the rate is per ns, so draw in ns rather than seconds * NS_PER_SEC,
        # which would round differently
        mean_ns = 1.0 / self.params.lambda_va
        return max(1, int(self.rng.exponential(mean_ns)))

    def wakeup(self, now, exchange):
        obs = exchange.oracle_observe(self.agent_id, now, self.params.obs_noise_std)
        size = self.params.size

        def quotes_at(bid, ask):
            if bid is None or ask is None:
                # no two-sided market: quote the missing side at the observed value
                return ((_ASK if ask is None else _BID, max(1, round(obs)), size),)
            if obs > ask:
                return ((_BID, ask, size),)
            if obs < bid:
                return ((_ASK, bid, size),)
            if ask - bid > 1 and obs > (bid + ask) / 2:
                return ((_BID, bid + 1, size),)
            if ask - bid > 1 and obs < (bid + ask) / 2:
                return ((_ASK, ask - 1, size),)
            return ()  # obs at the mid, or no tick inside: no order

        exchange.requote(self.agent_id, (), quotes_at, now)
        return self._delay()


class MomentumAgent(Agent):
    """Buys (sells) when the short mid-price moving average is above (below)
    the long one. Needs at least long_window mid samples to act."""

    def wakeup(self, now, exchange):
        mids = exchange.mid_history()
        if len(mids) < self.params.long_window:
            return self._delay()
        short = sum(mids[-self.params.short_window:]) / self.params.short_window
        long = sum(mids[-self.params.long_window:]) / self.params.long_window
        if short > long:
            exchange.submit_market(self.agent_id, _BID, self.params.size, now)
        elif short < long:
            exchange.submit_market(self.agent_id, _ASK, self.params.size, now)
        return self._delay()


class MarketMakerAgent(Agent):
    """Cancel-replace quoter: a ladder of n_ticks levels per side around a
    reference price, sized as a fraction of recently transacted volume.

    The volume-estimation window adapts: it doubles (up to a cap) when the
    window saw no volume, halves (down to 1 s) otherwise.
    """

    def __init__(self, agent_id, rng, params: MarketMakerParams):
        super().__init__(agent_id, rng, params)
        self._window_ns = int(params.window_s * NS_PER_SEC)
        self._live_orders: range = range(0)

    def fork(self):
        clone = super().fork()
        clone._window_ns = self._window_ns
        clone._live_orders = self._live_orders
        return clone

    def first_wakeup(self) -> int:
        return 0  # seeds the book at session open

    def _reference(self, bid, ask, exchange, now) -> int:
        if bid is not None and ask is not None:
            return (bid + ask) // 2  # int(mid): prices are positive
        last = exchange.last_trade_price()
        if last is not None:
            return last
        return round(exchange.oracle_observe(self.agent_id, now, 0.0))

    def wakeup(self, now, exchange):
        volume = exchange.transacted_volume(now, self._window_ns)
        if volume == 0:
            self._window_ns = min(self._window_ns * 2,
                                  int(self.params.max_window_s * NS_PER_SEC))
        else:
            self._window_ns = max(self._window_ns // 2, NS_PER_SEC)
        size = max(self.params.min_size, round(self.params.pov * volume))

        def quotes_at(bid, ask):  # the touch once the old ladder is cancelled
            ref = self._reference(bid, ask, exchange, now)
            quotes = []
            for i in range(1, self.params.n_ticks + 1):
                if ref - i > 0:
                    quotes.append((_BID, ref - i, size))
                quotes.append((_ASK, ref + i, size))
            return quotes

        self._live_orders = exchange.requote(self.agent_id, self._live_orders,
                                             quotes_at, now)
        return int(self.params.wake_interval_s * NS_PER_SEC)
