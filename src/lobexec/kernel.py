"""Discrete-event market session: clock, event queue, exchange state.

Events are processed in (timestamp, sequence) order; the sequence number
is a global counter so identical (config, seed) pairs replay identically.
Order delivery is instantaneous (zero latency); ties are broken by
submission order.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._csv import csv_text
from .agents import (
    Agent,
    MarketMakerAgent,
    MarketMakerParams,
    MomentumAgent,
    MomentumAgentParams,
    NoiseAgent,
    NoiseAgentParams,
    ValueAgent,
    ValueAgentParams,
)
from .fundamental import NS_PER_SEC, FundamentalParams, FundamentalPath, Oracle
from .lob import MarketOrderResult, Order, OrderBook, Side


@dataclass
class MarketConfig:
    n_noise: int = 1000
    n_value: int = 102
    n_momentum: int = 12
    n_market_maker: int = 1
    session_seconds: float = 1800.0
    snapshot_interval_s: float = 1.0
    depth: int = 10
    history: int = 500  # snapshot ring buffer length for agent queries
    fundamental: FundamentalParams = field(default_factory=FundamentalParams)
    noise: NoiseAgentParams = field(default_factory=NoiseAgentParams)
    value: ValueAgentParams = field(default_factory=ValueAgentParams)
    momentum: MomentumAgentParams = field(default_factory=MomentumAgentParams)
    market_maker: MarketMakerParams = field(default_factory=MarketMakerParams)

    def validate(self) -> None:
        for name in ("n_noise", "n_value", "n_momentum", "n_market_maker"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.session_seconds <= 0:
            raise ValueError("session_seconds must be positive")
        if self.depth < 1 or self.history < 1:
            raise ValueError("depth and history must be >= 1")
        if int(self.snapshot_interval_s * NS_PER_SEC) < 1:
            raise ValueError("snapshot_interval_s must be at least 1 ns")
        self.fundamental.validate()
        for params in (self.noise, self.value, self.momentum, self.market_maker):
            params.validate()


@dataclass
class SessionLog:
    snapshots: list = field(default_factory=list)  # (ts, BookSnapshot, fundamental)
    fills: list = field(default_factory=list)      # Fill records

    def snapshots_csv(self, depth: int = 10) -> str:
        header = ["ts", "fundamental", "best_bid", "best_ask"]
        for i in range(1, depth + 1):
            header += [f"bid_px_{i}", f"bid_qty_{i}", f"ask_px_{i}", f"ask_qty_{i}"]
        rows = []
        for ts, snap, fund in self.snapshots:
            row = [ts, repr(fund), snap.best_bid, snap.best_ask]
            for i in range(depth):
                bid = snap.bids[i] if i < len(snap.bids) else ("", "")
                ask = snap.asks[i] if i < len(snap.asks) else ("", "")
                row += [bid[0], bid[1], ask[0], ask[1]]
            rows.append(row)
        return csv_text(header, rows)

    def fills_csv(self) -> str:
        return csv_text(["ts", "side", "price", "qty", "taker_agent", "maker_agent"],
                        ((f.ts, f.side.value, f.price, f.qty,
                          f.taker_agent_id, f.maker_agent_id) for f in self.fills))

    def fundamental_csv(self) -> str:
        return csv_text(["ts", "fundamental"],
                        ((ts, repr(fund)) for ts, _, fund in self.snapshots))


class MarketSession:
    """One seeded market run. Single-threaded; one instance per episode."""

    def __init__(self, config: MarketConfig, seed: int, hooks: dict | None = None):
        config.validate()
        self.config = config
        self.seed = seed
        self.hooks = hooks or {}
        self.now = 0
        self.session_end = int(config.session_seconds * NS_PER_SEC)

        seed_seq = np.random.SeedSequence(seed)
        self._fundamental = FundamentalPath(
            config.fundamental,
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
        self._oracle = Oracle(self._fundamental, seed_seq)

        self.book = OrderBook()
        self.log = SessionLog()
        self._next_order_id = 1
        self._event_seq = 0
        self._queue: list[tuple[int, int, object]] = []
        self._mid_history: deque = deque(maxlen=config.history)
        self._fill_ts: list[int] = []
        self._fill_qty_cum: list[int] = [0]
        self._last_trade: int | None = None
        self._last_event_key = (-1, -1)

        self.agents: list[Agent] = []
        aid = 1
        for _ in range(config.n_market_maker):
            self.agents.append(MarketMakerAgent(aid, self._agent_rng(seed, aid),
                                                config.market_maker))
            aid += 1
        for _ in range(config.n_value):
            self.agents.append(ValueAgent(aid, self._agent_rng(seed, aid), config.value))
            aid += 1
        for _ in range(config.n_momentum):
            self.agents.append(MomentumAgent(aid, self._agent_rng(seed, aid),
                                             config.momentum))
            aid += 1
        for _ in range(config.n_noise):
            self.agents.append(NoiseAgent(aid, self._agent_rng(seed, aid), config.noise))
            aid += 1

        for agent in self.agents:
            self._schedule(agent.first_wakeup(), agent)
        self._schedule(0, "snapshot")

    @staticmethod
    def _agent_rng(seed: int, agent_id: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, agent_id)))

    # -- exchange interface used by agents --------------------------------

    def oracle_observe(self, agent_id: int, ts: int, noise_std: float = 0.0) -> float:
        return self._oracle.observe(agent_id, ts, noise_std)

    def mid_history(self) -> list[float]:
        return list(self._mid_history)

    def last_trade_price(self) -> int | None:
        return self._last_trade

    def transacted_volume(self, now: int, window_ns: int) -> int:
        start = bisect.bisect_left(self._fill_ts, now - window_ns)
        return self._fill_qty_cum[-1] - self._fill_qty_cum[start]

    def _record_fills(self, fills) -> None:
        if not fills:
            return
        self.log.fills.extend(fills)
        fill_ts, qty_cum = self._fill_ts, self._fill_qty_cum
        cum = qty_cum[-1]
        for f in fills:
            fill_ts.append(f.ts)
            cum += f.qty
            qty_cum.append(cum)
        self._last_trade = fills[-1].price

    def submit_limit(self, agent_id: int, side: Side, price: int, qty: int,
                     ts: int) -> int:
        return self.submit_limits(agent_id, ((side, price, qty),), ts)[0]

    def submit_limits(self, agent_id: int, quotes, ts: int) -> list[int]:
        """Submit (side, price, qty) limit orders in order; their order ids.

        An invalid quote raises with the book as one submit_limit call per
        quote would leave it; the batch's ids are then all spent and its
        fills are not recorded.
        """
        first = self._next_order_id
        orders = [Order(first + i, agent_id, side, qty, price, ts)
                  for i, (side, price, qty) in enumerate(quotes)]
        self._next_order_id = first + len(orders)
        fills, _ = self.book.submit_limits(orders)
        self._record_fills(fills)
        return [order.id for order in orders]

    def submit_market(self, agent_id: int, side: Side, qty: int,
                      ts: int) -> MarketOrderResult:
        oid = self._next_order_id
        self._next_order_id += 1
        result = self.book.submit_market(side, qty, agent_id, ts, order_id=oid)
        self._record_fills(result.fills)
        return result

    def cancel(self, order_id: int) -> bool:
        return self.cancel_orders((order_id,)) == 1

    def cancel_orders(self, order_ids) -> int:
        return self.book.cancel_orders(order_ids)

    # -- event loop --------------------------------------------------------

    def _schedule(self, delay: int, payload) -> None:
        ts = self.now + delay
        if ts > self.session_end:
            return
        self._event_seq += 1
        heapq.heappush(self._queue, (ts, self._event_seq, payload))

    def _take_snapshot(self, ts: int) -> None:
        snap = self.book.snapshot(self.config.depth, ts)
        fund = self._fundamental.value(ts)
        self.log.snapshots.append((ts, snap, fund))
        mid = snap.mid
        if mid is not None:
            self._mid_history.append(float(mid))

    def run_until(self, t: int) -> None:
        """Process every event with ts <= t, then set the clock to t."""
        t = min(t, self.session_end)
        on_event = self.hooks.get("on_event")
        while self._queue and self._queue[0][0] <= t:
            ts, seq, payload = heapq.heappop(self._queue)
            assert (ts, seq) > self._last_event_key, "event order violated"
            self._last_event_key = (ts, seq)
            self.now = ts
            if on_event is not None:
                on_event(ts, seq)
            if payload == "snapshot":
                self._take_snapshot(ts)
                self._schedule(int(self.config.snapshot_interval_s * NS_PER_SEC),
                               "snapshot")
            else:
                delay = payload.wakeup(ts, self)
                if delay is not None:
                    self._schedule(max(1, delay), payload)
        self.now = max(self.now, t)

    def run(self) -> SessionLog:
        self.run_until(self.session_end)
        return self.log


def kernel_run(config: MarketConfig, seed: int, hooks: dict | None = None) -> SessionLog:
    """Run a full background-only session and return its log."""
    return MarketSession(config, seed, hooks).run()
