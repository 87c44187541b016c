"""Limit order book with price-time (FIFO) priority matching.

Prices live in integer ticks (1 tick = 1 cent) so matching never touches
floating point. A market order reports its int notional (sum of price
times qty over its fills); fractional quantities (mid price, volume
imbalance) are returned as exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional


class Side(Enum):
    BID = "bid"
    ASK = "ask"

    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID


class DuplicateOrderError(ValueError):
    """Raised when an order id is submitted twice."""


@dataclass
class Order:
    id: int
    agent_id: int
    side: Side
    qty: int
    price: Optional[int] = None  # None for market orders
    ts: int = 0
    seq: int = 0


class Fill(NamedTuple):
    taker_order_id: int
    maker_order_id: int
    taker_agent_id: int
    maker_agent_id: int
    side: Side  # taker side
    price: int
    qty: int
    ts: int


class MarketOrderResult(NamedTuple):
    fills: tuple[Fill, ...]
    notional: int  # sum of price * qty over the fills, 0 if no fill
    depth_consumed: int  # distinct price levels touched minus one, 0 if no fill
    unfilled: int

    @property
    def filled(self) -> int:
        return sum(f.qty for f in self.fills)


@dataclass(frozen=True)
class BookSnapshot:
    ts: int
    bids: tuple[tuple[int, int], ...]  # (price, qty) best-first
    asks: tuple[tuple[int, int], ...]

    @property
    def best_bid(self) -> Optional[int]:
        return self.bids[0][0] if self.bids else None

    @property
    def best_ask(self) -> Optional[int]:
        return self.asks[0][0] if self.asks else None

    @property
    def mid(self) -> Optional[Fraction]:
        if self.bids and self.asks:
            return Fraction(self.bids[0][0] + self.asks[0][0], 2)
        return None


class _Level:
    __slots__ = ("queue", "total_qty")

    def __init__(self):
        self.queue: deque[Order] = deque()
        self.total_qty = 0


class OrderBook:
    """Two price ladders with FIFO queues per level.

    Each side keeps its prices in an ascending list (best bid last, best
    ask first) and a dict from price to level. Opening or dropping a level
    is O(levels); each fill at the best level is O(1) and a cancel scans
    its queue.

    ``submit_limits`` and ``cancel_orders`` take a whole batch, such as a
    market maker's requote, in one call; ``submit_limit`` and ``cancel``
    are the one-order case of the same loops, so a batch gives exactly the
    ids, seq numbers, fills, queue positions and log lines of the
    single-order calls in the same order. ``imbalances`` reads the top-k
    imbalance features in one pass; ``total_depth`` and
    ``volume_imbalance`` are the exact definitions.

    Single-threaded mutable structure. ``event_log`` receives one CSV line
    per submit/cancel/fill when set.
    """

    def __init__(self, event_log: Optional[Callable[[str], None]] = None):
        self._bid_prices: list[int] = []  # ascending; best bid = last
        self._ask_prices: list[int] = []  # ascending; best ask = first
        self._bids: dict[int, _Level] = {}
        self._asks: dict[int, _Level] = {}
        self._orders: dict[int, Order] = {}  # resting only
        self._seq = 0
        self.event_log = event_log

    # -- queries ---------------------------------------------------------

    def best_bid(self) -> Optional[int]:
        return self._bid_prices[-1] if self._bid_prices else None

    def best_ask(self) -> Optional[int]:
        return self._ask_prices[0] if self._ask_prices else None

    def mid_price(self) -> Optional[Fraction]:
        bb, ba = self.best_bid(), self.best_ask()
        if bb is None or ba is None:
            return None
        return Fraction(bb + ba, 2)

    def spread(self) -> Optional[int]:
        bb, ba = self.best_bid(), self.best_ask()
        if bb is None or ba is None:
            return None
        return ba - bb

    def _top(self, side: Side, k: int) -> tuple[dict[int, _Level], list[int]]:
        """The ladder of one side and its top-k prices, best first."""
        if side is Side.BID:
            return self._bids, self._bid_prices[:-k - 1:-1]
        return self._asks, self._ask_prices[:k]

    def total_depth(self, side: Side, k: int) -> int:
        """Cumulative resting volume over the top-k levels of one side."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ladder, prices = self._top(side, k)
        return sum([ladder[p].total_qty for p in prices])

    def volume_imbalance(self, side: Side, k: int) -> Fraction:
        """Top-k depth share of one side; 1/2 when both sides are empty."""
        own = self.total_depth(side, k)
        other = self.total_depth(side.opposite(), k)
        if own + other == 0:
            return Fraction(1, 2)
        return Fraction(own, own + other)

    def imbalances(self, side: Side, k: int) -> list[float]:
        """``float(volume_imbalance(side, j))`` for j = 1..k, from one pass
        over each side's top-k levels. Bit-identical: ``own / (own + other)``
        on ints is correctly rounded, and so is the float of a Fraction."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        own_ladder, own_prices = self._top(side, k)
        other_ladder, other_prices = self._top(side.opposite(), k)
        n_own, n_other = len(own_prices), len(other_prices)
        own = other = 0
        out = []
        for j in range(k):
            if j < n_own:
                own += own_ladder[own_prices[j]].total_qty
            if j < n_other:
                other += other_ladder[other_prices[j]].total_qty
            total = own + other
            out.append(own / total if total else 0.5)
        return out

    def snapshot(self, d: int = 10, ts: int = 0) -> BookSnapshot:
        if d < 1:
            raise ValueError(f"snapshot depth must be >= 1, got {d}")
        bids, bid_prices = self._top(Side.BID, d)
        asks, ask_prices = self._top(Side.ASK, d)
        return BookSnapshot(ts=ts,
                            bids=tuple([(p, bids[p].total_qty) for p in bid_prices]),
                            asks=tuple([(p, asks[p].total_qty) for p in ask_prices]))

    def order_ids(self, agent_id: Optional[int] = None) -> list[int]:
        if agent_id is None:
            return list(self._orders)
        return [oid for oid, o in self._orders.items() if o.agent_id == agent_id]

    # -- mutation --------------------------------------------------------

    def _log(self, kind: str, side: Side, price, qty: int, oid: int, aid: int, ts: int):
        p = "" if price is None else price
        self.event_log(f"{ts},{kind},{side.value},{p},{qty},{oid},{aid}")

    def _match(self, side: Side, qty: int, oid: int, aid: int, ts: int,
               limit_price: Optional[int]) -> tuple[list[Fill], int, int, int]:
        """Walk the opposite ladder best-first, FIFO within each level.

        Returns (fills, unfilled qty, notional, price levels touched).
        """
        is_bid = side is Side.BID
        if is_bid:
            prices, ladder, best = self._ask_prices, self._asks, 0
        else:
            prices, ladder, best = self._bid_prices, self._bids, -1
        orders, log = self._orders, self.event_log
        fills: list[Fill] = []
        notional = levels = 0
        while qty and prices:
            price = prices[best]
            if limit_price is not None and (
                    price > limit_price if is_bid else price < limit_price):
                break
            levels += 1
            level = ladder[price]
            queue = level.queue
            taken = 0
            while qty and queue:
                maker = queue[0]
                traded = qty if qty < maker.qty else maker.qty
                fills.append(Fill(oid, maker.id, aid, maker.agent_id, side, price, traded, ts))
                if log is not None:
                    self._log("fill", side, price, traded, oid, aid, ts)
                qty -= traded
                taken += traded
                maker.qty -= traded
                if not maker.qty:
                    queue.popleft()
                    del orders[maker.id]
            notional += price * taken
            if queue:
                level.total_qty -= taken
            else:
                del ladder[price]
                del prices[best]
        return fills, qty, notional, levels

    def submit_limit(self, order: Order) -> tuple[list[Fill], int]:
        """Match a limit order against the book; rest any residual.

        Returns (fills, resting_qty). The book is never crossed afterward.
        """
        return self.submit_limits((order,))

    def submit_limits(self, orders) -> tuple[list[Fill], int]:
        """Submit limit orders one after another, as many submit_limit calls.

        Each order is validated, matched and any residual rests, in turn; an
        order that cannot cross skips matching. Each order's ``qty`` is left
        at its resting quantity. Returns (the fills of all orders in submit
        order, total resting qty). An invalid order raises with the orders
        before it applied.
        """
        resting_map, log = self._orders, self.event_log
        fills: list[Fill] = []
        total = 0
        for order in orders:
            qty = order.qty
            if qty <= 0:
                raise ValueError("limit order qty must be positive")
            price = order.price
            if price is None or price <= 0:
                raise ValueError("limit order needs a positive price")
            oid = order.id
            if oid in resting_map:
                raise DuplicateOrderError(f"order id {oid} already resting")
            self._seq += 1
            order.seq = self._seq
            side = order.side
            if log is not None:
                self._log("submit", side, price, qty, oid, order.agent_id, order.ts)
            if side is Side.BID:
                opposite = self._ask_prices
                crosses = opposite and opposite[0] <= price
                ladder, prices = self._bids, self._bid_prices
            else:
                opposite = self._bid_prices
                crosses = opposite and opposite[-1] >= price
                ladder, prices = self._asks, self._ask_prices
            if crosses:
                new_fills, qty, _, _ = self._match(side, qty, oid, order.agent_id,
                                                   order.ts, price)
                fills += new_fills
                order.qty = qty
                if not qty:
                    continue
            level = ladder.get(price)
            if level is None:
                level = ladder[price] = _Level()
                bisect.insort(prices, price)
            level.queue.append(order)
            level.total_qty += qty
            resting_map[oid] = order
            total += qty
        return fills, total

    def submit_market(self, side: Side, qty: int, agent_id: int, ts: int = 0,
                      order_id: Optional[int] = None) -> MarketOrderResult:
        """Execute immediately against the opposite ladder; never rests."""
        if qty <= 0:
            raise ValueError("market order qty must be positive")
        self._seq += 1
        oid = order_id if order_id is not None else -self._seq
        if self.event_log is not None:
            self._log("submit", side, None, qty, oid, agent_id, ts)
        if not (self._ask_prices if side is Side.BID else self._bid_prices):
            return MarketOrderResult((), 0, 0, qty)
        fills, unfilled, notional, levels = self._match(side, qty, oid, agent_id, ts, None)
        return MarketOrderResult(tuple(fills), notional, levels - 1, unfilled)

    def cancel(self, order_id: int) -> bool:
        """Remove a resting order; False if unknown or already gone."""
        return self.cancel_orders((order_id,)) == 1

    def cancel_orders(self, order_ids) -> int:
        """Cancel orders one after another, as many cancel calls; the number
        removed. Unknown or already-gone ids are skipped."""
        orders, log = self._orders, self.event_log
        removed = 0
        for order_id in order_ids:
            order = orders.pop(order_id, None)
            if order is None:
                continue
            removed += 1
            if order.side is Side.BID:
                ladder, prices = self._bids, self._bid_prices
            else:
                ladder, prices = self._asks, self._ask_prices
            price = order.price
            level = ladder[price]
            queue = level.queue
            queue.remove(order)
            if queue:
                level.total_qty -= order.qty
            else:
                del ladder[price]
                prices.remove(price)
            if log is not None:
                self._log("cancel", order.side, price, order.qty, order.id,
                          order.agent_id, order.ts)
        return removed
