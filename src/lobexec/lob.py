"""Limit order book with price-time (FIFO) priority matching.

Prices live in integer ticks (1 tick = 1 cent) so matching never touches
floating point. A market order reports its int notional (sum of price
times qty over its fills); fractional quantities (mid price, volume
imbalance) are returned as exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional


class Side(Enum):
    BID = "bid"
    ASK = "ask"

    def opposite(self) -> "Side":
        return _ASK if self is _BID else _BID


# Side.BID is a slow lookup (EnumType has a __getattr__); per-event code
# reads these module globals instead.
_BID, _ASK = Side.BID, Side.ASK
# Per-event code builds its NamedTuples with ``_new(cls, fields)``, which is
# ``cls(*fields)`` without the Python-level ``__new__`` frame.
_new = tuple.__new__


class DuplicateOrderError(ValueError):
    """Raised when an order id is submitted twice."""


@dataclass(slots=True, eq=False)
class Order:
    id: int
    agent_id: int
    side: Side
    qty: int
    price: Optional[int] = None  # limit price; the book rejects None
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


class _Level(deque):
    """The FIFO queue of the orders resting at one price, and their total."""
    __slots__ = ("total_qty",)


class OrderBook:
    """Two price ladders with FIFO queues per level.

    Each side keeps its prices in an ascending list (best bid last, best
    ask first) and a dict from price to level; a level is one deque of
    orders with its total qty. Opening or dropping a level is a dict entry
    plus an O(levels) list insert or removal; each fill at the best level is
    O(1) and a cancel scans its queue. Between calls no level is empty.

    The book builds every order it rests: ``submit_limit`` rests a copy of
    the caller's ``Order``, so no caller holds a resting order.
    ``imbalances`` reads the top-k imbalance features in one pass;
    ``total_depth`` and ``volume_imbalance`` are the exact definitions.

    ``requote`` is the one way orders rest and leave: the cancel of each of
    some ids in turn (a level left empty leaves its ladder), then the (side,
    price, qty) quotes a builder makes from the touch the cancels leave,
    each matched and its residual rested in turn. ``cancel`` is a requote
    of one id and no quotes, ``submit_limit`` one of no ids and one quote;
    a value agent cancels nothing and posts at most one quote; a market
    maker cancels its ladder and posts a new one. Inside the call, a
    cancelled order still last in its level stays there as a stale entry:
    it has left the order map and its level's total, so no count or fill
    sees it. A quote at the same side and price re-stamps it in place (id,
    agent, qty, ts, seq); since the stale entry is last in its queue, that
    is exactly a fresh order appended there. An order with another order
    queued behind it is never re-stamped. Stale entries are purged before a
    quote that could cross and at the end of the call, also when a quote
    is invalid.

    Single-threaded mutable structure.
    """

    def __init__(self):
        self._bid_prices: list[int] = []  # ascending; best bid = last
        self._ask_prices: list[int] = []  # ascending; best ask = first
        self._bids: dict[int, _Level] = {}
        self._asks: dict[int, _Level] = {}
        self._orders: dict[int, Order] = {}  # resting only
        self._seq = 0

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
        if side is _BID:
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
        bids, bid_prices = self._top(_BID, d)
        asks, ask_prices = self._top(_ASK, d)
        return BookSnapshot(ts=ts,
                            bids=tuple([(p, bids[p].total_qty) for p in bid_prices]),
                            asks=tuple([(p, asks[p].total_qty) for p in ask_prices]))

    def order_ids(self) -> list[int]:
        return list(self._orders)

    def fork(self) -> "OrderBook":
        """An independent copy: the same queues of new ``Order``s."""
        orders: dict[int, Order] = {}

        def ladder(levels: dict[int, _Level]) -> dict[int, _Level]:
            out = {}
            for price, level in levels.items():
                twin = out[price] = _Level(
                    [Order(o.id, o.agent_id, o.side, o.qty, o.price, o.ts, o.seq)
                     for o in level])
                twin.total_qty = level.total_qty
                for o in twin:
                    orders[o.id] = o
            return out

        # attributes in __init__'s order, so the copy has a fresh book's layout
        clone = OrderBook.__new__(OrderBook)
        clone._bid_prices = self._bid_prices.copy()
        clone._ask_prices = self._ask_prices.copy()
        clone._bids = ladder(self._bids)
        clone._asks = ladder(self._asks)
        clone._orders = {oid: orders[oid] for oid in self._orders}
        clone._seq = self._seq
        return clone

    # -- mutation --------------------------------------------------------

    def _match(self, side: Side, qty: int, oid: int, aid: int, ts: int,
               limit_price: Optional[int]) -> tuple[list[Fill], int, int, int]:
        """Walk the opposite ladder best-first, FIFO within each level.

        Returns (fills, unfilled qty, notional, price levels touched).
        """
        is_bid = side is _BID
        if is_bid:
            prices, ladder, best = self._ask_prices, self._asks, 0
        else:
            prices, ladder, best = self._bid_prices, self._bids, -1
        orders = self._orders
        fills: list[Fill] = []
        notional = levels = 0
        while qty and prices:
            price = prices[best]
            if limit_price is not None and (
                    price > limit_price if is_bid else price < limit_price):
                break
            levels += 1
            level = ladder[price]
            taken = 0
            while qty and level:
                maker = level[0]
                traded = qty if qty < maker.qty else maker.qty
                fills.append(_new(Fill, (oid, maker.id, aid, maker.agent_id, side, price,
                                         traded, ts)))
                qty -= traded
                taken += traded
                maker.qty -= traded
                if not maker.qty:
                    level.popleft()
                    del orders[maker.id]
            notional += price * taken
            if level:
                level.total_qty -= taken
            else:
                del ladder[price]
                del prices[best]
        return fills, qty, notional, levels

    def submit_limit(self, order: Order) -> tuple[list[Fill], int]:
        """A ``requote`` of no ids and the one quote ``(side, price, qty)``
        as ``order``'s agent, id and ts: match it, rest any residual. The
        book rests its own order, then writes its ``seq`` and resting ``qty``
        back into ``order``. Returns (fills, resting_qty). The book is never
        crossed afterward."""
        quote = ((order.side, order.price, order.qty),)
        fills, _ = self.requote((), order.agent_id, lambda bid, ask: quote,
                                order.id, order.ts)
        rested = self._orders.get(order.id)
        order.qty = rested.qty if rested is not None else 0
        order.seq = self._seq
        return fills, order.qty

    def requote(self, order_ids, agent_id: int, quotes_at, first_id: int,
                ts: int) -> tuple[list[Fill], range]:
        """Cancel each of ``order_ids`` in turn (``_cancel``; unknown ids are
        skipped), then match and rest the ``(side, price, qty)`` quotes of
        ``quotes_at(bid, ask)`` in turn, with (bid, ask) the touch the cancels
        leave (None for an empty side), as ``agent_id``'s at ``ts`` with ids
        from ``first_id`` (see the class doc). Returns (the fills of all
        quotes in order, the range of their ids). An invalid quote raises with
        the book as the cancels and the quotes before it leave it."""
        bid_stale: dict[int, Order] = {}
        ask_stale: dict[int, Order] = {}
        self._cancel(order_ids, bid_stale, ask_stale)
        try:
            # a level left with only its stale entry has a zero total
            bids, asks = self._bids, self._asks
            bid = ask = None
            for price in reversed(self._bid_prices):
                if bids[price].total_qty:
                    bid = price
                    break
            for price in self._ask_prices:
                if asks[price].total_qty:
                    ask = price
                    break
            quotes = quotes_at(bid, ask)
            return (self._submit(quotes, agent_id, first_id, ts, bid_stale, ask_stale),
                    range(first_id, first_id + len(quotes)))
        finally:
            if bid_stale or ask_stale:
                self._purge(bid_stale, ask_stale)

    def _purge(self, bid_stale: dict, ask_stale: dict) -> None:
        """Drop the stale entries ``requote`` left; each is its level's last."""
        for stale, ladder, prices in ((bid_stale, self._bids, self._bid_prices),
                                      (ask_stale, self._asks, self._ask_prices)):
            for price in stale:
                level = ladder[price]
                level.pop()
                if not level:
                    del ladder[price]
                    prices.remove(price)
            stale.clear()

    def _submit(self, quotes, aid: int, oid: int, ts: int, bid_stale: dict,
                ask_stale: dict) -> list[Fill]:
        """The limit-order loop over quotes numbered from ``oid``; their fills.
        A quote at a price in its side's stale dict re-stamps that entry."""
        resting_map, bid_side = self._orders, _BID
        bids, bid_prices, asks, ask_prices = (self._bids, self._bid_prices,
                                              self._asks, self._ask_prices)
        fills: list[Fill] = []
        oid -= 1
        for side, price, qty in quotes:
            oid += 1
            if qty <= 0:
                raise ValueError("limit order qty must be positive")
            if price is None or price <= 0:
                raise ValueError("limit order needs a positive price")
            if oid in resting_map:
                raise DuplicateOrderError(f"order id {oid} already resting")
            seq = self._seq = self._seq + 1
            if side is bid_side:
                crosses = ask_prices and ask_prices[0] <= price
                ladder, prices, stale = bids, bid_prices, bid_stale
            else:
                crosses = bid_prices and bid_prices[-1] >= price
                ladder, prices, stale = asks, ask_prices, ask_stale
            if crosses and (bid_stale or ask_stale):
                # what it would cross may be stale: purge, then look again
                self._purge(bid_stale, ask_stale)
                crosses = (ask_prices and ask_prices[0] <= price if side is bid_side
                           else bid_prices and bid_prices[-1] >= price)
            if crosses:
                new_fills, qty, _, _ = self._match(side, qty, oid, aid, ts, price)
                fills += new_fills
                if not qty:
                    continue
            level = ladder.get(price)
            if level is None:
                level = ladder[price] = _Level()
                level.total_qty = qty
                insort(prices, price)
                order = None
            else:
                level.total_qty += qty
                order = stale.pop(price, None) if stale else None
            if order is None:
                order = Order(oid, aid, side, qty, price, ts, seq)
                level.append(order)
            else:  # the level's last entry: re-stamp it in place
                order.id, order.agent_id, order.qty, order.ts, order.seq = \
                    oid, aid, qty, ts, seq
            resting_map[oid] = order
        return fills

    def submit_market(self, side: Side, qty: int, agent_id: int, ts: int = 0,
                      order_id: Optional[int] = None) -> MarketOrderResult:
        """Execute immediately against the opposite ladder; never rests."""
        if qty <= 0:
            raise ValueError("market order qty must be positive")
        self._seq += 1
        oid = order_id if order_id is not None else -self._seq
        if not (self._ask_prices if side is _BID else self._bid_prices):
            return _new(MarketOrderResult, ((), 0, 0, qty))
        fills, unfilled, notional, levels = self._match(side, qty, oid, agent_id, ts, None)
        return _new(MarketOrderResult, (tuple(fills), notional, levels - 1, unfilled))

    def cancel(self, order_id: int) -> bool:
        """A one-id ``requote`` of no quotes; False if the id is not resting."""
        resting = order_id in self._orders
        self.requote((order_id,), 0, lambda bid, ask: (), 0, 0)
        return resting

    def _cancel(self, order_ids, bid_stale: dict, ask_stale: dict) -> None:
        """Cancel orders in turn, skipping unknown or gone ids. An order that
        is the last in its level stays there, stale, filed under its price in
        its side's dict (``_purge`` drops it); any other leaves its queue.
        Either leaves its level's total."""
        orders, bids, asks, bid_side = self._orders, self._bids, self._asks, _BID
        for order_id in order_ids:
            order = orders.pop(order_id, None)
            if order is None:
                continue
            price = order.price
            if order.side is bid_side:
                level, stale = bids[price], bid_stale
            else:
                level, stale = asks[price], ask_stale
            level.total_qty -= order.qty
            if level[-1] is order:
                stale[price] = order
            else:
                level.remove(order)
