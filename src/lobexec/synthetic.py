"""Synthetic constant-quote market with effectively infinite depth.

Implements the same surface the execution environment needs from a real
market session, but the book always shows a single huge level on each
side at fixed prices. Useful for closed-form baselines (a buy always
fills at the ask, never walking depth) and for fast training sanity runs.
"""

from __future__ import annotations

from .lob import MarketOrderResult, Order, OrderBook, Side


class ConstantMarket:
    def __init__(self, bid: int, ask: int, level_qty: int = 10 ** 9, seed: int = 0):
        if not 0 < bid < ask:
            raise ValueError("need 0 < bid < ask")
        self.bid = bid
        self.ask = ask
        self.level_qty = level_qty
        self.now = 0
        self.book = OrderBook()
        self._next_id = 1
        self._requote()

    def _requote(self) -> None:
        self.book.cancel_orders(self.book.order_ids())
        oid = self._next_id
        self._next_id += 2
        self.book.submit_limits(
            [Order(id=oid, agent_id=0, side=Side.BID, qty=self.level_qty,
                   price=self.bid, ts=self.now),
             Order(id=oid + 1, agent_id=0, side=Side.ASK, qty=self.level_qty,
                   price=self.ask, ts=self.now)])

    def run_until(self, t: int) -> None:
        self.now = max(self.now, t)
        self._requote()

    def submit_market(self, agent_id: int, side: Side, qty: int,
                      ts: int) -> MarketOrderResult:
        return self.book.submit_market(side, qty, agent_id, ts)
