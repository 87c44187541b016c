"""Synthetic constant-quote market with effectively infinite depth.

Implements the same surface the execution environment needs from a real
market session, but the book always shows a single huge level on each
side at fixed prices. Useful for closed-form baselines (a buy always
fills at the ask, never walking depth) and for fast training sanity runs.
"""

from __future__ import annotations

from .lob import MarketOrderResult, OrderBook, Side


DEPTH = 10 ** 9  # shares resting at each quote


class ConstantMarket:
    """The quotes never move, so ``seed`` is unused; it keeps the signature
    of a seeded market factory."""

    def __init__(self, bid: int, ask: int, seed: int = 0):
        if not 0 < bid < ask:
            raise ValueError("need 0 < bid < ask")
        self.bid = bid
        self.ask = ask
        self.now = 0
        self.book = OrderBook()
        self._next_id = 1
        self._requote()

    def _requote(self) -> None:
        oid = self._next_id
        self._next_id += 2
        quotes = ((Side.BID, self.bid, DEPTH), (Side.ASK, self.ask, DEPTH))
        self.book.requote(self.book.order_ids(), 0, lambda bid, ask: quotes,
                          oid, self.now)

    def run_until(self, t: int) -> None:
        self.now = max(self.now, t)
        self._requote()

    def submit_market(self, agent_id: int, side: Side, qty: int,
                      ts: int) -> MarketOrderResult:
        return self.book.submit_market(side, qty, agent_id, ts)
