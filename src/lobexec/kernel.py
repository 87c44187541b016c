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
from itertools import chain

from ._bounds import bounded, check_bounds
from ._csv import csv_lines, csv_template, csv_text
from ._seeding import generator, spawn_generators
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
from .lob import MarketOrderResult, OrderBook, Side

_SNAPSHOT = "snapshot"  # the queue payload of a book snapshot, tested by identity


@dataclass
class MarketConfig:
    n_noise: int = bounded(1000, ge=0)
    n_value: int = bounded(102, ge=0)
    n_momentum: int = bounded(12, ge=0)
    n_market_maker: int = bounded(1, ge=0)
    session_seconds: float = bounded(1800.0, gt=0)
    snapshot_interval_s: float = bounded(1.0, ge=1e-9)  # the clock counts whole ns
    depth: int = bounded(10, ge=1)
    fundamental: FundamentalParams = field(default_factory=FundamentalParams)
    noise: NoiseAgentParams = field(default_factory=NoiseAgentParams)
    value: ValueAgentParams = field(default_factory=ValueAgentParams)
    momentum: MomentumAgentParams = field(default_factory=MomentumAgentParams)
    market_maker: MarketMakerParams = field(default_factory=MarketMakerParams)

    def cross_check(self) -> None:
        if not self.fundamental.mu > 0:  # the path starts at mu; quotes need a price
            raise ValueError("fundamental mu must be positive")
        if not self.noise.min_size <= self.noise.max_size:
            raise ValueError("noise sizes need min_size <= max_size")


_FILLS_HEADER = ("ts", "side", "price", "qty", "taker_agent", "maker_agent")
_FILLS_TEMPLATE = csv_template(len(_FILLS_HEADER))
_FUNDAMENTAL_TEMPLATE = csv_template(2)


class SessionLog:
    """The CSV text of one logged session, written to three text sinks as it
    happens: each sink's header when the log is made, then one snapshot row
    and one fundamental row per tick, and one chunk of fill rows per book
    call that filled. It keeps no rows, and never a ``BookSnapshot`` or a
    ``Fill``; only the counts ``n_snapshots`` and ``n_fills``.

    ``depth`` is the number of levels per side in the snapshot rows and their
    header; a session logs at its ``config.depth``. ``sinks`` is the
    (snapshots, fills, fundamental) triple of objects with a text ``write``:
    ``simulate`` passes open files, a test may pass ``io.StringIO``s.
    """

    def __init__(self, depth: int, sinks):
        self.depth = depth
        self._snapshot_template = csv_template(4 + 4 * depth)
        self._pad = (("", ""),) * depth
        self._snapshot_sink, self._fill_sink, self._fundamental_sink = sinks
        self.n_snapshots = 0
        self.n_fills = 0
        header = ["ts", "fundamental", "best_bid", "best_ask"]
        for i in range(1, depth + 1):
            header += [f"bid_px_{i}", f"bid_qty_{i}", f"ask_px_{i}", f"ask_qty_{i}"]
        self._snapshot_sink.write(csv_text(header, ()))
        self._fill_sink.write(csv_text(_FILLS_HEADER, ()))
        self._fundamental_sink.write(csv_text(["ts", "fundamental"], ()))

    def add_tick(self, ts: int, book: OrderBook, fund: float) -> None:
        snap = book.snapshot(self.depth, ts)
        bids, asks, pad = snap.bids, snap.asks, self._pad
        fund = repr(fund)
        flat = chain.from_iterable
        row = (ts, fund, bids[0][0] if bids else None, asks[0][0] if asks else None,
               # per level: bid price, bid qty, ask price, ask qty; "" past the book
               *flat(flat(zip(bids + pad[len(bids):], asks + pad[len(asks):]))))
        self._snapshot_sink.write(csv_lines(self._snapshot_template, (row,)))
        self._fundamental_sink.write(csv_lines(_FUNDAMENTAL_TEMPLATE, ((ts, fund),)))
        self.n_snapshots += 1

    def add_fills(self, fills) -> None:
        bid = Side.BID
        # Fill fields by index: 2 taker_agent_id, 3 maker_agent_id, 4 side,
        # 5 price, 6 qty, 7 ts
        rows = [(f[7], "bid" if f[4] is bid else "ask", f[5], f[6], f[2], f[3])
                for f in fills]
        self._fill_sink.write(csv_lines(_FILLS_TEMPLATE, rows))
        self.n_fills += len(fills)

    # The text of ``io.StringIO`` sinks; a file sink has no getvalue.
    def snapshots_csv(self) -> str:
        return self._snapshot_sink.getvalue()

    def fills_csv(self) -> str:
        return self._fill_sink.getvalue()

    def fundamental_csv(self) -> str:
        return self._fundamental_sink.getvalue()


class MarketSession:
    """One seeded market run. Single-threaded; one instance per episode.

    A logged session is handed its ``SessionLog`` as ``log``, kept as
    ``self.log``, and hands it the book and the fundamental at every
    snapshot tick and the fills of every book call; ``kernel_run`` builds
    one at ``config.depth``. A session without a log (the execution MDP's)
    keeps only what agents and the MDP read, and behaves the same: each
    tick still draws the fundamental, since skipping it would shift its
    random stream, and still feeds the momentum agents' mid ring.
    """

    def __init__(self, config: MarketConfig, seed: int, hooks: dict | None = None,
                 log: SessionLog | None = None):
        check_bounds(config)
        self.config = config
        self.hooks = hooks or {}
        self.now = 0
        self.session_end = int(config.session_seconds * NS_PER_SEC)

        # check_bounds(config) has walked config.fundamental
        self._fundamental = FundamentalPath.from_checked(config.fundamental,
                                                         generator(seed, 1))
        self._oracle = Oracle(self._fundamental, seed)

        self.book = OrderBook()
        self.log = log
        self._next_order_id = 1
        self._event_seq = 0
        self._queue: list[tuple[int, int, object]] = []
        # the most mids a momentum agent reads
        self._mid_history: deque = deque(
            maxlen=max(config.momentum.short_window, config.momentum.long_window))
        self._fill_ts: list[int] = []
        self._fill_qty_cum: list[int] = [0]
        self._last_trade: int | None = None
        self._last_event_key = (-1, -1)

        population = ((MarketMakerAgent, config.n_market_maker, config.market_maker),
                      (ValueAgent, config.n_value, config.value),
                      (MomentumAgent, config.n_momentum, config.momentum),
                      (NoiseAgent, config.n_noise, config.noise))
        kinds = [(cls, params) for cls, count, params in population
                 for _ in range(count)]
        rngs = spawn_generators(seed, 2, range(1, len(kinds) + 1))
        self.agents: list[Agent] = [
            cls(aid, rng, params)
            for aid, ((cls, params), rng) in enumerate(zip(kinds, rngs), start=1)]

        self._snapshot_interval = int(config.snapshot_interval_s * NS_PER_SEC)
        for agent in self.agents:
            self._schedule(agent.first_wakeup(), agent)
        self._schedule(0, _SNAPSHOT)

    def fork(self) -> "MarketSession":
        """An independent copy of the session as it stands, which replays
        exactly what this one would from here: a new book of new orders in
        the same queues, new agents, fundamental path and oracle drawing
        copies of their generators, and the event queue pointing at the new
        agents. The config, the agents' params and the hooks are shared. A
        session that keeps a ``SessionLog`` does not fork, since both would
        write to it.

        Every clone is built with ``__new__`` and attribute assignment in
        ``__init__``'s order, not ``copy.copy``: a ``copy.copy`` clone runs
        slower than a fresh session."""
        if self.log is not None:
            raise ValueError("a session that keeps a SessionLog cannot be forked")
        agents = [agent.fork() for agent in self.agents]
        twin = dict(zip(self.agents, agents))
        clone = MarketSession.__new__(MarketSession)
        clone.config = self.config
        clone.hooks = self.hooks
        clone.now = self.now
        clone.session_end = self.session_end
        clone._fundamental = self._fundamental.fork()
        clone._oracle = self._oracle.fork(clone._fundamental)
        clone.book = self.book.fork()
        clone.log = None
        clone._next_order_id = self._next_order_id
        clone._event_seq = self._event_seq
        # the same (ts, seq) keys in the same list order: still a heap
        clone._queue = [(ts, seq, twin.get(payload, payload))
                        for ts, seq, payload in self._queue]
        clone._mid_history = self._mid_history.copy()
        clone._fill_ts = self._fill_ts.copy()
        clone._fill_qty_cum = self._fill_qty_cum.copy()
        clone._last_trade = self._last_trade
        clone._last_event_key = self._last_event_key
        clone.agents = agents
        clone._snapshot_interval = self._snapshot_interval
        return clone

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

    def _record_fills(self, fills, ts: int) -> None:
        """Record the fills of one book call at ``ts``, which every one of
        them carries: one (ts, cumulative qty) entry for ``transacted_volume``,
        the last trade price, and the fill rows of a log."""
        if not fills:
            return
        if self.log is not None:
            self.log.add_fills(fills)
        self._fill_ts.append(ts)
        self._fill_qty_cum.append(self._fill_qty_cum[-1] + sum([f.qty for f in fills]))
        self._last_trade = fills[-1].price

    def submit_market(self, agent_id: int, side: Side, qty: int,
                      ts: int) -> MarketOrderResult:
        oid = self._next_order_id
        self._next_order_id = oid + 1
        result = self.book.submit_market(side, qty, agent_id, ts, oid)
        if result.fills:  # most full-scale market orders meet an empty side
            self._record_fills(result.fills, ts)
        return result

    def requote(self, agent_id: int, order_ids, quotes_at, ts: int) -> range:
        """``OrderBook.requote`` numbered from the session's next id; the
        range of the new ids. A call that raises reserves no ids, so no
        session is used after one (``run_until`` aborts mid-event)."""
        fills, ids = self.book.requote(order_ids, agent_id, quotes_at,
                                       self._next_order_id, ts)
        self._next_order_id = ids.stop
        self._record_fills(fills, ts)
        return ids

    # -- event loop --------------------------------------------------------

    def _schedule(self, delay: int, payload) -> None:
        """Queue ``payload`` ``delay`` ns from now: an event past the session
        end is dropped, any other gets the next sequence number. ``run_until``
        applies the same rule inline to the delay a wakeup returns, after
        going silent on ``None`` and raising a delay below 1 ns to 1."""
        ts = self.now + delay
        if ts > self.session_end:
            return
        self._event_seq += 1
        heapq.heappush(self._queue, (ts, self._event_seq, payload))

    def _take_snapshot(self, ts: int) -> None:
        fund = self._fundamental.value(ts)
        book = self.book
        if self.log is not None:
            self.log.add_tick(ts, book, fund)
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            # float(OrderBook.mid_price()): int true division rounds correctly too
            self._mid_history.append((bid + ask) / 2)

    def run_until(self, t: int) -> None:
        """Process every event with ts <= t, then set the clock to t."""
        end = self.session_end
        t = min(t, end)
        on_event = self.hooks.get("on_event")
        queue, pop, push = self._queue, heapq.heappop, heapq.heappush
        interval, snapshot = self._snapshot_interval, _SNAPSHOT
        while queue and queue[0][0] <= t:
            ts, seq, payload = pop(queue)
            key = (ts, seq)
            assert key > self._last_event_key, "event order violated"
            self._last_event_key = key
            self.now = ts
            if on_event is not None:
                on_event(ts, seq)
            if payload is snapshot:
                self._take_snapshot(ts)
                delay = interval
            else:
                delay = payload.wakeup(ts, self)
                if delay is None:
                    continue
                if delay < 1:
                    delay = 1
            ts += delay  # the rule of _schedule, inline
            if ts <= end:
                self._event_seq += 1
                push(queue, (ts, self._event_seq, payload))
        self.now = max(self.now, t)


def kernel_run(config: MarketConfig, seed: int, sinks) -> SessionLog:
    """Run a full background-only session and return its log, which writes
    its CSV text to ``sinks``, a (snapshots, fills, fundamental) triple of
    text sinks, as the session runs."""
    session = MarketSession(config, seed, log=SessionLog(config.depth, sinks))
    session.run_until(session.session_end)
    return session.log
