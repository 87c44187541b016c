import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobexec.lob import (
    BookSnapshot,
    DuplicateOrderError,
    Fill,
    MarketOrderResult,
    Order,
    OrderBook,
    Side,
)

from oracle import BruteForceBook


def mk(oid, side, price, qty, agent=0, ts=0):
    return Order(id=oid, agent_id=agent, side=side, qty=qty, price=price, ts=ts)


class TestSubmitLimit:
    def test_rests_on_empty_book(self):
        book = OrderBook()
        fills, resting = book.submit_limit(mk(1, Side.BID, 100, 10))
        assert fills == [] and resting == 10
        assert book.best_bid() == 100

    def test_crossing_fifo_within_level(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        book.submit_limit(mk(2, Side.ASK, 101, 5))
        fills, resting = book.submit_limit(mk(3, Side.BID, 101, 7))
        assert [(f.maker_order_id, f.price, f.qty) for f in fills] == \
            [(1, 101, 5), (2, 101, 2)]
        assert resting == 0

    def test_non_crossing_rests(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        fills, resting = book.submit_limit(mk(2, Side.BID, 100, 3))
        assert fills == [] and resting == 3
        assert book.best_bid() == 100 and book.best_ask() == 101

    def test_duplicate_id_rejected(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 100, 10))
        with pytest.raises(DuplicateOrderError):
            book.submit_limit(mk(1, Side.BID, 99, 10))

    def test_never_crossed_after_partial_sweep(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        book.submit_limit(mk(2, Side.ASK, 103, 5))
        book.submit_limit(mk(3, Side.BID, 102, 20))
        bb, ba = book.best_bid(), book.best_ask()
        assert bb is None or ba is None or bb < ba

    def test_bad_orders_rejected(self):
        book = OrderBook()
        with pytest.raises(ValueError):
            book.submit_limit(mk(1, Side.BID, 100, 0))
        with pytest.raises(ValueError):
            book.submit_limit(mk(2, Side.BID, None, 5))


class TestSubmitMarket:
    def test_single_level(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 10))
        res = book.submit_market(Side.BID, 5, agent_id=9)
        assert res.notional == 101 * 5
        assert res.depth_consumed == 0
        assert res.unfilled == 0

    def test_two_level_walk(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        book.submit_limit(mk(2, Side.ASK, 102, 5))
        res = book.submit_market(Side.BID, 8, agent_id=9)
        assert [(f.price, f.qty) for f in res.fills] == [(101, 5), (102, 3)]
        assert res.notional == 101 * 5 + 102 * 3 == 811
        assert res.notional / res.filled == 101.375
        assert res.depth_consumed == 1

    def test_empty_book(self):
        book = OrderBook()
        res = book.submit_market(Side.BID, 5, agent_id=9)
        assert res.fills == () and res.unfilled == 5
        assert res.notional == 0 and res.depth_consumed == 0

    def test_partial_fill_reports_unfilled(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 3))
        res = book.submit_market(Side.BID, 10, agent_id=9)
        assert res.filled == 3 and res.unfilled == 7
        assert book.best_ask() is None  # never rests


class TestCancel:
    def test_cancel_resting(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 100, 10))
        assert book.total_depth(Side.BID, 1) == 10
        assert book.cancel(1) is True
        assert book.total_depth(Side.BID, 1) == 0

    def test_cancel_idempotent(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 100, 10))
        assert book.cancel(1) is True
        assert book.cancel(1) is False

    def test_cancel_after_full_fill(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        book.submit_market(Side.BID, 5, agent_id=9)
        assert book.cancel(1) is False


class TestFeatures:
    def test_total_depth_sums_levels(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 5))
        book.submit_limit(mk(2, Side.BID, 98, 7))
        assert book.total_depth(Side.BID, 2) == 12

    def test_total_depth_empty_side(self):
        book = OrderBook()
        for k in range(1, 11):
            assert book.total_depth(Side.ASK, k) == 0

    def test_total_depth_pads_missing_levels(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 5))
        assert book.total_depth(Side.BID, 3) == 5
        snap = book.snapshot(3)
        assert sum(q for _, q in snap.bids) == book.total_depth(Side.BID, 3)

    def test_total_depth_k_out_of_range(self):
        with pytest.raises(ValueError):
            OrderBook().total_depth(Side.BID, 0)

    def test_imbalance_symmetric(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 5))
        book.submit_limit(mk(2, Side.ASK, 101, 5))
        for k in range(1, 6):
            assert book.volume_imbalance(Side.BID, k) == Fraction(1, 2)

    def test_imbalance_ratio(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 30))
        book.submit_limit(mk(2, Side.ASK, 101, 10))
        assert book.volume_imbalance(Side.BID, 1) == Fraction(3, 4)

    def test_imbalance_one_sided_and_empty(self):
        book = OrderBook()
        assert book.volume_imbalance(Side.BID, 1) == Fraction(1, 2)
        book.submit_limit(mk(1, Side.BID, 99, 5))
        assert book.volume_imbalance(Side.BID, 1) == 1
        assert book.volume_imbalance(Side.ASK, 1) == 0

    def test_mid_and_spread(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 100, 5))
        book.submit_limit(mk(2, Side.ASK, 102, 5))
        assert book.mid_price() == 101 and book.spread() == 2
        book.cancel(2)
        book.submit_limit(mk(3, Side.ASK, 101, 5))
        assert book.mid_price() == Fraction(201, 2) and book.spread() == 1

    def test_mid_absent_when_one_sided(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 100, 5))
        assert book.mid_price() is None and book.spread() is None

    def test_snapshot_truncates_to_extent(self):
        book = OrderBook()
        for i, price in enumerate((101, 102, 103)):
            book.submit_limit(mk(i + 1, Side.ASK, price, 5))
        snap = book.snapshot(10)
        assert len(snap.asks) == 3 and snap.bids == ()
        assert [p for p, _ in snap.asks] == [101, 102, 103]

    def test_submit_cancel_round_trip_restores_snapshot(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 5))
        book.submit_limit(mk(2, Side.ASK, 102, 7))
        before = book.snapshot(10)
        book.submit_limit(mk(3, Side.BID, 100, 4))
        book.cancel(3)
        assert book.snapshot(10) == before


def random_ops(rng, n_orders):
    ops = []
    oid = 0
    live = []
    for _ in range(n_orders):
        roll = rng.random()
        if roll < 0.15 and live:
            ops.append(("cancel", rng.choice(live)))
            continue
        oid += 1
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        qty = rng.randint(1, 30)
        if roll < 0.35:
            ops.append(("market", oid, side, qty))
        else:
            price = rng.randint(95, 105)
            ops.append(("limit", oid, side, price, qty))
            live.append(oid)
    return ops


def apply_both(ops):
    book, ref = OrderBook(), BruteForceBook()
    fills, ref_fills = [], []
    for op in ops:
        if op[0] == "limit":
            _, oid, side, price, qty = op
            fs, _ = book.submit_limit(mk(oid, side, price, qty))
            fills += [(f.taker_order_id, f.maker_order_id, f.price, f.qty) for f in fs]
            ref_fills += ref.submit_limit(oid, 0, side, price, qty)[0]
        elif op[0] == "market":
            _, oid, side, qty = op
            res = book.submit_market(side, qty, agent_id=0, order_id=oid)
            fills += [(f.taker_order_id, f.maker_order_id, f.price, f.qty)
                      for f in res.fills]
            ref_fills += ref.submit_market(oid, 0, side, qty)[0]
        else:
            assert book.cancel(op[1]) == ref.cancel(op[1])
    return book, ref, fills, ref_fills


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_sequences_match_reference(self, seed):
        rng = random.Random(seed)
        book, ref, fills, ref_fills = apply_both(random_ops(rng, 50))
        assert fills == ref_fills
        for side in Side:
            for k in (1, 3, 10):
                assert book.total_depth(side, k) == ref.total_depth(side, k)
                assert book.volume_imbalance(side, k) == ref.imbalance(side, k)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_priority_and_conservation_properties(self, seed):
        rng = random.Random(seed)
        book, ref, fills, ref_fills = apply_both(random_ops(rng, 30))
        assert fills == ref_fills
        bb, ba = book.best_bid(), book.best_ask()
        assert bb is None or ba is None or bb < ba
        # volume conservation: every fill reduced both sides equally by construction;
        # check book totals equal reference totals
        assert book.total_depth(Side.BID, 50) == ref.total_depth(Side.BID, 50)
        assert book.total_depth(Side.ASK, 50) == ref.total_depth(Side.ASK, 50)

    def test_determinism(self):
        rng = random.Random(7)
        ops = random_ops(rng, 50)
        book1, _, fills1, _ = apply_both(ops)
        book2, _, fills2, _ = apply_both(ops)
        assert fills1 == fills2
        assert book1.snapshot(10) == book2.snapshot(10)


def reference_levels(ref, side, d):
    """Top-d (price, qty) levels of one side of a BruteForceBook, best first."""
    qty = {}
    for o in ref.resting:
        if o["side"] is side:
            qty[o["price"]] = qty.get(o["price"], 0) + o["qty"]
    prices = sorted(qty, reverse=side is Side.BID)[:d]
    return tuple((p, qty[p]) for p in prices)


class TestResultsAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_market_order_summary_matches_reference_fills(self, seed):
        rng = random.Random(seed)
        book, ref = OrderBook(), BruteForceBook()
        n_market = 0
        for op in random_ops(rng, 80):
            if op[0] == "limit":
                _, oid, side, price, qty = op
                book.submit_limit(mk(oid, side, price, qty))
                ref.submit_limit(oid, 0, side, price, qty)
            elif op[0] == "market":
                _, oid, side, qty = op
                res = book.submit_market(side, qty, agent_id=0, order_id=oid)
                ref_fills, ref_unfilled = ref.submit_market(oid, 0, side, qty)
                filled = sum(q for _, _, _, q in ref_fills)
                assert res.unfilled == ref_unfilled == qty - filled
                assert res.filled == filled
                if filled:
                    assert res.notional == sum(p * q for _, _, p, q in ref_fills)
                    assert res.depth_consumed == len({p for _, _, p, _ in ref_fills}) - 1
                else:
                    assert res.notional == 0 and res.depth_consumed == 0
                n_market += 1
            else:
                assert book.cancel(op[1]) == ref.cancel(op[1])
        assert n_market > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_non_head_cancels_keep_fifo(self, seed):
        rng = random.Random(seed)
        book, ref = OrderBook(), BruteForceBook()
        queues = {}  # price -> live order ids in arrival order
        for oid in range(1, 61):
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            price = rng.randint(95, 97) if side is Side.BID else rng.randint(103, 105)
            qty = rng.randint(1, 30)
            book.submit_limit(mk(oid, side, price, qty, agent=oid))
            ref.submit_limit(oid, oid, side, price, qty)
            queues.setdefault(price, []).append(oid)
        n_cancels = 0
        for price in sorted(queues):
            ids = queues[price]
            while len(ids) > 2:
                victim = ids.pop(rng.randrange(1, len(ids)))  # never the head
                assert book.cancel(victim) is True and ref.cancel(victim) is True
                n_cancels += 1
        assert n_cancels > 0
        for side in Side:
            assert book.snapshot(10).bids == reference_levels(ref, Side.BID, 10)
            assert book.snapshot(10).asks == reference_levels(ref, Side.ASK, 10)
            res = book.submit_market(side, 10 ** 6, agent_id=0, order_id=1000)
            ref_fills, _ = ref.submit_market(1000, 0, side, 10 ** 6)
            assert [(f.maker_order_id, f.price, f.qty) for f in res.fills] == \
                [(m, p, q) for _, m, p, q in ref_fills]

    def test_cancel_middle_of_queue(self):
        book = OrderBook()
        for oid in range(1, 5):
            book.submit_limit(mk(oid, Side.ASK, 101, 5))
        assert book.cancel(2) is True and book.cancel(3) is True
        assert book.total_depth(Side.ASK, 1) == 10
        res = book.submit_market(Side.BID, 10, agent_id=9)
        assert [f.maker_order_id for f in res.fills] == [1, 4]
        assert book.best_ask() is None

    @pytest.mark.parametrize("seed", range(10))
    def test_snapshot_depth_below_level_count(self, seed):
        rng = random.Random(seed)
        truncated = 0
        ops = random_ops(rng, 80)
        for n in range(1, len(ops) + 1):
            book, ref, _, _ = apply_both(ops[:n])
            n_levels = {side: len(reference_levels(ref, side, 100)) for side in Side}
            for d in (1, 2, 3):
                snap = book.snapshot(d, ts=n)
                assert snap.bids == reference_levels(ref, Side.BID, d)
                assert snap.asks == reference_levels(ref, Side.ASK, d)
                assert snap.ts == n
                truncated += max(n_levels.values()) > d
        assert truncated > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_one_fill_line_per_fill(self, seed):
        """One ``Fill`` per match of the reference, in its order, carrying
        the taker's id, agent, side and ts and the maker's id and agent
        (agent ids differ from order ids, so a swap shows)."""
        rng = random.Random(seed)
        book, ref = OrderBook(), BruteForceBook()
        fills, expected = [], []
        for op in random_ops(rng, 80):
            if op[0] == "limit":
                _, oid, side, price, qty = op
                fills += book.submit_limit(mk(oid, side, price, qty, agent=oid + 500,
                                              ts=oid))[0]
                ref_fills = ref.submit_limit(oid, oid + 500, side, price, qty)[0]
            elif op[0] == "market":
                _, oid, side, qty = op
                fills += book.submit_market(side, qty, agent_id=oid + 500, ts=oid,
                                            order_id=oid).fills
                ref_fills = ref.submit_market(oid, oid + 500, side, qty)[0]
            else:
                book.cancel(op[1])
                ref.cancel(op[1])
                continue
            expected += [Fill(taker, maker, taker + 500, maker + 500, side, p, q, oid)
                         for taker, maker, p, q in ref_fills]
        assert fills and fills == expected


def test_fill_and_result_records_are_immutable_with_named_fields():
    book = OrderBook()
    book.submit_limit(mk(1, Side.ASK, 101, 5, agent=2, ts=3))
    res = book.submit_market(Side.BID, 8, agent_id=4, ts=7, order_id=9)
    fill = res.fills[0]
    assert fill == Fill(taker_order_id=9, maker_order_id=1, taker_agent_id=4,
                        maker_agent_id=2, side=Side.BID, price=101, qty=5, ts=7)
    assert Fill._fields == ("taker_order_id", "maker_order_id", "taker_agent_id",
                            "maker_agent_id", "side", "price", "qty", "ts")
    assert MarketOrderResult._fields == ("fills", "notional", "depth_consumed",
                                         "unfilled")
    assert res == MarketOrderResult(fills=(fill,), notional=505,
                                    depth_consumed=0, unfilled=3)
    assert res.filled == 5
    with pytest.raises(AttributeError):
        fill.qty = 1
    with pytest.raises(AttributeError):
        res.unfilled = 0


# -- batched requote and one-pass features ------------------------------------

def requote_script(rng, n_steps):
    """Background orders interleaved with maker-style requotes and value-style
    single quotes.

    A requote cancels the maker's previous ids (some already filled, so the
    cancel misses) plus an id that never existed, then posts a ladder around
    a reference that may sit away from the book, so some quotes cross. A
    value-style step cancels nothing and posts one quote.
    """
    steps, oid, maker_ids = [], 0, []
    for _ in range(n_steps):
        if rng.random() < 0.6:
            oid += 1
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            qty = rng.randint(1, 40)
            if rng.random() < 0.4:
                steps.append(("market", oid, side, qty))
            else:
                steps.append(("limit", oid, side, rng.randint(92, 108), qty))
            continue
        if rng.random() < 0.3:
            oid += 1
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            steps += [("cancel", []),
                      ("quotes", [(oid, side, rng.randint(92, 108), rng.randint(1, 40))])]
            continue
        ref, size = rng.randint(90, 110), rng.randint(1, 20)
        quotes = []
        for i in range(1, rng.randint(1, 6) + 1):
            for side, price in ((Side.BID, ref - i), (Side.ASK, ref + i)):
                oid += 1
                quotes.append((oid, side, price, size))
        steps += [("cancel", maker_ids + [10 ** 9]), ("quotes", quotes)]
        maker_ids = [q[0] for q in quotes]
    return steps


def resting_state(book):
    """Every resting order's fields, in ``order_ids()`` order."""
    return [(o.id, o.agent_id, o.side, o.price, o.qty, o.ts, o.seq)
            for o in book._orders.values()]


def queues(book):
    """(bids, asks): each side's levels best first, each as ``(price,
    total_qty, [(id, agent, qty, ts, seq), ...])`` with its queue in FIFO
    order, which ``resting_state`` does not show."""
    return tuple([(p, ladder[p].total_qty,
                   [(o.id, o.agent_id, o.qty, o.ts, o.seq) for o in ladder[p]])
                  for p in prices]
                 for ladder, prices in ((book._bids, book._bid_prices[::-1]),
                                        (book._asks, book._ask_prices)))


def run_requote_script(steps):
    """Play a script on two books and the oracle.

    ``("limit", oid, side, price, qty)`` and ``("market", oid, side, qty)``
    are background orders from agent 1. ``("cancel", ids)`` and ``("quotes",
    [(oid, side, price, qty), ...])`` are agent 2's batches, with consecutive
    ids and the first id as their ts. The single book cancels one id at a
    time and takes one ``submit_limit`` per quote. The requoted book plays a
    cancel step and the quotes step after it as one ``requote`` call, whose
    builder must get the touch the single book shows between the two (an
    empty cancel list is a value agent's call); it meets the single book
    after every step it has caught up with. Returns (batches that crossed,
    cancels of submitted ids that missed, the requoted book).
    """
    single, requoted = books = [OrderBook(), OrderBook()]
    ref = BruteForceBook()
    submitted = set()
    crossing_batches = filled_misses = 0
    pending = ()  # the cancel ids the requoted book plays with the next quotes
    for n, step in enumerate(steps):
        if step[0] == "limit":
            _, oid, side, price, qty = step
            results = [book.submit_limit(mk(oid, side, price, qty, agent=1, ts=oid))
                       for book in books]
            assert results[0] == results[1]
            ref.submit_limit(oid, 1, side, price, qty)
            submitted.add(oid)
        elif step[0] == "market":
            _, oid, side, qty = step
            results = [book.submit_market(side, qty, 1, oid, oid) for book in books]
            assert results[0] == results[1]
            ref.submit_market(oid, 1, side, qty)
        elif step[0] == "cancel":
            _, cancel_ids = step
            n_cancelled = sum(single.cancel(i) for i in cancel_ids)
            assert n_cancelled == sum(ref.cancel(i) for i in cancel_ids)
            filled_misses += sum(i in submitted for i in cancel_ids) - n_cancelled
            if n + 1 < len(steps) and steps[n + 1][0] == "quotes":
                pending = cancel_ids
            else:
                assert sum(requoted.cancel(i) for i in cancel_ids) == n_cancelled
        else:
            _, quotes = step
            first = quotes[0][0]
            touches = []

            def quotes_at(bid, ask):
                touches.append((bid, ask))
                return [q[1:] for q in quotes]

            requoted_result = requoted.requote(pending, 2, quotes_at, first, first)
            assert touches == [(single.best_bid(), single.best_ask())]
            pending = ()
            assert [q[0] for q in quotes] == list(range(first, first + len(quotes)))
            submitted.update(q[0] for q in quotes)
            fills, ref_fills = [], []
            for o, s, p, q in quotes:
                order = mk(o, s, p, q, agent=2, ts=first)
                fs, r = single.submit_limit(order)
                assert (order.seq, order.qty) == (single._seq, r)  # written back
                fills += fs
                ref_fills += ref.submit_limit(o, 2, s, p, q)[0]
            assert requoted_result == (fills, range(first, first + len(quotes)))
            assert [(f.taker_order_id, f.maker_order_id, f.price, f.qty)
                    for f in fills] == ref_fills
            crossing_batches += bool(fills)
        if not pending:
            assert requoted.snapshot(50) == single.snapshot(50)
            assert requoted.order_ids() == single.order_ids()
            assert resting_state(requoted) == resting_state(single)
            assert queues(requoted) == queues(single)
            assert requoted._seq == single._seq
        assert single.snapshot(50).bids == reference_levels(ref, Side.BID, 50)
        assert single.snapshot(50).asks == reference_levels(ref, Side.ASK, 50)
    return crossing_batches, filled_misses, requoted


def post(book, quotes, first, ts, agent=2):
    """Rest ``(side, price, qty)`` quotes through a ``requote`` that cancels
    nothing (a value agent's call); its result."""
    return book.requote((), agent, lambda bid, ask: quotes, first, ts)


def ladder(first, ref, n, size):
    """Agent 2's quotes: n bid/ask pairs around ref, ids from first."""
    return [(first + 2 * i + j, side, ref + sign * (i + 1), size)
            for i in range(n)
            for j, (side, sign) in enumerate(((Side.BID, -1), (Side.ASK, 1)))]


class TestBatchedRequote:
    @pytest.mark.parametrize("seed", range(20))
    def test_batched_equals_single_calls_and_reference(self, seed):
        run_requote_script(requote_script(random.Random(seed), 60))

    def test_scripts_cross_and_cancel_filled_quotes(self):
        scripts = [requote_script(random.Random(s), 60) for s in range(20)]
        counts = [run_requote_script(steps) for steps in scripts]
        assert sum(crossing for crossing, _, _ in counts) > 0
        assert sum(misses for _, misses, _ in counts) > 0
        # value-style calls: nothing to cancel, one quote
        assert sum(step == ("cancel", []) for steps in scripts for step in steps) > 20

    def test_quotes_cross_when_one_side_is_empty(self):
        # asks only, all below the maker's reference: its bids take them
        steps = [("limit", 1, Side.ASK, 98, 5), ("limit", 2, Side.ASK, 99, 7),
                 ("limit", 3, Side.ASK, 100, 4),
                 ("quotes", [(10 + i, side, price, 6) for i, (side, price) in
                             enumerate([(Side.BID, 101), (Side.ASK, 103),
                                        (Side.BID, 100), (Side.ASK, 104),
                                        (Side.BID, 99), (Side.ASK, 105)])])]
        crossing, _, _ = run_requote_script(steps)
        assert crossing == 1

    # -- the stale entries a requote re-stamps ---------------------------

    def test_requote_at_unchanged_prices_reuses_levels_and_quotes(self):
        book = OrderBook()
        post(book, [q[1:] for q in ladder(1, 100, 3, 5)], 1, 0)
        levels = {p: book._bids.get(p) or book._asks[p] for p in range(97, 104)
                  if p != 100}
        orders = [book._orders[oid] for oid in range(1, 7)]
        touches = []

        def quotes_at(bid, ask):
            touches.append((bid, ask))
            return [q[1:] for q in ladder(7, 100, 3, 8)]

        assert book.requote(range(1, 7), 2, quotes_at, 7, 5) == ([], range(7, 13))
        assert book.total_depth(Side.BID, 3) + book.total_depth(Side.ASK, 3) == 48
        assert touches == [(None, None)]  # the cancels emptied the book
        for p, level in levels.items():
            assert (book._bids.get(p) or book._asks[p]) is level
        assert [book._orders[oid] for oid in range(7, 13)] == orders  # identity
        assert resting_state(book)[0] == (7, 2, Side.BID, 99, 8, 5, 7)

    def test_other_order_at_spare_price_between_cancel_and_quotes(self):
        steps = [("quotes", ladder(1, 100, 3, 5)), ("cancel", list(range(1, 7))),
                 # agent 1 opens the spare bid and ask levels first
                 ("limit", 7, Side.BID, 98, 4), ("limit", 8, Side.ASK, 101, 2),
                 ("quotes", ladder(9, 100, 3, 6))]
        _, _, book = run_requote_script(steps)
        assert book.snapshot(3).bids == ((99, 6), (98, 10), (97, 6))
        assert [o.id for o in book._orders.values() if o.agent_id == 1] == [7, 8]

    def test_cancel_on_a_shared_level_keeps_it_on_the_ladder(self):
        steps = [("limit", 1, Side.BID, 99, 4), ("quotes", ladder(2, 100, 2, 5)),
                 ("limit", 6, Side.ASK, 101, 3), ("cancel", [2, 3, 4, 5]),
                 ("quotes", ladder(7, 100, 2, 6))]
        _, _, book = run_requote_script(steps)
        # queue priority: agent 1's orders stay ahead of the new quotes
        assert book.order_ids() == [1, 6, 7, 8, 9, 10]
        assert book.snapshot(2).bids == ((99, 10), (98, 6))

    def test_cancel_on_a_shared_level_re_stamps_its_last_order(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.BID, 99, 4))
        post(book, [(Side.BID, 99, 5), (Side.BID, 98, 5)], 2, 0)
        level, quote = book._bids[99], book._orders[2]
        touches = []

        def quotes_at(bid, ask):
            touches.append((bid, ask, book._bids[99].total_qty))
            return [(Side.BID, 99, 6)]

        book.requote([2, 3], 2, quotes_at, 4, 1)
        assert touches == [(99, None, 4)]  # the stale quote is not counted
        assert book._bids[99] is level and book._orders[4] is quote
        assert book.order_ids() == [1, 4]
        assert book.snapshot(5).bids == ((99, 10),)  # the stale 98 is purged
        assert list(book._bid_prices) == [99]

    def test_stale_entries_end_with_the_call(self):
        book = OrderBook()
        post(book, [q[1:] for q in ladder(1, 100, 2, 5)], 1, 0)
        old = [book._orders[oid] for oid in range(1, 5)]
        book.requote([1, 2, 3], 2, lambda bid, ask: [], 5, 1)
        assert book.snapshot(5) == BookSnapshot(0, (), ((102, 5),))
        assert (book._bid_prices, list(book._bids)) == ([], [])
        assert (book._ask_prices, list(book._asks)) == ([102], [102])
        # a later call builds a fresh order at a price the requote emptied
        post(book, [(Side.BID, 99, 7)], 5, 2)
        assert all(book._orders[5] is not o for o in old)
        book.requote([4, 5], 2, lambda bid, ask: [(Side.ASK, 103, 1)], 6, 3)
        assert resting_state(book) == [(6, 2, Side.ASK, 103, 1, 3, 6)]
        assert book._orders[6] is not old[3]  # 102 is not 103: no re-stamp

    def test_crossing_residual_rests_at_a_spare_price(self):
        steps = [("limit", 1, Side.ASK, 104, 5), ("quotes", ladder(2, 100, 2, 5)),
                 ("cancel", [2, 3, 4, 5]),
                 ("limit", 6, Side.ASK, 99, 3),  # below the spare bid at 99
                 ("quotes", [(7, Side.BID, 99, 8), (8, Side.ASK, 101, 5)])]
        crossing, _, book = run_requote_script(steps)
        assert crossing == 1
        assert book.snapshot(2).bids == ((99, 5),)
        assert book.snapshot(2).asks == ((101, 5), (104, 5))

    def test_two_cancel_batches_without_a_submit_between(self):
        steps = [("quotes", ladder(1, 100, 2, 5)), ("cancel", [1, 2]),
                 ("cancel", [3, 4, 10 ** 9]),  # drops the first call's spares
                 ("quotes", ladder(5, 100, 2, 7)), ("cancel", []),
                 ("quotes", ladder(9, 100, 1, 2))]
        _, _, book = run_requote_script(steps)
        assert book.snapshot(3).bids == ((99, 9), (98, 7))

    def test_quotes_cross_a_one_sided_book_after_the_cancel(self):
        steps = [("quotes", ladder(1, 100, 3, 5)), ("limit", 7, Side.BID, 96, 9),
                 ("cancel", list(range(1, 7))),
                 # bids only, at and above the spare ask prices
                 ("limit", 8, Side.BID, 102, 4), ("limit", 9, Side.BID, 101, 3),
                 ("quotes", ladder(10, 100, 3, 5))]
        crossing, _, book = run_requote_script(steps)
        assert crossing == 1
        # the ask at 101 fills in full against both bids and never rests
        assert book.snapshot(5).asks == ((102, 5), (103, 5))
        assert book.snapshot(2).bids == ((101, 2), (99, 5))

    @pytest.mark.parametrize("bad", ["zero_qty", "negative_qty", "no_price",
                                     "zero_price", "resting_id"])
    def test_invalid_quote_after_a_cancel_matches_single_calls(self, bad):
        quotes = {"zero_qty": (Side.BID, 99, 0), "negative_qty": (Side.ASK, 101, -3),
                  "no_price": (Side.BID, None, 5), "zero_price": (Side.BID, 0, 5),
                  "resting_id": (Side.BID, 97, 5)}
        # the first quote reopens the spare bid level at 100, the second crosses
        batch = [(Side.BID, 100, 4), (Side.BID, 103, 4), quotes[bad], (Side.ASK, 105, 2)]
        first = 7 if bad == "resting_id" else 11  # the third id, 9, is resting
        states, errors = [], []
        for how in ("requoted", "single"):
            book = OrderBook()
            for order in (mk(1, Side.ASK, 102, 3), mk(2, Side.BID, 100, 3),
                          mk(3, Side.ASK, 103, 10), mk(9, Side.BID, 90, 1)):
                book.submit_limit(order)
            assert book.cancel(2) and not book.cancel(4)
            with pytest.raises(ValueError) as exc:
                if how == "requoted":
                    post(book, batch, first, 5)
                else:
                    for i, (s, p, q) in enumerate(batch):
                        book.submit_limit(mk(first + i, s, p, q, agent=2, ts=5))
            book.submit_limit(mk(20, Side.BID, 91, 1))  # seq continues alike
            states.append((book.snapshot(10), book.order_ids(), resting_state(book),
                           queues(book)))
            errors.append((type(exc.value), str(exc.value)))
        assert states[0] == states[1]
        assert errors[0] == errors[1]
        assert states[0][0].bids[0] == (100, 4)

    def test_caller_order_is_never_re_stamped(self):
        book = OrderBook()
        order = mk(1, Side.BID, 99, 5, agent=3, ts=7)
        book.submit_limit(order)
        assert order.seq == 1
        before = astuple(order)
        resting = book._orders[1]
        assert resting is not order and astuple(resting) == before
        assert book.cancel(1)
        post(book, [(Side.BID, 99, 8)], 2, 20)
        assert astuple(order) == before
        assert resting_state(book) == [(2, 2, Side.BID, 99, 8, 20, 2)]
        # a caller's order on a level a quote left rests as a copy too
        book.cancel(2)
        mine = mk(3, Side.BID, 99, 6, agent=4, ts=21)
        book.submit_limit(mine)
        assert book._orders[3] is not mine
        assert astuple(book._orders[3]) == astuple(mine)
        assert resting_state(book) == [(3, 4, Side.BID, 99, 6, 21, 3)]

    def test_empty_batches(self):
        book = OrderBook()
        assert post(book, [], 1, 0) == ([], range(1, 1))
        assert book.requote([7], 2, lambda bid, ask: [], 1, 0) == ([], range(1, 1))
        assert book.snapshot(5) == BookSnapshot(0, (), ())
        assert book._seq == 0  # an empty batch spends no seq

    # -- one requote call against cancels then one submit_limit per quote --

    @staticmethod
    def sequential_and_requoted(setup, cancel_ids, quotes, first, ts=9):
        """Two books built by ``setup``: one takes a ``cancel`` per id then a
        ``submit_limit`` per quote, the other one ``requote``. Checks that
        their results, queues and the touch the builder got agree; returns
        both books, the result and the touch."""
        out = []
        for one_call in (False, True):
            book = OrderBook()
            setup(book)
            touches = []

            def quotes_at(bid, ask):
                touches.append((bid, ask))
                return quotes

            if one_call:
                result = book.requote(cancel_ids, 2, quotes_at, first, ts)
            else:
                for oid in cancel_ids:
                    book.cancel(oid)
                fills = []
                for i, (s, p, q) in enumerate(
                        quotes_at(book.best_bid(), book.best_ask())):
                    fills += book.submit_limit(mk(first + i, s, p, q, agent=2, ts=ts))[0]
                result = (fills, range(first, first + len(quotes)))
            out.append((book, result, queues(book), touches))
        (seq_book, *seq), (one_book, *one) = out
        assert one == seq
        for book in (seq_book, one_book):
            book.submit_limit(mk(99, Side.BID, 1, 1))  # seq continues alike
        assert one_book.snapshot(50) == seq_book.snapshot(50)
        assert resting_state(one_book) == resting_state(seq_book)
        return seq_book, one_book, one[0], one[2]

    def test_re_stamps_its_own_orders_by_identity(self):
        def setup(book):
            post(book, [(Side.BID, 99, 5), (Side.BID, 98, 5),
                        (Side.ASK, 101, 5)], 1, 0)
        quotes = [(Side.ASK, 101, 3), (Side.BID, 99, 6), (Side.BID, 97, 2)]
        self.sequential_and_requoted(setup, [1, 2, 3], quotes, 4)
        book2 = OrderBook()
        setup(book2)
        bid99, ask101 = book2._orders[1], book2._orders[3]
        book2.requote([1, 2, 3], 2, lambda bid, ask: quotes, 4, 9)
        assert book2._orders[4] is ask101 and book2._orders[5] is bid99
        assert (ask101.id, ask101.qty, ask101.ts, ask101.seq) == (4, 3, 9, 4)
        assert (bid99.id, bid99.qty, bid99.ts, bid99.seq) == (5, 6, 9, 5)
        assert book2._orders[6] not in (bid99, ask101)
        assert book2.snapshot(5).bids == ((99, 6), (97, 2))  # 98 purged

    def test_re_stamps_an_order_submit_limit_rested(self):
        callers = []

        def setup(book):
            post(book, [(Side.BID, 99, 5), (Side.ASK, 101, 5)], 1, 0)
            order = mk(3, Side.BID, 99, 4, agent=1, ts=1)
            book.submit_limit(order)  # last in the level at 99
            callers.append((order, astuple(order), book._orders[3]))
        quotes = [(Side.BID, 99, 6), (Side.ASK, 102, 2)]
        _, book, _, touches = self.sequential_and_requoted(setup, [1, 3], quotes, 4)
        assert touches == [(None, 101)]
        (_, _, seq_resting), (_, before, resting) = callers
        assert before == (3, 1, Side.BID, 4, 99, 1, 3)
        assert book._orders[4] is resting and seq_resting.id == 3
        assert all(astuple(order) == before for order, before, _ in callers)

    def test_a_cancelled_order_moves_behind_a_later_order(self):
        def setup(book):
            post(book, [(Side.BID, 99, 5)], 1, 0)
            book.submit_limit(mk(2, Side.BID, 99, 4, agent=1))
        seq_book, book, _, touches = self.sequential_and_requoted(
            setup, [1], [(Side.BID, 99, 6)], 3)
        assert touches == [(99, None)]
        assert list(book._bids[99]) and [o.id for o in book._bids[99]] == [2, 3]
        assert book.order_ids() == seq_book.order_ids() == [2, 3, 99]
        # agent 1's order is first in the queue
        fills = book.submit_market(Side.ASK, 5, 7, 10).fills
        assert [(f.maker_order_id, f.qty) for f in fills] == [(2, 4), (3, 1)]

    def test_a_new_bid_never_fills_against_the_cancelled_ask(self):
        def setup(book):
            post(book, [(Side.BID, 99, 5), (Side.ASK, 101, 5),
                        (Side.BID, 98, 5), (Side.ASK, 102, 5)], 1, 0)
            book.submit_limit(mk(5, Side.ASK, 106, 3, agent=1))
        # the reference moved up: the new bids sit at and above the old asks
        quotes = [(Side.BID, 103, 4), (Side.ASK, 105, 4), (Side.BID, 102, 4),
                  (Side.ASK, 107, 4)]
        _, book, (fills, ids), touches = self.sequential_and_requoted(
            setup, [1, 2, 3, 4], quotes, 6)
        assert touches == [(None, 106)]
        assert fills == [] and ids == range(6, 10)
        assert book.snapshot(5).bids == ((103, 4), (102, 4), (1, 1))
        assert book.snapshot(5).asks == ((105, 4), (106, 3), (107, 4))

    def test_a_crossing_quote_fills_only_live_orders(self):
        def setup(book):
            post(book, [(Side.ASK, 101, 5), (Side.ASK, 102, 5),
                        (Side.BID, 95, 5)], 1, 0)
            book.submit_limit(mk(4, Side.ASK, 102, 2, agent=1))
        _, book, (fills, ids), touches = self.sequential_and_requoted(
            setup, [1, 2, 3], [(Side.ASK, 101, 1), (Side.BID, 103, 4)], 5)
        assert touches == [(None, 102)]
        # the re-stamped ask at 101 is live again, so the bid takes it first;
        # the bid at 95 stays stale until this crossing quote purges it
        assert [(f.maker_order_id, f.price, f.qty) for f in fills] == \
            [(5, 101, 1), (4, 102, 2)]
        assert ids == range(5, 7) and book.snapshot(5).bids == ((103, 1), (1, 1))

    @pytest.mark.parametrize("crossed", [True, False])
    @pytest.mark.parametrize("bad", ["zero_qty", "negative_qty", "no_price",
                                     "zero_price", "resting_id"])
    def test_an_invalid_quote_mid_call_leaves_the_sequential_book(self, bad, crossed):
        quotes = {"zero_qty": (Side.BID, 99, 0), "negative_qty": (Side.ASK, 101, -3),
                  "no_price": (Side.BID, None, 5), "zero_price": (Side.BID, 0, 5),
                  "resting_id": (Side.BID, 96, 5)}
        # the first quote re-stamps the stale bid at 100; the second crosses,
        # which purges the other stale entries before the invalid quote, or
        # rests, so that they are still stale when it raises
        batch = [(Side.BID, 100, 4), (Side.BID, 103 if crossed else 99, 4),
                 quotes[bad], (Side.ASK, 105, 2)]
        first = 20 if bad == "resting_id" else 30  # the third id, 22, is resting
        states, errors = [], []
        for one_call in (False, True):
            book = OrderBook()
            post(book, [(Side.BID, 100, 3), (Side.ASK, 101, 3),
                        (Side.BID, 97, 2)], 1, 0)
            for order in (mk(10, Side.ASK, 102, 3), mk(11, Side.ASK, 103, 10),
                          mk(22, Side.BID, 90, 1)):
                book.submit_limit(order)
            with pytest.raises(ValueError) as exc:
                if one_call:
                    book.requote([1, 2, 3], 2, lambda bid, ask: batch, first, 5)
                else:
                    for oid in (1, 2, 3):
                        book.cancel(oid)
                    for i, (s, p, q) in enumerate(batch):
                        book.submit_limit(mk(first + i, s, p, q, agent=2, ts=5))
            book.submit_limit(mk(40, Side.BID, 91, 1))  # seq continues alike
            states.append((book.snapshot(10), book.order_ids(), resting_state(book),
                           queues(book), book._bid_prices, book._ask_prices))
            errors.append((type(exc.value), str(exc.value)))
        assert states[0] == states[1]
        assert errors[0] == errors[1]
        assert states[0][0].bids[0] == (100, 4)

    def test_a_builder_that_raises_leaves_the_cancelled_book(self):
        book = OrderBook()
        post(book, [(Side.BID, 99, 5), (Side.ASK, 101, 5)], 1, 0)

        def quotes_at(bid, ask):
            raise RuntimeError("no quotes")

        with pytest.raises(RuntimeError):
            book.requote([1, 2], 2, quotes_at, 3, 1)
        assert book.snapshot(5) == BookSnapshot(0, (), ())
        assert (book._bids, book._asks, book._orders) == ({}, {}, {})

    def test_the_builder_gets_the_touch_without_the_cancelled_orders(self):
        def setup(book):
            book.submit_limit(mk(1, Side.BID, 97, 3, agent=1))
            book.submit_limit(mk(2, Side.ASK, 104, 3, agent=1))
            # agent 2's ladder is the touch; at 99 it queues behind agent 1
            book.submit_limit(mk(3, Side.BID, 99, 2, agent=1))
            post(book, [(Side.BID, 99, 5), (Side.ASK, 101, 5),
                        (Side.BID, 98, 5), (Side.ASK, 102, 5)], 4, 0)
        before = OrderBook()
        setup(before)
        assert (before.best_bid(), before.best_ask()) == (99, 101)
        _, _, _, touches = self.sequential_and_requoted(
            setup, [4, 5, 6, 7], [(Side.BID, 98, 1), (Side.ASK, 103, 1)], 8)
        assert touches == [(99, 104)]  # agent 1's bid at 99 is still there
        _, _, _, touches = self.sequential_and_requoted(
            setup, [3, 4, 5, 6, 7], [], 8)
        assert touches == [(97, 104)]

    def test_a_caller_order_is_never_re_stamped_by_a_requote(self):
        book = OrderBook()
        order = mk(1, Side.BID, 99, 5, agent=3, ts=7)
        book.submit_limit(order)
        before = astuple(order)
        resting = book._orders[1]
        assert resting is not order and astuple(resting) == before
        # the requote re-stamps the book's copy, never the caller's order
        book.requote([1], 2, lambda bid, ask: [(Side.BID, 99, 8)], 2, 20)
        assert book._orders[2] is resting
        assert astuple(order) == before
        assert resting_state(book) == [(2, 2, Side.BID, 99, 8, 20, 2)]
        mine = mk(3, Side.BID, 99, 6, agent=4, ts=21)
        book.cancel(2)
        book.submit_limit(mine)
        assert book._orders[3] is not mine and resting.id == 2
        assert astuple(book._orders[3]) == astuple(mine)
        assert resting_state(book) == [(3, 4, Side.BID, 99, 6, 21, 3)]


class TestImbalances:
    @staticmethod
    def check(book, ref, k):
        for side in Side:
            out = book.imbalances(side, k)
            assert len(out) == k
            for j in range(1, k + 1):
                assert type(out[j - 1]) is float
                assert out[j - 1].hex() == float(book.volume_imbalance(side, j)).hex()
                assert out[j - 1].hex() == float(ref.imbalance(side, j)).hex()

    @pytest.mark.parametrize("seed", range(25))
    def test_random_books_bit_exact(self, seed):
        rng = random.Random(seed)
        ops = random_ops(rng, rng.randint(0, 60))
        book, ref, _, _ = apply_both(ops)
        for k in (1, 2, 5, 12):
            self.check(book, ref, k)

    @pytest.mark.parametrize("seed", range(10))
    def test_large_quantities_bit_exact(self, seed):
        # quantities past 2**53, where int / int must still round correctly
        rng = random.Random(seed)
        book, ref = OrderBook(), BruteForceBook()
        for oid in range(1, 9):
            side = Side.BID if oid % 2 else Side.ASK
            price = rng.randint(90, 99) if side is Side.BID else rng.randint(101, 110)
            qty = rng.randint(1, 10 ** 20)
            book.submit_limit(mk(oid, side, price, qty))
            ref.submit_limit(oid, 0, side, price, qty)
        self.check(book, ref, 6)

    def test_empty_book_is_one_half(self):
        book = OrderBook()
        self.check(book, BruteForceBook(), 5)
        assert book.imbalances(Side.BID, 3) == [0.5, 0.5, 0.5]

    def test_one_sided_and_short_books(self):
        book, ref = OrderBook(), BruteForceBook()
        for oid, price, qty in ((1, 99, 4), (2, 98, 6)):
            book.submit_limit(mk(oid, Side.BID, price, qty))
            ref.submit_limit(oid, 0, Side.BID, price, qty)
        assert book.imbalances(Side.BID, 4) == [1.0] * 4
        assert book.imbalances(Side.ASK, 4) == [0.0] * 4
        self.check(book, ref, 4)
        book.submit_limit(mk(3, Side.ASK, 101, 5))
        ref.submit_limit(3, 0, Side.ASK, 101, 5)
        assert book.imbalances(Side.BID, 4) == [4 / 9, 10 / 15, 10 / 15, 10 / 15]
        self.check(book, ref, 4)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            OrderBook().imbalances(Side.BID, 0)
