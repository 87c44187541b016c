import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobexec.lob import (
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


def test_event_log_lines():
    lines = []
    book = OrderBook(event_log=lines.append)
    book.submit_limit(mk(1, Side.ASK, 101, 5, agent=2, ts=10))
    book.submit_market(Side.BID, 3, agent_id=3, ts=20, order_id=2)
    book.cancel(1)
    kinds = [line.split(",")[1] for line in lines]
    assert kinds == ["submit", "submit", "fill", "cancel"]
    assert lines[2] == "20,fill,bid,101,3,2,3"


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
        rng = random.Random(seed)
        lines = []
        book = OrderBook(event_log=lines.append)
        fills = []
        for op in random_ops(rng, 80):
            if op[0] == "limit":
                _, oid, side, price, qty = op
                fills += book.submit_limit(mk(oid, side, price, qty, agent=oid, ts=oid))[0]
            elif op[0] == "market":
                _, oid, side, qty = op
                fills += book.submit_market(side, qty, agent_id=oid, ts=oid,
                                            order_id=oid).fills
            else:
                book.cancel(op[1])
        assert fills
        fill_lines = [line for line in lines if line.split(",")[1] == "fill"]
        assert fill_lines == [
            f"{f.ts},fill,{f.side.value},{f.price},{f.qty},"
            f"{f.taker_order_id},{f.taker_agent_id}" for f in fills]


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
    """Background orders interleaved with maker-style requotes.

    A requote cancels the maker's previous ids (some already filled, so the
    cancel misses) plus an id that never existed, then posts a ladder around
    a reference that may sit away from the book, so some quotes cross.
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
        ref, size = rng.randint(90, 110), rng.randint(1, 20)
        quotes = []
        for i in range(1, rng.randint(1, 6) + 1):
            for side, price in ((Side.BID, ref - i), (Side.ASK, ref + i)):
                oid += 1
                quotes.append((oid, side, price, size))
        steps.append(("requote", maker_ids + [10 ** 9], quotes))
        maker_ids = [q[0] for q in quotes]
    return steps


def run_requote_script(steps):
    """Play a script on a batched book, a single-call book and the oracle."""
    batched_log, single_log = [], []
    batched = OrderBook(event_log=batched_log.append)
    single = OrderBook(event_log=single_log.append)
    ref = BruteForceBook()
    crossing_batches = filled_misses = 0
    for step in steps:
        if step[0] == "limit":
            _, oid, side, price, qty = step
            assert batched.submit_limit(mk(oid, side, price, qty, agent=1, ts=oid)) == \
                single.submit_limit(mk(oid, side, price, qty, agent=1, ts=oid))
            ref.submit_limit(oid, 1, side, price, qty)
        elif step[0] == "market":
            _, oid, side, qty = step
            assert batched.submit_market(side, qty, 1, oid, oid) == \
                single.submit_market(side, qty, 1, oid, oid)
            ref.submit_market(oid, 1, side, qty)
        else:
            _, cancel_ids, quotes = step
            n_cancelled = batched.cancel_orders(cancel_ids)
            assert n_cancelled == sum(single.cancel(i) for i in cancel_ids) == \
                sum(ref.cancel(i) for i in cancel_ids)
            filled_misses += len(cancel_ids) - 1 - n_cancelled  # one id never existed
            a_orders = [mk(o, s, p, q, agent=2, ts=o) for o, s, p, q in quotes]
            b_orders = [mk(o, s, p, q, agent=2, ts=o) for o, s, p, q in quotes]
            fills, resting = batched.submit_limits(a_orders)
            single_fills, single_resting, ref_fills = [], 0, []
            for order, (o, s, p, q) in zip(b_orders, quotes):
                fs, r = single.submit_limit(order)
                single_fills += fs
                single_resting += r
                ref_fills += ref.submit_limit(o, 2, s, p, q)[0]
            assert fills == single_fills
            assert [(f.taker_order_id, f.maker_order_id, f.price, f.qty)
                    for f in fills] == ref_fills
            assert resting == single_resting
            assert [(o.seq, o.qty) for o in a_orders] == \
                [(o.seq, o.qty) for o in b_orders]
            crossing_batches += bool(fills)
        assert batched.snapshot(50) == single.snapshot(50)
        assert batched.snapshot(50).bids == reference_levels(ref, Side.BID, 50)
        assert batched.snapshot(50).asks == reference_levels(ref, Side.ASK, 50)
        assert batched.order_ids() == single.order_ids()
    assert batched_log == single_log
    return crossing_batches, filled_misses


class TestBatchedRequote:
    @pytest.mark.parametrize("seed", range(20))
    def test_batched_equals_single_calls_and_reference(self, seed):
        run_requote_script(requote_script(random.Random(seed), 60))

    def test_scripts_cross_and_cancel_filled_quotes(self):
        counts = [run_requote_script(requote_script(random.Random(s), 60))
                  for s in range(20)]
        assert sum(crossing for crossing, _ in counts) > 0
        assert sum(misses for _, misses in counts) > 0

    def test_quotes_cross_when_one_side_is_empty(self):
        # asks only, all below the maker's reference: its bids take them
        steps = [("limit", 1, Side.ASK, 98, 5), ("limit", 2, Side.ASK, 99, 7),
                 ("limit", 3, Side.ASK, 100, 4),
                 ("requote", [], [(10 + i, side, price, 6) for i, (side, price) in
                                  enumerate([(Side.BID, 101), (Side.ASK, 103),
                                             (Side.BID, 100), (Side.ASK, 104),
                                             (Side.BID, 99), (Side.ASK, 105)])])]
        crossing, _ = run_requote_script(steps)
        assert crossing == 1

    @pytest.mark.parametrize("bad", ["zero_qty", "negative_qty", "no_price",
                                     "zero_price", "resting_id", "batch_id"])
    def test_invalid_order_mid_batch_matches_single_calls(self, bad):
        orders = {"zero_qty": (7, Side.BID, 99, 0), "negative_qty": (7, Side.ASK, 101, -3),
                  "no_price": (7, Side.BID, None, 5), "zero_price": (7, Side.BID, 0, 5),
                  "resting_id": (3, Side.BID, 97, 5), "batch_id": (5, Side.ASK, 106, 5)}
        # the second quote crosses: it takes order 1 and part of order 3
        quotes = [(5, Side.ASK, 104, 3), (6, Side.BID, 103, 4), orders[bad],
                  (8, Side.ASK, 105, 2)]
        books, logs, errors = [], [], []
        for batched in (True, False):
            log = []
            book = OrderBook(event_log=log.append)
            book.submit_limit(mk(1, Side.ASK, 102, 3))
            book.submit_limit(mk(2, Side.BID, 100, 3))
            book.submit_limit(mk(3, Side.ASK, 103, 10))
            if batched:
                assert book.cancel_orders([2, 4]) == 1
            else:
                assert book.cancel(2) and not book.cancel(4)
            built = [mk(*q) for q in quotes]
            with pytest.raises(ValueError) as exc:
                if batched:
                    book.submit_limits(built)
                else:
                    for order in built:
                        book.submit_limit(order)
            book.submit_limit(mk(9, Side.BID, 90, 1))  # seq continues alike
            books.append((book.snapshot(10), book.order_ids(),
                          [(o.seq, o.qty) for o in built]))
            logs.append(log)
            errors.append((type(exc.value), str(exc.value)))
        assert books[0] == books[1]
        assert logs[0] == logs[1]
        assert errors[0] == errors[1]

    def test_empty_batches(self):
        book = OrderBook()
        assert book.submit_limits([]) == ([], 0)
        assert book.cancel_orders([]) == 0


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
