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
        assert res.avg_price == 101
        assert res.depth_consumed == 0
        assert res.unfilled == 0

    def test_two_level_walk(self):
        book = OrderBook()
        book.submit_limit(mk(1, Side.ASK, 101, 5))
        book.submit_limit(mk(2, Side.ASK, 102, 5))
        res = book.submit_market(Side.BID, 8, agent_id=9)
        assert [(f.price, f.qty) for f in res.fills] == [(101, 5), (102, 3)]
        assert res.avg_price == Fraction(101 * 5 + 102 * 3, 8) == Fraction(811, 8)
        assert float(res.avg_price) == 101.375
        assert res.depth_consumed == 1

    def test_empty_book(self):
        book = OrderBook()
        res = book.submit_market(Side.BID, 5, agent_id=9)
        assert res.fills == () and res.unfilled == 5
        assert res.avg_price is None and res.depth_consumed == 0

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
                    notional = sum(p * q for _, _, p, q in ref_fills)
                    assert res.avg_price == Fraction(notional, filled)
                    assert res.depth_consumed == len({p for _, _, p, _ in ref_fills}) - 1
                else:
                    assert res.avg_price is None and res.depth_consumed == 0
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
    assert MarketOrderResult._fields == ("fills", "avg_price", "depth_consumed",
                                         "unfilled")
    assert res == MarketOrderResult(fills=(fill,), avg_price=Fraction(101),
                                    depth_consumed=0, unfilled=3)
    assert res.filled == 5
    with pytest.raises(AttributeError):
        fill.qty = 1
    with pytest.raises(AttributeError):
        res.unfilled = 0
