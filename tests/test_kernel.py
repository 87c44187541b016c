import hashlib
import math

import numpy as np
import pytest

from lobexec.agents import (
    MarketMakerAgent,
    MarketMakerParams,
    MomentumAgentParams,
    NoiseAgent,
    NoiseAgentParams,
    ValueAgentParams,
)
from lobexec.kernel import NS_PER_SEC, MarketConfig, MarketSession, SessionLog, kernel_run
from lobexec.lob import BookSnapshot, Side


def small_config(**kw):
    base = dict(n_noise=20, n_value=5, n_momentum=2, n_market_maker=1,
                session_seconds=20.0)
    base.update(kw)
    return MarketConfig(**base)


def test_empty_population_book_stays_empty():
    log = kernel_run(small_config(n_noise=0, n_value=0, n_momentum=0,
                                  n_market_maker=0), seed=0)
    assert len(log.snapshots) == 21  # one per second incl. t=0
    assert all(snap.bids == () and snap.asks == () for _, snap, _ in log.snapshots)
    assert log.fills == []


def test_market_maker_only_seeds_ten_levels_per_side():
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, session_seconds=2.0)
    session = MarketSession(cfg, seed=0)
    session.run_until(NS_PER_SEC)
    snap = session.book.snapshot(20)
    assert len(snap.bids) == 10 and len(snap.asks) == 10
    assert snap.best_bid < snap.best_ask


def test_market_maker_cancel_replace_keeps_quote_count():
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, session_seconds=10.0)
    session = MarketSession(cfg, seed=0)
    session.run_until(5 * NS_PER_SEC)
    mm_id = session.agents[0].agent_id
    assert len(session.book.order_ids(mm_id)) == 2 * cfg.market_maker.n_ticks


def test_same_seed_identical_logs():
    cfg = small_config()
    log1, log2 = kernel_run(cfg, 42), kernel_run(cfg, 42)
    assert log1.snapshots_csv() == log2.snapshots_csv()
    assert log1.fills_csv() == log2.fills_csv()
    assert log1.fundamental_csv() == log2.fundamental_csv()


def test_different_seeds_differ():
    cfg = small_config()
    assert kernel_run(cfg, 1).fills_csv() != kernel_run(cfg, 2).fills_csv()


# sha256 of each CSV for the criterion-9 market (lite population, maker
# pov 0.02 and min_size 50) over 300 s, seed 0. Any change to matching,
# agent behaviour or CSV formatting moves these; a change that is meant to
# alter output updates them on purpose.
GOLDEN_SHA256 = {
    "snapshots_csv": "bb7291f32560c103b8fec620311707fc754b4372fe9e8a29189d69125023b961",
    "fills_csv": "6a67b4a635484e6199a1ab6cb2e2d85a1da113c7eddc68679ae9ef9a690a2240",
    "fundamental_csv": "8919f36cbd9909d54a2ef03e67237eb3d2ecde2b03af77a63c8193c27a1ce117",
}


def test_golden_output_digests():
    cfg = MarketConfig(n_noise=20, n_value=5, n_momentum=1, session_seconds=300.0,
                       market_maker=MarketMakerParams(pov=0.02, min_size=50))
    log = kernel_run(cfg, seed=0)
    assert len(log.fills) == 202 and len(log.snapshots) == 301
    digests = {name: hashlib.sha256(getattr(log, name)().encode()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


def test_snapshots_csv_pads_short_and_one_sided_books():
    snap = BookSnapshot(5, bids=((99, 3),), asks=())
    log = SessionLog(snapshots=[(5, snap, 100.25)])
    assert log.snapshots_csv(2).splitlines()[1] == "5,100.25,99,,99,3,,,,,,"
    assert log.fundamental_csv() == "ts,fundamental\n5,100.25\n"


def test_event_order_audit_hook():
    keys = []
    kernel_run(small_config(), seed=3, hooks={"on_event": lambda ts, seq: keys.append((ts, seq))})
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_malformed_config_rejected_before_run():
    with pytest.raises(ValueError):
        MarketSession(small_config(n_noise=-1), seed=0)
    with pytest.raises(ValueError):
        MarketSession(small_config(session_seconds=0), seed=0)


def test_seed_paths_share_scale():
    # ask paths across seeds differ but their variances stay within 10x
    cfg = small_config(session_seconds=60.0)
    variances = []
    for seed in range(5):
        log = kernel_run(cfg, seed)
        asks = [snap.best_ask for _, snap, _ in log.snapshots
                if snap.best_ask is not None]
        variances.append(np.var(asks) + 1e-9)
    assert max(variances) / min(variances) < 10 ** 2  # within two orders, small sample


class FakeExchange:
    def __init__(self, bid=None, ask=None):
        from lobexec.lob import OrderBook, Order
        self.book = OrderBook()
        self.orders = []
        self._oid = 0
        if bid:
            self.book.submit_limit(Order(id=9991, agent_id=0, side=Side.BID,
                                         qty=bid[1], price=bid[0]))
        if ask:
            self.book.submit_limit(Order(id=9992, agent_id=0, side=Side.ASK,
                                         qty=ask[1], price=ask[0]))
        self._mids = []
        self._volume = 0
        self._obs = 0.0

    def submit_market(self, agent_id, side, qty, ts):
        self.orders.append(("market", side, qty))
        return self.book.submit_market(side, qty, agent_id, ts)

    def submit_limit(self, agent_id, side, price, qty, ts):
        self.orders.append(("limit", side, price, qty))
        self._oid += 1
        return self._oid

    def submit_limits(self, agent_id, quotes, ts):
        return [self.submit_limit(agent_id, side, price, qty, ts)
                for side, price, qty in quotes]

    def cancel(self, oid):
        return True

    def cancel_orders(self, oids):
        return len(oids)

    def mid_history(self):
        return self._mids

    def last_trade_price(self):
        return None

    def transacted_volume(self, now, window):
        return self._volume

    def oracle_observe(self, agent_id, ts, noise_std=0.0):
        return self._obs


class TestNoiseAgent:
    def test_buy_sell_split_and_sizes(self):
        rng = np.random.default_rng(0)
        agent = NoiseAgent(1, rng, NoiseAgentParams())
        ex = FakeExchange(bid=(99, 10 ** 6), ask=(101, 10 ** 6))
        n = 10_000
        for _ in range(n):
            agent.wakeup(0, ex)
        buys = sum(1 for o in ex.orders if o[1] is Side.BID)
        assert abs(buys - n / 2) < 3 * math.sqrt(n * 0.25)
        sizes = [o[2] for o in ex.orders]
        assert min(sizes) >= 10 and max(sizes) <= 100

    def test_interwake_times_exponential(self):
        rng = np.random.default_rng(1)
        agent = NoiseAgent(1, rng, NoiseAgentParams(mean_wake_s=60.0))
        n = 10_000
        delays = [agent._delay() / NS_PER_SEC for _ in range(n)]
        assert abs(np.mean(delays) - 60.0) / 60.0 < 0.05

    def test_empty_book_market_order_unfilled(self):
        rng = np.random.default_rng(2)
        agent = NoiseAgent(1, rng, NoiseAgentParams())
        ex = FakeExchange()
        agent.wakeup(0, ex)
        assert ex.book.snapshot(10) == ex.book.snapshot(10)  # book unchanged/empty
        assert ex.book.best_bid() is None and ex.book.best_ask() is None


class TestValueAgent:
    def make(self, obs, bid=(99, 100), ask=(101, 100)):
        from lobexec.agents import ValueAgent
        ex = FakeExchange(bid=bid, ask=ask)
        ex._obs = obs
        agent = ValueAgent(2, np.random.default_rng(3),
                           ValueAgentParams(obs_noise_std=0.0))
        agent.wakeup(0, ex)
        return ex

    def test_obs_above_ask_crosses(self):
        ex = self.make(obs=105.0)
        assert ex.orders == [("limit", Side.BID, 101, 100)]

    def test_obs_below_bid_crosses_down(self):
        ex = self.make(obs=95.0)
        assert ex.orders == [("limit", Side.ASK, 99, 100)]

    def test_obs_at_mid_no_order(self):
        ex = self.make(obs=100.0)
        assert ex.orders == []

    def test_inside_spread_quotes_toward_mispricing(self):
        ex = self.make(obs=100.6)
        assert ex.orders == [("limit", Side.BID, 100, 100)]

    def test_one_sided_book_falls_back_to_obs(self):
        ex = FakeExchange(bid=(99, 100))
        ex._obs = 100.4
        from lobexec.agents import ValueAgent
        ValueAgent(2, np.random.default_rng(3),
                   ValueAgentParams(obs_noise_std=0.0)).wakeup(0, ex)
        assert ex.orders == [("limit", Side.ASK, 100, 100)]


class TestMomentumAgent:
    def make(self, mids):
        from lobexec.agents import MomentumAgent
        ex = FakeExchange(bid=(99, 10 ** 6), ask=(101, 10 ** 6))
        ex._mids = mids
        MomentumAgent(3, np.random.default_rng(4),
                      MomentumAgentParams()).wakeup(0, ex)
        return ex

    def test_rising_history_buys(self):
        ex = self.make(list(range(100, 160)))
        assert ex.orders == [("market", Side.BID, 50)]

    def test_flat_history_no_action(self):
        ex = self.make([100.0] * 60)
        assert ex.orders == []

    def test_short_history_no_action(self):
        ex = self.make(list(range(10)))
        assert ex.orders == []

    def test_ma_matches_brute_force(self):
        mids = list(np.random.default_rng(5).normal(100, 3, size=60))
        short = sum(mids[-20:]) / 20
        long = sum(mids[-50:]) / 50
        ex = self.make(mids)
        expected_side = Side.BID if short > long else Side.ASK
        if short != long:
            assert ex.orders[0][1] is expected_side


@pytest.mark.parametrize("seed", range(5))
def test_session_batched_quotes_match_single_calls(seed):
    """MarketSession.submit_limits/cancel_orders give the ids, fills, volume
    record and book events of one submit_limit/cancel call per order."""
    import random
    rng = random.Random(seed)
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, n_market_maker=0)
    sessions, lines = [], []
    for _ in range(2):
        session = MarketSession(cfg, seed=0)
        lines.append([])
        session.book.event_log = lines[-1].append
        sessions.append(session)
    batched, single = sessions
    live = []
    for ts in range(1, 40):
        if rng.random() < 0.5:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            qty = rng.randint(1, 30)
            assert batched.submit_market(9, side, qty, ts) == \
                single.submit_market(9, side, qty, ts)
        cancels = live + [10 ** 6]
        assert batched.cancel_orders(cancels) == sum(single.cancel(i) for i in cancels)
        ref = rng.randint(95, 105)
        quotes = [(side, ref + sign * i, rng.randint(1, 20)) for i in range(1, 6)
                  for side, sign in ((Side.BID, -1), (Side.ASK, 1))]
        live = batched.submit_limits(4, quotes, ts)
        assert live == list(range(live[0], live[0] + len(quotes)))
        assert live == [single.submit_limit(4, s, p, q, ts) for s, p, q in quotes]
        assert batched.transacted_volume(ts, 10 ** 9) == \
            single.transacted_volume(ts, 10 ** 9)
        assert batched.last_trade_price() == single.last_trade_price()
    assert batched.log.fills == single.log.fills and batched.log.fills
    assert lines[0] == lines[1]
    # ids are consecutive over every order the session took, from 1
    n_orders = sum(line.split(",")[1] == "submit" for line in lines[0])
    assert batched.submit_limit(4, Side.BID, 1, 1, 99) == \
        single.submit_limit(4, Side.BID, 1, 1, 99) == n_orders + 1


class TestMarketMaker:
    def test_level_size_from_window_volume(self):
        ex = FakeExchange(bid=(99990, 100), ask=(100010, 100))
        ex._volume = 400_000
        mm = MarketMakerAgent(4, np.random.default_rng(6),
                              MarketMakerParams(pov=0.00025))
        mm.wakeup(0, ex)
        quotes = [o for o in ex.orders if o[0] == "limit"]
        assert all(q[3] == 100 for q in quotes)

    def test_zero_volume_floors_at_one(self):
        ex = FakeExchange(bid=(99990, 100), ask=(100010, 100))
        mm = MarketMakerAgent(4, np.random.default_rng(7), MarketMakerParams())
        mm.wakeup(0, ex)
        quotes = [o for o in ex.orders if o[0] == "limit"]
        assert quotes and all(q[3] == 1 for q in quotes)

    def test_adaptive_window_doubles_then_halves(self):
        ex = FakeExchange(bid=(99990, 100), ask=(100010, 100))
        mm = MarketMakerAgent(4, np.random.default_rng(8),
                              MarketMakerParams(window_s=60.0))
        mm.wakeup(0, ex)
        assert mm._window_ns == 120 * NS_PER_SEC
        ex._volume = 1000
        mm.wakeup(NS_PER_SEC, ex)
        assert mm._window_ns == 60 * NS_PER_SEC


def test_endogenous_transient_impact():
    # a large one-off buy raises the short-horizon mid vs a seed-matched
    # control, and the gap shrinks by five minutes out
    cfg = MarketConfig(n_noise=50, n_value=10, n_momentum=0,
                       session_seconds=400.0,
                       market_maker=MarketMakerParams(pov=0.02, min_size=50))
    t_hit = 60 * NS_PER_SEC

    def mids(shock):
        session = MarketSession(cfg, seed=11)
        session.run_until(t_hit)
        if shock:
            session.submit_market(-5, Side.BID, 2000, t_hit)
        out = {}
        for label, t in (("1s", t_hit + NS_PER_SEC),
                         ("5m", t_hit + 300 * NS_PER_SEC)):
            session.run_until(t)
            out[label] = float(session.book.mid_price())
        return out

    base, shocked = mids(False), mids(True)
    gap_1s = shocked["1s"] - base["1s"]
    gap_5m = shocked["5m"] - base["5m"]
    assert gap_1s > 0
    assert abs(gap_5m) < gap_1s
