import gc
import hashlib
import io
import math
import sys
import tracemalloc
import types
from collections import deque
from dataclasses import fields

import numpy as np
import pytest

from lobexec import _bounds, fundamental, kernel
from lobexec.agents import (
    MarketMakerAgent,
    MarketMakerParams,
    MomentumAgent,
    MomentumAgentParams,
    NoiseAgent,
    NoiseAgentParams,
    ValueAgent,
    ValueAgentParams,
)
from lobexec._bounds import check_bounds
from lobexec._io import open_atomic
from lobexec.fundamental import FundamentalParams
from lobexec.kernel import NS_PER_SEC, MarketConfig, MarketSession, SessionLog, kernel_run
from lobexec.lob import BookSnapshot, Fill, Order, OrderBook, Side

from test_lob import queues


def small_config(**kw):
    base = dict(n_noise=20, n_value=5, n_momentum=2, n_market_maker=1,
                session_seconds=20.0)
    base.update(kw)
    return MarketConfig(**base)


def csv_rows(text):
    """The rows of CSV text as dicts keyed by its header."""
    header, *rows = text.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def text_sinks():
    """(snapshots, fills, fundamental) ``io.StringIO`` sinks for a log."""
    return io.StringIO(), io.StringIO(), io.StringIO()


def logged_run(config, seed):
    """``kernel_run`` into ``text_sinks``: its log and their three texts."""
    sinks = text_sinks()
    log = kernel_run(config, seed, sinks)
    return log, tuple(sink.getvalue() for sink in sinks)


def test_default_population_order_and_ids():
    agents = MarketSession(MarketConfig(), seed=0).agents
    assert [a.agent_id for a in agents] == list(range(1, 1116))
    expected = ([MarketMakerAgent] * 1 + [ValueAgent] * 102
                + [MomentumAgent] * 12 + [NoiseAgent] * 1000)
    assert [type(a) for a in agents] == expected


@pytest.mark.parametrize("seed", range(5))
def test_first_wakeup_formulas(seed):
    def twin():
        return np.random.default_rng(seed)

    def in_seconds(rng, mean_wake_s):
        return max(1, int(rng.exponential(mean_wake_s) * NS_PER_SEC))

    noise, momentum = NoiseAgentParams(mean_wake_s=7.5), MomentumAgentParams()
    value = ValueAgentParams(lambda_va=3.1e-11)
    cases = [
        (NoiseAgent(1, twin(), noise), lambda r: in_seconds(r, 7.5)),
        (MomentumAgent(2, twin(), momentum),
         lambda r: in_seconds(r, momentum.mean_wake_s)),
        (ValueAgent(3, twin(), value),
         lambda r: max(1, int(r.exponential(1.0 / 3.1e-11)))),
        (MarketMakerAgent(4, twin(), MarketMakerParams()), lambda r: 0),
    ]
    for agent, formula in cases:
        rng = twin()
        assert agent.first_wakeup() == formula(rng)
        assert agent.first_wakeup() == formula(rng)


def test_empty_population_book_stays_empty():
    log, (snapshots, fills, _) = logged_run(
        small_config(n_noise=0, n_value=0, n_momentum=0, n_market_maker=0), seed=0)
    rows = csv_rows(snapshots)
    assert len(rows) == log.n_snapshots == 21  # one per second incl. t=0
    assert all(value == "" for row in rows for key, value in row.items()
               if key not in ("ts", "fundamental"))
    assert fills == "ts,side,price,qty,taker_agent,maker_agent\n"
    assert log.n_fills == 0


def test_market_maker_only_seeds_ten_levels_per_side():
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, session_seconds=2.0)
    session = MarketSession(cfg, seed=0)
    session.run_until(NS_PER_SEC)
    snap = session.book.snapshot(20)
    assert len(snap.bids) == 10 and len(snap.asks) == 10
    assert snap.bids[0][0] < snap.asks[0][0]


def test_market_maker_cancel_replace_keeps_quote_count():
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, session_seconds=10.0)
    session = MarketSession(cfg, seed=0)
    session.run_until(5 * NS_PER_SEC)
    mm_id = session.agents[0].agent_id
    mm_orders = [o for o in session.book._orders.values() if o.agent_id == mm_id]
    assert len(mm_orders) == 2 * cfg.market_maker.n_ticks


def test_same_seed_identical_logs():
    cfg = small_config()
    (_, texts1), (_, texts2) = logged_run(cfg, 42), logged_run(cfg, 42)
    assert texts1 == texts2  # snapshots, fills and fundamental


def test_different_seeds_differ():
    cfg = small_config()
    (_, (_, fills1, _)), (_, (_, fills2, _)) = logged_run(cfg, 1), logged_run(cfg, 2)
    assert fills1 != fills2


# sha256 of each CSV for the criterion-9 market (lite population, maker
# pov 0.02 and min_size 50) over 300 s, seed 0. Any change to matching,
# agent behaviour or CSV formatting moves these; a change that is meant to
# alter output updates them on purpose.
GOLDEN_SHA256 = {
    "snapshots_csv": "bb7291f32560c103b8fec620311707fc754b4372fe9e8a29189d69125023b961",
    "fills_csv": "6a67b4a635484e6199a1ab6cb2e2d85a1da113c7eddc68679ae9ef9a690a2240",
    "fundamental_csv": "8919f36cbd9909d54a2ef03e67237eb3d2ecde2b03af77a63c8193c27a1ce117",
}


# The same at seed 2**32 + 5, whose entropy is two uint32 words.
GOLDEN_SHA256_WIDE_SEED = {
    "snapshots_csv": "39b9f6eca0cbd383b4406a2aa667dc047562971371019d01f4b5a4e0293ab5a3",
    "fills_csv": "75dab72acda090aa0e2ed7bc94d94cb7e147ace6698b7d35fea8f8914766452d",
    "fundamental_csv": "9cbffa185102e9b9cb1e6dbafc9cd0a307a948e26fc111b683896fdba5fd21ab",
}


def golden_run(seed):
    cfg = MarketConfig(n_noise=20, n_value=5, n_momentum=1, session_seconds=300.0,
                       market_maker=MarketMakerParams(pov=0.02, min_size=50))
    log, texts = logged_run(cfg, seed)
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in zip(GOLDEN_SHA256, texts)}
    return log, digests


def test_golden_output_digests():
    log, digests = golden_run(0)
    assert log.n_fills == 202 and log.n_snapshots == 301
    assert digests == GOLDEN_SHA256


def test_golden_output_digests_wide_seed():
    log, digests = golden_run(2**32 + 5)
    assert log.n_fills == 169 and log.n_snapshots == 301
    assert digests == GOLDEN_SHA256_WIDE_SEED


def reachable(root):
    """Every object reachable from ``root`` through references, without
    entering classes or modules."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_log_keeps_text_not_book_objects(tmp_path):
    """A log with file sinks writes its rows away as they happen: once the
    run ends and the files are closed, no ``Fill``, no ``BookSnapshot`` and
    no line of row text stays reachable from the log."""
    paths = [tmp_path / f"{name}.csv" for name in ("snapshots", "fills", "fundamental")]
    with open_atomic(*paths) as sinks:
        log = kernel_run(small_config(), seed=4, sinks=sinks)
    assert log.n_fills > 20 and log.n_snapshots == 21
    rows = {line for path in paths for line in path.read_text().splitlines()[1:]}
    assert len(rows) > 40
    kept = reachable(log)
    assert not [obj for obj in kept if isinstance(obj, (Fill, BookSnapshot))]
    kept_lines = {line for obj in kept if isinstance(obj, str)
                  for line in obj.splitlines()}
    assert kept_lines.isdisjoint(rows)
    # the walk reaches the sinks it checks
    assert sum(isinstance(obj, io.TextIOWrapper) for obj in kept) == 3


def test_log_memory_does_not_grow_with_session_length(tmp_path):
    """A log into file sinks holds no rows: a session four times as long
    peaks above a short one by under a tenth of the extra bytes it writes,
    once the session's (ts, cumulative qty) fill history, which
    ``transacted_volume`` reads, is counted out."""
    logged_run(small_config(session_seconds=60.0), 0)  # one-time allocations
    peaks, written, history = [], [], []
    for seconds in (60.0, 240.0):
        # 20 ticks a second, so that the rows outweigh the files' buffers
        cfg = small_config(session_seconds=seconds, snapshot_interval_s=0.05)
        paths = [tmp_path / f"{name}_{seconds:g}.csv"
                 for name in ("snapshots", "fills", "fundamental")]
        tracemalloc.start()
        try:
            with open_atomic(*paths) as sinks:
                log = kernel_run(cfg, 0, sinks)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert log.n_snapshots == 20 * seconds + 1
        written.append(sum(path.stat().st_size for path in paths))
        # a session without a log keeps the same fill history
        bare = MarketSession(cfg, 0)
        bare.run_until(bare.session_end)
        history.append(sum(sys.getsizeof(x) for fill_list in
                           (bare._fill_ts, bare._fill_qty_cum)
                           for x in (fill_list, *fill_list)))
    extra = written[1] - written[0]
    assert extra > 50_000
    assert peaks[1] - peaks[0] - (history[1] - history[0]) < extra / 10


def test_snapshots_csv_pads_short_and_one_sided_books():
    book = OrderBook()
    book.submit_limit(Order(1, 7, Side.BID, 3, 99))
    snapshots, _, fundamental = sinks = text_sinks()
    SessionLog(2, sinks).add_tick(5, book, 100.25)
    assert snapshots.getvalue().splitlines() == [
        "ts,fundamental,best_bid,best_ask,bid_px_1,bid_qty_1,ask_px_1,ask_qty_1,"
        "bid_px_2,bid_qty_2,ask_px_2,ask_qty_2",
        "5,100.25,99,,99,3,,,,,,"]
    assert fundamental.getvalue() == "ts,fundamental\n5,100.25\n"


def test_a_log_needs_its_sinks():
    with pytest.raises(TypeError):
        SessionLog(2)
    with pytest.raises(TypeError):
        kernel_run(small_config(), 0)


def test_event_order_audit_hook():
    keys = []
    session = MarketSession(small_config(), 3,
                            {"on_event": lambda ts, seq: keys.append((ts, seq))},
                            log=SessionLog(small_config().depth, text_sinks()))
    session.run_until(session.session_end)
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


class Scripted:
    """Agent stub that returns its scripted delays in turn, then None."""

    def __init__(self, name, delays, woken):
        self.name, self.delays, self.woken = name, list(delays), woken

    def wakeup(self, now, exchange):
        self.woken.append((self.name, now))
        return self.delays.pop(0) if self.delays else None


def test_scheduling_contract():
    """A delay of None goes silent, one below 1 ns becomes 1, an event past
    the session end is dropped without a sequence number, and one exactly
    at the end still runs."""
    end = 10 * NS_PER_SEC
    keys, woken = [], []
    session = MarketSession(small_config(n_noise=0, n_value=0, n_momentum=0,
                                         n_market_maker=0, session_seconds=10.0),
                            seed=0, hooks={"on_event": lambda ts, seq: keys.append((ts, seq))})
    assert session.session_end == end
    # queued after the t=0 snapshot (seq 1) as seq 2, 3, 4 and 5
    session._schedule(5, Scripted("silent", [None], woken))
    session._schedule(5, Scripted("zero", [0, -5], woken))
    session._schedule(100, Scripted("on_end", [end - 100, 1], woken))
    session._schedule(200, Scripted("beyond", [end - 199], woken))
    session.run_until(end)
    assert woken == [("silent", 5), ("zero", 5), ("zero", 6), ("zero", 7),
                     ("on_end", 100), ("beyond", 200), ("on_end", end)]
    # snapshots take seq 6 at 1 s, then 10, 11, ... from 2 s on
    snapshots = [(NS_PER_SEC, 6)] + [(k * NS_PER_SEC, 8 + k) for k in range(2, 11)]
    assert keys == ([(0, 1), (5, 2), (5, 3), (6, 7), (7, 8), (100, 4), (200, 5)]
                    + snapshots[:-1] + [(end, 9), snapshots[-1]])
    assert session._queue == [] and session.now == end


@pytest.mark.parametrize("piece_ns", [NS_PER_SEC, 333_333_333])
def test_run_until_in_pieces_matches_one_call(piece_ns):
    """Advancing the clock piece by piece, as ExecutionEnv does, processes
    the same events and writes the same bytes as one call to the end."""
    cfg = small_config(session_seconds=30.0, noise=NoiseAgentParams(mean_wake_s=3.0))
    runs = []
    for pieces in (False, True):
        keys = []
        snapshots, fills, _ = sinks = text_sinks()
        session = MarketSession(cfg, seed=5, hooks={
            "on_event": lambda ts, seq: keys.append((ts, seq))},
            log=SessionLog(cfg.depth, sinks))
        if pieces:
            for t in range(piece_ns, session.session_end + piece_ns, piece_ns):
                session.run_until(t)
        else:
            session.run_until(session.session_end)
        runs.append((keys, fills.getvalue(), snapshots.getvalue()))
    whole, piecewise = runs
    keys, fills, _ = whole
    assert len(keys) > 200 and fills.count("\n") > 20
    assert piecewise == whole


def test_malformed_config_rejected_before_run():
    with pytest.raises(ValueError):
        MarketSession(small_config(n_noise=-1), seed=0)
    with pytest.raises(ValueError):
        MarketSession(small_config(session_seconds=0), seed=0)
    with pytest.raises(ValueError, match="^fundamental.sigma must be >= 0$"):
        MarketSession(small_config(fundamental=FundamentalParams(sigma=-1.0)), seed=0)


def test_session_walks_its_fundamental_params_once(monkeypatch):
    # the session's config walk covers the section; its path does not walk it again
    config = small_config()
    walked = []
    walk = _bounds.check_bounds

    def counting(obj, prefix=""):
        walked.append(obj)
        walk(obj, prefix)

    for module in (_bounds, fundamental, kernel):
        monkeypatch.setattr(module, "check_bounds", counting)
    MarketSession(config, seed=0)
    assert sum(obj is config.fundamental for obj in walked) == 1
    assert walked[0] is config


def test_seed_paths_share_scale():
    # ask paths across seeds differ but their variances stay within 10x
    cfg = small_config(session_seconds=60.0)
    variances = []
    for seed in range(5):
        _, (snapshots, _, _) = logged_run(cfg, seed)
        asks = [int(row["best_ask"]) for row in csv_rows(snapshots)
                if row["best_ask"]]
        variances.append(np.var(asks) + 1e-9)
    assert max(variances) / min(variances) < 10 ** 2  # within two orders, small sample


class FakeExchange:
    """The agent interface of ``MarketSession`` over a private book, with no
    ``book`` attribute: agents reach the market only through these calls."""

    def __init__(self, bid=None, ask=None):
        from lobexec.lob import OrderBook, Order
        self._book = OrderBook()
        self.orders = []
        self._oid = 0
        if bid:
            self._book.submit_limit(Order(id=9991, agent_id=0, side=Side.BID,
                                          qty=bid[1], price=bid[0]))
        if ask:
            self._book.submit_limit(Order(id=9992, agent_id=0, side=Side.ASK,
                                          qty=ask[1], price=ask[0]))
        self._mids = []
        self._volume = 0
        self._obs = 0.0

    def submit_market(self, agent_id, side, qty, ts):
        self.orders.append(("market", side, qty))
        return self._book.submit_market(side, qty, agent_id, ts)

    def requote(self, agent_id, oids, quotes_at, ts):
        first = self._oid + 1
        for side, price, qty in quotes_at(self._book.best_bid(), self._book.best_ask()):
            self.orders.append(("limit", side, price, qty))
            self._oid += 1
        return range(first, self._oid + 1)

    def mid_history(self):
        return self._mids

    def last_trade_price(self):
        return None

    def transacted_volume(self, now, window):
        return self._volume

    def oracle_observe(self, agent_id, ts, noise_std=0.0):
        return self._obs


@pytest.mark.parametrize("cls,params", [
    (NoiseAgent, NoiseAgentParams()),
    (ValueAgent, ValueAgentParams(obs_noise_std=0.0)),
    (MomentumAgent, MomentumAgentParams()),
    (MarketMakerAgent, MarketMakerParams()),
])
def test_agents_never_read_the_exchange_book(cls, params):
    ex = FakeExchange(bid=(99, 10 ** 6), ask=(102, 10 ** 6))
    assert not hasattr(ex, "book")
    ex._obs, ex._mids = 105.0, list(range(100, 160))
    agent = cls(1, np.random.default_rng(0), params)
    for t in range(3):
        assert agent.wakeup(t, ex) >= 1
    assert len(ex.orders) >= 3


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
        assert ex._book.snapshot(10) == ex._book.snapshot(10)  # book unchanged/empty
        assert ex._book.best_bid() is None and ex._book.best_ask() is None


class Recorder:
    """Exchange stub that records each market order's side and size."""

    def __init__(self):
        self.orders = []

    def submit_market(self, agent_id, side, qty, ts):
        self.orders.append((side, qty))


class TestNoiseAgentDraws:
    """NoiseAgent draws its sizes from the bit generator; each wakeup must
    match a twin Generator's random(), integers(min, max + 1) and
    exponential(), and leave the stream where the twin's is."""

    @pytest.mark.parametrize("min_size,max_size", [
        (10, 10),                 # span 0: no draw, the delay still matches
        (10, 11),                 # span 1
        (10, 100),                # span 90, the default sizes
        (1, 2**31 + 1),           # span 2**31: about half the first draws rejected
        (1, 2**32 - 1),           # span 2**32 - 2, the widest NoiseAgentParams allows
    ])
    def test_matches_live_generator(self, min_size, max_size):
        params = NoiseAgentParams(min_size=min_size, max_size=max_size, mean_wake_s=7.5)
        check_bounds(MarketConfig(noise=params))
        wakeups = draws = 0
        for seed in range(12):
            agent = NoiseAgent(1, np.random.default_rng(seed), params)
            next_uint32 = agent._next_uint32

            def counted():
                nonlocal draws
                draws += 1
                return next_uint32()

            agent._next_uint32 = counted
            twin = np.random.default_rng(seed)
            ex = Recorder()
            for _ in range(800):
                delay = agent.wakeup(0, ex)
                side = Side.BID if twin.random() < 0.5 else Side.ASK
                assert ex.orders[-1] == (side, int(twin.integers(min_size, max_size + 1)))
                assert delay == max(1, int(twin.exponential(7.5) * NS_PER_SEC))
                ours, theirs = agent.rng.bit_generator.state, twin.bit_generator.state
                assert ours["state"] == theirs["state"]
                assert agent._high == (theirs["uinteger"] if theirs["has_uint32"]
                                       else None)
                wakeups += 1
        if min_size == max_size:
            assert draws == 0
        elif max_size - min_size == 2**31:
            assert draws > 1.5 * wakeups
        else:
            assert draws >= wakeups

    def test_rejection_threshold(self):
        # Lemire: the word u gives m = u * n and is redrawn iff m mod 2**32
        # < 2**32 mod n. Random streams almost never land next to that
        # threshold, so words on either side of it are scripted here.
        lo, n = 10, 91
        threshold = 2**32 % n
        inverse = pow(n, -1, 2**32)
        redrawn, kept = (t * inverse % 2**32 for t in (threshold - 1, threshold))
        agent = NoiseAgent(1, np.random.default_rng(0), NoiseAgentParams(lo, lo + n - 1))
        agent._raw = iter([kept << 32 | redrawn]).__next__  # low half first
        assert agent._size() == lo + (kept * n >> 32)
        assert agent._high is None

    def test_side_threshold(self):
        # random() is (raw >> 11) * 2**-53, below 0.5 exactly when raw <
        # 2**63; the words on either side of that are scripted here.
        words = [2**63 - 1, 2**63]
        assert [(w >> 11) * 2**-53 < 0.5 for w in words] == [True, False]
        agent = NoiseAgent(1, np.random.default_rng(0), NoiseAgentParams(10, 10))
        agent._raw = iter(words).__next__  # min_size == max_size: no size draw
        ex = Recorder()
        agent.wakeup(0, ex)
        agent.wakeup(0, ex)
        assert ex.orders == [(Side.BID, 10), (Side.ASK, 10)]


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


def test_mid_ring_holds_what_momentum_agents_read():
    """The session keeps the last max(short_window, long_window) mids, so an
    agent whose short window is the longer one still averages the trailing
    mids of the whole history, as it did over a longer ring."""
    params = MomentumAgentParams(short_window=30, long_window=10, mean_wake_s=2.0)
    cfg = small_config(n_momentum=3, momentum=params, session_seconds=60.0)
    snapshots, fills, _ = sinks = text_sinks()
    session = MarketSession(cfg, seed=3, log=SessionLog(cfg.depth, sinks))
    momentum_ids = {a.agent_id for a in session.agents if isinstance(a, MomentumAgent)}
    for t in range(1, 61):
        session.run_until(t * NS_PER_SEC)
        # float(OrderBook.mid_price()), since int true division is correctly rounded
        mids = [(int(row["best_bid"]) + int(row["best_ask"])) / 2
                for row in csv_rows(snapshots.getvalue())
                if row["best_bid"] and row["best_ask"]]
        ring = session.mid_history()
        assert ring[-30:] == mids[-30:]  # what the agents average over
        assert len(ring) == min(len(mids), 30)
    assert len(mids) > 30
    assert any(int(row["taker_agent"]) in momentum_ids
               for row in csv_rows(fills.getvalue()))


@pytest.mark.parametrize("seed", range(5))
def test_session_batched_quotes_match_single_calls(seed):
    """A MarketSession.requote gives the ids, fills, volume record and book
    queues of one call per cancel and one requote with no cancels per quote,
    and its builder gets the touch the cancels leave."""
    import random
    rng = random.Random(seed)
    cfg = small_config(n_noise=0, n_value=0, n_momentum=0, n_market_maker=0)
    (_, batched_fills, _), (_, single_fills, _) = sinks = text_sinks(), text_sinks()
    batched, single = (MarketSession(cfg, seed=0, log=SessionLog(cfg.depth, s))
                       for s in sinks)
    live = range(0)
    n_orders = 0  # market orders and quotes: each takes one id
    for ts in range(1, 40):
        if rng.random() < 0.5:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            qty = rng.randint(1, 30)
            assert batched.submit_market(9, side, qty, ts) == \
                single.submit_market(9, side, qty, ts)
            n_orders += 1
        cancels = [*live, 10 ** 6]
        for i in cancels:
            single.book.cancel(i)
        ref = rng.randint(95, 105)
        quotes = [(side, ref + sign * i, rng.randint(1, 20)) for i in range(1, 6)
                  for side, sign in ((Side.BID, -1), (Side.ASK, 1))]
        touches = []

        def quotes_at(bid, ask):
            touches.append((bid, ask))
            return quotes

        live = batched.requote(4, cancels, quotes_at, ts)
        assert touches == [(single.book.best_bid(), single.book.best_ask())]
        assert type(live) is range and len(live) == len(quotes)
        assert list(live) == [i for quote in quotes
                              for i in single.requote(4, (), lambda b, a: (quote,), ts)]
        assert batched.transacted_volume(ts, 10 ** 9) == \
            single.transacted_volume(ts, 10 ** 9)
        assert batched.last_trade_price() == single.last_trade_price()
        assert queues(batched.book) == queues(single.book)
        assert live.start == n_orders + 1
        n_orders += len(live)
    assert batched_fills.getvalue() == single_fills.getvalue() and batched.log.n_fills
    # ids are consecutive over every order the session took, from 1
    quote = ((Side.BID, 1, 1),)
    assert batched.requote(4, (), lambda bid, ask: quote, 99) == \
        single.requote(4, (), lambda bid, ask: quote, 99) == range(n_orders + 1,
                                                                     n_orders + 2)


def test_session_requote_that_raises_reserves_no_ids():
    """An invalid quote raises out of ``requote`` before the session moves its
    next id, so the quotes rested before it hold ids the next call hands out
    again; no session is used after a raise (``run_until`` aborts mid-event)."""
    from lobexec.lob import DuplicateOrderError
    session = MarketSession(small_config(n_noise=0, n_value=0, n_momentum=0,
                                         n_market_maker=0), seed=0)
    with pytest.raises(ValueError, match="qty must be positive"):
        session.requote(4, (), lambda bid, ask: [(Side.BID, 99, 5), (Side.BID, 98, 0)], 1)
    assert session.book.order_ids() == [1]  # the quote before the bad one rests
    assert session.requote(4, (), lambda bid, ask: (), 2) == range(1, 1)
    with pytest.raises(DuplicateOrderError):
        session.requote(4, (), lambda bid, ask: [(Side.ASK, 101, 5)], 3)


DESK = small_config(n_noise=100, n_value=10, n_momentum=2, session_seconds=90.0,
                    value=ValueAgentParams(lambda_va=5.7e-12 * 20),
                    market_maker=MarketMakerParams(pov=0.05, min_size=200))


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_session_without_a_log_behaves_the_same(seed):
    """A session without a log (the execution MDP's) processes the same
    events and leaves the same state, second by second, as one with a log:
    it draws the fundamental at each tick and keeps the mid ring all the
    same."""
    sessions, keys = [], []
    for log in (SessionLog(DESK.depth, text_sinks()), None):
        keys.append([])
        sessions.append(MarketSession(DESK, seed, {"on_event": (
            lambda ts, seq, out=keys[-1]: out.append((ts, seq)))}, log=log))
    logged, bare = sessions
    assert bare.log is None
    for t in range(1, 91):
        for session in sessions:
            session.run_until(t * NS_PER_SEC)
        assert keys[0] == keys[1]
        assert (bare._fill_ts, bare._fill_qty_cum) == \
            (logged._fill_ts, logged._fill_qty_cum)
        assert bare.last_trade_price() == logged.last_trade_price()
        assert bare.mid_history() == logged.mid_history()
        assert (bare._fundamental._last_ts, bare._fundamental._last_value) == \
            (logged._fundamental._last_ts, logged._fundamental._last_value)
        assert bare.book.snapshot(10) == logged.book.snapshot(10)
    assert logged.log.n_snapshots == 91 and logged.log.n_fills > 100
    assert len(logged.mid_history()) == DESK.momentum.long_window


@pytest.mark.parametrize("seed", [1, 4])
def test_execution_episode_without_a_log_is_the_same(seed):
    from lobexec.execenv import ExecConfig, ExecutionEnv
    cfg = ExecConfig(parent_size=2000, time_window_s=60, warmup_s=20)
    episodes = []
    for logged in (True, False):
        env = ExecutionEnv(cfg, lambda s: MarketSession(
            DESK, s, log=SessionLog(DESK.depth, text_sinks()) if logged else None))
        obs = [env.reset(seed)]
        steps = []
        rng = np.random.default_rng(seed)
        while not env.done:
            out = env.step(int(rng.integers(0, cfg.n_actions)))
            steps.append((out.info, out.reward, out.done))
            obs.append(out.observation)
        episodes.append((steps, np.array(obs), env.episode_shortfall(),
                         env.episode_penalty()))
    (steps, obs, *rest), (bare_steps, bare_obs, *bare_rest) = episodes
    assert bare_steps == steps and bare_rest == rest
    assert np.array_equal(bare_obs, obs)
    assert sum(info["filled"] for info, _, _ in steps) > 0


LITE = MarketConfig(n_noise=20, n_value=5, n_momentum=1, session_seconds=90.0,
                    market_maker=MarketMakerParams(pov=0.02, min_size=50))
FORK_CASES = [(config, warm_s, seed) for config, warm_s in ((DESK, 30), (LITE, 10))
              for seed in (0, 2, 7)]
FORK_IDS = [f"{name}-{seed}" for name in ("desk", "lite") for seed in (0, 2, 7)]


def warmed(config, seed, warm_s):
    session = MarketSession(config, seed)
    session.run_until(warm_s * NS_PER_SEC)
    return session


def drive(session, seed):
    """Play an execution agent's market orders, one a second, from the
    session's clock to its end; per second, the order's result, the book, the
    fundamental (read at a tick, so no extra draw) and the next order id."""
    rng = np.random.default_rng(seed)
    trace = []
    for t in range(session.now // NS_PER_SEC + 1,
                   session.session_end // NS_PER_SEC + 1):
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        result = session.submit_market(-1, side, int(rng.integers(1, 200)),
                                       session.now)
        ts = t * NS_PER_SEC
        session.run_until(ts)
        trace.append((result, session.book.snapshot(10, ts),
                      session.oracle_observe(0, ts), session._next_order_id))
    return trace


@pytest.mark.parametrize("config, warm_s, seed", FORK_CASES, ids=FORK_IDS)
def test_fork_replays_a_fresh_session(config, warm_s, seed):
    template = warmed(config, seed, warm_s)
    fork = template.fork()
    fresh = drive(warmed(config, seed, warm_s), seed)
    assert drive(fork, seed) == fresh
    assert sum(len(result.fills) for result, *_ in fresh) > 10
    # the fork shares nothing the template moves on
    assert drive(template, seed) == fresh


def _is_value(x):
    """Immutable, so sharing it cannot couple a fork to its template."""
    if isinstance(x, tuple):
        return all(_is_value(item) for item in x)
    return x is None or isinstance(x, (bool, int, float, str, range, Side))


def assert_twins(a, b, shared, seen, path):
    """``b`` mirrors ``a``: equal values, and a new object wherever ``a`` is
    mutable, unless ``a`` is shared by design. ``seen`` maps each visited
    object of ``a`` to its twin, so aliases in ``a`` stay aliases in ``b``."""
    if id(a) in seen:
        assert seen[id(a)] is b, f"{path}: aliasing differs"
        return
    if any(a is s for s in shared):
        assert b is a, f"{path}: should be shared"
        return
    if _is_value(a):
        assert type(b) is type(a) and b == a, path
        return
    assert b is not a, f"{path}: shared with the template"
    assert type(b) is type(a), path
    seen[id(a)] = b
    if isinstance(a, np.random.Generator):
        assert_twins(a.bit_generator, b.bit_generator, shared, seen,
                     f"{path}.bit_generator")
        return
    if isinstance(a, np.random.BitGenerator):
        assert b.state == a.state, path
        return
    if isinstance(a, (types.MethodType, types.BuiltinMethodType)):  # bound method
        assert b.__func__ is a.__func__ if hasattr(a, "__func__") else \
            b.__name__ == a.__name__, path
        assert_twins(a.__self__, b.__self__, shared, seen, f"{path}.__self__")
        return
    if isinstance(a, dict):
        assert list(b) == list(a), path
        for key in a:
            assert_twins(a[key], b[key], shared, seen, f"{path}[{key!r}]")
    elif isinstance(a, (tuple, list, deque)):
        assert len(b) == len(a), path
        if isinstance(a, deque):
            assert b.maxlen == a.maxlen, path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_twins(x, y, shared, seen, f"{path}[{i}]")
    if type(a) in (tuple, list, dict, deque):
        return
    slots = [n for cls in type(a).__mro__ for n in getattr(cls, "__slots__", ())]
    names = [*getattr(a, "__dict__", {}), *slots]
    assert names, f"{path}: no fields to compare ({type(a).__name__})"
    if hasattr(a, "__dict__"):  # same fields in the same order: a fresh layout
        assert list(vars(b)) == list(vars(a)), path
    for name in names:
        assert_twins(getattr(a, name), getattr(b, name), shared, seen,
                     f"{path}.{name}")


@pytest.mark.parametrize("config, warm_s", [(DESK, 30), (LITE, 10)],
                         ids=["desk", "lite"])
def test_fork_copies_every_field_but_the_shared_ones(config, warm_s):
    """Every attribute of the session, its book and orders, agents, path and
    oracle is a new object, an immutable value, or shared by design: the
    config and its parts, the agents' params and the hooks. A field that
    ``fork`` does not handle fails here."""
    template = warmed(config, 5, warm_s)
    template.oracle_observe(3, template.now, 1.0)  # an oracle generator exists
    shared = [template.config, template.hooks,
              *(getattr(template.config, f.name) for f in fields(template.config)),
              *(agent.params for agent in template.agents)]
    fork = template.fork()
    assert_twins(template, fork, shared, {}, "session")
    assert fork._oracle.path is fork._fundamental
    assert {type(p) for _, _, p in fork._queue} >= {NoiseAgent, MarketMakerAgent}
    assert len(fork.book.order_ids()) > 0 and fork._oracle._rngs


def test_fork_refuses_a_session_with_a_log():
    session = MarketSession(LITE, 0, log=SessionLog(LITE.depth, text_sinks()))
    with pytest.raises(ValueError, match="SessionLog"):
        session.fork()


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

    def test_reference_rounds_an_odd_mid_down(self):
        # bid 99, ask 102: the mid 100.5 gives reference 100
        ex = FakeExchange(bid=(99, 100), ask=(102, 100))
        mm = MarketMakerAgent(4, np.random.default_rng(9), MarketMakerParams())
        mm.wakeup(0, ex)
        quotes = [o for o in ex.orders if o[0] == "limit"]
        assert [q[2] for q in quotes if q[1] is Side.BID] == list(range(99, 89, -1))
        assert [q[2] for q in quotes if q[1] is Side.ASK] == list(range(101, 111))

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
