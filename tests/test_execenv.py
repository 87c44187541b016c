from fractions import Fraction

import numpy as np
import pytest

from lobexec._bounds import check_bounds
from lobexec.execenv import EpisodeOverError, ExecConfig, ExecutionEnv
from lobexec.kernel import MarketConfig, MarketSession
from lobexec.synthetic import ConstantMarket


def constant_env(bid=9999, ask=10001, **kw):
    base = dict(parent_size=2000, time_window_s=180, warmup_s=1)
    base.update(kw)
    cfg = ExecConfig(**base)
    return ExecutionEnv(cfg, lambda s: ConstantMarket(bid, ask, seed=s))


def live_env(**kw):
    base = dict(parent_size=2000, time_window_s=120, warmup_s=10)
    base.update(kw)
    mcfg = MarketConfig(n_noise=20, n_value=5, n_momentum=1,
                        session_seconds=150.0)
    return ExecutionEnv(ExecConfig(**base), lambda s: MarketSession(mcfg, s))


class TestConfig:
    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            check_bounds(ExecConfig(parent_size=20000, time_window_s=100, q_min=20,
                                    n_size_actions=4))

    def test_default_feasible_in_250_steps(self):
        cfg = ExecConfig()
        assert -(-cfg.parent_size // (cfg.q_min * cfg.n_size_actions)) == 250
        assert 250 < cfg.n_steps

    def test_window_must_divide(self):
        with pytest.raises(ValueError):
            check_bounds(ExecConfig(time_window_s=100, step_s=3))


class TestReset:
    def test_initial_observation(self):
        env = constant_env()
        obs = env.reset(0)
        assert obs.shape == (36,)
        frames = obs.reshape(4, 9)
        assert np.allclose(frames, frames[0])  # stack primed with first frame
        assert frames[0, 0] == 1.0 and frames[0, 1] == 1.0

    def test_arrival_price_is_start_mid(self):
        env = constant_env(bid=9999, ask=10001)
        env.reset(0)
        assert env.arrival_price == 10000

    def test_same_seed_same_observation(self):
        env = live_env()
        a = env.reset(5)
        b = env.reset(5)
        assert np.array_equal(a, b)


class TestStep:
    def test_do_nothing_reward_zero(self):
        env = constant_env()
        env.reset(0)
        out = env.step(0)
        assert out.reward == 0.0
        assert out.info["filled"] == 0

    def test_reward_substitution_case(self):
        # buy 20 at 1 cent below arrival with one extra level walked:
        # 20 * 1 - 2 * 1 = 18
        cfg = ExecConfig(parent_size=2000, time_window_s=180, warmup_s=1,
                         alpha=2.0)
        market = ConstantMarket(9999, 10001)
        env = ExecutionEnv(cfg, lambda s: market)
        env.reset(0)
        env.arrival_price = 10000  # pin P0
        # craft an ask ladder: 10 @ 9999, 10 @ 9999+? need avg 9999 and d=1
        from lobexec.lob import Order, Side
        for oid in market.book.order_ids():
            market.book.cancel(oid)
        market.book.submit_limit(Order(id=101, agent_id=0, side=Side.ASK,
                                       qty=10, price=9998))
        market.book.submit_limit(Order(id=102, agent_id=0, side=Side.ASK,
                                       qty=10, price=10000))
        out = env.step(1)  # buy 20: 10@9998 + 10@10000, avg 9999, 2 levels
        assert out.info["avg_price"] == 9999.0
        assert out.info["depth_consumed"] == 1
        assert out.reward == pytest.approx(20 * 1 - 2 * 1)
        assert out.reward == 18

    def test_terminal_penalty(self):
        env = constant_env(beta=5.0)
        env.reset(0)
        total = 0.0
        for _ in range(env.config.n_steps):
            total += env.step(0).reward
        assert env.inventory == 2000
        assert total == -5.0 * 2000

    def test_step_after_window_raises(self):
        env = constant_env()
        env.reset(0)
        for _ in range(env.config.n_steps):
            env.step(0)
        with pytest.raises(EpisodeOverError):
            env.step(0)

    def test_zero_after_completion(self):
        env = constant_env()
        env.reset(0)
        while not env.completed:
            env.step(4)
        assert env.done
        rewards = [env.step(4).reward for _ in range(5)]  # forced no-ops
        assert rewards == [0.0] * 5

    def test_over_execution_penalized_once(self):
        env = constant_env(parent_size=70, time_window_s=180, q_min=20,
                           over_exec_penalty=5.0)
        env.reset(0)
        r = 0.0
        while not env.completed:
            r += env.step(4).reward  # 80 shares in one step: 10 over
        assert env.executed == 80
        assert env._over_charged == 10
        # shortfall = 80 * (10000 - 10001) = -80; over penalty = -50
        assert r == pytest.approx(-80 - 50)

    def test_unfilled_does_not_count_as_executed(self):
        cfg = ExecConfig(parent_size=2000, time_window_s=180, warmup_s=1)
        market = ConstantMarket(9999, 10001)
        env = ExecutionEnv(cfg, lambda s: market)
        env.reset(0)
        for oid in market.book.order_ids():
            market.book.cancel(oid)  # empty the book
        out = env.step(3)
        assert out.info["filled"] == 0 and out.reward == 0.0
        assert env.inventory == 2000

    def test_inventory_accounting_invariant(self):
        env = constant_env()
        env.reset(0)
        rng = np.random.default_rng(0)
        while not env.done:
            env.step(int(rng.integers(0, 5)))
            over = max(env.executed - env.config.parent_size, 0)
            assert env.executed + env.inventory == env.config.parent_size + over
            assert env.inventory >= 0

    def test_reward_decomposition(self):
        env = live_env()
        env.reset(1)
        rng = np.random.default_rng(1)
        while not env.done:
            out = env.step(int(rng.integers(0, 5)))
            parts = (out.info["shortfall_term"] + out.info["depth_term"]
                     + out.info["over_term"] + out.info["terminal_term"])
            assert out.reward == pytest.approx(parts, abs=1e-9)


class TestObservation:
    def test_symmetric_book_imbalances_half(self):
        env = constant_env()
        obs = env.reset(0).reshape(4, 9)
        assert np.all(obs[:, 2:7] == 0.5)

    def test_holdings_pct_definition(self):
        env = constant_env()
        env.reset(0)
        env.step(4)  # 80 shares
        frame = env.observe().reshape(4, 9)[-1]
        assert frame[0] == pytest.approx(1 - 80 / 2000)

    def test_stack_shifts_one_frame_per_step(self):
        env = constant_env()
        obs0 = env.reset(0).reshape(4, 9)
        obs1 = env.step(1).observation.reshape(4, 9)
        assert np.array_equal(obs1[:3], obs0[1:])

    @pytest.mark.parametrize("p0", [10000, 10002, Fraction(30001, 3)])
    def test_quote_features_follow_assigned_arrival_price(self, p0):
        env = constant_env(bid=9999, ask=10001)
        env.reset(0)
        env.arrival_price = p0
        assert env.arrival_price == p0
        frame = env.step(0).observation.reshape(4, 9)[-1]
        assert frame[7] == (9999 - float(p0)) / float(p0)
        assert frame[8] == (10001 - float(p0)) / float(p0)


class TestShortfall:
    def test_fills_at_arrival_give_zero(self):
        env = constant_env(bid=9999, ask=10001)
        env.reset(0)
        env.arrival_price = 10001  # as if arrival equals the ask
        while not env.completed:
            env.step(4)
        assert env.episode_shortfall() == 0.0

    def test_one_cent_improvement(self):
        env = constant_env(bid=9999, ask=10001)
        env.reset(0)
        env.arrival_price = 10002  # buys land 1 cent below arrival
        while not env.completed:
            env.step(4)
        assert env.episode_shortfall() == pytest.approx(1.0)

    def test_matches_fill_log_recomputation(self):
        env = live_env()
        env.reset(2)
        rng = np.random.default_rng(2)
        fills = []
        while not env.done:
            info = env.step(int(rng.integers(0, 5))).info
            if info["filled"] > 0:
                fills.append((info["filled"], info["avg_price"]))
        cost = sum(px * qty for qty, px in fills)
        executed = sum(qty for qty, _ in fills)
        expected = (executed * float(env.arrival_price) - cost) / 2000
        assert env.episode_shortfall() == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("direction", ["buy", "sell"])
    def test_step_terms_sum_to_episode_shortfall(self, direction):
        env = live_env(direction=direction)
        env.reset(3)
        rng = np.random.default_rng(3)
        total = 0.0
        while not env.done:
            total += env.step(int(rng.integers(0, 5))).info["shortfall_term"]
        assert env.executed > 0
        assert total / 2000 == pytest.approx(env.episode_shortfall(), abs=1e-9)

    @pytest.mark.parametrize("direction", ["buy", "sell"])
    @pytest.mark.parametrize("p0", [None, Fraction(30001, 3)], ids=["half_tick_mid", "thirds"])
    def test_step_term_is_the_rounded_exact_shortfall(self, direction, p0):
        # ConstantMarket(9999, 10002) has its mid, P0, at a half tick;
        # an assigned P0 of 30001/3 gives shortfalls that no float holds
        results = []

        def market(seed):
            m = ConstantMarket(9999, 10002, seed=seed)
            submit = m.submit_market

            def recording(*args):
                results.append(submit(*args))
                return results[-1]

            m.submit_market = recording
            return m

        env = ExecutionEnv(ExecConfig(parent_size=2000, time_window_s=180, warmup_s=1,
                                      q_min=7, direction=direction), market)
        env.reset(0)
        assert env.arrival_price == Fraction(20001, 2)
        if p0 is not None:
            env.arrival_price = p0
        sign = 1 if direction == "buy" else -1
        for action in (1, 2, 3, 4, 4, 3, 2, 1):
            term = env.step(action).info["shortfall_term"]
            result = results[-1]
            assert result.filled == 7 * action
            exact = sign * (result.filled * env.arrival_price - result.notional)
            assert type(term) is float and term == float(exact)
        assert env.step(0).info["shortfall_term"] == 0.0

    def test_sell_sign_symmetry(self):
        buy = constant_env(bid=9999, ask=10001)
        buy.reset(0)
        sell = constant_env(bid=9999, ask=10001, direction="sell")
        sell.reset(0)
        while not buy.completed:
            buy.step(4)
        while not sell.completed:
            sell.step(4)
        # mirrored book: both pay the same half-spread
        assert buy.episode_shortfall() == sell.episode_shortfall() == -1.0
