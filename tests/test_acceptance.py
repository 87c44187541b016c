"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS line (with the measured numbers) once its
assertions hold; a pytest failure on any test is the corresponding FAIL
line. Training-based criteria share module-scoped fixtures so the heavy
work runs once.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from lobexec.agents import MarketMakerParams, ValueAgentParams
from lobexec.cli import main as cli_main
from lobexec.dqn import Schedules, act, loss_and_grads, train
from lobexec.evaluation import (
    aggregate,
    pooled_t_test,
    rl_vs_baselines,
    run_experiment,
)
from lobexec.execenv import ExecConfig, ExecutionEnv
from lobexec.kernel import MarketConfig, MarketSession
from lobexec.lob import Order, OrderBook, Side
from lobexec.dqn import QNetwork
from lobexec.strategies import TwapPolicy, twap_schedule
from lobexec.synthetic import ConstantMarket

from test_kernels import ou_path
from test_lob import apply_both, random_ops


def report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


# -- shared desk-scale setup (criterion 8) -----------------------------------
# A 100-noise / 10-value / 2-momentum / 1-MM market. Relative to the
# full-scale defaults the value agents arrive 20x more often and the maker
# quotes deeper, so that a 2000-share parent is executable without the
# price impact dwarfing the non-completion penalty.

DESK_MARKET = MarketConfig(
    n_noise=100, n_value=10, n_momentum=2, session_seconds=360.0,
    value=ValueAgentParams(lambda_va=5.7e-12 * 20),
    market_maker=MarketMakerParams(pov=0.05, min_size=200))
DESK_EXEC = ExecConfig(parent_size=2000, time_window_s=300, warmup_s=60)


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    """DQN trained on the desk-scale market; evaluation uses held-out seeds."""
    factory = lambda: ExecutionEnv(DESK_EXEC,
                                   lambda s: MarketSession(DESK_MARKET, s))
    sched = Schedules(lr_steps=60000, eps_steps=20000, learn_start=1000,
                      replay_capacity=50000)
    result = train(factory, sched, episodes=250, seed=0)
    path = tmp_path_factory.mktemp("desk") / "checkpoint.json"
    result.net.save(path, meta={"episodes": 250})
    return str(path)


def test_criterion_01_lob_matches_brute_force_oracle():
    start = time.time()
    master = random.Random(20260823)
    for _ in range(10_000):
        rng = random.Random(master.getrandbits(64))
        _, _, fills, ref_fills = apply_both(random_ops(rng, rng.randint(1, 50)))
        assert fills == ref_fills
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(1, f"10000 random sequences identical to brute-force oracle "
              f"in {elapsed:.1f}s (< 60s)")


def test_criterion_02_microstructure_formulas_exact():
    rng = random.Random(2)
    for _ in range(1000):
        book = OrderBook()
        oid = 0
        for _ in range(rng.randint(0, 40)):
            oid += 1
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            price = rng.randint(95, 105)
            book.submit_limit(Order(id=oid, agent_id=0, side=side,
                                    price=price, qty=rng.randint(1, 30)))
        snap = book.snapshot(10)
        for k in (1, 3, 5, 10):
            bid_depth = sum(q for _, q in snap.bids[:k])
            ask_depth = sum(q for _, q in snap.asks[:k])
            assert book.total_depth(Side.BID, k) == bid_depth
            assert book.total_depth(Side.ASK, k) == ask_depth
            both = bid_depth + ask_depth
            expect = Fraction(1, 2) if both == 0 else Fraction(bid_depth, both)
            assert book.volume_imbalance(Side.BID, k) == expect
        if snap.bids and snap.asks:
            assert book.mid_price() == Fraction(snap.bids[0][0] + snap.asks[0][0], 2)
            assert book.spread() == snap.asks[0][0] - snap.bids[0][0]
        else:
            assert book.mid_price() is None and book.spread() is None
    # symmetric book gives imbalance exactly 1/2
    book = OrderBook()
    book.submit_limit(Order(id=1, agent_id=0, side=Side.BID, price=99, qty=7))
    book.submit_limit(Order(id=2, agent_id=0, side=Side.ASK, price=101, qty=7))
    assert book.volume_imbalance(Side.BID, 1) == Fraction(1, 2)
    report(2, "depth/imbalance/mid/spread exact on 1000 random snapshots; "
              "symmetric book imbalance = 1/2")


def test_criterion_03_ou_moments_within_three_se():
    theta, sigma, mu, dt, n = 0.01, 0.5, 100.0, 10.0, 100_000
    var_st = sigma ** 2 / (2 * theta)
    rng = np.random.default_rng(3)
    x0 = mu + math.sqrt(var_st) * rng.standard_normal()  # stationary start
    path = ou_path(x0, mu, theta, sigma, dt, rng.standard_normal(n))
    rho = math.exp(-theta * dt)
    n_eff = n * (1 - rho) / (1 + rho)   # autocorrelation-adjusted sample size
    mean, var = path.mean(), path.var()
    se_mean = math.sqrt(var_st / n_eff)
    se_var = var_st * math.sqrt(2.0 / n_eff)
    assert abs(mean - mu) < 3 * se_mean
    assert abs(var - var_st) < 3 * se_var
    report(3, f"mean {mean:.3f} vs {mu} (3SE={3 * se_mean:.3f}), "
              f"var {var:.2f} vs {var_st} (3SE={3 * se_var:.2f})")


def test_criterion_04_gradient_check_twenty_nets():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = (int(rng.integers(3, 10)), int(rng.integers(3, 12)),
                int(rng.integers(3, 12)), int(rng.integers(2, 6)))
        net = QNetwork(dims, rng)
        for k in ("b1", "b2", "b3"):  # keep preactivations off the relu kink
            net.params[k][:] = rng.normal(scale=0.1, size=net.params[k].shape)
        s = rng.normal(size=(6, dims[0]))
        a = rng.integers(0, dims[3], size=6)
        y = rng.normal(size=6)
        _, grads = loss_and_grads(net, s, a, y)
        eps = 1e-6
        for name, grad in grads.items():
            param = net.params[name]
            for idx in rng.integers(0, param.size, size=min(5, param.size)):
                ij = np.unravel_index(idx, param.shape)
                orig = param[ij]
                param[ij] = orig + eps
                lp, _ = loss_and_grads(net, s, a, y)
                param[ij] = orig - eps
                lm, _ = loss_and_grads(net, s, a, y)
                param[ij] = orig
                fd = (lp - lm) / (2 * eps)
                if abs(fd) > 1e-8 or abs(grad[ij]) > 1e-8:
                    rel = abs(grad[ij] - fd) / max(abs(fd), abs(grad[ij]))
                    worst = max(worst, rel)
                    assert rel < 1e-4
    report(4, f"analytic vs central-difference gradients on 20 random "
              f"nets/batches, worst relative error {worst:.2e} (< 1e-4)")


def test_criterion_05_reward_contract_thousand_episodes():
    cfg = ExecConfig(parent_size=2000, time_window_s=180, warmup_s=1)
    master = np.random.default_rng(5)
    for ep in range(1000):
        bid = 9000 + int(master.integers(0, 2000))
        spread = int(master.integers(1, 3)) * 2
        env = ExecutionEnv(cfg, lambda s, b=bid, sp=spread:
                           ConstantMarket(b, b + sp, seed=s))
        env.reset(ep)
        rng = np.random.default_rng(ep)
        while not env.done:
            out = env.step(int(rng.integers(0, 5)))
            parts = (out.info["shortfall_term"] + out.info["depth_term"]
                     + out.info["over_term"] + out.info["terminal_term"])
            assert abs(out.reward - parts) <= 1e-9
            over = max(env.executed - cfg.parent_size, 0)
            assert env.executed + env.inventory == cfg.parent_size + over
        if env.completed:  # any further step is a forced no-op with zero reward
            for _ in range(min(3, cfg.n_steps - env.t)):
                assert env.step(4).reward == 0.0
    # substitution case: Q=20 filled 1 cent below arrival, d=1, alpha=2 -> 18
    market = ConstantMarket(9999, 10001)
    env = ExecutionEnv(cfg, lambda s: market)
    env.reset(0)
    env.arrival_price = 10000
    for oid in market.book.order_ids():
        market.book.cancel(oid)
    market.book.submit_limit(Order(id=9001, agent_id=0, side=Side.ASK,
                                   qty=10, price=9998))
    market.book.submit_limit(Order(id=9002, agent_id=0, side=Side.ASK,
                                   qty=10, price=10000))
    assert env.step(1).reward == 18
    report(5, "decomposition to 1e-9, inventory accounting and zero-after-done "
              "over 1000 random episodes; substitution case 20*1 - 2*1 = 18")


def test_criterion_06_twap_closed_form():
    schedule = twap_schedule(20000, 20, 1800, 4)
    cfg = ExecConfig(warmup_s=1)  # defaults: X0=20000, T=1800s, q_min=20
    env = ExecutionEnv(cfg, lambda s: ConstantMarket(9999, 10001, seed=s))
    policy = TwapPolicy(cfg)
    obs = env.reset(0)
    children = 0
    for t in range(cfg.n_steps):
        action = policy.act(t, obs, env)
        children += action > 0
        obs = env.step(action).observation
        if env.completed:
            break
    assert sum(schedule.values()) == 1000
    assert children == 1000
    assert env.executed == 20000
    assert abs(env.episode_shortfall() - (-1.0)) <= 1e-9
    report(6, "TWAP on constant quotes: 1000 children, normalized IS = "
              "-(half-spread) = -1.0 cents/share to 1e-9")


def test_criterion_07_toy_learning_sanity():
    start = time.time()
    cfg = ExecConfig(parent_size=2000, time_window_s=180, warmup_s=1, q_min=10)
    factory = lambda: ExecutionEnv(cfg,
                                   lambda s: ConstantMarket(9999, 10001, seed=s))
    # full-scale schedules scaled down 10x
    sched = Schedules(lr_steps=9000, eps_steps=1000, learn_start=1000,
                      replay_capacity=10000)
    result = train(factory, sched, episodes=300, seed=0)
    totals = [r for _, r, _ in result.curve]
    first, last = np.mean(totals[:100]), np.mean(totals[-100:])
    assert last > first
    completed = 0
    for seed in range(1000, 1050):  # held-out seeds, greedy policy
        env = factory()
        obs = env.reset(seed)
        steps = 0
        while not env.done:
            obs = env.step(act(result.net, obs, 0.0,
                               np.random.default_rng(0))).observation
            steps += 1
        completed += env.completed and steps < cfg.n_steps
    elapsed = time.time() - start
    assert completed >= 48  # >= 95% of 50
    assert elapsed < 900
    report(7, f"mean reward first/last 100 episodes {first:.0f} -> {last:.0f}; "
              f"greedy completes before T on {completed}/50 held-out seeds; "
              f"{elapsed:.0f}s (< 900s)")


def test_criterion_08_desk_scale_benchmark(desk_checkpoint):
    seeds = list(range(10000, 10050))  # held out from training
    results = []
    for policy in ("rl", "twap", "passive", "random"):
        results += run_experiment(
            policy, DESK_EXEC, DESK_MARKET, seeds,
            desk_checkpoint if policy == "rl" else None, parallel=4)
    rows = {r.policy: r for r in aggregate(results)}
    tests = rl_vs_baselines(results)
    assert set(tests) == {"rl_vs_twap", "rl_vs_passive", "rl_vs_random"}
    for t in tests.values():
        assert t.df == 98
        assert abs(t.critical - 1.660) <= 0.001
    assert rows["twap"].mean_t >= 0.99                      # hard
    assert rows["rl"].mean_is >= rows["random"].mean_is     # hard
    soft = "yes" if rows["rl"].mean_is >= rows["twap"].mean_is else "NO"
    summary = "; ".join(
        f"{p}: IS {rows[p].mean_is:.2f} pen {rows[p].mean_pen:.3f} "
        f"T {rows[p].mean_t:.3f}" for p in ("rl", "twap", "passive", "random"))
    tsum = ", ".join(f"{k} t={v.t:.2f}" for k, v in tests.items())
    report(8, f"{summary}; {tsum}; df=98 critical 1.660; "
              f"soft RL>=TWAP: {soft}")


def test_criterion_09_cli_determinism(tmp_path):
    cfg = tmp_path / "lite.yaml"
    cfg.write_text(
        "market:\n"
        "  n_noise: 20\n  n_value: 5\n  n_momentum: 1\n  session_seconds: 90\n"
        "  market_maker: {pov: 0.02, min_size: 50}\n"
        "exec: {parent_size: 400, time_window_s: 60, warmup_s: 10}\n"
        "dqn:\n  episodes: 2\n"
        "  schedules: {learn_start: 32, batch_size: 16, lr_steps: 500,\n"
        "              eps_steps: 100, replay_capacity: 1000}\n"
        "eval:\n  episodes: 4\n  bins: 5\n  policies: [twap, random]\n"
        "  grid: [[20, 1]]\n")
    commands = [
        ["simulate", "--duration", "30"],
        ["train"],
        ["evaluate", "--policy", "all", "--parallel", "4"],
        ["benchmark", "--parallel", "4"],
    ]
    for argv in commands:
        trees = []
        for run in ("a", "b"):
            out = tmp_path / argv[0] / run
            code = cli_main(argv + ["--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{argv[0]} exited {code}"
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1], f"{argv[0]} rerun differed"
    report(9, "simulate/train/evaluate/benchmark reruns byte-identical, "
              "including --parallel 4")


def test_criterion_10_statistics_oracle():
    # textbook case: a = (5,7,9), b = (1,3,5); pooled sp2 = 4, t = sqrt(6)
    res = pooled_t_test([5.0, 7.0, 9.0], [1.0, 3.0, 5.0])
    assert abs(res.t - math.sqrt(6)) <= 1e-9
    assert res.df == 4
    same = pooled_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert same.t == 0.0 and not same.reject
    report(10, f"hand-computed t = sqrt(6) matched to 1e-9; "
               f"identical samples give t = 0")
