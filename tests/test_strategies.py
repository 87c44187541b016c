import math

import numpy as np
import pytest

from lobexec.execenv import ExecConfig, ExecutionEnv
from lobexec.strategies import (
    PassivePolicy,
    RandomPolicy,
    TwapPolicy,
    make_policy,
    twap_schedule,
)
from lobexec.synthetic import ConstantMarket


def default_cfg(**kw):
    base = dict(parent_size=20000, time_window_s=1800, q_min=20)
    base.update(kw)
    return ExecConfig(**base)


class TestTwap:
    def test_exactly_1000_children_default_config(self):
        schedule = twap_schedule(20000, 20, 1800, 4)
        assert sum(schedule.values()) == 1000
        assert all(v == 1 for v in schedule.values())
        assert len(schedule) == 1000

    def test_single_child_when_parent_equals_qmin(self):
        assert twap_schedule(20, 20, 1800, 4) == {0: 1}

    def test_children_spacing_even(self):
        steps = sorted(twap_schedule(20000, 20, 1800, 4))
        gaps = np.diff(steps)
        assert set(gaps) <= {1, 2}
        assert steps[0] == 0 and steps[-1] == 1798

    def test_residue_rounded_down(self):
        schedule = twap_schedule(30, 20, 100, 4)  # residue of 10 shares dropped
        assert sum(schedule.values()) == 1

    def test_closed_form_half_spread_cost(self):
        cfg = default_cfg(warmup_s=1)
        env = ExecutionEnv(cfg, lambda s: ConstantMarket(9999, 10001, seed=s))
        policy = TwapPolicy(cfg)
        obs = env.reset(0)
        t = 0
        sent = 0
        while not env.done:
            a = policy.act(t, obs, env)
            sent += a > 0
            obs = env.step(a).observation
            t += 1
        assert sent == 1000
        assert env.executed == 20000
        assert env.episode_shortfall() == pytest.approx(-1.0, abs=1e-9)

    def test_inventory_affine_between_children(self):
        schedule = twap_schedule(20000, 20, 1800, 4)
        cum = np.cumsum([schedule.get(t, 0) for t in range(1800)])
        # even schedule: cumulative units stay within one unit of the line
        line = np.arange(1, 1801) * 1000 / 1800
        assert np.max(np.abs(cum - line)) <= 1.0


def empirical(policy, n, seed=0):
    policy.reset(seed)
    counts = np.zeros(5)
    for _ in range(n):
        counts[policy.act(0, None, None)] += 1
    return counts / n


class TestPassive:
    def test_frequencies(self):
        freq = empirical(PassivePolicy(), 100_000)
        for p, f in zip((0.6, 0.1, 0.1, 0.1, 0.1), freq):
            assert abs(f - p) < 3 * math.sqrt(p * (1 - p) / 100_000)

    def test_expected_shares_per_step(self):
        probs = PassivePolicy.probs
        q_min = 20
        expected = sum(p * k * q_min for k, p in enumerate(probs))
        assert expected == pytest.approx(q_min)

    def test_reproducible(self):
        assert np.array_equal(empirical(PassivePolicy(), 1000, 7),
                              empirical(PassivePolicy(), 1000, 7))


class TestRandom:
    def test_never_emits_largest_action(self):
        freq = empirical(RandomPolicy(), 100_000)
        assert freq[4] == 0.0

    def test_do_nothing_prob(self):
        freq = empirical(RandomPolicy(), 100_000)
        assert abs(freq[0] - 0.625) < 3 * math.sqrt(0.625 * 0.375 / 100_000)

    def test_reproducible(self):
        assert np.array_equal(empirical(RandomPolicy(), 1000, 9),
                              empirical(RandomPolicy(), 1000, 9))


@pytest.mark.parametrize("policy_cls, spawn_key", [(PassivePolicy, 11),
                                                    (RandomPolicy, 12)])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 40])
def test_draws_equal_generator_choice(policy_cls, spawn_key, seed):
    """Each policy's actions are exactly those of rng.choice(5, p=probs)
    on a generator seeded the same way."""
    policy = policy_cls()
    policy.reset(seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(spawn_key,)))
    n = 20_000
    actions = [policy.act(t, None, None) for t in range(n)]
    assert actions == [int(rng.choice(5, p=policy_cls.probs)) for _ in range(n)]
    assert all(type(a) is int for a in actions)


class TestFactory:
    def test_known_policies(self):
        cfg = default_cfg()
        for name in ("twap", "passive", "random"):
            assert make_policy(name, cfg).name == name

    def test_rl_requires_checkpoint(self):
        with pytest.raises(ValueError):
            make_policy("rl", default_cfg())

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("vwap", default_cfg())

    def test_all_actions_legal(self):
        cfg = default_cfg()
        for name in ("twap", "passive", "random"):
            policy = make_policy(name, cfg)
            policy.reset(3)
            for t in range(200):
                assert 0 <= policy.act(t, None, None) <= 4
