import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lobexec import dqn
from lobexec._bounds import check_bounds
from lobexec.dqn import (
    Optimizer,
    QNetwork,
    ReplayMemory,
    Schedules,
    TrainingDivergedError,
    Workspace,
    act,
    gradient_step,
    learn_step,
    learning_curve_csv,
    loss_and_grads,
    mlp_forward,
    td_targets,
    train,
)
from lobexec.execenv import ExecConfig, ExecutionEnv
from lobexec.strategies import GreedyQPolicy
from lobexec.synthetic import ConstantMarket


def zero_net(sizes=(36, 50, 20, 5)):
    net = QNetwork(sizes)
    for k in net.params:
        net.params[k][:] = 0.0
    return net


def rand_batch(rng, n=5, dim=36, n_actions=5):
    s = rng.normal(size=(n, dim))
    a = rng.integers(0, n_actions, size=n)
    y = rng.normal(size=n)
    return s, a, y


class TestForward:
    def test_zero_net_outputs_zero(self):
        q = zero_net().forward(np.ones(36))
        assert np.array_equal(q, np.zeros(5))

    def test_zero_net_batch_outputs_zero(self):
        obs = np.random.default_rng(0).normal(size=(12, 36))
        q = zero_net().forward(obs)
        assert q.shape == (12, 5)
        assert np.all(q == 0.0)

    def test_hand_computed_toy_net(self):
        # 1-1-1-1 net, all weights 1, biases 0: relu(relu(x)) = x for x > 0
        net = QNetwork((1, 1, 1, 1))
        for k in net.params:
            net.params[k][:] = 1.0 if k.startswith("w") else 0.0
        assert net.forward(np.array([2.0]))[0] == pytest.approx(2.0)
        # negative input dies at the first rectifier: output is 0
        assert net.forward(np.array([-2.0]))[0] == pytest.approx(0.0)
        # with biases 1: ((x*1+1)+ relu...) -> ((2+1)*1+1)*1+1 = 5
        for k in ("b1", "b2", "b3"):
            net.params[k][:] = 1.0
        assert net.forward(np.array([2.0]))[0] == pytest.approx(5.0)

    def test_forward_pure(self):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        s = np.random.default_rng(1).normal(size=36)
        assert np.array_equal(net.forward(s), net.forward(s))

    def test_nonfinite_input_rejected(self):
        net = QNetwork()
        s = np.ones(36)
        s[0] = np.nan
        with pytest.raises(ValueError):
            net.forward(s)

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            QNetwork().forward(np.ones(10))


class TestTdTargets:
    def batch(self, r, done, n=3):
        rng = np.random.default_rng(0)
        return (rng.normal(size=(n, 36)), np.zeros(n, dtype=int),
                np.full(n, r), rng.normal(size=(n, 36)),
                np.full(n, done, dtype=bool))

    def test_done_transition_returns_reward(self):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        y = td_targets(self.batch(18.0, True), net, 0.9999)
        assert np.allclose(y, 18.0)

    def test_gamma_zero(self):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        y = td_targets(self.batch(3.0, False), net, 0.0)
        assert np.allclose(y, 3.0)

    def test_gamma_one_zero_net(self):
        y = td_targets(self.batch(3.0, False), zero_net(), 1.0)
        assert np.allclose(y, 3.0)


class TestGradients:
    @pytest.mark.parametrize("n", [1, 7, 64, 65])
    @pytest.mark.parametrize("seed", range(3))
    def test_loss_equals_mean_of_squared_errors(self, n, seed):
        rng = np.random.default_rng(seed)
        net = QNetwork(rng=rng)
        s, a, y = rand_batch(rng, n=n)
        err = net.forward(s)[np.arange(n), a] - y
        loss, _ = loss_and_grads(net, s, a, y)
        assert loss == float(np.mean(err ** 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = QNetwork((6, 5, 4, 3), rng)
        for k in ("b1", "b2", "b3"):  # keep preactivations off the relu kink
            net.params[k][:] = rng.normal(scale=0.1, size=net.params[k].shape)
        s = rng.normal(size=(5, 6))
        a = rng.integers(0, 3, size=5)
        y = rng.normal(size=5)
        _, g = loss_and_grads(net, s, a, y)
        eps = 1e-6
        for name, grad in net.views(g).items():
            param = net.params[name]
            flat_idx = rng.integers(0, param.size, size=min(10, param.size))
            for idx in flat_idx:
                ij = np.unravel_index(idx, param.shape)
                orig = param[ij]
                param[ij] = orig + eps
                lp, _ = loss_and_grads(net, s, a, y)
                param[ij] = orig - eps
                lm, _ = loss_and_grads(net, s, a, y)
                param[ij] = orig
                fd = (lp - lm) / (2 * eps)
                if abs(fd) > 1e-8 or abs(grad[ij]) > 1e-8:
                    assert abs(grad[ij] - fd) / max(abs(fd), abs(grad[ij])) < 1e-4

    def test_lr_zero_leaves_params_unchanged(self):
        rng = np.random.default_rng(0)
        net = QNetwork((6, 5, 4, 3), rng)
        before = {k: v.copy() for k, v in net.params.items()}
        s, a, y = rand_batch(rng, dim=6, n_actions=3)
        batch = (s, a, y, s, np.zeros(5, dtype=bool))
        loss = gradient_step(net, batch, y, 0.0, Optimizer(net))
        assert loss >= 0.0
        for k in net.params:
            assert np.array_equal(net.params[k], before[k])

    @pytest.mark.parametrize("kind", ["adam"])  # keeps the test id
    def test_overfits_single_transition(self, kind):
        rng = np.random.default_rng(1)
        net = QNetwork((6, 5, 4, 3), rng)
        s = rng.normal(size=(1, 6))
        a = np.array([1])
        y = np.array([2.5])
        batch = (s, a, y, s, np.ones(1, dtype=bool))
        opt = Optimizer(net)
        losses = [gradient_step(net, batch, y, 0.01, opt) for _ in range(500)]
        assert losses[-1] < 1e-4
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("action", [-1, 3])
    def test_action_outside_the_net_is_rejected(self, action):
        net = QNetwork((6, 5, 4, 3), np.random.default_rng(0))
        s, a, y = rand_batch(np.random.default_rng(1), dim=6, n_actions=3)
        a[2] = action
        with pytest.raises(IndexError):
            loss_and_grads(net, s, a, y)

    def test_nonfinite_loss_aborts(self):
        net = QNetwork((6, 5, 4, 3), np.random.default_rng(0))
        s = np.ones((1, 6))
        a = np.array([0])
        y = np.array([np.inf])
        with pytest.raises(TrainingDivergedError):
            gradient_step(net, (s, a, y, s, np.ones(1, bool)), y, 0.01,
                          Optimizer(net))


class TestAct:
    def test_uniform_under_full_exploration(self):
        net = zero_net()
        rng = np.random.default_rng(0)
        n = 10_000
        counts = np.bincount([act(net, np.ones(36), 1.0, rng) for _ in range(n)],
                             minlength=5)
        for c in counts:
            assert abs(c - n / 5) < 3 * math.sqrt(n * 0.2 * 0.8)

    def test_greedy_argmax(self):
        net = zero_net((36, 50, 20, 5))
        net.params["b3"][:] = [0, 3, 1, 1, 2]
        assert act(net, np.zeros(36), 0.0, np.random.default_rng(0)) == 1

    def test_tie_breaks_to_lowest_index(self):
        net = zero_net()
        net.params["b3"][:] = [5, 5, 0, 0, 0]
        assert act(net, np.zeros(36), 0.0, np.random.default_rng(0)) == 0


def transient_peak(f, calls=50):
    """The most bytes that ``calls`` calls of ``f`` held at once above what
    was held before them, after one call that warms any cache."""
    f()
    tracemalloc.start()
    try:
        f()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            f()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestGreedy:
    """``act`` at epsilon 0 and ``GreedyQPolicy.act`` both run
    ``QNetwork.greedy``, on the net's one-row arrays, and must pick what
    ``argmax(forward(s))`` picks."""

    def greedy_picks(self, net, s):
        return (act(net, s, 0.0, np.random.default_rng(0)),
                GreedyQPolicy(net).act(0, s))

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_argmax_of_forward(self, seed):
        rng = np.random.default_rng(seed)
        sizes = (36, *map(int, rng.integers(1, 60, size=2)), int(rng.integers(1, 8)))
        net = QNetwork(sizes, rng)
        for k in ("b1", "b2", "b3"):
            net.params[k][:] = rng.normal(scale=0.5, size=net.params[k].shape)
        policy = GreedyQPolicy(net)
        for t in range(100):
            s = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=36)
            expected = int(np.argmax(net.forward(s)))
            assert act(net, s, 0.0, rng) == expected
            assert policy.act(t, s) == expected
        s = rng.normal(size=36)
        for as_given in (s.tolist(), s.astype(np.float32), s[::-1].copy()[::-1]):
            assert self.greedy_picks(net, as_given) == (
                (int(np.argmax(net.forward(as_given))),) * 2)

    def test_zero_net_gives_action_zero(self):
        assert self.greedy_picks(zero_net(), np.ones(36)) == (0, 0)

    @pytest.mark.parametrize("s", [np.r_[np.nan, np.ones(35)], np.r_[np.ones(35), -np.inf],
                                   np.ones(35), np.ones(37), np.r_[np.nan, np.ones(36)]],
                             ids=["nan", "inf", "short", "long", "long_nan"])
    def test_bad_observation_raises_forwards_error(self, s):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        with pytest.raises(ValueError) as expected:
            net.forward(s)
        for pick in (lambda: act(net, s, 0.0, np.random.default_rng(0)),
                     lambda: GreedyQPolicy(net).act(0, s)):
            with pytest.raises(ValueError) as raised:
                pick()
            assert str(raised.value) == str(expected.value)
        good = np.random.default_rng(1).normal(size=36)  # the row arrays hold no residue
        assert self.greedy_picks(net, good) == (int(np.argmax(net.forward(good))),) * 2

    def test_greedy_action_makes_no_array(self):
        # numpy's (1, d) product holds a few hundred bytes of its own while
        # it runs, and greedy's peak is that product's peak. An array made
        # per call, of an observation's 36 floats or more, and still alive
        # when a product runs would add at least its 288 data bytes.
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        s = np.random.default_rng(1).normal(size=36)
        x, h1 = np.ones((1, 36)), np.empty((1, 50))
        product = transient_peak(lambda: np.matmul(x, net.params["w1"], out=h1))
        bound = product + 36 * 8
        rng = np.random.default_rng(0)
        assert transient_peak(lambda: act(net, s, 0.0, rng)) < bound
        policy = GreedyQPolicy(net)
        assert transient_peak(lambda: policy.act(0, s)) < bound
        # the check would see the allocating one-row forward
        assert transient_peak(lambda: int(np.argmax(net.forward(s)))) >= bound


class TestSchedules:
    @staticmethod
    def reference(start, end, steps, i):
        """The linear anneal, in the order it has always been evaluated."""
        if i >= steps:
            return end
        frac = i / steps
        return start + frac * (end - start)

    @pytest.mark.parametrize("steps", [1, 3, 7, 1000, 10_000, 90_000])
    def test_lr_and_epsilon_match_reference_bit_for_bit(self, steps):
        s = Schedules(lr_start=3e-3, lr_end=1e-5, lr_steps=steps,
                      eps_start=0.9, eps_end=0.013, eps_steps=steps)
        points = sorted({0, 1, steps // 3, steps // 2, steps - 1, steps,
                         steps + 1, 10 * steps})
        for i in points:
            assert s.lr(i) == self.reference(3e-3, 1e-5, steps, i)
            assert s.epsilon(i) == self.reference(0.9, 0.013, steps, i)

    def test_lr_linear_and_clamped(self):
        s = Schedules()
        assert s.lr(0) == 1e-3
        assert s.lr(45_000) == pytest.approx(5e-4)
        assert s.lr(90_000) == 0.0
        assert s.lr(200_000) == 0.0

    def test_epsilon_linear_and_clamped(self):
        s = Schedules()
        assert s.epsilon(0) == 1.0
        assert s.epsilon(5_000) == pytest.approx(0.51)
        assert s.epsilon(10_000) == 0.02
        assert s.epsilon(50_000) == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            check_bounds(Schedules(gamma=1.5))


class TestReplay:
    def test_ring_buffer_capacity(self):
        mem = ReplayMemory(10, 4)
        for i in range(25):
            mem.push(np.full(4, i), i % 5, float(i), np.full(4, i + 1), False)
        assert mem.size == 10
        assert set(mem.r) == set(range(15, 25))

    def test_sampling_uniform_chi_square(self):
        mem = ReplayMemory(50, 1)
        for i in range(50):
            mem.push([i], 0, float(i), [i], False)
        rng = np.random.default_rng(0)
        counts = np.zeros(50)
        draws = 4000
        for _ in range(draws):
            _, _, r, _, _ = mem.sample(10, rng)
            for v in r:
                counts[int(v)] += 1
        expected = draws * 10 / 50
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # chi-square(49) 1% critical value
        assert chi2 < 74.92

    def test_no_replacement_within_minibatch(self):
        mem = ReplayMemory(20, 1)
        for i in range(20):
            mem.push([i], 0, float(i), [i], False)
        _, _, r, _, _ = mem.sample(20, np.random.default_rng(0))
        assert len(set(r)) == 20


def toy_env_factory(**kw):
    base = dict(parent_size=400, time_window_s=30, warmup_s=1, q_min=20)
    base.update(kw)
    cfg = ExecConfig(**base)
    return lambda: ExecutionEnv(cfg, lambda s: ConstantMarket(9999, 10001, seed=s))


class TestTrain:
    def fast_schedules(self):
        return Schedules(lr_steps=2000, eps_steps=300, learn_start=64,
                         replay_capacity=5000, batch_size=32)

    def test_single_episode_full_exploration(self):
        sched = self.fast_schedules()
        sched.eps_start = sched.eps_end = 1.0
        result = train(toy_env_factory(), sched, episodes=1, seed=0)
        assert len(result.curve) == 1
        assert result.env_steps <= 30

    def test_curve_rows_equal_episodes(self):
        result = train(toy_env_factory(), self.fast_schedules(), episodes=5, seed=0)
        assert len(result.curve) == 5
        csv_text = learning_curve_csv(result.curve)
        assert len(csv_text.strip().splitlines()) == 6  # header + 5 rows

    def test_reproducible_curve(self):
        a = train(toy_env_factory(), self.fast_schedules(), episodes=4, seed=3)
        b = train(toy_env_factory(), self.fast_schedules(), episodes=4, seed=3)
        assert learning_curve_csv(a.curve) == learning_curve_csv(b.curve)

    def test_action_count_mismatch_is_startup_error(self):
        net = QNetwork((36, 50, 20, 4))
        with pytest.raises(ValueError):
            train(toy_env_factory(), self.fast_schedules(), episodes=1, seed=0,
                  net=net)

    # sha256 of theta's bytes and of the learning curve CSV, and the env and
    # gradient step counts, from 40 episodes whose lr reaches 0 at gradient
    # step 300, as the trainer wrote them when it ran every step in full
    PAST_LR_ZERO = {
        0: ("539e130316fa9736462f913ac49fad62bdfcb7fff8934e766df22473ed64a140",
            "64bf041e8e813bbfe1b7f83b859230ee20552bdedece227426ed7515824d8cd5", 1048, 1033),
        4: ("ea796d354265bf778c41a2f98ddeb11c46e43d03433d4d74aab34622e381bf2e",
            "64bf041e8e813bbfe1b7f83b859230ee20552bdedece227426ed7515824d8cd5", 1048, 1033)}

    @pytest.mark.parametrize("target_sync", list(PAST_LR_ZERO))
    def test_steps_at_lr_zero_skip_their_work_and_keep_the_bits(self, monkeypatch,
                                                                target_sync):
        targets = []

        def counting(batch, target_net, gamma):
            targets.append(gamma)
            return td_targets(batch, target_net, gamma)

        monkeypatch.setattr(dqn, "td_targets", counting)
        sched = Schedules(lr_steps=300, eps_steps=200, learn_start=16,
                          replay_capacity=1000, batch_size=16, target_sync=target_sync)
        result = train(toy_env_factory(), sched, episodes=40, seed=1)
        assert (hashlib.sha256(result.net.theta.tobytes()).hexdigest(),
                hashlib.sha256(learning_curve_csv(result.curve).encode()).hexdigest(),
                result.env_steps, result.grad_steps) == self.PAST_LR_ZERO[target_sync]
        assert len(targets) == 300  # one per step at lr > 0, none after

    def test_reports_the_episode_of_the_first_step_at_lr_zero(self, monkeypatch):
        made, episodes = [], []  # envs made; the episode of each gradient step
        factory = toy_env_factory()

        def counting_factory():
            made.append(None)
            return factory()

        def recording(*args):
            episodes.append(len(made) - 1)
            return learn_step(*args)

        monkeypatch.setattr(dqn, "learn_step", recording)
        sched = Schedules(lr_steps=300, eps_steps=200, learn_start=16,
                          replay_capacity=1000, batch_size=16)
        result = train(counting_factory, sched, episodes=40, seed=1)
        assert result.grad_steps > 300
        assert result.lr_zero_episode == episodes[300] > 0
        # a resumed call reports the step only if it takes it
        resumed = {"net": result.net, "start_episode": 40,
                   "env_steps": result.env_steps}
        for grad_steps, expected in ((result.grad_steps, None), (295, 40)):
            assert train(counting_factory, sched, episodes=1, seed=1,
                         grad_steps=grad_steps, **resumed).lr_zero_episode == expected
        sched.lr_end = 1e-5
        assert train(counting_factory, sched, episodes=40, seed=1).lr_zero_episode is None


class TestTargetSync:
    def recorded_calls(self, monkeypatch, target_sync):
        """(target is online, online params, target params) per td_targets call."""
        calls = []
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))  # the online net

        def recorder(batch, target_net, gamma):
            calls.append((target_net is net,
                          {k: v.copy() for k, v in net.params.items()},
                          {k: v.copy() for k, v in target_net.params.items()}))
            return td_targets(batch, target_net, gamma)

        monkeypatch.setattr(dqn, "td_targets", recorder)
        sched = Schedules(lr_steps=2000, eps_steps=30, learn_start=16,
                          replay_capacity=1000, batch_size=16,
                          target_sync=target_sync)
        train(toy_env_factory(parent_size=2000), sched, episodes=2, seed=0, net=net)
        return calls

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_target_is_online_copy_at_last_sync(self, monkeypatch, k):
        calls = self.recorded_calls(monkeypatch, k)
        assert len(calls) > 3 * k
        for i, (shared, online, target) in enumerate(calls):
            assert not shared
            # the sync after grad step j - 1 copies the online params that
            # call j then sees; call 0 sees the initial copy
            synced = calls[i // k * k][1]
            assert all(np.array_equal(target[n], synced[n]) for n in target)
            if i % k:  # frozen in between, while the online net moves
                assert all(np.array_equal(target[n], calls[i - 1][2][n])
                           for n in target)
                assert not all(np.array_equal(online[n], calls[i - 1][1][n])
                               for n in online)

    def test_zero_uses_online_net(self, monkeypatch):
        calls = self.recorded_calls(monkeypatch, 0)
        assert calls and all(shared for shared, _, _ in calls)


class TestCheckpointAndTrace:
    def test_checkpoint_roundtrip(self, tmp_path):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        net.save(path, meta={"episode": 7})
        loaded, meta = QNetwork.load(path)
        assert meta["episode"] == 7
        for k in net.params:
            assert np.array_equal(net.params[k], loaded.params[k])

    def test_greedy_replay_self_consistent(self):
        net = QNetwork((36, 50, 20, 5), np.random.default_rng(4))
        env = toy_env_factory()()
        obs = env.reset(0)
        actions, observations = [], []
        while not env.done:
            observations.append(obs)
            a = act(net, obs, 0.0, np.random.default_rng(0))
            actions.append(a)
            obs = env.step(a).observation
        q = net.forward(np.array(observations))
        assert [int(np.argmax(row)) for row in q] == actions


class ReferenceOptimizer:
    """The per-array Adam that ``Optimizer`` replaced, kept verbatim as an
    oracle: the flat, in-place update must give the same bits."""

    def __init__(self, net, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def update(self, net, grads, lr):
        if lr == 0.0:
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            net.params[k] -= lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)


def reference_backward(x, h1, h2, dq, w2, w3):
    """The ``mlp_backward`` that returned six fresh arrays, kept verbatim as
    an oracle: writing them into views of one vector must give the same bits."""
    gw3 = h2.T @ dq
    gb3 = dq.sum(axis=0)
    dh2 = dq @ w3.T
    dh2 = dh2 * (h2 > 0.0)
    gw2 = h1.T @ dh2
    gb2 = dh2.sum(axis=0)
    dh1 = dh2 @ w2.T
    dh1 = dh1 * (h1 > 0.0)
    gw1 = x.T @ dh1
    gb1 = dh1.sum(axis=0)
    return gw1, gb1, gw2, gb2, gw3, gb3


class TestFlatGradients:
    @pytest.mark.parametrize("n", [1, 3, 7, 16, 64, 65])
    @pytest.mark.parametrize("sizes", [(36, 50, 20, 5), (6, 5, 4, 3)])
    def test_bit_equal_to_per_array_backward(self, sizes, n):
        rng = np.random.default_rng(n)
        net = QNetwork(sizes, rng)
        for k in ("b1", "b2", "b3"):  # some units active, some not
            net.params[k][:] = rng.normal(scale=0.1, size=net.params[k].shape)
        s, a, y = rand_batch(rng, n=n, dim=sizes[0], n_actions=sizes[-1])
        _, g = loss_and_grads(net, s, a, y)
        p = net.params
        q, h1, h2 = mlp_forward(s, *p.values())
        dq = np.zeros_like(q)
        dq[np.arange(n), a] = 2.0 * (q[np.arange(n), a] - y) / n
        ref = reference_backward(s, h1, h2, dq, p["w2"], p["w3"])
        assert np.array_equal(g, np.concatenate([r.ravel() for r in ref]))
        # each call writes a new vector, so a caller may hold on to g
        assert not np.shares_memory(g, loss_and_grads(net, s, a, y)[1])


def reference_forward(x, w1, b1, w2, b2, w3, b3):
    """The ``mlp_forward`` that returned new arrays, kept verbatim as an oracle."""
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3 + b3
    return q, h1, h2


def reference_learn_step(net, target, optimizer, replay, schedules, grad_step, rng):
    """A gradient step of ``train`` before its workspace, kept verbatim as an
    oracle: ``ReplayMemory.sample``, ``td_targets`` and ``loss_and_grads`` as
    they were, each returning new arrays, then ``Optimizer.update``. The step
    that writes into one workspace must give the same bits."""
    # ReplayMemory.sample
    idx = rng.choice(replay.size, size=min(schedules.batch_size, replay.size),
                     replace=False)
    s, a, r, s_next, done = (replay.s[idx], replay.a[idx], replay.r[idx],
                             replay.s_next[idx], replay.done[idx])
    # td_targets
    q_next = reference_forward(s_next, *target.params.values())[0].max(axis=1)
    y = r + schedules.gamma * q_next * (~done)
    # loss_and_grads
    p = net.params
    q, h1, h2 = reference_forward(s, *p.values())
    n = s.shape[0]
    q_taken = q[np.arange(n), a]
    err = q_taken - y
    loss = float(np.add.reduce(err * err) / n)
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    g = np.concatenate([part.ravel() for part in
                        reference_backward(s, h1, h2, dq, p["w2"], p["w3"])])
    optimizer.update(net, g, schedules.lr(grad_step))
    return loss


def filled_replay(rng, capacity=200, dim=36, n_actions=5):
    replay = ReplayMemory(capacity, dim)
    for _ in range(capacity):
        replay.push(rng.normal(size=dim), rng.integers(n_actions), rng.normal(scale=5.0),
                    rng.normal(size=dim), rng.random() < 0.2)
    return replay


def learner(sizes, schedules, seed):
    """(net, target, optimizer) as ``train`` builds them, over a seeded net
    whose biases leave some relu units dead and some alive."""
    rng = np.random.default_rng(seed)
    net = QNetwork(sizes, rng)
    for k in ("b1", "b2", "b3"):
        net.params[k][:] = rng.normal(scale=0.3, size=net.params[k].shape)
    target = net if schedules.target_sync == 0 else net.copy()
    return net, target, Optimizer(net)


class TestWorkspaceStep:
    # At target_sync 0 the step forwards s and s_next as one (2, n, d)
    # stack; a (2n, d) stack fails here at n = 1, 3, 7, 33 and 65.
    @pytest.mark.parametrize("target_sync", [0, 3])
    @pytest.mark.parametrize("n", [1, 3, 7, 16, 33, 64, 65])
    def test_bit_equal_to_allocating_step(self, n, target_sync):
        sched = Schedules(lr_start=1e-2, batch_size=n, target_sync=target_sync)
        replay = filled_replay(np.random.default_rng(40 + n))
        net, target, opt = learner((36, 50, 20, 5), sched, 1)
        ref_net, ref_target, ref_opt = learner((36, 50, 20, 5), sched, 1)
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        ws = Workspace(net, n)
        for step in range(300):
            loss = learn_step(net, target, opt, replay, ws, sched, step, rng)
            ref_loss = reference_learn_step(ref_net, ref_target, ref_opt, replay,
                                            sched, step, ref_rng)
            if target_sync and (step + 1) % target_sync == 0:
                ref_target = ref_net.copy()
            assert loss == ref_loss, step
            assert np.array_equal(net.theta, ref_net.theta), step
            assert np.array_equal(target.theta, ref_target.theta), step
            assert rng.bit_generator.state == ref_rng.bit_generator.state, step
        assert not np.array_equal(net.theta, learner((36, 50, 20, 5), sched, 1)[0].theta)

    @pytest.mark.parametrize("target_sync", [0, 3])
    def test_step_allocates_no_arrays(self, target_sync):
        # 20 steps at batch 64 that made their arrays anew peaked at about
        # 198 KB above the start. A workspace step makes only the sample's
        # indices, but numpy buffers a broadcast add, a product with a bool
        # mask and (before numpy 2.3) a reduction's output. A small ufunc
        # buffer size caps those buffers, so that any array the size of a
        # hidden layer or of the gradient made per step shows.
        sched = Schedules(batch_size=64, replay_capacity=1000, target_sync=target_sync)
        replay = filled_replay(np.random.default_rng(5), capacity=1000)
        net, target, opt = learner((36, 50, 20, 5), sched, 6)
        rng = np.random.default_rng(7)
        ws = Workspace(net, 64)
        bufsize = np.setbufsize(128)
        tracemalloc.start()
        try:
            for step in range(5):
                learn_step(net, target, opt, replay, ws, sched, step, rng)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for step in range(5, 25):
                learn_step(net, target, opt, replay, ws, sched, step, rng)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < 8 * 1024

    @pytest.mark.parametrize("n", [1, 16, 33])
    def test_theta_change_never_reaches_a_reused_online_half(self, n):
        # targets on the online net forwards s with s_next, and the next
        # loss_and_grads takes that half; any later one forwards s anew
        sched = Schedules(batch_size=n)
        replay = filled_replay(np.random.default_rng(8))
        net, _, _ = learner((36, 50, 20, 5), sched, 9)
        rng = np.random.default_rng(10)
        ws = Workspace(net, n)

        def assert_fresh(on, y):
            """ws's loss and gradient are those of new arrays on ``on``'s
            theta as it is now"""
            loss = ws.loss_and_grads(on, y)
            expected, g = loss_and_grads(on, ws.s.copy(), ws.a.copy(), y)
            assert loss == expected and np.array_equal(ws.g, g)

        for step in range(3):
            replay.sample(n, rng, out=ws.batch)
            y = ws.targets(net, sched.gamma)
            assert np.array_equal(y, td_targets(tuple(c.copy() for c in ws.batch),
                                                net, sched.gamma))
            assert_fresh(net, y)
            net.theta += np.random.default_rng(step).normal(scale=0.1, size=net.theta.size)
            assert_fresh(net, y)  # no targets since theta changed
        # the half is for the online net only: another net forwards its own
        y = ws.targets(net, sched.gamma)
        assert_fresh(QNetwork((36, 50, 20, 5), np.random.default_rng(11)), y)


PARAM_ORDER = ["w1", "b1", "w2", "b2", "w3", "b3"]


def assert_views_of_theta(net):
    """Every param is a view into the one contiguous float64 ``theta``, in
    the order w1, b1, w2, b2, w3, b3."""
    assert list(net.params) == PARAM_ORDER
    assert net.theta.dtype == np.float64 and net.theta.flags.c_contiguous
    for v in net.params.values():
        assert np.shares_memory(v, net.theta)
    flat = np.concatenate([v.ravel() for v in net.params.values()])
    assert np.array_equal(flat, net.theta)


class TestFlatOptimizer:
    LRS = [1e-3, 0.0, 3e-2, 2.5e-4, 0.0, 0.0, 0.1, 1e-5]

    @pytest.mark.parametrize("sizes", [(36, 50, 20, 5), (6, 5, 4, 3)])
    @pytest.mark.parametrize("kind", ["adam"])  # keeps the test ids
    def test_bit_equal_to_per_array_update(self, sizes, kind):
        rng = np.random.default_rng(17)
        net = QNetwork(sizes, rng)
        ref = SimpleNamespace(params={k: v.copy() for k, v in net.params.items()})
        opt, ref_opt = Optimizer(net), ReferenceOptimizer(ref)
        adam_steps = 0
        for step in range(50):
            lr = self.LRS[step % len(self.LRS)]
            s, a, y = rand_batch(rng, n=16, dim=sizes[0], n_actions=sizes[-1])
            _, g = loss_and_grads(net, s, a, y)
            opt.update(net, g, lr)
            ref_opt.update(ref, net.views(g), lr)
            adam_steps += lr != 0.0
            assert opt.t == ref_opt.t == adam_steps
            for k in PARAM_ORDER:
                assert np.array_equal(net.params[k], ref.params[k]), (step, k)
            assert np.array_equal(
                opt.m, np.concatenate([ref_opt.m[k].ravel() for k in PARAM_ORDER]))
            assert np.array_equal(
                opt.v, np.concatenate([ref_opt.v[k].ravel() for k in PARAM_ORDER]))
        assert opt.t == 31  # the 19 lr = 0 steps do not count
        assert_views_of_theta(net)


class TestFlatParams:
    # sha256 of the checkpoints that the per-array QNetwork wrote for these
    # seeded nets with meta {"episode": 7, "seed": seed}
    PINNED = {((36, 50, 20, 5), 0):
              "6bc755f9e444968423efcea10824aecca6c5361f76467e07f672594641794be1",
              ((6, 5, 4, 3), 3):
              "d1dc3d478f03acaf40c66d6706be954094baa124a87ebf72789280fee3aa59c4"}

    def test_views_after_init(self):
        assert_views_of_theta(QNetwork())
        assert_views_of_theta(QNetwork((6, 5, 4, 3), np.random.default_rng(1)))

    def test_copy_is_equal_independent_and_draws_nothing(self, monkeypatch):
        rng = np.random.default_rng(2)
        net = QNetwork((36, 50, 20, 5), rng)
        state = rng.bit_generator.state

        def no_draws(*args, **kwargs):
            raise AssertionError("copy drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        clone = net.copy()
        monkeypatch.undo()
        assert rng.bit_generator.state == state
        assert_views_of_theta(clone)
        assert clone.sizes == net.sizes
        assert np.array_equal(clone.theta, net.theta)
        assert not np.shares_memory(clone.theta, net.theta)
        clone.params["w2"][0, 0] += 1.0
        assert not np.array_equal(clone.theta, net.theta)

    def test_load_writes_into_views(self, tmp_path):
        net = QNetwork((6, 5, 4, 3), np.random.default_rng(3))
        net.save(tmp_path / "c.json")
        loaded, _ = QNetwork.load(tmp_path / "c.json")
        assert_views_of_theta(loaded)
        assert np.array_equal(loaded.theta, net.theta)

    @pytest.mark.parametrize("kind", ["adam"])  # keeps the test id
    def test_views_after_gradient_steps(self, kind):
        rng = np.random.default_rng(6)
        net = QNetwork((6, 5, 4, 3), rng)
        theta = net.theta
        opt = Optimizer(net)
        for _ in range(20):
            s, a, y = rand_batch(rng, dim=6, n_actions=3)
            gradient_step(net, (s, a, y, s, np.zeros(5, dtype=bool)), y, 0.01, opt)
        assert net.theta is theta
        assert_views_of_theta(net)

    @pytest.mark.parametrize("sizes, seed", list(PINNED))
    def test_save_bytes_pinned(self, tmp_path, sizes, seed):
        path = tmp_path / "c.json"
        QNetwork(sizes, np.random.default_rng(seed)).save(
            path, meta={"episode": 7, "seed": seed})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[sizes, seed]

    def test_check_finite_names_the_parameter(self):
        net = QNetwork((6, 5, 4, 3), np.random.default_rng(7))
        net.check_finite()
        net.params["b2"][1] = np.nan
        with pytest.raises(TrainingDivergedError, match="parameter b2 became non-finite"):
            net.check_finite()

    @pytest.mark.parametrize("edit", ["missing", "extra", "shape", "nan", "inf"])
    def test_load_rejects_mismatched_params(self, tmp_path, edit):
        path = tmp_path / "c.json"
        QNetwork((6, 5, 4, 3), np.random.default_rng(8)).save(path)
        payload = json.loads(path.read_text())
        if edit == "missing":
            del payload["params"]["b3"]
        elif edit == "extra":
            payload["params"]["w4"] = [[0.0]]
        elif edit == "shape":
            payload["params"]["w2"] = payload["params"]["w2"][1:]
        elif edit == "nan":
            payload["params"]["b3"][1] = float("nan")
        else:
            payload["params"]["w3"][0][2] = float("-inf")
        path.write_text(json.dumps(payload))
        named = {"nan": "b3", "inf": "w3"}.get(edit, "")
        with pytest.raises(ValueError, match=f"checkpoint param.* {named}"):
            QNetwork.load(path)


class TestCrashSafeSave:
    @staticmethod
    def fail_replace(src, dst):
        raise OSError("simulated crash before the rename")

    @staticmethod
    def open_failing_mid_write(path, mode):
        """A file whose first write puts half the text on disk, then raises."""
        real = open(path, mode)

        class Half:
            def write(self, text):
                real.write(text[: len(text) // 2])
                real.flush()
                raise OSError("simulated crash mid-write")

            def close(self):
                real.close()
        return Half()

    @pytest.mark.parametrize("where", ["write", "replace"])
    def test_failed_save_keeps_last_checkpoint(self, tmp_path, monkeypatch, where):
        path = tmp_path / "checkpoint.json"
        QNetwork((6, 5, 4, 3), np.random.default_rng(9)).save(path, meta={"episode": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
        good = path.read_bytes()
        if where == "write":
            monkeypatch.setattr(Path, "open", self.open_failing_mid_write)
        else:
            monkeypatch.setattr(os, "replace", self.fail_replace)
        with pytest.raises(OSError, match="simulated crash"):
            QNetwork((6, 5, 4, 3), np.random.default_rng(10)).save(
                path, meta={"episode": 2})
        monkeypatch.undo()
        assert path.read_bytes() == good
        _, meta = QNetwork.load(path)
        assert meta == {"episode": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
