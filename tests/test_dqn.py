import hashlib
import json
import math
import os
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
    act,
    gradient_step,
    learning_curve_csv,
    loss_and_grads,
    mlp_forward,
    td_targets,
    train,
)
from lobexec.execenv import ExecConfig, ExecutionEnv
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
