"""Deep Q-learning: MLP Q-function, replay memory, schedules, training loop.

The Q-network is a 36-50-20-5 fully connected net with rectifier hidden
activations, trained on the squared TD error of the taken action; its
numpy kernels are the module-level ``mlp_forward`` and ``mlp_backward``.
Targets use the online network by default; an optional periodically
synced target network can be enabled via ``target_sync``.

All parameters live in one contiguous float64 vector, ``QNetwork.theta``,
laid out as ``w1, b1, w2, b2, w3, b3`` (row-major weights of shape
(fan_in, fan_out), then biases). ``QNetwork.views`` names the parts of any
vector in that layout: ``params`` those of ``theta``, and ``loss_and_grads``
those of the gradient vector that ``mlp_backward`` fills. Adam updates
``theta`` in place with moments ``m`` and ``v`` in the same layout, as a few
in-place ufuncs over the whole vector that round in the same order as the
per-array formula ``theta -= lr * m_hat / (sqrt(v_hat) + eps)``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._bounds import bounded, check_bounds
from ._csv import csv_text
from ._io import write_text_atomic
from ._seeding import episode_seed, generator


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


def mlp_forward(x, w1, b1, w2, b2, w3, b3):
    """Affine-relu-affine-relu-affine. Returns (q, h1, h2) for backprop."""
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3 + b3
    return q, h1, h2


def mlp_backward(x, h1, h2, dq, w2, w3, gw1, gb1, gw2, gb2, gw3, gb3):
    """Gradients of a scalar loss given dL/dq, written into ``gw1`` ... ``gb3``."""
    np.matmul(h2.T, dq, out=gw3)
    dq.sum(axis=0, out=gb3)
    dh2 = (dq @ w3.T) * (h2 > 0.0)
    np.matmul(h1.T, dh2, out=gw2)
    dh2.sum(axis=0, out=gb2)
    dh1 = (dh2 @ w2.T) * (h1 > 0.0)
    np.matmul(x.T, dh1, out=gw1)
    dh1.sum(axis=0, out=gb1)


class QNetwork:
    """Three-layer MLP; parameters in double precision.

    Initial weights are uniform in +/- 1/sqrt(fan_in) per layer.
    """

    def __init__(self, sizes=(36, 50, 20, 5), rng: np.random.Generator | None = None):
        self._bind(sizes, None)
        rng = rng if rng is not None else np.random.default_rng(0)
        for i in (1, 2, 3):
            fan_in, fan_out = self.sizes[i - 1], self.sizes[i]
            bound = 1.0 / np.sqrt(fan_in)
            self.params[f"w{i}"][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def _bind(self, sizes, theta: np.ndarray | None) -> None:
        """Set ``sizes``, ``theta`` (zeros when None) and the ``params``
        views into it."""
        if len(sizes) != 4:
            raise ValueError("QNetwork expects exactly two hidden layers")
        self.sizes = tuple(int(s) for s in sizes)
        self._layout, end = [], 0
        for i in (1, 2, 3):
            w, b = self.sizes[i - 1:i + 1], self.sizes[i:i + 1]
            for name, shape in (f"w{i}", w), (f"b{i}", b):
                start, end = end, end + math.prod(shape)
                self._layout.append((name, slice(start, end), shape))
        self.theta = np.zeros(end) if theta is None else theta
        self.params = self.views(self.theta)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``vector``, laid out like ``theta``."""
        return {name: vector[part].reshape(shape) for name, part, shape in self._layout}

    @classmethod
    def _from_theta(cls, sizes, theta: np.ndarray | None) -> "QNetwork":
        """A net over ``theta`` as is, without a random init."""
        net = cls.__new__(cls)
        net._bind(sizes, theta)
        return net

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Q-values; accepts a single observation or a batch."""
        x = np.asarray(s, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if not np.isfinite(x).all():
            raise ValueError("non-finite observation")
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input dim {self.sizes[0]}, got {x.shape[1]}")
        q, _, _ = mlp_forward(np.ascontiguousarray(x), *self.params.values())
        return q[0] if single else q

    def copy(self) -> "QNetwork":
        return self._from_theta(self.sizes, self.theta.copy())

    def check_finite(self) -> None:
        if np.isfinite(self.theta).all():
            return
        for name, value in self.params.items():
            if not np.isfinite(value).all():
                raise TrainingDivergedError(f"parameter {name} became non-finite")

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        payload = {
            "version": 1,
            "sizes": list(self.sizes),
            "params": {k: v.tolist() for k, v in self.params.items()},
            "meta": meta or {},
        }
        write_text_atomic(path, json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> tuple["QNetwork", dict]:
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version: {payload.get('version')}")
        sizes = payload["sizes"]
        if type(sizes) is not list or list(map(type, sizes)) != [int] * 4 or min(sizes) < 1:
            raise ValueError(f"checkpoint sizes {sizes!r} are not four positive ints")
        net = cls._from_theta(sizes, None)
        if set(payload["params"]) != set(net.params):
            raise ValueError(f"checkpoint params {sorted(payload['params'])} "
                             f"do not match {sorted(net.params)}")
        for name, value in payload["params"].items():
            value = np.array(value, dtype=np.float64)
            if value.shape != net.params[name].shape:
                raise ValueError(f"checkpoint param {name} has shape {value.shape}, "
                                 f"expected {net.params[name].shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"checkpoint param {name} has non-finite values")
            net.params[name][...] = value
        return net, payload.get("meta", {})


def _anneal(start: float, end: float, steps: int, i: int) -> float:
    """Linear from ``start`` at i = 0 to ``end`` at i = steps, then flat."""
    if i >= steps:
        return end
    return start + (i / steps) * (end - start)


@dataclass
class Schedules:
    lr_start: float = bounded(1e-3, ge=0)
    lr_end: float = bounded(0.0, ge=0)
    lr_steps: int = bounded(90_000, ge=0)       # gradient steps to anneal lr over
    eps_start: float = bounded(1.0, ge=0, le=1)
    eps_end: float = bounded(0.02, ge=0, le=1)
    eps_steps: int = bounded(10_000, ge=0)      # environment steps to anneal epsilon over
    gamma: float = bounded(0.9999, ge=0, le=1)
    batch_size: int = bounded(64, ge=1)
    replay_capacity: int = bounded(100_000, ge=1)
    learn_start: int = bounded(1000, ge=0)      # replay size before gradient steps begin
    target_sync: int = bounded(0, ge=0)         # 0 = single network (targets from online net)

    def lr(self, grad_step: int) -> float:
        return _anneal(self.lr_start, self.lr_end, self.lr_steps, grad_step)

    def epsilon(self, env_step: int) -> float:
        return _anneal(self.eps_start, self.eps_end, self.eps_steps, env_step)

    def cross_check(self) -> None:
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay_capacity must be >= batch_size")


class ReplayMemory:
    """Fixed-capacity ring buffer of transitions with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.s = np.zeros((capacity, obs_dim))
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._head = 0

    def push(self, s, a, r, s_next, done) -> None:
        i = self._head
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s_next[i] = s_next
        self.done[i] = done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement within the minibatch."""
        idx = rng.choice(self.size, size=min(batch_size, self.size), replace=False)
        return (self.s[idx], self.a[idx], self.r[idx],
                self.s_next[idx], self.done[idx])


def td_targets(batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a Q(s', a) on the target net; y = r when done."""
    _, _, r, s_next, done = batch
    q_next = target_net.forward(s_next).max(axis=1)
    return r + gamma * q_next * (~done)


class Optimizer:
    """Adam over flat parameter and gradient vectors, updating ``theta`` in place
    with the fixed moment decays and epsilon of Kingma & Ba (arXiv:1412.6980)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, net: QNetwork):
        self.t = 0
        n = net.theta.size
        self.m, self.v = np.zeros(n), np.zeros(n)
        self._scratch = (np.empty(n), np.empty(n))

    def update(self, net: QNetwork, g: np.ndarray, lr: float) -> None:
        if lr == 0.0:
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        a, b = self._scratch
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=a)
        m += a
        # v = beta2 * v + ((1 - beta2) * g) * g
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=a)
        a *= g
        v += a
        # theta -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        net.theta -= a


def loss_and_grads(net: QNetwork, s, a, y) -> tuple[float, np.ndarray]:
    """Mean squared TD error on the taken actions, plus a fresh gradient like ``theta``.
    A non-finite loss raises ``TrainingDivergedError`` before the backward pass."""
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    a = np.asarray(a, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    p = net.params
    q, h1, h2 = mlp_forward(s, *p.values())
    n = s.shape[0]
    q_taken = q[np.arange(n), a]
    err = q_taken - y
    loss = float(np.add.reduce(err * err) / n)
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss: {loss}")
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    g = np.empty_like(net.theta)
    mlp_backward(s, h1, h2, dq, p["w2"], p["w3"], *net.views(g).values())
    return loss, g


def gradient_step(net: QNetwork, batch, y: np.ndarray, lr: float,
                  optimizer: Optimizer) -> float:
    """One descent step on the squared TD error at ``lr`` >= 0 (``Schedules``
    bounds it); returns the pre-update loss."""
    s, a, _, _, _ = batch
    loss, g = loss_and_grads(net, s, a, y)
    optimizer.update(net, g, lr)
    return loss


def act(net: QNetwork, s: np.ndarray, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action for ``epsilon`` in [0, 1] (``Schedules`` bounds
    it); greedy ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return int(np.argmax(net.forward(s)))


CHECKPOINT_EVERY = 100  # episodes between checkpoint saves; the last one is saved too
ROLLING = 100           # episodes in the learning curve's rolling mean


@dataclass
class TrainResult:
    net: QNetwork
    curve: list  # (episode, total_reward, rolling_mean)
    env_steps: int = 0
    grad_steps: int = 0


def check_sizes(net: QNetwork, expected: tuple) -> None:
    """Raise unless ``net`` has the layer sizes ``expected``."""
    if net.sizes != expected:
        raise ValueError(f"network has layer sizes {list(net.sizes)}, "
                         f"config expects {list(expected)}")


def train(env_factory, schedules: Schedules, episodes: int, seed: int,
          net: QNetwork | None = None, obs_dim: int = 36, n_actions: int = 5,
          hidden=(50, 20), start_episode: int = 0,
          checkpoint_path: str | Path | None = None,
          env_steps: int = 0, grad_steps: int = 0) -> TrainResult:
    """Online off-policy training loop over fresh episodes.

    Fully reproducible from (seed, schedules): the policy RNG, replay
    sampling and per-episode environment seeds all derive from ``seed``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    check_bounds(schedules)
    rng = generator(seed, 4)
    expected = (obs_dim, *hidden, n_actions)
    if net is None:
        net = QNetwork(expected, generator(seed, 5))
    check_sizes(net, expected)
    target = net if schedules.target_sync == 0 else net.copy()
    optimizer = Optimizer(net)
    replay = ReplayMemory(schedules.replay_capacity, obs_dim)
    curve = []
    rewards_window: deque[float] = deque(maxlen=ROLLING)

    for ep in range(start_episode, start_episode + episodes):
        env = env_factory()
        obs = env.reset(episode_seed(seed, ep))
        total = 0.0
        done = False
        while not done:
            a = act(net, obs, schedules.epsilon(env_steps), rng)
            out = env.step(a)
            env_steps += 1
            replay.push(obs, a, out.reward, out.observation, out.done)
            obs = out.observation
            total += out.reward
            done = out.done
            if replay.size >= max(schedules.learn_start, schedules.batch_size):
                batch = replay.sample(schedules.batch_size, rng)
                y = td_targets(batch, target, schedules.gamma)
                gradient_step(net, batch, y, schedules.lr(grad_steps), optimizer)
                grad_steps += 1
                if schedules.target_sync > 0 and grad_steps % schedules.target_sync == 0:
                    target = net.copy()
        net.check_finite()
        rewards_window.append(total)
        curve.append((ep, total, sum(rewards_window) / len(rewards_window)))
        if checkpoint_path is not None and (
                (ep + 1 - start_episode) % CHECKPOINT_EVERY == 0
                or ep == start_episode + episodes - 1):
            net.save(checkpoint_path, meta={"episode": ep + 1, "seed": seed,
                                            "env_steps": env_steps,
                                            "grad_steps": grad_steps})
    return TrainResult(net=net, curve=curve, env_steps=env_steps,
                       grad_steps=grad_steps)


def learning_curve_csv(curve) -> str:
    return csv_text(["episode", "total_reward", "rolling_mean"],
                    ((ep, repr(total), repr(mean)) for ep, total, mean in curve))
