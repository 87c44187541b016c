"""Deep Q-learning: MLP Q-function, replay memory, schedules, training loop.

The Q-network is a 36-50-20-5 fully connected net with rectifier hidden
activations, trained on the squared TD error of the taken action. Targets
use the online network by default; an optional periodically synced target
network can be enabled via ``target_sync``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csv import csv_text
from ._kernels import mlp_backward, mlp_forward


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


class QNetwork:
    """Three-layer MLP; parameters in double precision.

    Initial weights are uniform in +/- 1/sqrt(fan_in) per layer.
    """

    def __init__(self, sizes=(36, 50, 20, 5), rng: np.random.Generator | None = None):
        if len(sizes) != 4:
            raise ValueError("QNetwork expects exactly two hidden layers")
        self.sizes = tuple(int(s) for s in sizes)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.params: dict[str, np.ndarray] = {}
        for i, name in enumerate(("w1", "w2", "w3")):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            bound = 1.0 / np.sqrt(fan_in)
            self.params[name] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params["b" + name[1]] = np.zeros(fan_out)

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Q-values; accepts a single observation or a batch."""
        x = np.asarray(s, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite observation")
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input dim {self.sizes[0]}, got {x.shape[1]}")
        p = self.params
        q, _, _ = mlp_forward(np.ascontiguousarray(x), p["w1"], p["b1"],
                              p["w2"], p["b2"], p["w3"], p["b3"])
        return q[0] if single else q

    def copy(self) -> "QNetwork":
        clone = QNetwork(self.sizes)
        clone.params = {k: v.copy() for k, v in self.params.items()}
        return clone

    def check_finite(self) -> None:
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise TrainingDivergedError(f"parameter {name} became non-finite")

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        payload = {
            "version": 1,
            "sizes": list(self.sizes),
            "params": {k: v.tolist() for k, v in self.params.items()},
            "meta": meta or {},
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> tuple["QNetwork", dict]:
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version: {payload.get('version')}")
        net = cls(tuple(payload["sizes"]))
        net.params = {k: np.array(v, dtype=np.float64)
                      for k, v in payload["params"].items()}
        return net, payload.get("meta", {})


@dataclass
class Schedules:
    lr_start: float = 1e-3
    lr_end: float = 0.0
    lr_steps: int = 90_000       # gradient steps to anneal lr over
    eps_start: float = 1.0
    eps_end: float = 0.02
    eps_steps: int = 10_000      # environment steps to anneal epsilon over
    gamma: float = 0.9999
    batch_size: int = 64
    replay_capacity: int = 100_000
    learn_start: int = 1000      # replay size before gradient steps begin
    target_sync: int = 0         # 0 = single network (targets from online net)
    optimizer: str = "adam"      # adam | sgd

    def lr(self, grad_step: int) -> float:
        if grad_step >= self.lr_steps:
            return self.lr_end
        frac = grad_step / self.lr_steps
        return self.lr_start + frac * (self.lr_end - self.lr_start)

    def epsilon(self, env_step: int) -> float:
        if env_step >= self.eps_steps:
            return self.eps_end
        frac = env_step / self.eps_steps
        return self.eps_start + frac * (self.eps_end - self.eps_start)

    def validate(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("bad batch size / replay capacity")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.lr_start < 0 or self.lr_end < 0:
            raise ValueError("lr_start and lr_end must be >= 0")
        if not (0.0 <= self.eps_start <= 1.0 and 0.0 <= self.eps_end <= 1.0):
            raise ValueError("eps_start and eps_end must be in [0, 1]")
        if self.target_sync < 0:
            raise ValueError("target_sync must be >= 0")


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


def td_targets(batch, net: QNetwork, target_net: QNetwork, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a Q(s', a) on the target net; y = r when done."""
    _, _, r, s_next, done = batch
    q_next = target_net.forward(s_next).max(axis=1)
    return r + gamma * q_next * (~done)


class Optimizer:
    """Adam (default) or plain steepest descent over the network params."""

    def __init__(self, net: QNetwork, kind: str = "adam",
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.kind = kind
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        if kind == "adam":
            self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
            self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def update(self, net: QNetwork, grads: dict[str, np.ndarray], lr: float) -> None:
        if lr == 0.0:
            return
        if self.kind == "sgd":
            for k, g in grads.items():
                net.params[k] -= lr * g
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            net.params[k] -= lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)


def loss_and_grads(net: QNetwork, s, a, y) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared TD error on the taken actions, plus its gradients."""
    s = np.ascontiguousarray(np.asarray(s, dtype=np.float64))
    a = np.asarray(a, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    p = net.params
    q, h1, h2 = mlp_forward(s, p["w1"], p["b1"], p["w2"], p["b2"], p["w3"], p["b3"])
    n = s.shape[0]
    q_taken = q[np.arange(n), a]
    err = q_taken - y
    loss = float(np.mean(err ** 2))
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * err / n
    gw1, gb1, gw2, gb2, gw3, gb3 = mlp_backward(s, h1, h2, dq, p["w2"], p["w3"])
    grads = {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3, "b3": gb3}
    return loss, grads


def gradient_step(net: QNetwork, batch, y: np.ndarray, lr: float,
                  optimizer: Optimizer) -> float:
    """One descent step on the squared TD error; returns the pre-update loss."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    s, a, _, _, _ = batch
    loss, grads = loss_and_grads(net, s, a, y)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss: {loss}")
    optimizer.update(net, grads, lr)
    return loss


def act(net: QNetwork, s: np.ndarray, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action; greedy ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return int(np.argmax(net.forward(s)))


def episode_seed(master_seed: int, episode: int) -> int:
    return int(np.random.SeedSequence((master_seed, episode)).generate_state(1)[0])


CHECKPOINT_EVERY = 100  # episodes between checkpoint saves; the last one is saved too
ROLLING = 100           # episodes in the learning curve's rolling mean


@dataclass
class TrainResult:
    net: QNetwork
    curve: list  # (episode, total_reward, rolling_mean)
    env_steps: int = 0
    grad_steps: int = 0


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
    schedules.validate()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
    if net is None:
        net = QNetwork((obs_dim, *hidden, n_actions),
                       np.random.default_rng(np.random.SeedSequence(
                           entropy=seed, spawn_key=(5,))))
    if net.n_actions != n_actions:
        raise ValueError(
            f"network outputs {net.n_actions} actions, environment has {n_actions}")
    target = net if schedules.target_sync == 0 else net.copy()
    optimizer = Optimizer(net, schedules.optimizer)
    replay = ReplayMemory(schedules.replay_capacity, obs_dim)
    curve = []
    rewards_window: list[float] = []

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
                y = td_targets(batch, net, target, schedules.gamma)
                gradient_step(net, batch, y, schedules.lr(grad_steps), optimizer)
                grad_steps += 1
                if schedules.target_sync > 0 and grad_steps % schedules.target_sync == 0:
                    target = net.copy()
        net.check_finite()
        rewards_window.append(total)
        if len(rewards_window) > ROLLING:
            rewards_window.pop(0)
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
