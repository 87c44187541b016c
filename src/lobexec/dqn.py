"""Deep Q-learning: MLP Q-function, replay memory, schedules, training loop.

The Q-network is a 36-50-20-5 fully connected net with rectifier hidden
activations, trained on the squared TD error of the taken action; its
numpy kernels are the module-level ``mlp_forward`` and ``mlp_backward``,
which write into arrays that the caller passes, or into new ones.
Targets use the online network by default; an optional periodically
synced target network can be enabled via ``target_sync``.

All parameters live in one contiguous float64 vector, ``QNetwork.theta``,
laid out as ``w1, b1, w2, b2, w3, b3`` (row-major weights of shape
(fan_in, fan_out), then biases). ``QNetwork.views`` names the parts of any
vector in that layout: ``params`` those of ``theta``, and a ``Workspace``
those of its gradient vector, which ``mlp_backward`` fills. Adam updates
``theta`` in place with moments ``m`` and ``v`` in the same layout, as a few
in-place ufuncs over the whole vector that round in the same order as the
per-array formula ``theta -= lr * m_hat / (sqrt(v_hat) + eps)``.

``train`` builds one ``Workspace`` per call, sized by ``batch_size`` and
the layer sizes, and every gradient step (``learn_step``) writes the
sampled batch, both forward passes, the targets, the error, the backward
and the gradient into its arrays: a step makes no array but the
sample's indices.
``td_targets``, ``loss_and_grads`` and ``gradient_step`` run the same
workspace code on a workspace of their own when handed plain arrays, and
return new arrays then. A step whose lr is 0 draws its sample, since the
policy RNG reads on after it, and skips the rest, which could not move
``theta``.

When the targets come from the online net (``target_sync`` 0), a step's
two forwards run on the same weights, so the workspace holds ``s`` and
``s_next`` as the halves of one (2, n, d) array and forwards both in one
``mlp_forward`` call. The stack is 3-D because ``np.matmul`` gives each
(n, d) half the GEMM (or, at n = 1, the GEMV) that the half gets on its
own, so every bit is that of two forwards; a (2n, d) stack takes another
GEMM, whose sums round differently for some n (1, 3, 7, 33 and 65 on
OpenBLAS 0.3.31). The online half serves the next ``loss_and_grads``
only. With a separate target net each half is forwarded on its own net.

A greedy action (``act`` at epsilon 0, ``strategies.GreedyQPolicy``) is
``QNetwork.greedy``: ``forward``'s checks and (1, d) products on one-row
arrays that each net keeps, so it makes no array.
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


def mlp_forward(x, w1, b1, w2, b2, w3, b3, out=None):
    """Affine-relu-affine-relu-affine. Returns (q, h1, h2) for backprop,
    written into ``out = (h1, h2, q)``, or into new arrays when None. ``x``
    may stack batches, (m, n, d): each (n, d) batch then goes through the
    same products as on its own."""
    rows = x.shape[:-1]
    h1, h2, q = out or (np.empty((*rows, w1.shape[1])), np.empty((*rows, w2.shape[1])),
                        np.empty((*rows, w3.shape[1])))
    np.matmul(x, w1, out=h1)
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, w2, out=h2)
    h2 += b2
    np.maximum(h2, 0.0, out=h2)
    np.matmul(h2, w3, out=q)
    q += b3
    return q, h1, h2


def mlp_backward(x, h1, h2, dq, w2, w3, gw1, gb1, gw2, gb2, gw3, gb3, work=None):
    """Gradients of a scalar loss given dL/dq, written into ``gw1`` ... ``gb3``.
    The hidden layers' gradients and relu masks go into ``work = (dh2, dh1,
    mask2, mask1)``, or into new arrays when None."""
    if work is None:
        work = (np.empty(h2.shape), np.empty(h1.shape),
                np.empty(h2.shape, dtype=bool), np.empty(h1.shape, dtype=bool))
    dh2, dh1, mask2, mask1 = work
    np.matmul(h2.T, dq, out=gw3)
    np.add.reduce(dq, axis=0, out=gb3)
    np.matmul(dq, w3.T, out=dh2)
    dh2 *= np.greater(h2, 0.0, out=mask2)
    np.matmul(h1.T, dh2, out=gw2)
    np.add.reduce(dh2, axis=0, out=gb2)
    np.matmul(dh2, w2.T, out=dh1)
    dh1 *= np.greater(h1, 0.0, out=mask1)
    np.matmul(x.T, dh1, out=gw1)
    np.add.reduce(dh1, axis=0, out=gb1)


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
        d, h1, h2, k = self.sizes
        x = np.empty((1, d))
        # greedy's arrays: one observation as a row and as a vector, its
        # finite mask, the params with (1, h) biases (an add of equal
        # shapes is faster than a broadcast one) and the activations
        self._row = (x, x.reshape(d), np.empty(d, dtype=bool),
                     tuple(v.reshape(1, -1) if v.ndim == 1 else v
                           for v in self.params.values()),
                     (np.empty((1, h1)), np.empty((1, h2)), np.empty((1, k))))

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

    def greedy(self, s) -> int:
        """argmax_a Q(s, a) for one observation ``s``, ties to the lowest
        index: ``forward``'s checks and its (1, d) products, written into
        the net's one-row arrays, so that no array is made. Any other shape
        goes through ``forward`` and its errors."""
        x, row, finite, params, out = self._row
        if np.shape(s) != row.shape:
            return int(np.argmax(self.forward(s)))
        row[...] = s
        # count_nonzero, unlike all(), runs no reduction that allocates
        if np.count_nonzero(np.isfinite(row, out=finite)) != row.size:
            raise ValueError("non-finite observation")
        q, _, _ = mlp_forward(x, *params, out=out)
        return int(q.argmax())

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
        if type(payload) is not dict:
            raise ValueError(f"checkpoint must be an object, not {type(payload).__name__}")
        if payload.get("version") != 1:
            raise ValueError(f"unsupported checkpoint version: {payload.get('version')}")
        for key in ("sizes", "params"):
            if key not in payload:
                raise ValueError(f"checkpoint has no {key!r}")
        for key in ("params", "meta"):
            if type(payload.get(key, {})) is not dict:
                raise ValueError(f"checkpoint {key!r} must be an object, "
                                 f"not {type(payload[key]).__name__}")
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

    def sample(self, batch_size: int, rng: np.random.Generator, out=None):
        """Uniform sample without replacement within the minibatch, as the
        arrays (s, a, r, s_next, done), written into ``out`` when given."""
        idx = rng.choice(self.size, size=min(batch_size, self.size), replace=False)
        columns = (self.s, self.a, self.r, self.s_next, self.done)
        if out is None:
            out = tuple(np.empty((len(idx), *c.shape[1:]), dtype=c.dtype) for c in columns)
        for column, dest in zip(columns, out):
            column.take(idx, axis=0, out=dest, mode="clip")  # "raise" copies dest
        return out


class Workspace:
    """Every array that a gradient step on ``n`` transitions of the online
    net ``net`` writes: the batch, whose ``s`` and ``s_next`` are the two
    halves of one (2, n, d) array ``xs``, the forward activations of both
    halves, the TD targets, the error and its dL/dq, the backward's
    hidden-layer terms and one gradient vector laid out like ``theta``,
    with its named views. ``train`` builds one per call and reuses it on
    every step. The taken actions index q as flat offsets, so they must lie
    in [0, k): ``holding`` checks those it is handed.

    When the targets come from ``net`` itself, ``targets`` forwards both
    halves in one call, and the ``loss_and_grads`` that follows, the next
    one only, takes the online half from it: ``theta`` must not change in
    between, as it does not within a step."""

    def __init__(self, net: QNetwork, n: int):
        d, h1, h2, k = net.sizes
        self.n = n
        self.net = net
        self.xs = np.empty((2, n, d))
        self.batch = (self.xs[0], np.empty(n, dtype=np.int64), np.empty(n),
                      self.xs[1], np.empty(n, dtype=bool))
        self.s, self.a, self.r, self.s_next, self.done = self.batch
        self.finite = np.empty((n, d), dtype=bool)
        self.forward = (np.empty((2, n, h1)), np.empty((2, n, h2)), np.empty((2, n, k)))
        # (h1, h2, q) of s, then of s_next
        self.halves = tuple(tuple(a[i] for a in self.forward) for i in (0, 1))
        self._online_ready = False  # the s half holds net's forward of s
        self.q_next, self.not_done, self.y = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
        self.row_starts = np.arange(n) * k  # flat index of each row of q
        self.taken = np.empty(n, dtype=np.int64)  # flat index of q[i, a[i]]
        self.err, self.err2 = np.empty(n), np.empty(n)
        self.dq = np.empty((n, k))
        self.backward = (np.empty((n, h2)), np.empty((n, h1)),
                         np.empty((n, h2), dtype=bool), np.empty((n, h1), dtype=bool))
        self.g = np.empty(net.theta.size)
        self.grads = tuple(net.views(self.g).values())

    @classmethod
    def holding(cls, net: QNetwork, batch) -> "Workspace":
        """A new workspace holding a copy of ``batch``, (s, a, r, s_next, done)
        or a prefix of it."""
        ws = cls(net, len(batch[0]))
        for dest, value in zip(ws.batch, batch):
            dest[...] = value
        if len(batch) > 1 and not ((ws.a >= 0) & (ws.a < net.n_actions)).all():
            raise IndexError(f"actions must lie in [0, {net.n_actions})")
        return ws

    def targets(self, target_net: QNetwork, gamma: float) -> np.ndarray:
        """``y`` = r + gamma * max_a Q(s', a) on ``target_net``; y = r when done."""
        if not np.isfinite(self.s_next, out=self.finite).all():
            raise ValueError("non-finite observation")
        self._online_ready = target_net is self.net
        if self._online_ready:
            mlp_forward(self.xs, *target_net.params.values(), out=self.forward)
        else:
            mlp_forward(self.s_next, *target_net.params.values(), out=self.halves[1])
        q_next = np.maximum.reduce(self.halves[1][2], axis=1, out=self.q_next)
        q_next *= gamma
        q_next *= np.logical_not(self.done, out=self.not_done)
        return np.add(self.r, q_next, out=self.y)

    def loss_and_grads(self, net: QNetwork, y) -> float:
        """Mean squared TD error of ``net`` on the taken actions, with its
        gradient in ``g``. A non-finite loss raises ``TrainingDivergedError``
        before the backward pass."""
        p = net.params
        h1, h2, q = self.halves[0]
        if not (self._online_ready and net is self.net):
            mlp_forward(self.s, *p.values(), out=self.halves[0])
        self._online_ready = False
        taken = np.add(self.row_starts, self.a, out=self.taken)
        err = q.take(taken, out=self.err, mode="clip")
        err -= y
        loss = float(np.add.reduce(np.multiply(err, err, out=self.err2)) / self.n)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss: {loss}")
        err *= 2.0
        err /= self.n
        self.dq.fill(0.0)
        self.dq.put(taken, err)
        mlp_backward(self.s, h1, h2, self.dq, p["w2"], p["w3"], *self.grads,
                     work=self.backward)
        return loss


def td_targets(batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a Q(s', a) on the target net; y = r when done.
    ``batch`` is a ``Workspace``, whose ``y`` this returns, or the arrays
    (s, a, r, s_next, done), for which it returns a new array."""
    if not isinstance(batch, Workspace):
        batch = Workspace.holding(target_net, batch)
    return batch.targets(target_net, gamma)


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
    ws = Workspace.holding(net, (s, a))
    return ws.loss_and_grads(net, np.asarray(y, dtype=np.float64)), ws.g


def gradient_step(net: QNetwork, batch, y: np.ndarray, lr: float,
                  optimizer: Optimizer) -> float:
    """One descent step on the squared TD error at ``lr`` >= 0 (``Schedules``
    bounds it); returns the pre-update loss. ``batch`` is a ``Workspace``, or
    the arrays (s, a, ...)."""
    if not isinstance(batch, Workspace):
        batch = Workspace.holding(net, batch[:2])
    loss = batch.loss_and_grads(net, y)
    optimizer.update(net, batch.g, lr)
    return loss


def learn_step(net: QNetwork, target: QNetwork, optimizer: Optimizer,
               replay: ReplayMemory, ws: Workspace, schedules: Schedules,
               grad_step: int, rng: np.random.Generator) -> float | None:
    """Gradient step ``grad_step`` (counted from 0) of ``train``: a batch from
    ``replay`` into ``ws``, its TD targets on ``target`` and one descent step
    of ``net``; then, every ``target_sync`` steps, ``target`` takes the
    weights of ``net``. Returns the loss, or None when the step's lr is 0:
    the sample is still drawn, as the next epsilon-greedy draw reads ``rng``
    after it, but the rest could not move ``theta`` and is skipped."""
    replay.sample(schedules.batch_size, rng, out=ws.batch)
    lr = schedules.lr(grad_step)
    loss = None
    if lr != 0.0:
        loss = gradient_step(net, ws, td_targets(ws, target, schedules.gamma), lr, optimizer)
    if schedules.target_sync > 0 and (grad_step + 1) % schedules.target_sync == 0:
        np.copyto(target.theta, net.theta)
    return loss


def act(net: QNetwork, s: np.ndarray, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action for ``epsilon`` in [0, 1] (``Schedules`` bounds
    it); greedy ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return net.greedy(s)


CHECKPOINT_EVERY = 100  # episodes between checkpoint saves; the last one is saved too
ROLLING = 100           # episodes in the learning curve's rolling mean


@dataclass
class TrainResult:
    net: QNetwork
    curve: list  # (episode, total_reward, rolling_mean)
    env_steps: int = 0
    grad_steps: int = 0
    lr_zero_episode: int | None = None  # the episode of the first step at lr 0, if in this call


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
    ws = Workspace(net, schedules.batch_size)
    curve = []
    rewards_window: deque[float] = deque(maxlen=ROLLING)
    lr_zero_episode = None
    lr_was_zero = grad_steps > 0 and schedules.lr(grad_steps - 1) == 0.0

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
                loss = learn_step(net, target, optimizer, replay, ws, schedules,
                                  grad_steps, rng)
                grad_steps += 1
                if loss is None and not lr_was_zero:
                    lr_was_zero, lr_zero_episode = True, ep
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
                       grad_steps=grad_steps, lr_zero_episode=lr_zero_episode)


def learning_curve_csv(curve) -> str:
    return csv_text(["episode", "total_reward", "rolling_mean"],
                    ((ep, repr(total), repr(mean)) for ep, total, mean in curve))
