"""Hot numeric kernels in numpy: MLP forward/backward and exact OU stepping."""

from __future__ import annotations

import math

import numpy as np

# The kernels have one implementation, in numpy; nothing is jit-compiled.
# The flag stays because perfbench/run.py records it with each run's
# machine info.
USE_NUMBA = False


def mlp_forward(x, w1, b1, w2, b2, w3, b3):
    """Affine-relu-affine-relu-affine. Returns (q, h1, h2) for backprop."""
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3 + b3
    return q, h1, h2


def mlp_backward(x, h1, h2, dq, w2, w3):
    """Gradients of a scalar loss given dL/dq. Returns grads for all params."""
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


def ou_step(x: float, mu: float, theta: float, sigma: float, dt: float,
            normal: float) -> float:
    """One exact-discretization OU step of size dt.

    x' = mu + (x - mu) e^{-theta dt} + eps, with
    eps ~ N(0, sigma^2 (1 - e^{-2 theta dt}) / (2 theta)); the theta -> 0
    limit sigma^2 dt is used when theta == 0. ``normal`` is a standard
    normal draw supplied by the caller (keeps the RNG outside the kernel).
    """
    if theta > 0.0:
        decay = math.exp(-theta * dt)
        std = sigma * math.sqrt((1.0 - decay * decay) / (2.0 * theta))
    else:
        decay = 1.0
        std = sigma * math.sqrt(dt)
    return mu + (x - mu) * decay + std * normal
