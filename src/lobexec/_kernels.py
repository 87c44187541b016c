"""Hot numeric kernels: MLP forward/backward and exact OU stepping.

Each kernel has a pure-numpy reference implementation. When numba (the
optional ``numba`` extra, ``pip install 'lobexec[numba]'``) is available
the same functions are compiled with ``@njit``; set the
environment variable ``LOBEXEC_NO_NUMBA=1`` to force the numpy path
(useful for debugging and as a correctness baseline). Both paths compute
the same quantities.
"""

from __future__ import annotations

import math
import os

import numpy as np

USE_NUMBA = os.environ.get("LOBEXEC_NO_NUMBA", "0") not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:
        USE_NUMBA = False


def _mlp_forward(x, w1, b1, w2, b2, w3, b3):
    """Affine-relu-affine-relu-affine. Returns (q, h1, h2) for backprop."""
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    q = h2 @ w3 + b3
    return q, h1, h2


def _mlp_backward(x, h1, h2, dq, w2, w3):
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


def _ou_exact_steps(x0, mu, theta, sigma, dt, normals):
    """Exact-discretization OU path over len(normals) steps of size dt.

    x_{i+1} = mu + (x_i - mu) e^{-theta dt} + eps_i, with
    eps_i ~ N(0, sigma^2 (1 - e^{-2 theta dt}) / (2 theta)); the theta -> 0
    limit sigma^2 dt is used when theta == 0. ``normals`` are standard
    normal draws supplied by the caller (keeps the RNG outside the kernel).
    """
    n = normals.shape[0]
    out = np.empty(n, dtype=np.float64)
    if theta > 0.0:
        decay = math.exp(-theta * dt)
        std = sigma * math.sqrt((1.0 - decay * decay) / (2.0 * theta))
    else:
        decay = 1.0
        std = sigma * math.sqrt(dt)
    x = x0
    for i in range(n):
        x = mu + (x - mu) * decay + std * normals[i]
        out[i] = x
    return out


if USE_NUMBA:
    mlp_forward = njit(cache=True)(_mlp_forward)
    mlp_backward = njit(cache=True)(_mlp_backward)
    ou_exact_steps = njit(cache=True)(_ou_exact_steps)
else:
    mlp_forward = _mlp_forward
    mlp_backward = _mlp_backward
    ou_exact_steps = _ou_exact_steps


def ou_step(x: float, mu: float, theta: float, sigma: float, dt: float,
            normal: float) -> float:
    """Single exact OU step (scalar convenience wrapper)."""
    if theta > 0.0:
        decay = math.exp(-theta * dt)
        std = sigma * math.sqrt((1.0 - decay * decay) / (2.0 * theta))
    else:
        decay = 1.0
        std = sigma * math.sqrt(dt)
    return mu + (x - mu) * decay + std * normal
