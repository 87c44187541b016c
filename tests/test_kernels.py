import math

import numpy as np
import pytest

from lobexec.dqn import mlp_backward, mlp_forward
from lobexec.fundamental import ou_step


def random_net(rng, batch=7, dims=(36, 50, 20, 5)):
    d0, d1, d2, d3 = dims
    x = rng.normal(size=(batch, d0))
    w1 = rng.normal(size=(d0, d1)) / np.sqrt(d0)
    b1 = rng.normal(size=d1) * 0.1
    w2 = rng.normal(size=(d1, d2)) / np.sqrt(d1)
    b2 = rng.normal(size=d2) * 0.1
    w3 = rng.normal(size=(d2, d3)) / np.sqrt(d2)
    b3 = rng.normal(size=d3) * 0.1
    return x, w1, b1, w2, b2, w3, b3


def reference_layer(rows, w, b, relu):
    """One dense layer in plain Python, one exactly rounded dot per unit."""
    w, b = w.tolist(), b.tolist()
    out = []
    for row in rows.tolist():
        z = [math.fsum(xi * wi[j] for xi, wi in zip(row, w)) + b[j]
             for j in range(len(b))]
        out.append([max(v, 0.0) for v in z] if relu else z)
    return np.array(out)


def ou_path(x0, mu, theta, sigma, dt, normals):
    """Loop the production step over the given normals."""
    out = np.empty(len(normals))
    x = x0
    for i, z in enumerate(normals):
        x = out[i] = ou_step(x, mu, theta, sigma, dt, z)
    return out


def ou_closed_form(x0, mu, theta, sigma, dt, normals):
    """x_n = mu + d^n (x0 - mu) + s sum_{k<n} d^(n-1-k) z_k, all n at once."""
    d = math.exp(-theta * dt)
    s = sigma * math.sqrt((1 - d * d) / (2 * theta) if theta > 0 else dt)
    n = np.arange(1, len(normals) + 1)
    lag = n[:, None] - 1 - np.arange(len(normals))[None, :]
    weights = np.where(lag >= 0, d ** np.maximum(lag, 0), 0.0)
    return mu + d ** n * (x0 - mu) + s * (weights @ normals)


class TestPathEquality:
    """Each kernel's output equals an independent reference computation:
    plain-Python dot products for the forward pass, central finite
    differences for the backward pass and the OU closed form for stepping."""

    @pytest.mark.parametrize("seed", range(5))
    def test_forward(self, seed):
        x, w1, b1, w2, b2, w3, b3 = random_net(np.random.default_rng(seed))
        h1 = reference_layer(x, w1, b1, relu=True)
        h2 = reference_layer(h1, w2, b2, relu=True)
        q = reference_layer(h2, w3, b3, relu=False)
        for r, g in zip((q, h1, h2), mlp_forward(x, w1, b1, w2, b2, w3, b3)):
            assert np.allclose(r, g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward(self, seed):
        rng = np.random.default_rng(seed)
        params = list(random_net(rng, batch=3, dims=(6, 5, 4, 3)))
        x = params[0]
        _, h1, h2 = mlp_forward(*params)
        dq = rng.normal(size=(x.shape[0], 3))
        grads = [np.empty_like(p) for p in params[1:]]
        mlp_backward(x, h1, h2, dq, params[3], params[5], *grads)

        def loss():  # linear in q, so dL/dq = dq
            return float(np.sum(dq * mlp_forward(*params)[0]))

        eps = 1e-6
        for p, g in zip(params[1:], grads):
            numeric = np.empty_like(p)
            for i in np.ndindex(p.shape):
                old = p[i]
                p[i] = old + eps
                up = loss()
                p[i] = old - eps
                down = loss()
                p[i] = old
                numeric[i] = (up - down) / (2 * eps)
            assert np.allclose(g, numeric, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.01, 1.0])
    def test_ou_steps(self, theta):
        rng = np.random.default_rng(0)
        normals = rng.normal(size=1000)
        ref = ou_closed_form(100.0, 100.5, theta, 0.2, 0.1, normals)
        got = ou_path(100.0, 100.5, theta, 0.2, 0.1, normals)
        assert np.allclose(ref, got, rtol=0, atol=1e-11)

    def test_scalar_step_matches_vector_kernel(self):
        normals = np.array([0.7, -1.3, 0.2])
        path = ou_closed_form(10.0, 12.0, 0.5, 0.3, 0.1, normals)
        x = 10.0
        for i, z in enumerate(normals):
            x = ou_step(x, 12.0, 0.5, 0.3, 0.1, z)
            assert x == pytest.approx(path[i], abs=1e-12)
