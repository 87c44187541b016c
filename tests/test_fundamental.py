import math

import numpy as np
import pytest

from lobexec.fundamental import (
    FundamentalParams,
    FundamentalPath,
    Oracle,
    fundamental_step,
)

from test_kernels import ou_path


def params(**kw):
    base = dict(theta=0.0, mu=0.0, sigma=0.0, jump_lambda=0.0,
                jump_mu1=0.0, jump_sigma1=0.0)
    base.update(kw)
    return FundamentalParams(**base)


def test_deterministic_mean_reversion_limit():
    p = params(theta=1e-3, mu=100.0)
    rng = np.random.default_rng(0)
    x = fundamental_step(50.0, 2000, p, rng)
    assert x == pytest.approx(100.0 + (50.0 - 100.0) * math.exp(-1e-3 * 2000))


def test_diffusion_variance_matches_sigma_sq_dt():
    # theta = 0, no jumps: increments ~ N(0, sigma^2 dt)
    p = params(sigma=0.5)
    rng = np.random.default_rng(1)
    dt = 4
    n = 100_000
    increments = np.array([fundamental_step(0.0, dt, p, rng) for _ in range(n)])
    target_var = p.sigma ** 2 * dt
    se = target_var * math.sqrt(2.0 / (n - 1))  # SE of sample variance, normal data
    assert abs(np.var(increments, ddof=1) - target_var) < 3 * se


def test_jump_mixture_mean_zero():
    p = params(jump_lambda=2.0, jump_mu1=10.0, jump_sigma1=1.0)
    rng = np.random.default_rng(2)
    n = 100_000
    xs = np.array([fundamental_step(0.0, 1, p, rng) for _ in range(n)])
    # each step has K ~ Poisson(2) jumps of zero-mean mixture
    per_jump_var = p.jump_sigma1 ** 2 + p.jump_mu1 ** 2
    se = math.sqrt(2.0 * per_jump_var / n)
    assert abs(xs.mean()) < 3 * se


def test_ou_long_run_moments():
    # lambda = 0: sample mean -> mu, sample variance -> sigma^2 / (2 theta)
    theta, sigma, mu = 0.01, 0.3, 5.0
    rng = np.random.default_rng(3)
    n = 100_000
    xs = ou_path(mu, mu, theta, sigma, 1.0, rng.standard_normal(n))
    stat_var = sigma ** 2 / (2 * theta)
    # autocorrelated series: effective sample size n (1-rho)/(1+rho)
    rho = math.exp(-theta)
    n_eff = n * (1 - rho) / (1 + rho)
    assert abs(xs.mean() - mu) < 3 * math.sqrt(stat_var / n_eff)
    assert abs(np.var(xs, ddof=1) - stat_var) < 3 * stat_var * math.sqrt(2.0 / n_eff)


def test_path_caching_is_consistent():
    path = FundamentalPath(params(sigma=1.0), np.random.default_rng(4))
    path.value(1000)
    b = path.value(2000)
    assert path.value(2000) == b  # the last value is kept
    for earlier in (1000, 1500):  # timestamps must be nondecreasing
        with pytest.raises(ValueError):
            path.value(earlier)


def test_same_seed_same_path():
    p = params(sigma=1.0, jump_lambda=0.001, jump_mu1=5.0, jump_sigma1=1.0)
    path1 = FundamentalPath(p, np.random.default_rng(5))
    path2 = FundamentalPath(p, np.random.default_rng(5))
    for t in (100, 200, 300):
        assert path1.value(t) == path2.value(t)


class TestOracle:
    def make(self, sigma=1.0):
        path = FundamentalPath(params(sigma=sigma), np.random.default_rng(6))
        return path, Oracle(path, 6)

    def test_zero_noise_returns_fundamental(self):
        path, oracle = self.make()
        assert oracle.observe(1, 500, noise_std=0.0) == path.value(500)

    def test_same_seed_same_observations(self):
        queries = [(agent, ts) for ts in (500, 900, 1300) for agent in (1, 2, 9)]
        seen = [[oracle.observe(agent, ts, noise_std=3.0) for agent, ts in queries]
                for _, oracle in (self.make(), self.make())]
        assert seen[0] == seen[1] and len(set(seen[0])) == len(queries)

    def test_observation_mean_near_fundamental(self):
        path, oracle = self.make(sigma=0.0)
        true = path.value(1000)
        n = 10_000
        obs = np.array([oracle.observe(i, 1000, noise_std=2.0) for i in range(n)])
        assert abs(obs.mean() - true) < 3 * 2.0 / math.sqrt(n)


def test_invalid_params_rejected():
    # a path built directly still checks its params' declared ranges
    with pytest.raises(ValueError, match="^sigma must be >= 0$"):
        FundamentalPath(params(sigma=-1.0), np.random.default_rng(0))
    with pytest.raises(ValueError):
        fundamental_step(0.0, 0, params(), np.random.default_rng(0))
