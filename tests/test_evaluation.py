import math

import pytest
from scipy import stats as scipy_stats

from lobexec.agents import MarketMakerParams
from lobexec.evaluation import (
    EpisodeResult,
    aggregate,
    episodes_csv,
    export_distributions,
    histogram,
    metrics_csv,
    pooled_t_test,
    rl_vs_baselines,
    run_experiment,
    t_cdf,
    t_ppf,
    ttests_csv,
)
from lobexec.execenv import ExecConfig
from lobexec.kernel import MarketConfig


def lite_market(**kw):
    base = dict(n_noise=20, n_value=5, n_momentum=1, session_seconds=90.0,
                market_maker=MarketMakerParams(pov=0.02, min_size=50))
    base.update(kw)
    return MarketConfig(**base)


def lite_exec(**kw):
    base = dict(parent_size=400, time_window_s=60, warmup_s=10)
    base.update(kw)
    return ExecConfig(**base)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 98, 200])
    @pytest.mark.parametrize("p", [0.6, 0.9, 0.95, 0.99])
    def test_quantiles_match_scipy(self, df, p):
        assert t_ppf(p, df) == pytest.approx(scipy_stats.t.ppf(p, df), abs=1e-3)

    def test_df98_critical_value(self):
        assert t_ppf(0.95, 98) == pytest.approx(1.660, abs=1e-3)

    @staticmethod
    def t_ppf_200_steps(p, df):
        """The quantile as every one of the 200 bisection steps leaves it."""
        if p == 0.5:
            return 0.0
        if p < 0.5:
            return -TestStudentT.t_ppf_200_steps(1.0 - p, df)
        lo, hi = 0.0, 1e3
        while t_cdf(hi, df) < p:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if t_cdf(mid, df) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("df", [1, 8, 98, 200])
    def test_early_stop_gives_the_200_step_result(self, df):
        grid = [1e-12, 0.001, 0.05, 0.3, 0.5, 0.6, 0.9, 0.95, 0.975, 0.99, 0.999,
                1.0 - 1e-9]
        for p in grid:
            assert t_ppf(p, df) == self.t_ppf_200_steps(p, df), p
            assert t_ppf(p, df) == t_ppf(p, df)  # a cached call

    def test_cdf_symmetry(self):
        assert t_cdf(1.5, 10) + t_cdf(-1.5, 10) == pytest.approx(1.0, abs=1e-12)


class TestPooledTTest:
    def test_identical_samples_t_zero(self):
        res = pooled_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0 and not res.reject

    def test_zero_variance_equal_means(self):
        res = pooled_t_test([2.0, 2.0], [2.0, 2.0])
        assert res.t == 0.0 and not res.reject

    def test_hand_computed_textbook_case(self):
        a = [5.0, 7.0, 9.0]        # mean 7, var 4
        b = [1.0, 3.0, 5.0]        # mean 3, var 4
        # sp2 = 4, t = 4 / (2 * sqrt(2/3)) = sqrt(6)
        res = pooled_t_test(a, b)
        assert res.t == pytest.approx(math.sqrt(6), abs=1e-9)
        assert res.df == 4
        assert res.reject == (res.t > res.critical)

    def test_shift_matches_formula(self):
        a = [0.1, 0.5, 0.9, 1.3]
        b = [x + 2.0 for x in a]
        na = len(a)
        ma = sum(a) / na
        va = sum((x - ma) ** 2 for x in a) / (na - 1)
        expected = -2.0 / math.sqrt(va * 2 / na)
        assert pooled_t_test(a, b).t == pytest.approx(expected, abs=1e-9)

    def test_equal_n_equal_var_textbook_identity(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 3.0, 4.0, 5.0]
        n = 4
        ma, mb = 2.5, 3.5
        s2 = sum((x - ma) ** 2 for x in a) / (n - 1)
        expected = (ma - mb) / math.sqrt(2 * s2 / n)
        assert pooled_t_test(a, b).t == pytest.approx(expected, abs=1e-12)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            pooled_t_test([1.0], [1.0, 2.0])


class TestAggregate:
    def make(self, values, policy="twap"):
        return {policy: [EpisodeResult(policy=policy, seed=i, is_norm=v, pen_norm=-0.1,
                                       t_frac=0.5) for i, v in enumerate(values)]}

    def test_identical_results_zero_variance(self):
        rows = aggregate(self.make([2.0, 2.0, 2.0]))
        assert rows[0].var_is == 0.0 and rows[0].mean_is == 2.0

    def test_hand_computed_three_episodes(self):
        rows = aggregate(self.make([1.0, 2.0, 6.0]))
        assert rows[0].mean_is == pytest.approx(3.0)
        assert rows[0].var_is == pytest.approx(7.0)  # unbiased
        assert rows[0].mean_pen == pytest.approx(-0.1)
        assert rows[0].mean_t == pytest.approx(0.5)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            aggregate(self.make([1.0]))

    def test_csv_columns_match_table_layout(self):
        header = metrics_csv(aggregate(self.make([1.0, 2.0]))).splitlines()[0]
        assert header == "policy,n,mean_is,mean_pen,mean_t,var_is"


class TestHistograms:
    def test_counts_sum_to_observations(self):
        values = [0.1, 0.2, 0.2, 0.9, 0.5]
        _, counts = histogram(values, 4)
        assert sum(counts) == 5

    def test_single_observation_one_bin(self):
        _, counts = histogram([3.0], 5)
        assert sum(counts) == 1 and max(counts) == 1

    def test_symmetric_data_symmetric_histogram(self):
        values = [-2, -1, -1, 0, 0, 0, 1, 1, 2]
        _, counts = histogram(values, 3)
        assert counts[0] == counts[-1]

    def test_export_files(self):
        results = [EpisodeResult("twap", i, 0.1 * i, -0.1, 0.5,
                                 spreads=[2, 3], imbalances=[0.5])
                   for i in range(4)]
        out = export_distributions(results, bins=4)
        assert set(out) == {"hist_is.csv", "hist_spread.csv", "hist_imbalance.csv"}
        assert out["hist_is.csv"].startswith("bin_lo,bin_hi,count\n")


class TestRunExperiment:
    def test_one_result_per_seed(self):
        results = run_experiment(["random"], lite_exec(), lite_market(), [3, 1, 2])
        assert [r.seed for r in results["random"]] == [1, 2, 3]

    def test_deterministic(self):
        a = run_experiment(["twap"], lite_exec(), lite_market(), [0, 1])
        b = run_experiment(["twap"], lite_exec(), lite_market(), [0, 1])
        assert episodes_csv(a["twap"]) == episodes_csv(b["twap"])

    def test_parallel_equals_serial(self):
        serial = run_experiment(["random"], lite_exec(), lite_market(), [0, 1, 2, 3])
        parallel = run_experiment(["random"], lite_exec(), lite_market(),
                                  [0, 1, 2, 3], workers=4)
        assert episodes_csv(serial["random"]) == episodes_csv(parallel["random"])

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool2"])
    def test_each_policy_as_if_run_alone(self, workers):
        # every policy but the last plays a fork of the seed's warmed session
        policies = ["twap", "passive", "random"]
        seeds = [4, 0, 2]

        def run(names):
            return run_experiment(names, lite_exec(), lite_market(), seeds,
                                  workers=workers)

        together = run(policies)
        assert list(together) == policies
        for policy in policies:
            alone = run([policy])[policy]
            assert [r.seed for r in alone] == sorted(seeds)
            assert together[policy] == alone

    def test_missing_checkpoint_is_startup_error(self):
        with pytest.raises(ValueError):
            run_experiment(["rl"], lite_exec(), lite_market(), [0, 1])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(["twap"], lite_exec(), lite_market(), [])

    @pytest.mark.parametrize("names", [[], ["twap", "twap"]], ids=["none", "twice"])
    def test_policy_list_must_be_nonempty_and_distinct(self, names):
        with pytest.raises(ValueError):
            run_experiment(names, lite_exec(), lite_market(), [0, 1])


class TestTTestMatrix:
    def test_rl_vs_each_baseline(self):
        results = {policy: [EpisodeResult(policy, i, base + 0.01 * i, 0, 0.5)
                            for i in range(5)]
                   for policy, base in (("rl", 1.0), ("twap", 0.0), ("random", 0.5))}
        tests = rl_vs_baselines(results)
        assert set(tests) == {"rl_vs_twap", "rl_vs_random"}
        assert all(t.df == 8 for t in tests.values())
        text = ttests_csv(tests)
        assert text.splitlines()[0] == "comparison,t,df,critical,reject"

    def test_no_rl_no_tests(self):
        results = {"twap": [EpisodeResult("twap", i, 0.0, 0, 0.5) for i in range(3)]}
        assert rl_vs_baselines(results) == {}
