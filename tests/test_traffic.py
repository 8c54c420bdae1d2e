import math

import numpy as np
import pytest
import scipy.stats

from lbsim.engine import ConfigurationError, Topology
from lbsim.traffic import TrafficSpec, generate, routing_stream, system_capacity

TOPO = Topology(1, ((4, 8), (2, 4)))


class TestSystemCapacity:
    def test_identical_tasks(self):
        spec = TrafficSpec(0.9, "identical", 0.1)
        assert system_capacity(TOPO, spec) == 60.0

    def test_exponential_tasks(self):
        spec = TrafficSpec(0.9, "exponential", 0.2)
        assert system_capacity(TOPO, spec) == 30.0

    def test_single_unit_server(self):
        topo = Topology(1, ((1, 2),))
        assert system_capacity(topo, TrafficSpec(1.0, "identical", 1.0)) == 1.0


class TestSpecValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(0.0, "identical", 0.1)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(0.5, "exponential", -0.1)

    @pytest.mark.parametrize("rate, mean", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)])
    def test_rejects_nonfinite_rate_and_mean(self, rate, mean):
        with pytest.raises(ConfigurationError, match="finite"):
            TrafficSpec(rate, "exponential", mean)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(0.5, "weibull", 0.1)

    def test_overload_rate_permitted(self):
        TrafficSpec(1.3, "identical", 0.1)  # flagged by the harness, not here


class TestGenerate:
    def test_arrival_count_near_rate(self):
        # lambda = 0.9 * 60 = 54/s over 60 s -> 3240 expected; check the
        # 20-seed mean within 3 sigma of the Poisson mean
        counts = []
        for seed in range(20):
            spec = TrafficSpec(0.9, "identical", 0.1, seed=seed)
            counts.append(len(generate(spec, TOPO, 60.0)))
        mean = np.mean(counts)
        sigma_mean = math.sqrt(3240.0 / 20)
        assert abs(mean - 3240.0) < 3 * sigma_mean

    def test_identical_workloads_exact(self):
        spec = TrafficSpec(0.5, "identical", 0.1, seed=1)
        tasks = generate(spec, TOPO, 10.0)
        assert tasks and all(t.workload == 0.1 for t in tasks)

    def test_exponential_mean_converges(self):
        topo = Topology(1, ((4, 8),) * 50)  # high capacity -> many draws
        spec = TrafficSpec(1.0, "exponential", 0.2, seed=3)
        tasks = generate(spec, topo, 15.0)
        assert len(tasks) >= 10_000
        w = np.array([t.workload for t in tasks[:10_000]])
        sigma_mean = 0.2 / math.sqrt(10_000)
        assert abs(w.mean() - 0.2) < 3 * sigma_mean

    def test_sorted_and_truncated(self):
        spec = TrafficSpec(1.0, "exponential", 0.2, seed=5)
        tasks = generate(spec, TOPO, 30.0)
        times = [t.arrival_time for t in tasks]
        assert times == sorted(times)
        assert times[-1] < 30.0
        assert [t.id for t in tasks] == list(range(len(tasks)))

    def test_same_seed_same_sequence(self):
        for episode in (0, 3):
            a = generate(TrafficSpec(0.8, "exponential", 0.2, seed=9), TOPO, 20.0, episode)
            b = generate(TrafficSpec(0.8, "exponential", 0.2, seed=9), TOPO, 20.0, episode)
            assert [(t.arrival_time, t.workload) for t in a] == \
                   [(t.arrival_time, t.workload) for t in b]

    def test_episodes_differ(self):
        a = generate(TrafficSpec(0.8, "identical", 0.1, seed=9), TOPO, 20.0, episode=0)
        b = generate(TrafficSpec(0.8, "identical", 0.1, seed=9), TOPO, 20.0, episode=1)
        assert [t.arrival_time for t in a] != [t.arrival_time for t in b]

    def test_workload_stream_independent_of_interarrivals(self):
        # switching the workload distribution must not perturb arrival times
        a = generate(TrafficSpec(0.9, "identical", 0.1, seed=4), TOPO, 20.0)
        b = generate(TrafficSpec(0.9, "exponential", 0.1, seed=4), TOPO, 20.0)
        assert [t.arrival_time for t in a] == [t.arrival_time for t in b]

    def test_poisson_interval_counts_chisquare(self):
        # counts over disjoint unit intervals are Poisson(lam); chi-square
        # goodness of fit at alpha=0.01 over 10k intervals
        topo = Topology(1, ((1, 2),))
        spec = TrafficSpec(1.0, "identical", 0.2, seed=13)  # lam = 5/s
        lam = 5.0
        tasks = generate(spec, topo, 10_000.0)
        counts = np.bincount([int(t.arrival_time) for t in tasks], minlength=10_000)
        edges = list(range(12))
        observed = np.array([(counts == k).sum() for k in range(11)] +
                            [(counts >= 11).sum()], dtype=float)
        pmf = [scipy.stats.poisson.pmf(k, lam) for k in range(11)]
        expected = np.array(pmf + [1.0 - sum(pmf)]) * counts.size
        keep = expected >= 5
        stat = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        dof = keep.sum() - 1
        assert stat < scipy.stats.chi2.ppf(0.99, dof)

    def test_exponential_std_matches_mean(self):
        topo = Topology(1, ((4, 8),) * 100)
        spec = TrafficSpec(1.0, "exponential", 0.2, seed=8)
        tasks = generate(spec, topo, 60.0)
        w = np.array([t.workload for t in tasks[:100_000]])
        assert len(w) == 100_000
        assert abs(w.std() - w.mean()) / w.mean() < 0.05

    def test_routing_stream_deterministic(self):
        a = routing_stream(5, 2).integers(2, size=100)
        b = routing_stream(5, 2).integers(2, size=100)
        assert (a == b).all()
