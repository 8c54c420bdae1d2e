"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with stochastic content run at fixed seeds; every tolerance is
stated inline.  The summary table is emitted at the end of the pytest run
(see conftest.py).
"""
import math
import os
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

import psoracle
from conftest import record
from lbsim import metrics, nets
from lbsim.agent import Batch, SacConfig, SacAgent
from lbsim.harness import ExperimentConfig, load_config, load_sweep_lists, run_experiment, run_sweep
from lbsim.policies import PolicyContext, lsq, rlb_assign, sed

BASE_IDENTICAL = ExperimentConfig(
    lbs=1, servers=((4, 8), (2, 4)), rate_fraction=0.9,
    distribution="identical", mean_workload=0.1,
    policy="sed", episodes=20,
)
RATES = (0.6, 0.7, 0.8, 0.9, 1.0)
BASELINES = ("ecmp", "wcmp", "lsq", "sed")
SEEDS5 = (2, 3, 4, 5, 6)
SEEDS3 = (2, 3, 4)


@pytest.fixture(scope="session")
def table1_sweep(tmp_path_factory):
    """The Table-1 baseline sweep: 4 policies x 5 rates x 5 seeds."""
    out = str(tmp_path_factory.mktemp("table1"))
    started = time.perf_counter()
    result = run_sweep(BASE_IDENTICAL, rates=RATES, policies=BASELINES,
                       seeds=SEEDS5, out_dir=out, workers=2)
    elapsed = time.perf_counter() - started
    cells = {(c.policy, c.rate): c for c in result.cells}
    return out, cells, elapsed


def test_criterion_1_baseline_ordering(table1_sweep):
    out, cells, elapsed = table1_sweep
    sed_100 = cells[("sed", 1.0)].fairness_index
    ecmp_100 = cells[("ecmp", 1.0)].fairness_index
    ordering_ok = all(
        cells[("sed", r)].fairness_index > cells[("lsq", r)].fairness_index >=
        cells[("wcmp", r)].fairness_index > cells[("ecmp", r)].fairness_index
        for r in RATES)
    passed = sed_100 >= 0.95 and ecmp_100 <= 0.60 and ordering_ok and elapsed < 120.0
    record(1, "baseline ordering (Table 1)", passed,
           f"sed@100={sed_100:.3f} (>=0.95) ecmp@100={ecmp_100:.3f} (<=0.60) "
           f"ordering={'ok' if ordering_ok else 'VIOLATED'} runtime={elapsed:.0f}s (<120)")
    assert sed_100 >= 0.95
    assert ecmp_100 <= 0.60
    assert ordering_ok
    assert elapsed < 120.0


def test_criterion_2_rlb_sac_learning():
    started = time.perf_counter()
    rlb_last, rlb_first5, rlb_last5 = [], [], []
    for seed in SEEDS3:
        config = replace(BASE_IDENTICAL, policy="rlb-sac")
        res = run_experiment(config, seed=seed, write_files=False)
        rewards = [s.mean_reward for s in res.summaries]
        rlb_last.append(res.summaries[-1].fairness_index)
        rlb_first5.append(statistics.mean(rewards[:5]))
        rlb_last5.append(statistics.mean(rewards[-5:]))
    lsq_last = []
    for seed in SEEDS3:
        config = replace(BASE_IDENTICAL, policy="lsq")
        res = run_experiment(config, seed=seed, write_files=False)
        lsq_last.append(res.summaries[-1].fairness_index)
    elapsed = time.perf_counter() - started

    rlb_med = statistics.median(rlb_last)
    lsq_med = statistics.median(lsq_last)
    reward_improved = statistics.median(rlb_last5) > statistics.median(rlb_first5)
    passed = rlb_med >= 0.85 and rlb_med > lsq_med and reward_improved \
        and elapsed < 900.0
    record(2, "rlb-sac learning at 90%", passed,
           f"rlb FI={rlb_med:.3f} (>=0.85) lsq FI={lsq_med:.3f} "
           f"reward last5>{'' if reward_improved else '!'}first5 "
           f"runtime={elapsed:.0f}s (<900)")
    assert rlb_med >= 0.85
    assert rlb_med > lsq_med
    assert reward_improved
    assert elapsed < 900.0


def test_criterion_3_reward_option_stretch():
    base = replace(BASE_IDENTICAL, rate_fraction=1.0, distribution="exponential",
                   mean_workload=0.2)
    rlb_avg, sed_avg = [], []
    for seed in SEEDS3:
        config = replace(base, policy="rlb-sac", reward_index="bossaer")
        res = run_experiment(config, seed=seed, write_files=False)
        rlb_avg.append(res.summaries[-1].avg_residual_workload)
        res = run_experiment(replace(base, policy="sed"), seed=seed,
                             write_files=False)
        sed_avg.append(res.summaries[-1].avg_residual_workload)
    rlb_med = statistics.median(rlb_avg)
    sed_med = statistics.median(sed_avg)
    met = rlb_med <= sed_med
    fallback = rlb_med <= 1.25 * sed_med
    detail = (f"rlb-sac-B avgRW={rlb_med:.3f} sed avgRW={sed_med:.3f} "
              + ("target met" if met else
                 f"DOCUMENTED DEVIATION: within 1.25x fallback={fallback}"))
    record(3, "reward-option stretch (Table 2)", met or fallback, detail)
    assert met or fallback, detail


def test_criterion_4_simulator_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        servers, triples = psoracle.random_scenario(rng)
        trace = psoracle.run_engine_on_scenario(servers, triples)
        expected = psoracle.integrate(servers, triples)
        # conservation: everything generated either completed or is counted
        # in a server queue
        in_flight = sum(len(s.in_service) + len(s.backlog) for s in trace.servers)
        assert trace.completed + in_flight == len(triples)
        per_server = {}
        for task, ref in zip(trace.tasks, expected):
            assert task.completion_time is not None
            worst = max(worst, abs(task.completion_time - ref))
            if task.service_start_time > task.dispatch_time:
                per_server.setdefault(task.server_id, []).append(task)
        # FIFO: backlogged tasks start in dispatch order
        for queued in per_server.values():
            queued.sort(key=lambda t: t.dispatch_time)
            starts = [t.service_start_time for t in queued]
            assert starts == sorted(starts)
    elapsed = time.perf_counter() - started
    passed = worst < 1e-3 and elapsed < 60.0
    record(4, "simulator oracle (200 scenarios)", passed,
           f"worst |engine-integrator|={worst:.2e} (<1e-3) runtime={elapsed:.0f}s (<60)")
    assert worst < 1e-3
    assert elapsed < 60.0


def test_criterion_5_policy_equivalences():
    rng = np.random.default_rng(555)
    # SED reproduction under proportional weights, 10,000 contexts
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        counts = rng.integers(0, 30, n).tolist()
        p = rng.integers(1, 9, n).astype(float).tolist()
        scale = 2.0 ** int(rng.integers(-4, 5))
        if sed(PolicyContext(counts, p)) != rlb_assign(
                PolicyContext(counts, [scale * v for v in p])):
            mismatches += 1
    # LSQ == SED on homogeneous processors
    lsq_mismatch = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        counts = rng.integers(0, 30, n).tolist()
        p = float(rng.integers(1, 9))
        if lsq(PolicyContext(counts, [1.0] * n)) != sed(PolicyContext(counts, [p] * n)):
            lsq_mismatch += 1
    # scale invariance under 1,000 random positive scalings
    scale_mismatch = 0
    for _ in range(1_000):
        n = int(rng.integers(1, 9))
        counts = rng.integers(0, 30, n).tolist()
        s = rng.uniform(0.05, 1.05, n).tolist()
        c = math.exp(rng.uniform(-5.0, 5.0))
        if rlb_assign(PolicyContext(counts, s)) != rlb_assign(
                PolicyContext(counts, [c * v for v in s])):
            scale_mismatch += 1
    passed = mismatches == 0 and lsq_mismatch == 0 and scale_mismatch == 0
    record(5, "policy equivalences", passed,
           f"sed-reproduction mismatches={mismatches}/10000, "
           f"lsq==sed mismatches={lsq_mismatch}/10000, "
           f"scale-invariance mismatches={scale_mismatch}/1000")
    assert passed


def test_criterion_6_fairness_unit_suite():
    tol = 1e-12
    examples = [
        (metrics.jain([2.0, 2.0, 2.0]), 1.0),
        (metrics.jain([1.0, 3.0]), 0.8),
        (metrics.jain([1.0, 0.0]), 0.5),
        (metrics.g_fairness([5.0, 5.0]), 1.0),
        (metrics.g_fairness([1.0, 2.0]), math.sin(math.pi / 4)),
        (metrics.g_fairness([0.0, 1.0]), 0.0),
        (metrics.bossaer([3.0, 3.0, 3.0]), 1.0),
        (metrics.bossaer([1.0, 2.0]), 0.5),
        (metrics.bossaer([1.0, 2.0, 4.0]), 0.125),
        (metrics.reward([0.2, 0.2], "jain"), 0.0),
        (metrics.reward([1.0, 3.0], "jain"), -0.2),
        (metrics.reward([1.0, 2.0], "bossaer"), -0.5),
    ]
    stats = metrics.reduce([(1.0, 9.0), (3.0, 10.0)], now=10.0)
    examples += [
        (stats.discounted_average, (0.9 + 3.0) / 2.0),
        (stats.weighted_discounted_average, (0.9 + 3.0) / 1.9),
    ]
    single = metrics.reduce([metrics.TimedSample(2.0, 5.0)], now=5.0)
    examples += [(single.average, 2.0), (single.p90, 2.0), (single.std, 0.0),
                 (single.discounted_average, 2.0),
                 (single.weighted_discounted_average, 2.0)]
    example_errs = [abs(got - want) for got, want in examples]

    rng = np.random.default_rng(666)
    prop_failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        x = rng.uniform(1e-3, 1e3, n)
        c = math.exp(rng.uniform(-6, 6))
        for fn in (metrics.jain, metrics.g_fairness, metrics.bossaer):
            if abs(fn(c * x) - fn(x)) > 1e-9:
                prop_failures += 1
        const = np.full(n, float(x[0]))
        for fn in (metrics.jain, metrics.g_fairness, metrics.bossaer):
            if abs(fn(const) - 1.0) > tol:
                prop_failures += 1
    passed = max(example_errs) < tol and prop_failures == 0
    record(6, "fairness/reduction unit suite", passed,
           f"max example error={max(example_errs):.1e} (<1e-12), "
           f"property failures={prop_failures}/10000 vectors")
    assert max(example_errs) < tol
    assert prop_failures == 0


def test_criterion_7_gradient_checks():
    from test_nets import fd_param_check

    rng = np.random.default_rng(777)
    failures = []

    # dense / layer-norm stacks
    for dims, norm in (([6, 16, 16, 2], True), ([5, 12, 3], False)):
        net = nets.DenseNet.build(dims, rng, layer_norm=norm)
        x = rng.normal(size=(4, dims[0]))
        upstream = rng.normal(size=(4, dims[-1]))

        def loss():
            return float((net.forward(x) * upstream).sum())

        loss()
        _, grads = net.backward(upstream)
        try:
            fd_param_check(loss, net.params(), grads, rng, probes=100)
        except AssertionError as exc:
            failures.append(f"dense{dims}: {exc}")

    # gaussian-head log-probability
    mean = rng.normal(size=(4, 2))
    log_std = rng.uniform(-2.0, 1.0, size=(4, 2))
    noise = rng.standard_normal((4, 2))
    _, _, _, _, dlp_dm, dlp_dls = nets.gaussian_head_grads(mean, log_std, noise)
    h = 1e-5
    for _ in range(100):
        i, j = int(rng.integers(4)), int(rng.integers(2))
        for arr, grads_arr in ((mean, dlp_dm), (log_std, dlp_dls)):
            saved = arr[i, j]
            arr[i, j] = saved + h
            up = float(nets.gaussian_head_sample(mean, log_std, noise)[1].sum())
            arr[i, j] = saved - h
            down = float(nets.gaussian_head_sample(mean, log_std, noise)[1].sum())
            arr[i, j] = saved
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grads_arr[i, j]))
            if scale > 1e-6 and abs(fd - grads_arr[i, j]) / scale > 1e-4:
                failures.append(f"gaussian head ({i},{j})")

    # critic and actor losses on frozen minibatches
    agent = SacAgent(2, SacConfig(hidden=6, batch_size=4, buffer_capacity=16), seed=7)
    batch = Batch(
        state=rng.normal(size=(3, agent.obs_dim)),
        action=rng.uniform(-0.9, 0.9, size=(3, 2)),
        reward=rng.normal(size=3),
        next_state=rng.normal(size=(3, agent.obs_dim)),
        done=np.zeros(3),
    )
    frozen_noise = rng.standard_normal((3, 2))
    targets = agent.critic_targets(batch, frozen_noise)
    _, cgrads = agent.critic_loss_grads(batch, targets)
    try:
        fd_param_check(lambda: agent.critic_loss_grads(batch, targets)[0],
                       agent.critic.params(), cgrads, rng, probes=100)
    except AssertionError as exc:
        failures.append(f"critic loss: {exc}")
    _, agrads = agent.actor_loss_grads(batch, frozen_noise)
    try:
        fd_param_check(lambda: agent.actor_loss_grads(batch, frozen_noise)[0],
                       agent.actor.params(), agrads, rng, probes=100)
    except AssertionError as exc:
        failures.append(f"actor loss: {exc}")

    record(7, "gradient checks (h=1e-5, rel<1e-4)", not failures,
           "all stacks, gaussian head, critic loss, actor loss"
           if not failures else "; ".join(failures[:3]))
    assert not failures, failures


def test_criterion_8_sac_sanity():
    from test_agent import QuadraticCritic, random_batch, tiny_agent

    # quadratic-critic convergence (sigma must fully decay inside the
    # 2000-update budget, hence the synthetic-task lr of 3e-3)
    agent = tiny_agent(hidden=16, seed=9, learning_rate=3e-3)
    agent.critic = QuadraticCritic(peak=0.5)
    agent.log_alpha[0] = -np.inf
    states = np.zeros((64, agent.obs_dim))
    batch = Batch(states, np.zeros((64, 1)), np.zeros(64), states, np.zeros(64))
    for _ in range(2000):
        agent.actor_update(batch)
    mean, _ = agent.actor.forward(np.zeros((1, agent.obs_dim)))
    target = math.atanh(0.5)
    mean_err = abs(float(mean[0, 0]) - target)

    # temperature direction on constructed batches
    def biased(bias):
        a = tiny_agent(seed=3)
        head = a.actor.head.layers[-1]
        head.w[:] = 0.0
        head.b[0] = 0.0
        head.b[1] = bias
        return a

    rng = np.random.default_rng(88)
    # raw log-std 0 is the midpoint of the bounds: sigma ~ 1 for (-1, 1),
    # entropy above the -1 target
    high = biased(0.0)
    high.actor.log_std_bounds = (-1.0, 1.0)
    b1 = random_batch(high, 8, rng)
    alpha_down = high.alpha_update(b1) < math.exp(high.config.log_alpha_init)
    low = biased(-30.0)           # sigma ~ 0.05 at the floor: below target
    b2 = random_batch(low, 8, rng)
    alpha_up = low.alpha_update(b2) > math.exp(low.config.log_alpha_init)

    passed = mean_err <= 0.05 and alpha_down and alpha_up
    record(8, "SAC sanity (synthetic critic + temperature)", passed,
           f"|actor mean - atanh(0.5)|={mean_err:.3f} (<=0.05), "
           f"alpha direction: high-entropy down={alpha_down}, "
           f"low-entropy up={alpha_up}")
    assert mean_err <= 0.05
    assert alpha_down and alpha_up


def test_criterion_9_determinism(table1_sweep, tmp_path):
    # (a) two runs from the same manifest -> bitwise-identical steps.csv
    config = replace(BASE_IDENTICAL, policy="sed", episodes=3,
                     first_episode_duration=10.0, episode_increment=2.0)
    first = run_experiment(config, seed=11, out_dir=str(tmp_path / "a"))
    manifest = os.path.join(first.out_dir, "manifest.ini")
    loaded, _ = load_config(manifest)
    second = run_experiment(loaded, out_dir=str(tmp_path / "b"))
    steps_a = open(os.path.join(first.out_dir, "steps.csv"), "rb").read()
    steps_b = open(os.path.join(second.out_dir, "steps.csv"), "rb").read()
    run_bitwise = steps_a == steps_b

    # (b) the Table-1 sweep rerun from its own manifest -> bitwise table.csv
    out, _, _ = table1_sweep
    loaded, _ = load_config(os.path.join(out, "manifest.ini"))
    rates, policies, seeds = load_sweep_lists(os.path.join(out, "manifest.ini"))
    rerun = run_sweep(replace(loaded, out_dir=str(tmp_path / "sweep")),
                      rates=rates, policies=policies, seeds=seeds, workers=2)
    table_a = open(os.path.join(out, "table.csv"), "rb").read()
    table_b = open(os.path.join(rerun.out_dir, "table.csv"), "rb").read()
    sweep_bitwise = table_a == table_b

    passed = run_bitwise and sweep_bitwise
    record(9, "determinism (bitwise reruns)", passed,
           f"steps.csv identical={run_bitwise}, table.csv identical={sweep_bitwise}")
    assert run_bitwise
    assert sweep_bitwise
