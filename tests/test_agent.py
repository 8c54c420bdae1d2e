import json
import math

import numpy as np
import pytest

from lbsim import metrics, nets
from lbsim.agent import (
    ACTOR_LOG_STD_HI,
    Batch,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    SacPolicy,
    action_to_speeds,
    observe,
)
from lbsim.engine import LocalView, Task, Topology, run_episode
from lbsim.traffic import TrafficSpec, generate


def fresh_view(n=2):
    return LocalView(0, n, collect=True)


def record_completion(view, task, now):
    """Log a completion on a collecting view, as the engine does."""
    sid = task.server_id
    view.ongoing[sid] -= 1
    view.durations[sid].add(now - task.service_start_time, now)
    view.tcts[sid].add(now - task.arrival_time, now)


def completed_task(server_id, arrival, service_start, completion, lb=0):
    task = Task(0, max(completion - service_start, 1e-9), arrival, lb_id=lb)
    task.server_id = server_id
    task.dispatch_time = arrival
    task.service_start_time = service_start
    return task


class TestObservation:
    def test_layout_and_counts_without_completions(self):
        view = fresh_view()
        view.ongoing[0] = 3
        view.ongoing[1] = 1
        obs = observe(view, now=1.0)
        assert obs.shape == (5 + 11 * 2,)
        # per-server blocks: duration(5) + tct(5) + count(1)
        assert np.all(obs[:5] == 0.0)        # no inter-arrival gaps yet
        assert np.all(obs[5:15] == 0.0)      # server 0 channels empty
        assert obs[15] == 3.0
        assert np.all(obs[16:26] == 0.0)
        assert obs[26] == 1.0

    def test_uncontended_completion_duration_equals_tct(self):
        view = fresh_view()
        task = completed_task(0, arrival=1.0, service_start=1.0, completion=1.3)
        view.ongoing[0] = 1
        record_completion(view, task, now=1.3)
        obs = observe(view, now=1.3)
        dur_stats = obs[5:10]
        tct_stats = obs[10:15]
        assert abs(dur_stats[0] - 0.3) < 1e-12     # average duration
        assert abs(tct_stats[0] - 0.3) < 1e-12     # average TCT
        assert abs(view.tcts[0].discounted_average(1.3) - 0.3) < 1e-12

    def test_queued_task_tct_includes_wait(self):
        view = fresh_view()
        task = completed_task(1, arrival=0.0, service_start=0.2, completion=0.5)
        view.ongoing[1] = 1
        record_completion(view, task, now=0.5)
        obs = observe(view, now=0.5)
        assert abs(obs[16 + 0] - 0.3) < 1e-12      # duration excludes the wait
        assert abs(obs[21 + 0] - 0.5) < 1e-12      # TCT includes it
        assert abs(view.tcts[1].discounted_average(0.5) - 0.5) < 1e-12

    def test_strict_observability_drops_duration(self):
        view = fresh_view()
        obs = observe(view, now=0.0, include_duration=False)
        assert obs.shape == (5 + 6 * 2,)

    def test_interarrival_gaps(self):
        view = fresh_view()
        for t in (1.0, 1.5, 2.5):
            view.record_arrival(t)
        obs = observe(view, now=2.5)
        assert abs(obs[0] - 0.75) < 1e-12  # mean of gaps 0.5 and 1.0

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("include_duration", [True, False])
    def test_bit_equal_to_per_channel_reduce(self, n, include_duration):
        rng = np.random.default_rng(n)
        view = fresh_view(n)
        gaps, durations, tcts = [], [[] for _ in range(n)], [[] for _ in range(n)]
        now = 0.0
        for k in range(300):
            last, now = now, now + float(rng.exponential(0.02))
            view.record_arrival(now)
            if k:
                gaps.append((now - last, now))
            j = int(rng.integers(n))
            start = now - float(rng.uniform(0.0, 0.1))
            task = completed_task(j, start - float(rng.uniform(0.0, 0.1)), start, now)
            view.ongoing[j] += 1
            record_completion(view, task, now)
            durations[j].append((now - start, now))
            tcts[j].append((now - task.arrival_time, now))
        view.ongoing[:] = rng.integers(0, 5, n).tolist()
        at = now + 0.3

        def five(pairs):
            s = metrics.reduce(pairs, at)
            return [s.average, s.p90, s.std, s.discounted_average,
                    s.weighted_discounted_average]

        expected = five(gaps)
        for j in range(n):
            expected += (five(durations[j]) if include_duration else []) + five(tcts[j])
            expected.append(float(view.ongoing[j]))
        obs = observe(view, at, include_duration)
        assert obs.tobytes() == np.array(expected).tobytes()


class TestActionToSpeeds:
    def test_zero_action_midpoint(self):
        assert np.allclose(action_to_speeds(np.zeros(3)), 0.55)

    def test_extremes(self):
        s = action_to_speeds(np.array([1.0 - 1e-12, -1.0 + 1e-12]))
        assert abs(s[0] - 1.05) < 1e-9
        assert abs(s[1] - 0.05) < 1e-9
        assert np.all(s > 0)

    def test_order_preserving(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 10)
        s = action_to_speeds(a)
        assert np.array_equal(np.argsort(a), np.argsort(s))


class TestReplayBuffer:
    def test_capacity_bound_and_fifo_eviction(self):
        buf = ReplayBuffer(5, 4, 2, np.random.default_rng(0))
        for k in range(8):
            buf.push(np.full(4, float(k)), np.zeros(2), float(k), np.full(4, k + 1.0), False)
        assert buf.size == 5
        kept = sorted(buf.reward.tolist())
        assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_seeded_sampling_reproducible(self):
        def build():
            buf = ReplayBuffer(10, 4, 2, np.random.default_rng(3))
            for k in range(10):
                buf.push(np.full(4, float(k)), np.zeros(2), float(k), np.full(4, k + 1.0),
                         False)
            return buf

        a, b = build(), build()
        for _ in range(5):
            assert np.array_equal(a.sample(4).reward, b.sample(4).reward)


def tiny_agent(n=1, hidden=4, seed=0, **cfg):
    config = SacConfig(hidden=hidden, batch_size=4, buffer_capacity=50, **cfg)
    return SacAgent(n, config, seed=seed)


def random_batch(agent, size, rng):
    return Batch(
        state=rng.normal(size=(size, agent.obs_dim)),
        action=rng.uniform(-0.9, 0.9, size=(size, agent.n)),
        reward=rng.normal(size=size),
        next_state=rng.normal(size=(size, agent.obs_dim)),
        done=np.zeros(size),
    )


def zero_head(net):
    net.head.layers[-1].w[:] = 0.0
    net.head.layers[-1].b[:] = 0.0


class TestCriticUpdate:
    def test_loss_is_one_when_q_zero_target_one(self):
        agent = tiny_agent(gamma=0.0)
        zero_head(agent.critic)
        zero_head(agent.guiding_critic)
        rng = np.random.default_rng(1)
        batch = random_batch(agent, 4, rng)
        batch.reward[:] = 1.0
        loss = agent.critic_loss_grads(batch, agent.critic_targets(batch))[0]
        assert abs(loss - 1.0) < 1e-12

    def test_terminal_target_is_reward_exactly(self):
        agent = tiny_agent(gamma=0.97)
        rng = np.random.default_rng(2)
        batch = random_batch(agent, 4, rng)
        batch.done[:] = 1.0
        noise = rng.standard_normal((4, agent.n))
        y = agent.critic_targets(batch, noise)
        assert np.array_equal(y, batch.reward)

    def test_target_matches_hand_evaluation(self):
        agent = tiny_agent(gamma=0.9)
        rng = np.random.default_rng(3)
        batch = random_batch(agent, 1, rng)
        noise = rng.standard_normal((1, 1))
        y = agent.critic_targets(batch, noise)

        # independent evaluation of r + gamma*(1-d)*(Q~(s',a') - alpha*logpi);
        # the batch states count as already normalized
        s2 = batch.next_state
        mean, log_std = agent.actor.forward(s2)
        std = np.exp(log_std)
        u = mean + std * noise
        a2 = np.tanh(u)
        logp = float((-0.5 * noise ** 2 - log_std - 0.5 * math.log(2 * math.pi)
                      - np.log(1 - a2 ** 2 + 1e-6)).sum())
        q = float(agent.guiding_critic.forward(s2, a2)[0])
        expected = batch.reward[0] + 0.9 * (q - agent.alpha * logp)
        assert abs(y[0] - expected) < 1e-10

    def test_finite_difference_critic_loss(self):
        agent = tiny_agent(hidden=6, seed=4)
        rng = np.random.default_rng(5)
        batch = random_batch(agent, 3, rng)
        noise = rng.standard_normal((3, 1))
        targets = agent.critic_targets(batch, noise)
        _, grads = agent.critic_loss_grads(batch, targets)
        params = agent.critic.params()

        def loss():
            return agent.critic_loss_grads(batch, targets)[0]

        from test_nets import fd_param_check
        fd_param_check(loss, params, grads, rng, probes=60)


class QuadraticCritic:
    """Synthetic critic Q(s, a) = -sum_j (a_j - peak)^2, duck-typed."""

    def __init__(self, peak=0.5):
        self.peak = peak
        self._a = None

    def forward(self, obs, action):
        self._a = np.asarray(action)
        return -((self._a - self.peak) ** 2).sum(axis=1)

    def action_grad(self, d_q):
        return np.asarray(d_q)[:, None] * (-2.0 * (self._a - self.peak))


class TestActorUpdate:
    def test_constant_critic_and_zero_alpha_give_zero_grads(self):
        agent = tiny_agent()
        zero_head(agent.critic)           # Q == 0 for every action
        agent.log_alpha[0] = -np.inf      # alpha == 0
        rng = np.random.default_rng(6)
        batch = random_batch(agent, 4, rng)
        noise = rng.standard_normal((4, 1))
        _, grads = agent.actor_loss_grads(batch, noise)
        assert max(float(np.abs(g).max()) for g in grads) < 1e-12

    def test_finite_difference_actor_loss(self):
        agent = tiny_agent(hidden=6, seed=7)
        rng = np.random.default_rng(8)
        batch = random_batch(agent, 3, rng)
        noise = rng.standard_normal((3, 1))
        _, grads = agent.actor_loss_grads(batch, noise)
        params = agent.actor.params()

        def loss():
            return agent.actor_loss_grads(batch, noise)[0]

        from test_nets import fd_param_check
        fd_param_check(loss, params, grads, rng, probes=60)

    def test_quadratic_critic_convergence(self):
        # The actor mean should climb to atanh(0.5) where Q peaks.  The
        # residual bias of the mean scales with sigma^2 (tanh curvature), and
        # sigma decays at roughly lr per update, so the synthetic task runs
        # at lr 3e-3 to turn sigma over fully inside the 2000-update budget.
        agent = tiny_agent(hidden=16, seed=9, learning_rate=3e-3)
        agent.critic = QuadraticCritic(peak=0.5)
        agent.log_alpha[0] = -np.inf
        rng = np.random.default_rng(10)
        states = np.zeros((64, agent.obs_dim))
        batch = Batch(states, np.zeros((64, 1)), np.zeros(64), states, np.zeros(64))
        for _ in range(2000):
            agent.actor_update(batch)
        mean, _ = agent.actor.forward(np.zeros((1, agent.obs_dim)))
        assert abs(mean[0, 0] - math.atanh(0.5)) < 0.05


class TestAlphaUpdate:
    def _agent_with_log_std_bias(self, bias):
        agent = tiny_agent()
        head = agent.actor.head.layers[-1]
        head.w[:] = 0.0
        head.b[0] = 0.0
        head.b[1] = bias
        return agent

    def test_alpha_decreases_when_entropy_above_target(self):
        # sigma ~ 1 spreads the squashed action over (-1,1): entropy near
        # log 2, well above the -1 target (huge sigma would instead collapse
        # the squashed density onto the box walls).  A raw log-std of 0 maps
        # to the midpoint of the bounds, so they are centred on 0 here.
        agent = self._agent_with_log_std_bias(0.0)
        agent.actor.log_std_bounds = (-1.0, 1.0)
        rng = np.random.default_rng(11)
        batch = random_batch(agent, 8, rng)
        before = agent.alpha
        after = agent.alpha_update(batch)
        assert after < before

    def test_alpha_increases_when_entropy_below_target(self):
        agent = self._agent_with_log_std_bias(-30.0)  # clamps to sigma ~ 0.05
        rng = np.random.default_rng(12)
        batch = random_batch(agent, 8, rng)
        before = agent.alpha
        after = agent.alpha_update(batch)
        assert after > before

    def test_alpha_stays_positive(self):
        agent = self._agent_with_log_std_bias(2.0)
        rng = np.random.default_rng(13)
        batch = random_batch(agent, 8, rng)
        for _ in range(200):
            assert agent.alpha_update(batch) > 0.0

    def test_stationary_at_target_entropy(self):
        # when measured entropy sits exactly at the target, the temperature
        # gradient -E[logpi + H_target] vanishes
        agent = tiny_agent()
        rng = np.random.default_rng(14)
        batch = random_batch(agent, 6, rng)
        noise = rng.standard_normal((6, 1))
        mean, log_std = agent.actor.forward(
            agent.normalizer.normalize(batch.state))
        _, logp = nets.gaussian_head_sample(mean, log_std, noise)
        target = float(-np.mean(logp))
        grad = -float(np.mean(logp + target))
        assert abs(grad) < 1e-12

    def test_log_std_ceiling_at_target_entropy_scale(self):
        # the entropy term holds the log-std at its ceiling, so the ceiling
        # sets the exploration noise: the widest Gaussian must sit above the
        # per-dimension target of -1 nat (else alpha can only rise) and no
        # more than 1 nat above it
        widest = 0.5 * math.log(2.0 * math.pi * math.e) + ACTOR_LOG_STD_HI
        assert -1.0 < widest <= 0.0


class TestSoftUpdate:
    def test_tau_one_copies_main(self):
        agent = tiny_agent(tau=1.0)
        rng = np.random.default_rng(15)
        for p in agent.critic.params():
            p += rng.normal(size=p.shape)
        agent.soft_update()
        for g, m in zip(agent.guiding_critic.params(), agent.critic.params()):
            assert np.array_equal(g, m)

    def test_tau_zero_leaves_guiding(self):
        agent = tiny_agent(tau=0.0)
        before = [p.copy() for p in agent.guiding_critic.params()]
        for p in agent.critic.params():
            p += 1.0
        agent.soft_update()
        for g, b in zip(agent.guiding_critic.params(), before):
            assert np.array_equal(g, b)

    def test_geometric_gap_decay(self):
        tau = 0.005
        agent = tiny_agent(tau=tau)
        for p in agent.critic.params():
            p += 1.0  # freeze a gap
        gap0 = [m - g for m, g in zip(agent.critic.params(),
                                      agent.guiding_critic.params())]
        for k in range(1, 4):
            agent.soft_update()
            for m, g, g0 in zip(agent.critic.params(),
                                agent.guiding_critic.params(), gap0):
                assert np.allclose(m - g, (1 - tau) ** k * g0, rtol=1e-12, atol=1e-15)


class TestStepPipeline:
    def _run_steps(self, agent, steps=3):
        view = fresh_view(agent.n)
        out = []
        for k in range(steps):
            now = 0.5 * k
            view.record_arrival(now)
            out.append(agent.step(view, now))
        return out

    def test_first_step_stores_no_transition(self):
        agent = tiny_agent(n=2)
        view = fresh_view(2)
        agent.step(view, 0.0)
        assert agent.buffer.size == 0
        agent.step(view, 0.5)
        assert agent.buffer.size == 1

    def test_below_batch_no_gradient_update(self):
        agent = tiny_agent(n=2)
        before = [p.copy() for p in agent.actor.params()]
        self._run_steps(agent, steps=3)  # buffer stays below batch_size=4
        for p, b in zip(agent.actor.params(), before):
            assert np.array_equal(p, b)
        assert agent.total_updates == 0

    def test_weights_equal_action_map_of_sampled_action(self):
        agent = tiny_agent(n=2)
        speeds, = self._run_steps(agent, steps=1)[:1]
        assert speeds == action_to_speeds(agent.prev_action).tolist()

    def test_episode_end_stores_terminal_and_resets(self):
        agent = tiny_agent(n=2)
        view = fresh_view(2)
        agent.step(view, 0.0)
        agent.step(view, 0.5)
        agent.episode_end(view, 1.0)
        assert agent.buffer.size == 2
        assert agent.buffer.done[1] == 1.0
        assert agent.prev_obs is None
        # next episode's first step stores nothing
        agent.step(view, 0.0)
        assert agent.buffer.size == 2

    def test_agents_are_isolated(self):
        def run_a(with_b):
            a = tiny_agent(n=2, seed=21)
            if with_b:
                b = tiny_agent(n=2, seed=99)
                view_b = fresh_view(2)
                for k in range(6):
                    b.step(view_b, 0.5 * k)
            view = fresh_view(2)
            for k in range(6):
                a.step(view, 0.5 * k)
            return a

        p1 = run_a(with_b=False).actor.params()
        p2 = run_a(with_b=True).actor.params()
        for x, y in zip(p1, p2):
            assert np.array_equal(x, y)


class TestEngineIntegration:
    TOPO = Topology(1, ((4, 8), (2, 4)))

    def _run(self, seed=0, episodes=2):
        agent = SacAgent(2, SacConfig(batch_size=8, buffer_capacity=100), seed=seed)
        policy = SacPolicy(agent).bind(np.random.default_rng(seed))
        curves = []
        for ep in range(episodes):
            spec = TrafficSpec(0.9, "identical", 0.1, seed=seed)
            tasks = generate(spec, self.TOPO, 10.0, episode=ep)
            trace = run_episode(self.TOPO, [policy], tasks, 10.0)
            curves.append([r for _, _, r in trace.rewards])
        return agent, curves

    def test_end_to_end_determinism(self):
        a1, c1 = self._run(seed=3)
        a2, c2 = self._run(seed=3)
        assert c1 == c2
        for x, y in zip(a1.actor.params(), a2.actor.params()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("index", ["jain", "bossaer"])
    def test_transitions_carry_the_engine_reward(self, index):
        def reward_fn(w):
            return metrics.reward(w, index)

        agent = SacAgent(2, SacConfig(batch_size=8, buffer_capacity=100), seed=6)
        by_definition = []
        ends = []

        class Spy(SacPolicy):
            def on_step(self, view, now):
                by_definition.append(reward_fn([ch.discounted_average(now)
                                                for ch in view.tcts]))
                return super().on_step(view, now)

            def on_episode_end(self, view, now):
                ends.append(view.reward(now))
                super().on_episode_end(view, now)

        policy = Spy(agent).bind(np.random.default_rng(6))
        tasks = generate(TrafficSpec(0.9, "identical", 0.1, seed=6), self.TOPO, 10.0, episode=0)
        trace = run_episode(self.TOPO, [policy], tasks, 10.0, reward_fn=reward_fn)
        recorded = [r for _, _, r in trace.rewards]
        assert recorded == by_definition
        # transition k is stored at boundary k + 1; the last one at the end
        stored = agent.buffer.reward[:agent.buffer.size].tolist()
        assert stored == recorded[1:] + ends
        assert agent.buffer.done[agent.buffer.size - 1] == 1.0

    def test_speeds_frozen_between_boundaries(self):
        agent = SacAgent(2, SacConfig(batch_size=8, buffer_capacity=100), seed=5)
        observed = []

        class Spy(SacPolicy):
            def select(self, ctx):
                observed.append(tuple(ctx.weights))
                return super().select(ctx)

        policy = Spy(agent).bind(np.random.default_rng(5))
        spec = TrafficSpec(0.9, "identical", 0.1, seed=5)
        tasks = generate(spec, self.TOPO, 5.0, episode=0)
        run_episode(self.TOPO, [policy], tasks, 5.0)
        # weights change only at boundaries: few distinct values vs thousands
        # of dispatches
        distinct = len(set(observed))
        assert distinct <= 10 + 1  # 10 boundaries in 5 s (plus initial)
        assert len(observed) > 50

    def test_checkpoint_roundtrip(self, tmp_path):
        agent, _ = self._run(seed=7)
        agent.save_checkpoint(tmp_path / "ck")
        clone = SacAgent(2, SacConfig(batch_size=8, buffer_capacity=100), seed=1)
        clone.load_checkpoint(tmp_path / "ck")
        x = np.random.default_rng(0).normal(size=(1, agent.obs_dim))
        a = agent.actor.forward(agent.normalizer.normalize(x))
        b = clone.actor.forward(clone.normalizer.normalize(x))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert clone.total_steps == agent.total_steps


class TestFlatParameters:
    def test_params_are_views_of_flat(self):
        agent = tiny_agent(n=2)
        for net in (agent.actor, agent.critic, agent.guiding_critic):
            params = net.params()
            assert sum(p.size for p in params) == net.flat.size
            assert all(np.shares_memory(p, net.flat) for p in params)
            layers = [layer for sub in (net.lb_enc, net.srv_enc, net.head)
                      for layer in sub.layers]
            grads = [g for layer in layers for g in layer.grads()]
            assert all(np.shares_memory(g, net.grad) for g in grads)

    def test_guiding_critic_starts_as_an_owned_copy(self):
        agent = tiny_agent(n=2)
        guiding, critic = agent.guiding_critic, agent.critic
        assert guiding.flat.tobytes() == critic.flat.tobytes()
        assert not np.shares_memory(guiding.flat, critic.flat)
        assert not np.shares_memory(guiding.grad, critic.grad)
        guiding.flat += 1.0
        assert not np.array_equal(guiding.flat, critic.flat)

    def test_backward_overwrites_the_whole_gradient(self):
        agent = tiny_agent(n=2, hidden=6)
        batch = random_batch(agent, 5, np.random.default_rng(20))
        critic = agent.critic
        critic.grad[:] = np.nan
        critic.forward(batch.state, batch.action)
        grad = critic.backward(np.ones(5))
        assert grad is critic.grad and np.all(np.isfinite(grad))

    def test_action_grad_matches_full_backward(self):
        agent = tiny_agent(n=3, hidden=8, seed=5)
        rng = np.random.default_rng(21)
        batch = random_batch(agent, 7, rng)
        d_q = rng.normal(size=7)
        critic = agent.critic
        critic.forward(batch.state, batch.action)
        critic.grad[:] = 0.0
        d_action = critic.action_grad(d_q)
        assert np.all(critic.grad == 0.0)  # parameter gradients are skipped
        d_head_in, _ = critic.head.backward(np.repeat(d_q, 3)[:, None])
        assert d_action.tobytes() == d_head_in[:, -1].reshape(7, 3).tobytes()

    def test_soft_update_matches_per_array_update(self):
        agent = tiny_agent(n=2, tau=0.005)
        rng = np.random.default_rng(22)
        agent.critic.flat += rng.normal(size=agent.critic.flat.size)
        expected = []
        for g, m in zip(agent.guiding_critic.params(), agent.critic.params()):
            g = g.copy()
            g *= 1.0 - 0.005
            g += 0.005 * m
            expected.append(g.ravel())
        agent.soft_update()
        assert agent.guiding_critic.flat.tobytes() == np.concatenate(expected).tobytes()


class TestActivationLifetime:
    """A forward cache lives only until the backward pass that reads it."""

    @staticmethod
    def _cached(agent):
        nets_ = {f"{name}.{part}": getattr(getattr(agent, name), part)
                 for name in ("actor", "critic", "guiding_critic")
                 for part in ("lb_enc", "srv_enc", "head")}
        return sorted(name for name, net in nets_.items() if net._cache is not None)

    @pytest.mark.parametrize("call", ["train_step", "critic_targets", "alpha_update", "_act"])
    @pytest.mark.parametrize("n", [2, 8])
    def test_no_cache_outlives_its_pass(self, n, call):
        agent = tiny_agent(n=n, hidden=8, seed=3)
        rng = np.random.default_rng(30)
        for _ in range(agent.config.batch_size):
            obs = rng.normal(size=agent.obs_dim)
            agent.normalizer.update(obs)
            agent.buffer.push(obs, rng.uniform(-0.9, 0.9, n), rng.normal(),
                              rng.normal(size=agent.obs_dim), False)
        batch = random_batch(agent, 5, rng)
        args = {"train_step": (), "critic_targets": (batch,), "alpha_update": (batch,),
                "_act": (rng.normal(size=agent.obs_dim),)}[call]
        assert self._cached(agent) == []
        getattr(agent, call)(*args)
        assert self._cached(agent) == []
        # a pass that a backward reads keeps its cache until released
        agent.critic_loss_grads(batch, np.zeros(5))
        assert self._cached(agent) == ["critic.head", "critic.lb_enc", "critic.srv_enc"]

    def test_head_input_matches_repeat_and_concatenate(self):
        agent = tiny_agent(n=3, hidden=8, seed=6)
        batch = random_batch(agent, 5, np.random.default_rng(31))
        critic = agent.critic
        head_in = critic._embed(batch.state, batch.action)
        e_lb = critic.lb_enc.forward(batch.state[:, :5])
        e_srv = critic.srv_enc.forward(batch.state[:, 5:].reshape(15, -1))
        expected = np.concatenate(
            [np.repeat(e_lb, 3, axis=0), e_srv, batch.action.reshape(15, 1)], axis=1)
        assert head_in.tobytes() == expected.tobytes()


class TestResume:
    TOPO = Topology(1, ((4, 8), (2, 4)))
    CONFIG = SacConfig(batch_size=8, buffer_capacity=24, hidden=8)

    def _run(self, tmp_path, resume_after=None, episodes=4):
        """Train over several episodes; optionally save after ``resume_after``
        episodes and continue in a fresh agent whose own streams differ."""
        agent = SacAgent(2, self.CONFIG, seed=4)
        policy = SacPolicy(agent).bind(np.random.default_rng(4))
        rewards = []
        for ep in range(episodes):
            if ep == resume_after:
                agent.save_checkpoint(tmp_path / "ck")
                agent = SacAgent(2, self.CONFIG, seed=99)
                agent.load_checkpoint(tmp_path / "ck")
                policy.agent = agent
            tasks = generate(TrafficSpec(0.9, "identical", 0.1, seed=4), self.TOPO, 8.0,
                             episode=ep)
            trace = run_episode(self.TOPO, [policy], tasks, 8.0)
            rewards.append([r for _, _, r in trace.rewards])
        return agent, rewards

    def test_save_load_continue_equals_uninterrupted(self, tmp_path):
        whole, r_whole = self._run(tmp_path)
        resumed, r_resumed = self._run(tmp_path, resume_after=2)
        assert resumed.buffer.size == 24  # the ring had wrapped at the save
        assert r_resumed == r_whole
        for attr in ("actor", "critic", "guiding_critic"):
            a = getattr(whole, attr).flat
            b = getattr(resumed, attr).flat
            assert a.tobytes() == b.tobytes(), attr
        assert whole.log_alpha.tobytes() == resumed.log_alpha.tobytes()
        for a, b in zip(whole.buffer.columns(), resumed.buffer.columns()):
            assert a.tobytes() == b.tobytes()  # actions, states and rewards
        assert whole.total_updates == resumed.total_updates > 0

    def test_load_then_save_is_byte_identical(self, tmp_path):
        agent, _ = self._run(tmp_path, episodes=2)
        agent.save_checkpoint(tmp_path / "a")
        clone = SacAgent(2, self.CONFIG, seed=1)
        clone.load_checkpoint(tmp_path / "a")
        clone.save_checkpoint(tmp_path / "b")
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["agent.ckpt"]
        assert (tmp_path / "a" / "agent.ckpt").read_bytes() == \
            (tmp_path / "b" / "agent.ckpt").read_bytes()

    def test_capacity_mismatch_rejected(self, tmp_path):
        agent, _ = self._run(tmp_path, episodes=1)
        agent.save_checkpoint(tmp_path / "ck")
        other = SacAgent(2, SacConfig(batch_size=8, buffer_capacity=25, hidden=8), seed=1)
        with pytest.raises(ValueError):
            other.load_checkpoint(tmp_path / "ck")

    def _feed(self, view, k):
        """One arrival and one completion at boundary time 0.5 k (k >= 1)."""
        now = 0.5 * k
        view.record_arrival(now)
        j = k % view.n
        view.ongoing[j] += 1
        record_completion(view, completed_task(j, now - 0.2 - 0.1 * j, now - 0.1, now), now)
        return now

    def test_mid_episode_save_resumes_bit_for_bit(self, tmp_path):
        agent = SacAgent(2, self.CONFIG, seed=4)
        view = fresh_view(2)
        for k in range(1, 13):
            agent.step(view, self._feed(view, k))
        assert agent.total_updates > 0 and agent.prev_obs is not None
        agent.save_checkpoint(tmp_path / "ck")
        clone = SacAgent(2, self.CONFIG, seed=99)
        clone.load_checkpoint(tmp_path / "ck")
        for k in range(13, 16):
            now = self._feed(view, k)
            assert agent.step(view, now) == clone.step(view, now)
        for a, b in zip(agent.buffer.columns(), clone.buffer.columns()):
            assert a.tobytes() == b.tobytes()
        for attr in ("actor", "critic", "guiding_critic"):
            assert getattr(agent, attr).flat.tobytes() == \
                getattr(clone, attr).flat.tobytes(), attr

    def _diverged(self, tmp_path):
        """Diverge at the first update (8 transitions); load the dump into a clone."""
        agent = SacAgent(2, self.CONFIG, seed=4)
        agent.dump_dir = str(tmp_path)
        view = fresh_view(2)
        for k in range(1, 9):
            agent.step(view, self._feed(view, k))
        agent.critic.flat[:] = np.nan
        with pytest.raises(nets.DivergenceError):
            agent.step(view, self._feed(view, 9))
        clone = SacAgent(2, self.CONFIG, seed=1)
        clone.load_checkpoint(tmp_path / "diverged")
        return agent, view, clone

    def test_divergence_dump_loads(self, tmp_path):
        agent, _, clone = self._diverged(tmp_path)
        assert clone.buffer.size == agent.buffer.size == 8
        # the 8th transition is stored, so nothing is pending any more
        assert clone.prev_obs is None and agent.prev_obs is None
        assert np.isnan(clone.critic.flat).all()

    def test_divergence_dump_resumes_without_a_second_copy(self, tmp_path):
        _, view, clone = self._diverged(tmp_path)
        clone.critic.flat[:] = clone.guiding_critic.flat  # finite again
        clone.step(view, self._feed(view, 10))
        buf = clone.buffer
        rows = {(buf.state[i].tobytes(), buf.action[i].tobytes()) for i in range(buf.size)}
        assert len(rows) == buf.size == 8
        assert clone.total_updates == 1


class TestCheckpointFile:
    CONFIG = SacConfig(batch_size=4, buffer_capacity=16, hidden=8)

    def _saved(self, tmp_path):
        agent = SacAgent(2, self.CONFIG, seed=3)
        view = fresh_view(2)
        for k in range(6):
            view.record_arrival(0.5 * k)
            agent.step(view, 0.5 * k)
        agent.save_checkpoint(tmp_path)
        return tmp_path / "agent.ckpt"

    def _rejected(self, path):
        with pytest.raises(ValueError):
            SacAgent(2, self.CONFIG, seed=1).load_checkpoint(path.parent)

    def test_replay_index_beyond_capacity_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        header_len = int(np.frombuffer(data[8:12], dtype="<u4")[0])
        header = json.loads(data[12:12 + header_len])
        header["replay"]["idx"] = header["replay"]["capacity"]
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(data[:8] + np.array([len(blob)], dtype="<u4").tobytes() + blob
                         + data[12 + header_len:])
        self._rejected(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        self._rejected(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + np.array([2], dtype="<u4").tobytes() + data[8:])
        self._rejected(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        self._rejected(path)
