import math
import sys

import numpy as np
import pytest

from lbsim import metrics, traffic
from lbsim.engine import (
    ChannelLog,
    ConfigurationError,
    LocalView,
    ServerState,
    SimulationError,
    Task,
    Topology,
    advance_server,
    run_episode,
    server_speed,
)
from lbsim.policies import EcmpPolicy, LsqPolicy, SedPolicy

import psoracle

TOPO_2S = Topology(1, ((4, 8), (2, 4)))


def make_policy(cls=SedPolicy, topo=TOPO_2S, lb=0, seed=0):
    return cls().bind(np.random.default_rng(seed))


def loaded_server(workloads, p=4, p_hat=8):
    """A server at time 0 holding tasks of these workloads, placed as the
    engine admits arrivals: into service while a slot is free, else the backlog."""
    server = ServerState(0, p, p_hat)
    for i, w in enumerate(workloads):
        task = Task(i, w, 0.0)
        if len(server.in_service) < p_hat:
            server.in_service.append(task)
        else:
            server.backlog.append(task)
            server.backlog_work += w
    server.speed = server.speeds[len(server.in_service)]
    return server


def one_server_episode(tasks, duration, p=4, p_hat=8):
    topo = Topology(1, ((p, p_hat),))
    return run_episode(topo, [make_policy(LsqPolicy, topo)], tasks, duration=duration)


class TestServerSpeed:
    def test_below_processor_count(self):
        assert server_speed(3, 4, 8) == 1.0

    def test_shared_between_cap_and_count(self):
        assert abs(server_speed(6, 4, 8) - 4 / 6) < 1e-15

    def test_capped_at_p_hat(self):
        assert server_speed(10, 4, 8) == 0.5

    def test_boundary_exactly_p(self):
        assert server_speed(4, 4, 8) == 1.0

    def test_table_matches_formula_at_every_count(self):
        # a backlog forms only with all p_hat slots busy, and the speed past
        # p_hat ongoing equals the speed at p_hat
        for p, p_hat in ((1, 1), (2, 4), (4, 8), (3, 3)):
            server = ServerState(0, p, p_hat)
            assert server.speeds == [server_speed(k, p, p_hat) for k in range(p_hat + 1)]
            assert all(server_speed(k, p, p_hat) == server.speeds[p_hat]
                       for k in range(p_hat, 3 * p_hat))

    def test_invalid_parameters(self):
        # the speed parameters are checked once, when the server is built
        with pytest.raises(ConfigurationError):
            ServerState(0, 4, 2)
        with pytest.raises(ConfigurationError):
            ServerState(0, 0, 0)


class TestAdvanceServer:
    def test_single_task_full_speed(self):
        server = loaded_server([0.3])
        advance_server(server, 0.1)
        assert abs(server.in_service[0].remaining_work - 0.2) < 1e-15

    def test_shared_speed(self):
        server = loaded_server([0.6] * 6)
        advance_server(server, 0.3)
        for task in server.in_service:
            assert abs(task.remaining_work - 0.4) < 1e-15

    def test_zero_dt_identity(self):
        server = loaded_server([0.5, 0.2])
        before = [t.remaining_work for t in server.in_service]
        advance_server(server, 0.0)
        assert [t.remaining_work for t in server.in_service] == before

    def test_backlogged_tasks_do_not_progress(self):
        server = loaded_server([1.0] * 10, p=4, p_hat=8)
        advance_server(server, 0.5)
        assert all(t.remaining_work == 1.0 for t in server.backlog)
        # 10 ongoing -> speed 0.5 for the 8 in service
        assert all(abs(t.remaining_work - 0.75) < 1e-15 for t in server.in_service)

    def test_drain_returns_residual(self):
        # the backlog's work plus the drained remaining work, added in list order
        server = loaded_server([0.5, 0.2, 0.9, 0.2])
        expected = 0.0 + (0.5 - 0.1) + (0.2 - 0.1) + (0.9 - 0.1) + (0.2 - 0.1)
        assert advance_server(server, 0.1) == expected
        assert [t.remaining_work for t in server.in_service] == \
            [0.5 - 0.1, 0.2 - 0.1, 0.9 - 0.1, 0.2 - 0.1]
        server = loaded_server([0.5, 0.3])
        assert advance_server(server, 0.4) == 0.0 + (0.5 - 0.4) + 0.0  # clamped at zero
        server = loaded_server([1.0] * 10)
        assert advance_server(server, 0.5) == 2.0 + 8 * 0.75
        assert advance_server(ServerState(1, 4, 8), 1.0) == 0.0

    def test_idle_server_never_completes(self):
        # an idle server's completion time is inf: were it finite, the loop
        # would try to complete a task on an empty server
        trace = one_server_episode([], duration=3.0)
        assert trace.completed == 0
        trace = one_server_episode([Task(0, 0.3, 0.0)], duration=3.0)
        assert trace.completed == 1
        assert trace.tasks[0].completion_time == 0.3
        server = trace.servers[0]
        assert server.in_service == [] and server.speed == 1.0

    def test_negative_dt_rejected(self):
        server = loaded_server([0.5])
        advance_server(server, 1.0)
        with pytest.raises(SimulationError):
            advance_server(server, 0.5)

    def test_work_monotonicity(self):
        server = loaded_server([0.9] * 5)
        last = [t.remaining_work for t in server.in_service]
        for step in range(1, 40):
            advance_server(server, step * 0.01)
            now = [t.remaining_work for t in server.in_service]
            assert all(a <= b for a, b in zip(now, last))
            assert all(r >= 0.0 for r in now)
            last = now


class TestDispatch:
    def test_empty_server_starts_immediately(self):
        task = Task(0, 0.5, 0.0)
        trace = one_server_episode([task], duration=0.25)
        assert trace.servers[0].in_service == [task]
        assert task.server_id == 0
        assert task.dispatch_time == task.service_start_time == 0.0

    def test_full_cap_goes_to_backlog(self):
        tasks = [Task(i, 0.5, 0.0) for i in range(9)]
        trace = one_server_episode(tasks, duration=0.25)
        server, overflow = trace.servers[0], tasks[8]
        assert server.in_service == tasks[:8]
        assert list(server.backlog) == [overflow]
        assert server.backlog_work == 0.5
        assert overflow.dispatch_time == 0.0
        assert overflow.service_start_time is None

    def test_double_dispatch_rejected(self):
        task = Task(0, 0.5, 0.0)
        with pytest.raises(SimulationError, match="already dispatched"):
            one_server_episode([task, task], duration=1.0)

    def test_fifo_promotion_through_engine(self):
        # one slot (p_hat=1): three equal tasks must start in dispatch order
        topo = Topology(1, ((1, 1),))
        tasks = [Task(i, 0.2, 0.0 + i * 1e-3) for i in range(3)]
        trace = run_episode(topo, [make_policy(LsqPolicy, topo)], tasks, duration=2.0)
        starts = [t.service_start_time for t in trace.tasks]
        assert starts == sorted(starts)
        assert all(t.completion_time is not None for t in trace.tasks)


class TestResidualWorkload:
    # advance_server returns the residual; a zero-length drain reads it as is
    def test_empty_server(self):
        assert advance_server(ServerState(0, 4, 8), 0.0) == 0.0

    def test_sum_of_remaining(self):
        server = loaded_server([0.2, 0.5])
        assert abs(advance_server(server, 0.0) - 0.7) < 1e-15

    def test_independent_of_processor_count(self):
        # ten tasks of 0.1 each on a 4-processor server: unit-speed remaining
        # work is 1.0 regardless of p
        server = loaded_server([0.1] * 10)
        assert abs(advance_server(server, 0.0) - 1.0) < 1e-15


class TestTask:
    @pytest.mark.parametrize("workload", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_bad_workload_rejected(self, workload):
        with pytest.raises(ConfigurationError, match="workload"):
            Task(0, workload, 0.0)

    @pytest.mark.parametrize("arrival_time", [math.nan, math.inf, -math.inf])
    def test_nonfinite_arrival_time_rejected(self, arrival_time):
        with pytest.raises(ConfigurationError, match="arrival time"):
            Task(0, 0.1, arrival_time)


class TestRunEpisode:
    def test_single_task_completion_time(self):
        tasks = [Task(0, 0.3, 0.0)]
        trace = run_episode(TOPO_2S, [make_policy()], tasks, duration=1.0)
        assert abs(trace.tasks[0].completion_time - 0.3) < 1e-12

    def test_boundary_count_excludes_duration(self):
        trace = run_episode(TOPO_2S, [make_policy()], [], duration=60.0,
                            step_interval=0.5)
        assert trace.boundaries_per_lb == [120]

    def test_boundary_grid_does_not_drift(self):
        # summing 0.1 a hundred times lands below 10, which would add a
        # 101st boundary; the grid is k * step_interval
        trace = run_episode(TOPO_2S, [make_policy()], [], duration=10.0,
                            step_interval=0.1)
        assert trace.boundaries_per_lb == [100]
        times = sorted({t for t, _, _ in trace.rewards})
        assert times == [k * 0.1 for k in range(100)]

    def test_boundary_fires_before_arrival_at_equal_time(self):
        # the t=1.0 arrival follows an empty interval; the t=1.0 boundary
        # still sees the state before it
        seen = []

        class Spy(SedPolicy):
            def on_step(self, view, now):
                seen.append((now, sum(view.ongoing)))
                return None

        tasks = [Task(0, 0.1, 0.0), Task(1, 0.1, 1.0)]
        trace = run_episode(TOPO_2S, [make_policy(Spy)], tasks, duration=2.0,
                            step_interval=0.5)
        assert seen == [(0.0, 0), (0.5, 0), (1.0, 0), (1.5, 0)]
        assert trace.completed == 2

    def test_baseline_view_feeds_only_the_reward_channels(self):
        views = []

        class Spy(SedPolicy):
            def on_step(self, view, now):
                views.append(view)
                return None

        tasks = [Task(i, 0.1, 0.2 * i) for i in range(10)]
        run_episode(TOPO_2S, [make_policy(Spy)], tasks, duration=3.0)
        view = views[-1]
        assert view.interarrival.count == 0
        assert all(ch.count == 0 for ch in view.durations)
        assert sum(ch.count for ch in view.tcts) == 10

    def test_zero_arrivals_zero_residuals(self):
        trace = run_episode(TOPO_2S, [make_policy()], [], duration=10.0)
        assert all(r == 0.0 for resid in trace.residuals_per_boundary for r in resid)
        assert all(f == 1.0 for f in trace.fairness_per_boundary)  # fairness convention

    def test_conservation_mid_flight(self):
        rng = np.random.default_rng(2)
        tasks = [Task(i, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 4.5)))
                 for i in range(300)]
        tasks.sort(key=lambda t: t.arrival_time)
        for i, t in enumerate(tasks):
            t.id = i
        trace = run_episode(TOPO_2S, [make_policy(EcmpPolicy)], tasks, duration=5.0)
        in_service = sum(len(s.in_service) for s in trace.servers)
        backlogged = sum(len(s.backlog) for s in trace.servers)
        assert trace.completed + in_service + backlogged == len(tasks)

    def test_determinism_bitwise_rows(self):
        rows = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            tasks = [Task(i, 0.1, float(rng.uniform(0, 9.5))) for i in range(400)]
            tasks.sort(key=lambda t: t.arrival_time)
            trace = run_episode(TOPO_2S, [make_policy(EcmpPolicy, seed=3)], tasks,
                                duration=10.0)
            rows.append((trace.rewards, trace.ongoing_per_step,
                         trace.residuals_per_boundary, trace.fairness_per_boundary))
        assert rows[0] == rows[1]

    def test_one_policy_per_lb_enforced(self):
        with pytest.raises(ConfigurationError):
            run_episode(TOPO_2S, [], [], duration=1.0)

    def test_multi_lb_needs_routing_rng(self):
        topo = Topology(2, ((4, 8), (2, 4)))
        with pytest.raises(ConfigurationError):
            run_episode(topo, [make_policy(), make_policy()], [], duration=1.0)

    def test_multi_lb_views_are_local(self):
        topo = Topology(2, ((2, 4), (2, 4)))
        rng = np.random.default_rng(0)
        tasks = [Task(i, 0.2, 0.05 * i) for i in range(100)]
        p0, p1 = make_policy(LsqPolicy, topo, 0, 1), make_policy(LsqPolicy, topo, 1, 2)
        seen = {}

        class Spy(LsqPolicy):
            name = "spy"

            def on_step(self, view, now):
                seen.setdefault(view.lb_id, view)
                return None

        s0, s1 = Spy().bind(np.random.default_rng(1)), \
            Spy().bind(np.random.default_rng(2))
        run_episode(topo, [s0, s1], tasks, duration=6.0,
                    routing_rng=np.random.default_rng(9))
        total = sum(t.lb_id == 0 for t in tasks)
        assert 0 < total < len(tasks)  # both LBs saw traffic
        assert seen[0] is not seen[1]

    def test_routing_equals_scalar_draws(self):
        # the episode's routes, drawn as one array, are the draws one scalar
        # integers(lbs) call per arrival would give
        topo = Topology(2, ((2, 4), (2, 4)))
        tasks = [Task(i, 0.1, 0.01 * i) for i in range(500)]
        policies = [make_policy(LsqPolicy, topo, lb, lb) for lb in range(2)]
        run_episode(topo, policies, tasks, duration=6.0,
                    routing_rng=traffic.routing_stream(4, 1))
        scalar = traffic.routing_stream(4, 1)
        assert [t.lb_id for t in tasks] == [int(scalar.integers(2)) for _ in tasks]

    def test_tied_completions_in_admission_order(self):
        # both tasks have 0.5 s left at t = 0.25 and finish together at 0.75;
        # the first one admitted completes first
        completed = []

        class Collecting(LsqPolicy):
            wants_observations = True

            def on_episode_end(self, view, now):
                completed.extend(view.tcts[0].values)

        topo = Topology(1, ((4, 8),))
        tasks = [Task(0, 0.75, 0.0), Task(1, 0.5, 0.25)]
        trace = run_episode(topo, [make_policy(Collecting, topo)], tasks, duration=1.0)
        assert [t.completion_time for t in tasks] == [0.75, 0.75]
        assert completed == [0.75, 0.5]
        assert trace.completed == 2

    def test_negative_first_arrival_rejected(self):
        with pytest.raises(ConfigurationError, match="arrival times must be >= 0"):
            one_server_episode([Task(0, 0.1, -1.0)], duration=1.0)

    def test_unsorted_arrivals_rejected(self):
        tasks = [Task(0, 0.1, 0.7), Task(1, 0.1, 0.6)]
        with pytest.raises(ConfigurationError, match="arrivals must be sorted"):
            one_server_episode(tasks, duration=1.0)
        # equal times are in order
        trace = one_server_episode([Task(0, 0.1, 0.7), Task(1, 0.1, 0.7)], duration=1.0)
        assert trace.completed == 2

    def test_backlog_blocks_when_cap_reached(self):
        # p=1, p_hat=2: third concurrent task must wait in the backlog
        topo = Topology(1, ((1, 2),))
        tasks = [Task(i, 1.0, 0.0 + i * 1e-3) for i in range(3)]
        trace = run_episode(topo, [make_policy(LsqPolicy, topo)], tasks, duration=10.0)
        t3 = trace.tasks[2]
        assert t3.service_start_time > t3.dispatch_time


class TestProcessorSharingOracle:
    def test_engine_matches_fixed_step_integrator(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(25):
            servers, triples = psoracle.random_scenario(rng)
            trace = psoracle.run_engine_on_scenario(servers, triples)
            expected = psoracle.integrate(servers, triples)
            for task, ref in zip(trace.tasks, expected):
                assert task.completion_time is not None
                err = abs(task.completion_time - ref)
                worst = max(worst, err)
        assert worst < 1e-3

    def test_fifo_order_on_scenarios(self):
        rng = np.random.default_rng(321)
        for _ in range(10):
            servers, triples = psoracle.random_scenario(rng)
            trace = psoracle.run_engine_on_scenario(servers, triples)
            per_server = {}
            for task in trace.tasks:
                if task.service_start_time > task.dispatch_time:  # was backlogged
                    per_server.setdefault(task.server_id, []).append(task)
            for queued in per_server.values():
                queued.sort(key=lambda t: t.dispatch_time)
                starts = [t.service_start_time for t in queued]
                assert starts == sorted(starts)

    def test_non_idling_within_cap(self):
        # whenever the backlog is nonempty the in-service set is full
        topo = Topology(1, ((2, 3),))

        class Probe(LsqPolicy):
            name = "probe"
            seen_violation = False

        probe = Probe().bind(np.random.default_rng(0))
        rng = np.random.default_rng(11)
        tasks = [Task(i, float(rng.exponential(0.5) + 0.05), float(rng.uniform(0, 3)))
                 for i in range(60)]
        tasks.sort(key=lambda t: t.arrival_time)
        for i, t in enumerate(tasks):
            t.id = i
        trace = run_episode(topo, [probe], tasks, duration=40.0, step_interval=0.05)
        server = trace.servers[0]
        # final state check plus: every backlogged task implies cap usage at
        # its dispatch (service_start strictly later than dispatch)
        for task in trace.tasks:
            if task.service_start_time and task.service_start_time > task.dispatch_time:
                assert task.dispatch_time is not None
        if server.backlog:
            assert len(server.in_service) == server.p_hat


class TestChannelLog:
    @staticmethod
    def _growth_points(limit):
        """The sample counts at which a channel's value storage reallocates."""
        log = ChannelLog(True)
        points, size = [], sys.getsizeof(log.values)
        for k in range(1, limit + 1):
            log.add(0.0, 0.0)
            if sys.getsizeof(log.values) != size:
                points.append(k)
                size = sys.getsizeof(log.values)
        return points

    def test_stats_bit_equal_to_reduce(self):
        points = self._growth_points(4000)
        assert len(points) > 10
        sizes = {1, 2, 4000} | {k + d for k in points for d in (-1, 0, 1)}
        rng = np.random.default_rng(5)
        log = ChannelLog(True)
        pairs = []
        now = 0.0
        for k in range(1, max(sizes) + 1):
            now += float(rng.exponential(0.01))
            value = float(rng.exponential(0.3))
            log.add(value, now)
            pairs.append((value, now))
            if k in sizes:
                at = now + 0.25
                got, want = log.stats(at), metrics.reduce(pairs, at)
                assert np.array(got).tobytes() == np.array(want).tobytes(), k

    def test_non_collecting_view_stores_no_samples(self):
        views = []

        class Alternate(LsqPolicy):
            turn = 0

            def select(self, ctx):
                self.turn += 1
                return self.turn % 2

            def on_episode_end(self, view, now):
                views.append(view)

        tasks = [Task(k, 0.1, 0.5 * k) for k in range(5)]
        run_episode(TOPO_2S, [make_policy(Alternate)], tasks, duration=3.0)
        (view,) = views
        channels = [view.interarrival, *view.durations, *view.tcts]
        assert all(len(ch.values) == len(ch.times) == 0 for ch in channels)
        assert view.interarrival.count == 0
        assert [ch.count for ch in view.tcts] == [2, 3]
        for ch in view.tcts:
            with pytest.raises(SimulationError):
                ch.stats(3.0)
