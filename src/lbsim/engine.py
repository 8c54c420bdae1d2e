"""Event-driven simulator for heterogeneous blocked processor-sharing servers.

A server with p processors and concurrency cap p_hat serves up to p_hat
tasks at once; each in-service task progresses at speed 1 when the ongoing
count is <= p and at p / min(p_hat, count) otherwise, and overflow waits in
a FIFO backlog at speed zero.  The shared speed preserves the order of
remaining work, so each server has a single pending completion: the time
its least-remaining task finishes.  The server caches its speed (from a
table built once), and both are recomputed only when its membership changes;
one pass drains the server and finds the least remaining work.  The event
loop merges three sources: the time-sorted arrivals, a step-boundary grid
shared by all LBs, and those per-server completion times.

Each load balancer observes only its own arrivals, dispatches and
completions through a LocalView; policies never see another LB's state.
"""
from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from . import metrics
from .policies import Policy, PolicyContext


class ConfigurationError(ValueError):
    """Invalid topology, parameters, or policy wiring."""


class SimulationError(RuntimeError):
    """Internal invariant violation inside the event engine."""


@dataclass(slots=True, eq=False)
class Task:
    """One unit of work, ``workload`` single-processor seconds; equal only to itself."""

    id: int
    workload: float
    arrival_time: float
    lb_id: int = -1
    server_id: Optional[int] = None
    dispatch_time: Optional[float] = None
    service_start_time: Optional[float] = None
    completion_time: Optional[float] = None
    remaining_work: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.workload < math.inf:
            raise ConfigurationError(f"task workload must be finite and > 0, got {self.workload}")
        if not -math.inf < self.arrival_time < math.inf:
            raise ConfigurationError(f"task arrival time must be finite, got {self.arrival_time}")
        self.remaining_work = self.workload


class ServerState:
    """Mutable server: in-service tasks, FIFO backlog, lazy clock, cached speed."""

    __slots__ = ("id", "p", "p_hat", "in_service", "backlog", "backlog_work",
                 "last_update_time", "speed", "speeds")

    def __init__(self, server_id: int, p: int, p_hat: int):
        if p < 1:
            raise ConfigurationError(f"server {server_id}: p must be >= 1, got {p}")
        if p_hat < p:
            raise ConfigurationError(f"server {server_id}: p_hat {p_hat} < p {p}")
        self.id = server_id
        self.p = p
        self.p_hat = p_hat
        self.in_service: list[Task] = []
        self.backlog: deque[Task] = deque()
        self.backlog_work = 0.0
        self.last_update_time = 0.0
        self.speed = 1.0
        # by in-service count: a backlog forms only when all p_hat slots are
        # busy, and past p_hat ongoing tasks the speed no longer changes
        self.speeds = [server_speed(k, p, p_hat) for k in range(p_hat + 1)]


@dataclass(frozen=True)
class Topology:
    """Cluster shape: LB count and per-server (p, p_hat) pairs."""

    lbs: int
    servers: tuple

    def __post_init__(self):
        if self.lbs < 1:
            raise ConfigurationError(f"need at least one LB, got {self.lbs}")
        if not self.servers:
            raise ConfigurationError("need at least one server")
        for j, (p, p_hat) in enumerate(self.servers):
            if p < 1 or p_hat < p:
                raise ConfigurationError(f"server {j}: invalid (p={p}, p_hat={p_hat})")

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def processor_counts(self) -> list:
        return [p for p, _ in self.servers]


def server_speed(count: int, p: int, p_hat: int) -> float:
    """Per-task speed of a server with ``count`` ongoing tasks.

    1 when count <= p, else p / min(p_hat, count).  In-service tasks all
    share this speed; backlogged tasks progress at speed zero.  ``ServerState``
    and ``Topology`` check p >= 1 and p_hat >= p once, so this does not.
    """
    if count <= p:
        return 1.0
    return p / (p_hat if count > p_hat else count)


def advance_server(server: ServerState, to_time: float) -> float:
    """Advance the server clock, draining in-service work at the cached speed.

    Valid only while membership is unchanged since the speed was refreshed,
    which the engine ensures.  Returns the residual workload in
    single-processor seconds: the backlog's work plus each in-service task's
    remaining work, summed in list order.
    """
    dt = to_time - server.last_update_time
    if dt < 0:
        raise SimulationError(f"server {server.id}: time moved backwards by {-dt}")
    server.last_update_time = to_time
    dec = server.speed * dt
    total = server.backlog_work
    for task in server.in_service:
        r = task.remaining_work - dec
        task.remaining_work = r = r if r > 0.0 else 0.0
        total += r
    return total


class ChannelLog:
    """Timed sample channel with O(1) discounted-sum accumulators.

    When ``collect`` is set, the samples are kept in contiguous float64
    arrays (needed for the percentile/std reductions used by observation
    building), which ``stats`` reduces through zero-copy views made per
    call; a view must not outlive the call, because an array that exports
    its buffer cannot grow.  The discounted accumulators are always
    maintained for reward computation.
    """

    __slots__ = ("collect", "values", "times", "count", "_dsum", "_last_t")

    def __init__(self, collect: bool):
        self.collect = collect
        self.values = array("d")
        self.times = array("d")
        self.count = 0
        self._dsum = 0.0
        self._last_t = 0.0

    def add(self, value: float, now: float) -> None:
        if self.collect:
            self.values.append(value)
            self.times.append(now)
        if self.count:
            decay = metrics.DISCOUNT_BASE ** (now - self._last_t)
            self._dsum = self._dsum * decay + value
        else:
            self._dsum = value
        self._last_t = now
        self.count += 1

    def discounted_average(self, now: float) -> float:
        if not self.count:
            return 0.0
        return self._dsum * metrics.DISCOUNT_BASE ** (now - self._last_t) / self.count

    def stats(self, now: float) -> metrics.ChannelStats:
        if not self.count:
            return metrics.ChannelStats()
        if not self.collect:
            raise SimulationError("channel was not collecting samples")
        return metrics.reduce_arrays(np.frombuffer(self.values), np.frombuffer(self.times), now)


class LocalView:
    """Everything one LB can see: its arrivals, ongoing counts, completions.

    The inter-arrival and duration channels feed observations only, so a
    view that does not ``collect`` leaves them empty; the TCT channels
    always run, because their discounted averages give the reward.
    """

    __slots__ = ("lb_id", "n", "collect", "reward_fn", "ongoing", "last_arrival_time",
                 "interarrival", "durations", "tcts")

    def __init__(self, lb_id: int, n_servers: int, collect: bool,
                 reward_fn: Callable = metrics.reward):
        self.lb_id = lb_id
        self.n = n_servers
        self.collect = collect
        self.reward_fn = reward_fn
        self.ongoing = [0] * n_servers
        self.last_arrival_time: Optional[float] = None
        self.interarrival = ChannelLog(collect)
        self.durations = [ChannelLog(collect) for _ in range(n_servers)]
        self.tcts = [ChannelLog(collect) for _ in range(n_servers)]

    def record_arrival(self, now: float) -> None:
        """Log the inter-arrival gap; the engine calls this for collecting views only."""
        if self.last_arrival_time is not None:
            self.interarrival.add(now - self.last_arrival_time, now)
        self.last_arrival_time = now

    def reward(self, now: float) -> float:
        """The LB's reward: ``reward_fn`` of the per-server discounted TCTs."""
        return self.reward_fn([ch.discounted_average(now) for ch in self.tcts])


@dataclass
class EpisodeTrace:
    """Per-boundary metrics plus every task touched by the episode."""

    tasks: list
    servers: list
    boundaries_per_lb: list
    completed: int
    fairness_per_boundary: list      # one value per boundary time
    residuals_per_boundary: list     # one list (per server) per boundary time
    rewards: list                    # (time, lb_id, reward), one per (boundary, lb)
    ongoing_per_step: list           # the LB's ongoing counts, aligned with rewards


def run_episode(
    topology: Topology,
    policies: Sequence[Policy],
    arrivals: Sequence[Task],
    duration: float,
    step_interval: float = 0.5,
    routing_rng: Optional[np.random.Generator] = None,
    reward_fn: Callable = metrics.reward,
) -> EpisodeTrace:
    """Run one episode and return its trace.

    The clock jumps to the earliest of three event sources until that
    reaches ``duration``: the next arrival, the next step boundary
    k * step_interval, and each server's pending completion.  At equal
    times the boundary fires first, then completions, lowest server id
    first, then the arrival.  At a boundary every LB steps, in LB order;
    the boundary at exactly ``duration`` is excluded.  With several LBs,
    each arrival is routed to one of them uniformly at random from
    ``routing_rng``, drawn for the whole episode at once.  Arrivals must be
    sorted by time and start at t >= 0, or ConfigurationError is raised.
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if step_interval <= 0:
        raise ConfigurationError(f"step interval must be positive, got {step_interval}")
    if len(policies) != topology.lbs:
        raise ConfigurationError(
            f"need one policy per LB: {topology.lbs} LBs, {len(policies)} policies")
    if topology.lbs > 1 and routing_rng is None:
        raise ConfigurationError("multi-LB topologies need a routing rng")

    n = topology.n_servers
    lbs = topology.lbs
    servers = [ServerState(j, p, p_hat) for j, (p, p_hat) in enumerate(topology.servers)]
    views = [LocalView(i, n, policies[i].wants_observations, reward_fn) for i in range(lbs)]
    ctxs = [PolicyContext(ongoing=views[i].ongoing,
                          weights=list(policies[i].initial_weights(topology)),
                          rng=policies[i].rng)
            for i in range(lbs)]

    fairness_per_boundary: list = []
    residuals_per_boundary: list = []
    rewards: list = []
    ongoing_per_step: list = []
    completed = 0
    # one array draw per episode: the same stream as one scalar draw per arrival
    routes = iter(routing_rng.integers(lbs, size=len(arrivals)).tolist() if lbs > 1
                  else repeat(0))
    # bound once per episode: a select patched onto the class beforehand still runs
    selects = [policy.select for policy in policies]

    inf = math.inf
    done_at = [inf] * n
    next_index = 0
    next_arrival = arrivals[0].arrival_time if arrivals else inf
    if next_arrival < 0:
        raise ConfigurationError(f"arrival times must be >= 0, got {next_arrival}")
    k = 0
    boundary = 0.0

    while True:
        soonest = min(done_at)
        now = soonest if soonest <= next_arrival else next_arrival
        if boundary <= now:
            now = boundary
        if now >= duration:
            break
        if now == boundary:
            # per processor: the time a fully busy server needs to drain its work
            resid = [advance_server(server, now) / server.p for server in servers]
            residuals_per_boundary.append(resid)
            fairness_per_boundary.append(metrics.jain(resid))
            for lb in range(lbs):
                view = views[lb]
                new_weights = policies[lb].on_step(view, now)
                if new_weights is not None:
                    ctxs[lb].weights = new_weights
                rewards.append((now, lb, view.reward(now)))
                ongoing_per_step.append(tuple(view.ongoing))
            k += 1
            # k * step_interval, not boundary + step_interval: repeated addition
            # drifts, e.g. 0.1 s steps over 10 s would add a 101st boundary
            boundary = k * step_interval
            continue

        if now == soonest:
            sid = done_at.index(now)
            task = None
        else:
            task = arrivals[next_index]
            lb = task.lb_id = next(routes)
            next_index += 1
            next_arrival = (arrivals[next_index].arrival_time
                            if next_index < len(arrivals) else inf)
            if next_arrival < now:
                raise ConfigurationError(f"arrivals must be sorted: {next_arrival} follows {now}")
            view = views[lb]
            if view.collect:
                view.record_arrival(now)
            sid = selects[lb](ctxs[lb])
            if not 0 <= sid < n:
                raise ConfigurationError(f"policy {policies[lb].name} chose server {sid}")
            if task.dispatch_time is not None:
                raise SimulationError(f"task {task.id} already dispatched")
            view.ongoing[sid] += 1

        # advance_server's drain, written out with a search for the least and
        # second-least remaining work: calling a helper here kept only about
        # half of the per-event saving, and boundaries stay on advance_server
        # because draining them through this block ran Table-1 cells 8% slower
        server = servers[sid]
        dt = now - server.last_update_time
        if dt < 0:
            raise SimulationError(f"server {sid}: time moved backwards by {-dt}")
        server.last_update_time = now
        dec = server.speed * dt
        first = None
        least = second = inf
        in_service = server.in_service
        for t in in_service:
            r = t.remaining_work - dec
            t.remaining_work = r = r if r > 0.0 else 0.0
            if r < second:
                if r < least:
                    first, least, second = t, r, least
                else:
                    second = r
        if task is None:
            in_service.remove(first)
            first.remaining_work = 0.0
            first.completion_time = now
            least = second
            if server.backlog:
                promoted = server.backlog.popleft()
                # exact zero when the queue drains, so float dust cannot
                # leave a negative accumulated backlog
                server.backlog_work = (server.backlog_work - promoted.workload
                                       if server.backlog else 0.0)
                promoted.service_start_time = now
                in_service.append(promoted)
                if promoted.remaining_work < least:
                    least = promoted.remaining_work
            view = views[first.lb_id]
            view.ongoing[sid] -= 1
            if view.collect:
                view.durations[sid].add(now - first.service_start_time, now)
            view.tcts[sid].add(now - first.arrival_time, now)
            completed += 1
        else:
            task.server_id = sid
            task.dispatch_time = now
            if len(in_service) < server.p_hat:
                task.service_start_time = now
                in_service.append(task)
                if task.remaining_work < least:
                    least = task.remaining_work
            else:
                server.backlog.append(task)
                server.backlog_work += task.workload
        speed = server.speed = server.speeds[len(in_service)]
        done_at[sid] = now + least / speed

    for server in servers:
        advance_server(server, duration)
    for lb in range(lbs):
        policies[lb].on_episode_end(views[lb], duration)

    return EpisodeTrace(
        tasks=list(arrivals),
        servers=servers,
        boundaries_per_lb=[k] * lbs,
        completed=completed,
        fairness_per_boundary=fairness_per_boundary,
        residuals_per_boundary=residuals_per_boundary,
        rewards=rewards,
        ongoing_per_step=ongoing_per_step,
    )
