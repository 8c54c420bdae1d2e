"""Independent fixed-step integrator of the blocked processor-sharing law.

Used as the oracle for event-engine completion times: speeds are held
constant within each dt step, in-service work is drained linearly, and
completions/promotions happen at step edges.  Deliberately simple and
separate from the engine's event-driven realization.
"""
from collections import deque

import numpy as np

from lbsim.engine import Task, Topology
from lbsim.policies import Policy

DT = 1e-4


def integrate(servers, tasks, dt=DT):
    """Completion times for (arrival, workload, server) triples.

    ``servers`` is a list of (p, p_hat); arrival times must sit on the dt
    grid so dispatch instants match the event engine exactly.
    """
    n = len(servers)
    total = len(tasks)
    remaining = [w for _, w, _ in tasks]
    completion = [None] * total
    in_service = [[] for _ in range(n)]
    backlog = [deque() for _ in range(n)]
    order = sorted(range(total), key=lambda i: tasks[i][0])
    ptr = 0
    done = 0
    step = 0
    while done < total:
        t = step * dt
        while ptr < total and tasks[order[ptr]][0] <= t + 1e-12:
            i = order[ptr]
            j = tasks[i][2]
            if len(in_service[j]) < servers[j][1]:
                in_service[j].append(i)
            else:
                backlog[j].append(i)
            ptr += 1
        for j in range(n):
            ins = in_service[j]
            if not ins:
                continue
            p, p_hat = servers[j]
            count = len(ins) + len(backlog[j])
            speed = 1.0 if count <= p else p / min(p_hat, count)
            dec = speed * dt
            for i in ins:
                remaining[i] -= dec
        t_next = (step + 1) * dt
        for j in range(n):
            ins = in_service[j]
            k = 0
            while k < len(ins):
                if remaining[ins[k]] <= 1e-12:
                    completion[ins[k]] = t_next
                    ins.pop(k)
                    done += 1
                    if backlog[j]:
                        ins.append(backlog[j].popleft())
                else:
                    k += 1
        step += 1
    return completion


class ScriptedPolicy(Policy):
    """Replays a fixed arrival->server assignment (1 LB only)."""

    name = "scripted"

    def __init__(self, assignments):
        super().__init__()
        self.assignments = list(assignments)
        self.next = 0

    def select(self, ctx):
        sid = self.assignments[self.next]
        self.next += 1
        return sid


def random_scenario(rng):
    """A small random scenario: <= 3 servers, <= 50 tasks, grid arrivals.

    Arrivals use exponential gaps at ~60% of capacity so backlogs stay
    shallow; the integrator quantizes completions to the dt grid, and deep
    promotion cascades would stack that quantization error.
    """
    n = int(rng.integers(1, 4))
    servers = []
    for _ in range(n):
        p = int(rng.integers(1, 5))
        p_hat = p * int(rng.integers(1, 3))
        servers.append((p, p_hat))
    count = int(rng.integers(1, 51))
    mean_w = 0.3
    capacity = sum(p for p, _ in servers) / mean_w
    gaps = rng.exponential(1.0 / (0.45 * capacity), count)
    times = np.round(np.cumsum(gaps) / DT) * DT
    # moderate per-server load and a bounded workload ratio keep FIFO chains
    # shallow; the integrator quantizes each completion to the dt grid and a
    # depth-D chain stacks up to D*dt of error
    workloads = rng.uniform(0.1, 0.5, count)
    weights = np.array([p for p, _ in servers], dtype=float)
    assignment = rng.choice(n, size=count, p=weights / weights.sum())
    return servers, [(float(times[i]), float(workloads[i]), int(assignment[i]))
                     for i in range(count)]


def run_engine_on_scenario(servers, triples):
    """Drive the event engine with the scripted assignment; returns the trace."""
    from lbsim.engine import run_episode

    topo = Topology(1, tuple(servers))
    tasks = [Task(i, w, at) for i, (at, w, _) in enumerate(triples)]
    policy = ScriptedPolicy([j for _, _, j in triples]).bind(np.random.default_rng(0))
    horizon = max(at for at, _, _ in triples) + sum(w for _, w, _ in triples) + 1.0
    return run_episode(topo, [policy], tasks, duration=horizon)
