"""Poisson task arrival generation at capacity-normalized rates.

The arrival rate is expressed as a fraction of the cluster's maximum
sustainable departure rate sum(p_j) / E[workload], so a rate of 1.0 puts the
system exactly at its stability boundary.  Inter-arrival gaps, workloads and
LB routing each consume an independent stream spawned from the master seed,
so changing one distribution never perturbs the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ConfigurationError, Task, Topology

IDENTICAL = "identical"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class TrafficSpec:
    """Arrival stream description.

    ``mean`` is the fixed workload for the identical distribution and the
    exponential mean otherwise, in seconds.  Rates above 1.0 are permitted
    (deliberate overload) but flagged by the harness.
    """

    rate_fraction: float
    distribution: str = IDENTICAL
    mean: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rate_fraction < math.inf:
            raise ConfigurationError(
                f"rate fraction must be finite and > 0, got {self.rate_fraction}")
        if not 0 < self.mean < math.inf:
            raise ConfigurationError(f"mean workload must be finite and > 0, got {self.mean}")
        if self.distribution not in (IDENTICAL, EXPONENTIAL):
            raise ConfigurationError(f"unknown workload distribution {self.distribution!r}")


def _episode_streams(seed: int, episode: int):
    root = np.random.SeedSequence(seed, spawn_key=(episode,))
    ia, w, route = root.spawn(3)
    return (np.random.default_rng(ia), np.random.default_rng(w), np.random.default_rng(route))


def routing_stream(seed: int, episode: int = 0) -> np.random.Generator:
    """The LB-routing stream for one episode, independent of traffic draws."""
    return _episode_streams(seed, episode)[2]


def system_capacity(topology: Topology, spec: TrafficSpec) -> float:
    """Maximum sustainable departure rate: sum(p_j) / E[workload], tasks/s."""
    return sum(topology.processor_counts) / spec.mean


def generate(spec: TrafficSpec, topology: Topology, duration: float,
             episode: int = 0) -> list:
    """Generate the episode's arrival sequence, sorted and cut at ``duration``.

    Inter-arrival gaps are i.i.d. exponential at rate
    rate_fraction * system_capacity; workloads follow the configured
    distribution.  Deterministic given (seed, episode).
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    lam = spec.rate_fraction * system_capacity(topology, spec)
    ia_rng, w_rng, _ = _episode_streams(spec.seed, episode)

    times: list = []
    t = 0.0
    chunk = max(64, int(lam * duration * 1.1) + 32)
    while True:
        gaps = ia_rng.exponential(1.0 / lam, chunk)
        arr = t + np.cumsum(gaps)
        inside = arr[arr < duration]
        times.extend(inside.tolist())
        if inside.size < arr.size:
            break
        t = float(arr[-1])
        chunk = 256

    count = len(times)
    if spec.distribution == IDENTICAL:
        workloads = [float(spec.mean)] * count  # one shared float, not one per task
    else:
        workloads = w_rng.exponential(spec.mean, count).tolist()

    return [Task(i, workloads[i], times[i]) for i in range(count)]
