"""lbsim: event-driven load-balancing simulator with learned dispatch.

Heterogeneous multi-processor servers follow a blocked processor-sharing
model; arriving tasks are assigned by classical policies (ECMP, WCMP, LSQ,
SED) or by a per-LB soft actor-critic agent that learns server speed
estimates from purely local observations.
"""

from .agent import SacAgent, SacConfig, SacPolicy, action_to_speeds, observe
from .engine import (
    ConfigurationError,
    EpisodeTrace,
    ServerState,
    SimulationError,
    Task,
    Topology,
    advance_server,
    run_episode,
    server_speed,
)
from .harness import ExperimentConfig, run_experiment, run_sweep, validate_config
from .metrics import ChannelStats, TimedSample, bossaer, g_fairness, jain, reduce, reward
from .policies import PolicyContext, ecmp, lsq, rlb_assign, sed, wcmp
from .traffic import TrafficSpec, generate, system_capacity

__version__ = "0.1.0"
