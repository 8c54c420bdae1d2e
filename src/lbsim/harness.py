"""Experiment harness: config parsing, runs, sweeps, and CSV artifacts.

Configs are flat INI-style key/value files with section headers so that
manifests stay diffable.  A run executes a growing-duration episode schedule
with persistent agents and emits steps.csv (one row per step boundary, LB
and server), episodes.csv (one summary row per episode), cdf.csv (sorted
residual-workload samples of the last episode), final checkpoints for
learning policies, and a manifest that reproduces the run exactly.  A sweep
runs the cartesian product of policies x rates x seeds in parallel worker
processes and reports per-cell medians in table.csv.
"""
from __future__ import annotations

import configparser
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import metrics, traffic
from .agent import SacAgent, SacConfig, SacPolicy
from .engine import ConfigurationError, Topology, run_episode
from .policies import BASELINE_POLICIES

WORKERS_ENV = "LBSIM_WORKERS"

# Canonical topologies: half the servers have 4 processors, half have 2,
# and the concurrency cap defaults to twice the processor count.
PRESETS = {
    "1lb-2s": (1, (4, 2)),
    "1lb-4s": (1, (4, 4, 2, 2)),
    "2lb-4s": (2, (4, 4, 2, 2)),
    "1lb-8s": (1, (4, 4, 4, 4, 2, 2, 2, 2)),
    "2lb-8s": (2, (4, 4, 4, 4, 2, 2, 2, 2)),
}

POLICY_NAMES = ("ecmp", "wcmp", "lsq", "sed", "rlb-sac")


@dataclass(frozen=True)
class ExperimentConfig:
    lbs: int = 1
    servers: tuple = ()
    rate_fraction: float = 0.9
    distribution: str = traffic.IDENTICAL
    mean_workload: float = 0.1
    policy: str = "rlb-sac"
    episodes: int = 20
    step_interval: float = 0.5
    first_episode_duration: float = 60.0
    episode_increment: float = 5.0
    seeds: tuple = (0,)
    reward_index: str = "jain"
    out_dir: str = "out"
    sac: SacConfig = field(default_factory=SacConfig)

    def __post_init__(self):
        # INI configs, manifests, CLI overrides, sweep cells and configs built
        # in code all pass through here, replace() results included
        for row in FIELDS:
            if row.check:
                owner = self.sac if row.section == "sac" else self
                problem = row.check(row.key, getattr(owner, row.attr))
                if problem:
                    raise ConfigurationError(problem)
        if not self.seeds:
            raise ConfigurationError("[run] seeds: need at least one seed")
        batch, capacity = self.sac.batch_size, self.sac.buffer_capacity
        if not 1 <= batch <= capacity:
            raise ConfigurationError(
                f"[sac] need 1 <= batch_size <= buffer_capacity, got {batch} and {capacity}:"
                " a smaller buffer never fills a batch, so the agent would never update")

    def topology(self, seed: int) -> Topology:
        return Topology(self.lbs, self.servers)

    def traffic_spec(self, seed: int) -> traffic.TrafficSpec:
        return traffic.TrafficSpec(self.rate_fraction, self.distribution,
                                   self.mean_workload, seed)


@dataclass
class EpisodeSummary:
    episode: int
    fairness_index: float
    avg_residual_workload: float
    max_residual_workload: float
    mean_reward: float
    wall_clock_s: float


@dataclass
class RunResult:
    seed: int
    summaries: list
    out_dir: Optional[str]


@dataclass
class SweepCell:
    policy: str
    rate: float
    fairness_index: float
    avg_residual_workload: float
    max_residual_workload: float
    status: str


@dataclass
class SweepResult:
    cells: list
    out_dir: Optional[str]


# --------------------------------------------------------------------------
# Config parsing


def _parse_servers(text: str) -> tuple:
    servers = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            p_s, cap_s = chunk.split(":", 1)
            p, cap = int(p_s), int(cap_s)
        else:
            p = int(chunk)
            cap = 2 * p
        servers.append((p, cap))
    return tuple(servers)


def _get(parser, section, key, conv, default=None):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return default


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def int_list(raw: str) -> tuple:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def float_list(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def str_list(raw: str) -> tuple:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


# Value kinds: (parse INI text, render for the manifest).  Floats render
# with 17 significant digits so that a manifest reloads the exact doubles.
_FLOAT = (float, _fmt_float)
_INT = (int, str)
_STR = (str.strip, str)
_NOT_BOOL = (lambda raw: not _bool(raw), lambda b: str(not b).lower())
_INTS = (int_list, lambda xs: ",".join(str(x) for x in xs))
_FLOATS = (float_list, lambda xs: ",".join(_fmt_float(x) for x in xs))
_STRS = (str_list, ",".join)
_SERVERS = (_parse_servers, lambda servers: ",".join(f"{p}:{cap}" for p, cap in servers))


def _choice(*names):
    def check(key, value):
        if value not in names:
            return f"unknown {key} {value!r}; available: {', '.join(names)}"
    return check


def _finite(key, value):
    if not -math.inf < value < math.inf:  # NaN fails every comparison
        return f"{key} must be finite, got {value}"


def _positive(key, value):
    if value <= 0:
        return f"{key} must be positive, got {value}"
    return _finite(key, value)


def _nonnegative(key, value):
    if value < 0:
        return f"{key} must be >= 0, got {value}"
    return _finite(key, value)


def _fraction(key, value):
    if not 0 <= value <= 1:
        return f"{key} must be in [0, 1], got {value}"


def _positive_fraction(key, value):
    if not 0 < value <= 1:
        return f"{key} must be in (0, 1], got {value}"


def _distinct(key, values):
    for i, value in enumerate(values):
        if value in values[:i]:
            return f"{key} must be distinct, {value} repeats"


def _seed_list(key, values):
    # a repeated seed would count twice in a sweep cell's median
    if any(v < 0 for v in values):
        return f"{key} must be >= 0, got {', '.join(str(v) for v in values)}"
    return _distinct(key, values)


class Field(NamedTuple):
    """One INI key: the attribute it sets, its (parse, render) kind, its check.

    ``[sac]`` keys set SacConfig, all others ExperimentConfig; a key absent
    from the text keeps the dataclass default.  A check returns an error
    message or None; ExperimentConfig runs them all whenever one is built.
    """

    section: str
    key: str
    attr: str
    kind: tuple
    check: Optional[Callable] = None

    @property
    def owner(self) -> type:
        return SacConfig if self.section == "sac" else ExperimentConfig


# Every config field, in manifest order.
FIELDS = (
    Field("topology", "lbs", "lbs", _INT),
    Field("topology", "servers", "servers", _SERVERS),
    Field("traffic", "rate", "rate_fraction", _FLOAT, _positive),
    Field("traffic", "distribution", "distribution", _STR,
          _choice(traffic.IDENTICAL, traffic.EXPONENTIAL)),
    Field("traffic", "mean", "mean_workload", _FLOAT, _positive),
    Field("run", "policy", "policy", _STR, _choice(*POLICY_NAMES)),
    Field("run", "episodes", "episodes", _INT, _positive),
    Field("run", "step_interval", "step_interval", _FLOAT, _positive),
    Field("run", "first_episode_duration", "first_episode_duration", _FLOAT, _positive),
    Field("run", "episode_increment", "episode_increment", _FLOAT, _nonnegative),
    Field("run", "seeds", "seeds", _INTS, _seed_list),
    Field("run", "reward", "reward_index", _STR, _choice(*metrics.FAIRNESS_INDICES)),
    Field("run", "out", "out_dir", _STR),
    Field("sac", "learning_rate", "learning_rate", _FLOAT, _positive),
    Field("sac", "batch_size", "batch_size", _INT),
    Field("sac", "buffer_capacity", "buffer_capacity", _INT),
    Field("sac", "gamma", "gamma", _FLOAT, _fraction),
    Field("sac", "tau", "tau", _FLOAT, _positive_fraction),
    Field("sac", "hidden", "hidden", _INT, _positive),
    Field("sac", "updates_per_step", "updates_per_step", _INT, _positive),
    Field("sac", "log_alpha_init", "log_alpha_init", _FLOAT, _finite),
    Field("sac", "strict_observability", "include_duration", _NOT_BOOL),
)

# The [sweep] lists a sweep manifest adds: (key, kind).
SWEEP_FIELDS = (("rates", _FLOATS), ("policies", _STRS), ("seeds", _INTS))

# Every (section, key) a config or manifest may carry.
KNOWN_KEYS = ({(row.section, row.key) for row in FIELDS} | {("topology", "preset")}
              | {("sweep", key) for key, _ in SWEEP_FIELDS})


def validate_config(text: str) -> tuple:
    """Parse config text, apply defaults, and validate.

    Returns (config, warnings).  Topology is the only required section; all
    other fields fall back to the published training defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    # a misspelt key would otherwise leave its default silently in place
    known_sections = {section for section, _ in KNOWN_KEYS}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in KNOWN_KEYS:
                raise ConfigurationError(f"[{section}] {key}: unknown key")

    # a preset stands for its lbs/servers pair and overrides both
    if parser.has_option("topology", "preset"):
        preset = parser.get("topology", "preset").strip()
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        lbs, plain = PRESETS[preset]
        parser["topology"]["lbs"] = str(lbs)
        parser["topology"]["servers"] = ",".join(str(p) for p in plain)
    elif not parser.has_option("topology", "servers"):
        raise ConfigurationError("topology missing: set [topology] preset or servers")

    values = {ExperimentConfig: {}, SacConfig: {}}
    for row in FIELDS:
        if parser.has_option(row.section, row.key):
            values[row.owner][row.attr] = _get(parser, row.section, row.key, row.kind[0])
    config = ExperimentConfig(sac=SacConfig(**values[SacConfig]), **values[ExperimentConfig])
    Topology(config.lbs, config.servers)  # rejects an invalid LB count or server list
    return config, config_warnings(config)


def config_warnings(config: ExperimentConfig) -> list:
    """What is legal but likely unintended in a config, as it will run."""
    warnings = []
    if config.rate_fraction > 1.0:
        warnings.append(f"traffic rate {config.rate_fraction} exceeds capacity: overload regime")
    if config.policy != "rlb-sac" and config.sac != SacConfig():
        warnings.append(f"[sac] options are ignored by baseline policy {config.policy!r}")
    return warnings


def load_config(path: str) -> tuple:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return validate_config(text)


def load_sweep_lists(path: str) -> tuple:
    """Pull the [sweep] section (rates, policies, seeds) out of a manifest."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_string(fh.read())
    return tuple(_get(parser, "sweep", key, kind[0]) for key, kind in SWEEP_FIELDS)


def sweep_lists(path: str, config: ExperimentConfig,
                flags: tuple = (None, None, None)) -> Optional[tuple]:
    """The (rates, policies, seeds) a sweep of the config at ``path`` runs.

    Each list comes from its entry of ``flags``, else from the config's
    [sweep] section, else it is the config's own rate, policy or seeds.
    None when neither gives any list.
    """
    given = tuple(listed if flag is None else flag
                  for flag, listed in zip(flags, load_sweep_lists(path)))
    if given == (None, None, None):
        return None
    own = ((config.rate_fraction,), (config.policy,), config.seeds)
    return tuple(mine if listed is None else listed for listed, mine in zip(given, own))


def config_to_manifest(config: ExperimentConfig, sweep: Optional[tuple] = None) -> str:
    """Render the fully-resolved config, and any (rates, policies, seeds) sweep
    lists, as reproducible INI text."""
    blocks = []
    for section, rows in groupby(FIELDS, key=lambda row: row.section):
        owner = config.sac if section == "sac" else config
        blocks.append([f"[{section}]"] + [f"{row.key} = {row.kind[1](getattr(owner, row.attr))}"
                                          for row in rows])
    if sweep is not None:
        blocks.append(["[sweep]"] + [f"{key} = {kind[1](values)}"
                                     for (key, kind), values in zip(SWEEP_FIELDS, sweep)])
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


# --------------------------------------------------------------------------
# Running


def _make_out_dir(out: str) -> None:
    """Make ``out`` and delete what an earlier run or sweep wrote there, so that
    it never mixes two runs; each run or sweep writes its own manifest.ini."""
    os.makedirs(out, exist_ok=True)
    for name in ("steps.csv", "episodes.csv", "cdf.csv", "table.csv", "checkpoints", "diverged"):
        path = os.path.join(out, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def build_policies(config: ExperimentConfig, topology: Topology, seed: int) -> list:
    policies = []
    for lb in range(topology.lbs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, lb)))
        if config.policy == "rlb-sac":
            policy = SacPolicy(SacAgent(topology.n_servers, config.sac, seed, lb_id=lb))
        else:
            policy = BASELINE_POLICIES[config.policy]()
        policies.append(policy.bind(rng))
    return policies


def _summarize(episode: int, trace, wall: float) -> EpisodeSummary:
    # run_episode fires the t = 0 boundary of every episode, so no list is empty
    flat = [r for resid in trace.residuals_per_boundary for r in resid]
    return EpisodeSummary(episode, float(np.mean(trace.fairness_per_boundary)),
                          float(np.mean(flat)), float(np.max(flat)),
                          float(np.mean([r for _, _, r in trace.rewards])), wall)


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None,
                   out_dir: Optional[str] = None, write_files: bool = True) -> RunResult:
    """Execute the full episode schedule for one seed.

    Episode e (0-based) lasts first_episode_duration + e * episode_increment
    seconds; servers reset between episodes while agents, replay buffers and
    input normalizers persist.
    """
    seed = config.seeds[0] if seed is None else seed
    # the manifest records the one seed run, checked like any other value
    config = replace(config, seeds=(seed,))
    out = out_dir if out_dir is not None else config.out_dir
    topology = config.topology(seed)
    spec = config.traffic_spec(seed)
    policies = build_policies(config, topology, seed)

    def reward_fn(w):
        return metrics.reward(w, config.reward_index)

    steps_fh = None
    if write_files:
        _make_out_dir(out)
        _atomic_write(os.path.join(out, "manifest.ini"),
                      config_to_manifest(config))
        steps_fh = open(os.path.join(out, "steps.csv"), "w")
        steps_fh.write("episode,time,lb_id,server_id,residual_workload,"
                       "ongoing_count,reward,fairness\n")
        for policy in policies:
            if isinstance(policy, SacPolicy):
                policy.agent.dump_dir = out

    summaries = []
    last_residuals: list = []
    try:
        for ep in range(config.episodes):
            duration = config.first_episode_duration + config.episode_increment * ep
            tasks = traffic.generate(spec, topology, duration, episode=ep)
            routing = traffic.routing_stream(seed, ep)
            started = time.perf_counter()
            trace = run_episode(
                topology, policies, tasks, duration,
                step_interval=config.step_interval,
                routing_rng=routing,
                reward_fn=reward_fn,
            )
            wall = time.perf_counter() - started
            summaries.append(_summarize(ep, trace, wall))
            if steps_fh is not None:
                fmt = _fmt_float
                steps = zip(trace.rewards, trace.ongoing_per_step)
                for i, ((t, lb, rew), ongoing) in enumerate(steps):
                    k = i // topology.lbs  # rewards run boundary-major
                    tail = f",{fmt(rew)},{fmt(trace.fairness_per_boundary[k])}\n"
                    steps_fh.write("".join(
                        f"{ep},{fmt(t)},{lb},{srv},{fmt(res)},{ong}{tail}"
                        for srv, (res, ong) in enumerate(zip(trace.residuals_per_boundary[k],
                                                             ongoing))))
            if ep == config.episodes - 1:
                last_residuals = sorted(
                    r for resid in trace.residuals_per_boundary for r in resid)
            # free this episode's tasks before the next episode generates its own
            del tasks, trace
    finally:
        if steps_fh is not None:
            steps_fh.close()

    if write_files:
        fmt = _fmt_float
        buf = ["episode,fairness_index,avg_residual_workload,max_residual_workload,"
               "mean_reward,wall_clock_s"]
        buf += [f"{s.episode},{fmt(s.fairness_index)},{fmt(s.avg_residual_workload)},"
                f"{fmt(s.max_residual_workload)},{fmt(s.mean_reward)},{fmt(s.wall_clock_s)}"
                for s in summaries]
        _atomic_write(os.path.join(out, "episodes.csv"), "\n".join(buf) + "\n")

        count = len(last_residuals)
        buf = ["residual_workload,cum_prob"]
        buf += [f"{fmt(r)},{fmt((i + 1) / count)}" for i, r in enumerate(last_residuals)]
        _atomic_write(os.path.join(out, "cdf.csv"), "\n".join(buf) + "\n")

        for lb, policy in enumerate(policies):
            if isinstance(policy, SacPolicy):
                policy.agent.save_checkpoint(os.path.join(out, "checkpoints", f"lb{lb}"))

    return RunResult(seed=seed, summaries=summaries,
                     out_dir=out if write_files else None)


def _sweep_cell(args) -> tuple:
    config, policy, rate, seed = args  # config is the cell's own
    try:
        result = run_experiment(config, seed=seed, write_files=False)
        last = result.summaries[-1]
        return (policy, rate, seed, last.fairness_index, last.avg_residual_workload,
                last.max_residual_workload, "")
    except Exception as exc:  # recorded per-cell, sweep continues
        return (policy, rate, seed, math.nan, math.nan, math.nan,
                f"{type(exc).__name__}: {exc}")


def sweep_configs(config: ExperimentConfig, rates: Sequence[float],
                  policies: Sequence[str], seeds: Sequence[int]) -> dict:
    """Each sweep cell's config by (policy, rate), all checked before any cell runs."""
    if not rates or not policies or not seeds:
        raise ConfigurationError("sweep needs nonempty rates, policies, and seeds")
    # a repeated rate or policy would run its cells twice; seeds are checked
    # with the cell configs
    for key, values in (("rates", rates), ("policies", policies)):
        problem = _distinct(key, values)
        if problem:
            raise ConfigurationError(problem)
    config.topology(seeds[0])
    return {(p, r): replace(config, policy=p, rate_fraction=r, seeds=tuple(seeds))
            for p in policies for r in rates}


def run_sweep(config: ExperimentConfig, rates: Sequence[float],
              policies: Sequence[str], seeds: Sequence[int],
              out_dir: Optional[str] = None, workers: Optional[int] = None,
              write_files: bool = True) -> SweepResult:
    """Run policies x rates x seeds and aggregate last-episode medians."""
    cell_configs = sweep_configs(config, rates, policies, seeds)
    out = out_dir if out_dir is not None else config.out_dir

    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = os.cpu_count() or 1
        if env is not None:
            workers = int(env) if env.strip().isdecimal() else 0
            if workers < 1:
                raise ConfigurationError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    elif workers < 1:
        raise ConfigurationError(f"workers must be a positive integer, got {workers!r}")
    workers = min(workers, len(policies) * len(rates) * len(seeds))

    # heaviest cells first: a cell's tasks scale with its rate, and the stable
    # sort keeps each cell's seeds in order
    jobs = sorted(((cell_configs[p, r], p, r, s) for p in policies for r in rates
                   for s in seeds), key=lambda job: -job[2])
    if workers == 1:
        outcomes = [_sweep_cell(job) for job in jobs]
    else:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_cell, jobs, chunksize=1))

    by_cell: dict = {}
    for policy, rate, seed, fi, avg, mx, error in outcomes:
        by_cell.setdefault((policy, rate), []).append((seed, fi, avg, mx, error))

    import statistics  # imported here: only the cell medians use it

    cells = []
    for policy in policies:
        for rate in rates:
            entries = by_cell[(policy, rate)]
            errors = [f"seed {s}: {e}" for s, _, _, _, e in entries if e]
            if errors:
                cells.append(SweepCell(policy, rate, math.nan, math.nan, math.nan,
                                       "; ".join(errors)))
            else:
                cells.append(SweepCell(
                    policy, rate,
                    statistics.median(x[1] for x in entries),
                    statistics.median(x[2] for x in entries),
                    statistics.median(x[3] for x in entries),
                    "ok"))

    if write_files:
        _make_out_dir(out)
        fmt = _fmt_float
        buf = ["policy,rate,fairness_index,avg_residual_workload,"
               "max_residual_workload,status"]
        buf += [f"{c.policy},{fmt(c.rate)},{fmt(c.fairness_index)},"
                f"{fmt(c.avg_residual_workload)},{fmt(c.max_residual_workload)},{c.status}"
                for c in cells]
        _atomic_write(os.path.join(out, "table.csv"), "\n".join(buf) + "\n")
        _atomic_write(os.path.join(out, "manifest.ini"),
                      config_to_manifest(config, sweep=(rates, policies, seeds)))
    return SweepResult(cells=cells, out_dir=out if write_files else None)


# --------------------------------------------------------------------------
# CSV readers (round-trip support)


def read_csv(path: str, convert: Callable = list) -> tuple:
    """Read one of the harness's CSVs: returns (header, rows).  Blank lines
    are skipped.  Each row's list of strings is passed through ``convert``
    as soon as its line is read, so the file is never held as strings."""
    with open(path) as fh:
        lines = (line.rstrip("\n") for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no header row")
        header = first.split(",")
        width = len(header)
        rows = []
        for line in lines:
            cells = line.split(",", width - 1)
            if len(cells) != width:
                raise ValueError(f"{path}: malformed row {line!r}")
            rows.append(convert(cells))
    return header, rows


def read_steps(path: str) -> list:
    return read_csv(path, lambda r: (int(r[0]), float(r[1]), int(r[2]), int(r[3]),
                                     float(r[4]), int(r[5]), float(r[6]), float(r[7])))[1]


def read_episodes(path: str) -> list:
    return read_csv(path, lambda r: EpisodeSummary(int(r[0]), float(r[1]), float(r[2]),
                                                   float(r[3]), float(r[4]), float(r[5])))[1]


def read_table(path: str) -> list:
    return read_csv(path, lambda r: (r[0], float(r[1]), float(r[2]), float(r[3]),
                                     float(r[4]), r[5]))[1]
