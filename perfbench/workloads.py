"""The benchmark's workloads: what each runs, and the checks on its outputs.

Every workload is closed loop: one iteration simulates its pre-generated
arrivals as fast as the host allows, and the next iteration starts when it
returns.  Iterations of one benchmark run repeat the same inputs, so their
outputs must agree bit for bit.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))

RATES = (0.6, 0.7, 0.8, 0.9, 1.0)
BASELINES = ("ecmp", "wcmp", "lsq", "sed")

# Config file (relative to the checkout, or absolute), then (episodes, first
# episode duration s, episode increment s) at full size and at smoke-test size.
SCHEDULES = {
    "table1-grid": ("configs/table1.ini", (1, 600.0, 0.0), (1, 20.0, 0.0)),
    "rlb90-train": ("configs/rlb-90.ini", (3, 60.0, 5.0), (1, 40.0, 0.0)),
    "wide-exp": (os.path.join(HERE, "wide-exp.ini"), (3, 60.0, 5.0), (1, 5.0, 0.0)),
}
WORKLOADS = tuple(SCHEDULES)

# Table-1 ordering SED > LSQ >= WCMP > ECMP, as (better, worse, strict).
ORDERING = (("sed", "lsq", True), ("lsq", "wcmp", False), ("wcmp", "ecmp", True))
# LSQ >= WCMP at rate 1.0 is printed but not gated: at critical load WCMP's
# fairness swings by +-0.04 from seed to seed (4 of 20 seeds reverse the pair
# on a 600 s episode), so no affordable run resolves it.
UNRESOLVED = {("lsq", "wcmp", 1.0)}


def load(root: str, name: str, smoke: bool):
    """The workload's config: its INI file with the benchmark's episode schedule."""
    from lbsim import harness

    path, full, small = SCHEDULES[name]
    config, _ = harness.load_config(os.path.join(root, path))
    episodes, first, increment = small if smoke else full
    return replace(config, episodes=episodes, first_episode_duration=first,
                   episode_increment=increment)


def durations(config) -> list:
    return [config.first_episode_duration + config.episode_increment * ep
            for ep in range(config.episodes)]


def boundaries(config) -> int:
    """Step boundaries per LB over the schedule: k * step_interval < duration."""
    return sum(math.ceil(d / config.step_interval) for d in durations(config))


def arrivals(config, seed: int) -> int:
    """Tasks one run of ``config`` dispatches, from the same generator the run uses."""
    from lbsim import traffic

    spec, topology = config.traffic_spec(seed), config.topology(seed)
    return sum(len(traffic.generate(spec, topology, d, episode=ep))
               for ep, d in enumerate(durations(config)))


def fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class Outcome:
    """Checked outputs of one iteration."""

    attempted: int
    failures: list = field(default_factory=list)   # (unit, reason)
    digest: str = ""
    fi_last: float = math.nan
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({unit for unit, _ in self.failures})


def _finite_summary(summary) -> bool:
    values = (summary.fairness_index, summary.avg_residual_workload,
              summary.max_residual_workload, summary.mean_reward)
    return all(math.isfinite(v) for v in values) and 0.0 < summary.fairness_index <= 1.0


class Table1Grid:
    """``run_sweep`` over policies x rates on 1lb-2s with identical 100 ms tasks."""

    name = "table1-grid"

    def __init__(self, root, seed, out_dir, smoke):
        self.config = load(root, self.name, smoke)
        self.seed = seed
        self.units = len(BASELINES) * len(RATES)
        self.tasks = len(BASELINES) * sum(
            arrivals(replace(self.config, rate_fraction=r), seed) for r in RATES)

    def reset(self) -> None:
        pass

    def steps_csv_bytes(self) -> int:
        return 0

    def run(self, workers: int):
        from lbsim import harness

        return harness.run_sweep(self.config, RATES, BASELINES, (self.seed,),
                                 workers=workers, write_files=False)

    def check(self, result) -> Outcome:
        out = Outcome(attempted=self.units)
        cells = {(c.policy, c.rate): c for c in result.cells}
        for (policy, rate), cell in cells.items():
            values = (cell.fairness_index, cell.avg_residual_workload,
                      cell.max_residual_workload)
            if cell.status != "ok":
                out.failures.append(((policy, rate), f"status {cell.status}"))
            elif not all(math.isfinite(v) for v in values) or not 0 < cell.fairness_index <= 1:
                out.failures.append(((policy, rate), f"bad summary {values}"))
        for rate in RATES:
            for better, worse, strict in ORDERING:
                hi = cells[better, rate].fairness_index
                lo = cells[worse, rate].fairness_index
                holds = hi > lo if strict else hi >= lo
                if (better, worse, rate) in UNRESOLVED:
                    out.notes.append(f"ungated {better}-{worse} at rate {rate}: "
                                     f"{hi - lo:+.4f} ({'holds' if holds else 'reversed'})")
                elif not holds:
                    for policy in (better, worse):
                        out.failures.append(((policy, rate),
                                             f"ordering {better} vs {worse}: {hi} vs {lo}"))
        table = ["policy,rate,fairness_index,avg_residual_workload,max_residual_workload,status"]
        table += [f"{c.policy},{fmt(c.rate)},{fmt(c.fairness_index)},"
                  f"{fmt(c.avg_residual_workload)},{fmt(c.max_residual_workload)},{c.status}"
                  for c in result.cells]
        out.digest = hashlib.sha256(("\n".join(table) + "\n").encode()).hexdigest()
        out.fi_last = sum(c.fairness_index for c in result.cells) / len(result.cells)
        return out


class Runs:
    """``run_experiment`` once per policy, writing files into ``out_dir``."""

    def __init__(self, name, policies, root, seed, out_dir, smoke):
        self.name = name
        base = load(root, name, smoke)
        self.configs = [replace(base, policy=p) for p in policies]
        self.seed = seed
        self.out_dir = out_dir
        self.units = len(self.configs)
        self.tasks = arrivals(base, seed) * len(self.configs)

    def _dir(self, config) -> str:
        return os.path.join(self.out_dir, config.policy)

    def reset(self) -> None:
        for config in self.configs:
            shutil.rmtree(self._dir(config), ignore_errors=True)

    def run(self, workers: int):
        from lbsim import harness

        return [harness.run_experiment(c, seed=self.seed, out_dir=self._dir(c))
                for c in self.configs]

    def steps_csv_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self._dir(c), "steps.csv"))
                   for c in self.configs)

    def check(self, results) -> Outcome:
        from lbsim import harness

        out = Outcome(attempted=self.units)
        digest = hashlib.sha256()
        for config, result in zip(self.configs, results):
            unit = config.policy
            if len(result.summaries) != config.episodes:
                out.failures.append((unit, f"{len(result.summaries)} summaries"))
            for s in result.summaries:
                if not _finite_summary(s):
                    out.failures.append((unit, f"bad summary {s}"))
            path = os.path.join(self._dir(config), "steps.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            rows = harness.read_steps(path)
            expected = boundaries(config) * config.lbs * len(config.servers)
            if len(rows) != expected:
                out.failures.append((unit, f"steps.csv has {len(rows)} rows, not {expected}"))
            rendered = [f"{ep},{fmt(t)},{lb},{srv},{fmt(res)},{ong},{fmt(rew)},{fmt(fair)}"
                        for ep, t, lb, srv, res, ong, rew, fair in rows]
            if rendered != lines[1:]:
                out.failures.append((unit, "steps.csv does not round-trip through read_steps"))
            digest.update("\n".join(lines).encode())
            with open(os.path.join(self._dir(config), "episodes.csv")) as fh:
                episodes = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
            digest.update("\n".join(episodes).encode())
            if config.policy == "rlb-sac":
                for lb in range(config.lbs):
                    problem = self._reload(config, lb)
                    if problem:
                        out.failures.append((unit, f"checkpoint lb{lb}: {problem}"))
        out.digest = digest.hexdigest()
        out.fi_last = sum(r.summaries[-1].fairness_index for r in results) / len(results)
        return out

    def _reload(self, config, lb: int) -> str:
        """Load a checkpoint into a fresh agent, save it again, compare the bytes."""
        from lbsim.agent import SacAgent

        saved = os.path.join(self._dir(config), "checkpoints", f"lb{lb}")
        again = os.path.join(self._dir(config), "reloaded", f"lb{lb}")
        agent = SacAgent(len(config.servers), config.sac, self.seed, lb_id=lb)
        try:
            agent.load_checkpoint(saved)
        except (OSError, ValueError, KeyError) as exc:
            return f"does not load: {exc}"
        if agent.total_steps != boundaries(config):
            return f"total_steps {agent.total_steps}, not {boundaries(config)}"
        agent.save_checkpoint(again)
        for entry in sorted(os.listdir(saved)):
            with open(os.path.join(saved, entry), "rb") as a, \
                    open(os.path.join(again, entry), "rb") as b:
                if a.read() != b.read():
                    return f"{entry} differs after load and save"
        return ""


def make(name: str, root: str, seed: int, out_dir: str, smoke: bool):
    if name == "table1-grid":
        return Table1Grid(root, seed, out_dir, smoke)
    if name == "rlb90-train":
        return Runs(name, ("rlb-sac",), root, seed, out_dir, smoke)
    if name == "wide-exp":
        return Runs(name, ("lsq", "sed"), root, seed, out_dir, smoke)
    raise ValueError(f"unknown workload {name!r}")
