"""lbsim benchmark: end-to-end host-time metrics, or a traced per-layer pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1-grid --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload repeats untraced for ``--seconds`` seconds
and the end-to-end metrics are printed.  With ``--trace 1`` untraced and
traced iterations alternate and the per-layer metrics are printed, tracing
overhead included.  Each line ``<metric> <value> <unit>`` is followed at
the end by one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is the ``src/lbsim`` package of the
checkout this file sits in; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import functools
import glob
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads, here and in the set-up probes.
# The SAC nets multiply 64-row batches, where a second thread only spins
# against the sweep workers and the host's other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_tasks_per_s": "tasks/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "fi_last": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "traffic.generate.us_per_task": "us",
    "engine.run_episode.self_us_per_task": "us",
    "engine.tasks": "count",
    "engine.completed": "count",
    "engine.backlog_share": "1",
    "engine.boundaries": "count",
    "policies.select.us_per_call": "us",
    "policies.select.calls": "count",
    "policies.on_step.us_per_call": "us",
    "agent.step.self_ms": "ms",
    "agent.observe.ms_per_call": "ms",
    "agent.train_step.ms_per_call": "ms",
    "agent.critic_update.ms_per_call": "ms",
    "agent.actor_update.ms_per_call": "ms",
    "agent.alpha_update.ms_per_call": "ms",
    "agent.soft_update.ms_per_call": "ms",
    "agent.updates": "count",
    "agent.diverged": "count",
    "nets.Adam.step.ms_per_call": "ms",
    "nets.DenseNet.forward.calls_per_update": "count",
    "nets.DenseNet.backward.calls_per_update": "count",
    "nets.InputNormalizer.normalize.rows_per_update": "count",
    "metrics.reduce_arrays.us_per_call": "us",
    "metrics.reduce_arrays.samples_per_call": "count",
    "metrics.reward.us_per_call": "us",
    "harness.run_experiment.self_s": "s",
    "harness.steps_csv_bytes": "bytes",
    "harness.run_sweep.pool_overhead_s": "s",
    "setup.import_s": "s",
    "setup.load_config_ms": "ms",
    "setup.build_policies_ms": "ms",
    **{f"share.{layer}": "1" for layer in (
        "traffic", "engine", "policies", "agent", "nets", "metrics", "harness")},
    "trace.overhead_s": "s",
    "trace.overhead_share": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class StepClock:
    """Host time between consecutive ``on_step`` entries of each policy.

    One gap covers one simulated step interval: the engine's work between
    two boundaries plus the policy's own step work.  The gaps of one episode
    are kept under a key (sweep cell, ordinal of the episode end), which is
    the same in every iteration because iterations repeat the same inputs.
    Pool workers forked by a sweep inherit the wrappers and append their
    keyed gaps to files in ``sink``, which ``collect`` reads back.
    """

    def __init__(self, sink: str):
        self.sink = sink
        self.episodes: dict = {}
        self._pending: list = []
        self._last: dict = {}
        self._cell = None
        self._ordinal = 0
        self._pid = os.getpid()
        self._saved: list = []

    def install(self) -> None:
        from lbsim import agent, harness, policies

        os.makedirs(self.sink, exist_ok=True)
        for cls in (policies.Policy, agent.SacPolicy):
            for hook, make in (("on_step", self._on_step), ("on_episode_end", self._on_end)):
                if hook in vars(cls):
                    self._wrap(cls, hook, make(vars(cls)[hook]))
        self._wrap(harness, "_sweep_cell", self._in_cell(harness._sweep_cell))

    def _wrap(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def begin_iteration(self) -> None:
        self._ordinal = 0

    def _in_cell(self, fn):
        # functools.wraps keeps the name the pool pickles the cell function by.
        @functools.wraps(fn)
        def sweep_cell(job):
            self._cell, self._ordinal = list(job[1:]), 0
            try:
                return fn(job)
            finally:
                self._cell = None

        return sweep_cell

    def _on_step(self, fn):
        last, pending, clock = self._last, self._pending, time.perf_counter

        def on_step(policy, view, now):
            t = clock()
            prev = last.get(id(policy))
            if prev is not None:
                pending.append(t - prev)
            last[id(policy)] = t
            return fn(policy, view, now)

        return on_step

    def _on_end(self, fn):
        def on_episode_end(policy, view, now):
            self._last.pop(id(policy), None)
            key = json.dumps([self._cell, self._ordinal])
            self._ordinal += 1
            if os.getpid() == self._pid:
                self.episodes[key] = list(self._pending)
            else:
                with open(os.path.join(self.sink, f"{os.getpid()}.jsonl"), "a") as fh:
                    fh.write(json.dumps([key, self._pending]) + "\n")
            self._pending.clear()
            return fn(policy, view, now)

        return on_episode_end

    def collect(self) -> dict:
        """The keyed gaps of the iteration that just ended."""
        for path in sorted(glob.glob(os.path.join(self.sink, "*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    key, gaps = json.loads(line)
                    self.episodes[key] = gaps
            os.remove(path)
        episodes, self.episodes = self.episodes, {}
        return episodes


def step_profile(iterations: list) -> list:
    """Median over iterations of each step's gap.

    Iterations repeat the same inputs, so step ``k`` of an episode does the
    same work in each of them.  A stall of the host lands on one iteration's
    step and is voted out, while a step that is slow every time stays.
    """
    first = iterations[0]
    for episodes in iterations[1:]:
        if {k: len(v) for k, v in episodes.items()} != {k: len(v) for k, v in first.items()}:
            raise SystemExit("benchmark: step counts differ between iterations")
    return [statistics.median(episodes[key][k] for episodes in iterations)
            for key in sorted(first) for k in range(len(first[key]))]


class EpisodeChecks:
    """Observers for the traced pass: engine counts and the completion check."""

    def __init__(self):
        self.generated = 0
        self.tasks = 0
        self.completed = 0
        self.backlogged = 0
        self.boundaries = 0
        self.normalized_rows = 0
        self.reduced_samples = 0
        self.early = 0
        self.early_units: list = []
        self._early_seen = 0

    def observers(self) -> dict:
        return {
            "traffic.generate": self.generated_tasks,
            "engine.run_episode": self.episode,
            "nets.InputNormalizer.normalize": self.normalized,
            "metrics.reduce_arrays": self.reduced,
            "harness.run_experiment": self.run_done,
        }

    def generated_tasks(self, args, tasks) -> None:
        self.generated += len(tasks)

    def reduced(self, args, result) -> None:
        self.reduced_samples += int(args[0].size)

    def normalized(self, args, result) -> None:
        x = args[1]
        self.normalized_rows += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

    def episode(self, args, trace) -> None:
        """No completed task may finish sooner than dispatch_time + workload."""
        self.tasks += len(trace.tasks)
        self.completed += trace.completed
        self.boundaries += sum(trace.boundaries_per_lb)
        for task in trace.tasks:
            if task.service_start_time is None or task.service_start_time > task.dispatch_time:
                self.backlogged += 1
            if task.completion_time is not None and task.completion_time < (
                    task.dispatch_time + task.workload - 1e-9 * max(1.0, task.completion_time)):
                self.early += 1

    def run_done(self, args, result) -> None:
        if self.early != self._early_seen:
            self.early_units.append(f"{args[0].policy}@{args[0].rate_fraction}")
            self._early_seen = self.early


class SetupProbes:
    """Set-up times, each from a fresh interpreter.

    Probes run between iterations, so that their median spans the whole run
    rather than one moment of it.  The first probe, which fills the bytecode
    and file caches, is dropped.
    """

    def __init__(self, workload: str, seed: int):
        self.command = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, workload,
                        str(seed)]
        self.samples: list = []
        self.take()
        self.samples.clear()

    def take(self) -> None:
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=120,
                              check=True)
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def take_if_short(self) -> None:
        if len(self.samples) < SETUP_PROBES:
            self.take()

    def finish(self) -> list:
        while len(self.samples) < SETUP_PROBES:
            self.take()
        return self.samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Attempted and failed units plus outputs agreement across iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.fi_last = math.nan
        self.reasons: list = []
        self.notes: list = []

    def add(self, outcome) -> None:
        failed = outcome.failed
        reasons = [f"{unit}: {why}" for unit, why in outcome.failures]
        if self.digest and outcome.digest and outcome.digest != self.digest:
            failed = outcome.attempted
            reasons.append("outputs differ from the first iteration's")
        self.digest = self.digest or outcome.digest
        self.attempted += outcome.attempted
        self.failed += min(failed, outcome.attempted)
        self.reasons += reasons
        if math.isfinite(outcome.fi_last):
            self.fi_last = outcome.fi_last
        self.notes = outcome.notes or self.notes


def run_iteration(workload, workers: int, tally: Tally) -> float:
    workload.reset()
    started = time.perf_counter()
    try:
        result = workload.run(workers)
    except Exception as exc:  # a run that raises counts as failed; the benchmark goes on
        outcome = workloads.Outcome(workload.units,
                                    [(i, f"raised {exc!r}") for i in range(workload.units)])
    else:
        outcome = None
    wall = time.perf_counter() - started
    tally.add(outcome or workload.check(result))
    return wall


def _keep_going(started: float, seconds: float, last_cost: float) -> bool:
    return time.perf_counter() - started + last_cost <= seconds


def timed_pass(workload, seconds: float, workers: int, sink: str, probes: SetupProbes):
    """Untraced iterations for ``seconds``; the first one warms caches and is not timed."""
    clock = StepClock(sink)
    clock.install()
    tally = Tally()
    walls: list = []
    steps: list = []
    try:
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            clock.begin_iteration()
            walls.append(run_iteration(workload, workers, tally))
            steps.append(clock.collect())
            probes.take_if_short()
            if len(walls) >= 2 and not _keep_going(started, seconds,
                                                   time.perf_counter() - began):
                break
    finally:
        clock.uninstall()
    return tally, walls[1:], steps[1:]


def traced_pass(workload, seconds: float, workers: int, spans_path: str,
                probes: SetupProbes):
    """Alternate untraced and traced iterations, in process, for ``seconds``."""
    tally = Tally()
    pooled = []
    if workload.name == "table1-grid" and workers > 1:
        pooled.append(run_iteration(workload, workers, tally))
    checks = EpisodeChecks()
    tracer = Tracer(checks.observers())
    plain: list = []
    traced: list = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_iteration(workload, 1, tally))
        tracer.install()
        try:
            traced.append(run_iteration(workload, 1, tally))
        finally:
            tracer.uninstall()
        probes.take_if_short()
        if not _keep_going(started, seconds, time.perf_counter() - began):
            break
    tracer.write(spans_path)
    if checks.early:
        tally.failed += min(len(checks.early_units), workload.units * len(traced))
        tally.reasons.append(f"{checks.early} tasks completed before dispatch + workload "
                             f"in {sorted(set(checks.early_units))}")
    return tally, tracer, checks, plain, traced, pooled


def layer_metrics(workload, tracer, checks, plain, traced, pooled, setup, workers) -> dict:
    t = tracer
    n = len(traced)
    updates = t.calls("agent.train_step")
    per_call_ms = lambda name: 1e3 * _ratio(t.total_s(name), t.calls(name))  # noqa: E731
    untraced, with_trace = statistics.median(plain), statistics.median(traced)
    shares = t.layer_self_s()
    traced_wall = sum(traced)
    out = {
        "traffic.generate.us_per_task": 1e6 * _ratio(t.total_s("traffic.generate"),
                                                     checks.generated),
        "engine.run_episode.self_us_per_task": 1e6 * _ratio(t.self_s("engine.run_episode"),
                                                            checks.tasks),
        "engine.tasks": checks.tasks / n,
        "engine.completed": checks.completed / n,
        "engine.backlog_share": _ratio(checks.backlogged, checks.tasks),
        "engine.boundaries": checks.boundaries / n,
        "policies.select.us_per_call": 1e3 * per_call_ms("policies.select"),
        "policies.select.calls": t.calls("policies.select") / n,
        "policies.on_step.us_per_call": 1e3 * per_call_ms("policies.on_step"),
        "agent.step.self_ms": 1e3 * _ratio(t.self_s("agent.step"), t.calls("agent.step")),
        "agent.updates": updates / n,
        "agent.diverged": t.raised("agent.train_step") / n,
        "nets.Adam.step.ms_per_call": per_call_ms("nets.Adam.step"),
        "nets.DenseNet.forward.calls_per_update": _ratio(t.calls("nets.DenseNet.forward"),
                                                         updates),
        "nets.DenseNet.backward.calls_per_update": _ratio(t.calls("nets.DenseNet.backward"),
                                                          updates),
        "nets.InputNormalizer.normalize.rows_per_update": _ratio(checks.normalized_rows,
                                                                 updates),
        "metrics.reduce_arrays.us_per_call": 1e3 * per_call_ms("metrics.reduce_arrays"),
        "metrics.reduce_arrays.samples_per_call": _ratio(checks.reduced_samples,
                                                         t.calls("metrics.reduce_arrays")),
        "metrics.reward.us_per_call": 1e3 * per_call_ms("metrics.reward"),
        "harness.run_experiment.self_s": t.self_s("harness.run_experiment") / n,
        "harness.steps_csv_bytes": workload.steps_csv_bytes(),
        "harness.run_sweep.pool_overhead_s": (
            statistics.median(pooled) - untraced / workers if pooled else 0.0),
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.load_config_ms": 1e3 * statistics.median(s["load_config_s"] for s in setup),
        "setup.build_policies_ms": 1e3 * statistics.median(
            s["build_policies_s"] for s in setup),
        "trace.overhead_s": with_trace - untraced,
        "trace.overhead_share": (with_trace - untraced) / untraced,
    }
    for method in ("observe", "train_step", "critic_update", "actor_update", "alpha_update",
                   "soft_update"):
        out[f"agent.{method}.ms_per_call"] = per_call_ms(f"agent.{method}")
    for name in PER_LAYER:
        if name.startswith("share."):
            out[name] = shares.get(name.split(".", 1)[1], 0.0) / traced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny episode schedules, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lbsim", "__init__.py")):
        print(f"benchmark: no lbsim package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workers = min(2, len(os.sched_getaffinity(0)))

    probes = SetupProbes(args.workload, args.seed)
    workload = workloads.make(args.workload, ROOT, args.seed, out_dir, args.smoke)
    print(f"workload {args.workload} seed {args.seed}: {workload.units} runs or cells "
          f"per iteration, {workload.tasks} tasks, {workers} sweep workers")

    if args.trace:
        tally, tracer, checks, plain, traced, pooled = traced_pass(
            workload, args.seconds, workers, os.path.join(out_dir, "spans.jsonl"), probes)
        setup = probes.finish()
        metrics = layer_metrics(workload, tracer, checks, plain, traced, pooled, setup,
                                workers)
        units = PER_LAYER
        print(f"traced {len(traced)} iterations, {len(tracer.spans)} spans; "
              f"untraced wall_s {statistics.median(plain):.4f} s, "
              f"traced wall_s {statistics.median(traced):.4f} s")
    else:
        tally, walls, steps = timed_pass(workload, args.seconds, workers,
                                         os.path.join(out_dir, "steps"), probes)
        setup = probes.finish()
        profile = step_profile(steps)
        if len(profile) < 2:
            raise SystemExit(f"benchmark: {len(profile)} step samples; run longer")
        p50, p99 = (statistics.quantiles(profile, n=100)[i] for i in (49, 98))
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "wall_s": statistics.median(walls),
            "sim_tasks_per_s": statistics.median(workload.tasks / w for w in walls),
            "step_ms_p50": 1e3 * p50,
            "step_ms_p99": 1e3 * p99,
            "fi_last": tally.fi_last,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        raw = [g for episodes in steps for gaps in episodes.values() for g in gaps]
        print(f"timed {len(walls)} iterations after one warm-up; {len(profile)} steps, "
              f"each the median of {len(steps)} samples ({len(raw)} in all); "
              f"{sum(1 for g in profile if g > p99)} steps and "
              f"{sum(1 for g in raw if g > p99)} samples beyond p99")
        print("iteration wall_s " + " ".join(f"{w:.4f}" for w in walls))

    for line in tally.notes:
        print(f"note: {line}")
    for reason in sorted(set(tally.reasons))[:20]:
        print(f"failed: {reason}")
    print(f"digest sha256 {tally.digest}")
    print(f"failed_share {_ratio(tally.failed, tally.attempted):.6g} 1")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
