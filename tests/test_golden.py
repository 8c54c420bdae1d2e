"""Golden bytes of tiny experiments: one rlb-sac run and five baseline runs.

Pins the output of the learner end to end: any change to the SAC core, the
observation path or the engine that moves a single bit of ``steps.csv`` or a
checkpointed network shows here.  The baseline runs pin the engine and the
dispatch policies alone: two-LB routing and a filled backlog on 2lb-8s in
overload, and SED's random tie-break on 1lb-2s.  ``steps.csv`` holds only
sums at each boundary, so two of them also pin every task's placement and
times.  A deliberate behaviour change updates the hashes and says why in
CHANGES.md.
"""
import hashlib
import os
from dataclasses import replace

import pytest

from lbsim import engine, harness
from lbsim.agent import SacConfig
from lbsim.harness import PRESETS, ExperimentConfig, run_experiment

GOLDEN = ExperimentConfig(
    lbs=1, servers=((4, 8), (2, 4)), rate_fraction=0.9,
    distribution="identical", mean_workload=0.1, policy="rlb-sac",
    episodes=2, first_episode_duration=10.0, episode_increment=5.0,
    seeds=(3,),
    sac=SacConfig(batch_size=8, buffer_capacity=32, hidden=16),
)

GOLDEN_SHA256 = {
    "steps.csv": "1c24ec632fd4e9fad466b830eb66868a86b50a4a0fbd49a332e079a71a19c2e3",
    "agent.ckpt": "e2ff43b288db11788fe47c5e4637ddf1c029893b24e738ba590de74fec8591c8",
}


def _digests(out: str) -> dict:
    found = {}
    ck = os.path.join(out, "checkpoints", "lb0")
    paths = [("steps.csv", os.path.join(out, "steps.csv"))]
    paths += [(name, os.path.join(ck, name)) for name in sorted(os.listdir(ck))]
    for name, path in paths:
        with open(path, "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def test_tiny_rlb_sac_run_bytes(tmp_path):
    result = run_experiment(GOLDEN, out_dir=str(tmp_path / "run"))
    assert _digests(result.out_dir) == GOLDEN_SHA256


def _preset(name: str) -> dict:
    lbs, plain = PRESETS[name]
    return {"lbs": lbs, "servers": tuple((p, 2 * p) for p in plain)}


BASELINE = ExperimentConfig(
    **_preset("2lb-8s"), rate_fraction=1.3, distribution="exponential",
    mean_workload=0.1, episodes=2, first_episode_duration=20.0, episode_increment=5.0,
    seeds=(3,),
)

BASELINE_RUNS = {
    "ecmp-2lb-8s": replace(BASELINE, policy="ecmp"),
    "wcmp-2lb-8s": replace(BASELINE, policy="wcmp"),
    "lsq-2lb-8s": replace(BASELINE, policy="lsq"),
    "sed-2lb-8s": replace(BASELINE, policy="sed"),
    "sed-1lb-2s": replace(BASELINE, **_preset("1lb-2s"), rate_fraction=0.9,
                          distribution="identical", policy="sed"),
}

BASELINE_SHA256 = {
    "ecmp-2lb-8s": ("51189ab3ebef7eeb53eb32ecae0dcbf32720d9c88774bc3f3ca7a7ac78131f93",
                    "f329163e23652b596f348203ccee0dc609d18981af535b62dbc4c814b06c01d2"),
    "wcmp-2lb-8s": ("4adc409df815afdc20fc7ac43d9c5c7f00df0af8a5d519b5b1ee8853889513da",
                    "264352e4644bd0aade22e72cf45c52f7b09841860f5127c181dfdb1c11d20b19"),
    "lsq-2lb-8s": ("a491fd3bd6ba18a8757ab5201e0959b18adfcf6e4a7b50810451a007273e3bd8",
                   "2d1ca561867fef3174aa3ea5c61c2776a696b181d61b1a4a7b69866afc35dff3"),
    "sed-2lb-8s": ("8084fe7a6e0d5b5ec069af30e408ac95a0d769c1b8d4409ec7848f48d971325e",
                   "59928ae0f8ae424880a325832d8339f762cbbf93d043f7acaac59ce26cfddf63"),
    "sed-1lb-2s": ("a8444c27f172db5afe90a2a69e90d67b6a9427dbaea621455400cd19d49af1e1",
                   "dc09228fd7aa4da6591a8c742931a1c175f97676b9ba0c4924cb20d33f0f37be"),
}


@pytest.mark.parametrize("name", sorted(BASELINE_RUNS))
def test_baseline_run_bytes(tmp_path, name):
    out = run_experiment(BASELINE_RUNS[name], out_dir=str(tmp_path / name)).out_dir
    found = []
    for csv in ("steps.csv", "cdf.csv"):
        with open(os.path.join(out, csv), "rb") as fh:
            found.append(hashlib.sha256(fh.read()).hexdigest())
    assert tuple(found) == BASELINE_SHA256[name]


# SHA-256 of repr() of every task's (server_id, dispatch_time,
# service_start_time, completion_time, remaining_work) after the first
# episode; repr of a float round-trips, so this pins every bit
TASK_SHA256 = {
    "sed-2lb-8s": "771fa1e05fda5e74a8ecb1522b07845bed5c4ca5458f0b3e594c94898061f699",
    "sed-1lb-2s": "bb884e9b3dd1cd1ad6cecf87d064e6fff2588b967bae552113235dd40a5658cc",
}


@pytest.mark.parametrize("name", sorted(TASK_SHA256))
def test_baseline_task_fields(monkeypatch, name):
    traces = []

    def recording(*args, **kwargs):
        traces.append(engine.run_episode(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness, "run_episode", recording)
    run_experiment(replace(BASELINE_RUNS[name], episodes=1), write_files=False)
    (trace,) = traces
    fields = [(t.server_id, t.dispatch_time, t.service_start_time, t.completion_time,
               t.remaining_work) for t in trace.tasks]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == TASK_SHA256[name]
