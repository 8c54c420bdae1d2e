"""Golden bytes of a tiny rlb-sac experiment.

Pins the output of the learner end to end: any change to the SAC core, the
observation path or the engine that moves a single bit of ``steps.csv`` or a
checkpointed network shows here.  A deliberate behaviour change updates the
hashes and says why in CHANGES.md.
"""
import hashlib
import os

from lbsim.agent import SacConfig
from lbsim.harness import ExperimentConfig, run_experiment

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
