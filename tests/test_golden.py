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
    "steps.csv": "a652674faf12d9be652be08b533a0ed06dc10ec82c09b872089be706514ff8e9",
    "actor.head.nn": "24794e314e3c2fd50582901f4fdd25ac23148b790456ae6ba693dddcef870824",
    "actor.lb.nn": "821a8d6a3ece6e72573c78a54d48a11f5825ccebf917c20bbcf7166291f84ce2",
    "actor.server.nn": "0802c41e810102915a87f546539d25539aa70ae86579ec6f24e3e79ac04c0a57",
    "critic.head.nn": "dc0b980c8bc0e3b60f836af3076ac070415963e0e375c1aadfa56ef5c51400dd",
    "critic.lb.nn": "fdd7d5714e25667eb0035fa930515e3179328d4925cabf8526da208f6af16157",
    "critic.server.nn": "b88bb3c5e53764580d9057047d80152a3d4d741c06a27bcd9700531f94b15725",
    "guiding_critic.head.nn": "fc882e3f841e24007e6d115ca5986d21c9dd19509d0e35899cf563f2c462b59f",
    "guiding_critic.lb.nn": "8a52752326661585671106e094514dba48f49c8e2ad6ec696d172a84c4d6ea71",
    "guiding_critic.server.nn": "69e1f853504008bc67f840c6fecd6048840785d01eec58849ad0a8cb93e06db2",
}


def _digests(out: str) -> dict:
    found = {}
    ck = os.path.join(out, "checkpoints", "lb0")
    paths = [("steps.csv", os.path.join(out, "steps.csv"))]
    paths += [(name, os.path.join(ck, name)) for name in sorted(os.listdir(ck))
              if name.endswith(".nn")]
    for name, path in paths:
        with open(path, "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def test_tiny_rlb_sac_run_bytes(tmp_path):
    result = run_experiment(GOLDEN, out_dir=str(tmp_path / "run"))
    assert _digests(result.out_dir) == GOLDEN_SHA256
