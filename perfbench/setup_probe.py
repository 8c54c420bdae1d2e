"""Time one workload's set-up in a fresh interpreter; print the times as JSON.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <seed>

Set-up is ``import lbsim``, ``harness.load_config`` (plus the workload's
schedule overrides) and ``harness.build_policies``, which builds the SAC
networks for ``rlb-sac``.  Interpreter start-up is not counted.
"""
import json
import os
import sys
import time

import workloads


def main() -> None:
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    from lbsim import harness
    imported = time.perf_counter()

    config = workloads.load(root, workload, smoke=False)
    loaded = time.perf_counter()

    policies = harness.build_policies(config, config.topology(seed), seed)
    built = time.perf_counter()
    if not policies:
        raise SystemExit("build_policies returned no policies")
    print(json.dumps({
        "import_s": imported - started,
        "load_config_s": loaded - imported,
        "build_policies_s": built - loaded,
        "setup_s": built - started,
    }))


if __name__ == "__main__":
    main()
