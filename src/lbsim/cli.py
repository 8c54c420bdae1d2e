"""Command-line front end.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime failures,
a sweep with any failed cell included.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness, metrics
from .engine import ConfigurationError


def _warn(warnings) -> None:
    for warning in dict.fromkeys(warnings):  # each distinct warning once, in order
        print(f"warning: {warning}", file=sys.stderr)


def _cell_warnings(config, rates, policies, seeds) -> list:
    # the cells replace the config's policy and rate: warn about what they run
    cells = harness.sweep_configs(config, rates, policies, seeds)
    return [w for cell in cells.values() for w in harness.config_warnings(cell)]


def _apply_run_overrides(args, config):
    if args.policy is not None:
        config = replace(config, policy=args.policy)
    if args.reward is not None:
        config = replace(config, reward_index=args.reward)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _cmd_run(args) -> int:
    config, _ = harness.load_config(args.config)
    # warn about the config that runs, after the overrides
    config = _apply_run_overrides(args, config)
    _warn(harness.config_warnings(config))
    result = harness.run_experiment(config, seed=args.seed)
    last = result.summaries[-1]
    print(f"run complete: policy={config.policy} seed={result.seed} "
          f"episodes={config.episodes} out={result.out_dir}")
    print(f"last episode: fairness={last.fairness_index:.4f} "
          f"avg_rw={last.avg_residual_workload:.4f} "
          f"max_rw={last.max_residual_workload:.4f} "
          f"mean_reward={last.mean_reward:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    config, _ = harness.load_config(args.config)
    try:
        flags = (harness.float_list(args.rates) if args.rates else None,
                 harness.str_list(args.policies) if args.policies else None,
                 harness.int_list(args.seeds) if args.seeds else None)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse a --rates/--seeds list: {exc}") from exc
    lists = harness.sweep_lists(args.config, config, flags)
    if lists is None:
        raise ConfigurationError(
            "sweep needs --rates/--policies/--seeds or a [sweep] section in the config")
    rates, policies, seeds = lists
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    _warn(_cell_warnings(config, rates, policies, seeds))
    result = harness.run_sweep(config, rates, policies, seeds)
    print(f"sweep complete: {len(result.cells)} cells, out={result.out_dir}")
    failed = [c for c in result.cells if c.status != "ok"]
    for cell in failed:
        print(f"cell failed: policy={cell.policy} rate={cell.rate}: {cell.status}",
              file=sys.stderr)
    return 2 if failed else 0


def _cmd_validate(args) -> int:
    config, warnings = harness.load_config(args.config)
    sweep = harness.sweep_lists(args.config, config)
    if sweep is not None:  # checked as `lbsim sweep` checks them
        warnings = _cell_warnings(config, *sweep)
    _warn(warnings)
    print("config ok")
    print(harness.config_to_manifest(config, sweep=sweep), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lbsim",
        description="Load-balancing simulator: classical and SAC-learned dispatch.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment (one seed)")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--policy", default=None)
    p_run.add_argument("--reward", choices=sorted(metrics.FAIRNESS_INDICES), default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run policies x rates x seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--rates", default=None, help="comma list, e.g. 0.6,0.8,1.0")
    p_sweep.add_argument("--policies", default=None, help="comma list of policy names")
    p_sweep.add_argument("--seeds", default=None, help="comma list of integer seeds")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="parse and echo a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
