import glob
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from lbsim import cli, harness
from lbsim.agent import SacConfig
from lbsim.engine import ConfigurationError
from lbsim.harness import (
    ExperimentConfig,
    config_to_manifest,
    load_config,
    read_csv,
    read_episodes,
    read_steps,
    read_table,
    run_experiment,
    run_sweep,
    validate_config,
)

TINY = ExperimentConfig(
    lbs=1, servers=((4, 8), (2, 4)), rate_fraction=0.8,
    distribution="identical", mean_workload=0.1, policy="sed",
    episodes=2, first_episode_duration=5.0, episode_increment=1.0,
    seeds=(0,),
)

# Out-of-range values for every FIELDS row that has a check.
NAN, INF = math.nan, math.inf
BAD_VALUES = {
    "rate": (0.0, -0.5, NAN, INF),
    "distribution": ("uniform",),
    "mean": (0.0, -INF, NAN),
    "policy": ("lru",),
    "episodes": (0, -1),
    "step_interval": (0.0, NAN, INF),
    "first_episode_duration": (-1.0, NAN, INF),
    "episode_increment": (-0.5, NAN, INF),
    "seeds": ((-1,), (0, -3), (2, 2), (3, 1, 3)),
    "reward": ("fair",),
    "learning_rate": (0.0, -1.0, NAN, INF),
    "gamma": (-0.1, 1.5, NAN),
    "tau": (0.0, 1.5, NAN),
    "hidden": (0, -4),
    "updates_per_step": (0, -1),
    "log_alpha_init": (NAN, INF, -INF),
}
CHECKED_ROWS = [row for row in harness.FIELDS if row.check]


class TestValidateConfig:
    def test_empty_config_needs_topology(self):
        with pytest.raises(ConfigurationError, match="topology missing"):
            validate_config("")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            validate_config("[topology]\npreset = 1lb-2s\n[run]\nseeds =\n")
        with pytest.raises(ConfigurationError, match="seeds"):
            replace(TINY, seeds=())

    @pytest.mark.parametrize("batch, capacity", [(64, 0), (64, 32), (64, 63), (0, 0), (-1, 3000)])
    def test_buffer_smaller_than_batch_rejected(self, batch, capacity):
        # with fewer slots than batch_size the agent would never update
        with pytest.raises(ConfigurationError, match="batch_size <= buffer_capacity"):
            validate_config("[topology]\npreset = 1lb-2s\n"
                            f"[sac]\nbatch_size = {batch}\nbuffer_capacity = {capacity}\n")
        with pytest.raises(ConfigurationError, match="batch_size <= buffer_capacity"):
            replace(TINY, policy="rlb-sac",
                    sac=SacConfig(batch_size=batch, buffer_capacity=capacity))

    def test_buffer_equal_to_batch_accepted(self):
        config, _ = validate_config(
            "[topology]\npreset = 1lb-2s\n[sac]\nbatch_size = 8\nbuffer_capacity = 8\n")
        assert (config.sac.batch_size, config.sac.buffer_capacity) == (8, 8)

    def test_preset_expansion(self):
        config, warnings = validate_config("[topology]\npreset = 1lb-2s\n")
        assert config.lbs == 1
        assert config.servers == ((4, 8), (2, 4))
        assert warnings == []
        # Appendix-style defaults
        assert config.episodes == 20
        assert config.step_interval == 0.5
        assert config.first_episode_duration == 60.0
        assert config.sac.batch_size == 64
        assert config.sac.buffer_capacity == 3000
        assert config.sac.learning_rate == 1e-3

    def test_overload_rate_warns(self):
        config, warnings = validate_config(
            "[topology]\npreset = 1lb-2s\n[traffic]\nrate = 1.3\n")
        assert config.rate_fraction == 1.3
        assert any("overload" in w for w in warnings)

    def test_cap_below_processors_rejected(self):
        with pytest.raises(ConfigurationError, match="p_hat"):
            validate_config("[topology]\nservers = 4:2\n")

    def test_explicit_servers_with_default_cap(self):
        config, _ = validate_config("[topology]\nlbs = 2\nservers = 4, 2:3\n")
        assert config.lbs == 2
        assert config.servers == ((4, 8), (2, 3))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            validate_config("[topology]\npreset = 1lb-2s\n[run]\npolicy = lru\n")

    def test_baseline_with_sac_options_warns(self):
        _, warnings = validate_config(
            "[topology]\npreset = 1lb-2s\n[run]\npolicy = sed\n[sac]\nhidden = 32\n")
        assert any("ignored" in w for w in warnings)

    def test_warnings_follow_the_config_that_runs(self):
        config, warnings = validate_config(
            "[topology]\npreset = 1lb-2s\n[traffic]\nrate = 1.2\n"
            "[run]\npolicy = sed\n[sac]\nhidden = 32\n")
        assert warnings == harness.config_warnings(config)
        assert len(warnings) == 2
        assert harness.config_warnings(replace(config, policy="rlb-sac", rate_fraction=0.9)) == []

    def test_baseline_manifest_roundtrip_gives_no_warnings(self):
        # a manifest writes every [sac] key at its default, which is not a
        # [sac] option the baseline ignores
        clone, warnings = validate_config(config_to_manifest(TINY))
        assert clone == TINY
        assert warnings == []

    def test_percent_is_literal(self):
        config, _ = validate_config("[topology]\npreset = 1lb-2s\n"
                                    "[run]\npolicy = sed\nout = x/%(policy)s%1\n")
        assert config.out_dir == "x/%(policy)s%1"

    def test_manifest_roundtrip(self):
        config, _ = validate_config("[topology]\npreset = 2lb-4s\n"
                                    "[run]\npolicy = lsq\nseeds = 3,4\n")
        text = config_to_manifest(config)
        clone, warnings = validate_config(text)
        assert clone == config

    def test_manifest_carries_every_field(self):
        sac = SacConfig(learning_rate=3e-4, batch_size=32, buffer_capacity=500,
                        gamma=0.95, tau=0.01, hidden=16, updates_per_step=2,
                        log_alpha_init=-3.0, include_duration=False)
        config = ExperimentConfig(
            lbs=2, servers=((3, 5), (1, 1)), rate_fraction=0.7,
            distribution="exponential", mean_workload=0.2, policy="lsq", episodes=3,
            step_interval=0.25, first_episode_duration=30.0, episode_increment=2.5,
            seeds=(5, 6), reward_index="bossaer", out_dir="elsewhere", sac=sac)
        # a field left at its default would round-trip even if the manifest
        # dropped it, so every field is moved away from its default
        for obj, default in ((config, ExperimentConfig()), (sac, SacConfig())):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
        clone, _ = validate_config(config_to_manifest(config))
        assert clone == config

    def test_unknown_key_rejected(self):
        # a misspelt key used to load the default and validate as "config ok"
        with pytest.raises(ConfigurationError, match="learnig_rate"):
            validate_config("[topology]\npreset = 1lb-2s\n[sac]\nlearnig_rate = 0.5\n")
        with pytest.raises(ConfigurationError, match=r"\[trafic\]"):
            validate_config("[topology]\npreset = 1lb-2s\n[trafic]\nrate = 0.5\n")
        # keys of options removed before manifests were versioned load no more
        for section, key in (("sac", "log_std_init = 0"),
                             ("sac", "value_target_uses_guiding_actor = false"),
                             ("run", "reward_literal = false"),
                             ("run", "residual_norm = processors"),
                             ("run", "tie_break = random")):
            with pytest.raises(ConfigurationError, match="unknown key"):
                validate_config(f"[topology]\npreset = 1lb-2s\n[{section}]\n{key}\n")

    def test_bad_values_cover_every_checked_row(self):
        assert set(BAD_VALUES) == {row.key for row in CHECKED_ROWS}

    @pytest.mark.parametrize("row, value", [
        pytest.param(row, value, id=f"{row.key}={value}")
        for row in CHECKED_ROWS for value in BAD_VALUES.get(row.key, ())])
    def test_bad_value_rejected_on_every_path(self, row, value):
        # INI text, a config built in code and a replace() result share one check
        text = f"[topology]\npreset = 1lb-2s\n[{row.section}]\n{row.key} = {row.kind[1](value)}\n"
        if row.section == "sac":
            sac = {row.attr: value}
            paths = (lambda: validate_config(text),
                     lambda: ExperimentConfig(sac=SacConfig(**sac)),
                     lambda: replace(TINY, sac=replace(TINY.sac, **sac)))
        else:
            paths = (lambda: validate_config(text),
                     lambda: ExperimentConfig(**{row.attr: value}),
                     lambda: replace(TINY, **{row.attr: value}))
        messages = []
        for path in paths:
            with pytest.raises(ConfigurationError) as info:
                path()
            messages.append(str(info.value))
        assert f"{row.key} " in messages[0]
        assert messages == [messages[0]] * 3

    def test_first_bad_row_reported(self):
        text = ("[topology]\npreset = 1lb-2s\n[traffic]\nrate = 0\n"
                "[run]\nreward = fair\nseeds =\n[sac]\ntau = 0\n")
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            validate_config(text)
        with pytest.raises(ConfigurationError, match="unknown reward 'fair'"):
            validate_config(text.replace("rate = 0", "rate = 0.5"))

    def test_shipped_configs_validate(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = glob.glob(os.path.join(root, "configs", "*.ini"))
        paths.append(os.path.join(root, "perfbench", "wide-exp.ini"))
        assert len(paths) > 1
        for path in paths:
            load_config(path)
        # the README's example config, copied verbatim
        with open(os.path.join(root, "README.md")) as fh:
            readme = fh.read()
        block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        config, warnings = validate_config(block)
        assert (config.policy, config.seeds, warnings) == ("rlb-sac", (2, 3, 4), [])


class TestRunExperiment:
    def test_episode_schedule(self, tmp_path):
        config = replace(TINY, episodes=3, out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        assert [s.episode for s in result.summaries] == [0, 1, 2]
        steps = read_steps(os.path.join(result.out_dir, "steps.csv"))
        # durations 5, 6, 7 with 0.5 s boundaries -> 10/12/14 boundaries
        per_episode = {}
        for row in steps:
            per_episode.setdefault(row[0], set()).add(row[1])
        assert sorted(len(v) for v in per_episode.values()) == [10, 12, 14]

    def test_baseline_run_writes_no_checkpoints(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        assert not os.path.exists(os.path.join(result.out_dir, "checkpoints"))
        for name in ("steps.csv", "episodes.csv", "cdf.csv", "manifest.ini"):
            assert os.path.exists(os.path.join(result.out_dir, name))

    def test_learning_run_writes_checkpoints(self, tmp_path):
        config = replace(
            TINY, policy="rlb-sac", out_dir=str(tmp_path / "run"),
            sac=replace(TINY.sac, batch_size=8, buffer_capacity=64))
        result = run_experiment(config)
        ck = os.path.join(result.out_dir, "checkpoints", "lb0")
        assert os.listdir(ck) == ["agent.ckpt"]

    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        outs = []
        for k in range(2):
            config = replace(TINY, out_dir=str(tmp_path / f"run{k}"))
            outs.append(run_experiment(config).out_dir)
        for name in ("steps.csv", "cdf.csv"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name
        # manifests agree except for the output directory itself
        ma = [l for l in open(os.path.join(outs[0], "manifest.ini")) if not l.startswith("out =")]
        mb = [l for l in open(os.path.join(outs[1], "manifest.ini")) if not l.startswith("out =")]
        assert ma == mb
        # episodes.csv matches except the wall-clock column
        ea = read_episodes(os.path.join(outs[0], "episodes.csv"))
        eb = read_episodes(os.path.join(outs[1], "episodes.csv"))
        for x, y in zip(ea, eb):
            assert (x.episode, x.fairness_index, x.avg_residual_workload,
                    x.max_residual_workload, x.mean_reward) == \
                   (y.episode, y.fairness_index, y.avg_residual_workload,
                    y.max_residual_workload, y.mean_reward)

    def test_manifest_reproduces_run(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "a"))
        first = run_experiment(config)
        loaded, _ = load_config(os.path.join(first.out_dir, "manifest.ini"))
        second = run_experiment(replace(loaded, out_dir=str(tmp_path / "b")))
        a = open(os.path.join(first.out_dir, "steps.csv"), "rb").read()
        b = open(os.path.join(second.out_dir, "steps.csv"), "rb").read()
        assert a == b

    def test_multi_lb_run(self, tmp_path):
        config = replace(TINY, lbs=2, out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        steps = read_steps(os.path.join(result.out_dir, "steps.csv"))
        assert {row[2] for row in steps} == {0, 1}  # both LB ids present

    def test_one_episode_of_tasks_in_memory(self, monkeypatch):
        # when episode 1 is generated, nothing of episode 0 still holds its
        # tasks: only `kept` and getrefcount's own argument refer to one
        kept, refcounts = [], []
        generate = harness.traffic.generate

        def spy(spec, topology, duration, episode):
            if episode == 1:
                refcounts.append(sys.getrefcount(kept[0]))
            tasks = generate(spec, topology, duration, episode=episode)
            if episode == 0:
                kept.append(tasks[0])
            return tasks

        monkeypatch.setattr(harness.traffic, "generate", spy)
        run_experiment(TINY, write_files=False)
        assert refcounts == [2]

    def test_rerun_into_out_dir_leaves_no_earlier_checkpoint(self, tmp_path):
        # a 1-LB run into a 2-LB run's directory used to keep checkpoints/lb1
        out = str(tmp_path / "run")
        config = replace(TINY, policy="rlb-sac", episodes=1, out_dir=out,
                         sac=replace(TINY.sac, batch_size=8, buffer_capacity=64))
        run_experiment(replace(config, lbs=2))
        assert sorted(os.listdir(os.path.join(out, "checkpoints"))) == ["lb0", "lb1"]
        run_experiment(config)
        assert os.listdir(os.path.join(out, "checkpoints")) == ["lb0"]

    def test_failed_rerun_leaves_no_earlier_artifact(self, tmp_path, monkeypatch):
        # a run that raised used to leave its manifest and partial steps.csv
        # next to the earlier run's episodes.csv, cdf.csv and checkpoints
        out = str(tmp_path / "run")
        run_experiment(replace(TINY, policy="rlb-sac", episodes=1, out_dir=out,
                               sac=replace(TINY.sac, batch_size=8, buffer_capacity=64)))
        real, calls = harness.run_episode, []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_episode", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(replace(TINY, out_dir=out))
        assert sorted(os.listdir(out)) == ["manifest.ini", "steps.csv"]
        assert {row[0] for row in read_steps(os.path.join(out, "steps.csv"))} == {0}

    def test_run_and_sweep_do_not_share_an_out_dir(self, tmp_path):
        out = str(tmp_path / "out")
        run_sweep(replace(TINY, out_dir=out), rates=[0.8], policies=["sed"], seeds=[0],
                  workers=1)
        run_experiment(replace(TINY, out_dir=out))
        assert sorted(os.listdir(out)) == ["cdf.csv", "episodes.csv", "manifest.ini",
                                           "steps.csv"]
        run_sweep(replace(TINY, out_dir=out), rates=[0.8], policies=["sed"], seeds=[0],
                  workers=1)
        assert sorted(os.listdir(out)) == ["manifest.ini", "table.csv"]

    def test_csv_roundtrip_values(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        episodes = read_episodes(os.path.join(result.out_dir, "episodes.csv"))
        for parsed, summary in zip(episodes, result.summaries):
            assert parsed.fairness_index == summary.fairness_index
            assert parsed.avg_residual_workload == summary.avg_residual_workload
        header, rows = read_csv(os.path.join(result.out_dir, "cdf.csv"))
        assert header == ["residual_workload", "cum_prob"]
        values = [float(r[0]) for r in rows]
        assert values == sorted(values)
        assert float(rows[-1][1]) == 1.0

    def test_csv_blank_lines_and_malformed_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n\n4,5,6,7\n")
        # the last column keeps any further commas
        assert read_csv(str(path)) == (["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6,7"]])
        path.write_text("a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match=r"malformed row '4,5'"):
            read_csv(str(path))
        path.write_text("\n")
        with pytest.raises(ValueError, match="no header row"):
            read_csv(str(path))


class TestSweep:
    def test_single_cell_equals_run(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        sweep = run_sweep(config, rates=[0.8], policies=["sed"], seeds=[0],
                          workers=1)
        run = run_experiment(replace(config, policy="sed", rate_fraction=0.8),
                             seed=0, write_files=False)
        cell = sweep.cells[0]
        last = run.summaries[-1]
        assert cell.fairness_index == last.fairness_index
        assert cell.avg_residual_workload == last.avg_residual_workload
        assert cell.max_residual_workload == last.max_residual_workload

    def test_median_of_three_seeds(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        sweep = run_sweep(config, rates=[0.8], policies=["lsq"], seeds=[0, 1, 2],
                          workers=1)
        fis = []
        for seed in (0, 1, 2):
            res = run_experiment(replace(config, policy="lsq"), seed=seed,
                                 write_files=False)
            fis.append(res.summaries[-1].fairness_index)
        assert sweep.cells[0].fairness_index == sorted(fis)[1]

    def test_table_layout_and_roundtrip(self, tmp_path):
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        sweep = run_sweep(config, rates=[0.6, 0.8], policies=["sed", "lsq"],
                          seeds=[0], workers=2)
        table = read_table(os.path.join(sweep.out_dir, "table.csv"))
        assert [(r[0], r[1]) for r in table] == \
            [("sed", 0.6), ("sed", 0.8), ("lsq", 0.6), ("lsq", 0.8)]
        assert all(r[5] == "ok" for r in table)

    def test_partial_failure_recorded(self, tmp_path, monkeypatch):
        import lbsim.harness as hmod

        real = hmod.run_experiment

        def flaky(config, seed=None, out_dir=None, write_files=True):
            if config.policy == "lsq":
                raise RuntimeError("boom")
            return real(config, seed=seed, out_dir=out_dir, write_files=write_files)

        monkeypatch.setattr(hmod, "run_experiment", flaky)
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        sweep = run_sweep(config, rates=[0.8], policies=["sed", "lsq"], seeds=[0],
                          workers=1)
        by_policy = {c.policy: c for c in sweep.cells}
        assert by_policy["sed"].status == "ok"
        assert "boom" in by_policy["lsq"].status
        assert math.isnan(by_policy["lsq"].fairness_index)

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(TINY, rates=[], policies=["sed"], seeds=[0])

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, tmp_path, workers):
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(config, rates=[0.8], policies=["sed"], seeds=[0], workers=workers)
        assert not os.path.exists(config.out_dir)

    @pytest.mark.parametrize("rates, policies, match", [
        ([0.8, -0.5], ["sed"], "rate must be positive"),
        ([0.8], ["sed", "lru"], "unknown policy 'lru'")])
    def test_bad_cell_rejected_before_any_cell_runs(self, tmp_path, monkeypatch,
                                                   rates, policies, match):
        import lbsim.harness as hmod

        ran = []
        monkeypatch.setattr(hmod, "_sweep_cell", ran.append)
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        with pytest.raises(ConfigurationError, match=match):
            run_sweep(config, rates=rates, policies=policies, seeds=[0], workers=1)
        assert ran == []
        assert not os.path.exists(config.out_dir)

    @pytest.mark.parametrize("lbs, servers, match", [
        (1, (), "need at least one server"), (0, ((2, 4),), "need at least one LB"),
        (1, ((2, 1),), "invalid")])
    def test_bad_topology_rejected_before_any_cell_runs(self, tmp_path, monkeypatch,
                                                        lbs, servers, match):
        import lbsim.harness as hmod

        ran = []
        monkeypatch.setattr(hmod, "_sweep_cell", ran.append)
        config = replace(TINY, lbs=lbs, servers=servers, out_dir=str(tmp_path / "sweep"))
        with pytest.raises(ConfigurationError, match=match):
            run_sweep(config, rates=[0.8], policies=["sed"], seeds=[0], workers=1)
        assert ran == []
        assert not os.path.exists(config.out_dir)

    @pytest.mark.parametrize("rates, policies, seeds, match", [
        ([0.9, 0.9], ["sed"], [0], "rates must be distinct, 0.9 repeats"),
        ([0.8, 0.9, 0.8], ["sed"], [0], "rates must be distinct, 0.8 repeats"),
        ([0.8], ["sed", "lsq", "sed"], [0], "policies must be distinct, sed repeats"),
        ([0.8], ["sed"], [3, 3, 2], "seeds must be distinct, 3 repeats")])
    def test_repeated_entry_rejected_before_any_cell_runs(self, tmp_path, monkeypatch,
                                                          rates, policies, seeds, match):
        # a repeated seed would weigh twice in the cell median, a repeated
        # rate or policy would run its cells twice and write two equal rows
        import lbsim.harness as hmod

        ran = []
        monkeypatch.setattr(hmod, "_sweep_cell", ran.append)
        config = replace(TINY, out_dir=str(tmp_path / "sweep"))
        with pytest.raises(ConfigurationError, match=match):
            run_sweep(config, rates=rates, policies=policies, seeds=seeds, workers=1)
        assert ran == []
        assert not os.path.exists(config.out_dir)

    def test_heaviest_cells_run_first(self, tmp_path, monkeypatch):
        import lbsim.harness as hmod

        order = []
        real = hmod._sweep_cell

        def spy(job):
            order.append(job[1:])
            return real(job)

        monkeypatch.setattr(hmod, "_sweep_cell", spy)
        config = replace(TINY, episodes=1, first_episode_duration=2.0)
        run_sweep(config, rates=[0.6, 0.9, 0.7], policies=["sed", "lsq"], seeds=[0, 1],
                  workers=1, write_files=False)
        assert order == [(p, r, s) for r in (0.9, 0.7, 0.6) for p in ("sed", "lsq")
                         for s in (0, 1)]

    def test_sweep_manifest_rerun_bitwise(self, tmp_path):
        # unsorted rates: the heaviest-first order must not reach table.csv
        config = replace(TINY, out_dir=str(tmp_path / "a"))
        run_sweep(config, rates=[0.6, 1.0, 0.8], policies=["sed", "ecmp"], seeds=[0, 1],
                  workers=2)
        loaded, _ = load_config(os.path.join(str(tmp_path / "a"), "manifest.ini"))
        rates, policies, seeds = harness.load_sweep_lists(
            os.path.join(str(tmp_path / "a"), "manifest.ini"))
        run_sweep(replace(loaded, out_dir=str(tmp_path / "b")), rates=rates,
                  policies=policies, seeds=seeds, workers=1)
        a = open(os.path.join(str(tmp_path / "a"), "table.csv"), "rb").read()
        b = open(os.path.join(str(tmp_path / "b"), "table.csv"), "rb").read()
        assert a == b


class TestCli:
    def _write_config(self, tmp_path, extra=""):
        path = tmp_path / "config.ini"
        path.write_text(
            "[topology]\npreset = 1lb-2s\n"
            "[traffic]\nrate = 0.8\n"
            "[run]\npolicy = sed\nepisodes = 2\n"
            "first_episode_duration = 5\nepisode_increment = 1\n" + extra)
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert cli.main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out

    @pytest.mark.parametrize("key, value, match", [
        ("rates", "abc", "cannot parse 'abc'"), ("policies", "lru", "unknown policy 'lru'"),
        ("seeds", "-1", "seeds must be >= 0"), ("rates", "0.9,0.9", "0.9 repeats")],
        ids=["rates=abc", "policies=lru", "seeds=-1", "rates=0.9,0.9"])
    def test_validate_refuses_what_sweep_refuses(self, tmp_path, capsys, key, value, match):
        lists = {"rates": "0.8", "policies": "sed", "seeds": "0", key: value}
        path = self._write_config(
            tmp_path, "[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in lists.items()))
        out = str(tmp_path / "out")
        assert cli.main(["validate", "--config", path]) == 1
        assert cli.main(["sweep", "--config", path, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.count(match) == 2
        assert "config ok" not in captured.out
        assert not os.path.exists(out)

    def test_validate_echoes_sweep_lists(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_sweep(replace(TINY, out_dir=out), rates=[0.6, 0.8], policies=["sed", "lsq"],
                  seeds=[0, 1], workers=1)
        manifest = os.path.join(out, "manifest.ini")
        assert cli.main(["validate", "--config", manifest]) == 0
        with open(manifest) as fh:
            assert capsys.readouterr().out == "config ok\n" + fh.read()
        # a list left out falls back to the config's own policy, rate or seeds
        path = self._write_config(tmp_path, "[sweep]\nrates = 0.5,0.7\n")
        assert cli.main(["validate", "--config", path]) == 0
        echo = capsys.readouterr().out
        assert echo.endswith("[sweep]\nrates = 0.5,0.69999999999999996\n"
                             "policies = sed\nseeds = 0\n")

    def test_missing_config_is_config_error(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_bad_policy_flag_is_config_error(self, tmp_path):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", path, "--policy", "nope", "--out", out]) == 1
        assert not os.path.exists(out)

    def test_run_and_outputs(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", path, "--out", out, "--seed", "1"]) == 0
        assert os.path.exists(os.path.join(out, "steps.csv"))
        stdout = capsys.readouterr().out
        assert "run complete" in stdout

    def test_sweep_requires_lists(self, tmp_path):
        path = self._write_config(tmp_path)
        assert cli.main(["sweep", "--config", path]) == 1

    @pytest.mark.parametrize("extra, flags", [
        ("[sweep]\nrates = 0.6,0.8\n", []), ("", ["--rates", "0.6,0.8"])],
        ids=["sweep-section", "flag"])
    def test_sweep_fills_missing_lists_from_the_config(self, tmp_path, monkeypatch,
                                                       extra, flags):
        # as `validate` echoes it: a list given neither way is the config's own
        monkeypatch.setenv("LBSIM_WORKERS", "1")
        path = self._write_config(tmp_path, extra)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, "--out", out] + flags) == 0
        table = read_table(os.path.join(out, "table.csv"))
        assert [(row[0], row[1], row[5]) for row in table] == [
            ("sed", 0.6, "ok"), ("sed", 0.8, "ok")]
        rates, policies, seeds = harness.load_sweep_lists(os.path.join(out, "manifest.ini"))
        assert (rates, policies, seeds) == ((0.6, 0.8), ("sed",), (0,))

    def test_malformed_list_flag_is_config_error(self, tmp_path):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, "--rates", "0.8,x",
                         "--policies", "sed", "--seeds", "0", "--out", out]) == 1
        assert cli.main(["sweep", "--config", path, "--rates", "0.8",
                         "--policies", "sed", "--seeds", "0,y", "--out", out]) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("extra", [
        "seeds =\n", "[sac]\nbuffer_capacity = 0\n",
        "[sac]\nbatch_size = 64\nbuffer_capacity = 32\n", "step_interval = nan\n",
        "[sac]\nhidden = 0\n", "[sac]\nupdates_per_step = 0\n", "[sac]\ngamma = 1.5\n",
        "[sac]\ntau = 0\n", "[sac]\nlearning_rate = -1\n"])
    def test_unrunnable_config_is_config_error(self, tmp_path, capsys, extra):
        path = self._write_config(tmp_path, extra)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", path, "--policy", "rlb-sac", "--out", out]) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("old, new", [
        ("rate = 0.8", "rate = nan"),
        ("first_episode_duration = 5", "first_episode_duration = inf")])
    def test_nonfinite_value_is_config_error(self, tmp_path, capsys, old, new):
        path = tmp_path / "config.ini"
        self._write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        out = str(tmp_path / "out")
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert cli.main(["run", "--config", str(path), "--policy", "rlb-sac",
                         "--out", out]) == 1
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_sweep_bad_rate_is_config_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, "--rates=-0.5,0.9", "--policies", "sed",
                         "--seeds", "0", "--out", out]) == 1
        assert "rate must be positive" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_bad_workers_env_is_config_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("LBSIM_WORKERS", value)
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, "--rates", "0.8",
                         "--policies", "sed", "--seeds", "0", "--out", out]) == 1
        assert "LBSIM_WORKERS" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_sweep_with_failed_cell_exits_2(self, tmp_path, monkeypatch, capsys):
        import lbsim.harness as hmod

        real = hmod.run_episode

        def flaky(topology, policies, *args, **kwargs):
            if policies[0].name == "lsq":
                raise RuntimeError("boom")
            return real(topology, policies, *args, **kwargs)

        monkeypatch.setattr(hmod, "run_episode", flaky)
        monkeypatch.setenv("LBSIM_WORKERS", "1")
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, "--rates", "0.8",
                         "--policies", "sed,lsq", "--seeds", "0", "--out", out]) == 2
        table = read_table(os.path.join(out, "table.csv"))
        assert [(r[0], r[5]) for r in table] == \
            [("sed", "ok"), ("lsq", "seed 0: RuntimeError: boom")]
        err = capsys.readouterr().err
        assert "cell failed: policy=lsq rate=0.8: seed 0: RuntimeError: boom" in err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        path = self._write_config(tmp_path, "seeds = -1\n")
        assert cli.main(["validate", "--config", path]) == 1
        assert cli.main(["run", "--config", path, "--out", out]) == 1
        path = self._write_config(tmp_path)
        assert cli.main(["run", "--config", path, "--seed", "-3", "--out", out]) == 1
        assert cli.main(["sweep", "--config", path, "--rates", "0.8", "--policies", "sed",
                         "--seeds", "-2", "--out", out]) == 1
        assert capsys.readouterr().err.count("seeds must be >= 0") == 4
        assert not os.path.exists(out)

    def test_rerun_from_manifest_with_percent_in_out(self, tmp_path, capsys):
        self._write_config(tmp_path, "[sac]\nbatch_size = 8\nbuffer_capacity = 64\n")
        path = tmp_path / "config.ini"
        path.write_text(path.read_text().replace("policy = sed", "policy = rlb-sac"))
        first, second = str(tmp_path / "run%1"), str(tmp_path / "rerun%(policy)s")
        assert cli.main(["run", "--config", str(path), "--seed", "1", "--out", first]) == 0
        assert cli.main(["run", "--config", os.path.join(first, "manifest.ini"),
                         "--out", second]) == 0
        assert "warning" not in capsys.readouterr().err
        for name in ("steps.csv", os.path.join("checkpoints", "lb0", "agent.ckpt")):
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_run_warns_for_the_overridden_policy(self, tmp_path, capsys):
        # the warnings are those of the config after --policy, not of the file's
        sac = "[sac]\nbatch_size = 8\nbuffer_capacity = 64\n"
        path = self._write_config(tmp_path, sac)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", path, "--policy", "rlb-sac", "--out", out]) == 0
        assert "warning" not in capsys.readouterr().err
        path = tmp_path / "config.ini"
        path.write_text(path.read_text().replace("policy = sed", "policy = rlb-sac"))
        assert cli.main(["run", "--config", str(path), "--policy", "sed", "--out", out]) == 0
        assert "warning: [sac] options are ignored by baseline policy 'sed'" in \
            capsys.readouterr().err

    def test_sweep_warns_once_for_the_cells_it_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LBSIM_WORKERS", "1")
        path = tmp_path / "config.ini"
        self._write_config(tmp_path, "[sac]\nhidden = 8\n")
        path.write_text(path.read_text().replace("policy = sed", "policy = rlb-sac")
                        .replace("rate = 0.8", "rate = 1.2"))
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", str(path), "--rates", "0.6,0.8",
                         "--policies", "sed", "--seeds", "0", "--out", out]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert "warning: [sac] options are ignored by baseline policy 'sed'" in err

    @pytest.mark.parametrize("lists", [
        ["--rates", "0.8,0.8", "--policies", "sed", "--seeds", "0"],
        ["--rates", "0.8", "--policies", "sed,sed", "--seeds", "0"],
        ["--rates", "0.8", "--policies", "sed", "--seeds", "3,3,2"]])
    def test_sweep_repeated_entry_is_config_error(self, tmp_path, capsys, lists):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", path, *lists, "--out", out]) == 1
        assert "must be distinct" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_sweep_cli(self, tmp_path):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        code = cli.main(["sweep", "--config", path, "--rates", "0.8",
                         "--policies", "sed,lsq", "--seeds", "0", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "table.csv"))


# A fresh interpreter reports which of these modules set-up, a run and a
# one-worker sweep have loaded.
STARTUP_PROBE = """
import json, sys
from dataclasses import replace
import lbsim
from lbsim import harness

WATCHED = ("concurrent.futures", "multiprocessing", "statistics")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

seen = {"import": loaded()}
config, _ = harness.load_config(sys.argv[1])
seen["load_config"] = loaded()
harness.run_experiment(config, write_files=False)
seen["run_experiment"] = loaded()
harness.run_sweep(config, [0.8], ["sed"], [0], workers=1, write_files=False)
seen["run_sweep"] = loaded()
print(json.dumps(seen))
"""


def test_process_pool_loads_only_for_a_pooled_sweep(tmp_path):
    # run, validate and benchmark set-up never start a pool, so they must not
    # pay for importing one
    path = tmp_path / "config.ini"
    path.write_text("[topology]\npreset = 1lb-2s\n[traffic]\nrate = 0.8\n"
                    "[run]\npolicy = sed\nepisodes = 1\nfirst_episode_duration = 5\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["import"] == seen["load_config"] == seen["run_experiment"] == []
    assert "concurrent.futures" not in seen["run_sweep"]
    assert "multiprocessing" not in seen["run_sweep"]
