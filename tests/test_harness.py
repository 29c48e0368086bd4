import re
import tracemalloc
from contextlib import nullcontext
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from procsearch import cli, harness
from procsearch.agents import AGENT_NAMES, MODEL_REGISTRY, ConfigError, run_agent
from procsearch.baselines import rmax_learn
from procsearch.core import Sketch, Task
from procsearch.envs import make_task
from procsearch.envs.scripted import ScriptedEnv
from procsearch.harness import (
    RunConfig, RunRecord, field_type, learning_curves_svg, parse_sweep_spec, run,
    summarize, summary_csv, sweep,
)


def test_csv_shape_and_columns():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    lines = rec.csv().splitlines()
    assert lines[0] == "episode,steps,matched,backtracks,done"
    assert len(lines) == rec.episodes + 1
    last = lines[-1].split(",")
    assert last[4] == "1"
    assert int(last[2]) == rec.horizon  # done implies the full prefix matched


def test_unknown_names_rejected():
    with pytest.raises(ConfigError):
        run(RunConfig(env="nope", agent="bps", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="nope", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="bps", seed=0, max_episodes=0))
    with pytest.raises(ConfigError, match="n_hypotheses must be >= 1"):
        run(RunConfig(env="chain", agent="bps", seed=0, n_hypotheses=0))


def test_sketch_agent_requires_sketch():
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="plots_sketch", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="bpsosa", seed=0))


def test_byte_plan_agents_reject_more_than_256_actions():
    def task(n_actions):
        script = (n_actions - 1, n_actions - 1, 5, n_actions - 1)
        return Task("wide", lambda: ScriptedEnv(n_actions, script), script,
                    Sketch(("a", "a", "b", "a")))

    wide, widest_byte = task(300), task(256)
    for agent in ("plots_sketch", "plots_nosketch"):
        with pytest.raises(ConfigError, match=f"agent {agent} takes at most 256 actions, "
                                              "env 'wide' has n_actions=300"):
            run_agent(agent, wide, wide.demo(), 0, 10000)
        assert run_agent(agent, widest_byte, widest_byte.demo(), 0, 10000).complete
    assert run_agent("bps", wide, wide.demo(), 0, 10000).complete


def test_parse_sweep_spec_blocks_and_ranges():
    spec = """
# table sweep
envs=chain,scripted
agents=bps,plots_nosketch
seeds=0-2

env=gem
agent=bps
seeds=5,7
max_episodes=100
"""
    configs = parse_sweep_spec(spec)
    assert len(configs) == 2 * 2 * 3 + 2
    assert configs[0] == RunConfig(env="chain", agent="bps", seed=0)
    assert configs[-1] == RunConfig(env="gem", agent="bps", seed=7, max_episodes=100)


def test_parse_sweep_spec_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_sweep_spec("")
    with pytest.raises(ConfigError):
        parse_sweep_spec("envs=chain\n")  # no agents
    # a bad line is named in the error
    for line in ("bogus_key=1", "this is not a kv line", "optimistic=maybe",
                 "n_hypotheses=x", "seeds=a", "seeds=3-1", "max_episodes=1.5",
                 "early_reset=true", "min_repeat_len=3"):
        with pytest.raises(ConfigError, match=repr(line)):
            parse_sweep_spec(f"envs=chain\nagents=bps\n{line}\n")
    # a key repeated within a block is named, not silently overridden
    for first, second in (("seeds=0-9", "seeds=3"), ("seed=1", "seeds=0-9"),
                          ("n_hypotheses=2", "n_hypotheses=3")):
        with pytest.raises(ConfigError, match=repr(second)):
            parse_sweep_spec(f"envs=chain\nagents=bps\n{first}\n{second}\n")


@pytest.mark.parametrize("spec, first", [
    ("envs=chain\nagents=bps\n\n# gem\nenvs=gem\nseeds=0-3\n", "envs=gem"),  # no agents=
    ("seeds=1\nenvs=\nagents=bps\n", "seeds=1"),  # an empty envs=
], ids=["no-agents", "empty-envs"])
def test_parse_sweep_spec_names_a_block_without_envs_or_agents(spec, first):
    with pytest.raises(ConfigError, match=f"{first!r} needs envs= and agents="):
        parse_sweep_spec(spec)


@pytest.mark.parametrize("block, reason", [
    ("envs=nope\nagents=bps", "unknown environment 'nope'"),
    ("agents=bps\nenvs=chain\nseeds=-2", "seed must be >= 0, got -2"),
    ("max_episodes=0\nenvs=chain\nagents=bps", "max_episodes must be >= 1"),
    # refused before any run, not when the sweep reaches plots_sketch on chain
    ("envs=chain\nagents=bps,plots_sketch", "agent plots_sketch needs a sketch, env 'chain' has none"),
], ids=["env", "seed", "max-episodes", "agent-env-fit"])
def test_parse_sweep_spec_names_the_block_of_a_bad_value(block, reason):
    first = block.split("\n")[0]
    with pytest.raises(ConfigError, match=re.escape(f"sweep block starting {first!r}: {reason}")):
        parse_sweep_spec(f"envs=chain\nagents=bps\n\n{block}\n")  # the first block is sound


def test_a_sweep_block_is_capped_by_its_run_count(monkeypatch):
    monkeypatch.setattr(harness, "MAX_BLOCK_RUNS", 6)
    assert len(parse_sweep_spec("envs=chain,scripted\nagents=bps\nseeds=0-1,4\n")) == 6
    # the first block is sound; the second has 7 runs
    with pytest.raises(ConfigError, match=re.escape("sweep block starting 'envs=gem' has 7 runs")):
        parse_sweep_spec("envs=chain\nagents=bps\n\nenvs=gem\nagents=bps\nseeds=0-5,9\n")


def test_an_oversized_sweep_block_is_refused_before_its_seeds_are_listed():
    """A block's runs are counted from its axis lengths, so a seed range one
    digit longer than meant costs nothing: 10^6 seeds listed as ints would
    take over 30 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(
                f"'envs=chain' has 1000000 runs, more than the {harness.MAX_BLOCK_RUNS}")):
            parse_sweep_spec("envs=chain\nagents=bps\nseeds=0-999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a range past sys.maxsize is counted too
    with pytest.raises(ConfigError, match=f"has {10**20} runs"):
        parse_sweep_spec(f"envs=chain\nagents=bps\nseeds=1-{10**20}\n")


def test_run_agent_rejects_unknown_options():
    task = make_task("chain")
    for key, value in (("n_hypotheses_typo", 3), ("early_reset", True), ("min_repeat_len", 3)):
        with pytest.raises(ConfigError, match=key):
            run_agent("bps", task, task.demo(), 0, 10, {key: value})
    with pytest.raises(ConfigError, match="unknown agent 'nope'"):
        run_agent("nope", task, task.demo(), 0, 10)


def test_run_config_fields_and_their_flags(capsys):
    assert [f.name for f in fields(RunConfig)] == [
        "n_hypotheses", "optimistic", "env", "agent", "seed", "max_episodes"]
    for flag in (["--early-reset"], ["--min-repeat-len", "3"], ["--optimistic"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--env", "chain", "--agent", "bps", "--seed", "0", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_every_run_config_field_round_trips_through_cli_and_sweep(monkeypatch):
    """Each field set to a non-default value through its generated `run`
    flag and through its sweep key gives the same RunConfig."""
    base = RunConfig("chain", "bps", 0)
    captured = []
    monkeypatch.setattr(cli, "run", lambda c: captured.append(c) or RunRecord(c, 1, 1, 1, 0, True))
    # a sweep spec validates its runs: a registered agent that chain can serve
    registered = {"env": "gem", "agent": "plots_nosketch"}
    for f in fields(RunConfig):
        old = getattr(base, f.name)
        kind = field_type(f)  # raises on a type neither front end can fill
        new = (not old) if kind is bool else old + 3 if kind is int else f"x_{f.name}"
        new = registered.get(f.name, new)
        want = replace(base, **{f.name: new})
        name = f.name.replace("_", "-")
        args = ["run", "--env", "chain", "--agent", "bps", "--seed", "0"]
        if kind is bool:
            args.append(f"--no-{name}")  # the only bool flag: every bool defaults to true
        else:
            args += [f"--{name}", str(new)]  # a repeated flag overrides the earlier one
        assert cli.main(args) == 0
        assert captured.pop() == want, f.name
        spec = {"env": "chain", "agent": "bps", "seed": "0", f.name: str(new)}
        (got,) = parse_sweep_spec("".join(f"{k}={v}\n" for k, v in spec.items()))
        assert got == want, f.name


def test_sweep_summary_and_artifacts(tmp_path):
    configs = parse_sweep_spec("envs=chain\nagents=bps,plots_nosketch\nseeds=0-2\n")
    result = sweep(configs, out_dir=tmp_path)
    assert len(result.records) == 6
    assert len(result.summary_rows) == 2
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "curves_chain.svg").exists()
    svg = (tmp_path / "curves_chain.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # six per-run CSVs were written
    assert len(list(tmp_path.glob("chain_*.csv"))) == 6


def test_summary_matches_recomputation_from_csvs(tmp_path):
    configs = parse_sweep_spec("envs=chain\nagents=bps\nseeds=0-4\n")
    result = sweep(configs, out_dir=tmp_path)
    episode_counts = []
    for path in sorted(tmp_path.glob("chain_bps_*.csv")):
        rows = path.read_text().splitlines()[1:]
        episode_counts.append(len(rows))
    mean = sum(episode_counts) / len(episode_counts)
    assert result.summary_rows[0]["mean_episodes"] == pytest.approx(mean)


def test_sweep_records_do_not_depend_on_its_output_directory(tmp_path):
    configs = parse_sweep_spec("envs=chain\nagents=bps,plots_nosketch\nseeds=0-1\n")
    records = sweep(configs).records
    assert sweep(configs, out_dir=tmp_path / "a").records == records
    assert sweep(configs, out_dir=tmp_path / "b").records == records


def test_a_failed_sweep_writes_no_file(tmp_path, monkeypatch):
    calls = []

    def second_run_raises(*args):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("the second run fails")
        return run_agent(*args)

    monkeypatch.setattr(harness, "run_agent", second_run_raises)
    configs = parse_sweep_spec("envs=chain\nagents=bps\nseeds=0-2\n")
    with pytest.raises(RuntimeError, match="the second run fails"):
        sweep(configs, out_dir=tmp_path / "out", jobs=1)
    assert len(calls) == 2
    assert list((tmp_path / "out").iterdir()) == []  # created before the runs, left empty


def test_sweep_runs_a_tabular_agent_once_for_all_its_seeds(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rmax_learn(*args)

    monkeypatch.setitem(MODEL_REGISTRY, "rmax_plus", counted)
    result = sweep(parse_sweep_spec("envs=gem\nagents=rmax_plus\nseeds=3,5\n"), out_dir=tmp_path)
    assert len(calls) == 1
    assert [r.config.seed for r in result.records] == [3, 5]
    csvs = sorted(tmp_path.glob("gem_*.csv"))
    assert [p.name for p in csvs] == ["gem_rmax_plus_s3.csv", "gem_rmax_plus_s5.csv"]
    want = run(RunConfig(env="gem", agent="rmax_plus", seed=5)).csv()
    assert [p.read_text() for p in csvs] == [want, want]


def test_sweep_validates_each_config_once_and_run_validates_its_own(monkeypatch):
    configs = parse_sweep_spec("envs=chain\nagents=bps,rmax_plus\nseeds=0-2\n")
    validated, validate = [], RunConfig.validate

    def counted(config):
        validated.append(config)
        validate(config)

    monkeypatch.setattr(RunConfig, "validate", counted)
    sweep(configs)
    assert validated == configs
    validated.clear()
    run(configs[0])
    assert validated == [configs[0]]


def test_sweep_rejects_runs_that_share_a_label(tmp_path):
    # the label leaves n_hypotheses out, so both runs would write one CSV
    spec = ("envs=gem\nagents=plots_sketch\nn_hypotheses=1\n\n"
            "envs=gem\nagents=plots_sketch\nn_hypotheses=4\n")
    with pytest.raises(ConfigError, match="gem_plots_sketch_s0"):
        sweep(parse_sweep_spec(spec), out_dir=tmp_path)
    assert not list(tmp_path.iterdir())  # rejected before any run


def test_negative_seed_rejected():
    # random.Random(-3) seeds like Random(3): the two runs would be one
    with pytest.raises(ConfigError, match="seed"):
        run(RunConfig(env="chain", agent="bps", seed=-3))
    with pytest.raises(ConfigError, match="seed"):
        sweep(parse_sweep_spec("envs=chain\nagents=bps\nseeds=-3,3\n"))


def test_sweep_empty_config_list_rejected():
    with pytest.raises(ConfigError):
        sweep([])


def test_full_grid_sweep_summary_shape(tmp_path):
    # 4 envs x 6 agents x 2 seeds (tiny budget: episode counts do not matter
    # here, only the 24-row summary shape; every env has a sketch)
    spec = (
        "envs=gem,island,cpr,piano\n"
        f"agents={','.join(AGENT_NAMES)}\n"
        "seeds=0-1\nmax_episodes=3\n"
    )
    result = sweep(parse_sweep_spec(spec), out_dir=tmp_path)
    assert len(result.summary_rows) == 24
    assert all(r.rows for r in result.records)  # the learning curves read each last row
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 25  # header + one row per env x agent cell


def test_sweep_parallel_matches_serial(tmp_path):
    configs = parse_sweep_spec("envs=chain\nagents=bps\nseeds=0-3\n")
    serial = sweep(configs)
    parallel = sweep(configs, jobs=2)
    assert summary_csv(serial.summary_rows) == summary_csv(parallel.summary_rows)


@pytest.mark.parametrize("agent, n_configs, workers", [
    pytest.param("bps", 1, [], id="1"), pytest.param("bps", 2, [2], id="2"),
    # seed-blind: one run serves both seeds
    pytest.param("rmax_plus", 2, [], id="rmax_plus-2"),
    # one worker per CPU the process may use, of the two patched in
    pytest.param("bps", 3, [2], id="3"),
])
def test_sweep_starts_no_more_workers_than_runs_or_cpus(monkeypatch, agent, n_configs, workers):
    asked = []

    def fake_pool(processes):  # records its worker count, starts none and maps serially
        asked.append(processes)
        return nullcontext(SimpleNamespace(map=lambda fn, items: list(map(fn, items))))

    monkeypatch.setattr(harness.multiprocessing, "Pool", fake_pool)
    # this process may use two of the host's eight CPUs
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    configs = parse_sweep_spec(f"envs=chain\nagents={agent}\nseeds=0-{n_configs - 1}\n")
    records = sweep(configs, jobs=8).records
    assert asked == workers
    assert records == sweep(configs).records


def test_summarize_groups_by_env_agent():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    rows = summarize([rec, rec])
    assert rows[0]["runs"] == 2
    assert rows[0]["std_episodes"] == 0.0


def test_svg_renders_even_with_single_run():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    svg = learning_curves_svg([rec])
    assert "bps" in svg and svg.endswith("</svg>")
