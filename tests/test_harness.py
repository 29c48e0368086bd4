from dataclasses import fields, replace

import pytest

from procsearch import cli
from procsearch.agents import ConfigError, run_agent
from procsearch.envs import make_task
from procsearch.harness import (
    RunConfig, RunRecord, field_type, learning_curves_svg, parse_sweep_spec, run,
    summarize, summary_csv, sweep,
)


def test_run_is_deterministic_and_byte_identical():
    cfg = RunConfig(env="chain", agent="bps", seed=7)
    a = run(cfg)
    b = run(cfg)
    assert a.csv() == b.csv()
    assert a.episodes == b.episodes


def test_csv_shape_and_columns():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    lines = rec.csv().splitlines()
    assert lines[0] == "episode,steps,matched,backtracks,done"
    assert len(lines) == rec.episodes + 1
    last = lines[-1].split(",")
    assert last[4] == "1"
    assert int(last[2]) == rec.horizon  # done implies the full prefix matched


def test_run_writes_csv_file(tmp_path):
    cfg = RunConfig(env="chain", agent="bps", seed=3, out=str(tmp_path))
    rec = run(cfg)
    path = tmp_path / "chain_bps_s3.csv"
    assert path.read_text() == rec.csv()


def test_unknown_names_rejected():
    with pytest.raises(ConfigError):
        run(RunConfig(env="nope", agent="bps", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="nope", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="bps", seed=0, max_episodes=0))


def test_sketch_agent_requires_sketch():
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="plots_sketch", seed=0))
    with pytest.raises(ConfigError):
        run(RunConfig(env="chain", agent="bpsosa", seed=0))


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
                 "n_hypotheses=x", "seeds=a", "seeds=3-1", "max_episodes=1.5"):
        with pytest.raises(ConfigError, match=repr(line)):
            parse_sweep_spec(f"envs=chain\nagents=bps\n{line}\n")
    # a key repeated within a block is named, not silently overridden
    for first, second in (("seeds=0-9", "seeds=3"), ("seed=1", "seeds=0-9"),
                          ("n_hypotheses=2", "n_hypotheses=3")):
        with pytest.raises(ConfigError, match=repr(second)):
            parse_sweep_spec(f"envs=chain\nagents=bps\n{first}\n{second}\n")


def test_run_agent_rejects_unknown_options():
    task = make_task("chain")
    with pytest.raises(ConfigError, match="n_hypotheses_typo"):
        run_agent("bps", task, task.demo(), 0, 10, {"n_hypotheses_typo": 3})


def test_every_run_config_field_round_trips_through_cli_and_sweep(monkeypatch):
    """Each field set to a non-default value through its generated `run`
    flag and through its sweep key gives the same RunConfig."""
    base = RunConfig("chain", "bps", 0)
    captured = []
    monkeypatch.setattr(cli, "run", lambda c: captured.append(c) or RunRecord(c, 1, 1, 1, 0, True))
    for f in fields(RunConfig):
        old = getattr(base, f.name)
        kind = field_type(f)  # raises on a type neither front end can fill
        new = (not old) if kind is bool else old + 3 if kind is int else f"x_{f.name}"
        want = replace(base, **{f.name: new})
        name = f.name.replace("_", "-")
        args = ["run", "--env", "chain", "--agent", "bps", "--seed", "0"]
        if kind is bool:
            args.append(f"--no-{name}" if old else f"--{name}")
        else:
            args += [f"--{name}", str(new)]  # a repeated flag overrides the earlier one
        assert cli.main(args) == 0
        assert captured.pop() == want, f.name
        if f.name == "out":  # sweep() sets it from its own output directory
            continue
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


def test_sweep_empty_config_list_rejected():
    with pytest.raises(ConfigError):
        sweep([])


def test_full_grid_sweep_summary_shape(tmp_path):
    # 4 envs x 6 agents x 2 seeds (tiny budget: episode counts do not matter
    # here, only the 24-row summary shape; bpsosa/plots_sketch skip envs
    # without sketches, hence the two-block spec)
    spec = (
        "envs=gem,island,cpr,piano\n"
        "agents=bps,plots_sketch,plots_nosketch,bpsosa,rmax_plus,ucb_plus\n"
        "seeds=0-1\nmax_episodes=3\n"
    )
    result = sweep(parse_sweep_spec(spec), out_dir=tmp_path)
    assert len(result.summary_rows) == 24
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 25  # header + one row per env x agent cell


def test_sweep_parallel_matches_serial(tmp_path):
    configs = parse_sweep_spec("envs=chain\nagents=bps\nseeds=0-3\n")
    serial = sweep(configs)
    parallel = sweep(configs, jobs=2)
    assert summary_csv(serial.summary_rows) == summary_csv(parallel.summary_rows)


def test_summarize_groups_by_env_agent():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    rows = summarize([rec, rec])
    assert rows[0]["runs"] == 2
    assert rows[0]["std_episodes"] == 0.0


def test_svg_renders_even_with_single_run():
    rec = run(RunConfig(env="chain", agent="bps", seed=0))
    svg = learning_curves_svg([rec])
    assert "bps" in svg and svg.endswith("</svg>")
