from procsearch.cli import main
from procsearch.core import read_demo_file


def test_run_subcommand(tmp_path, capsys):
    rc = main(["run", "--env", "chain", "--agent", "bps", "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "env=chain agent=bps seed=7" in out
    assert "complete=True stop_reason=complete" in out
    csv_rows = (tmp_path / "chain_bps_s7.csv").read_text().splitlines()[1:]
    assert f"episodes={len(csv_rows)} episodes_run={len(csv_rows)} " in out


def test_run_line_shows_episodes_run_beside_the_censored_count(capsys):
    # the tabular agents reach a fixed point on aliased piano after 6 episodes
    rc = main(["run", "--env", "piano", "--agent", "rmax_plus", "--seed", "0",
               "--max-episodes", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "episodes=500 episodes_run=6 " in out
    assert "complete=False stop_reason=fixed_point" in out


def test_run_unknown_env_exits_nonzero(capsys):
    rc = main(["run", "--env", "atlantis", "--agent", "bps", "--seed", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_demo_gen_unknown_env_prints_the_message_unquoted(tmp_path, capsys):
    rc = main(["demo-gen", "--env", "nope", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown environment 'nope'; known: [")
    assert '"' not in err
    assert not (tmp_path / "x").exists()


def test_demo_gen_writes_demo_format(tmp_path):
    out = tmp_path / "cpr.txt"
    rc = main(["demo-gen", "--env", "cpr", "--out", str(out)])
    assert rc == 0
    demo, n_actions = read_demo_file(out.read_text())
    assert demo.horizon == 197
    assert n_actions == 23
    assert demo.sketch is not None and len(demo.sketch) == 6


def test_sweep_subcommand(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("envs=chain\nagents=bps,plots_nosketch\nseeds=0-1\n")
    out_dir = tmp_path / "results"
    rc = main(["sweep", "--spec", str(spec), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "summary.csv").exists()
    assert "4 runs" in capsys.readouterr().out


def test_sweep_missing_spec_file(capsys):
    rc = main(["sweep", "--spec", "/nonexistent/sweep.txt"])
    assert rc == 2


def test_sweep_bad_spec_contents(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text("envs=chain\n")
    rc = main(["sweep", "--spec", str(spec)])
    assert rc == 2


def test_sweep_rejects_jobs_below_one(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("envs=chain\nagents=bps\nseeds=0\n")
    out_dir = tmp_path / "results"
    rc = main(["sweep", "--spec", str(spec), "--out", str(out_dir), "--jobs", "0"])
    assert rc == 2
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()  # refused before any run or output
