"""The tabular baselines on cpr: README's episode counts and pinned CSVs.

Both agents ignore the seed and complete cpr in 4,334 episodes. The hashes
are of `RunRecord.csv()` for `run --env cpr --agent <agent> --seed 0`, taken
from the full-replan R-max and the row-scanning UCB, so a faster policy
that changes any episode fails here.
"""

import hashlib

import pytest

from procsearch.agents import run_agent
from procsearch.envs import make_task
from procsearch.harness import RunConfig, RunRecord
from procsearch.search import replay_matches

CSV_SHA256 = "1786020ceaae2fc249628f3afcd08629d8a0df7036dea310dea00287c05aed48"


@pytest.mark.parametrize("agent", ["rmax_plus", "ucb_plus"])
def test_cpr_tabular_cell_matches_readme_and_pinned_csv(agent):
    config = RunConfig(env="cpr", agent=agent, seed=0)
    task = make_task("cpr")
    demo = task.demo()
    report = run_agent(agent, task, demo, config.seed, config.max_episodes)
    assert report.complete
    assert report.episodes == len(report.rows) == 4334
    assert replay_matches(task.env(), demo, report.plan)
    record = RunRecord(config, demo.horizon, report.episodes, report.total_steps,
                       report.backtracks, report.complete, report.rows)
    assert hashlib.sha256(record.csv().encode()).hexdigest() == CSV_SHA256
