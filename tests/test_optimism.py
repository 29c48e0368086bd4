"""The paper's optimism claim: answering in an open run by the optimistic
rule lowers the episodes that the sketch learner needs.

Over seeds 0-9, plots_sketch with `optimistic` on needs fewer episodes on
average than with it off on island, cpr and piano (57.4 against 133, 389.6
against 494.6, 649.1 against 1,022.4; on island off needs at least 1.5
times as many), and the same on gem (44.1), whose sketch repeats no label,
so the rule never has a repeat to claim. Every run completes.
"""

import statistics

import pytest

from procsearch.agents import run_agent
from procsearch.envs import make_task

SEEDS = range(10)
BUDGET = 30000


def mean_episodes(env: str, optimistic: bool) -> float:
    task = make_task(env)
    demo = task.demo()
    reports = [run_agent("plots_sketch", task, demo, seed, BUDGET, {"optimistic": optimistic})
               for seed in SEEDS]
    assert all(r.complete for r in reports)
    return statistics.mean(r.episodes for r in reports)


@pytest.mark.parametrize("env", ["island", "cpr", "piano"])
def test_optimism_lowers_the_mean_episodes(env):
    on, off = mean_episodes(env, True), mean_episodes(env, False)
    assert on < off
    if env == "island":
        assert off >= 1.5 * on


def test_optimism_changes_nothing_without_a_repeated_label():
    assert mean_episodes("gem", True) == mean_episodes("gem", False)
