"""The benchmark's workloads: seeded run grids over procsearch's agents.

A workload is a list of `Case`s, each one learning run with its inputs built
ahead of time (task, recorded demonstration) and what the run is expected to
do. `build(name, seed)` makes the same cases for the same seed. Workload seed
`w` gives every seeded cell the RNG seeds `w * n ... w * n + n - 1`, with `n`
the workload's `SEEDS_PER_CELL`. The random aliased automata are a fixed
set; the workload seed sets the agents' RNG seeds on them.

Run as a script (`python3 bench/workloads.py <workload> <seed>`) it only
builds the workload's inputs, then prints its CPU seconds so far as JSON:
the benchmark runs it in fresh processes to measure its set-up cost.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "procsearch" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no procsearch sources at {SRC}")
sys.path.insert(0, str(SRC))

import procsearch  # noqa: E402
from procsearch.agents import run_agent  # noqa: E402
from procsearch.core import Demonstration, Task  # noqa: E402
from procsearch.envs import make_task  # noqa: E402
from procsearch.envs.scripted import random_aliased_env  # noqa: E402
from procsearch.harness import RunConfig, RunRecord  # noqa: E402
from procsearch.search import LearnReport, replay_matches  # noqa: E402

if not Path(procsearch.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"benchmark: imported procsearch from {procsearch.__file__}, not {SRC}")

DEFAULT_SEED = 0
# Seeds per cell trade input variety against repeats of each case within a
# run (a case's time is the fastest of its repeats). In `markov_search` the
# seed-blind tabular runs, mostly numpy, would otherwise take 85 % of the
# time; they slow down less than the calibration loops on a loaded machine,
# so 10 seeds of the plan agents keep that share near half. A structured cpr
# run's cost varies by about 20 % with its RNG seed; 8 seeds keep the total
# within about 5 %. Piano's cost varies several-fold, and `aliased` takes 30
# seeds to keep its total within a few percent; its cases then run about once
# in a run.
SEEDS_PER_CELL = {"markov_search": 10, "structured": 8, "aliased": 30}
BUDGET = 30000
# cpr x rmax_plus replans (a full backward induction over H x |tokens| x |A|)
# after every new edge; uncapped it needs 4334 episodes, about a minute on a
# 2-CPU Xeon VM. 300 episodes keep it replan-bound at a few seconds.
RMAX_CPR_CAP = 300
# The automata are the same 20 whatever the workload seed. A few random
# automata take plots_nosketch thousands of backtracks (one of 60 drawn needed
# 16k episodes, at about 70 times the median cost), and bps can run out of its
# 30000-episode budget on them; drawing new automata per workload seed would
# make the workload's cost depend mostly on whether such an automaton came up.
AUTOMATON_GENERATOR_SEED = 0
AUTOMATA = 20
AUTOMATON_HORIZON = 60
AUTOMATON_ACTIONS = 3

PLAN_AGENTS = ("bps", "bpsosa", "plots_sketch", "plots_nosketch")
TABULAR_AGENTS = ("rmax_plus", "ucb_plus")
WORKLOADS = tuple(SEEDS_PER_CELL)


@dataclass(frozen=True)
class Case:
    """One learning run and the outcome it must have."""

    label: str
    agent: str
    seed: int
    budget: int
    task: Task
    demo: Demonstration
    expect_complete: bool = True
    expect_episodes: int | None = None  # the capped run must stop exactly at its cap


@dataclass
class Outcome:
    seconds: float
    report: LearnReport | None = None
    csv: str = ""
    error: str = ""


def _grid(tasks, agents, seeds, budget=BUDGET, complete=True, episodes=None):
    return [Case(f"{task.name}_{agent}_s{s}", agent, s, budget, task, demo, complete, episodes)
            for task, demo in tasks for agent in agents for s in seeds]


def _named_tasks(*names):
    return [(task, task.demo()) for task in map(make_task, names)]


def _automata():
    """The fixed random aliased automata, with their demos."""
    rng = random.Random(f"aliased-automata-{AUTOMATON_GENERATOR_SEED}")
    out = []
    for k in range(AUTOMATA):
        env, script = random_aliased_env(rng, AUTOMATON_ACTIONS, AUTOMATON_HORIZON)
        task = Task(name=f"auto{k}", make_env=lambda env=env: env, solution=script)
        out.append((task, task.demo()))
    return out


def build(workload: str, seed: int) -> list[Case]:
    """The cases of `workload` at workload seed `seed`."""
    if workload not in SEEDS_PER_CELL:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    n = SEEDS_PER_CELL[workload]
    seeds = range(seed * n, (seed + 1) * n)
    once = [seed * n]  # the tabular agents ignore the seed
    if workload == "markov_search":
        tasks = _named_tasks("gem", "island", "cpr")
        cases = _grid(tasks, ("bps", "bpsosa"), seeds)
        for task, demo in tasks:
            for agent in TABULAR_AGENTS:
                capped = (task.name, agent) == ("cpr", "rmax_plus")
                cases += _grid([(task, demo)], (agent,), once,
                               budget=RMAX_CPR_CAP if capped else BUDGET,
                               complete=not capped,
                               episodes=RMAX_CPR_CAP if capped else None)
        return cases
    if workload == "structured":
        return _grid(_named_tasks("gem", "island", "cpr"), ("plots_sketch", "plots_nosketch"), seeds)
    piano = _named_tasks("piano")  # the aliased workload
    cases = _grid(piano, PLAN_AGENTS, seeds)
    # the tabular agents are expected to stall on piano
    cases += _grid(piano, TABULAR_AGENTS, once, complete=False)
    for k, automaton in enumerate(_automata()):
        cases += _grid([automaton], ("bps", "plots_nosketch"), [seed * AUTOMATA + k])
    return cases


def run_case(case: Case, clock) -> Outcome:
    """The timed unit: one learning run and its per-episode CSV."""
    t0 = clock()
    try:
        report = run_agent(case.agent, case.task, case.demo, case.seed, case.budget)
        csv = RunRecord(RunConfig(case.task.name, case.agent, case.seed), case.demo.horizon,
                        report.episodes, report.total_steps, report.backtracks,
                        report.complete, report.rows).csv()
    except Exception as e:  # a raising run is counted as failed, the rest go on
        return Outcome(clock() - t0, error=f"{type(e).__name__}: {e}")
    return Outcome(clock() - t0, report, csv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def problems(case: Case, out: Outcome, golden: dict[str, str] | None) -> list[str]:
    """Why this run failed; empty when it passed. `golden` is None when the
    fingerprint comparison is skipped (a non-default workload seed)."""
    if out.error:
        return [f"raised {out.error}"]
    found = []
    rep = out.report
    if golden is not None and golden.get(case.label) != sha256(out.csv):
        found.append(f"CSV sha256 {sha256(out.csv)[:12]} differs from golden "
                     f"{str(golden.get(case.label))[:12]}")
    if rep.complete != case.expect_complete:
        found.append(f"complete={rep.complete}, expected {case.expect_complete}")
    if case.expect_episodes is not None and rep.episodes != case.expect_episodes:
        found.append(f"stopped after {rep.episodes} episodes, expected {case.expect_episodes}")
    if rep.complete and not replay_matches(case.task.env(), case.demo, rep.plan):
        found.append("complete plan does not replay the demonstration")
    return found


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"cpu_s": time.process_time()}))
