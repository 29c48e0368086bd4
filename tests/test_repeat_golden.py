"""The repeat-mining and sketch agents reproduce the benchmark's golden CSVs.

At the benchmark's default seed, every `plots_nosketch` run on gem and
island (workload `structured`) and on the 20 random aliased automata
(workload `aliased`), and every `plots_sketch` run of those two workloads
(gem, island and cpr; piano), must hash to its fingerprint in
`bench/golden.json`, complete, and replay the demonstration. The cases come
from `bench/workloads.py` in workload order, so a change to the repeat store
or the sketch pool that alters any suggestion fails here.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CASES = {"structured": ("gem", "island"), "aliased": tuple(f"auto{k}" for k in range(20))}
SKETCH_CASES = {"structured": ("gem", "island", "cpr"), "aliased": ("piano",)}


def golden_problems(workload, agent, tasks):
    """Every way the agent's cases on `tasks` miss the golden outcome."""
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    cases = [c for c in workloads.build(workload, workloads.DEFAULT_SEED)
             if c.agent == agent and c.task.name in tasks]
    assert {c.task.name for c in cases} == set(tasks)
    found = []
    for case in cases:
        out = workloads.run_case(case, time.process_time)
        found += [f"{case.label}: {p}" for p in workloads.problems(case, out, golden)]
    return found


@pytest.mark.parametrize("workload", sorted(CASES))
def test_plots_nosketch_csvs_match_golden(workload):
    assert golden_problems(workload, "plots_nosketch", CASES[workload]) == []


@pytest.mark.parametrize("workload", sorted(SKETCH_CASES))
def test_plots_sketch_csvs_match_golden(workload):
    assert golden_problems(workload, "plots_sketch", SKETCH_CASES[workload]) == []
