"""The repeat-mining agent reproduces the benchmark's golden CSVs.

At the benchmark's default seed, every `plots_nosketch` run on gem and
island (workload `structured`) and on the 20 random aliased automata
(workload `aliased`) must hash to its fingerprint in `bench/golden.json`,
complete, and replay the demonstration. The cases come from
`bench/workloads.py`, so a change to the repeat store that alters any
suggestion fails here.
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


@pytest.mark.parametrize("workload", sorted(CASES))
def test_plots_nosketch_csvs_match_golden(workload):
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    cases = [c for c in workloads.build(workload, workloads.DEFAULT_SEED)
             if c.agent == "plots_nosketch" and c.task.name in CASES[workload]]
    assert {c.task.name for c in cases} == set(CASES[workload])
    found = []
    for case in cases:
        out = workloads.run_case(case, time.process_time)
        found += [f"{case.label}: {p}" for p in workloads.problems(case, out, golden)]
    assert found == []
