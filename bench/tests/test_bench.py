"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import LOOPS, NOMINAL_S, NUMPY_LOOPS, Calibration  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

from procsearch.core import Task  # noqa: E402
from procsearch.envs import make_task  # noqa: E402
from procsearch.envs.scripted import trap_env  # noqa: E402
from procsearch.harness import RunConfig, run as harness_run  # noqa: E402


def test_percentile_with_sample_count():
    summary = run.run_s_summary([float(x) for x in range(10, 0, -1)])
    assert summary == {"p50": 5.5, "p90": 9.1, "n": 10}
    assert run.run_s_summary([2.0]) == {"p50": 2.0, "p90": 2.0, "n": 1}
    assert run.percentile([1.0, 3.0], 0) == 1.0
    assert run.percentile([1.0, 3.0], 100) == 3.0


def test_speed_comes_from_the_probes_around_a_run():
    now = [0.0]
    cal = Calibration(clock=lambda: now[0])
    for t, factor in ((1.0, 1.0), (2.0, 2.0), (3.0, 4.0)):
        now[0] = t
        cal.probe()
        cal.probes[-1] = {name: NOMINAL_S[name] * factor for name in LOOPS}
    # the faster of the probes just before and just after the run
    assert abs(cal.speed(2.2, 2.8) - 1 / 2) < 1e-12
    assert abs(cal.speed(1.1, 1.2) - 1.0) < 1e-12
    assert abs(cal.speed(0.1, 0.2) - 1.0) < 1e-12  # before any probe: the first
    assert abs(cal.speed(3.5, 3.6) - 1 / 4) < 1e-12  # after the last: the last
    # one slow loop counts for a third of the geometric mean
    cal.probes[0] = dict(cal.probes[0], chain=NOMINAL_S["chain"] * 8)
    assert abs(cal.speed(0.1, 0.2) - 1 / 2) < 1e-12
    # and none of the speed of a tabular run, scaled by the numpy loop alone
    assert abs(cal.speed(0.1, 0.2, NUMPY_LOOPS) - 1.0) < 1e-12


def test_self_time_of_nested_spans():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    branch = t.wrap("sketch.branch", lambda: tick(1))

    def on_confirmed():
        tick(2)
        branch()
        tick(4)

    on_confirmed = t.wrap("sketch.on_confirmed", on_confirmed)

    def rebuild():
        tick(8)
        on_confirmed()
        on_confirmed()
        tick(16)

    t.wrap("sketch.rebuild", rebuild)()
    assert dict(t.calls) == {"sketch.branch": 2, "sketch.on_confirmed": 2, "sketch.rebuild": 1}
    assert dict(t.total) == {"sketch.branch": 2, "sketch.on_confirmed": 14, "sketch.rebuild": 38}
    assert dict(t.self_time) == {"sketch.branch": 2, "sketch.on_confirmed": 12, "sketch.rebuild": 24}
    assert t.layer_self("sketch") == 38


def test_span_that_raises_still_closes():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 3
        raise KeyError("x")

    inner = t.wrap("a.inner", boom)

    def outer():
        try:
            inner()
        except KeyError:
            now[0] += 1

    t.wrap("a.outer", outer)()
    assert dict(t.self_time) == {"a.inner": 3, "a.outer": 1}


def _tiny_cases():
    env, script = trap_env()
    trap = Task(name="trap", make_env=lambda: trap_env()[0], solution=script)
    chain = make_task("chain")
    return [workloads.Case(f"{task.name}_{agent}_s{s}", agent, s, 1000, task, task.demo())
            for task in (trap, chain) for agent in ("bps", "plots_nosketch") for s in range(4)]


def test_tampered_fingerprint_counts_as_failure():
    cases = _tiny_cases()
    samples = [list(runs) for runs in zip(run.run_pass(cases)[1], run.run_pass(cases)[1])]
    golden = {c.label: workloads.sha256(runs[0].csv) for c, runs in zip(cases, samples)}
    assert run.count_failures(cases, samples, golden) == (2 * len(cases), 0, [])
    golden[cases[3].label] = "0" * 64
    attempted, failed, messages = run.count_failures(cases, samples, golden)
    assert (attempted, failed) == (2 * len(cases), 2)
    assert all(m.startswith(cases[3].label) and "golden" in m for m in messages)
    # at a non-default seed the fingerprints are not compared
    assert run.count_failures(cases, samples, None)[:2] == (2 * len(cases), 0)


def test_counter_identities_and_repeatable_counts():
    cases = _tiny_cases()
    counts = []
    for _ in range(2):
        t = Tracer()
        with instrument(t):
            _, outcomes = run.run_pass(cases)
        assert run.identity_violations(t, cases, outcomes) == []
        metrics = run.layer_metrics(t)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["search.backtracks"] > 0
    assert counts[0]["envs.burn_steps"] > 0
    assert counts[0]["repeats.offered"] >= counts[0]["repeats.confirmed"]
    # instrument() restored every original
    assert not hasattr(workloads.run_agent, "__wrapped__")
    from procsearch.core import Env
    assert not hasattr(Env.step, "__wrapped__")


def test_golden_matches_the_harness_csv():
    golden = run.load_golden()
    csv = harness_run(RunConfig(env="gem", agent="bps", seed=0)).csv()
    assert golden["markov_search"]["gem_bps_s0"] == workloads.sha256(csv)
