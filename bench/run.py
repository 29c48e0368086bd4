"""procsearch benchmark: closed-loop learning runs over three seeded workloads.

    python3 bench/run.py --workload markov_search --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --out bench/results.json

One process, one learning run at a time: each run starts when the previous
one returns, so the load is a single client with no concurrency and no CPU
pinning. A case is one learning run: `agents.run_agent` on a prebuilt task
and demonstration, then `harness.RunRecord.csv`. Every case runs once, then
the cases run again in order until `--seconds` have passed. Every run is
timed in CPU seconds and scaled to a nominal machine speed, measured by
reference loops probed just before and after it (`calibrate.py`); a case's
time is the least of its runs' scaled times. Each run is
then checked: it must not raise, its CSV must hash to the committed golden
value (at the default seed only) and equal the case's first CSV, a complete
plan must replay the demonstration, and its completion must be the expected
one.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, and the last line holds the
per-layer metrics plus the tracing overhead. See README.md for the
workloads, the metrics and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (exits when the procsearch sources are missing)
import numpy  # noqa: E402
from calibrate import (NUMPY_LOOPS, PLAN_LOOPS, STARTUP_NOMINAL_S,  # noqa: E402
                       STARTUP_PROBE, Calibration)
from tracer import Tracer, instrument  # noqa: E402

GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 9
clock = time.perf_counter  # wall clock: the run's deadline
# A case is timed in CPU seconds of this process. On one thread that is the
# wall time of an idle machine, and it leaves out the time the process waits
# for a CPU that other tenants hold, or that the hypervisor steals.
cpu = time.process_time
WARMUP_PROBES = 5


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_s_summary(seconds) -> dict:
    """Median and p90 of per-case seconds, with the sample count."""
    return {"p50": percentile(seconds, 50), "p90": percentile(seconds, 90), "n": len(seconds)}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_pinning": "none", "load": "single process, one run at a time"}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def speed_loops(case):
    """The calibration loops whose speed scales this case's runs: the
    tabular baselines spend their time in small numpy operations."""
    return NUMPY_LOOPS if case.agent in workloads.TABULAR_AGENTS else PLAN_LOOPS


def run_pass(cases, cal=None):
    """Every case once; returns (wall seconds, outcomes). With a calibration
    `cal`, probes before every run and after the last, and gives each
    outcome's seconds at the nominal speed."""
    t0 = clock()
    outcomes, spans = [], []
    for case in cases:
        if cal is not None:
            cal.probe()
        start = clock()
        outcomes.append(workloads.run_case(case, cpu))
        spans.append((start, clock()))
    if cal is not None:
        cal.probe()
        for case, out, span in zip(cases, outcomes, spans):
            out.seconds *= cal.speed(*span, speed_loops(case))
    return clock() - t0, outcomes


def warm_calibration() -> Calibration:
    cal = Calibration(clock, cpu)
    for _ in range(WARMUP_PROBES):
        cal.probe()
    return cal


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sample_cases(cases, seconds, start, cal):
    """One full pass, then the cases again in order until `seconds` have
    passed since `start`, with a calibration probe before every run and
    after the last. Returns one list of outcomes per case, the same runs'
    seconds at the nominal speed, and the peak RSS after the first pass,
    before repeats can add to it."""
    samples = [[] for _ in cases]
    spans = [[] for _ in cases]
    rss = None
    i = 0
    while rss is None or clock() - start < seconds:
        cal.probe()
        t0 = clock()
        samples[i].append(workloads.run_case(cases[i], cpu))
        spans[i].append((t0, clock()))
        i = (i + 1) % len(cases)
        if i == 0 and rss is None:
            rss = peak_rss_mb()
    cal.probe()
    scaled = [[o.seconds * cal.speed(*span, speed_loops(case)) for o, span in zip(outs, sp)]
              for case, outs, sp in zip(cases, samples, spans)]
    return samples, scaled, rss


def count_failures(cases, samples, golden):
    """(attempted, failed, messages) over every run of every case. A run
    also fails when its CSV differs from the same case's first run."""
    attempted = failed = 0
    messages = []
    for case, outcomes in zip(cases, samples):
        for out in outcomes:
            attempted += 1
            found = workloads.problems(case, out, golden)
            if not out.error and out.csv != outcomes[0].csv:
                found.append("CSV differs from this case's first run")
            if found:
                failed += 1
                messages.append(f"{case.label}: {'; '.join(found)}")
    return attempted, failed, messages


def fresh_cpu_s(args) -> float:
    """CPU seconds of a fresh `python3 <args>` that prints them as JSON."""
    proc = subprocess.run([sys.executable, *args], cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["cpu_s"]


def measure_setup(workload, seed):
    """Median CPU seconds of fresh processes that import procsearch and build
    the workload's inputs, at the nominal speed: each is scaled by the mean
    of the start-up probes run just before and just after it."""
    probes = [fresh_cpu_s(["-c", STARTUP_PROBE])]
    times = []
    for _ in range(SETUP_PROBES):
        cpu_s = fresh_cpu_s([str(BENCH / "workloads.py"), workload, str(seed)])
        probes.append(fresh_cpu_s(["-c", STARTUP_PROBE]))
        times.append(cpu_s * STARTUP_NOMINAL_S / statistics.mean(probes[-2:]))
    return statistics.median(times)


def end_to_end(samples, scaled, setup_s, rss_mb):
    """A case's time is the least of its runs' seconds at the nominal speed:
    the runs repeat the same deterministic work, so the slower ones measure
    other tenants of the machine. The workload's time is the sum of the
    cases' times."""
    per_case = [min(times) for times in scaled]
    total = sum(per_case)
    steps = sum(outs[0].report.total_steps for outs in samples if outs[0].report)
    return {
        "sweep_s": (total, "s"),
        "env_steps_per_s": (steps / total, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, run_s_summary(per_case)


def _hit_rate(c, layer):
    offered = c[layer + ".offered"]
    return c[layer + ".confirmed"] / offered if offered else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced pass. `_s` is self time, except the
    `rebuild_s` metrics, which include the replay they run."""
    c, n, own, total = t.all_counts(), t.calls, t.self_time, t.total
    return {
        "envs.steps": (c["envs.steps"], "count"),
        "envs.resets": (n["envs.reset"], "count"),
        "envs.step_s": (t.step_busy[0], "s"),
        "envs.replay_steps": (c["envs.replay_steps"], "count"),
        "envs.frontier_steps": (c["envs.frontier_steps"], "count"),
        "envs.burn_steps": (c["envs.burn_steps"], "count"),
        "envs.tabular_steps": (c["envs.tabular_steps"], "count"),
        "search.self_s": (t.layer_self("search"), "s"),
        "search.episodes": (c["search.episodes"], "count"),
        "search.backtracks": (n["search.backtrack"], "count"),
        "search.suggest_calls": (c["search.suggest_calls"], "count"),
        "sketch.self_s": (t.layer_self("sketch"), "s"),
        "sketch.on_confirmed_s": (own["sketch.on_confirmed"], "s"),
        "sketch.on_confirmed_calls": (n["sketch.on_confirmed"], "count"),
        "sketch.branch_s": (own["sketch.branch"], "s"),
        "sketch.branch_calls": (n["sketch.branch"], "count"),
        "sketch.branch_children": (c["sketch.branch_children"], "count"),
        "sketch.select_s": (own["sketch.select"], "s"),
        "sketch.rebuild_s": (total["sketch.rebuild"], "s"),
        "sketch.rebuilds": (n["sketch.rebuild"], "count"),
        "sketch.seen_max": (t.maxima["sketch.seen_max"], "count"),
        "sketch.stored_max": (t.maxima["sketch.stored_max"], "count"),
        "sketch.offered": (c["sketch.offered"], "count"),
        "sketch.confirmed": (c["sketch.confirmed"], "count"),
        "sketch.hit_rate": (_hit_rate(c, "sketch"), "ratio"),
        "repeats.self_s": (t.layer_self("repeats"), "s"),
        "repeats.update_s": (own["repeats.update"], "s"),
        "repeats.update_calls": (n["repeats.update"], "count"),
        "repeats.suggest_s": (own["repeats.suggest"], "s"),
        "repeats.suggest_calls": (n["repeats.suggest"], "count"),
        "repeats.candidates_max": (t.maxima["repeats.candidates_max"], "count"),
        "repeats.rebuild_s": (total["repeats.rebuild"], "s"),
        "repeats.rebuilds": (n["repeats.rebuild"], "count"),
        "repeats.offered": (c["repeats.offered"], "count"),
        "repeats.confirmed": (c["repeats.confirmed"], "count"),
        "repeats.hit_rate": (_hit_rate(c, "repeats"), "ratio"),
        "baselines.tabular_self_s": (own["baselines.rmax_learn"] + own["baselines.ucb_learn"], "s"),
        "baselines.tabular_episodes": (c["baselines.tabular_episodes"], "count"),
        "baselines.oracle_suggest_s": (own["baselines.oracle_suggest"], "s"),
        "baselines.oracle_offered": (c["baselines.oracle.offered"], "count"),
        "baselines.oracle_confirmed": (c["baselines.oracle.confirmed"], "count"),
        "baselines.oracle_hit_rate": (_hit_rate(c, "baselines.oracle"), "ratio"),
        "harness.csv_s": (own["harness.csv"], "s"),
    }


def identity_violations(t: Tracer, cases, outcomes) -> list[str]:
    """Counter identities that must hold for every traced pass."""
    c = t.all_counts()
    runs = [(case, o.report) for case, o in zip(cases, outcomes) if o.report]
    plan = [r for case, r in runs if case.agent not in workloads.TABULAR_AGENTS]
    checks = {
        "frontier_steps == suggest calls":
            (c["envs.frontier_steps"], c["search.suggest_calls"]),
        "replay + frontier + burn + tabular steps == envs.steps":
            (c["envs.replay_steps"] + c["envs.frontier_steps"] + c["envs.burn_steps"]
             + c["envs.tabular_steps"], c["envs.steps"]),
        "envs.steps == sum of report.total_steps":
            (c["envs.steps"], sum(r.total_steps for _, r in runs)),
        "search.episodes == sum of plan-agent report.episodes":
            (c["search.episodes"], sum(r.episodes for r in plan)),
        "search.backtracks == sum of report.backtracks":
            (t.calls["search.backtrack"], sum(r.backtracks for _, r in runs)),
    }
    return [f"{name}: {a} != {b}" for name, (a, b) in checks.items() if a != b]


def per_layer(cases, seconds, start, workload, seed):
    """Untraced and traced passes in turn while another pair fits in
    `seconds`, at least one pair. Per-layer metrics are per traced pass
    (times: the median across traced passes); the tracing overhead compares
    the cases' fastest traced and untraced runs, at the nominal speed."""
    cal = warm_calibration()
    untraced, passes, tracers = [], [], []
    while True:
        untraced.append(run_pass(cases, cal))
        t = Tracer()
        with instrument(t):
            passes.append(run_pass(cases, cal))
        tracers.append(t)
        if clock() - start + untraced[-1][0] + passes[-1][0] > seconds:
            break
    problems = []
    per_pass = [layer_metrics(t) for t in tracers]
    for t, (_, outcomes) in zip(tracers, passes):
        problems += identity_violations(t, cases, outcomes)
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "ratio"):
            if any(v != value for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = (value, unit)
    demo_tracer = Tracer()
    with instrument(demo_tracer):
        workloads.build(workload, seed)
    metrics["core.demo_s"] = (demo_tracer.total["core.demo"], "s")
    u_samples = [list(outs) for outs in zip(*(o for _, o in untraced))]
    t_samples = [list(outs) for outs in zip(*(o for _, o in passes))]
    u_s = sum(min(o.seconds for o in outs) for outs in u_samples)
    t_s = sum(min(o.seconds for o in outs) for outs in t_samples)
    metrics["trace.untraced_s"] = (u_s, "s")
    metrics["trace.traced_s"] = (t_s, "s")
    metrics["trace.overhead"] = (t_s / u_s - 1, "ratio")
    return [u + t for u, t in zip(u_samples, t_samples)], metrics, problems


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def bench_one(workload, seed, seconds, trace):
    """Measure one workload; returns the result object for the last line."""
    golden = load_golden()[workload] if seed == workloads.DEFAULT_SEED else None
    if trace:
        cases = workloads.build(workload, seed)
        samples, metrics, problems = per_layer(cases, seconds, clock(), workload, seed)
    else:
        setup_s = measure_setup(workload, seed)
        cal = warm_calibration()
        cases = workloads.build(workload, seed)
        samples, scaled, rss_mb = sample_cases(cases, seconds, clock(), cal)
        metrics, run_s = end_to_end(samples, scaled, setup_s, rss_mb)
        problems = []
    attempted, failed, messages = count_failures(cases, samples, golden)
    for msg in problems + messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {trace}: {len(cases)} cases, {attempted} runs, "
          f"fingerprints {'checked' if golden is not None else 'skipped'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not trace:
        # informational: which case is the median depends on the seed
        print(f"  {'run_s.p50':32s} {run_s['p50']:14.6g} s ({run_s['n']} cases)")
        print(f"  {'run_s.p90':32s} {run_s['p90']:14.6g} s ({run_s['n']} cases)")
        raw = sum(min(o.seconds for o in outs) for outs in samples)
        print(f"  {'sweep CPU s, unscaled':32s} {raw:14.6g} s; median probe speed "
              f"{cal.typical_speed():.3f} of nominal ({len(cal.probes)} probes)")
    print(f"  {'fail_rate':32s} {failed / attempted:14.6g} ratio ({failed}/{attempted} runs)")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def bench_all(seed, seconds, out):
    """Every workload untraced and traced, each in its own process."""
    report = {"machine": machine(), "seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=workloads.ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"benchmark: {workload} trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report["workloads"].setdefault(workload, {})["per_layer" if trace else "end_to_end"] = result
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")


def update_golden():
    """Rewrite golden.json from the current code at the default seed. Only
    for a change that is meant to alter behaviour."""
    golden = {}
    for workload in workloads.WORKLOADS:
        cases = workloads.build(workload, workloads.DEFAULT_SEED)
        _, outcomes = run_pass(cases)
        for out in outcomes:
            if out.error:
                raise SystemExit(out.error)
        golden[workload] = {c.label: workloads.sha256(o.csv) for c, o in zip(cases, outcomes)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(BENCH / "results.json"),
                    help="report file written by --workload all")
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.update_golden:
        update_golden()
        return
    if args.workload == "all":
        bench_all(args.seed, args.seconds, args.out)
        return
    print("machine: " + json.dumps(machine()))
    result = bench_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
