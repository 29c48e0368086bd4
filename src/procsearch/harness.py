"""Experiment harness: seeded runs, sweeps, CSV emission, SVG curves.

A run is fully determined by its config (env, agent, seed, flags) and writes
no file: rerunning it produces byte-identical CSV output. Sweeps expand a
line-oriented key=value spec into a config grid, run every cell, and aggregate
per (env, agent) means into a summary CSV plus matched-fraction learning curves.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import Field, dataclass, field, fields, replace
from itertools import chain, groupby, product
from pathlib import Path
from typing import get_type_hints

from .agents import AGENT_NAMES, MODEL_REGISTRY, AgentOptions, ConfigError, check_fit, run_agent
from .envs import ENV_REGISTRY, make_task

CSV_HEADER = "episode,steps,matched,backtracks,done"
CSV_ROW = "%d,%d,%d,%d,%d\n"  # one row tuple; %d prints `done` as 0 or 1


@dataclass(frozen=True)
class RunConfig(AgentOptions):
    """One seeded run. Every field is a flag of the `run` command and a
    sweep-spec key; both front ends are generated from here."""

    env: str
    agent: str
    seed: int
    max_episodes: int = 30000

    def validate(self) -> None:
        if self.env not in ENV_REGISTRY:
            raise ConfigError(f"unknown environment {self.env!r}; known: {sorted(ENV_REGISTRY)}")
        if self.agent not in AGENT_NAMES:
            raise ConfigError(f"unknown agent {self.agent!r}; known: {sorted(AGENT_NAMES)}")
        if self.seed < 0:
            # random.Random(-s) seeds like Random(s): a negative seed repeats a run
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_episodes < 1:
            raise ConfigError("max_episodes must be >= 1")
        if self.n_hypotheses < 1:
            raise ConfigError("n_hypotheses must be >= 1")
        task = make_task(self.env)
        check_fit(self.agent, task, task.sketch, task.env())

    def label(self) -> str:
        return f"{self.env}_{self.agent}_s{self.seed}"


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def field_type(f: Field) -> type:
    """The value type of RunConfig field `f`; a TypeError unless bool, int
    or str, which the front ends parse."""
    kind = get_type_hints(RunConfig)[f.name]
    if kind not in (bool, int, str):
        raise TypeError(f"RunConfig field {f.name!r} has unsupported type {kind!r}")
    return kind


def option_value(f: Field, text: str):
    """`text` parsed as a value of RunConfig field `f`; ValueError if it is none."""
    kind = field_type(f)
    if kind is not bool:
        return kind(text)
    if text.lower() not in _BOOL:
        raise ValueError(f"{f.name} must be one of {sorted(_BOOL)}")
    return _BOOL[text.lower()]


@dataclass
class RunRecord:
    config: RunConfig
    horizon: int
    episodes: int
    total_steps: int
    backtracks: int
    complete: bool
    rows: list = field(default_factory=list)
    stop_reason: str | None = None  # the LearnReport's, when built from one

    def csv(self) -> str:
        return CSV_HEADER + "\n" + "".join(map(CSV_ROW.__mod__, self.rows))


def run(config: RunConfig) -> RunRecord:
    config.validate()
    return _run(config)


def _run(config: RunConfig) -> RunRecord:
    """`run` of a config that has passed `validate`."""
    task = make_task(config.env)
    demo = task.demo()
    options = {f.name: getattr(config, f.name) for f in fields(AgentOptions)}
    report = run_agent(config.agent, task, demo, config.seed, config.max_episodes, options)
    return RunRecord(config, demo.horizon, report.episodes, report.total_steps,
                     report.backtracks, report.complete, report.rows, report.stop_reason)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _parse_seeds(text: str) -> list[range]:
    """The seeds of a `seeds=` value, `0-9,12`, as one range per part,
    unexpanded, so that a block's size is counted before it is built."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
        else:
            lo = hi = int(part)
        seeds.append(range(lo, hi + 1))
    return seeds


_AXES = ("env", "agent", "seed")  # comma lists, written singular or plural
_SWEEP_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name not in _AXES}
MAX_BLOCK_RUNS = 10_000  # the runs one sweep block may expand to


def parse_sweep_spec(text: str) -> list[RunConfig]:
    """Blocks of key=value lines (blank-line separated); each block expands
    to the cross product of its envs x agents x seeds. The other keys are
    RunConfig fields; a bad or repeated key or a bad value is a ConfigError
    quoting its line, and a run that fails `RunConfig.validate` one naming
    its block. So is a block of more than MAX_BLOCK_RUNS runs, counted from
    its axis lengths before any run is built."""
    configs: list[RunConfig] = []
    lines = [raw.strip() for raw in text.splitlines()]
    for blank, block in groupby(lines, key=lambda line: not line):
        block = [line for line in block if not line.startswith("#")]
        if blank or not block:
            continue
        grid = {"seed": [range(1)]}
        extra = {}
        given = {}  # key (axes singular) -> the line that set it
        for line in block:
            if "=" not in line:
                raise ConfigError(f"bad sweep line (want key=value): {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            axis = key.removesuffix("s")
            name = axis if axis in _AXES else key
            if name in given:
                raise ConfigError(f"bad sweep line {line!r}: repeats {given[name]!r}")
            given[name] = line
            try:
                if axis == "seed":
                    grid[axis] = _parse_seeds(value)
                elif axis in _AXES:
                    grid[axis] = [x.strip() for x in value.split(",") if x.strip()]
                elif key in _SWEEP_OPTIONS:
                    extra[key] = option_value(_SWEEP_OPTIONS[key], value)
                else:
                    raise ValueError(f"unknown key; known: {sorted((*_AXES, *_SWEEP_OPTIONS))}")
            except ValueError as e:
                raise ConfigError(f"bad sweep line {line!r}: {e}") from None
        if not grid.get("env") or not grid.get("agent"):
            raise ConfigError(f"sweep block starting {block[0]!r} needs envs= and agents=")
        # len() of a range past sys.maxsize raises OverflowError
        runs = len(grid["env"]) * len(grid["agent"]) * sum(r.stop - r.start for r in grid["seed"])
        if runs > MAX_BLOCK_RUNS:
            raise ConfigError(f"sweep block starting {block[0]!r} has {runs} runs, "
                              f"more than the {MAX_BLOCK_RUNS} a block may have")
        seeds = chain.from_iterable(grid["seed"])
        for env, agent, seed in product(grid["env"], grid["agent"], seeds):
            config = RunConfig(env, agent, seed, **extra)
            try:
                config.validate()
            except ConfigError as e:
                raise ConfigError(f"sweep block starting {block[0]!r}: {e}") from None
            configs.append(config)
    if not configs:
        raise ConfigError("sweep spec produced no runs")
    return configs


@dataclass
class SweepResult:
    records: list[RunRecord]
    summary_rows: list[dict]


def summarize(records: list[RunRecord]) -> list[dict]:
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.config.env, rec.config.agent), []).append(rec)
    rows = []
    for (env, agent), recs in sorted(groups.items()):
        eps = [r.episodes for r in recs]
        mean = sum(eps) / len(eps)
        var = sum((e - mean) ** 2 for e in eps) / len(eps)
        rows.append({
            "env": env,
            "agent": agent,
            "runs": len(recs),
            "mean_episodes": mean,
            "std_episodes": math.sqrt(var),
            "mean_steps": sum(r.total_steps for r in recs) / len(recs),
            "complete_rate": sum(r.complete for r in recs) / len(recs),
        })
    return rows


def summary_csv(rows: list[dict]) -> str:
    lines = ["env,agent,runs,mean_episodes,std_episodes,mean_steps,complete_rate"]
    for r in rows:
        lines.append(f"{r['env']},{r['agent']},{r['runs']},{r['mean_episodes']:.3f},"
                     f"{r['std_episodes']:.3f},{r['mean_steps']:.1f},{r['complete_rate']:.2f}")
    return "\n".join(lines) + "\n"


def sweep(configs: list[RunConfig], out_dir: str | Path | None = None,
          jobs: int = 1) -> SweepResult:
    """Run every config, `jobs` at a time; once all have returned, write each
    run's `<label>.csv`, `summary.csv` and the curves to `out_dir`, if given.
    A tabular agent's configs that differ only in the seed run once and
    share that run's record."""
    if not configs:
        raise ConfigError("sweep needs at least one run config")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    labels = set()
    for c in configs:
        c.validate()
        label = c.label()  # names the run's CSV
        if label in labels:
            raise ConfigError(f"two sweep runs share the label {label!r}, so one "
                              f"run's CSV would overwrite the other's")
        labels.add(label)
    out_path = Path(out_dir) if out_dir else None
    if out_path:
        out_path.mkdir(parents=True, exist_ok=True)
    # a tabular agent ignores the seed, so one run serves every seed of its cell
    cell = lambda c: replace(c, seed=0) if c.agent in MODEL_REGISTRY else c
    firsts: dict[RunConfig, RunConfig] = {}
    for c in configs:
        firsts.setdefault(cell(c), c)
    # a Pool starts every worker up front: at most one per run and per CPU it may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(firsts), cpus or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            ran = pool.map(_run, firsts.values())
    else:
        ran = [_run(c) for c in firsts.values()]
    done = dict(zip(firsts, ran))
    records = [replace(done[cell(c)], config=c) for c in configs]
    rows = summarize(records)
    if out_path:
        for r in records:
            (out_path / f"{r.config.label()}.csv").write_text(r.csv())
        (out_path / "summary.csv").write_text(summary_csv(rows))
        for env in sorted({c.env for c in configs}):
            svg = learning_curves_svg([r for r in records if r.config.env == env])
            (out_path / f"curves_{env}.svg").write_text(svg)
    return SweepResult(records, rows)


# ---------------------------------------------------------------------------
# SVG learning curves (x: episode, y: matched fraction of the demonstration)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2")
_WIDTH, _HEIGHT = 640, 400


def matched_fraction_curve(record: RunRecord) -> list[float]:
    return [matched / record.horizon for _, _, matched, _, _ in record.rows]


def _mean_curve(records: list[RunRecord]) -> list[float]:
    curves = [matched_fraction_curve(r) for r in records]
    n = max(len(c) for c in curves)
    out = []
    for i in range(n):
        vals = [c[i] if i < len(c) else c[-1] for c in curves]
        out.append(sum(vals) / len(vals))
    return out


def learning_curves_svg(records: list[RunRecord]) -> str:
    by_agent: dict[str, list[RunRecord]] = {}
    for r in records:
        by_agent.setdefault(r.config.agent, []).append(r)
    curves = {a: _mean_curve(rs) for a, rs in sorted(by_agent.items())}
    max_x = max((len(c) for c in curves.values()), default=1)
    pad = 45
    px = lambda i: pad + (_WIDTH - 2 * pad) * (i / max(max_x - 1, 1))
    py = lambda v: _HEIGHT - pad - (_HEIGHT - 2 * pad) * v
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{pad}" y1="{_HEIGHT - pad}" x2="{_WIDTH - pad}" y2="{_HEIGHT - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{_HEIGHT - pad}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 8}" font-size="12" text-anchor="middle">episode</text>',
        f'<text x="12" y="{_HEIGHT // 2}" font-size="12" transform="rotate(-90 12 {_HEIGHT // 2})" '
        f'text-anchor="middle">matched fraction</text>',
    ]
    for k, (agent, curve) in enumerate(curves.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in enumerate(curve))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{_WIDTH - pad + 4}" y="{pad + 14 * k}" font-size="11" '
                     f'fill="{color}">{agent}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
