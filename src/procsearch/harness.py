"""Experiment harness: seeded runs, sweeps, CSV emission, SVG curves.

A run is fully determined by its config (env, agent, seed, flags): rerunning
it produces byte-identical CSV output. Sweeps expand a line-oriented
key=value spec into a config grid, run every cell, and aggregate per
(env, agent) means into a summary CSV plus matched-fraction learning curves.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import Field, dataclass, field, fields, replace
from itertools import groupby, product
from pathlib import Path
from typing import get_args, get_type_hints

from .agents import AGENT_NAMES, AgentOptions, ConfigError, run_agent
from .envs import ENV_REGISTRY, make_task
from .search import LearnReport

CSV_HEADER = "episode,steps,matched,backtracks,done"


@dataclass(frozen=True)
class RunConfig(AgentOptions):
    """One seeded run. Every field is a flag of the `run` command and, apart
    from `out`, a sweep-spec key; both front ends are generated from here."""

    env: str
    agent: str
    seed: int
    max_episodes: int = 30000
    out: str | None = field(default=None, metadata={"help": "directory for the per-episode CSV"})

    def validate(self) -> None:
        if self.env not in ENV_REGISTRY:
            raise ConfigError(f"unknown environment {self.env!r}; known: {sorted(ENV_REGISTRY)}")
        if self.agent not in AGENT_NAMES:
            raise ConfigError(f"unknown agent {self.agent!r}; known: {sorted(AGENT_NAMES)}")
        if self.max_episodes < 1:
            raise ConfigError("max_episodes must be >= 1")
        if self.n_hypotheses < 1:
            raise ConfigError("n_hypotheses must be >= 1")

    def label(self) -> str:
        return f"{self.env}_{self.agent}_s{self.seed}"


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def field_type(f: Field) -> type:
    """The value type of RunConfig field `f`, None dropped from an optional
    type; a TypeError unless bool, int or str, which the front ends parse."""
    kind = get_type_hints(RunConfig)[f.name]
    kind = next((k for k in get_args(kind) if k is not type(None)), kind)
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

    def csv(self) -> str:
        lines = [CSV_HEADER]
        for ep, steps, matched, bt, done in self.rows:
            lines.append(f"{ep},{steps},{matched},{bt},{int(done)}")
        return "\n".join(lines) + "\n"


def run(config: RunConfig) -> RunRecord:
    config.validate()
    task = make_task(config.env)
    demo = task.demo()
    options = {f.name: getattr(config, f.name) for f in fields(AgentOptions)}
    report: LearnReport = run_agent(config.agent, task, demo, config.seed,
                                    config.max_episodes, options)
    record = RunRecord(config, demo.horizon, report.episodes, report.total_steps,
                       report.backtracks, report.complete, report.rows)
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{config.label()}.csv").write_text(record.csv())
    return record


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    return seeds


_AXES = ("env", "agent", "seed")  # comma lists, written singular or plural
# `out` is not a key: sweep() puts every run's CSV in its own directory
_SWEEP_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name not in (*_AXES, "out")}


def parse_sweep_spec(text: str) -> list[RunConfig]:
    """Blocks of key=value lines (blank-line separated); each block expands
    to the cross product of its envs x agents x seeds. The other keys are
    RunConfig fields; a bad or repeated key or a bad value is a ConfigError
    quoting its line."""
    configs: list[RunConfig] = []
    lines = [raw.strip() for raw in text.splitlines()]
    for blank, block in groupby(lines, key=lambda line: not line):
        block = [line for line in block if not line.startswith("#")]
        if blank or not block:
            continue
        grid = {"seed": [0]}
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
            raise ConfigError("each sweep block needs envs= and agents=")
        configs += [RunConfig(env, agent, seed, **extra)
                    for env, agent, seed in product(grid["env"], grid["agent"], grid["seed"])]
    if not configs:
        raise ConfigError("sweep spec produced no runs")
    return configs


@dataclass
class SweepResult:
    records: list[RunRecord]
    summary_rows: list[dict]
    out_dir: Path | None = None


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
    if not configs:
        raise ConfigError("sweep needs at least one run config")
    for c in configs:
        c.validate()
    out_path = Path(out_dir) if out_dir else None
    if out_path:
        out_path.mkdir(parents=True, exist_ok=True)
        configs = [replace(c, out=str(out_path)) for c in configs]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(run, configs)
    else:
        records = [run(c) for c in configs]
    rows = summarize(records)
    if out_path:
        (out_path / "summary.csv").write_text(summary_csv(rows))
        for env in sorted({c.env for c in configs}):
            svg = learning_curves_svg([r for r in records if r.config.env == env])
            (out_path / f"curves_{env}.svg").write_text(svg)
    return SweepResult(records, rows, out_path)


# ---------------------------------------------------------------------------
# SVG learning curves (x: episode, y: matched fraction of the demonstration)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2")


def matched_fraction_curve(record: RunRecord) -> list[float]:
    out = []
    for _, _, matched, _, _ in record.rows:
        out.append(matched / record.horizon)
    return out


def _mean_curve(records: list[RunRecord]) -> list[float]:
    curves = [matched_fraction_curve(r) for r in records]
    if not curves:
        return []
    n = max(len(c) for c in curves)
    out = []
    for i in range(n):
        vals = [c[i] if i < len(c) else (c[-1] if c else 0.0) for c in curves]
        out.append(sum(vals) / len(vals))
    return out


def learning_curves_svg(records: list[RunRecord], width: int = 640, height: int = 400) -> str:
    by_agent: dict[str, list[RunRecord]] = {}
    for r in records:
        by_agent.setdefault(r.config.agent, []).append(r)
    curves = {a: _mean_curve(rs) for a, rs in sorted(by_agent.items())}
    max_x = max((len(c) for c in curves.values()), default=1)
    pad = 45
    px = lambda i: pad + (width - 2 * pad) * (i / max(max_x - 1, 1))
    py = lambda v: height - pad - (height - 2 * pad) * v
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" text-anchor="middle">episode</text>',
        f'<text x="12" y="{height // 2}" font-size="12" transform="rotate(-90 12 {height // 2})" '
        f'text-anchor="middle">matched fraction</text>',
    ]
    for k, (agent, curve) in enumerate(curves.items()):
        if not curve:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in enumerate(curve))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * k}" font-size="11" '
                     f'fill="{color}">{agent}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
