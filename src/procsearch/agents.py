"""Agent registry: plan-search agents (suggester variants) and tabular ones."""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .baselines import OracleAlignedSuggester, rmax_learn, ucb_learn
from .core import Demonstration, Env, Sketch, Task
from .repeats import RepeatPoolSuggester
from .search import LearnReport, UniformSuggester, learn
from .sketch import SketchPoolSuggester


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, kw_only=True)
class AgentOptions:
    """Settings of the plan-search agents; the tabular agents take none."""

    n_hypotheses: int = 4  # N1: tracked sketch hypotheses, the blank one included
    optimistic: bool = True  # the optimistic rule answers in open runs


def _bps(task, demo, opts):
    return UniformSuggester()


def _plots_sketch(task, demo, opts):
    key = "plots_sketch", demo.sketch.elements, demo.horizon, opts.n_hypotheses, opts.optimistic
    return SketchPoolSuggester(demo.sketch, demo.horizon,
                               n_active=opts.n_hypotheses, optimistic=opts.optimistic,
                               store=task._stores.setdefault(key, {}))


def _plots_nosketch(task, demo, opts):
    return RepeatPoolSuggester(task._stores.setdefault(("plots_nosketch",), {}))


def _bpsosa(task, demo, opts):
    return OracleAlignedSuggester(task.alignment, demo.sketch)


SUGGESTER_REGISTRY = {
    "bps": _bps,
    "plots_sketch": _plots_sketch,
    "plots_nosketch": _plots_nosketch,
    "bpsosa": _bpsosa,
}

MODEL_REGISTRY = {
    "rmax_plus": rmax_learn,
    "ucb_plus": ucb_learn,
}

AGENT_NAMES = tuple(SUGGESTER_REGISTRY) + tuple(MODEL_REGISTRY)

# these suggesters encode the plan as bytes, one action per byte
BYTE_PLAN_AGENTS = ("plots_sketch", "plots_nosketch")
BYTE_PLAN_MAX_ACTIONS = 256


def check_fit(name: str, task: Task, sketch: Sketch | None, env: Env) -> None:
    """A ConfigError unless agent `name` can run on `task`, whose demonstration
    has `sketch` and whose environment is `env`."""
    if name in BYTE_PLAN_AGENTS and env.n_actions > BYTE_PLAN_MAX_ACTIONS:
        raise ConfigError(f"agent {name} takes at most {BYTE_PLAN_MAX_ACTIONS} actions, "
                          f"env {task.name!r} has n_actions={env.n_actions}")
    if name == "plots_sketch" and sketch is None:
        raise ConfigError(f"agent plots_sketch needs a sketch, env {task.name!r} has none")
    if name == "bpsosa" and (task.alignment is None or sketch is None):
        raise ConfigError(f"agent bpsosa needs an oracle alignment, env {task.name!r} has none")


def run_agent(name: str, task: Task, demo: Demonstration, seed: int,
              budget: int, cfg: dict | None = None) -> LearnReport:
    """One full learning run of the named agent on the task; `cfg` maps
    AgentOptions field names to values.

    The run steps through the task's transition memo, and a suggester that
    keeps per-plan state gets the task's store for its key in `_stores`:
    ("plots_nosketch",) for the repeat rankings, and ("plots_sketch", sketch
    elements, horizon, n_hypotheses, optimistic) for the pool checkpoints.
    So a later run of the task finds them warm. Each is a function of the
    task or of the key and the plan, so a warm run reports what a cold one
    does."""
    known = {f.name for f in fields(AgentOptions)}
    unknown = sorted(set(cfg or {}) - known)
    if unknown:
        raise ConfigError(f"unknown agent options {unknown}; known: {sorted(known)}")
    opts = AgentOptions(**(cfg or {}))
    env = task.env()
    check_fit(name, task, demo.sketch, env)
    if name in SUGGESTER_REGISTRY:
        suggester = SUGGESTER_REGISTRY[name](task, demo, opts)
        rng = random.Random(seed)
        return learn(env, demo, suggester, rng, budget)
    if name in MODEL_REGISTRY:
        return MODEL_REGISTRY[name](env, demo, budget)
    raise ConfigError(f"unknown agent {name!r}; known: {sorted(AGENT_NAMES)}")
