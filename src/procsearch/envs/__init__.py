"""Environment registry."""

from __future__ import annotations

import functools

from ..core import Task
from .scripted import ScriptedEnv, AutomatonEnv, make_chain, make_markov_scripted
from .craft import GridCraftEnv, make_island_task, make_gem_task
from .cpr import CprEnv, make_cpr_task
from .piano import PianoEnv, make_piano_task


def _make_chain_task() -> Task:
    _, script = make_chain()
    return Task(name="chain", make_env=lambda: make_chain()[0], solution=script)


def _make_scripted_task() -> Task:
    _, script = make_markov_scripted()
    return Task(name="scripted", make_env=lambda: make_markov_scripted()[0], solution=script)


ENV_REGISTRY = {
    "chain": _make_chain_task,
    "scripted": _make_scripted_task,
    "island": make_island_task,
    "gem": make_gem_task,
    "cpr": make_cpr_task,
    "piano": make_piano_task,
}


@functools.cache
def make_task(name: str) -> Task:
    """The registered task `name`: one per name per process, so that every
    run of it steps through the one transition memo."""
    try:
        builder = ENV_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; known: {sorted(ENV_REGISTRY)}") from None
    return builder()


__all__ = [
    "ENV_REGISTRY", "make_task",
    "ScriptedEnv", "AutomatonEnv", "GridCraftEnv", "CprEnv", "PianoEnv",
    "make_island_task", "make_gem_task", "make_cpr_task",
    "make_piano_task", "make_chain", "make_markov_scripted",
]
