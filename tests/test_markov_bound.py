"""The paper's Markov bound holds for every plan-search agent.

A suggester only reorders the choices at the frontier, so on a Markov
environment (every demonstrated token names its position, and a wrong
action leaves the script for good) each agent confirms only correct actions
and fails each (position, action) pair at most once: it finishes within
|A|·H episodes and |A|·H² steps, without a backtrack.
"""

from hypothesis import given, settings, strategies as st

from procsearch.agents import run_agent
from procsearch.core import Sketch, Task, spans_from_lengths
from procsearch.envs.scripted import ScriptedEnv
from procsearch.search import replay_matches

PLAN_AGENTS = ("bps", "bpsosa", "plots_sketch", "plots_nosketch")


@st.composite
def markov_tasks(draw):
    """A scripted chain whose script follows a sketch over a random
    label -> content map; with more elements than labels, some repeat. At
    most 12 elements of at most 5 actions keep H <= 60."""
    n_actions = draw(st.integers(2, 8))
    n_labels = draw(st.integers(1, 4))
    contents = [tuple(draw(st.lists(st.integers(0, n_actions - 1), min_size=1, max_size=5)))
                for _ in range(n_labels)]
    elements = draw(st.lists(st.integers(0, n_labels - 1), min_size=n_labels + 1, max_size=12))
    script = tuple(a for e in elements for a in contents[e])
    return Task(name="markov_chain", make_env=lambda: ScriptedEnv(n_actions, script),
                solution=script, sketch=Sketch(tuple(f"b{e}" for e in elements)),
                alignment=spans_from_lengths(len(contents[e]) for e in elements))


@settings(max_examples=60, deadline=None)
@given(markov_tasks(), st.integers(0, 2**16))
def test_every_plan_agent_meets_the_markov_bound(task, seed):
    demo = task.demo()
    n_actions, horizon = task.env().n_actions, demo.horizon
    for agent in PLAN_AGENTS:
        rep = run_agent(agent, task, demo, seed, budget=4 * n_actions * horizon)
        assert rep.complete, agent
        assert rep.episodes <= n_actions * horizon, agent
        assert rep.total_steps <= n_actions * horizon * horizon, agent
        assert all(steps <= horizon for _, steps, *_ in rep.rows), agent
        assert rep.backtracks == 0, agent
        assert replay_matches(task.env(), demo, rep.plan), agent
