"""An exact completeness bound on aliased instances for every plan agent.

Let T be the tree of demonstration-consistent prefixes, the empty one
included, and T<H its nodes shorter than H. Plan search is a depth-first
search of T: a prefix, once abandoned, never returns, because its last
action stays ruled out until its parent is abandoned; and at a prefix p the
only actions that can fail are the |A| - kids(p) that leave T. Every episode
but the last ends on one such failure, and every backtrack abandons a node
off the final plan, so whatever the suggester does:

- episodes <= 1 + |A|·|T<H| - (|T| - 1);
- backtracks <= |T| - H - 1;
- the plan is one of the valid plans, the depth-H nodes of T.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from procsearch.agents import run_agent
from procsearch.core import record_demonstration, segments_to_task
from procsearch.envs.scripted import random_aliased_env
from tests.test_scripted_envs import enumerate_valid_plans


def consistent_prefixes(env, demo) -> list[tuple[int, ...]]:
    """T by depth-first search: every action prefix, the empty one included,
    whose replay emits the demonstration's first tokens."""
    tree, stack = [], [()]
    while stack:
        prefix = stack.pop()
        tree.append(prefix)
        if len(prefix) == demo.horizon:
            continue
        for a in range(env.n_actions):
            env.reset()
            for b in prefix:
                env.step(b)
            if env.step(a) == demo.observations[len(prefix)]:
                stack.append(prefix + (a,))
    return tree


def test_the_tree_leaves_are_the_valid_plans():
    rng = random.Random(5)
    for _ in range(30):
        env, script = random_aliased_env(rng, rng.choice((2, 3)), rng.randrange(1, 7),
                                         n_tokens=rng.choice((2, 3)))
        demo = record_demonstration(env, script)
        tree = consistent_prefixes(env, demo)
        assert len(set(tree)) == len(tree)
        assert sorted(p for p in tree if len(p) == demo.horizon) == \
            enumerate_valid_plans(env, demo)


@st.composite
def aliased_tasks(draw):
    """A random aliased automaton whose sketch splits the script into
    segments; equal segments share a label, so the sketch has repeats."""
    n_actions = draw(st.integers(2, 3))
    horizon = draw(st.sampled_from(range(1, 11)))  # uniform: long plans backtrack more
    n_tokens = draw(st.integers(2, 3))
    env_seed = draw(st.integers(0, 2**32 - 1))

    def make_env():
        return random_aliased_env(random.Random(env_seed), n_actions, horizon, n_tokens)[0]

    script = random_aliased_env(random.Random(env_seed), n_actions, horizon, n_tokens)[1]
    cuts = draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    segments = [script[i:j] for i, j in itertools.pairwise([0, *sorted(cuts), horizon])]
    labels = {}
    return segments_to_task(
        "aliased", make_env,
        [(labels.setdefault(seg, f"s{len(labels)}"), seg) for seg in segments])


AGENT_RUNS = [("bps", {}), ("plots_nosketch", {}), ("bpsosa", {})] + [
    ("plots_sketch", {"n_hypotheses": n1}) for n1 in (1, 2, 4)]


@settings(max_examples=100, deadline=None)
@given(aliased_tasks(), st.integers(0, 2**16))
def test_every_plan_agent_meets_the_completeness_bound(task, seed):
    demo = task.demo()
    env = task.env()
    tree = consistent_prefixes(env, demo)
    horizon, n_actions = demo.horizon, env.n_actions
    short = sum(len(p) < horizon for p in tree)
    max_episodes = 1 + n_actions * short - (len(tree) - 1)
    valid = {p for p in tree if len(p) == horizon}
    for agent, cfg in AGENT_RUNS:
        rep = run_agent(agent, task, demo, seed, budget=max_episodes + 1, cfg=cfg)
        assert rep.complete, (agent, cfg)
        assert rep.episodes <= max_episodes, (agent, cfg)
        assert rep.backtracks <= len(tree) - horizon - 1, (agent, cfg)
        assert rep.plan in valid, (agent, cfg)
