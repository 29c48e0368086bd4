"""Learner contract: each entry of `LEARNERS` (every agent of
`agents.AGENT_NAMES`, and plots_sketch at more settings) runs through
`run_agent` on every drawn task, so an agent added to `SUGGESTER_REGISTRY`
or `MODEL_REGISTRY` needs no run-contract test of its own. Each run checks:

- the report: rows numbered 1..n of 1 to H steps each, which sum to
  `total_steps`; `matched` in [0, H], falling between two rows by no more
  than the backtracks between them; only the last row done, exactly when the
  run is complete, and then with `matched == H`; `episodes` the row count
  when complete and else the budget, which a "budget" stop fills;
  `backtracks` the last row's;
- soundness: a complete plan has H actions and replays on a fresh env of
  the task, an incomplete one does not;
- budgets and seeds: a rerun at the same seed (at any seed, for a tabular
  agent) reports the same; a run at budget b has the full run's first b
  rows, and stops on the budget if the full run is longer, else reports
  what the full run does.

Runs of one task share its transition memo and its per-plan stores
(`Task._stores`), so runs of mixed learners, settings and seeds one after
another on a registered task or an aliased automaton, short or long enough
to make them backtrack, must each report what they do on a fresh copy of
the task, and leave there at most one store, under a key of their
learner's own.

On top of that, the paper's guarantees: on Markov chains every agent
completes within |A|·H episodes without a backtrack, and on aliased
automata every plan agent meets the completeness bound and exhausts a
demonstration it cannot reproduce.

A budget of 0 is refused. That test and the long-automaton test are
parametrized by learner, so a failure names its learner in the test id.
The Markov and completeness tests draw each task once and run every learner
on it, so the tree of consistent prefixes is built once per example; their
assertions name the learner. (Drawing the Markov chains once per learner
tripled that test's time.)
"""

import copy
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.agents import (
    AGENT_NAMES, MODEL_REGISTRY, SUGGESTER_REGISTRY, ConfigError, check_fit, run_agent,
)
from procsearch.core import (
    Demonstration, Sketch, Task, intern_token, record_demonstration, spans_from_lengths,
)
from procsearch.envs import ENV_REGISTRY
from procsearch.envs.scripted import ScriptedEnv, random_aliased_env
from procsearch.search import UnsatisfiableDemo, replay_matches
from tests.oracles import consistent_prefixes
from tests.test_scripted_envs import enumerate_valid_plans

LEARNERS = [(name, {}) for name in AGENT_NAMES] + [
    ("plots_sketch", {"n_hypotheses": 1}), ("plots_sketch", {"n_hypotheses": 2}),
    ("plots_sketch", {"optimistic": False})]
each_learner = pytest.mark.parametrize("name, cfg", LEARNERS, ids=[
    "-".join([name, *(f"{k}={v}" for k, v in cfg.items())]) for name, cfg in LEARNERS])
UNEMITTED = intern_token("never-emitted")


def check_report(rep, task: Task, demo: Demonstration, budget: int) -> None:
    """The report contract and soundness, for a run at `budget`."""
    horizon, rows = demo.horizon, rep.rows
    assert [row[0] for row in rows] == list(range(1, len(rows) + 1))
    assert rep.total_steps == sum(row[1] for row in rows)
    assert all(1 <= row[1] <= horizon and 0 <= row[2] <= horizon for row in rows)
    for (*_, matched, backtracks, _), (*_, later, more, _) in itertools.pairwise(rows):
        assert backtracks <= more and matched - later <= more - backtracks
    assert [row[4] for row in rows] == [False] * (len(rows) - 1) + [rep.complete]
    assert (rep.stop_reason == "complete") == rep.complete
    assert rep.backtracks == rows[-1][3]
    if rep.complete:
        assert rows[-1][2] == horizon and rep.episodes == len(rows)
        assert len(rep.plan) == horizon
    else:
        assert rep.episodes == budget and len(rows) <= budget
        # a fixed point found in the budget's last episode is reported as such
        assert rep.stop_reason in ("budget", "fixed_point")
        assert len(rows) == budget or rep.stop_reason == "fixed_point"
    assert replay_matches(task.env(), demo, rep.plan) == rep.complete


def check_run(name: str, cfg: dict, task: Task, demo: Demonstration, seed: int, budget: int,
              data):
    """The learner's run at `budget`, checked with a rerun at the same seed
    (at any seed, for a tabular agent), a run at a budget from 1 up to its
    row count."""
    rep = run_agent(name, task, demo, seed, budget, cfg)
    check_report(rep, task, demo, budget)
    rerun_seed = data.draw(st.integers(0, 2**16), label="seed") if name in MODEL_REGISTRY else seed
    assert run_agent(name, task, demo, rerun_seed, budget, cfg) == rep
    cut_budget = data.draw(st.integers(1, len(rep.rows)), label="cut budget")
    cut = run_agent(name, task, demo, seed, cut_budget, cfg)
    check_report(cut, task, demo, cut_budget)
    assert cut.rows == rep.rows[:cut_budget]
    if len(rep.rows) > cut_budget:
        assert cut.stop_reason == "budget"
    else:  # the same run, stopped for the same reason
        assert replace(cut, episodes=rep.episodes) == rep
    return rep


@each_learner
def test_a_budget_of_no_episode_is_refused(name, cfg):
    script = (0, 1, 1)
    task = Task(name="markov_chain", make_env=lambda: ScriptedEnv(2, script), solution=script,
                sketch=Sketch(("b0",)), alignment=spans_from_lengths([len(script)]))
    with pytest.raises(ValueError, match="budget must be >= 1 episode"):
        run_agent(name, task, task.demo(), 0, 0, cfg)


@st.composite
def markov_tasks(draw):
    """A scripted chain whose script follows a sketch over a random
    label -> content map; some labels repeat. At most 12 elements of at most
    5 actions keep H <= 60."""
    n_actions = draw(st.integers(2, 8))
    n_labels = draw(st.integers(1, 4))
    contents = [tuple(draw(st.lists(st.integers(0, n_actions - 1), min_size=1, max_size=5)))
                for _ in range(n_labels)]
    elements = draw(st.lists(st.integers(0, n_labels - 1), min_size=1, max_size=12))
    script = tuple(a for e in elements for a in contents[e])
    return Task(name="markov_chain", make_env=lambda: ScriptedEnv(n_actions, script),
                solution=script, sketch=Sketch(tuple(f"b{e}" for e in elements)),
                alignment=spans_from_lengths(len(contents[e]) for e in elements))


@settings(max_examples=60, deadline=None)
@given(markov_tasks(), st.integers(0, 2**16), st.data())
def test_every_learner_meets_the_markov_bound(task, seed, data):
    """Every demonstrated token names its position, and a wrong action leaves
    the script for good, so every agent confirms only correct actions and
    fails each (position, action) pair at most once."""
    demo = task.demo()
    n_actions, horizon = task.env().n_actions, demo.horizon
    for name, cfg in LEARNERS:
        rep = check_run(name, cfg, task, demo, seed, 4 * n_actions * horizon, data)
        assert rep.complete and rep.episodes <= n_actions * horizon, (name, cfg)
        assert rep.backtracks == 0, (name, cfg)


def aliased_task(draw, horizons, n_tokens: int, labelled) -> Task:
    """A random aliased automaton whose script is cut into segments at random;
    `labelled(draw, segments)` gives their sketch labels."""
    n_actions = draw(st.integers(2, 3))
    horizon = draw(st.sampled_from(horizons))  # uniform: long plans backtrack more
    env, script = random_aliased_env(random.Random(draw(st.integers(0, 2**32 - 1))),
                                     n_actions, horizon, n_tokens)
    cuts = draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    segments = [script[i:j] for i, j in itertools.pairwise([0, *sorted(cuts), horizon])]
    return Task(name="aliased", make_env=lambda: copy.copy(env), solution=script,
                sketch=Sketch(tuple(labelled(draw, segments))),
                alignment=spans_from_lengths(map(len, segments)))


@st.composite
def aliased_tasks(draw):
    """H <= 10, so that the tree of consistent prefixes stays small; equal
    segments share a label, so the sketch has repeats."""
    labels = {}
    return aliased_task(draw, range(1, 11), draw(st.integers(2, 3)), lambda draw, segments: [
        labels.setdefault(seg, f"s{len(labels)}") for seg in segments])


def max_episodes(tree, horizon: int, n_actions: int) -> int:
    """The completeness bound on the episodes of a search of `tree`."""
    return 1 + n_actions * sum(len(p) < horizon for p in tree) - (len(tree) - 1)


@settings(max_examples=100, deadline=None)
@given(aliased_tasks(), st.integers(0, 2**16), st.data())
def test_every_plan_agent_meets_the_completeness_bound(task, seed, data):
    """Let T be the tree of demonstration-consistent prefixes, the empty one
    included, and T<H its nodes shorter than H. Plan search is a depth-first
    search of T: a prefix, once abandoned, never returns, because its last
    action stays ruled out until its parent is abandoned; and at a prefix p
    the only actions that can fail are the |A| - kids(p) that leave T. Every
    episode but the last ends on one such failure, and every backtrack
    abandons a node off the final plan, so whatever the suggester does:

    - episodes <= 1 + |A|·|T<H| - (|T| - 1);
    - backtracks <= |T| - H - 1;
    - the plan is one of the valid plans, the depth-H nodes of T.

    With the demonstrated token at position k replaced by one the env never
    emits, T is cut to the nodes of length at most k, none of which is a
    plan: every episode of a plan agent ends on a failure, so after the
    bound's episodes it has ruled out every action at the empty prefix and
    raises `UnsatisfiableDemo`; a tabular agent reports an incomplete run."""
    demo, env = task.demo(), task.env()
    tree = consistent_prefixes(env, demo)
    horizon, n_actions = demo.horizon, env.n_actions
    bound = max_episodes(tree, horizon, n_actions)
    at = data.draw(st.integers(0, horizon - 1), label="unemitted at")
    unsatisfiable = Demonstration((*demo.observations[:at], UNEMITTED,
                                   *demo.observations[at + 1:]), demo.sketch)
    exhausted = max_episodes([p for p in tree if len(p) <= at], horizon, n_actions) + 1
    for name, cfg in LEARNERS:
        rep = check_run(name, cfg, task, demo, seed, bound + 1, data)
        if name in SUGGESTER_REGISTRY:
            assert rep.complete and rep.episodes <= bound, (name, cfg)
            assert rep.backtracks <= len(tree) - horizon - 1, (name, cfg)
            assert rep.plan in tree, (name, cfg)
            with pytest.raises(UnsatisfiableDemo):
                run_agent(name, task, unsatisfiable, seed, exhausted, cfg)
        else:
            rep = check_run(name, cfg, task, unsatisfiable, seed, exhausted, data)
            assert not rep.complete, (name, cfg)


@st.composite
def long_aliased_tasks(draw):
    """11 to 40 steps over two tokens, too long for the tree, under an
    arbitrary sketch: random labels over the segments."""
    return aliased_task(draw, range(11, 41), 2, lambda draw, segments: draw(st.lists(
        st.sampled_from(("s0", "s1", "s2", "s3")), min_size=len(segments), max_size=len(segments))))


@each_learner
@settings(max_examples=30, deadline=None)
@given(task=long_aliased_tasks(), seed=st.integers(0, 2**16))
def test_every_learner_keeps_the_contract_on_long_aliased_automata(name, cfg, task, seed):
    """Most sketch hypotheses are garbage here; whatever the suggesters do,
    every plan agent ends with a plan that reproduces the demonstration,
    across backtracks and pool rebuilds."""
    demo = task.demo()
    rep = run_agent(name, task, demo, seed, 300000, cfg)
    check_report(rep, task, demo, 300000)
    assert rep.complete or name in MODEL_REGISTRY


TASK_FAMILIES = {
    "registered": st.sampled_from(sorted(ENV_REGISTRY)).map(lambda env: ENV_REGISTRY[env]()),
    "aliased": aliased_tasks(),
    "long-aliased": long_aliased_tasks(),
}


@pytest.mark.parametrize("family", TASK_FAMILIES)
def test_runs_one_after_another_report_as_on_a_fresh_task(family):
    """Runs of several learners, settings and seeds, each after the others
    on one task of the family, report what each reports on a fresh copy of
    the task. The copy's `_stores` then holds at most one store, under a key
    of that learner's own, and a plots_sketch store holds exactly the
    checkpoints of the plan's prefixes; the task's holds the stores of the
    runs."""
    @settings(max_examples=20, deadline=None)
    @given(TASK_FAMILIES[family],
           st.lists(st.tuples(st.sampled_from(LEARNERS), st.integers(0, 2**16)),
                    min_size=2, max_size=5))
    def holds(task, runs):
        demo, env = task.demo(), task.env()
        keys = {}  # learner -> the key of its store, or None
        for (name, cfg), seed in runs:
            try:
                check_fit(name, task, demo.sketch, env)
            except ConfigError:
                continue
            fresh = replace(task)
            rep = run_agent(name, fresh, demo, seed, 300000, cfg)
            assert run_agent(name, task, demo, seed, 300000, cfg) == rep, (name, cfg, seed)
            [key] = fresh._stores or [None]
            assert keys.setdefault((name, *sorted(cfg.items())), key) == key, (name, cfg)
            if name == "plots_sketch":
                plan = bytes(rep.plan)
                assert sorted(fresh._stores[key]) == [plan[:d] for d in range(1, len(plan) + 1)]
        stored = [key for key in keys.values() if key is not None]
        assert len(set(stored)) == len(stored)  # no two learners share a store
        assert set(task._stores) == set(stored) and all(task._stores.values())

    if family == "registered":
        # piano backtracks, and its runs at seeds 0 and 1 confirm different plans of equal length
        holds = example(ENV_REGISTRY["piano"](), [
            (("plots_nosketch", {}), 0), (("plots_sketch", {}), 0), (("plots_nosketch", {}), 1),
            (("bps", {}), 1), (("plots_sketch", {"optimistic": False}), 1)])(holds)
    holds()


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
