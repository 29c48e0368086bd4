"""`learn` runs each episode inline, unless `search.run_episode` is patched;
then it calls the patch once per episode. Inline, an episode restores the
env position marked when its prefix was confirmed, steps the frontier and
burns out with `Env.burn`'s walk of the memo rows. Both paths are checked
against the per-episode reference loop in tests/oracles.py on envs that keep
`Env.step` as it is, and against each other on random tasks and over a
fixed grid of automata; two automata on which the search backtracks
hundreds of times check the marks it cuts.

With `Env.step` patched, as bench/tracer.py patches it, the env gives no
mark: `learn` and the tabular agents then reset and replay through `step`,
so the patch sees every step that the report counts."""

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from procsearch import search
from procsearch.agents import run_agent
from procsearch.core import Demonstration, Env, Sketch, Task, intern_token, record_demonstration
from procsearch.envs import make_task
from procsearch.envs.scripted import ScriptedEnv, random_aliased_env
from procsearch.repeats import RepeatPoolSuggester
from procsearch.search import (
    ActionSuggester, LearnReport, UniformSuggester, UnsatisfiableDemo, learn, run_episode,
)
from procsearch.sketch import SketchPoolSuggester
from tests.oracles import MixedSuggester, learn_per_episode

CAP = 300  # the budget of the full run, which bounds the budgets drawn
UNEMITTED = intern_token("never-emitted")


class HookLog(ActionSuggester):
    """Passes each call on to `inner` and logs it with the plan as the call
    found it: the confirmed prefix and every ledger. A cut is logged with
    its new length; the next call logs the plan it left."""

    def __init__(self, inner: ActionSuggester):
        self.inner, self.log = inner, []

    def _note(self, hook: str, plan, *args) -> None:
        self.log.append((hook, tuple(plan.confirmed), [sorted(r) for r in plan.ruled_out], args))

    def suggest(self, plan, excluded):
        a = self.inner.suggest(plan, excluded)
        self._note("suggest", plan, a)
        return a

    def on_confirmed(self, plan):
        self._note("on_confirmed", plan)
        self.inner.on_confirmed(plan)

    def on_failed(self, plan, a):
        self._note("on_failed", plan, a)
        self.inner.on_failed(plan, a)

    def on_backtrack(self, n):
        self.log.append(("on_backtrack", n))
        self.inner.on_backtrack(n)


def calls_into(code, fn, *args):
    """`fn(*args)` and the number of calls it made into `code`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(saved)


@st.composite
def memo_tasks(draw):
    """(make_env, demo, make_suggester): a random aliased automaton or a
    scripted chain over 1-9 actions, one of four suggesters, and a demo that
    may hold a token the env never emits, early enough that the search can
    exhaust position 0 within CAP episodes."""
    n_actions = draw(st.integers(1, 9), label="n_actions")
    horizon = draw(st.integers(1, 12), label="horizon")
    if draw(st.booleans(), label="aliased"):
        env_seed = draw(st.integers(0, 2**32))

        def make_env():
            return random_aliased_env(random.Random(env_seed), n_actions, horizon)[0]

        script = random_aliased_env(random.Random(env_seed), n_actions, horizon)[1]
    else:
        script = tuple(draw(st.lists(st.integers(0, n_actions - 1),
                                     min_size=horizon, max_size=horizon)))

        def make_env():
            return ScriptedEnv(n_actions, script)

    # the sketch splits the script into segments; equal segments share a label
    cuts = draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    labels = {}
    sketch = Sketch(tuple(labels.setdefault(script[i:j], f"s{len(labels)}")
                          for i, j in itertools.pairwise([0, *sorted(cuts), horizon])))
    demo = record_demonstration(make_env(), script, sketch)
    if draw(st.booleans(), label="unreachable"):
        obs = list(demo.observations)
        obs[draw(st.integers(0, min(horizon - 1, 2)), label="unemitted at")] = UNEMITTED
        demo = Demonstration(tuple(obs), sketch)
    kind = draw(st.sampled_from(("mixed", "uniform", "sketch", "repeats")), label="suggester")
    suggester_seed = draw(st.integers(0, 2**32))

    def make_suggester():
        if kind == "mixed":
            return MixedSuggester(suggester_seed)
        if kind == "uniform":
            return UniformSuggester()
        if kind == "sketch":
            return SketchPoolSuggester(sketch, horizon)
        return RepeatPoolSuggester()

    return make_env, demo, make_suggester


def outcome(learner, task, seed: int, budget: int):
    """The report, or the UnsatisfiableDemo raised, then the suggester calls
    with the plan each found, the RNG's state and the env's latent state at
    the end of a run on a fresh env."""
    make_env, demo, make_suggester = task
    env, rng, suggester = make_env(), random.Random(seed), HookLog(make_suggester())
    try:
        result = learner(env, demo, suggester, rng, budget)
    except UnsatisfiableDemo as e:
        result = ("UnsatisfiableDemo", str(e))
    return result, suggester.log, rng.getstate(), env.state


@settings(max_examples=150, deadline=None)
@given(memo_tasks(), st.integers(0, 2**32), st.data())
def test_inline_episodes_on_memo_envs_match_the_per_episode_oracle(task, seed, data):
    """Equal reports, or the same UnsatisfiableDemo, the same suggester calls
    on the same plans, and equal RNG and env states, at the full budget and
    at a budget from 1 up to the episodes the full run took."""
    full = outcome(learn, task, seed, CAP)
    assert full == outcome(learn_per_episode, task, seed, CAP)
    ends = full[0].episodes if isinstance(full[0], LearnReport) else CAP
    budget = data.draw(st.integers(1, ends), label="budget")
    assert outcome(learn, task, seed, budget) == outcome(learn_per_episode, task, seed, budget)


def patched_run_episode_is_called_once_per_episode(task, seed: int, budget: int):
    """Assert that with `search.run_episode` wrapped by a counter, `learn`
    calls it once per episode and ends as an unpatched run does, and that
    unpatched, `learn` never calls it; return the run's report or
    UnsatisfiableDemo."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return run_episode(*args)

    with mock.patch.object(search, "run_episode", counted):
        patched = outcome(learn, task, seed, budget)
    unpatched, unpatched_calls = calls_into(run_episode.__code__, outcome, learn, task, seed, budget)
    assert patched == unpatched
    assert unpatched_calls == 0
    if isinstance(patched[0], LearnReport):
        assert calls == patched[0].episodes
    return patched[0]


@settings(max_examples=60, deadline=None)
@given(memo_tasks(), st.integers(0, 2**32))
def test_a_patched_run_episode_is_called_once_per_episode(task, seed):
    patched_run_episode_is_called_once_per_episode(task, seed, CAP)


@pytest.mark.parametrize("n_actions, horizon", itertools.product((1, 2, 3, 5), (1, 2, 4, 7, 12)))
def test_a_patched_run_episode_is_called_once_per_episode_over_the_fixed_grid(n_actions, horizon):
    """Three random aliased automata of each shape, each with its demo and
    with a demo whose third token (or last, if shorter) the env never emits,
    so that the search backtracks through the positions before it and then
    exhausts position 0; under three suggesters and two seeds, at a budget
    of 400 episodes and at half the episodes that a full run took."""
    for k in range(3):
        def make_env(k=k):
            return random_aliased_env(random.Random(f"learn-check-{k}"), n_actions, horizon)[0]

        script = random_aliased_env(random.Random(f"learn-check-{k}"), n_actions, horizon)[1]
        sketch = Sketch(tuple(f"s{a}" for a in script))  # equal actions share a label
        demo = record_demonstration(make_env(), script, sketch)
        at = min(2, horizon - 1)
        obs = demo.observations
        unreachable = Demonstration((*obs[:at], UNEMITTED, *obs[at + 1:]), sketch)
        for d, make_suggester, seed in itertools.product(
                (demo, unreachable),
                (UniformSuggester, RepeatPoolSuggester, lambda: SketchPoolSuggester(sketch, horizon)),
                (0, 1)):
            task = make_env, d, make_suggester
            full = patched_run_episode_is_called_once_per_episode(task, seed, 400)
            if isinstance(full, LearnReport) and full.episodes > 1:
                patched_run_episode_is_called_once_per_episode(task, seed, full.episodes // 2)


# (seed, n_actions, horizon, n_tokens) of two random aliased automata on
# which each suggester below backtracks 376 to 916 times at seed 0
BACKTRACKING = ((171, 3, 14, 2), (182, 3, 18, 2))


def aliased_task(seed: int, n_actions: int, horizon: int, n_tokens: int) -> Task:
    """A random aliased automaton's task, with one sketch label per distinct
    action of its script."""
    def make_env():
        return random_aliased_env(random.Random(seed), n_actions, horizon, n_tokens)[0]

    script = random_aliased_env(random.Random(seed), n_actions, horizon, n_tokens)[1]
    return Task(f"aliased{seed}", make_env, script, Sketch(tuple(f"s{a}" for a in script)))


@pytest.mark.parametrize("shape", BACKTRACKING, ids=["h14", "h18"])
@pytest.mark.parametrize("kind", ["uniform", "sketch", "repeats"])
def test_inline_episodes_cut_their_marks_on_backtracks_as_the_oracle_replays(shape, kind):
    task = aliased_task(*shape)
    demo = task.demo()
    make_suggester = {"uniform": UniformSuggester, "repeats": RepeatPoolSuggester,
                      "sketch": lambda: SketchPoolSuggester(task.sketch, demo.horizon)}[kind]
    run = task.make_env, demo, make_suggester
    full = outcome(learn, run, 0, 20000)
    assert full[0].complete and full[0].backtracks >= 300
    assert full == outcome(learn_per_episode, run, 0, 20000)


@pytest.mark.parametrize("env_name, agent", [
    ("aliased", "bps"), ("aliased", "plots_sketch"), ("aliased", "rmax_plus"),
    ("aliased", "ucb_plus"), ("cpr", "bps"), ("cpr", "plots_sketch"), ("cpr", "rmax_plus"),
    ("cpr", "ucb_plus"), ("piano", "bps"), ("piano", "plots_sketch"), ("piano", "ucb_plus"),
])
def test_a_patched_env_step_sees_every_step_the_report_counts(env_name, agent):
    # replay + frontier + burn + tabular == envs.steps in bench/run.py
    task = aliased_task(*BACKTRACKING[1]) if env_name == "aliased" else make_task(env_name)
    demo = task.demo()
    unpatched = run_agent(agent, task, demo, 3, 30000)
    calls, step = [0], Env.step

    def counted(env, a):
        calls[0] += 1
        return step(env, a)

    with mock.patch.object(Env, "step", counted):
        patched = run_agent(agent, task, demo, 3, 30000)
    assert patched == unpatched
    assert calls[0] == patched.total_steps > 0
