import random

from hypothesis import given, settings, strategies as st

from procsearch.core import Env, record_demonstration
from procsearch.envs.scripted import ScriptedEnv, make_chain, random_aliased_env, trap_env
from procsearch.search import (
    ActionSuggester, EpisodeResult, PartialPlan, UniformSuggester, backtrack, learn,
    replay_matches, run_episode,
)
from tests.oracles import MixedSuggester, confirm, run_episode_scan


class ScriptedSuggester(ActionSuggester):
    """Test helper: suggest a fixed sequence of actions, then nothing."""

    def __init__(self, seq):
        self.seq = list(seq)

    def suggest(self, plan, excluded):
        return self.seq.pop(0) if self.seq else None


def test_first_episode_confirms_first_action():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    plan = PartialPlan(env.n_actions)
    wrong_second = 1 - script[1]
    res = run_episode(env, demo, plan, ScriptedSuggester([script[0], wrong_second]),
                      random.Random(0))
    assert res.matched_prefix_len == 1
    assert res.new_action_confirmed
    assert not res.dead_end
    assert plan.confirmed == [script[0]]
    assert wrong_second in plan.ruled_out[1]


def test_episode_can_confirm_several_actions():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    plan = PartialPlan(env.n_actions)
    res = run_episode(env, demo, plan, ScriptedSuggester(script), random.Random(0))
    assert res.matched_prefix_len == 3
    assert res.steps_taken == 3  # completed early, no random filler
    assert plan.confirmed == list(script)


def test_elimination_leaves_single_candidate():
    env, script = make_chain(n_actions=4, horizon=1)
    demo = record_demonstration(env, script)
    plan = PartialPlan(env.n_actions)
    plan.ruled_out[0] |= set(range(4)) - {script[0]}
    res = run_episode(env, demo, plan, UniformSuggester(), random.Random(0))
    assert plan.confirmed == [script[0]]
    assert res.new_action_confirmed


def test_dead_end_signaled_without_acting():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    plan = PartialPlan(env.n_actions)
    plan.ruled_out[0] = {0, 1}
    res = run_episode(env, demo, plan, UniformSuggester(), random.Random(0))
    assert res.dead_end
    assert res.steps_taken == 0


def test_episode_on_a_complete_plan_takes_no_step():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    plan = confirm(PartialPlan(env.n_actions), *script)
    recording, rng = RecordingEnv(env), random.Random(0)
    state = rng.getstate()
    res = run_episode(recording, demo, plan, UniformSuggester(), rng)
    assert res == EpisodeResult(3, 0, False, dead_end=False)
    assert plan.confirmed == list(script)
    assert recording.log == [] and rng.getstate() == state


def test_mismatch_fills_episode_with_random_actions():
    env, script = make_chain(n_actions=2, horizon=5)
    demo = record_demonstration(env, script)
    plan = PartialPlan(env.n_actions)
    res = run_episode(env, demo, plan, ScriptedSuggester([1 - script[0]]),
                      random.Random(0))
    assert res.steps_taken == 5
    assert not res.new_action_confirmed


def test_backtrack_unrolls_one_step():
    plan = PartialPlan(2, [0, 1, 0], [set(), set(), set(), {0, 1}])
    sug = UniformSuggester()
    backtrack(plan, sug)
    assert plan.confirmed == [0, 1]
    assert plan.ruled_out == [set(), set(), {0}]
    # a second dead end unrolls further and clears the deeper ledger
    plan.ruled_out[2].add(1)
    assert plan.frontier_exhausted()
    backtrack(plan, sug)
    assert plan.confirmed == [0]
    assert plan.ruled_out == [set(), {1}]


def test_backtrack_keeps_failures_at_unrolled_position():
    plan = PartialPlan(3, [0], [{2}, set()])
    backtrack(plan, UniformSuggester())
    assert plan.ruled_out[0] == {0, 2}  # the failure is kept, the unrolled action added


def test_learn_trap_env_backtracks_to_unique_plan():
    env, script = trap_env()
    demo = record_demonstration(env, script)
    # force the wrong-but-matching first action so the trap is entered
    report = learn(env, demo, ScriptedSuggester([1]), random.Random(3), budget=1000)
    assert report.complete
    assert report.plan == script
    assert report.backtracks >= 1
    assert replay_matches(env, demo, report.plan)


class RecordingEnv(Env):
    """Steps `inner` and logs every reset and every (action, observation)."""

    def __init__(self, inner: Env):
        super().__init__()
        self.inner, self.n_actions, self.log = inner, inner.n_actions, []

    def reset(self):
        obs = self.inner.reset()
        self.log.append((None, obs))
        return obs

    def step(self, a):
        obs = self.inner.step(a)
        self.log.append((a, obs))
        return obs


@st.composite
def search_tasks(draw):
    """A random aliased automaton or a scripted chain over 1-9 actions."""
    n_actions = draw(st.integers(1, 9), label="n_actions")
    horizon = draw(st.integers(1, 12), label="horizon")
    if draw(st.booleans(), label="aliased"):
        return random_aliased_env(random.Random(draw(st.integers(0, 2**32))), n_actions, horizon)
    script = draw(st.lists(st.integers(0, n_actions - 1), min_size=horizon, max_size=horizon))
    return ScriptedEnv(n_actions, script), tuple(script)


@settings(max_examples=150, deadline=None)
@given(search_tasks(), st.integers(0, 2**32), st.integers(0, 2**32))
def test_run_episode_matches_the_scan_oracle_episode_by_episode(task, seed, suggester_seed):
    """`run_episode` and the oracle, driven side by side on twin envs, plans,
    RNGs and suggesters, with a backtrack after each dead end, return equal
    results and leave equal plans, env traffic and RNG states."""
    env, script = task
    demo = record_demonstration(env, script)
    twins = [(RecordingEnv(env), PartialPlan(env.n_actions), MixedSuggester(suggester_seed),
              random.Random(seed)) for _ in range(2)]
    (env_a, plan_a, sug_a, rng_a), (env_b, plan_b, sug_b, rng_b) = twins  # b: the oracle's
    for _ in range(200):
        if plan_a.frontier >= demo.horizon:
            break  # the oracle replays a complete plan; run_episode takes no step
        result = run_episode(env_a, demo, plan_a, sug_a, rng_a)
        assert result == run_episode_scan(env_b, demo, plan_b, sug_b, rng_b)
        if result.dead_end:
            backtrack(plan_a, sug_a)
            backtrack(plan_b, sug_b)
        assert plan_a == plan_b
        assert env_a.log == env_b.log
        assert rng_a.getstate() == rng_b.getstate()
