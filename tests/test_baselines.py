import random

import pytest
from hypothesis import given, settings, strategies as st

from procsearch.baselines import OracleAlignedSuggester, rmax_learn, ucb_learn
from procsearch.core import Sketch, Task, record_demonstration, spans_from_lengths
from procsearch.envs import make_task
from procsearch.envs.scripted import AutomatonEnv, ScriptedEnv, make_chain, random_aliased_env
from procsearch.search import PartialPlan, UniformSuggester, learn
from tests.oracles import confirm, rmax_full_replan_learn, ucb_scan_learn


def test_bpsosa_no_suggestion_during_first_occurrence():
    sketch = Sketch(("x", "y", "x"))
    align = spans_from_lengths([2, 1, 2])
    sug = OracleAlignedSuggester(align, sketch)
    for t in range(2):  # every position of x's first span
        plan = confirm(PartialPlan(3), *[0] * t)
        assert sug.suggest(plan, set()) is None


def test_bpsosa_replays_learned_span():
    sketch = Sketch(("x", "y", "x"))
    align = spans_from_lengths([2, 1, 2])
    sug = OracleAlignedSuggester(align, sketch)
    plan = confirm(PartialPlan(3), 0, 1, 2)  # x=(0,1) fully learned, y=(2,)
    assert sug.suggest(plan, set()) == 0
    confirm(plan, 0)
    assert sug.suggest(plan, set()) == 1


@pytest.mark.parametrize("spans", [
    ((0, 2), (3, 4)),  # a gap
    ((0, 2), (1, 4)),  # an overlap
    ((0, 2), (2, 2)),  # an empty span
    ((1, 2), (2, 4)),  # not from position 0
    ((2, 4), (0, 2)),  # out of order
])
def test_bpsosa_rejects_spans_that_do_not_tile(spans):
    with pytest.raises(ValueError, match="tile"):
        OracleAlignedSuggester(spans, Sketch(("x", "y")))


def test_bpsosa_learns_from_one_completed_span():
    # second span of a label replays the first verbatim during learning
    script = (0, 1, 2, 0, 1)
    sketch = Sketch(("x", "y", "x"))
    align = spans_from_lengths([2, 1, 2])
    env = ScriptedEnv(3, script)
    demo = record_demonstration(env, script, sketch)
    rep = learn(ScriptedEnv(3, script), demo,
                OracleAlignedSuggester(align, sketch), random.Random(0), budget=1000)
    assert rep.complete
    plain = learn(ScriptedEnv(3, script), demo, UniformSuggester(),
                  random.Random(0), budget=1000)
    assert rep.episodes <= plain.episodes


def test_ucb_pulls_untried_arm_first():
    env, script = make_chain(n_actions=3, horizon=2)
    demo = record_demonstration(env, script)
    rep = ucb_learn(make_chain(3, 2)[0], demo, budget=1000)
    assert rep.complete
    # episode 1 always pulls action 0 at the fresh start state
    assert rep.rows[0][2] == (1 if script[0] == 0 else 0)


def test_ucb_full_row_takes_its_lowest_paying_arm():
    # from the start, actions 1 and 2 both emit the demonstrated "z1", but
    # only action 1 reaches the state where action 2 emits "z2"; the start
    # row fills in episode 3 and must keep arm 1
    sink = [(3, "OFF")] * 3
    env = AutomatonEnv(3, [[(3, "x"), (1, "z1"), (2, "z1")],
                           [(3, "OFF"), (3, "OFF"), (3, "z2")], sink, sink])
    demo = record_demonstration(env, (1, 2))
    rep = ucb_learn(env, demo, budget=100)
    assert rep.complete and rep.plan == (1, 2) and rep.episodes == 4
    assert rep == ucb_scan_learn(env, demo, budget=100)


def test_rmax_equals_ucb_on_markov_envs():
    # R-max's values nest as deep as the demonstration, here past the
    # interpreter's recursion limit
    long_chain = Task("long_chain", lambda: ScriptedEnv(2, (1,) * 600), (1,) * 600)
    for task in (make_task("chain"), make_task("gem"), long_chain):
        demo = task.demo()
        r = rmax_learn(task.env(), demo, budget=30000)
        u = ucb_learn(task.env(), demo, budget=30000)
        assert r.complete and u.complete
        assert r.episodes == u.episodes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tabular_agents_match_their_oracles(data):
    # rows fill lowest action first, so R-max replans only when one fills
    # and UCB fixes a full row's best arm; the runs must not change
    n_actions = data.draw(st.integers(2, 5))
    horizon = data.draw(st.integers(3, 40))
    if data.draw(st.booleans()):
        env, script = make_chain(n_actions, horizon)
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        env, script = random_aliased_env(rng, n_actions, horizon,
                                         n_tokens=data.draw(st.integers(2, 4)))
    demo = record_demonstration(env, script)
    budget = data.draw(st.integers(1, 2 * n_actions * horizon))
    assert rmax_learn(env, demo, budget) == rmax_full_replan_learn(env, demo, budget)
    assert ucb_learn(env, demo, budget) == ucb_scan_learn(env, demo, budget)


def test_rmax_values_refresh_when_a_row_fills():
    # on these automata a value memoised before a row filled, or a lead
    # replayed across the fill, would steer a later episode differently; the
    # property above rarely draws such a case
    for n_actions, horizon, n_tokens, seed in ((2, 4, 2, 82), (3, 5, 2, 133),
                                               (2, 6, 3, 97), (3, 4, 3, 109)):
        env, script = random_aliased_env(random.Random(seed), n_actions, horizon, n_tokens)
        demo = record_demonstration(env, script)
        budget = 2 * n_actions * horizon
        assert rmax_learn(env, demo, budget) == rmax_full_replan_learn(env, demo, budget)


@pytest.mark.parametrize("fn, oracle", [(rmax_learn, rmax_full_replan_learn),
                                        (ucb_learn, ucb_scan_learn)])
def test_piano_fixed_point_matches_the_reference_loop(fn, oracle):
    # the library compares an episode's actions with the previous episode's,
    # the reference loop whole (s, a, z) traces; both stop after episode 6
    task = make_task("piano")
    demo = task.demo()
    rep = fn(task.env(), demo, budget=30000)
    assert rep.stop_reason == "fixed_point"
    assert len(rep.rows) == 6
    assert rep == oracle(task.env(), demo, budget=30000)


@pytest.mark.parametrize("fn, restores, restored, stepped", [
    # 4,115 episodes restore a lead and then step 4,308 times; the other 219
    # (the first, the 22 after an untried action at the start and the 196
    # after a row fill) step 19,528 times
    (rmax_learn, 4115, 405230, 23836),
    # UCB keeps its lead across a row fill: 4,310 episodes restore one, and
    # only the first and the 23 after an untried action at the start reset
    (ucb_learn, 4310, 424340, 4726),
])
def test_cpr_episodes_restore_their_lead(fn, restores, restored, stepped):
    # an episode restores the position marked at the previous one's first
    # untried action, unless a fill changed the choices before it or that
    # action was the first; every other step goes through step, and the
    # report counts the restored steps too
    task = make_task("cpr")
    env, steps, starts = task.env(), [], []  # starts: each episode's steps not taken
    reset, step, mark, restore = env.reset, env.step, env.mark, env.restore
    depth = [0, 0]  # steps since the episode started, and at the last mark

    def counted_reset():
        depth[0] = 0
        starts.append(0)
        return reset()

    def counted_step(a):
        depth[0] += 1
        steps.append(a)
        return step(a)

    def counted_mark():
        depth[1] = depth[0]
        return mark()

    def counted_restore(at):
        depth[0] = depth[1]  # the loop restores only its latest mark
        starts.append(depth[0])
        return restore(at)

    env.reset, env.step, env.mark, env.restore = counted_reset, counted_step, counted_mark, \
        counted_restore
    report = fn(env, task.demo(), budget=30000)
    assert report.complete and report.episodes == 4334
    assert len(steps) + sum(starts) == report.total_steps == 429066
    assert (sum(d > 0 for d in starts), sum(starts), len(steps)) == (restores, restored, stepped)


@pytest.mark.parametrize("name", ["chain", "gem", "island"])
@pytest.mark.parametrize("fn, oracle", [(rmax_learn, rmax_full_replan_learn),
                                        (ucb_learn, ucb_scan_learn)])
def test_tabular_agents_match_their_oracles_at_full_budget(name, fn, oracle):
    # cpr's full runs are pinned by tests/test_tabular_cpr.py's CSV hash,
    # taken from these oracles, and piano's by the fixed-point test above
    task = make_task(name)
    demo = task.demo()
    assert fn(task.env(), demo, 30000) == oracle(task.env(), demo, 30000)
