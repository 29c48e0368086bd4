import random

from hypothesis import given, settings, strategies as st

from procsearch.core import record_demonstration
from procsearch.envs.scripted import ScriptedEnv
from procsearch.repeats import RepeatPoolSuggester, RepeatStore, brute_force_repeat_counts
from procsearch.search import UniformSuggester, learn

E, F, G = 0, 1, 2
DOWN, LEFT = 3, 4


def fed_store(plan, **kw):
    store = RepeatStore(**kw)
    store.rebuild(bytes(plan))
    return store


def test_repeated_pair_counted():
    store = fed_store((E, F, E, F))
    assert store.counts[bytes((E, F))] == 2


def test_unrepeated_suffix_not_added():
    store = fed_store((E, F, G, E))
    assert store.counts == {}


def test_suffix_only_update_matches_brute_force():
    rng = random.Random(1)
    plan = [rng.randrange(3) for _ in range(30)]
    store = fed_store(plan)
    assert store.counts == brute_force_repeat_counts(plan)


def test_suggest_follows_matching_prefix():
    store = fed_store((E, F, E, F))
    # plan now (e,f,g,e): candidate (e,f) has prefix (e) matching the suffix
    assert store.suggest_ranked(bytes((E, F, G, E)))[0] == F


def test_suggest_ranked_by_repeat_count():
    # (down,down,down) repeats five times, (down,left) twice; the plan ends
    # with (down,down), so both candidates offer a continuation
    plan = (DOWN,) * 7 + (LEFT, DOWN, LEFT, DOWN, DOWN)
    store = fed_store(plan)
    assert store.counts[bytes((DOWN, DOWN, DOWN))] == 5
    assert store.counts[bytes((DOWN, LEFT))] == 2
    ranked = store.suggest_ranked(bytes(plan))
    assert ranked[0] == DOWN
    assert LEFT in ranked
    assert ranked.index(DOWN) < ranked.index(LEFT)


def test_empty_store_suggests_nothing():
    store = RepeatStore()
    assert store.suggest_ranked(bytes((E, F))) == []


def test_min_repeat_len_config():
    store = fed_store((E, E, E), min_len=3)
    assert bytes((E, E)) not in store.counts
    store2 = fed_store((E, E, E), min_len=2)
    assert store2.counts[bytes((E, E))] == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
def test_store_equals_brute_force_on_every_prefix(plan):
    store = RepeatStore()
    for t in range(1, len(plan) + 1):
        store.update(bytes(plan[:t]))
    assert store.counts == brute_force_repeat_counts(plan)


def test_no_repeats_means_trace_equal_to_uniform_search():
    script = (0, 1, 2)
    env = ScriptedEnv(3, script)
    demo = record_demonstration(env, script)
    plain = learn(ScriptedEnv(3, script), demo, UniformSuggester(),
                  random.Random(9), budget=100)
    mined = learn(ScriptedEnv(3, script), demo, RepeatPoolSuggester(),
                  random.Random(9), budget=100)
    assert plain.rows == mined.rows


def test_backtrack_rebuild_matches_fresh_store():
    sug = RepeatPoolSuggester()
    plan_actions = [E, F, E, F, G]

    class FakePlan:
        confirmed = plan_actions

    sug.store.rebuild(bytes(plan_actions))
    del plan_actions[3:]
    sug.on_backtrack(FakePlan, G, 3)
    fresh = RepeatStore()
    fresh.rebuild(bytes(plan_actions))
    assert sug.store.counts == fresh.counts
