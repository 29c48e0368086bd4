import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.core import Sketch, record_demonstration
from procsearch.envs.scripted import ScriptedEnv
from procsearch.repeats import RepeatPoolSuggester, RepeatStore, brute_force_repeat_counts
from procsearch.search import PartialPlan, UniformSuggester, backtrack, learn
from procsearch.sketch import SketchPool, SketchPoolSuggester
from tests.oracles import brute_force_suggest_ranked, confirm, suggest_ranked_trie_walk
from tests.test_sketch import EXCLUDED_SETS

E, F, G = 0, 1, 2
DOWN, LEFT = 3, 4


def fed_store(plan):
    store = RepeatStore()
    store.rebuild(bytes(plan))
    return store


def test_repeated_pair_counted():
    store = fed_store((E, F, E, F))
    assert store.counts[bytes((E, F))] == 2


def test_unrepeated_suffix_not_added():
    store = fed_store((E, F, G, E))
    assert store.counts == {}


def test_suggest_follows_matching_prefix():
    store = fed_store((E, F, E, F, G, E))
    # candidate (e,f) has prefix (e) matching the plan's suffix
    assert store.suggest_ranked()[0] == F


def test_suggest_ranked_by_repeat_count():
    # (down,down,down) repeats five times, (down,left) twice; the plan ends
    # with (down,down), so both candidates offer a continuation
    plan = (DOWN,) * 7 + (LEFT, DOWN, LEFT, DOWN, DOWN)
    store = fed_store(plan)
    assert store.counts[bytes((DOWN, DOWN, DOWN))] == 5
    assert store.counts[bytes((DOWN, LEFT))] == 2
    ranked = store.suggest_ranked()
    assert ranked[0] == DOWN
    assert LEFT in ranked
    assert ranked.index(DOWN) < ranked.index(LEFT)


def test_empty_store_suggests_nothing():
    store = fed_store((E, F))
    assert store.suggest_ranked() == []


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


def test_update_must_extend_the_latest_plan():
    store = fed_store((E, F, E))
    with pytest.raises(ValueError, match="5 actions .* latest plan of 3"):
        store.update(bytes((E, F, E, F, G)))  # skips an update
    with pytest.raises(ValueError, match="4 actions .* latest plan of 3"):
        store.update(bytes((E, F, G, F)))  # a different plan
    with pytest.raises(ValueError, match="3 actions .* latest plan of 3"):
        store.update(bytes((E, F, E)))  # the same update again
    store.update(bytes((E, F, E, F)))
    assert store.counts == brute_force_repeat_counts((E, F, E, F))


def test_truncate_must_cut_within_the_plan():
    plan = (E, F) * 3
    store = fed_store(plan)
    for n in (-1, len(plan) + 1):
        with pytest.raises(ValueError, match=f"plan of 6 actions to {n}"):
            store.truncate(n)
    assert store.plan == bytes(plan)  # a refused cut changes nothing
    assert store.counts == brute_force_repeat_counts(plan)
    store.truncate(len(plan))
    assert store.counts == brute_force_repeat_counts(plan)
    store.truncate(0)
    assert store.counts == {} and store.kids == {} and store.plan == b""


def test_tied_node_below_a_longer_match_adds_nothing():
    # from the suffix (1,) the trie walk meets (1, 0), which only ties action 0's
    # best count, set from the suffix (0, 1) by (0, 1, 0, 1); the candidate
    # below it, (1, 0, 1), has that count too but is shorter: every (1, 0)
    # follows a 0, so (0, 1, 0, 1) extends (1, 0, 1) with the same count; the
    # plan ends (2, 0, 1), so (0, 1) is its longest repeated suffix
    plan = bytes((0, 1, 0, 1, 0, 1, 2, 0, 1))
    store = fed_store(plan)
    assert store.counts[bytes((1, 0, 1))] == store.counts[bytes((0, 1, 0, 1))] == 2
    assert store.suggest_ranked() == brute_force_suggest_ranked(store.counts, plan) == [0]
    assert suggest_ranked_trie_walk(store, plan) == [0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_confirm_and_backtrack_match_the_oracles(data):
    n_actions = data.draw(st.integers(2, 4), label="n_actions")
    actions = st.integers(0, n_actions - 1)
    # a repeated motif makes the periodic plans where candidates nest
    motif = data.draw(st.lists(actions, min_size=1, max_size=5), label="motif")
    # -2 confirms the motif, -1 backtracks one step, an action is confirmed
    ops = data.draw(st.lists(st.integers(-2, n_actions - 1), min_size=8, max_size=40),
                    label="ops")
    sug = RepeatPoolSuggester()
    plan = SimpleNamespace(confirmed=[])

    def check():
        store = sug.store
        assert store.plan == bytes(plan.confirmed)
        assert store.counts == brute_force_repeat_counts(plan.confirmed)
        want = brute_force_suggest_ranked(store.counts, store.plan)
        assert store.suggest_ranked() == want == suggest_ranked_trie_walk(store, store.plan)

    for op in ops:
        if op == -1:
            if plan.confirmed:
                removed = plan.confirmed.pop()
                sug.on_backtrack(plan, removed, len(plan.confirmed))
                check()
            continue
        for a in motif if op == -2 else [op]:
            if len(plan.confirmed) < 64:
                plan.confirmed.append(a)
                sug.on_confirmed(plan)
                check()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
       # (-2: confirm the motif, -1: backtrack one step, else an action to
       # confirm; whether to suggest)
       st.lists(st.tuples(st.integers(-2, 2), st.booleans()), max_size=40))
# a truncate, then regrowth to the same length with other actions
@example([0, 1], [(-2, False), (-2, False), (-2, True), (-1, False), (2, True)])
def test_suggest_matches_a_fresh_ranking_at_every_plan_state(motif, ops):
    """The ranking kept per plan length answers like a store counted afresh
    from the plan, whether or not suggest ran at the states in between."""
    sug = RepeatPoolSuggester()
    plan = PartialPlan(3)
    for op, check in ops:
        if op == -1:
            if plan.confirmed:
                backtrack(plan, sug)
        else:
            for a in motif if op == -2 else [op]:
                confirm(plan, a)
                sug.on_confirmed(plan)
        if check:
            pb = bytes(plan.confirmed)
            ranked = fed_store(pb).suggest_ranked()
            for excluded in EXCLUDED_SETS:
                want = next((a for a in ranked if a not in excluded), None)
                assert sug.suggest(plan, excluded) == want


@pytest.mark.parametrize("make, ranker", [
    (lambda: SketchPoolSuggester(Sketch(("x", "y", "x", "y")), horizon=8),
     (SketchPool, "_proposals")),
    (RepeatPoolSuggester, (RepeatStore, "suggest_ranked")),
], ids=["sketch", "repeats"])
def test_suggest_after_a_backtrack_does_not_rank_again(make, ranker, monkeypatch):
    """A backtrack restores the ranking of the shorter plan with the rest of
    the suggester's state for that length, so the next suggest only reads it."""
    sug = make()
    plan = PartialPlan(3)
    for a in (E, E, F, E, E, E):
        confirm(plan, a)
        sug.on_confirmed(plan)
        sug.suggest(plan, set())  # as the episode loop does at the next position
    backtrack(plan, sug)
    owner, name = ranker
    ranks = []

    def counted(*args, original=getattr(owner, name)):
        ranks.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    got = [sug.suggest(plan, excluded) for excluded in EXCLUDED_SETS]
    assert ranks == []
    monkeypatch.undo()
    fresh = make()
    for t in range(1, plan.frontier + 1):
        fresh.on_confirmed(SimpleNamespace(confirmed=plan.confirmed[:t]))
    assert got == [fresh.suggest(plan, excluded) for excluded in EXCLUDED_SETS]
    assert got[0] is not None


def test_confirming_a_plan_without_a_suggest_ranks_nothing(monkeypatch):
    """The repeat suggester ranks a plan state only when a suggest reads it,
    so the confirmation that completes a plan ranks nothing."""
    ranks = []
    original = RepeatStore.suggest_ranked
    monkeypatch.setattr(RepeatStore, "suggest_ranked",
                        lambda store: ranks.append(store.plan) or original(store))
    sug = RepeatPoolSuggester()
    plan = PartialPlan(3)
    for a in (E, E, F, E, E, E):
        confirm(plan, a)
        sug.on_confirmed(plan)
    assert ranks == []
    got = sug.suggest(plan, set())
    assert ranks == [bytes(plan.confirmed)]  # the first suggest ranks the whole plan
    monkeypatch.undo()
    assert got == fed_store(bytes(plan.confirmed)).suggest_ranked()[0]
