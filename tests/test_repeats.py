import random

import pytest
from hypothesis import given, settings, strategies as st

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
    assert ranked[0] == DOWN and LEFT in ranked  # so DOWN ranks above LEFT


def test_empty_store_suggests_nothing():
    store = fed_store((E, F))
    assert store.suggest_ranked() == []


@st.composite
def motif_plans(draw):
    """Plans of up to 64 actions that repeat a motif, where candidates nest."""
    actions = st.integers(0, draw(st.integers(1, 3), label="n_actions - 1"))
    motif = draw(st.lists(actions, min_size=1, max_size=5), label="motif")
    pieces = st.lists(st.one_of(st.just(motif), actions.map(lambda a: [a])), min_size=1, max_size=30)
    return [a for piece in draw(pieces, label="pieces") for a in piece][:64]


@settings(max_examples=60, deadline=None)
@given(motif_plans())
def test_store_equals_brute_force_on_every_prefix(plan):
    store = RepeatStore()
    for t in range(1, len(plan) + 1):
        store.update(bytes(plan[:t]))
        assert store.counts == brute_force_repeat_counts(plan[:t])
        want = brute_force_suggest_ranked(store.counts, store.plan)
        assert store.suggest_ranked() == want == suggest_ranked_trie_walk(store, store.plan)


def test_no_repeats_means_trace_equal_to_uniform_search():
    script = (0, 1, 2)
    env = ScriptedEnv(3, script)
    demo = record_demonstration(env, script)
    plain = learn(ScriptedEnv(3, script), demo, UniformSuggester(),
                  random.Random(9), budget=100)
    mined = learn(ScriptedEnv(3, script), demo, RepeatPoolSuggester(),
                  random.Random(9), budget=100)
    assert plain.rows == mined.rows


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
