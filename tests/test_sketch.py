import random

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.agents import run_agent
from procsearch.core import Demonstration, Sketch, record_demonstration
from procsearch.envs.scripted import ScriptedEnv
from procsearch.search import UniformSuggester, learn
from procsearch.sketch import Hypothesis, SketchPool, SketchPoolSuggester, repeated_suffix
from tests.oracles import (
    branch_scan_every_match, exact_segments, fresh_copy, is_consistent,
    optimistic_claim_every_r, repeated_suffix_scan, select_scan,
)
from tests.test_learner_contract import LEARNERS, long_aliased_tasks

E, F, G, H_ACT = 0, 1, 2, 3
SKETCH_SETTINGS = [cfg for name, cfg in LEARNERS if name == "plots_sketch"]


def feed(pool, plan):
    for i in range(1, len(plan) + 1):
        pool.on_confirmed(list(plan[:i]))


def is_blank(h):
    """The blank hypothesis assigns nothing, so its open run starts at element 0."""
    return not h.assigned and h.run_elem == 0


def assignments(pool):
    out = []
    for h in pool.active + pool.frozen:
        if h.assigned:
            out.append({k: v for k, v in sorted(h.assigned.items())})
    return out


def oracle_score(h):
    """Independent recount of the maximum-future-reduction sum, deriving the
    remaining-element pointer from the alignment layout rather than the
    automaton state."""
    closed = (max(hi for _, hi, _, _ in h.layout) + 1) if h.layout else 0
    if h.is_complete:
        start = len(h.sketch)
    elif h.run_elem is not None:
        start = closed  # the open run begins right after the closed prefix
    else:
        start = closed + (1 if h.offset else 0)
    return sum(len(h.assigned.get(lbl, ())) for lbl in h.sketch[start:])


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


def test_score_worked_example_is_two():
    # sketch (b1,b2,b1,b3,b1), plan (e,f,g,e,f), hypothesis b1=(e,f), b2=(g)
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=8)
    feed(pool, (E, F, G, E, F))
    m1 = next(h for h in pool.active + pool.frozen
              if h.assigned.get("b1") == (E, F) and h.assigned.get("b2") == (G,))
    assert m1.score() == 2
    assert oracle_score(m1) == 2


def test_empty_hypothesis_scores_zero():
    pool = SketchPool(Sketch(("b1", "b2", "b1")), horizon=8)
    assert pool.active[0].score() == 0
    feed(pool, (E, F))
    assert pool.active[0].score() == 0


def test_score_partial_assignment_cross_check():
    # b1=(e), b2=(f,g): alignment consumed (b1,b2,b1) after (e,f,g,e); the
    # open run sits at b3, leaving b3 (unassigned) and the final b1
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=8)
    feed(pool, (E, F, G, E))
    m2 = next(h for h in pool.active + pool.frozen if h.assigned.get("b1") == (E,))
    assert m2.score() == oracle_score(m2) == 1


def test_suggestion_inside_assigned_element():
    # hypothesis b1=(e,f), b2=(g) mid-way through b1's second occurrence
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=8)
    feed(pool, (E, F, G, E, F))
    m1 = next(h for h in pool.active + pool.frozen if h.assigned.get("b1") == (E, F))
    # the alignment has consumed (b1 b2 b1); walk into b3 territory is an
    # open run, so rebuild one step earlier instead: mid-second-b1
    h = Hypothesis(m1.sketch, dict(m1.assigned), [], 0)
    h._enter(0, 0)
    for a in (E, F, G, E):
        assert h.advance(a)
    assert h.run_elem is None and h.elem == 2 and h.offset == 1
    assert h.suggest(bytes((E, F, G, E))) == F


def test_no_repeated_suffix_means_no_suggestion():
    blank = Hypothesis.blank(("b1", "b2", "b1", "b3", "b1"))
    plan = (E, F, G)
    for a in plan:
        blank.advance(a)
    assert blank.suggest(bytes(plan)) is None


def test_first_occurrence_of_the_first_element_starts_the_plan():
    # b1 opens the sketch, so its first occurrence starts at position 0
    # (f); the later e cannot be it, and nothing repeats from the start
    blank = Hypothesis.blank(("b1", "b2", "b1"))
    plan = (F, E, G, H_ACT, E)
    for a in plan:
        blank.advance(a)
    assert blank.suggest(bytes(plan)) is None
    pool = SketchPool(Sketch(blank.sketch), horizon=10)
    feed(pool, plan)
    assert assignments(pool) == []


def test_optimistic_toggle_off_returns_none():
    blank = Hypothesis.blank(("b1", "b2", "b1", "b3", "b1"))
    plan = (E, F, G, E)
    for a in plan:
        blank.advance(a)
    assert blank.suggest(bytes(plan), optimistic=False) is None


def test_branching_consistent_evidence_example():
    # plan (e,f,g,e) instantiates exactly b1=(e) with implied b2=(f,g)
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=10)
    feed(pool, (E, F, G, E))
    got = assignments(pool)
    assert got == [{"b1": (E,), "b2": (F, G)}]


def test_branching_one_step_later_adds_longer_child_once():
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=10)
    feed(pool, (E, F, G, E, F))
    got = assignments(pool)
    assert {"b1": (E, F), "b2": (G,)} in got
    # the (e)-child exists exactly once: it was not re-instantiated at t=5
    assert got.count({"b1": (E,), "b2": (F, G)}) == 1
    assert len(got) == 2


def test_branch_count_bounded_by_half_horizon():
    rng = random.Random(0)
    for _ in range(50):
        horizon = rng.randrange(4, 40)
        labels = [f"b{k}" for k in range(rng.randrange(2, 6))]
        sketch = Sketch(tuple(rng.choice(labels) for _ in range(rng.randrange(2, 8))))
        pool = SketchPool(sketch, horizon=horizon, n_active=4)
        plan = [rng.randrange(3) for _ in range(min(horizon, rng.randrange(2, 30)))]
        # one confirmation adopts at most one split child per active
        # hypothesis and branch_cap children per branching parent (the
        # active set plus those split children)
        seen_cap = pool.n_active + 2 * pool.n_active * pool.branch_cap
        for t in range(1, len(plan) + 1):
            pool.on_confirmed(plan[:t])
            # `seen` holds only this confirmation's adoptions
            assert all(key[-1] == t for key in pool.seen)
            assert len(pool.seen) <= seen_cap
            # one checkpoint per plan depth, each at most the active set
            saved = sum(len(active) for active, *_ in pool.checkpoints)
            assert saved <= pool.n_active * (t + 1)
        assert pool.max_branch_per_parent <= horizon / 2
        assert pool.stored_count() <= 4 * horizon * horizon


def test_select_prefers_higher_score():
    sk = ("x", "y", "x", "y", "x", "y")
    lo = Hypothesis(sk, {"x": (E,)}, [], 0)
    lo._enter(0, 0)
    hi = Hypothesis(sk, {"x": (E,), "y": (F, G)}, [], 0)
    hi._enter(0, 0)
    pool = SketchPool(Sketch(sk), horizon=12, n_active=4)
    ranked = pool._proposals([lo, hi], b"", 0)
    assert [(h, got[0]) for _, h, got in ranked] == [(hi, E), (lo, E)]
    assert hi.score() > lo.score()


def test_select_skips_excluded_suggestion():
    sk = ("x", "y", "x", "y")
    plan = [E, E, F, E, E]
    pool = SketchPool(Sketch(sk), horizon=8, n_active=4)
    feed(pool, plan)
    # the best claim says E, and so does the blank; the best claim of F is next
    best = next(h for h in pool.active if h.assigned == {"x": (E,), "y": (E, F, E)})
    second = next(h for h in pool.active if h.assigned == {"x": (E, E), "y": (F,)})
    assert pool.select(excluded=set()) == (best, E)
    assert pool.select(excluded={E}) == (second, F)
    assert pool.select(excluded={E, F}) is None
    for excluded in ({E}, {F}, {E, F}, {G}):
        assert pool.select(excluded) == select_scan(pool, plan, excluded)


def test_select_tie_break_more_assignments_then_age():
    sk = ("x", "y", "x", "y")
    a = Hypothesis(sk, {"x": (E, F)}, [], 0)
    a._enter(0, 0)
    a.created = 5
    b = Hypothesis(sk, {"x": (E,), "y": (F,)}, [], 0)
    b._enter(0, 0)
    b.created = 9
    assert a.score() == b.score() == 4
    pool = SketchPool(Sketch(sk), horizon=8, n_active=4)
    assert pool._proposals([a, b], b"", 0)[0][1] is b  # more assigned labels
    c = Hypothesis(sk, {"x": (E, F)}, [], 0)
    c._enter(0, 0)
    c.created = 1
    assert pool._proposals([a, c], b"", 0)[0][1] is c  # older wins the tie


def test_active_capacity_respected():
    pool = SketchPool(Sketch(("b1", "b2", "b1", "b3", "b1")), horizon=10, n_active=2)
    feed(pool, (E, F, G, E, F))
    # blank plus two children exist; only blank + best child stay active
    assert len(pool.active) == 2
    assert is_blank(pool.active[0])
    assert len(pool.frozen) == 1


def test_degenerates_to_plain_search_without_repeats():
    # a Markov scripted env whose sketch has no repeated labels: the sketch
    # agent must behave exactly like uniform search under a shared seed
    script = (0, 1, 2, 0, 2, 1)
    sketch = Sketch(("one", "two", "three"))
    demo_env = ScriptedEnv(3, script)
    demo = Demonstration(record_demonstration(demo_env, script).observations, sketch)

    plain = learn(ScriptedEnv(3, script), demo, UniformSuggester(),
                  random.Random(42), budget=1000)
    sketched = learn(ScriptedEnv(3, script), demo,
                     SketchPoolSuggester(sketch, demo.horizon),
                     random.Random(42), budget=1000)
    assert plain.rows == sketched.rows
    assert plain.plan == sketched.plan


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_score_matches_oracle_on_random_instances(data):
    labels = [f"b{k}" for k in range(data.draw(st.integers(1, 4)))]
    length = data.draw(st.integers(1, 6))
    sketch = Sketch(tuple(data.draw(st.sampled_from(labels)) for _ in range(length)))
    plan = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    pool = SketchPool(sketch, horizon=12, n_active=3)
    feed(pool, plan)
    for h in pool.active + pool.frozen:
        assert h.score() == oracle_score(h)
        if h.consumed == len(plan):
            assert is_consistent(h, plan)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_active_hypotheses_stay_consistent(data):
    labels = [f"b{k}" for k in range(data.draw(st.integers(2, 4)))]
    length = data.draw(st.integers(2, 6))
    sketch = Sketch(tuple(data.draw(st.sampled_from(labels)) for _ in range(length)))
    plan = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=14))
    pool = SketchPool(sketch, horizon=14, n_active=4)
    feed(pool, plan)
    for h in pool.active:
        assert h.consumed == len(plan)
        assert is_consistent(h, plan)
        for elem, start, end in exact_segments(h):
            assert tuple(plan[start:end]) == h.assigned[sketch.elements[elem]]


def test_a_child_two_parents_reach_is_adopted_once():
    pool = SketchPool(Sketch(("b1", "b1", "b0", "b0", "b1", "b2", "b0")), horizon=18,
                      n_active=8)
    feed(pool, [1] * 7)
    keys = [h.key() for h in pool.active + pool.frozen]
    assert len(keys) == len(set(keys)) == 12


def test_a_region_too_short_for_its_elements_is_refused():
    plan = [2, 2, 0, 2, 2, 2, 1, 2]
    pool = SketchPool(Sketch(("b2", "b3", "b1", "b2", "b1", "b0", "b3")), horizon=20,
                      n_active=3)
    feed(pool, plan)
    assert all(is_consistent(h, plan) for h in pool.active + pool.frozen)


def assert_consistent_after_every_confirmation(labels, plan, horizon, n_active):
    pool = SketchPool(Sketch(tuple(labels)), horizon=horizon, n_active=n_active)
    for t in range(1, len(plan) + 1):
        pool.on_confirmed(plan[:t])
        for h in pool.active + pool.frozen:
            if h.consumed == t:
                assert is_consistent(h, plan[:t]), (t, h.key())


@pytest.mark.parametrize("labels, plan, horizon, n_active", [
    # run_split's closed element b1 leaves the region over elements 1-2 at
    # positions [1, 3) too short: a child frozen at t = 7
    (("b0", "b1", "b1", "b0", "b1", "b0"), [1, 0, 0, 1, 0, 0, 1], 12, 3),
    # a new assignment outgrows an earlier region of an active child at t = 11
    (("b2", "b3", "b3", "b2", "b2", "b3", "b2", "b1"), [1, 0, 2, 0, 1, 1, 0, 1, 2, 2, 1], 20, 5),
    (("b3", "b2", "b0", "b1", "b0", "b2", "b1", "b0"), [0, 2, 0, 0, 1, 2, 1, 0, 2, 2, 1], 20, 7),
    # the label's first occurrence gets the content, and a later one lies in
    # a region closed before the open run: t = 10
    (("b3", "b4", "b2", "b3", "b1", "b2", "b3", "b0", "b4"),
     [0, 0, 2, 2, 0, 1, 1, 0, 1, 0], 12, 4),
    # the branch's main label also lies between its occurrences, in a region
    # closed before: t = 14
    (("b4", "b1", "b3", "b3", "b4", "b3", "b2", "b1", "b2", "b2", "b3"),
     [2, 0, 0, 1, 0, 1, 2, 1, 0, 0, 1, 0, 0, 1], 20, 3),
])
def test_a_new_assignment_never_shrinks_an_earlier_region(labels, plan, horizon, n_active):
    assert_consistent_after_every_confirmation(labels, plan, horizon, n_active)


def test_hypotheses_stay_consistent_on_seeded_random_instances():
    """A fixed sweep, so that every run tries the same 3,000 instances."""
    rng = random.Random(7)
    for _ in range(3000):
        labels = [f"b{k}" for k in range(rng.randint(1, 4))]
        sketch = [rng.choice(labels) for _ in range(rng.randint(2, 8))]
        plan = [rng.randrange(3) for _ in range(rng.randint(1, 20))]
        assert_consistent_after_every_confirmation(sketch, plan, 20, rng.randint(1, 8))


def pool_keys(pool):
    return [h.key() for h in pool.active], [h.key() for h in pool.frozen]


def test_frozen_store_stays_within_the_cap():
    sketch = Sketch(("b0", "b1") * 4)
    plan = [0, 1, 1, 0, 2] * 5
    pool = SketchPool(sketch, horizon=2)  # mem_cap 16, branch_cap 1
    roomy = SketchPool(sketch, horizon=3)  # mem_cap 36, the same branch_cap
    for t in range(1, len(plan) + 1):
        before = list(pool.frozen)
        pool.on_confirmed(plan[:t])
        roomy.on_confirmed(plan[:t])
        assert pool.stored_count() <= pool.mem_cap == 16
        assert pool.frozen[:len(before)] == before  # what a checkpoint counts, the cap keeps
        assert pool_keys(pool)[0] == pool_keys(roomy)[0]  # the cap leaves the active set
    assert roomy.stored_count() > pool.mem_cap  # the plan does overflow the cap
    for cut in range(len(plan), -1, -1):  # a backtrack only cuts the plan shorter
        pool.rebuild(cut)
        feed(fresh := SketchPool(sketch, horizon=2), plan[:cut])
        assert pool_keys(pool) == pool_keys(fresh)


EXCLUDED_SETS = [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(("b0", "b1", "b2")), min_size=1, max_size=8),
       # (-1: backtrack one step, else an action to confirm; whether to select)
       st.lists(st.tuples(st.integers(-1, 2), st.booleans()), max_size=40),
       st.sampled_from((2, 14)), st.integers(1, 4))
# the plan returns to a length, and to bytes, that select saw before
@example(["b1", "b2", "b2"], [(2, False), (2, False), (0, False), (2, True), (-1, False),
                              (2, False), (1, False), (0, False), (-1, False), (-1, True)], 2, 4)
def test_select_matches_the_scan_oracle_at_every_plan_state(labels, ops, horizon, n_active):
    """The ranking kept per plan length answers like a fresh scan of the
    active set after confirmations and backtracks, whether or not select ran
    in between."""
    sketch = Sketch(tuple(labels))
    pool = SketchPool(sketch, horizon=horizon, n_active=n_active)
    plan = []
    for op, check in ops:
        if op >= 0:
            plan.append(op)
            pool.on_confirmed(plan)
        elif plan:
            plan.pop()
            pool.rebuild(len(plan))
        if check:
            for excluded in EXCLUDED_SETS:
                assert pool.select(excluded) == select_scan(pool, plan, excluded)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(("b0", "b1", "b2", "b3")), min_size=2, max_size=7),
       st.lists(st.integers(0, 2), min_size=2, max_size=20),
       st.sampled_from((4, 20)), st.integers(1, 4))
@example(["b0", "b0", "b1"], [1, 1, 2, 1, 1, 2, 0], 20, 4)
# repeats that open the run while the first occurrence lies in a closed region
@example(["b0", "b3", "b1", "b0", "b1"], [2, 1, 0, 2, 0, 0, 0], 20, 3)
# a run of one action whose repeat of a region-buried first occurrence has a claim
@example(["b0", "b1", "b2", "b0", "b1"], [2, 2, 0, 1, 0, 2, 2], 20, 4)
# a child of a region-held first occurrence that must still close the run
@example(["b0", "b2", "b1", "b0", "b1", "b2"], [0] * 6, 4, 2)
def test_branch_matches_the_scan_every_match_oracle(labels, plan, horizon, n_active):
    pool = SketchPool(Sketch(tuple(labels)), horizon=horizon, n_active=n_active)
    for t in range(1, len(plan) + 1):
        pool.on_confirmed(plan[:t])
        pb = bytes(plan[:t])
        bound = pool.checkpoints[-1][3]  # the repeated suffix the pool found
        for parent in pool.active + [h for h in pool.frozen if h.consumed == t]:
            pool.seen = set()  # each side adopts its children afresh
            got = [h.key() for h in pool.branch(parent, pb, bound)]
            pool.seen = set()
            assert got == [h.key() for h in branch_scan_every_match(pool, parent, pb)]
            # the claim's r loop skips only repeat lengths whose window is
            # empty or longer than the repeated suffix
            assert parent.optimistic_claim(pb, bound) == optimistic_claim_every_r(parent, pb)
            # the memoised site is the one a fresh copy computes
            assert parent._repeat_site() == fresh_copy(parent)._repeat_site()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=30))
@example([])
@example([1])
@example([0, 0])
@example([0, 1, 0, 1, 0, 1])  # the longest repeat overlaps the suffix
def test_repeated_suffix_matches_the_scan_oracle(plan):
    pb = bytes(plan)
    assert repeated_suffix(pb, len(pb)) == repeated_suffix_scan(pb)
    # the pool's way: from the previous plan's length plus one, down
    bound = 0
    for t in range(len(pb) + 1):
        bound = repeated_suffix(pb[:t], bound + 1)
        assert bound == repeated_suffix_scan(pb[:t])


def memos(h):
    """`h`'s repeat site, score and next assigned element; the ones it
    carries, computed now where it carries none."""
    return h._repeat_site(), h.score(), None if h.run_elem is None else h._next_assigned()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(("b0", "b1", "b2", "b3")), min_size=2, max_size=7),
       st.lists(st.integers(-1, 2), min_size=2, max_size=30),  # -1: backtrack one step
       st.sampled_from((4, 20)), st.integers(1, 4))
@example(["b0", "b1", "b0", "b1"], [0, 1, 0, 1, 2, 0, 1, 0, 1, 2], 20, 4)
@example(["b0", "b0", "b2", "b0"], [0, 0, 1], 20, 4)  # a run carries its next assigned element
# a first occurrence in a closed region, whose site bounds it by the region's end
@example(["b0", "b3", "b1", "b0", "b1"], [2, 1, 0, 2, 0, 0, 0, 1], 20, 3)
# an assigned element that ends in an open run drops the site found inside it
@example(["b0", "b3", "b3", "b3", "b2", "b2", "b2"], [2, 0, 2, 2, 2], 4, 3)
def test_carried_memos_match_a_fresh_copy(labels, ops, horizon, n_active):
    pool = SketchPool(Sketch(tuple(labels)), horizon=horizon, n_active=n_active)
    plan = []
    for op in ops:
        if op >= 0:
            plan.append(op)
            pool.on_confirmed(plan)
        elif plan:
            plan.pop()
            pool.rebuild(len(plan))
        for h in pool.active + pool.frozen:
            assert memos(h) == memos(fresh_copy(h))


def test_advancing_a_shared_copy_leaves_the_original_as_it_was():
    # b1=(e,f), b2=(g) mid-way through b1's second occurrence: f closes b1,
    # which adds a block to the copy's layout
    h = Hypothesis(("b1", "b2", "b1", "b3", "b1"), {"b1": (E, F), "b2": (G,)}, [], 0)
    h._enter(0, 0)
    assert all(h.advance(a) for a in (E, F, G, E))
    before, copy = h.key(), h._copy(share=True)
    assert copy.advance(F) and len(copy.layout) == len(h.layout) + 1
    assert h.key() == before


def stored_keys(entry) -> tuple:
    """The keys of the hypotheses of a pool-store entry, and the actions its
    ranking claims."""
    (active, _, ranking, _, _), frozen, _ = entry
    return [h.key() for h in active], [h.key() for h in frozen], [(h.key(), a) for h, a in ranking]


@settings(max_examples=30, deadline=None)
@given(long_aliased_tasks(),
       st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(SKETCH_SETTINGS)),
                min_size=2, max_size=5))
def test_stored_hypotheses_never_change(task, runs):
    """Advance copies share `assigned` and `layout` with the stored
    hypotheses they advance, and a task's pool stores outlive each run: after
    each plots_sketch run, every entry that an earlier run left in a store,
    and that is still there, holds hypotheses with the keys it had then."""
    demo, snapshot = task.demo(), []
    for seed, cfg in runs:
        run_agent("plots_sketch", task, demo, seed, 300000, cfg)
        for store, pb, entry, keys in snapshot:
            if store.get(pb) is entry:
                assert stored_keys(entry) == keys, (seed, cfg, pb)
        snapshot = [(store, pb, entry, stored_keys(entry))
                    for store in task._stores.values() for pb, entry in store.items()]
