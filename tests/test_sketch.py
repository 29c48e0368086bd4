import random
from statistics import mean

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.agents import run_agent
from procsearch.core import Demonstration, Sketch, record_demonstration
from procsearch.envs import make_task
from procsearch.envs.scripted import ScriptedEnv
from procsearch.search import UniformSuggester, learn
from procsearch.sketch import Hypothesis, SketchPool, SketchPoolSuggester
from tests.oracles import (
    branch_scan_every_match, exact_segments, is_consistent, optimistic_claim_every_r,
    select_scan,
)

E, F, G, H_ACT, I_ACT = 0, 1, 2, 3, 4


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


def test_optimistic_suggestion_worked_example():
    # empty hypothesis, plan (e,f,g,e): the first e is b1's first occurrence,
    # the second e is optimistically b1 repeating with content (e,f) -> f
    blank = Hypothesis.blank(("b1", "b2", "b1", "b3", "b1"))
    plan = (E, F, G, E)
    for a in plan:
        blank.advance(a)
    assert blank.suggest(bytes(plan)) == F


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


def test_optimism_speeds_up_learning_on_island():
    # the paper's claim: answering open runs optimistically learns faster
    task = make_task("island")
    demo = task.demo()
    episodes = {opt: [run_agent("plots_sketch", task, demo, seed, 30000,
                                {"optimistic": opt}).episodes for seed in range(10)]
                for opt in (True, False)}
    assert mean(episodes[False]) >= 1.5 * mean(episodes[True])


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


def test_branching_residual_prefix_example():
    # sketch (b3,b1,b2,b1), plan (e,f,g,h,i,f,g,h): three children assigning
    # b1 in {(h),(g,h),(f,g,h)} with the residual prefix as b3 and the
    # stretch between the occurrences as b2
    pool = SketchPool(Sketch(("b3", "b1", "b2", "b1")), horizon=16)
    feed(pool, (E, F, G, H_ACT, I_ACT, F, G, H_ACT))
    got = assignments(pool)
    expected = [
        {"b1": (H_ACT,), "b2": (I_ACT, F, G), "b3": (E, F, G)},
        {"b1": (G, H_ACT), "b2": (I_ACT, F), "b3": (E, F)},
        {"b1": (F, G, H_ACT), "b2": (I_ACT,), "b3": (E,)},
    ]
    assert sorted(map(repr, got)) == sorted(map(repr, expected))


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
            saved = sum(len(active) for active, _, _ in pool.checkpoints)
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
    ranked = pool._proposals([lo, hi], b"")
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
    assert pool._proposals([a, b], b"")[0][1] is b  # more assigned labels
    c = Hypothesis(sk, {"x": (E, F)}, [], 0)
    c._enter(0, 0)
    c.created = 1
    assert pool._proposals([a, c], b"")[0][1] is c  # older wins the tie


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


def pool_keys(pool):
    return [h.key() for h in pool.active], [h.key() for h in pool.frozen]


def test_frozen_store_stays_within_the_cap():
    sketch = Sketch(("b0", "b1") * 4)
    plan = [0, 1, 1, 0, 2] * 5
    pool = SketchPool(sketch, horizon=2)  # mem_cap 16, branch_cap 1
    roomy = SketchPool(sketch, horizon=3)  # mem_cap 36, the same branch_cap
    for t in range(1, len(plan) + 1):
        pool.on_confirmed(plan[:t])
        roomy.on_confirmed(plan[:t])
        assert pool.stored_count() <= pool.mem_cap == 16
        assert pool_keys(pool)[0] == pool_keys(roomy)[0]  # the cap leaves the active set
    assert roomy.stored_count() > pool.mem_cap  # the plan does overflow the cap
    for cut in range(len(plan), -1, -1):  # a backtrack only cuts the plan shorter
        pool.rebuild(cut)
        fresh = SketchPool(sketch, horizon=2)
        feed(fresh, plan[:cut])
        assert pool_keys(pool) == pool_keys(fresh)


def test_rebuild_and_on_confirmed_must_follow_the_plan_length():
    sketch = Sketch(("b0", "b1", "b0"))
    plan = [0, 1, 0, 1]
    pool = SketchPool(sketch, horizon=6)
    feed(pool, plan)
    before = pool_keys(pool)
    for n in (-1, len(plan) + 1):
        with pytest.raises(ValueError, match=f"plan of 4 actions to {n}"):
            pool.rebuild(n)
    for actions in (plan, plan + [0, 1], plan[:2]):  # the same plan, a skip, a cut
        with pytest.raises(ValueError, match=f"{len(actions)} actions .* latest plan of 4"):
            pool.on_confirmed(actions)
    assert pool_keys(pool) == before and len(pool.checkpoints) == len(plan) + 1
    pool.rebuild(len(plan))  # the plan's own length restores its own checkpoint
    assert pool_keys(pool) == before


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(("b0", "b1", "b2", "b3")), min_size=1, max_size=6),
       st.lists(st.integers(0, 2), min_size=1, max_size=14),
       st.integers(0, 14), st.integers(1, 4))
@example(["b0", "b0", "b0"], [1, 1, 1], 3, 2)  # frozen hypotheses to re-create
def test_backtrack_rebuild_matches_fresh_pool(labels, plan, cut, n_active):
    sketch = Sketch(tuple(labels))
    pool = SketchPool(sketch, horizon=14, n_active=n_active)
    feed(pool, plan)
    cut = min(cut, len(plan))
    pool.rebuild(cut)
    fresh = SketchPool(sketch, horizon=14, n_active=n_active)
    feed(fresh, plan[:cut])
    assert pool_keys(pool) == pool_keys(fresh)
    assert is_blank(pool.active[0])


def pool_state(pool):
    """Active and frozen keys, and the active hypotheses' order by age."""
    ages = sorted(range(len(pool.active)), key=lambda i: pool.active[i].created)
    return pool_keys(pool), ages


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(("b0", "b1", "b2")), min_size=1, max_size=8),
       st.lists(st.integers(-1, 2), max_size=40),  # -1: backtrack one step
       st.sampled_from((2, 14)), st.integers(1, 4))
@example(["b0", "b1"] * 4, [0, 1, 1, 0, 2] * 5 + [-1, 0, -1, 1, -1] + [-1] * 6, 2, 4)
@example(["b1", "b1"], [1, 1, -1, 1, -1, 2, -1, -1], 2, 1)  # undoes a freeze, twice
def test_backtracks_restore_what_a_fresh_pool_reaches(labels, ops, horizon, n_active):
    # horizon 2 gives the smallest frozen cap (16), which long plans overflow
    sketch = Sketch(tuple(labels))
    pool = SketchPool(sketch, horizon=horizon, n_active=n_active)
    plan = []
    for op in ops:
        if op >= 0:
            before = list(pool.frozen)
            plan.append(op)
            pool.on_confirmed(plan)
            # the cap never drops what the previous checkpoint counts
            assert pool.frozen[:len(before)] == before
        elif plan:
            plan.pop()
            pool.rebuild(len(plan))
            fresh = SketchPool(sketch, horizon=horizon, n_active=n_active)
            feed(fresh, plan)
            assert pool_state(pool) == pool_state(fresh)
            assert is_blank(pool.active[0])
            assert len(pool.checkpoints) == len(plan) + 1


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
def test_branch_matches_the_scan_every_match_oracle(labels, plan, horizon, n_active):
    pool = SketchPool(Sketch(tuple(labels)), horizon=horizon, n_active=n_active)
    for t in range(1, len(plan) + 1):
        pool.on_confirmed(plan[:t])
        pb = bytes(plan[:t])
        for parent in pool.active + [h for h in pool.frozen if h.consumed == t]:
            pool.seen = set()  # each side adopts its children afresh
            got = [h.key() for h in pool.branch(parent, pb)]
            pool.seen = set()
            assert got == [h.key() for h in branch_scan_every_match(pool, parent, pb)]
            # the claim's r loop skips only repeat lengths whose window is empty
            assert parent.optimistic_claim(pb) == optimistic_claim_every_r(parent, pb)
            # the memoised site is the one a fresh copy computes
            assert parent._repeat_site() == parent._shell()._repeat_site()
