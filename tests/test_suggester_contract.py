"""Suggester contract: the search is sound only if each suggester is a
function of the confirmed plan alone, so that a cut leaves it as it was at
the shorter plan. Each entry of `SUGGESTERS` meets random confirmations and
cuts of up to three actions at once, so a suggester added there needs no
test of its own. After each op:

- `suggest` over `EXCLUDED_SETS` and the entry's state view equal those of
  a fresh suggester fed the plan one action at a time;
- `suggest` returns None or an action id, and changes neither the plan, its
  ledgers nor `excluded`;
- a stateful suggester refuses, with a ValueError and its state unchanged,
  a confirmation that does not extend the plan by one action and a cut
  outside [0, len(plan)].

A suggester that keeps its per-plan state in a dict may share the dict, as
the runs of a task share the task's stores. A warm entry's suggester shares
one with a second suggester of the entry, which runs warm-up ops first and
then its own ops interleaved with the tested one's; after every op of
either, the tested suggester must still equal the fresh suggester, whose
dict is private, in its suggestions and its view. A private pool store
holds exactly the plan's prefixes, and a rebuild restores the adoption
count a fresh pool has.

The oracles of what each suggests are in `test_sketch` and `test_repeats`.
"""

import itertools
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.baselines import OracleAlignedSuggester
from procsearch.core import Sketch, spans_from_lengths
from procsearch.repeats import RepeatPoolSuggester
from procsearch.search import PartialPlan, UniformSuggester, backtrack
from procsearch.sketch import SketchPoolSuggester
from tests.oracles import confirm
from tests.test_sketch import EXCLUDED_SETS

N_ACTIONS = 3  # the actions of EXCLUDED_SETS
MAX_PLAN = 25  # confirmations past this length are skipped
MOTIF = "motif"


def cut(k: int) -> tuple[str, int]:
    return "cut", k


OPS = (0, 1, 2, MOTIF, MOTIF, *map(cut, range(4)))


class Entry(NamedTuple):
    name: str
    make: Callable  # (sketch, alignment) -> suggester; a warm entry's takes a dict too
    view: Callable  # suggester -> a snapshot of the state the plan fixes
    examples: int = 15  # random op sequences, on top of the @examples
    warm: bool = False  # the suggester shares its dict with a second one


def stateless(sug) -> tuple:
    return ()


def sketch_view(sug) -> tuple:
    """Active and frozen keys, the active ones' order by age, the count of
    adopted hypotheses that the next adoption's age follows, the checkpoint
    count."""
    pool = sug.pool
    active = pool.active
    return ([h.key() for h in active], [h.key() for h in pool.frozen],
            sorted(range(len(active)), key=lambda i: active[i].created), pool._created,
            len(pool.checkpoints))


def repeat_view(sug) -> tuple:
    store = sug.store
    return dict(store.counts), store.plan, {k: sorted(v) for k, v in store.kids.items()}


def sketch_entry(n_active: int, optimistic: bool, horizon: int, warm: bool = False) -> Entry:
    return Entry(f"{'warm-' if warm else ''}sketch-n{n_active}-"
                 f"{'opt' if optimistic else 'plain'}-h{horizon}",
                 lambda sketch, spans, store=None: SketchPoolSuggester(
                     sketch, horizon, n_active, optimistic, store),
                 sketch_view, examples=25, warm=warm)


SUGGESTERS = [
    Entry("uniform", lambda sketch, spans: UniformSuggester(), stateless),
    # horizon 2 gives the smallest frozen cap (16), which long plans overflow
    *(sketch_entry(n, opt, h) for n in (1, 2, 4) for opt in (True, False) for h in (2, 14)),
    *(sketch_entry(n, opt, h, warm=True) for n, opt, h in ((1, True, 14), (2, False, 2),
                                                           (4, True, 2), (4, True, 14))),
    Entry("repeats", lambda sketch, spans: RepeatPoolSuggester(), repeat_view, examples=250),
    Entry("warm-repeats", lambda sketch, spans, rankings=None: RepeatPoolSuggester(rankings),
          repeat_view, examples=100, warm=True),
    Entry("oracle", lambda sketch, spans: OracleAlignedSuggester(spans, sketch), stateless),
]


@st.composite
def sketches(draw):
    """Sketch labels and one span length per element, for the alignment."""
    labels = draw(st.lists(st.sampled_from(("b0", "b1", "b2")), min_size=1, max_size=8))
    return labels, draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))


def suggestions(sug, plan) -> list:
    """`suggest` over `EXCLUDED_SETS`, checked to return None or an action
    id and to change neither the plan, its ledgers nor `excluded`."""
    before = list(plan.confirmed), [set(r) for r in plan.ruled_out]
    got = []
    for want in EXCLUDED_SETS:
        got.append(sug.suggest(plan, excluded := set(want)))
        assert got[-1] in (None, *range(N_ACTIONS)) and excluded == want
    assert (plan.confirmed, plan.ruled_out) == before
    return got


def apply(op, sug, plan: PartialPlan, motif: list) -> None:
    """Confirm an action or the motif, up to MAX_PLAN actions, or cut."""
    if op == MOTIF or op in range(N_ACTIONS):
        for a in motif if op == MOTIF else [op]:
            if plan.frontier < MAX_PLAN:
                sug.on_confirmed(confirm(plan, a))
    elif (n := max(0, plan.frontier - op[1])) == plan.frontier - 1:
        backtrack(plan, sug)  # as the search cuts, one action at a time
    else:
        del plan.confirmed[n:], plan.ruled_out[n + 1:]
        sug.on_backtrack(n)


def fed(sug, plan: PartialPlan):
    """`sug`, fresh, fed the plan one action at a time."""
    fed_plan = PartialPlan(N_ACTIONS)
    for a in plan.confirmed:
        sug.on_confirmed(confirm(fed_plan, a))
    return sug


def check_refusals(entry: Entry, sug, plan) -> None:
    n, state = plan.frontier, entry.view(sug)
    wrongs = [(plan.confirmed + [0, 0])[:k] for k in (n, n + 2, n - 1)[:3 if n else 2]]
    if n:  # the right length, with the last action of the plan changed
        wrongs.append(plan.confirmed[:-1] + [(plan.confirmed[-1] + 1) % N_ACTIONS, 0])
    for actions in wrongs:  # the same plan, a skip, a cut, another plan
        with pytest.raises(ValueError,
                           match=f"{len(actions)} actions do not extend the latest plan of {n}"):
            sug.on_confirmed(confirm(PartialPlan(N_ACTIONS), *actions))
    for to in (-1, n + 1):
        with pytest.raises(ValueError, match=f"cannot cut a plan of {n} actions to {to}"):
            sug.on_backtrack(to)
    assert entry.view(sug) == state


@pytest.mark.parametrize("entry", SUGGESTERS, ids=lambda e: e.name)
def test_a_suggester_is_a_function_of_the_plan(entry):
    @settings(max_examples=entry.examples, deadline=None)
    @given(sketches(), st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=5),
           st.lists(st.sampled_from(OPS), max_size=40),
           # for a warm entry: the second suggester's warm-up, then its interleaved ops
           st.lists(st.sampled_from(OPS), max_size=40),
           st.lists(st.sampled_from(OPS), max_size=40))
    # cuts of several levels at once, of none, and past the plan's start
    @example((["b0", "b1", "b0"], [1, 2, 1]), [0, 1],
             [MOTIF, 2, MOTIF, MOTIF, cut(3), MOTIF, 1, cut(2), cut(0), MOTIF, cut(3), cut(3), 2,
              cut(3)], [MOTIF, MOTIF, MOTIF, MOTIF], [cut(2), MOTIF, 2, cut(1), MOTIF])
    @example((["b0", "b0", "b0"], [1, 1, 1]), [1], [1, 1, 1, cut(0)],  # frozen ones to re-create
             [1, 1, 1], [cut(0), 1, 1])
    # a plan that overflows the smallest frozen cap, then cuts back to the empty plan
    @example((["b0", "b1"] * 4, [1] * 8), [0, 1, 1, 0, 2],
             [MOTIF] * 5 + [cut(1), 0, cut(1), 1, cut(1)] + [cut(1)] * 6 + [cut(3)] * 6,
             [MOTIF] * 5, [cut(3)] * 3 + [MOTIF] * 3)
    # a freeze undone, twice
    @example((["b1", "b1"], [1, 1]), [1], [1, 1, cut(1), 1, cut(1), 2, cut(1), cut(1)],
             [1, 1, 2], [cut(1), 1, cut(1), 1])
    # a cut, then regrowth to the same length with other actions; the
    # warm-up's chain diverges from the plan after one action
    @example((["b0"], [2]), [0, 1], [MOTIF, MOTIF, MOTIF, cut(1), 2], [0, 2, MOTIF, MOTIF],
             [cut(3), 2, MOTIF])
    def holds(task, motif, ops, warmup, theirs):
        sketch, spans = Sketch(tuple(task[0])), spans_from_lengths(task[1])
        plan = PartialPlan(N_ACTIONS)
        if entry.warm:
            shared, their_plan = {}, PartialPlan(N_ACTIONS)
            other = entry.make(sketch, spans, shared)
            for op in warmup:
                apply(op, other, their_plan, motif)
            sug = entry.make(sketch, spans, shared)
        else:
            sug, theirs = entry.make(sketch, spans), []
        fresh = entry.make(sketch, spans)
        want = suggestions(fresh, plan), entry.view(fresh)
        for op, their_op in itertools.zip_longest(ops, theirs):
            if op is not None:
                apply(op, sug, plan, motif)
                if entry.view is not stateless:
                    check_refusals(entry, sug, plan)
                fresh = fed(entry.make(sketch, spans), plan)
                want = suggestions(fresh, plan), entry.view(fresh)
            if their_op is not None:
                assert (suggestions(sug, plan), entry.view(sug)) == want
                apply(their_op, other, their_plan, motif)
            assert (suggestions(sug, plan), entry.view(sug)) == want

    holds()


@settings(max_examples=50, deadline=None)
@given(sketches(), st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=5),
       st.lists(st.sampled_from(OPS), max_size=40))
@example((["b0", "b0", "b1"], [1, 1, 1]), [0, 1], [MOTIF, MOTIF, cut(3), MOTIF, 2])
def test_a_private_store_holds_the_checkpoints_of_the_plan_prefixes(task, motif, ops):
    """A pool built alone keeps a private store, which after any op holds
    exactly the pool's own checkpoints of the plan's non-empty prefixes."""
    sug, plan = SketchPoolSuggester(Sketch(tuple(task[0])), 14, 2), PartialPlan(N_ACTIONS)
    for op in ops:
        apply(op, sug, plan, motif)
        pool, pb = sug.pool, bytes(plan.confirmed)
        assert sorted(pool.store) == [pb[:d] for d in range(1, len(pb) + 1)]
        assert all(pool.store[pb[:d]][0] is pool.checkpoints[d] for d in range(1, len(pb) + 1))


@settings(max_examples=50, deadline=None)
@given(sketches(), st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=5),
       st.lists(st.sampled_from(OPS), max_size=40))
# a cut of three actions on a repeated label, then regrowth with new adoptions
@example((["b0", "b0", "b1"], [1, 1, 1]), [0, 1], [MOTIF, MOTIF, cut(3), MOTIF, 2])
def test_a_rebuild_restores_the_adoption_count_of_a_fresh_pool(task, motif, ops):
    """After a rebuild and new confirmations, the pool's count of adopted
    hypotheses, which gives the next one its age, is a fresh pool's for the
    plan."""
    sketch = Sketch(tuple(task[0]))
    sug, plan = SketchPoolSuggester(sketch, 14, 2), PartialPlan(N_ACTIONS)
    for op in ops:
        apply(op, sug, plan, motif)
        assert sug.pool._created == fed(SketchPoolSuggester(sketch, 14, 2), plan).pool._created


@pytest.mark.parametrize("make, reason", [
    (lambda: SketchPoolSuggester(Sketch(("b0", "b1")), 6, n_active=0), "at least one active"),
    (lambda: OracleAlignedSuggester(((0, 1),), Sketch(("b0", "b1"))), "one span per sketch element"),
], ids=["sketch-n0", "oracle-one-span-for-two-elements"])
def test_a_suggester_refuses_settings_it_cannot_follow(make, reason):
    with pytest.raises(ValueError, match=reason):
        make()
