"""Comparison agents.

OracleAlignedSuggester plugs into the plan search like the other suggesters
but is given the true alignment of sketch elements to demonstration steps;
it only has to learn each label's action content, which it captures verbatim
from the first completed span of that label.

rmax_learn and ucb_learn are tabular agents over observation tokens with
dense per-step rewards: acting in state s pays 1 exactly when the emitted
token is the one that follows s's first occurrence in the demonstration.
Anchoring the reward to the state keeps it a deterministic function of
(state, action), which is what makes a one-sample bandit/model sound; along
the demonstrated trajectory it coincides with matching the demonstration
position by position, and a run counts as complete only when an episode
reproduces the full sequence position-exactly. Under aliasing the anchor is
simply wrong for later occurrences, which is why these agents stall on the
partially observable domain. For tractability every token that never
appears in the demonstration collapses into one absorbing terminal state
that ends the episode.

Both agents share one model, the token graph, and one rule for unknown
edges: a token that still has an untried action takes the lowest one, and
the token it first leads to is recorded in the token's row. Rows therefore
fill lowest action first, and the agents differ only in how they choose in
a full row. Once an episode repeats the previous one's actions without
completing, nothing can ever change (deterministic policy, deterministic
world, no new knowledge), so the run stops there as incomplete, with stop
reason "fixed_point".

A greedy choice can change only when a row fills, so an episode after one
in which no row filled repeats that episode's lead, the steps before its
first untried action: the loop restores the env position it marked at
that action and chooses from there. Edges added to a row that is not full
change no value, a full row stays full, and the world is deterministic, so
every episode is the one a step-by-step loop would take. A UCB fill
changes only the filled token's choice, which no step of the lead reads,
so UCB keeps its lead across fills too.
"""

from __future__ import annotations

from .core import Action, Demonstration, Env, Sketch
from .search import ActionSuggester, LearnReport, PartialPlan


class OracleAlignedSuggester(ActionSuggester):
    def __init__(self, alignment, sketch: Sketch):
        spans = tuple(alignment)
        if len(spans) != len(sketch.elements):
            raise ValueError("alignment must give one span per sketch element")
        # source[t]: the plan position whose action position t copies, the
        # same offset into its label's first span; None inside a first span
        self.source: list[int | None] = []
        first: dict[str, int] = {}
        for (s, e), lbl in zip(spans, sketch.elements):
            if s != len(self.source) or e <= s:
                raise ValueError(f"alignment spans must be non-empty and tile the "
                                 f"demonstration in order; got {spans}")
            s0 = first.setdefault(lbl, s)
            self.source.extend(range(s0, s0 + e - s) if s0 != s else [None] * (e - s))

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        t = plan.frontier
        src = self.source[t] if t < len(self.source) else None
        # spans tile in order, so a label's first span is confirmed by now
        return None if src is None else plan.confirmed[src]


_TERM = -1  # the one state of every token off the demonstration


def _tabular_learn(env: Env, demo: Demonstration, budget: int, make_policy) -> LearnReport:
    """The episode loop of both tabular agents; it keeps the token graph.

    `succ[s]` lists the tokens that the tried actions 0, 1, ... of token s
    first led to, and `expect[s]` is the token that follows s's first
    occurrence in the demonstration (None if it occurs only last).
    `make_policy(succ, expect, n_actions)` returns the agent's
    `greedy(s, t)`, the action to take in a full row s at position t, and
    `row_filled(s)`, called once row s is full, which says whether the
    greedy choices of the steps before the filling one are unchanged.

    `lead` is the position of the previous episode's first untried step,
    and 0 if it tried nothing new or a fill changed the choices before it.
    The steps before it are greedy steps in full rows, so the next episode
    takes them again: it restores `at`, the position marked at the lead
    (without a mark, it resets and replays them), and starts choosing at
    `t = lead`, with the previous episode's match count cut to the lead.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1 episode")
    obs = demo.observations
    horizon = len(obs)
    n_act = env.n_actions
    start = env.reset()
    index = {}
    for tok in (start, *obs):
        index.setdefault(tok, len(index))
    expect = [None] * len(index)
    for tok, nxt in reversed(tuple(zip((start, *obs), obs))):  # first occurrence wins
        expect[index[tok]] = index[nxt]
    succ = [[] for _ in expect]
    greedy, row_filled = make_policy(succ, expect, n_act)
    of, reset, step, mark, restore = index.get, env.reset, env.step, env.mark, env.restore
    rows = []
    total_steps = 0
    prev = []  # no episode has zero steps: the start token is never _TERM
    lead = matched = best_matched = 0
    at = s_at = None
    for ep in range(1, budget + 1):
        actions = prev[:lead]
        if lead and at is not None:
            restore(at)
            s = s_at
        else:
            tok = reset()
            for a in actions:
                tok = step(a)
            s = of(tok, _TERM)
        matched = min(matched, lead)
        lead = None  # this episode's first untried position; 0 once a fill changes it
        for t in range(len(actions), horizon):
            if s == _TERM:
                break
            row = succ[s]
            untried = len(row) < n_act
            a = len(row) if untried else greedy(s, t)
            if untried and lead is None:
                lead, at, s_at = t, mark(), s
            tok = step(a)
            z = of(tok, _TERM)
            actions.append(a)
            if untried:
                row.append(z)
                if len(row) == n_act and not row_filled(s):
                    lead = 0
            if matched == t and tok == obs[t]:
                matched += 1
            s = z
        lead = lead or 0
        total_steps += len(actions)
        best_matched = max(best_matched, matched)
        done = matched == horizon
        rows.append((ep, len(actions), best_matched, 0, done))
        if done:
            return LearnReport(tuple(actions), ep, total_steps, 0, True, "complete", rows)
        if actions == prev:  # the actions fix the episode: nothing new, no completion
            return LearnReport((), budget, total_steps, 0, False, "fixed_point", rows)
        prev = actions
    return LearnReport((), budget, total_steps, 0, False, "budget", rows)


def rmax_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Optimistic certainty-equivalent planning over the token graph.

    Unknown (token, action) pairs are valued at every remaining step, H - t.
    A step pays at most 1, so no action is worth more: a token with an
    untried action is itself worth H - t, and a new edge can change a value
    only when it completes its token's row. A full token's value and greedy
    action at position t (lowest id on ties) are computed when a choice
    first needs them and memoised until the next row fills.
    """
    horizon = demo.horizon

    def policy(succ: list[list[int]], expect: list[int | None], n_act: int):
        memo = {}  # (t, s) -> (value, greedy action) of a full row s

        def greedy(s: int, t: int) -> int:
            hit = memo.get((t, s))
            if hit is not None:
                return hit[1]
            # depth first with an explicit stack: a demonstration can be
            # longer than the recursion limit. A frame is [t, s, next action,
            # best q, its action]; it waits while a successor is unsolved.
            key = t, s
            stack = [[t, s, 0, -1, 0]]
            while stack:
                frame = stack[-1]
                t, s, a, best, arg = frame
                row, e, t1 = succ[s], expect[s], t + 1
                while a < n_act:
                    z = row[a]
                    if t1 == horizon or z == _TERM:
                        v = 0
                    elif len(succ[z]) < n_act:
                        v = horizon - t1  # an untried action is worth every step left
                    else:
                        hit = memo.get((t1, z))
                        if hit is None:
                            break
                        v = hit[0]
                    q = (z == e) + v
                    if q > best:
                        best, arg = q, a
                        if q == horizon - t:  # a step pays at most 1: nothing is worth more
                            a = n_act
                            break
                    a += 1
                if a < n_act:
                    frame[2:] = a, best, arg
                    stack.append([t1, z, 0, -1, 0])
                else:
                    memo[t, s] = best, arg
                    stack.pop()
            return memo[key][1]

        def row_filled(s: int) -> bool:
            memo.clear()
            return False  # any value upstream may change

        return greedy, row_filled

    return _tabular_learn(env, demo, budget, policy)


def ucb_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Per-token bandit with optimistic upper bounds.

    Rewards are deterministic, so one pull pins an arm's bound, and untried
    arms have an infinite bound. Once a row is full its best arm, the lowest
    one that paid 1 (else action 0), never changes.
    """
    def policy(succ: list[list[int]], expect: list[int | None], n_act: int):
        best = [0] * len(succ)  # the arm a full row s takes

        def greedy(s: int, t: int) -> int:
            return best[s]

        def row_filled(s: int) -> bool:
            row, e = succ[s], expect[s]
            best[s] = row.index(e) if e in row else 0
            return True  # only s's choice changed, and no earlier step is at s

        return greedy, row_filled

    return _tabular_learn(env, demo, budget, policy)
