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
that ends the episode. Both agents are deterministic: ties prefer untried
actions first, then the lowest action id. Once an episode repeats the
previous one exactly without completing, nothing can ever change
(deterministic policy, deterministic world, no new knowledge), so the run
stops there as incomplete, with stop reason "fixed_point".
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


_TERM = -2      # next-state marker for off-demonstration tokens
_NO_EXPECT = -9


class _TokenTable:
    """Token->index map over the demonstration vocabulary, plus the expected
    successor token of each state (anchored at its first demo occurrence)."""

    def __init__(self, demo: Demonstration, start_token: str):
        self.index = {}
        for tok in (start_token, *demo.observations):
            if tok not in self.index:
                self.index[tok] = len(self.index)
        self.n = len(self.index)
        obs = demo.observations
        self.expect = [_NO_EXPECT] * self.n
        self.expect[self.index[start_token]] = self.index[obs[0]]
        for i in range(len(obs) - 1):
            s = self.index[obs[i]]
            if self.expect[s] == _NO_EXPECT:
                self.expect[s] = self.index[obs[i + 1]]

    def of(self, tok) -> int:
        return self.index.get(tok, _TERM)


def _tabular_learn(env: Env, demo: Demonstration, budget: int, make_policy) -> LearnReport:
    """The episode loop of both tabular agents.

    `make_policy(table, n_actions)` returns the agent's `choose(s, t)`, the
    action to take in state s at position t, and `observe(s, a, z)`, called
    after every step with the state it reached.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1 episode")
    horizon = demo.horizon
    table = _TokenTable(demo, env.reset())
    choose, observe = make_policy(table, env.n_actions)
    rows = []
    total_steps = 0
    prev_trace = None
    best_matched = 0
    for ep in range(1, budget + 1):
        obs = env.reset()
        s = table.of(obs)
        trace = []
        matched = 0
        all_ok = True
        for t in range(horizon):
            if s == _TERM:
                break
            a = choose(s, t)
            obs = env.step(a)
            z = table.of(obs)
            trace.append((s, a, z))
            observe(s, a, z)
            if obs == demo.observations[t] and all_ok:
                matched += 1
            else:
                all_ok = False
            s = z
        total_steps += len(trace)
        best_matched = max(best_matched, matched)
        done = matched == horizon
        rows.append((ep, len(trace), best_matched, 0, done))
        if done:
            return LearnReport(tuple(a for _, a, _ in trace), ep, total_steps, 0, True,
                               "complete", rows)
        key = tuple(trace)
        if key == prev_trace:  # identical episode, no new knowledge, no completion
            return LearnReport((), budget, total_steps, 0, False, "fixed_point", rows)
        prev_trace = key
    return LearnReport((), budget, total_steps, 0, False, "budget", rows)


def rmax_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Optimistic certainty-equivalent planning over the token graph.

    Unknown (token, action) pairs are valued at every remaining step, H - t.
    A step pays at most 1, so no action is worth more: a token with an
    untried action takes its lowest one and is itself worth H - t. Its row
    therefore fills lowest action first, and a new edge can change a value
    only when it completes its token's row. A fully known token's value and
    greedy action at position t (lowest id on ties) are computed when a
    choice first needs them and memoised until the next row fills.
    """
    horizon = demo.horizon

    def policy(table: _TokenTable, n_act: int):
        expect = table.expect
        succ = [[] for _ in range(table.n)]  # succ[s][a]: the token action a led to
        memo = {}  # (t, s) -> (value, greedy action) of a full row s

        def solve(t: int, s: int) -> None:
            # depth first with an explicit stack: a demonstration can be
            # longer than the recursion limit. A frame is [t, s, next action,
            # best q, its action]; it waits while a successor is unsolved.
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

        def choose(s: int, t: int) -> int:
            k = len(succ[s])
            if k < n_act:
                return k
            if (t, s) not in memo:
                solve(t, s)
            return memo[t, s][1]

        def observe(s: int, a: int, z: int) -> None:
            row = succ[s]
            if a == len(row):
                row.append(z)
                if a + 1 == n_act:
                    memo.clear()

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)


def ucb_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Per-token bandit with optimistic upper bounds.

    Rewards are deterministic, so one pull pins an arm's bound; untried arms
    have an infinite bound and are always taken first (lowest id first), so
    a token's row fills lowest action first. Once it is full the best arm,
    the lowest one that paid 1 (else action 0), never changes.
    """
    def policy(table: _TokenTable, n_act: int):
        known = [0] * table.n  # arms 0..known[s]-1 of token s are tried
        paid = [None] * table.n  # the lowest arm of token s that paid 1

        def choose(s: int, t: int) -> int:
            k = known[s]
            if k < n_act:
                return k
            a = paid[s]
            return 0 if a is None else a

        def observe(s: int, a: int, z: int) -> None:
            if a == known[s]:
                known[s] = a + 1
                if paid[s] is None and z == table.expect[s]:
                    paid[s] = a

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)
