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
is declared incomplete without burning the rest of the budget.
"""

from __future__ import annotations

import numpy as np

from .core import Action, Demonstration, Env, Sketch
from .search import ActionSuggester, LearnReport, PartialPlan


class OracleAlignedSuggester(ActionSuggester):
    def __init__(self, alignment, sketch: Sketch):
        self.spans = tuple(alignment)
        self.labels = sketch.elements
        if len(self.spans) != len(self.labels):
            raise ValueError("alignment must give one span per sketch element")

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        t = plan.frontier
        cur = None
        for k, (s, e) in enumerate(self.spans):
            if s <= t < e:
                cur = k
                break
        if cur is None:
            return None
        lbl = self.labels[cur]
        for j, (s, e) in enumerate(self.spans):
            if self.labels[j] != lbl:
                continue
            if j == cur:
                return None  # this is the label's first occurrence: nothing learned yet
            if e <= len(plan.confirmed):
                return plan.confirmed[s + (t - self.spans[cur][0])]
            return None
        return None


_TERM = -2      # next-state marker for off-demonstration tokens
_UNKNOWN = -1
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
        self.expect = np.full(self.n, _NO_EXPECT, dtype=np.int64)
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
            return LearnReport(tuple(a for _, a, _ in trace), ep, total_steps, 0, True, rows)
        key = tuple(trace)
        if key == prev_trace:
            break  # fixed point: identical episode, no new knowledge, no completion
        prev_trace = key
    return LearnReport((), budget, total_steps, 0, False, rows)


def rmax_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Optimistic certainty-equivalent planning over the token graph.

    Unknown (token, action) pairs are valued at every remaining step, H - t.
    A step pays at most 1, so no action is worth more: a token with an
    untried action takes its lowest one and is itself worth H - t. Its row
    therefore fills lowest action first, and a new edge can change the
    value function only when it completes its token's row. The values, and
    with them the greedy action of every fully known token at every
    position (lowest id on ties), are recomputed after such an edge, at
    most once per token; between replans a choice is a lookup.
    """
    horizon = demo.horizon

    def policy(table: _TokenTable, n_act: int):
        trans = np.full((table.n, n_act), _UNKNOWN, dtype=np.int64)
        known = [0] * table.n  # actions 0..known[s]-1 of token s are known
        greedy = None  # greedy[t][s] at full rows; stale after a row fills

        def replan():
            # unknown/TERM lead to the extra last entry, worth nothing
            nxt = np.where(trans >= 0, trans, table.n)
            reward = (trans == table.expect[:, None]).astype(float)
            full = np.array(known) == n_act
            rows = np.arange(table.n)
            v = np.zeros(table.n + 1)
            out = [None] * horizon
            for t in range(horizon - 1, -1, -1):
                q = reward + v[nxt]
                g = q.argmax(axis=1)
                # a token with an untried action is worth every remaining step
                v[:-1] = np.where(full, q[rows, g], float(horizon - t))
                out[t] = g.tolist()
            return out

        def choose(s: int, t: int) -> int:
            nonlocal greedy
            k = known[s]
            if k < n_act:
                return k
            if greedy is None:
                greedy = replan()
            return greedy[t][s]

        def observe(s: int, a: int, z: int) -> None:
            nonlocal greedy
            if a == known[s]:
                trans[s, a] = z
                known[s] = a + 1
                if a + 1 == n_act:
                    greedy = None

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
        expect = table.expect.tolist()
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
                if paid[s] is None and z == expect[s]:
                    paid[s] = a

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)
