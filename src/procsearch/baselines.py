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

    Unknown (token, action) pairs are valued at the best possible remaining
    reward; the value function is recomputed whenever the model grows (it
    cannot change otherwise, so this equals replanning every step).
    """
    horizon = demo.horizon

    def policy(table: _TokenTable, n_act: int):
        trans = np.full((table.n, n_act), _UNKNOWN, dtype=np.int64)
        values = None  # stale until the next choice after the model grows

        def q_of(rows, expect):
            """q(v_next, t): the action values of the token rows `rows` of
            `trans`, expecting `expect`, at position t. An unknown action is
            worth every remaining step; a known one, a match plus the value
            of the token it reaches (none off the vocabulary)."""
            known = rows != _UNKNOWN
            nxt = np.clip(rows, 0, None)        # TERM/unknown clipped; masked below
            on_vocab = rows >= 0
            reward = (rows == expect).astype(float)

            def q(v_next, t):
                cont = np.where(on_vocab, v_next[nxt], 0.0)
                return np.where(known, reward + cont, float(horizon - t))
            return q

        def replan():
            v = np.zeros((horizon + 1, table.n))
            q = q_of(trans, table.expect[:, None])
            for t in range(horizon - 1, -1, -1):
                v[t] = q(v[t + 1], t).max(axis=1)
            return v

        def choose(s: int, t: int) -> int:
            nonlocal values
            if values is None:
                values = replan()
            q = q_of(trans[s], table.expect[s])(values[t + 1], t)
            best = q.max()
            tied = np.flatnonzero(q >= best - 1e-12)
            untried = [a for a in tied if trans[s, a] == _UNKNOWN]
            return int(untried[0] if untried else tied[0])

        def observe(s: int, a: int, z: int) -> None:
            nonlocal values
            if trans[s, a] == _UNKNOWN:
                trans[s, a] = z
                values = None

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)


def ucb_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """Per-token bandit with optimistic upper bounds.

    Rewards are deterministic, so one pull pins an arm's bound; untried arms
    have an infinite bound and are always taken first (lowest id first).
    """
    def policy(table: _TokenTable, n_act: int):
        tried = np.zeros((table.n, n_act), dtype=bool)
        reward = np.zeros((table.n, n_act))

        def choose(s: int, t: int) -> int:
            row = tried[s]
            if not row.all():
                return int(np.flatnonzero(~row)[0])
            return int(reward[s].argmax())

        def observe(s: int, a: int, z: int) -> None:
            if not tried[s, a]:
                tried[s, a] = True
                reward[s, a] = 1.0 if z == table.expect[s] else 0.0

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)
