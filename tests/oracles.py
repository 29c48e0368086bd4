"""Reference implementations that tests compare the library against.

Each one is the plain, slow form of something the library computes
incrementally: R-max replans after every new edge and UCB scans a token's
whole row on every choice, the repeat suggestion scans every candidate or
walks the trie below each plan suffix, the hypothesis checks replay an
alignment against the whole plan, the optimistic claim probes every repeat
length, sketch branching tries every match of the repeated content in its
window, sketch selection ranks every active hypothesis on every call, the
episode loop reads the plan through its properties and burns out with
`rng.randrange`, and the piano and craft environments compute each
observation from scratch.
"""

from __future__ import annotations

import random

import numpy as np

from procsearch.baselines import _TokenTable, _tabular_learn
from procsearch.core import Action, Demonstration, Env, Obs, intern_token
from procsearch.envs.piano import (
    N_KEYS, PRESS_5, SILENCE, THUMB_MIN, THUMB_UP, WRIST_DOWN, WRIST_UP, key_name,
)
from procsearch.search import (
    ActionSuggester, EpisodeResult, LearnReport, PartialPlan,
)
from procsearch.sketch import Hypothesis

_UNKNOWN = -1  # next-state marker for an action not yet tried


def rmax_full_replan_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """R-max that recomputes the whole value function after every new edge
    and evaluates every choice from the action values."""
    horizon = demo.horizon

    def policy(table: _TokenTable, n_act: int):
        trans = np.full((table.n, n_act), _UNKNOWN, dtype=np.int64)
        expect = np.array(table.expect)
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
            q = q_of(trans, expect[:, None])
            for t in range(horizon - 1, -1, -1):
                v[t] = q(v[t + 1], t).max(axis=1)
            return v

        def choose(s: int, t: int) -> int:
            nonlocal values
            if values is None:
                values = replan()
            q = q_of(trans[s], expect[s])(values[t + 1], t)
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


def ucb_scan_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """The per-token bandit that scans a token's whole row on every choice."""
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


def brute_force_suggest_ranked(counts: dict[bytes, int], plan_bytes: bytes) -> list[Action]:
    """Oracle for `RepeatStore.suggest_ranked`: a linear scan testing every
    candidate's prefixes against the plan suffix, longest first."""
    scored = []
    for seq, c in counts.items():
        best_j = 0
        for j in range(min(len(seq) - 1, len(plan_bytes)), 0, -1):
            if plan_bytes.endswith(seq[:j]):
                best_j = j
                break
        if best_j:
            scored.append((-c, -len(seq), seq, seq[best_j]))
    scored.sort()
    out: list[Action] = []
    for *_, a in scored:
        if a not in out:
            out.append(a)
    return out


def suggest_ranked_trie_walk(store, plan_bytes: bytes) -> list[Action]:
    """Oracle for `RepeatStore.suggest_ranked`: the suffixes are looked up
    longest first, and each one's subtree is walked without entering a
    suffix already walked, so every candidate is scored at its longest
    match. A node that repeats less than its action's best so far is not
    entered: nothing below it repeats more."""
    kids, counts = store.kids, store.counts
    t = len(plan_bytes)
    longest = max(map(len, counts), default=0)
    walked: set[bytes] = set()
    best: dict[Action, tuple] = {}
    for j in range(min(longest - 1, t), 0, -1):
        root = plan_bytes[t - j:]
        stack = kids.get(root)
        if stack is None:
            continue
        walked.add(root)
        stack = stack[:]
        while stack:
            seq = stack.pop()
            c = counts[seq]
            key = (-c, -len(seq), seq)
            a = seq[j]
            old = best.get(a)
            if old is None or key < old:
                best[a] = key
            elif c < -old[0]:
                continue
            if seq not in walked:
                below = kids.get(seq)
                if below is not None:
                    stack += below
    return sorted(best, key=best.__getitem__)


def is_consistent(h, plan_actions) -> bool:
    """Replay hypothesis `h`'s alignment against the plan; the pool keeps its
    active hypotheses consistent incrementally."""
    if h.consumed > len(plan_actions):
        return False
    for elem_lo, elem_hi, pos_lo, pos_end in h.layout:
        if pos_end - pos_lo < h._min_span(elem_lo, elem_hi + 1):
            return False  # too short for the elements it closes
        if elem_lo == elem_hi and h.sketch[elem_lo] in h.assigned:
            content = h.assigned[h.sketch[elem_lo]]
            if pos_end - pos_lo != len(content):
                return False
            if tuple(plan_actions[pos_lo:pos_end]) != content:
                return False
    if h.run_elem is None and not h.is_complete and h.offset:
        content = h.assigned[h.sketch[h.elem]]
        got = tuple(plan_actions[h.consumed - h.offset:h.consumed])
        if got != content[:h.offset]:
            return False
    return True


def exact_segments(h):
    """(elem, start, end) for every element of `h` pinned to exact content."""
    return [(lo, a, b) for lo, hi, a, b in h.layout if lo == hi]


def branch_scan_every_match(pool, parent, pb: bytes) -> list[Hypothesis]:
    """Oracle for `SketchPool.branch`: builds a child for every match of the
    repeated content in its window and keeps those that close consistently,
    where the library skips starts whose child cannot exist."""
    site = parent._repeat_site()
    if site is None:
        return []
    m, j1, rep, _, cap, _, _, lo_rep, _ = site
    t = parent.consumed
    longest = (t - parent.run_pos0) // 2
    if longest > cap:
        return []
    children: list[Hypothesis] = []
    # longest candidate content first: most informative, most falsifiable
    for ln in range(longest, 0, -1):
        if len(children) >= pool.branch_cap:
            break
        s2 = t - ln
        if s2 < lo_rep:
            continue
        window = parent._first_window(site, s2, ln)
        if window is None:
            continue
        content = pb[s2:t]
        end = window[1] + ln
        p = pb.find(content, window[0], end)
        while p != -1:
            child = pool._make_branch_child(parent, pb, m, j1, rep, p, ln, s2)
            if child is not None:
                children.append(child)
                if len(children) >= pool.branch_cap:
                    break
            p = pb.find(content, p + 1, end)
    return children


def optimistic_claim_every_r(h, pb: bytes):
    """Oracle for `Hypothesis.optimistic_claim`: probes the first window of
    every repeat length r from the longest down, where the library starts at
    the longest r whose window is non-empty."""
    site = h._repeat_site()
    if site is None:
        return None
    _, _, _, _, cap, _, mid_min, lo_rep, n_rep = site
    t = h.consumed
    r_hi = t - lo_rep
    if r_hi >= cap:
        # a region-buried first occurrence is only reasoned about while
        # the in-progress repeat could still fit the region entirely
        return None
    for r in range(r_hi, 0, -1):
        s2 = t - r
        window = h._first_window(site, s2, r + 1)
        if window is None:
            continue
        p = pb.find(pb[s2:t], window[0], window[1] + r)
        if p != -1:
            return pb[p + r], s2 - mid_min - p, n_rep
    return None


def select_scan(pool, actions, excluded: set[Action]):
    """Oracle for `SketchPool.select`: ranks every active hypothesis's
    proposal on every call, each computed on a fresh copy that holds no
    memo, where the library keeps one ranking per plan length."""
    pb = bytes(actions)
    best = min(((pool._rank(h, got), h, got[0]) for h in pool.active
                if (got := h._shell().proposal(pb, pool.optimistic)) is not None
                and got[0] not in excluded), default=None)
    return None if best is None else best[1:]


def run_episode_scan(env: Env, demo: Demonstration, plan: PartialPlan,
                     suggester: ActionSuggester, rng: random.Random) -> EpisodeResult:
    """Oracle for `search.run_episode`: the loop that reads the frontier and
    its ledgers through the plan's properties on every step and burns out
    with `rng.randrange`."""
    horizon = demo.horizon
    if plan.frontier_exhausted():
        return EpisodeResult(plan.frontier, 0, False, dead_end=True)

    env.reset()
    steps = 0
    for a in plan.confirmed:
        env.step(a)
        steps += 1

    confirmed_any = False
    while plan.frontier < horizon:
        t = plan.frontier
        # not exhausted: checked above, and each confirmation opens empty ledgers
        excluded = plan.excluded()
        a = suggester.suggest(plan, excluded)
        if a is None or a in excluded:
            candidates = [x for x in range(plan.n_actions) if x not in excluded]
            a = candidates[rng.randrange(len(candidates))]
        obs = env.step(a)
        steps += 1
        if obs == demo.observations[t]:
            plan.confirm(a)
            confirmed_any = True
            suggester.on_confirmed(plan)
        else:
            plan.reject(a)
            suggester.on_failed(plan, a)
            while steps < horizon:
                env.step(rng.randrange(plan.n_actions))
                steps += 1
            break
    return EpisodeResult(plan.frontier, steps, confirmed_any, dead_end=False)


def piano_step(wrist: int, thumb: int, a: Action) -> tuple[int, int, Obs]:
    """Oracle for the piano transitions: (wrist, thumb, token) after action
    `a`, computed by the hand's arithmetic."""
    if a <= PRESS_5:
        finger = a + 1
        offset = thumb if finger == 1 else finger - 1
        return wrist, thumb, intern_token(key_name(min(max(wrist + offset, 0), N_KEYS - 1)))
    if a == WRIST_UP:
        wrist = min(wrist + 1, N_KEYS - 1)
    elif a == WRIST_DOWN:
        wrist = max(wrist - 1, 0)
    elif a == THUMB_UP:
        thumb = min(thumb + 1, 0)
    else:
        thumb = max(thumb + -1, THUMB_MIN)
    return wrist, thumb, SILENCE


def craft_token(pos, inventory, grid) -> Obs:
    """Oracle for `GridCraftEnv._token`: the state's views serialized afresh."""
    inv = "+".join(f"{k}:{v}" for k, v in sorted(inventory.items()) if v) or "-"
    rows = "/".join("".join(row) for row in grid)
    return f"{pos[0]},{pos[1]}|{inv}|{rows}"
