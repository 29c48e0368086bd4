"""Reference implementations that tests compare the library against.

Each one is the plain, slow form of something the library computes
incrementally: the tabular episode loop records every step as a (state,
action, next state) triple and compares whole traces, R-max replans after
every new edge and UCB scans a token's whole row on every choice, the
repeat suggestion scans every candidate or walks the trie below each plan
suffix, the hypothesis checks replay an alignment against the whole plan,
the optimistic claim probes every repeat length, sketch branching tries
every match of the repeated content in its window and builds each child on
two paths, one per place the first occurrence can lie, sketch selection ranks
every active hypothesis on every call, the plan search's episode loop
reads the plan through its properties and burns out with `rng.randrange`,
the plan search runs that loop as one call per episode, the tree the plan
search explores is found by replaying every prefix, and the piano and
craft environments compute each observation from scratch. `MixedSuggester`
feeds the episode loops every kind of suggestion.

The hypothesis check measures every region against its elements' labels as
assigned now, however late they got content. The claim and branching
oracles read the first window and the region bound off the repeat site
through their own `first_window` and `region_too_narrow`, where the
library inlines that rule in its length loops. The branching and selection
oracles and the memo checks work on `fresh_copy`, a copy of a hypothesis
that holds no memo, where the library's one copy carries them.
"""

from __future__ import annotations

import random

from procsearch.core import Action, Demonstration, Env, Obs, intern_token
from procsearch.envs.piano import (
    N_KEYS, PRESS_5, SILENCE, THUMB_MIN, THUMB_UP, WRIST_DOWN, WRIST_UP, key_name,
)
from procsearch.search import (
    ActionSuggester, EpisodeResult, LearnReport, PartialPlan, backtrack,
)
from procsearch.sketch import Hypothesis

_UNKNOWN = -1  # next-state marker for an action not yet tried
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
    """Oracle for the tabular episode loop: it records every step as an
    (s, a, z) triple and stops at a fixed point when a whole trace repeats.

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


def rmax_full_replan_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """R-max that recomputes the whole value function after every new edge
    and evaluates every choice from the action values. Rewards are 0 or 1,
    so every value is an integer and ties are exact."""
    horizon = demo.horizon

    def policy(table: _TokenTable, n_act: int):
        trans = [[_UNKNOWN] * n_act for _ in range(table.n)]
        expect = table.expect
        values = None  # stale until the next choice after the model grows

        def q(s: int, v_next: list[int], t: int) -> list[int]:
            """The action values of token s at position t. An unknown action
            is worth every remaining step; a known one, a match plus the
            value of the token it reaches (none off the vocabulary)."""
            return [horizon - t if z == _UNKNOWN
                    else (z == expect[s]) + (v_next[z] if z >= 0 else 0)
                    for z in trans[s]]

        def replan() -> list[list[int]]:
            v = [[0] * table.n for _ in range(horizon + 1)]
            for t in range(horizon - 1, -1, -1):
                v[t] = [max(q(s, v[t + 1], t)) for s in range(table.n)]
            return v

        def choose(s: int, t: int) -> int:
            nonlocal values
            if values is None:
                values = replan()
            qs = q(s, values[t + 1], t)
            best = max(qs)
            tied = [a for a, x in enumerate(qs) if x == best]
            untried = [a for a in tied if trans[s][a] == _UNKNOWN]
            return (untried or tied)[0]

        def observe(s: int, a: int, z: int) -> None:
            nonlocal values
            if trans[s][a] == _UNKNOWN:
                trans[s][a] = z
                values = None

        return choose, observe

    return _tabular_learn(env, demo, budget, policy)


def ucb_scan_learn(env: Env, demo: Demonstration, budget: int) -> LearnReport:
    """The per-token bandit that scans a token's whole row on every choice."""
    def policy(table: _TokenTable, n_act: int):
        reward = [[None] * n_act for _ in range(table.n)]  # None: not tried

        def choose(s: int, t: int) -> int:
            row = reward[s]
            if None in row:
                return row.index(None)
            return row.index(max(row))

        def observe(s: int, a: int, z: int) -> None:
            if reward[s][a] is None:
                reward[s][a] = int(z == table.expect[s])

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


def fresh_copy(h: Hypothesis) -> Hypothesis:
    """A copy of `h` that holds no memo, so each one it reads is computed
    afresh, where the library's `_copy` carries them."""
    c = Hypothesis(h.sketch, dict(h.assigned), list(h.layout), h.consumed, h.created)
    c.elem, c.offset, c.run_elem, c.run_pos0 = h.elem, h.offset, h.run_elem, h.run_pos0
    return c


def branch_child_two_cases(pool, parent, pb: bytes, m, j1, rep, p, ln, s2):
    """Oracle for `SketchPool._make_branch_child`: a first occurrence in the
    open run and one in a closed ambiguous region are built on separate
    paths, where the library splits either as one block."""
    close = pool._close_region
    child = fresh_copy(parent)
    child.assigned[m] = tuple(pb[p:p + ln])
    if j1 >= parent.run_elem:
        # first occurrence sits in the open run: close everything from the
        # run start through the end of the repeat
        if not close(child, pb, parent.run_elem, j1 - 1, parent.run_pos0, p):
            return None
        child.layout.append((j1, j1, p, p + ln))
        if not close(child, pb, j1 + 1, rep - 1, p + ln, s2):
            return None
    else:
        # first occurrence sits inside a closed ambiguous region: split it
        idx = next(i for i, (lo, hi, _, _) in enumerate(child.layout) if lo <= j1 <= hi)
        elem_lo, elem_hi, pos_lo, pos_end = child.layout.pop(idx)
        if not close(child, pb, elem_lo, j1 - 1, pos_lo, p):
            return None
        child.layout.append((j1, j1, p, p + ln))
        if not close(child, pb, j1 + 1, elem_hi, p + ln, pos_end):
            return None
        if not close(child, pb, parent.run_elem, rep - 1, parent.run_pos0, s2):
            return None
    child.layout.append((rep, rep, s2, parent.consumed))
    child.layout.sort()
    child._enter(rep + 1, parent.consumed)
    return pool._adopt(child)


def first_window(h, site, s2: int, ln: int):
    """(lo, hi): where the first occurrence of `h`'s repeat site, of length
    `ln` and repeated from `s2`, can start (None: nowhere). It ends before
    the elements between the occurrences and, in a closed region, by the
    region's end; one that opens the run starts where the run does."""
    _, j1, _, lo, hi_base, mid_min, _, _ = site
    hi = s2 - mid_min - ln
    if hi_base is not None:
        hi = min(hi, hi_base - ln)
    if hi < lo:
        return None
    return (lo, lo) if j1 == h.run_elem else (lo, hi)


def region_too_narrow(site, ln: int) -> bool:
    """Whether a first occurrence buried in a closed region cannot hold
    content of length `ln`; one in the open run always can."""
    _, _, _, lo, hi_base, _, _, _ = site
    return hi_base is not None and ln > hi_base - lo


def branch_scan_every_match(pool, parent, pb: bytes) -> list[Hypothesis]:
    """Oracle for `SketchPool.branch`: builds a child for every match of the
    repeated content in its window, each on `branch_child_two_cases`, and
    keeps those that close consistently, where the library skips starts
    whose child cannot exist."""
    site = parent._repeat_site()
    if site is None:
        return []
    m, j1, rep, _, _, _, lo_rep, _ = site
    t = parent.consumed
    longest = (t - parent.run_pos0) // 2
    if region_too_narrow(site, longest):
        return []
    children: list[Hypothesis] = []
    # longest candidate content first: most informative, most falsifiable
    for ln in range(longest, 0, -1):
        if len(children) >= pool.branch_cap:
            break
        s2 = t - ln
        if s2 < lo_rep:
            continue
        window = first_window(parent, site, s2, ln)
        if window is None:
            continue
        content = pb[s2:t]
        end = window[1] + ln
        p = pb.find(content, window[0], end)
        while p != -1:
            child = branch_child_two_cases(pool, parent, pb, m, j1, rep, p, ln, s2)
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
    _, _, _, _, _, mid_min, lo_rep, n_rep = site
    t = h.consumed
    r_hi = t - lo_rep
    if region_too_narrow(site, r_hi + 1):
        # a region-buried first occurrence is only reasoned about while
        # the in-progress repeat could still fit the region entirely
        return None
    for r in range(r_hi, 0, -1):
        s2 = t - r
        window = first_window(h, site, s2, r + 1)
        if window is None:
            continue
        p = pb.find(pb[s2:t], window[0], window[1] + r)
        if p != -1:
            return pb[p + r], s2 - mid_min - p, n_rep
    return None


def repeated_suffix_scan(pb: bytes) -> int:
    """Oracle for `sketch.repeated_suffix`: tries every suffix length against
    every start that ends before the plan's last action, where the library
    searches down from a bound with `bytes.find`."""
    t = len(pb)
    return max((ln for ln in range(t)
                if any(pb[i:i + ln] == pb[t - ln:] for i in range(t - ln))), default=0)


def select_scan(pool, actions, excluded: set[Action]):
    """Oracle for `SketchPool.select`: ranks every active hypothesis's
    proposal on every call, each computed on a fresh copy that holds no
    memo, where the library keeps one ranking per plan length."""
    pb = bytes(actions)
    bound = repeated_suffix_scan(pb)
    best = min(((pool._rank(h, got), h, got[0]) for h in pool.active
                if (got := fresh_copy(h).proposal(pb, bound, pool.optimistic)) is not None
                and got[0] not in excluded), default=None)
    return None if best is None else best[1:]


def confirm(plan: PartialPlan, *actions: Action) -> PartialPlan:
    """Confirm `actions` at the frontier in turn, each opening an empty
    ledger, as the episode loop does on a match; returns `plan`."""
    for a in actions:
        plan.confirmed.append(a)
        plan.ruled_out.append(set())
    return plan


def consistent_prefixes(env: Env, demo: Demonstration) -> list[tuple[Action, ...]]:
    """The tree of demonstration-consistent prefixes by depth-first search:
    every action prefix, the empty one included, whose replay emits the
    demonstration's first tokens."""
    tree, stack = [], [()]
    while stack:
        prefix = stack.pop()
        tree.append(prefix)
        if len(prefix) == demo.horizon:
            continue
        for a in range(env.n_actions):
            env.reset()
            for b in prefix:
                env.step(b)
            if env.step(a) == demo.observations[len(prefix)]:
                stack.append(prefix + (a,))
    return tree


class MixedSuggester(ActionSuggester):
    """Per call, from its own RNG: no suggestion, an excluded action, or any
    action at all."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def suggest(self, plan, excluded):
        kind = self.rng.randrange(3)
        if kind == 0:
            return None
        if kind == 1 and excluded:
            return sorted(excluded)[self.rng.randrange(len(excluded))]
        return self.rng.randrange(plan.n_actions)


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
        excluded = plan.ruled_out[t]
        a = suggester.suggest(plan, excluded)
        if a is None or a in excluded:
            candidates = [x for x in range(plan.n_actions) if x not in excluded]
            a = candidates[rng.randrange(len(candidates))]
        obs = env.step(a)
        steps += 1
        if obs == demo.observations[t]:
            confirm(plan, a)
            confirmed_any = True
            suggester.on_confirmed(plan)
        else:
            excluded.add(a)
            suggester.on_failed(plan, a)
            while steps < horizon:
                env.step(rng.randrange(plan.n_actions))
                steps += 1
            break
    return EpisodeResult(plan.frontier, steps, confirmed_any, dead_end=False)


def learn_per_episode(env: Env, demo: Demonstration, suggester: ActionSuggester,
                      rng: random.Random, budget: int) -> LearnReport:
    """Oracle for `search.learn`: one `run_episode_scan` call per episode,
    with the frontier read through the plan's properties."""
    if budget < 1:
        raise ValueError("budget must be >= 1 episode")
    plan = PartialPlan(env.n_actions)
    episodes = 0
    total_steps = 0
    backtracks = 0
    rows = []
    while plan.frontier < demo.horizon and episodes < budget:
        while plan.frontier_exhausted():
            backtrack(plan, suggester)
            backtracks += 1
        res = run_episode_scan(env, demo, plan, suggester, rng)
        episodes += 1
        total_steps += res.steps_taken
        done = plan.frontier >= demo.horizon
        rows.append((episodes, res.steps_taken, plan.frontier, backtracks, done))
    return LearnReport(
        plan=tuple(plan.confirmed),
        episodes=episodes,
        total_steps=total_steps,
        backtracks=backtracks,
        complete=plan.frontier >= demo.horizon,
        stop_reason="complete" if plan.frontier >= demo.horizon else "budget",
        rows=rows,
    )


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
