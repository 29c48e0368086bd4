"""Repeat mining for sketch-free exploration.

Hypothesized subtasks are simply action subsequences of length two or more
that occur at least twice in the confirmed plan. Only subsequences that end
exactly at the end of the plan need to be (re)counted after each
confirmation; anything else was already counted when it last matched the
end, so the counts stay exact overlapping counts. A backtrack takes back
the occurrences that ended at the removed position. Suggestions follow the
most-repeated candidates whose prefix matches the current plan suffix,
found at the ends of equal-count chains by bisecting the counts; a chain
that a longer plan suffix extends at the same count is not looked up.

The counts are each run's own, cut back by its backtracks. The ranking is a
function of the plan alone, so it is computed once per plan into a dict
keyed by the plan bytes, which runs may share and which grows by at most
one entry per distinct plan ranked.
"""

from __future__ import annotations

from .core import Action
from .search import ActionSuggester, PartialPlan


def count_occurrences(hay: bytes, needle: bytes) -> int:
    """Overlapping occurrence count."""
    n = 0
    i = hay.find(needle)
    while i != -1:
        n += 1
        i = hay.find(needle, i + 1)
    return n


class RepeatStore:
    """Repeated-subsequence candidates with occurrence counts, in a trie.

    `kids` maps a candidate, or a single action (the prefix of a candidate
    of length two), to the candidates one action longer that extend it.
    Each substring of length two or more of a candidate repeats as often or
    more, so it is a candidate too; a count never rises from a node to its kids.
    """

    def __init__(self):
        self.counts: dict[bytes, int] = {}
        self.kids: dict[bytes, list[bytes]] = {}
        self.plan = b""  # the plan of the latest update

    def update(self, plan_bytes: bytes) -> None:
        """Count every plan suffix of length two or more that repeats, where
        `plan_bytes` is the latest plan plus one action.

        A counted suffix gains the occurrence that ends the plan; one not
        counted yet occurred at most once before, so it repeats now exactly
        when it occurs earlier. Counts are weakly decreasing in suffix
        length, so the scan stops at the first suffix that does not repeat.
        Raises ValueError unless `plan_bytes` extends the latest plan.
        """
        counts, t = self.counts, len(plan_bytes)
        if not plan_bytes or plan_bytes[:-1] != self.plan:
            raise ValueError(f"{t} actions do not extend the latest plan of {len(self.plan)}")
        for ln in range(2, t + 1):
            seq = plan_bytes[t - ln:]
            c = counts.get(seq)
            if c is None:
                if plan_bytes.find(seq) == t - ln:
                    break
                c = 1
                self.kids.setdefault(seq[:-1], []).append(seq)
            counts[seq] = c + 1
        self.plan = plan_bytes

    def truncate(self, n: int) -> None:
        """Undo the updates past length `n` of the latest plan: each counted
        suffix of the plan's first t > n actions loses the occurrence that
        ends at t, and leaves the store when it no longer repeats. Nothing
        in the store extends a leaving candidate: two occurrences of an
        extension would hold two of it besides the one ending at t. Raises
        ValueError unless 0 <= n <= the plan length."""
        counts, kids, plan = self.counts, self.kids, self.plan
        if not 0 <= n <= len(plan):
            raise ValueError(f"cannot cut a plan of {len(plan)} actions to {n}")
        for t in range(len(plan), n, -1):
            for ln in range(2, t + 1):
                seq = plan[t - ln:t]
                c = counts.get(seq)
                if c is None:
                    break
                if c > 2:
                    counts[seq] = c - 1
                else:
                    del counts[seq]
                    sibs = kids[seq[:-1]]
                    sibs.remove(seq)
                    if not sibs:
                        del kids[seq[:-1]]
        self.plan = plan[:n]

    def rebuild(self, plan_bytes: bytes) -> None:
        """Count `plan_bytes` from scratch, one action at a time."""
        self.counts.clear()
        self.kids.clear()
        self.plan = b""
        for t in range(1, len(plan_bytes) + 1):
            self.update(plan_bytes[:t])

    def suggest_ranked(self) -> list[Action]:
        """Next actions of candidates whose prefix matches a suffix of the
        latest plan, best repeat count first; duplicates keep their best rank.

        A candidate continues from its longest prefix r that is a plan
        suffix, keyed (-count, -length, candidate). All occurrences of r's
        kid k go on alike while a candidate repeats as often as k, and counts
        never rise, so the best candidate through k, that chain's end, is
        bisected from the last k in the plan after trying the plan's end.
        The r go longest first, from the longest plan suffix that repeats,
        or the last action when none does. A kid k = r + a is skipped when
        the next longer suffix x + r has a kid x + k with k's count: every
        occurrence of k then follows x, so x + k's chain end is x plus k's
        or longer, and it (or in turn a longer one) outranks k's for the
        same action.
        """
        kids, counts, plan = self.kids, self.counts, self.plan
        t = len(plan)
        longest = 1
        while longest < t and plan[t - longest - 1:] in counts:
            longest += 1
        best: dict[Action, tuple] = {}
        longer: dict[Action, int] = {}  # action -> count of the next longer suffix's kid
        for j in range(longest, 0, -1):
            here = {}
            for k in kids.get(plan[t - j:], ()):
                a, c = k[j], counts[k]
                here[a] = c
                if longer.get(a) == c:
                    continue
                p = plan.rfind(k)
                e = plan[p:]
                if counts.get(e) != c:
                    lo, hi = p + j + 1, t  # plan[p:lo] has count c, plan[p:hi] not
                    while lo < hi - 1:
                        mid = (lo + hi) // 2
                        if counts.get(plan[p:mid]) == c:
                            lo = mid
                        else:
                            hi = mid
                    e = plan[p:lo]
                key = (-c, -len(e), e)
                best[a] = min(best.get(a, key), key)
            longer = here
        return sorted(best, key=best.__getitem__)


class RepeatPoolSuggester(ActionSuggester):
    """Sketch-free agent: bias exploration toward repeated subsequences.

    The store is this run's; `rankings` maps a plan (the store's `plan`
    bytes) to the store's ranking after it, as bytes, filled when a suggest
    first needs it and never dropped. A ranking is a function of the plan
    alone, so suggesters may share one dict. Without a dict the suggester
    keeps a private one.
    """

    def __init__(self, rankings: dict[bytes, bytes] | None = None):
        self.store = RepeatStore()
        self.rankings = {} if rankings is None else rankings

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        """Best-ranked repeat continuation outside `excluded`."""
        key = self.store.plan
        ranking = self.rankings.get(key)
        if ranking is None:
            ranking = self.rankings[key] = bytes(self.store.suggest_ranked())
        for a in ranking:
            if a not in excluded:
                return a
        return None

    def on_confirmed(self, plan: PartialPlan) -> None:
        self.store.update(bytes(plan.confirmed))

    def on_backtrack(self, n: int) -> None:
        self.store.truncate(n)


def brute_force_repeat_counts(plan) -> dict[bytes, int]:
    """Oracle: count every substring of length two or more occurring twice."""
    b = bytes(plan)
    out: dict[bytes, int] = {}
    for i in range(len(b)):
        for j in range(i + 2, len(b) + 1):
            seq = b[i:j]
            if seq not in out:
                c = count_occurrences(b, seq)
                if c >= 2:
                    out[seq] = c
    return out

