"""Repeat mining for sketch-free exploration.

Hypothesized subtasks are simply action subsequences that occur at least
twice in the confirmed plan. Only subsequences that end exactly at the end
of the plan need to be (re)counted after each confirmation; anything else
was already counted when it last matched the end. Suggestions follow the
most-repeated candidates whose prefix matches the current plan suffix.
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
    """Repeated-subsequence candidates with occurrence counts."""

    def __init__(self, min_len: int = 2):
        if min_len < 1:
            raise ValueError("min_len must be >= 1")
        self.min_len = min_len
        self.counts: dict[bytes, int] = {}

    def update(self, plan_bytes: bytes) -> None:
        """Count every plan suffix (length >= min_len) that repeats.

        Counts are weakly decreasing in suffix length, so the scan stops at
        the first suffix that no longer occurs twice.
        """
        t = len(plan_bytes)
        for ln in range(self.min_len, t + 1):
            seq = plan_bytes[t - ln:]
            c = count_occurrences(plan_bytes, seq)
            if c < 2:
                break
            self.counts[seq] = c

    def rebuild(self, plan_bytes: bytes) -> None:
        self.counts.clear()
        for t in range(1, len(plan_bytes) + 1):
            self.update(plan_bytes[:t])

    def suggest_ranked(self, plan_bytes: bytes) -> list[Action]:
        """Next actions of candidates whose prefix matches the plan suffix,
        best repeat count first; duplicates keep their best rank."""
        scored = []
        for seq, c in self.counts.items():
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


class RepeatPoolSuggester(ActionSuggester):
    """Sketch-free agent: bias exploration toward repeated subsequences."""

    def __init__(self, min_repeat_len: int = 2):
        self.store = RepeatStore(min_repeat_len)

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        for a in self.store.suggest_ranked(bytes(plan.confirmed)):
            if a not in excluded:
                return a
        return None

    def on_confirmed(self, plan: PartialPlan) -> None:
        self.store.update(bytes(plan.confirmed))

    def on_backtrack(self, plan: PartialPlan, removed: Action, position: int) -> None:
        self.store.rebuild(bytes(plan.confirmed))


def brute_force_repeat_counts(plan, min_len: int = 2) -> dict[bytes, int]:
    """Oracle: count every substring of length >= min_len occurring twice."""
    b = bytes(plan)
    out: dict[bytes, int] = {}
    for i in range(len(b)):
        for j in range(i + min_len, len(b) + 1):
            seq = b[i:j]
            if seq not in out:
                c = count_occurrences(b, seq)
                if c >= 2:
                    out[seq] = c
    return out
