"""Backtracking procedure search.

The learner incrementally builds the open-loop action prefix that reproduces
the demonstrated observation sequence. Each episode replays the confirmed
prefix, then tries one untried action at the frontier per mismatch. Matching
actions are confirmed (several can be confirmed in a single episode when a
suggester keeps guessing right); a mismatch burns the rest of the episode
with random actions. When every action at the frontier has been ruled out,
an earlier aliased confirmation must have been wrong, so the plan unrolls
one step and rules the unrolled action out at that position.

Action selection is pluggable: BPS uses a uniform suggester, the smarter
agents plug in sketch-hypothesis, repeat-mining or oracle-aligned suggesters.

An episode replays the confirmed prefix with one `env.run` batch and burns
out with another, so the environment checks each batch once; frontier steps
go through `env.step`. A burn-out action is drawn exactly as
`rng.randrange(n_actions)` would draw it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import Action, Demonstration, Env


class UnsatisfiableDemo(RuntimeError):
    """Backtracked past the first position with every action ruled out."""


@dataclass
class PartialPlan:
    """Confirmed action prefix plus one ruled-out ledger per position.

    ruled_out[i] holds the actions excluded at position i under the current
    prefix: those tried there that did not emit the demonstrated token, and
    those that matched but were unrolled by backtracking. It always has
    exactly len(confirmed)+1 entries; the last one is the frontier ledger.
    """

    n_actions: int
    confirmed: list[Action] = field(default_factory=list)
    ruled_out: list[set[Action]] = field(default_factory=lambda: [set()])

    @property
    def frontier(self) -> int:
        return len(self.confirmed)

    def excluded(self) -> set[Action]:
        """The frontier ledger itself, not a copy: callers must not change it."""
        return self.ruled_out[self.frontier]

    def frontier_exhausted(self) -> bool:
        return len(self.excluded()) >= self.n_actions

    def confirm(self, a: Action) -> None:
        self.confirmed.append(a)
        self.ruled_out.append(set())

    def reject(self, a: Action) -> None:
        self.ruled_out[self.frontier].add(a)

    def check_invariants(self) -> None:
        assert len(self.ruled_out) == len(self.confirmed) + 1
        for i, a in enumerate(self.confirmed):
            assert a not in self.ruled_out[i], "confirmed action ruled out"
        assert all(len(r) <= self.n_actions for r in self.ruled_out)


@dataclass
class EpisodeResult:
    matched_prefix_len: int
    steps_taken: int
    new_action_confirmed: bool
    dead_end: bool


@dataclass
class LearnReport:
    plan: tuple[Action, ...]
    episodes: int  # censored: the full budget when the run did not complete
    total_steps: int
    backtracks: int
    complete: bool
    stop_reason: str  # "complete", "budget" or "fixed_point"
    rows: list[tuple[int, int, int, int, bool]] = field(default_factory=list)
    # rows: (episode, steps, matched, cumulative backtracks, done)


class ActionSuggester:
    """Action-selection heuristic plugged into the episode loop.

    suggest() may return None (no suggestion); the loop then samples
    uniformly over actions not yet ruled out at the frontier.
    """

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        return None

    def on_confirmed(self, plan: PartialPlan) -> None:
        pass

    def on_failed(self, plan: PartialPlan, a: Action) -> None:
        pass

    def on_backtrack(self, plan: PartialPlan, removed: Action, position: int) -> None:
        pass


class UniformSuggester(ActionSuggester):
    """No heuristic: plain BPS."""


def run_episode(env: Env, demo: Demonstration, plan: PartialPlan,
                suggester: ActionSuggester, rng: random.Random) -> EpisodeResult:
    """One environment episode of H steps.

    Replays the confirmed prefix, then works at the frontier until the first
    mismatch, which burns out the rest of the episode with random actions
    (or until completion). Signals a dead end without acting if the
    frontier has no candidate actions left.

    The replay is one `env.run` of the prefix and the burn-out one
    `env.run` of the drawn actions; each frontier step is an `env.step`
    call. A burn-out action is `rng.randrange(n_actions)` unrolled: the
    same `getrandbits` draws, rejecting values of n_actions or more.
    """
    horizon = demo.horizon
    if plan.frontier_exhausted():
        return EpisodeResult(plan.frontier, 0, False, dead_end=True)

    step = env.step
    env.reset()
    env.run(plan.confirmed)
    steps = start = len(plan.confirmed)  # at the frontier, steps == frontier

    n = plan.n_actions
    observations, ruled_out = demo.observations, plan.ruled_out
    suggest = suggester.suggest
    while steps < horizon:
        # not exhausted: checked above, and each confirmation opens an empty ledger
        excluded = ruled_out[steps]
        a = suggest(plan, excluded)
        if a is None or a in excluded:
            candidates = [x for x in range(n) if x not in excluded]
            a = candidates[rng.randrange(len(candidates))]
        if step(a) == observations[steps]:
            plan.confirm(a)
            steps += 1
            suggester.on_confirmed(plan)
        else:
            plan.reject(a)
            suggester.on_failed(plan, a)
            getrandbits, k = rng.getrandbits, n.bit_length()
            burn = []
            for _ in range(steps + 1, horizon):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                burn.append(r)
            env.run(burn)
            return EpisodeResult(steps, horizon, steps > start, dead_end=False)
    return EpisodeResult(steps, steps, steps > start, dead_end=False)


def backtrack(plan: PartialPlan, suggester: ActionSuggester) -> None:
    """Unroll the last confirmed action after a dead end.

    The unrolled action is ruled out at its position; ledgers beyond that
    position are dropped because their context (the prefix) has changed.
    What was ruled out at the position itself is kept: the prefix below it
    is unchanged, so those remain valid eliminations.
    """
    if not plan.confirmed:
        raise UnsatisfiableDemo("dead end at position 0 with every action ruled out")
    removed = plan.confirmed.pop()
    pos = len(plan.confirmed)
    del plan.ruled_out[pos + 1:]
    plan.ruled_out[pos].add(removed)
    suggester.on_backtrack(plan, removed, pos)


def learn(env: Env, demo: Demonstration, suggester: ActionSuggester,
          rng: random.Random, budget: int) -> LearnReport:
    """Run episodes (and backtracks) until the full plan is found or the
    episode budget runs out."""
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
        res = run_episode(env, demo, plan, suggester, rng)
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


def replay_matches(env: Env, demo: Demonstration, actions) -> bool:
    """Soundness check: does executing `actions` from reset reproduce Z*?"""
    if len(actions) != demo.horizon:
        return False
    env.reset()
    return all(env.step(a) == z for a, z in zip(actions, demo.observations))
