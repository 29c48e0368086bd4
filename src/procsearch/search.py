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

One loop, `_episodes`, runs every episode: it restores the `env.mark()`
taken when the frontier's last action was confirmed, instead of replaying
the prefix (its first episode resets and replays), steps the frontier
through `env.step`, and burns out with one `env.burn`, which draws the
episode's remaining actions as `rng.randrange(n_actions)` would but walks
none of them: no one reads those steps, and the next episode starts from a
mark or a reset. The uniform fallback at the frontier draws its index as
`rng.randrange` would too. `learn` runs it to the budget
and `run_episode` for one episode. When `run_episode` is overridden by a
patch on this module, `learn` calls the override once per episode instead,
so it sees every episode, as an override of `Env.step` sees every step
(`mark()` then gives None, and every episode replays).
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

    def frontier_exhausted(self) -> bool:
        return len(self.ruled_out[self.frontier]) >= self.n_actions


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
    """Action-selection heuristic plugged into the episode loop, a function
    of the confirmed plan alone: `on_confirmed` follows each one-action
    extension, `on_backtrack(n)` a cut to the first `n` actions, and
    `suggest` changes nothing. When suggest() returns None, the loop samples
    uniformly over the actions not yet ruled out at the frontier.
    """

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        return None

    def on_confirmed(self, plan: PartialPlan) -> None:
        pass

    def on_failed(self, plan: PartialPlan, a: Action) -> None:
        pass

    def on_backtrack(self, n: int) -> None:
        pass


class UniformSuggester(ActionSuggester):
    """No heuristic: plain BPS."""


def run_episode(env: Env, demo: Demonstration, plan: PartialPlan,
                suggester: ActionSuggester, rng: random.Random) -> EpisodeResult:
    """One episode of H steps, as `learn` runs it. Signals a dead end without
    acting if the frontier has no candidate actions left; takes no step on a
    complete plan."""
    if plan.frontier_exhausted():
        return EpisodeResult(plan.frontier, 0, False, dead_end=True)
    start = plan.frontier
    steps_taken = _episodes(env, demo, plan, suggester, rng, 1, False)[1]
    return EpisodeResult(plan.frontier, steps_taken, plan.frontier > start, dead_end=False)


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
    suggester.on_backtrack(pos)


_RUN_EPISODE = run_episode  # `learn` calls `run_episode` only while it is not this


def _episodes(env: Env, demo: Demonstration, plan: PartialPlan, suggester: ActionSuggester,
              rng: random.Random, budget: int, per_episode: bool):
    """Run up to `budget` episodes on `plan`, each after the backtracks its
    dead end needs; returns (episodes, total_steps, backtracks, rows).

    With `per_episode`, each episode is one call to this module's
    `run_episode`, and the new frontier is read back from the plan.
    """
    horizon, n = demo.horizon, plan.n_actions
    confirmed, ruled_out, observations = plan.confirmed, plan.ruled_out, demo.observations
    reset, step, burn, mark, restore = env.reset, env.step, env.burn, env.mark, env.restore
    suggest, on_confirmed, on_failed = suggester.suggest, suggester.on_confirmed, suggester.on_failed
    getrandbits = rng.getrandbits
    episodes = total_steps = backtracks = 0
    steps = len(confirmed)  # the frontier
    marks = [None] * (steps + 1)  # marks[i]: the env after confirmed[:i], or None to replay
    rows = []
    while steps < horizon and episodes < budget:
        while len(ruled_out[steps]) >= n:
            backtrack(plan, suggester)
            backtracks += 1
            steps -= 1
            del marks[steps + 1:]
        episodes += 1
        if per_episode:
            taken = run_episode(env, demo, plan, suggester, rng).steps_taken
            steps = len(confirmed)
        else:
            if marks[steps] is None:
                reset()
                for a in confirmed:
                    step(a)
                marks[steps] = mark()
            else:
                restore(marks[steps])
            taken = horizon  # an episode completes the plan or burns out
            while steps < horizon:
                # not exhausted: backtracked above, and each confirmation opens an empty ledger
                excluded = ruled_out[steps]
                a = suggest(plan, excluded)
                if a is None or a in excluded:
                    candidates = [x for x in range(n) if x not in excluded]
                    c = len(candidates)  # draws as randrange(c), without its frames
                    k = c.bit_length()
                    i = getrandbits(k)
                    while i >= c:
                        i = getrandbits(k)
                    a = candidates[i]
                if step(a) == observations[steps]:
                    confirmed.append(a)
                    ruled_out.append(set())
                    marks.append(mark())
                    steps += 1
                    on_confirmed(plan)
                else:
                    excluded.add(a)
                    on_failed(plan, a)
                    burn(rng, horizon - steps - 1)
                    break
        total_steps += taken
        rows.append((episodes, taken, steps, backtracks, steps >= horizon))
    return episodes, total_steps, backtracks, rows


def learn(env: Env, demo: Demonstration, suggester: ActionSuggester,
          rng: random.Random, budget: int) -> LearnReport:
    """Run episodes (and backtracks) until the full plan is found or the
    episode budget runs out; a patched `run_episode` is called once per
    episode."""
    if budget < 1:
        raise ValueError("budget must be >= 1 episode")
    plan = PartialPlan(env.n_actions)
    episodes, total_steps, backtracks, rows = _episodes(
        env, demo, plan, suggester, rng, budget, run_episode is not _RUN_EPISODE)
    complete = len(plan.confirmed) >= demo.horizon
    return LearnReport(
        plan=tuple(plan.confirmed),
        episodes=episodes,
        total_steps=total_steps,
        backtracks=backtracks,
        complete=complete,
        stop_reason="complete" if complete else "budget",
        rows=rows,
    )


def replay_matches(env: Env, demo: Demonstration, actions) -> bool:
    """Soundness check: does executing `actions` from reset reproduce Z*?"""
    if len(actions) != demo.horizon:
        return False
    env.reset()
    return all(env.step(a) == z for a, z in zip(actions, demo.observations))
