"""`search.learn`'s inline episodes against `learn` with `run_episode`
patched, which takes the per-episode path, with the standard library only,
so it also runs on interpreters that have no pytest:

    PYTHONPATH=src python tests/learn_check.py

Over a grid of random aliased automata, suggesters, seeds and budgets, each
pair of runs must end with the same report (or the same UnsatisfiableDemo),
make the same suggester calls on the same plans, and end with the same
generator state and the same env state; the patched run must call
`run_episode` once per episode, and the unpatched run never.
"""

import random
import sys

from procsearch import search
from procsearch.core import Demonstration, Sketch, intern_token, record_demonstration
from procsearch.envs.scripted import random_aliased_env
from procsearch.repeats import RepeatPoolSuggester
from procsearch.search import (
    ActionSuggester, LearnReport, UniformSuggester, UnsatisfiableDemo, learn,
)
from procsearch.sketch import SketchPoolSuggester

CAP = 400  # the budget of the full run
UNEMITTED = intern_token("never-emitted")


class HookLog(ActionSuggester):
    """Passes each call on to `inner` and logs it with the plan as the call
    found it: the confirmed prefix and every ledger."""

    def __init__(self, inner: ActionSuggester):
        self.inner, self.log = inner, []

    def _note(self, hook: str, plan, *args) -> None:
        self.log.append((hook, tuple(plan.confirmed), [sorted(r) for r in plan.ruled_out], args))

    def suggest(self, plan, excluded):
        a = self.inner.suggest(plan, excluded)
        self._note("suggest", plan, a)
        return a

    def on_confirmed(self, plan):
        self._note("on_confirmed", plan)
        self.inner.on_confirmed(plan)

    def on_failed(self, plan, a):
        self._note("on_failed", plan, a)
        self.inner.on_failed(plan, a)

    def on_backtrack(self, plan, removed, position):
        self._note("on_backtrack", plan, removed, position)
        self.inner.on_backtrack(plan, removed, position)


def calls_into(code, fn, *args):
    """`fn(*args)` and the number of calls it made into `code`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(saved)


def run(make_env, demo, make_suggester, seed: int, budget: int, patched: bool):
    """(report or the UnsatisfiableDemo's message, hook log, rng state, env
    state) of one learn run on a fresh env, and its calls to run_episode."""
    env, rng, suggester = make_env(), random.Random(seed), HookLog(make_suggester())
    original = search.run_episode

    def learn_run():
        try:
            return learn(env, demo, suggester, rng, budget)
        except UnsatisfiableDemo as e:
            return str(e)

    if patched:
        search.run_episode = lambda *args: original(*args)
    try:
        result, calls = calls_into(original.__code__, learn_run)
    finally:
        search.run_episode = original
    return (result, suggester.log, rng.getstate(), env.state), calls


def paths_agree(make_env, demo, make_suggester, seed: int, budget: int) -> LearnReport | str:
    """Raise AssertionError unless both paths end alike at `budget`; return
    the result."""
    inline, inline_calls = run(make_env, demo, make_suggester, seed, budget, patched=False)
    patched, patched_calls = run(make_env, demo, make_suggester, seed, budget, patched=True)
    where = (demo.horizon, make_env().n_actions, seed, budget)
    assert inline == patched, where
    assert inline_calls == 0, where
    if isinstance(inline[0], LearnReport):
        assert patched_calls == inline[0].episodes, where
    return inline[0]


def main(n_actions=(1, 2, 3, 5), horizons=(1, 2, 4, 7, 12), automata=range(3),
         seeds=(0, 1)) -> int:
    cases = 0
    for n in n_actions:
        for h in horizons:
            for k in automata:
                def make_env(n=n, h=h, k=k):
                    return random_aliased_env(random.Random(f"learn-check-{k}"), n, h)[0]

                script = random_aliased_env(random.Random(f"learn-check-{k}"), n, h)[1]
                sketch = Sketch(tuple(f"s{a}" for a in script))  # equal actions share a label
                demo = record_demonstration(make_env(), script, sketch)
                # the search backtracks through the positions before the token
                # the env never emits, then exhausts position 0
                at = min(2, h - 1)
                obs = demo.observations
                unreachable = Demonstration((*obs[:at], UNEMITTED, *obs[at + 1:]), sketch)
                for d in (demo, unreachable):
                    for make_suggester in (UniformSuggester, RepeatPoolSuggester,
                                           lambda: SketchPoolSuggester(sketch, h)):
                        for seed in seeds:
                            full = paths_agree(make_env, d, make_suggester, seed, CAP)
                            cases += 1
                            if isinstance(full, LearnReport) and full.episodes > 1:
                                paths_agree(make_env, d, make_suggester, seed, full.episodes // 2)
                                cases += 1
    return cases


if __name__ == "__main__":
    print(f"inline learn matches per-episode learn: {main()} cases "
          f"on Python {sys.version.split()[0]}")
