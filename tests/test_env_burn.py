"""`Env.burn` against a loop of `step(rng.randrange(n))`.

The episode loop burns out through `burn`, so every golden CSV depends on it
drawing exactly what `randrange` draws. `burn` copies the running
interpreter's `randrange`, so the comparison runs on every interpreter the
tests run on: over a fixed grid of action counts, burn lengths, seeds and
memo temperatures, and over random cases drawn by Hypothesis.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.core import ContractViolation, Env
from procsearch.envs.piano import PianoEnv

MODULUS = 1_000_003  # a prime, for the trail hash


class Trail(Env):
    """`n` actions; the state hashes the actions taken since the reset, so
    two walks end in the same state only if they took the same actions
    (barring a collision modulo MODULUS)."""

    def __init__(self, n: int):
        super().__init__()
        self.n_actions = n

    def _start(self):
        return 0, "s"

    def _transition(self, state, a):
        state = (state * (self.n_actions + 1) + a + 1) % MODULUS
        return state, "t" if state % 2 else "u"


class LoggedTrail(Trail):
    """A subclass that overrides `step` and logs every action it is given."""

    def __init__(self, n: int):
        super().__init__(n)
        self.log = []

    def step(self, a):
        self.log.append(a)
        return super().step(a)


ACTION_COUNTS = st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 40))


def burn_matches_randrange(n: int, m: int, seed: int, warm: bool, make=Trail) -> None:
    """Raise AssertionError unless `burn(rng, m)` on `make(n)` ends where `m`
    steps of `rng.randrange(n)` do, with the same rng state afterwards; with
    `warm`, the burn reads only rows that the same walk already filled."""
    want, got = make(n), make(n)
    want.reset()
    rng = random.Random(seed)
    for _ in range(m):
        want.step(rng.randrange(n))
    got.reset()
    if warm:
        walk = random.Random(seed)
        for _ in range(m):
            got.step(walk.randrange(n))
        got.reset()
    drawn = random.Random(seed)
    got.burn(drawn, m)
    assert got.state == want.state, (n, m, seed, warm, got.state, want.state)
    assert drawn.getstate() == rng.getstate(), (n, m, seed, warm)


@pytest.mark.parametrize("n", range(1, 41))
def test_burn_matches_randrange_over_the_fixed_grid(n):
    for m, seed, warm in itertools.product((0, 1, 2, 3, 7, 31, 64, 200), (0, 1, 2), (False, True)):
        burn_matches_randrange(n, m, seed, warm)


@settings(max_examples=300, deadline=None)
@given(ACTION_COUNTS, st.integers(0, 200), st.integers(0, 2**32), st.booleans())
@example(1, 200, 0, False)
@example(40, 200, 0, True)
def test_burn_draws_and_walks_as_a_loop_of_randrange(n, m, seed, warm):
    burn_matches_randrange(n, m, seed, warm)


@settings(max_examples=60, deadline=None)
@given(ACTION_COUNTS, st.integers(0, 200), st.integers(0, 2**32), st.booleans())
def test_burn_through_an_overriding_step_sees_every_draw(n, m, seed, warm):
    burn_matches_randrange(n, m, seed, warm, make=LoggedTrail)
    env, rng = LoggedTrail(n), random.Random(seed)
    env.reset()
    env.burn(rng, m)
    want = random.Random(seed)
    assert env.log == [want.randrange(n) for _ in range(m)]


def test_burn_before_reset_raises_and_draws_nothing():
    env, rng = Trail(5), random.Random(7)
    before = rng.getstate()
    with pytest.raises(ContractViolation, match="before reset"):
        env.burn(rng, 10)
    assert (env.state, rng.getstate()) == (0, before)


def test_burn_through_an_overriding_step_before_reset_raises_from_that_step():
    env, rng = LoggedTrail(5), random.Random(7)
    with pytest.raises(ContractViolation, match=r"step\(\) before reset"):
        env.burn(rng, 10)
    assert env.state == 0 and len(env.log) == 1


@pytest.mark.parametrize("make", [Trail, LoggedTrail], ids=["memo", "overridden"])
def test_burn_of_zero_steps_takes_no_step_and_no_draw(make):
    env, rng = make(6), random.Random(3)
    env.reset()
    env.step(1)
    env.step(4)
    state, before = env.state, rng.getstate()
    env.burn(rng, 0)
    assert (env.state, rng.getstate()) == (state, before)
    assert getattr(env, "log", [1, 4]) == [1, 4]


def test_burn_with_no_action_raises_instead_of_drawing_forever():
    env, rng = Trail(0), random.Random(0)
    env.reset()
    env.burn(rng, 0)
    with pytest.raises(ContractViolation, match="no action"):
        env.burn(rng, 1)
    assert env.state == 0


def test_burn_steps_through_a_patched_env_step():
    seen, step = [], Env.step

    def counted(env, a):
        seen.append(a)
        return step(env, a)

    env, plain = PianoEnv(), PianoEnv()
    env.reset()
    plain.reset()
    with mock.patch.object(Env, "step", counted):
        env.burn(random.Random(11), 50)
    want = random.Random(11)
    assert seen == [want.randrange(env.n_actions) for _ in range(50)]
    for a in seen:
        plain.step(a)
    assert env.state == plain.state
