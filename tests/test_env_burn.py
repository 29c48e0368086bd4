"""`Env.burn` against a loop of `rng.randrange(n)`.

The episode loop burns out through `burn`, so every golden CSV depends on it
drawing exactly what `randrange` draws. `burn` copies the running
interpreter's `randrange`, so the comparison runs on every interpreter the
tests run on: over a fixed grid of action counts, burn lengths and seeds,
and over random cases drawn by Hypothesis. The grid takes in the action
counts on both sides of 255, where the draws in bulk stop, and burn lengths
on both sides of the few that `burn` draws one at a time.

On the memo path `burn` walks nothing: it leaves the env unpositioned and
its memo as it was. Through an overriding `step`, every draw reaches that
`step`, and the env is then unpositioned too.
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


ACTION_COUNTS = st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 255, 256, 300]),
                          st.integers(1, 40))


def assert_unpositioned(env: Env) -> None:
    """`env` gives no mark and refuses a step until it is reset."""
    assert env.mark() is None
    with pytest.raises(ContractViolation, match="before reset"):
        Env.step(env, 0)


def burn_matches_randrange(n: int, m: int, seed: int, walked: int, make=Trail) -> None:
    """Raise AssertionError unless `burn(rng, m)` on `make(n)`, after
    `walked` steps from the reset, leaves `rng` where `m` calls of
    `rng.randrange(n)` do and the env unpositioned; on the memo path the
    memo keeps its rows, and through an overriding `step` that `step` is
    given every draw."""
    rng, env = random.Random(seed), make(n)
    env.reset()
    for a in range(walked):
        env.step(a % n)
    rows, log = dict(env._rows), list(getattr(env, "log", ()))
    want = [rng.randrange(n) for _ in range(m)]
    drawn = random.Random(seed)
    env.burn(drawn, m)
    assert drawn.getstate() == rng.getstate(), (n, m, seed, walked)
    assert_unpositioned(env)
    if make is Trail:
        assert env._rows == rows  # no row filled, none changed
    else:
        assert env.log == log + want


@pytest.mark.parametrize("n", [*range(1, 41), 255, 256, 300])
def test_burn_matches_randrange_over_the_fixed_grid(n):
    burns = (0, 1, 2, 3, 7, 15, 16, 17, 18, 31, 33, 64, 200, 500)
    for m, seed, walked in itertools.product(burns, (0, 1, 2), (0, 3)):
        burn_matches_randrange(n, m, seed, walked)


@settings(max_examples=300, deadline=None)
@given(ACTION_COUNTS, st.integers(0, 500), st.integers(0, 2**32), st.integers(0, 5))
@example(1, 500, 0, 0)
@example(40, 500, 0, 5)
@example(255, 17, 0, 0)
@example(256, 17, 0, 0)
def test_burn_draws_as_a_loop_of_randrange_and_walks_nothing(n, m, seed, walked):
    burn_matches_randrange(n, m, seed, walked)


@settings(max_examples=60, deadline=None)
@given(ACTION_COUNTS, st.integers(0, 200), st.integers(0, 2**32), st.integers(0, 5))
def test_burn_through_an_overriding_step_sees_every_draw(n, m, seed, walked):
    burn_matches_randrange(n, m, seed, walked, make=LoggedTrail)


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
    before = rng.getstate()
    env.burn(rng, 0)
    assert rng.getstate() == before
    assert getattr(env, "log", [1, 4]) == [1, 4]
    assert_unpositioned(env)


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
    assert env._rows.keys() == plain._rows.keys()  # the patched step walked every draw
    assert_unpositioned(env)
