"""Cross-environment contract properties shared by every registry entry."""

import random

import pytest

from procsearch.envs import ENV_REGISTRY, make_task


@pytest.mark.parametrize("name", sorted(ENV_REGISTRY))
def test_determinism_under_random_sequence_fuzzing(name):
    task = make_task(name)
    rng = random.Random(name)  # str seeds are not salted, so a failure reruns
    n = task.env().n_actions
    for _ in range(1000):
        seq = [rng.randrange(n) for _ in range(rng.randrange(1, 12))]
        a, b = task.env(), task.make_env()  # the task's memo, and a memo of b's own
        assert a.reset() == b.reset()
        assert [a.step(x) for x in seq] == [b.step(x) for x in seq]


@pytest.mark.parametrize("name", sorted(ENV_REGISTRY))
def test_demonstrations_are_realizable(name):
    task = make_task(name)
    env = task.env()
    demo = task.demo()
    env.reset()
    assert [env.step(a) for a in task.solution] == list(demo.observations)
    assert demo.horizon == len(task.solution)


def test_reset_tokens():
    assert make_task("chain").env().reset() == "S0"
    assert make_task("piano").env().reset() == "silence"
    island = make_task("island").env()
    tok = island.reset()
    # the start token is the canonical serialization of the loaded map
    assert tok == island._token(island.state)
    assert "WWW" in tok and "~~~~" in tok


def test_start_token_outside_demo_for_markov_envs():
    for name in ("chain", "scripted", "island", "gem", "cpr"):
        task = make_task(name)
        assert task.env().reset() not in task.demo().observations
