import itertools

import pytest

from procsearch.core import record_demonstration
from procsearch.envs.scripted import OFF_TOKEN, AutomatonEnv, ScriptedEnv, make_chain, trap_env


def test_chain_correct_and_wrong_first_action():
    env, script = make_chain(n_actions=2, horizon=3)
    env.reset()
    assert env.step(script[0]) == "z1"
    env.reset()
    assert env.step(1 - script[0]) == OFF_TOKEN


def test_a_script_or_a_row_that_does_not_fit_the_actions_is_refused():
    with pytest.raises(ValueError, match="script action out of range"):
        ScriptedEnv(2, (0, 2))
    with pytest.raises(ValueError, match="one token per script position"):
        ScriptedEnv(2, (0, 1), tokens=("a",))
    with pytest.raises(ValueError, match="one transition per action"):
        AutomatonEnv(2, [[(0, "a"), (0, "b")], [(0, "a")]])


def enumerate_valid_plans(env, demo):
    """Brute force: every action sequence of length H that reproduces Z*."""
    valid = []
    for plan in itertools.product(range(env.n_actions), repeat=demo.horizon):
        env.reset()
        if all(env.step(a) == z for a, z in zip(plan, demo.observations)):
            valid.append(plan)
    return valid


def test_trap_env_has_wrong_but_matching_action():
    env, script = trap_env()
    demo = record_demonstration(env, script)
    # both first actions emit the demonstrated token...
    env.reset()
    assert env.step(0) == demo.observations[0]
    env.reset()
    assert env.step(1) == demo.observations[0]
    # ...but only one full plan reproduces the demonstration
    assert enumerate_valid_plans(env, demo) == [script]


@pytest.mark.parametrize("trans, start, message", [
    # a negative target would wrap around to the last state
    ([[(-1, "a")]], 0, "state 0, action 0: target -1 is not one of the 1 states"),
    ([[(1, "a"), (0, "b")], [(0, "a"), (5, "b")]], 0,
     "state 1, action 1: target 5 is not one of the 2 states"),
    ([[(0, "a")], [(1, "b")]], 3, "start state 3 is not one of the 2 states"),
])
def test_automaton_refuses_states_it_does_not_have(trans, start, message):
    with pytest.raises(ValueError, match=message):
        AutomatonEnv(len(trans[0]), trans, start_state=start)
