"""The memoised environment step against each domain's own rule.

`core.Env` fills one row per latent state from `_transition` and steps by
lookup, so these properties run every env long enough for the memo to be
warm and check each token against a rule that reads no memo, and against a
fresh instance whose memo is cold.
"""

import gc
import random

import pytest

from procsearch.core import ContractViolation
from procsearch.envs import ENV_REGISTRY, make_task
from procsearch.envs.craft import ACTION_NAMES as CRAFT_ACTIONS, GridCraftEnv
from procsearch.envs.piano import N_KEYS, PianoEnv
from procsearch.envs.scripted import OFF_TOKEN, AutomatonEnv, ScriptedEnv, random_aliased_env
from tests.oracles import craft_token, piano_step
from tests.test_craft import RAFT_MAP


def aliased_factory(seed: int):
    rng = random.Random(seed)
    n_actions, horizon = rng.randrange(1, 6), rng.randrange(1, 12)
    return lambda: random_aliased_env(random.Random(seed), n_actions, horizon)[0]


FACTORIES = {
    **{name: make_task(name).make_env for name in sorted(ENV_REGISTRY)},
    **{f"aliased{seed}": aliased_factory(seed) for seed in range(8)},
    "raft": lambda: GridCraftEnv(RAFT_MAP),
}


def rule(env):
    """`want(a) -> token` by the domain's rule from the start state, reading
    nothing of `env` but its parameters; for craft, the serialization of the
    state views after the step, echoed when the step changed nothing."""
    if isinstance(env, PianoEnv):
        hand = [env.start_wrist, 0]

        def want(a):
            *hand[:], tok = piano_step(*hand, a)
            return tok
    elif isinstance(env, ScriptedEnv):
        pos = [0, True]  # script actions taken, still on script

        def want(a):
            i, on = pos
            if on and i < len(env.script) and a == env.script[i]:
                pos[0] = i + 1
                return env.tokens[i]
            pos[1] = False
            return OFF_TOKEN
    elif isinstance(env, AutomatonEnv):
        state = [env.start_state]

        def want(a):
            state[0], tok = env.trans[state[0]][a]
            return tok
    else:
        assert isinstance(env, GridCraftEnv)
        before = [(env.pos, dict(env.inventory), env.grid)]

        def want(a):  # called after env.step(a)
            after = (env.pos, dict(env.inventory), env.grid)
            tok = craft_token(*after)
            unchanged, before[0] = after == before[0], after
            return f"{tok}|no:{CRAFT_ACTIONS[a]}" if unchanged else tok
    return want


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_warm_memo_steps_match_the_domain_rule_and_a_cold_env(name):
    env = FACTORIES[name]()
    rng = random.Random(name)
    for _ in range(30):
        start = env.reset()
        want = rule(env)
        seq = [rng.randrange(env.n_actions) for _ in range(rng.randrange(1, 60))]
        toks = []
        for a in seq:
            toks.append(env.step(a))
            assert toks[-1] == want(a)
        cold = FACTORIES[name]()
        assert cold.reset() == start
        assert [cold.step(a) for a in seq] == toks


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_warm_memo_keeps_the_step_contract(name):
    env = FACTORIES[name]()
    rng = random.Random(name)
    for _ in range(20):
        env.reset()
        for _ in range(rng.randrange(1, 40)):
            env.step(rng.randrange(env.n_actions))
        state = env.state
        for bad in (-1, env.n_actions, 1.0):
            with pytest.raises(ContractViolation):
                env.step(bad)
            assert env.state == state
    fresh = FACTORIES[name]()
    with pytest.raises(ContractViolation, match="before reset"):
        fresh.step(0)
    assert fresh.state == fresh._start()[0]


@pytest.mark.parametrize("name", ["chain", "cpr", "aliased0", "piano", "island"])
def test_released_env_leaves_no_cycles(name):
    # the rows link to each other (a sink or a no-op loops to itself), so an
    # env that did not clear them on release would leave them to the cyclic GC
    factory, rng = FACTORIES[name], random.Random(0)
    gc.collect()
    gc.disable()
    try:
        env = factory()
        for _ in range(10):
            env.reset()
            for _ in range(30):
                env.step(rng.randrange(env.n_actions))
        del env
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["chain", "scripted", "cpr"])
def test_scripted_memo_holds_at_most_h_plus_two_states(name):
    task = make_task(name)
    env, rng = task.env(), random.Random(1)
    for k in range(200):
        env.reset()
        for a in task.solution[:k % (len(task.solution) + 1)]:
            env.step(a)
        for _ in range(3):
            env.step(rng.randrange(env.n_actions))
    assert len(env._rows) == len(task.solution) + 2


def test_piano_memo_holds_at_most_96_hands():
    env, rng = PianoEnv(), random.Random(2)
    for _ in range(200):
        env.reset()
        for _ in range(200):
            env.step(rng.randrange(env.n_actions))
    assert 24 < len(env._rows) <= N_KEYS * 4 == 96
