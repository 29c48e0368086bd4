"""The memoised environment step against each domain's own rule.

`core.Env` fills one row per latent state from `_transition` and steps by
lookup, so these properties run every env long enough for the memo to be
warm and check each token against a rule that reads no memo, and against a
fresh instance whose memo is cold. `Env.run` walks the same rows for a
batch, so it is checked against a loop of `step`.
"""

import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from procsearch.core import ContractViolation, Env
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


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_run_refuses_a_bad_batch_and_takes_no_step(name):
    env = FACTORIES[name]()
    with pytest.raises(ContractViolation, match="before reset"):
        env.run([0])
    assert env.state == env._start()[0]
    rng, n = random.Random(name), env.n_actions
    env.reset()
    env.run([rng.randrange(n) for _ in range(20)])
    state = env.state
    for bad in (n, -1, 0.5, float(n - 1), "0", None, [0]):
        # the bad action last, so the good ones before it are not stepped
        with pytest.raises(ContractViolation, match="invalid action id"):
            env.run([rng.randrange(n) for _ in range(5)] + [bad])
        assert env.state == state
    assert env.run([]) is None
    assert env.state == state


@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_run_does_not_relabel_a_transition_error(exc):
    class Broken(Env):
        n_actions = 2

        def _start(self):
            return 0, "s"

        def _transition(self, state, a):
            if a == 1:
                raise exc("no transition for 1")
            return state + 1, "s"

    env = Broken()
    env.reset()
    with pytest.raises(exc, match="no transition") as raised:
        env.run([0, 0, 1])
    assert type(raised.value) is exc


def craft_factories():
    return st.sampled_from(["island", "gem", "raft"]).map(FACTORIES.__getitem__)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(0, 2**16).map(aliased_factory), craft_factories()), st.data())
def test_run_equals_a_loop_of_step_from_a_cold_and_a_warm_memo(factory, data):
    n = factory().n_actions
    prefix = data.draw(st.lists(st.integers(0, n - 1), max_size=20), label="prefix")
    batch = data.draw(st.lists(st.integers(0, n - 1), max_size=40), label="batch")
    looped = factory()
    looped.reset()
    for a in prefix:
        looped.step(a)
    toks = [looped.step(a) for a in batch]
    want = looped.state, toks[-1] if toks else None
    cold = factory()
    cold.reset()
    cold.run(prefix)
    tok = cold.run(batch)
    assert (cold.state, tok) == want
    looped.reset()  # its memo now holds every transition of the batch
    looped.run(prefix)
    tok = looped.run(batch)
    assert (looped.state, tok) == want


def test_run_steps_through_an_overriding_step():
    class Logged(PianoEnv):
        def __init__(self):
            super().__init__()
            self.log = []

        def step(self, a):
            self.log.append(a)
            return super().step(a)

    batch, plain = [3, 0, 8, 8, 5, 1], PianoEnv()
    plain.reset()
    want = [plain.step(a) for a in batch][-1]
    env = Logged()
    env.reset()
    assert env.run(batch) == want
    assert env.log == batch and env.state == plain.state


def test_run_steps_through_a_patched_env_step():
    seen, step = [], Env.step

    def counted(env, a):
        seen.append(a)
        return step(env, a)

    batch, env = [2, 7, 7, 0, 4], PianoEnv()
    env.reset()
    with mock.patch.object(Env, "step", counted):
        env.run(batch)
        with pytest.raises(ContractViolation):
            env.run([1, 9])  # checked by the patched step, one action at a time
    assert seen == batch + [1, 9]
