"""Step-level contract: the memoised `Env.step` of every env.

`core.Env` fills one row per latent state from `_transition` and steps by
lookup. Each property here runs on every entry of `FACTORIES` (every
registered task's env, eight random aliased automata and a craft map where
random play builds rafts), so an env added to `ENV_REGISTRY` is covered
without a test of its own:

- the domain rule: random play, across resets, emits at each step (and at
  each reset) the token of a rule that reads no memo, and a fresh env whose
  memo is cold emits the same tokens as the warm one;
- the contract checks: a step before the first reset, and an action that is
  not an id, are refused and leave the state as it was;
- `_transition` runs once per (state, action), in an env's own memo and
  across the envs of one task;
- envs of one task, stepped interleaved through the task's memo, emit what
  envs with memos of their own emit;
- a position that `Env.mark` gives, restored on another env of the task,
  walks on as a reset and a loop of `step` do, and `Env.restore` refuses a
  mark of another memo.

`_start` is counted once per memo. The task-level properties (realizable
demos, alignments, Markov tokens) are in `tests/test_env_contract.py`.
"""

import gc
import random
from collections import Counter
from unittest import mock

import pytest

from procsearch.core import ContractViolation, Env, Task
from procsearch.envs import ENV_REGISTRY, make_task
from procsearch.envs.craft import ACTION_NAMES as CRAFT_ACTIONS, GridCraftEnv
from procsearch.envs.piano import N_KEYS, SILENCE, PianoEnv
from procsearch.envs.scripted import OFF_TOKEN, AutomatonEnv, ScriptedEnv, random_aliased_env
from tests.oracles import craft_token, piano_step

# three woods and a workshop above water: random play builds rafts and swims
RAFT_MAP = "KWW\n.@W\n~~~\n.I."


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
    """`(start token, want)`, where `want(a) -> token`, called after
    `env.step(a)`, steps the domain's rule from the start state, reading
    nothing of `env` but its parameters; for piano it also checks the env's
    hand against the rule's, and for craft the token is the serialization of
    the state views after the step, echoed when the step changed nothing."""
    if isinstance(env, PianoEnv):
        hand = [env.start_wrist, 0]

        def want(a):
            *hand[:], tok = piano_step(*hand, a)
            assert (env.wrist, env.thumb) == tuple(hand)
            return tok
        return SILENCE, want
    if isinstance(env, ScriptedEnv):
        pos = [0, True]  # script actions taken, still on script

        def want(a):
            i, on = pos
            if on and i < len(env.script) and a == env.script[i]:
                pos[0] = i + 1
                return env.tokens[i]
            pos[1] = False
            return OFF_TOKEN
        return env.start_token, want
    if isinstance(env, AutomatonEnv):
        state = [env.start_state]

        def want(a):
            state[0], tok = env.trans[state[0]][a]
            return tok
        return env.start_token, want
    assert isinstance(env, GridCraftEnv)
    before = [(env._pos0, {}, env._grid0)]

    def want(a):  # called after env.step(a)
        after = (env.pos, dict(env.inventory), env.grid)
        tok = craft_token(*after)
        unchanged, before[0] = after == before[0], after
        return f"{tok}|no:{CRAFT_ACTIONS[a]}" if unchanged else tok
    return craft_token(*before[0]), want


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_warm_memo_steps_match_the_domain_rule_and_a_cold_env(name):
    env = FACTORIES[name]()
    rng = random.Random(name)
    for _ in range(30):
        start, want = rule(env)
        assert env.reset() == start
        seq = [rng.randrange(env.n_actions) for _ in range(rng.randrange(1, 60))]
        toks = []
        for a in seq:
            toks.append(env.step(a))
            assert toks[-1] == want(a)
        cold = FACTORIES[name]()
        assert cold.reset() == start
        assert [cold.step(a) for a in seq] == toks
    if isinstance(env, GridCraftEnv):  # random play used items, not only moved
        assert len({state[1:] for state in env._rows}) > 1


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


def drive(env, rng, episodes):
    """Reset `env` and walk it by `step` for `episodes`, each burning out
    twice from one marked position; a burn draws and walks nothing, so the
    restore after it must hold."""
    n = env.n_actions
    for _ in range(episodes):
        env.reset()
        for a in [rng.randrange(n) for _ in range(rng.randrange(1, 20))]:
            env.step(a)
        at = env.mark()
        env.burn(rng, rng.randrange(20))
        env.restore(at)
        env.burn(rng, rng.randrange(20))


@pytest.mark.parametrize("shared", [False, True], ids=["own", "task"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_memo_runs_each_transition_once(name, shared):
    # a memo that stored nothing would give the same tokens, only slower; the
    # envs of one task (and its demo) walk one memo, so once across them all
    task = ENV_REGISTRY[name]() if name in ENV_REGISTRY else Task(name, FACTORIES[name], ())
    rng, cls = random.Random(name), type(task.make_env())
    with mock.patch.object(cls, "_transition", autospec=True,
                           side_effect=cls._transition) as counted:
        if shared:
            if task.solution:  # a registered task's demo walks its memo too
                task.demo()
            for _ in range(4):
                drive(task.env(), rng, 15)
        else:
            drive(task.make_env(), rng, 60)
    calls = Counter((state, a) for _, state, a in (c.args for c in counted.call_args_list))
    assert calls and set(calls.values()) == {1}


def test_a_failed_first_reset_leaves_the_env_unreset():
    class FailsFirst(PianoEnv):
        starts = 0

        def _start(self):
            self.starts += 1
            if self.starts == 1:
                raise RuntimeError("no start yet")
            return super()._start()

    env = FailsFirst()
    with pytest.raises(RuntimeError, match="no start yet"):
        env.reset()
    for call in (lambda: env.step(0), lambda: env.burn(random.Random(0), 1)):
        with pytest.raises(ContractViolation, match="before reset"):
            call()
    assert env.mark() is None
    assert env.state == PianoEnv().state


@pytest.mark.parametrize("name", ["chain", "cpr", "piano", "island"])
def test_every_env_of_a_task_starts_from_one_start_call(name):
    # craft's start token serializes the whole map, so a reset that called
    # _start would pay for it on every episode
    task = ENV_REGISTRY[name]()  # a task of its own, with a cold memo
    alone = task.make_env()  # an env with a memo of its own
    want = alone.reset(), [alone.step(a) for a in task.solution]
    cls, calls = type(alone), []
    start = cls._start

    def counted(env):
        calls.append(env)
        return start(env)

    with mock.patch.object(cls, "_start", counted):
        for _ in range(3):
            env = task.env()
            for _ in range(5):
                assert (env.reset(), [env.step(a) for a in task.solution]) == want
    assert len(calls) == 1


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


@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_step_and_burn_do_not_relabel_a_transition_error(exc):
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
    env.step(0)
    with pytest.raises(exc, match="no transition") as raised:
        env.step(1)
    assert type(raised.value) is exc
    # burn walks nothing, so it never reaches the broken transition
    env.reset()
    env.step(0)
    with mock.patch.object(Broken, "_transition", return_value=(0, "s")) as transition:
        env.burn(random.Random(3), 5)
    transition.assert_not_called()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_a_restored_mark_walks_on_as_a_reset_and_a_loop_of_step(name):
    # the marking env walks on after its mark, and the resuming env starts
    # elsewhere; the suffix reaches states that the prefix did not fill
    task, rng = Task(name, FACTORIES[name], ()), random.Random(name)
    marker, resumer = task.env(), task.env()
    n = marker.n_actions
    for _ in range(30):
        prefix = [rng.randrange(n) for _ in range(rng.randrange(40))]
        suffix = [rng.randrange(n) for _ in range(rng.randrange(1, 40))]
        marker.reset()
        for a in prefix:
            marker.step(a)
        at = marker.mark()
        marker.burn(rng, rng.randrange(20))
        resumer.reset()
        resumer.burn(rng, rng.randrange(20))
        resumer.restore(at)
        toks = [resumer.step(a) for a in suffix]
        looped = FACTORIES[name]()
        looped.reset()
        for a in prefix:
            looped.step(a)
        assert [looped.step(a) for a in suffix] == toks
        assert looped.state == resumer.state


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_restore_refuses_a_mark_of_another_memo(name):
    # another task of the same env and a lone env reach the same states in
    # memos of their own, so only the row's identity tells their marks apart
    rng = random.Random(name)
    env, other, alone = Task(name, FACTORIES[name], ()).env(), \
        Task(name, FACTORIES[name], ()).env(), FACTORIES[name]()
    n = env.n_actions
    prefix = [rng.randrange(n) for _ in range(rng.randrange(1, 20))]
    foreign = []
    for e in (env, other, alone):
        e.reset()
        for a in prefix:
            e.step(a)
        foreign.append(e.mark())
    row = env._row
    for mark in (*foreign[1:], list(row), None, [], (), "mark", [[0]]):
        with pytest.raises(ContractViolation, match="not a row of this env's memo"):
            env.restore(mark)
        assert env._row is row
    env.restore(foreign[0])
    assert env._row is row


class OverridingPiano(PianoEnv):
    """Overrides `step`, so it gives no mark: its callers replay through it."""

    def step(self, a):
        return super().step(a)


def test_an_overridden_step_gets_no_mark():
    env = OverridingPiano()
    env.reset()
    env.step(3)
    assert env.mark() is None
    plain = PianoEnv()
    plain.reset()
    with mock.patch.object(Env, "step", lambda self, a: None):
        assert plain.mark() is None
    assert plain.mark() is plain._row


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_envs_of_one_task_stepped_interleaved_match_envs_with_their_own_memos(name):
    task, rng = Task(name, FACTORIES[name], ()), random.Random(name)
    shared, own = [task.env(), task.env()], [task.make_env(), task.make_env()]
    n = shared[0].n_actions
    for _ in range(40):
        for env, alone in zip(shared, own):
            assert env.reset() == alone.reset()
        for _ in range(rng.randrange(1, 60)):
            k, a = rng.randrange(2), rng.randrange(n)
            assert shared[k].step(a) == own[k].step(a)
        assert [env.state for env in shared] == [alone.state for alone in own]


@pytest.mark.parametrize("name", ["chain", "cpr", "piano", "island"])
def test_released_task_leaves_no_cycles(name):
    # the task's envs are released first, so the memo goes with the task
    rng = random.Random(0)
    gc.collect()
    gc.disable()
    try:
        task = ENV_REGISTRY[name]()
        task.demo()
        for _ in range(3):
            drive(task.env(), rng, 10)
        del task
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_make_task_hands_out_one_task_per_name():
    for name in ENV_REGISTRY:
        assert make_task(name) is make_task(name)
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown environment 'nope'"):
            make_task("nope")
