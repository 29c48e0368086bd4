"""Scripted test environments: Markov chains and aliased automata.

ScriptedEnv realizes the minimal deterministic environment: one true action
sequence, one token per on-script prefix (a fresh one unless given), and an
absorbing "OFF" sink once the agent deviates. Its latent state is the number
of script actions taken, or -1 for OFF, so its memo, which every env of a
task shares, holds at most H + 2 rows.

AutomatonEnv is an explicit deterministic finite automaton over latent
states. It can express richer aliasing traps than repeated tokens: a wrong
action may emit the demonstrated token while moving to a latent state from
which the rest of the demonstration is unreachable.
"""

from __future__ import annotations

import random

from ..core import Action, Env, Obs, intern_token

OFF_TOKEN = intern_token("OFF")


class ScriptedEnv(Env):
    def __init__(self, n_actions: int, script, tokens=None, start_token: str = "S0"):
        super().__init__()
        self.n_actions = n_actions
        self.script = tuple(script)
        if any(not (0 <= a < n_actions) for a in self.script):
            raise ValueError("script action out of range")
        if tokens is None:
            tokens = [f"z{i + 1}" for i in range(len(self.script))]
        if len(tokens) != len(self.script):
            raise ValueError("need one token per script position")
        self.tokens = tuple(intern_token(t) for t in tokens)
        self.start_token = intern_token(start_token)

    def _start(self) -> tuple[int, Obs]:
        return 0, self.start_token

    def _transition(self, i: int, a: Action) -> tuple[int, Obs]:
        # state i >= 0: the first i script actions were taken; -1: OFF
        if 0 <= i < len(self.script) and a == self.script[i]:
            return i + 1, self.tokens[i]
        return -1, OFF_TOKEN


class AutomatonEnv(Env):
    """Deterministic automaton: trans[state][action] -> (next_state, token)."""

    def __init__(self, n_actions: int, trans, start_state: int = 0, start_token: str = "S0"):
        super().__init__()
        self.n_actions = n_actions
        self.trans = tuple(tuple((s2, intern_token(t)) for s2, t in row) for row in trans)
        if any(len(row) != n_actions for row in self.trans):
            raise ValueError("each state needs one transition per action")
        states = range(len(self.trans))
        for s, row in enumerate(self.trans):
            for a, (s2, _) in enumerate(row):
                if s2 not in states:
                    raise ValueError(f"state {s}, action {a}: target {s2!r} is not one of "
                                     f"the {len(states)} states")
        if start_state not in states:
            raise ValueError(f"start state {start_state!r} is not one of the {len(states)} states")
        self.start_state = start_state
        self.start_token = intern_token(start_token)

    def _start(self) -> tuple[int, Obs]:
        return self.start_state, self.start_token

    def _transition(self, s: int, a: Action) -> tuple[int, Obs]:
        return self.trans[s][a]


def trap_env() -> tuple[AutomatonEnv, tuple[Action, ...]]:
    """Two-action aliased environment with a wrong-but-matching first action.

    From the start, both actions emit "z1", but only action 0 reaches the
    state where "z2" can be produced. An agent that confirms action 1 at step
    one dead-ends at step two and must backtrack.
    """
    #            a=0                a=1
    trans = [
        [(1, "z1"), (2, "z1")],   # 0: start
        [(3, "z2"), (4, "OFF")],  # 1: good branch
        [(4, "OFF"), (4, "OFF")], # 2: trap (aliased with state 1 via z1)
        [(3, "z3"), (4, "OFF")],  # 3: after z2; a=0 loops emitting z3
        [(4, "OFF"), (4, "OFF")], # 4: absorbing sink
    ]
    return AutomatonEnv(2, trans), (0, 0, 0)


def random_aliased_env(rng: random.Random, n_actions: int, horizon: int,
                       n_tokens: int = 3) -> tuple[AutomatonEnv, tuple[Action, ...]]:
    """Random deterministic automaton plus a realizable solution script.

    A small token alphabet forces aliasing. The solution walks a fresh chain
    of states so the demonstration is always realizable; all other
    transitions are wired randomly into the same state pool.
    """
    n_states = horizon + 2  # chain + sink
    sink = n_states - 1
    toks = [f"t{k}" for k in range(n_tokens)]
    script = tuple(rng.randrange(n_actions) for _ in range(horizon))
    trans = [[None] * n_actions for _ in range(n_states)]
    for i, a in enumerate(script):
        trans[i][a] = (i + 1, rng.choice(toks))
    for s in range(n_states):
        for a in range(n_actions):
            if trans[s][a] is None:
                # off-solution: random token, random target (sink-biased)
                target = sink if rng.random() < 0.5 else rng.randrange(n_states)
                trans[s][a] = (target, rng.choice(toks))
    return AutomatonEnv(n_actions, trans, start_state=0, start_token="start"), script


def make_chain(n_actions: int = 2, horizon: int = 3) -> tuple[ScriptedEnv, tuple[Action, ...]]:
    script = tuple(i % n_actions for i in range(horizon))
    return ScriptedEnv(n_actions, script), script


def make_markov_scripted(n_actions: int = 5, horizon: int = 20, seed: int = 12345):
    script = tuple(random.Random(seed).randrange(n_actions) for _ in range(horizon))
    return ScriptedEnv(n_actions, script), script
