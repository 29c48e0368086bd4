"""Shared environment contract, demonstrations and sketches.

Environments here are deterministic state machines with a fixed discrete
action set, defined by a start state and a transition function over hashable
latent states that `Env` memoises. Observations are opaque string tokens
compared only by equality; two distinct latent states may emit the same token
(perceptual aliasing), which is what makes the search problem interesting.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

Action = int
Obs = str  # interned token; compare with ==, never parse


def intern_token(name: str) -> Obs:
    return sys.intern(name)


class ContractViolation(ValueError):
    """An agent called an environment outside its contract."""


class Env:
    """Deterministic, possibly partially observable environment.

    Subclasses implement `_start() -> (state, token)` and
    `_transition(state, a) -> (state, token)` over hashable latent states.
    Stepping is a pure function of (state, action), so `Env` memoises it:
    each state reached has a row of one `(next row, token)` entry per
    action, filled from `_transition` on first use, and the state in slot
    `n_actions`. Replaying an action sequence from reset yields the same
    tokens. The rows are per instance and link to each other, so they are
    cleared when the env is released.

    `run(actions)` steps through a batch with the checks made once for the
    whole batch; it is equal to a loop of `step`. A subclass or a patch
    that overrides `step` gets that loop, so it sees every action.
    """

    n_actions: int = 0
    action_names: tuple[str, ...] = ()

    def __init__(self):
        self._was_reset = False
        self._row = None  # the current state's row, from the first reset
        self._rows: dict = {}  # state -> row

    def __del__(self):
        for row in self._rows.values():
            row.clear()

    def reset(self) -> Obs:
        self._was_reset = True
        state, tok = self._start()
        self._row = self._row_of(state)
        return tok

    def step(self, a: Action) -> Obs:
        if not self._was_reset:
            raise ContractViolation("step() before reset()")
        if not isinstance(a, int) or not (0 <= a < self.n_actions):
            raise ContractViolation(f"invalid action id {a!r} (|A|={self.n_actions})")
        nxt = self._row[a]
        if nxt is None:
            state, tok = self._transition(self._row[-1], a)
            nxt = self._row[a] = self._row_of(state), tok
        self._row, tok = nxt
        return tok

    def run(self, actions) -> Obs | None:
        """Step through the sequence `actions`; return the last token, or
        None for an empty batch.

        The same state and token as a loop of `step`, with its checks made
        once for the whole batch: a batch that fails them takes no step.
        The batch check compares actions with the ids by equality, so an
        int-like index such as numpy's int64 passes where `step` refuses
        it. When `step` is overridden, by a subclass or a patch on `Env`,
        `run` is that loop, so the override sees every action.
        """
        if type(self).step is not _ENV_STEP:
            tok = None
            for a in actions:
                tok = self.step(a)
            return tok
        if not self._was_reset:
            raise ContractViolation("run() before reset()")
        n = self.n_actions
        ids = _ACTION_IDS.get(n) or _ACTION_IDS.setdefault(n, frozenset(range(n)))
        try:
            valid = ids.issuperset(actions)
        except TypeError:  # an unhashable action
            valid = False
        if not valid:
            bad = next(a for a in actions if not (isinstance(a, int) and 0 <= a < n))
            raise ContractViolation(f"invalid action id {bad!r} (|A|={n})")
        row = self._row
        nxt = row, None
        for a in actions:
            try:
                nxt = row[a]
            except TypeError:  # equal to an id but not an int, such as 1.0
                raise ContractViolation(f"invalid action id {a!r} (|A|={n})") from None
            if nxt is None:
                state, tok = self._transition(row[-1], a)
                nxt = row[a] = self._row_of(state), tok
            row = nxt[0]
        self._row, tok = nxt
        return tok

    @property
    def state(self):
        """The latent state; the start state until the first reset."""
        return self._start()[0] if self._row is None else self._row[-1]

    def _row_of(self, state) -> list:
        row = self._rows.get(state)
        if row is None:
            row = self._rows[state] = [None] * self.n_actions + [state]
        return row

    def _start(self) -> tuple:
        raise NotImplementedError

    def _transition(self, state, a: Action) -> tuple:
        raise NotImplementedError


_ENV_STEP = Env.step  # `run` walks the rows only while this is the step in use
_ACTION_IDS: dict[int, frozenset[int]] = {}  # n -> frozenset(range(n)), for `run`


@dataclass(frozen=True)
class Sketch:
    """Ordered subtask labels annotating a demonstration.

    Each label names a fixed, non-empty open-loop action sequence that is
    unknown to the learner.
    """

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("sketch must have at least one element")

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for b in self.elements:
            seen.setdefault(b)
        return tuple(seen)

    def repeated_labels(self) -> tuple[str, ...]:
        counts: dict[str, int] = {}
        for b in self.elements:
            counts[b] = counts.get(b, 0) + 1
        return tuple(b for b in self.labels if counts[b] >= 2)


@dataclass(frozen=True)
class Demonstration:
    """The target observation sequence Z* plus an optional sketch."""

    observations: tuple[Obs, ...]
    sketch: Sketch | None = None

    def __post_init__(self):
        if not self.observations:
            raise ValueError("demonstration must have H >= 1")

    @property
    def horizon(self) -> int:
        return len(self.observations)

    @property
    def token_set(self) -> frozenset[Obs]:
        return frozenset(self.observations)


def record_demonstration(env: Env, solution_actions, sketch: Sketch | None = None) -> Demonstration:
    """Execute `solution_actions` from reset and record the emitted tokens."""
    env.reset()
    obs = tuple(env.step(a) for a in solution_actions)
    return Demonstration(observations=obs, sketch=sketch)


# ---------------------------------------------------------------------------
# Demonstration file format
#
#   H=<int> A=<int>
#   <one observation token per line>
#   SKETCH <label> <label> ...     (optional trailer)
# ---------------------------------------------------------------------------


def write_demo_file(demo: Demonstration, n_actions: int) -> str:
    labels = demo.sketch.elements if demo.sketch is not None else ()
    for tok in (*demo.observations, *labels):
        if not tok or tok.split() != [tok]:
            raise ValueError(f"token not serializable on one line: {tok!r}")
    if "SKETCH" in demo.observations:
        raise ValueError("observation token 'SKETCH' would read back as the sketch trailer")
    lines = [f"H={demo.horizon} A={n_actions}"]
    lines.extend(demo.observations)
    if demo.sketch is not None:
        lines.append("SKETCH " + " ".join(demo.sketch.elements))
    return "\n".join(lines) + "\n"


def read_demo_file(text: str) -> tuple[Demonstration, int]:
    """Parse the demonstration format; returns (demo, n_actions)."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty demonstration file")
    (_, head), body = lines[0], lines[1:]
    header = re.fullmatch(r"H=(\d+)\s+A=(\d+)", head.strip())
    if header is None:
        raise ValueError(f"bad header line (want H=<int> A=<int>): {head!r}")
    h, a = int(header[1]), int(header[2])
    if h < 1 or a < 1:
        raise ValueError(f"bad header line (need H >= 1 and A >= 1): {head!r}")
    sketch = None
    if body and body[-1][1].split()[0] == "SKETCH":
        n, ln = body.pop()
        labels = ln.split()[1:]
        if not labels:
            raise ValueError(f"line {n}: sketch trailer names no labels: {ln!r}")
        sketch = Sketch(tuple(labels))
    for n, ln in body:
        if ln.split() != [ln]:
            raise ValueError(f"line {n}: token not on one line by itself: {ln!r}")
    if len(body) != h:
        raise ValueError(f"header says H={h} but file has {len(body)} tokens")
    return Demonstration(tuple(intern_token(ln) for _, ln in body), sketch), a


@dataclass(frozen=True)
class Task:
    """A registered environment bundled with its scripted solution.

    The solution and alignment are generator-side knowledge: agents never see
    them, except for the oracle-alignment baseline which is given `alignment`
    (per-sketch-element [start, end) spans into the demonstration).
    """

    name: str
    make_env: "callable"
    solution: tuple[Action, ...]
    sketch: Sketch | None = None
    alignment: tuple[tuple[int, int], ...] | None = None

    def env(self) -> Env:
        return self.make_env()

    def demo(self) -> Demonstration:
        return record_demonstration(self.make_env(), self.solution, self.sketch)


def segments_to_task(name: str, make_env, segments) -> Task:
    """The task whose solution concatenates the (label, actions) `segments`,
    with their labels as its sketch and their spans as its alignment."""
    return Task(name=name, make_env=make_env,
                solution=tuple(a for _, seg in segments for a in seg),
                sketch=Sketch(tuple(lbl for lbl, _ in segments)),
                alignment=spans_from_lengths(len(seg) for _, seg in segments))


def spans_from_lengths(lengths) -> tuple[tuple[int, int], ...]:
    """[3, 1, 2] -> ((0, 3), (3, 4), (4, 6)); used to build oracle alignments."""
    spans = []
    pos = 0
    for n in lengths:
        if n < 1:
            raise ValueError("every sketch element spans at least one action")
        spans.append((pos, pos + n))
        pos += n
    return tuple(spans)
