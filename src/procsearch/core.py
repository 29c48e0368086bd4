"""Shared environment contract, demonstrations and sketches.

Environments here are deterministic state machines with a fixed discrete
action set, defined by a start state and a transition function over hashable
latent states that `Env` memoises; every env that one `Task` makes shares
the task's memo. Observations are opaque string tokens
compared only by equality; two distinct latent states may emit the same token
(perceptual aliasing), which is what makes the search problem interesting.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

Action = int
Obs = str  # interned token; compare with ==, never parse


def intern_token(name: str) -> Obs:
    return sys.intern(name)


class ContractViolation(ValueError):
    """An agent called an environment outside its contract."""


class Memo(dict):
    """An env memo: latent state -> row, with `start`, the start state's row
    and token, set by the first reset that succeeds (None until then). The
    rows link to each other (a sink or a no-op step loops to itself), so the
    memo clears them when it is released and leaves no cycle to the cyclic
    garbage collector."""

    __slots__ = ("start",)

    def __init__(self):
        super().__init__()
        self.start = None

    def __del__(self):
        for row in self.values():
            row.clear()


class Env:
    """Deterministic, possibly partially observable environment.

    Subclasses implement `_start() -> (state, token)` and
    `_transition(state, a) -> (state, token)` over hashable latent states.
    Stepping is a pure function of (state, action), so `Env` memoises it:
    each state reached has a row of one `(next row, token)` entry per
    action, filled by `_fill` from `_transition` on first use, and the state
    in slot `n_actions`. `_row`, the current state's row, is None until the
    first reset that succeeds. Replaying an action sequence from reset
    yields the same tokens. The rows live in `_rows`, a `Memo`: an env
    built alone has its own, and `Task.env` points every env of a task at
    the task's, while each env keeps its own `_row`. The memo keeps the
    start row and token too, so `_start` runs at the first reset that
    succeeds on a memo and never again for its envs.

    `burn(rng, m)` takes `m` steps with actions drawn as
    `rng.randrange(n_actions)` draws them, each walked in the loop that
    draws it, equal to a loop of `step`; `mark()` gives the position and
    `restore(mark)` returns to it. A subclass or a patch that overrides
    `step` sees every action: `burn` is then that loop, and `mark()` gives
    None, so callers reset and replay through `step`.
    """

    n_actions: int = 0

    def __init__(self):
        self._row = None  # the current state's row, from the first reset
        self._rows = Memo()

    def reset(self) -> Obs:
        start = self._rows.start
        if start is None:
            state, tok = self._start()
            start = self._rows.start = self._row_of(state), tok
        self._row, tok = start
        return tok

    def step(self, a: Action) -> Obs:
        if self._row is None:
            raise ContractViolation("step() before reset()")
        if not isinstance(a, int) or not (0 <= a < self.n_actions):
            raise ContractViolation(f"invalid action id {a!r} (|A|={self.n_actions})")
        self._row, tok = self._row[a] or self._fill(self._row, a)
        return tok

    def burn(self, rng, m: int) -> None:
        """Take `m` steps with random actions, each drawn exactly as
        `rng.randrange(n_actions)` draws it: `getrandbits(k)` for the bit
        length `k` of n_actions, drawn again while it is n_actions or more.

        The same state and the same draws as a loop of
        `step(rng.randrange(n_actions))`; the draws are ids by construction,
        so only the reset is checked, before anything is drawn. When `step`
        is overridden, `burn` is that loop over the same draws, and the
        override makes the checks.
        """
        n = self.n_actions
        if n < 1 and m > 0:  # randrange(0) raises; this draw would never end
            raise ContractViolation("burn() with no action to draw")
        getrandbits, k = rng.getrandbits, n.bit_length()
        if type(self).step is not _ENV_STEP:
            step = self.step
            for _ in range(m):
                a = getrandbits(k)
                while a >= n:
                    a = getrandbits(k)
                step(a)
            return
        if self._row is None:
            raise ContractViolation("burn() before reset()")
        row = self._row
        for _ in range(m):
            a = getrandbits(k)
            while a >= n:
                a = getrandbits(k)
            row = (row[a] or self._fill(row, a))[0]
        self._row = row

    def mark(self) -> list | None:
        """The current position, for `restore`; None before the first reset,
        and None while `step` is overridden, so that the caller replays
        through `step` and the override sees every action."""
        return self._row if type(self).step is _ENV_STEP else None

    def restore(self, mark: list) -> None:
        """Return to a position that `mark()` gave on an env sharing this
        memo; refuse anything else and leave the position as it was."""
        try:
            mine = self._rows.get(mark[-1]) is mark
        except (TypeError, LookupError):  # not a row at all
            mine = False
        if not mine:
            raise ContractViolation("restore() of a mark that is not a row of this env's memo")
        self._row = mark

    @property
    def state(self):
        """The latent state; the start state until the first reset."""
        return self._start()[0] if self._row is None else self._row[-1]

    def _fill(self, row: list, a: Action) -> tuple:
        """Fill `row[a]` from `_transition` and return the new entry."""
        state, tok = self._transition(row[-1], a)
        nxt = row[a] = self._row_of(state), tok
        return nxt

    def _row_of(self, state) -> list:
        row = self._rows.get(state)
        if row is None:
            row = self._rows[state] = [None] * self.n_actions + [state]
        return row

    def _start(self) -> tuple:
        raise NotImplementedError

    def _transition(self, state, a: Action) -> tuple:
        raise NotImplementedError


_ENV_STEP = Env.step  # `burn` walks the rows and `mark` gives a position only under this step


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
    if type(n_actions) is not int or n_actions < 1:  # a bool would write A=True
        raise ValueError(f"n_actions must be an int >= 1, got {n_actions!r}")
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
        if ln.split()[0] == "SKETCH":
            raise ValueError(f"line {n}: the SKETCH trailer must be the last line: {ln!r}")
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

    `make_env` must build the same dynamics on every call: the envs that
    `env` hands out, and the one `demo` records on, share the task's memo.
    `_stores` holds per-plan state that the runs of this task share, keyed
    by whoever fills it. Both live as long as the task; the memo is a
    function of the task and each stored value a function of its key and
    its plan, so neither changes what a run does.
    """

    name: str
    make_env: "callable"
    solution: tuple[Action, ...]
    sketch: Sketch | None = None
    alignment: tuple[tuple[int, int], ...] | None = None
    _memo: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)
    _stores: dict[tuple, dict] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def env(self) -> Env:
        """An unreset env from `make_env` that walks the task's memo."""
        env = self.make_env()
        env._rows, env._row = self._memo, None
        return env

    def demo(self) -> Demonstration:
        return record_demonstration(self.env(), self.solution, self.sketch)


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
