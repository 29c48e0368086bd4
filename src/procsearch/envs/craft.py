"""Craft gridworld: move on a 2-D map, collect wood, craft planks at a
workshop, build a raft to cross water, pick up gems.

Map legend: `#` wall, `~` water, `W` wood, `G` gem, `K` workshop, `I` island,
`@` agent, `.` empty. The observation token is a canonical serialization of
(position, inventory, grid), so equal tokens imply equal latent state and
the observation space is Markov. The latent state is an immutable tuple of
the agent's cell, the sorted (item, count) pairs held and the map's rows as
strings, so the task's memo, which every env of the task shares, serializes
each (state, action) once, and the serialization is interned so the memo
keeps one copy of each state's token; `pos`, `inventory` and `grid` are
read-only views of the state.

Two shipped tasks: Island (collect three woods, craft planks, raft across to
the island; repeated subtask structure) and Gem (short errand with no
repeated subtasks, used as the no-structure control).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType

from ..core import Action, Env, Obs, Task, intern_token, segments_to_task

UP, DOWN, LEFT, RIGHT, USE = range(5)
ACTION_NAMES = ("up", "down", "left", "right", "use")
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
_GLYPHS = set("#~WGKI@.")

RAFT_PLANKS = 2
RAFT_WOOD = 1


class MapError(ValueError):
    pass


def parse_map(text: str):
    rows = [list(line) for line in text.strip("\n").splitlines()]
    if not rows:
        raise MapError("empty map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MapError("map is not rectangular")
    agent = None
    for r, row in enumerate(rows):
        for c, g in enumerate(row):
            if g not in _GLYPHS:
                raise MapError(f"unknown glyph {g!r} at ({r},{c})")
            if g == "@":
                if agent is not None:
                    raise MapError("multiple agent cells")
                agent = (r, c)
                rows[r][c] = "."
    if agent is None:
        raise MapError("no agent cell")
    return rows, agent


def _passable(r: int, c: int, inv: tuple, grid: tuple[str, ...]) -> bool:
    if not (0 <= r < len(grid) and 0 <= c < len(grid[0])):
        return False
    cell = grid[r][c]
    if cell in (".", "I"):
        return True
    if cell == "~":
        return "raft" in dict(inv)
    return False


def _interact(pos, inv: Counter, grid: list[list[str]]) -> bool:
    """Apply `use` at `pos` to `inv` and `grid` in place; False if it does nothing."""
    r0, c0 = pos
    for a in (UP, DOWN, LEFT, RIGHT):
        dr, dc = _MOVES[a]
        r, c = r0 + dr, c0 + dc
        if not (0 <= r < len(grid) and 0 <= c < len(grid[0])):
            continue
        cell = grid[r][c]
        if cell == "W":
            grid[r][c] = "."
            inv["wood"] += 1
            return True
        if cell == "G":
            grid[r][c] = "."
            inv["gem"] += 1
            return True
        if cell == "K" and inv["wood"] >= 1:
            inv["wood"] -= 1
            inv["plank"] += 1
            return True
        if cell == "~" and inv["plank"] >= RAFT_PLANKS and inv["wood"] >= RAFT_WOOD:
            inv["plank"] -= RAFT_PLANKS
            inv["wood"] -= RAFT_WOOD
            inv["raft"] += 1
            return True
    return False


class GridCraftEnv(Env):
    n_actions = 5

    def __init__(self, map_text: str):
        super().__init__()
        grid, self._pos0 = parse_map(map_text)
        self._grid0 = tuple("".join(row) for row in grid)

    @property
    def pos(self) -> tuple[int, int]:
        return self.state[0]

    @property
    def inventory(self) -> MappingProxyType:
        return MappingProxyType(Counter(dict(self.state[1])))

    @property
    def grid(self) -> tuple[str, ...]:
        return self.state[2]

    def _start(self) -> tuple[tuple, Obs]:
        state = (self._pos0, (), self._grid0)
        return state, self._token(state)

    def _transition(self, state: tuple, a: Action) -> tuple[tuple, Obs]:
        # Ineffective actions leave the state alone but emit an action-tagged
        # echo so no two consecutive steps ever share a token (the emission is
        # a pure function of state and action, which keeps replays identical).
        pos, inv, rows = state
        if a == USE:
            held, grid = Counter(dict(inv)), [list(row) for row in rows]
            effective = _interact(pos, held, grid)
            if effective:
                state = (pos, tuple(sorted((k, v) for k, v in held.items() if v)),
                         tuple(map("".join, grid)))
        else:
            dr, dc = _MOVES[a]
            r, c = pos[0] + dr, pos[1] + dc
            effective = _passable(r, c, inv, rows)
            if effective:
                state = ((r, c), inv, rows)
        tok = self._token(state)
        return state, tok if effective else f"{tok}|no:{ACTION_NAMES[a]}"

    def _token(self, state: tuple) -> Obs:
        """The serialization of `state`."""
        (r, c), inv, rows = state
        items = "+".join(f"{k}:{v}" for k, v in inv) or "-"
        return intern_token(f"{r},{c}|{items}|{'/'.join(rows)}")


ISLAND_MAP = """\
...KK...####..
........####..
........####..
........~~~~..
........~~~~..
........~~~~..
........~~~~I.
........~~~~..
..WWW...~~~~..
@.......####..
"""

GEM_MAP = """\
...........
...W.......
...........
...........
...........
.@...K...G.
...........
"""


def island_segments():
    approach = (UP,) * 8 + (RIGHT,) * 2
    go_wood = (DOWN,) * 6
    chop = (USE,)
    go_shop = (UP,) * 6 + (RIGHT,)
    craft = (USE,)
    to_water = (DOWN,) * 5 + (RIGHT,) * 2
    make_raft = (USE,)
    cross = (RIGHT,) * 4
    land = (RIGHT,)
    return [
        ("approach", approach),
        ("go_wood", go_wood), ("chop", chop), ("go_shop", go_shop), ("craft", craft),
        ("go_wood", go_wood), ("chop", chop), ("go_shop", go_shop), ("craft", craft),
        ("go_wood", go_wood), ("chop", chop), ("go_shop", go_shop),
        ("to_water", to_water), ("make_raft", make_raft), ("cross", cross), ("land", land),
    ]


def gem_segments():
    return [
        ("to_wood", (UP,) * 4 + (RIGHT,)),
        ("chop_wood", (USE,)),
        ("to_shop", (DOWN,) * 3 + (RIGHT,) * 3),
        ("craft_plank", (USE,)),
        ("to_gem", (UP,) * 2 + (RIGHT,) * 4 + (DOWN,) * 2),
        ("take_gem", (USE,)),
    ]


def make_island_task() -> Task:
    return segments_to_task("island", lambda: GridCraftEnv(ISLAND_MAP), island_segments())


def make_gem_task() -> Task:
    return segments_to_task("gem", lambda: GridCraftEnv(GEM_MAP), gem_segments())
