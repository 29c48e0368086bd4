import random

import pytest

from procsearch.envs.craft import (
    ACTION_NAMES, DOWN, GEM_MAP, ISLAND_MAP, RIGHT, MapError, UP, USE, GridCraftEnv,
    make_gem_task, make_island_task,
)
from tests.oracles import craft_token


def test_minimal_map_and_agent_position():
    env = GridCraftEnv("...\n.@.\n...")
    assert env.pos == (1, 1)
    assert env._grid0[1][1] == "."


@pytest.mark.parametrize("bad", [
    ".@.\n.@.",       # two agents
    ".x.\n.@.",       # unknown glyph
    "..\n.@.",        # ragged
    "...\n...",       # no agent
])
def test_map_errors(bad):
    with pytest.raises(MapError):
        GridCraftEnv(bad)


def test_blocked_move_keeps_position_and_tags_token():
    env = GridCraftEnv("#..\n#@.\n#..")
    base = env.reset()
    tok = env.step(2)  # left into wall
    assert env.pos == (1, 1)
    assert tok.endswith("|no:left")
    assert tok != base


def test_wood_pickup_changes_grid_and_inventory():
    env = GridCraftEnv(".W.\n.@.\n...")
    env.reset()
    tok = env.step(USE)
    assert env.inventory["wood"] == 1
    assert env._grid0[0][1] == "W" and env.grid[0][1] == "."
    assert "wood:1" in tok


def test_empty_use_is_tagged_noop():
    env = GridCraftEnv("...\n.@.\n...")
    env.reset()
    assert env.step(USE).endswith("|no:use")


def test_reset_token_encodes_initial_map():
    env = GridCraftEnv("...\n.@.\n...")
    tok = env.reset()
    assert tok == env._token(env.state) == "1,1|-|.../.../..."


def _check_task(task, expect_h):
    env = task.env()
    demo = task.demo()
    assert demo.horizon == expect_h
    assert len(task.solution) == expect_h
    # realizable: replay reproduces the recorded observations
    env.reset()
    assert all(env.step(a) == z for a, z in zip(task.solution, demo.observations))
    # oracle alignment partitions [0, H)
    spans = task.alignment
    assert spans[0][0] == 0 and spans[-1][1] == expect_h
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    # every occurrence of a label is the same fixed action subsequence
    contents = {}
    for (s, e), lbl in zip(spans, demo.sketch.elements):
        seg = task.solution[s:e]
        assert contents.setdefault(lbl, seg) == seg
    # Markov: demo tokens (plus the start token) are pairwise distinct
    toks = (task.env().reset(), *demo.observations)
    assert len(set(toks)) == len(toks)


def test_island_task_statistics():
    task = make_island_task()
    _check_task(task, expect_h=67)
    demo = task.demo()
    assert len(demo.sketch) == 16
    assert len(demo.sketch.labels) == 9
    assert task.env().n_actions == 5


def test_gem_task_has_no_repeated_subtasks():
    task = make_gem_task()
    _check_task(task, expect_h=22)
    demo = task.demo()
    assert demo.sketch.repeated_labels() == ()


def test_island_demo_consumes_three_woods_and_lands():
    task = make_island_task()
    env = task.env()
    env.reset()
    for a in task.solution:
        env.step(a)
    assert env.inventory["raft"] == 1
    assert env.inventory["wood"] == 0 and env.inventory["plank"] == 0
    r, c = env.pos
    assert env.grid[r][c] == "I"


def test_craft_determinism_fuzz():
    task = make_island_task()
    rng = random.Random(0)
    for _ in range(200):
        seq = [rng.randrange(5) for _ in range(20)]
        a_env, b_env = task.env(), task.make_env()  # the task's memo, and a memo of b's own
        a_env.reset(), b_env.reset()
        assert [a_env.step(a) for a in seq] == [b_env.step(a) for a in seq]


def test_tokens_are_bijective_on_latent_state():
    # distinct (pos, inventory, grid) always serialize differently
    env = GridCraftEnv(".W.\n.@.\n...")
    env.reset()
    t0 = env._token(env.state)
    env.step(USE)
    t1 = env._token(env.state)
    env.step(DOWN)
    t2 = env._token(env.state)
    assert len({t0, t1, t2}) == 3


def test_gridcraft_raft_requirements():
    env = GridCraftEnv("~..\n~@.\n~..\nWWW\n.K.")
    env.reset()
    assert env.step(USE).endswith("|no:use")  # no materials yet
    # below: chop, craft, chop, craft, chop; back up beside the water
    for a in (DOWN, USE, DOWN, USE, USE, USE, USE, UP, UP):
        env.step(a)
    assert dict(env.inventory) == {"plank": 2, "wood": 1}
    env.step(USE)
    assert env.inventory["raft"] == 1
    assert env.inventory["plank"] == 0 and env.inventory["wood"] == 0
    env.step(2)  # left onto water, passable with raft
    assert env.pos == (1, 0)


# three woods and a workshop above water: random play builds rafts and swims
RAFT_MAP = "KWW\n.@W\n~~~\n.I."


@pytest.mark.parametrize("map_text", [ISLAND_MAP, GEM_MAP, RAFT_MAP], ids=["island", "gem", "raft"])
def test_cached_tail_matches_a_fresh_serialization(map_text):
    """Random play through the memoised `Env.step`: every token it returns,
    and the state it leaves, match the state serialized afresh."""
    env = GridCraftEnv(map_text)
    rng = random.Random(0)
    changes = 0
    for _ in range(40):
        assert env.reset() == craft_token(env.pos, env.inventory, env.grid)
        for _ in range(40):
            a = rng.randrange(env.n_actions)
            before = (dict(env.inventory), [row[:] for row in env.grid])
            tok = env.step(a)
            want = craft_token(env.pos, env.inventory, env.grid)
            assert env._token(env.state) == want
            assert tok in (want, f"{want}|no:{ACTION_NAMES[a]}")
            changes += before != (dict(env.inventory), env.grid)
    assert changes > 0


def test_moves_into_one_state_return_one_token_object():
    # the task's memo keeps every token it is given; interned, one per state
    env = GridCraftEnv("...\n.@.\n...")
    env.reset()
    right = env.step(RIGHT)
    env.reset()
    for a in (UP, RIGHT):
        env.step(a)
    assert env.step(DOWN) is right
