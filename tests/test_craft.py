import pytest

from procsearch.envs.craft import (
    DOWN, RIGHT, MapError, UP, USE, GridCraftEnv, make_gem_task, make_island_task,
)


def test_minimal_map_and_agent_position():
    env = GridCraftEnv("...\n.@.\n...")
    assert env.pos == (1, 1)
    assert env._grid0[1][1] == "."


@pytest.mark.parametrize("bad", [
    ".@.\n.@.",       # two agents
    ".x.\n.@.",       # unknown glyph
    "..\n.@.",        # ragged
    "...\n...",       # no agent
    "",               # empty
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


def test_island_task_statistics():
    task = make_island_task()
    demo = task.demo()
    assert demo.horizon == 67
    assert len(demo.sketch) == 16
    assert len(demo.sketch.labels) == 9
    assert task.env().n_actions == 5


def test_gem_task_has_no_repeated_subtasks():
    demo = make_gem_task().demo()
    assert demo.horizon == 22
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


def test_moves_into_one_state_return_one_token_object():
    # the task's memo keeps every token it is given; interned, one per state
    env = GridCraftEnv("...\n.@.\n...")
    env.reset()
    right = env.step(RIGHT)
    env.reset()
    for a in (UP, RIGHT):
        env.step(a)
    assert env.step(DOWN) is right
