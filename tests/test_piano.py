import pytest

from procsearch.envs.piano import (
    N_KEYS, PIECE, PianoEnv, SILENCE, THUMB_DOWN, THUMB_MIN, WRIST_UP,
    key_name, make_piano_task, notes_only_view,
)
from tests.oracles import piano_step


def test_pinned_statistics():
    task = make_piano_task()
    demo = task.demo()
    assert demo.horizon == 86
    assert len(notes_only_view(demo).observations) == 64
    assert len(demo.sketch) == len(PIECE) == 24
    assert len(demo.sketch.labels) == 5
    assert task.env().n_actions == 9


def test_thumb_clamp_is_silent_noop():
    env = PianoEnv(start_wrist=10)
    env.reset()
    for _ in range(3):
        env.step(THUMB_DOWN)
    assert env.thumb == -3
    assert env.step(THUMB_DOWN) == SILENCE
    assert env.thumb == -3


def test_press_sounds_key_under_finger():
    env = PianoEnv(start_wrist=7)
    env.reset()
    tok = env.step(2)  # finger 3, offset +2
    assert tok == key_name(9)
    assert env.wrist == 7  # presses do not move the hand


def test_movement_emits_silence_and_shifts_wrist():
    env = PianoEnv(start_wrist=7)
    env.reset()
    assert env.step(WRIST_UP) == SILENCE
    assert env.wrist == 8


def test_aliasing_two_hand_positions_same_note():
    # state A: wrist 10, thumb 0; state B: wrist 11, thumb -1.
    a = PianoEnv(start_wrist=10)
    a.reset()
    note_a = a.step(0)
    b = PianoEnv(start_wrist=10)
    b.reset()
    assert b.step(WRIST_UP) == SILENCE
    assert b.step(THUMB_DOWN) == SILENCE
    note_b = b.step(0)
    assert note_a == note_b
    assert (a.wrist, a.thumb) != (b.wrist, b.thumb)


def test_demo_is_aliased():
    demo = make_piano_task().demo()
    assert len(set(demo.observations)) < demo.horizon


def test_table_matches_the_arithmetic_on_every_hand_and_action():
    """From every hand position, each action through the memoised `Env.step`
    gives the hand and token of the hand arithmetic."""
    for wrist in range(N_KEYS):
        for thumb in range(THUMB_MIN, 1):
            for a in range(PianoEnv.n_actions):
                env = PianoEnv(start_wrist=wrist)
                env.reset()
                for _ in range(-thumb):
                    env.step(THUMB_DOWN)
                assert (env.wrist, env.thumb) == (wrist, thumb)
                tok = env.step(a)
                assert (env.wrist, env.thumb, tok) == piano_step(wrist, thumb, a)


@pytest.mark.parametrize("start", [-1, N_KEYS, 100])
def test_start_wrist_off_the_keyboard_is_rejected(start):
    with pytest.raises(ValueError, match=repr(start)):
        PianoEnv(start_wrist=start)
