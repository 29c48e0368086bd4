"""Piano domain: a five-fingered hand on a keyboard, observed only by sound.

Actions: press one of five fingers (sounding the key under it), shift the
whole wrist up or down one key, or move the thumb up or down relative to the
wrist (range clamped at three keys below the hand). Press actions emit the
note token of the struck key; movement actions emit "silence". The agent
never observes the hand position, so the observation space aliases heavily:
every movement looks identical, and the same note can be produced from
several hand positions.

The shipped task plays a 64-note piece assembled from five melodic figures,
several of which repeat back to back.

The latent state is the hand: the 24 x 4 (wrist, thumb) positions are
numbered, so the memo that every env of the task shares holds at most 96
rows, and every token it emits is interned.
"""

from __future__ import annotations

from ..core import Action, Demonstration, Env, Obs, Task, intern_token, segments_to_task

PRESS_1, PRESS_2, PRESS_3, PRESS_4, PRESS_5, WRIST_UP, WRIST_DOWN, THUMB_UP, THUMB_DOWN = range(9)
ACTION_NAMES = ("press_1", "press_2", "press_3", "press_4", "press_5",
                "wrist_up", "wrist_down", "thumb_up", "thumb_down")

N_KEYS = 24
THUMB_MIN = -3
SILENCE = intern_token("silence")

_LETTERS = ("C", "D", "E", "F", "G", "A", "B")
_N_THUMB = 1 - THUMB_MIN  # thumb offsets 0, -1, ..., THUMB_MIN


def key_name(k: int) -> str:
    return f"{_LETTERS[k % 7]}{3 + k // 7}"


NOTES = tuple(intern_token(key_name(k)) for k in range(N_KEYS))


def _hand(wrist: int, thumb: int) -> int:
    return wrist * _N_THUMB - thumb


class PianoEnv(Env):
    n_actions = 9

    def __init__(self, start_wrist: int = 10):
        super().__init__()
        if start_wrist not in range(N_KEYS):
            raise ValueError(f"start_wrist must be in 0..{N_KEYS - 1}, got {start_wrist!r}")
        self.start_wrist = start_wrist

    @property
    def wrist(self) -> int:
        return self.state // _N_THUMB

    @property
    def thumb(self) -> int:
        return -(self.state % _N_THUMB)

    def _start(self) -> tuple[int, Obs]:
        return _hand(self.start_wrist, 0), SILENCE

    def _transition(self, hand: int, a: Action) -> tuple[int, Obs]:
        wrist, thumb = hand // _N_THUMB, -(hand % _N_THUMB)
        if a <= PRESS_5:
            offset = thumb if a == PRESS_1 else a  # finger k sits k - 1 keys up
            return hand, NOTES[min(max(wrist + offset, 0), N_KEYS - 1)]
        if a == WRIST_UP:
            wrist = min(wrist + 1, N_KEYS - 1)
        elif a == WRIST_DOWN:
            wrist = max(wrist - 1, 0)
        elif a == THUMB_UP:
            thumb = min(thumb + 1, 0)
        else:
            thumb = max(thumb - 1, THUMB_MIN)
        return _hand(wrist, thumb), SILENCE


# Melodic figures (fixed action sequences; notes depend on where the hand is)
FIGURES = {
    "triad_wide": (PRESS_1, PRESS_3, PRESS_5),
    "triad_close": (PRESS_1, PRESS_2, PRESS_4),
    "rise": (WRIST_UP, PRESS_1, PRESS_3, PRESS_5),
    "fall": (WRIST_DOWN, PRESS_1, PRESS_2, PRESS_4),
    "turn": (THUMB_DOWN, PRESS_1, THUMB_UP, PRESS_1),
}

PIECE = (
    "triad_wide", "triad_wide", "turn", "turn", "triad_close", "triad_close",
    "rise", "triad_wide", "turn", "fall", "triad_close", "turn",
    "rise", "triad_wide", "turn", "fall", "triad_close", "turn",
    "rise", "triad_wide", "turn", "fall", "triad_wide", "turn",
)


def piano_segments():
    return [(name, FIGURES[name]) for name in PIECE]


def make_piano_task() -> Task:
    return segments_to_task("piano", PianoEnv, piano_segments())


def notes_only_view(demo: Demonstration) -> Demonstration:
    """Sensitivity helper: the demonstration with movement silences dropped.

    Only the full per-action trace is runnable (one observation per action);
    this view exists to report note-count statistics alongside it.
    """
    notes = tuple(t for t in demo.observations if t != SILENCE)
    return Demonstration(notes, demo.sketch)

