"""CPR sequence domain: 23 first-aid actions, one fixed 197-step procedure.

The procedure is a 37-action preparation phase followed by five identical
compression cycles (30 chest compressions plus two rescue breaths), matching
the course-of-action structure taught in standard first-aid training. Every
on-script prefix emits its own token, so the domain is Markov; any deviation
falls into the OFF sink for the rest of the episode.
"""

from __future__ import annotations

from ..core import Task, segments_to_task
from .scripted import ScriptedEnv

ACTION_NAMES = (
    "check_scene", "tap_shoulders", "shout_for_help", "call_emergency",
    "request_aed", "kneel_beside", "open_airway", "lift_chin",
    "check_breathing", "scan_for_bleeding", "expose_chest", "locate_landmark",
    "place_heel", "stack_hands", "interlock_fingers", "lock_elbows",
    "align_shoulders", "compress", "tilt_head", "pinch_nose",
    "seal_mouth", "give_breath", "watch_chest_rise",
)
_ID = {name: i for i, name in enumerate(ACTION_NAMES)}


def _names(*names):
    return tuple(_ID[n] for n in names)


PREP = _names(
    "check_scene", "tap_shoulders", "tap_shoulders", "shout_for_help",
    "shout_for_help", "call_emergency", "request_aed", "kneel_beside",
    "open_airway", "tilt_head", "lift_chin", "check_breathing",
    "check_breathing", "check_breathing", "scan_for_bleeding", "expose_chest",
    "locate_landmark", "place_heel", "stack_hands", "interlock_fingers",
    "lock_elbows", "align_shoulders", "pinch_nose", "seal_mouth",
    "give_breath", "watch_chest_rise", "give_breath", "watch_chest_rise",
    "open_airway", "tilt_head", "lift_chin", "check_breathing",
    "locate_landmark", "place_heel", "stack_hands", "interlock_fingers",
    "lock_elbows",
)
CYCLE = _names(*(["compress"] * 30 + ["give_breath", "give_breath"]))


def cpr_segments():
    return [("prep", PREP)] + [("cycle", CYCLE)] * 5


class CprEnv(ScriptedEnv):
    def __init__(self):
        script = tuple(a for _, seg in cpr_segments() for a in seg)
        tokens = [f"{i + 1:03d}:{ACTION_NAMES[a]}" for i, a in enumerate(script)]
        super().__init__(len(ACTION_NAMES), script, tokens=tokens,
                         start_token="patient_down")


def make_cpr_task() -> Task:
    return segments_to_task("cpr", CprEnv, cpr_segments())
