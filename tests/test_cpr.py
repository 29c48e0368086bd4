from procsearch.envs.cpr import ACTION_NAMES, make_cpr_task
from procsearch.repeats import count_occurrences


def test_cpr_pinned_statistics():
    task = make_cpr_task()
    demo = task.demo()
    assert demo.horizon == 197
    assert task.env().n_actions == 23
    assert len(demo.sketch) == 6
    assert len(demo.sketch.labels) == 2


def test_all_actions_appear_in_script():
    task = make_cpr_task()
    assert set(task.solution) == set(range(len(ACTION_NAMES)))


def test_script_contains_repeated_subsequence():
    task = make_cpr_task()
    body = bytes(task.solution)
    cycle = bytes(task.solution[37:37 + 32])
    assert count_occurrences(body, cycle) >= 2
