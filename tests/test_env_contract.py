"""Task-level contract: what the search reads of every registered task.

Each property below runs on every entry of `ENV_REGISTRY` (the Markov one
on those listed in `MARKOV`), so a task added there is covered without a
test of its own:

- the solution replays the recorded demonstration, whose horizon is the
  solution's length;
- a task with a sketch has an alignment that tiles [0, H), one span per
  sketch element, and every span of one label holds the same actions; a
  task without a sketch has no alignment;
- on a Markov task the start token and the demonstrated tokens are
  pairwise distinct, so each token names its position.

`test_reset_tokens` pins three start tokens. The step-level properties (the
domain rule, the step contract, the memo) are in `tests/test_env_memo.py`.
"""

import pytest

from procsearch.envs import ENV_REGISTRY, make_task

MARKOV = ("chain", "scripted", "island", "gem", "cpr")


@pytest.mark.parametrize("name", sorted(ENV_REGISTRY))
def test_demonstrations_are_realizable(name):
    task = make_task(name)
    env = task.env()
    demo = task.demo()
    env.reset()
    assert [env.step(a) for a in task.solution] == list(demo.observations)
    assert demo.horizon == len(task.solution)


@pytest.mark.parametrize("name", sorted(ENV_REGISTRY))
def test_alignment_tiles_the_demo_and_each_label_holds_one_content(name):
    task = make_task(name)
    if task.sketch is None:
        assert task.alignment is None
        return
    spans = task.alignment
    ends = [0, *(e for _, e in spans)]
    assert spans == tuple(zip(ends, ends[1:]))  # contiguous from 0
    assert ends == sorted(set(ends)) and ends[-1] == task.demo().horizon  # non-empty, to H
    assert len(spans) == len(task.sketch)
    contents = {}
    for (s, e), label in zip(spans, task.sketch.elements):
        assert contents.setdefault(label, task.solution[s:e]) == task.solution[s:e]


@pytest.mark.parametrize("name", MARKOV)
def test_markov_start_and_demo_tokens_are_pairwise_distinct(name):
    task = make_task(name)
    tokens = (task.env().reset(), *task.demo().observations)
    assert len(set(tokens)) == len(tokens)


def test_reset_tokens():
    assert make_task("chain").env().reset() == "S0"
    assert make_task("piano").env().reset() == "silence"
    island = make_task("island").env()
    tok = island.reset()
    # the start token is the canonical serialization of the loaded map
    assert tok == island._token(island.state)
    assert "WWW" in tok and "~~~~" in tok
