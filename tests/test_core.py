import pytest
from hypothesis import example, given, settings, strategies as st

from procsearch.core import (
    ContractViolation, Demonstration, Sketch, read_demo_file,
    record_demonstration, spans_from_lengths, write_demo_file,
)
from procsearch.envs.scripted import OFF_TOKEN, ScriptedEnv, make_chain


def test_chain_demo_recording():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    assert demo.horizon == 3
    assert demo.observations == ("z1", "z2", "z3")


def test_reset_returns_start_token_not_in_demo():
    env, script = make_chain()
    demo = record_demonstration(env, script)
    assert env.reset() == "S0"
    assert "S0" not in demo.observations


def test_step_before_reset_rejected():
    env, _ = make_chain()
    with pytest.raises(ContractViolation):
        env.step(0)


def test_invalid_action_id_rejected():
    env, _ = make_chain(n_actions=2)
    env.reset()
    with pytest.raises(ContractViolation):
        env.step(2)
    with pytest.raises(ContractViolation):
        env.step(-1)


def test_demonstration_requires_h_at_least_one():
    with pytest.raises(ValueError):
        Demonstration(())


def test_sketch_repeated_labels():
    sk = Sketch(("a", "b", "a", "c"))
    assert sk.labels == ("a", "b", "c")
    assert sk.repeated_labels() == ("a",)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_determinism_two_runs_identical(actions):
    env = ScriptedEnv(3, (0, 1, 2, 0, 1), tokens=list("abcde"))
    env.reset()
    first = [env.step(a) for a in actions]
    env.reset()
    second = [env.step(a) for a in actions]
    assert first == second


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=20))
def test_observation_space_closure(actions):
    env, script = make_chain(n_actions=2, horizon=5)
    demo = record_demonstration(env, script)
    allowed = set(demo.observations) | {"S0", OFF_TOKEN}
    env.reset()
    for a in actions:
        assert env.step(a) in allowed


def test_demo_file_round_trip():
    env, script = make_chain(n_actions=2, horizon=3)
    sketch = Sketch(("hop", "skip"))
    demo = record_demonstration(env, script, sketch)
    text = write_demo_file(demo, env.n_actions)
    lines = text.splitlines()
    assert lines[0] == "H=3 A=2"
    assert lines[-1] == "SKETCH hop skip"
    parsed, n_actions = read_demo_file(text)
    assert parsed == demo
    assert n_actions == 2


def test_demo_file_without_sketch():
    env, script = make_chain()
    demo = record_demonstration(env, script)
    parsed, _ = read_demo_file(write_demo_file(demo, env.n_actions))
    assert parsed.sketch is None
    assert parsed.observations == demo.observations


def test_demo_file_bad_inputs():
    with pytest.raises(ValueError):
        read_demo_file("")
    with pytest.raises(ValueError):
        read_demo_file("H=2 A=1\nz1\n")  # count mismatch
    with pytest.raises(ValueError):
        read_demo_file("garbage\nz1\n")
    with pytest.raises(ValueError):
        read_demo_file("H=1 A=0\nz1\n")
    # the header is exactly H=<int> A=<int>, quoted when it is not
    for header in ("5 3", "H=1 A=2 junk"):
        with pytest.raises(ValueError, match=repr(header)):
            read_demo_file(f"{header}\nz1\n")
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("two words",)), 2)
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("z1",), Sketch(("two words",))), 2)
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("a", "SKETCH")), 2)


_TOKEN = st.text(min_size=1, max_size=8).filter(lambda t: t.split() == [t] and t != "SKETCH")


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKEN, min_size=1, max_size=6),
       st.none() | st.lists(_TOKEN, min_size=1, max_size=4), st.integers(1, 50))
@example(["a", "SKETCHy"], None, 2)
def test_demo_file_round_trip_any_tokens(tokens, labels, n_actions):
    sketch = None if labels is None else Sketch(tuple(labels))
    demo = Demonstration(tuple(tokens), sketch)
    assert read_demo_file(write_demo_file(demo, n_actions)) == (demo, n_actions)


def test_spans_from_lengths():
    assert spans_from_lengths([3, 1, 2]) == ((0, 3), (3, 4), (4, 6))
    with pytest.raises(ValueError):
        spans_from_lengths([1, 0])
