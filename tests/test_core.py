import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import procsearch
from procsearch.core import (
    Demonstration, Sketch, read_demo_file, record_demonstration, spans_from_lengths,
    write_demo_file,
)
from procsearch.envs.scripted import make_chain


def test_chain_demo_recording():
    env, script = make_chain(n_actions=2, horizon=3)
    demo = record_demonstration(env, script)
    assert demo.horizon == 3
    assert demo.observations == ("z1", "z2", "z3")


def test_demonstration_requires_h_at_least_one():
    with pytest.raises(ValueError):
        Demonstration(())


def test_sketch_repeated_labels():
    sk = Sketch(("a", "b", "a", "c"))
    assert sk.labels == ("a", "b", "c")
    assert sk.repeated_labels() == ("a",)
    with pytest.raises(ValueError, match="at least one element"):
        Sketch(())


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
    for header in ("5 3", "H=1 A=2 junk", "H=0 A=2"):
        with pytest.raises(ValueError, match=repr(header)):
            read_demo_file(f"{header}\nz1\n")
    # a token line is one word, as write_demo_file insists; lines count from 1
    for line in ("z1 z2", "  z1", "z1\t"):
        with pytest.raises(ValueError, match=f"line 3: .*{re.escape(repr(line))}"):
            read_demo_file(f"H=2 A=1\nz0\n{line}\n")
    with pytest.raises(ValueError, match=r"line 4: .*'SKETCH  '"):
        read_demo_file("H=1 A=1\n\nz1\nSKETCH  \n")
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("two words",)), 2)
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("z1",), Sketch(("two words",))), 2)
    with pytest.raises(ValueError):
        write_demo_file(Demonstration(("a", "SKETCH")), 2)


@pytest.mark.parametrize("n_actions", [0, -1, True, False, 2.0, "2", None])
def test_write_demo_file_refuses_an_action_count_read_would_refuse(n_actions):
    with pytest.raises(ValueError, match=re.escape(f"got {n_actions!r}")):
        write_demo_file(Demonstration(("z1",)), n_actions)


@pytest.mark.parametrize("text, n, line", [
    ("H=2 A=1\nSKETCH\nz\n", 2, "SKETCH"),  # a bare SKETCH is no observation
    ("H=2 A=1\nz\nSKETCH a\ny\n", 3, "SKETCH a"),
], ids=["bare", "with-labels"])
def test_demo_file_sketch_trailer_only_on_the_last_line(text, n, line):
    reason = f"line {n}: the SKETCH trailer must be the last line: {line!r}"
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_demo_file(text)


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


def test_import_loads_no_numpy():
    # the library depends on the standard library alone
    src = str(Path(procsearch.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, procsearch; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
