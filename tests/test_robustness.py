"""Stress the full agent stack on random aliased environments.

The sketches here are arbitrary labelings, so most hypotheses are garbage;
whatever the suggesters do, the search must still terminate with a plan
that reproduces the demonstration, across backtracks and pool rebuilds.
"""

import random

import pytest

from procsearch.core import Demonstration, Sketch, record_demonstration
from procsearch.envs.scripted import random_aliased_env
from procsearch.repeats import RepeatPoolSuggester
from procsearch.search import UniformSuggester, learn, replay_matches
from procsearch.sketch import SketchPoolSuggester
from tests.oracles import is_consistent


def random_sketch(rng, horizon):
    n_labels = rng.randrange(1, 5)
    labels = [f"s{k}" for k in range(n_labels)]
    length = rng.randrange(1, max(2, horizon))
    return Sketch(tuple(rng.choice(labels) for _ in range(length)))


@pytest.mark.parametrize("agent", ["sketch", "repeats", "bps"])
def test_agents_sound_on_random_aliased_envs(agent):
    rng = random.Random({"sketch": 99, "repeats": 77, "bps": 55}[agent])
    for i in range(40):
        n_actions = rng.choice((2, 3))
        horizon = rng.randrange(3, 41)
        env, script = random_aliased_env(rng, n_actions, horizon)
        base = record_demonstration(env, script)
        demo = Demonstration(base.observations, random_sketch(rng, horizon))
        if agent == "sketch":
            suggester = SketchPoolSuggester(demo.sketch, demo.horizon,
                                            n_active=rng.choice((1, 2, 4)))
        elif agent == "repeats":
            suggester = RepeatPoolSuggester()
        else:
            suggester = UniformSuggester()
        rep = learn(env, demo, suggester, random.Random(i), budget=300000)
        assert rep.complete, f"instance {i} did not terminate"
        assert replay_matches(env, demo, rep.plan), f"instance {i} unsound"


def test_sketch_agent_survives_heavy_backtracking():
    # aliased envs with tiny token alphabets force repeated dead ends; the
    # pool must rebuild consistently after each unroll
    rng = random.Random(123)
    total_backtracks = 0
    for i in range(15):
        env, script = random_aliased_env(rng, n_actions=2, horizon=8, n_tokens=2)
        base = record_demonstration(env, script)
        demo = Demonstration(base.observations, random_sketch(rng, 8))
        sug = SketchPoolSuggester(demo.sketch, demo.horizon, n_active=2)
        rep = learn(env, demo, sug, random.Random(i), budget=300000)
        assert rep.complete
        assert replay_matches(env, demo, rep.plan)
        total_backtracks += rep.backtracks
        for h in sug.pool.active:
            assert is_consistent(h, rep.plan)
    assert total_backtracks > 0  # the batch genuinely exercised unrolling
