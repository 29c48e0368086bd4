"""`Env.burn` against a loop of `step(rng.randrange(n))`, with the standard
library only, so it also runs on interpreters that have no pytest:

    PYTHONPATH=src python tests/burn_check.py

`burn` copies the draws of the running interpreter's `randrange`, so this
checks that copy on each interpreter it runs on: the same state, and the same
generator state afterwards, over a grid of action counts and burn lengths,
from a cold memo and from one that already holds every row the burn walks.
"""

import random
import sys

from procsearch.core import Env

MODULUS = 1_000_003  # a prime, for the trail hash


class Trail(Env):
    """`n` actions; the state hashes the actions taken since the reset, so
    two walks end in the same state only if they took the same actions
    (barring a collision modulo MODULUS)."""

    def __init__(self, n: int):
        super().__init__()
        self.n_actions = n

    def _start(self):
        return 0, "s"

    def _transition(self, state, a):
        state = (state * (self.n_actions + 1) + a + 1) % MODULUS
        return state, "t" if state % 2 else "u"


def burn_matches_randrange(n: int, m: int, seed: int, warm: bool, make=Trail) -> None:
    """Raise AssertionError unless `burn(rng, m)` on `make(n)` ends where `m`
    steps of `rng.randrange(n)` do, with the same rng state afterwards."""
    want, got = make(n), make(n)
    want.reset()
    rng = random.Random(seed)
    for _ in range(m):
        want.step(rng.randrange(n))
    got.reset()
    if warm:  # walk the same draws once, so the burn reads only filled rows
        walk = random.Random(seed)
        for _ in range(m):
            got.step(walk.randrange(n))
        got.reset()
    drawn = random.Random(seed)
    got.burn(drawn, m)
    assert got.state == want.state, (n, m, seed, warm, got.state, want.state)
    assert drawn.getstate() == rng.getstate(), (n, m, seed, warm)


def main(lengths=(0, 1, 2, 3, 7, 31, 64, 200), seeds=(0, 1, 2)) -> int:
    cases = 0
    for n in range(1, 41):
        for m in lengths:
            for seed in seeds:
                for warm in (False, True):
                    burn_matches_randrange(n, m, seed, warm)
                    cases += 1
    return cases


if __name__ == "__main__":
    print(f"burn matches randrange: {main()} cases on Python {sys.version.split()[0]}")
