"""Reference loops that track the machine's speed during a benchmark run.

On a shared host the same deterministic work can take up to 1.7 times as
long for seconds to minutes at a time, in CPU seconds as well as wall
seconds, because other tenants load the CPU caches and cores the process
runs on. The benchmark therefore probes three fixed loops, which belong to
the benchmark and not to procsearch, before every measured run. Each loop
does a kind of work procsearch's learning runs do a lot of:

- `chain`: small function calls and tuple-keyed dict lookups and inserts;
- `objects`: allocating small objects and calling their methods;
- `arrays`: a backward induction over a small integer table with numpy,
  shaped like the tabular baselines' replanning.

A probe times each loop in CPU seconds with the garbage collector off, so
the objects the program keeps alive do not change it. `Calibration.speed`
returns the machine's speed around a run: the geometric mean, over a set of
loops, of `NOMINAL_S[loop]` over the faster of the probes just before and
just after the run. A plan agent's run is scaled by all three loops
(`PLAN_LOOPS`). A tabular baseline's run is mostly small numpy operations,
which slow down less than interpreted code on a loaded host, so it is scaled
by `arrays` alone (`NUMPY_LOOPS`). The speed is 1.0 at the nominal speed,
which is about how fast a 2-CPU Xeon VM runs the loops when its neighbours
are idle. A run's CPU seconds times that speed are its seconds at the
nominal speed.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

import numpy as np

# CPU seconds of each loop at the nominal speed
NOMINAL_S = {"chain": 0.0012, "objects": 0.0025, "arrays": 0.0029}
PLAN_LOOPS = ("chain", "objects", "arrays")
NUMPY_LOOPS = ("arrays",)
# The set-up is measured in fresh processes, mostly interpreter start-up and
# imports, which slow down on a loaded host much less than the loops above.
# It is scaled instead by a start-up probe: a fresh interpreter that imports
# numpy and prints its CPU seconds, which take STARTUP_NOMINAL_S at the
# nominal speed.
STARTUP_PROBE = "import json, time, numpy; print(json.dumps({'cpu_s': time.process_time()}))"
STARTUP_NOMINAL_S = 0.14

_TABLE = np.random.default_rng(1).integers(-2, 120, size=(120, 4))


def _chain(rounds: int = 6000) -> int:
    table: dict = {}
    path: list = []
    state = acc = 0
    for i in range(rounds):
        key = (state, i % 3)
        nxt = table.get(key)
        if nxt is None:
            nxt = table[key] = (state * 31 + (i % 3) * 7 + 1) % 1009
        state = nxt
        path.append(state)
        if len(path) == 60:
            acc = (acc + sum(path)) & 0xFFFF
            path.clear()
    return acc + len(table)


class _Cell:
    __slots__ = ("a", "b", "last")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.last = a, b, None

    def step(self, x: int):
        self.last = (self.a + x, self.b)
        return self.last


def _objects(rounds: int = 8000) -> int:
    out = []
    for i in range(rounds):
        out.append(_Cell(i, i & 7).step(i)[0])
    return len(out)


def _arrays(horizon: int = 240) -> float:
    trans = _TABLE
    known = trans != -1
    nxt = np.clip(trans, 0, None)
    on_table = trans >= 0
    reward = (trans == 3).astype(float)
    v = np.zeros((horizon + 1, len(trans)))
    for t in range(horizon - 1, -1, -1):
        cont = np.where(on_table, v[t + 1][nxt], 0.0)
        q = np.where(known, reward + cont, float(horizon - t))
        v[t] = q.max(axis=1)
    return float(v[0].sum())


LOOPS = {"chain": _chain, "objects": _objects, "arrays": _arrays}


class Calibration:
    """Probes of the reference loops, each with the wall time it ended at."""

    def __init__(self, clock=time.perf_counter, cpu=time.process_time):
        self.clock, self.cpu = clock, cpu
        self.at: list[float] = []
        self.probes: list[dict[str, float]] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = {}
            for name, loop in LOOPS.items():
                t0 = self.cpu()
                loop()
                times[name] = self.cpu() - t0
        finally:
            if enabled:
                gc.enable()
        self.at.append(self.clock())
        self.probes.append(times)

    def speed(self, t0: float, t1: float, loops=PLAN_LOOPS) -> float:
        """Speed around a run from wall time t0 to t1, from the last probe
        that ended by t0 and the first that ended after t1. The run is
        timed between the two, so they see the machine as it ran."""
        if not self.probes:
            raise ValueError("no probes taken")
        before = max(bisect.bisect_right(self.at, t0) - 1, 0)
        after = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        return self._speed(self.probes[before:after + 1:max(after - before, 1)], loops)

    def typical_speed(self) -> float:
        """Median speed of single probes, for the report."""
        return statistics.median(self._speed([p], PLAN_LOOPS) for p in self.probes)

    @staticmethod
    def _speed(probes, loops) -> float:
        logs = [math.log(NOMINAL_S[name] / min(p[name] for p in probes)) for name in loops]
        return math.exp(sum(logs) / len(logs))
