"""Spans and counters for the traced benchmark run.

`instrument(tracer)` wraps the public functions and methods of each
procsearch module for the duration of a `with` block and restores the
originals afterwards; nothing under `src/` knows it is being traced. Every
wrapped call is a span keyed `<layer>.<name>`. The tracer keeps, per key, the
call count, the inclusive seconds and the self seconds: a span's duration
minus the part of it covered by the spans nested inside it, whatever their
layer. The tracer's own cost falls outside the timed intervals, so it is
charged to the enclosing span's self time; the benchmark reports it as the
tracing overhead.

Counters come from the order in which the wrapped calls arrive:

- Env steps inside a learning run are split by what came before them. After
  a reset the steps replay the confirmed prefix; a step right after a
  `suggest` is the frontier step; after `on_failed` the episode burns out;
  the tabular agents' steps form their own class.
- A suggestion is offered when `suggest` returns an action outside the
  excluded set (so the episode loop takes it); it is confirmed when the next
  suggester event is `on_confirmed`, rejected when it is `on_failed`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# step classes; a step taken in state _AFTER_FRONTIER has no class
_REPLAY, _FRONTIER_NEXT, _AFTER_FRONTIER, _BURN, _TABULAR = range(5)


class Tracer:
    """Span times, call counts, counters and high-water marks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = [[0.0]]  # root frame; each frame holds its children's time
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        # call-order state for the step split and the suggestion hit counts
        self.run_depth = 0
        self.step_class = _REPLAY
        self.pending_offer: str | None = None
        self.step_split = [0] * 5  # steps inside learning runs, by class
        self.step_busy = [0.0]  # seconds inside Env.step

    def wrap(self, key: str, fn, before=None, after=None):
        """`fn` timed as span `key`; `before(args)` and `after(args, result)`
        run outside the timed interval."""
        stack, clock = self._stack, self.clock
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[key] += 1
                total[key] += dur
                self_time[key] += dur - frame[0]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_time.items() if k.startswith(prefix)), 0.0)

    # -- call-order hooks ----------------------------------------------------

    def enter_run(self, tabular: bool):
        def before(args):
            self.run_depth += 1
            self.step_class = _TABULAR if tabular else _REPLAY
            self.pending_offer = None
        return before

    def exit_run(self, args, result):
        self.run_depth -= 1

    def on_reset(self, args, result):
        if self.step_class != _TABULAR:
            self.step_class = _REPLAY

    def wrap_step(self, fn):
        """`Env.step` as a leaf span with the step split inline: it is the
        hottest call, so it skips the generic wrapper's bookkeeping."""
        stack, clock, split = self._stack, self.clock, self.step_split
        busy = self.step_busy

        def traced_step(env, a):
            t0 = clock()
            obs = fn(env, a)
            dur = clock() - t0
            stack[-1][0] += dur
            busy[0] += dur
            if self.run_depth:  # not demo recording or a replay check
                cls = self.step_class
                split[cls] += 1
                if cls == _FRONTIER_NEXT:
                    self.step_class = _AFTER_FRONTIER
            return obs

        traced_step.__wrapped__ = fn
        return traced_step

    def all_counts(self) -> dict[str, int]:
        """The counters plus the step split; absent keys read 0."""
        out = defaultdict(int, self.counts)
        names = ("replay", "frontier", "unclassified", "burn", "tabular")
        out.update({f"envs.{n}_steps": k for n, k in zip(names, self.step_split)})
        out["envs.steps"] = sum(self.step_split)
        return out

    def on_suggest(self, layer: str):
        def after(args, result):
            _, _, excluded = args
            self.counts["search.suggest_calls"] += 1
            self.step_class = _FRONTIER_NEXT
            if result is not None and result not in excluded:
                self.counts[layer + ".offered"] += 1
                self.pending_offer = layer
            else:
                self.pending_offer = None
        return after

    def on_confirmed(self, args, result):
        if self.pending_offer is not None:
            self.counts[self.pending_offer + ".confirmed"] += 1
            self.pending_offer = None

    def on_failed(self, args, result):
        self.step_class = _BURN
        self.pending_offer = None

    def count_if(self, key: str, pred):
        def after(args, result):
            if pred(result):
                self.counts[key] += 1
        return after

    def count_len(self, key: str):
        def after(args, result):
            self.counts[key] += len(result)
        return after

    def high_water(self, measures: dict):
        """Keep, per key, the largest `measure(self_arg)` seen after a call."""
        def after(args, result):
            for key, measure in measures.items():
                v = measure(args[0])
                if v > self.maxima[key]:
                    self.maxima[key] = v
        return after


def _procsearch_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "procsearch" or name.startswith("procsearch."))]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap procsearch's public entry points while the block runs."""
    from procsearch import agents, baselines, core, harness, repeats, search, sketch

    saved = []  # (owner, attribute, original) in patch order

    def patch_method(cls, name, key, before=None, after=None, wrapped=None):
        orig = cls.__dict__[name]
        saved.append((cls, name, orig))
        setattr(cls, name, wrapped or tracer.wrap(key, orig, before, after))

    def patch_function(module, name, key, before=None, after=None):
        orig = getattr(module, name)
        wrapped = tracer.wrap(key, orig, before, after)
        for mod in _procsearch_modules():
            if mod.__dict__.get(name) is orig:
                saved.append((mod, name, orig))
                setattr(mod, name, wrapped)
        for k, v in agents.MODEL_REGISTRY.items():  # the tabular agents are looked up here
            if v is orig:
                saved.append((agents.MODEL_REGISTRY, k, orig))
                agents.MODEL_REGISTRY[k] = wrapped

    t = tracer
    # envs: every environment inherits the contract methods from core.Env
    patch_method(core.Env, "step", "envs.step", wrapped=t.wrap_step(core.Env.step))
    patch_method(core.Env, "reset", "envs.reset", after=t.on_reset)
    patch_function(core, "record_demonstration", "core.demo")
    # search: the episode loop and the no-op suggester hooks (plain bps)
    patch_function(search, "learn", "search.learn", before=t.enter_run(False), after=t.exit_run)
    patch_function(search, "run_episode", "search.run_episode",
                   after=t.count_if("search.episodes", lambda r: not r.dead_end))
    patch_function(search, "backtrack", "search.backtrack")
    patch_method(search.ActionSuggester, "suggest", "search.suggest", after=t.on_suggest("search"))
    patch_method(search.ActionSuggester, "on_confirmed", "search.on_confirmed", after=t.on_confirmed)
    patch_method(search.ActionSuggester, "on_failed", "search.on_failed", after=t.on_failed)
    patch_method(search.ActionSuggester, "on_backtrack", "search.on_backtrack")
    # sketch: suggester boundary, then the pool's forward and backtracking paths
    cls = sketch.SketchPoolSuggester
    patch_method(cls, "suggest", "sketch.suggest", after=t.on_suggest("sketch"))
    patch_method(cls, "on_confirmed", "sketch.suggester_on_confirmed", after=t.on_confirmed)
    patch_method(cls, "on_backtrack", "sketch.on_backtrack")
    pool_marks = t.high_water({"sketch.stored_max": lambda pool: pool.stored_count(),
                               "sketch.seen_max": lambda pool: len(pool.seen)})
    patch_method(sketch.SketchPool, "on_confirmed", "sketch.on_confirmed", after=pool_marks)
    patch_method(sketch.SketchPool, "branch", "sketch.branch",
                 after=t.count_len("sketch.branch_children"))
    patch_method(sketch.SketchPool, "select", "sketch.select")
    patch_method(sketch.SketchPool, "rebuild", "sketch.rebuild", after=pool_marks)
    # repeats: suggester boundary, then the store
    cls = repeats.RepeatPoolSuggester
    patch_method(cls, "suggest", "repeats.suggest", after=t.on_suggest("repeats"))
    patch_method(cls, "on_confirmed", "repeats.suggester_on_confirmed", after=t.on_confirmed)
    patch_method(cls, "on_backtrack", "repeats.on_backtrack")
    patch_method(repeats.RepeatStore, "update", "repeats.update",
                 after=t.high_water({"repeats.candidates_max": lambda store: len(store.counts)}))
    patch_method(repeats.RepeatStore, "rebuild", "repeats.rebuild")
    # baselines: oracle suggester and the tabular agents
    patch_method(baselines.OracleAlignedSuggester, "suggest", "baselines.oracle_suggest",
                 after=t.on_suggest("baselines.oracle"))

    def tabular_done(args, result):
        t.exit_run(args, result)
        t.counts["baselines.tabular_episodes"] += len(result.rows)

    for fn in ("rmax_learn", "ucb_learn"):
        patch_function(baselines, fn, "baselines." + fn,
                       before=t.enter_run(True), after=tabular_done)
    # harness
    patch_method(harness.RunRecord, "csv", "harness.csv")
    try:
        yield tracer
    finally:
        for owner, name, orig in reversed(saved):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
