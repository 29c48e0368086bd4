"""Sketch-hypothesis exploration.

A hypothesis is a partial map from sketch labels to action subsequences plus
an alignment of consumed sketch elements onto plan positions. Alignments mix
exact segments (for elements whose label has an assignment) with ambiguous
region blocks: a region covers a known span of the plan with several
unassigned elements whose individual boundaries are not yet pinned. As the
plan grows a hypothesis advances like an automaton: inside an assigned
element it predicts (and can be refuted by) the next action; otherwise it
sits in an open run of elements it absorbs without claims.

New assignments come only from consistent evidence. The first repeated label
without an assignment (the "main" label) gets a candidate content exactly
when that content has visibly repeated, with the repeat ending at the end of
the plan: one child per candidate (content length, first-occurrence
position). Closing the stretch up to the repeat also closes the elements
before and between the two occurrences; a stretch of exactly one element has
its content immediately implied and assigned, a longer stretch stays an
ambiguous region. Separately, a hypothesis whose open run is followed by an
already-assigned element spawns a child that enters that element as soon as
the arriving action could be its first action: those children are the
distinct resolutions of an ambiguous alignment.

Ranking and selection use the effective score: the sum of assigned
subtask lengths over the remaining sketch, plus, when the
optimistic rule has a live match, the savings its hypothesized main-label
content would add. The assignment-free blank hypothesis permanently holds
one of the N1 tracked slots: it cannot be contradicted, it regenerates
candidates, and it guarantees the agent degenerates to plain backtracking
search when no structure matches (with N1=1 the agent tracks nothing but
the blank and runs on optimism alone). The remaining slots go to the best
scorers; everything else is frozen: stored, up to a memory cap, and never
revived. Only tracked hypotheses are updated, branch, and suggest, so a
small active set genuinely loses information: hypotheses frozen out miss
their branching windows. A hypothesis whose suggestion misses merely
becomes ineligible at that position (the action lands in the frontier's
failed set); it is eliminated only when a confirmed action contradicts its
alignment.

The pool never changes a hypothesis it holds; a confirmation advances
copies of the active ones, which share their assignments and closed blocks
with the originals. So the checkpoint each confirmation saves for its plan
length shares those hypotheses: the active set, the length of the frozen
list, the ranking of the active suggestions, the length of the plan's
longest suffix that also occurs earlier in it, and the count of hypotheses
adopted along the plan, which gives the next one its age. The latest one is
the pool's state. No branch or claim can match a longer repeat than that
suffix, so that one length, found once per confirmation, caps both length
loops. The repeat site depends on the alignment alone, so a copy keeps its
memos of it, the score and the next assigned element while its open run
absorbs the action. The frozen list only grows at its tail; it grows only
while the active set is full, when its cap is at its lowest, so the cap only
ever drops hypotheses frozen by the same confirmation. A backtrack only cuts
the plan short, so it cuts the checkpoints and the frozen list back to the
new length, instead of replaying the plan from the start or ranking again.

Nothing of this reads an observation: a checkpoint is a function of the plan
and the pool's settings. So a store keyed by the plan keeps each one once,
with the hypotheses its confirmation froze; pools with the same settings may
share a store, and a confirmation whose plan is stored takes that checkpoint
instead of computing it, adopting nothing. A backtrack pops the plans it
cuts, which the search never confirms again, so a shared store keeps the
live chain and the parts of earlier runs' chains that no later run cut.
Stored hypotheses outlive their run, so a pool gives equal assigned contents
one tuple: after the benchmark's `structured` workload the stored hypotheses
assign 4,730 contents with 445 distinct values.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .core import Action, Sketch
from .search import ActionSuggester, PartialPlan


_UNSET = object()  # a memo not computed yet


def repeated_suffix(pb: bytes, bound: int) -> int:
    """Length of the longest suffix of plan `pb` that also occurs inside
    `pb[:-1]`, known to be at most `bound`. A suffix of a repeated suffix
    repeats too, so the first length found from `bound` down is the answer."""
    t = len(pb)
    for ln in range(min(bound, t - 1), 0, -1):
        if pb.find(pb[t - ln:], 0, t - 1) != -1:
            return ln
    return 0


@cache
def _repeats(sketch: tuple[str, ...]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Each repeated label, in sketch order, with its element indices."""
    return tuple((lbl, tuple(j for j, x in enumerate(sketch) if x == lbl))
                 for lbl in Sketch(sketch).repeated_labels())


class Hypothesis:
    """One partial sketch instantiation with a concrete-enough alignment.

    layout holds closed blocks as (elem_lo, elem_hi, pos_lo, pos_end) in
    element order; single-element blocks of assigned labels are exact
    segments, multi-element blocks are ambiguous regions. The open state is
    either mode A (inside element `elem`, `offset` actions consumed of its
    assignment) or an open run starting at element `run_elem` that has
    absorbed the plan since position `run_pos0`. `_site`, `_score` and
    `_next` memoise `_repeat_site`, `score` and `_next_assigned`. None of them
    reads `consumed`, the only thing an open run that absorbs an action
    changes, so `advance` keeps them there; a step inside an assigned
    element drops the score, and `_enter` drops all three. `_copy` carries
    them: a branch or run-split child changes its alignment only through
    `_close_region`, which reads no memo, then calls `_enter`. Such a child
    gets its own `assigned` and `layout`; a copy to advance shares them,
    since `advance` rebinds `layout` and never writes `assigned`.
    """

    __slots__ = ("sketch", "assigned", "layout", "elem", "offset",
                 "run_elem", "run_pos0", "consumed", "created", "_site", "_score", "_next")

    def __init__(self, sketch: tuple[str, ...], assigned: dict, layout: list,
                 consumed: int, created: int = 0):
        self.sketch = sketch
        self.assigned = assigned
        self.layout = layout
        self.consumed = consumed
        self.created = created
        self.elem = 0
        self.offset = 0
        self.run_elem: int | None = None
        self.run_pos0 = 0
        self._site = self._score = self._next = _UNSET

    @classmethod
    def blank(cls, sketch: tuple[str, ...]) -> "Hypothesis":
        h = cls(sketch, {}, [], 0)
        h._enter(0, 0)
        return h

    # -- alignment automaton ------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.elem >= len(self.sketch)

    def _enter(self, j: int, pos: int) -> None:
        self.elem = j
        self.offset = 0
        self._site = self._score = self._next = _UNSET
        if j >= len(self.sketch):
            self.run_elem = None
            return
        if self.sketch[j] in self.assigned:
            self.run_elem = None
        else:
            self.run_elem = j
            self.run_pos0 = pos

    def advance(self, a: Action) -> bool:
        """Consume one confirmed plan action; False means the hypothesis now
        contradicts the plan and must be eliminated."""
        if self.is_complete:
            return False  # alignment claims the procedure already ended
        if self.run_elem is not None:
            self.consumed += 1
            return True
        content = self.assigned[self.sketch[self.elem]]
        if a != content[self.offset]:
            return False
        self._score = _UNSET
        self.offset += 1
        self.consumed += 1
        if self.offset == len(content):
            # a rebind, not an append: a copy to advance shares the list
            self.layout = [*self.layout, (self.elem, self.elem, self.consumed - len(content),
                                          self.consumed)]
            self._enter(self.elem + 1, self.consumed)
        return True

    def key(self):
        return (tuple(sorted(self.assigned.items())), tuple(self.layout),
                self.elem, self.offset, self.run_elem, self.run_pos0, self.consumed)

    def _copy(self, share: bool = False) -> "Hypothesis":
        """A copy with this one's memos; with `share`, a copy to `advance`,
        which shares `assigned` and `layout` with this one."""
        h = Hypothesis(self.sketch, self.assigned if share else dict(self.assigned),
                       self.layout if share else list(self.layout), self.consumed,
                       self.created)
        h.elem, h.offset = self.elem, self.offset
        h.run_elem, h.run_pos0 = self.run_elem, self.run_pos0
        h._site, h._score, h._next = self._site, self._score, self._next
        return h

    # -- scoring (maximum future reduction in learning time) -----------------

    def score(self) -> int:
        if self._score is _UNSET:
            self._score = self._find_score()
        return self._score

    def _find_score(self) -> int:
        if self.is_complete:
            return 0
        if self.run_elem is not None:
            start = self.run_elem
        else:
            start = self.elem + (1 if self.offset > 0 else 0)
        assigned = self.assigned
        return sum(len(assigned[lbl]) for lbl in self.sketch[start:] if lbl in assigned)

    # -- structural helpers ----------------------------------------------------

    def _min_span(self, lo: int, hi: int) -> int:
        """Minimum plan positions elements lo..hi-1 can occupy."""
        total = 0
        for j in range(lo, hi):
            lbl = self.sketch[j]
            total += len(self.assigned[lbl]) if lbl in self.assigned else 1
        return total

    def _regions_fit(self, lbl: str, j: int) -> bool:
        """Whether every ambiguous region still fits its elements once `lbl`, at
        element j, has content. Stretches close in element order, so only an
        occurrence before j or before the open run can lie in one closed earlier."""
        sketch = self.sketch
        return (sketch.index(lbl) == j and lbl not in sketch[j + 1:self.run_elem]) or all(
            end - lo >= self._min_span(a, b + 1) for a, b, lo, end in self.layout if b > a)

    def _next_assigned(self) -> int | None:
        """The first element after the open run's first one whose label has
        an assignment, or None."""
        if self._next is _UNSET:
            assigned, sketch = self.assigned, self.sketch
            self._next = next((j for j in range(self.run_elem + 1, len(sketch))
                               if sketch[j] in assigned), None)
        return self._next

    def _repeat_site(self):
        """Where the main label m's first occurrence j1 could lie if its
        occurrence `rep` at or after the open run is repeating now, from the
        alignment alone: (m, j1, rep, lo, hi_base, mid_min, lo_rep, n_rep), or
        None. j1 starts at `lo` or later and, with content length ln, at
        `hi_base - ln` or earlier (None: in the open run, unconstrained); the
        elements between the occurrences take `mid_min` positions or more;
        `rep` starts at `lo_rep` or later; m occurs `n_rep` times from `rep` on."""
        if self._site is _UNSET:
            self._site = self._find_repeat_site()
        return self._site

    def _find_repeat_site(self):
        run_elem = self.run_elem
        if run_elem is None:
            return None
        for m, occ in _repeats(self.sketch):  # m: first one unassigned
            if m not in self.assigned:
                break
        else:
            return None
        j1 = occ[0]
        k = next((k for k in range(1, len(occ)) if occ[k] >= run_elem), None)
        if k is None:
            return None
        rep = occ[k]
        if j1 >= run_elem:
            lo, hi_base = self.run_pos0 + self._min_span(run_elem, j1), None
        else:
            # j1 lies in a closed block, an ambiguous region: a one-element
            # block's label is assigned, and m is not
            elem_lo, elem_hi, pos_lo, pos_end = next(
                block for block in self.layout if block[0] <= j1 <= block[1])
            lo = pos_lo + self._min_span(elem_lo, j1)
            hi_base = pos_end - self._min_span(j1 + 1, elem_hi + 1)
        return (m, j1, rep, lo, hi_base, self._min_span(j1 + 1, rep),
                self.run_pos0 + self._min_span(run_elem, rep), len(occ) - k)

    # -- suggestion -----------------------------------------------------------

    def optimistic_claim(self, pb: bytes, bound: int):
        """In an open run, interpret the plan suffix as an in-progress repeat
        of the main label: its first occurrence started as long ago as the
        alignment allows and is repeating right now. Returns the continuation
        action, the assumed content length, and how many times the main
        label occurs from the repeat on. `bound` is `repeated_suffix` of
        `pb`: every match ends before the repeat, which starts before the
        plan's end, so no longer repeat can match.
        """
        if self.consumed == self.run_pos0 or bound < 1:
            return None  # an empty run holds no repeat yet: r_hi below is <= 0
        site = self._repeat_site()
        if site is None:
            return None
        _, j1, _, lo, hi_base, mid_min, lo_rep, n_rep = site
        t = self.consumed
        r_hi = t - lo_rep
        if hi_base is not None and r_hi >= hi_base - lo:
            # a region-buried first occurrence is only reasoned about while
            # the in-progress repeat could still fit the region entirely
            return None
        at_run = j1 == self.run_elem  # a first occurrence there starts at lo
        # the first window of length r + 1 is non-empty exactly for r up to
        # here; its region bound, r <= hi_base - 1 - lo, follows from r <= r_hi
        for r in range(min(r_hi, (t - mid_min - 1 - lo) // 2, bound), 0, -1):
            s2 = t - r
            # the last start of the first window of length r + 1, plus r
            end = lo + r if at_run else s2 - mid_min - 1
            if hi_base is not None and hi_base - 1 < end:
                end = hi_base - 1
            p = pb.find(pb[s2:t], lo, end)
            if p != -1:
                return pb[p + r], s2 - mid_min - p, n_rep
        return None

    def proposal(self, pb: bytes, bound: int, optimistic: bool = True):
        """(suggested action, effective score), or None without a claim.

        Inside an assigned element the action is read off the assignment and
        the effective score is the base score; in an open run the optimistic
        rule (when on) answers, and the score adds the reduction its
        hypothesized main-label content would bring. `bound` is
        `repeated_suffix` of `pb`.
        """
        if self.is_complete:
            return None
        if self.run_elem is None:
            return self.assigned[self.sketch[self.elem]][self.offset], self.score()
        if not optimistic:
            return None
        claim = self.optimistic_claim(pb, bound)
        if claim is None:
            return None
        a, length, n_rep = claim
        return a, self.score() + n_rep * length

    def suggest(self, pb: bytes, optimistic: bool = True) -> Action | None:
        """Next action according to this hypothesis, None if it has no claim."""
        got = self.proposal(pb, repeated_suffix(pb, len(pb)), optimistic)
        return None if got is None else got[0]


class SketchPool:
    """Active/frozen hypothesis bookkeeping for one learning run.

    `store` maps a plan's bytes to what confirming it computed: (its
    checkpoint, the hypotheses it froze after the memory cap, the most
    children one parent had). The pool's state is a function of the plan and
    of the settings, so pools with the same sketch, horizon, `n_active` and
    `optimistic` may share one store. Without a store the pool keeps a
    private one. A confirmation whose plan is in the store takes the stored
    checkpoint and adopts nothing, so `seen` is left empty; a rebuild pops
    the plans it cuts, so a private store holds exactly the plan's prefixes,
    and a shared one the live chain and the chains of earlier runs that no
    later run cut. Nothing writes a stored hypothesis.
    """

    def __init__(self, sketch: Sketch, horizon: int, n_active: int = 4,
                 optimistic: bool = True, store: dict[bytes, tuple] | None = None):
        if n_active < 1:
            raise ValueError("need at least one active hypothesis slot")
        self.n_active = n_active
        self.optimistic = optimistic
        self.mem_cap = max(16, 4 * horizon * horizon)
        self.branch_cap = max(1, horizon // 2)
        self.store = {} if store is None else store
        self._contents: dict[bytes, tuple] = {}  # one tuple per distinct assigned content
        self.frozen: list[Hypothesis] = []
        self.plan = b""  # the plan of the latest confirmation or rebuild
        # keys adopted by the latest confirmation; older keys cannot recur,
        # since a child adopted at plan length t has consumed == t
        self.seen: set = set()
        # hypotheses adopted along the plan: the age that orders ties in
        # `_rank`, and a function of the plan, since a rebuild restores it
        self._created = 0
        self.max_branch_per_parent = 0  # high-water mark, for property tests
        # checkpoints[d]: the state after confirming the plan's first d actions,
        # for d up to its length: (the active hypotheses, the blank first,
        # len(frozen), select's ranking of (hypothesis, claimed action) pairs,
        # repeated_suffix of the plan, _created)
        self.checkpoints: list[tuple[list[Hypothesis], int, list, int, int]] = [
            ([Hypothesis.blank(tuple(sketch.elements))], 0, [], 0, 0)]

    @property
    def active(self) -> list[Hypothesis]:
        """The tracked hypotheses of the latest checkpoint, the blank first."""
        return self.checkpoints[-1][0]

    @staticmethod
    def _rank(h: Hypothesis, got) -> tuple:
        """Sort key of `h` with proposal `got`: higher effective score first
        (without a claim, the base score, which a claim never lowers), then
        more assigned labels, then the older hypothesis."""
        return (-(h.score() if got is None else got[1]), -len(h.assigned), h.created)

    def _proposals(self, hypotheses, pb: bytes, bound: int) -> list[tuple]:
        """(rank, h, proposal) for each h of `hypotheses`, best rank first;
        `bound` is `repeated_suffix` of `pb`."""
        return sorted(((self._rank(h, got), h, got) for h in hypotheses
                       for got in [h.proposal(pb, bound, self.optimistic)]), key=itemgetter(0))

    def stored_count(self) -> int:
        return len(self.active) + len(self.frozen)

    def _adopt(self, child: Hypothesis) -> Hypothesis | None:
        k = child.key()
        if k in self.seen:
            return None
        self.seen.add(k)
        self._created += 1
        child.created = self._created
        return child

    def _content(self, b: bytes) -> tuple:
        """`tuple(b)`, the same object for equal contents, so that the many
        hypotheses that assign one content share it."""
        content = self._contents.get(b)
        if content is None:
            content = self._contents[b] = tuple(b)
        return content

    def _close_region(self, child: Hypothesis, pb: bytes, elem_lo: int, elem_hi: int,
                      pos_lo: int, pos_end: int) -> bool:
        """Close elements elem_lo..elem_hi over plan span [pos_lo, pos_end).

        Empty stretches must close an empty span; a single element has its
        content immediately implied (and must agree with any existing
        assignment, or as a new one leave every region wide enough); longer
        stretches stay ambiguous regions. Every caller passes a span at least
        the elements' minimum, so a single element's span is never empty.
        """
        n = elem_hi - elem_lo + 1
        if n <= 0:
            return pos_lo == pos_end
        if n == 1:
            content = self._content(pb[pos_lo:pos_end])
            lbl = child.sketch[elem_lo]
            if lbl in child.assigned:
                if child.assigned[lbl] != content:
                    return False
            else:
                child.assigned[lbl] = content
                if not child._regions_fit(lbl, elem_lo):
                    return False
            child.layout.append((elem_lo, elem_lo, pos_lo, pos_end))
            return True
        if pos_end - pos_lo < child._min_span(elem_lo, elem_hi + 1):
            return False
        child.layout.append((elem_lo, elem_hi, pos_lo, pos_end))
        return True

    # -- hypothesis creation ---------------------------------------------------

    def branch(self, parent: Hypothesis, pb: bytes, bound: int) -> list[Hypothesis]:
        """Children of `parent` given that the newest plan action completed a
        repeat of the main label at the end of the plan: one child per
        feasible (content length, first-occurrence position). Each splits the
        block holding the first occurrence (the open run up to the repeat is
        one more block) and pins the repeat; a first occurrence buried in a
        closed ambiguous region needs a run short enough that every candidate
        content fits the region (same recency gate as the optimistic rule).
        `bound` is `repeated_suffix` of `pb`: every match ends by
        s2 - mid_min < t, so no longer content can match.
        """
        t = parent.consumed
        longest = (t - parent.run_pos0) // 2
        if longest < 1 or bound < 1:
            return []  # no repeat fits the run yet, or none has occurred
        site = parent._repeat_site()
        if site is None:
            return []
        m, j1, rep, lo_first, hi_base, mid_min, lo_rep, _ = site
        if (hi_base is not None and longest > hi_base - lo_first) or rep == parent.run_elem:
            # a repeat that opens the run (first occurrence in a closed
            # region) must start at run_pos0, but every s2 = t - ln lies past it
            return []
        # nothing lies between the occurrences in the open run, so the first
        # one can only start at s2 - ln, the end of its window
        adjacent = rep == j1 + 1 and j1 >= parent.run_elem
        at_run = j1 == parent.run_elem  # a first occurrence there starts at lo_first
        children: list[Hypothesis] = []
        # exactly these lengths have s2 = t - ln >= lo_rep and a first window;
        # its region bound, ln <= hi_base - lo_first, holds for ln <= longest
        top = min(longest, t - lo_rep, (t - mid_min - lo_first) // 2, bound)
        # longest candidate content first: most informative, most falsifiable
        for ln in range(top, 0, -1):
            if len(children) >= self.branch_cap:
                break
            s2 = t - ln
            # the first window [lo, hi] of length ln
            lo = hi = lo_first
            if not at_run:
                hi = s2 - mid_min - ln
                if hi_base is not None and hi_base - ln < hi:
                    hi = hi_base - ln
            if adjacent:
                if hi != s2 - ln:
                    continue
                lo = hi
            content = pb[s2:t]
            end = hi + ln
            p = pb.find(content, lo, end)
            while p != -1:
                child = self._make_branch_child(parent, pb, m, j1, rep, p, ln, s2)
                if child is not None:
                    children.append(child)
                    if len(children) >= self.branch_cap:
                        break
                p = pb.find(content, p + 1, end)
        return children

    def _make_branch_child(self, parent, pb, m, j1, rep, p, ln, s2):
        child = parent._copy()
        child.assigned[m] = self._content(pb[p:p + ln])
        # the open run up to the repeat is one more block: split it if it
        # holds j1, else split the closed region that does and close the run
        run = (parent.run_elem, rep - 1, parent.run_pos0, s2)
        if j1 >= parent.run_elem:
            (elem_lo, elem_hi, pos_lo, pos_end), rest = run, None
        else:
            idx = next(i for i, (lo, hi, _, _) in enumerate(child.layout)
                       if lo <= j1 <= hi)
            (elem_lo, elem_hi, pos_lo, pos_end), rest = child.layout.pop(idx), run
        close = self._close_region
        if not (close(child, pb, elem_lo, j1 - 1, pos_lo, p)
                and close(child, pb, j1 + 1, elem_hi, p + ln, pos_end)
                and (rest is None or close(child, pb, *rest) and child._regions_fit(m, j1))):
            return None
        child.layout.append((j1, j1, p, p + ln))
        child.layout.append((rep, rep, s2, parent.consumed))
        child.layout.sort()
        child._enter(rep + 1, parent.consumed)
        return self._adopt(child)

    def run_split(self, parent: Hypothesis, pb: bytes, a: Action) -> Hypothesis | None:
        """Resolve an ambiguous open run against the next assigned element:
        if the arriving action could begin that element, the child that says
        it does, else None."""
        if parent.run_elem is None:  # also when complete: _enter clears it
            return None
        pos = parent.consumed  # position of the arriving action
        j_next = parent._next_assigned()
        if j_next is None:
            return None
        if parent.assigned[parent.sketch[j_next]][0] != a:
            return None
        if pos - parent.run_pos0 < parent._min_span(parent.run_elem, j_next):
            return None
        child = parent._copy()
        if not self._close_region(child, pb, parent.run_elem, j_next - 1,
                                  parent.run_pos0, pos):
            return None
        child._enter(j_next, pos)
        child.advance(a)  # a is the first action of j_next's assignment
        return self._adopt(child)

    # -- plan-event hooks -------------------------------------------------------

    def on_confirmed(self, actions: list[Action]) -> None:
        """Advance the pool by the newest action of `actions`, which must
        extend the plan of the latest confirmation or rebuild by one action
        (else ValueError), and save its checkpoint: the stored one when the
        store has the plan, else the one computed here, which is stored. The
        proposals that rank the pool also give `select`'s ranking of the
        new active set."""
        pb = bytes(actions)
        if len(pb) != len(self.checkpoints) or not pb.startswith(self.plan):
            raise ValueError(f"{len(actions)} actions do not extend the latest plan "
                             f"of {len(self.checkpoints) - 1}")
        self.seen, self.plan = set(), pb
        stored = self.store.get(pb)
        if stored is not None:
            checkpoint, frozen, mark = stored
            self.frozen.extend(frozen)
            self.max_branch_per_parent = max(self.max_branch_per_parent, mark)
            self._created = checkpoint[4]
            self.checkpoints.append(checkpoint)
            return
        a = actions[-1]
        # this plan's repeated suffix less its last action repeats in the previous plan
        bound = repeated_suffix(pb, self.checkpoints[-1][3] + 1)
        kids = [kid for parent in self.active
                if (kid := self.run_split(parent, pb, a)) is not None]
        # advance copies: the hypotheses of earlier checkpoints stay as they were
        blank, *rest = (h._copy(share=True) for h in self.active)
        blank.advance(a)  # no assignment, so nothing to contradict
        pool = [h for h in rest if h.advance(a)] + kids
        mark = 0
        for parent in (blank, *pool):
            new = self.branch(parent, pb, bound)
            mark = max(mark, len(new))
            pool.extend(new)
        self.max_branch_per_parent = max(self.max_branch_per_parent, mark)
        ranked = self._proposals(pool, pb, bound)
        keep = self.n_active - 1  # the blank permanently holds one slot
        active = [blank] + [h for _, h, _ in ranked[:keep]]
        # no suggestion reads a frozen hypothesis: past the cap, drop the newest
        n_frozen = len(self.frozen)
        self.frozen.extend(h for _, h, _ in ranked[keep:])
        del self.frozen[max(0, self.mem_cap - len(active)):]
        tracked = sorted(self._proposals([blank], pb, bound) + ranked[:keep], key=itemgetter(0))
        ranking = [(h, got[0]) for _, h, got in tracked if got is not None]
        checkpoint = (active, len(self.frozen), ranking, bound, self._created)
        self.checkpoints.append(checkpoint)
        self.store[pb] = checkpoint, tuple(self.frozen[n_frozen:]), mark

    def rebuild(self, n: int) -> None:
        """Return to the state after confirming the first `n` actions of the
        plan, as after a backtrack: cut the checkpoints and the frozen list
        back to it, restore `_created`, and pop the cut plans from the
        store. Raises ValueError unless 0 <= n <= the plan length."""
        if not 0 <= n < len(self.checkpoints):
            raise ValueError(f"cannot cut a plan of {len(self.checkpoints) - 1} actions to {n}")
        plan, pop = self.plan, self.store.pop
        for d in range(n + 1, len(plan) + 1):
            pop(plan[:d], None)  # a search never confirms a cut plan again
        del self.checkpoints[n + 1:]
        _, n_frozen, _, _, self._created = self.checkpoints[n]
        del self.frozen[n_frozen:]
        self.seen, self.plan = set(), plan[:n]

    # -- selection ----------------------------------------------------------------

    def select(self, excluded: set[Action]):
        """Best-ranked eligible active hypothesis and its suggestion, or None.

        Eligible = suggests an action outside `excluded`. The ranking is the
        one the latest confirmation or rebuild left."""
        for h, a in self.checkpoints[-1][2]:
            if a not in excluded:
                return h, a
        return None


class SketchPoolSuggester(ActionSuggester):
    """Plugs a hypothesis pool into the search loop."""

    def __init__(self, sketch: Sketch, horizon: int, n_active: int = 4,
                 optimistic: bool = True, store: dict[bytes, tuple] | None = None):
        self.pool = SketchPool(sketch, horizon, n_active=n_active, optimistic=optimistic,
                               store=store)

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        picked = self.pool.select(excluded)
        return None if picked is None else picked[1]

    def on_confirmed(self, plan: PartialPlan) -> None:
        self.pool.on_confirmed(plan.confirmed)

    def on_backtrack(self, n: int) -> None:
        self.pool.rebuild(n)
