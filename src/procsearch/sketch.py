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
copies of the active ones. So the checkpoint each confirmation saves for its
plan length shares those hypotheses: the active set, the length of the
frozen list and the ranking of the active suggestions. The latest one is the
pool's state. The frozen list only grows at its tail; it grows only while
the active set is full, when its cap is at its lowest, so the cap only ever
drops hypotheses frozen by the same confirmation. A backtrack only cuts the
plan short, so it cuts the checkpoints and the frozen list back to the new
length, instead of replaying the plan from the start or ranking again.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .core import Action, Sketch
from .search import ActionSuggester, PartialPlan


_UNSET = object()  # a memo not computed yet


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
    absorbed the plan since position `run_pos0`. `_site` memoises
    `_repeat_site` until `advance` moves the alignment on; the pool builds
    and advances only fresh `_shell` copies, which have no memo yet.
    """

    __slots__ = ("sketch", "assigned", "layout", "elem", "offset",
                 "run_elem", "run_pos0", "consumed", "created", "_site")

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
        self._site = _UNSET

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
        self._site = _UNSET
        if self.run_elem is not None:
            self.consumed += 1
            return True
        content = self.assigned[self.sketch[self.elem]]
        if a != content[self.offset]:
            return False
        self.offset += 1
        self.consumed += 1
        if self.offset == len(content):
            self.layout.append((self.elem, self.elem, self.consumed - len(content), self.consumed))
            self._enter(self.elem + 1, self.consumed)
        return True

    def key(self):
        return (tuple(sorted(self.assigned.items())), tuple(self.layout),
                self.elem, self.offset, self.run_elem, self.run_pos0, self.consumed)

    def _shell(self) -> "Hypothesis":
        h = Hypothesis(self.sketch, dict(self.assigned), list(self.layout), self.consumed,
                       self.created)
        h.elem, h.offset = self.elem, self.offset
        h.run_elem, h.run_pos0 = self.run_elem, self.run_pos0
        return h

    # -- scoring (maximum future reduction in learning time) -----------------

    def score(self) -> int:
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

    def _repeat_site(self):
        """Where the main label m's first occurrence j1 could lie if its
        occurrence `rep` at or after the open run is repeating now:
        (m, j1, rep, lo, cap, hi_base, mid_min, lo_rep, n_rep), or None. j1
        starts at `lo` or later and, with content length ln <= `cap`, at
        `hi_base - ln` or earlier (None: unconstrained); the elements between
        the occurrences take `mid_min` positions or more; `rep` starts at
        `lo_rep` or later; m occurs `n_rep` times from `rep` on."""
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
            lo = self.run_pos0 + self._min_span(run_elem, j1)
            cap, hi_base = self.consumed, None
        else:
            # j1 lies in a closed block, an ambiguous region: a one-element
            # block's label is assigned, and m is not
            elem_lo, elem_hi, pos_lo, pos_end = next(
                block for block in self.layout if block[0] <= j1 <= block[1])
            lo = pos_lo + self._min_span(elem_lo, j1)
            hi_base = pos_end - self._min_span(j1 + 1, elem_hi + 1)
            cap = hi_base - lo
        return (m, j1, rep, lo, cap, hi_base, self._min_span(j1 + 1, rep),
                self.run_pos0 + self._min_span(run_elem, rep), len(occ) - k)

    def _first_window(self, site, s2: int, ln: int):
        """(lo, hi): where a first occurrence of length `ln`, repeated from
        `s2`, can start inside its run or region (None: nowhere); one that
        opens the run starts where the run does."""
        _, j1, _, lo, _, hi_base, mid_min, _, _ = site
        hi = s2 - mid_min - ln
        if hi_base is not None and hi_base - ln < hi:
            hi = hi_base - ln
        if hi < lo:
            return None
        if j1 == self.run_elem:
            hi = lo
        return lo, hi

    # -- suggestion -----------------------------------------------------------

    def optimistic_claim(self, pb: bytes):
        """In an open run, interpret the plan suffix as an in-progress repeat
        of the main label: its first occurrence started as long ago as the
        alignment allows and is repeating right now. Returns the continuation
        action, the assumed content length, and how many times the main
        label occurs from the repeat on.
        """
        site = self._repeat_site()
        if site is None:
            return None
        _, _, _, lo, cap, _, mid_min, lo_rep, n_rep = site
        t = self.consumed
        r_hi = t - lo_rep
        if r_hi >= cap:
            # a region-buried first occurrence is only reasoned about while
            # the in-progress repeat could still fit the region entirely
            return None
        # the first window of length r + 1 is non-empty exactly for r up to
        # here; its region bound, r <= hi_base - 1 - lo, follows from r < cap
        for r in range(min(r_hi, (t - mid_min - 1 - lo) // 2), 0, -1):
            s2 = t - r
            window = self._first_window(site, s2, r + 1)
            p = pb.find(pb[s2:t], window[0], window[1] + r)
            if p != -1:
                return pb[p + r], s2 - mid_min - p, n_rep
        return None

    def proposal(self, pb: bytes, optimistic: bool = True):
        """(suggested action, effective score), or None without a claim.

        Inside an assigned element the action is read off the assignment and
        the effective score is the base score; in an open run the optimistic
        rule (when on) answers, and the score adds the reduction its
        hypothesized main-label content would bring.
        """
        if self.is_complete:
            return None
        if self.run_elem is None:
            return self.assigned[self.sketch[self.elem]][self.offset], self.score()
        if not optimistic:
            return None
        claim = self.optimistic_claim(pb)
        if claim is None:
            return None
        a, length, n_rep = claim
        return a, self.score() + n_rep * length

    def suggest(self, pb: bytes, optimistic: bool = True) -> Action | None:
        """Next action according to this hypothesis, None if it has no claim."""
        got = self.proposal(pb, optimistic)
        return None if got is None else got[0]


class SketchPool:
    """Active/frozen hypothesis bookkeeping for one learning run."""

    def __init__(self, sketch: Sketch, horizon: int, n_active: int = 4,
                 optimistic: bool = True):
        if n_active < 1:
            raise ValueError("need at least one active hypothesis slot")
        self.n_active = n_active
        self.optimistic = optimistic
        self.mem_cap = max(16, 4 * horizon * horizon)
        self.branch_cap = max(1, horizon // 2)
        self.frozen: list[Hypothesis] = []
        # keys adopted by the latest confirmation; older keys cannot recur,
        # since a child adopted at plan length t has consumed == t
        self.seen: set = set()
        self._created = 0
        self.max_branch_per_parent = 0  # high-water mark, for property tests
        # checkpoints[d]: the state after confirming the plan's first d actions,
        # for d up to its length: (the active hypotheses, the blank first,
        # len(frozen), select's ranking of (hypothesis, claimed action) pairs)
        self.checkpoints: list[tuple[list[Hypothesis], int, list]] = [
            ([Hypothesis.blank(tuple(sketch.elements))], 0, [])]

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

    def _proposals(self, hypotheses, pb: bytes) -> list[tuple]:
        """(rank, h, proposal) for each h of `hypotheses`, best rank first."""
        return sorted(((self._rank(h, got), h, got) for h in hypotheses
                       for got in [h.proposal(pb, self.optimistic)]), key=itemgetter(0))

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

    @staticmethod
    def _close_region(child: Hypothesis, pb: bytes, elem_lo: int, elem_hi: int,
                      pos_lo: int, pos_end: int) -> bool:
        """Close elements elem_lo..elem_hi over plan span [pos_lo, pos_end).

        Empty stretches must close an empty span; a single element has its
        content immediately implied (and must agree with any existing
        assignment); longer stretches stay ambiguous regions.
        """
        n = elem_hi - elem_lo + 1
        if n <= 0:
            return pos_lo == pos_end
        if n == 1:
            if pos_end <= pos_lo:
                return False
            content = tuple(pb[pos_lo:pos_end])
            lbl = child.sketch[elem_lo]
            if lbl in child.assigned:
                if child.assigned[lbl] != content:
                    return False
            else:
                child.assigned[lbl] = content
            child.layout.append((elem_lo, elem_lo, pos_lo, pos_end))
            return True
        if pos_end - pos_lo < child._min_span(elem_lo, elem_hi + 1):
            return False
        child.layout.append((elem_lo, elem_hi, pos_lo, pos_end))
        return True

    # -- hypothesis creation ---------------------------------------------------

    def branch(self, parent: Hypothesis, pb: bytes) -> list[Hypothesis]:
        """Children of `parent` given that the newest plan action completed a
        repeat of the main label at the end of the plan: one child per
        feasible (content length, first-occurrence position).

        The first occurrence must either lie in the open run or, if buried
        inside a closed ambiguous region, the run must still be short enough
        that every candidate content fits the region (same recency gate as
        the optimistic rule).
        """
        site = parent._repeat_site()
        if site is None:
            return []
        m, j1, rep, _, cap, _, _, lo_rep, _ = site
        t = parent.consumed
        longest = (t - parent.run_pos0) // 2
        if longest > cap or rep == parent.run_elem:
            # a repeat that opens the run (first occurrence in a closed
            # region) must start at run_pos0, but every s2 = t - ln lies past it
            return []
        # nothing lies between the occurrences in the open run, so the first
        # one can only start at s2 - ln, the end of its window
        adjacent = rep == j1 + 1 and j1 >= parent.run_elem
        children: list[Hypothesis] = []
        # longest candidate content first: most informative, most falsifiable
        for ln in range(longest, 0, -1):
            if len(children) >= self.branch_cap:
                break
            s2 = t - ln
            if s2 < lo_rep:
                continue
            window = parent._first_window(site, s2, ln)
            if window is None:
                continue
            lo, hi = window
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
        child = parent._shell()
        child.assigned[m] = tuple(pb[p:p + ln])
        if j1 >= parent.run_elem:
            # first occurrence sits in the open run: close everything from
            # the run start through the end of the repeat
            if not self._close_region(child, pb, parent.run_elem, j1 - 1,
                                      parent.run_pos0, p):
                return None
            child.layout.append((j1, j1, p, p + ln))
            if not self._close_region(child, pb, j1 + 1, rep - 1, p + ln, s2):
                return None
        else:
            # first occurrence sits inside a closed ambiguous region: split it
            idx = next(i for i, (lo, hi, _, _) in enumerate(child.layout)
                       if lo <= j1 <= hi)
            elem_lo, elem_hi, pos_lo, pos_end = child.layout.pop(idx)
            if not self._close_region(child, pb, elem_lo, j1 - 1, pos_lo, p):
                return None
            child.layout.append((j1, j1, p, p + ln))
            if not self._close_region(child, pb, j1 + 1, elem_hi, p + ln, pos_end):
                return None
            if not self._close_region(child, pb, parent.run_elem, rep - 1,
                                      parent.run_pos0, s2):
                return None
        child.layout.append((rep, rep, s2, parent.consumed))
        child.layout.sort()
        child._enter(rep + 1, parent.consumed)
        return self._adopt(child)

    def run_splits(self, parent: Hypothesis, pb: bytes, a: Action) -> list[Hypothesis]:
        """Resolve an ambiguous open run against the next assigned element:
        if the arriving action could begin that element, spawn the child that
        says it does."""
        if parent.run_elem is None or parent.is_complete:
            return []
        pos = parent.consumed  # position of the arriving action
        j_next = next((j for j in range(parent.run_elem + 1, len(parent.sketch))
                       if parent.sketch[j] in parent.assigned), None)
        if j_next is None:
            return []
        if parent.assigned[parent.sketch[j_next]][0] != a:
            return []
        if pos - parent.run_pos0 < parent._min_span(parent.run_elem, j_next):
            return []
        child = parent._shell()
        if not self._close_region(child, pb, parent.run_elem, j_next - 1,
                                  parent.run_pos0, pos):
            return []
        child._enter(j_next, pos)
        child.advance(a)  # a is the first action of j_next's assignment
        child = self._adopt(child)
        return [child] if child is not None else []

    # -- plan-event hooks -------------------------------------------------------

    def on_confirmed(self, actions: list[Action]) -> None:
        """Advance the pool by the newest action of `actions`, which must be
        one longer than the plan of the latest confirmation or rebuild (else
        ValueError), and save its checkpoint. The proposals that rank the
        pool also give `select`'s ranking of the new active set."""
        if len(actions) != len(self.checkpoints):
            raise ValueError(f"{len(actions)} actions do not extend the latest plan "
                             f"of {len(self.checkpoints) - 1}")
        self.seen = set()
        a = actions[-1]
        pb = bytes(actions)
        kids: list[Hypothesis] = []
        for parent in self.active:
            kids.extend(self.run_splits(parent, pb, a))
        # advance copies: the hypotheses of earlier checkpoints stay as they were
        blank, *rest = (h._shell() for h in self.active)
        blank.advance(a)  # no assignment, so nothing to contradict
        pool = [h for h in rest if h.advance(a)] + kids
        for parent in (blank, *pool):
            new = self.branch(parent, pb)
            self.max_branch_per_parent = max(self.max_branch_per_parent, len(new))
            pool.extend(new)
        ranked = self._proposals(pool, pb)
        keep = self.n_active - 1  # the blank permanently holds one slot
        active = [blank] + [h for _, h, _ in ranked[:keep]]
        # no suggestion reads a frozen hypothesis: past the cap, drop the newest
        self.frozen.extend(h for _, h, _ in ranked[keep:])
        del self.frozen[max(0, self.mem_cap - len(active)):]
        tracked = sorted(self._proposals([blank], pb) + ranked[:keep], key=itemgetter(0))
        ranking = [(h, got[0]) for _, h, got in tracked if got is not None]
        self.checkpoints.append((active, len(self.frozen), ranking))

    def rebuild(self, n: int) -> None:
        """Return to the state after confirming the first `n` actions of the
        plan, as after a backtrack: cut the checkpoints and the frozen list
        back to it. Raises ValueError unless 0 <= n <= the plan length."""
        if not 0 <= n < len(self.checkpoints):
            raise ValueError(f"cannot cut a plan of {len(self.checkpoints) - 1} actions to {n}")
        del self.checkpoints[n + 1:]
        del self.frozen[self.checkpoints[n][1]:]
        self.seen = set()

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
                 optimistic: bool = True):
        self.pool = SketchPool(sketch, horizon, n_active=n_active, optimistic=optimistic)

    def suggest(self, plan: PartialPlan, excluded: set[Action]) -> Action | None:
        picked = self.pool.select(excluded)
        return None if picked is None else picked[1]

    def on_confirmed(self, plan: PartialPlan) -> None:
        self.pool.on_confirmed(plan.confirmed)

    def on_backtrack(self, plan: PartialPlan, removed: Action, position: int) -> None:
        self.pool.rebuild(position)
