"""Deterministic solver for the scheduling MIP.

`solve` runs a branch-and-bound specialized to the model's structure: it
branches over exactly-one factor groups (largest log-factor first),
tracks permutation order at and above the NoC boundary only for
temporal factors (where it matters), and collapses both interchangeable
identical factors and fully equivalent (level, mapping) choices, so each
distinct schedule class is searched once.  Pruning combines a per-factor
best-case bound, a root Lagrangian relaxation of the capacity
constraints, and per-constraint fractional knapsack relaxations; the
partial traffic term is monotone under extension and included exactly.
These bounds also order the children; there is no other child order.

The knapsack bounds are one family (Sinha & Zoltners 1979; Fisher 1981),
built by `_Search._build_knapsack(lam)` and evaluated by
`_Search._kn_bound`: one capacity constraint stays an explicit knapsack
LP, the others are priced at the multipliers `lam`.  The plain bound is
the member at lam = 0.  Where every class record of the unassigned tail
weighs a whole number on the explicit constraint (a prime factor 2 weighs
exactly 1.0, and 2s make up the deep tail of most layers), the knapsack's
capacity is rounded down to whole units, in the spirit of Chvatal-Gomory
rounding (Chvatal 1973): no integer completion can use the fraction.
Such a row carries a table of its gain at every whole capacity, so the
bound reads it by index instead of a bisect.  Every capacity bound, the
Lagrangian one included, grants each slack `TOLERANCE`, as the capacity
check does, so none cuts a completion that check admits; the rounding
relies on it, since a float slack can fall an ulp short of the whole
number it stands for.

Interchangeable factors are symmetry-broken, in the spirit of
isomorphism pruning and orbital branching (Margot 2002; Ostrowski,
Linderoth, Rossi & Smriglio 2011).  Two factors mirror each other
(`_Search._mirrored`) when they have the same log-factor, traffic
triggers and class records, field for field: then trading their records
and chain places moves no row, objective term or chain trigger.
Identical factors (one dimension, one prime) mirror each other, and so
do, on an arch that treats the dimensions alike, R's 3 and S's 3 of a
3x3 layer, P's 2s and Q's 2s whether or not P = Q, or N's 2s and P's.
Unequal rows or spatial limits keep two dimensions apart; pads sit in
the rhs and do not.  A mirror class is a union of identical classes, and
`_Search._branch_order` keeps each one contiguous: its members, a run,
take consecutive depths.  In branch order each member of a run takes a
class whose `rep` is at or below the previous member's, and a chained
member whose previous member holds the same chain level goes in after
it.  `_children` propagates that order into the capacity check, in the
spirit of orbitopal fixing (Kaibel, Peinhardt & Pfetsch 2011): a child
is dropped when the rest of its run, each member at its lightest allowed
weight, cannot fit.  Every completion of such a child fails a capacity
check, so the cut subtree holds no leaf, and only nodes fall.

The uncut search breaks identical runs only; `canonical_assignment` maps
every order of an identical class to one assignment.  A member's slot is
its record and, if chained, its chain level and place.  A leaf of the
uncut search is one of the cut search when every run's slots are sorted
in branch order: reps non-increasing, chain places increasing.  Its
images deal the same slots to the run's identical classes in other
shares: each class takes a sub-multiset of the class's size, its members
in branch order, so an image keeps the record order of every identical
run and the chain order of its members, and is a leaf of the uncut
search.  Sorting each run's slots maps every leaf of the uncut search to
exactly one kept leaf, of which it is the leaf itself or one image.  So
`_leaf` decides each leaf it enters as its own first image, then its
images under every combination of its runs' shares but its own
(`_Search._slot_maps`), each as the uncut search decides that leaf.  An
image re-deals a run's slots over the run's own depths, which are
consecutive, and every row entry of a member is 0.0 or the run's one
log-factor; so at each depth the image's branch-order fold of the buffer
sums adds the same value as its leaf's, and its sums are the leaf's bit
for bit.  Its capacity verdict and `_derive_menus` are then the leaf's as
well, and `_leaf` derives the menus once for all of them.  Each image
takes its sources' records and chain places, with no change to the
search state, and is decided from its leaf in one loop
(`_Search._decide`), each of its values as the uncut search would
compute it:

- Its objective is closed by `MipModel.objective_close`, as its leaf's
  is.  Mirrored factors share their log-factor and their triggers at
  every level, and the traffic walk reads nothing else of a factor, so
  the image's walk total is its leaf's, bit for bit, and is walked once
  per leaf.  The objective's static sum is a left fold in factor order;
  up to the image's first moved factor it adds the leaf's values, so it
  equals the leaf's prefix sum there, and it resumes from that prefix
  sum over the image's own values.  The leaf, which moves no factor,
  takes its whole prefix sum.
- Its key is `lex_key` of its `canonical_assignment`, one pass from
  factor 0 over the image's slots.
- An image above the incumbent's objective is rejected on it, with no
  slots built and no pass run; the rest go through the same `beats`.

So the answer is still the least `(objective, lex_key)` over all leaves
of the uncut search.  Every decided image is one of them, decided as that
search decides it.  The least one, L*, is L0 or one of its decided
images, for L0 the leaf whose mirror slots are L*'s sorted.  A bound
that rejects L0 exceeds `inc.obj + EPS_PRUNE` while bounding L0's
objective from below.  L0's objective differs from L*'s only in
summation order, by about F·u·Σ|terms|, far below `EPS_PRUNE`, and the
incumbent is a leaf's objective, so at least L*'s; no bound rejects
L0.  A leaf needs no estimate of its own: the bound of its last child,
which it passed against the incumbent it is entered under, is at least
its static sum plus its weighted traffic, the most the search state
tells of its objective.  L0 is reached and offers L*.  The argument
reads nothing but admissible bounds and summation order, so it holds
for every choice of objective weights.

A partition model's byte budget is propagated into the capacity bounds,
as activity-based bound propagation does with a linear row (Savelsbergh
1994; Achterberg 2007).  Each node carries its menu floors, each menu's
least admissible entry at the node's buffer sums (`_floors`;
`_derive_menus` starts from the leaf's floors), and the floors' byte
total; menu i's rhs there, in the node's `rhs` (`_menu_rhs`), is that
of the largest entry whose bytes fit in the budget beside every other
menu's floor.  It is exact: weights are never negative and float
addition is monotone, so at every leaf below the node each floor is at
least the node's, an accepted leaf selects for menu i an entry within
that allowance, and so its sum satisfies `lhs_i + pad <= e + tol` for
that entry, the relation the loosest rhs encodes for the last entry.  The
Lagrangian bound and both knapsack bounds read the node's rhs; on a
model without menus it is `con_rhs` itself.  The loosest rhs stays in
the feasibility checks (the capacity check, the run lookahead,
`_derive_menus` and `MipModel.constraint_violations`) and in the root
build of the knapsack tables.  A child's floors (`_child_floors`) start
from the node's and re-price only the menus its record touches; every
other menu reads 0.0 in its row, and byte sums are integers, so they
are a full re-bisect's, bit for bit.  `_children` drops a child whose
floors pass the budget, `_apply` gives the child them, and its rhs
from them, once per distinct floors, and a leaf's `_derive_menus` reads
them.

The budget ties the menus together, and the bounds price it across
them at once, as a multiple-choice knapsack inside the Lagrangian
relaxation (Sinha & Zoltners 1979; Fisher 1981).  At multipliers
lambda the Lagrangian bound subtracts lambda_i times menu i's rhs for
each menu row, and at the node's rhs each menu takes the whole byte
slack as if it were alone.  J(floors), the most the sum over the menus
of lambda_i times the rhs of one entry each can be, every entry at or
above its floor and their bytes within the budget, bounds what any leaf
below the node subtracts, and so does the old sum; the bound reads the
less, through its cut, what the old sum exceeds J by (`_menu_state`).
J is the knapsack's LP relaxation: each menu's (bytes, rhs) points are
concave, rhs being the log of a size linear in bytes, and `_budget_fill`
takes the increments of their hulls densest first, the last in part.
An LP optimum is at least the integer one, so the bound stays
admissible.  A penalized bound keeps row i explicit, and its refund
prices every other row.  For a menu row i the refund's menu part is
bounded by J-i(floors), the same LP over the other menus with i held at
its floor: i's knapsack cost only falls as its rhs grows, so the node's
rhs bounds it from below; the other menus' bytes are at most the budget
less i's floor's, so their sum is at most J-i; and the two minima add up
to a lower bound.  J over every menu is no bound there, since i's own
share of it is already in i's knapsack.  A row that is no menu row
takes the Lagrangian cut.  The cuts, like the rhs, are a function of
the floors and the multipliers, kept once per distinct floors and
carried in the path state; `tighten`, which moves the multipliers,
derives them again.  The root's multipliers see the budget too: each
step of `_build_lagrangian` prices a menu row at its menu's rhs in the
LP selection at that step's multipliers, from the root's floors, with a
menu at a zero multiplier at its floor.  Any multipliers give
admissible bounds, so this changes only which ones are found.

A node's work is kept to what its own child changes: the traffic walk's
chain profile is kept per depth and rebuilt only below a chained child,
whose insertion is the one change to the chains, and the per-level
trigger flags of the walk are tabulated once per solve.

A node's state is a function of its path.  `_apply` saves the node's
buffer sums `con_lhs`, its objective sums, its traffic, its menu floors,
its rhs and budget cuts and its chain profile on `saved` and gives the
child its own, each sum the parent's plus the child's record; `_undo`
puts the saved ones back.  Nothing is subtracted, so each sum is the
left fold, in branch order, of the records on the path, bit for bit,
whatever was searched before: the dive leaves the root as it found it,
and the proof starts there with no reset.  The path's records and
chains are changed in place; references and integers restore exactly.
So the search can leave a node and come back to it by applying its path
again.

A solve runs in two phases.  The dive is a depth-first search in bound
order that stops at the first accepted leaf; one that ends without any,
and not at the deadline, had nothing to prune against and has searched
the whole tree, so the model is infeasible and the solve ends there, as
it does when the deadline stops the dive, which then holds no incumbent
and reports a bound of -inf.  Then `tighten` rebuilds the multipliers
once by Polyak steps against that incumbent, and every child bound adds
the knapsack bound at them, the Lagrangian-penalized bound.  The proof
is a best-bound search with plunging (Linderoth & Savelsbergh 1999;
Achterberg 2007, as in SCIP): every child that survives its bound is an
open node keyed by it, the search dives into a node's child of least
bound while that bound stays within `PLUNGE` of the gap between the
least open key and the incumbent, and otherwise jumps to the least open
key, deeper first on ties.  A jump walks `_undo` up to the common prefix
of the two paths and `_apply` down, so a node is bounded as it would be
had the search come straight down to it.  Once the open list holds
`MAX_OPEN` nodes, each node taken from it has its subtree searched
depth-first, so memory stays bounded.  On a timeout the least open key is
a lower bound on the optimum, reported with its gap to the incumbent in
`SolveStats`.

The answer depends neither on the search order nor on which incumbent
comes first: a leaf replaces the incumbent only on a strictly smaller
`(objective, lex_key)` of its canonical assignment, and every prune is
admissible up to `EPS_PRUNE`, so no tie is pruned and the result is the
minimum over leaf classes.  A child's bound is computed once, when its
parent is expanded; an open node is pruned, when it is taken, on that
stored bound, which is the one a fresh `_node_bound` at its parent would
give against the incumbent of that moment.  The exceptions are a
timeout, and a leaf within ulps of a capacity: `_children` sums
capacity use in branch order, so another branch order may decide it the
other way.  An image is no exception: the branch order keeps every
mirror run contiguous, so the leaf's sums it is decided on are its own
branch-order fold.

Reported assignments are canonicalized to the lexicographically smallest
member of their class, so results are bit-stable across runs.  A leaf is
decided from its exact objective before that: each factor's class
record's static objective folded left in factor order and closed by
`MipModel.objective_close` with the traffic walk over the chains in
(level, chain position) order.  Every member of a choice class has the
same coefficients, and canonical ranks rise with chain position on each
level, so this value needs no rank and equals, bit for bit, the same
fold and close over the canonical assignment's own records and walk.
A leaf above the incumbent's objective is rejected as it stands; one
that ties it exactly is canonicalized against the incumbent's key and
stops at the first factor where the keys differ; only a better leaf, or
the first, takes the full pass.  The compares are exact, with no tolerance:
rounding in the last ulp decides real ties.

The search branches over the model's choice classes, `MipModel.classes`;
a child reads its class's first `ChoiceCoef` record, and a constraint the
class leaves alone reads 0.0 in its dense row, so every bound sees the
operands of a sparse lookup in the same order, and node counts stay
pinned.  One
`_Search` owns a solve's bound tables and search state; every table is
built from those records.  `_Search._branch_order` builds the static
branch order, and `_Search._suffix` is the one place it is summed into
a per-depth table.  A solve's set-up is built once per class of alike
factors and shared by its members: the model's records once per
identical class (`MipModel._build_coefficients`), and the search's
costs, knapsack hulls and Lagrangian minima once per mirror class, from
its first member.  It is exact: the members' records are equal field
for field (`_Search._mirrored`), and `_suffix` adds each factor's
mirror-class value in branch order, the values and order it added when
each factor had its own.  The knapsack rows' cumulative sums are kept
from one depth to the next and extended only past the first sorted
position that the new depth's segments take, so every entry is the same
sum of the same values in the same order (`_Search._build_knapsack`).
The leaf re-check reads each concrete choice's own record, never its
class's, so a grouping error cannot hide from it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter

from .formulation import TOLERANCE, ChoiceCoef, MipModel

INF = math.inf
EPS_PRUNE = 1e-9
LAGRANGIAN_ITERS = 240  # subgradient steps per multiplier build
# the proof plunges into a child whose bound lies within this fraction of
# the gap between the best open bound and the incumbent; SCIP's default
# for the same quotient (Achterberg 2007)
PLUNGE = 0.25
# open nodes the proof keeps at most; past it, each node it takes from the
# open list has its subtree searched depth-first, in memory bounded by the
# depth, and the list only shrinks
MAX_OPEN = 100_000


def _upper_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The vertices of the upper concave hull of `points`, anchored at the
    first: the rest ascend in their first coordinate, and one no higher
    than the last vertex kept is dominated.  The slope between vertices
    strictly falls."""
    hull = [points[0]]
    for w, g in points[1:]:
        if g <= hull[-1][1]:
            continue  # dominated by a lighter point
        hull.append((w, g))
        while len(hull) >= 3:
            (w1, g1), (w2, g2), (w3, g3) = hull[-3:]
            if (g2 - g1) * (w3 - w2) <= (g3 - g2) * (w2 - w1):
                hull.pop(-2)
            else:
                break
    return hull


@dataclass
class SolverOptions:
    """The command's solver settings (`cli.RunConfig.solver`): its
    --time-limit, from which each command computes the deadline its
    solves share.

    The tie-break rule is fixed: among equal-objective optima, the
    lexicographically smallest assignment vector wins.  So is the capacity
    tolerance, `TOLERANCE`.  The search is single-threaded; `threads` is a
    read-only constant, not a field, kept because perfbench/worker.py
    records it with every op.
    """

    time_limit_s: float = 300.0
    threads = 1

    def __post_init__(self):
        if not self.time_limit_s > 0:  # also rejects NaN
            raise ValueError("time_limit_s must be positive")


@dataclass
class SolveStats:
    nodes: int = 0
    leaves: int = 0
    wall_time_s: float = 0.0
    # leaves and their images decided on their canonical key: those at or
    # below the incumbent's objective (`_Search._offer`)
    canonicalized: int = 0
    # where the search stopped: the least bound of the open nodes, at most
    # the incumbent's objective (-inf before the proof expands the root,
    # the objective itself once it is proven), and the incumbent's
    # objective minus it (inf without an incumbent)
    bound: float = -INF
    gap: float = INF

    def then(self, later: "SolveStats") -> "SolveStats":
        """The statistics of this solve followed by `later`: counts and
        times summed, the bound and gap of `later`, the last to stop."""
        return SolveStats(
            self.nodes + later.nodes, self.leaves + later.leaves,
            self.wall_time_s + later.wall_time_s,
            self.canonicalized + later.canonicalized, later.bound, later.gap)


@dataclass
class Solution:
    """Solver outcome.  `objective_value`, `x_assignment` (factor index ->
    (level, rank, mapping)) and `menu_selection` are deterministic;
    stats are informational only."""

    status: str  # "optimal" | "infeasible" | "timeout"
    objective_value: float | None
    x_assignment: dict[int, tuple[int, int, int]] | None
    menu_selection: tuple[int, ...] | None
    stats: SolveStats
    witness: tuple[str, ...] | None = None


# ----------------------------------------------------------------------
# canonical assignment (lexicographically smallest vector of a leaf class)
# ----------------------------------------------------------------------


class _LevelState:
    __slots__ = ("used", "chain_pins", "chain_len")

    def __init__(self, chain_len: int):
        self.used: set[int] = set()
        # (chain position, rank) of each pin, sorted: the pins increase in
        # both
        self.chain_pins: list[tuple[int, int]] = []
        self.chain_len = chain_len


def _zmax(st: _LevelState, pos: int | None, Z: int) -> int | None:
    """Highest rank a placement can take on a level with a chain while the
    level stays embeddable (the gap rule).

    The pins increase in both position and rank.  Bounded by (-1, -1)
    below and (chain_len, Z) above, they split the level into gaps of free
    ranks, and the pins are embeddable exactly when no gap has fewer free
    ranks than unpinned chain positions.  Chain position `pos` in the gap
    (p0, z0)..(p1, z1) takes element `p1 - pos - 1` of the gap's free
    ranks listed from the top: that leaves one rank above it for each
    chain position before the next pin.  A placement outside the chain
    takes the highest free rank of the topmost gap whose free ranks
    outnumber its unpinned positions; `canonical_assignment` shows one
    always exists.  Each gap is scanned down from its top only until the
    free rank it needs."""
    pins, used = st.chain_pins, st.used
    if pos is not None:
        gap = bisect_left(pins, (pos,))
        p1, z1 = pins[gap] if gap < len(pins) else (st.chain_len, Z)
        z0 = pins[gap - 1][1] if gap else -1
        need = p1 - pos
        for z in range(z1 - 1, z0, -1):
            if z not in used:
                need -= 1
                if not need:
                    return z
        return None
    p1, z1 = st.chain_len, Z
    for gap in range(len(pins), -1, -1):
        p0, z0 = pins[gap - 1] if gap else (-1, -1)
        need = p1 - p0
        top = None
        for z in range(z1 - 1, z0, -1):
            if z not in used:
                if top is None:
                    top = z
                need -= 1
                if not need:
                    return top
        p1, z1 = p0, z0
    return None


def canonical_assignment(
    model: MipModel,
    slots: list[tuple],
    chains: dict[int, list[int]],
    sh: "_Search",
    bound_key: tuple[int, ...] | None = None,
) -> dict[int, tuple[int, int, int]] | None:
    """Lexicographically smallest raw assignment realizing a leaf class.

    A leaf fixes, per factor, a class of interchangeable (level, mapping)
    options, plus the relative order of temporal factors at levels >= the
    NoC boundary: `slots` gives each factor's choice class and, if it is
    chained, its place in its level's chain (else None), and `chains`
    each level's chain, read for its length.
    Identical factors may be permuted, option levels and rank slots
    shifted freely within the class; this picks, factor by declared
    order, the placement with the highest (level, rank, mapping) that
    keeps the remainder completable (a later one-hot position is a
    lexicographically smaller vector), and pins it for good.

    Why one forward pass with no undo is exact: the model has `Z == F`
    rank slots per level, so the final occupants of any level number at
    most `Z`, and every level's free ranks are at least the factors not
    yet pinned.  A placement outside the chain therefore always finds a
    spare free rank on its top option's level: that level's free ranks
    exceed the unpinned chain positions it must still hold.  A chain
    placement always fits in its gap, because the pins made so far are
    embeddable.  So each placement's top option `max(cc)` fits, the
    greedy never backtracks, and rank feasibility is the gap count of
    `_zmax` alone.  On a level without a chain every pin takes the highest
    free rank, so the used ranks are the top block and the next is
    `Z-1-len(used)`.  `sh.cls_of` maps each factor to its identical class
    and `sh.members` each class to its factors; a class's entries are
    built when the pass first reaches one of its factors, so a pass cut
    short by `bound_key` skips the classes it never reaches.

    Each factor has exactly one best placement, so the scan keeps one
    entry and never has to compare completions.  Two entries of one
    identical class differ in their options tuple or in their chain
    position.  Distinct options tuples of a class are disjoint sets of
    (level, mapping) pairs, so their best triples differ in (level,
    mapping).  Two chain positions p < p' on one level cannot get the
    same highest rank z: if p fits at z, the embedding that proves it
    puts p' at some free rank above z, where p' also fits with p still
    free to take z, so the highest rank of p' is above z.

    With `bound_key`, the incumbent's `lex_key`, each pin's key entry is
    compared with the incumbent's as it is made: the pass returns None as
    soon as the leaf's key is the larger, and stops comparing once it is
    the smaller.  The pins never change, so this is the full pass cut
    short.
    """
    Z = model.Z
    cls_of = sh.cls_of
    members = sh.members
    choice_index = model.choice_index
    # per identical class, its `_entries`, built when the pass first needs
    # them, and per level its `_LevelState`, made when the pass first
    # reaches it
    remaining: dict[int, dict[tuple, list]] = {}
    states: list[_LevelState | None] = [None] * model.H
    out: dict[int, tuple[int, int, int]] = {}
    for fi in range(model.F):
        rem = remaining.get(cls_of[fi])
        if rem is None:
            rem = remaining[cls_of[fi]] = _entries(slots, members[cls_of[fi]])
        best = best_ent = None
        for ent in rem.values():
            count, (I, k), pos = ent
            # a lower top level cannot beat the best so far
            if not count or (best is not None and I < best[0]):
                continue
            st = states[I]
            if st is None:
                st = states[I] = _LevelState(len(chains.get(I, ())))
            z = _zmax(st, pos, Z) if st.chain_len else Z - 1 - len(st.used)
            if best is None or (I, z, k) > best:
                best, best_ent = (I, z, k), ent
        if bound_key is not None:
            entry = -choice_index[fi][best]
            if entry != bound_key[fi]:
                if entry > bound_key[fi]:
                    return None
                bound_key = None
        out[fi] = best
        best_ent[0] -= 1
        I, z, _k = best
        pos = best_ent[2]
        states[I].used.add(z)
        if pos is not None:
            insort(states[I].chain_pins, (pos, z))
    return out


def _entries(slots: list[tuple], members: list[int]) -> dict[tuple, list]:
    """An identical class's entries in `canonical_assignment`, one per
    distinct slot of its `members`: [members still holding it, top option
    (level, mapping), chain position or None]."""
    rem: dict[tuple, list] = {}
    for gi in members:
        slot = slots[gi]
        ent = rem.get(slot)
        if ent is None:
            rem[slot] = [1, max(slot[0]), slot[1]]
        else:
            ent[0] += 1
    return rem


# ----------------------------------------------------------------------
# branch and bound
# ----------------------------------------------------------------------


class _Incumbent:
    def __init__(self):
        self.obj = INF
        self.key = None
        self.x = None
        self.menu = None

    def beats(self, obj, key) -> bool:
        return self.x is None or (obj, key) < (self.obj, self.key)

    def offer(self, obj, key, x, menu):
        self.obj, self.key, self.x, self.menu = obj, key, x, menu


class _Leaf:
    """A leaf as `_Search._decide` decides it and its images: its class
    records, chains and menus, the records' static objectives with their
    prefix sums (`pres[i]` the left fold of the first i) and the traffic
    walk's total; and, once one of its images is canonicalized, its slots,
    per factor its choice class and chain place or None."""

    __slots__ = ("recs", "chains", "menu_sel", "statics", "pres", "traffic", "_slots")

    def __init__(self, recs, chains, menu_sel, m: MipModel):
        self.recs = recs
        self.chains = chains
        self.menu_sel = menu_sel
        self.statics = [rec.static for rec in recs]
        self.pres = list(itertools.accumulate(self.statics, add, initial=0.0))
        self.traffic = m.chain_traffic(chains)
        self._slots = None

    @property
    def slots(self) -> list[tuple]:
        if self._slots is None:
            chain_pos = {fi: pos for chain in self.chains.values()
                         for pos, fi in enumerate(chain)}
            self._slots = [(rec.cc, chain_pos.get(fi)) for fi, rec in enumerate(self.recs)]
        return self._slots


class _Search:
    """One solve: the model-derived tables, built from the class records
    of `MipModel.classes`, and the search state over the collapsed space,
    a function of the current path.  One instance runs the dive (`dfs`),
    `tighten`, which alone updates the tables, and the proof (`prove`)."""

    # slotted: the search reads these attributes on every node
    __slots__ = (
        "m", "inc", "deadline", "stopped", "nodes", "leaves",
        "canonicalized", "order", "lg", "trig", "members",
        "mirror_of", "heads", "prev_same", "mirrors", "run_pairs", "image_memo",
        "run_rem", "run_need",
        "ncons", "con_rhs", "cap", "menu_fit", "menu_hulls", "menu_items",
        "cls_of", "classes", "costs", "suffix_min", "kn_at",
        "lam", "lam_active", "lagr_suffix", "pen_at", "choice_rec",
        "chains", "con_lhs", "static_sum", "t_cur",
        "profile", "floors", "rhs", "lagr_cut", "pen_cut", "no_cut",
        "saved", "menu_memo",
    )

    def __init__(self, model: MipModel, incumbent: _Incumbent, deadline: float):
        m = self.m = model
        F = m.F
        self.inc = incumbent
        self.deadline = deadline
        self.stopped = False
        self.nodes = 0
        self.leaves = 0
        self.canonicalized = 0

        self.ncons = len(m.check_cons)
        self.con_rhs = [c.rhs for c in m.check_cons]
        self.cap = [rhs + TOLERANCE for rhs in self.con_rhs]
        # per menu: its buffer constraint, that constraint's pad, each
        # entry's exponent plus the tolerance, each entry's bytes with
        # budget + 1 appended for "no entry holds the sum", and each entry's
        # rhs.  Entries ascend in size, so bisect_left on the exponents
        # finds the smallest entry that holds a sum, the first with
        # `e + tol >= sum`, and bisect_right on the bytes the largest entry
        # within a byte allowance.  The last entry's rhs is `con_rhs`, the
        # same expression in `MipModel`.  Per menu, `menu_hulls` keeps its
        # `_menu_hull` at each floor asked for.
        con_of_menu = {c.menu: ci for ci, c in enumerate(m.check_cons)
                       if c.menu is not None}
        self.menu_fit = []
        menu_of: dict[int, int] = {}
        for mi, menu in enumerate(m.menus):
            ci = con_of_menu[mi]
            pad = m.check_cons[ci].pad
            self.menu_fit.append((
                ci, pad, [ent.e + TOLERANCE for ent in menu.entries],
                [ent.nbytes for ent in menu.entries] + [m.budget_bytes + 1],
                [ent.e - pad for ent in menu.entries],
            ))
            menu_of[ci] = mi
        self.menu_hulls: list[dict[int, tuple]] = [{} for _ in m.menus]
        # `_menu_state` per distinct menu floors that `_apply` has derived
        # at the current multipliers
        self.menu_memo: dict[tuple, tuple] = {}

        # canonical_assignment's tables: factor -> identical class, and
        # identical class -> its factors in factor order
        self.cls_of = [f.cls for f in m.factors]
        self.members: dict[int, list[int]] = {}
        for fi, cls in enumerate(self.cls_of):
            self.members.setdefault(cls, []).append(fi)

        # the traffic walk's tables: per factor its log-factor, and per
        # level and factor whether the factor triggers each tensor there
        # (the level stores the tensor and the factor's dimension is
        # related to it), built once per level and dimension
        A, B = m.arch.A, m.arch.B
        self.lg = [f.lg for f in m.factors]
        dims = {f.j for f in m.factors}
        self.trig = []
        for I in range(m.H):
            per_dim = {j: tuple(B.stores(I, v) and A.related(j, v) for v in range(3))
                       for j in dims}
            self.trig.append([per_dim[f.j] for f in m.factors])

        # Every member of a choice class has the same coefficients and
        # constraint row, and classes come in order of first appearance,
        # so a table built over the class records equals one built over
        # every collapsed choice, float for float.
        self.classes = m.classes
        # per class record, (ci, add, menu, pad, fits, sizes) for each menu
        # constraint ci it adds to, the menu's fields from `menu_fit`; the
        # members of an identical class share their records
        self.menu_items = {
            rec: tuple((ci, add, menu_of[ci], *self.menu_fit[menu_of[ci]][1:4])
                       for ci, add in rec.items if ci in menu_of)
            for ms in self.members.values() for rec in self.classes[ms[0]]
        } if m.menus else {}

        # per factor, its mirror class (`_mirror_classes`), which the branch
        # order keeps contiguous, per mirror class its first factor, whose
        # records the tables built once per mirror class read, and per
        # factor the previous member of its mirror run,
        # whose record's rep bounds its own.  `mirrors` holds the run of
        # each mirror class that spans two identical classes or more,
        # `run_pairs` their consecutive members, and `image_memo` a leaf's
        # images (`_images`) per slot pattern of those pairs.
        self.mirror_of, self.heads = self._mirror_classes()
        self.order = self._branch_order()
        runs: dict[int, list[int]] = {}
        for fi in self.order:
            runs.setdefault(self.mirror_of[fi], []).append(fi)
        self.mirrors = [run for run in runs.values()
                        if len({self.cls_of[fi] for fi in run}) > 1]
        self.run_pairs = [pair for run in self.mirrors for pair in zip(run, run[1:])]
        self.image_memo: dict[tuple, list[tuple]] = {}

        # the run lookahead of `_children`: per factor, how many members of
        # its mirror run follow it in the branch order, and per class record
        # r (parallel to `classes[fi]`), the (ci, w) pairs where w, the
        # least weight on ci of any of those members' records with rep <=
        # r.rep, is positive.  Members of a run have equal records
        # (`_mirrored`), so the table is built once per run from its first
        # member's; its last member has none to follow.
        self.prev_same: list[int | None] = [None] * F
        self.run_rem = [0] * F
        self.run_need: list[list[tuple]] = [[] for _ in range(F)]
        for run in runs.values():
            recs = self.classes[run[0]]
            need = []
            for rec in recs:
                rows = [r.row for r in recs if r.rep <= rec.rep]
                need.append(tuple((ci, w) for ci, w in enumerate(map(min, zip(*rows)))
                                  if w > 0.0))
            for i, fi in enumerate(run):
                self.prev_same[fi] = run[i - 1] if i else None
                self.run_rem[fi] = len(run) - 1 - i
                self.run_need[fi] = need if self.run_rem[fi] else [()] * len(recs)

        # the search state at the root; `_apply` saves the node's on `saved`
        self.choice_rec: list[ChoiceCoef | None] = [None] * F
        self.chains: dict[int, list[int]] = {I: [] for I in range(m.noc, m.H)}
        self.con_lhs = [0.0] * self.ncons
        self.static_sum = 0.0
        self.t_cur = 0.0
        # the chain profile of `_chain_profile`, or None until a child needs
        # it; only a chained child changes the chains
        self.profile = None
        # the menu floors as a tuple and their byte total (`_floors`), or
        # None on a model without menus; the root's are read by the
        # multipliers' build
        self.floors = self._floors() if self.menu_fit else None
        self.saved: list[tuple] = []
        self._build_bounds()
        # what the bounds read of the floors (`_menu_state`): the rhs, and
        # the budget's cut of the Lagrangian bound and of each penalized
        # row; without menus `con_rhs` itself and no cut
        self.no_cut = [0.0] * self.ncons
        self.rhs, self.lagr_cut, self.pen_cut = self.con_rhs, 0.0, self.no_cut
        if self.floors is not None:
            self.rhs, self.lagr_cut, self.pen_cut = self._menu_state(*self.floors)

    # -- tables --------------------------------------------------------

    def _build_bounds(self):
        """The tables of `_node_bound`: per mirror class, its first
        member's class costs (static plus guaranteed self-trigger traffic),
        their per-depth least sum, the plain knapsack rows, the root
        multipliers, and the penalized rows, empty until `tighten` builds
        them."""
        w_t = self.m.w_t
        self.costs = [[rec.static + w_t * rec.self_t for rec in self.classes[fi]]
                      for fi in self.heads]
        self.suffix_min = self._suffix([min(costs) for costs in self.costs])
        self.kn_at = self._build_knapsack([0.0] * self.ncons)
        self._build_lagrangian()
        self.pen_at: list[list[tuple]] = [[] for _ in range(self.m.F + 1)]

    def _branch_order(self) -> list[int]:
        """The static branch order, factor indices by depth: largest
        log-factor first, then mirror classes whole, the one with the
        biggest identical class ahead (filling capacity early tightens the
        relaxation bounds sooner), and within a mirror class its bigger
        identical classes first.  Every table and the symmetry breaking of
        mirror runs are derived from it.  Every member of a mirror class
        has the same log-factor, so the key keeps each mirror run
        contiguous, the invariant that decides an image on its leaf's
        buffer sums (see the module docstring); any order that keeps it
        gives the same answer, only the node counts move."""
        factors, mirror_of = self.m.factors, self.mirror_of
        cls_size = Counter(self.cls_of)
        widest: dict[int, int] = {}
        for fi, mc in enumerate(mirror_of):
            widest[mc] = max(widest.get(mc, 0), cls_size[self.cls_of[fi]])
        key = lambda fi: (
            -factors[fi].lg,
            -widest[mirror_of[fi]],
            mirror_of[fi],
            -cls_size[self.cls_of[fi]],
            factors[fi].j,
            factors[fi].n,
        )
        return sorted(range(len(factors)), key=key)

    def _mirror_classes(self) -> tuple[list[int], list[int]]:
        """Per factor, its mirror class, numbered by first factor: the
        factors it mirrors (`_mirrored`), an equivalence; and per mirror
        class, its first factor.  Identical factors mirror each other, so
        a mirror class is a union of identical classes."""
        heads: list[int] = []
        out = []
        for fi in range(self.m.F):
            mc = next((mc for mc, head in enumerate(heads)
                       if self._mirrored(head, fi)), len(heads))
            if mc == len(heads):
                heads.append(fi)
            out.append(mc)
        return out, heads

    def _mirrored(self, fa: int, fb: int) -> bool:
        """Whether factors fa and fb are alike to the search: the same
        log-factor and traffic triggers at every level, and class records
        that match one for one in every field the search reads (`rep` is
        `max(cc)`), so one may stand in for the other's record itself."""
        def fields(rec):
            return (rec.I, rec.k, rec.cc, rec.row, rec.static, rec.comp,
                    rec.dl, rec.self_t, rec.chained)

        return (self.lg[fa] == self.lg[fb]
                and all(trig[fa] == trig[fb] for trig in self.trig)
                and list(map(fields, self.classes[fa]))
                == list(map(fields, self.classes[fb])))

    def _suffix(self, values: list[float]) -> list[float]:
        """Per depth, the sum over the factors the branch order leaves
        unassigned there of the value of each one's mirror class in
        `values`, one per mirror class; the one place that order enters a
        summed table.  A member's value is built once, from its mirror
        class's first member, whose records equal its own field for field
        (`_mirrored`)."""
        order, mirror_of = self.order, self.mirror_of
        out = [0.0] * (self.m.F + 1)
        for idx in range(self.m.F - 1, -1, -1):
            out[idx] = out[idx + 1] + values[mirror_of[order[idx]]]
        return out

    def _build_knapsack(self, lam: list[float]) -> list[list[tuple]]:
        """LP relaxation of each capacity constraint i as a multiple-choice
        knapsack (Sinha & Zoltners 1979) over the unassigned tail, every
        constraint j priced into the class costs at `lam[j]` (Fisher 1981);
        at lam = 0 this is the plain knapsack bound.

        Returns, per depth, one row per finite constraint that carries
        weight, tightest first: (i, lam[i], the gain table of a whole tail
        or None, the tail's cheapest zero-weight cost, and its
        density-sorted hull segments as cumulative weights and gains with
        their densities, for a bisect instead of a walk).  The tail is
        whole when every class record of every factor in it weighs a whole
        number on constraint i; then `_kn_bound` rounds the capacity down,
        so it only ever reads the gain at a whole capacity, and the table
        holds that gain for each capacity k = 0 .. ceil(cw[-1]) - 1, each
        from the same segment and expression as a fractional capacity.
        Depths are walked from F - 1 down, so once one factor fails, every
        shallower row fails.  A child at depth pos reads the rows of its
        tail, pos + 1.  At depth F the tail is empty and the bound is at
        most the child's own bound, so that depth keeps no rows; nor does
        depth 0, which no child reads.

        Every factor's share is built once per mirror class, from its
        first member: its cheapest zero-weight cost, hull segments, their
        weight and wholeness read only its records and costs, which equal
        every member's field for field (`_mirrored`).  Each depth adds one
        factor's segments to the pool, sorted by (-density, depth, weight);
        its depth is the least in the pool, so the pool's entries before
        the first position a new segment takes keep their order, and the
        cumulative sums up to there are the previous depth's, the same
        values added in the same order.  They are kept, copied, and
        extended from that position only."""
        F = self.m.F
        mirror_of = self.mirror_of
        heads = self.heads
        priced = [
            [cost + sum(lam[ci] * add for ci, add in rec.items)
             for rec, cost in zip(self.classes[fi], costs)]
            for fi, costs in zip(heads, self.costs)
        ]
        tables = {}
        for ci in range(self.ncons):
            if math.isinf(self.con_rhs[ci]):
                continue  # 0 * inf is NaN, and the constraint never binds
            lam_i = lam[ci]
            # per mirror class: cheapest zero-weight cost, hull segments as
            # (density, weight), their total weight, and wholeness
            cost0_of, segs_of, seg_w_of, whole_of = [], [], [], []
            for fi, costs in zip(heads, priced):
                recs = self.classes[fi]
                pts = []
                zero_costs = []
                for rec, cost in zip(recs, costs):
                    w = rec.row[ci]
                    if lam_i:
                        cost -= lam_i * w
                    if w > 0.0:
                        pts.append((w, cost))
                    else:
                        zero_costs.append(cost)
                c0 = min(zero_costs)
                dedup: dict[float, float] = {}
                for w, cost in pts:
                    g = c0 - cost
                    if g > 0.0 and g > dedup.get(w, 0.0):
                        dedup[w] = g
                gains = sorted(dedup.items())
                segs: list[tuple[float, float]] = []
                seg_w = 0.0
                if gains:
                    # concave gain frontier anchored at (0, 0): increasing
                    # gain, decreasing incremental density
                    hull = _upper_hull([(0.0, 0.0), *gains])
                    for (pw, pg), (w, g) in zip(hull, hull[1:]):
                        segs.append(((g - pg) / (w - pw), w - pw))
                        seg_w += w - pw
                cost0_of.append(c0)
                segs_of.append(segs)
                seg_w_of.append(seg_w)
                whole_of.append(all(float(rec.row[ci]).is_integer() for rec in recs))
            total_w = self._suffix(seg_w_of)[0]
            if total_w <= 0.0:
                continue  # no choice weighs on it: nothing to relax
            cost0_suffix = self._suffix(cost0_of)
            # per depth, the unassigned tail's segment pool as (-density,
            # depth, weight), sorted densest first, its cumulative weights,
            # gains and densities, and whether the tail is whole
            rows: list[tuple | None] = [None] * (F + 1)
            pool: list[tuple[float, int, float]] = []
            cw, cg, dens = [0.0], [0.0], []
            whole = True
            gains = None
            for idx in range(F - 1, 0, -1):
                mc = mirror_of[self.order[idx]]
                whole = whole and whole_of[mc]
                new = [(-d, idx, w) for d, w in segs_of[mc]]
                if new:
                    at = bisect_left(pool, min(new))
                    pool += new
                    pool.sort()
                    cw, cg, dens = cw[:at + 1], cg[:at + 1], dens[:at]
                    for neg, _i, dw in pool[at:]:
                        density = -neg
                        cw.append(cw[-1] + dw)
                        cg.append(cg[-1] + density * dw)
                        dens.append(density)
                if not whole:
                    gains = None
                elif new or gains is None:  # else cw and its table are kept
                    # capacity k's segment is bisect_left(cw, k, 1) - 1;
                    # k ascends, so it is walked forward instead
                    gains = []
                    j = 0
                    for k in range(math.ceil(cw[-1])):
                        while cw[j + 1] < k:
                            j += 1
                        gains.append(cg[j] + dens[j] * (k - cw[j]))
                rows[idx] = (ci, lam_i, gains, cost0_suffix[idx], cw, cg, dens)
            tables[ci] = (self.con_rhs[ci] / total_w, rows)

        # evaluate tightest constraints first so pruning exits early
        order = sorted(tables, key=lambda ci: tables[ci][0])
        kn_at: list[list[tuple]] = [[] for _ in range(F + 1)]
        for nxt in range(1, F):
            kn_at[nxt] = [tables[ci][1][nxt] for ci in order]
        return kn_at

    def _build_lagrangian(self, upper: float | None = None):
        """Projected subgradient ascent on the capacity-relaxed dual at the
        root; the resulting fixed multipliers give a cheap per-node bound.
        With a known incumbent value, Polyak steps are used.  Members of a
        mirror class have equal records, so each step prices a mirror class
        once and adds its best cost and usage to each member in factor
        order: every float is the sum it was when each factor was priced.
        On a model with menus the budget stays in the relaxation: a step
        prices each menu row at its menu's rhs in the LP selection of the
        budget's knapsack at that step's multipliers (`_budget_rhs`), and
        both the dual value and the subgradient read it there.

        A step computes only what can change, every float as a full step
        does.  Rows and multipliers are non-negative and float + and * are
        monotone, so a price, the left fold of a record's cost and terms in
        row order, is at least the cost, and at least the price of an
        earlier record that dominates it (costs no more, and weighs no more
        on each row it weighs on): that record, dropped once per build, is
        never the first strict minimum, and a record costing no less than
        the best price so far is not priced.  The usage, and without a
        budget g and its norm, are kept per pick vector.  A zero multiplier
        adds no rhs term and stays 0.0 unless its g entry is positive
        (every step is positive).

        The ascent stops at a fixed point, a step that leaves every
        multiplier bit-identical.  Every later step would price the same
        picks at the same rhs and value, which cannot beat the best value
        it already read, and would be no longer: beta only decays, and the
        diminishing step shrinks with the step number.  Rounding is
        monotone, so no multiplier would move again."""
        F = self.m.F
        ncons = self.ncons
        con_rhs = self.con_rhs
        finite = [ci for ci in range(ncons) if not math.isinf(con_rhs[ci])]
        # past the budget at the root no child fits, and there is no
        # selection to price
        budgeted = self.floors is not None and self.floors[1] <= self.m.budget_bytes
        lam = [0.0] * ncons
        best_lam = list(lam)
        best_val = -INF
        if F and finite:
            # per mirror class, in number order, its first member's records
            # as (cost, rows with a finite rhs, position), less each one that
            # an earlier one dominates
            mirror_of = self.mirror_of
            per_class = []
            for fi, costs in zip(self.heads, self.costs):
                options = []
                for rec, cost in zip(self.classes[fi], costs):
                    ws = [(ci, w) for ci, w in rec.items if not math.isinf(con_rhs[ci])]
                    weights = dict(ws)
                    if not any(c <= cost and all(weights.get(ci, -INF) >= w for ci, w in kept)
                               for c, kept, _k in options):
                        options.append((cost, ws, len(options)))
                per_class.append(options)
            scale = max(abs(x) for x in [min(costs) for costs in self.costs] + [1.0])
            beta = 1.2
            stall = 0
            seen: dict[tuple, tuple] = {}  # pick vector -> (usage, g, norm2) at `con_rhs`
            for it in range(LAGRANGIAN_ITERS):
                prices, picks = [], []
                for options in per_class:
                    bc, bk = INF, 0
                    for cost, ws, k in options:
                        if cost < bc:
                            t = cost
                            for ci, w in ws:
                                t += lam[ci] * w
                            if t < bc:
                                bc, bk = t, k
                    prices.append(bc)
                    picks.append(bk)
                val = 0.0
                for mc in mirror_of:
                    val += prices[mc]
                key = tuple(picks)
                hit = seen.get(key)
                if hit is None:
                    usage = [0.0] * ncons
                    for mc in mirror_of:
                        for ci, w in per_class[mc][picks[mc]][1]:
                            usage[ci] += w
                    g = [usage[ci] - con_rhs[ci] for ci in finite]
                    hit = seen[key] = usage, g, sum([x * x for x in g])
                usage, g, norm2 = hit
                rhs = self._budget_rhs(lam) if budgeted else con_rhs
                if budgeted:  # the rhs moves with the multipliers
                    g = [usage[ci] - rhs[ci] for ci in finite]
                    norm2 = sum([x * x for x in g])
                for ci in finite:
                    if lam[ci]:
                        val -= lam[ci] * rhs[ci]
                if val > best_val + 1e-12:
                    best_val = val
                    best_lam = list(lam)
                    stall = 0
                else:
                    stall += 1
                    if stall >= 10:
                        beta *= 0.6
                        stall = 0
                        if beta < 1e-3:
                            break
                if norm2 <= 1e-18:
                    break
                if upper is not None and upper > val:
                    step = beta * (upper - val) / norm2
                else:
                    step = 0.4 * scale / ((1.0 + 0.15 * it) * math.sqrt(norm2))
                moved = False
                for ci, gi in zip(finite, g):
                    x = lam[ci]
                    if x or gi > 0.0:
                        y = x + step * gi
                        if not y > 0.0:
                            y = 0.0
                        if y != x:
                            lam[ci] = y
                            moved = True
                if not moved:
                    break
        # the multipliers every bound reads, one below 1e-12 as 0.0: dense,
        # and the positive ones as (ci, lambda) pairs
        lam = self.lam = [l if l > 1e-12 else 0.0 for l in best_lam]
        self.lam_active = [(ci, l) for ci, l in enumerate(lam) if l]
        lagr_min = []  # per mirror class, from its first member
        for fi, costs in zip(self.heads, self.costs):
            best = INF
            for rec, t in zip(self.classes[fi], costs):
                for ci, w in rec.items:
                    if lam[ci]:
                        t += lam[ci] * w
                if t < best:
                    best = t
            lagr_min.append(best)
        self.lagr_suffix = self._suffix(lagr_min)

    def tighten(self):
        """Between the dive and the proof: one Polyak rebuild of the
        multipliers against the dive's incumbent, if it found one, the
        penalized knapsack rows at those multipliers, which `_node_bound`
        adds from then on, and the root's budget cuts at them, the
        penalized rows' included."""
        if self.inc.x is not None:
            self._build_lagrangian(upper=self.inc.obj)
        self.pen_at = self._build_knapsack(self.lam)
        if self.floors is not None:
            # the search is at the root; each state below it is derived
            # again at the new multipliers
            self.menu_memo.clear()
            self.rhs, self.lagr_cut, self.pen_cut = self._menu_state(*self.floors)

    # -- helpers -------------------------------------------------------

    def timed_out(self) -> bool:
        if not self.stopped and self.nodes % 512 == 0:
            self.stopped = time.perf_counter() > self.deadline
        return self.stopped

    def _chain_profile(self):
        """O(1)-per-insertion traffic deltas for the current chains.

        Returns (per level, its offset into the flattened order, cumulative
        lg sums, per-tensor first-trigger index or None).  It depends on
        the chains alone, so `_children` keeps it as the node's `profile`:
        a node below a non-chained child inherits its parent's, and one
        below a chained child builds its own the first time one of its
        children needs it."""
        lg = self.lg
        offsets = [0] * self.m.H
        cum = [0.0]
        first = [None, None, None]
        n = 0
        for I, chain in self.chains.items():
            offsets[I] = n
            trig = self.trig[I]
            for fi in chain:
                cum.append(cum[n] + lg[fi])
                t = trig[fi]
                for v in range(3):
                    if first[v] is None and t[v]:
                        first[v] = n
                n += 1
        return offsets, cum, first

    def _t_delta(self, profile, I: int, q: int, fi: int) -> float:
        """Traffic increase from inserting factor fi at chain position q."""
        offsets, cum, first = profile
        lg = self.lg[fi]
        t = self.trig[I][fi]
        p = offsets[I] + q
        n = len(cum) - 1
        d = 0.0
        for v in range(3):
            g = first[v]
            if g is not None and p > g:
                d += lg
            elif t[v]:
                upto = g if g is not None else n
                d += lg + (cum[upto] - cum[p])
        return d

    def _floors(self) -> tuple[tuple[int, ...], int]:
        """The menu floors, each menu's least admissible entry at the
        current buffer sums, and their byte total; a menu no entry holds
        counts budget + 1 bytes."""
        con_lhs = self.con_lhs
        floors = []
        total = 0
        for ci, pad, fits, sizes, _rhs_of in self.menu_fit:
            ei = bisect_left(fits, con_lhs[ci] + pad)
            floors.append(ei)
            total += sizes[ei]
        return tuple(floors), total

    def _menu_rhs(self, floors: list[int], total: int) -> list[float]:
        """The rhs the bounds read at a node within the budget, given its
        menu floors and their byte total: menu i's rhs is that of the
        largest entry whose bytes fit beside every other menu's floor."""
        room = self.m.budget_bytes - total
        rhs = self.con_rhs[:]
        for (ci, _pad, _fits, sizes, rhs_of), ei in zip(self.menu_fit, floors):
            rhs[ci] = rhs_of[bisect_right(sizes, room + sizes[ei]) - 1]
        return rhs

    def _hull_items(self, floors, lam: list[float], room: int) -> tuple:
        """The budget's knapsack over the menus whose row has a positive
        multiplier in `lam`, from their floors up, in `room` bytes: their
        `menu_hulls` increments as (bytes, rhs, menu), the order of the
        increments least dense first (density: the multiplier times the
        rhs per byte), or none when all of them fit, per menu its whole
        hull's (bytes, rhs), which is (0, 0.0) at a zero multiplier, so
        such a menu stays at its floor, and the bytes of every hull past
        the room."""
        dens, incs = [], []
        whole = [(0, 0.0)] * len(self.menu_fit)
        spare = -room
        for mi, fit in enumerate(self.menu_fit):
            lam_i = lam[fit[0]]
            if lam_i:
                hull = self.menu_hulls[mi].get(floors[mi])
                if hull is None:
                    hull = self._menu_hull(mi, floors[mi])
                slopes, steps, whole[mi] = hull
                dens += [lam_i * s for s in slopes]
                incs += steps
                spare += whole[mi][0]
        order = sorted(range(len(incs)), key=dens.__getitem__) if spare > 0 else []
        return order, incs, whole, spare

    def _menu_hull(self, mi: int, k: int) -> tuple:
        """Menu `mi`'s share of the budget's knapsack at floor k, kept in
        `menu_hulls`: the concave hull of its (bytes, rhs) points from entry
        k up, as the rhs per byte of its increments, steepest first, the
        increments as (bytes, rhs, menu), and the whole hull's (bytes,
        rhs)."""
        _ci, _pad, _fits, sizes, rhs_of = self.menu_fit[mi]
        hull = _upper_hull(list(zip(sizes[k:-1], rhs_of[k:])))
        steps = [(b - pb, r - pr, mi) for (pb, pr), (b, r) in zip(hull, hull[1:])]
        out = self.menu_hulls[mi][k] = (
            [dr / db for db, dr, _mi in steps], steps,
            (hull[-1][0] - hull[0][0], hull[-1][1] - hull[0][1]))
        return out

    def _budget_fill(self, items: tuple, skip: int | None = None) -> list[float]:
        """The LP relaxation of the multiple-choice knapsack of the
        `_hull_items` `items` (Sinha & Zoltners 1979), menu `skip` left at
        its floor: per menu, the rhs it gains over its floor.  The LP takes
        the increments densest first; each menu's are concave, so it takes
        them in their order, and the first that does not fit fills the room
        with its fraction.  This pass finds the same from the other end: it
        takes every hull whole and gives back the least dense increments
        first, until the rest fits."""
        order, incs, whole, spare = items
        up = [gain for _nbytes, gain in whole]
        if skip is not None:
            spare -= whole[skip][0]
            up[skip] = 0.0
        if spare > 0:
            for j in order:
                db, dr, mi = incs[j]
                if mi == skip:
                    continue
                spare -= db
                if spare > 0:
                    up[mi] -= dr
                else:  # the LP keeps the fraction -spare / db of it
                    up[mi] -= dr * (db + spare) / db
                    break
        return up

    def _budget_rhs(self, lam: list[float]) -> list[float]:
        """`con_rhs` with each menu row at its menu's rhs in the budget's
        LP selection at the multipliers `lam`, from the root's floors: the
        rhs one step of `_build_lagrangian` prices."""
        floors, total = self.floors
        items = self._hull_items(floors, lam, self.m.budget_bytes - total)
        up = self._budget_fill(items)
        rhs = self.con_rhs[:]
        for (ci, _pad, _fits, _sizes, rhs_of), ei, u in zip(self.menu_fit, floors, up):
            rhs[ci] = rhs_of[ei] + u
        return rhs

    def _menu_state(self, floors, total: int) -> tuple:
        """What the bounds read at a node with menu floors `floors` of
        `total` bytes: the rhs (`_menu_rhs`), the Lagrangian bound's budget
        cut, and per constraint the penalized bound's, at the multipliers
        `lam`.  The cut of a bound is its sum over the menu rows of
        lambda_i times the node's rhs less the budget's LP maximum of that
        sum over entries at or above the floors, where that is the less
        (`_budget_fill`); the penalized row of menu i takes the maximum
        over the other menus, i at its floor, since its own rhs stays in
        its knapsack.  The penalized cuts are None until `tighten` has
        built the penalized rows."""
        rhs = self._menu_rhs(floors, total)
        if total > self.m.budget_bytes:
            return rhs, 0.0, self.no_cut  # no child fits: nothing to bound
        lam = self.lam
        items = self._hull_items(floors, lam, self.m.budget_bytes - total)
        if not items[1]:
            return rhs, 0.0, self.no_cut  # no menu is priced
        lam_m = [lam[fit[0]] for fit in self.menu_fit]
        # per menu, lambda_i times what the node's rhs adds to its floor's
        extra = [lam_i * (rhs[ci] - rhs_of[ei])
                 for lam_i, (ci, _pad, _fits, _sizes, rhs_of), ei
                 in zip(lam_m, self.menu_fit, floors)]

        def cut(skip):
            up = self._budget_fill(items, skip)
            over = sum(e for mi, e in enumerate(extra) if mi != skip)
            return max(0.0, over - sum(l * u for l, u in zip(lam_m, up)))

        lagr_cut = cut(None)
        if not any(self.pen_at):
            return rhs, lagr_cut, None  # no penalized rows until `tighten`
        pen_cut = [lagr_cut] * self.ncons
        for mi, fit in enumerate(self.menu_fit):
            if lam_m[mi]:
                pen_cut[fit[0]] = cut(mi)
        return rhs, lagr_cut, pen_cut

    def _child_floors(self, rec: ChoiceCoef) -> tuple:
        """The menu floors and their byte total with `rec` added to the
        node's buffer sums, from the node's `floors`: the node's own
        `floors` object when no menu moves.  Only the menus `rec` touches
        are re-priced, since every other one reads a 0.0 in its row and
        keeps its floor.  Each floor is bisected on the child's own buffer
        sum, `(con_lhs + add) + pad` as the child's `_floors` evaluates it,
        so the child's floors equal a fresh `_floors` of it bit for bit.
        The total is of integers, so it is exact in any order."""
        con_lhs = self.con_lhs
        floors, total = self.floors
        moved = None
        for ci, add, mi, pad, fits, sizes in self.menu_items[rec]:
            ei = bisect_left(fits, (con_lhs[ci] + add) + pad)
            if ei != floors[mi]:
                if moved is None:
                    moved = list(floors)
                moved[mi] = ei
                total += sizes[ei] - sizes[floors[mi]]
        return self.floors if moved is None else (tuple(moved), total)

    def _lagr_bound(self, base: float, pos: int, row: list[float]) -> float:
        """Root Lagrangian relaxation evaluated with the current slacks
        against the node's rhs, each with the tolerance the capacity check
        grants, plus the node's budget cut (`_menu_state`): the sum over
        the menu rows of lambda_i times the rhs is at most J(floors), the
        budget's LP maximum of it, where that is below the sum at the
        node's rhs."""
        b = base + self.lagr_suffix[pos + 1] + self.lagr_cut
        rhs = self.rhs
        con_lhs = self.con_lhs
        for ci, lam in self.lam_active:
            b -= lam * (rhs[ci] - con_lhs[ci] - row[ci] + TOLERANCE)
        return b

    def _kn_bound(self, table: list[list[tuple]], base: float, pos: int,
                  row: list[float], best: float, thresh: float,
                  refund: float, cut: list[float]) -> float:
        """max(best, max over the rows of `table` at the tail of depth
        `pos` of the knapsack bound); returns once that max exceeds
        `thresh` (the caller prunes).  Constraint i stays explicit with the
        child's slack against the node's `rhs`, plus the tolerance, every
        other constraint j is priced at its multiplier lambda_j (the
        table's costs) and `refund` gives back lambda_j times its slack,
        less `cut[i]`, the budget's cut of row i (`_menu_state`): on a
        menu row, from J-i(floors), the LP maximum over the other menus.
        For the plain table (`kn_at`, lambda = 0) the refund and the cuts
        are 0.  With the tolerance every completion the capacity check
        admits is covered, and by LP duality each term is at least the
        Lagrangian bound at the same multipliers and the same cut.

        On a row with a gain table (a whole tail) the knapsack's capacity
        is the slack rounded down.  Every weight in that tail is a whole
        number, so a completion's tail weight W is an integer, summed
        exactly, and W <= slack gives W <= floor(slack): the LP at the
        rounded capacity still relaxes every admitted completion.  Its gain
        is read from the table: 0.0 at k <= 0, the whole hull's gain past
        the table's end, the entry in between.  The refund keeps the
        unrounded slack; there it only cancels lambda_i times the slack,
        and is no capacity."""
        con_lhs = self.con_lhs
        rhs = self.rhs
        for ci, lam_i, gains, cost0, cw, cg, dens in table[pos + 1]:
            slack = rhs[ci] - con_lhs[ci] - row[ci] + TOLERANCE
            upper = base + cost0 - (refund - lam_i * slack - cut[ci])
            if upper <= best:
                continue  # the knapsack gain is >= 0: cannot raise the max
            if gains is not None:
                k = math.floor(slack)  # no completion uses the fraction
                if k <= 0:
                    gain = 0.0
                elif k < len(gains):
                    gain = gains[k]
                else:
                    gain = cg[-1]
            elif slack >= cw[-1]:
                gain = cg[-1]
            elif slack > 0.0:
                j = bisect_left(cw, slack, 1) - 1
                gain = cg[j] + dens[j] * (slack - cw[j])
            else:
                gain = 0.0
            b = upper - gain
            if b > best:
                best = b
                if b > thresh:
                    return b
        return best

    def _children(self, pos: int):
        """Children at depth `pos` in search order, each (bound, level,
        mapping, chain position or -1, class record, traffic after); no two
        share (level, mapping, position), so the sort stops there.

        Like the capacity check, the run lookahead only filters.  With
        `run_rem[fi]` members of fi's identical class still to come, a
        record r is dropped when, on some constraint ci of
        `run_need[fi]`, t = con_lhs[ci] + r.row[ci] plus w, added
        `run_rem[fi]` times one step at a time, exceeds the capacity.  It
        is exact: every completion gives each remaining member a record
        with rep <= r.rep, so a weight >= w on ci at every step, and no
        weight is negative.  Float addition is monotone, so the
        completion's running sum on ci stays >= t step for step, and its
        own capacity check fails by the run's last member.  A dropped
        child's subtree thus holds no leaf: leaves come in the same order,
        the incumbent evolves the same way, and every other prune decision
        and child order is unchanged.  Adding w one step at a time, not
        `run_rem * w` at once, keeps this exact on non-integer weights."""
        fi = self.order[pos]
        prev = self.prev_same[fi]
        prev_rec = None if prev is None else self.choice_rec[prev]
        limit = None if prev_rec is None else prev_rec.rep
        t_cur = self.t_cur
        con_lhs = self.con_lhs
        cap = self.cap
        rem = self.run_rem[fi]
        menu_fit = self.menu_fit
        out = []
        for rec, need in zip(self.classes[fi], self.run_need[fi]):
            if limit is not None and rec.rep > limit:
                continue
            ok = True
            for ci, add in rec.items:
                if con_lhs[ci] + add > cap[ci]:
                    ok = False
                    break
            if not ok:
                continue
            for ci, w in need:  # the run lookahead
                t = con_lhs[ci] + rec.row[ci]
                for _ in range(rem):
                    t += w
                if t > cap[ci]:
                    ok = False
                    break
            if not ok:
                continue
            if menu_fit and self._child_floors(rec)[1] > self.m.budget_bytes:
                continue
            if rec.chained:
                profile = self.profile
                if profile is None:
                    profile = self.profile = self._chain_profile()
                I = rec.I
                chain = self.chains[I]
                lo_q = 0
                if prev_rec is not None and prev_rec.cc == rec.cc:
                    # the previous member of the mirror run is already in
                    # this chain: insert outward
                    mirror_of = self.mirror_of
                    for qpos in range(len(chain) - 1, -1, -1):
                        if mirror_of[chain[qpos]] == mirror_of[fi]:
                            lo_q = qpos + 1
                            break
                for q in range(lo_q, len(chain) + 1):
                    t_after = t_cur + self._t_delta(profile, I, q, fi)
                    b = self._node_bound(pos, rec, t_after)
                    if b is not None:
                        out.append((b, I, rec.k, q, rec, t_after))
            else:
                b = self._node_bound(pos, rec, t_cur)
                if b is not None:
                    out.append((b, rec.I, rec.k, -1, rec, t_cur))
        if len(out) > 1:
            out.sort()
        return out

    def _node_bound(self, pos, rec, t_after) -> float | None:
        """The child's bound, the max of the per-factor, Lagrangian and
        plain knapsack bounds and, once `tighten` has built `pen_at`, the
        penalized one; None past the threshold `inc.obj + EPS_PRUNE`.
        Within it the max is exact, so comparing it with a later, lower
        threshold is the same test as evaluating it again there."""
        base = self.static_sum + rec.static + self.m.w_t * t_after
        thresh = self.inc.obj + EPS_PRUNE
        row = rec.row
        b = base + self.suffix_min[pos + 1]
        if b > thresh:
            return None
        b2 = self._lagr_bound(base, pos, row)
        if b2 > b:
            b = b2
            if b > thresh:
                return None
        b = self._kn_bound(self.kn_at, base, pos, row, b, thresh, 0.0, self.no_cut)
        if b > thresh:
            return None
        if self.pen_at[pos + 1]:
            con_lhs = self.con_lhs
            rhs = self.rhs
            refund = 0.0
            for ci, lam in self.lam_active:
                refund += lam * (rhs[ci] - con_lhs[ci] - row[ci] + TOLERANCE)
            b = self._kn_bound(self.pen_at, base, pos, row, b, thresh, refund,
                               self.pen_cut)
            if b > thresh:
                return None
        return b

    def _apply(self, pos, child):
        """Descend into `child`: save the node's state and set the child's,
        each sum its parent's plus the child's record.  The child's menu
        floors are `_child_floors`, and its bounds' menu state is
        `_menu_state` of them, kept once per distinct floors."""
        _b, I, _k, q, rec, t_after = child
        fi = self.order[pos]
        self.saved.append((self.con_lhs, self.static_sum, self.t_cur, self.floors,
                           self.rhs, self.lagr_cut, self.pen_cut, self.profile))
        if self.floors is not None:
            floors = self._child_floors(rec)
            if floors is not self.floors:
                self.floors = floors
                state = self.menu_memo.get(floors)
                if state is None:
                    state = self.menu_memo[floors] = self._menu_state(*floors)
                self.rhs, self.lagr_cut, self.pen_cut = state
        con_lhs = self.con_lhs[:]
        for ci, add in rec.items:
            con_lhs[ci] += add
        self.con_lhs = con_lhs
        self.static_sum += rec.static
        self.t_cur = t_after
        self.choice_rec[fi] = rec
        if q >= 0:
            self.chains[I].insert(q, fi)
            self.profile = None

    def _undo(self, pos, child):
        """Return from `child` to the node `_apply` saved."""
        _b, I, _k, q, _rec, _t_after = child
        (self.con_lhs, self.static_sum, self.t_cur, self.floors, self.rhs,
         self.lagr_cut, self.pen_cut, self.profile) = self.saved.pop()
        self.choice_rec[self.order[pos]] = None
        if q >= 0:
            del self.chains[I][q]

    def _derive_menus(self) -> tuple[int, ...] | None:
        """The leaf's menu selection, from its `floors`: menu by menu, the
        largest entry whose bytes fit beside the entries chosen so far and
        the floors of the menus still to come; None when the floors alone,
        a menu no entry holds at budget + 1 bytes, exceed the budget.
        `room` is the budget left beside those; sizes ascend, so `top` is
        at or above the floor, and the sentinel never fits."""
        if not self.m.menus:
            return None
        floors, total = self.floors
        room = self.m.budget_bytes - total
        if room < 0:
            return None
        sel = []
        for (_ci, _pad, _fits, sizes, _rhs_of), ei in zip(self.menu_fit, floors):
            top = bisect_right(sizes, room + sizes[ei]) - 1
            room -= sizes[top] - sizes[ei]
            sel.append(top)
        return tuple(sel)

    def _leaf(self) -> bool:
        """Decide the leaf, and its images, the leaves its mirror runs cut,
        all on the leaf's menus; True when one of them is accepted.  No
        estimate gates it: the leaf's last child passed its bound, at
        least the leaf's static sum plus its weighted traffic, against the
        incumbent it is entered under."""
        self.leaves += 1
        menu_sel = self._derive_menus()
        # fires only when F = 0 (an all-ones layer), where no child priced
        # the menus
        if self.m.menus and menu_sel is None:
            return False
        return self._decide(self.choice_rec, self.chains, menu_sel)

    def _decide(self, recs: list[ChoiceCoef], chains: dict[int, list[int]],
                menu_sel: tuple[int, ...] | None) -> bool:
        """Decide the leaf of class records `recs` and chains `chains`, with
        its menus `menu_sel`, and its images (`_images`, the leaf itself
        first), each as the search decides such a leaf, each member taking
        its source's record and chain place; True when the incumbent takes
        one of them.  An image deals each run's slots over the run's own
        depths, which the branch order keeps contiguous, and a member's row
        holds 0.0 or the run's one log-factor on every constraint; so its
        branch-order fold of the buffer sums adds the same values as its
        leaf's at every depth, and its sums, capacity verdict and menus are
        the leaf's, bit for bit.  Its objective comes from the leaf's static
        prefix sums and traffic walk (`_image_objectives`), and only an
        image at or below the incumbent's objective is offered (`_offer`)."""
        leaf = _Leaf(recs, chains, menu_sel, self.m)
        images = self._images(recs)
        accepted = False
        for obj, image in zip(self._image_objectives(leaf, images), images):
            if obj <= self.inc.obj:
                accepted = self._offer(leaf, obj, image) or accepted
        return accepted

    def _slot_maps(self, run: list[int], pattern: tuple[bool, ...]) -> list[tuple]:
        """The images of a leaf whose mirror run `run` has slot `pattern`:
        per slot but the last, whether the next one is equal to it, the
        same record and unchained.  Equal slots form blocks.  An image
        labels each slot with the identical class that takes it, each
        class as often as it has members, the labels of a block in
        ascending order; the leaf's own labelling is left out.  Each image
        is its moves, (member, source) pairs: the k-th member of a class
        takes the record and chain place of the source, the k-th slot the
        class's label marks, when that slot lies in another block than the
        member's own."""
        n = len(run)
        labels = [self.cls_of[fi] for fi in run]
        block = [0] * n
        for i in range(1, n):
            block[i] = block[i - 1] + (not pattern[i - 1])
        kept = [c for _block, c in sorted(zip(block, labels))]
        ids = sorted(set(labels))
        out = []

        def deal(lab: list[int]):
            i = len(lab)
            if i < n:
                for c in ids:
                    if (lab.count(c) < labels.count(c)
                            and not (i and block[i] == block[i - 1] and c < lab[-1])):
                        deal(lab + [c])
            elif lab != kept:
                out.append([
                    (run[m], run[s]) for c in ids
                    for m, s in zip([m for m in range(n) if labels[m] == c],
                                    [s for s in range(n) if lab[s] == c])
                    if block[m] != block[s]])

        deal([])
        return out

    def _images(self, recs: list[ChoiceCoef]) -> list[tuple]:
        """The images of the leaf of records `recs`: the leaf itself, then
        one per combination of its mirror runs' `_slot_maps` but the leaf's
        own, in the order of `itertools.product` over the runs, kept in
        `image_memo` per slot pattern.  Each is (first, gather): `first`,
        its first moved factor, F for the leaf itself; and `gather`, which
        reads the image's values from `first` on, each member's its
        source's, off a list of the leaf's, one per factor."""
        pattern = tuple([not recs[a].chained and recs[a].rep == recs[b].rep
                         for a, b in self.run_pairs])
        images = self.image_memo.get(pattern)
        if images is not None:
            return images
        per_run, at = [], 0
        for run in self.mirrors:
            per_run.append([None, *self._slot_maps(run, pattern[at:at + len(run) - 1])])
            at += len(run) - 1
        images = self.image_memo[pattern] = [(self.m.F, _gather([]))]
        for combo in itertools.islice(itertools.product(*per_run), 1, None):
            moves = [move for maps in combo if maps for move in maps]
            first = min(fi for fi, _src in moves)
            index = list(range(first, self.m.F))
            for fi, src in moves:
                index[fi - first] = src
            images.append((first, _gather(index)))
        return images

    def _image_objectives(self, leaf: "_Leaf", images: list[tuple]) -> list[float]:
        """Each image's exact objective, closed by `MipModel.objective_close`.
        Mirrored factors share their log-factor and their triggers at every
        level, and the traffic walk reads nothing else of a factor, so an
        image's walk total is the leaf's, bit for bit.  Its static sum adds
        the leaf's values up to its first moved factor, in factor order, and
        so equals the leaf's prefix sum there; it resumes from it over the
        image's values from that factor on.  The leaf itself moves none: its
        sum is the leaf's whole fold."""
        close = self.m.objective_close
        statics, pre, traffic = leaf.statics, leaf.pres, leaf.traffic
        return [close(reduce(add, gather(statics), pre[first]), traffic)
                for first, gather in images]

    def _offer(self, leaf: "_Leaf", obj: float, image: tuple) -> bool:
        """Offer the image `image` (`_images`) of `leaf` at objective `obj`,
        at most the incumbent's, to the incumbent: the key of its canonical
        assignment, from the image's slots, the leaf's with each member's
        taken from its source, decides a tie.  True when the incumbent
        takes it."""
        m = self.m
        inc = self.inc
        self.canonicalized += 1
        bound = inc.key if obj == inc.obj else None
        first, gather = image
        slots = leaf.slots
        x = canonical_assignment(m, [*slots[:first], *gather(slots)], leaf.chains, self,
                                 bound)
        if x is None:
            return False
        key = m.lex_key(x, leaf.menu_sel)
        if not inc.beats(obj, key):
            return False
        if m.constraint_violations(x, leaf.menu_sel):
            return False  # defensive: never accept an infeasible leaf
        inc.offer(obj, key, x, leaf.menu_sel)
        return True

    def dfs(self, pos: int, dive: bool = False) -> bool:
        """Depth-first search in bound order, backtracking locally, over
        the children whose bound stays at or below the incumbent's
        threshold as each one's turn comes; True once it stops: at the
        deadline, or with `dive` at the first leaf the incumbent accepts.
        Until an incumbent exists nothing is pruned (the threshold is
        infinite), so `dfs(0, dive=True)` is a plain bound-order dive.
        `prove` also searches a node's subtree with it once the open list
        is full."""
        if self.timed_out():
            return True
        self.nodes += 1
        if pos == self.m.F:
            return self._leaf() and dive
        for child in self._children(pos):
            if child[0] > self.inc.obj + EPS_PRUNE:
                continue
            self._apply(pos, child)
            stop = self.dfs(pos + 1, dive)
            self._undo(pos, child)
            if stop:
                return True
        return False

    def prove(self) -> float:
        """Best-bound search with plunging from the root, to the end of
        the tree or the deadline; returns the least bound of the nodes
        still open when it stops, at most the incumbent's objective, or
        that objective once nothing is open.

        An open node is a child not yet entered, kept in a heap as its
        parent node and its child tuple, keyed by the child's bound; ties
        go to the deeper node, then the newer one.  A node is a (depth,
        parent node, child) tuple, so an entry is O(1) and a path is a
        chain of parent links.  Entering a node expands it: each of its
        children, all within the threshold, is opened, and the search
        plunges into the first of them, the least bound, while its key is
        at most `best + PLUNGE * (inc.obj - best)`, where `best` is the
        least key open.  Otherwise, and below a leaf, it jumps to the
        heap's best entry: `_undo` up to the common prefix of the two
        paths, then `_apply` down to the entry's parent and into its
        child.  The key is the exact bound a fresh `_node_bound` would
        compare with the threshold there, so an entry above the threshold
        is dropped without the walk, and once the heap's best is above it
        the proof is done.  With `MAX_OPEN` entries open, a node is
        searched by `dfs` instead of expanded, and adds none."""
        F = self.m.F
        inc = self.inc
        children, apply = self._children, self._apply
        heap: list[tuple] = []
        push, pop = heapq.heappush, heapq.heappop
        seq = itertools.count()
        path = [(0, None, None)]  # the nodes from the root to the current one
        key = -INF  # the current node's key
        while True:
            node = path[-1]
            pos = node[0]
            first = None
            if len(heap) >= MAX_OPEN:
                if self.dfs(pos):
                    break
            elif self.timed_out():
                break
            elif pos == F:
                self.nodes += 1
                self._leaf()
            else:
                self.nodes += 1
                for child in children(pos):
                    if first is None:
                        first = child
                    else:
                        push(heap, (child[0], -pos - 1, -next(seq), node, child))
            if first is not None:
                first_key = first[0]
                best = heap[0][0] if heap else first_key
                if first_key <= best or first_key <= best + PLUNGE * (inc.obj - best):
                    key = first_key
                    apply(pos, first)
                    path.append((pos + 1, node, first))
                    continue
                push(heap, (first_key, -pos - 1, -next(seq), node, first))
            if not heap or heap[0][0] > inc.obj + EPS_PRUNE:
                heap.clear()
                key = INF
                break
            key, _depth, _seq, parent, child = pop(heap)
            self._goto(path, parent)
            apply(parent[0], child)
            path.append((parent[0] + 1, parent, child))
        self._goto(path, path[0])
        return min(heap[0][0] if heap else INF, key, inc.obj)

    def _goto(self, path: list[tuple], target: tuple):
        """Move the search state from the last node of `path` to `target`:
        `_undo` up to their deepest common node, then `_apply` down."""
        down = []
        while target[0] >= len(path) or path[target[0]] is not target:
            down.append(target)
            target = target[1]
        while len(path) > target[0] + 1:
            depth, _parent, child = path.pop()
            self._undo(depth - 1, child)
        for node in reversed(down):
            depth, _parent, child = node
            self._apply(depth - 1, child)
            path.append(node)


def _gather(index: list[int]):
    """A function of a list that returns its items at `index`, in order,
    as a tuple: `operator.itemgetter`, which returns a lone item bare and
    takes no empty index."""
    if len(index) < 2:
        return lambda values: tuple([values[i] for i in index])
    return itemgetter(*index)


def _root_witness(m: MipModel) -> tuple[str, ...] | None:
    """Best-effort irreducible cause when no feasible leaf exists, each
    constraint named once.  It scans each class's dense row: a capacity
    pad above the capacity makes rhs < 0, and then a zero contribution
    already violates."""
    names: dict[str, None] = {}  # ordered set
    for recs in m.classes:
        blocking = set()
        any_ok = False
        for rec in recs:
            bad = [c.name for c, add in zip(m.check_cons, rec.row)
                   if add > c.rhs + TOLERANCE]
            if bad:
                blocking.update(bad)
            else:
                any_ok = True
        if not any_ok:
            names.update(dict.fromkeys(sorted(blocking)))
    if m.menus:
        floor_bytes = sum(menu.entries[0].nbytes for menu in m.menus)
        if floor_bytes > m.budget_bytes:
            names["budget"] = None
    return tuple(names) or None


def _violated_by_all(m: MipModel) -> bool:
    """Whether a constraint no assignment satisfies stands out on its own:
    contributions are never negative, so a non-menu constraint whose rhs
    is below 0 is violated by every assignment, even one adding nothing."""
    return any(c.menu is None and 0.0 > c.rhs + TOLERANCE for c in m.check_cons)


def solve(model: MipModel, deadline: float = INF) -> Solution:
    """Proven-optimal solve with the deterministic branch-and-bound,
    stopped with status timeout past `deadline`, a `time.perf_counter()`
    value."""
    t0 = time.perf_counter()
    if _violated_by_all(model):
        stats = SolveStats(wall_time_s=time.perf_counter() - t0, bound=INF)
        return Solution("infeasible", None, None, None, stats,
                        witness=_root_witness(model))
    inc = _Incumbent()
    search = _Search(model, inc, deadline)
    search.dfs(0, dive=True)
    # the dive ends at its first accepted leaf or at the deadline; one that
    # ends at neither has searched the whole tree, with nothing to bound it
    bound = -INF if search.stopped else INF
    if inc.x is not None:
        search.tighten()
        bound = search.prove()

    gap = inc.obj - bound if inc.x is not None else INF
    stats = SolveStats(search.nodes, search.leaves, time.perf_counter() - t0,
                       search.canonicalized, bound, gap)
    if inc.x is None:
        if search.stopped:
            return Solution("timeout", None, None, None, stats)
        return Solution(
            "infeasible", None, None, None, stats, witness=_root_witness(model)
        )
    status = "timeout" if search.stopped else "optimal"
    return Solution(status, inc.obj, inc.x, inc.menu, stats)
