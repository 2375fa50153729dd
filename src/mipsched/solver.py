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
These bounds also order the children.  The final depth-first proof adds
a Lagrangian-penalized knapsack bound (Fisher 1981; Sinha & Zoltners
1979): one capacity constraint stays explicit as a knapsack LP while the
others are priced at their root multipliers.  It is checked against the
current incumbent right before a child is entered and only skips it: it
never reorders children, and its tables are built only after the dive
and the limited-discrepancy sweep, so the proof visits a subset of the
nodes in the same order and reaches the same answer.
Reported assignments are canonicalized to the lexicographically smallest
member of their class, so results are bit-stable across runs.  The search
is single-threaded.  It branches over the model's choice classes,
`MipModel.classes`, and a child reads its class's first `ChoiceCoef`
record; a constraint the class leaves alone reads 0.0 in its dense row,
so every bound is evaluated with the same operands in the same order as a
sparse lookup would give, and node counts stay pinned.  One `_Search`
owns a solve's bound tables and its search state; every table is built
from those records, and `_Search._suffix` is the one place the static
branch order is summed into a per-depth table.  The leaf re-check and
`exhaustive_solve` read each concrete choice's own record, never its
class's, so a grouping error cannot hide from them.

`exhaustive_solve` enumerates the raw assignment space and serves as the
independent optimality oracle for desk-scale instances.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

from .formulation import ChoiceCoef, MipModel

INF = math.inf
EPS_PRUNE = 1e-9
TOLERANCE = 1e-6  # capacity slack granted to every constraint check
EXHAUSTIVE_SPACE_LIMIT = 10_000_000


class SpaceTooLarge(ValueError):
    pass


@dataclass
class SolverOptions:
    """Knobs for `solve`.

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
        self.chain_pins: dict[int, int] = {}
        self.chain_len = chain_len


def _zmax(st: _LevelState, pos: int | None, Z: int) -> int:
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
    always exists."""
    bounds = [(-1, -1), *sorted(st.chain_pins.items()), (st.chain_len, Z)]
    for gap in range(len(bounds) - 1, 0, -1):
        p0, z0 = bounds[gap - 1]
        p1, z1 = bounds[gap]
        if pos is not None and not p0 < pos < p1:
            continue
        free = [z for z in range(z1 - 1, z0, -1) if z not in st.used]
        if pos is not None:
            return free[p1 - pos - 1]
        if len(free) > p1 - p0 - 1:
            return free[0]


def canonical_assignment(
    model: MipModel,
    choice_cls: list[tuple[tuple[int, int], ...]],
    chains: dict[int, list[int]],
    sh: "_Search",
) -> dict[int, tuple[int, int, int]]:
    """Lexicographically smallest raw assignment realizing a leaf class.

    A leaf fixes, per factor, a class of interchangeable (level, mapping)
    options, plus the relative order of temporal factors at levels >= the
    NoC boundary.  Identical factors may be permuted, option levels and
    rank slots shifted freely within the class; this picks, factor by
    declared order, the placement with the highest (level, rank, mapping)
    that keeps the remainder completable (a later one-hot position is a
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
    `Z-1-len(used)`.  `sh.cls_of` maps each factor to its identical class.

    Each factor has exactly one best placement, so the scan keeps one
    entry and never has to compare completions.  Two entries of one
    identical class differ in their options tuple or in their chain
    position.  Distinct options tuples of a class are disjoint sets of
    (level, mapping) pairs, so their best triples differ in (level,
    mapping).  Two chain positions p < p' on one level cannot get the
    same highest rank z: if p fits at z, the embedding that proves it
    puts p' at some free rank above z, where p' also fits with p still
    free to take z, so the highest rank of p' is above z.
    """
    Z = model.Z
    cls_of = sh.cls_of
    chain_pos: dict[int, int] = {}
    for lst in chains.values():
        for pos, fi in enumerate(lst):
            chain_pos[fi] = pos

    # per identical class, one entry per distinct placement (options
    # tuple, chain position or None): [factors of the class still holding
    # it, top option (level, mapping), pos]
    remaining: dict[int, dict[tuple, list]] = {}
    for fi, options in enumerate(choice_cls):
        pos = chain_pos.get(fi)
        rem = remaining.setdefault(cls_of[fi], {})
        ent = rem.get((options, pos))
        if ent is None:
            rem[(options, pos)] = [1, max(options), pos]
        else:
            ent[0] += 1
    states = [_LevelState(len(chains.get(I, ()))) for I in range(model.H)]
    out: dict[int, tuple[int, int, int]] = {}
    for fi in range(model.F):
        best = best_ent = None
        for ent in remaining[cls_of[fi]].values():
            count, (I, k), pos = ent
            # a lower top level cannot beat the best so far
            if not count or (best is not None and I < best[0]):
                continue
            st = states[I]
            z = _zmax(st, pos, Z) if st.chain_len else Z - 1 - len(st.used)
            if best is None or (I, z, k) > best:
                best, best_ent = (I, z, k), ent
        out[fi] = best
        best_ent[0] -= 1
        I, z, _k = best
        pos = best_ent[2]
        states[I].used.add(z)
        if pos is not None:
            states[I].chain_pins[pos] = z
    return out


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


class _Search:
    """One solve: the model-derived tables, built from the class records
    of `MipModel.classes`, and the depth-first search state over the
    collapsed space.  One instance runs every phase (dive, LDS, DFS); only
    `_build_lagrangian` and `_build_penalized_knapsack` update the tables,
    between phases."""

    # slotted: the search reads these attributes on every node
    __slots__ = (
        "m", "tol", "inc", "deadline", "stopped", "nodes", "leaves", "order",
        "prev_same", "wt", "balance", "ncons", "con_rhs", "cap", "menu_fit",
        "cls_of", "classes", "costs", "suffix_min", "kn_at",
        "lam_active", "lagr_suffix", "pen_at", "suffix_comp_lo",
        "suffix_comp_hi", "suffix_traf_lo", "traf_hi_const", "choice_rec",
        "chains", "con_lhs", "static_sum", "comp_sum", "dl_sum", "t_stack",
    )

    def __init__(self, model: MipModel, tol: float, incumbent: _Incumbent,
                 deadline: float):
        m = self.m = model
        F = m.F
        self.tol = tol
        self.inc = incumbent
        self.deadline = deadline
        self.stopped = False
        self.nodes = 0
        self.leaves = 0
        self.wt = m.weights.effective()[2]
        self.balance = m.weights.mode == "balance"

        self.ncons = len(m.check_cons)
        self.con_rhs = [c.rhs for c in m.check_cons]
        self.cap = [rhs + tol for rhs in self.con_rhs]
        # per menu: its buffer constraint, that constraint's pad, and each
        # entry's exponent plus the tolerance.  Entries ascend in size, so
        # bisect_left on these finds the smallest entry that holds a sum:
        # the first with `e + tol >= sum`.
        con_of_menu = {c.menu: ci for ci, c in enumerate(m.check_cons)
                       if c.menu is not None}
        self.menu_fit = [
            (con_of_menu[mi], m.check_cons[con_of_menu[mi]].pad,
             [ent.e + tol for ent in menu.entries])
            for mi, menu in enumerate(m.menus)
        ]
        # per depth, rows of the penalized knapsack bound; filled by
        # _build_penalized_knapsack
        self.pen_at: list[list[tuple]] = [[] for _ in range(F + 1)]

        # largest log-factor first; bigger identical classes ahead on ties
        # (filling capacity early tightens the relaxation bounds sooner)
        cls_size: dict[int, int] = {}
        for f in m.factors:
            cls_size[f.cls] = cls_size.get(f.cls, 0) + 1
        key = lambda fi: (
            -m.factors[fi].lg,
            -cls_size[m.factors[fi].cls],
            m.factors[fi].j,
            m.factors[fi].n,
        )
        self.order = sorted(range(F), key=key)
        self.prev_same: list[int | None] = [None] * F
        last: dict[int, int] = {}
        for fi in self.order:
            cls = m.factors[fi].cls
            self.prev_same[fi] = last.get(cls)
            last[cls] = fi

        # canonical_assignment's table: factor -> identical class
        self.cls_of = [f.cls for f in m.factors]

        # Every member of a choice class has the same coefficients and
        # constraint row, and classes come in order of first appearance,
        # so a table built over the class records equals one built over
        # every collapsed choice, float for float.
        self.classes = m.classes
        if self.balance:
            self.suffix_comp_lo = self._suffix(
                [min(rec.comp for rec in recs) for recs in self.classes])
            self.suffix_comp_hi = self._suffix(
                [max(rec.comp for rec in recs) for recs in self.classes])
            self.suffix_traf_lo = self._suffix(
                [min(rec.dl + rec.self_t for rec in recs) for recs in self.classes])
            total_lg = sum(f.lg for f in m.factors)
            self.traf_hi_const = (
                sum(max(rec.dl for rec in recs) for recs in self.classes)
                + 3.0 * total_lg
            )
            self.lam_active = []
        else:
            # per class, full cost (static plus guaranteed self-trigger
            # traffic)
            self.costs = [[rec.static + self.wt * rec.self_t for rec in recs]
                          for recs in self.classes]
            self.suffix_min = self._suffix([min(costs) for costs in self.costs])
            tabs, order = self._build_knapsack(self.costs, [0.0] * self.ncons)
            # per depth, one row per weighted constraint, tightest first:
            # the tail's hull weight, zero-weight cost and hull segments
            self.kn_at = [[(ci, tabs[ci][0][nxt], tabs[ci][1][nxt], tabs[ci][2][nxt])
                           for ci in order]
                          for nxt in range(F + 1)]
            self._build_lagrangian()
        self.reset()

    def reset(self):
        """Return the mutable state to the root.  Every `_apply` is paired
        with an `_undo`, but the float sums can come back off by rounding;
        zeroing them gives each phase the bounds, and so the node counts,
        of a fresh search."""
        m = self.m
        self.choice_rec: list[ChoiceCoef | None] = [None] * m.F
        self.chains: dict[int, list[int]] = {I: [] for I in range(m.noc, m.H)}
        self.con_lhs = [0.0] * self.ncons
        self.static_sum = 0.0
        self.comp_sum = 0.0
        self.dl_sum = 0.0
        self.t_stack = [0.0]

    # -- tables --------------------------------------------------------

    def _suffix(self, values: list[float]) -> list[float]:
        """Per depth, the sum of `values[fi]` over the factors the branch
        order leaves unassigned there; the one place that order enters a
        summed table."""
        out = [0.0] * (self.m.F + 1)
        for idx in range(self.m.F - 1, -1, -1):
            out[idx] = out[idx + 1] + values[self.order[idx]]
        return out

    def _build_knapsack(self, costs: list[list[float]], lam: list[float]):
        """LP relaxation of each capacity constraint i as a multiple-choice
        knapsack (Sinha & Zoltners 1979) over the unassigned tail; a class
        costs `costs[fi][j]` less `lam[i]` times its weight on i.

        Returns, per constraint, the tail's total hull weight, its cheapest
        zero-weight cost and its density-sorted hull segments, each per
        depth; and the constraints that carry weight, tightest first."""
        F = self.m.F
        tables = []
        for ci in range(self.ncons):
            lam_i = lam[ci]
            cost0_row = []
            seg_w_row = [0.0] * F
            per_factor_segs: list[list[tuple[float, float]]] = []
            for fi in range(F):
                pts = []
                zero_costs = []
                for rec, cost in zip(self.classes[fi], costs[fi]):
                    w = rec.row[ci]
                    if lam_i:
                        cost -= lam_i * w
                    if w > 0.0:
                        pts.append((w, cost))
                    else:
                        zero_costs.append(cost)
                c0 = min(zero_costs)
                cost0_row.append(c0)
                dedup: dict[float, float] = {}
                for w, cost in pts:
                    g = c0 - cost
                    if g > 0.0 and g > dedup.get(w, 0.0):
                        dedup[w] = g
                gains = sorted(dedup.items())
                segs: list[tuple[float, float]] = []
                if gains:
                    # concave gain frontier anchored at (0, 0): increasing
                    # gain, decreasing incremental density
                    hull: list[tuple[float, float]] = [(0.0, 0.0)]
                    for w, g in gains:
                        if g <= hull[-1][1]:
                            continue  # dominated by a lighter point
                        hull.append((w, g))
                        while len(hull) >= 3:
                            (w1, g1), (w2, g2), (w3, g3) = hull[-3:]
                            if (g2 - g1) * (w3 - w2) <= (g3 - g2) * (w2 - w1):
                                hull.pop(-2)
                            else:
                                break
                    for (pw, pg), (w, g) in zip(hull, hull[1:]):
                        segs.append(((g - pg) / (w - pw), w - pw))
                        seg_w_row[fi] += w - pw
                per_factor_segs.append(segs)

            # per depth, the unassigned tail's density-sorted segment pool
            segs_at: list[list[tuple[float, float]]] = [[] for _ in range(F + 1)]
            pool: list[tuple[float, int, float]] = []
            for idx in range(F - 1, -1, -1):
                pool = sorted(
                    pool + [(d, idx, w) for d, w in per_factor_segs[self.order[idx]]],
                    key=lambda s: (-s[0], s[1], s[2]),
                )
                segs_at[idx] = [(d, w) for d, _i, w in pool]
            tables.append((self._suffix(seg_w_row), self._suffix(cost0_row), segs_at))

        # evaluate tightest constraints first so pruning exits early
        def tightness(ci):
            rhs = self.con_rhs[ci]
            w = tables[ci][0][0]
            if w <= 0.0 or math.isinf(rhs):
                return INF
            return rhs / w

        order = sorted(
            (ci for ci in range(self.ncons) if tables[ci][0][0] > 0.0), key=tightness
        )
        return tables, order

    def _build_penalized_knapsack(self):
        """Knapsack tables of `_pen_bound`: constraint i stays explicit and
        every other constraint j is priced into the class costs at the root
        multiplier lambda_j.  Built once, from the final multipliers."""
        lam = [0.0] * self.ncons
        for ci, value in self.lam_active:
            lam[ci] = value
        priced = [
            [cost + sum(lam[ci] * add for ci, add in rec.items)
             for rec, cost in zip(recs, costs)]
            for recs, costs in zip(self.classes, self.costs)
        ]
        tabs, order = self._build_knapsack(priced, lam)
        # per depth, one row per finite constraint (0 * inf is NaN): its
        # multiplier, tail cost0, and the hull segments as cumulative weights
        # and gains with their densities, for a bisect instead of a walk.  A
        # child at depth pos reads the rows of its tail, pos + 1.  At depth F
        # the tail is empty and the bound is at most the child's own bound, so
        # that depth keeps no rows.
        finite = [ci for ci in order if not math.isinf(self.con_rhs[ci])]
        for nxt in range(1, self.m.F):
            row = []
            for ci in finite:
                _w, cost0_suffix, segs_at = tabs[ci]
                cw, cg, dens = [0.0], [0.0], []
                for density, dw in segs_at[nxt]:
                    cw.append(cw[-1] + dw)
                    cg.append(cg[-1] + density * dw)
                    dens.append(density)
                row.append((ci, lam[ci], cost0_suffix[nxt], cw, cg, dens))
            self.pen_at[nxt] = row

    def _build_lagrangian(self, upper: float | None = None, iters: int = 240):
        """Projected subgradient ascent on the capacity-relaxed dual at the
        root; the resulting fixed multipliers give a cheap per-node bound.
        With a known incumbent value, Polyak steps are used."""
        F = self.m.F
        ncons = self.ncons
        con_rhs = self.con_rhs
        finite = [ci for ci in range(ncons) if not math.isinf(con_rhs[ci])]
        lam = [0.0] * ncons
        best_lam = list(lam)
        best_val = -INF
        if F and finite:
            per_factor = [
                [(cost, [(ci, w) for ci, w in rec.items
                         if not math.isinf(con_rhs[ci])])
                 for rec, cost in zip(recs, costs)]
                for recs, costs in zip(self.classes, self.costs)
            ]
            scale = max(abs(x) for x in [min(costs) for costs in self.costs] + [1.0])
            beta = 1.2
            stall = 0
            for it in range(iters):
                val = 0.0
                usage = [0.0] * ncons
                for fi in range(F):
                    bc, bw = INF, ()
                    for cost, ws in per_factor[fi]:
                        t = cost
                        for ci, w in ws:
                            t += lam[ci] * w
                        if t < bc:
                            bc, bw = t, ws
                    val += bc
                    for ci, w in bw:
                        usage[ci] += w
                for ci in finite:
                    val -= lam[ci] * con_rhs[ci]
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
                g = [usage[ci] - con_rhs[ci] for ci in finite]
                norm2 = sum(x * x for x in g)
                if norm2 <= 1e-18:
                    break
                if upper is not None and upper > val:
                    step = beta * (upper - val) / norm2
                else:
                    step = 0.4 * scale / ((1.0 + 0.15 * it) * math.sqrt(norm2))
                for gi, ci in enumerate(finite):
                    lam[ci] = max(0.0, lam[ci] + step * g[gi])
        self.lam_active = [(ci, l) for ci, l in enumerate(best_lam) if l > 1e-12]
        lagr_min = []
        for recs, costs in zip(self.classes, self.costs):
            best = INF
            for rec, t in zip(recs, costs):
                for ci, w in rec.items:
                    if best_lam[ci]:
                        t += best_lam[ci] * w
                if t < best:
                    best = t
            lagr_min.append(best)
        self.lagr_suffix = self._suffix(lagr_min)

    def _root_witness(self) -> tuple[str, ...] | None:
        """Best-effort irreducible cause when no feasible leaf exists, each
        constraint named once.  It scans each class's dense row: a capacity
        pad above the capacity makes rhs < 0, and then a zero contribution
        already violates."""
        m = self.m
        names: dict[str, None] = {}  # ordered set
        for recs in self.classes:
            blocking = set()
            any_ok = False
            for rec in recs:
                bad = [m.check_cons[ci].name
                       for ci, add in enumerate(rec.row) if add > self.cap[ci]]
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

    # -- helpers -------------------------------------------------------

    def timed_out(self) -> bool:
        if not self.stopped and self.nodes % 512 == 0:
            self.stopped = time.perf_counter() > self.deadline
        return self.stopped

    def _chain_profile(self):
        """O(1)-per-insertion traffic deltas for the current chains.

        Returns (level offsets into the flattened order, cumulative lg
        sums, per-tensor first-trigger index or None)."""
        m = self.m
        offsets = {}
        seq_lg = []
        trig_at = []
        n = 0
        for I in range(m.noc, m.H):
            offsets[I] = n
            stores = [m.arch.B.stores(I, v) for v in range(3)]
            for fi in self.chains[I]:
                f = m.factors[fi]
                seq_lg.append(f.lg)
                trig_at.append(
                    tuple(stores[v] and m.arch.A.related(f.j, v) for v in range(3))
                )
                n += 1
        cum = [0.0] * (n + 1)
        for i in range(n):
            cum[i + 1] = cum[i] + seq_lg[i]
        first = [None, None, None]
        for i in range(n):
            for v in range(3):
                if first[v] is None and trig_at[i][v]:
                    first[v] = i
        return offsets, cum, first

    def _t_delta(self, profile, I: int, q: int, fi: int) -> float:
        """Traffic increase from inserting factor fi at chain position q."""
        offsets, cum, first = profile
        m = self.m
        f = m.factors[fi]
        p = offsets[I] + q
        n = len(cum) - 1
        d = 0.0
        for v in range(3):
            g = first[v]
            if g is not None and p > g:
                d += f.lg
            elif m.arch.A.related(f.j, v) and m.arch.B.stores(I, v):
                upto = g if g is not None else n
                d += f.lg + (cum[upto] - cum[p])
        return d

    def _min_menu_bytes(self, row: list[float]) -> int:
        """Cheapest admissible partition total given current buffer sums."""
        con_lhs = self.con_lhs
        total = 0
        for (ci, pad, fits), menu in zip(self.menu_fit, self.m.menus):
            ei = bisect_left(fits, con_lhs[ci] + pad + row[ci])
            if ei == len(fits):
                return 1 << 62
            total += menu.entries[ei].nbytes
        return total

    def _knap_bound(self, base: float, pos: int, row: list[float],
                    threshold: float) -> float:
        """Max over single-constraint relaxations of the node lower bound;
        returns early once the threshold is exceeded (caller prunes).
        Assignment always follows branch order, so the unassigned tail at
        depth `pos` is a precomputed suffix."""
        best = -INF
        con_lhs = self.con_lhs
        con_rhs = self.con_rhs
        for ci, w_suffix, cost0, segs in self.kn_at[pos + 1]:
            slack = con_rhs[ci] - con_lhs[ci] - row[ci]
            if slack >= w_suffix:
                continue  # constraint cannot bind: no better than the plain bound
            gain = 0.0
            if slack > 0.0:
                for density, dw in segs:
                    if dw >= slack:
                        gain += density * slack
                        break
                    gain += density * dw
                    slack -= dw
            b = base + cost0 - gain
            if b > best:
                best = b
                if b > threshold:
                    return b
        return best

    def _lagr_bound(self, base: float, pos: int, row: list[float]) -> float:
        """Root Lagrangian relaxation evaluated with the current slacks."""
        b = base + self.lagr_suffix[pos + 1]
        for ci, lam in self.lam_active:
            b -= lam * (self.con_rhs[ci] - self.con_lhs[ci] - row[ci])
        return b

    def _pen_bound(self, base: float, pos: int, row: list[float],
                   threshold: float) -> float:
        """max(threshold, max over constraints i of the Lagrangian-
        penalized knapsack bound): i stays explicit with the child's slack,
        every other constraint j is priced at its root multiplier lambda_j
        (the tables' costs) and refunded lambda_j times its slack.  Slacks
        include the tolerance, so every completion the capacity check
        admits is covered.  By LP duality each term is at least the
        Lagrangian bound at the same multipliers."""
        con_lhs = self.con_lhs
        con_rhs = self.con_rhs
        tol = self.tol
        refund = 0.0
        for ci, lam in self.lam_active:
            refund += lam * (con_rhs[ci] - con_lhs[ci] - row[ci] + tol)
        best = threshold
        for ci, lam_i, cost0, cw, cg, dens in self.pen_at[pos + 1]:
            slack = con_rhs[ci] - con_lhs[ci] - row[ci] + tol
            upper = base + cost0 - (refund - lam_i * slack)
            if upper <= best:
                continue  # the knapsack gain is >= 0: cannot raise the max
            if slack >= cw[-1]:
                gain = cg[-1]
            elif slack > 0.0:
                j = bisect_left(cw, slack, 1) - 1
                gain = cg[j] + dens[j] * (slack - cw[j])
            else:
                gain = 0.0
            b = upper - gain
            if b > best:
                best = b
        return best

    def _prunes(self, pos: int, child) -> bool:
        """DFS-only test of a child against the incumbent as it stands
        when the child's turn comes; never reorders the children."""
        thresh = self.inc.obj + EPS_PRUNE
        if child[4] > thresh:
            return True
        if not self.pen_at[pos + 1]:
            return False
        rec, t_after = child[5], child[6]
        base = self.static_sum + rec.static + self.wt * t_after
        return self._pen_bound(base, pos, rec.row, thresh) > thresh

    def _children(self, pos: int, dive: bool = False):
        """Children at depth `pos` in search order, each (order key, level,
        mapping, chain position or -1, bound, class record, traffic after); no
        two share (level, mapping, position), so the sort stops there."""
        m = self.m
        fi = self.order[pos]
        prev = self.prev_same[fi]
        prev_rec = None if prev is None else self.choice_rec[prev]
        limit = None if prev_rec is None else prev_rec.rep
        t_cur = self.t_stack[-1]
        con_lhs = self.con_lhs
        cap = self.cap
        profile = None
        out = []
        for rec in self.classes[fi]:
            if limit is not None and rec.rep > limit:
                continue
            ok = True
            for ci, add in rec.items:
                if con_lhs[ci] + add > cap[ci]:
                    ok = False
                    break
            if not ok:
                continue
            if m.menus and self._min_menu_bytes(rec.row) > m.budget_bytes:
                continue
            if rec.chained:
                if profile is None:
                    profile = self._chain_profile()
                I = rec.I
                chain = self.chains[I]
                lo_q = 0
                if prev_rec is not None and prev_rec.cc == rec.cc:
                    # identical member already in this chain: insert outward
                    for qpos in range(len(chain) - 1, -1, -1):
                        if m.factors[chain[qpos]].cls == m.factors[fi].cls:
                            lo_q = qpos + 1
                            break
                for q in range(lo_q, len(chain) + 1):
                    t_after = t_cur + self._t_delta(profile, I, q, fi)
                    b = self._node_bound(pos, rec, t_after)
                    if b is None:
                        continue
                    okey = self._order_key(rec, t_after) if dive else b
                    out.append((okey, I, rec.k, q, b, rec, t_after))
            else:
                b = self._node_bound(pos, rec, t_cur)
                if b is None:
                    continue
                okey = self._order_key(rec, t_cur) if dive else b
                out.append((okey, rec.I, rec.k, -1, b, rec, t_cur))
        if len(out) > 1:
            out.sort()
        return out

    def _node_bound(self, pos, rec, t_after) -> float | None:
        """Admissible lower bound for the child, or None when prunable."""
        inc_obj = self.inc.obj
        if not self.balance:
            base = self.static_sum + rec.static + self.wt * t_after
            thresh = inc_obj + EPS_PRUNE
            b = base + self.suffix_min[pos + 1]
            if b > thresh:
                return None
            b2 = self._lagr_bound(base, pos, rec.row)
            if b2 > b:
                b = b2
                if b > thresh:
                    return None
            b3 = self._knap_bound(base, pos, rec.row, thresh)
            if b3 > b:
                b = b3
                if b > thresh:
                    return None
            return b
        m = self.m
        comp_lo = self.comp_sum + rec.comp + self.suffix_comp_lo[pos + 1]
        comp_hi = self.comp_sum + rec.comp + self.suffix_comp_hi[pos + 1]
        traf_lo = self.dl_sum + rec.dl + t_after + self.suffix_traf_lo[pos + 1]
        traf_hi = self.traf_hi_const
        a_lo, a_hi = m.weights.w_t * traf_lo, m.weights.w_t * traf_hi
        b_lo, b_hi = m.weights.w_c * comp_lo, m.weights.w_c * comp_hi
        if a_lo > b_hi:
            b = a_lo - b_hi
        elif b_lo > a_hi:
            b = b_lo - a_hi
        else:
            b = 0.0
        if b > inc_obj + EPS_PRUNE:
            return None
        return b

    def _order_key(self, rec, t_after):
        """The dive's child order: a capacity-aware myopic cost."""
        cost = rec.static + self.wt * t_after
        for ci, lam in self.lam_active:
            cost += lam * rec.row[ci]
        return cost

    def _apply(self, pos, child):
        _okey, I, _k, q, _b, rec, t_after = child
        fi = self.order[pos]
        self.choice_rec[fi] = rec
        for ci, add in rec.items:
            self.con_lhs[ci] += add
        if not self.balance:
            self.static_sum += rec.static
        else:
            self.comp_sum += rec.comp
            self.dl_sum += rec.dl
        if q >= 0:
            self.chains[I].insert(q, fi)
        self.t_stack.append(t_after)

    def _undo(self, pos, child):
        _okey, I, _k, q, _b, rec, _t_after = child
        fi = self.order[pos]
        self.choice_rec[fi] = None
        for ci, add in rec.items:
            self.con_lhs[ci] -= add
        if not self.balance:
            self.static_sum -= rec.static
        else:
            self.comp_sum -= rec.comp
            self.dl_sum -= rec.dl
        if q >= 0:
            del self.chains[I][q]
        self.t_stack.pop()

    def _derive_menus(self) -> tuple[int, ...] | None:
        m = self.m
        if not m.menus:
            return None
        firsts = []
        for ci, pad, fits in self.menu_fit:
            ei = bisect_left(fits, self.con_lhs[ci] + pad)
            if ei == len(fits):
                return None
            firsts.append(ei)
        n = len(m.menus)
        suffix = [0] * (n + 1)
        for mi in range(n - 1, -1, -1):
            suffix[mi] = suffix[mi + 1] + m.menus[mi].entries[firsts[mi]].nbytes
        sel = []
        used = 0
        for mi, menu in enumerate(m.menus):
            chosen = None
            # the largest admissible entry that leaves room for the rest
            for ei in range(len(menu.entries) - 1, firsts[mi] - 1, -1):
                ent = menu.entries[ei]
                if used + ent.nbytes + suffix[mi + 1] <= m.budget_bytes:
                    chosen = ei
                    used += ent.nbytes
                    break
            if chosen is None:
                return None
            sel.append(chosen)
        return tuple(sel)

    def _leaf(self) -> bool:
        self.leaves += 1
        m = self.m
        if not self.balance:
            est = self.static_sum + self.wt * self.t_stack[-1]
        else:
            est = abs(
                m.weights.w_t * (self.dl_sum + self.t_stack[-1])
                - m.weights.w_c * self.comp_sum
            )
        if est > self.inc.obj + EPS_PRUNE:
            return False
        menu_sel = self._derive_menus()
        if m.menus and menu_sel is None:
            return False
        choice_cls = [rec.cc for rec in self.choice_rec]
        x = canonical_assignment(m, choice_cls, self.chains, self)
        obj = m.objective_of(x, menu_sel)
        key = m.lex_key(x, menu_sel)
        if not self.inc.beats(obj, key):
            return False
        if m.constraint_violations(x, menu_sel, self.tol):
            return False  # defensive: never accept an infeasible leaf
        self.inc.offer(obj, key, x, menu_sel)
        return True

    def dfs(self, pos: int, budget: float = INF):
        """Depth-first search over the children that survive `_prunes`.
        A finite `budget` makes it a limited-discrepancy sweep: it deviates
        from the best-bound child at most `budget` times along any path."""
        if self.timed_out():
            return
        self.nodes += 1
        if pos == self.m.F:
            self._leaf()
            return
        for idx, child in enumerate(self._children(pos)):
            if idx > budget:
                break
            if self._prunes(pos, child):
                continue
            self._apply(pos, child)
            self.dfs(pos + 1, budget - (1 if idx > 0 else 0))
            self._undo(pos, child)
            if self.stopped:
                return

    def dive(self, pos: int) -> bool:
        """First feasible leaf along capacity-aware greedy descent."""
        if self.timed_out():
            return True
        self.nodes += 1
        if pos == self.m.F:
            return self._leaf()
        for child in self._children(pos, dive=True):
            self._apply(pos, child)
            done = self.dive(pos + 1)
            self._undo(pos, child)
            if done:
                return True
        return False


def solve(model: MipModel, opts: SolverOptions = SolverOptions()) -> Solution:
    """Proven-optimal solve with the deterministic branch-and-bound."""
    t0 = time.perf_counter()
    inc = _Incumbent()
    search = _Search(model, TOLERANCE, inc, t0 + opts.time_limit_s)

    if model.F == 0:
        search._leaf()
    else:
        search.dive(0)
        if inc.x is not None and not search.balance:
            # re-optimize the dual with Polyak steps against the incumbent,
            # sharpen the incumbent with a limited-discrepancy sweep, repeat
            search._build_lagrangian(upper=inc.obj)
            search.reset()
            search.dfs(0, 1)
            search._build_lagrangian(upper=inc.obj)
        if not search.balance:
            search._build_penalized_knapsack()
        search.reset()
        for child in search._children(0):
            if search._prunes(0, child):
                continue
            search._apply(0, child)
            search.dfs(1)
            search._undo(0, child)
            if search.stopped:
                break

    stats = SolveStats(search.nodes, search.leaves, time.perf_counter() - t0)
    if inc.x is None:
        if search.stopped:
            return Solution("timeout", None, None, None, stats)
        return Solution(
            "infeasible", None, None, None, stats, witness=search._root_witness()
        )
    status = "timeout" if search.stopped else "optimal"
    return Solution(status, inc.obj, inc.x, inc.menu, stats)


# ----------------------------------------------------------------------
# exhaustive oracle
# ----------------------------------------------------------------------


def assignment_space_size(model: MipModel) -> int:
    size = 1
    for fi in range(model.F):
        size *= len(model.choices[fi])
    for menu in model.menus:
        size *= len(menu.entries)
    return size


def exhaustive_solve(
    model: MipModel, space_limit: int = EXHAUSTIVE_SPACE_LIMIT
) -> Solution:
    """Enumerate every assignment with the exactly-one structure, filter by
    the constraints, and return the global optimum under the same
    tie-break as `solve`.  Guarded by `space_limit`."""
    size = assignment_space_size(model)
    if size > space_limit:
        raise SpaceTooLarge(f"assignment space {size} exceeds limit {space_limit}")
    t0 = time.perf_counter()
    m = model
    tol = TOLERANCE
    F = m.F
    ncons = len(m.check_cons)
    rhs = [c.rhs for c in m.check_cons]
    pads = [c.pad for c in m.check_cons]
    con_of_menu = {c.menu: ci for ci, c in enumerate(m.check_cons) if c.menu is not None}

    best_obj = INF
    best_key = None
    best_x = None
    best_menu = None
    x: dict[int, tuple[int, int, int]] = {}
    occupied: set[tuple[int, int]] = set()
    lhs = [0.0] * ncons
    stats = SolveStats()

    def leaf(menu_sel):
        nonlocal best_obj, best_key, best_x, best_menu
        stats.leaves += 1
        obj = m.objective_of(x, menu_sel)
        key = m.lex_key(x, menu_sel)
        if best_x is None or (obj, key) < (best_obj, best_key):
            best_obj, best_key, best_x, best_menu = obj, key, dict(x), menu_sel

    def menu_rec(mi: int, used: int, sel: list[int]):
        if mi == len(m.menus):
            leaf(tuple(sel))
            return
        ci = con_of_menu[mi]
        for ei, ent in enumerate(m.menus[mi].entries):
            if lhs[ci] + pads[ci] > ent.e + tol:
                continue
            if used + ent.nbytes > m.budget_bytes:
                continue
            sel.append(ei)
            menu_rec(mi + 1, used + ent.nbytes, sel)
            sel.pop()

    def rec(fi: int):
        stats.nodes += 1
        if fi == F:
            if m.menus:
                menu_rec(0, 0, [])
            else:
                leaf(None)
            return
        for I, z, k in m.choices[fi]:
            if (I, z) in occupied:
                continue
            applied = []
            ok = True
            for ci, add in m.coef[fi][(I, k)].items:
                if lhs[ci] + add > rhs[ci] + tol:
                    ok = False
                    break
                lhs[ci] += add
                applied.append((ci, add))
            if ok:
                occupied.add((I, z))
                x[fi] = (I, z, k)
                rec(fi + 1)
                del x[fi]
                occupied.discard((I, z))
            for ci, add in applied:
                lhs[ci] -= add

    # contributions are never negative, so a non-menu constraint whose rhs
    # is below 0 is violated by every assignment, even one adding nothing
    if not any(c.menu is None and 0.0 > c.rhs + tol for c in m.check_cons):
        rec(0)
    stats.wall_time_s = time.perf_counter() - t0
    if best_x is None:
        return Solution("infeasible", None, None, None, stats)
    return Solution("optimal", best_obj, best_x, best_menu, stats)


# ----------------------------------------------------------------------
# LP-style dump
# ----------------------------------------------------------------------


def dump_lp(model: MipModel) -> str:
    """Textual LP-format model for cross-checking with external solvers."""
    raw = model.raw()

    def expr(terms) -> str:
        parts = []
        for vid, coef in terms:
            sign = "+" if coef >= 0 else "-"
            parts.append(f"{sign} {abs(coef):.12g} {raw.var_names[vid]}")
        return " ".join(parts) if parts else "0"

    lines = ["Minimize", " obj: " + expr(sorted(raw.objective.items()))]
    lines.append("Subject To")
    for con in raw.constraints:
        op = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
        lines.append(f" {con.name}: {expr(con.terms)} {op} {con.rhs:.12g}")
    binaries = [
        raw.var_names[vid]
        for vid, kind in enumerate(raw.var_kinds)
        if kind in ("x", "part", "y", "prod")
    ]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    if raw.d_id is not None:
        lines.append("Bounds")
        lines.append(f" 0 <= {raw.var_names[raw.d_id]}")
    lines.append("End")
    return "\n".join(lines) + "\n"
