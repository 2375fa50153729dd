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
never reorders children and is not used by the dive or the
limited-discrepancy sweep, so the proof visits a subset of the nodes
in the same order and reaches the same answer.
Reported assignments are canonicalized to the lexicographically smallest
member of their class, so results are bit-stable across runs.  The search
is single-threaded.  A child reads one flat record per (factor, choice
class), `_Choice`; a constraint the class leaves alone reads 0.0 in its
dense row, so every bound is evaluated with the same operands in the same
order as a sparse lookup would give, and node counts stay pinned.

`exhaustive_solve` enumerates the raw assignment space and serves as the
independent optimality oracle for desk-scale instances.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

from .formulation import TEMPORAL, MipModel

INF = math.inf
EPS_PRUNE = 1e-9
EXHAUSTIVE_SPACE_LIMIT = 10_000_000


class SpaceTooLarge(ValueError):
    pass


@dataclass
class SolverOptions:
    """Knobs for both solvers.

    The tie-break rule is fixed: among equal-objective optima, the
    lexicographically smallest assignment vector wins.  The search is
    single-threaded; `threads` is a read-only constant, not a field, kept
    because perfbench/worker.py records it with every op.
    """

    time_limit_s: float = 300.0
    tolerance: float = 1e-6
    threads = 1

    def __post_init__(self):
        if self.time_limit_s <= 0:
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
    __slots__ = ("used", "chain_pins", "chain_len", "fixed_unpinned")

    def __init__(self, chain_len: int, fixed_here: int):
        self.used: set[int] = set()
        self.chain_pins: dict[int, int] = {}
        self.chain_len = chain_len
        self.fixed_unpinned = fixed_here


def _level_feasible(st: _LevelState, Z: int) -> bool:
    """Can the level's remaining fixed placements still be embedded?"""
    if Z - len(st.used) < st.fixed_unpinned:
        return False
    pins = sorted(st.chain_pins.items())
    prev_pos, prev_z = -1, -1
    for pos, z in pins:
        if z <= prev_z:
            return False
        run = pos - prev_pos - 1
        if run > 0:
            avail = sum(1 for zz in range(prev_z + 1, z) if zz not in st.used)
            if avail < run:
                return False
        prev_pos, prev_z = pos, z
    run = st.chain_len - prev_pos - 1
    if run > 0:
        avail = sum(1 for zz in range(prev_z + 1, Z) if zz not in st.used)
        if avail < run:
            return False
    return True


def _zmax(st: _LevelState, pos: int | None, Z: int, fixed: bool) -> int | None:
    """Highest rank this placement can take while the rest stays embeddable."""
    if pos is None:
        lo, hi = -1, Z
    else:
        lo = max((z for p, z in st.chain_pins.items() if p < pos), default=-1)
        hi = min((z for p, z in st.chain_pins.items() if p > pos), default=Z)
    for z in range(hi - 1, lo, -1):
        if z in st.used:
            continue
        st.used.add(z)
        if fixed:
            st.fixed_unpinned -= 1
        if pos is not None:
            st.chain_pins[pos] = z
        ok = _level_feasible(st, Z)
        st.used.discard(z)
        if fixed:
            st.fixed_unpinned += 1
        if pos is not None:
            del st.chain_pins[pos]
        if ok:
            return z
    return None


def canonical_assignment(
    model: MipModel,
    choice_cls: list[tuple[tuple[int, int], ...]],
    chains: dict[int, list[int]],
    sh: "_Shared",
) -> dict[int, tuple[int, int, int]]:
    """Lexicographically smallest raw assignment realizing a leaf class.

    A leaf fixes, per factor, a class of interchangeable (level, mapping)
    options, plus the relative order of temporal factors at levels >= the
    NoC boundary.  Identical factors may be permuted, option levels and
    rank slots shifted freely within the class; this picks, factor by
    declared order, the placement with the highest (level, rank, mapping)
    that keeps the remainder completable (a later one-hot position is a
    lexicographically smaller vector).

    On a level without a chain (every level below the NoC, and chain
    levels whose chain is empty) no placement is pinned to a position, so
    `_level_feasible` reduces to `Z - len(used) >= fixed_unpinned`, which
    does not depend on the rank taken, and `_zmax` returns the highest
    unused rank or None.  Every rank there is taken by that rule and
    released last-in first-out, so the used ranks are always the top block
    `Z-n .. Z-1`: the highest rank is `Z-1-n`, feasible exactly when
    `Z-1-n >= fixed_unpinned - fixed`.  Only levels with a chain run
    `_zmax`.  `sh` supplies the per-model tables (`canon_options`,
    `cls_of`).

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
    F = model.F
    canon_options = sh.canon_options
    cls_of = sh.cls_of
    chain_pos: dict[int, int] = {}
    for lst in chains.values():
        for pos, fi in enumerate(lst):
            chain_pos[fi] = pos

    # per identical class, one entry per distinct placement (options
    # tuple, chain position or None): [factors of the class still holding
    # it, options by (level, mapping) descending, fixed to one level, pos]
    remaining: dict[int, dict[tuple, list]] = {}
    fixed_count = [0] * model.H
    for fi, options in enumerate(choice_cls):
        single, by_level = canon_options[options]
        if single is not None:
            fixed_count[single] += 1
        pos = chain_pos.get(fi)
        rem = remaining.setdefault(cls_of[fi], {})
        ent = rem.get((options, pos))
        if ent is None:
            rem[(options, pos)] = [1, by_level, single is not None, pos]
        else:
            ent[0] += 1
    states = [
        _LevelState(len(chains.get(I, ())), fixed_count[I]) for I in range(model.H)
    ]
    out: list[tuple[int, int, int] | None] = [None] * F

    def rec(fi: int) -> bool:
        """Fill out[fi:]; False when no completion exists."""
        if fi == F:
            return True
        best = None
        best_I = -1
        best_ent = None
        for ent in remaining[cls_of[fi]].values():
            count, by_level, fixed, pos = ent
            if not count:
                continue
            # the first option that fits is this placement's highest
            # (level, rank, mapping)
            for I, k in by_level:
                if I < best_I:
                    break
                st = states[I]
                if st.chain_len:
                    z = _zmax(st, pos, Z, fixed)
                    if z is None:
                        continue
                else:
                    z = Z - 1 - len(st.used)
                    if z < st.fixed_unpinned - fixed:
                        continue
                c = (I, z, k)
                if best is None or c > best:
                    best = c
                    best_I = I
                    best_ent = ent
                break
        if best is None:
            return False
        I, z, _k = best
        st = states[I]
        _count, _by_level, fixed, pos = best_ent
        best_ent[0] -= 1
        st.used.add(z)
        if fixed:
            st.fixed_unpinned -= 1
        if pos is not None:
            st.chain_pins[pos] = z
        out[fi] = best
        ok = rec(fi + 1)
        st.used.discard(z)
        if fixed:
            st.fixed_unpinned += 1
        if pos is not None:
            del st.chain_pins[pos]
        best_ent[0] += 1
        return ok

    if not rec(0):
        raise RuntimeError("canonicalization failed on a feasible leaf")
    return dict(enumerate(out))


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
    """Depth-first search state over the collapsed space; one instance runs
    every phase of a solve (dive, LDS, DFS)."""

    def __init__(self, model: MipModel, tol: float, incumbent: _Incumbent,
                 deadline: float, shared: "_Shared"):
        m = self.m = model
        self.tol = tol
        self.inc = incumbent
        self.deadline = deadline
        self.stopped = False
        self.nodes = 0
        self.leaves = 0

        sh = self.shared = shared
        self.order = sh.order
        self.prev_same = sh.prev_same
        self.wt = m.weights.effective()[2]
        self.balance = m.weights.mode == "balance"

        self.ncons = len(m.check_cons)
        self.con_rhs = sh.con_rhs
        self.cap = [rhs + tol for rhs in sh.con_rhs]
        self.con_of_menu = sh.con_of_menu
        self.reset()

    def reset(self):
        """Return the mutable state to the root.  Every `_apply` is paired
        with an `_undo`, but the float sums can come back off by rounding;
        zeroing them gives each phase the bounds, and so the node counts,
        of a fresh search."""
        m = self.m
        self.choice_rec: list[_Choice | None] = [None] * m.F
        self.chains: dict[int, list[int]] = {I: [] for I in range(m.noc, m.H)}
        self.con_lhs = [0.0] * self.ncons
        self.static_sum = 0.0
        self.comp_sum = 0.0
        self.dl_sum = 0.0
        self.t_stack = [0.0]

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
        m = self.m
        total = 0
        for mi, menu in enumerate(m.menus):
            ci = self.con_of_menu[mi]
            lo = self.con_lhs[ci] + m.check_cons[ci].pad + row[ci]
            pick = None
            for ent in menu.entries:
                if ent.e + self.tol >= lo:
                    pick = ent
                    break
            if pick is None:
                return 1 << 62
            total += pick.nbytes
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
        for ci, w_suffix, cost0, segs in self.shared.kn_at[pos + 1]:
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
        sh = self.shared
        b = base + sh.lagr_suffix[pos + 1]
        for ci, lam in sh.lam_active:
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
        sh = self.shared
        con_lhs = self.con_lhs
        con_rhs = self.con_rhs
        tol = self.tol
        refund = 0.0
        for ci, lam in sh.lam_active:
            refund += lam * (con_rhs[ci] - con_lhs[ci] - row[ci] + tol)
        best = threshold
        for ci, lam_i, cost0, cw, cg, dens in sh.pen_at[pos + 1]:
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
        if not self.shared.pen_at[pos + 1]:
            return False
        rec, t_after = child[5], child[6]
        base = self.static_sum + rec.static + self.wt * t_after
        return self._pen_bound(base, pos, rec.row, thresh) > thresh

    def _children(self, pos: int, dive: bool = False):
        """Children at depth `pos` in search order, each (order key, level,
        mapping, chain position or -1, bound, `_Choice`, traffic after); no
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
        for rec in self.shared.choices[fi]:
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
        sh = self.shared
        if not self.balance:
            base = self.static_sum + rec.static + self.wt * t_after
            thresh = inc_obj + EPS_PRUNE
            b = base + sh.suffix_min[pos + 1]
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
        comp_lo = self.comp_sum + rec.comp + sh.suffix_comp_lo[pos + 1]
        comp_hi = self.comp_sum + rec.comp + sh.suffix_comp_hi[pos + 1]
        traf_lo = self.dl_sum + rec.dl + t_after + sh.suffix_traf_lo[pos + 1]
        traf_hi = sh.traf_hi_const
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
        for ci, lam in self.shared.lam_active:
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
        los = []
        for mi in range(len(m.menus)):
            ci = self.con_of_menu[mi]
            los.append(self.con_lhs[ci] + m.check_cons[ci].pad)
        n = len(m.menus)
        min_bytes = []
        for mi, menu in enumerate(m.menus):
            pick = None
            for ent in menu.entries:
                if ent.e + self.tol >= los[mi]:
                    pick = ent.nbytes
                    break
            if pick is None:
                return None
            min_bytes.append(pick)
        suffix = [0] * (n + 1)
        for mi in range(n - 1, -1, -1):
            suffix[mi] = suffix[mi + 1] + min_bytes[mi]
        sel = []
        used = 0
        for mi, menu in enumerate(m.menus):
            chosen = None
            for ei in range(len(menu.entries) - 1, -1, -1):
                ent = menu.entries[ei]
                if ent.e + self.tol < los[mi]:
                    break
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
        x = canonical_assignment(m, choice_cls, self.chains, self.shared)
        obj = m.objective_of(x, menu_sel)
        key = m.lex_key(x, menu_sel)
        if not self.inc.beats(obj, key):
            return False
        if m.constraint_violations(x, menu_sel, self.tol):
            return False  # defensive: never accept an infeasible leaf
        self.inc.offer(obj, key, x, menu_sel)
        return True

    def dfs(self, pos: int):
        if self.timed_out():
            return
        self.nodes += 1
        if pos == self.m.F:
            self._leaf()
            return
        for child in self._children(pos):
            if self._prunes(pos, child):
                continue
            self._apply(pos, child)
            self.dfs(pos + 1)
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

    def lds(self, pos: int, budget: int):
        """Limited-discrepancy sweep: deviate from the best-bound child at
        most `budget` times along any path; primes the incumbent."""
        if self.timed_out():
            return
        self.nodes += 1
        if pos == self.m.F:
            self._leaf()
            return
        for idx, child in enumerate(self._children(pos)):
            if idx > budget:
                break
            if child[4] > self.inc.obj + EPS_PRUNE:
                continue
            self._apply(pos, child)
            self.lds(pos + 1, budget - (1 if idx > 0 else 0))
            self._undo(pos, child)


class _Choice:
    """One choice class of one factor and all a child of it reads: `rep`
    orders a factor's classes for the multiset dedup; the capacity use is
    both sparse (`items`) and a dense `row` with 0.0 where it adds nothing."""

    __slots__ = ("cc", "rep", "I", "k", "items", "row", "static", "comp", "dl",
                 "chained")

    def __init__(self, m: MipModel, fi: int, cc: tuple, fi_cons: list, ncons: int):
        ck = cc[0]
        self.cc = cc
        self.rep = max(cc)
        self.I, self.k = ck
        self.items = tuple((ci, contrib[ck]) for ci, contrib in fi_cons
                           if contrib.get(ck))
        self.row = [0.0] * ncons
        for ci, add in self.items:
            self.row[ci] = add
        self.static = m.static_obj[fi][ck]
        self.comp = m.comp_coef[fi][ck]
        self.dl = m.dl_coef[fi][ck]
        self.chained = self.k == TEMPORAL and self.I >= m.noc


class _Shared:
    """Model-derived tables of one solve; only `_build_lagrangian` updates
    them, between search phases."""

    def __init__(self, model: MipModel):
        m = model
        F = m.F
        self.ncons = len(m.check_cons)
        self.con_rhs = [c.rhs for c in m.check_cons]
        # per depth, rows of the penalized knapsack bound; filled by
        # _build_penalized_knapsack
        self.pen_at: list[list[tuple]] = [[] for _ in range(m.F + 1)]

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

        # canonical_assignment's tables: factor -> identical class, and
        # choice class -> (its single level or None, its options by
        # (level, mapping) descending)
        self.cls_of = [f.cls for f in m.factors]
        self.canon_options = {
            cc: (cc[0][0] if len({I for I, _k in cc}) == 1 else None,
                 tuple(sorted(cc, reverse=True)))
            for fi in range(F)
            for cc in m.choice_classes[fi]
        }

        self.fi_cons: list[list[tuple[int, dict]]] = []
        for fi in range(F):
            self.fi_cons.append(
                [
                    (ci, m.con_contrib[ci][fi])
                    for ci in range(self.ncons)
                    if m.con_contrib[ci][fi]
                ]
            )
        self.choices: list[list[_Choice]] = [
            [_Choice(m, fi, cc, self.fi_cons[fi], self.ncons)
             for cc in m.choice_classes[fi]]
            for fi in range(F)
        ]
        self.con_of_menu = {
            m.check_cons[ci].menu: ci
            for ci in range(self.ncons)
            if m.check_cons[ci].menu is not None
        }

        wt = m.weights.effective()[2]
        self.balance = m.weights.mode == "balance"
        if self.balance:
            self.min_comp = [
                min(m.comp_coef[fi][c] for c in m.collapsed[fi]) for fi in range(F)
            ]
            self.max_comp = [
                max(m.comp_coef[fi][c] for c in m.collapsed[fi]) for fi in range(F)
            ]
            self.min_traf = [
                min(m.dl_coef[fi][c] + m.self_t_coef[fi][c] for c in m.collapsed[fi])
                for fi in range(F)
            ]
            total_lg = sum(f.lg for f in m.factors)
            self.traf_hi_const = (
                sum(max(m.dl_coef[fi][c] for c in m.collapsed[fi]) for fi in range(F))
                + 3.0 * total_lg
            )
            self.suffix_comp_lo = [0.0] * (F + 1)
            self.suffix_comp_hi = [0.0] * (F + 1)
            self.suffix_traf_lo = [0.0] * (F + 1)
            for idx in range(F - 1, -1, -1):
                fi = self.order[idx]
                self.suffix_comp_lo[idx] = self.suffix_comp_lo[idx + 1] + self.min_comp[fi]
                self.suffix_comp_hi[idx] = self.suffix_comp_hi[idx + 1] + self.max_comp[fi]
                self.suffix_traf_lo[idx] = self.suffix_traf_lo[idx + 1] + self.min_traf[fi]
            self.lam_active = []
            return

        # per-choice full cost (static plus guaranteed self-trigger traffic)
        self.choice_cost: list[dict[tuple[int, int], float]] = [
            {
                c: m.static_obj[fi][c] + wt * m.self_t_coef[fi][c]
                for c in m.collapsed[fi]
            }
            for fi in range(F)
        ]
        self.min_static = [min(self.choice_cost[fi].values()) for fi in range(F)]
        self.suffix_min = [0.0] * (F + 1)
        for idx in range(F - 1, -1, -1):
            self.suffix_min[idx] = self.suffix_min[idx + 1] + self.min_static[self.order[idx]]


def _build_knapsack(sh: _Shared, m: MipModel, cost_of):
    """LP relaxation of each capacity constraint as a multiple-choice
    knapsack (Sinha & Zoltners 1979) over the unassigned tail, with choice
    costs `cost_of(ci)` (per factor: choice -> cost).

    Returns, each indexed by constraint: the tail's cheapest zero-weight
    cost, its total hull weight and its density-sorted hull segments, all
    per depth; and the constraints that carry weight, tightest first."""
    F = m.F
    cost0_suffixes, w_suffixes, segs_ats = [], [], []
    total_w = []
    for ci in range(sh.ncons):
        costs = cost_of(ci)
        cost0_row = []
        seg_w_row = [0.0] * F
        per_factor_segs: list[list[tuple[float, float]]] = []
        for fi in range(F):
            contrib = m.con_contrib[ci][fi]
            pts = []
            zero_costs = []
            for c in m.collapsed[fi]:
                cost = costs[fi][c]
                w = contrib.get(c, 0.0)
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

        # assignment follows branch order: precompute, per depth, the
        # unassigned tail's zero-weight costs, total weights, and the
        # density-sorted segment pool
        cost0_suffix = [0.0] * (F + 1)
        w_suffix = [0.0] * (F + 1)
        segs_at: list[list[tuple[float, float]]] = [[] for _ in range(F + 1)]
        pool: list[tuple[float, int, float]] = []
        for idx in range(F - 1, -1, -1):
            fi = sh.order[idx]
            cost0_suffix[idx] = cost0_suffix[idx + 1] + cost0_row[fi]
            w_suffix[idx] = w_suffix[idx + 1] + seg_w_row[fi]
            pool = sorted(
                pool + [(d, idx, w) for d, w in per_factor_segs[fi]],
                key=lambda s: (-s[0], s[1], s[2]),
            )
            segs_at[idx] = [(d, w) for d, _i, w in pool]
        cost0_suffixes.append(cost0_suffix)
        w_suffixes.append(w_suffix)
        segs_ats.append(segs_at)
        total_w.append(w_suffix[0])

    # evaluate tightest constraints first so pruning exits early
    def tightness(ci):
        rhs = sh.con_rhs[ci]
        w = total_w[ci]
        if w <= 0.0 or math.isinf(rhs):
            return INF
        return rhs / w

    order = sorted(
        (ci for ci in range(sh.ncons) if total_w[ci] > 0.0), key=tightness
    )
    return cost0_suffixes, w_suffixes, segs_ats, order


def _build_penalized_knapsack(sh: _Shared, m: MipModel):
    """Knapsack tables of `_pen_bound`: constraint i stays explicit and
    every other constraint j is priced into the choice costs at the root
    multiplier lambda_j.  Built once, from the final multipliers."""
    lam = [0.0] * sh.ncons
    for ci, value in sh.lam_active:
        lam[ci] = value

    priced = [
        {
            c: cost + sum(lam[ci] * d.get(c, 0.0) for ci, d in sh.fi_cons[fi])
            for c, cost in sh.choice_cost[fi].items()
        }
        for fi in range(m.F)
    ]

    def cost_of(ci):
        if not lam[ci]:
            return priced
        return [
            {c: cost - lam[ci] * m.con_contrib[ci][fi].get(c, 0.0)
             for c, cost in priced[fi].items()}
            for fi in range(m.F)
        ]

    cost0_suffix, _w, segs_at, order = _build_knapsack(sh, m, cost_of)
    # per depth, one row per finite constraint (0 * inf is NaN): its
    # multiplier, tail cost0, and the hull segments as cumulative weights
    # and gains with their densities, for a bisect instead of a walk.  A
    # child at depth pos reads the rows of its tail, pos + 1.  At depth F
    # the tail is empty and the bound is at most the child's own bound, so
    # that depth keeps no rows.
    finite = [ci for ci in order if not math.isinf(sh.con_rhs[ci])]
    for nxt in range(1, m.F):
        row = []
        for ci in finite:
            cw, cg, dens = [0.0], [0.0], []
            for density, dw in segs_at[ci][nxt]:
                cw.append(cw[-1] + dw)
                cg.append(cg[-1] + density * dw)
                dens.append(density)
            row.append((ci, lam[ci], cost0_suffix[ci][nxt], cw, cg, dens))
        sh.pen_at[nxt] = row


def _build_lagrangian(sh: _Shared, m: MipModel, upper: float | None = None,
                      iters: int = 240):
    """Projected subgradient ascent on the capacity-relaxed dual at the
    root; the resulting fixed multipliers give a cheap per-node bound.
    With a known incumbent value, Polyak steps are used."""
    F = m.F
    ncons = sh.ncons
    finite = [ci for ci in range(ncons) if not math.isinf(sh.con_rhs[ci])]
    lam = [0.0] * ncons
    best_lam = list(lam)
    best_val = -INF
    if F and finite:
        per_factor = []
        for fi in range(F):
            rows = []
            for c in m.collapsed[fi]:
                ws = [
                    (ci, d.get(c, 0.0))
                    for ci, d in sh.fi_cons[fi]
                    if d.get(c, 0.0) and not math.isinf(sh.con_rhs[ci])
                ]
                rows.append((sh.choice_cost[fi][c], ws))
            per_factor.append(rows)
        scale = max(abs(x) for x in (sh.min_static + [1.0]))
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
                val -= lam[ci] * sh.con_rhs[ci]
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
            g = [usage[ci] - sh.con_rhs[ci] for ci in finite]
            norm2 = sum(x * x for x in g)
            if norm2 <= 1e-18:
                break
            if upper is not None and upper > val:
                step = beta * (upper - val) / norm2
            else:
                step = 0.4 * scale / ((1.0 + 0.15 * it) * math.sqrt(norm2))
            for gi, ci in enumerate(finite):
                lam[ci] = max(0.0, lam[ci] + step * g[gi])
    sh.lam_active = [(ci, l) for ci, l in enumerate(best_lam) if l > 1e-12]
    lagr_min = []
    for fi in range(F):
        best = INF
        for c in m.collapsed[fi]:
            t = sh.choice_cost[fi][c]
            for ci, d in sh.fi_cons[fi]:
                w = d.get(c, 0.0)
                if w and best_lam[ci]:
                    t += best_lam[ci] * w
            if t < best:
                best = t
        lagr_min.append(best)
    sh.lagr_suffix = [0.0] * (F + 1)
    for idx in range(F - 1, -1, -1):
        sh.lagr_suffix[idx] = sh.lagr_suffix[idx + 1] + lagr_min[sh.order[idx]]


def _make_shared(model: MipModel) -> _Shared:
    sh = _Shared(model)
    if not sh.balance:
        cost0, w, segs, order = _build_knapsack(sh, model, lambda ci: sh.choice_cost)
        # per depth, one row per weighted constraint, tightest first: the
        # tail's hull weight, zero-weight cost and hull segments
        sh.kn_at = [[(ci, w[ci][nxt], cost0[ci][nxt], segs[ci][nxt]) for ci in order]
                    for nxt in range(model.F + 1)]
        _build_lagrangian(sh, model)
    return sh


def _root_witness(model: MipModel, opts: SolverOptions) -> tuple[str, ...] | None:
    """Best-effort irreducible cause when no feasible leaf exists."""
    names = []
    for fi in range(model.F):
        blocking = set()
        any_ok = False
        for c in model.collapsed[fi]:
            bad = [
                model.check_cons[ci].name
                for ci in range(len(model.check_cons))
                if model.con_contrib[ci][fi].get(c, 0.0)
                > model.check_cons[ci].rhs + opts.tolerance
            ]
            if bad:
                blocking.update(bad)
            else:
                any_ok = True
        if not any_ok:
            names.extend(sorted(blocking))
    if model.menus:
        floor_bytes = sum(menu.entries[0].nbytes for menu in model.menus)
        if floor_bytes > model.budget_bytes:
            names.append("budget")
    return tuple(names) or None


def solve(model: MipModel, opts: SolverOptions = SolverOptions()) -> Solution:
    """Proven-optimal solve with the deterministic branch-and-bound."""
    t0 = time.perf_counter()
    inc = _Incumbent()
    shared = _make_shared(model)
    search = _Search(model, opts.tolerance, inc, t0 + opts.time_limit_s, shared)

    if model.F == 0:
        search._leaf()
    else:
        search.dive(0)
        if inc.x is not None and not shared.balance:
            # re-optimize the dual with Polyak steps against the incumbent,
            # sharpen the incumbent with a limited-discrepancy sweep, repeat
            _build_lagrangian(shared, model, upper=inc.obj)
            search.reset()
            search.lds(0, 1)
            _build_lagrangian(shared, model, upper=inc.obj)
        if not shared.balance:
            _build_penalized_knapsack(shared, model)
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
            "infeasible", None, None, None, stats, witness=_root_witness(model, opts)
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
    model: MipModel,
    opts: SolverOptions = SolverOptions(),
    space_limit: int = EXHAUSTIVE_SPACE_LIMIT,
) -> Solution:
    """Enumerate every assignment with the exactly-one structure, filter by
    the constraints, and return the global optimum under the same
    tie-break as `solve`.  Guarded by `space_limit`."""
    size = assignment_space_size(model)
    if size > space_limit:
        raise SpaceTooLarge(f"assignment space {size} exceeds limit {space_limit}")
    t0 = time.perf_counter()
    m = model
    tol = opts.tolerance
    F = m.F
    ncons = len(m.check_cons)
    rhs = [c.rhs for c in m.check_cons]
    pads = [c.pad for c in m.check_cons]
    con_of_menu = {c.menu: ci for ci, c in enumerate(m.check_cons) if c.menu is not None}

    fi_cons = []
    for fi in range(F):
        fi_cons.append(
            [(ci, m.con_contrib[ci][fi]) for ci in range(ncons) if m.con_contrib[ci][fi]]
        )

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
            for ci, d in fi_cons[fi]:
                add = d.get((I, k))
                if add:
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
