"""Mixed-integer formulation of the scheduling problem.

Every prime factor of every loop bound gets exactly one configuration:
a memory level, a rank slot within that level (the permutation order),
and a spatial-or-temporal binding.  Buffer capacities, spatial fanouts
and the optional partition budget become linear constraints over the
binary allocation variables with log2 coefficients; utilization, compute
and NoC-traffic objectives are linear in the same variables, with the
traffic iteration term linearized through indicator and product
variables.

The rank slot of an allocation variable enters no cost and no capacity
term, so the model keeps every coefficient once per (factor, level,
mapping) choice, in one `ChoiceCoef` record, and groups the records into
the choice classes the bundled solver branches over.  The raw MIP
(variables, constraints, objective, for dumps and brute-force
verification) is built from the same records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .arch import ArchSpec, NUM_TENSORS, TENSOR_NAMES, log2_capacity
from .workload import DIM_NAMES, PrimeFactorization

SPATIAL, TEMPORAL = 0, 1
MAP_NAMES = ("s", "t")

MODES = ("util", "comp", "traffic", "combined")

TOLERANCE = 1e-6  # capacity slack granted to every constraint check


class FormulationError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the utilization / compute / traffic objective terms."""

    w_u: float = 1.0
    w_c: float = 1.0
    w_t: float = 1.0
    mode: str = "combined"

    def __post_init__(self):
        if self.mode not in MODES:
            raise FormulationError(f"unknown objective mode {self.mode!r}")
        if not all(0 <= w < math.inf for w in (self.w_u, self.w_c, self.w_t)):
            # NaN fails every comparison, so it is rejected here too
            raise FormulationError("objective weights must be finite and non-negative")
        # the weights the mode reads; with all of them zero every schedule
        # ties at 0, and no bound can prune before the time limit
        read = {"util": ("w_u",), "comp": ("w_c",),
                "traffic": ("w_t",)}.get(self.mode, ("w_u", "w_c", "w_t"))
        if max(getattr(self, name) for name in read) <= 0:
            raise FormulationError(f"{self.mode} mode needs a positive {' or '.join(read)}")

    def effective(self) -> tuple[float, float, float]:
        """(w_u, w_c, w_t) actually applied for the linear modes."""
        if self.mode == "util":
            return (self.w_u, 0.0, 0.0)
        if self.mode == "comp":
            return (0.0, self.w_c, 0.0)
        if self.mode == "traffic":
            return (0.0, 0.0, self.w_t)
        return (self.w_u, self.w_c, self.w_t)


@dataclass(frozen=True)
class PartitionSpec:
    """Co-optimize buffer sizes from a power-of-two menu under a byte budget.

    The menu for each storable on-chip (level, tensor) pair spans element
    exponents [e_min, e_max] (e_max defaults to what the budget admits);
    the exact baseline capacity is kept in the menu so the unpartitioned
    architecture stays a feasible point.
    """

    budget_bytes: int
    e_min: int = 4
    e_max: int | None = None
    include_baseline: bool = True

    def __post_init__(self):
        if self.budget_bytes <= 0:
            raise FormulationError("partition budget must be positive")


@dataclass(frozen=True)
class Factor:
    j: int
    n: int
    prime: int
    lg: float
    cls: int  # identical-factor class (same dimension, same prime)


@dataclass(frozen=True)
class MenuEntry:
    e: float  # log2 of element count (non-integer only for the baseline entry)
    elements: int
    nbytes: int


@dataclass(frozen=True)
class Menu:
    level: int
    tensor: int
    entries: tuple[MenuEntry, ...]  # ascending e


@dataclass(frozen=True)
class CheckCon:
    """A constraint the search checks incrementally (lhs from X choices)."""

    kind: str  # "buffer" or "spatial"
    name: str
    level: int
    tensor: int | None
    rhs: float  # loosest rhs (for buffer in partition mode: e_max - pad)
    menu: int | None  # menu index when the rhs is a partition variable
    pad: float  # halo-tightening pad already folded into rhs


@dataclass(frozen=True)
class RawConstraint:
    name: str
    kind: str
    terms: tuple[tuple[int, float], ...]  # (var id, coefficient)
    sense: str  # "<=", ">=", "=="
    rhs: float


class ChoiceCoef:
    """Every coefficient of one (factor, level, mapping) choice; the rank
    slot enters no cost and no capacity term.  `row` is the capacity use
    per check constraint, 0.0 where the choice adds nothing, and `items`
    its nonzero `(ci, add)` pairs.  `cc` is the choice class, its (level,
    mapping) members in order, and `rep` the largest of them, which
    orders a factor's classes for the identical-factor dedup."""

    __slots__ = ("I", "k", "util", "comp", "dl_v", "dl", "self_t", "static",
                 "row", "items", "chained", "cc", "rep")

    def __init__(self, I, k, util, comp, dl_v, dl, self_t, static, row, chained):
        self.I = I
        self.k = k
        self.util = util
        self.comp = comp
        self.dl_v = dl_v  # per-tensor NoC lift and below-NoC traffic
        self.dl = dl
        self.self_t = self_t  # guaranteed self-trigger iteration traffic
        self.static = static  # weighted linear objective
        self.row = row
        self.items = tuple((ci, add) for ci, add in enumerate(row) if add)
        self.chained = chained  # temporal at/above the NoC: rank order matters
        # cc and rep are set once the model has grouped the classes


class MipModel:
    """Scheduling MIP plus the structure the bundled solver exploits.

    Variable order (fixes the lexicographic tie-break): allocation
    variables factor-major (level asc, rank asc, spatial before
    temporal), then partition selectors (level asc, tensor asc, exponent
    asc), then traffic indicators, then their linearization products.
    """

    def __init__(
        self,
        pf: PrimeFactorization,
        arch: ArchSpec,
        weights: ObjectiveWeights,
        partition: PartitionSpec | None,
        capacity_pads: dict[tuple[int, int], float] | None,
    ):
        self.pf = pf
        self.arch = arch
        self.weights = weights
        self.partition = partition
        self.pads = dict(capacity_pads or {})
        self.w_t = weights.effective()[2]  # the linear modes' traffic weight

        self.H = arch.num_levels
        self.noc = arch.noc_level

        classes: dict[tuple[int, int], int] = {}
        factors = []
        for j, n, prime, lg in pf.flat():
            cls = classes.setdefault((j, prime), len(classes))
            factors.append(Factor(j, n, prime, lg, cls))
        self.factors: tuple[Factor, ...] = tuple(factors)
        self.F = len(factors)
        self.Z = self.F  # rank slots per level; canonicalization relies on Z == F

        self._build_choices()
        self._build_check_constraints()
        self._build_menus()
        self._build_coefficients()  # rows index the final check_cons
        self._raw = None  # lazy raw MIP

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def _build_choices(self):
        """Per factor, its raw choices, their index and its collapsed
        (level, mapping) choices.  They read only the factor's dimension,
        so the factors of one dimension share one set of them."""
        arch = self.arch
        self.choices: list[list[tuple[int, int, int]]] = []
        self.choice_index: list[dict[tuple[int, int, int], int]] = []
        self.collapsed: list[list[tuple[int, int]]] = []
        per_dim: dict[int, tuple] = {}
        for f in self.factors:
            built = per_dim.get(f.j)
            if built is None:
                ch = []
                coll = []
                for I in range(self.H):
                    spatial_ok = arch.levels[I].spatial_allowed(f.j)
                    for z in range(self.Z):
                        if spatial_ok:
                            ch.append((I, z, SPATIAL))
                        ch.append((I, z, TEMPORAL))
                    if spatial_ok:
                        coll.append((I, SPATIAL))
                    coll.append((I, TEMPORAL))
                built = per_dim[f.j] = (ch, {c: i for i, c in enumerate(ch)}, coll)
            ch, index, coll = built
            self.choices.append(ch)
            self.choice_index.append(index)
            self.collapsed.append(coll)

        self.g_positions: list[tuple[int, int]] = [
            (I, z) for I in range(self.noc, self.H) for z in range(self.Z)
        ]

    def _build_check_constraints(self):
        arch = self.arch
        cons: list[CheckCon] = []
        for I, v in arch.on_chip_pairs:
            cap = log2_capacity(arch, I, v)
            pad = self.pads.get((I, v), 0.0)
            if math.isinf(cap) and self.partition is None:
                continue
            name = f"buffer[{arch.levels[I].name}/{TENSOR_NAMES[v]}]"
            cons.append(CheckCon("buffer", name, I, v, cap - pad, None, pad))
        for I in range(self.H):
            if arch.levels[I].spatial_fanout <= 1:
                continue
            cons.append(
                CheckCon(
                    "spatial",
                    f"spatial[{arch.levels[I].name}]",
                    I,
                    None,
                    math.log2(arch.levels[I].spatial_fanout),
                    None,
                    0.0,
                )
            )
        self.check_cons = cons

    def _build_menus(self):
        self.menus: list[Menu] = []
        self.budget_bytes: int | None = None
        if self.partition is None:
            return
        spec = self.partition
        arch = self.arch
        self.budget_bytes = spec.budget_bytes
        menu_of: dict[tuple[int, int], int] = {}
        for I, v in arch.on_chip_pairs:
            baseline = arch.capacity_elements(I, v)
            if math.isinf(baseline):
                continue
            prec = arch.precision_bytes[v]
            e_max = spec.e_max
            if e_max is None:
                e_max = int(math.floor(math.log2(spec.budget_bytes // prec))) if spec.budget_bytes >= prec else -1
            entries: dict[float, tuple[int, int]] = {}
            for e in range(spec.e_min, e_max + 1):
                entries[float(e)] = (2**e, (2**e) * prec)
            if spec.include_baseline and baseline >= 1:
                eb = math.log2(baseline)
                entries.setdefault(eb, (int(baseline), int(baseline) * prec))
            if not entries:
                raise FormulationError(
                    f"partition menu empty for {arch.levels[I].name}/{TENSOR_NAMES[v]}: "
                    f"e_min={spec.e_min} exceeds what budget {spec.budget_bytes} admits"
                )
            menu_entries = tuple(
                MenuEntry(e, elems, nbytes)
                for e, (elems, nbytes) in sorted(entries.items())
            )
            menu_of[(I, v)] = len(self.menus)
            self.menus.append(Menu(I, v, menu_entries))

        # Re-link buffer constraints to their menus; rhs becomes the menu max.
        new_cons = []
        for con in self.check_cons:
            if con.kind == "buffer" and (con.level, con.tensor) in menu_of:
                mi = menu_of[(con.level, con.tensor)]
                loosest = self.menus[mi].entries[-1].e - con.pad
                new_cons.append(
                    CheckCon(con.kind, con.name, con.level, con.tensor, loosest, mi, con.pad)
                )
            else:
                new_cons.append(con)
        self.check_cons = new_cons

    def _build_coefficients(self):
        """One `ChoiceCoef` per (factor, level, mapping) choice, grouped
        into choice classes: choices that are fully interchangeable, with
        identical objective coefficients and identical contribution to
        every constraint, and no permutation-order semantics (temporal
        at/above the NoC is always its own class).  The search branches
        once per class; the reported assignment picks the concrete level
        during canonicalization.  A record reads only its factor's
        dimension and log-factor, so the members of an identical class
        share one `coef` dict and one `classes` list, built for the first."""
        self.coef: list[dict[tuple[int, int], ChoiceCoef]] = []
        self.classes: list[list[ChoiceCoef]] = []
        per_cls: dict[int, tuple] = {}
        for fi, f in enumerate(self.factors):
            built = per_cls.get(f.cls)
            if built is None:
                built = per_cls[f.cls] = self._factor_coefficients(f, self.collapsed[fi])
            self.coef.append(built[0])
            self.classes.append(built[1])

    def _factor_coefficients(self, f: Factor, collapsed: list[tuple[int, int]]):
        """Factor f's records, keyed by (level, mapping), and its class
        records, each class's first member, in order of first appearance."""
        arch = self.arch
        w_u, w_c, w_t = self.weights.effective()
        pairs = arch.on_chip_pairs
        rel = [arch.A.related(f.j, v) for v in range(NUM_TENSORS)]
        relcount = sum(rel)
        coef = {}
        groups: dict[tuple, list[ChoiceCoef]] = {}
        for I, k in collapsed:
            u = f.lg * sum(1 for (Ic, v) in pairs if Ic > I and rel[v])
            c = f.lg if k == TEMPORAL else 0.0
            lifted = I < self.noc or (I == self.noc and k == SPATIAL)
            per_v = tuple(f.lg if lifted and rel[v] else 0.0
                          for v in range(NUM_TENSORS))
            d = f.lg * relcount if lifted else 0.0
            chained = k == TEMPORAL and I >= self.noc
            s = 0.0
            if chained:
                s = f.lg * sum(
                    1
                    for v in range(NUM_TENSORS)
                    if rel[v] and arch.B.stores(I, v)
                )
            row = [
                f.lg
                if (con.kind == "buffer" and rel[con.tensor] and I < con.level)
                or (con.kind == "spatial" and I == con.level and k == SPATIAL)
                else 0.0
                for con in self.check_cons
            ]
            rec = coef[(I, k)] = ChoiceCoef(
                I, k, u, c, per_v, d, s, -w_u * u + w_c * c + w_t * d, row, chained
            )
            sig = ("chain", I) if chained else ("free", k, u, c, per_v, tuple(row))
            groups.setdefault(sig, []).append(rec)
        for members in groups.values():
            cc = tuple((rec.I, rec.k) for rec in members)
            for rec in members:
                rec.cc = cc
                rec.rep = max(cc)
        return coef, [members[0] for members in groups.values()]

    # ------------------------------------------------------------------
    # canonical evaluation (shared by both solvers and the tests)
    # ------------------------------------------------------------------

    def _temporal_walk(self, x_assign: dict[int, tuple[int, int, int]]):
        """(level, factor) of each temporal factor at or above the NoC, in
        (level, rank) order."""
        occ: dict[tuple[int, int], int] = {}
        for fi, (I, z, k) in x_assign.items():
            if k == TEMPORAL and I >= self.noc:
                occ[(I, z)] = fi
        return [(I, self.factors[occ[(I, z)]]) for I, z in sorted(occ)]

    def _walk_t_sums(self, walk: list[tuple[int, Factor]]):
        """Traffic iteration sums over an occupied temporal walk in (level,
        rank) order, scanning tensors then positions: (per-tensor T
        log-sums, combined sum in canonical order)."""
        related = self.arch.A.rows  # `A.related(j, v)` is rows[j][v] == 1
        stores = self.arch.B.rows  # `B.stores(I, v)` is rows[I][v] == 1
        per_v = [0.0, 0.0, 0.0]
        total = 0.0
        for v in range(NUM_TENSORS):
            y = False
            for I, f in walk:
                if not y and related[f.j][v] == 1 and stores[I][v] == 1:
                    y = True
                if y:
                    per_v[v] += f.lg
                    total += f.lg
        return per_v, total

    def chain_traffic(self, chains: dict[int, list[int]]) -> float:
        """The traffic walk's total (`_walk_t_sums`) over the solver's
        `chains`: per level at or above the NoC, in level order, its
        temporal factors in rank order."""
        return self._walk_t_sums([(I, self.factors[fi]) for I, chain in chains.items()
                                  for fi in chain])[1]

    def objective_close(self, static_sum: float, traffic: float) -> float:
        """The objective from `static_sum`, the records' static objective
        folded left from 0.0 in factor order, and the traffic walk's total
        `traffic` (`_walk_t_sums`), which a mode with no traffic weight
        does not read."""
        obj = static_sum
        if self.w_t != 0.0:
            obj += self.w_t * traffic
        return obj

    def objective_from(self, recs: list[ChoiceCoef],
                       walk: list[tuple[int, Factor]]) -> float:
        """Objective from each factor's choice record, in factor order, and
        the occupied temporal walk; `objective_of` and the solver's leaf
        both close it with `objective_close`, so they agree float for
        float."""
        static_sum = reduce(add, [rec.static for rec in recs], 0.0)
        return self.objective_close(static_sum, self._walk_t_sums(walk)[1])

    def objective_of(self, x_assign: dict[int, tuple[int, int, int]]) -> float:
        """Objective value of a complete assignment (canonical term order)."""
        recs = []
        for fi in range(self.F):
            I, z, k = x_assign[fi]
            recs.append(self.coef[fi][(I, k)])
        return self.objective_from(recs, self._temporal_walk(x_assign))

    def term_values(self, x_assign: dict[int, tuple[int, int, int]]) -> dict[str, float]:
        """Raw (unweighted) objective term values for an assignment."""
        util = comp = 0.0
        d = [0.0, 0.0, 0.0]
        lift = [0.0, 0.0, 0.0]
        for fi in range(self.F):
            I, z, k = x_assign[fi]
            rec = self.coef[fi][(I, k)]
            util += rec.util
            comp += rec.comp
            per_v = rec.dl_v
            if I < self.noc:
                for v in range(NUM_TENSORS):
                    d[v] += per_v[v]
            else:
                for v in range(NUM_TENSORS):
                    lift[v] += per_v[v]
        t_v, _ = self._walk_t_sums(self._temporal_walk(x_assign))
        out = {"util": util, "comp": comp}
        for v, name in enumerate(TENSOR_NAMES):
            out[f"D_{name}"] = d[v]
            out[f"L_{name}"] = lift[v]
            out[f"T_{name}"] = t_v[v]
        out["traffic"] = sum(d) + sum(lift) + sum(t_v)
        return out

    def lex_key(
        self,
        x_assign: dict[int, tuple[int, int, int]],
        menu_sel: tuple[int, ...] | None = None,
    ) -> tuple[int, ...]:
        """Tie-break key: ascending order == lexicographically smaller
        raw assignment vector (a one-hot 1 placed later is smaller)."""
        key = [-self.choice_index[fi][x_assign[fi]] for fi in range(self.F)]
        if self.menus:
            if menu_sel is None:
                raise ValueError("partition model needs a menu selection")
            key.extend(-mi for mi in menu_sel)
        return tuple(key)

    def constraint_violations(
        self,
        x_assign: dict[int, tuple[int, int, int]],
        menu_sel: tuple[int, ...] | None = None,
    ) -> list[str]:
        """Re-check every capacity/spatial/budget constraint independently,
        granting each capacity and spatial row `TOLERANCE`."""
        bad = []
        slots_seen: dict[tuple[int, int], int] = {}
        recs = []
        for fi in range(self.F):
            I, z, k = x_assign[fi]
            if (I, z) in slots_seen:
                bad.append(f"slot[{I},{z}] assigned twice")
            slots_seen[(I, z)] = fi
            recs.append(self.coef[fi][(I, k)])
        for ci, con in enumerate(self.check_cons):
            lhs = 0.0
            for rec in recs:
                lhs += rec.row[ci]
            rhs = con.rhs
            if con.menu is not None:
                if menu_sel is None:
                    raise ValueError("partition model needs a menu selection")
                rhs = self.menus[con.menu].entries[menu_sel[con.menu]].e - con.pad
            if lhs > rhs + TOLERANCE:
                bad.append(f"{con.name}: {lhs:.9f} > {rhs:.9f}")
        if self.menus:
            total = sum(
                m.entries[menu_sel[mi]].nbytes for mi, m in enumerate(self.menus)
            )
            if total > self.budget_bytes:
                bad.append(f"budget: {total} B > {self.budget_bytes} B")
        return bad

    # ------------------------------------------------------------------
    # raw MIP view
    # ------------------------------------------------------------------

    def raw(self):
        if self._raw is None:
            self._raw = _build_raw(self)
        return self._raw

    def raw_values(
        self,
        x_assign: dict[int, tuple[int, int, int]],
        menu_sel: tuple[int, ...] | None = None,
    ) -> list[float]:
        """Full variable vector for an assignment, with the indicator and
        product variables derived minimally (their optimal completion)."""
        raw = self.raw()
        vals = [0.0] * len(raw.var_names)
        for fi, (I, z, k) in x_assign.items():
            vals[raw.x_id[(fi, I, z, k)]] = 1.0
        if self.menus:
            for mi, base in enumerate(raw.menu_id_base):
                vals[base + menu_sel[mi]] = 1.0
        occ = {}
        for fi, (I, z, k) in x_assign.items():
            if k == TEMPORAL and I >= self.noc:
                occ[(I, z)] = fi
        arch = self.arch
        for v in range(NUM_TENSORS):
            y = 0.0
            for gi, (I, z) in enumerate(self.g_positions):
                fi = occ.get((I, z))
                if fi is not None:
                    f = self.factors[fi]
                    if arch.A.related(f.j, v) and arch.B.stores(I, v):
                        y = 1.0
                vals[raw.y_id[(v, gi)]] = y
                if fi is not None and y:
                    vals[raw.p_id[(v, gi, fi)]] = 1.0
        return vals

    def check_raw(self, vals: list[float]) -> list[str]:
        """Violated raw constraints for a full variable vector, each
        within `TOLERANCE`."""
        bad = []
        for con in self.raw().constraints:
            lhs = sum(vals[vid] * c for vid, c in con.terms)
            if con.sense == "<=" and lhs > con.rhs + TOLERANCE:
                bad.append(con.name)
            elif con.sense == ">=" and lhs < con.rhs - TOLERANCE:
                bad.append(con.name)
            elif con.sense == "==" and abs(lhs - con.rhs) > TOLERANCE:
                bad.append(con.name)
        return bad


@dataclass
class RawModel:
    var_names: list[str]
    var_kinds: list[str]
    constraints: list[RawConstraint]
    objective: dict[int, float]
    x_id: dict[tuple[int, int, int, int], int]  # (fi, I, z, k) -> var id
    menu_id_base: list[int]
    y_id: dict[tuple[int, int], int]
    p_id: dict[tuple[int, int, int], int]


def _build_raw(m: MipModel) -> RawModel:
    names: list[str] = []
    kinds: list[str] = []

    def add_var(name: str, kind: str) -> int:
        names.append(name)
        kinds.append(kind)
        return len(names) - 1

    x_id = {}
    for fi, f in enumerate(m.factors):
        for I, z, k in m.choices[fi]:
            x_id[(fi, I, z, k)] = add_var(
                f"X_{DIM_NAMES[f.j]}{f.n}_L{I}_z{z}_{MAP_NAMES[k]}", "x"
            )
    menu_id_base = []
    for menu in m.menus:
        base = len(names)
        menu_id_base.append(base)
        for ent in menu.entries:
            add_var(
                f"S_L{menu.level}_{TENSOR_NAMES[menu.tensor]}_e{ent.e:g}", "part"
            )
    y_id = {}
    for v in range(NUM_TENSORS):
        for gi in range(len(m.g_positions)):
            y_id[(v, gi)] = add_var(f"Y_{TENSOR_NAMES[v]}_g{gi}", "y")
    p_id = {}
    for v in range(NUM_TENSORS):
        for gi, (I, z) in enumerate(m.g_positions):
            for fi, f in enumerate(m.factors):
                p_id[(v, gi, fi)] = add_var(
                    f"P_{TENSOR_NAMES[v]}_g{gi}_{DIM_NAMES[f.j]}{f.n}", "prod"
                )

    cons: list[RawConstraint] = []

    # exactly one configuration per factor
    for fi, f in enumerate(m.factors):
        terms = tuple((x_id[(fi, I, z, k)], 1.0) for I, z, k in m.choices[fi])
        cons.append(
            RawConstraint(f"assign[{DIM_NAMES[f.j]}{f.n}]", "assign", terms, "==", 1.0)
        )
    # at most one factor per rank slot
    for I in range(m.H):
        for z in range(m.Z):
            terms = []
            for fi in range(m.F):
                for k in (SPATIAL, TEMPORAL):
                    vid = x_id.get((fi, I, z, k))
                    if vid is not None:
                        terms.append((vid, 1.0))
            if terms:
                cons.append(
                    RawConstraint(f"slot[L{I},z{z}]", "slot", tuple(terms), "<=", 1.0)
                )

    # buffer capacity / spatial fanout
    for ci, con in enumerate(m.check_cons):
        terms = []
        for fi in range(m.F):
            for I, k in m.collapsed[fi]:
                add = m.coef[fi][(I, k)].row[ci]
                if add:
                    for z in range(m.Z):
                        terms.append((x_id[(fi, I, z, k)], add))
        if con.menu is not None:
            base = menu_id_base[con.menu]
            for ei, ent in enumerate(m.menus[con.menu].entries):
                terms.append((base + ei, -ent.e))
            rhs = -con.pad
        else:
            rhs = con.rhs
        cons.append(RawConstraint(con.name, con.kind, tuple(terms), "<=", rhs))

    # partition: one size per buffer, total bytes within budget
    if m.menus:
        for mi, menu in enumerate(m.menus):
            base = menu_id_base[mi]
            terms = tuple((base + ei, 1.0) for ei in range(len(menu.entries)))
            cons.append(
                RawConstraint(
                    f"menu[{m.arch.levels[menu.level].name}/{TENSOR_NAMES[menu.tensor]}]",
                    "menu",
                    terms,
                    "==",
                    1.0,
                )
            )
        terms = tuple(
            (menu_id_base[mi] + ei, float(ent.nbytes))
            for mi, menu in enumerate(m.menus)
            for ei, ent in enumerate(menu.entries)
        )
        cons.append(
            RawConstraint("budget", "budget", terms, "<=", float(m.budget_bytes))
        )

    # traffic iteration indicators and their products
    arch = m.arch
    for v in range(NUM_TENSORS):
        for gi, (I, z) in enumerate(m.g_positions):
            trig = []
            for fi, f in enumerate(m.factors):
                if arch.A.related(f.j, v) and arch.B.stores(I, v):
                    trig.append((x_id[(fi, I, z, TEMPORAL)], 1.0))
            terms = ((y_id[(v, gi)], 1.0),) + tuple((vid, -c) for vid, c in trig)
            cons.append(
                RawConstraint(f"ydef[{TENSOR_NAMES[v]},g{gi}]", "ydef", terms, ">=", 0.0)
            )
            if gi > 0:
                cons.append(
                    RawConstraint(
                        f"ymono[{TENSOR_NAMES[v]},g{gi}]",
                        "ydef",
                        ((y_id[(v, gi)], 1.0), (y_id[(v, gi - 1)], -1.0)),
                        ">=",
                        0.0,
                    )
                )
            for fi in range(m.F):
                pv = p_id[(v, gi, fi)]
                xv = x_id[(fi, I, z, TEMPORAL)]
                yv = y_id[(v, gi)]
                cons.append(
                    RawConstraint(
                        f"pdef1[{TENSOR_NAMES[v]},g{gi},f{fi}]",
                        "pdef",
                        ((pv, 1.0), (yv, -1.0)),
                        "<=",
                        0.0,
                    )
                )
                cons.append(
                    RawConstraint(
                        f"pdef2[{TENSOR_NAMES[v]},g{gi},f{fi}]",
                        "pdef",
                        ((pv, 1.0), (xv, -1.0)),
                        "<=",
                        0.0,
                    )
                )
                cons.append(
                    RawConstraint(
                        f"pdef3[{TENSOR_NAMES[v]},g{gi},f{fi}]",
                        "pdef",
                        ((pv, 1.0), (yv, -1.0), (xv, -1.0)),
                        ">=",
                        -1.0,
                    )
                )

    # objective terms as linear expressions
    util_expr: dict[int, float] = {}
    comp_expr: dict[int, float] = {}
    traf_expr: dict[int, float] = {}
    for fi in range(m.F):
        for I, z, k in m.choices[fi]:
            vid = x_id[(fi, I, z, k)]
            rec = m.coef[fi][(I, k)]
            u, c, d = rec.util, rec.comp, rec.dl
            if u:
                util_expr[vid] = u
            if c:
                comp_expr[vid] = c
            if d:
                traf_expr[vid] = d
    for v in range(NUM_TENSORS):
        for gi in range(len(m.g_positions)):
            for fi, f in enumerate(m.factors):
                traf_expr[p_id[(v, gi, fi)]] = f.lg

    # traffic and compute enter positively, utilization negated
    w_u, w_c, w_t = m.weights.effective()
    objective = {vid: 0.0 - w_u * c for vid, c in util_expr.items()}  # no -0.0
    for w, expr in ((w_c, comp_expr), (w_t, traf_expr)):
        if w:
            for vid, c in expr.items():
                objective[vid] = objective.get(vid, 0.0) + w * c

    return RawModel(
        var_names=names,
        var_kinds=kinds,
        constraints=cons,
        objective=objective,
        x_id=x_id,
        menu_id_base=menu_id_base,
        y_id=y_id,
        p_id=p_id,
    )


def build_model(
    pf: PrimeFactorization,
    arch: ArchSpec,
    weights: ObjectiveWeights = ObjectiveWeights(),
    partition: PartitionSpec | None = None,
    capacity_pads: dict[tuple[int, int], float] | None = None,
) -> MipModel:
    """Assemble the full scheduling MIP for one layer on one architecture.

    ``capacity_pads`` subtracts log2 headroom from individual buffer
    bounds; the solve pipeline uses it to re-solve when the exact
    validator finds halo-inflated input tiles that the linear model
    cannot see.

    Raises a plain ValueError when the weights overflow the objective: a
    record's coefficient, or the largest |objective| a schedule can reach,
    is not finite.  That bound is each factor's largest |coefficient|,
    summed, plus w_t times the traffic walk's most, 3 * sum(lg): each of
    the three tensors' walk sums at most every factor's lg.
    """
    model = MipModel(pf, arch, weights, partition, capacity_pads)
    walk = 3.0 * sum(f.lg for f in model.factors)
    reach = [rec.static for recs in model.classes for rec in recs]
    reach.append(sum(max(abs(rec.static) for rec in recs) for recs in model.classes)
                 + weights.effective()[2] * walk)
    if not all(map(math.isfinite, reach)):
        raise ValueError(f"objective weights {weights.w_u:g},{weights.w_c:g},"
                         f"{weights.w_t:g} overflow the {weights.mode} objective")
    return model

