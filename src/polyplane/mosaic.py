"""Satisfiability by mosaics: Hintikka label sets over a closure table,
coherent four-world tiles, path checking, and crown-model extraction.

A mosaic is a labelled frame over worlds {r, m, e0, e1} where r sees
everything, m sees itself and both edges, and edges see only themselves.
Labels are maximal consistent subsets of the closure set of the input
formula, stored as bitmasks over its positive members.  Coherent mosaics
glue along matching edge labels into crown models; a formula is satisfiable
iff some root label admits a glueable, witness-complete family of tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, NamedTuple, Optional, Union

from .crown import crown
from .errors import BudgetExceededError
from .formula import (AND, BOT, BOX, DIA, IFF, IMP, NOT, OR, VAR, Formula,
                      Not, Var, compile, conj, negation_text, pretty,
                      render_nodes)
from .kripke import Model, _closed_walk, _shortest_path, program_masks


class MosaicError(RuntimeError):
    """Internal consistency failure during extraction; indicates a broken
    coherence rule rather than bad input."""


# unit-propagation clauses of each member's rule, over the member c and its
# operands x, y; a box only pushes its body down (c -> x) and a diamond only
# pulls its body up (x -> c), by reflexivity
_RULES = {
    BOT: ("-c",),
    DIA: ("-x c",),
    BOX: ("-c x",),
    AND: ("-c x", "-c y", "c -x -y"),
    OR: ("-c x y", "c -x", "c -y"),
    IMP: ("-c -x y", "c x", "c -y"),
    IFF: ("-c -x y", "-c x -y", "c x y", "c -x -y"),
}
_ARITY = {VAR: 0, BOT: 0, NOT: 1, DIA: 1, BOX: 1, AND: 2, OR: 2, IMP: 2,
          IFF: 2}
# each clause as positions in a member's literal list c, x, y, ..., ~y, ~x,
# ~c: k for the k-th of c, x, y and ~k for its negation
_SLOTS = {op: tuple(tuple(~"cxy".index(t[1]) if t[0] == "-" else "cxy".index(t)
                          for t in clause.split()) for clause in rule)
          for op, rule in _RULES.items()}


class LabelSpace:
    """Indexed closure set with the machinery for Hintikka-set enumeration.

    Positive members (those not of the form ~psi) get one bit each; the
    truth of any closure member under a label follows by stripping
    negations.  Everything is read off one compiled program: its nodes are
    the subformulas, each positive member's operands are node references
    resolved to (positive index, polarity), and the members are ordered by
    (ast_size, pretty) with sizes and texts built bottom-up from the
    operands'.  The program is kept as `self.program`.

    Enumeration branches only on atoms and modal members and derives
    boolean compounds by unit propagation over the clauses of each member's
    rule (`_RULES`).  Each member has a watch list: the clauses of the
    member itself and of every member that has it as an operand, which are
    the only ones an assignment to it can make unit or falsify.  The search
    keeps one value list and undoes a branch by popping its trail, so no
    node copies the values.  Step accounting is that of a full sweep per
    node: every node entered spends one step per positive member.
    """

    def __init__(self, members: Optional[Iterable[Formula]] = None,
                 theta: Optional[Formula] = None):
        """The space of `members`, a set closed under subformulas and single
        negation, or, when members is None, of closure(theta)."""
        self.theta = theta
        if members is None:
            program = compile(theta)
            wanted = None
        else:
            members = list(set(members))
            program = compile(conj(members))
            wanted = [False] * len(program.nodes)
            for f in members:
                wanted[program.index[f]] = True
        self.program = program
        code, nodes = program.code, program.nodes
        sizes, texts = render_nodes(program, wanted)

        # sort keys of the members: the wanted program nodes or, for the
        # closure of theta, every node and the negation of each non-NOT node
        # no NOT node covers (~i stands for that negation)
        if wanted is None:
            keys = list(zip(sizes, texts, range(len(code))))
            covered = {a for op, a, _ in code if op == NOT}
            keys += [(sizes[i] + 1, negation_text(op, texts[i]), ~i)
                     for i, (op, _, _) in enumerate(code)
                     if op != NOT and i not in covered]
        else:
            keys = [(sizes[i], texts[i], i) for i, w in enumerate(wanted) if w]
        keys.sort()
        self._order = order = [i for _, _, i in keys]
        self.nodes = [i for i in order if i >= 0 and code[i][0] != NOT]
        self.positives = [nodes[i] for i in self.nodes]
        self.pos_index = {f: j for j, f in enumerate(self.positives)}
        self.size = size = len(self.nodes)

        # (positive index, polarity) of every program node, NOTs stripped;
        # None where the stripped node is no positive member
        refs: list = [None] * len(code)
        for j, i in enumerate(self.nodes):
            refs[i] = (j, True)
        for i, (op, a, _) in enumerate(code):
            if op == NOT and refs[a] is not None:
                refs[i] = (refs[a][0], not refs[a][1])
        ops = [code[i][0] for i in self.nodes]
        args = [code[i][1:1 + _ARITY[op]] for i, op in zip(self.nodes, ops)]
        if wanted is not None:
            # validates closure under single negation: the members, then the
            # positives' operands, resolve to positive members
            for i in chain(order, *args):
                if refs[i] is None:
                    while code[i][0] == NOT:
                        i = code[i][1]
                    raise KeyError(f"{texts[i]} is not in the closure set")

        # operands, and the clauses of each positive's rule as tuples of
        # (positive index, value making the literal true), each on the watch
        # lists of the positives it mentions and kept as (ones, zeros)
        # bitmasks for checking complete labels
        self.ops, self.operands = ops, []
        self._watch: list[list[tuple]] = [[] for _ in range(size)]
        self._clause_masks: list[tuple[int, int]] = []
        for j, op in enumerate(ops):
            lits = [(j, True), *[refs[i] for i in args[j]]]
            self.operands.append(tuple(lits[1:]))
            lits += [(idx, not pol) for idx, pol in reversed(lits)]
            for slots in _SLOTS.get(op, ()):
                clause = tuple([lits[k] for k in slots])
                ones = zeros = 0
                for idx, want in clause:
                    self._watch[idx].append(clause)
                    if want:
                        ones |= 1 << idx
                    else:
                        zeros |= 1 << idx
                self._clause_masks.append((ones, zeros))
        self.dia_list = [j for j, op in enumerate(ops) if op == DIA]
        self.box_list = [j for j, op in enumerate(ops) if op == BOX]
        self._bottoms = [j for j, op in enumerate(ops) if op == BOT]
        self._decisions = [j for j, op in enumerate(ops)
                           if op in (VAR, DIA, BOX)]
        self._bits = [1 << i for i in range(size)]
        self._vec_cache: dict[int, tuple[int, int, int, int]] = {}

    @classmethod
    def for_formula(cls, theta: Formula) -> "LabelSpace":
        return cls(theta=theta)

    @cached_property
    def members(self) -> list[Formula]:
        """The closure set in (ast_size, pretty) order."""
        nodes = self.program.nodes
        return [nodes[i] if i >= 0 else Not(nodes[~i]) for i in self._order]

    def ref(self, f: Formula) -> tuple[int, bool]:
        """(positive index, polarity); polarity False means negated."""
        pol = True
        while isinstance(f, Not):
            f = f.sub
            pol = not pol
        idx = self.pos_index.get(f)
        if idx is None:
            raise KeyError(f"{pretty(f)} is not in the closure set")
        return idx, pol

    def member(self, label: int, f: Formula) -> bool:
        idx, pol = self.ref(f)
        return bool(label >> idx & 1) == pol

    def label_formulas(self, label: int) -> frozenset[Formula]:
        return frozenset(f for f in self.members if self.member(label, f))

    def atoms(self, label: int) -> frozenset[str]:
        return frozenset(f.name for f in self.positives
                         if isinstance(f, Var) and self.member(label, f))

    # -- Hintikka enumeration -------------------------------------------

    def _propagate(self, values: list, trail: list, head: int) -> bool:
        """Unit propagation after the assignments trail[head:]; False on
        conflict.  Examines the clauses on the watch lists of those
        positives, appending each value it derives to `values` and `trail`
        and examining its watch list in turn.  Clause literals count by
        position, so `p & p` derives nothing from being false, just as the
        member's rule reads its two operands apart; the fixpoint, and any
        conflict, is then the one a sweep over every member until nothing
        changes reaches, and a search node spends the same steps either
        way.  Spends nothing itself; enumerate_labels charges the node."""
        watch = self._watch
        while head < len(trail):
            for clause in watch[trail[head]]:
                free = None
                for idx, want in clause:
                    v = values[idx]
                    if v is None:
                        if free is not None:
                            break  # two open literals: nothing follows
                        free = idx, want
                    elif v == want:
                        break  # satisfied
                else:
                    if free is None:
                        return False
                    values[free[0]] = free[1]
                    trail.append(free[0])
            head += 1
        return True

    def enumerate_labels(self, must: Iterable[tuple[int, bool, bool]] = (),
                         budget: Optional[StepBudget] = None) -> list[int]:
        """All Hintikka labels satisfying the given (index, polarity, value)
        constraints, as ascending bitmasks.

        Depth first over the decisions (atoms and modal members, in positive
        order, False first), on one value list with an undo trail: a child
        sets its decision, propagates through the watch lists of what
        changed, and is undone by resetting the trail back to its parent's
        mark.  A leaf's label is read off the values, and a leaf with a
        member still undecided raises MosaicError.  With a budget, every
        search node entered spends one step per positive member, as when
        each node swept every member, so budget errors read the same."""
        values: list = [None] * self.size
        # from nothing, only the clauses of false constants and of the
        # constrained members can fire
        seeds = list(self._bottoms)
        for idx, pol, v in must:
            want = v == pol
            if values[idx] is not None and values[idx] != want:
                return []
            values[idx] = want
            seeds.append(idx)
        propagate = self._propagate
        if not propagate(values, seeds, 0):
            return []
        out: list[int] = []
        decisions, bits = self._decisions, self._bits
        n = len(decisions)
        trail: list[int] = []
        # (position in decisions, trail mark, value to decide; None enters
        # the root)
        stack: list = [(0, 0, None)]
        while stack:
            k, mark, v = stack.pop()
            if v is not None:
                for i in trail[mark:]:
                    values[i] = None
                del trail[mark:]
                values[decisions[k]] = v
                trail.append(decisions[k])
                if not propagate(values, trail, mark):
                    continue
                k += 1
            if budget is not None:
                budget.spend(self.size, "label enumeration")
            while k < n and values[decisions[k]] is not None:
                k += 1
            if k == n:
                if None in values:
                    raise MosaicError("propagation left a closure member "
                                      "undecided in a complete label")
                out.append(sum(compress(bits, values)))
                continue
            mark = len(trail)
            stack += ((k, mark, True), (k, mark, False))  # False popped first
        out.sort()
        return out

    def is_hintikka(self, label: int) -> bool:
        if label >> self.size:
            return False
        return all(label & ones or ~label & zeros
                   for ones, zeros in self._clause_masks)

    # -- per-label modal vectors ------------------------------------------

    def vectors(self, label: int) -> tuple[int, int, int, int]:
        """(dia_true, dia_child, box_true, box_child) as bits over the
        diamond / box member lists."""
        got = self._vec_cache.get(label)
        if got is not None:
            return got
        dt = dc = 0
        for pos, i in enumerate(self.dia_list):
            if label >> i & 1:
                dt |= 1 << pos
            idx, pol = self.operands[i][0]
            if bool(label >> idx & 1) == pol:
                dc |= 1 << pos
        bt = bc = 0
        for pos, i in enumerate(self.box_list):
            if label >> i & 1:
                bt |= 1 << pos
            idx, pol = self.operands[i][0]
            if bool(label >> idx & 1) == pol:
                bc |= 1 << pos
        got = (dt, dc, bt, bc)
        self._vec_cache[label] = got
        return got

    def pair_ok(self, above: int, below: int) -> bool:
        """Closure conditions between a world and one it sees: true diamond
        bodies below force diamonds above, boxes above push bodies down."""
        dt_a, _, bt_a, _ = self.vectors(above)
        _, dc_b, _, bc_b = self.vectors(below)
        return dc_b & ~dt_a == 0 and bt_a & ~bc_b == 0

    def edge_ok(self, label: int) -> bool:
        """An edge world sees only itself: diamonds need a reflexive witness
        and true bodies force their boxes."""
        dt, dc, bt, bc = self.vectors(label)
        return dt & ~dc == 0 and bc & ~bt == 0

    def middle_ok(self, middle: int, e0: int, e1: int,
                  strict: bool = False) -> bool:
        """Diamond and box witnesses for a middle world; the non-strict form
        lets the middle witness its own modalities."""
        dt_m, dc_m, bt_m, bc_m = self.vectors(middle)
        _, dc_0, _, bc_0 = self.vectors(e0)
        _, dc_1, _, bc_1 = self.vectors(e1)
        wit = dc_0 | dc_1 if strict else dc_0 | dc_1 | dc_m
        if dt_m & ~wit:
            return False
        everywhere = bc_0 & bc_1 if strict else bc_0 & bc_1 & bc_m
        return everywhere & ~bt_m == 0


def hintikka_sets(sub: Union[LabelSpace, Iterable[Formula]]) -> list[int]:
    """All maximal consistent labels over a closure set, in ascending
    bitmask order."""
    space = sub if isinstance(sub, LabelSpace) else LabelSpace(sub)
    return space.enumerate_labels()


class Mosaic(NamedTuple):
    root: int
    middle: int
    edge0: int
    edge1: int


def mirror(m: Mosaic) -> Mosaic:
    return Mosaic(m.root, m.middle, m.edge1, m.edge0)


def is_coherent(m: Mosaic, space: LabelSpace, strict_middle: bool = False) -> bool:
    """All coherence conditions: labels are Hintikka sets, diamonds and
    boxes agree along every pair of the reflexive-transitive mosaic order,
    and middle/edge witnesses exist."""
    for lab in m:
        if not space.is_hintikka(lab):
            return False
    if not (space.pair_ok(m.root, m.middle) and space.pair_ok(m.root, m.edge0)
            and space.pair_ok(m.root, m.edge1)
            and space.pair_ok(m.middle, m.edge0)
            and space.pair_ok(m.middle, m.edge1)):
        return False
    if not (space.edge_ok(m.edge0) and space.edge_ok(m.edge1)):
        return False
    return space.middle_ok(m.middle, m.edge0, m.edge1, strict=strict_middle)


def check_path(m: Mosaic, m2: Mosaic, pool: Iterable[Mosaic], depth: int) -> bool:
    """Gluing chain of length at most 2^depth from m to m2 within the pool,
    by the halving recursion."""
    if m == m2 or m.edge1 == m2.edge0:
        return True
    if depth <= 0:
        return False
    for mid in pool:
        if mid.root != m.root:
            continue
        if check_path(m, mid, pool, depth - 1) and check_path(mid, m2, pool, depth - 1):
            return True
    return False


def glue_reachable(m: Mosaic, pool: Iterable[Mosaic]) -> set[Mosaic]:
    """Mosaics reachable from m by direct gluing steps (breadth first);
    the independent cross-check for check_path."""
    pool = list(pool)
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for cur in frontier:
            for cand in pool:
                if cand not in seen and cur.edge1 == cand.edge0:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# The decision procedure

@dataclass
class SolverStats:
    """Counters of one decide_sat call.  Per root: roots_tried.  Per glue
    graph built (one per root key): glue_graphs, labels_built (labels kept
    by the key's filter), label_classes (middle- and edge-class
    representatives), arcs (between edge classes) and components.  Of the
    answer: pool_size and crown_n."""

    roots_tried: int = 0
    labels_built: int = 0
    arcs: int = 0
    pool_size: int = 0
    components: int = 0
    crown_n: int = 0
    glue_graphs: int = 0
    label_classes: int = 0


class StepBudget:
    """Step counter shared by every phase of one search."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, steps: int, phase: str) -> None:
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceededError(
                f"mosaic search budget exhausted in {phase} "
                f"({self.used} of {self.limit} steps)")


@dataclass(frozen=True)
class SatResult:
    sat: bool
    n: Optional[int] = None
    model: Optional[Model] = None
    world: Optional[int] = None
    root_label: Optional[int] = None
    mosaics: Optional[tuple[Mosaic, ...]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    def __bool__(self):
        return self.sat


def decide_sat(theta: Formula, strict_middle: bool = False,
               exhaustive_anywhere: bool = False,
               budget: int = 20_000_000) -> SatResult:
    """Satisfiability of theta over the finite crown frames.

    Tries root labels containing theta in ascending order and looks, in the
    glue graph of coherent tiles below each, for a connected family
    supplying every diamond and every refuted box of the root.  Which labels
    sit below a root depends only on its key (true diamonds, true boxes), so
    labels are enumerated once under the constraints all roots share and
    filtered per key, and each key's glue graph is built once.  A tile sees
    its labels only through their modal vectors, so the graph runs over
    classes of equal vectors, each represented by its least label: the
    tiles found are those a search over every label finds first.

    Satisfiability somewhere coincides with satisfiability at a root: the
    submodel generated by any crown world pulls back to the root of a small
    crown along a total p-morphism (a constant map for an endpoint, the
    two-teeth cover for a middle), so the root pass is complete.  The
    literal second pass over theta-free root labels is kept behind
    `exhaustive_anywhere` for cross-checking.  Enumeration and arc building
    spend from one step budget.
    """
    space = LabelSpace.for_formula(theta)
    stats = SolverStats()
    steps = StepBudget(budget)
    idx, pol = space.ref(theta)
    passes = [(True, None)] + ([(False, theta)] if exhaustive_anywhere else [])
    for holds, need in passes:
        roots = space.enumerate_labels(must=[(idx, pol, holds)], budget=steps)
        got = _search(space, roots, need, strict_middle, stats, steps)
        if got is not None:
            return got
    return SatResult(False, stats=stats)


def valid(theta: Formula, **kw) -> bool:
    """Validity over the polygonal-plane logic: the negation is unsatisfiable."""
    return not decide_sat(Not(theta), **kw).sat


def sat_at_root(theta: Formula, **kw) -> SatResult:
    """Satisfiability with theta in the root label; same verdicts as
    decide_sat (see there), with the witness pinned to the root."""
    kw.pop("exhaustive_anywhere", None)
    return decide_sat(theta, **kw)


def _mid_fits(space: LabelSpace, m: int, e0: int, e1: int, strict: bool) -> bool:
    return (space.pair_ok(m, e0) and space.pair_ok(m, e1)
            and space.middle_ok(m, e0, e1, strict=strict))


def _below_must(space: LabelSpace, dia_true: int, box_true: int
                ) -> list[tuple[int, bool, bool]]:
    """Constraints on every label below a root with these diamonds and
    boxes: true boxes force their bodies and persist (every world's
    successors sit below the root too), missing diamonds forbid their
    bodies and stay missing.  Labels violating them could never appear in a
    coherent tile anyway."""
    must = []
    for pos, i in enumerate(space.box_list):
        if box_true >> pos & 1:
            must.append((*space.operands[i][0], True))
            must.append((i, True, True))
    for pos, i in enumerate(space.dia_list):
        if not dia_true >> pos & 1:
            must.append((*space.operands[i][0], False))
            must.append((i, True, False))
    return must


def _search(space: LabelSpace, roots: list[int], need: Optional[Formula],
            strict: bool, stats: SolverStats, steps: StepBudget
            ) -> Optional[SatResult]:
    """Try the roots in ascending order.  When `need` is set (second pass),
    some placed label must also contain it."""
    if not roots:
        return None
    dia_any, box_all = 0, -1
    for rho in roots:
        dt, _, bt, _ = space.vectors(rho)
        dia_any |= dt
        box_all &= bt
    below = space.enumerate_labels(must=_below_must(space, dia_any, box_all),
                                   budget=steps)
    graphs: dict[tuple[int, int], _GlueGraph] = {}
    for rho in roots:
        stats.roots_tried += 1
        dt, _, bt, _ = space.vectors(rho)
        key = (dt, bt)
        graph = graphs.get(key)
        if graph is None:
            graph = graphs[key] = _glue_graph(space, below, key, need, strict,
                                              stats, steps)
        for members in graph.comps:
            got = _try_component(space, rho, graph, members, need, strict,
                                 stats)
            if got is not None:
                return got
    return None


class _GlueGraph(NamedTuple):
    middles: list[int]                # class representatives, ascending
    edges: list[int]                  # edge-class representatives, ascending
    arc_mid: dict[tuple[int, int], int]
    adj: dict[int, set[int]]
    comps: list[list[int]]


def _glue_graph(space: LabelSpace, below: list[int], key: tuple[int, int],
                need: Optional[Formula], strict: bool, stats: SolverStats,
                steps: StepBudget) -> _GlueGraph:
    """Glue graph of the roots with this key: edge classes as nodes, an arc
    where some middle class makes a coherent tile."""
    ones = zeros = 0
    for idx, pol, v in _below_must(space, *key):
        if v == pol:
            ones |= 1 << idx
        else:
            zeros |= 1 << idx
    labels = [lab for lab in below if lab & ones == ones and not lab & zeros]
    stats.glue_graphs += 1
    stats.labels_built += len(labels)

    # middles are classed by their whole modal vector, edges by the bodies
    # they supply; the second pass also tells apart labels holding `need`
    def sig(lab: int) -> tuple:
        vec = space.vectors(lab)
        return vec if need is None else (*vec, space.member(lab, need))

    middle_of: dict = {}
    for lab in labels:
        middle_of.setdefault(sig(lab), lab)
    middles = list(middle_of.values())
    edge_of: dict = {}
    for sg, m in middle_of.items():
        if space.edge_ok(m):
            _, dc, _, bc, *holds = sg
            edge_of.setdefault((dc, bc, *holds), m)
    edges = list(edge_of.values())
    stats.label_classes += len(middles) + len(edges)

    full_box = (1 << len(space.box_list)) - 1
    vecs = [space.vectors(x) for x in edges]

    # arc (xi, yi) exists when some middle makes (rho, m, X, Y) coherent;
    # keep the least such middle per arc
    arc_mid: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {i: set() for i in range(len(edges))}
    for m in middles:
        dt_m, dc_m, bt_m, bc_m = space.vectors(m)
        own_wit = 0 if strict else dc_m
        own_box = full_box if strict else bc_m
        pc = [i for i, x in enumerate(edges) if space.pair_ok(m, x)]
        steps.spend(len(pc) * len(pc) + len(edges), "glue-graph arcs")
        for xi in pc:
            rd = dt_m & ~(own_wit | vecs[xi][1])
            rb = own_box & vecs[xi][3] & ~bt_m
            for yi in pc:
                if (xi, yi) in arc_mid:
                    continue
                if rd & ~vecs[yi][1] or rb & vecs[yi][3]:
                    continue
                arc_mid[(xi, yi)] = m
                adj[xi].add(yi)
                adj[yi].add(xi)
    stats.arcs += len(arc_mid)

    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for start in sorted(adj):
        if start in comp_of or not adj[start]:
            continue
        cid = len(comps)
        stack, members = [start], []
        comp_of[start] = cid
        while stack:
            v = stack.pop()
            members.append(v)
            for w in adj[v]:
                if w not in comp_of:
                    comp_of[w] = cid
                    stack.append(w)
        comps.append(sorted(members))
    stats.components += len(comps)
    return _GlueGraph(middles, edges, arc_mid, adj, comps)


def _try_component(space: LabelSpace, rho: int, graph: _GlueGraph,
                   members: list[int], need: Optional[Formula],
                   strict: bool, stats: SolverStats) -> Optional[SatResult]:
    dt_r, dc_r, bt_r, bc_r = space.vectors(rho)
    full_box = (1 << len(space.box_list)) - 1
    edges, arc_mid, adj = graph.edges, graph.arc_mid, graph.adj
    member_set = set(members)

    chosen: set[tuple[int, int, int]] = set()

    def add_arc(xi: int, yi: int, m: int):
        chosen.add((xi, yi, m))
        chosen.add((yi, xi, m))  # mirrored tile keeps the walk balanced

    def place_edge(xi: int):
        yi = min(adj[xi])
        m = arc_mid.get((xi, yi))
        if m is None:
            m = arc_mid[(yi, xi)]
        add_arc(xi, yi, m)

    def find_middle(pred) -> bool:
        # least (m, xi, yi) with pred(m) and a coherent tile inside the component
        for m in graph.middles:
            if not pred(m):
                continue
            for xi in members:
                if not space.pair_ok(m, edges[xi]):
                    continue
                for yi in members:
                    if _mid_fits(space, m, edges[xi], edges[yi], strict):
                        add_arc(xi, yi, m)
                        return True
        return False

    # every diamond and every refuted box of the root needs a placed witness;
    # the root label itself counts, then component edge labels, then middles
    reqs: list[tuple[str, int]] = []
    base = dt_r & ~dc_r
    while base:
        d = (base & -base).bit_length() - 1
        base &= base - 1
        reqs.append(("dia", d))
    base = ~bt_r & full_box & bc_r
    while base:
        b = (base & -base).bit_length() - 1
        base &= base - 1
        reqs.append(("box", b))
    for kind, bit in reqs:
        done = False
        for xi in members:
            vec = space.vectors(edges[xi])
            hit = vec[1] >> bit & 1 if kind == "dia" else not vec[3] >> bit & 1
            if hit:
                place_edge(xi)
                done = True
                break
        if not done:
            if kind == "dia":
                done = find_middle(lambda m: bool(space.vectors(m)[1] >> bit & 1))
            else:
                done = find_middle(lambda m: not space.vectors(m)[3] >> bit & 1)
        if not done:
            return None

    if need is not None and not space.member(rho, need):
        ok = False
        for xi in members:
            if space.member(edges[xi], need):
                place_edge(xi)
                ok = True
                break
        if not ok:
            ok = find_middle(lambda m: space.member(m, need))
        if not ok:
            return None

    if not chosen:
        loops = [xi for xi in members if (xi, xi) in arc_mid]
        if loops:
            add_arc(loops[0], loops[0], arc_mid[(loops[0], loops[0])])
        else:
            xi, yi = min(k for k in arc_mid if k[0] in member_set)
            add_arc(xi, yi, arc_mid[(xi, yi)])

    # connect the chosen arcs through the component so one closed walk
    # covers them all
    nodes = sorted({t[0] for t in chosen} | {t[1] for t in chosen})
    connected = {nodes[0]}
    missing = set(nodes) - connected
    while missing:
        path = _shortest_path(adj, sorted(connected), missing)
        if path is None:
            raise MosaicError("component lost connectivity")
        for u, v in zip(path, path[1:]):
            m = arc_mid.get((u, v))
            if m is None:
                m = arc_mid[(v, u)]
            add_arc(u, v, m)
        connected |= set(path)
        missing = set(nodes) - connected

    pool = tuple(Mosaic(rho, m, edges[xi], edges[yi])
                 for (xi, yi, m) in sorted(chosen))
    n, model, witness = extract_model(pool, space, rho)
    stats.pool_size = len(pool)
    stats.crown_n = n
    return SatResult(True, n, model, witness, rho, pool, stats)


# ---------------------------------------------------------------------------
# Model extraction

def extract_model(pool: Iterable[Mosaic], space: LabelSpace,
                  root_label: Optional[int] = None) -> tuple[int, Model, int]:
    """Assemble a crown model from a saturated family of coherent mosaics.

    The pool is closed under mirroring, and a closed walk visiting every
    tile once (edge labels as nodes, tiles as arcs) lays the tiles around
    the crown cycle; a pool whose glue graph is disconnected has no such
    walk.  Every closure member is re-verified at every world against its
    label before returning.
    """
    tiles = sorted(set(pool))
    if not tiles:
        raise MosaicError("empty mosaic pool")
    roots = {t.root for t in tiles}
    if len(roots) != 1:
        raise MosaicError("pool mixes root labels")
    if root_label is None:
        root_label = tiles[0].root
    elif root_label not in roots:
        raise MosaicError("root label not used by the pool")
    for t in tiles:
        if not is_coherent(t, space):
            raise MosaicError(f"incoherent mosaic in pool: {t}")
    tiles = sorted(set(tiles) | {mirror(t) for t in tiles})

    out: dict[int, list[tuple[int, Mosaic]]] = {}
    for t in tiles:
        out.setdefault(t.edge0, []).append((t.edge1, t))
    try:
        walk = _closed_walk(out, min(out))
    except ValueError as e:
        raise MosaicError(f"pool does not glue into a single cycle: {e}") from None
    order = [t for _, t in walk]

    n = len(order)
    world_labels = [root_label]
    for t in order:
        world_labels.append(t.edge0)
        world_labels.append(t.middle)
    # world 2i+1 carries edge0 of tile i, world 2i+2 its middle
    val: dict[str, frozenset[int]] = {}
    for f in space.positives:
        if isinstance(f, Var):
            val[f.name] = frozenset(w for w, lab in enumerate(world_labels)
                                    if space.member(lab, f))
    model = Model(crown(n), val)

    # a negated member fails exactly where its positive does, so checking
    # the positives in member order finds the first failing member
    masks = program_masks(model, space.program)
    for i, f in enumerate(space.positives):
        mask = masks[space.nodes[i]]
        for w, lab in enumerate(world_labels):
            if bool(mask >> w & 1) != bool(lab >> i & 1):
                raise MosaicError(
                    f"truth lemma fails at world {w} for {pretty(f)}")

    theta = space.theta
    if theta is None or space.member(root_label, theta):
        witness = 0
    else:
        witness = next(w for w, lab in enumerate(world_labels)
                       if space.member(lab, theta))
    return n, model, witness
