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
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .crown import crown
from .errors import StepBudget, VerificationError
from .formula import (AND, BOT, BOX, DIA, IFF, IMP, NOT, OR, VAR, Formula,
                      Not, compile, negation_text, pretty, render_nodes,
                      simplify)
from .kripke import (Model, _breadth_first, _closed_walk, _even_degrees,
                     _mask_worlds, _shortest_path, eval_formula, program_masks)


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
# each clause as positions in a member's literal list c, x, y, ..., ~y, ~x,
# ~c: k for the k-th of c, x, y and ~k for its negation
_SLOTS = {op: tuple(tuple(~"cxy".index(t[1]) if t[0] == "-" else "cxy".index(t)
                          for t in clause.split()) for clause in rule)
          for op, rule in _RULES.items()}


class LabelSpace:
    """The closure set of a formula theta (kept as `self.theta`), indexed,
    with the machinery for Hintikka-set enumeration.

    The set is that of `simplify(theta)` (`self.searched`), theta
    with its constants folded out: an S4-equivalent formula, so labels over
    it decide theta, and theta itself when it contains no F or T.  `ref`
    resolves theta to the searched formula's root literal.

    Positive members (those not of the form ~psi) get one bit each, in
    (ast_size, pretty) order; the truth of any closure member under a label
    follows by stripping negations.  Everything is read off one compiled
    program (`self.program`), with each positive's operands resolved to
    (positive index, polarity).

    Literal 2j says that member j is true, 2j + 1 that it is false.  One
    pass over the members fills the tables from each opcode's clauses
    (`_SLOTS`).  A two-literal clause a | b of a member's rule (`_RULES`) is
    kept as the implications ~a -> b and ~b -> a, and every literal's
    closure under them as a pair of masks (true, false), built once.  The
    longer clauses are kept as (ones, zeros, twice) masks on the members
    they mention; `twice` marks a member filling two positions, as in `p & p`.

    Each implication joins a member's literal to an operand's, and no rule
    gives a literal both an implication in from an operand and one out to
    an operand: a true diamond, | or -> only has them in, a true box or &
    only out, and false literals the reverse.  So the implication graph is
    acyclic (a cycle's largest member would have such a literal), and a
    literal implying no operand's literal only implies literals of larger
    members that imply none either.  The closures are therefore built
    without search: first those of such literals, largest member first,
    then the others, smallest first.

    `enumerate_labels` lists every label meeting some constraints, and
    `least_label` finds only the least one.  Both run the same depth-first
    search over closed states (`_labels`), which spends one step per
    positive member for each state entered, in phase `label enumeration`.
    """

    def __init__(self, theta: Formula):
        self.theta = theta
        self.program = program = compile(simplify(theta))
        code, nodes = program.code, program.nodes
        sizes, texts = render_nodes(program)
        order = list(zip(sizes, texts)).__getitem__
        self.nodes = sorted([i for i, (op, _, _) in enumerate(code)
                             if op != NOT], key=order)
        self.positives = [nodes[i] for i in self.nodes]
        self.size = size = len(self.nodes)

        # literal of every program node, NOTs stripped: 2j for positive
        # member j, 2j + 1 for its negation
        self._lit_of = lit_of = [0] * len(code)
        for j, i in enumerate(self.nodes):
            lit_of[i] = 2 * j
        for i, (op, a, _) in enumerate(code):
            if op == NOT:
                lit_of[i] = lit_of[a] ^ 1

        # each opcode's clauses (`_SLOTS`) read over the literals c, x, y,
        # ..., ~y, ~x, ~c of the member c and its operands x, y
        self.ops, self.operands = ops, operands = [], []
        self.dia_list, self.box_list = dias, boxes = [], []
        self._bottoms = bottoms = []
        self._long = long = [[] for _ in range(size)]
        succ: list[list[int]] = [[] for _ in range(2 * size)]
        down = [False] * (2 * size)  # literals implying an operand's
        decisions = watched = 0
        for j, i in enumerate(self.nodes):
            op, a, b = code[i]
            ops.append(op)
            c = 2 * j
            if op == VAR or op == BOT:
                operands.append(())
                lits = (c, c + 1)
                if op == BOT:
                    bottoms.append(c + 1)
                else:
                    decisions |= 1 << j
            elif op == DIA or op == BOX:
                x = lit_of[a]
                operands.append(((x >> 1, not x & 1),))
                lits = (c, x, x ^ 1, c + 1)
                (dias if op == DIA else boxes).append(j)
                decisions |= 1 << j
            else:
                x, y = lit_of[a], lit_of[b]
                operands.append(((x >> 1, not x & 1), (y >> 1, not y & 1)))
                lits = (c, x, y, y ^ 1, x ^ 1, c + 1)
            mine = []  # the longer clauses, each over all of c, x, y
            for slots in _SLOTS.get(op, ()):
                if len(slots) == 2:
                    x, y = lits[slots[0]], lits[slots[1]]
                    succ[x ^ 1].append(y)
                    succ[y ^ 1].append(x)
                    # the larger is the member's literal c: ~c implies down
                    down[max(x, y) ^ 1] = True
                elif len(slots) > 2:
                    ones = zeros = twice = 0
                    for k in slots:
                        bit = 1 << (lits[k] >> 1)
                        twice |= (ones | zeros) & bit
                        if lits[k] & 1:
                            zeros |= bit
                        else:
                            ones |= bit
                    mine.append((ones, zeros, twice))
            if mine:
                for idx in {j, lits[1] >> 1, lits[2] >> 1}:
                    long[idx] += mine
                    watched |= 1 << idx

        # each literal's closure after those of the literals it implies
        self._closure = closure = [None] * (2 * size)
        for x in ([x for x in range(2 * size - 1, -1, -1) if not down[x]]
                  + [x for x in range(2 * size) if down[x]]):
            t, f = (0, 1 << (x >> 1)) if x & 1 else (1 << (x >> 1), 0)
            for y in succ[x]:
                yt, yf = closure[y]
                t |= yt
                f |= yf
            closure[x] = t, f
        self._watched, self._decisions = watched, decisions
        self._vec_cache: dict[int, tuple[int, int, int, int]] = {}

    @classmethod
    def for_formula(cls, theta: Formula) -> "LabelSpace":
        return cls(theta)

    @property
    def searched(self) -> Formula:
        """The formula the space was built from: theta, constants folded."""
        return self.program.nodes[self.program.root]

    @cached_property
    def members(self) -> list[Formula]:
        """The closure set in (ast_size, pretty) order: every program node
        and the negation of each non-NOT node that no NOT node covers (~i
        stands for that negation)."""
        code, nodes = self.program.code, self.program.nodes
        sizes, texts = render_nodes(self.program)
        keys = list(zip(sizes, texts, range(len(code))))
        covered = {a for op, a, _ in code if op == NOT}
        keys += [(sizes[i] + 1, negation_text(op, texts[i]), ~i)
                 for i, (op, _, _) in enumerate(code)
                 if op != NOT and i not in covered]
        keys.sort()
        return [nodes[i] if i >= 0 else Not(nodes[~i]) for _, _, i in keys]

    def ref(self, f: Formula) -> tuple[int, bool]:
        """(positive index, polarity); polarity False means negated.  theta
        stands for the searched formula."""
        if f == self.theta:
            f = self.searched
        pol = True
        while isinstance(f, Not):
            f = f.sub
            pol = not pol
        i = self.program.index.get(f)
        if i is None:
            raise KeyError(f"{pretty(f)} is not in the closure set")
        return self._lit_of[i] >> 1, pol

    def member(self, label: int, f: Formula) -> bool:
        idx, pol = self.ref(f)
        return bool(label >> idx & 1) == pol

    def label_formulas(self, label: int) -> frozenset[Formula]:
        return frozenset(f for f in self.members if self.member(label, f))

    # -- Hintikka enumeration -------------------------------------------

    def _propagate(self, t: int, f: int, lits: Sequence[int]
                   ) -> Optional[tuple[int, int]]:
        """Unit propagation from a closed state (t, f) after setting the
        literals lits; the closed state, or None on conflict.  A literal set
        ORs in its whole implication closure, so a node's cost does not grow
        with the length of an implication chain; the longer clauses are
        rechecked for each newly set member they mention.  Their literals
        count by position, so `p & p` derives nothing from being false, just
        as the member's rule reads its operands apart; the fixpoint, and any
        conflict, is then the one a sweep over every member until nothing
        changes reaches.  Spends nothing itself; `_labels` charges the
        node."""
        closure, long, watched = self._closure, self._long, self._watched
        done = t | f
        while lits:
            for lit in lits:
                ct, cf = closure[lit]
                t, f = t | ct, f | cf
            if t & f:
                return None
            fresh = (t | f) & ~done & watched
            done = t | f
            lits = []
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                for ones, zeros, twice in long[low.bit_length() - 1]:
                    if ones & t or zeros & f:
                        continue
                    free = (ones | zeros) & ~(t | f)
                    if not free:
                        return None
                    if free & (free - 1) or free & twice:
                        continue  # two open positions: nothing follows
                    if free & ones:
                        t |= free
                        lits.append(2 * free.bit_length() - 2)
                    else:
                        f |= free
                        lits.append(2 * free.bit_length() - 1)
        return t, f

    def _start(self, must: Iterable[tuple[int, bool, bool]]
               ) -> Optional[tuple[int, int]]:
        """The closed state of the (index, polarity, value) constraints, or
        None: from nothing, only false constants and the constrained
        members derive anything."""
        return self._propagate(0, 0, self._bottoms + [
            2 * idx + (v != pol) for idx, pol, v in must])

    def _labels(self, start: Optional[tuple[int, int]], budget: StepBudget
                ) -> Iterator[int]:
        """The Hintikka labels extending a closed state, depth first over
        the decisions (atoms and modal members).  A node branches on its
        lowest open decision, keeping each child whose propagation finds no
        conflict, and searches False first.  A node with no open decision
        is a leaf whose label is its true mask; one with a member still
        undecided raises MosaicError.  Every node entered spends one step
        per positive member, as when each node swept every member."""
        decisions, full = self._decisions, (1 << self.size) - 1
        stack = [] if start is None else [start]
        while stack:
            t, f = stack.pop()
            budget.spend(self.size, "label enumeration")
            undecided = decisions & ~(t | f)
            if not undecided:
                if t | f != full:
                    raise MosaicError("propagation left a closure member "
                                      "undecided in a complete label")
                yield t
                continue
            lit = 2 * (undecided & -undecided).bit_length() - 2
            for child in (self._propagate(t, f, (lit,)),
                          self._propagate(t, f, (lit + 1,))):
                if child is not None:
                    stack.append(child)  # False, pushed last, is popped first

    def enumerate_labels(self, must: Iterable[tuple[int, bool, bool]] = (),
                         budget: Optional[StepBudget] = None) -> list[int]:
        """All Hintikka labels satisfying the given (index, polarity, value)
        constraints, as ascending bitmasks (`_labels`), spending from the
        budget (by default a fresh one of `decide_sat`'s size)."""
        if budget is None:
            budget = StepBudget(20_000_000, "mosaic search")
        return sorted(self._labels(self._start(must), budget))

    def least_label(self, must: Iterable[tuple[int, bool, bool]] = (),
                    budget: Optional[StepBudget] = None) -> Optional[int]:
        """The least Hintikka label satisfying the constraints, or None: the
        least of `enumerate_labels(must)`, without enumerating the rest.

        It decides every member, highest first, keeping a label that meets
        the decisions so far.  A member that label holds false is set false;
        one it holds true is set false only if `_labels` finds a label
        extending that state, which becomes the label kept.  It never goes
        back on a member, and each search stops at its first leaf or
        exhausts the tree below a false member that no label extends."""
        if budget is None:
            budget = StepBudget(20_000_000, "mosaic search")
        state = self._start(must)
        label = next(self._labels(state, budget), None)
        if label is None:
            return None
        for j in range(self.size - 1, -1, -1):
            t, f = state
            if (t | f) >> j & 1:
                continue
            child = self._propagate(t, f, (2 * j + 1,))
            if label >> j & 1:
                lower = next(self._labels(child, budget), None)
                if lower is None:
                    child = self._propagate(t, f, (2 * j,))
                else:
                    label = lower
            state = child
        return label

    def is_hintikka(self, label: int) -> bool:
        """No bit beyond the closure set, and no conflict from setting all
        its literals, which assigns every clause (`_propagate`)."""
        lits = [2 * j + (not label >> j & 1) for j in range(self.size)]
        return (not label >> self.size
                and self._propagate(0, 0, self._bottoms + lits) is not None)

    # -- per-label modal vectors ------------------------------------------

    def vectors(self, label: int) -> tuple[int, int, int, int]:
        """(dia_true, dia_child, box_true, box_child) as bits over the
        diamond / box member lists."""
        got = self._vec_cache.get(label)
        if got is None:
            got = ()
            for members in (self.dia_list, self.box_list):
                true = child = 0
                for pos, i in enumerate(members):
                    idx, pol = self.operands[i][0]
                    true |= (label >> i & 1) << pos
                    child |= (label >> idx & 1 == pol) << pos
                got += (true, child)
            self._vec_cache[label] = got
        return got

    def pair_ok(self, above: int, below: int) -> bool:
        """Closure conditions between a world and one it sees: true diamond
        bodies below force diamonds above, boxes above push bodies down."""
        dt_a, _, bt_a, _ = self.vectors(above)
        _, dc_b, _, bc_b = self.vectors(below)
        return dc_b & ~dt_a == 0 and bt_a & ~bc_b == 0

    def edge_ok(self, label: int) -> bool:
        """An edge world sees only itself: each diamond has a reflexive witness
        and true bodies force their boxes."""
        dt, dc, bt, bc = self.vectors(label)
        return dt & ~dc == 0 and bc & ~bt == 0

    def middle_ok(self, middle: int, e0: int, e1: int) -> bool:
        """Diamond and box witnesses for a middle world, which sees itself
        and its two edges and so witnesses its own modalities."""
        dt_m, dc_m, bt_m, bc_m = self.vectors(middle)
        _, dc_0, _, bc_0 = self.vectors(e0)
        _, dc_1, _, bc_1 = self.vectors(e1)
        if dt_m & ~(dc_0 | dc_1 | dc_m):
            return False
        return bc_0 & bc_1 & bc_m & ~bt_m == 0


class Mosaic(NamedTuple):
    root: int
    middle: int
    edge0: int
    edge1: int


def mirror(m: Mosaic) -> Mosaic:
    return Mosaic(m.root, m.middle, m.edge1, m.edge0)


def is_coherent(m: Mosaic, space: LabelSpace) -> bool:
    """All coherence conditions: labels are Hintikka sets, diamonds and
    boxes agree along every pair of the reflexive-transitive mosaic order,
    and middle/edge witnesses exist."""
    r, mid, e0, e1 = m
    return (all(map(space.is_hintikka, m))
            and all(space.pair_ok(a, b) for a, b in
                    ((r, mid), (r, e0), (r, e1), (mid, e0), (mid, e1)))
            and space.edge_ok(e0) and space.edge_ok(e1)
            and space.middle_ok(mid, e0, e1))


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
    graph built (one per root key): glue_graphs, labels_built (the labels
    in the classes the key's filter keeps), label_classes (middle- and
    edge-class representatives), arcs (between edge classes) and
    components.  Of the answer: pool_size (the tiles, counted with
    multiplicity, so equal to crown_n) and crown_n.

    A closure with no diamond and no box builds no glue graph: a SAT answer
    reads roots_tried, pool_size and crown_n 1 and every other counter 0,
    and an UNSAT answer reads 0 throughout."""

    roots_tried: int = 0
    labels_built: int = 0
    arcs: int = 0
    pool_size: int = 0
    components: int = 0
    crown_n: int = 0
    glue_graphs: int = 0
    label_classes: int = 0


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


def decide_sat(theta: Formula, budget: int = 20_000_000) -> SatResult:
    """Satisfiability of theta over the finite crown frames.

    Tries root labels containing theta in ascending order and looks, in the
    glue graph of coherent tiles below each, for a connected family
    supplying every diamond and every refuted box of the root.  Which labels
    sit below a root depends only on its key (true diamonds, true boxes), so
    labels are enumerated once under the constraints all roots share, and
    each key's glue graph is built once.  A tile sees its labels only
    through their modal vectors, so the labels are grouped once into
    classes of equal vectors, each represented by its least label, and
    each key filters that table: the tiles found are those a search over
    every label finds first.  Where a component places each witness does
    not depend on the root, so a key's roots share those placements.  The
    chosen tiles, once each, are joined and their degrees evened by shortest
    paths (`_even_degrees`), and one closed walk lays out the crown.

    Satisfiability somewhere coincides with satisfiability at a root: the
    submodel generated by any crown world pulls back to the root of a small
    crown along a total p-morphism (a constant map for an endpoint, the
    two-teeth cover for a middle), so the search over roots holding theta
    is complete and the witness is always world 0.  Enumeration, arc
    building and witness placement spend from one step budget.

    A closure with no diamond and no box skips all of this: every modal
    vector is empty, so the labels below form one class whose least label
    L is every edge and middle, and the search's first root rho (the least
    label holding theta) answers at once with the one tile (rho, L, L, L).
    `_least_tile` builds that tile from two `least_label` searches, without
    enumerating either set of labels.  Its counters read one root, no glue
    graph, no labels built, no classes, no arcs and no components, and a
    one-tile pool on crown(1) (`SolverStats`).

    The search runs over the label space of theta with its constants
    folded out (`simplify`, inside `LabelSpace`).  When that formula is not
    theta itself, theta is re-checked at the returned world of the model,
    and a failure raises VerificationError.
    """
    space = LabelSpace.for_formula(theta)
    stats = SolverStats()
    steps = StepBudget(budget, "mosaic search")
    top = [(*space.ref(theta), True)]
    search = _search if space.dia_list or space.box_list else _least_tile
    got = search(space, top, stats, steps)
    if got is None:
        return SatResult(False, stats=stats)
    if (space.searched is not theta
            and not eval_formula(got.model, got.world, theta)):
        raise VerificationError(
            f"model of {pretty(space.searched)} fails "
            f"{pretty(theta)} at world {got.world}")
    return got


def _least_tile(space: LabelSpace, top: list[tuple[int, bool, bool]],
                stats: SolverStats, steps: StepBudget) -> Optional[SatResult]:
    """decide_sat on a closure without modal members: the least root and
    the least label below it, in one tile."""
    rho = space.least_label(top, steps)
    if rho is None:
        return None
    stats.roots_tried = 1
    least = space.least_label(budget=steps)
    return _answer(space, rho, (Mosaic(rho, least, least, least),), stats)


def _search(space: LabelSpace, top: list[tuple[int, bool, bool]],
            stats: SolverStats, steps: StepBudget) -> Optional[SatResult]:
    """decide_sat's search over roots, glue graphs and components."""
    roots = space.enumerate_labels(must=top, budget=steps)
    if not roots:
        return None
    dia_any, box_all = 0, -1
    for rho in roots:
        dt, _, bt, _ = space.vectors(rho)
        dia_any |= dt
        box_all &= bt
    below = space.enumerate_labels(must=_below_must(space, dia_any, box_all),
                                   budget=steps)
    # the labels below by modal vector: [least label, count], in ascending
    # order of the least label
    classes: dict[tuple[int, int, int, int], list[int]] = {}
    for lab in below:
        classes.setdefault(space.vectors(lab), [lab, 0])[1] += 1
    graphs: dict[tuple[int, int], _GlueGraph] = {}
    for rho in roots:
        stats.roots_tried += 1
        dt, _, bt, _ = space.vectors(rho)
        key = (dt, bt)
        graph = graphs.get(key)
        if graph is None:
            graph = graphs[key] = _glue_graph(classes, key, stats, steps)
        for cid in range(len(graph.comps)):
            got = _try_component(space, rho, graph, cid, stats, steps)
            if got is not None:
                return got
    return None


def _answer(space: LabelSpace, rho: int, pool: tuple[Mosaic, ...],
            stats: SolverStats) -> SatResult:
    """The SAT answer of a pool of tiles: its crown model, re-checked."""
    n, model, witness = extract_model(pool, space, rho)
    stats.pool_size = len(pool)
    stats.crown_n = n
    return SatResult(True, n, model, witness, rho, pool, stats)


def valid(theta: Formula, budget: int = 20_000_000) -> bool:
    """Validity over the polygonal-plane logic: the negation is unsatisfiable."""
    return not decide_sat(Not(theta), budget).sat


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


class _GlueGraph(NamedTuple):
    middles: list[int]                # class representatives, ascending
    edges: list[int]                  # edge-class representatives, ascending
    arcs: dict[int, dict[int, int]]   # arcs[xi][yi]: the arc's least middle
    comps: list[list[int]]
    placed: dict  # (component, requirement) -> its witness's arc, or None


def _glue_graph(classes: dict[tuple[int, int, int, int], list[int]],
                key: tuple[int, int], stats: SolverStats, steps: StepBudget
                ) -> _GlueGraph:
    """Glue graph of the roots with this key: edge classes as nodes, an arc
    where some middle class makes a coherent tile.  The key's constraints
    (`_below_must`) only read vector bits, true boxes setting bt and bc and
    missing diamonds clearing dt and dc, so the search's class table is
    filtered whole classes at a time."""
    dia_true, box_true = key
    middles, mvecs, edges, vecs = [], [], [], []
    for vec, (lab, count) in classes.items():
        dt, dc, bt, bc = vec
        if box_true & ~(bt & bc) or (dt | dc) & ~dia_true:
            continue
        stats.labels_built += count
        middles.append(lab)
        mvecs.append(vec)
        # a Hintikka label has dc <= dt and bt <= bc, and an edge sees only
        # itself (edge_ok): so edge vectors have dt == dc and bt == bc, and
        # each edge class is one class of the table
        if dt == dc and bt == bc:
            edges.append(lab)
            vecs.append(vec)
    stats.glue_graphs += 1
    stats.label_classes += len(middles) + len(edges)

    # arc (xi, yi) exists when some middle makes (rho, m, X, Y) coherent;
    # the test is symmetric in xi and yi, so both directions keep the same
    # least middle
    arcs: dict[int, dict[int, int]] = {i: {} for i in range(len(edges))}
    for m, (dt_m, dc_m, bt_m, bc_m) in zip(middles, mvecs):
        # pair_ok(m, x): x's true diamond bodies are m's diamonds, m's boxes
        # hold in x
        pc = [i for i, (_, dc, _, bc) in enumerate(vecs)
              if not dc & ~dt_m and not bt_m & ~bc]
        steps.spend(len(pc) * len(pc) + len(edges), "glue-graph arcs")
        for xi in pc:
            # diamonds of m and refuted boxes of m that neither m nor X
            # witnesses: Y must
            rd = dt_m & ~(dc_m | vecs[xi][1])
            rb = bc_m & vecs[xi][3] & ~bt_m
            near = arcs[xi]
            for yi in pc:
                if yi in near or rd & ~vecs[yi][1] or rb & vecs[yi][3]:
                    continue
                near[yi] = arcs[yi][xi] = m
    stats.arcs += sum(map(len, arcs.values()))

    # the components of the edge classes with an arc, by least member
    comps: list[list[int]] = []
    seen: set[int] = set()
    for start, near in arcs.items():
        if near and start not in seen:
            comps.append(sorted(_breadth_first(arcs, [start])))
            seen.update(comps[-1])
    stats.components += len(comps)
    return _GlueGraph(middles, edges, arcs, comps, {})


def _place(space: LabelSpace, graph: _GlueGraph, members: list[int],
           req: tuple[int, int, int], steps: StepBudget
           ) -> Optional[tuple[int, int, int]]:
    """The arc placing req's witness in the component, whatever the root:
    the first member edge meeting req, linked to its least neighbour, else
    the least (m, xi, yi) with m meeting req and a coherent tile; or None.
    Each pair_ok test spends one step."""
    slot, bit, want = req
    edges, arcs = graph.edges, graph.arcs

    def meets(label: int) -> bool:
        return space.vectors(label)[slot] >> bit & 1 == want

    def fits(m: int, xi: int) -> bool:
        steps.spend(1, "witness placement")
        return space.pair_ok(m, edges[xi])

    for xi in members:
        if meets(edges[xi]):
            yi = min(arcs[xi])
            return xi, yi, arcs[xi][yi]
    for m in graph.middles:
        if not meets(m):
            continue
        for xi in members:
            if not fits(m, xi):
                continue
            for yi in members:
                if fits(m, yi) and space.middle_ok(m, edges[xi], edges[yi]):
                    return xi, yi, m
    return None


def _try_component(space: LabelSpace, rho: int, graph: _GlueGraph,
                   cid: int, stats: SolverStats, steps: StepBudget
                   ) -> Optional[SatResult]:
    dt_r, dc_r, bt_r, bc_r = space.vectors(rho)
    edges, arcs = graph.edges, graph.arcs
    members = graph.comps[cid]

    # each tile once, edge classes ascending: a walk crosses it either way
    chosen: set[tuple[int, int, int]] = set()

    def add_arc(xi: int, yi: int, m: int):
        chosen.add((min(xi, yi), max(xi, yi), m))

    # every diamond and every refuted box of the root needs a placed witness
    # (a label whose vector slot has the bit at the wanted value); the root
    # label itself counts, then component edge labels, then middles.  The
    # placements depend on the component alone, so the key's roots share them
    reqs = [(1, d, 1) for d in range(len(space.dia_list))
            if dt_r >> d & 1 and not dc_r >> d & 1]
    reqs += [(3, b, 0) for b in range(len(space.box_list))
             if bc_r >> b & 1 and not bt_r >> b & 1]
    for req in reqs:
        if (cid, req) not in graph.placed:
            graph.placed[(cid, req)] = _place(space, graph, members, req, steps)
        arc = graph.placed[(cid, req)]
        if arc is None:
            return None
        add_arc(*arc)

    if not chosen:
        # the first loop, else the least arc of the component
        xi = next((x for x in members if x in arcs[x]), members[0])
        yi = xi if xi in arcs[xi] else min(arcs[xi])
        add_arc(xi, yi, arcs[xi][yi])

    # connect the chosen arcs through the component, then even the degrees,
    # so one closed walk covers them all
    nodes = {x for arc in chosen for x in arc[:2]}
    connected = {min(nodes)}
    while nodes - connected:
        path = _shortest_path(arcs, sorted(connected), nodes - connected)
        if path is None:
            raise MosaicError("component lost connectivity")
        for u, v in zip(path, path[1:]):
            add_arc(u, v, arcs[u][v])
        connected |= set(path)
    tiles = sorted(chosen)
    _even_degrees(tiles, arcs)

    pool = tuple(Mosaic(rho, m, edges[xi], edges[yi]) for xi, yi, m in tiles)
    return _answer(space, rho, pool, stats)


# ---------------------------------------------------------------------------
# Model extraction

def extract_model(pool: Iterable[Mosaic], space: LabelSpace,
                  root_label: Optional[int] = None) -> tuple[int, Model, int]:
    """Assemble a crown model from a saturated family of coherent mosaics.

    The pool is a multiset of tiles, and a closed walk crossing every tile
    once, in either direction (edge labels as nodes, tiles as edges), lays
    the tiles around the crown cycle: coherence is symmetric in the two
    edges, so a tile crossed backwards is its mirror.  A pool with an
    odd-degree edge label, or whose glue graph is disconnected, has no
    such walk.  Every closure member is re-verified at every world against
    its label before returning, which an incoherent tile fails; only a label
    beyond the closure set is refused up front.  The witness is the first
    world holding the searched formula (`space.searched`); a pool where no
    world holds it raises MosaicError.
    """
    tiles = sorted(pool)
    if not tiles:
        raise MosaicError("empty mosaic pool")
    roots = {t.root for t in tiles}
    if len(roots) != 1:
        raise MosaicError("pool mixes root labels")
    if root_label is None:
        root_label = tiles[0].root
    elif root_label not in roots:
        raise MosaicError("root label not used by the pool")

    try:
        walk = _closed_walk([(t.edge0, t.edge1, t) for t in tiles],
                            min(min(t.edge0, t.edge1) for t in tiles))
    except ValueError as e:
        raise MosaicError(f"pool does not glue into a single cycle: {e}") from None

    n = len(walk)
    world_labels = [root_label]
    for edge, t in walk:
        world_labels.append(edge)
        world_labels.append(t.middle)
    if any(lab >> space.size for lab in world_labels):
        raise MosaicError("a label has bits beyond the closure set")
    # world 2i+1 carries the edge step i leaves, world 2i+2 its tile's
    # middle; column i holds the worlds whose labels make positive member i
    # true
    cols = [0] * space.size
    for w, lab in enumerate(world_labels):
        for i in _mask_worlds(lab):
            cols[i] |= 1 << w
    model = Model(crown(n), masks={f.name: cols[i]
                                   for i, f in enumerate(space.positives)
                                   if space.ops[i] == VAR})

    # a negated member fails exactly where its positive does, so checking
    # the positives in member order finds the first failing member
    masks = program_masks(model, space.program)
    for i, f in enumerate(space.positives):
        wrong = _mask_worlds(masks[space.nodes[i]] ^ cols[i])
        if wrong:
            raise MosaicError(
                f"truth lemma fails at world {wrong[0]} for {pretty(f)}")

    idx, pol = space.ref(space.searched)
    holds = _mask_worlds(cols[idx] if pol else ~cols[idx] & (1 << 2 * n + 1) - 1)
    if not holds:
        raise MosaicError(f"no world holds {pretty(space.searched)}")
    return n, model, holds[0]
