"""Finite reflexive-transitive Kripke frames, models, and their morphisms.

Worlds are integers 0..n-1.  Relations are stored as per-world successor
bitmasks; all operations are pure and frames are immutable after
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, StepBudget
from .formula import (AND, BOT, BOX, DIA, IFF, IMP, NOT, OR, VAR, And, Box,
                      Diamond, Formula, Implies, Not, Program, Var, compile,
                      conj, disj)


def _transitive_pass(rows: list[int]) -> Optional[int]:
    """OR into each row, in place and in order, the rows of the worlds it
    sees; the first world whose row grew, or None if none did."""
    grew = None
    for x, row in enumerate(rows):
        acc, m = row, row
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            acc |= rows[y]
        if acc != row:
            rows[x] = acc
            if grew is None:
                grew = x
    return grew


class Frame:
    """Reflexive-transitive frame over worlds 0..n-1.

    The input relation is reflexive-transitively closed at construction.
    """

    __slots__ = ("n", "rows", "root", "_preds", "_succs")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = (),
                 root: Optional[int] = None):
        if n <= 0:
            raise ValueError("frame needs at least one world")
        rows = [1 << x for x in range(n)]
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"relation pair {(x, y)} out of range")
            rows[x] |= 1 << y
        while _transitive_pass(rows) is not None:
            pass
        self._store(rows, root)

    @classmethod
    def from_rows(cls, rows: Sequence[int], root: Optional[int] = None) -> "Frame":
        """Frame whose world x sees the worlds in the bitmask rows[x].  The
        rows must already be reflexive and transitive, which one pass checks
        (a ValueError if not), so no closure is taken."""
        n = len(rows)
        if n <= 0:
            raise ValueError("frame needs at least one world")
        full = (1 << n) - 1
        for x, row in enumerate(rows):
            if row & ~full or not row >> x & 1:
                raise ValueError(f"row {x} is out of range or not reflexive")
        rows = list(rows)
        grew = _transitive_pass(rows)
        if grew is not None:
            raise ValueError(f"row {grew} is not transitive")
        frame = object.__new__(cls)
        frame._store(rows, root)
        return frame

    def _store(self, rows: list[int], root: Optional[int]) -> None:
        """Keep closed rows and the root, after checking that the root sees
        every world, and work out each world's predecessors."""
        n = len(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        if root is not None:
            if not 0 <= root < n:
                raise ValueError(f"root {root} out of range")
            if rows[root] != (1 << n) - 1:
                raise ValueError(f"world {root} does not see every world")
        object.__setattr__(self, "root", root)
        preds = [0] * n
        for x in range(n):
            m = rows[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                preds[y] |= 1 << x
        object.__setattr__(self, "_preds", tuple(preds))

    def __setattr__(self, *a):
        raise AttributeError("Frame is immutable")

    def __eq__(self, other):
        return (isinstance(other, Frame) and self.n == other.n
                and self.rows == other.rows and self.root == other.root)

    def __hash__(self):
        return hash((self.n, self.rows, self.root))

    def __repr__(self):
        return f"Frame(n={self.n}, pairs={sorted(self.strict_pairs())}, root={self.root})"

    def sees(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def successors(self, x: int) -> tuple[int, ...]:
        return _mask_worlds(self.rows[x])

    def _successor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Every world's successors, worked out on the first call only."""
        try:
            return self._succs
        except AttributeError:
            succs = tuple(map(_mask_worlds, self.rows))
            object.__setattr__(self, "_succs", succs)
            return succs

    def predecessors(self, y: int) -> tuple[int, ...]:
        return _mask_worlds(self._preds[y])

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in self.successors(x)]

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in self.pairs() if x != y]

    def find_root(self) -> Optional[int]:
        """Least world that sees every world, or None."""
        full = (1 << self.n) - 1
        for x in range(self.n):
            if self.rows[x] == full:
                return x
        return None

    def rooted(self) -> "Frame":
        """Same frame with root filled in; raises if no world sees everything."""
        if self.root is not None:
            return self
        r = self.find_root()
        if r is None:
            raise ValueError("frame has no root")
        return Frame.from_rows(self.rows, root=r)


def _mask_worlds(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        w = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(w)
    return tuple(out)


def _worlds_mask(worlds: Iterable[int]) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


@dataclass(frozen=True)
class Model:
    """Frame plus a valuation; unknown variables denote the empty set."""

    frame: Frame
    val: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for name, worlds in self.val.items():
            ws = frozenset(worlds)
            if any(not (0 <= w < self.frame.n) for w in ws):
                raise ValueError(f"valuation of {name!r} mentions unknown worlds")
            norm[name] = ws
        object.__setattr__(self, "val", norm)


def _evaluate(frame: Frame, prog: Program, columns: list,
              lanes: Optional[int] = None,
              beyond: Optional[tuple[int, int]] = None) -> list:
    """Value of every node of prog on the frame, under one valuation or
    under `lanes` valuations at once.

    One lane (lanes=None): a value is the bitmask of worlds where the node
    holds, and columns[j] is that mask for variable prog.names[j].  A
    diamond holds at the worlds whose row in `Frame.rows` meets its
    operand, a box at the worlds whose row lies inside it.

    Many lanes: a value is a list of n `lanes`-bit blocks, one per world;
    bit k of block w is the truth at world w under valuation k, and
    columns[j] holds variable prog.names[j] in that layout.  A diamond
    ORs, a box ANDs, the blocks of each world's successors.

    `beyond`, when given, is a pair (some, every) of node bitmasks for
    further worlds that every world of the frame sees: bit i of `some` says
    node i holds at one of them, bit i of `every` that it holds at all of
    them, under every valuation.  The crown oracle evaluates one world this
    way, one lane per atom pattern, with its strict successors as `beyond`.
    """
    n = frame.n
    if lanes is None:
        full = (1 << n) - 1
        top, bottom = full, 0
        rows = frame.rows
    else:
        full = (1 << lanes) - 1
        top, bottom = [full] * n, [0] * n
        succs = frame._successor_tuples()
    vals: list = []
    for op, a, b in prog.code:
        if op == VAR:
            v = columns[a]
        elif op == BOT:
            v = bottom
        elif op == DIA or op == BOX:
            x = vals[a]
            if lanes is not None:
                join = or_ if op == DIA else and_
                v = [reduce(join, [x[u] for u in s]) for s in succs]
            elif op == DIA:
                v = sum([1 << w for w, row in enumerate(rows) if row & x])
            else:
                v = sum([1 << w for w, row in enumerate(rows) if row & x == row])
            if beyond is not None:
                some, every = beyond
                if op == DIA and some >> a & 1:
                    v = top
                elif op == BOX and not every >> a & 1:
                    v = bottom
        elif lanes is None:
            x = vals[a]
            if op == NOT:
                v = full ^ x
            elif op == AND:
                v = x & vals[b]
            elif op == OR:
                v = x | vals[b]
            elif op == IMP:
                v = (full ^ x) | vals[b]
            elif op == IFF:
                v = full ^ x ^ vals[b]
        else:
            x = vals[a]
            if op == NOT:
                v = [full ^ p for p in x]
            elif op == AND:
                v = [p & q for p, q in zip(x, vals[b])]
            elif op == OR:
                v = [p | q for p, q in zip(x, vals[b])]
            elif op == IMP:
                v = [(full ^ p) | q for p, q in zip(x, vals[b])]
            elif op == IFF:
                v = [full ^ p ^ q for p, q in zip(x, vals[b])]
        vals.append(v)
    return vals


def program_masks(model: Model, prog: Program) -> list[int]:
    """Bitmask of worlds where each node of prog holds in the model."""
    columns = [_worlds_mask(model.val.get(name, ())) for name in prog.names]
    return _evaluate(model.frame, prog, columns)


def truth_mask(model: Model, phi: Formula) -> int:
    """Bitmask of worlds where phi holds (S4 semantics, box dual to diamond)."""
    prog = compile(phi)
    return program_masks(model, prog)[prog.root]


def eval_formula(model: Model, world: int, phi: Formula) -> bool:
    """Truth of phi at a world of a finite model."""
    if not (0 <= world < model.frame.n):
        raise ValueError(f"world {world} out of range")
    return bool(truth_mask(model, phi) >> world & 1)


# ---------------------------------------------------------------------------
# Frame validity

@dataclass(frozen=True)
class ValidityReport:
    """Result of a frame-validity check.

    `exhaustive` distinguishes a decision from 'no counterexample found in
    k trials'.  Boolean value is 'no counterexample found'.
    """

    valid: bool
    exhaustive: bool
    checked: int
    counterexample: Optional[dict[str, frozenset[int]]] = None
    world: Optional[int] = None

    def __bool__(self):
        return self.valid


_CHUNK = 1 << 16  # valuations evaluated together by valid_on_frame


def valid_on_frame(frame: Frame, phi: Formula, mode: str = "exhaustive",
                   samples: int = 10_000, seed: int = 0,
                   budget: int = 1 << 24) -> ValidityReport:
    """Validity of phi on the frame.

    Exhaustive mode decides by checking every valuation of vars(phi) and is
    rejected when 2^(n*|vars|) exceeds the budget; valuation v gives the
    j-th variable in sorted order the worlds w with bit j*n + w of v set.
    Sampled mode checks `samples` (a non-negative int) seeded random
    valuations and can only report the absence of a counterexample among
    them.  Sample i gives the j-th of the k sorted variables the worlds set
    in draw i*k + j, the draws being `getrandbits(n)` calls in turn on
    random.Random(seed).

    Both modes evaluate up to 2^16 valuations at once, as one lane each:
    every variable's column is built directly as one block per world (see
    `_evaluate`).  Sampled mode makes a chunk's draws with one
    `getrandbits(width * lanes * k)`, width = 32 * ceil(n / 32): CPython
    fills a draw with 32-bit words from the low end and keeps the top bits
    of the last one, so the wide draw holds the n-bit draws in turn, one
    per width-bit field, and leaves the generator where they would.  Bit w
    of a draw is bit w of its field below the last word, and bit
    w + width - n of it in the last word.  Each world's lane block is a
    strided slice of the wide draw's binary text.

    Both modes report the first failing valuation in their order
    (`checked` is its position + 1) with the least world where phi fails
    under it.
    """
    prog = compile(phi)
    names, k, n = prog.names, len(prog.names), frame.n
    exhaustive = mode == "exhaustive"
    if exhaustive:
        total = 1 << (n * k)
        if total > budget:
            raise BudgetExceededError(
                f"2^{n * k} valuations exceed the exhaustive budget {budget}")
        # lane block of each valuation bit: a fixed pattern for the bits
        # that vary inside a chunk, all ones or all zeros for the others
        periodic = _lane_index_bits(min(total, _CHUNK))
    elif mode == "sampled":
        if type(samples) is not int or samples < 0:
            raise ValueError(f"samples must be a non-negative int, not {samples!r}")
        rng = random.Random(seed)
        total = samples
        width = -(-n // 32) * 32
        # where world w's bit sits in each draw's field, counted from the
        # field's top bit as the text shows it
        offsets = [width - 1 - (w if w < width - 32 else w + width - n)
                   for w in range(n)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for base in range(0, total, _CHUNK):
        lanes = min(_CHUNK, total - base)
        if exhaustive:
            ones = (1 << lanes) - 1
            blocks = periodic + [ones * (base >> b & 1)
                                 for b in range(len(periodic), n * k)]
            columns = [blocks[j * n:(j + 1) * n] for j in range(k)]
        else:
            # the text runs from the last draw down to the first: draw
            # i*k + j starts at index (lanes*k - i*k - j - 1) * width, so a
            # slice of stride k * width from the last lane's draw of
            # variable j reads one world's bits, lane lanes-1 first
            bits = width * lanes * k
            text = format(rng.getrandbits(bits), f"0{bits}b")
            stride = k * width
            columns = [[int(text[(k - j - 1) * width + o::stride], 2)
                        for o in offsets] for j in range(k)]
        hit = _first_failure(frame, prog, columns, lanes)
        if hit is not None:
            lane, world = hit
            val = {name: frozenset(w for w, block in enumerate(column)
                                   if block >> lane & 1)
                   for name, column in zip(names, columns)}
            return ValidityReport(False, exhaustive, base + lane + 1, val, world)
    return ValidityReport(True, exhaustive, total)


def _lane_index_bits(lanes: int) -> list[int]:
    """For a power of two `lanes`, one `lanes`-bit value per bit b of a
    lane index: lane k of entry b is bit b of k."""
    out = []
    for b in range(lanes.bit_length() - 1):
        # 2^b zeros then 2^b ones from lane 0 up, doubled until `lanes` wide
        half = 1 << b
        value, width = ((1 << half) - 1) << half, 2 * half
        while width < lanes:
            value |= value << width
            width *= 2
        out.append(value)
    return out


def _first_failure(frame: Frame, prog: Program, columns: list[list[int]],
                   lanes: int) -> Optional[tuple[int, int]]:
    """(least lane, least world in it) where the root of prog is false."""
    full = (1 << lanes) - 1
    root = _evaluate(frame, prog, columns, lanes)[prog.root]
    fail = [full ^ block for block in root]
    failing = reduce(or_, fail)  # lanes that fail at some world
    if not failing:
        return None
    lane = (failing & -failing).bit_length() - 1
    world = next(w for w, block in enumerate(fail) if block >> lane & 1)
    return lane, world


def sat_on_frame(frame: Frame, phi: Formula, budget: int = 1 << 24):
    """Exhaustive satisfiability of phi on the frame over all valuations.

    Returns (valuation, world) or None.
    """
    report = valid_on_frame(frame, Not(phi), budget=budget)
    if report.valid:
        return None
    return report.counterexample, report.world


# ---------------------------------------------------------------------------
# p-morphisms and subreductions

@dataclass(frozen=True)
class WorldMap:
    """Partial map between the worlds of two frames, with explicit domain."""

    mapping: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def __getitem__(self, w: int) -> int:
        return self.mapping[w]

    def __eq__(self, other):
        return isinstance(other, WorldMap) and self.mapping == other.mapping

    def is_onto(self, target: Frame) -> bool:
        return set(self.mapping.values()) == set(range(target.n))


def is_p_morphism(f: WorldMap, source: Frame, target: Frame) -> bool:
    """Monotone + back condition on the declared domain; the domain must be
    an up-set of the source (a generated subframe).  Together the two
    conditions say f carries each domain world's row onto its image's."""
    dom = f.mapping
    if not all(0 <= fx < target.n for fx in dom.values()):
        return False
    dom_mask = _worlds_mask(dom)
    for x, fx in dom.items():
        row = source.rows[x]
        if row & ~dom_mask:
            return False  # domain not an up-set
        if _worlds_mask(dom[y] for y in _mask_worlds(row)) != target.rows[fx]:
            return False
    return True


def find_subreduction(source: Frame, target: Frame,
                      budget: int = 2_000_000) -> Optional[WorldMap]:
    """Search for a generated subframe of `source` mapping p-morphically onto
    `target`.

    Any subreduction restricts to one whose domain is generated by a single
    world, so domains range over R[u] for u ascending.  Assignment order is
    by ascending world index with monotonicity pruning and an incremental
    back-condition check once a world's successors are all assigned.  Each
    image tried for a world is one step.
    """
    if target.root is None:
        raise ValueError("target must be rooted")
    spend = StepBudget(budget, "subreduction search").spend

    for u in range(source.n):
        dom = list(_mask_worlds(source.rows[u]))
        if len(dom) < target.n:
            continue
        pos = {w: i for i, w in enumerate(dom)}
        succ_sets = [[pos[y] for y in _mask_worlds(source.rows[w])] for w in dom]
        # last position at which each world's successor set is fully assigned
        ready_at = [max(s) for s in succ_sets]
        assign = [-1] * len(dom)

        def backtrack(i: int) -> bool:
            if i == len(dom):
                return len(set(assign)) == target.n
            for t in range(target.n):
                spend(1, "image assignment")
                ok = True
                for j in range(i):
                    xj, xi = dom[j], dom[i]
                    if source.sees(xj, xi) and not target.sees(assign[j], t):
                        ok = False
                        break
                    if source.sees(xi, xj) and not target.sees(t, assign[j]):
                        ok = False
                        break
                if not ok:
                    continue
                assign[i] = t
                ok = True
                for w_idx in range(i + 1):
                    if ready_at[w_idx] == i:
                        images = {assign[j] for j in succ_sets[w_idx]}
                        need = set(_mask_worlds(target.rows[assign[w_idx]]))
                        if not need <= images:
                            ok = False
                            break
                if ok and backtrack(i + 1):
                    return True
                assign[i] = -1
            return False

        if backtrack(0):
            return WorldMap({w: assign[pos[w]] for w in dom})
    return None


def jankov_fine(target: Frame, prefix: str = "p") -> Formula:
    """Frame formula of a finite rooted frame: satisfiable exactly on the
    frames subreducible to it.

    Over variables {prefix+str(w)}: the root variable holds, everywhere some
    variable holds and no two hold together, and for each ordered pair of
    distinct worlds the relation (or its absence) is mirrored by diamonds.
    """
    if target.root is None:
        raise ValueError("target must be rooted")
    n = target.n
    ps = [Var(f"{prefix}{w}") for w in range(n)]
    parts: list[Formula] = [ps[target.root]]
    parts.append(Box(disj(list(ps))))
    for w in range(n):
        for v in range(w + 1, n):
            parts.append(Box(Not(And(ps[w], ps[v]))))
    for w in range(n):
        for v in range(n):
            if w == v:
                continue
            if target.sees(w, v):
                parts.append(Box(Implies(ps[w], Diamond(ps[v]))))
            else:
                parts.append(Box(Implies(ps[w], Not(Diamond(ps[v])))))
    return conj(parts)


# ---------------------------------------------------------------------------
# Bisimulations restricted to a variable set

def sigma_bisimilar(m1: Model, w1: int, m2: Model, w2: int,
                    sigma: Iterable[str]) -> bool:
    """Greatest bisimulation preserving only the variables in sigma,
    computed by fixpoint refinement of the atom-agreeing pairs."""
    names = sorted(set(sigma))
    f1, f2 = m1.frame, m2.frame

    def atoms(model, w):
        return tuple(w in model.val.get(p, ()) for p in names)

    pairs = {(x, y) for x in range(f1.n) for y in range(f2.n)
             if atoms(m1, x) == atoms(m2, y)}
    changed = True
    while changed:
        changed = False
        for (x, y) in list(pairs):
            ok = all(any((x2, y2) in pairs for y2 in f2.successors(y))
                     for x2 in f1.successors(x))
            if ok:
                ok = all(any((x2, y2) in pairs for x2 in f1.successors(x))
                         for y2 in f2.successors(y))
            if not ok:
                pairs.discard((x, y))
                changed = True
    return (w1, w2) in pairs


# ---------------------------------------------------------------------------
# Closure / interior / external boundary on frames

def closure_set(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    """Topological closure under the specialization order: a point is close
    to a set iff it sees into it, so closure adds all predecessors."""
    m = _worlds_mask(worlds)
    out = m
    for w in _mask_worlds(m):
        out |= frame._preds[w]
    return frozenset(_mask_worlds(out))


def interior_set(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    full = frozenset(range(frame.n))
    return full - closure_set(frame, full - frozenset(worlds))


def delta(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    """External boundary: closure minus the set itself."""
    ws = frozenset(worlds)
    return closure_set(frame, ws) - ws


# ---------------------------------------------------------------------------
# Walks and paths on plain graphs

def _closed_walk(edges: Sequence[tuple], start) -> list:
    """Closed walk from `start` that crosses every undirected edge
    `(a, b, label)` of the list exactly once, in either direction.

    Hierholzer's algorithm takes the least unused `(other end, label,
    index)` first.  The walk comes back as `[(v, label), ...]`: each entry
    leaves v along its edge towards the next entry's v, and the last one
    returns to `start`.  Raises ValueError when some edge is left unused or
    the edges taken do not close up.
    """
    darts: dict = {start: []}
    for i, (a, b, label) in enumerate(edges):
        darts.setdefault(a, []).append((b, label, i))
        darts.setdefault(b, []).append((a, label, i))
    for ds in darts.values():
        ds.sort(reverse=True)
    used = [False] * len(edges)
    stack = [(start, None)]
    steps = []
    while stack:
        v, via = stack[-1]
        ds = darts[v]
        while ds and used[ds[-1][2]]:
            ds.pop()
        if ds:
            head, label, i = ds.pop()
            used[i] = True
            stack.append((head, label))
        else:
            stack.pop()
            if stack:
                steps.append((stack[-1][0], via, v))
    steps.reverse()
    if not all(used):
        raise ValueError("closed walk misses an edge")
    if any(a[2] != b[0] for a, b in zip(steps, steps[1:] + steps[:1])):
        raise ValueError("walk does not close")
    return [(v, label) for v, label, _ in steps]


def _even_degrees(edges: list, adj: dict) -> None:
    """Append to the undirected edges `(a, b, label)` the edges
    `(x, y, adj[x][y])` of a shortest `adj`-path between each pair of
    odd-degree nodes, paired in ascending order, so that every degree is
    even: Edmonds and Johnson's Chinese-postman doubling ("Matching, Euler
    tours and the Chinese postman", 1973) with the pairs taken in order.  A
    pair with no path adds nothing, and the walk then reports it."""
    odd: set = set()
    for a, b, _ in edges:
        odd ^= {a} ^ {b}
    ends = sorted(odd)
    for a, b in zip(ends[::2], ends[1::2]):
        path = _shortest_path(adj, [a], {b}) or []
        edges += [(x, y, adj[x][y]) for x, y in zip(path, path[1:])]


def _shortest_path(adj: dict, sources: Iterable, targets) -> Optional[list]:
    """Shortest path from one of `sources` to any of `targets` (a set
    disjoint from the sources), or None.

    Breadth-first from the sources in the order given, neighbours in
    sorted order; the first target reached ends the search, so ties go to
    the earlier source and the lesser neighbour.
    """
    frontier = list(sources)
    prev = dict.fromkeys(frontier)
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(adj[v]):
                if w in prev:
                    continue
                prev[w] = v
                if w in targets:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# JSON interchange

def frame_to_dict(frame: Frame) -> dict:
    d = {"worlds": frame.n, "rel": [list(p) for p in sorted(frame.strict_pairs())]}
    if frame.root is not None:
        d["root"] = frame.root
    return d


def _ints(field: str, values: Iterable) -> None:
    """A ValueError naming the field unless every value is an int.  JSON
    true and false read as Python bools, which would pass as 1 and 0, and
    1.0 would pass as world 1, so only exact ints are taken."""
    for v in values:
        if type(v) is not int:
            shown = "a boolean" if isinstance(v, bool) else repr(v)
            raise ValueError(f'"{field}" holds {shown} where an integer is needed')


# the most worlds a frame file may declare: a frame keeps one row of
# `worlds` bits per world, so 4,096 worlds take 2 MB of rows
MAX_WORLDS = 4096


def frame_from_dict(d: dict) -> Frame:
    pairs = [tuple(p) for p in d.get("rel", [])]
    root = d.get("root")
    _ints("worlds", [d["worlds"]])
    if d["worlds"] > MAX_WORLDS:
        raise ValueError(f'"worlds" is {d["worlds"]}, above the limit of '
                         f'{MAX_WORLDS}')
    _ints("rel", [w for p in pairs for w in p])
    _ints("root", [] if root is None else [root])
    return Frame(d["worlds"], pairs, root=root)


def model_to_dict(model: Model) -> dict:
    d = frame_to_dict(model.frame)
    d["val"] = {name: sorted(ws) for name, ws in sorted(model.val.items())}
    return d


def model_from_dict(d: dict) -> Model:
    frame = frame_from_dict(d)
    val = {}
    for name, ws in d.get("val", {}).items():
        _ints(f"val.{name}", ws)
        val[name] = frozenset(ws)
    return Model(frame, val)
