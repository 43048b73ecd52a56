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
from typing import Iterable, Optional

from .errors import BudgetExceededError
from .formula import (AND, BOT, DIA, IFF, IMP, NOT, OR, VAR, And, Box, Diamond,
                      Formula, Implies, Not, Program, Var, compile, conj, disj)


def _closure_rows(rows: list[int], n: int) -> list[int]:
    rows = [rows[i] | (1 << i) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = rows[x]
            m = rows[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[y]
            if acc != rows[x]:
                rows[x] = acc
                changed = True
    return rows


class Frame:
    """Reflexive-transitive frame over worlds 0..n-1.

    The input relation is reflexive-transitively closed at construction;
    `closure_applied` records whether that changed anything.  With
    strict=True a non-closed input is rejected instead.
    """

    __slots__ = ("n", "rows", "root", "closure_applied", "_preds")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = (),
                 root: Optional[int] = None, strict: bool = False):
        if n <= 0:
            raise ValueError("frame needs at least one world")
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"relation pair {(x, y)} out of range")
            rows[x] |= 1 << y
        given = [rows[i] | (1 << i) for i in range(n)]
        closed = _closure_rows(list(rows), n)
        if strict and closed != given:
            raise ValueError("relation is not reflexive-transitively closed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(closed))
        object.__setattr__(self, "closure_applied", closed != given)
        if root is not None:
            full = (1 << n) - 1
            if closed[root] != full:
                raise ValueError(f"world {root} does not see every world")
        object.__setattr__(self, "root", root)
        preds = [0] * n
        for x in range(n):
            m = closed[x]
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
        return Frame(self.n, self.strict_pairs(), root=r)


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


def _blocks(value: int, n: int, lanes: int) -> list[int]:
    """The n world blocks of a world-major value, each `lanes` bits wide."""
    lane = (1 << lanes) - 1
    return [value >> (w * lanes) & lane for w in range(n)]


def _evaluate(frame: Frame, prog: Program, columns: list[int],
              lanes: int = 1,
              beyond: Optional[tuple[int, int]] = None) -> list[int]:
    """Value of every node of prog on the frame under `lanes` valuations at
    once.

    Values are world-major: bit w*lanes + k is the truth at world w under
    valuation k, and columns[j] holds variable prog.names[j] in that layout.
    With lanes=1 a value is the bitmask of worlds where the node holds.

    `beyond`, when given, is a pair (some, every) of node bitmasks for
    further worlds that every world of the frame sees: bit i of `some` says
    node i holds at one of them, bit i of `every` that it holds at all of
    them, under every valuation.  The crown oracle evaluates one world this
    way, one lane per atom pattern, with its strict successors as `beyond`.
    """
    n = frame.n
    full = (1 << (n * lanes)) - 1
    succs = [_mask_worlds(row) for row in frame.rows]
    vals: list[int] = []
    for op, a, b in prog.code:
        if op == VAR:
            v = columns[a]
        elif op == BOT:
            v = 0
        elif op == NOT:
            v = full ^ vals[a]
        elif op == AND:
            v = vals[a] & vals[b]
        elif op == OR:
            v = vals[a] | vals[b]
        elif op == IMP:
            v = (full ^ vals[a]) | vals[b]
        elif op == IFF:
            v = full ^ (vals[a] ^ vals[b])
        else:  # DIA, BOX: OR / AND the operand's blocks over successors
            v = vals[a]
            if n > 1:  # a single world sees only itself
                blocks = _blocks(v, n, lanes)
                join = or_ if op == DIA else and_
                v = 0
                for w in range(n):
                    v |= reduce(join, [blocks[u] for u in succs[w]]) << (w * lanes)
            if beyond is not None:
                some, every = beyond
                if op == DIA and some >> a & 1:
                    v = full
                elif op != DIA and not every >> a & 1:
                    v = 0
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
    Sampled mode draws `samples` seeded random valuations, one
    `getrandbits(n)` per sorted variable per sample, and can only report the
    absence of a counterexample among them.

    Both modes evaluate up to 2^16 valuations at once and report the first
    failing valuation in their order (`checked` is its position + 1) with
    the least world where phi fails under it.
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
        rng = random.Random(seed)
        total = samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for base in range(0, total, _CHUNK):
        lanes = min(_CHUNK, total - base)
        if exhaustive:
            ones = (1 << lanes) - 1
            blocks = periodic + [ones * (base >> b & 1)
                                 for b in range(len(periodic), n * k)]
            columns = [sum(blocks[j * n + w] << (w * lanes) for w in range(n))
                       for j in range(k)]
        else:
            draws = [rng.getrandbits(n) for _ in range(lanes * k)]
            columns = [_transpose(draws[j::k], n) for j in range(k)]
        hit = _first_failure(frame, prog, columns, lanes)
        if hit is not None:
            lane, world = hit
            if exhaustive:
                masks = [(base + lane) >> (j * n) & ((1 << n) - 1) for j in range(k)]
            else:
                masks = draws[lane * k:(lane + 1) * k]
            val = {name: frozenset(_mask_worlds(m)) for name, m in zip(names, masks)}
            return ValidityReport(False, exhaustive, base + lane + 1, val, world)
    return ValidityReport(True, exhaustive, total)


def _lane_index_bits(lanes: int) -> list[int]:
    """For a power of two `lanes`, one `lanes`-bit value per bit b of a
    lane index: lane k of entry b is bit b of k."""
    return [int(("1" * (1 << b) + "0" * (1 << b)) * (lanes >> (b + 1)), 2)
            for b in range(lanes.bit_length() - 1)]


def _transpose(draws: list[int], n: int) -> int:
    """World-major value with bit w*len(draws) + k = bit w of draws[k]."""
    # written most significant bit first: worlds descending, lanes descending
    rows = "".join(format(d, f"0{n}b") for d in reversed(draws))
    return int("".join(rows[i::n] for i in range(n)), 2)


def _first_failure(frame: Frame, prog: Program, columns: list[int],
                   lanes: int) -> Optional[tuple[int, int]]:
    """(least lane, least world in it) where the root of prog is false."""
    n = frame.n
    vals = _evaluate(frame, prog, columns, lanes)
    fail = ((1 << (n * lanes)) - 1) ^ vals[prog.root]
    if not fail:
        return None
    blocks = _blocks(fail, n, lanes)
    lane = min((b & -b).bit_length() for b in blocks if b) - 1
    world = next(w for w, b in enumerate(blocks) if b >> lane & 1)
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
    an up-set of the source (a generated subframe)."""
    dom = f.mapping
    dom_mask = _worlds_mask(dom)
    for x in dom:
        if source.rows[x] & ~dom_mask:
            return False  # domain not an up-set
        fx = dom[x]
        if not (0 <= fx < target.n):
            return False
        for y in _mask_worlds(source.rows[x]):
            if not target.sees(fx, dom[y]):
                return False  # not monotone
        images = {dom[y] for y in _mask_worlds(source.rows[x])}
        for z in _mask_worlds(target.rows[fx]):
            if z not in images:
                return False  # back condition fails
    return True


def find_subreduction(source: Frame, target: Frame,
                      budget: int = 2_000_000) -> Optional[WorldMap]:
    """Search for a generated subframe of `source` mapping p-morphically onto
    `target`.

    Any subreduction restricts to one whose domain is generated by a single
    world, so domains range over R[u] for u ascending.  Assignment order is
    by ascending world index with monotonicity pruning and an incremental
    back-condition check once a world's successors are all assigned.
    """
    if target.root is None:
        raise ValueError("target must be rooted")
    steps = 0

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
            nonlocal steps
            if i == len(dom):
                return len(set(assign)) == target.n
            for t in range(target.n):
                steps += 1
                if steps > budget:
                    raise BudgetExceededError("subreduction search budget exhausted")
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

def _closed_walk(out: dict, start) -> list:
    """Closed walk from `start` that uses every key in `out` exactly once.

    `out[v]` lists the darts `(head, key)` leaving v, and every head is a
    key of `out`.  Darts that share a key form one undirected edge, walked
    once in either direction.  Hierholzer's algorithm takes the least
    unused `(head, key)` first.  The walk comes
    back as `[(v, key), ...]`: each entry leaves v along key towards the
    next entry's v, and the last one returns to `start`.  Raises ValueError
    when some key is left unused or the darts taken do not close up.
    """
    darts = {v: sorted(ds, reverse=True) for v, ds in out.items()}
    used = set()
    stack = [(start, None)]
    steps = []
    while stack:
        v, via = stack[-1]
        ds = darts[v]
        while ds and ds[-1][1] in used:
            ds.pop()
        if ds:
            head, key = ds.pop()
            used.add(key)
            stack.append((head, key))
        else:
            stack.pop()
            if stack:
                steps.append((stack[-1][0], via, v))
    steps.reverse()
    if any(key not in used for ds in out.values() for _, key in ds):
        raise ValueError("closed walk misses a dart")
    if any(a[2] != b[0] for a, b in zip(steps, steps[1:] + steps[:1])):
        raise ValueError("walk does not close")
    return [(v, key) for v, key, _ in steps]


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


def frame_from_dict(d: dict, strict: bool = False) -> Frame:
    pairs = [tuple(p) for p in d.get("rel", [])]
    return Frame(d["worlds"], pairs, root=d.get("root"), strict=strict)


def model_to_dict(model: Model) -> dict:
    d = frame_to_dict(model.frame)
    d["val"] = {name: sorted(ws) for name, ws in sorted(model.val.items())}
    return d


def model_from_dict(d: dict, strict: bool = False) -> Model:
    frame = frame_from_dict(d, strict=strict)
    val = {name: frozenset(ws) for name, ws in d.get("val", {}).items()}
    return Model(frame, val)
