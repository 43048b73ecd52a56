"""Finite reflexive-transitive Kripke frames, models, and their morphisms.

Worlds are integers 0..n-1.  Relations are stored as per-world successor
bitmasks; all operations are pure and frames are immutable after
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, StepBudget, VerificationError
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


@dataclass(frozen=True, init=False, repr=False)
class Frame:
    """Reflexive-transitive frame over worlds 0..n-1, equal and hashed by
    (n, rows, root).  The input relation is reflexive-transitively closed at
    construction; the predecessor and successor tables and the many-lane
    evaluator's plan are built on first read.
    """

    n: int
    rows: tuple[int, ...]
    root: Optional[int]

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
        every world."""
        n = len(rows)
        if root is not None:
            if not 0 <= root < n:
                raise ValueError(f"root {root} out of range")
            if rows[root] != (1 << n) - 1:
                raise ValueError(f"world {root} does not see every world")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "root", root)

    def __repr__(self):
        return f"Frame(n={self.n}, pairs={sorted(self.strict_pairs())}, root={self.root})"

    @cached_property
    def _preds(self) -> tuple[int, ...]:
        """Bitmask of each world's predecessors."""
        preds = [0] * self.n
        for x, m in enumerate(self.rows):
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                preds[y] |= 1 << x
        return tuple(preds)

    @cached_property
    def _succs(self) -> tuple[tuple[int, ...], ...]:
        """Each world's successors, ascending."""
        return tuple(map(_mask_worlds, self.rows))

    @cached_property
    def _plan(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Every world, after each world it strictly sees, with the worlds
        whose finished modal blocks complete its own: its cluster mates
        (the other worlds with its row) and the least world of each cluster
        it immediately covers.  What a world sees is its cluster and all
        that the clusters it covers see, so the many-lane evaluator joins
        these few blocks in place of every successor's."""
        rows = self.rows
        cluster: dict[int, int] = {}
        for w, row in enumerate(rows):
            cluster[row] = cluster.get(row, 0) | 1 << w
        lead = {row: (m & -m).bit_length() - 1 for row, m in cluster.items()}
        above = [row & ~cluster[row] for row in rows]  # seen strictly
        plan = []
        for w in sorted(range(self.n), key=lambda w: rows[w].bit_count()):
            covered = above[w]
            for u in _mask_worlds(above[w]):
                covered &= ~above[u]
            heads = sorted({lead[rows[u]] for u in _mask_worlds(covered)})
            plan.append((w, _mask_worlds(cluster[rows[w]] & ~(1 << w))
                         + tuple(heads)))
        return tuple(plan)

    def sees(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def successors(self, x: int) -> tuple[int, ...]:
        return self._succs[x]

    def predecessors(self, y: int) -> tuple[int, ...]:
        return _mask_worlds(self._preds[y])

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in self.successors(x)]

    def strict_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in self.pairs() if x != y]

    def find_root(self) -> Optional[int]:
        """Least world that sees every world, or None."""
        full = (1 << self.n) - 1
        return next((x for x, row in enumerate(self.rows) if row == full), None)

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


@dataclass(frozen=True, init=False)
class Model:
    """Frame plus a valuation, stored as one bitmask of worlds per variable
    (`masks`) and given either as iterables of worlds (`val`) or as those
    masks; unknown variables denote the empty set.  `val` reads the masks
    back as frozensets, built on first read."""

    frame: Frame
    masks: dict[str, int]

    def __init__(self, frame: Frame, val: Optional[dict] = None, *,
                 masks: Optional[dict[str, int]] = None):
        masks = dict(masks or {})
        for name, worlds in (val or {}).items():
            ws = list(worlds)
            # checked before any world is shifted into a mask
            if not all(0 <= w < frame.n for w in ws):
                raise ValueError(f"valuation of {name!r} mentions unknown worlds")
            masks[name] = _worlds_mask(ws)
        for name, mask in masks.items():
            if mask < 0 or mask >> frame.n:
                raise ValueError(f"valuation of {name!r} mentions unknown worlds")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masks", masks)

    @cached_property
    def val(self) -> dict[str, frozenset[int]]:
        return {name: frozenset(_mask_worlds(m)) for name, m in self.masks.items()}


def _evaluate(frame: Frame, prog: Program, columns: list,
              lanes: Optional[int] = None,
              beyond: Optional[tuple[int, int]] = None,
              reuse: Optional[tuple[list, int, int]] = None) -> list:
    """Value of every node of prog on the frame, under one valuation or
    under `lanes` valuations at once.

    One lane (lanes=None): a value is the bitmask of worlds where the node
    holds, and columns[j] is that mask for variable prog.names[j].  A
    diamond is the closure of its operand, a box its interior (`_closure`,
    `_interior`).

    Many lanes: a value is a list of n `lanes`-bit blocks, one per world;
    bit k of block w is the truth at world w under valuation k, and
    columns[j] holds variable prog.names[j] in that layout.  A diamond
    ORs, a box ANDs, along the frame's plan (`Frame._plan`): worlds seen
    strictly come first, and each world's block joins its cluster mates'
    blocks and the finished blocks of the clusters it covers.

    `beyond`, when given, is a pair (some, every) of node bitmasks for
    further worlds that every world of the frame sees: bit i of `some` says
    node i holds at one of them, bit i of `every` that it holds at all of
    them, under every valuation.  The crown oracle evaluates one world this
    way, one lane per atom pattern, with its strict successors as `beyond`.

    `reuse`, with many lanes, is a triple (before, moved, stale): what this
    function returned for other columns, a bitmask of the variables
    (bit j for prog.names[j]) whose columns differ from those, and a
    bitmask of worlds that holds every world seeing a world where they
    differ.  A node that reads no moved variable keeps its lists from
    `before` whole.  A node's block at a world depends only on the blocks
    of the worlds it sees, so every other node is computed at the stale
    worlds alone; its list from `before` takes the new blocks in place.
    """
    n = frame.n
    keep = 0  # nodes whose lists come from `before` unchanged
    if lanes is None:
        full = (1 << n) - 1
        top, bottom = full, 0
        rows = frame.rows
    else:
        full = (1 << lanes) - 1
        top, bottom = [full] * n, [0] * n
        plan = frame._plan
        if reuse is not None:
            before, moved, stale = reuse
            redo = 0  # nodes that read a moved variable
            for i, (op, a, b) in enumerate(prog.code):
                reads = (moved >> a if op == VAR else 0 if op == BOT
                         else redo >> a if op in (NOT, DIA, BOX)
                         else redo >> a | redo >> b)
                redo |= (reads & 1) << i
            keep = ~redo
            worlds = _mask_worlds(stale)
            plan = [step for step in plan if stale >> step[0] & 1]
    vals: list = []
    for op, a, b in prog.code:
        if keep >> len(vals) & 1:
            v = before[len(vals)]
        elif op == VAR:
            v = columns[a]
        elif op == BOT:
            v = bottom
        elif op == DIA or op == BOX:
            x = vals[a]
            if lanes is None:
                v = _closure(rows, x) if op == DIA else _interior(rows, x)
            else:
                if reuse is None:
                    v = list(x)
                else:
                    v = before[len(vals)]
                    for w in worlds:
                        v[w] = x[w]
                if op == DIA:
                    for w, joins in plan:
                        block = v[w]
                        for u in joins:
                            block |= v[u]
                        v[w] = block
                else:
                    for w, joins in plan:
                        block = v[w]
                        for u in joins:
                            block &= v[u]
                        v[w] = block
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
            x, y = vals[a], vals[b]
            if reuse is not None:
                x, y = [x[w] for w in worlds], [y[w] for w in worlds]
            if op == NOT:
                v = [full ^ p for p in x]
            elif op == AND:
                v = [p & q for p, q in zip(x, y)]
            elif op == OR:
                v = [p | q for p, q in zip(x, y)]
            elif op == IMP:
                v = [(full ^ p) | q for p, q in zip(x, y)]
            elif op == IFF:
                v = [full ^ p ^ q for p, q in zip(x, y)]
            if reuse is not None:
                # v holds the stale worlds' blocks only
                v, part = before[len(vals)], v
                for w, block in zip(worlds, part):
                    v[w] = block
        vals.append(v)
    return vals


def program_masks(model: Model, prog: Program) -> list[int]:
    """Bitmask of worlds where each node of prog holds in the model."""
    columns = [model.masks.get(name, 0) for name in prog.names]
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


_CHUNK = 1 << 16  # lanes valid_on_frame evaluates at once; a multiple of 64


def valid_on_frame(frame: Frame, phi: Formula, mode: str = "exhaustive",
                   samples: int = 10_000, seed: int = 0,
                   budget: int = 1 << 24) -> ValidityReport:
    """Validity of phi on the frame.

    Exhaustive mode decides by checking every valuation of vars(phi) and is
    rejected when 2^(n*|vars|) exceeds the budget; valuation v gives the
    j-th variable in sorted order the worlds w with bit j*n + w of v set.
    Sampled mode checks `samples` (a non-negative int) seeded random
    valuations and can only report the absence of a counterexample among
    them; `seed` must be an int, and more samples than the budget are
    rejected before any draw.  The draws are 64-bit words from
    random.Random(seed), 64 samples a word: sample i gives the j-th of the
    k sorted variables world w when bit i % 64 of word
    (i // 64)*n*k + j*n + w is set.  A report is the same however the
    samples are chunked, and the first s samples are the same for any
    larger sample count.

    Both modes evaluate up to 2^16 valuations at once, as one lane each:
    every variable's column is built directly as one block per world (see
    `_evaluate`).

    Exhaustive mode reuses a chunk's values in the next: only the high
    valuation bits change between chunks, so only the nodes that read a
    variable with a changed bit are evaluated again, and only at the
    worlds that see a world with a changed bit (`_evaluate`'s `reuse`).
    The other worlds passed under the previous chunk's valuations, so the
    first-failure scan reads the stale worlds alone.

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
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, not {seed!r}")
        if samples > budget:
            raise BudgetExceededError(
                f"{samples} valuations exceed the sampled budget {budget}")
        rng = random.Random(seed)
        total = samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    vals = reuse = None
    for base in range(0, total, _CHUNK):
        lanes = min(_CHUNK, total - base)
        ones = (1 << lanes) - 1
        stale = (1 << n) - 1
        if exhaustive:
            blocks = periodic + [ones * (base >> b & 1)
                                 for b in range(len(periodic), n * k)]
            columns = [blocks[j * n:(j + 1) * n] for j in range(k)]
            if base:
                # the valuation bits that differ from the previous chunk's
                changed = _mask_worlds(base ^ (base - _CHUNK))
                stale = _closure(frame.rows, _worlds_mask(b % n for b in changed))
                reuse = vals, _worlds_mask(b // n for b in changed), stale
        else:
            # CPython fills a wide draw from the low end, 32 bits at a time,
            # so its 64-bit words are those that draws one by one would give
            size = 8 * n * k * -(-lanes // 64)
            draws = memoryview(
                rng.getrandbits(8 * size).to_bytes(size, "little")).cast("Q")
            columns = [[int.from_bytes(draws[j * n + w::n * k], "little") & ones
                        for w in range(n)] for j in range(k)]
        vals = _evaluate(frame, prog, columns, lanes, reuse=reuse)
        # a world outside `stale` kept the blocks it passed with last chunk
        root = vals[prog.root]
        fail = {w: ones ^ root[w] for w in _mask_worlds(stale)}
        failing = reduce(or_, fail.values())  # lanes that fail at some world
        if failing:
            lane = (failing & -failing).bit_length() - 1
            world = next(w for w, block in fail.items() if block >> lane & 1)
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

    def is_onto(self, target: Frame) -> bool:
        return set(self.mapping.values()) == set(range(target.n))


def is_p_morphism(f: WorldMap, source: Frame, target: Frame) -> bool:
    """Monotone + back condition on the declared domain; the domain must be
    an up-set of the source (a generated subframe).  Together the two
    conditions say f carries each domain world's row onto its image's.

    Both are read off the preimage masks of the target's worlds.  A domain
    world's row must lie inside the union of the preimages of its image's
    row, so it stays in the domain and maps where the image sees (up-set
    and monotone), and must meet each of those preimages (back).  A domain
    world or an image outside its frame makes no p-morphism."""
    n, m = source.n, target.n
    pre = [0] * m
    for x, t in f.mapping.items():
        if not (0 <= x < n and 0 <= t < m):
            return False
        pre[t] |= 1 << x
    parts = [[pre[y] for y in ys] for ys in target._succs]
    rows = source.rows
    for x, t in f.mapping.items():
        row = rows[x]
        inside = 0
        for p in parts[t]:
            if not row & p:
                return False  # back condition fails
            inside |= p
        if row & ~inside:
            return False  # leaves the domain, or not monotone
    return True


def _onto_p_morphism(mapping: dict[int, int], source: Frame, target: Frame,
                     what: str) -> WorldMap:
    """The mapping as a WorldMap, once it is checked to be an onto
    p-morphism from source to target; a VerificationError naming `what`
    otherwise."""
    wm = WorldMap(mapping)
    if not (is_p_morphism(wm, source, target) and wm.is_onto(target)):
        raise VerificationError(f"{what} is not an onto p-morphism")
    return wm


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
        return tuple(model.masks.get(p, 0) >> w & 1 for p in names)

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

def _closure(rows: Sequence[int], mask: int) -> int:
    """The worlds whose row meets the mask: a world is close to a set iff it
    sees into it, so diamond is closure (McKinsey and Tarski, 1944)."""
    return sum([1 << w for w, row in enumerate(rows) if row & mask])


def _interior(rows: Sequence[int], mask: int) -> int:
    """The worlds whose row lies inside the mask."""
    return sum([1 << w for w, row in enumerate(rows) if row & mask == row])


def _frame_mask(frame: Frame, worlds: Iterable[int]) -> int:
    """Bitmask of worlds of the frame; any other world is a ValueError."""
    m = 0
    for w in worlds:
        if not 0 <= w < frame.n:
            raise ValueError(f"world {w} out of range")
        m |= 1 << w
    return m


def closure_set(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    """Topological closure under the specialization order: the worlds that
    see into the set, which are the worlds where its diamond holds."""
    return frozenset(_mask_worlds(_closure(frame.rows, _frame_mask(frame, worlds))))


def interior_set(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    """The worlds that see only into the set, where its box holds."""
    return frozenset(_mask_worlds(_interior(frame.rows, _frame_mask(frame, worlds))))


def delta(frame: Frame, worlds: Iterable[int]) -> frozenset[int]:
    """External boundary: closure minus the set itself."""
    m = _frame_mask(frame, worlds)
    return frozenset(_mask_worlds(_closure(frame.rows, m) & ~m))


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


def _breadth_first(adj: dict, sources: Iterable, targets=()) -> dict:
    """Predecessor of each node reached breadth-first from `sources` (None
    for a source), neighbours in sorted order; the first node of `targets`
    reached ends the search as the map's last key."""
    queue = list(sources)
    prev = dict.fromkeys(queue)
    for v in queue:
        for w in sorted(adj[v]):
            if w not in prev:
                prev[w] = v
                if w in targets:
                    return prev
                queue.append(w)
    return prev


def _shortest_path(adj: dict, sources: Iterable, targets) -> Optional[list]:
    """Shortest path from one of `sources` to any of `targets` (a set
    disjoint from the sources), or None; ties go to the earlier source and
    the lesser neighbour."""
    prev = _breadth_first(adj, sources, targets)
    path = [next(reversed(prev), None)]
    if path[0] not in targets:
        return None
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


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
    d["val"] = {name: list(_mask_worlds(m)) for name, m in sorted(model.masks.items())}
    return d


def model_from_dict(d: dict) -> Model:
    frame = frame_from_dict(d)
    val = d.get("val", {})
    for name, ws in val.items():
        _ints(f"val.{name}", ws)
    return Model(frame, val)
