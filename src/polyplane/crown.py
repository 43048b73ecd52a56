"""Crown frames, reduction of validated frames onto crowns, and a
brute-force satisfiability oracle over crowns.

A crown with parameter n has a root below a 2n-cycle in which even-indexed
points see their odd neighbours and odd-indexed points are maximal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .axioms import classify_frame
from .errors import BudgetExceededError, StepBudget, VerificationError
from .formula import BOX, DIA, Formula, compile
from .kripke import (Frame, Model, WorldMap, _closed_walk, _evaluate,
                     _even_degrees, _lane_index_bits, _mask_worlds,
                     _onto_p_morphism, program_masks)


@lru_cache(maxsize=64)
def crown(n: int) -> Frame:
    """Crown frame with worlds {0..2n}: world 0 is the root r, world i is s_i.

    Frames are immutable, so each n has one shared frame, kept in a bounded
    cache: crown(3) is crown(3)."""
    if n < 1:
        raise ValueError("crown parameter must be >= 1")
    pairs = [(0, i) for i in range(1, 2 * n + 1)]
    for i in range(2, 2 * n, 2):
        pairs += [(i, i - 1), (i, i + 1)]
    pairs += [(2 * n, 2 * n - 1), (2 * n, 1)]
    return Frame(2 * n + 1, pairs, root=0)


# ---------------------------------------------------------------------------
# Reduction onto crowns

@dataclass(frozen=True)
class CrownReduction:
    """Result of reducing a validated rooted frame to a crown.

    `world_map` is always a total, onto p-morphism crown(n) -> g.  Above
    the root it follows an Euler circuit of g's middle/endpoint graph, so a
    crown maps onto itself by the identity.  When the frame has no depth-3
    part, or the map is one-to-one on at most crown(2), g is additionally
    isomorphic to a generated subframe of crown(1) or crown(2);
    `embedding` then maps its worlds onto that subframe.
    """

    n: int
    world_map: WorldMap
    embedded: bool = False
    embedding: Optional[dict[int, int]] = None


def _stratify(g: Frame):
    # middles are the worlds that only the root and they themselves see
    root, seen = g.root, 0
    for y, row in enumerate(g.rows):
        seen |= 0 if y == root else row & ~(1 << y)
    g1 = [x for x in range(g.n) if x != root and not seen >> x & 1]
    g2 = [x for x in range(g.n) if x != root and seen >> x & 1]
    return root, g1, g2


def reduce_to_crown(g: Frame, budget: int = 2_000_000) -> CrownReduction:
    """Build a crown that maps p-morphically onto g.

    Requires a frame the classifier accepts; a refuted frame is reported
    together with the forbidden frame found.  Each middle world becomes an
    edge between its successors (a loop if it has one), the edges on
    shortest paths between odd-degree endpoints, paired in ascending
    order, are doubled, and an Euler circuit of the result is read off as
    the crown cycle.  A circuit passes through a two-successor middle from
    one of its successors to the other, so every crown middle sees exactly
    the successors of the middle it maps to.
    """
    g = g.rooted()
    verdict = classify_frame(g, budget=budget)
    if not verdict.validates:
        raise ValueError(f"frame is refuted by {verdict.refuted_id}; cannot reduce")

    root, g1, g2 = _stratify(g)

    if not g2:
        return _reduce_shallow(g, root, g1)

    if not g1:
        raise VerificationError(
            "worlds above the root without a middle world survived classification")
    succs = {u: [y for y in g.successors(u) if y != u] for u in g1}
    if not all(1 <= len(s) <= 2 for s in succs.values()):
        raise VerificationError(
            "a middle world without one or two successors survived classification")
    # each middle is an edge between its least and greatest successor;
    # adj[a][b] is the least middle with successors a and b
    edges = [(succs[u][0], succs[u][-1], u) for u in g1]
    adj: dict[int, dict[int, int]] = {}
    for a, b, u in edges:
        adj.setdefault(a, {}).setdefault(b, u)
        adj.setdefault(b, {}).setdefault(a, u)
    _even_degrees(edges, adj)
    try:
        walk = _closed_walk(edges, succs[g1[0]][0])
    except ValueError:
        raise VerificationError(
            "upper part disconnected despite classification") from None

    n = len(walk)
    cr = crown(n)
    mapping = {0: root}
    for i, (x, u) in enumerate(walk):
        mapping[2 * i + 1] = x
        mapping[2 * i + 2] = u
    wm = _onto_p_morphism(mapping, cr, g, "crown walk map")
    if n <= 2 and len(set(mapping.values())) == len(mapping) == g.n:
        # the map is an isomorphism, so g embeds as the whole crown
        return CrownReduction(n, wm, embedded=True,
                              embedding={v: k for k, v in mapping.items()})
    return CrownReduction(n, wm)


def _reduce_shallow(g: Frame, root: int, g1: list[int]) -> CrownReduction:
    # no depth-3 part: g embeds as a generated subframe of crown(1) or
    # crown(2), and a total onto map exists from the same crown
    if len(g1) == 0:
        n, mapping, emb = 1, {0: root, 1: root, 2: root}, {root: 1}
    elif len(g1) == 1:
        a = g1[0]
        n, mapping, emb = 1, {0: root, 1: a, 2: a}, {root: 2, a: 1}
    elif len(g1) == 2:
        a, b = g1
        n, mapping = 2, {0: root, 1: a, 2: root, 3: b, 4: root}
        emb = {root: 2, a: 1, b: 3}
    else:
        raise VerificationError(
            "three incomparable successors survived classification")
    cr = crown(n)
    wm = _onto_p_morphism(mapping, cr, g, "shallow crown map")
    if not all(g.sees(x, y) == cr.sees(emb[x], emb[y]) for x in emb for y in emb):
        raise VerificationError("shallow frame does not embed in its crown")
    return CrownReduction(n, wm, embedded=True, embedding=emb)


# ---------------------------------------------------------------------------
# Satisfiability oracle over crowns

@dataclass(frozen=True)
class OracleResult:
    n: int
    model: Model
    world: int


_POINT = Frame(1)
_TABLES = "signature tables"  # the budget phase of every table fill
# (first, last) endpoint signatures -> (any, all) masks of the worlds between
_States = dict[tuple[int, int], set[tuple[int, int]]]


def _add_tooth(accs, end: int, mids):
    """(any, all) masks once a middle with a signature in mids and an
    endpoint with signature end join each member of accs, mids outermost."""
    return ((any_mask | o, all_mask & a)
            for o, a in [(end | m, end & m) for m in mids]
            for any_mask, all_mask in accs)


class _CrownTables:
    """Per-formula signature tables for crown evaluation, one lane per atom
    pattern, and the transition system over crown states that they define.

    A crown world's truths depend on its own atom pattern and on the nodes
    its strict successors make true somewhere / everywhere: none for an
    endpoint, its two endpoints for a middle, the accumulated (any, all)
    masks for the root.  Each such neighbour key is one `kripke._evaluate`
    call on a one-world frame with P = 2^k lanes (lane a is pattern a), so
    one call gives every pattern's signature for that key.  A signature
    keeps only the tracked bits, the nodes whose truth reaches other
    worlds: phi and the operands of diamonds and boxes.

    Every table fill spends P steps from the oracle's budget (evaluation,
    transposition and the distinct signatures), so tables whose pattern
    count alone exceeds the budget are not built.
    """

    def __init__(self, phi: Formula, steps: StepBudget):
        self.prog = compile(phi)
        self.names = self.prog.names
        self.npat = P = 1 << len(self.names)
        steps.spend(P, _TABLES)
        self.phi_bit = 1 << self.prog.root
        tracked = self.phi_bit
        for op, a, _ in self.prog.code:
            if op in (DIA, BOX):
                tracked |= 1 << a
        self.tracked = tracked
        # lane a holds pattern a, on the one world of _POINT
        self._columns = [[bits] for bits in _lane_index_bits(P)]
        self.end = self._sigs(None)  # end[a]: endpoint signature of pattern a
        self.ends = sorted(set(self.end))
        self._mids: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self._roots: dict[tuple[int, int], Optional[int]] = {}

    def _sigs(self, beyond: Optional[tuple[int, int]]) -> list[int]:
        # each pattern's signature at a world whose strict successors make
        # `beyond` true somewhere / everywhere; lanes read off binary digits
        sigs = [0] * self.npat
        vals = _evaluate(_POINT, self.prog, self._columns, self.npat, beyond)
        for i in _mask_worlds(self.tracked):
            digits = format(vals[i][0], "b")[::-1]
            a = digits.find("1")
            while a >= 0:
                sigs[a] |= 1 << i
                a = digits.find("1", a + 1)
        return sigs

    def mid(self, left: int, right: int, steps: StepBudget
            ) -> tuple[list[int], list[int]]:
        """Signatures of a middle between endpoints with signatures left and
        right: one per pattern, and the distinct ones in ascending order."""
        key = (left | right, left & right)
        got = self._mids.get(key)
        if got is None:
            steps.spend(self.npat, _TABLES)
            sigs = self._sigs(key)
            got = self._mids[key] = (sigs, sorted(set(sigs)))
        return got

    def close(self, accs, wraps, steps: StepBudget) -> Optional[int]:
        """Close the cycles with masks in accs by a middle with a signature
        in wraps; the least root pattern under which phi then holds at some
        world, for the first closed cycle that has one, or None."""
        for key in {(any_mask | w, all_mask & w)
                    for w in wraps for any_mask, all_mask in accs}:
            if key[0] & self.phi_bit:
                return 0
            if key not in self._roots:
                steps.spend(self.npat, _TABLES)
                [lanes] = _evaluate(_POINT, self.prog, self._columns,
                                    self.npat, key)[self.prog.root]
                self._roots[key] = (lanes & -lanes).bit_length() - 1 if lanes else None
            if self._roots[key] is not None:
                return self._roots[key]
        return None

    def start(self) -> _States:
        """States of crown(1): one tooth, whose endpoint is first and last."""
        return {(e, e): {(e, e)} for e in self.ends}

    def extend(self, states: _States, steps: StepBudget) -> _States:
        """States one tooth longer: a middle and the next endpoint follow."""
        nxt: _States = {}
        for (first, last), accs in states.items():
            for e in self.ends:
                mids = self.mid(last, e, steps)[1]
                steps.spend(len(accs) * len(mids), "feasibility pass")
                nxt.setdefault((first, e), set()).update(_add_tooth(accs, e, mids))
        return nxt

    def accepts(self, states: _States, steps: StepBudget) -> bool:
        """Whether closing some state back to its first endpoint models phi."""
        for (first, last), accs in states.items():
            wraps = self.mid(last, first, steps)[1]
            steps.spend(len(accs) * len(wraps), "feasibility pass")
            if self.close(accs, wraps, steps) is not None:
                return True
        return False


def crown_sat_oracle(phi: Formula, max_n: int,
                     step_budget: int = 50_000_000) -> Optional[OracleResult]:
    """Exhaustive search for the smallest crown and the least valuation
    satisfying phi at some world.

    Valuations are ordered as integers with bit w*k+j for variable j at
    world w (worlds 0..2n in crown order), and the least satisfying one is
    returned.  Rounds of `extend` and `accepts` find the least n, stopping
    early once the states stop changing; the search then enumerates world
    patterns in that significance order, collapsing valuation classes that
    agree on per-world signatures.  A step is one explored state, or one
    pattern lane of a table fill; the budget bounds their number.
    """
    if max_n < 1:
        raise ValueError("crown bound must be >= 1")
    steps = StepBudget(step_budget, "crown oracle")
    tables = _CrownTables(phi, steps)
    states, n = tables.start(), 1
    while not tables.accepts(states, steps):
        if n == max_n or (grown := tables.extend(states, steps)) == states:
            return None
        states, n = grown, n + 1
    pins = _crown_lex_search(tables, n, steps)
    if pins is None:
        raise VerificationError(f"feasible crown({n}) lost during reconstruction")
    model = _model_from_patterns(tables, n, pins)
    mask = program_masks(model, tables.prog)[tables.prog.root]
    if not mask:
        raise VerificationError("oracle search produced a non-model")
    world = next(w for w in range(2 * n + 1) if mask >> w & 1)
    return OracleResult(n, model, world)


def _crown_lex_search(tables: _CrownTables, n: int, steps: StepBudget
                      ) -> Optional[list[int]]:
    """Least world-pattern assignment (index 0 = root) satisfying phi on
    crown(n), or None.  Patterns are chosen from world 2n downward so the
    first complete success is the least valuation integer."""
    P = tables.npat
    end = tables.end
    memo: set[tuple[int, int, tuple[tuple[int, int]]]] = set()
    alpha_n = beta_n = 0  # the patterns of worlds 2n-1 and 2n being tried

    def dfs(t: int, alpha_next: int, accs: tuple[tuple[int, int]]
            ) -> Optional[list[int]]:
        steps.spend(1, "lexicographic reconstruction")
        if t == 0:
            wrap = tables.mid(end[alpha_n], end[alpha_next], steps)[0][beta_n]
            a_r = tables.close(accs, [wrap], steps)
            return None if a_r is None else [a_r]
        key = (t, alpha_next, accs)
        if key in memo:
            return None
        for beta in range(P):        # world 2t
            for alpha in range(P):   # world 2t-1
                e = end[alpha]
                m = tables.mid(e, end[alpha_next], steps)[0][beta]
                got = dfs(t - 1, alpha, tuple(_add_tooth(accs, e, [m])))
                if got is not None:
                    return got + [alpha, beta]
        memo.add(key)
        return None

    try:
        for beta_n in range(P):          # world 2n
            for alpha_n in range(P):     # world 2n-1
                memo.clear()
                sig = end[alpha_n]
                got = dfs(n - 1, alpha_n, ((sig, sig),))
                if got is not None:
                    # got = [a_r, alpha_1, beta_1, ..., alpha_{n-1}, beta_{n-1}]
                    return got + [alpha_n, beta_n]
        return None
    finally:
        dfs = None  # dfs reaches itself through its closure: free it now


def _model_from_patterns(tables: _CrownTables, n: int, pins: list[int]) -> Model:
    # pins[w] is the atom pattern of world w
    if len(pins) != 2 * n + 1:
        raise VerificationError(
            f"{len(pins)} world patterns for the {2 * n + 1} worlds of crown({n})")
    masks = {name: sum(1 << w for w in range(2 * n + 1) if pins[w] >> j & 1)
             for j, name in enumerate(tables.names)}
    return Model(crown(n), masks=masks)


def crown_sat_bruteforce(phi: Formula, max_n: int,
                         budget: int = 1 << 22) -> Optional[OracleResult]:
    """Plain per-valuation loop with the same contract as crown_sat_oracle;
    only usable when 2^(k*(2n+1)) fits the budget.  Kept as an independent
    cross-check for the table-driven oracle."""
    if max_n < 1:
        raise ValueError("crown bound must be >= 1")
    prog = compile(phi)
    names = prog.names
    k = len(names)
    for n in range(1, max_n + 1):
        worlds = 2 * n + 1
        bits = k * worlds
        if (1 << bits) > budget:
            raise BudgetExceededError(
                f"2^{bits} valuations exceed the brute-force budget")
        frame = crown(n)
        for value in range(1 << bits):
            val = {name: frozenset(w for w in range(worlds)
                                   if value >> (w * k + j) & 1)
                   for j, name in enumerate(names)}
            model = Model(frame, val)
            mask = program_masks(model, prog)[prog.root]
            if mask:
                world = next(w for w in range(worlds) if mask >> w & 1)
                return OracleResult(n, model, world)
    return None
