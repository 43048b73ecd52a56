"""Crown frames, reduction of validated frames onto crowns, and a
brute-force satisfiability oracle over crowns.

A crown with parameter n has a root below a 2n-cycle in which even-indexed
points see their odd neighbours and odd-indexed points are maximal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, VerificationError
from .formula import (AND, BOT, BOX, DIA, IFF, IMP, NOT, OR, VAR, Formula,
                      compile)
from .kripke import Frame, Model, WorldMap, is_p_morphism, program_masks


def crown(n: int) -> Frame:
    """Crown frame with worlds {0..2n}: world 0 is the root r, world i is s_i."""
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

    `world_map` is always a total, onto p-morphism crown(n) -> g.  When the
    frame has no depth-3 part it is additionally isomorphic to a generated
    subframe of crown(1) or crown(2); `embedding` then maps its worlds onto
    that subframe.
    """

    n: int
    world_map: WorldMap
    embedded: bool = False
    embedding: Optional[dict[int, int]] = None


def _stratify(g: Frame):
    root = g.root
    g1, g2 = [], []
    for x in range(g.n):
        if x == root:
            continue
        mids = [y for y in g.successors(root)
                if y not in (root, x) and g.sees(y, x)]
        if not mids:
            g1.append(x)
    g1set = set(g1)
    for x in range(g.n):
        if x == root or x in g1set:
            continue
        g2.append(x)
    return root, g1, g2


def reduce_to_crown(g: Frame, budget: int = 2_000_000) -> CrownReduction:
    """Build a crown that maps p-morphically onto g.

    Requires a frame the classifier accepts; a refuted frame is reported
    together with the forbidden frame found.  The construction walks the
    undirected middle/endpoint incidence graph along a closed edge-covering
    walk, repairing places where a two-successor middle is flanked twice by
    the same endpoint.
    """
    from .axioms import classify_frame

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
    succs = {u: sorted(y for y in g.successors(u) if y != u) for u in g1}
    if not all(1 <= len(s) <= 2 for s in succs.values()):
        raise VerificationError(
            "a middle world without one or two successors survived classification")
    edges = sorted((u, w) for u in g1 for w in succs[u])
    adj: dict[int, list[int]] = {x: [] for x in g1 + g2}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    for x in adj:
        adj[x].sort()

    def bfs_path(a: int, b: int) -> list[int]:
        if a == b:
            return [a]
        prev = {a: None}
        queue = [a]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if y not in prev:
                        prev[y] = x
                        if y == b:
                            path = [b]
                            while path[-1] != a:
                                path.append(prev[path[-1]])
                            return path[::-1]
                        nxt.append(y)
            queue = nxt
        raise VerificationError("upper part disconnected despite classification")

    u1, w1 = edges[0]
    walk = [w1, u1]
    for u, w in edges[1:]:
        # cross the edge starting from whichever endpoint is closer
        pu, pw = bfs_path(walk[-1], u), bfs_path(walk[-1], w)
        if len(pu) <= len(pw):
            walk.extend(pu[1:])
            walk.append(w)
        else:
            walk.extend(pw[1:])
            walk.append(u)
    if walk[-1] == walk[0]:
        walk.pop()  # already closed; the start vertex is implicit
    else:
        back = bfs_path(walk[-1], walk[0])
        walk.extend(back[1:-1])

    g1set = set(g1)
    # repair: a middle with two successors must be flanked by both
    changed = True
    while changed:
        changed = False
        for i in range(len(walk)):
            x = walk[i]
            if x not in g1set or len(succs[x]) < 2:
                continue
            prev, nxt = walk[i - 1], walk[(i + 1) % len(walk)]
            if prev == nxt:
                z = next(s for s in succs[x] if s != prev)
                walk[i + 1:i + 1] = [z, x]
                changed = True
                break

    if len(walk) % 2:
        raise VerificationError("closed walk has odd length")
    n = len(walk) // 2
    cr = crown(n)
    mapping = {0: root}
    for j in range(1, 2 * n + 1):
        mapping[j] = walk[j - 1]
    wm = WorldMap(mapping)
    if not (is_p_morphism(wm, cr, g) and wm.is_onto(g)):
        raise VerificationError("crown walk map is not an onto p-morphism")
    if n <= 2 and len(set(mapping.values())) == len(mapping) == g.n:
        # the map is an isomorphism, so g embeds as the whole crown
        return CrownReduction(n, wm, embedded=True,
                              embedding={v: k for k, v in mapping.items()})
    return CrownReduction(n, wm)


def _reduce_shallow(g: Frame, root: int, g1: list[int]) -> CrownReduction:
    # no depth-3 part: g embeds as a generated subframe of crown(1) or
    # crown(2), and a total onto map exists from the same crown
    if len(g1) == 0:
        wm = WorldMap({0: root, 1: root, 2: root})
        red = CrownReduction(1, wm, embedded=True, embedding={root: 1})
    elif len(g1) == 1:
        a = g1[0]
        wm = WorldMap({0: root, 1: a, 2: a})
        red = CrownReduction(1, wm, embedded=True, embedding={root: 2, a: 1})
    elif len(g1) == 2:
        a, b = g1
        wm = WorldMap({0: root, 1: a, 2: root, 3: b, 4: root})
        red = CrownReduction(2, wm, embedded=True, embedding={root: 2, a: 1, b: 3})
    else:
        raise VerificationError(
            "three incomparable successors survived classification")
    cr = crown(red.n)
    if not (is_p_morphism(red.world_map, cr, g) and red.world_map.is_onto(g)):
        raise VerificationError("shallow crown map is not an onto p-morphism")
    emb = red.embedding
    if not all(g.sees(x, y) == cr.sees(emb[x], emb[y]) for x in emb for y in emb):
        raise VerificationError("shallow frame does not embed in its crown")
    return red


# ---------------------------------------------------------------------------
# Satisfiability oracle over crowns

@dataclass(frozen=True)
class OracleResult:
    n: int
    model: Model
    world: int


class _CrownTables:
    """Per-formula truth tables for crown evaluation.

    Endpoints see only themselves, so truth there depends on the endpoint's
    atom pattern alone; truth at a middle depends on its pattern plus its two
    endpoint neighbours.  Truth at the root needs, per subformula, whether it
    holds at some / at every non-root world.  A signature has one bit per
    node of the compiled program, so signature computation is pure integer
    work.
    """

    def __init__(self, phi: Formula):
        self.phi = phi
        self.prog = compile(phi)
        self.names = self.prog.names
        self.npat = 1 << len(self.names)
        self.phi_bit = 1 << self.prog.root
        # the root evaluation only consults these bits of the accumulators
        tracked = self.phi_bit
        for op, a, _ in self.prog.code:
            if op in (DIA, BOX):
                tracked |= 1 << a
        self.tracked = tracked
        self._end: dict[int, int] = {}
        self._mid: dict[tuple[int, int, int], int] = {}
        self._root: dict[tuple[int, int, int], int] = {}

    def _run(self, pattern: int, some: int, every: int) -> int:
        # some/every: per-subformula bits for truth at a neighbour world
        # (either endpoint truths for a middle, or the accumulated masks for
        # the root); for an endpoint pass the vector being built itself
        out = 0
        reflexive = some is None
        for i, (op, a, b) in enumerate(self.prog.code):
            if op == VAR:
                v = pattern >> a & 1
            elif op == BOT:
                v = 0
            elif op == NOT:
                v = 1 ^ (out >> a & 1)
            elif op == AND:
                v = (out >> a & 1) & (out >> b & 1)
            elif op == OR:
                v = (out >> a & 1) | (out >> b & 1)
            elif op == IMP:
                v = (1 ^ (out >> a & 1)) | (out >> b & 1)
            elif op == IFF:
                v = 1 ^ ((out >> a & 1) ^ (out >> b & 1))
            elif op == DIA:
                v = out >> a & 1
                if not reflexive:
                    v |= some >> a & 1
            else:  # BOX
                v = out >> a & 1
                if not reflexive:
                    v &= every >> a & 1
            if v:
                out |= 1 << i
        return out

    def end_sig(self, alpha: int) -> int:
        got = self._end.get(alpha)
        if got is None:
            got = self._run(alpha, None, None)
            self._end[alpha] = got
        return got

    def mid_sig(self, beta: int, left: int, right: int) -> int:
        key = (beta, left, right)
        got = self._mid.get(key)
        if got is None:
            el, er = self.end_sig(left), self.end_sig(right)
            got = self._run(beta, el | er, el & er)
            self._mid[key] = got
        return got

    def root_sig(self, pattern: int, any_mask: int, all_mask: int) -> int:
        key = (pattern, any_mask, all_mask)
        got = self._root.get(key)
        if got is None:
            got = self._run(pattern, any_mask, all_mask)
            self._root[key] = got
        return got


def crown_sat_oracle(phi: Formula, max_n: int,
                     step_budget: int = 50_000_000) -> Optional[OracleResult]:
    """Exhaustive search for the smallest crown and the least valuation
    satisfying phi at some world.

    Valuations are ordered as integers with bit w*k+j for variable j at
    world w (worlds 0..2n in crown order), and the least satisfying one is
    returned.  The search enumerates world patterns in that significance
    order, collapsing valuation classes that agree on per-world truth
    tables; a step budget bounds the explored states.
    """
    tables = _CrownTables(phi)
    steps = [0]
    for n in range(1, max_n + 1):
        if not _crown_feasible(tables, n, steps, step_budget):
            continue
        pins = _crown_lex_search(tables, n, steps, step_budget)
        if pins is None:
            raise VerificationError(
                f"feasible crown({n}) lost during reconstruction")
        model = _model_from_patterns(tables, n, pins)
        mask = program_masks(model, tables.prog)[tables.prog.root]
        if not mask:
            raise VerificationError("oracle search produced a non-model")
        world = next(w for w in range(2 * n + 1) if mask >> w & 1)
        return OracleResult(n, model, world)
    return None


def _root_ok(tables: _CrownTables, any_mask: int, all_mask: int) -> bool:
    phi_bit = tables.phi_bit
    if any_mask & phi_bit:
        return True
    return any(tables.root_sig(a_r, any_mask, all_mask) & phi_bit
               for a_r in range(tables.npat))


def _crown_feasible(tables: _CrownTables, n: int, steps: list[int],
                    step_budget: int) -> bool:
    """Forward reachability over deduplicated (endpoint pattern, seen-somewhere,
    seen-everywhere) states; decides satisfiability on crown(n)."""
    P = tables.npat
    tr = tables.tracked
    contrib: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def contributions(a: int, a2: int) -> list[tuple[int, int]]:
        # distinct (or, and) accumulator deltas of a middle between endpoints
        # with patterns a, a2, joined with the endpoint signature of a2
        got = contrib.get((a, a2))
        if got is None:
            e = tables.end_sig(a2)
            got = sorted({((e | tables.mid_sig(b, a, a2)) & tr,
                           e & tables.mid_sig(b, a, a2) & tr)
                          for b in range(P)})
            contrib[(a, a2)] = got
        return got

    wrap_cache: dict[tuple[int, int], list[int]] = {}

    def wraps(a_n: int, a1: int) -> list[int]:
        got = wrap_cache.get((a_n, a1))
        if got is None:
            got = sorted({tables.mid_sig(b, a_n, a1) for b in range(P)})
            wrap_cache[(a_n, a1)] = got
        return got

    for alpha1 in range(P):
        e1 = tables.end_sig(alpha1) & tr
        frontier: dict[int, set[tuple[int, int]]] = {alpha1: {(e1, e1)}}
        for _t in range(n - 1):
            nxt: dict[int, set[tuple[int, int]]] = {a2: set() for a2 in range(P)}
            for alpha, accs in frontier.items():
                for alpha2 in range(P):
                    deltas = contributions(alpha, alpha2)
                    bucket = nxt[alpha2]
                    steps[0] += len(accs) * len(deltas)
                    if steps[0] > step_budget:
                        raise BudgetExceededError("crown oracle step budget exhausted")
                    for (any_mask, all_mask) in accs:
                        for (c_or, c_and) in deltas:
                            bucket.add((any_mask | c_or, all_mask & c_and))
            frontier = {a: s for a, s in nxt.items() if s}
        for alpha_n, accs in frontier.items():
            for wrap in wraps(alpha_n, alpha1):
                for (any_mask, all_mask) in accs:
                    steps[0] += 1
                    if steps[0] > step_budget:
                        raise BudgetExceededError("crown oracle step budget exhausted")
                    if _root_ok(tables, (any_mask | wrap) & tr, all_mask & wrap & tr):
                        return True
    return False


def _crown_lex_search(tables: _CrownTables, n: int, steps: list[int],
                      step_budget: int) -> Optional[list[int]]:
    """Least world-pattern assignment (index 0 = root) satisfying phi on
    crown(n), or None.  Patterns are chosen from world 2n downward so the
    first complete success is the least valuation integer."""
    P = tables.npat
    phi_bit = tables.phi_bit
    tr = tables.tracked

    def root_round(any_mask: int, all_mask: int) -> Optional[int]:
        for a_r in range(P):
            if any_mask & phi_bit or tables.root_sig(a_r, any_mask, all_mask) & phi_bit:
                return a_r
        return None

    for beta_n in range(P):          # world 2n
        for alpha_n in range(P):     # world 2n-1
            sig = tables.end_sig(alpha_n) & tr
            memo: set[tuple[int, int, int, int]] = set()

            def dfs(t: int, alpha_next: int, any_mask: int, all_mask: int
                    ) -> Optional[list[int]]:
                steps[0] += 1
                if steps[0] > step_budget:
                    raise BudgetExceededError("crown oracle step budget exhausted")
                if t == 0:
                    wrap = tables.mid_sig(beta_n, alpha_n, alpha_next)
                    a_r = root_round((any_mask | wrap) & tr, all_mask & wrap & tr)
                    if a_r is None:
                        return None
                    return [a_r]
                key = (t, alpha_next, any_mask, all_mask)
                if key in memo:
                    return None
                for beta in range(P):        # world 2t
                    for alpha in range(P):   # world 2t-1
                        e = tables.end_sig(alpha)
                        m = tables.mid_sig(beta, alpha, alpha_next)
                        got = dfs(t - 1, alpha, (any_mask | e | m) & tr,
                                  all_mask & e & m & tr)
                        if got is not None:
                            return got + [alpha, beta]
                memo.add(key)
                return None

            got = dfs(n - 1, alpha_n, sig, sig)
            if got is not None:
                # got = [a_r, alpha_1, beta_1, ..., alpha_{n-1}, beta_{n-1}]
                return got + [alpha_n, beta_n]
    return None


def _model_from_patterns(tables: _CrownTables, n: int, pins: list[int]) -> Model:
    # pins[w] is the atom pattern of world w
    if len(pins) != 2 * n + 1:
        raise VerificationError(
            f"{len(pins)} world patterns for the {2 * n + 1} worlds of crown({n})")
    val = {}
    for j, name in enumerate(tables.names):
        val[name] = frozenset(w for w in range(2 * n + 1) if pins[w] >> j & 1)
    return Model(crown(n), val)


def crown_sat_bruteforce(phi: Formula, max_n: int,
                         budget: int = 1 << 22) -> Optional[OracleResult]:
    """Plain per-valuation loop with the same contract as crown_sat_oracle;
    only usable when 2^(k*(2n+1)) fits the budget.  Kept as an independent
    cross-check for the table-driven oracle."""
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
