"""Shared enumeration and generation helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import lcm
from typing import Iterable, Optional

from hypothesis import strategies as st

from polyplane.axioms import Verdict, forbidden_frames
from polyplane.crown import OracleResult, _model_from_patterns
from polyplane.errors import BudgetExceededError, VerificationError
from polyplane.formula import (AND, BOT, BOX, DIA, IFF, IMP, NOT, OR, VAR, And,
                               Bottom, Box, Diamond, Formula, Iff, Implies,
                               Not, Or, Var, children, compile, conj, disj,
                               modal_depth, pretty, render_nodes)
from polyplane.geometry import Line, Scene
from polyplane.kripke import (Frame, WorldMap, _even_degrees, find_subreduction,
                              program_masks)
from polyplane.mosaic import (_RULES, LabelSpace, Mosaic, MosaicError,
                              SatResult, SolverStats, StepBudget,
                              extract_model)

UNARY = (Not, Box, Diamond)
BINARY = (And, Or, Implies, Iff)


def all_formulas(max_size: int, names: tuple[str, ...] = ("p", "q"),
                 include_bottom: bool = True) -> list[Formula]:
    """Every formula with at most max_size AST nodes over the given
    variables, in a deterministic order."""
    by_size: list[list[Formula]] = [[]]
    leaves = [Var(n) for n in names] + ([Bottom()] if include_bottom else [])
    by_size.append(list(leaves))
    for size in range(2, max_size + 1):
        layer: list[Formula] = []
        for op in UNARY:
            layer.extend(op(f) for f in by_size[size - 1])
        for op in BINARY:
            for ls in range(1, size - 1):
                rs = size - 1 - ls
                layer.extend(op(l, r) for l in by_size[ls] for r in by_size[rs])
        by_size.append(layer)
    out = []
    for layer in by_size[1:]:
        out.extend(layer)
    return out


def random_formula(rng: random.Random, size: int,
                   names: tuple[str, ...] = ("p", "q", "r")) -> Formula:
    if size <= 1:
        return rng.choice([Var(n) for n in names] + [Bottom()])
    if size == 2 or rng.random() < 0.4:
        return rng.choice(list(UNARY))(random_formula(rng, size - 1, names))
    split = rng.randint(1, size - 2)
    return rng.choice(list(BINARY))(random_formula(rng, split, names),
                                    random_formula(rng, size - 1 - split, names))


@st.composite
def formulas(draw, size=None, max_size=12):
    """A formula of exactly `size` AST nodes (1..max_size drawn) over
    {p, q, r}."""
    if size is None:
        size = draw(st.integers(1, max_size))
    if size == 1:
        return draw(st.sampled_from([Var("p"), Var("q"), Var("r"), Bottom()]))
    if size == 2 or draw(st.booleans()):
        op = draw(st.sampled_from([Not, Box, Diamond]))
        return op(draw(formulas(size - 1)))
    split = draw(st.integers(1, size - 2))
    op = draw(st.sampled_from([And, Or, Implies, Iff]))
    return op(draw(formulas(split)), draw(formulas(size - 1 - split)))


def corpus_200(seed: int = 2024) -> list[Formula]:
    """Fixed 200-formula corpus over {p, q, r} with modal depth <= 3."""
    rng = random.Random(seed)
    seen = set()
    out: list[Formula] = []
    while len(out) < 200:
        f = random_formula(rng, rng.randint(3, 9))
        if modal_depth(f) <= 3 and f not in seen:
            seen.add(f)
            out.append(f)
    return out


def formula_pool() -> list[Formula]:
    """Small fixed pool for preservation/invariance property tests."""
    from polyplane.formula import parse
    return [parse(s) for s in [
        "p", "~p", "p | ~p", "<>p", "[]p", "<>[]p", "[]<>p",
        "p -> <>p", "<>p -> []<>p", "p -> [](~p -> [](p -> []p))",
        "<>(p & q)", "[](p -> q) -> ([]p -> []q)", "<>p & <>~p",
        "<>[]p & <>[]~p", "[](p | q)",
    ]]


def counter_formula(k: int, unsat: bool = False) -> Formula:
    """A binary counter of k >= 2 bits stepped around the crown: satisfiable
    on crown(2^(k+1) - 2) and on no smaller crown, and unsatisfiable with
    `unsat`, which forbids the counter value 2^(k-1).

    Over atoms r, e and b0..b{k-1}: r holds at the root, which sees e-worlds
    with counters 0, 1 and 2^k - 1; every e-world fixes its bits for all it
    sees; and every other world sees two e-worlds whose counters differ by
    one (`step(j)`: bit j differs, the bits above it agree, and the bits
    below it are all ones on the side where bit j is zero and all zeros on
    the other).  The README gives the least-crown argument."""
    r, e = Var("r"), Var("e")
    bits = [Var(f"b{i}") for i in range(k)]

    def count(v: int) -> Formula:
        return conj([b if v >> i & 1 else Not(b) for i, b in enumerate(bits)])

    def step(j: int) -> Formula:
        b = bits[j]
        return conj([Diamond(And(e, b)), Diamond(And(e, Not(b)))]
                    + [Or(Box(Implies(e, c)), Box(Implies(e, Not(c))))
                       for c in bits[j + 1:]]
                    + [And(Box(Implies(And(e, b), Not(c))),
                           Box(Implies(And(e, Not(b)), c)))
                       for c in bits[:j]])

    parts = [r,
             Box(Implies(r, conj([Not(e)] + [Diamond(And(e, count(v)))
                                              for v in (0, 1, (1 << k) - 1)]))),
             Box(Implies(And(Not(e), Not(r)), disj([step(j) for j in range(k)]))),
             Box(Implies(e, conj([Or(Box(b), Box(Not(b))) for b in bits])))]
    if unsat:
        parts.append(Box(Implies(e, Not(count(1 << (k - 1))))))
    return conj(parts)


# ---------------------------------------------------------------------------
# Reference semantics

@lru_cache(maxsize=64)
def reference_successors(frame: Frame) -> tuple[tuple[int, ...], ...]:
    """Each world's successors, pair by pair from Frame.sees; built once
    per frame, as reference_truth runs once per valuation."""
    return tuple(tuple(v for v in range(frame.n) if frame.sees(w, v))
                 for w in range(frame.n))


def reference_truth(frame: Frame, val: dict, phi: Formula) -> frozenset[int]:
    """Worlds where phi holds, decided world by world straight from the S4
    clauses; shares no evaluation code with polyplane.kripke, so tests can
    hold the bit-sliced evaluator against it."""
    succ = reference_successors(frame)
    memo: dict = {}

    def holds(w: int, f: Formula) -> bool:
        key = (w, f)
        if key not in memo:
            if isinstance(f, Var):
                out = w in val.get(f.name, ())
            elif isinstance(f, Bottom):
                out = False
            elif isinstance(f, Not):
                out = not holds(w, f.sub)
            elif isinstance(f, And):
                out = holds(w, f.left) and holds(w, f.right)
            elif isinstance(f, Or):
                out = holds(w, f.left) or holds(w, f.right)
            elif isinstance(f, Implies):
                out = not holds(w, f.left) or holds(w, f.right)
            elif isinstance(f, Iff):
                out = holds(w, f.left) == holds(w, f.right)
            elif isinstance(f, Diamond):
                out = any(holds(v, f.sub) for v in succ[w])
            elif isinstance(f, Box):
                out = all(holds(v, f.sub) for v in succ[w])
            else:
                raise TypeError(f"not a formula: {f!r}")
            memo[key] = out
        return memo[key]

    return frozenset(w for w in range(frame.n) if holds(w, phi))


# ---------------------------------------------------------------------------
# Frame enumeration up to isomorphism

def canonical_rows(frame: Frame) -> tuple[int, ...]:
    """Least relation table over all relabellings of the worlds."""
    n = frame.n
    best = None
    for perm in permutations(range(n)):
        rows = [0] * n
        for x in range(n):
            for y in range(n):
                if frame.rows[x] >> y & 1:
                    rows[perm[x]] |= 1 << perm[y]
        t = tuple(rows)
        if best is None or t < best:
            best = t
    return best


def frames_isomorphic(f1: Frame, f2: Frame) -> bool:
    """Backtracking isomorphism search with degree-profile pruning (the
    permutation-minimum canonical form is hopeless past a handful of
    worlds)."""
    if f1.n != f2.n:
        return False
    n = f1.n

    def profile(fr, x):
        out = bin(fr.rows[x]).count("1")
        inn = sum(1 for y in range(fr.n) if fr.rows[y] >> x & 1)
        return (out, inn)

    p1 = [profile(f1, x) for x in range(n)]
    p2 = [profile(f2, x) for x in range(n)]
    if sorted(p1) != sorted(p2):
        return False
    order = sorted(range(n), key=lambda x: (p1.count(p1[x]), x))
    mapping = [-1] * n
    used = [False] * n

    def bt(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        for t in range(n):
            if used[t] or p1[x] != p2[t]:
                continue
            ok = True
            for j in range(k):
                y = order[j]
                if (f1.sees(x, y) != f2.sees(t, mapping[y])
                        or f1.sees(y, x) != f2.sees(mapping[y], t)):
                    ok = False
                    break
            if ok:
                mapping[x] = t
                used[t] = True
                if bt(k + 1):
                    return True
                used[t] = False
                mapping[x] = -1
        return False

    return bt(0)


@lru_cache(maxsize=None)
def enumerate_rooted_s4(n: int) -> tuple[Frame, ...]:
    """All rooted S4 frames with n worlds, one per isomorphism class,
    rooted at world 0.  Built once per n: frames are immutable, and the
    tuple cannot be changed by one test under another."""
    if n == 1:
        return (Frame(1, [], root=0),)
    full = (1 << n) - 1
    free = [(x, y) for x in range(1, n) for y in range(n) if y != x]
    out = {}
    for mask in range(1 << len(free)):
        rows = [0] * n
        rows[0] = full
        for i, (x, y) in enumerate(free):
            if mask >> i & 1:
                rows[x] |= 1 << y
        for x in range(n):
            rows[x] |= 1 << x
        ok = True
        for x in range(n):
            acc = rows[x]
            m = rows[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[y]
            if acc != rows[x]:
                ok = False
                break
        if not ok:
            continue
        frame = Frame(n, [(x, y) for x in range(n) for y in range(n)
                          if rows[x] >> y & 1 and x != y], root=0)
        out.setdefault(canonical_rows(frame), frame)
    return tuple(out[k] for k in sorted(out))


@lru_cache(maxsize=None)
def enumerate_s4(n: int) -> tuple[Frame, ...]:
    """All S4 frames with n worlds, one per isomorphism class, built once
    per n like enumerate_rooted_s4's."""
    free = [(x, y) for x in range(n) for y in range(n) if y != x]
    out = {}
    for mask in range(1 << len(free)):
        rows = [1 << x for x in range(n)]
        for i, (x, y) in enumerate(free):
            if mask >> i & 1:
                rows[x] |= 1 << y
        ok = True
        for x in range(n):
            acc = rows[x]
            m = rows[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[y]
            if acc != rows[x]:
                ok = False
                break
        if not ok:
            continue
        frame = Frame(n, [(x, y) for x in range(n) for y in range(n)
                          if rows[x] >> y & 1 and x != y])
        out.setdefault(canonical_rows(frame), frame)
    return tuple(out[k] for k in sorted(out))


def reference_classify(frame: Frame, budget: int = 2_000_000) -> Verdict:
    """Classification by search: `find_subreduction` once per forbidden
    frame in B1..B5 order, the first hit wins."""
    frame = frame.rooted()
    for ff in forbidden_frames():
        wm = find_subreduction(frame, ff.frame, budget=budget)
        if wm is not None:
            return Verdict(False, ff.id, wm)
    return Verdict(True)


def shallow_rooted_family(max_worlds: int) -> list[Frame]:
    """All rooted frames of the shape root / middles / endpoints with edges
    only from middles to endpoints, up to iso; every frame the classifier
    can accept is of this shape (no cluster, no strict 3-chain above the
    root), so this family covers all validating frames."""
    out = {}
    for a in range(0, max_worlds):
        for b in range(0, max_worlds - a):
            if 1 + a + b > max_worlds:
                continue
            if b > 0 and a == 0:
                continue
            for mask in range(1 << (a * b)):
                pairs = [(0, w) for w in range(1, 1 + a + b)]
                covered = set()
                for i in range(a):
                    for j in range(b):
                        if mask >> (i * b + j) & 1:
                            pairs.append((1 + i, 1 + a + j))
                            covered.add(j)
                if len(covered) != b:
                    continue
                frame = Frame(1 + a + b, pairs, root=0)
                out.setdefault(canonical_rows(frame), frame)
    return [out[k] for k in sorted(out)]


def _reference_solve_1d(eqs, ins):
    # eqs: p*t + q = 0; ins: p*t + q > 0, over Fractions
    t = None
    for p, q in eqs:
        if p == 0:
            if q != 0:
                return None
        else:
            v = -q / p
            if t is None:
                t = v
            elif t != v:
                return None
    if t is not None:
        return t if all(p * t + q > 0 for p, q in ins) else None
    lo = hi = None
    for p, q in ins:
        if p == 0:
            if q <= 0:
                return None
        elif p > 0:
            v = -q / p
            lo = v if lo is None else max(lo, v)
        else:
            v = -q / p
            hi = v if hi is None else min(hi, v)
    if lo is not None and hi is not None:
        if lo >= hi:
            return None
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


def reference_feasible_point(eqs, ins):
    """`feasible_point` computed in Fractions throughout: substitute the
    first equality, else pair every lower bound on y with every upper one."""
    if eqs:
        a, b, c = eqs[0]
        if b != 0:
            def sub(aa, bb, cc):
                return (aa - bb * a / b, cc - bb * c / b)
            x = _reference_solve_1d([sub(*e) for e in eqs[1:]], [sub(*i) for i in ins])
            if x is None:
                return None
            return (x, -(a * x + c) / b)
        x = -c / a
        y = _reference_solve_1d([(bb, aa * x + cc) for aa, bb, cc in eqs[1:]],
                                [(bb, aa * x + cc) for aa, bb, cc in ins])
        if y is None:
            return None
        return (x, y)
    lows = [i for i in ins if i[1] > 0]
    highs = [i for i in ins if i[1] < 0]
    pure = [(a, c) for a, b, c in ins if b == 0]
    pure += [(-bh * al + bl * ah, -bh * cl + bl * ch)
             for al, bl, cl in lows for ah, bh, ch in highs]
    x = _reference_solve_1d([], pure)
    if x is None:
        return None
    ylo = max((-(a * x + c) / b for a, b, c in lows), default=None)
    yhi = min((-(a * x + c) / b for a, b, c in highs), default=None)
    if ylo is not None and yhi is not None:
        y = (ylo + yhi) / 2
    elif ylo is not None:
        y = ylo + 1
    elif yhi is not None:
        y = yhi - 1
    else:
        y = Fraction(0)
    return (x, y)


def reference_arrangement(lines) -> Scene:
    """Scene by depth-first search over sign prefixes, pruned by
    `reference_feasible_point` at every node; the witness of a cell is the
    point found for its full sign system, over a common denominator.  The
    reference for `build_arrangement`."""
    norm = tuple(l if isinstance(l, Line) else Line.make(*l) for l in lines)
    found: dict[tuple[int, ...], tuple] = {}

    def dfs(prefix: list[int], eqs: list, ins: list) -> None:
        i = len(prefix)
        if i == len(norm):
            p = reference_feasible_point(eqs, ins)
            if p is None:
                raise AssertionError(f"leaf {prefix} has no feasible point")
            found[tuple(prefix)] = p
            return
        ln = norm[i]
        for s in (-1, 0, 1):
            if s == 0:
                nxt_eqs, nxt_ins = eqs + [(ln.a, ln.b, ln.c)], ins
            elif s == 1:
                nxt_eqs, nxt_ins = eqs, ins + [(ln.a, ln.b, ln.c)]
            else:
                nxt_eqs, nxt_ins = eqs, ins + [(-ln.a, -ln.b, -ln.c)]
            if reference_feasible_point(nxt_eqs, nxt_ins) is not None:
                dfs(prefix + [s], nxt_eqs, nxt_ins)

    dfs([], [], [])
    cells = tuple(sorted(found))
    points = {}
    for c in cells:
        x, y = map(Fraction, found[c])
        d = lcm(x.denominator, y.denominator)
        points[c] = (x.numerator * (d // x.denominator),
                     y.numerator * (d // y.denominator), d)
    return Scene(norm, cells, points)


def reference_scene_frame(scene: Scene) -> Frame:
    """Specialization frame by the pairwise test: a cell sees every cell it
    agrees with wherever it is off the lines."""
    n = len(scene.cells)
    pairs = [(i, j) for i, s in enumerate(scene.cells)
             for j, t in enumerate(scene.cells)
             if i != j and all(a == 0 or a == b for a, b in zip(s, t))]
    return Frame(n, pairs, root=Frame(n, pairs).find_root())


def reference_decide_sat(theta: Formula, exhaustive_anywhere: bool = False,
               budget: int = 20_000_000) -> SatResult:
    """The per-root mosaic search decide_sat replaced, kept as its
    reference: it enumerates the labels below every root label afresh and
    runs the arc loop over every label.

    Satisfiability of theta over the finite crown frames.

    Tries root labels containing theta in ascending order; for each, builds
    the glue graph of coherent tiles compatible with that root and looks for
    a connected family supplying every diamond and every refuted box of the
    root.  Satisfiability somewhere coincides with satisfiability at a root:
    the submodel generated by any crown world pulls back to the root of a
    small crown along a total p-morphism (a constant map for an endpoint,
    the two-teeth cover for a middle), so the root pass is complete.  The
    literal second pass over theta-free root labels, behind
    `exhaustive_anywhere`, lets the tests check that it finds nothing more.
    """
    space = LabelSpace.for_formula(theta)
    stats = SolverStats()
    steps = [0]
    idx, pol = space.ref(theta)
    for rho in space.enumerate_labels(must=[(idx, pol, True)]):
        stats.roots_tried += 1
        got = _reference_try_root(space, rho, None, stats, steps, budget)
        if got is not None:
            return got
    if exhaustive_anywhere:
        for rho in space.enumerate_labels(must=[(idx, pol, False)]):
            stats.roots_tried += 1
            got = _reference_try_root(space, rho, theta, stats, steps, budget)
            if got is not None:
                return got
    return SatResult(False, stats=stats)


def _reference_mid_fits(space: LabelSpace, m: int, e0: int, e1: int) -> bool:
    return (space.pair_ok(m, e0) and space.pair_ok(m, e1)
            and space.middle_ok(m, e0, e1))


def _reference_try_root(space: LabelSpace, rho: int, need: Optional[Formula],
              stats: SolverStats, steps: list[int],
              budget: int) -> Optional[SatResult]:
    """Search for a satisfying tile family with root label rho.  When `need`
    is set (second pass), some placed label must also contain it."""
    # labels compatible below rho: boxes of rho force their bodies and
    # persist (every world's successors sit below the root too), missing
    # diamonds of rho forbid theirs and stay missing; labels violating
    # persistence could never appear in a coherent tile anyway
    must = []
    for i in space.box_list:
        if rho >> i & 1:
            must.append((*space.operands[i][0], True))
            must.append((i, True, True))
    for i in space.dia_list:
        if not rho >> i & 1:
            must.append((*space.operands[i][0], False))
            must.append((i, True, False))
    labels = space.enumerate_labels(must=must)
    stats.labels_built += len(labels)

    edges = [lab for lab in labels if space.edge_ok(lab)]
    if not edges:
        return None

    vecs = {lab: space.vectors(lab) for lab in labels}

    # arc (xi, yi) exists when some middle makes (rho, m, X, Y) coherent;
    # keep the least such middle per arc
    arc_mid: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {i: set() for i in range(len(edges))}
    for m in labels:
        dt_m, dc_m, bt_m, bc_m = vecs[m]
        pc = [i for i, x in enumerate(edges) if space.pair_ok(m, x)]
        steps[0] += len(pc) * len(pc) + len(edges)
        if steps[0] > budget:
            raise BudgetExceededError("mosaic search budget exhausted")
        for xi in pc:
            dcx = vecs[edges[xi]][1]
            bcx = vecs[edges[xi]][3]
            rd = dt_m & ~(dc_m | dcx)
            rb = bc_m & bcx & ~bt_m
            for yi in pc:
                if (xi, yi) in arc_mid:
                    continue
                if rd & ~vecs[edges[yi]][1] or rb & vecs[edges[yi]][3]:
                    continue
                arc_mid[(xi, yi)] = m
                adj[xi].add(yi)
                adj[yi].add(xi)
    stats.arcs += len(arc_mid)
    if not arc_mid:
        return None

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

    for members in comps:
        got = _reference_try_component(space, rho, edges, members, arc_mid, adj, labels,
                             need, stats)
        if got is not None:
            return got
    return None


def _reference_try_component(space: LabelSpace, rho: int, edges: list[int],
                   members: list[int], arc_mid: dict, adj: dict,
                   labels: list[int], need: Optional[Formula],
                   stats: SolverStats) -> Optional[SatResult]:
    dt_r, dc_r, bt_r, bc_r = space.vectors(rho)
    full_box = (1 << len(space.box_list)) - 1
    member_set = set(members)

    chosen: set[tuple[int, int, int]] = set()

    def add_arc(xi: int, yi: int, m: int):
        # once, either way round: the walk may cross a tile backwards
        chosen.add((min(xi, yi), max(xi, yi), m))

    def place_edge(xi: int):
        yi = min(adj[xi])
        m = arc_mid.get((xi, yi))
        if m is None:
            m = arc_mid[(yi, xi)]
        add_arc(xi, yi, m)

    def find_middle(pred) -> bool:
        # least (m, xi, yi) with pred(m) and a coherent tile inside the component
        for m in labels:
            if not pred(m):
                continue
            for xi in members:
                if not space.pair_ok(m, edges[xi]):
                    continue
                for yi in members:
                    if _reference_mid_fits(space, m, edges[xi], edges[yi]):
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
        prev: dict[int, int] = {}
        seen = set(connected)
        frontier = sorted(connected)
        target = None
        while frontier and target is None:
            nxt = []
            for v in frontier:
                for w in sorted(adj[v]):
                    if w in seen:
                        continue
                    seen.add(w)
                    prev[w] = v
                    if w in missing:
                        target = w
                        break
                    nxt.append(w)
                if target is not None:
                    break
            frontier = nxt
        if target is None:
            raise MosaicError("component lost connectivity")
        path = [target]
        while path[-1] not in connected:
            path.append(prev[path[-1]])
        path.reverse()
        for u, v in zip(path, path[1:]):
            m = arc_mid.get((u, v))
            if m is None:
                m = arc_mid[(v, u)]
            add_arc(u, v, m)
        connected |= set(path)
        missing = set(nodes) - connected

    # the library's degree evening, so that models can be compared
    tiles = sorted(chosen)
    _even_degrees(tiles, {x: {y: arc_mid[(x, y)] for y in adj[x]}
                          for x in adj})
    pool = tuple(Mosaic(rho, m, edges[xi], edges[yi]) for xi, yi, m in tiles)
    n, model, witness = extract_model(pool, space, rho)
    stats.pool_size = len(pool)
    stats.crown_n = n
    return SatResult(True, n, model, witness, rho, pool, stats)


# ---------------------------------------------------------------------------
# The sweep propagator and copying search LabelSpace.enumerate_labels
# replaced, kept as its reference: every search node copies the value list
# and propagates by sweeping every positive member until nothing changes.

def _reference_value(values: list, ref: tuple[int, bool]):
    v = values[ref[0]]
    return None if v is None else (v == ref[1])


def reference_propagate(space: LabelSpace, values: list) -> bool:
    """Unit propagation to fixpoint; False on conflict."""

    def put(ref, v) -> bool:
        idx, pol = ref
        want = v == pol
        if values[idx] is None:
            values[idx] = want
            changed[0] = True
            return True
        return values[idx] == want

    changed = [True]
    while changed[0]:
        changed[0] = False
        for i, op in enumerate(space.ops):
            c = values[i]
            if op == VAR:
                continue
            if op == BOT:
                if c is True:
                    return False
                if c is None and not put((i, True), False):
                    return False
                continue
            if op == DIA:
                a = _reference_value(values, space.operands[i][0])
                if a is True:
                    if c is False:
                        return False
                    if c is None and not put((i, True), True):
                        return False
                elif c is False and a is None:
                    if not put(space.operands[i][0], False):
                        return False
                continue
            if op == BOX:
                a = _reference_value(values, space.operands[i][0])
                if a is False:
                    if c is True:
                        return False
                    if c is None and not put((i, True), False):
                        return False
                elif c is True and a is None:
                    if not put(space.operands[i][0], True):
                        return False
                continue
            rx, ry = space.operands[i]
            x, y = _reference_value(values, rx), _reference_value(values, ry)
            if op == AND:
                if x is False or y is False:
                    if c is True:
                        return False
                    if c is None and not put((i, True), False):
                        return False
                elif x is True and y is True:
                    if c is False:
                        return False
                    if c is None and not put((i, True), True):
                        return False
                elif c is True:
                    if not (put(rx, True) and put(ry, True)):
                        return False
                elif c is False:
                    if x is True and not put(ry, False):
                        return False
                    if y is True and not put(rx, False):
                        return False
            elif op == OR:
                if x is True or y is True:
                    if c is False:
                        return False
                    if c is None and not put((i, True), True):
                        return False
                elif x is False and y is False:
                    if c is True:
                        return False
                    if c is None and not put((i, True), False):
                        return False
                elif c is False:
                    if not (put(rx, False) and put(ry, False)):
                        return False
                elif c is True:
                    if x is False and not put(ry, True):
                        return False
                    if y is False and not put(rx, True):
                        return False
            elif op == IMP:
                if x is False or y is True:
                    if c is False:
                        return False
                    if c is None and not put((i, True), True):
                        return False
                elif x is True and y is False:
                    if c is True:
                        return False
                    if c is None and not put((i, True), False):
                        return False
                elif c is False:
                    if not (put(rx, True) and put(ry, False)):
                        return False
                elif c is True:
                    if x is True and not put(ry, True):
                        return False
                    if y is False and not put(rx, False):
                        return False
            elif op == IFF:
                if x is not None and y is not None:
                    want = x == y
                    if c is None:
                        if not put((i, True), want):
                            return False
                    elif c != want:
                        return False
                elif c is not None and x is not None:
                    if not put(ry, x == c):
                        return False
                elif c is not None and y is not None:
                    if not put(rx, y == c):
                        return False
    return True


def reference_enumerate_labels(space: LabelSpace,
                               must: Iterable[tuple[int, bool, bool]] = (),
                               budget: Optional[StepBudget] = None) -> list[int]:
    """All Hintikka labels satisfying the given (index, polarity, value)
    constraints, as ascending bitmasks.  With a budget, every search
    node spends one step per closure member it propagates over."""
    values: list = [None] * space.size
    for idx, pol, v in must:
        want = v == pol
        if values[idx] is not None and values[idx] != want:
            return []
        values[idx] = want
    if not reference_propagate(space, values):
        return []
    out: list[int] = []
    decisions = [i for i, op in enumerate(space.ops)
                 if op in (VAR, DIA, BOX)]
    # (values, position in decisions before which all are set)
    stack = [(values, 0)]
    while stack:
        vals, k = stack.pop()
        if budget is not None:
            budget.spend(space.size, "label enumeration")
        while k < len(decisions) and vals[decisions[k]] is not None:
            k += 1
        if k == len(decisions):
            if None in vals:
                raise MosaicError("propagation left a closure member "
                                  "undecided in a complete label")
            out.append(sum(1 << i for i, v in enumerate(vals) if v))
            continue
        for v in (True, False):  # False is popped, and searched, first
            nxt = vals.copy()
            nxt[decisions[k]] = v
            if reference_propagate(space, nxt):
                stack.append((nxt, k + 1))
    out.sort()
    return out


# The table building LabelSpace.__init__ replaced by one pass over the
# members, kept as its reference: the member order and literals first, then
# every rule clause expanded from its positions, then each table read off
# the opcodes.

_REFERENCE_ARITY = {VAR: 0, BOT: 0, NOT: 1, DIA: 1, BOX: 1, AND: 2, OR: 2,
                    IMP: 2, IFF: 2}


def reference_label_tables(theta: Formula) -> dict:
    """The tables of LabelSpace(theta), by attribute name."""
    program = compile(theta)
    code = program.code
    sizes, texts = render_nodes(program)
    nodes = sorted((i for i, (op, _, _) in enumerate(code) if op != NOT),
                   key=lambda i: (sizes[i], texts[i]))
    size = len(nodes)
    lit_of = [0] * len(code)
    for j, i in enumerate(nodes):
        lit_of[i] = 2 * j
    for i, (op, a, _) in enumerate(code):
        if op == NOT:
            lit_of[i] = lit_of[a] ^ 1
    ops = [code[i][0] for i in nodes]
    args = [code[i][1:1 + _REFERENCE_ARITY[op]] for i, op in zip(nodes, ops)]
    slots_of = {op: [[~"cxy".index(t[1]) if t[0] == "-" else "cxy".index(t)
                      for t in clause.split()] for clause in rule]
                for op, rule in _RULES.items()}

    operands, masks = [], []
    succ: list[list[int]] = [[] for _ in range(2 * size)]
    long: list[list] = [[] for _ in range(size)]
    down = [False] * (2 * size)
    for j, op in enumerate(ops):
        lits = [2 * j, *[lit_of[i] for i in args[j]]]
        operands.append(tuple([(x >> 1, not x & 1) for x in lits[1:]]))
        lits += [x ^ 1 for x in reversed(lits)]
        for slots in slots_of.get(op, ()):
            clause = [lits[k] for k in slots]
            ones = zeros = twice = 0
            for x in clause:
                bit = 1 << (x >> 1)
                twice |= (ones | zeros) & bit
                if x & 1:
                    zeros |= bit
                else:
                    ones |= bit
            masks.append((ones, zeros))
            if len(clause) == 2:
                x, y = clause
                succ[x ^ 1].append(y)
                succ[y ^ 1].append(x)
                down[max(x, y) ^ 1] = True
            elif len(clause) > 2:
                for idx in {x >> 1 for x in clause}:
                    long[idx].append((ones, zeros, twice))

    closure: list = [None] * (2 * size)
    for x in ([x for x in range(2 * size - 1, -1, -1) if not down[x]]
              + [x for x in range(2 * size) if down[x]]):
        t, f = (0, 1 << (x >> 1)) if x & 1 else (1 << (x >> 1), 0)
        for y in succ[x]:
            yt, yf = closure[y]
            t |= yt
            f |= yf
        closure[x] = t, f
    return {
        "nodes": nodes, "_lit_of": lit_of, "ops": ops, "operands": operands,
        "_clause_masks": masks, "_long": long, "_closure": closure,
        "_watched": sum(1 << j for j in range(size) if long[j]),
        "dia_list": [j for j, op in enumerate(ops) if op == DIA],
        "box_list": [j for j, op in enumerate(ops) if op == BOX],
        "_bottoms": [2 * j + 1 for j, op in enumerate(ops) if op == BOT],
        "_decisions": sum(1 << j for j, op in enumerate(ops)
                          if op in (VAR, DIA, BOX)),
    }


# ---------------------------------------------------------------------------
# The recursive subformulas, closure, modal_depth and substitute, kept as
# references for the ones reading the compiled program

def reference_subformulas(f: Formula) -> frozenset[Formula]:
    return frozenset({f}).union(*map(reference_subformulas, children(f)))


def reference_closure(f: Formula) -> frozenset[Formula]:
    subs = reference_subformulas(f)
    return subs | {g.sub if isinstance(g, Not) else Not(g) for g in subs}


def reference_modal_depth(f: Formula) -> int:
    if isinstance(f, (Box, Diamond)):
        return 1 + reference_modal_depth(f.sub)
    if children(f):
        return max(reference_modal_depth(c) for c in children(f))
    return 0


def reference_substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of variables; no re-substitution into images."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Not):
        return Not(reference_substitute(f.sub, mapping))
    if isinstance(f, Box):
        return Box(reference_substitute(f.sub, mapping))
    if isinstance(f, Diamond):
        return Diamond(reference_substitute(f.sub, mapping))
    return type(f)(reference_substitute(f.left, mapping),
                   reference_substitute(f.right, mapping))


def reference_is_p_morphism(f: WorldMap, source: Frame, target: Frame) -> bool:
    """Monotone and back conditions checked world by world over successor
    sets, kept as the reference for the preimage-mask test.  A domain world
    or an image outside its frame makes no p-morphism."""
    dom = f.mapping
    if not all(0 <= x < source.n and 0 <= fx < target.n
               for x, fx in dom.items()):
        return False
    for x in dom:
        if any(y not in dom for y in source.successors(x)):
            return False  # domain not an up-set
        fx = dom[x]
        for y in source.successors(x):
            if not target.sees(fx, dom[y]):
                return False  # not monotone
        images = {dom[y] for y in source.successors(x)}
        for z in target.successors(fx):
            if z not in images:
                return False  # back condition fails
    return True


# ---------------------------------------------------------------------------
# The crown oracle with its own opcode interpreter: one bit per _run call,
# a root test looping over every pattern, and reachability restarted for
# every crown size and first endpoint pattern.  Kept as the reference for
# crown_sat_oracle's answers.

class _ReferenceCrownTables:
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


def reference_crown_sat_oracle(phi: Formula, max_n: int,
                               step_budget: int = 50_000_000) -> Optional[OracleResult]:
    """Exhaustive search for the smallest crown and the least valuation
    satisfying phi at some world.

    Valuations are ordered as integers with bit w*k+j for variable j at
    world w (worlds 0..2n in crown order), and the least satisfying one is
    returned.  The search enumerates world patterns in that significance
    order, collapsing valuation classes that agree on per-world truth
    tables; a step budget bounds the explored states.
    """
    tables = _ReferenceCrownTables(phi)
    steps = [0]
    for n in range(1, max_n + 1):
        if not _reference_crown_feasible(tables, n, steps, step_budget):
            continue
        pins = _reference_crown_lex_search(tables, n, steps, step_budget)
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


def _reference_root_ok(tables: _ReferenceCrownTables, any_mask: int, all_mask: int) -> bool:
    phi_bit = tables.phi_bit
    if any_mask & phi_bit:
        return True
    return any(tables.root_sig(a_r, any_mask, all_mask) & phi_bit
               for a_r in range(tables.npat))


def _reference_crown_feasible(tables: _ReferenceCrownTables, n: int, steps: list[int],
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
                    if _reference_root_ok(tables, (any_mask | wrap) & tr, all_mask & wrap & tr):
                        return True
    return False


def _reference_crown_lex_search(tables: _ReferenceCrownTables, n: int, steps: list[int],
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
