"""Shared enumeration and generation helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from polyplane.axioms import Verdict, forbidden_frames
from polyplane.formula import (And, Bottom, Box, Diamond, Formula, Iff,
                               Implies, Not, Or, Var, modal_depth, pretty)
from polyplane.geometry import Line, Scene
from polyplane.kripke import Frame, find_subreduction

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


# ---------------------------------------------------------------------------
# Reference semantics

def reference_truth(frame: Frame, val: dict, phi: Formula) -> frozenset[int]:
    """Worlds where phi holds, decided world by world straight from the S4
    clauses; shares no evaluation code with polyplane.kripke, so tests can
    hold the bit-sliced evaluator against it."""
    succ = {w: [v for v in range(frame.n) if frame.sees(w, v)]
            for w in range(frame.n)}
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


def enumerate_rooted_s4(n: int) -> list[Frame]:
    """All rooted S4 frames with n worlds, one per isomorphism class,
    rooted at world 0."""
    if n == 1:
        return [Frame(1, [], root=0)]
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
    return [out[k] for k in sorted(out)]


def enumerate_s4(n: int) -> list[Frame]:
    """All S4 frames with n worlds, one per isomorphism class."""
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
    return [out[k] for k in sorted(out)]


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
    point found for its full sign system.  The reference for
    `build_arrangement`."""
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
    return Scene(norm, cells, {c: found[c] for c in cells})


def reference_scene_frame(scene: Scene) -> Frame:
    """Specialization frame by the pairwise test: a cell sees every cell it
    agrees with wherever it is off the lines."""
    n = len(scene.cells)
    pairs = [(i, j) for i, s in enumerate(scene.cells)
             for j, t in enumerate(scene.cells)
             if i != j and all(a == 0 or a == b for a, b in zip(s, t))]
    return Frame(n, pairs, root=Frame(n, pairs).find_root())
