"""Shared enumeration and generation helpers for the test suite."""

from __future__ import annotations

import random
from itertools import permutations

from polyplane.formula import (And, Bottom, Box, Diamond, Formula, Iff,
                               Implies, Not, Or, Var, modal_depth, pretty)
from polyplane.kripke import Frame

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
