"""Exact-rational line arrangements as finite stand-ins for the plane with
polygonal valuations.

Cells are the maximal regions of constant sign against every line of a
scene, encoded as sign vectors with stored rational witness points.  The
specialization order of the cells (a cell sees the cells it is a limit of
touching) is a finite reflexive-transitive frame, which is how formulas get
evaluated topologically.  Scenes of concurrent lines realize crown models
geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .crown import crown
from .errors import VerificationError
from .formula import Formula
from .kripke import (Frame, Model, WorldMap, closure_set,
                     delta as frame_delta, eval_formula, interior_set,
                     is_p_morphism)

Point = tuple[Fraction, Fraction]
SignVector = tuple[int, ...]
CellSet = frozenset


@dataclass(frozen=True)
class Line:
    """Locus a*x + b*y + c = 0 with integer coefficients, content 1, and the
    first nonzero of (a, b) positive, so equal lines compare equal."""

    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def make(cls, a, b, c) -> "Line":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        mult = 1
        for f in (a, b, c):
            mult = mult * f.denominator // gcd(mult, f.denominator)
        ai, bi, ci = int(a * mult), int(b * mult), int(c * mult)
        g = gcd(gcd(abs(ai), abs(bi)), abs(ci)) or 1
        ai, bi, ci = ai // g, bi // g, ci // g
        lead = ai if ai != 0 else bi
        if lead < 0:
            ai, bi, ci = -ai, -bi, -ci
        return cls(Fraction(ai), Fraction(bi), Fraction(ci))

    def at(self, p: Point) -> Fraction:
        return self.a * p[0] + self.b * p[1] + self.c

    def sign_at(self, p: Point) -> int:
        return _sign(_integral((self.a, self.b, self.c)), p)


# ---------------------------------------------------------------------------
# Feasibility of sign systems (two variables, equalities + strict inequalities)

def _integral(row: tuple) -> tuple[int, ...]:
    """The constraint times the least positive integer that clears its
    denominators; a positive factor keeps an inequality's direction."""
    m = lcm(*(v.denominator for v in row))
    return tuple(v.numerator * (m // v.denominator) for v in row)


def _sign(row: tuple[int, int, int], p: Point) -> int:
    """Sign of a*x + b*y + c at p, for integers (a, b, c): the value times
    the positive denominators of x and y, in integers."""
    a, b, c = row
    (xn, xd), (yn, yd) = ((v.numerator, v.denominator) for v in p)
    v = a * xn * yd + b * yn * xd + c * xd * yd
    return (v > 0) - (v < 0)


def _solve_1d(eqs: list[tuple[int, int]],
              ins: list[tuple[int, int]]) -> Optional[Fraction]:
    # eqs: p*t + q = 0; ins: p*t + q > 0; bounds are kept as integer pairs
    # (numerator, positive denominator) and compared by cross-multiplying
    t = None
    for p, q in eqs:
        if p == 0:
            if q != 0:
                return None
        else:
            v = (-q, p) if p > 0 else (q, -p)
            if t is None:
                t = v
            elif v[0] * t[1] != t[0] * v[1]:
                return None
    if t is not None:
        return Fraction(*t) if all(p * t[0] + q * t[1] > 0 for p, q in ins) else None
    lo = hi = None
    for p, q in ins:
        if p == 0:
            if q <= 0:
                return None
        elif p > 0:
            if lo is None or -q * lo[1] > lo[0] * p:
                lo = (-q, p)
        elif hi is None or q * hi[1] < hi[0] * -p:
            hi = (q, -p)
    if lo is not None and hi is not None:
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return None
        return (Fraction(*lo) + Fraction(*hi)) / 2
    if lo is not None:
        return Fraction(*lo) + 1
    if hi is not None:
        return Fraction(*hi) - 1
    return Fraction(0)


def feasible_point(eqs: list[tuple[Fraction, Fraction, Fraction]],
                   ins: list[tuple[Fraction, Fraction, Fraction]]
                   ) -> Optional[Point]:
    """Rational point satisfying a*x+b*y+c = 0 for all eqs and > 0 for all
    ins, or None.  Equalities are substituted away; the remaining strict
    system loses y by pairing lower and upper bounds (the standard
    elimination, exact at this dimension).  Each constraint is first scaled
    to integers, which moves no bound, so the arithmetic stays on ints."""
    eqs = [_integral(e) for e in eqs]
    ins = [_integral(i) for i in ins]
    # an equality 0 = c holds nowhere unless c = 0, and then everywhere
    if any(a == b == 0 and c for a, b, c in eqs):
        return None
    eqs = [e for e in eqs if e[0] or e[1]]
    if eqs:
        a, b, c = eqs[0]
        if b == 0:
            return _at_x(Fraction(-c, a), eqs[1:], ins)
        # y = -(a x + c)/b; the substituted rows are scaled by |b|
        sb = 1 if b > 0 else -1

        def sub(aa, bb, cc):
            return (sb * (aa * b - bb * a), sb * (cc * b - bb * c))
        x = _solve_1d([sub(*e) for e in eqs[1:]], [sub(*i) for i in ins])
        if x is None:
            return None
        return (x, -(a * x + c) / b)
    lows, highs, pure = [], [], []
    for a, b, c in ins:
        if b > 0:
            lows.append((a, b, c))
        elif b < 0:
            highs.append((a, b, c))
        else:
            pure.append((a, c))
    for al, bl, cl in lows:
        for ah, bh, ch in highs:
            pure.append((-bh * al + bl * ah, -bh * cl + bl * ch))
    x = _solve_1d([], pure)
    if x is None:
        return None
    return _at_x(x, [], ins)


def _at_x(x: Fraction, eqs: list[tuple[int, int, int]],
          ins: list[tuple[int, int, int]]) -> Optional[Point]:
    """(x, y) for the y that `_solve_1d` picks on the rows at this x, or
    None; each row a*x + b*y + c is scaled by the denominator of x."""
    xn, xd = x.numerator, x.denominator
    y = _solve_1d([(b * xd, a * xn + c * xd) for a, b, c in eqs],
                  [(b * xd, a * xn + c * xd) for a, b, c in ins])
    return None if y is None else (x, y)


# ---------------------------------------------------------------------------
# Scenes

@dataclass(frozen=True)
class Scene:
    """Arrangement of distinct lines; cells are exactly the realizable sign
    vectors, each with a rational witness attaining it.

    The specialization frame (`frame`) and the cell -> index map (`index`)
    are built on first use and kept with the scene, so every query on one
    scene reads the same ones.  `scene_frame(scene)` builds a fresh frame on
    each call."""

    lines: tuple[Line, ...]
    cells: tuple[SignVector, ...]
    witness: dict[SignVector, Point]

    @cached_property
    def frame(self) -> Frame:
        return scene_frame(self)

    @cached_property
    def index(self) -> dict[SignVector, int]:
        return {c: i for i, c in enumerate(self.cells)}

    def signs_of(self, p: Point) -> SignVector:
        return tuple(l.sign_at(p) for l in self.lines)


MAX_LINES = 12


def build_arrangement(lines: Sequence) -> Scene:
    """Scene of the given lines.  The cells are read off the crossings (see
    `_cell_signs`); each witness is `feasible_point` of the cell's own sign
    system, taken in line order, and is re-checked against the cell."""
    norm = tuple(l if isinstance(l, Line) else Line.make(*l) for l in lines)
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate line in arrangement")
    if len(norm) > MAX_LINES:
        raise ValueError(f"more than {MAX_LINES} lines")
    cells = tuple(sorted(_cell_signs(norm)))
    rows = [_integral((l.a, l.b, l.c)) for l in norm]
    negs = [(-a, -b, -c) for a, b, c in rows]
    witness: dict[SignVector, Point] = {}
    for cell in cells:
        eqs = [r for r, s in zip(rows, cell) if s == 0]
        ins = [r if s > 0 else n for r, n, s in zip(rows, negs, cell) if s != 0]
        p = feasible_point(eqs, ins)
        if p is None:
            raise VerificationError(f"cell {cell} has no feasible point")
        if tuple(_sign(r, p) for r in rows) != cell:
            raise VerificationError(f"witness {p} does not attain cell {cell}")
        witness[cell] = p
    return Scene(norm, cells, witness)


def _cell_signs(lines: tuple[Line, ...]) -> set[SignVector]:
    """Sign vectors of all cells.  Every vertex is a crossing, every edge
    holds a point between consecutive crossings of its line (or beyond the
    last one), and every face has an edge on its boundary.  A point just off
    an edge, nearer than any other line, keeps the edge's signs except on the
    edge's own line, so each edge gives its two faces by flipping that sign.
    Walking a line past its crossings in order, each crossing zeroes the
    lines through it, and the sign of each beyond it is fixed."""
    if not lines:
        return {()}
    out: set[SignVector] = set()
    for i, li in enumerate(lines):
        # points p0 + t*(-b, a) of line i; line j is k*(t - t_j) along it
        p0 = (Fraction(0), -li.c / li.b) if li.b != 0 else (-li.c / li.a, Fraction(0))
        signs = [0] * len(lines)
        crossings: dict[Fraction, list[tuple[int, int]]] = {}
        for j, lj in enumerate(lines):
            if j == i:
                continue
            k = li.a * lj.b - lj.a * li.b
            if k == 0:
                signs[j] = lj.sign_at(p0)
            else:
                sk = 1 if k > 0 else -1
                signs[j] = -sk
                crossings.setdefault(-lj.at(p0) / k, []).append((j, sk))
        for t in sorted(crossings):
            _add_edge(out, signs, i)
            for j, _ in crossings[t]:
                signs[j] = 0
            out.add(tuple(signs))
            for j, sk in crossings[t]:
                signs[j] = sk
        _add_edge(out, signs, i)
    return out


def _add_edge(out: set[SignVector], signs: list[int], i: int) -> None:
    """Add the edge of line i with these signs elsewhere, and its two faces."""
    for s in (-1, 0, 1):
        signs[i] = s
        out.add(tuple(signs))
    signs[i] = 0


def scene_frame(scene: Scene) -> Frame:
    """Specialization order of the cells: a cell sees the cells whose
    closure it lies in, i.e. it agrees with them wherever it is off the
    lines.  One bitmask per (line, sign) holds the cells with that sign on
    that line, so a cell's row is the AND of its masks over the lines it is
    off.  The relation is already reflexive and transitive, and a root is a
    cell that sees every cell."""
    n = len(scene.cells)
    full = (1 << n) - 1
    masks = [[0, 0, 0] for _ in scene.lines]
    for k, cell in enumerate(scene.cells):
        for i, s in enumerate(cell):
            masks[i][s + 1] |= 1 << k
    pairs = []
    root = None
    for k, cell in enumerate(scene.cells):
        row = full
        for i, s in enumerate(cell):
            if s:
                row &= masks[i][s + 1]
        if row == full and root is None:
            root = k
        while row:
            low = row & -row
            pairs.append((k, low.bit_length() - 1))
            row ^= low
    return Frame(n, pairs, root=root)


_REL_SIGNS = {"<": {-1}, "<=": {-1, 0}, "=": {0}, ">=": {0, 1}, ">": {1}}


def compile_polygon(scene: Scene, dnf: Iterable[Iterable[tuple[int, str]]]
                    ) -> CellSet:
    """Cells of the polygon described by a disjunction of conjunctions of
    (line index, relation) constraints; pure sign logic."""
    out = set()
    clauses = [list(cl) for cl in dnf]
    for clause in clauses:
        for i, rel in clause:
            if not 0 <= i < len(scene.lines):
                raise ValueError(f"line index {i} out of range")
            if rel not in _REL_SIGNS:
                raise ValueError(f"unknown relation {rel!r}")
    for cell in scene.cells:
        for clause in clauses:
            ok = True
            for i, rel in clause:
                if cell[i] not in _REL_SIGNS[rel]:
                    ok = False
                    break
            if ok:
                out.add(cell)
                break
    return frozenset(out)


def cells_to_dnf(scene: Scene, cells: Iterable[SignVector]) -> list[list[tuple[int, str]]]:
    """Each cell as the conjunction of its own sign constraints."""
    sign_rel = {-1: "<", 0: "=", 1: ">"}
    return [[(i, sign_rel[s]) for i, s in enumerate(cell)]
            for cell in sorted(cells)]


def _cell_ids(scene: Scene, cells: Iterable[SignVector]) -> list[int]:
    """Indices of the cells in the scene; a cell of another scene is a
    ValueError."""
    index = scene.index
    ids = []
    for c in cells:
        if c not in index:
            raise ValueError(f"cell {c} does not belong to the scene")
        ids.append(index[c])
    return ids


def eval_scene(scene: Scene, val: dict[str, CellSet], cell: SignVector,
               phi: Formula) -> bool:
    """Topological truth at any point of the cell, for the cell-constant
    valuation; computed on the specialization frame."""
    [world] = _cell_ids(scene, [cell])
    kv = {name: frozenset(_cell_ids(scene, cs)) for name, cs in val.items()}
    return eval_formula(Model(scene.frame, kv), world, phi)


def _scene_cells(scene: Scene, op, cells: Iterable[SignVector]) -> CellSet:
    got = op(scene.frame, _cell_ids(scene, cells))
    return frozenset(scene.cells[i] for i in got)


def scene_closure(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    return _scene_cells(scene, closure_set, cells)


def scene_interior(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    return _scene_cells(scene, interior_set, cells)


def scene_delta(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    return _scene_cells(scene, frame_delta, cells)


# ---------------------------------------------------------------------------
# Realizing crown models as concurrent-line scenes

def _angle_cmp(u: Point, v: Point) -> int:
    # counterclockwise from the positive x-axis, exact
    def half(p):
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1
    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross == 0:
        raise ValueError("equal directions")
    return -1 if cross > 0 else 1


def _around(scene: Scene) -> tuple[SignVector, list[SignVector]]:
    """The vertex of a scene of L >= 2 concurrent lines, and its 2L rays
    and 2L sectors in counterclockwise order from the positive x-axis; a
    scene of another shape is a ValueError."""
    L = len(scene.lines)
    vertex = [c for c in scene.cells if all(s == 0 for s in c)]
    rays = [c for c in scene.cells if c.count(0) == 1]
    sectors = [c for c in scene.cells if 0 not in c]
    if not (len(vertex) == 1 and len(rays) == 2 * L and len(sectors) == 2 * L):
        raise ValueError("scene is not a concurrent-line arrangement")
    around = sorted(rays + sectors,
                    key=cmp_to_key(lambda a, b: _angle_cmp(
                        _direction(scene, vertex[0], a),
                        _direction(scene, vertex[0], b))))
    if any((0 in c) == (0 in around[i - 1]) for i, c in enumerate(around)):
        raise VerificationError("rays and sectors do not alternate around the vertex")
    return vertex[0], around


def concurrent_crown_map(scene: Scene) -> dict[int, int]:
    """For a scene of L >= 2 concurrent lines: the isomorphism from cell
    indices onto crown(2L), sending the vertex to the root, rays to the
    even worlds in angular order, and sectors to the odd worlds between
    them."""
    vertex, around = _around(scene)
    m = len(around)
    p = next(i for i, c in enumerate(around) if 0 in c)  # first ray
    index = scene.index
    out = {index[vertex]: 0}
    for j in range(m):
        out[index[around[(p + j) % m]]] = 2 + j if j < m - 1 else 1
    # the map is one-to-one onto the worlds, so it is an isomorphism iff it
    # is a p-morphism
    if not is_p_morphism(WorldMap(out), scene.frame, crown(m // 2)):
        raise VerificationError(f"cell map is not an isomorphism onto crown({m // 2})")
    return out


def _direction(scene: Scene, vertex: SignVector, cell: SignVector) -> Point:
    wx, wy = scene.witness[cell]
    vx, vy = scene.witness[vertex]
    return (wx - vx, wy - vy)


def wrap_map(big: int, small: int) -> WorldMap:
    """The p-morphism crown(big) -> crown(small) wrapping the cycle, valid
    when the small cycle length divides the big one."""
    if (2 * big) % (2 * small) != 0:
        raise ValueError("cycle lengths incompatible")
    mapping = {0: 0}
    for i in range(1, 2 * big + 1):
        mapping[i] = (i - 1) % (2 * small) + 1
    wm = WorldMap(mapping)
    if not is_p_morphism(wm, crown(big), crown(small)):
        raise VerificationError(f"wrap crown({big}) -> crown({small}) is not a p-morphism")
    if not wm.is_onto(crown(small)):
        raise VerificationError(f"wrap crown({big}) -> crown({small}) is not onto")
    return wm


@dataclass(frozen=True)
class Realization:
    """A crown model realized in the plane: scene, pulled-back valuation,
    distinguished cell, and the composite cell -> crown world map."""

    scene: Scene
    val: dict[str, CellSet]
    cell: SignVector
    cell_world: dict[int, int]


def realize_crown_model(model: Model, witness: int,
                        formula: Optional[Formula] = None) -> Realization:
    """Realize a crown model as a scene of concurrent rational lines through
    the origin, with the valuation pulled back along the composite
    cells -> crown(2L) -> crown(m) map.

    Truth of any formula at the distinguished cell then equals truth at the
    witness world; when `formula` is given this is verified directly.
    """
    m = (model.frame.n - 1) // 2
    if m < 1 or model.frame != crown(m):
        raise ValueError("model frame is not a crown")
    if not 0 <= witness < model.frame.n:
        raise ValueError("witness world out of range")
    L = max(2, m)
    lines = [Line.make(-k, 1, 0) for k in range(L)]
    scene = build_arrangement(lines)
    iso = concurrent_crown_map(scene)
    wrap = wrap_map(2 * L, m)
    composite = {ci: wrap[w] for ci, w in iso.items()}
    val: dict[str, CellSet] = {}
    for name, worlds in model.val.items():
        val[name] = frozenset(scene.cells[ci] for ci, w in composite.items()
                              if w in worlds)
    if witness == 0:
        cell_idx = next(ci for ci, w in iso.items() if w == 0)
    else:
        cell_idx = min(ci for ci, w in composite.items() if w == witness)
    cell = scene.cells[cell_idx]
    if formula is not None and (eval_scene(scene, val, cell, formula)
                                != eval_formula(model, witness, formula)):
        raise VerificationError("realized cell and witness world disagree on the formula")
    return Realization(scene, val, cell, composite)


# ---------------------------------------------------------------------------
# Interchange and figure output

def scene_to_dict(scene: Scene, val: Optional[dict[str, CellSet]] = None) -> dict:
    d = {"lines": [[str(l.a), str(l.b), str(l.c)] for l in scene.lines]}
    if val is not None:
        d["val"] = {name: {"dnf": [[[i, rel] for i, rel in clause]
                                   for clause in cells_to_dnf(scene, cs)]}
                    for name, cs in sorted(val.items())}
    return d


def scene_from_dict(d: dict) -> tuple[Scene, dict[str, CellSet]]:
    lines = [Line.make(Fraction(a), Fraction(b), Fraction(c))
             for a, b, c in d["lines"]]
    scene = build_arrangement(lines)
    val = {}
    for name, entry in d.get("val", {}).items():
        dnf = [[(int(i), rel) for i, rel in clause] for clause in entry["dnf"]]
        val[name] = compile_polygon(scene, dnf)
    return scene, val


_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
            "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]


def scene_to_svg(scene: Scene, val: dict[str, CellSet]) -> str:
    """Plain SVG figure of a concurrent-line scene: sectors and rays
    coloured by the set of atoms true on them."""
    radius = 160
    vertex, around = _around(scene)
    names = sorted(val)
    key_of = {}
    for c in scene.cells:
        key_of[c] = tuple(name for name in names if c in val[name])
    combos = sorted(set(key_of.values()))
    color = {k: _PALETTE[i % len(_PALETTE)] for i, k in enumerate(combos)}

    def unit(c):
        dx, dy = _direction(scene, vertex, c)
        norm = (float(dx) ** 2 + float(dy) ** 2) ** 0.5
        return (float(dx) / norm * radius, float(dy) / norm * radius)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-radius-10} '
             f'{-radius-10} {2*radius+20} {2*radius+20}">',
             '<g transform="scale(1,-1)">']
    k = len(around)
    for i, c in enumerate(around):
        if 0 not in c:  # a sector
            x1, y1 = unit(around[(i - 1) % k])
            x2, y2 = unit(around[(i + 1) % k])
            parts.append(
                f'<path d="M 0 0 L {x1:.2f} {y1:.2f} A {radius} {radius} 0 0 1 '
                f'{x2:.2f} {y2:.2f} Z" fill="{color[key_of[c]]}" '
                f'fill-opacity="0.6" stroke="none"/>')
    for c in around:
        if 0 in c:  # a ray
            x, y = unit(c)
            parts.append(f'<line x1="0" y1="0" x2="{x:.2f}" y2="{y:.2f}" '
                         f'stroke="{color[key_of[c]]}" stroke-width="3"/>')
    parts.append(f'<circle cx="0" cy="0" r="4" fill="{color[key_of[vertex]]}" '
                 f'stroke="black" stroke-width="0.5"/>')
    parts.append('</g>')
    legend_y = -radius - 8
    for i, kk in enumerate(combos):
        label = "{" + ",".join(kk) + "}"
        parts.append(f'<rect x="{-radius-8}" y="{legend_y + 12*i}" width="10" '
                     f'height="10" fill="{color[kk]}"/>')
        parts.append(f'<text x="{-radius+6}" y="{legend_y + 12*i + 9}" '
                     f'font-size="9">{label}</text>')
    parts.append('</svg>')
    return "\n".join(parts)
